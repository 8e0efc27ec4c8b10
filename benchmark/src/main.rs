//! The benchmark harness. `run.sh` builds the product's `serve` and
//! `kg_ingest` binaries and this program, then runs it from the repository
//! root:
//!
//! ```text
//! harness --workload NAME --seed N --seconds S --trace 0|1   one run; the last stdout line is the result
//! harness [--seed N] [--seconds S] [--trace 1]               the whole suite, as a table (and its traced pass)
//! harness spec                                               prints BENCHMARK.json
//! harness spread FILE...                                     A/A report over result lines (see aa.sh)
//! ```

mod aa;
mod clock;
mod inputs;
mod layers;
mod loadgen;
mod server;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use spec::Metric;
use workloads::{RunConfig, RunOutput};

/// Where every file the benchmark writes goes (relative to the repository
/// root, which `run.sh` makes the working directory).
const OUT_DIR: &str = "benchmark/out";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    /// `--trace 1`: the traced run (one workload) or pass (suite).
    trace: bool,
    check: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        check: true,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?.clone()),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed needs an integer".to_string())?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s >= 1.0 && *s <= 60.0)
                    .ok_or("--seconds needs a number from 1 to 60")?;
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            "--check" => args.check = true,
            "--no-check" => args.check = false,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn json_string(s: &str) -> String {
    serde_json::to_string(s).expect("strings serialize")
}

/// The host and build a result was measured on.
fn fingerprint(seed: u64) -> String {
    let run = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or("unknown".to_string(), |o| {
                String::from_utf8_lossy(&o.stdout).trim().to_string()
            })
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        r#"{{"nproc":{},"cpu":{},"isa":{},"rustc":{},"kernel_threads":1,"git_sha":{},"seed":{seed}}}"#,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json_string(&cpu),
        json_string(layers::isa_tier()),
        json_string(&run("rustc", &["--version"])),
        json_string(&run("git", &["rev-parse", "HEAD"])),
    )
}

fn metrics_json(declared: &[Metric], values: &BTreeMap<String, f64>) -> Result<String, String> {
    let rows: Result<Vec<String>, String> = declared
        .iter()
        .map(|m| {
            let v = values
                .get(m.name)
                .ok_or_else(|| format!("metric `{}` was not produced", m.name))?;
            if !v.is_finite() {
                return Err(format!("metric `{}` is not finite", m.name));
            }
            Ok(format!(
                r#"{}:{{"value":{v},"unit":{}}}"#,
                json_string(m.name),
                json_string(m.unit)
            ))
        })
        .collect();
    Ok(format!("{{{}}}", rows?.join(",")))
}

/// The one-line result the contract asks for.
fn result_line(out: &RunOutput, declared: &[Metric]) -> Result<String, String> {
    Ok(format!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{}}}"#,
        out.correct,
        out.attempted.max(1),
        out.failed,
        metrics_json(declared, &out.metrics)?
    ))
}

/// The metrics a run of this kind must report.
fn declared(trace: bool) -> &'static [Metric] {
    if trace {
        &spec::PER_LAYER
    } else {
        &spec::END_TO_END
    }
}

fn run_config(args: &Args, workload: &str, trace: bool) -> Result<RunConfig, String> {
    let bin_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf))
        .ok_or("cannot locate the harness binary's directory")?;
    let cfg = RunConfig {
        workload: workload.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        trace,
        check: args.check,
        out_dir: PathBuf::from(OUT_DIR),
        serve_bin: bin_dir.join("serve"),
        kg_ingest_bin: bin_dir.join("kg_ingest"),
    };
    for bin in [&cfg.serve_bin, &cfg.kg_ingest_bin] {
        if !bin.is_file() {
            return Err(format!(
                "{} is missing; run benchmark/run.sh, which builds it",
                bin.display()
            ));
        }
    }
    Ok(cfg)
}

/// Runs one workload, prints its table to stderr, writes its result file
/// (and trace), and returns the output.
fn run_one(args: &Args, workload: &str, trace: bool) -> Result<RunOutput, String> {
    let cfg = run_config(args, workload, trace)?;
    let out = workloads::run(&cfg)?;
    eprintln!(
        "== {workload} (seed {}, {} s, {}) ==",
        args.seed,
        args.seconds,
        if trace { "traced" } else { "untraced" }
    );
    for m in declared(trace) {
        if let Some(v) = out.metrics.get(m.name) {
            eprintln!("  {:<34} {:>14.4} {}", m.name, v, m.unit);
        }
    }
    eprintln!(
        "  attempted {} failed {} output-check {}",
        out.attempted,
        out.failed,
        if !cfg.check {
            "off"
        } else if out.correct {
            "ok"
        } else {
            "MISMATCH"
        }
    );
    for note in out.notes.iter().take(20) {
        eprintln!("  note: {note}");
    }
    if let Some(rec) = &out.recorder {
        let path = cfg.out_dir.join(format!("trace_{workload}.json"));
        std::fs::write(&path, rec.chrome_json())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!("  self time by span (trace written to {}):", path.display());
        for row in rec.self_times() {
            eprintln!(
                "    {:<22} n={:<7} total {:>10.1} ms  self {:>10.1} ms",
                row.name, row.count, row.total_ms, row.self_ms
            );
        }
    }
    let all: Vec<String> = out
        .metrics
        .iter()
        .filter(|(_, v)| v.is_finite())
        .map(|(k, v)| format!("{}:{v}", json_string(k)))
        .collect();
    let file = cfg.out_dir.join(format!(
        "result_{workload}_{}_{}.json",
        args.seed,
        u8::from(trace)
    ));
    let body = format!(
        r#"{{"workload":{},"traced":{trace},"seconds":{},"host":{},"attempted":{},"failed":{},"correct":{},"metrics":{{{}}}}}"#,
        json_string(workload),
        args.seconds,
        fingerprint(args.seed),
        out.attempted,
        out.failed,
        out.correct,
        all.join(",")
    );
    std::fs::write(&file, body + "\n").map_err(|e| format!("write {}: {e}", file.display()))?;
    Ok(out)
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("spec") => {
            println!("{}", aa::benchmark_json());
            return Ok(true);
        }
        Some("spread") => return aa::report(&argv[1..]),
        _ => {}
    }
    let args = parse_args(&argv)?;
    layers::pin_one_kernel_thread();
    if let Some(workload) = &args.workload {
        let out = run_one(&args, workload, args.trace)?;
        println!("{}", result_line(&out, declared(args.trace))?);
        return Ok(true);
    }
    // The whole suite: every workload untraced, then (asked for) traced.
    let mut clean = true;
    for (workload, _) in spec::WORKLOADS {
        let untraced = run_one(&args, workload, false)?;
        clean &= untraced.failed == 0 && untraced.correct;
        if args.trace {
            let traced = run_one(&args, workload, true)?;
            clean &= traced.failed == 0 && traced.correct;
            eprintln!(
                "  req_per_s traced vs untraced: {:+.4}",
                traced.metrics["req_per_s"] / untraced.metrics["req_per_s"] - 1.0
            );
        }
    }
    eprintln!("results are in {OUT_DIR}/result_*.json");
    println!(r#"{{"suite_clean":{clean},"claim":null}}"#);
    Ok(clean)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_result_carries_exactly_the_declared_metrics() {
        let mut values: BTreeMap<String, f64> = spec::END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), 1.5))
            .collect();
        values.insert("client.extra".into(), 2.0);
        let json = metrics_json(&spec::END_TO_END, &values).unwrap();
        let v: serde::Value = serde_json::from_str(&json).unwrap();
        let serde::Value::Object(fields) = v else {
            panic!("not an object")
        };
        let names: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        let declared: Vec<&str> = spec::END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, declared, "undeclared values are left out");
        values.remove("lat_p50_ms");
        assert!(metrics_json(&spec::END_TO_END, &values)
            .unwrap_err()
            .contains("lat_p50_ms"));
        values.insert("lat_p50_ms".into(), f64::NAN);
        assert!(metrics_json(&spec::END_TO_END, &values).is_err());
    }

    #[test]
    fn arguments_take_the_driver_and_the_suite_forms() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload gen_decode --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("gen_decode"), 7, 10.0, true)
        );
        let b = parse_args(&argv("--trace 1 --no-check")).unwrap();
        assert!(b.workload.is_none() && b.trace && !b.check);
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--bogus")).is_err());
    }
}
