//! A/A tooling: prints `BENCHMARK.json` from the declared tables, and turns
//! sets of result lines into the spread report the acceptance procedure
//! uses (ten seeds per workload, interquartile distance over the median).

use std::collections::BTreeMap;

use serde::Value;

use crate::spec::{self, Better, Metric};
use crate::stats;

fn metric_rows(ms: &[Metric]) -> String {
    let rows: Vec<String> = ms
        .iter()
        .map(|m| {
            let bound = m
                .bound
                .map_or(String::new(), |b| format!(r#", "bound": {b}"#));
            format!(
                r#"    {{"name": "{}", "unit": "{}", "better": "{}"{bound}}}"#,
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    rows.join(",\n")
}

/// `BENCHMARK.json`, generated so it cannot drift from `spec.rs`.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = spec::WORKLOADS
        .iter()
        .map(|(n, w)| format!(r#"    {{"name": "{n}", "why": "{w}"}}"#))
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}",
        spec::RUN_SECONDS,
        workloads.join(",\n"),
        metric_rows(&spec::END_TO_END),
        metric_rows(&spec::PER_LAYER)
    )
}

/// `workload → metric → values`, read from a file of lines
/// `<workload> <result JSON>` (what `aa.sh` collects).
fn read_set(path: &str) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let mut set: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let (workload, json) = line
            .split_once(' ')
            .ok_or_else(|| format!("{path}: bad line `{line}`"))?;
        let v: Value = serde_json::from_str(json).map_err(|e| format!("{path}: {e}"))?;
        let ok = v.get_field("correct") == Some(&Value::Bool(true))
            && v.get_field("failed").and_then(Value::as_f64) == Some(0.0);
        if !ok {
            return Err(format!(
                "{path}: a {workload} run failed or was incorrect: {json}"
            ));
        }
        let Some(Value::Object(metrics)) = v.get_field("metrics") else {
            return Err(format!("{path}: no metrics in `{line}`"));
        };
        for (name, m) in metrics {
            let value = m
                .get_field("value")
                .and_then(Value::as_f64)
                .ok_or("metric without value")?;
            set.entry(workload.to_string())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(value);
        }
    }
    Ok(set)
}

/// Prints, per workload and end-to-end metric, each set's median and
/// spread against the bound, and the drift between the first set's median
/// and every later set's. Returns whether everything agreed.
pub fn report(files: &[String]) -> Result<bool, String> {
    if files.is_empty() {
        return Err("spread needs at least one file of result lines".into());
    }
    let sets: Vec<_> = files
        .iter()
        .map(|f| read_set(f))
        .collect::<Result<_, _>>()?;
    let mut agree = true;
    let mut rows = Vec::new();
    println!(
        "{:<18} {:<15} {:>6}  per set: median (spread)   drift of later sets vs the first",
        "workload", "metric", "bound"
    );
    for (workload, _) in spec::WORKLOADS {
        for m in &spec::END_TO_END {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let mut cells = Vec::new();
            let mut medians = Vec::new();
            for set in &sets {
                let xs = set
                    .get(workload)
                    .and_then(|w| w.get(m.name))
                    .map_or(&[][..], Vec::as_slice);
                let (Some(med), Some(spread)) = (stats::median(xs), stats::spread(xs)) else {
                    return Err(format!(
                        "{workload}/{}: fewer than two values in a set",
                        m.name
                    ));
                };
                let wide = spread > bound;
                agree &= !wide;
                cells.push(format!(
                    "{med:.4} ({:.1}%{})",
                    spread * 100.0,
                    if wide { " WIDE" } else { "" }
                ));
                medians.push((med, spread));
            }
            let mut drifts = Vec::new();
            for (med, _) in &medians[1..] {
                let worse = match m.better {
                    Better::Lower => med / medians[0].0 - 1.0,
                    Better::Higher => 1.0 - med / medians[0].0,
                };
                let bad = worse > bound;
                agree &= !bad;
                drifts.push(format!(
                    "{:+.1}%{}",
                    worse * 100.0,
                    if bad { " WORSE" } else { "" }
                ));
            }
            println!(
                "{workload:<18} {:<15} {:>5.0}%  {}   {}",
                m.name,
                bound * 100.0,
                cells.join("  "),
                drifts.join(" ")
            );
            rows.push(format!(
                r#"{{"workload":"{workload}","metric":"{}","bound":{bound},"medians":[{}],"spreads":[{}]}}"#,
                m.name,
                medians.iter().map(|x| x.0.to_string()).collect::<Vec<_>>().join(","),
                medians.iter().map(|x| x.1.to_string()).collect::<Vec<_>>().join(","),
            ));
        }
    }
    let path = "benchmark/out/aa_report.json";
    std::fs::write(
        path,
        format!(
            "{{\"agree\":{agree},\"rows\":[\n{}\n]}}\n",
            rows.join(",\n")
        ),
    )
    .map_err(|e| format!("write {path}: {e}"))?;
    println!(
        "{}; report written to {path}",
        if agree {
            "A/A: all sets agree within the bounds"
        } else {
            "A/A: DISAGREEMENT"
        }
    );
    Ok(agree)
}
