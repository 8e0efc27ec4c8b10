//! The four workloads: what each starts, sends and measures. Every
//! end-to-end number here is observed from outside the product, over the
//! `serve`/`kg_ingest` CLIs and the JSONL wire.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use serde::Value;

use crate::clock::Clock;
use crate::inputs::{self, Request};
use crate::layers::{Expected, Fixture, FixtureFiles};
use crate::loadgen::{run_connection, ConnPlan, ConnResult, ControlConn, Pacing, Sample};
use crate::server::Server;
use crate::stats;
use crate::trace::Recorder;

/// Traffic before the measured window: lets the prefix cache fill, worker
/// threads spawn and the allocator settle. Not measured. Like every period
/// below it is in seconds of the benchmark's clock (`clock.rs`); only the
/// measured window's length, `--seconds`, is wall time.
pub const WARMUP_S: f64 = 2.0;
/// Set-ups timed per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;
/// Responses per run the output check recomputes in process.
pub const CHECK_SAMPLES: usize = 64;
/// Closed loops: connections × outstanding requests per connection — twice
/// the scheduler's 16 lanes, so a lane never idles while a reply sits in a
/// socket buffer and throughput is the server's, not the wire's.
pub const CONNS: usize = 2;
pub const WINDOW: usize = 16;
/// `fleet_open_mixed` arrival rate: about half of what two replicas on this
/// host sustain closed-loop for this mix (README "Calibration").
pub const RATE_RPS: f64 = 80.0;
/// The operator of the serving workloads works in ticks of this many ms:
/// every tenth (1 s) a gated `promote` of v2 and, five ticks later, a
/// `rollback`; a `list_bundles` every fifth; a `metrics` sample every tenth
/// (traced runs). Exchanges this far apart are not what the kernel
/// takes for an interactive stream, so it acknowledges them at once and
/// `wire.overhead_p50_ms` stays out of them.
const TICK_MS: f64 = 100.0;
/// `fleet_open_mixed`: the arrival schedule is generated for this many
/// calibrated seconds per wall second of the run, so it lasts on a host up to
/// that much faster than the reference.
const SCHEDULE_HEADROOM: f64 = 3.0;
/// A request answered `ok` within this many ms counts as good.
pub const LAT_LIMIT_MS: f64 = 150.0;
/// `kg_update_watch`: novel in-vocabulary facts the WAL holds beyond the
/// world's own before the server starts (2 000 deltas in all).
pub const WAL_FILLER: usize = 2000 - crate::layers::N_TRIPLETS;
/// `kg_update_watch`: facts appended per update round. A round takes about
/// 1.2 s on the reference host; the next batch is appended as soon as one
/// is live, so training runs beside the scheduler for the whole window.
pub const ROUND_FACTS: usize = 8;
/// `kg_update_watch`: a round not live after this long fails the run.
const ROUND_TIMEOUT: Duration = Duration::from_secs(60);
/// Closed-loop streams are generated this long; they wrap if the server
/// ever outruns them.
const CLOSED_STREAM_LEN: usize = 16_384;

/// Where things are and what to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub check: bool,
    /// `benchmark/out`.
    pub out_dir: PathBuf,
    pub serve_bin: PathBuf,
    pub kg_ingest_bin: PathBuf,
}

/// One run's numbers.
#[derive(Debug, Default)]
pub struct RunOutput {
    pub attempted: usize,
    pub failed: usize,
    /// The sampled responses matched their in-process recomputation.
    pub correct: bool,
    pub metrics: BTreeMap<String, f64>,
    /// What went wrong, for the human reading stderr.
    pub notes: Vec<String>,
    pub recorder: Option<Recorder>,
}

struct Setup {
    fixture: Fixture,
    files: FixtureFiles,
    server: Server,
    /// Median of the timed set-ups, calibrated seconds.
    setup_s: f64,
    /// `kg_update_watch`: baseline `kg_ingest append` rate, deltas/s.
    wal_append_per_s: Option<f64>,
    wal_dir: PathBuf,
}

fn status_of(v: &Value) -> &str {
    v.get_field("status").and_then(Value::as_str).unwrap_or("")
}

/// Runs `kg_ingest append` on a feed file.
fn kg_append(cfg: &RunConfig, wal_dir: &Path, feed: &Path) -> Result<(), String> {
    let out = Command::new(&cfg.kg_ingest_bin)
        .arg("append")
        .arg(wal_dir)
        .arg(feed)
        .args([
            "--format",
            "jsonl",
            "--sync-every",
            "64",
            "--non-functional",
        ])
        .output()
        .map_err(|e| format!("spawn kg_ingest: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "kg_ingest append failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(())
}

/// What every benchmark server is started with: the fixture model, an
/// ephemeral port, one kernel thread.
fn base_args(files: &FixtureFiles) -> Vec<String> {
    [
        "--model",
        &files.model.display().to_string(),
        "--port",
        "0",
        "--threads",
        "1",
    ]
    .map(String::from)
    .to_vec()
}

fn server_args(cfg: &RunConfig, files: &FixtureFiles, wal_dir: &Path) -> Vec<String> {
    let p = |x: &Path| x.display().to_string();
    let mut args = base_args(files);
    match cfg.workload.as_str() {
        "kg_update_watch" => args.extend([
            "--watch-kg".into(),
            p(wal_dir),
            "--watch-tokenizer".into(),
            p(&files.tokenizer),
            "--watch-config".into(),
            p(&files.pipeline_cfg),
        ]),
        _ => args.extend(["--bundle".into(), p(&files.bundles[0])]),
    }
    if cfg.workload == "fleet_open_mixed" {
        args.extend(["--replicas".into(), "2".into()]);
    }
    args
}

/// Builds the fixture, writes it, starts the server — [`SETUP_REPEATS`]
/// times, keeping the last server. `setup_s` is the median of the timings.
fn set_up(cfg: &RunConfig, clock: &Clock) -> Result<Setup, String> {
    let dir = cfg.out_dir.join(format!("fixture-{}", cfg.workload));
    let wal_dir = dir.join("wal");
    let log = cfg.out_dir.join(format!("serve-{}.log", cfg.workload));
    let _ = std::fs::remove_file(&log);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut wal_append_per_s = None;
    let mut timings = Vec::new();
    let mut last = None;
    for rep in 0..SETUP_REPEATS {
        drop(last.take()); // stop the previous repeat's server first
        let t = clock.now_ms();
        let fixture = Fixture::build(cfg.seed);
        let files = fixture.write(&dir)?;
        let mut untimed = 0.0;
        if cfg.workload == "kg_update_watch" && rep == 0 {
            // The WAL baseline is appended once, through the CLI, and timed
            // as its own metric; what set-up pays is recovering it.
            let u = clock.now_ms();
            let mut baseline = fixture.info.facts.clone();
            baseline.extend_from_slice(&fixture.info.novel_facts[..WAL_FILLER]);
            let feed = dir.join("baseline.jsonl");
            std::fs::write(&feed, inputs::delta_feed(&baseline)).map_err(|e| e.to_string())?;
            let t_append = clock.now_ms();
            kg_append(cfg, &wal_dir, &feed)?;
            untimed = clock.now_ms() - u;
            wal_append_per_s = Some(baseline.len() as f64 * 1e3 / (clock.now_ms() - t_append));
        }
        let server = Server::spawn(&cfg.serve_bin, &server_args(cfg, &files, &wal_dir), &log)?;
        if cfg.workload != "kg_update_watch" {
            // v2 is staged for the operator's promotes.
            let reply = ControlConn::connect(&server.addr)?.call(&format!(
                r#"{{"op":"load_bundle","path":"{}"}}"#,
                files.bundles[1].display()
            ))?;
            if status_of(&reply) != "bundle_loaded" {
                return Err(format!("load_bundle v2 refused: {reply:?}"));
            }
        }
        timings.push((clock.now_ms() - t - untimed) / 1e3);
        last = Some((fixture, files, server));
    }
    let (fixture, files, server) = last.expect("SETUP_REPEATS >= 1");
    Ok(Setup {
        fixture,
        files,
        server,
        setup_s: stats::median(&timings).expect("non-empty"),
        wal_append_per_s,
        wal_dir,
    })
}

/// One control exchange the operator made. Times are calibrated ms.
struct CtlSample {
    kind: &'static str,
    start_ms: f64,
    end_ms: f64,
    reply: Value,
}

/// One edge of the measured window.
#[derive(Clone, Copy)]
struct Edge {
    cal_ms: f64,
    wall: Instant,
    /// CPU seconds the server process had used by then.
    server_cpu_s: f64,
}

/// The operator: a connection of its own, apart from the data plane, making
/// one synchronous control exchange at a time — what an operator's CLI, a
/// metrics scraper or the update watcher is to a serving process.
struct Operator<'a> {
    clock: &'a Clock,
    conn: ControlConn,
    samples: Vec<CtlSample>,
    rec: &'a mut Option<Recorder>,
    server_pid: String,
    /// Where the measured window opened and closed.
    window: Option<(Edge, Edge)>,
}

impl Operator<'_> {
    fn call(&mut self, kind: &'static str, line: &str) -> Result<&Value, String> {
        let (start_ms, start) = (self.clock.now_ms(), Instant::now());
        let reply = self
            .conn
            .call(line)
            .map_err(|e| format!("control op {kind}: {e}"))?;
        let (end_ms, end) = (self.clock.now_ms(), Instant::now());
        if let Some(rec) = self.rec.as_mut() {
            let id = self.samples.len() as u64;
            rec.push(&format!("ctl.{kind}"), None, 900, id, start, end);
        }
        self.samples.push(CtlSample {
            kind,
            start_ms,
            end_ms,
            reply,
        });
        Ok(&self.samples.last().expect("just pushed").reply)
    }

    fn edge(&self) -> Edge {
        Edge {
            cal_ms: self.clock.now_ms(),
            wall: Instant::now(),
            server_cpu_s: cpu_seconds(&self.server_pid),
        }
    }

    /// Sleeps through the warm-up and opens the measured window; returns the
    /// wall time at which it closes, `seconds` later.
    fn open_window(&mut self, seconds: f64) -> Result<(Edge, Instant), String> {
        self.clock.sleep_until(WARMUP_S * 1e3);
        let open = self.edge();
        if self.rec.is_some() {
            self.call("metrics", r#"{"op":"metrics"}"#)?;
        }
        Ok((open, open.wall + Duration::from_secs_f64(seconds)))
    }

    fn close_window(&mut self, open: Edge, at: Instant) -> Result<(), String> {
        std::thread::sleep(at.saturating_duration_since(Instant::now()));
        self.window = Some((open, self.edge()));
        if self.rec.is_some() {
            self.call("metrics", r#"{"op":"metrics"}"#)?;
        }
        Ok(())
    }

    /// The scheduled control plane of the serving workloads, tick by tick
    /// (see [`TICK_MS`]) until the window closes.
    fn run_schedule(&mut self, seconds: f64) -> Result<(), String> {
        let (open, end) = self.open_window(seconds)?;
        let first = (WARMUP_S * 1e3 / TICK_MS) as u64;
        for tick in first + 1.. {
            let due_ms = tick as f64 * TICK_MS;
            if Instant::now() + self.clock.wall_until(due_ms) >= end {
                break;
            }
            self.clock.sleep_until(due_ms);
            if tick % 10 == 0 && self.rec.is_some() {
                self.call("metrics", r#"{"op":"metrics"}"#)?;
            }
            if tick % 5 == 0 {
                self.call("list_bundles", r#"{"op":"list_bundles"}"#)?;
            }
            match tick % 10 {
                3 => self.call("promote", r#"{"op":"promote","version":2}"#)?,
                8 => self.call("rollback", r#"{"op":"rollback"}"#)?,
                _ => continue,
            };
        }
        self.close_window(open, end)
    }

    fn active_version(&mut self) -> Result<f64, String> {
        let reply = self.call("list_bundles", r#"{"op":"list_bundles"}"#)?;
        match reply.get_field("bundles") {
            Some(Value::Array(items)) => Ok(items
                .iter()
                .find(|b| b.get_field("active") == Some(&Value::Bool(true)))
                .and_then(|b| b.get_field("version"))
                .and_then(Value::as_f64)
                .unwrap_or(0.0)),
            _ => Err(format!("list_bundles: unexpected reply {reply:?}")),
        }
    }

    /// The update watcher: after the warm-up, appends [`ROUND_FACTS`] novel
    /// facts as a second WAL writer, polls `list_bundles` every 50 ms until
    /// the active version advances, and goes again until the window is over
    /// — whole rounds only. Returns each round's calibrated ms, `None` for
    /// one that never went live.
    fn run_rounds(
        &mut self,
        cfg: &RunConfig,
        setup: &Setup,
        seconds: f64,
    ) -> Result<Vec<Option<f64>>, String> {
        let (open, end) = self.open_window(seconds)?;
        let mut version = self.active_version()?;
        let mut rounds = Vec::new();
        let facts = &setup.fixture.info.novel_facts[WAL_FILLER..];
        for (i, batch) in facts.chunks_exact(ROUND_FACTS).enumerate() {
            if Instant::now() >= end {
                break;
            }
            let feed = setup.wal_dir.with_file_name(format!("round-{i}.jsonl"));
            std::fs::write(&feed, inputs::delta_feed(batch)).map_err(|e| e.to_string())?;
            let (start_ms, start) = (self.clock.now_ms(), Instant::now());
            kg_append(cfg, &setup.wal_dir, &feed)?;
            let appended = Instant::now();
            let mut live = false;
            while !live && start.elapsed() < ROUND_TIMEOUT {
                std::thread::sleep(Duration::from_millis(50));
                let v = self.active_version()?;
                live = v > version;
                version = v;
            }
            let done = Instant::now();
            if let Some(rec) = self.rec.as_mut() {
                let r = rec.push("update_round", None, 901, i as u64, start, done);
                rec.push("wal_append", Some(r), 901, i as u64, start, appended);
                rec.push("await_publish", Some(r), 901, i as u64, appended, done);
            }
            rounds.push(live.then(|| self.clock.now_ms() - start_ms));
            if !live {
                break;
            }
        }
        // Whole rounds only: the window stays open until the last is live.
        self.close_window(open, end.max(Instant::now()))?;
        Ok(rounds)
    }
}

/// Sums a counter over a `metrics` reply: the field itself on one
/// scheduler, the per-replica `serve` objects behind the router.
fn serve_field(metrics: &Value, key: &str, fold: fn(f64, f64) -> f64) -> f64 {
    match metrics.get_field("replicas") {
        Some(Value::Array(reps)) => reps
            .iter()
            .filter_map(|r| r.get_field("serve")?.get_field(key)?.as_f64())
            .reduce(fold)
            .unwrap_or(0.0),
        _ => metrics
            .get_field(key)
            .and_then(Value::as_f64)
            .unwrap_or(0.0),
    }
}

fn sum(a: f64, b: f64) -> f64 {
    a + b
}

/// Per-layer numbers from `metrics`-op samples over the measured window:
/// deltas of counters between the first and last sample, extremes of
/// gauges over all of them.
fn wire_metrics(samples: &[&CtlSample], out: &mut BTreeMap<String, f64>) {
    let snaps: Vec<&Value> = samples
        .iter()
        .filter_map(|s| s.reply.get_field("metrics"))
        .collect();
    let (Some(first), Some(last)) = (snaps.first(), snaps.last()) else {
        return;
    };
    let span_s = (samples[samples.len() - 1].end_ms - samples[0].end_ms) / 1e3;
    let delta = |key: &str| serve_field(last, key, sum) - serve_field(first, key, sum);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let (hits, misses) = (delta("prefix_hits"), delta("prefix_misses"));
    let (steps, idle) = (delta("steps"), delta("idle_steps"));
    let mut put = |k: &str, v: f64| {
        out.insert(k.to_string(), v);
    };
    put("serve.prefix_hit_rate", ratio(hits, hits + misses));
    put(
        "serve.prefix_hit_token_share",
        ratio(
            delta("prefix_hit_tokens"),
            delta("prefix_hit_tokens") + delta("prefill_tokens"),
        ),
    );
    put("serve.blocks_evicted", delta("blocks_evicted"));
    put(
        "serve.kv_rows_peak",
        serve_field(last, "kv_rows_peak", f64::max),
    );
    put("serve.steps_per_s", ratio(steps, span_s));
    put("serve.idle_step_share", ratio(idle, steps + idle));
    put(
        "serve.avg_occupancy",
        ratio(delta("prefill_tokens") + delta("decode_tokens"), steps),
    );
    put(
        "serve.decode_tok_per_s",
        ratio(delta("decode_tokens"), span_s),
    );
    put(
        "serve.prefill_tok_per_s",
        ratio(delta("prefill_tokens"), span_s),
    );
    put(
        "serve.rejected",
        delta("rejected_queue_full") + delta("rejected_budget") + delta("rejected_invalid"),
    );
    put(
        "serve.queue_depth_max",
        snaps
            .iter()
            .map(|s| serve_field(s, "queue_depth", f64::max))
            .fold(0.0, f64::max),
    );
    // Histogram percentiles are cumulative since server start (warm-up
    // included); the worst replica is reported.
    for key in ["ttft_p50_ms", "ttft_p99_ms", "tbt_p50_ms", "tbt_p99_ms"] {
        put(&format!("serve.{key}"), serve_field(last, key, f64::max));
    }
    // Router-only fields (absent, hence 0, on one scheduler).
    let top = |v: &Value, k: &str| v.get_field(k).and_then(Value::as_f64).unwrap_or(0.0);
    let dispatched = top(last, "dispatched") - top(first, "dispatched");
    put(
        "router.affinity_share",
        ratio(
            top(last, "affinity_hits") - top(first, "affinity_hits"),
            dispatched,
        ),
    );
    put(
        "router.balanced_share",
        ratio(top(last, "balanced") - top(first, "balanced"), dispatched),
    );
    put(
        "router.group_rollbacks",
        top(last, "group_rollbacks") - top(first, "group_rollbacks"),
    );
    put(
        "router.tenant_queued_max",
        snaps
            .iter()
            .map(|s| top(s, "tenant_queued"))
            .fold(0.0, f64::max),
    );
    let per_replica: Vec<f64> = match (first.get_field("replicas"), last.get_field("replicas")) {
        (Some(Value::Array(a)), Some(Value::Array(b))) => a
            .iter()
            .zip(b)
            .map(|(a, b)| top(b, "dispatched") - top(a, "dispatched"))
            .collect(),
        _ => Vec::new(),
    };
    let max = per_replica.iter().copied().fold(0.0, f64::max);
    let mean = ratio(per_replica.iter().sum(), per_replica.len() as f64);
    put("router.replica_imbalance", ratio(max, mean));
}

/// Compares one reply line against the reference outcome.
fn reply_matches(reply: &str, expected: &Expected) -> bool {
    let Ok(v) = serde_json::from_str::<Value>(reply) else {
        return false;
    };
    let nums = |key: &str| -> Vec<f64> {
        match v.get_field(key) {
            Some(Value::Array(xs)) => xs.iter().filter_map(Value::as_f64).collect(),
            _ => Vec::new(),
        }
    };
    match expected {
        Expected::Tokens(want) => {
            nums("tokens") == want.iter().map(|&t| t as f64).collect::<Vec<_>>()
        }
        Expected::Mcq { scores, best } => {
            // Scores must be equal bit for bit: the wire prints each f32
            // widened to f64 with shortest round-trip digits.
            let got: Vec<u32> = nums("scores")
                .iter()
                .map(|&s| (s as f32).to_bits())
                .collect();
            let want: Vec<u32> = scores.iter().map(|s| s.to_bits()).collect();
            got == want && v.get_field("best").and_then(Value::as_f64) == Some(*best as f64)
        }
    }
}

/// Recomputes a seeded sample of the answered requests in process and
/// counts the replies that match no candidate bundle version.
fn output_check(
    cfg: &RunConfig,
    fixture: &Fixture,
    requests: &[Request],
    answered: &[&Sample],
    versions: &[usize],
    notes: &mut Vec<String>,
) -> usize {
    let mut mismatched = 0;
    for i in inputs::check_sample(cfg.seed, answered.len(), CHECK_SAMPLES) {
        let s = answered[i];
        let req = &requests[s.id as usize % requests.len()];
        let reply = s.reply.as_deref().unwrap_or("");
        if !versions
            .iter()
            .any(|&v| reply_matches(reply, &fixture.reference(req, v)))
        {
            mismatched += 1;
            notes.push(format!("output mismatch on request {}: {reply}", s.id));
        }
    }
    mismatched
}

/// CPU seconds (user + system) a process (`"self"` or a pid) has used so
/// far, from `/proc`.
pub fn cpu_seconds(pid: &str) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 12th and 13th of those, in clock ticks (100 Hz on Linux).
    let ticks: f64 = stat
        .rsplit_once(')')
        .map(|(_, rest)| {
            rest.split_whitespace()
                .skip(11)
                .take(2)
                .filter_map(|t| t.parse::<f64>().ok())
                .sum()
        })
        .unwrap_or(0.0);
    ticks / 100.0
}

/// Median round trip of a one-token generate against an idle one-replica
/// server, one in flight — what the wire adds when nothing queues.
fn idle_wire_one_token_ms(cfg: &RunConfig, files: &FixtureFiles) -> Result<f64, String> {
    let mut args = base_args(files);
    args.extend([
        "--bundle".to_string(),
        files.bundles[0].display().to_string(),
    ]);
    let server = Server::spawn(&cfg.serve_bin, &args, &cfg.out_dir.join("serve-probe.log"))?;
    let mut conn = ControlConn::connect(&server.addr)?;
    let mut xs = Vec::new();
    for id in 0..24 {
        let t = Instant::now();
        let reply = conn.call(&format!(
            r#"{{"op":"generate","id":{id},"prompt":[2,3,4,5,6,7,8,9,10,11,12,13],"max_new":1}}"#
        ))?;
        if status_of(&reply) != "ok" {
            return Err(format!("idle probe request failed: {reply:?}"));
        }
        // The first few pay connection and allocator warm-up.
        if id >= 4 {
            xs.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    server.shutdown();
    Ok(stats::median(&xs).expect("twenty samples"))
}

/// Stops the calibration thread when the run ends, however it ends.
struct StopClock<'a>(&'a Clock);

impl Drop for StopClock<'_> {
    fn drop(&mut self) {
        self.0.stop();
    }
}

/// Runs one workload once and returns every number it produces.
pub fn run(cfg: &RunConfig) -> Result<RunOutput, String> {
    if !crate::spec::WORKLOADS
        .iter()
        .any(|(name, _)| *name == cfg.workload)
    {
        return Err(format!("unknown workload `{}`", cfg.workload));
    }
    let clock = &Clock::start();
    std::thread::scope(|s| {
        for idx in 0..clock.calibrators() {
            s.spawn(move || clock.run(idx));
        }
        let _stop = StopClock(clock);
        run_on(cfg, clock)
    })
}

/// A latency tail that must exist: `p` of `xs`, or why the run is too short.
fn tail(name: &str, xs: &[f64], p: f64) -> Result<f64, String> {
    stats::percentile(xs, p).ok_or_else(|| {
        format!(
            "{name}: {} samples do not support p{p} (ten must lie beyond it); run longer",
            xs.len()
        )
    })
}

fn run_on(cfg: &RunConfig, clock: &Clock) -> Result<RunOutput, String> {
    std::fs::create_dir_all(cfg.out_dir.join("inputs")).map_err(|e| e.to_string())?;
    let mut setup = set_up(cfg, clock)?;
    let mut out = RunOutput::default();
    let info = &setup.fixture.info;

    // Inputs, from the seed alone, written out before any of them is sent.
    let (requests, conns, pacing) = match cfg.workload.as_str() {
        "gen_decode" => (
            inputs::gen_decode(info, cfg.seed, CLOSED_STREAM_LEN),
            CONNS,
            Pacing::Closed { window: WINDOW },
        ),
        "mcq_templates" => (
            inputs::bank_mcqs(info, cfg.seed, CLOSED_STREAM_LEN),
            CONNS,
            Pacing::Closed { window: WINDOW },
        ),
        "fleet_open_mixed" => (
            inputs::fleet_open_mixed(
                info,
                cfg.seed,
                RATE_RPS,
                (WARMUP_S + cfg.seconds) * SCHEDULE_HEADROOM,
            ),
            CONNS,
            Pacing::Open,
        ),
        _ => (
            inputs::bank_mcqs(info, cfg.seed, CLOSED_STREAM_LEN),
            CONNS,
            Pacing::Closed { window: WINDOW },
        ),
    };
    let input_file = cfg
        .out_dir
        .join("inputs")
        .join(format!("{}-{}.jsonl", cfg.workload, cfg.seed));
    let lines: String = requests.iter().map(|r| r.wire_line() + "\n").collect();
    std::fs::write(&input_file, lines)
        .map_err(|e| format!("write {}: {e}", input_file.display()))?;

    let plans: Vec<ConnPlan> = (0..conns)
        .map(|c| {
            let mut p = ConnPlan::new(&requests, c, conns, pacing);
            p.trace = cfg.trace;
            p
        })
        .collect();

    // The measured run: connection threads carry the data plane, this
    // thread is the operator.
    clock.restart(setup.server.pid());
    let cpu_before = cpu_seconds("self");
    let run_started = Instant::now();
    let stop = AtomicBool::new(false);
    let mut recorder = cfg.trace.then(|| Recorder::new(clock.origin()));
    let addr = setup.server.addr.clone();
    let mut operator = Operator {
        clock,
        conn: ControlConn::connect(&addr)?,
        samples: Vec::new(),
        rec: &mut recorder,
        server_pid: setup.server.pid().to_string(),
        window: None,
    };
    let (results, operated) = std::thread::scope(|s| {
        let handles: Vec<_> = plans
            .iter()
            .map(|p| {
                let (addr, stop) = (&addr, &stop);
                s.spawn(move || run_connection(addr, p, clock, stop))
            })
            .collect();
        let operated = if cfg.workload == "kg_update_watch" {
            operator.run_rounds(cfg, &setup, cfg.seconds)
        } else {
            operator.run_schedule(cfg.seconds).map(|()| Vec::new())
        };
        stop.store(true, Ordering::Relaxed);
        let results: Vec<ConnResult> = handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect();
        (results, operated)
    });
    let harness_cpu_share =
        (cpu_seconds("self") - cpu_before) / run_started.elapsed().as_secs_f64();
    let Some((open, close)) = operator.window else {
        return Err(operated
            .err()
            .unwrap_or_else(|| "the measured window never opened".into()));
    };
    let window_s = (close.cal_ms - open.cal_ms) / 1e3;
    // Server CPU seconds are the host's; the window's mean clock rate turns
    // them into the reference host's.
    let mean_rate = window_s / (close.wall - open.wall).as_secs_f64();
    let server_cpu_s = (close.server_cpu_s - open.server_cpu_s) * mean_rate;

    // Requests that belong to the measured window: started inside it.
    let in_window = |s: &&Sample| s.start_ms >= open.cal_ms && s.start_ms < close.cal_ms;
    let measured: Vec<&Sample> = results
        .iter()
        .flat_map(|r| &r.samples)
        .filter(in_window)
        .collect();
    let answered: Vec<&Sample> = measured.iter().copied().filter(|s| s.ok).collect();
    out.attempted = measured.len();
    out.failed = measured.len() - answered.len();
    for r in &results {
        out.notes.extend(r.protocol_errors.iter().cloned());
        out.failed += usize::from(!r.protocol_errors.is_empty());
    }

    // Control plane: every op in the window must have got the reply its
    // kind promises.
    let ctl: Vec<&CtlSample> = operator
        .samples
        .iter()
        .filter(|c| c.start_ms >= open.cal_ms - 1.0)
        .collect();
    let mut ctl_lat: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for c in &ctl {
        let want = match c.kind {
            "promote" => "promoted",
            "rollback" => "rolled_back",
            "list_bundles" => "bundles",
            _ => "metrics",
        };
        out.attempted += 1;
        if status_of(&c.reply) == want {
            ctl_lat
                .entry(c.kind)
                .or_default()
                .push(c.end_ms - c.start_ms);
        } else {
            out.failed += 1;
            out.notes
                .push(format!("control op {} failed: {:?}", c.kind, c.reply));
        }
    }
    let mut round_ms = Vec::new();
    match operated {
        Ok(rounds) => {
            for r in rounds {
                out.attempted += 1;
                match r {
                    Some(ms) => round_ms.push(ms),
                    None => {
                        out.failed += 1;
                        out.notes
                            .push("update round was not live within the timeout".into());
                    }
                }
            }
        }
        Err(e) => {
            out.attempted += 1;
            out.failed += 1;
            out.notes.push(e);
        }
    }
    if !setup.server.alive() {
        out.failed += 1;
        out.notes.push("server died during the run".into());
    }

    // Output check, against every bundle version that could have served.
    let mismatched = if cfg.check {
        let versions: Vec<usize> = if cfg.workload == "kg_update_watch" {
            let published = setup.fixture.load_published(&setup.files.bundle_dir)?;
            std::iter::once(0).chain(published).collect()
        } else {
            vec![1, 2]
        };
        output_check(
            cfg,
            &setup.fixture,
            &requests,
            &answered,
            &versions,
            &mut out.notes,
        )
    } else {
        0
    };
    out.failed += mismatched;
    out.correct = mismatched == 0;

    // Client-observed numbers.
    let m = &mut out.metrics;
    let request_of = |s: &Sample| &requests[s.id as usize % requests.len()];
    let lat = |pick: &dyn Fn(&Request) -> bool| -> Vec<f64> {
        answered
            .iter()
            .filter(|s| pick(request_of(s)))
            .map(|s| s.end_ms - s.start_ms)
            .collect()
    };
    let all = lat(&|_| true);
    let done_in_window = answered.iter().filter(|s| s.end_ms < close.cal_ms).count();
    m.insert("setup_s".into(), setup.setup_s);
    m.insert("req_per_s".into(), done_in_window as f64 / window_s);
    m.insert(
        "lat_p50_ms".into(),
        stats::median(&all).ok_or("no request was answered in the window")?,
    );
    m.insert("lat_p95_ms".into(), tail("lat_p95_ms", &all, 95.0)?);
    m.insert(
        "cpu_ms_per_req".into(),
        server_cpu_s * 1e3 / done_in_window.max(1) as f64,
    );
    m.insert(
        "server_rss_mb".into(),
        setup
            .server
            .rss_peak_mb()
            .ok_or("cannot read the server's VmHWM")?,
    );
    // The workload's control operation: an update round where the watcher
    // runs, the operator's gated promote elsewhere.
    let control_op = match cfg.workload.as_str() {
        "kg_update_watch" => &round_ms,
        _ => ctl_lat.get("promote").unwrap_or(&round_ms),
    };
    m.insert(
        "ctl_p50_ms".into(),
        stats::median(control_op).ok_or("no control operation completed in the window")?,
    );

    // Views only some workloads have; 0 where the workload sends no such
    // request, an error where it does but too few to support the tail.
    for (prefix, xs) in [
        ("client.gen_lat", lat(&|r| !r.is_mcq())),
        ("client.mcq_lat", lat(&|r| r.is_mcq())),
        // Light tenants must not queue behind the heavy one.
        (
            "router.light_tenant_lat",
            lat(&|r| r.tenant.is_some_and(|t| t != "heavy")),
        ),
    ] {
        let p90 = format!("{prefix}_p90_ms");
        let (p50, p90_ms) = match stats::median(&xs) {
            Some(p50) => (p50, tail(&p90, &xs, 90.0)?),
            None => (0.0, 0.0),
        };
        if prefix != "router.light_tenant_lat" {
            m.insert(format!("{prefix}_p50_ms"), p50);
        }
        m.insert(p90, p90_ms);
    }
    m.insert("loadgen.cpu_share".into(), harness_cpu_share);
    let gen_tokens: usize = answered
        .iter()
        .filter(|s| s.end_ms < close.cal_ms)
        .map(|s| match &request_of(s).body {
            inputs::Body::Generate { max_new, .. } => *max_new,
            inputs::Body::Mcq { .. } => 0,
        })
        .sum();
    m.insert("client.gen_tok_per_s".into(), gen_tokens as f64 / window_s);
    let good = all.iter().filter(|&&l| l <= LAT_LIMIT_MS).count();
    m.insert(
        "client.goodput_share".into(),
        good as f64 / measured.len().max(1) as f64,
    );
    m.insert(
        "client.fail_share".into(),
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    let ctl_p50 =
        |kind: &str| stats::median(ctl_lat.get(kind).map_or(&[][..], Vec::as_slice)).unwrap_or(0.0);
    m.insert("client.promote_p50_ms".into(), ctl_p50("promote"));
    m.insert(
        "client.update_round_s".into(),
        stats::median(&round_ms).unwrap_or(0.0) / 1e3,
    );
    m.insert("client.list_bundles_p50_ms".into(), ctl_p50("list_bundles"));
    m.insert(
        "client.wal_append_per_s".into(),
        setup.wal_append_per_s.unwrap_or(0.0),
    );
    let late: Vec<f64> = results
        .iter()
        .flat_map(|r| r.late_ms.iter().copied())
        .collect();
    // 0 on the closed loops, which have no schedule to run behind.
    let late_p95 = if late.is_empty() {
        0.0
    } else {
        tail("loadgen.late_p95_ms", &late, 95.0)?
    };
    m.insert("loadgen.late_p95_ms".into(), late_p95);
    // What the clock did: the window's mean rate, how unevenly it ran, and
    // the throughput a wall clock would have shown.
    m.insert("host.speed".into(), mean_rate);
    m.insert("host.speed_spread".into(), clock.rate_spread());
    m.insert(
        "host.wall_req_per_s".into(),
        done_in_window as f64 / window_s * mean_rate,
    );
    let metric_samples: Vec<&CtlSample> = ctl
        .iter()
        .copied()
        .filter(|c| c.kind == "metrics")
        .collect();
    wire_metrics(&metric_samples, m);

    if !setup.server.shutdown() {
        out.notes
            .push("server did not exit cleanly after the shutdown op".into());
    }
    if let Some(rec) = recorder.as_mut() {
        for r in results {
            if let Some(spans) = r.spans {
                rec.merge(spans);
            }
        }
        // What recording cost: spans recorded × the measured cost of
        // recording one, as a share of the run. (`run.sh` without
        // `--workload` also prints the traced run's throughput against the
        // untraced one's.)
        let m = &mut out.metrics;
        m.insert(
            "trace.overhead_frac".into(),
            rec.len() as f64 * Recorder::push_cost_s() / run_started.elapsed().as_secs_f64(),
        );
        // The in-process probes, each layer inside its own span.
        let gen_inputs = inputs::gen_decode(&setup.fixture.info, cfg.seed, 256);
        let probes = crate::layers::run_probes(&setup.fixture, &gen_inputs, &cfg.out_dir, rec);
        let wire_ms = rec.scope("layer.wire", |_| idle_wire_one_token_ms(cfg, &setup.files))?;
        m.insert(
            "wire.overhead_p50_ms".into(),
            wire_ms - probes["serve.inproc_one_token_ms"],
        );
        // The probes time in wall seconds, so take the wire's rate in them too.
        m.insert(
            "wire.closed_loop_efficiency".into(),
            m["client.gen_tok_per_s"] * mean_rate / probes["serve.inproc_tok_per_s"],
        );
        m.extend(probes);
    }
    out.recorder = recorder;
    Ok(out)
}
