//! `serve` — the JSONL serving front-end.
//!
//! ```text
//! serve --demo --port 0
//! serve --model model.bin --port 7878 --budget 4096 --batch 16 --chunk 32
//! serve --demo --replicas 4 --tenant-rate 50 --tenant-burst 10
//! ```
//!
//! Spawns the router front over `--replicas N` (default 1) independent
//! continuous-batching scheduler replicas, binds a `TcpListener`, prints
//! `LISTENING <addr>` on stdout (port 0 binds an ephemeral port — parse
//! the line to find it), then serves newline-delimited JSON until a peer
//! sends `{"op":"shutdown"}`. See the router crate docs and README
//! "Serving" for the wire format.

use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use infuserki_ingest::{PipelineConfig, UpdatePipeline};
use infuserki_nn::{NoHook, TransformerLm};
use infuserki_obs as obs;
use infuserki_router::{
    load_tokenizer, server, spawn_router, spawn_watcher, RouterClient, RouterConfig,
};
use infuserki_serve::{demo_model, ControlPlane};

struct Args {
    host: String,
    port: u16,
    model: Option<String>,
    demo: bool,
    /// Replica count, per-replica scheduler config and tenant shaping.
    router: RouterConfig,
    /// Knowledge bundles staged (in order) before the listener comes up;
    /// repeatable. The last one is promoted to active.
    bundles: Vec<String>,
    /// Enable tracing spans and write a Chrome trace here at shutdown.
    trace_out: Option<String>,
    /// WAL directory to watch: runs the online knowledge-update pipeline
    /// in-process, publishing live bundles through the registry.
    watch_kg: Option<String>,
    /// Tokenizer JSON the pipeline phrases MCQs with (required with
    /// --watch-kg; must match the served model's vocabulary).
    watch_tokenizer: Option<String>,
    /// Optional `PipelineConfig` JSON overriding the pipeline defaults.
    watch_config: Option<String>,
}

fn usage() -> &'static str {
    "usage: serve (--demo | --model PATH) [--host H] [--port P] \
     [--budget ROWS] [--batch N] [--chunk N] [--queue N] [--threads N] \
     [--replicas N] [--tenant-queue N] [--tenant-inflight N] \
     [--tenant-rate R] [--tenant-burst B] \
     [--bundle PATH]... [--trace-out PATH] \
     [--watch-kg DIR --watch-tokenizer PATH [--watch-config PATH]]\n\
     --port 0 binds an ephemeral port; the chosen address is printed as\n\
     `LISTENING <addr>` on stdout. Serving goes through the router front:\n\
     --replicas N (default 1) independent schedulers (each its own KV pool\n\
     and budget) behind prefix-affinity dispatch, per-tenant fair-share\n\
     queues (bound --tenant-queue, in-flight cap --tenant-inflight, token\n\
     bucket --tenant-rate req/s with burst --tenant-burst), and atomic\n\
     bundle fan-out. --bundle (repeatable) stages knowledge bundles at\n\
     startup and promotes the last one; more can be loaded live via the\n\
     load_bundle/promote/rollback wire ops. --watch-kg runs the online\n\
     knowledge-update pipeline in-process over a WAL directory (append\n\
     facts with `kg_ingest`): batched deltas are trained and published\n\
     live through the NR promote gate (fleet-wide and all-or-none).\n\
     --watch-tokenizer is the tokenizer JSON matching the\n\
     served model; --watch-config overrides `PipelineConfig` defaults.\n\
     --trace-out enables tracing spans and writes a\n\
     chrome://tracing-loadable JSON trace to PATH at shutdown."
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        host: "127.0.0.1".to_string(),
        port: 7878,
        model: None,
        demo: false,
        router: RouterConfig::default(),
        bundles: Vec::new(),
        trace_out: None,
        watch_kg: None,
        watch_tokenizer: None,
        watch_config: None,
    };
    let mut it = argv.iter();
    let cfg = &mut args.router.serve;
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--demo" => args.demo = true,
            "--model" => args.model = Some(value("--model")?),
            "--host" => args.host = value("--host")?,
            "--port" => {
                args.port = value("--port")?
                    .parse()
                    .map_err(|_| "--port needs a 16-bit integer".to_string())?;
            }
            "--budget" => cfg.kv_budget_rows = parse_count(&value("--budget")?, "--budget")?,
            "--batch" => cfg.max_batch = parse_count(&value("--batch")?, "--batch")?,
            "--chunk" => cfg.prefill_chunk = parse_count(&value("--chunk")?, "--chunk")?,
            "--queue" => cfg.queue_capacity = parse_count(&value("--queue")?, "--queue")?,
            "--threads" => {
                cfg.threads = Some(parse_count(&value("--threads")?, "--threads")?);
            }
            "--replicas" => {
                args.router.replicas = parse_count(&value("--replicas")?, "--replicas")?
            }
            "--tenant-queue" => {
                args.router.tenant_queue_capacity =
                    parse_count(&value("--tenant-queue")?, "--tenant-queue")?;
            }
            "--tenant-inflight" => {
                args.router.max_tenant_inflight =
                    value("--tenant-inflight")?.parse().map_err(|_| {
                        "--tenant-inflight needs an integer (0 = unlimited)".to_string()
                    })?;
            }
            "--tenant-rate" => {
                args.router.tenant_refill_per_sec =
                    parse_rate(&value("--tenant-rate")?, "--tenant-rate")?;
            }
            "--tenant-burst" => {
                args.router.tenant_bucket_capacity =
                    parse_rate(&value("--tenant-burst")?, "--tenant-burst")?;
            }
            "--bundle" => args.bundles.push(value("--bundle")?),
            "--trace-out" => args.trace_out = Some(value("--trace-out")?),
            "--watch-kg" => args.watch_kg = Some(value("--watch-kg")?),
            "--watch-tokenizer" => args.watch_tokenizer = Some(value("--watch-tokenizer")?),
            "--watch-config" => args.watch_config = Some(value("--watch-config")?),
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    if args.demo == args.model.is_some() {
        return Err(format!(
            "pass exactly one of --demo or --model PATH\n{}",
            usage()
        ));
    }
    if args.watch_kg.is_some() && args.watch_tokenizer.is_none() {
        return Err(format!(
            "--watch-kg needs --watch-tokenizer PATH (the pipeline phrases \
             MCQs with it)\n{}",
            usage()
        ));
    }
    if args.watch_kg.is_none() && (args.watch_tokenizer.is_some() || args.watch_config.is_some()) {
        return Err(format!(
            "--watch-tokenizer/--watch-config only make sense with --watch-kg\n{}",
            usage()
        ));
    }
    if args.router.tenant_bucket_capacity > 0.0 && !args.router.rate_limited() {
        return Err(format!(
            "--tenant-burst needs --tenant-rate R > 0 (a burst without a rate \
             shapes nothing)\n{}",
            usage()
        ));
    }
    Ok(args)
}

fn parse_count(raw: &str, flag: &str) -> Result<usize, String> {
    match raw.trim().parse::<usize>() {
        Ok(0) => Err(format!("{flag} must be at least 1")),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("{flag} needs a positive integer, got `{raw}`")),
    }
}

fn parse_rate(raw: &str, flag: &str) -> Result<f64, String> {
    match raw.trim().parse::<f64>() {
        Ok(r) if r >= 0.0 && r.is_finite() => Ok(r),
        _ => Err(format!("{flag} needs a non-negative number, got `{raw}`")),
    }
}

/// Everything between "front is up" and "accept loop returned": bundle
/// staging, the optional watch-kg pipeline, the listener and the JSONL
/// accept loop. Control ops and publishes fan out to every replica.
fn run_front(
    args: &Args,
    client: RouterClient,
    mut watch_model: Option<TransformerLm>,
    stop: &Arc<AtomicBool>,
    threads: usize,
) -> Result<(), u8> {
    // Stage every --bundle in order and promote the last, so the process
    // comes up already serving the newest knowledge; earlier ones stay
    // pinnable (and are the rollback target).
    let mut last_version = None;
    for path in &args.bundles {
        match client.load_bundle(path) {
            Ok(info) => {
                eprintln!(
                    "serve: staged bundle `{}` ({path}) as version {}",
                    info.name, info.version
                );
                last_version = Some(info.version);
            }
            Err(e) => {
                eprintln!("serve: failed to load bundle `{path}`: {e}");
                return Err(2);
            }
        }
    }
    if let Some(v) = last_version {
        if let Err(e) = client.promote(v) {
            eprintln!("serve: failed to promote bundle version {v}: {e}");
            return Err(2);
        }
        eprintln!("serve: bundle version {v} active");
    }
    // Bring the online knowledge-update watcher up before the listener so
    // the WAL is recovered (and any startup error surfaces) before clients
    // can connect.
    let mut watcher = None;
    if let Some(wal_dir) = &args.watch_kg {
        let tok_path = args
            .watch_tokenizer
            .as_deref()
            .expect("parse_args enforces --watch-tokenizer");
        let tokenizer = match load_tokenizer(tok_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("serve: {e}");
                return Err(2);
            }
        };
        let pcfg = match &args.watch_config {
            Some(path) => {
                let json = match std::fs::read_to_string(path) {
                    Ok(j) => j,
                    Err(e) => {
                        eprintln!("serve: read watch config `{path}`: {e}");
                        return Err(2);
                    }
                };
                match serde_json::from_str::<PipelineConfig>(&json) {
                    Ok(c) => c,
                    Err(e) => {
                        eprintln!("serve: parse watch config `{path}`: {e}");
                        return Err(2);
                    }
                }
            }
            None => PipelineConfig::default(),
        };
        let pipeline = match UpdatePipeline::new(
            watch_model.take().expect("watch model cloned before spawn"),
            tokenizer,
            wal_dir,
            pcfg,
            client.clone(),
            client.metrics().registry(),
        ) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("serve: failed to open WAL dir `{wal_dir}`: {e}");
                return Err(2);
            }
        };
        eprintln!(
            "serve: watching KG WAL at `{wal_dir}` (baseline seq {}, {} live triples)",
            pipeline.state().seq,
            pipeline.state().live_len()
        );
        watcher = Some(spawn_watcher(pipeline, Arc::clone(stop)));
    }
    let listener = match TcpListener::bind((args.host.as_str(), args.port)) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("serve: failed to bind {}:{}: {e}", args.host, args.port);
            stop.store(true, Ordering::Relaxed);
            if let Some(w) = watcher {
                let _ = w.join();
            }
            return Err(1);
        }
    };
    let addr = listener
        .local_addr()
        .expect("bound listener has an address");
    println!("LISTENING {addr}");
    eprintln!(
        "serve: {} replica(s), {} threads, budget {} rows, batch {}, chunk {}, queue {}",
        args.router.replicas,
        threads,
        args.router.serve.kv_budget_rows,
        args.router.serve.max_batch,
        args.router.serve.prefill_chunk,
        args.router.serve.queue_capacity
    );
    let accept_result = server::run(listener, client, Arc::clone(stop));
    // The watcher goes down first (it publishes through the front), then
    // the caller drains the fleet.
    stop.store(true, Ordering::Relaxed);
    if let Some(w) = watcher {
        let _ = w.join();
    }
    if let Err(e) = accept_result {
        eprintln!("serve: accept loop failed: {e}");
        return Err(1);
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    // Spans stay off (one relaxed load per would-be span) unless asked
    // for — by flag or by INFUSERKI_TRACE in the environment.
    obs::init_from_env();
    if args.trace_out.is_some() {
        obs::set_enabled(true);
    }
    // Resolve the thread knob before anything binds so a mistyped
    // INFUSERKI_THREADS fails loudly here, not inside a kernel.
    let threads = match args.router.serve.apply_threads() {
        Ok(n) => n,
        Err(e) => {
            eprintln!("serve: {e}");
            return ExitCode::from(2);
        }
    };
    let model = if args.demo {
        demo_model()
    } else {
        let path = args.model.as_deref().expect("parse_args enforces --model");
        match TransformerLm::load(path) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("serve: failed to load model `{path}`: {e}");
                return ExitCode::from(2);
            }
        }
    };
    // The watcher's pipeline trains against its own copy of the frozen
    // base; taken before the replicas consume the originals.
    let watch_model = args.watch_kg.as_ref().map(|_| model.clone());
    let stop = Arc::new(AtomicBool::new(false));
    // Every replica serves an identical model copy, so responses are
    // independent of which replica a request lands on.
    let mut copies: Vec<TransformerLm> = (1..args.router.replicas).map(|_| model.clone()).collect();
    copies.push(model);
    let (client, handle) = match spawn_router(args.router.clone(), move |_| {
        (copies.pop().expect("one model copy per replica"), NoHook)
    }) {
        Ok(ch) => ch,
        Err(e) => {
            eprintln!("serve: {e}");
            return ExitCode::from(2);
        }
    };
    let result = run_front(&args, client, watch_model, &stop, threads);
    handle.shutdown();
    if let Err(code) = result {
        return ExitCode::from(code);
    }
    if let Some(path) = &args.trace_out {
        match obs::write_chrome_trace(path) {
            Ok(()) => eprintln!("serve: wrote trace to {path}"),
            Err(e) => eprintln!("serve: failed to write trace {path}: {e}"),
        }
    }
    ExitCode::SUCCESS
}
