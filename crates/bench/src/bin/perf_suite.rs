//! `perf_suite` — the pinned-size benchmark suite behind CI's
//! bench-regression gate.
//!
//! Three benches, sizes fixed so runs are comparable across commits:
//!
//! * `matmul_256` — 256³ parallel blocked matmul, GFLOP/s (best of 5);
//! * `matmul_256_scalar` — the same product pinned to the scalar ISA tier
//!   (informational; the SIMD-dispatch speedup is the ratio to `matmul_256`);
//! * `cached_decode` — single-sequence KV-cached greedy decode on the demo
//!   model, tokens/s (best of 3);
//! * `quantized_decode` — the same decode with the frozen base quantized to
//!   blockwise int8 (the fused dequant-matmul path), tokens/s;
//! * `serve_closed_loop` — the continuous-batching scheduler under a
//!   closed loop of 16 in-flight generate requests, decode tokens/s;
//! * `prefix_sweep` — the same closed loop with every prompt cut from three
//!   shared 40-token templates, so most prefills adopt paged-KV blocks from
//!   the radix prefix cache instead of recomputing them, tokens/s;
//! * `swap_under_load` — the closed loop with a knowledge-bundle
//!   promote/rollback mid-run; informational only (p99 TTFT across the
//!   swap), never gated.
//! * `ingest_throughput` — durable WAL append rate (records/s, fsync
//!   batched) plus the full delta→published-bundle latency of one online
//!   update round; informational only (training cost dominates and scales
//!   with the method config, not the hot path), never gated.
//! * `router_load` — the same closed loop driven through the two-replica
//!   front router with template-heavy prompts; informational only (replicas
//!   share this host's cores, so tok/s measures dispatch overhead rather
//!   than real scaling — `router_load --replicas 1,2,4` is the full sweep),
//!   never gated.
//! * `decode_lanes` — one hooked decode step on the 12-layer world geometry
//!   at 1…18 lanes (µs and µs/lane), plus the adapter-width product
//!   `[16×64]·[64×10]` beside `[16×64]·[64×16]`. Gated on *shape*, not speed
//!   (see [`shape_gate`]): the ratios cancel the host.
//! * `decode_history` — the same hooked step at 16 lanes with 16, 32, 64 and
//!   80 cached tokens per lane (µs), on the serving block size, the lanes
//!   forked from one prefilled sequence. Gated on shape too: what a cached
//!   token adds to the step.
//!
//! ```text
//! perf_suite --write results/bench_baseline.json   # (re-)baseline
//! perf_suite --check results/bench_baseline.json   # gate: exit 1 on >25% drop
//! perf_suite --check baseline.json --threshold 0.4
//! ```
//!
//! `--check` fails when any higher-is-better metric falls more than
//! `threshold` (default 0.25) below the committed baseline. Best-of-N
//! timing plus a generous threshold keeps the gate usable on noisy shared
//! CI runners while still catching real order-of-magnitude regressions.
//! It also fails, baseline or not, when `decode_lanes` is not flat: an odd
//! lane count costing more than 1.25× the mean of its even neighbours, or a
//! 10-column product costing more than 2× the 16-column one; and when
//! `decode_history` is steep: a step over 80 cached tokens costing more than
//! 1.45× the step over 16.
//! Records are emitted through `infuserki_obs::PerfSuite` (the
//! machine-readable `BENCH_*.json` hook).

use std::collections::VecDeque;
use std::process::ExitCode;
use std::time::Instant;

use infuserki_core::{InfuserKiConfig, InfuserKiMethod};
use infuserki_nn::{sampler, ModelConfig, NoHook, TransformerLm};
use infuserki_obs::{PerfRecord, PerfSuite};
use infuserki_serve::{demo_model, spawn_scheduler, ControlPlane, Outcome, ServeConfig};
use infuserki_tensor::{init, kernels, Isa, Matrix, Param, QuantSpec};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Value;

fn usage() -> &'static str {
    "usage: perf_suite (--write PATH | --check BASELINE [--threshold FRAC])"
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut write: Option<String> = None;
    let mut check: Option<String> = None;
    let mut threshold = 0.25f64;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--write" => write = it.next().cloned(),
            "--check" => check = it.next().cloned(),
            "--threshold" => {
                threshold = match it.next().and_then(|v| v.parse().ok()) {
                    Some(t) => t,
                    None => {
                        eprintln!("--threshold needs a fraction like 0.25");
                        return ExitCode::from(2);
                    }
                }
            }
            _ => {
                eprintln!("{}", usage());
                return ExitCode::from(2);
            }
        }
    }
    if write.is_some() == check.is_some() {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    }

    let suite = run_suite();
    println!("{}", suite.to_json());

    if let Some(path) = write {
        if let Err(e) = suite.write(&path) {
            eprintln!("perf_suite: failed to write {path}: {e}");
            return ExitCode::from(1);
        }
        eprintln!("perf_suite: baseline written to {path}");
        return ExitCode::SUCCESS;
    }

    let path = check.expect("one mode is set");
    let baseline = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perf_suite: cannot read baseline {path}: {e}");
            return ExitCode::from(1);
        }
    };
    let mut failed = false;
    for result in [gate(&suite, &baseline, threshold), shape_gate(&suite)] {
        match result {
            Ok(lines) => lines.iter().for_each(|l| eprintln!("{l}")),
            Err(failures) => {
                failures.iter().for_each(|f| eprintln!("REGRESSION: {f}"));
                failed = true;
            }
        }
    }
    if failed {
        return ExitCode::from(1);
    }
    eprintln!(
        "perf_suite: no regression beyond {:.0}%, decode cost flat in lanes and width",
        threshold * 100.0
    );
    ExitCode::SUCCESS
}

fn run_suite() -> PerfSuite {
    let mut suite = PerfSuite::new("perf_suite");
    suite.push(bench_matmul());
    suite.push(bench_matmul_scalar());
    suite.push(bench_cached_decode());
    suite.push(bench_quantized_decode());
    suite.push(bench_serve_closed_loop());
    suite.push(bench_prefix_sweep());
    suite.push(bench_swap_under_load());
    suite.push(bench_ingest_throughput());
    suite.push(bench_router_load());
    suite.push(bench_decode_lanes());
    suite.push(bench_decode_history());
    suite
}

/// 256³ product on the default thread count — the parallel kernel path.
fn bench_matmul() -> PerfRecord {
    const N: usize = 256;
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let a = init::normal(N, N, 0.5, &mut rng);
    let b = init::normal(N, N, 0.5, &mut rng);
    let mut out = Matrix::zeros(N, N);
    kernels::matmul_into(&a, &b, &mut out, false); // warm-up
    let flops = (2 * N * N * N) as f64;
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        kernels::matmul_into(&a, &b, &mut out, false);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    std::hint::black_box(out.get(0, 0));
    PerfRecord::new("matmul_256")
        .metric("gflops", flops / best / 1e9)
        .metric("wall_ms", best * 1e3)
}

/// The same 256³ product pinned to the scalar ISA tier — the floor the
/// SIMD tiers are measured against. Informational (not gated): its ratio
/// to `matmul_256` is the dispatch speedup on this host.
fn bench_matmul_scalar() -> PerfRecord {
    const N: usize = 256;
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let a = init::normal(N, N, 0.5, &mut rng);
    let b = init::normal(N, N, 0.5, &mut rng);
    let mut out = Matrix::zeros(N, N);
    infuserki_tensor::simd::set_isa(Some(Isa::Scalar));
    kernels::matmul_into(&a, &b, &mut out, false); // warm-up
    let flops = (2 * N * N * N) as f64;
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        kernels::matmul_into(&a, &b, &mut out, false);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    infuserki_tensor::simd::set_isa(None);
    std::hint::black_box(out.get(0, 0));
    PerfRecord::new("matmul_256_scalar")
        .metric("gflops", flops / best / 1e9)
        .metric("wall_ms", best * 1e3)
}

/// Single-sequence KV-cached greedy decode on the demo model.
fn bench_cached_decode() -> PerfRecord {
    let model = demo_model();
    let prompt: Vec<usize> = (1..9).collect();
    let max_new = 48;
    sampler::greedy_decode(&model, &NoHook, &prompt, max_new, None); // warm-up
    let mut best = f64::INFINITY;
    let mut emitted = 0usize;
    for _ in 0..3 {
        let t0 = Instant::now();
        let out = sampler::greedy_decode(&model, &NoHook, &prompt, max_new, None);
        best = best.min(t0.elapsed().as_secs_f64());
        emitted = out.len();
    }
    PerfRecord::new("cached_decode")
        .metric("tok_per_s", emitted as f64 / best)
        .metric("wall_ms", best * 1e3)
}

/// The same cached greedy decode with the demo model's frozen base
/// quantized to blockwise int8 — the fused dequant-matmul path end to end.
fn bench_quantized_decode() -> PerfRecord {
    let mut model = demo_model();
    model.quantize_frozen_base(QuantSpec::default());
    let prompt: Vec<usize> = (1..9).collect();
    let max_new = 48;
    sampler::greedy_decode(&model, &NoHook, &prompt, max_new, None); // warm-up
    let mut best = f64::INFINITY;
    let mut emitted = 0usize;
    for _ in 0..3 {
        let t0 = Instant::now();
        let out = sampler::greedy_decode(&model, &NoHook, &prompt, max_new, None);
        best = best.min(t0.elapsed().as_secs_f64());
        emitted = out.len();
    }
    PerfRecord::new("quantized_decode")
        .metric("tok_per_s", emitted as f64 / best)
        .metric("wall_ms", best * 1e3)
}

/// Closed-loop serving: 16 in-flight greedy requests over 64 total.
fn bench_serve_closed_loop() -> PerfRecord {
    const VOCAB: usize = 64;
    let (load, total) = (16usize, 64usize);
    let (client, handle) =
        spawn_scheduler(demo_model(), NoHook, ServeConfig::default()).expect("scheduler spawns");
    let mut rng = ChaCha8Rng::seed_from_u64(9016);
    let submit = |rng: &mut ChaCha8Rng| {
        let plen = rng.gen_range(4usize..24);
        let prompt: Vec<usize> = (0..plen).map(|_| rng.gen_range(0..VOCAB)).collect();
        client.generate(prompt, 16, None).expect("submit accepted")
    };
    let started = Instant::now();
    let mut in_flight = VecDeque::new();
    let mut submitted = 0usize;
    while submitted < load {
        in_flight.push_back(submit(&mut rng));
        submitted += 1;
    }
    let mut tokens = 0u64;
    while let Some(h) = in_flight.pop_front() {
        match h.wait().expect("scheduler alive") {
            Outcome::Generated { tokens: t } => tokens += t.len() as u64,
            other => panic!("unexpected outcome {other:?}"),
        }
        if submitted < total {
            in_flight.push_back(submit(&mut rng));
            submitted += 1;
        }
    }
    let wall = started.elapsed().as_secs_f64();
    handle.shutdown();
    let snap = client.metrics();
    PerfRecord::new("serve_closed_loop")
        .metric("tok_per_s", tokens as f64 / wall)
        .metric("ttft_p50_ms", snap.ttft_p50_ms)
        .metric("wall_ms", wall * 1e3)
}

/// Closed-loop serving over shared prompt templates: 8 in flight, 48 total,
/// every prompt a 40-token template plus a short unique suffix. Throughput
/// here rides on the prefix cache — losing block adoption (or re-prefilling
/// full templates) tanks tok/s well past the gate threshold.
fn bench_prefix_sweep() -> PerfRecord {
    const VOCAB: usize = 64;
    let (load, total) = (8usize, 48usize);
    let (client, handle) =
        spawn_scheduler(demo_model(), NoHook, ServeConfig::default()).expect("scheduler spawns");
    let mut rng = ChaCha8Rng::seed_from_u64(9017);
    let templates: Vec<Vec<usize>> = (0..3)
        .map(|_| (0..40).map(|_| rng.gen_range(0..VOCAB)).collect())
        .collect();
    let submit = |rng: &mut ChaCha8Rng| {
        let mut prompt = templates[rng.gen_range(0..templates.len())].clone();
        for _ in 0..rng.gen_range(1..5) {
            prompt.push(rng.gen_range(0..VOCAB));
        }
        client.generate(prompt, 8, None).expect("submit accepted")
    };
    let started = Instant::now();
    let mut in_flight = VecDeque::new();
    let mut submitted = 0usize;
    while submitted < load {
        in_flight.push_back(submit(&mut rng));
        submitted += 1;
    }
    let mut tokens = 0u64;
    while let Some(h) = in_flight.pop_front() {
        match h.wait().expect("scheduler alive") {
            Outcome::Generated { tokens: t } => tokens += t.len() as u64,
            other => panic!("unexpected outcome {other:?}"),
        }
        if submitted < total {
            in_flight.push_back(submit(&mut rng));
            submitted += 1;
        }
    }
    let wall = started.elapsed().as_secs_f64();
    handle.shutdown();
    let snap = client.metrics();
    let eligible = (snap.prefix_hits + snap.prefix_misses).max(1);
    PerfRecord::new("prefix_sweep")
        .metric("tok_per_s", tokens as f64 / wall)
        .metric("hit_rate", snap.prefix_hits as f64 / eligible as f64)
        .metric("ttft_p50_ms", snap.ttft_p50_ms)
        .metric("wall_ms", wall * 1e3)
}

/// Closed-loop serving with a live knowledge swap: 8 in flight, 48 total; a
/// bundle is loaded+promoted after a third of the completions and rolled
/// back after two thirds. Informational only — the p99 TTFT spanning the
/// swap is the number to watch; it must NOT join the gated list, since swap
/// cost rides on bundle deserialization, not the steady-state hot path.
fn bench_swap_under_load() -> PerfRecord {
    const VOCAB: usize = 64;
    let (load, total) = (8usize, 48usize);
    let model = demo_model();
    let bundle = infuserki_bench::swap::demo_bundle_file(&model, "perf_suite_swap");
    let (client, handle) =
        spawn_scheduler(model, NoHook, ServeConfig::default()).expect("scheduler spawns");
    let mut rng = ChaCha8Rng::seed_from_u64(9018);
    let submit = |rng: &mut ChaCha8Rng| {
        let plen = rng.gen_range(4usize..24);
        let prompt: Vec<usize> = (0..plen).map(|_| rng.gen_range(0..VOCAB)).collect();
        client.generate(prompt, 16, None).expect("submit accepted")
    };
    let started = Instant::now();
    let mut in_flight = VecDeque::new();
    let mut submitted = 0usize;
    while submitted < load {
        in_flight.push_back(submit(&mut rng));
        submitted += 1;
    }
    let mut completed = 0usize;
    let mut tokens = 0u64;
    while let Some(h) = in_flight.pop_front() {
        match h.wait().expect("scheduler alive") {
            Outcome::Generated { tokens: t } => tokens += t.len() as u64,
            other => panic!("unexpected outcome {other:?}"),
        }
        completed += 1;
        if completed == total / 3 {
            let info = client
                .load_bundle(bundle.to_string_lossy().as_ref())
                .expect("bundle loads");
            client.promote(info.version).expect("bundle promotes");
        } else if completed == 2 * total / 3 {
            client.rollback().expect("rollback succeeds");
        }
        if submitted < total {
            in_flight.push_back(submit(&mut rng));
            submitted += 1;
        }
    }
    let wall = started.elapsed().as_secs_f64();
    handle.shutdown();
    let _ = std::fs::remove_file(&bundle);
    let snap = client.metrics();
    PerfRecord::new("swap_under_load")
        .metric("tok_per_s", tokens as f64 / wall)
        .metric("ttft_p99_ms", snap.ttft_p99_ms)
        .metric("swaps", snap.bundle_swaps as f64)
        .metric("wall_ms", wall * 1e3)
}

/// Streaming KG ingestion: append rate into the durable WAL (fsync batched
/// every 64 records) over 2000 deltas, recovery wall time over that log,
/// and the latency of one full online update round — two novel facts
/// tailed from the WAL, detected, trained and published live through the
/// scheduler's NR promote gate. Informational only: round latency is
/// dominated by adapter training, which scales with the method config
/// rather than any serving hot path, so it must NOT join the gated list.
fn bench_ingest_throughput() -> PerfRecord {
    use infuserki_core::{InfuserKiConfig, TrainConfig};
    use infuserki_ingest::{
        recover, AppendOutcome, DurableStore, PipelineConfig, RoundOutcome, StoreOptions,
        TripleDelta, UpdatePipeline,
    };
    use infuserki_kg::{synth_umls, UmlsConfig};
    use infuserki_nn::{ModelConfig, TransformerLm};
    use infuserki_text::{prompts, templates::TemplateSet, Tokenizer};

    let dir = std::env::temp_dir().join(format!("infuserki_perf_ingest_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // Append rate: a realistic mixed stream of adds over a modest name
    // pool, fsync batched.
    const RECORDS: usize = 2000;
    let opts = StoreOptions {
        sync_every: 64,
        snapshot_every: 0,
        functional: false,
    };
    let mut ds = DurableStore::open(&dir, opts).expect("wal dir opens");
    let t0 = Instant::now();
    let mut accepted = 0usize;
    for i in 0..RECORDS {
        let d = TripleDelta::add(
            format!("entity {}", i % 211),
            format!("relation {}", i % 7),
            format!("entity {}", (i * 31 + 5) % 211),
        );
        if let AppendOutcome::Accepted(_) = ds.append(&d).expect("append") {
            accepted += 1;
        }
    }
    ds.sync().expect("final sync");
    let append_wall = t0.elapsed().as_secs_f64();
    drop(ds);

    let t0 = Instant::now();
    let rec = recover(&dir).expect("recovery");
    let recover_wall = t0.elapsed().as_secs_f64();
    std::hint::black_box(rec.state.seq);
    let _ = std::fs::remove_dir_all(&dir);

    // Delta→bundle latency: one pipeline round end to end on a tiny world,
    // publishing through the real scheduler control plane.
    let world = synth_umls(&UmlsConfig::with_triplets(40, 19));
    let mut lines: Vec<String> = world.entity_names().map(str::to_string).collect();
    for r in world.relation_names() {
        lines.extend(TemplateSet::vocabulary_lines(r));
    }
    lines.extend(prompts::vocabulary_lines());
    let tok = Tokenizer::build(lines.iter().map(String::as_str));
    let mut rng = ChaCha8Rng::seed_from_u64(91);
    let base = TransformerLm::new(
        ModelConfig {
            vocab_size: tok.vocab_size(),
            max_seq: 96,
            ..ModelConfig::tiny(0)
        },
        &mut rng,
    );
    let wal = dir.join("round");
    std::fs::create_dir_all(&wal).unwrap();
    let mut ds = DurableStore::open(&wal, StoreOptions::default()).expect("wal dir opens");
    for t in world.triples() {
        let _ = ds
            .append(&TripleDelta::add(
                world.entity_name(t.head),
                world.relation_name(t.relation),
                world.entity_name(t.tail),
            ))
            .expect("baseline append");
    }
    ds.sync().expect("baseline sync");
    let mut method = InfuserKiConfig::for_model(base.n_layers());
    method.bottleneck = 4;
    method.infuser_hidden = 4;
    method.rc_dim = 8;
    let cfg = PipelineConfig {
        min_batch: 2,
        max_relations: 24,
        method: Some(method),
        bundle_dir: wal.join("bundles").display().to_string(),
        name_prefix: "perf".to_string(),
        train: TrainConfig {
            epochs_infuser: 6,
            epochs_qa: 24,
            epochs_rc: 2,
            lr: 3e-3,
            lr_infuser: 2e-2,
            batch: 4,
            seed: 11,
        },
        ..PipelineConfig::default()
    };
    let (client, handle) =
        infuserki_router::spawn_router(Default::default(), |_| (base.clone(), NoHook))
            .expect("router spawns");
    let registry = client.metrics().registry();
    let mut pipe = UpdatePipeline::new(base, tok, &wal, cfg, client.clone(), registry)
        .expect("pipeline opens");
    let names: Vec<&str> = world.entity_names().collect();
    let rel = world.relation_name(world.triples()[0].relation);
    let mut appended = 0;
    'outer: for (i, &s) in names.iter().enumerate() {
        for &o in names.iter().skip(i + 1) {
            if appended == 2 {
                break 'outer;
            }
            if let AppendOutcome::Accepted(_) = ds
                .append(&TripleDelta::add(s, rel, o))
                .expect("novel append")
            {
                appended += 1;
            }
        }
    }
    ds.sync().expect("novel sync");
    let t0 = Instant::now();
    let outcome = pipe.run_once().expect("round runs");
    let round_wall = t0.elapsed().as_secs_f64();
    assert!(
        matches!(outcome, RoundOutcome::Published { .. }),
        "round publishes, got {outcome:?}"
    );
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    PerfRecord::new("ingest_throughput")
        .metric("append_per_s", accepted as f64 / append_wall)
        .metric("recover_ms", recover_wall * 1e3)
        .metric("round_ms", round_wall * 1e3)
}

/// Closed loop through the two-replica front router: 8 in flight, 48
/// total, prompts cut from three shared templates so prefix affinity keeps
/// template traffic homed. Informational only — both replicas share this
/// host's cores, so tok/s here tracks dispatch/fan-out overhead rather
/// than real scaling; it must NOT join the gated list.
fn bench_router_load() -> PerfRecord {
    const VOCAB: usize = 64;
    let (load, total) = (8usize, 48usize);
    let cfg = infuserki_router::RouterConfig {
        replicas: 2,
        serve: ServeConfig::default(),
        ..infuserki_router::RouterConfig::default()
    };
    let (client, handle) =
        infuserki_router::spawn_router(cfg, |_| (demo_model(), NoHook)).expect("router spawns");
    let mut rng = ChaCha8Rng::seed_from_u64(9019);
    let templates: Vec<Vec<usize>> = (0..3)
        .map(|_| (0..24).map(|_| rng.gen_range(0..VOCAB)).collect())
        .collect();
    let submit = |rng: &mut ChaCha8Rng| {
        let mut prompt = templates[rng.gen_range(0..templates.len())].clone();
        for _ in 0..rng.gen_range(1..5) {
            prompt.push(rng.gen_range(0..VOCAB));
        }
        let kind = infuserki_serve::RequestKind::Generate(infuserki_serve::GenerateSpec::greedy(
            prompt, 16, None,
        ));
        client
            .submit(kind, infuserki_serve::SubmitOpts::default(), None)
            .expect("submit accepted")
    };
    let started = Instant::now();
    let mut in_flight = VecDeque::new();
    let mut submitted = 0usize;
    while submitted < load {
        in_flight.push_back(submit(&mut rng));
        submitted += 1;
    }
    let mut tokens = 0u64;
    while let Some(h) = in_flight.pop_front() {
        match h.wait().expect("router alive") {
            Outcome::Generated { tokens: t } => tokens += t.len() as u64,
            other => panic!("unexpected outcome {other:?}"),
        }
        if submitted < total {
            in_flight.push_back(submit(&mut rng));
            submitted += 1;
        }
    }
    let wall = started.elapsed().as_secs_f64();
    let m = client.metrics();
    let dispatched = m.dispatched.get().max(1);
    let record = PerfRecord::new("router_load")
        .metric("tok_per_s", tokens as f64 / wall)
        .metric(
            "affinity_share",
            m.affinity_hits.get() as f64 / dispatched as f64,
        )
        .metric("wall_ms", wall * 1e3);
    handle.shutdown();
    record
}

/// Lane counts `decode_lanes` reports: the odd counts under test and the
/// even neighbours [`shape_gate`] compares each against.
const DECODE_LANES: &[usize] = &[1, 2, 3, 4, 6, 7, 8, 9, 10, 14, 15, 16, 17, 18];

/// Per-column medians of 240 samples taken in rounds — one sample of every
/// column per round, after 8 untimed warm-up rounds — so a host that changes
/// speed mid-run does so under every column of a ratio. `sample(col)`
/// returns seconds.
fn round_robin_medians(columns: usize, mut sample: impl FnMut(usize) -> f64) -> Vec<f64> {
    const ROUNDS: usize = 240;
    let mut samples = vec![Vec::with_capacity(ROUNDS); columns];
    for round in 0..ROUNDS + 8 {
        for (col, xs) in samples.iter_mut().enumerate() {
            let dt = sample(col);
            if round >= 8 {
                xs.push(dt);
            }
        }
    }
    samples
        .iter_mut()
        .map(|xs| {
            xs.sort_by(f64::total_cmp);
            xs[xs.len() / 2]
        })
        .collect()
}

/// The 12-layer world geometry (random-init base, `vocab_size` tokens) under
/// a nudged InfuserKI method at the paper's d′ = 10 — the model the shape
/// benches step.
fn hooked_world_model(vocab_size: usize, rng: &mut ChaCha8Rng) -> (TransformerLm, InfuserKiMethod) {
    let cfg = ModelConfig {
        vocab_size,
        ..ModelConfig::default()
    };
    let base = TransformerLm::new(cfg, rng);
    let mut method = InfuserKiMethod::new(InfuserKiConfig::for_model(base.n_layers()), &base, 8);
    // Off the identity init, so the gate and adapters do real arithmetic.
    let mut bump = |p: &mut Param| {
        for w in p.data_mut().data_mut() {
            *w += rng.gen_range(-0.05f32..0.05);
        }
    };
    method.visit_adapters_mut(&mut bump);
    method.visit_infusers_mut(&mut bump);
    (base, method)
}

/// One hooked decode step ([`hooked_world_model`], vocabulary 2048 so the
/// LM head is a visible share of it) per lane count, every lane at 32 cached
/// tokens; and the adapter down-projection's product shape beside the
/// one-strip shape.
fn bench_decode_lanes() -> PerfRecord {
    let mut rng = ChaCha8Rng::seed_from_u64(15);
    let (base, method) = hooked_world_model(ModelConfig::default().vocab_size, &mut rng);
    let hook = method.hook();
    let vocab = base.config().vocab_size;
    let max_lanes = *DECODE_LANES.last().expect("non-empty sweep");
    let prompts: Vec<Vec<usize>> = (0..max_lanes)
        .map(|_| (0..32).map(|_| rng.gen_range(2..vocab)).collect())
        .collect();
    let tokens: Vec<usize> = (0..max_lanes).map(|i| 2 + i).collect();
    let caches: Vec<_> = DECODE_LANES
        .iter()
        .map(|&n| base.prefill_batch(&prompts[..n], &hook).0)
        .collect();
    let step_s = round_robin_medians(DECODE_LANES.len(), |col| {
        // Every sample forks, so the position never moves.
        let mut c = caches[col].fork();
        let t0 = Instant::now();
        let logits = base.decode_step_batch(&tokens[..DECODE_LANES[col]], &hook, &mut c);
        std::hint::black_box(logits.get(0, 0));
        t0.elapsed().as_secs_f64()
    });
    let mut record = PerfRecord::new("decode_lanes");
    for (&n, s) in DECODE_LANES.iter().zip(&step_s) {
        record = record
            .metric(format!("us_b{n}"), s * 1e6)
            .metric(format!("us_per_lane_b{n}"), s * 1e6 / n as f64);
    }

    let a = init::normal(16, 64, 0.5, &mut rng);
    let widths = [10usize, 16];
    let bs: Vec<Matrix> = widths
        .iter()
        .map(|&w| init::normal(64, w, 0.5, &mut rng))
        .collect();
    let mut outs: Vec<Matrix> = widths.iter().map(|&w| Matrix::zeros(16, w)).collect();
    let matmul_s = round_robin_medians(widths.len(), |col| {
        let t0 = Instant::now();
        for _ in 0..50 {
            kernels::matmul_into(&a, &bs[col], &mut outs[col], false);
        }
        let dt = t0.elapsed().as_secs_f64() / 50.0;
        std::hint::black_box(outs[col].get(0, 0));
        dt
    });
    for (&w, s) in widths.iter().zip(&matmul_s) {
        record = record.metric(format!("matmul_16x64x{w}_us"), s * 1e6);
    }
    record
}

/// Cached tokens per lane `decode_history` reports.
const DECODE_HISTORY: &[usize] = &[16, 32, 64, 80];

/// One hooked 16-lane decode step ([`hooked_world_model`]) per history
/// length, over 16-row KV blocks as the server allocates them and at the
/// world's vocabulary (106), so the history-independent LM head does not
/// dilute what a cached token adds. The lanes fork one prefilled sequence
/// (as MCQ options fork a question): they share its history blocks, which
/// therefore stay cache-resident, and the slope measures the attention
/// kernels rather than the host's memory system — sixteen unshared 80-token
/// histories are 9 MB a step and stream at the L3's bandwidth, which flattens
/// the ratio [`shape_gate`] checks (1.72× at PR 15, 1.63× after PR 16) where
/// the shared form reads 1.51× and 1.36×.
fn bench_decode_history() -> PerfRecord {
    const LANES: usize = 16;
    let mut rng = ChaCha8Rng::seed_from_u64(16);
    let (base, method) = hooked_world_model(106, &mut rng);
    let hook = method.hook();
    let vocab = base.config().vocab_size;
    let caches: Vec<_> = DECODE_HISTORY
        .iter()
        .map(|&cached| {
            let prompt: Vec<usize> = (0..cached).map(|_| rng.gen_range(2..vocab)).collect();
            let mut cache = base.new_cache_in(&hook, base.new_pool(16));
            base.extend_cached(&prompt, &hook, &mut cache);
            cache.gather(&[0; LANES])
        })
        .collect();
    let tokens: Vec<usize> = (0..LANES).map(|i| 2 + i).collect();
    let step_s = round_robin_medians(DECODE_HISTORY.len(), |col| {
        // Every sample forks, so the position never moves.
        let mut c = caches[col].fork();
        let t0 = Instant::now();
        let logits = base.decode_step_batch(&tokens, &hook, &mut c);
        std::hint::black_box(logits.get(0, 0));
        t0.elapsed().as_secs_f64()
    });
    let mut record = PerfRecord::new("decode_history");
    for (&cached, s) in DECODE_HISTORY.iter().zip(&step_s) {
        record = record.metric(format!("us_t{cached}"), s * 1e6);
    }
    record
}

/// The gate on shape: a forward costs the same per packed row whatever the
/// row count or the width. Fails if an odd lane count costs more than 1.25×
/// the mean of its even neighbours (a one-lane step has one), or if the
/// paper's adapter width costs more than 2× a full 16-column strip; and a
/// cached token is cheap beside the rest of the step — fails if the 16-lane
/// step over 80 cached tokens costs more than 1.45× the step over 16, i.e. if
/// a cached token adds more than 0.7 % of the 16-token step (the attention
/// core on per-head fold calls and libm `exp` measures 1.51×; the one-pass
/// core 1.36×). All are ratios of numbers sampled in the same rounds, so
/// host speed cancels.
fn shape_gate(fresh: &PerfSuite) -> Result<Vec<String>, Vec<String>> {
    let (Some(rec), Some(hist)) = (fresh.get("decode_lanes"), fresh.get("decode_history")) else {
        return Err(vec![
            "fresh run is missing decode_lanes or decode_history".to_string()
        ]);
    };
    let us = |n: usize| rec.get(&format!("us_b{n}"));
    let mut ok = Vec::new();
    let mut bad = Vec::new();
    let mut check = |what: String, cost: f64, beside: f64, limit: f64| {
        let line = format!("shape: {what}: {:.2}x (limit {limit}x)", cost / beside);
        if cost > limit * beside {
            bad.push(line);
        } else {
            ok.push(line);
        }
    };
    for &n in DECODE_LANES.iter().filter(|&&n| n % 2 == 1) {
        let evens: Vec<f64> = [n - 1, n + 1].into_iter().filter_map(us).collect();
        let (Some(odd), false) = (us(n), evens.is_empty()) else {
            return Err(vec![format!(
                "decode_lanes is missing {n} lanes or its even neighbours"
            )]);
        };
        let even = evens.iter().sum::<f64>() / evens.len() as f64;
        check(
            format!("{n} lanes {odd:.0} us vs its even neighbours' {even:.0} us"),
            odd,
            even,
            1.25,
        );
    }
    let (Some(narrow), Some(strip)) =
        (rec.get("matmul_16x64x10_us"), rec.get("matmul_16x64x16_us"))
    else {
        return Err(vec!["decode_lanes is missing the width probes".to_string()]);
    };
    check(
        format!("[16x64].[64x10] {narrow:.2} us vs [16x64].[64x16] {strip:.2} us"),
        narrow,
        strip,
        2.0,
    );
    let (Some(short), Some(long)) = (hist.get("us_t16"), hist.get("us_t80")) else {
        return Err(vec!["decode_history is missing its end points".to_string()]);
    };
    check(
        format!(
            "80 cached tokens {long:.0} us vs 16 cached tokens {short:.0} us \
             ({:.2} % of the 16-token step per cached token)",
            (long - short) / 64.0 / short * 100.0
        ),
        long,
        short,
        1.45,
    );
    if bad.is_empty() {
        Ok(ok)
    } else {
        Err(bad)
    }
}

/// Metrics the gate compares (higher is better). Latency-flavored metrics
/// in the records are informational only — `swap_under_load`,
/// `ingest_throughput`, and `router_load` in particular stay off this list
/// by design (see their doc comments).
const GATED: &[(&str, &str)] = &[
    ("matmul_256", "gflops"),
    ("cached_decode", "tok_per_s"),
    ("quantized_decode", "tok_per_s"),
    ("serve_closed_loop", "tok_per_s"),
    ("prefix_sweep", "tok_per_s"),
];

/// Compares `fresh` against the baseline JSON. `Ok` carries status lines;
/// `Err` carries one line per regressed metric.
fn gate(
    fresh: &PerfSuite,
    baseline_json: &str,
    threshold: f64,
) -> Result<Vec<String>, Vec<String>> {
    let v: Value = match serde_json::from_str(baseline_json) {
        Ok(v) => v,
        Err(e) => return Err(vec![format!("baseline does not parse: {e:?}")]),
    };
    let mut ok = Vec::new();
    let mut bad = Vec::new();
    for &(bench, metric) in GATED {
        let base = v
            .get_field("benches")
            .and_then(|b| b.get_field(bench))
            .and_then(|m| m.get_field(metric))
            .and_then(Value::as_f64);
        let Some(base) = base else {
            bad.push(format!("baseline is missing {bench}.{metric}"));
            continue;
        };
        let Some(now) = fresh.get(bench).and_then(|r| r.get(metric)) else {
            bad.push(format!("fresh run is missing {bench}.{metric}"));
            continue;
        };
        let floor = base * (1.0 - threshold);
        let line = format!("{bench}.{metric}: baseline {base:.1}, now {now:.1} (floor {floor:.1})");
        if now < floor {
            bad.push(line);
        } else {
            ok.push(line);
        }
    }
    if bad.is_empty() {
        Ok(ok)
    } else {
        Err(bad)
    }
}
