//! `perf_suite` — the ratio gate behind CI's "Ratio gate" job.
//!
//! One mode, no options: it runs the benches below, prints their records as
//! JSON on stdout (through `infuserki_obs::PerfSuite`) and exits 1 if one of
//! fifteen ratios is over its limit; any argument is a usage error (exit 2).
//! Both sides of a ratio are sampled in the same [`round_robin_medians`]
//! rounds, so the host's speed cancels and nothing is compared against a
//! committed number. Absolute speed is the system benchmark's job
//! (`benchmark/`, `BENCHMARK.json`, the paired runs in
//! `results/BENCH_<pr>.json`).
//!
//! * `matmul_tiers` — a 256³ product on the dispatched SIMD tier and pinned
//!   to the scalar tier (µs); left out when the active tier is scalar.
//! * `decode_lanes` — one hooked decode step on the 12-layer world geometry
//!   at 1…18 lanes (µs and µs/lane), plus the adapter-width product
//!   `[16×64]·[64×10]` beside `[16×64]·[64×16]`.
//! * `decode_history` — the same hooked step at 16 lanes with 16, 32, 64 and
//!   80 cached tokens per lane (µs), on the serving block size, the lanes
//!   forked from one prefilled sequence.
//! * `decode_variants` — the hooked 16-lane step beside the same step on an
//!   int8-quantized frozen base and beside the hook-less step (µs).
//! * `prefix_cache` — a closed loop of shared-template prompts through the
//!   scheduler beside the same loop with fresh prompt heads, which the
//!   cross-request prefix cache cannot serve (ms per loop).
//! * `train_backward` — loss, backward and `grads()` of one hooked
//!   InfuserKI QA sample on a tape masked to the adapters and on a full
//!   `Tape::new()` tape, beside the masked tape's loss alone (µs).
//! * `tape_forward` — the hooked forward of one 30-token sequence recorded
//!   on a tape beside the KV-cached engine's prefill of the same tokens (µs).
//! * `round_bookkeeping` — an update round's work besides detection and
//!   training: the MCQ bank for 8 new facts over a 2 000-triple store plus
//!   one digest of the 12-layer base, beside `detect_unknown` on those 8
//!   MCQs under the InfuserKI hook (ms).
//! * `fleet_load` — a gated load of one bundle, until its gate verdict is
//!   stored, through a 3-replica router beside the same on one scheduler
//!   (ms).
//! * `promote_swap` — a promote of a staged bundle whose gate verdict is
//!   stored, beside a rollback, on one scheduler (µs).
//! * `kv_storage` — the bytes one pooled KV block holds per cached row at the
//!   12-layer geometry and the serving block size, beside the same block
//!   with f32 panels (bytes; counted, not timed).
//!
//! The ratios and their limits: [`TIER_RATIO`], [`RATIOS`] and the odd-lane
//! rule in [`ratio_gate`].
//!
//! The flat-cost ratios (odd lanes, d′ width, cached history) are the
//! dispatched tier's contract. Under `INFUSERKI_ISA=scalar` on a
//! `target-cpu=native` build the width ratio reads about 4.2× and the history
//! ratio about 1.9×, and the gate is not expected to pass there.

use std::collections::VecDeque;
use std::process::ExitCode;
use std::time::Instant;

use infuserki_core::{
    base_model_digest, detect_unknown, GateProbe, InfuserKiConfig, InfuserKiMethod,
    KnowledgeBundle, McqBank,
};
use infuserki_eval::world::build_vocabulary;
use infuserki_kg::{synth_umls, EntityId, Triple, TripleStore, UmlsConfig};
use infuserki_nn::{
    sampler, BlockPool, KvCache, LayerHook, LmSample, ModelConfig, NoHook, TransformerLm,
};
use infuserki_obs::{PerfRecord, PerfSuite};
use infuserki_router::{spawn_router, RouterConfig};
use infuserki_serve::{spawn_scheduler, ControlPlane, Outcome, ServeConfig};
use infuserki_tensor::{init, kernels, simd, Isa, Matrix, Param, QuantSpec, Tape, TrainableSet};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn main() -> ExitCode {
    if std::env::args().len() > 1 {
        eprintln!("usage: perf_suite   (takes no arguments; exit 1 = a ratio is over its limit)");
        return ExitCode::from(2);
    }
    let tier = simd::active_isa();
    let suite = run_suite(tier);
    println!("{}", suite.to_json());
    let (ok, bad) = ratio_gate(&suite, tier);
    ok.iter().for_each(|l| eprintln!("{l}"));
    bad.iter().for_each(|f| eprintln!("REGRESSION: {f}"));
    if !bad.is_empty() {
        return ExitCode::from(1);
    }
    eprintln!("perf_suite: every ratio within its limit");
    ExitCode::SUCCESS
}

fn run_suite(tier: Isa) -> PerfSuite {
    let mut suite = PerfSuite::new("perf_suite");
    if tier != Isa::Scalar {
        suite.push(bench_matmul_tiers());
    }
    suite.push(bench_decode_lanes());
    suite.push(bench_decode_history());
    suite.push(bench_decode_variants());
    suite.push(bench_prefix_cache());
    suite.push(bench_train_backward());
    suite.push(bench_tape_forward());
    suite.push(bench_round_bookkeeping());
    let (fleet_load, promote_swap) = bench_gate_control();
    suite.push(fleet_load);
    suite.push(promote_swap);
    suite.push(bench_kv_storage());
    suite
}

/// The 256³ product on the tier dispatch picks (detection, or `INFUSERKI_ISA`)
/// and pinned to the scalar tier, alternating.
fn bench_matmul_tiers() -> PerfRecord {
    const N: usize = 256;
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let a = init::normal(N, N, 0.5, &mut rng);
    let b = init::normal(N, N, 0.5, &mut rng);
    let mut out = Matrix::zeros(N, N);
    let tiers = [None, Some(Isa::Scalar)];
    let product_s = round_robin_medians(tiers.len(), |col| {
        simd::set_isa(tiers[col]);
        let t0 = Instant::now();
        kernels::matmul_into(&a, &b, &mut out, false);
        t0.elapsed().as_secs_f64()
    });
    simd::set_isa(None);
    std::hint::black_box(out.get(0, 0));
    PerfRecord::new("matmul_tiers")
        .metric("us_dispatched", product_s[0] * 1e6)
        .metric("us_scalar", product_s[1] * 1e6)
}

/// Lane counts `decode_lanes` reports: the odd counts under test and the
/// even neighbours [`ratio_gate`] compares each against.
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
/// a nudged InfuserKI method at the paper's d′ = 10 — the model every
/// decode and serving bench here steps.
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

/// Seconds one decode step of `tokens` takes over a fork of `cache` — every
/// sample forks, so the position never moves.
fn timed_step(
    model: &TransformerLm,
    hook: &dyn LayerHook,
    tokens: &[usize],
    cache: &KvCache,
) -> f64 {
    let mut c = cache.fork();
    let t0 = Instant::now();
    let logits = model.decode_step_batch(tokens, hook, &mut c);
    std::hint::black_box(logits.get(0, 0));
    t0.elapsed().as_secs_f64()
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
        timed_step(&base, &hook, &tokens[..DECODE_LANES[col]], &caches[col])
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
/// the ratio [`RATIOS`] limits (1.72× at PR 15, 1.63× after PR 16) where
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
        timed_step(&base, &hook, &tokens, &caches[col])
    });
    let mut record = PerfRecord::new("decode_history");
    for (&cached, s) in DECODE_HISTORY.iter().zip(&step_s) {
        record = record.metric(format!("us_t{cached}"), s * 1e6);
    }
    record
}

/// One 16-lane decode step at 32 cached tokens per lane on
/// [`hooked_world_model`] (world vocabulary, so the LM head dilutes neither
/// comparison) three ways: under the hook, under the hook on a base whose
/// attention and FFN projections are int8 (`quantize_frozen_base`), and
/// without a hook.
fn bench_decode_variants() -> PerfRecord {
    const LANES: usize = 16;
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    let (base, method) = hooked_world_model(106, &mut rng);
    let mut int8 = base.clone();
    int8.quantize_frozen_base(QuantSpec::default());
    let vocab = base.config().vocab_size;
    let prompts: Vec<Vec<usize>> = (0..LANES)
        .map(|_| (0..32).map(|_| rng.gen_range(2..vocab)).collect())
        .collect();
    let tokens: Vec<usize> = (0..LANES).map(|i| 2 + i).collect();
    let variants: [(&str, &TransformerLm, &dyn LayerHook); 3] = [
        ("us_hooked", &base, method.hook()),
        ("us_hooked_int8", &int8, method.hook()),
        ("us_bare", &base, &NoHook),
    ];
    let caches: Vec<_> = variants
        .iter()
        .map(|&(_, model, hook)| model.prefill_batch(&prompts, hook).0)
        .collect();
    let step_s = round_robin_medians(variants.len(), |col| {
        let (_, model, hook) = variants[col];
        timed_step(model, hook, &tokens, &caches[col])
    });
    let mut record = PerfRecord::new("decode_variants");
    for (&(name, ..), s) in variants.iter().zip(&step_s) {
        record = record.metric(name, s * 1e6);
    }
    record
}

/// A closed loop (4 in flight, 8 requests a sample) of greedy 4-token
/// generations through `spawn_scheduler` on [`hooked_world_model`], on two
/// schedulers of the default [`ServeConfig`]. On the shared side every prompt
/// is one of three 48-token templates — three full KV blocks the radix index
/// can hand over — plus 1–4 tokens of its own; on the unshared side the 48
/// leading tokens are fresh per request, so nothing cached matches. Both
/// sides draw the same own tokens, so the ratio is what adopting a cached
/// template saves over prefilling it.
fn bench_prefix_cache() -> PerfRecord {
    const VOCAB: usize = 106;
    const LOAD: usize = 4;
    const TOTAL: usize = 8;
    let mut rng = ChaCha8Rng::seed_from_u64(19);
    let (base, method) = hooked_world_model(VOCAB, &mut rng);
    let templates: Vec<Vec<usize>> = (0..3)
        .map(|_| (0..48).map(|_| rng.gen_range(2..VOCAB)).collect())
        .collect();
    let cfg = ServeConfig::default();
    let sides = [0, 1].map(|_| {
        spawn_scheduler(base.clone(), method.clone(), cfg.clone()).expect("scheduler spawns")
    });
    let mut rngs = [rng.clone(), rng];
    let mut fresh = ChaCha8Rng::seed_from_u64(20);
    let loop_s = round_robin_medians(sides.len(), |col| {
        let (client, rng) = (&sides[col].0, &mut rngs[col]);
        let mut submit = || {
            let template = &templates[rng.gen_range(0..templates.len())];
            let mut prompt = if col == 0 {
                template.clone()
            } else {
                template.iter().map(|_| fresh.gen_range(2..VOCAB)).collect()
            };
            for _ in 0..rng.gen_range(1..5) {
                prompt.push(rng.gen_range(2..VOCAB));
            }
            client.generate(prompt, 4, None).expect("submit accepted")
        };
        let t0 = Instant::now();
        let mut in_flight: VecDeque<_> = (0..LOAD).map(|_| submit()).collect();
        let mut submitted = LOAD;
        while let Some(h) = in_flight.pop_front() {
            match h.wait().expect("scheduler alive") {
                Outcome::Generated { .. } => {}
                other => panic!("unexpected outcome {other:?}"),
            }
            if submitted < TOTAL {
                in_flight.push_back(submit());
                submitted += 1;
            }
        }
        t0.elapsed().as_secs_f64()
    });
    let [(shared, shared_handle), (_, unshared_handle)] = sides;
    shared_handle.shutdown();
    unshared_handle.shutdown();
    let snap = shared.metrics();
    let eligible = (snap.prefix_hits + snap.prefix_misses).max(1);
    PerfRecord::new("prefix_cache")
        .metric("ms_shared", loop_s[0] * 1e3)
        .metric("ms_unshared", loop_s[1] * 1e3)
        .metric("hit_rate_shared", snap.prefix_hits as f64 / eligible as f64)
}

/// One QA training sample's tape work on [`hooked_world_model`] (world
/// vocabulary): the hooked LM loss of a 20-token prompt and a 2-token
/// answer, `backward` and `grads()`, on a tape masked to the adapters (the
/// QA phase's trainable set, as `train_epoch` builds it) and on a full
/// `Tape::new()` tape; and the masked tape's loss with no backward.
fn bench_train_backward() -> PerfRecord {
    const VOCAB: usize = 106;
    let mut rng = ChaCha8Rng::seed_from_u64(23);
    let (base, mut method) = hooked_world_model(VOCAB, &mut rng);
    let prompt: Vec<usize> = (0..20).map(|_| rng.gen_range(2..VOCAB)).collect();
    let sample = LmSample::from_completion(&prompt, &[7, 9]);
    let mut adapters = Vec::new();
    method.visit_adapters_mut(&mut |p| adapters.push(p.id()));
    let adapters: TrainableSet = adapters.into_iter().collect();
    let hook = method.hook();
    // (trainable set, whether to run the backward)
    let sides = [
        (Some(adapters.clone()), true),
        (None, true),
        (Some(adapters), false),
    ];
    let tape_s = round_robin_medians(sides.len(), |col| {
        let (set, backward) = &sides[col];
        let t0 = Instant::now();
        let mut tape = set.clone().map_or_else(Tape::new, Tape::with_trainable);
        let loss = base.lm_loss(&sample.tokens, &sample.targets, hook, &mut tape);
        if *backward {
            tape.backward(loss);
            std::hint::black_box(tape.grads().len());
        }
        std::hint::black_box(tape.value(loss).get(0, 0));
        drop(tape);
        t0.elapsed().as_secs_f64()
    });
    PerfRecord::new("train_backward")
        .metric("us_masked", tape_s[0] * 1e6)
        .metric("us_full", tape_s[1] * 1e6)
        .metric("us_forward", tape_s[2] * 1e6)
}

/// The hooked forward of one 30-token sequence on [`hooked_world_model`]
/// (world vocabulary) two ways: recorded on a `Tape::new()` tape, as every
/// training sample's forward is, and as the engine's eager prefill into a
/// fresh KV cache. Both compute the same rows bit for bit.
fn bench_tape_forward() -> PerfRecord {
    const VOCAB: usize = 106;
    let mut rng = ChaCha8Rng::seed_from_u64(24);
    let (base, method) = hooked_world_model(VOCAB, &mut rng);
    let tokens: Vec<usize> = (0..30).map(|_| rng.gen_range(2..VOCAB)).collect();
    let hook = method.hook();
    let secs = round_robin_medians(2, |col| {
        let t0 = Instant::now();
        if col == 0 {
            let mut tape = Tape::new();
            let logits = base.forward(&tokens, hook, &mut tape);
            std::hint::black_box(tape.value(logits).get(0, 0));
        } else {
            let (cache, logits) = base.prefill(&tokens, hook);
            std::hint::black_box((logits.get(0, 0), cache));
        }
        t0.elapsed().as_secs_f64()
    });
    PerfRecord::new("tape_forward")
        .metric("us_tape", secs[0] * 1e6)
        .metric("us_prefill", secs[1] * 1e6)
}

/// The `kg_update_watch` round's shape: a 300-triple world topped up to
/// 2 000 live triples, plus `new` more, with facts pairing each entity with
/// a later one under the first relation (so that relation's tail pool is
/// most of the entity set). Returns the store and the `new` facts.
fn round_store(new: usize) -> (TripleStore, Vec<Triple>) {
    let mut store = synth_umls(&UmlsConfig::with_triplets(300, 1));
    let rel = store.relation_ids()[0];
    let n = store.n_entities();
    let mut added = Vec::new();
    'fill: for stride in 1..n {
        for i in 0..n - stride {
            let t = Triple::new(EntityId(i as u32), rel, EntityId((i + stride) as u32));
            if store.insert(t) {
                if store.len() > 2000 {
                    added.push(t);
                }
                if added.len() == new {
                    break 'fill;
                }
            }
        }
    }
    (store, added)
}

/// An update round's bookkeeping beside its detection: the [`McqBank`] for
/// 8 new facts over the 2 000-triple [`round_store`] plus one
/// [`base_model_digest`] of the 12-layer base, and [`detect_unknown`] on the
/// bank's 8 template-0 MCQs under the hook.
fn bench_round_bookkeeping() -> PerfRecord {
    let (store, new) = round_store(8);
    let tokenizer = build_vocabulary(&store);
    let mut rng = ChaCha8Rng::seed_from_u64(29);
    let (base, method) = hooked_world_model(tokenizer.vocab_size(), &mut rng);
    let hook = method.hook();
    let bank = McqBank::build(&store, &new, 5);
    let secs = round_robin_medians(2, |col| {
        let t0 = Instant::now();
        if col == 0 {
            let bank = McqBank::build(&store, &new, 5);
            let digest = base_model_digest(&base).expect("base digests");
            std::hint::black_box((bank.len(), digest));
        } else {
            let det = detect_unknown(&base, &hook, &tokenizer, bank.template(0));
            std::hint::black_box(det.known.len());
        }
        t0.elapsed().as_secs_f64()
    });
    PerfRecord::new("round_bookkeeping")
        .metric("ms_bank_digest", secs[0] * 1e3)
        .metric("ms_detect", secs[1] * 1e3)
}

/// The promote gate's control ops on [`hooked_world_model`]'s base at the
/// world vocabulary, with one bundle whose NR gate has 4 probes, keyed to
/// the candidate's own answers so the gate never refuses.
///
/// `fleet_load`: a load and the promote after it (which waits for the
/// load's gate score), then an untimed rollback, through a 3-replica router
/// and through one scheduler. Each round loads a new version while v0 is
/// active; the fleet scores its gate once, so both sides score it once.
///
/// `promote_swap`: a promote of a version staged while v0 was active, whose
/// verdict is stored, beside the rollback that follows it, on one
/// scheduler: both are one control round trip.
fn bench_gate_control() -> (PerfRecord, PerfRecord) {
    const VOCAB: usize = 106;
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    let (base, method) = hooked_world_model(VOCAB, &mut rng);
    let probes: Vec<GateProbe> = (0..4)
        .map(|_| {
            let prompt: Vec<usize> = (0..12).map(|_| rng.gen_range(2..VOCAB)).collect();
            let options: Vec<Vec<usize>> = (0..4)
                .map(|_| (0..2).map(|_| rng.gen_range(2..VOCAB)).collect())
                .collect();
            let scores = sampler::score_options(&base, method.hook(), &prompt, &options);
            let correct = sampler::argmax(&sampler::option_probabilities(&scores, &[2; 4]));
            GateProbe {
                prompt,
                options,
                correct,
            }
        })
        .collect();
    let path = std::env::temp_dir().join(format!(
        "perf_suite_gate_control_{}.bundle.json",
        std::process::id()
    ));
    KnowledgeBundle::new("gate-control", method, &base, None, probes)
        .expect("bundle builds against its base")
        .save(&path)
        .expect("bundle saves");
    let path = path.to_str().expect("utf-8 temp path").to_string();
    let (fleet, fleet_handle) = spawn_router(
        RouterConfig {
            replicas: 3,
            ..RouterConfig::default()
        },
        |_| (base.clone(), NoHook),
    )
    .expect("router spawns");
    let (single, single_handle) =
        spawn_scheduler(base.clone(), NoHook, ServeConfig::default()).expect("scheduler spawns");
    let planes: [&dyn ControlPlane; 2] = [&fleet, &single];
    let load_secs = round_robin_medians(planes.len(), |col| {
        let t0 = Instant::now();
        let version = planes[col]
            .load_bundle(&path)
            .expect("bundle loads")
            .version;
        planes[col].promote(version).expect("the gate passes");
        let dt = t0.elapsed().as_secs_f64();
        planes[col].rollback().expect("v0 restored");
        dt
    });
    fleet_handle.shutdown();
    let staged = single.load_bundle(&path).expect("bundle loads").version;
    let swap_secs = round_robin_medians(2, |col| {
        let t0 = Instant::now();
        if col == 0 {
            single.promote(staged).expect("the gate passes");
        } else {
            single.rollback().expect("v0 restored");
        }
        t0.elapsed().as_secs_f64()
    });
    single_handle.shutdown();
    let _ = std::fs::remove_file(&path);
    (
        PerfRecord::new("fleet_load")
            .metric("ms_fleet", load_secs[0] * 1e3)
            .metric("ms_single", load_secs[1] * 1e3),
        PerfRecord::new("promote_swap")
            .metric("us_promote", swap_secs[0] * 1e6)
            .metric("us_rollback", swap_secs[1] * 1e6),
    )
}

/// The storage of one KV block at the 12-layer world geometry and the
/// serving block size, per cached row, beside what the same block holds with
/// f32 K/V panels: `2·n_layers·block_rows·d_model` panel elements plus the
/// `n_layers·d_model` f32 gate sums, over `block_rows`.
fn bench_kv_storage() -> PerfRecord {
    let cfg = ModelConfig::default();
    let rows = ServeConfig::default().block_rows;
    let mut pool = BlockPool::new(cfg.n_layers, cfg.d_model, rows);
    let id = pool.alloc();
    let bytes = pool.block(id).bytes();
    pool.release(id);
    let sums = cfg.n_layers * cfg.d_model * 4;
    let f32_panels = 2 * cfg.n_layers * rows * cfg.d_model * 4;
    PerfRecord::new("kv_storage")
        .metric("bytes_per_row", bytes as f64 / rows as f64)
        .metric(
            "f32_bytes_per_row",
            (f32_panels + sums) as f64 / rows as f64,
        )
}

/// One gated ratio: `cost` may be at most `limit` × `beside`, each a
/// `(record, metric)` of the fresh suite.
struct Ratio {
    what: &'static str,
    cost: (&'static str, &'static str),
    beside: (&'static str, &'static str),
    limit: f64,
}

/// The dispatched SIMD tier against the scalar tier on the 256³ product; not
/// checked when the active tier *is* scalar. What "healthy" means depends on
/// what the compiler made of the scalar tier, so the limit does too:
///
/// * a build that targets AVX2 or wider (this repo's `-C target-cpu=native`)
///   autovectorises the scalar tier into the same instructions the tiers
///   write by hand, and the tier must only not lose: AVX-512 tier on an
///   AVX-512 build 0.73–0.81× (its two-strip pass is a register tile the
///   autovectoriser does not build; 0.90–1.05× on one strip), AVX2 tier on
///   an AVX2 build 0.87–0.90×; with detection preferring the AVX2 kernels on
///   AVX-512 hardware 1.26–1.43×. Limit 1.15×.
/// * a baseline build (CI's `RUSTFLAGS=""`, SSE2) is where the tiers have to
///   pay: AVX-512 tier 0.28–0.41×, AVX2 tier 0.49–0.59×; with the matmul
///   strip ignoring the tier 1.00×. Limit 0.78×.
const TIER_RATIO: Ratio = Ratio {
    what: "dispatched SIMD tier vs scalar tier, 256^3 matmul",
    cost: ("matmul_tiers", "us_dispatched"),
    beside: ("matmul_tiers", "us_scalar"),
    limit: if cfg!(target_feature = "avx2") {
        1.15
    } else {
        0.78
    },
};

/// The ratios gated on every run. Each comment gives the reading on a
/// healthy tree (native and baseline builds agree unless it says otherwise),
/// the reading with the property deliberately broken in a scratch copy, and
/// the limit midway between them.
const RATIOS: &[Ratio] = &[
    // A forward costs the same per packed row whatever the width: the
    // paper's adapter width d′ = 10 against a full 16-column strip. Healthy
    // 1.0×; a scalar column edge in the matmul kernels 2–10×.
    Ratio {
        what: "adapter width [16x64].[64x10] vs [16x64].[64x16]",
        cost: ("decode_lanes", "matmul_16x64x10_us"),
        beside: ("decode_lanes", "matmul_16x64x16_us"),
        limit: 2.0,
    },
    // A cached token is cheap beside the rest of the step: at most 0.9 % of
    // the 16-token step each. Healthy on binary16 panels 1.50–1.53× native
    // (three runs, each alternated with a run of the f32-panel parent on the
    // same host, which read 1.46–1.50×: widening a panel per fold call costs
    // a little of the slope); 1.34–1.38× baseline, measured on f32 panels
    // (the reading rises whenever the history-independent part of the step
    // gets cheaper: 1.36× before the AVX-512 strip pair, with the attention
    // core unchanged). Widening a shared history block once per sequence
    // instead of once per call read 1.58–1.59×; the core on per-head fold
    // calls and libm `exp` 1.84–1.88× native, 1.67–1.76× baseline.
    Ratio {
        what: "16-lane step over 80 cached tokens vs over 16",
        cost: ("decode_history", "us_t80"),
        beside: ("decode_history", "us_t16"),
        limit: 1.6,
    },
    // Lanes share a step's weight reads and per-call overhead. Healthy
    // 0.29–0.46×; `decode_step_batch` stepping its lanes one at a time
    // 0.93–1.00×.
    Ratio {
        what: "per-lane cost at 16 lanes vs the 1-lane step",
        cost: ("decode_lanes", "us_per_lane_b16"),
        beside: ("decode_lanes", "us_b1"),
        limit: 0.7,
    },
    // The fused int8 dequant-matmul costs no more than the f32 product.
    // Healthy 0.95–1.01× native, 0.97–1.01× baseline; `Linear::apply`
    // dequantizing the matrix and then running the f32 product 2.65–2.72×
    // native, 2.49–2.55× baseline.
    Ratio {
        what: "hooked 16-lane step, int8 frozen base vs f32",
        cost: ("decode_variants", "us_hooked_int8"),
        beside: ("decode_variants", "us_hooked"),
        limit: 1.75,
    },
    // Eq. 1–6 on the packed batch are a small patch beside the frozen base.
    // Healthy 1.07–1.10× native, 1.05–1.09× baseline; `InfuserKiMethod` off
    // its packed `infer_*_output` overrides, on the trait's
    // scratch-tape-per-sequence defaults, 1.63–1.66× native, 1.57–1.59×
    // baseline.
    Ratio {
        what: "16-lane step under the InfuserKI hook vs without a hook",
        cost: ("decode_variants", "us_hooked"),
        beside: ("decode_variants", "us_bare"),
        limit: 1.33,
    },
    // Adopting a cached template's blocks replaces prefilling them; fresh
    // prompt heads never match, so that side prefills every token. Healthy
    // 0.23–0.28× native; the scheduler's admission lookup never hitting
    // (inserts still paid on both sides) 0.97–0.98× native.
    Ratio {
        what: "closed loop, shared prompt templates vs fresh prompt heads",
        cost: ("prefix_cache", "ms_shared"),
        beside: ("prefix_cache", "ms_unshared"),
        limit: 0.65,
    },
    // A frozen base gets no weight gradients: the tape masked to the
    // trainable set skips every frozen `dW` and the backward below the
    // lowest adapter. Healthy 0.69–0.72× native, 0.69–0.70× baseline (0.74×
    // while the backward's `g·Wᵀ` ran on a scalar dot-product tile); the
    // mask off (every node differentiated, as on `Tape::new()`, which is what
    // a training loop falling back to full tapes costs) 1.00× native, where
    // both sides do the same work.
    Ratio {
        what: "QA sample loss+backward+grads, tape masked to the adapters vs full tape",
        cost: ("train_backward", "us_masked"),
        beside: ("train_backward", "us_full"),
        limit: 0.85,
    },
    // The backward multiplies on the strip kernel: every `g·Wᵀ` and `g·bᵀ`
    // runs as `matmul_into` over the operand's transpose, a weight's built
    // once per value. Healthy 2.09–2.13× native, 2.07–2.10× baseline; the
    // transpose rebuilt on every product 2.58–2.64× native. The reading
    // rose from 1.76–1.78× when the loss alone got cheaper (the fused
    // attention node and shared parameter leaves); before that, the
    // transpose rebuilt read 2.05–2.11× and the scalar 4×4 dot-product tile
    // restored for every `a·bᵀ` 3.05–3.23× native, 2.64–2.96× baseline.
    Ratio {
        what: "QA sample loss+backward+grads vs its loss alone, tape masked to the adapters",
        cost: ("train_backward", "us_masked"),
        beside: ("train_backward", "us_forward"),
        limit: 2.3,
    },
    // A training sample's forward costs what the engine's prefill costs:
    // the tape attends in one all-heads node per layer, on the engine's
    // kernels, and its parameter leaves share the parameters' storage.
    // Healthy 1.12–1.15× native, 1.12–1.14× baseline; per-head
    // attention nodes and a parameter copy per leaf (the parent tree)
    // 1.68–1.72× native, 1.57–1.61× baseline.
    Ratio {
        what: "hooked 30-token forward, tape vs the engine's prefill",
        cost: ("tape_forward", "us_tape"),
        beside: ("tape_forward", "us_prefill"),
        limit: 1.4,
    },
    // An update round's bookkeeping is small beside its detection: the bank
    // ranks each triple's distractors once, computing each edit distance
    // once, and the base digest hashes weight bits. Healthy 1.30–1.46×
    // native, 1.09–1.11× baseline; the distractor sort calling
    // `levenshtein` inside its comparator 3.70–4.36× native, 2.76–3.14×
    // baseline; the digest hashing the base's JSON text 11.9× native; both
    // 12.7× native.
    // The cost side still times one base digest, which a round no longer
    // pays: the update pipeline hashes its base on its first round and
    // keeps the digest. The limit and readings are from when every round
    // hashed it.
    Ratio {
        what: "round bookkeeping (8-fact bank + base digest) vs detection on its 8 MCQs",
        cost: ("round_bookkeeping", "ms_bank_digest"),
        beside: ("round_bookkeeping", "ms_detect"),
        limit: 2.5,
    },
    // A fleet load scores the NR gate once, for every replica, on a worker
    // thread; the promote after it waits for that score and swaps every
    // replica on its verdict. Healthy 1.02–1.05× native; every replica
    // scoring its own gate at the load (three scores on the host's cores)
    // 1.81× native. (The ratio it replaces, a fleet promote vs a single
    // one, read 1.01–1.04× healthy and 3.00–3.72× with every replica
    // scoring at the promote; once promotes stopped scoring it compared
    // two round trips.)
    Ratio {
        what: "3-replica fleet load+promote vs single-scheduler load+promote",
        cost: ("fleet_load", "ms_fleet"),
        beside: ("fleet_load", "ms_single"),
        limit: 1.4,
    },
    // A promote of a staged bundle is a swap: its gate verdict was scored
    // when it was staged, so it costs the control round trip a rollback
    // costs. Healthy 1.00–1.02× native (10.7–13.2 µs each); the promote
    // scoring the gate on the scheduler thread, as before verdicts were
    // stored, 167× native (5.9 ms vs 35 µs).
    Ratio {
        what: "promote of a staged bundle vs rollback",
        cost: ("promote_swap", "us_promote"),
        beside: ("promote_swap", "us_rollback"),
        limit: 3.0,
    },
    // A cached row costs half the bytes: K and V panels are binary16, the
    // gate sums f32 (one row of them per layer per block). Counted, not
    // timed: healthy 0.52× (17/33 at 16-row blocks); f32 panels 1.00×.
    Ratio {
        what: "pooled bytes per cached row vs an f32 row",
        cost: ("kv_storage", "bytes_per_row"),
        beside: ("kv_storage", "f32_bytes_per_row"),
        limit: 0.75,
    },
];

/// Checks every ratio of `fresh` and returns (status lines, failures): the
/// [`TIER_RATIO`] unless `tier` is scalar, the [`RATIOS`], and the row rule —
/// an odd lane count costs at most 1.25× the mean of its even neighbours (a
/// one-lane step has one; a scalar row edge reads 2× and more). A record or
/// metric the run did not produce is a failure, not a pass.
fn ratio_gate(fresh: &PerfSuite, tier: Isa) -> (Vec<String>, Vec<String>) {
    let get = |bench: &str, metric: &str| {
        fresh
            .get(bench)
            .and_then(|r| r.get(metric))
            .ok_or_else(|| format!("fresh run is missing {bench}.{metric}"))
    };
    let mut ok = Vec::new();
    let mut bad = Vec::new();
    let tiered = if tier == Isa::Scalar {
        ok.push(format!(
            "{}: skipped, the active tier is scalar",
            TIER_RATIO.what
        ));
        None
    } else {
        Some(&TIER_RATIO)
    };
    let mut check = |what: &str, sides: Result<(f64, f64), String>, limit: f64| match sides {
        Ok((cost, beside)) => {
            let line = format!(
                "{what}: {cost:.1} vs {beside:.1}, {:.2}x (limit {limit}x)",
                cost / beside
            );
            if cost > limit * beside {
                bad.push(line);
            } else {
                ok.push(line);
            }
        }
        Err(missing) => bad.push(format!("{what}: {missing}")),
    };
    for r in tiered.into_iter().chain(RATIOS) {
        let sides = get(r.cost.0, r.cost.1).and_then(|c| Ok((c, get(r.beside.0, r.beside.1)?)));
        check(
            &format!("{} ({}/{})", r.what, r.cost.1, r.beside.1),
            sides,
            r.limit,
        );
    }
    let us = |n: usize| get("decode_lanes", &format!("us_b{n}"));
    for &n in DECODE_LANES.iter().filter(|&&n| n % 2 == 1) {
        let evens: Result<Vec<f64>, String> = [n - 1, n + 1]
            .into_iter()
            .filter(|m| DECODE_LANES.contains(m))
            .map(us)
            .collect();
        let sides = us(n).and_then(|odd| {
            let evens = evens?;
            Ok((odd, evens.iter().sum::<f64>() / evens.len() as f64))
        });
        check(
            &format!("{n} lanes vs its even neighbours (us)"),
            sides,
            1.25,
        );
    }
    (ok, bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A suite shaped like a healthy run: step cost linear in lanes, both
    /// widths equal, every gated ratio well inside its limit on any build.
    fn healthy() -> PerfSuite {
        let mut lanes = PerfRecord::new("decode_lanes");
        for &n in DECODE_LANES {
            let us = 150.0 + 50.0 * n as f64;
            lanes = lanes
                .metric(format!("us_b{n}"), us)
                .metric(format!("us_per_lane_b{n}"), us / n as f64);
        }
        let mut suite = PerfSuite::new("perf_suite");
        suite.push(
            PerfRecord::new("matmul_tiers")
                .metric("us_dispatched", 200.0)
                .metric("us_scalar", 500.0),
        );
        suite.push(
            lanes
                .metric("matmul_16x64x10_us", 0.7)
                .metric("matmul_16x64x16_us", 0.7),
        );
        suite.push(
            PerfRecord::new("decode_history")
                .metric("us_t16", 700.0)
                .metric("us_t80", 950.0),
        );
        suite.push(
            PerfRecord::new("decode_variants")
                .metric("us_hooked", 1200.0)
                .metric("us_hooked_int8", 1100.0)
                .metric("us_bare", 1000.0),
        );
        suite.push(
            PerfRecord::new("prefix_cache")
                .metric("ms_shared", 3.0)
                .metric("ms_unshared", 10.0),
        );
        suite.push(
            PerfRecord::new("train_backward")
                .metric("us_masked", 7000.0)
                .metric("us_full", 10000.0)
                .metric("us_forward", 3500.0),
        );
        suite.push(
            PerfRecord::new("tape_forward")
                .metric("us_tape", 1100.0)
                .metric("us_prefill", 1000.0),
        );
        suite.push(
            PerfRecord::new("round_bookkeeping")
                .metric("ms_bank_digest", 5.0)
                .metric("ms_detect", 20.0),
        );
        suite.push(
            PerfRecord::new("fleet_load")
                .metric("ms_fleet", 6.0)
                .metric("ms_single", 5.0),
        );
        suite.push(
            PerfRecord::new("promote_swap")
                .metric("us_promote", 110.0)
                .metric("us_rollback", 100.0),
        );
        suite.push(
            PerfRecord::new("kv_storage")
                .metric("bytes_per_row", 3264.0)
                .metric("f32_bytes_per_row", 6336.0),
        );
        suite
    }

    /// `suite` with `bench.metric` scaled by `factor`, or dropped if `None`.
    fn with(mut suite: PerfSuite, bench: &str, metric: &str, factor: Option<f64>) -> PerfSuite {
        let record = suite
            .records
            .iter_mut()
            .find(|r| r.name == bench)
            .expect("record exists");
        let at = record
            .metrics
            .iter()
            .position(|(m, _)| m == metric)
            .expect("metric exists");
        match factor {
            Some(f) => record.metrics[at].1 *= f,
            None => {
                record.metrics.remove(at);
            }
        }
        suite
    }

    #[test]
    fn healthy_records_pass() {
        let (ok, bad) = ratio_gate(&healthy(), Isa::Avx2);
        assert!(bad.is_empty(), "{bad:?}");
        // The tier ratio, the table ratios and one line per odd lane count.
        let odd = DECODE_LANES.iter().filter(|&&n| n % 2 == 1).count();
        assert_eq!(ok.len(), 1 + RATIOS.len() + odd, "{ok:?}");
    }

    #[test]
    fn each_ratio_over_its_limit_fails_by_name() {
        // (record, the cost metric to inflate, by how much, the failure names)
        let cases = [
            ("matmul_tiers", "us_dispatched", 4.0, "SIMD tier"),
            ("decode_lanes", "matmul_16x64x10_us", 2.5, "adapter width"),
            ("decode_history", "us_t80", 1.2, "80 cached tokens"),
            ("decode_lanes", "us_per_lane_b16", 3.0, "per-lane cost"),
            ("decode_variants", "us_hooked_int8", 2.0, "int8"),
            ("decode_variants", "us_bare", 0.7, "hook vs without"),
            ("prefix_cache", "ms_shared", 3.0, "shared prompt templates"),
            ("train_backward", "us_full", 0.8, "vs full tape"),
            ("train_backward", "us_forward", 0.5, "vs its loss alone"),
            (
                "tape_forward",
                "us_tape",
                1.5,
                "tape vs the engine's prefill",
            ),
            (
                "round_bookkeeping",
                "ms_bank_digest",
                20.0,
                "round bookkeeping",
            ),
            ("fleet_load", "ms_fleet", 3.0, "fleet load+promote"),
            (
                "promote_swap",
                "us_promote",
                40.0,
                "promote of a staged bundle",
            ),
            // f32 panels: every row back at the f32 row's bytes.
            (
                "kv_storage",
                "bytes_per_row",
                6336.0 / 3264.0,
                "bytes per cached row",
            ),
            (
                "decode_lanes",
                "us_b7",
                1.4,
                "7 lanes vs its even neighbours",
            ),
        ];
        for (bench, metric, factor, names) in cases {
            let (_, bad) = ratio_gate(&with(healthy(), bench, metric, Some(factor)), Isa::Avx2);
            assert_eq!(bad.len(), 1, "{bench}.{metric}: {bad:?}");
            assert!(bad[0].contains(names), "{bench}.{metric}: {bad:?}");
        }
    }

    #[test]
    fn a_missing_record_or_metric_fails_without_panicking() {
        let (_, bad) = ratio_gate(&with(healthy(), "decode_lanes", "us_b16", None), Isa::Avx2);
        assert_eq!(bad.len(), 2, "15 and 17 lanes lose a neighbour: {bad:?}");
        assert!(bad
            .iter()
            .all(|b| b.contains("missing decode_lanes.us_b16")));

        let mut suite = healthy();
        suite.records.retain(|r| r.name != "prefix_cache");
        let (_, bad) = ratio_gate(&suite, Isa::Avx2);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].contains("missing prefix_cache.ms_shared"), "{bad:?}");

        let (_, bad) = ratio_gate(&PerfSuite::new("empty"), Isa::Avx512);
        let odd = DECODE_LANES.iter().filter(|&&n| n % 2 == 1).count();
        assert_eq!(bad.len(), 1 + RATIOS.len() + odd, "{bad:?}");
    }

    #[test]
    fn the_tier_ratio_is_skipped_on_the_scalar_tier() {
        // What `run_suite` produces there: no `matmul_tiers` record at all.
        let mut suite = healthy();
        suite.records.retain(|r| r.name != "matmul_tiers");
        let (ok, bad) = ratio_gate(&suite, Isa::Scalar);
        assert!(bad.is_empty(), "{bad:?}");
        assert!(ok[0].contains("skipped"), "{ok:?}");
        // On a vector tier the same suite is a failure.
        let (_, bad) = ratio_gate(&suite, Isa::Avx512);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].contains("missing matmul_tiers"), "{bad:?}");
    }
}
