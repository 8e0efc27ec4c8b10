//! Differential suite for the continuous-batching serving subsystem: under
//! randomized arrival, priority, and cancellation schedules — with chunked
//! prefill and mid-stream admissions/retirements scrambling the batch
//! composition every step — every completed response must equal running
//! that request *alone* on the single-sequence sampler path. Bitwise with
//! serial kernels; MCQ scores within 1e-5 with parallel row-banded kernels
//! (the same convention as `tests/batch_differential.rs`).
//!
//! Hooks with a per-sequence gate statistic (InfuserKI), per-layer cache prefixes
//! (prefix tuning, which makes the KV-row cost accounting nontrivial) and
//! per-row ε-ball deferral (GRACE) are exercised alongside the bare model.
//!
//! The kernel thread override is process-global; this file serializes every
//! test behind one lock.

use std::collections::HashMap;
use std::sync::mpsc::{Receiver, TryRecvError};
use std::sync::Mutex;

use infuserki::baselines::grace::{Grace, GraceConfig};
use infuserki::baselines::prefix::{PrefixConfig, PrefixTuning};
use infuserki::core::{InfuserKiConfig, InfuserKiMethod};
use infuserki::nn::{sampler, LayerHook, LmSample, ModelConfig, NoHook, TransformerLm};
use infuserki::serve::{
    CancelToken, GenerateSpec, McqSpec, MetricsSnapshot, Outcome, Request, RequestKind, Response,
    Scheduler, ServeConfig,
};
use infuserki::tensor::{kernels, Tape};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const VOCAB: usize = 40;

static THREADS: Mutex<()> = Mutex::new(());

/// Extra randomized seeds for deep-fuzz runs: `INFUSERKI_DIFF_SEEDS=N`
/// appends N derived seeds to the pinned schedules (default 0 keeps the
/// tier-1 runtime flat; the weekly deep-fuzz workflow raises it ~10×).
fn extra_seeds(base: u64) -> Vec<u64> {
    let n: u64 = std::env::var("INFUSERKI_DIFF_SEEDS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0);
    (0..n)
        .map(|i| base.wrapping_add(1 + i).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect()
}

fn base() -> TransformerLm {
    let mut rng = ChaCha8Rng::seed_from_u64(21);
    TransformerLm::new(ModelConfig::tiny(VOCAB), &mut rng)
}

/// Deterministic nonzero nudge so zero-initialized up-projections don't make
/// the hook a trivial identity.
fn nudge(p: &mut infuserki::tensor::Param) {
    for (i, w) in p.data_mut().data_mut().iter_mut().enumerate() {
        *w += 0.01 * ((i % 7) as f32 - 3.0);
    }
}

fn infuserki_hook(b: &TransformerLm) -> InfuserKiMethod {
    let mut c = InfuserKiConfig::for_model(b.n_layers());
    c.bottleneck = 4;
    c.infuser_hidden = 4;
    c.rc_dim = 8;
    let mut m = InfuserKiMethod::new(c, b, 5);
    m.visit_adapters_mut(&mut nudge);
    m
}

fn prefix_hook(b: &TransformerLm) -> PrefixTuning {
    PrefixTuning::new(PrefixConfig::default(), b)
}

/// GRACE with three edits and a radius wide enough that some rows of the
/// random and template prompts fire while others defer.
fn grace_hook(b: &TransformerLm) -> Grace {
    let cfg = GraceConfig {
        init_radius: 5.0,
        ..GraceConfig::for_model(b.n_layers())
    };
    let mut g = Grace::new(cfg, b);
    g.apply_edits(
        b,
        &[
            LmSample::from_completion(&[3, 10, 17], &[24, 31]),
            LmSample::from_completion(&[5, 12], &[19]),
            LmSample::from_completion(&[7, 14, 21, 28], &[35]),
        ],
    );
    g
}

/// One randomized request mix: mostly generates, a third MCQs.
fn random_kind(rng: &mut ChaCha8Rng) -> RequestKind {
    if rng.gen_range(0..3) < 2 {
        let plen = rng.gen_range(1..9);
        let prompt: Vec<usize> = (0..plen).map(|_| rng.gen_range(0..VOCAB)).collect();
        let eos = if rng.gen_range(0..3) == 0 {
            Some(0)
        } else {
            None
        };
        RequestKind::Generate(GenerateSpec::greedy(prompt, rng.gen_range(1..9), eos))
    } else {
        let plen = rng.gen_range(1..7);
        let prompt: Vec<usize> = (0..plen).map(|_| rng.gen_range(0..VOCAB)).collect();
        let n_opts = rng.gen_range(2..5);
        let options: Vec<Vec<usize>> = (0..n_opts)
            .map(|_| {
                let olen = rng.gen_range(1..5);
                (0..olen).map(|_| rng.gen_range(0..VOCAB)).collect()
            })
            .collect();
        RequestKind::Mcq(McqSpec { prompt, options })
    }
}

struct ScheduleResult {
    kinds: Vec<RequestKind>,
    outcomes: Vec<Outcome>,
    cancelled_ids: Vec<usize>,
    snapshot: MetricsSnapshot,
}

/// Drives one randomized arrival/cancellation schedule to completion.
///
/// Requests trickle in over many steps (so the batch composition keeps
/// changing), carry random priorities, and a few get cancelled at
/// predetermined steps — some while queued, some mid-flight.
fn run_schedule<H: LayerHook + Clone + Send + 'static>(
    model: &TransformerLm,
    hook: &H,
    seed: u64,
    cfg: ServeConfig,
    n_requests: usize,
) -> ScheduleResult {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let kinds: Vec<RequestKind> = (0..n_requests).map(|_| random_kind(&mut rng)).collect();
    run_schedule_with(model, hook, rng, cfg, kinds)
}

/// Drives a pre-generated request mix through the randomized
/// arrival/priority/cancellation machinery.
fn run_schedule_with<H: LayerHook + Clone + Send + 'static>(
    model: &TransformerLm,
    hook: &H,
    mut rng: ChaCha8Rng,
    cfg: ServeConfig,
    kinds: Vec<RequestKind>,
) -> ScheduleResult {
    let n_requests = kinds.len();
    // Each request arrives at a random step; a few are cancelled a couple
    // of steps after arrival.
    let arrivals: Vec<usize> = (0..n_requests).map(|_| rng.gen_range(0..12)).collect();
    let mut cancels: HashMap<usize, usize> = HashMap::new();
    let mut cancelled_ids = Vec::new();
    for (id, &arrival) in arrivals.iter().enumerate() {
        if rng.gen_range(0..5) == 0 {
            cancels.insert(id, arrival + rng.gen_range(1usize..4));
            cancelled_ids.push(id);
        }
    }
    let priorities: Vec<i32> = (0..n_requests).map(|_| rng.gen_range(-2..3)).collect();

    let mut sched = Scheduler::new(model, hook.clone(), cfg).unwrap();
    let mut rxs: Vec<Option<Receiver<Response>>> = (0..n_requests).map(|_| None).collect();
    let mut tokens: Vec<Option<CancelToken>> = (0..n_requests).map(|_| None).collect();
    let last_arrival = arrivals.iter().copied().max().unwrap();
    let last_cancel = cancels.values().copied().max().unwrap_or(0);
    for step in 0..=last_arrival.max(last_cancel) {
        for (id, &arrival) in arrivals.iter().enumerate() {
            if arrival == step {
                let (tx, rx) = std::sync::mpsc::channel();
                let req =
                    Request::new(id as u64, kinds[id].clone(), tx).with_priority(priorities[id]);
                tokens[id] = Some(req.cancel.clone());
                rxs[id] = Some(rx);
                sched.enqueue(req);
            }
            if cancels.get(&id) == Some(&step) {
                if let Some(t) = &tokens[id] {
                    t.cancel();
                }
            }
        }
        sched.step();
    }
    sched.run_until_idle();
    let snapshot = sched.snapshot();

    let outcomes: Vec<Outcome> = rxs
        .into_iter()
        .enumerate()
        .map(
            |(id, rx)| match rx.expect("every request arrived").try_recv() {
                Ok(resp) => {
                    assert_eq!(resp.id, id as u64);
                    resp.outcome
                }
                Err(TryRecvError::Empty) => panic!("request {id} never got a response"),
                Err(TryRecvError::Disconnected) => panic!("request {id} channel died"),
            },
        )
        .collect();
    ScheduleResult {
        kinds,
        outcomes,
        cancelled_ids,
        snapshot,
    }
}

/// A few shared prompt templates plus a randomized schedule: most requests
/// start with a template's tokens (sometimes truncated, sometimes with a
/// random suffix), so concurrent requests keep hitting the radix prefix
/// cache mid-flight while arrivals, priorities and cancellations churn the
/// batch exactly as in `run_schedule`.
fn run_template_schedule<H: LayerHook + Clone + Send + 'static>(
    model: &TransformerLm,
    hook: &H,
    seed: u64,
    cfg: ServeConfig,
    n_requests: usize,
) -> ScheduleResult {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let templates: Vec<Vec<usize>> = (0..3)
        .map(|_| {
            let len = rng.gen_range(9..14);
            (0..len).map(|_| rng.gen_range(0..VOCAB)).collect()
        })
        .collect();
    let kinds: Vec<RequestKind> = (0..n_requests)
        .map(|_| {
            let t = &templates[rng.gen_range(0..templates.len())];
            let keep = rng.gen_range(t.len() - 3..=t.len());
            let mut prompt: Vec<usize> = t[..keep].to_vec();
            for _ in 0..rng.gen_range(0..4) {
                prompt.push(rng.gen_range(0..VOCAB));
            }
            if rng.gen_range(0..3) < 2 {
                RequestKind::Generate(GenerateSpec::greedy(prompt, rng.gen_range(1..9), None))
            } else {
                let options: Vec<Vec<usize>> = (0..rng.gen_range(2..5))
                    .map(|_| {
                        let olen = rng.gen_range(1..5);
                        (0..olen).map(|_| rng.gen_range(0..VOCAB)).collect()
                    })
                    .collect();
                RequestKind::Mcq(McqSpec { prompt, options })
            }
        })
        .collect();
    run_schedule_with(model, hook, rng, cfg, kinds)
}

/// Every completed outcome must match the single-request sampler path;
/// cancelled requests may only be Cancelled (or have legitimately finished
/// before their cancel step fired).
fn verify(
    model: &TransformerLm,
    hook: &dyn LayerHook,
    result: &ScheduleResult,
    bitwise: bool,
    name: &str,
) {
    let mut completed = 0usize;
    for (id, (kind, outcome)) in result.kinds.iter().zip(&result.outcomes).enumerate() {
        match outcome {
            Outcome::Generated { tokens } => {
                completed += 1;
                let g = match kind {
                    RequestKind::Generate(g) => g,
                    _ => panic!("{name}: request {id} kind/outcome mismatch"),
                };
                let want = sampler::greedy_decode(model, hook, &g.prompt, g.max_new, g.eos);
                assert_eq!(*tokens, want, "{name}: request {id} token divergence");
            }
            Outcome::McqScored { scores, .. } => {
                completed += 1;
                let m = match kind {
                    RequestKind::Mcq(m) => m,
                    _ => panic!("{name}: request {id} kind/outcome mismatch"),
                };
                let want = sampler::score_options(model, hook, &m.prompt, &m.options);
                for (oi, (x, y)) in scores.iter().zip(&want).enumerate() {
                    if bitwise {
                        assert!(
                            x.to_bits() == y.to_bits(),
                            "{name}: request {id} option {oi}: {x} vs {y} (bitwise)"
                        );
                    } else {
                        assert!(
                            (x - y).abs() <= 1e-5,
                            "{name}: request {id} option {oi}: {x} vs {y} (1e-5)"
                        );
                    }
                }
            }
            Outcome::Cancelled => {
                assert!(
                    result.cancelled_ids.contains(&id),
                    "{name}: request {id} cancelled without a cancel schedule"
                );
            }
            other => panic!("{name}: request {id} unexpected outcome {other:?}"),
        }
    }
    assert!(
        completed >= result.kinds.len() / 2,
        "{name}: only {completed}/{} requests completed",
        result.kinds.len()
    );
}

/// How many of the schedule's prompts `hook` changes anywhere: a bitwise
/// match under a hook that never fires would prove nothing.
fn prompts_changed(model: &TransformerLm, hook: &dyn LayerHook, kinds: &[RequestKind]) -> usize {
    kinds
        .iter()
        .filter(|kind| {
            let prompt = match kind {
                RequestKind::Generate(g) => &g.prompt,
                RequestKind::Mcq(m) => &m.prompt,
            };
            let (mut t1, mut t2) = (Tape::new(), Tape::new());
            let plain = model.forward(prompt, &NoHook, &mut t1);
            let hooked = model.forward(prompt, hook, &mut t2);
            t1.value(plain) != t2.value(hooked)
        })
        .count()
}

/// Small-knob configs that force chunked prefill, slot contention and
/// (for the tight-budget variant) head-of-line budget waits.
fn tight_cfg(prefill_chunk: usize, max_batch: usize, kv_budget_rows: usize) -> ServeConfig {
    ServeConfig {
        prefill_chunk,
        max_batch,
        kv_budget_rows,
        // Small paged-KV blocks so whole-block reservation rounding keeps
        // even the 48-row schedule admissible, and short shared prefixes
        // are already indexable.
        block_rows: 4,
        queue_capacity: 64,
        threads: None,
    }
}

#[test]
fn scheduler_is_bitwise_under_randomized_schedules() {
    let _g = THREADS.lock().unwrap();
    kernels::set_num_threads(1);
    let b = base();
    // Three seeds, three batch shapes — one with a budget tight enough that
    // admissions must wait for retirements.
    for (seed, cfg) in [
        (101u64, tight_cfg(2, 3, 256)),
        (202, tight_cfg(1, 2, 48)),
        (303, tight_cfg(5, 4, 256)),
    ] {
        let result = run_schedule(&b, &infuserki::nn::NoHook, seed, cfg, 12);
        verify(&b, &infuserki::nn::NoHook, &result, true, "nohook");
    }
    // Deep-fuzz extension: each derived seed also derives a batch shape, so
    // a wide sweep covers chunk/batch/budget combinations the pinned trio
    // cannot.
    for seed in extra_seeds(9000) {
        let cfg = tight_cfg(
            1 + (seed % 5) as usize,
            2 + (seed % 3) as usize,
            if seed % 2 == 0 { 256 } else { 96 },
        );
        let result = run_schedule(&b, &infuserki::nn::NoHook, seed, cfg, 12);
        verify(&b, &infuserki::nn::NoHook, &result, true, "nohook-fuzz");
    }
    kernels::set_num_threads(0);
}

#[test]
fn scheduler_is_bitwise_with_infuserki_hook_state() {
    let _g = THREADS.lock().unwrap();
    kernels::set_num_threads(1);
    let b = base();
    let m = infuserki_hook(&b);
    let hook = m.hook();
    // Per-sequence adapter carry + gate statistics: any cross-lane leak in
    // the continuous batch shows up as a bitwise divergence here.
    let result = run_schedule(&b, &m, 404, tight_cfg(3, 3, 256), 10);
    verify(&b, &hook, &result, true, "infuserki");
    kernels::set_num_threads(0);
}

#[test]
fn scheduler_is_bitwise_with_prefix_rows_in_the_budget() {
    let _g = THREADS.lock().unwrap();
    kernels::set_num_threads(1);
    let b = base();
    let m = prefix_hook(&b);
    // Prefix tuning prepends 8 K/V rows to every cached sequence, so the
    // admission cost accounting (and the tight budget) must include them.
    let result = run_schedule(&b, &m, 505, tight_cfg(2, 3, 160), 10);
    verify(&b, &m, &result, true, "prefix");
    kernels::set_num_threads(0);
}

#[test]
fn shared_prefix_schedules_are_bitwise_and_hit_the_cache() {
    let _g = THREADS.lock().unwrap();
    kernels::set_num_threads(1);
    let b = base();
    // Many concurrent requests cut from three prompt templates: later
    // arrivals adopt the cached blocks of earlier ones and skip that
    // prefill, yet every response must stay bitwise equal to running the
    // request alone — the cached K/V rows ARE the isolated rows.
    for (seed, cfg) in [(707u64, tight_cfg(4, 4, 256)), (808, tight_cfg(3, 3, 128))] {
        let result = run_template_schedule(&b, &infuserki::nn::NoHook, seed, cfg, 14);
        verify(&b, &infuserki::nn::NoHook, &result, true, "shared-nohook");
        assert!(
            result.snapshot.prefix_hits > 0,
            "seed {seed}: template schedule never hit the prefix cache"
        );
        assert!(
            result.snapshot.prefix_hit_tokens >= result.snapshot.prefix_hits,
            "every hit skips at least one whole block of prompt tokens"
        );
    }
    kernels::set_num_threads(0);
}

#[test]
fn shared_prefix_schedules_are_bitwise_with_infuserki_state() {
    let _g = THREADS.lock().unwrap();
    kernels::set_num_threads(1);
    let b = base();
    let m = infuserki_hook(&b);
    let hook = m.hook();
    // The infuser gate sums live in the adopted blocks and are a pure
    // function of the token prefix, so adopters resume mid-prompt without
    // any divergence.
    let result = run_template_schedule(&b, &m, 909, tight_cfg(3, 4, 256), 12);
    verify(&b, &hook, &result, true, "shared-infuserki");
    assert!(
        result.snapshot.prefix_hits > 0,
        "stateful template schedule never hit the prefix cache"
    );
    kernels::set_num_threads(0);
}

#[test]
fn scheduler_is_bitwise_with_grace_edits() {
    let _g = THREADS.lock().unwrap();
    kernels::set_num_threads(1);
    let b = base();
    let g = std::sync::Arc::new(grace_hook(&b));
    // GRACE's per-row ε-ball lookup is row-local, so it runs through the
    // continuous batch and the prefix cache as written.
    for seed in std::iter::once(1111u64).chain(extra_seeds(1111)) {
        let result = run_schedule(&b, &g, seed, tight_cfg(3, 3, 256), 10);
        verify(&b, &g, &result, true, "grace");
        assert!(
            prompts_changed(&b, &g, &result.kinds) > 0,
            "seed {seed}: grace never fired"
        );
        let result = run_template_schedule(&b, &g, seed, tight_cfg(3, 4, 256), 12);
        verify(&b, &g, &result, true, "shared-grace");
        assert!(
            prompts_changed(&b, &g, &result.kinds) > 0,
            "seed {seed}: grace never fired"
        );
        assert!(
            result.snapshot.prefix_hits > 0,
            "seed {seed}: grace template schedule never hit the prefix cache"
        );
    }
    kernels::set_num_threads(0);
}

#[test]
fn shared_prefix_scores_close_with_parallel_kernels() {
    let _g = THREADS.lock().unwrap();
    kernels::set_num_threads(4);
    let b = base();
    let result = run_template_schedule(&b, &infuserki::nn::NoHook, 1010, tight_cfg(4, 4, 256), 12);
    for (id, (kind, outcome)) in result.kinds.iter().zip(&result.outcomes).enumerate() {
        if let (RequestKind::Mcq(m), Outcome::McqScored { scores, .. }) = (kind, outcome) {
            let want = sampler::score_options(&b, &infuserki::nn::NoHook, &m.prompt, &m.options);
            for (oi, (x, y)) in scores.iter().zip(&want).enumerate() {
                assert!(
                    (x - y).abs() <= 1e-5,
                    "request {id} option {oi}: {x} vs {y} (threads 4)"
                );
            }
        }
    }
    assert!(result.snapshot.prefix_hits > 0);
    kernels::set_num_threads(0);
}

#[test]
fn scheduler_scores_close_with_parallel_kernels() {
    let _g = THREADS.lock().unwrap();
    kernels::set_num_threads(4);
    let b = base();
    let result = run_schedule(&b, &infuserki::nn::NoHook, 606, tight_cfg(2, 3, 256), 10);
    // At four threads only the MCQ score comparison is meaningful (the
    // row-banded kernels reassociate sums); greedy token streams are
    // checked in the serial tests above.
    for (id, (kind, outcome)) in result.kinds.iter().zip(&result.outcomes).enumerate() {
        if let (RequestKind::Mcq(m), Outcome::McqScored { scores, .. }) = (kind, outcome) {
            let want = sampler::score_options(&b, &infuserki::nn::NoHook, &m.prompt, &m.options);
            for (oi, (x, y)) in scores.iter().zip(&want).enumerate() {
                assert!(
                    (x - y).abs() <= 1e-5,
                    "request {id} option {oi}: {x} vs {y} (threads 4)"
                );
            }
        }
    }
    kernels::set_num_threads(0);
}
