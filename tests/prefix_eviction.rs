//! Eviction-under-pressure regression for the radix prefix cache: with a KV
//! budget far too small to keep every template's blocks indexed, admission
//! must reclaim cold prefixes via LRU eviction instead of deadlocking behind
//! them, and a prompt whose cached prefix was evicted must simply re-prefill
//! — bitwise identical to running it alone (serial kernels).
//!
//! The kernel thread override is process-global; tests serialize behind one
//! lock.

use std::sync::mpsc::Receiver;
use std::sync::Mutex;

use infuserki::nn::{sampler, ModelConfig, NoHook, TransformerLm};
use infuserki::serve::{
    GenerateSpec, McqSpec, Outcome, Request, RequestKind, Response, Scheduler, ServeConfig,
};
use infuserki::tensor::kernels;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const VOCAB: usize = 40;

static THREADS: Mutex<()> = Mutex::new(());

fn base() -> TransformerLm {
    let mut rng = ChaCha8Rng::seed_from_u64(33);
    TransformerLm::new(ModelConfig::tiny(VOCAB), &mut rng)
}

/// A budget that fits only a couple of in-flight requests plus a fraction of
/// the index the templates would like to keep: admission pressure must evict.
fn pressure_cfg() -> ServeConfig {
    ServeConfig {
        prefill_chunk: 3,
        max_batch: 2,
        kv_budget_rows: 48,
        block_rows: 4,
        queue_capacity: 64,
        threads: None,
    }
}

fn template(rng: &mut ChaCha8Rng, len: usize) -> Vec<usize> {
    (0..len).map(|_| rng.gen_range(0..VOCAB)).collect()
}

fn submit(sched: &mut Scheduler<'_>, id: u64, kind: RequestKind) -> Receiver<Response> {
    let (tx, rx) = std::sync::mpsc::channel();
    sched.enqueue(Request::new(id, kind, tx));
    rx
}

/// Every outcome must be a completion matching the isolated sampler path,
/// bitwise (callers hold the thread count at 1).
fn verify_bitwise(model: &TransformerLm, kinds: &[RequestKind], rxs: Vec<Receiver<Response>>) {
    for (id, (kind, rx)) in kinds.iter().zip(rxs).enumerate() {
        let outcome = rx
            .try_recv()
            .unwrap_or_else(|_| panic!("request {id} never finished"))
            .outcome;
        match (kind, outcome) {
            (RequestKind::Generate(g), Outcome::Generated { tokens }) => {
                let want = sampler::greedy_decode(model, &NoHook, &g.prompt, g.max_new, g.eos);
                assert_eq!(tokens, want, "request {id}: token divergence");
            }
            (RequestKind::Mcq(m), Outcome::McqScored { scores, .. }) => {
                let want = sampler::score_options(model, &NoHook, &m.prompt, &m.options);
                for (oi, (x, y)) in scores.iter().zip(&want).enumerate() {
                    assert!(
                        x.to_bits() == y.to_bits(),
                        "request {id} option {oi}: {x} vs {y} (bitwise)"
                    );
                }
            }
            (_, other) => panic!("request {id}: unexpected outcome {other:?}"),
        }
    }
}

#[test]
fn pressure_evicts_cold_prefixes_without_deadlock() {
    let _g = THREADS.lock().unwrap();
    kernels::set_num_threads(1);
    let b = base();
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    // One hot template most requests share, six cold one-shot templates.
    // Each 12-token template wants 3 index blocks (12 rows); all seven
    // together want 84 rows against a 48-row budget, so admission *must*
    // evict — and the hot path, being recently used, should survive while
    // the cold ones go.
    let hot = template(&mut rng, 12);
    let colds: Vec<Vec<usize>> = (0..6).map(|_| template(&mut rng, 12)).collect();

    let mut kinds: Vec<RequestKind> = Vec::new();
    for cold in &colds {
        let mut hot_prompt = hot.clone();
        hot_prompt.push(rng.gen_range(0..VOCAB));
        kinds.push(RequestKind::Generate(GenerateSpec::greedy(
            hot_prompt, 4, None,
        )));
        kinds.push(RequestKind::Generate(GenerateSpec::greedy(
            cold.clone(),
            4,
            None,
        )));
    }
    // A couple of MCQs on the hot template exercise the branch-phase cost
    // path under the same pressure.
    kinds.push(RequestKind::Mcq(McqSpec {
        prompt: hot.clone(),
        options: vec![vec![1, 2, 3], vec![4, 5]],
    }));

    let mut sched = Scheduler::new(&b, &NoHook, pressure_cfg()).unwrap();
    let rxs: Vec<Receiver<Response>> = kinds
        .iter()
        .enumerate()
        .map(|(id, kind)| submit(&mut sched, id as u64, kind.clone()))
        .collect();
    // Termination of this call *is* the no-deadlock property: queued
    // requests block on budget until eviction frees indexed rows.
    sched.run_until_idle();

    let snap = sched.snapshot();
    assert!(
        snap.blocks_evicted > 0,
        "48-row budget never evicted despite 84 rows of indexable prefixes"
    );
    assert!(
        snap.prefix_hits > 0,
        "hot template repeats never hit the cache"
    );
    assert_eq!(
        snap.completed,
        kinds.len() as u64,
        "every request completes"
    );
    verify_bitwise(&b, &kinds, rxs);
    kernels::set_num_threads(0);
}

#[test]
fn evicted_prefixes_reprefill_bitwise() {
    let _g = THREADS.lock().unwrap();
    kernels::set_num_threads(1);
    let b = base();
    let mut rng = ChaCha8Rng::seed_from_u64(43);
    let first = template(&mut rng, 12);
    let churn: Vec<Vec<usize>> = (0..6).map(|_| template(&mut rng, 12)).collect();

    let mut sched = Scheduler::new(&b, &NoHook, pressure_cfg()).unwrap();

    // Wave 1: prime the cache with `first`, then churn through six other
    // templates so LRU pressure evicts the primed path.
    let mut kinds: Vec<RequestKind> = vec![RequestKind::Generate(GenerateSpec::greedy(
        first.clone(),
        3,
        None,
    ))];
    for t in &churn {
        kinds.push(RequestKind::Generate(GenerateSpec::greedy(
            t.clone(),
            3,
            None,
        )));
    }
    let rxs: Vec<Receiver<Response>> = kinds
        .iter()
        .enumerate()
        .map(|(id, kind)| submit(&mut sched, id as u64, kind.clone()))
        .collect();
    sched.run_until_idle();
    let evicted_after_wave1 = sched.snapshot().blocks_evicted;
    assert!(
        evicted_after_wave1 > 0,
        "churn wave never forced an eviction"
    );
    verify_bitwise(&b, &kinds, rxs);

    // Wave 2: resubmit the first template (its blocks are long cold — some
    // or all were reclaimed) plus a fresh variant with a suffix. Whether a
    // block survives or re-prefills, responses stay bitwise equal to the
    // isolated path; the determinism contract makes recomputed rows
    // indistinguishable from cached ones.
    let mut suffixed = first.clone();
    suffixed.push(7);
    let kinds2 = vec![
        RequestKind::Generate(GenerateSpec::greedy(first.clone(), 5, None)),
        RequestKind::Generate(GenerateSpec::greedy(suffixed, 3, None)),
    ];
    let rxs2: Vec<Receiver<Response>> = kinds2
        .iter()
        .enumerate()
        .map(|(id, kind)| submit(&mut sched, 100 + id as u64, kind.clone()))
        .collect();
    sched.run_until_idle();
    verify_bitwise(&b, &kinds2, rxs2);
    kernels::set_num_threads(0);
}
