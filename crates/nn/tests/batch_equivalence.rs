//! Differential equivalence for the ragged-batch runtime: running N
//! sequences packed through `forward_batch` / `prefill_batch` /
//! `decode_step_batch` / the batched samplers must reproduce the
//! single-sequence path per sequence — **bitwise** with serial kernels, and
//! within 1e-5 with the parallel row-banded kernels (banding depends on the
//! total row count, which batching changes).
//!
//! Batch shapes are property-tested: random batch sizes 1–8 with ragged
//! per-sequence lengths, across every hook interception point (none, q/v
//! deltas, prefix K/V rows, output rewrites).
//!
//! The kernel thread override is process-global, so every test here takes a
//! shared lock before touching it and restores the default before releasing.

use std::sync::Mutex;

#[path = "support/hooks.rs"]
mod hooks;

use hooks::hooks;
use infuserki_nn::{sampler, ModelConfig, TransformerLm};
use infuserki_tensor::{kernels, Matrix};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const VOCAB: usize = 40;

static THREADS: Mutex<()> = Mutex::new(());

fn model(seed: u64) -> TransformerLm {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    TransformerLm::new(ModelConfig::tiny(VOCAB), &mut rng)
}

/// Deterministic per-sequence token pattern, salted so batch members differ.
fn seq(len: usize, salt: usize) -> Vec<usize> {
    (0..len).map(|i| (i * 7 + salt * 13 + 3) % VOCAB).collect()
}

fn assert_bitwise(a: &Matrix, b: &Matrix, ctx: &str) {
    assert_eq!(a.shape(), b.shape(), "{ctx}: shape");
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert!(
            x.to_bits() == y.to_bits(),
            "{ctx}: element {i} differs: {x} vs {y}"
        );
    }
}

fn assert_close(a: &Matrix, b: &Matrix, tol: f32, ctx: &str) {
    assert_eq!(a.shape(), b.shape(), "{ctx}: shape");
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert!((x - y).abs() <= tol, "{ctx}: element {i}: {x} vs {y}");
    }
}

// ---- shared checkers --------------------------------------------------------

/// Batched prefill logits vs per-sequence prefill, per row block.
fn check_prefill(m: &TransformerLm, lens: &[usize], tol: Option<f32>) {
    let seqs: Vec<Vec<usize>> = lens.iter().enumerate().map(|(i, &l)| seq(l, i)).collect();
    for (name, hook) in hooks() {
        let (packed, batch) = m.forward_batch(&seqs, hook.as_ref());
        for (i, s) in seqs.iter().enumerate() {
            let (_, single) = m.prefill(s, hook.as_ref());
            let rng = batch.range(i);
            let got = packed.slice_rows(rng.start, rng.end);
            let ctx = format!("{name}, lens {lens:?}, seq {i}");
            match tol {
                None => assert_bitwise(&single, &got, &ctx),
                Some(t) => assert_close(&single, &got, t, &ctx),
            }
        }
    }
}

/// Batched prefill + several decode steps vs the single-sequence loop.
fn check_decode(m: &TransformerLm, lens: &[usize], steps: usize) {
    let seqs: Vec<Vec<usize>> = lens.iter().enumerate().map(|(i, &l)| seq(l, i)).collect();
    for (name, hook) in hooks() {
        let (mut bcache, _) = m.prefill_batch(&seqs, hook.as_ref());
        let mut singles: Vec<_> = seqs.iter().map(|s| m.prefill(s, hook.as_ref()).0).collect();
        for step in 0..steps {
            let toks: Vec<usize> = (0..seqs.len())
                .map(|i| (step * 5 + i * 3 + 1) % VOCAB)
                .collect();
            let blogits = m.decode_step_batch(&toks, hook.as_ref(), &mut bcache);
            for (i, cache) in singles.iter_mut().enumerate() {
                let slogits = m.decode_step(toks[i], hook.as_ref(), cache);
                let got = Matrix::row_vec(blogits.row(i).to_vec());
                assert_bitwise(
                    &slogits,
                    &got,
                    &format!("{name}, lens {lens:?}, seq {i}, step {step}"),
                );
            }
        }
    }
}

// ---- property tests ---------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Packed batched prefill is bitwise the single path with serial kernels,
    /// for random ragged batch shapes and every hook type.
    #[test]
    fn batched_prefill_bitwise_serial(lens in proptest::collection::vec(1usize..=12, 1..=8)) {
        let _g = THREADS.lock().unwrap();
        kernels::set_num_threads(1);
        let m = model(31);
        check_prefill(&m, &lens, None);
        kernels::set_num_threads(0);
    }

    /// With row-banded parallel kernels the packed result stays within 1e-5
    /// of the single path (banding shifts with total row count).
    #[test]
    fn batched_prefill_close_parallel(lens in proptest::collection::vec(1usize..=12, 2..=8)) {
        let _g = THREADS.lock().unwrap();
        kernels::set_num_threads(4);
        let m = model(32);
        check_prefill(&m, &lens, Some(1e-5));
        kernels::set_num_threads(0);
    }

    /// Whole-batch decode steps are bitwise the per-sequence decode loop.
    #[test]
    fn batched_decode_bitwise_serial(lens in proptest::collection::vec(1usize..=10, 1..=8)) {
        let _g = THREADS.lock().unwrap();
        kernels::set_num_threads(1);
        let m = model(33);
        check_decode(&m, &lens, 4);
        kernels::set_num_threads(0);
    }

    /// Batched greedy decoding returns exactly what looping the
    /// single-sequence sampler returns, ragged prompts and all.
    #[test]
    fn batched_greedy_matches_looped_single(lens in proptest::collection::vec(1usize..=10, 1..=6)) {
        let _g = THREADS.lock().unwrap();
        kernels::set_num_threads(1);
        let m = model(34);
        let prompts: Vec<Vec<usize>> = lens.iter().enumerate().map(|(i, &l)| seq(l, i)).collect();
        for (name, hook) in hooks() {
            let batched = sampler::greedy_decode_batch(&m, hook.as_ref(), &prompts, 8, Some(0));
            for (i, p) in prompts.iter().enumerate() {
                let single = sampler::greedy_decode(&m, hook.as_ref(), p, 8, Some(0));
                assert_eq!(batched[i], single, "{name}, lens {lens:?}, seq {i}");
            }
        }
        kernels::set_num_threads(0);
    }
}

// ---- fixed scenarios --------------------------------------------------------

/// Batched option scoring equals looping `score_options`, bitwise — including
/// the branch `gather` + ragged extension for multi-token options.
#[test]
fn batched_score_options_matches_looped_single() {
    let _g = THREADS.lock().unwrap();
    kernels::set_num_threads(1);
    let m = model(35);
    let prompts: Vec<Vec<usize>> = vec![seq(5, 0), seq(9, 1), seq(1, 2)];
    let options: Vec<Vec<Vec<usize>>> = vec![
        vec![vec![1], vec![2, 3], vec![4, 5, 6], vec![7, 8]],
        vec![vec![9, 10, 11, 12], vec![13]],
        vec![vec![14, 15], vec![16, 17]],
    ];
    let per_q: Vec<&[Vec<usize>]> = options.iter().map(Vec::as_slice).collect();
    for (name, hook) in hooks() {
        let batched = sampler::score_options_batch(&m, hook.as_ref(), &prompts, &per_q);
        for (q, p) in prompts.iter().enumerate() {
            let single = sampler::score_options(&m, hook.as_ref(), p, &options[q]);
            for (oi, (a, b)) in batched[q].iter().zip(&single).enumerate() {
                assert!(
                    a.to_bits() == b.to_bits(),
                    "{name}, q {q}, option {oi}: {a} vs {b}"
                );
            }
        }
    }
    kernels::set_num_threads(0);
}

/// Retiring batch members mid-decode must not perturb the survivors: decode
/// a batch of three, drop the middle sequence, and keep decoding — the
/// remaining two must still match their single-sequence loops bitwise.
#[test]
fn retiring_sequences_mid_decode_leaves_survivors_bitwise() {
    let _g = THREADS.lock().unwrap();
    kernels::set_num_threads(1);
    let m = model(36);
    let seqs: Vec<Vec<usize>> = vec![seq(4, 0), seq(7, 1), seq(2, 2)];
    for (name, hook) in hooks() {
        let (mut bcache, _) = m.prefill_batch(&seqs, hook.as_ref());
        let mut singles: Vec<_> = seqs.iter().map(|s| m.prefill(s, hook.as_ref()).0).collect();
        let toks = [3usize, 11, 19];
        m.decode_step_batch(&toks, hook.as_ref(), &mut bcache);
        for (i, cache) in singles.iter_mut().enumerate() {
            m.decode_step(toks[i], hook.as_ref(), cache);
        }
        bcache.retain_indices(&[0, 2]);
        for step in 0..3 {
            let toks = [(step * 2 + 5) % VOCAB, (step * 3 + 8) % VOCAB];
            let blogits = m.decode_step_batch(&toks, hook.as_ref(), &mut bcache);
            for (slot, &orig) in [0usize, 2].iter().enumerate() {
                let slogits = m.decode_step(toks[slot], hook.as_ref(), &mut singles[orig]);
                let got = Matrix::row_vec(blogits.row(slot).to_vec());
                assert_bitwise(
                    &slogits,
                    &got,
                    &format!("{name}, survivor {orig}, step {step}"),
                );
            }
        }
    }
    kernels::set_num_threads(0);
}

/// Batch-of-1 really is the single path: the wrappers and the batched code
/// agree bitwise even with the default (auto) thread setting, because the
/// packed matrices are identical shapes.
#[test]
fn batch_of_one_is_the_single_path() {
    let m = model(37);
    let p = seq(6, 0);
    for (name, hook) in hooks() {
        let (full, batch) = m.forward_batch(&[&p], hook.as_ref());
        assert_eq!(batch.n_seqs(), 1, "{name}");
        let (_, single) = m.prefill(&p, hook.as_ref());
        assert_bitwise(&single, &full, &format!("{name}, batch-of-1"));
    }
}
