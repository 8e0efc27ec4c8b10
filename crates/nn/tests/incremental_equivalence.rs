//! Differential equivalence for the KV-cached incremental engine: the
//! tape-free `prefill`/`extend_cached`/`decode_step` path must reproduce the
//! tape forward **bitwise** with serial kernels, for every hook interception
//! point (q/v deltas, prefix K/V, output rewrites) and every prompt length
//! up to the context limit.
//!
//! The kernel thread override is process-global, so every test here takes a
//! shared lock before touching it and restores the default before releasing.

use std::sync::Mutex;

#[path = "support/hooks.rs"]
mod hooks;
#[path = "support/reference.rs"]
mod reference;

use hooks::hooks;
use infuserki_nn::hooks::LayerHook;
use infuserki_nn::{sampler, ModelConfig, TransformerLm};
use infuserki_tensor::{kernels, Matrix, Tape};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const VOCAB: usize = 40;

static THREADS: Mutex<()> = Mutex::new(());

fn model(seed: u64) -> TransformerLm {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    TransformerLm::new(ModelConfig::tiny(VOCAB), &mut rng)
}

fn tokens(n: usize) -> Vec<usize> {
    (0..n).map(|i| (i * 7 + 3) % VOCAB).collect()
}

/// Tape-path logits for the whole prompt.
fn full_logits(m: &TransformerLm, toks: &[usize], hook: &dyn LayerHook) -> Matrix {
    let mut tape = Tape::new();
    let id = m.forward(toks, hook, &mut tape);
    tape.value(id).clone()
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

fn assert_close(a: &[f32], b: &[f32], tol: f32, ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: len");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!((x - y).abs() <= tol, "{ctx}: element {i}: {x} vs {y}");
    }
}

// ---- the differential suite ------------------------------------------------

#[test]
fn prefill_matches_full_forward_bitwise_all_hooks_all_lengths() {
    let _g = THREADS.lock().unwrap();
    kernels::set_num_threads(1);
    let m = model(11);
    let max_seq = m.config().max_seq;
    for (name, hook) in hooks() {
        for n in 1..=max_seq {
            let toks = tokens(n);
            let full = full_logits(&m, &toks, hook.as_ref());
            let (_, cached) = m.prefill(&toks, hook.as_ref());
            assert_bitwise(&full, &cached, &format!("{name}, len {n}"));
        }
    }
    kernels::set_num_threads(0);
}

#[test]
fn chunked_extend_matches_full_forward_bitwise() {
    let _g = THREADS.lock().unwrap();
    kernels::set_num_threads(1);
    let m = model(12);
    let toks = tokens(17);
    for (name, hook) in hooks() {
        let full = full_logits(&m, &toks, hook.as_ref());
        // Uneven chunking: 1 + 5 + 2 + 9 tokens.
        for splits in [vec![1, 6, 8, 17], vec![4, 17], vec![16, 17]] {
            let mut cache = m.new_cache(hook.as_ref());
            let mut start = 0;
            for end in splits.clone() {
                let logits = m.extend_cached(&toks[start..end], hook.as_ref(), &mut cache);
                for (i, row) in (start..end).enumerate() {
                    let a = Matrix::row_vec(full.row(row).to_vec());
                    let b = Matrix::row_vec(logits.row(i).to_vec());
                    assert_bitwise(&a, &b, &format!("{name}, splits {splits:?}, row {row}"));
                }
                start = end;
            }
        }
    }
    kernels::set_num_threads(0);
}

#[test]
fn decode_step_matches_full_forward_bitwise() {
    let _g = THREADS.lock().unwrap();
    kernels::set_num_threads(1);
    let m = model(13);
    let toks = tokens(12);
    for (name, hook) in hooks() {
        let (mut cache, first) = m.prefill(&toks[..1], hook.as_ref());
        let mut last_rows = vec![first.row(0).to_vec()];
        for &t in &toks[1..] {
            let logits = m.decode_step(t, hook.as_ref(), &mut cache);
            last_rows.push(logits.row(0).to_vec());
        }
        let full = full_logits(&m, &toks, hook.as_ref());
        for (r, row) in last_rows.iter().enumerate() {
            let a = Matrix::row_vec(full.row(r).to_vec());
            let b = Matrix::row_vec(row.clone());
            assert_bitwise(&a, &b, &format!("{name}, step {r}"));
        }
    }
    kernels::set_num_threads(0);
}

#[test]
fn forked_caches_evolve_independently_and_correctly() {
    let _g = THREADS.lock().unwrap();
    kernels::set_num_threads(1);
    let m = model(14);
    let prefix = tokens(9);
    // The last suffix runs past the forked partial block into fresh ones
    // when blocks are 4 rows; the others stay inside it.
    let suffixes: Vec<Vec<usize>> = vec![
        vec![1, 2],
        vec![3, 4, 5],
        vec![6],
        vec![9, 10, 11, 12, 13, 14],
    ];
    // One block spanning the whole context, then 4-row blocks: the 9-token
    // prefix ends one row into a block every branch shares, so each branch
    // copies that partial (transposed) K panel on write before appending.
    for block_rows in [m.config().max_seq, 4] {
        for (name, hook) in hooks() {
            let name = format!("{name}, block {block_rows}");
            let mut cache = m.new_cache_in(hook.as_ref(), m.new_pool(block_rows));
            m.extend_cached(&prefix, hook.as_ref(), &mut cache);
            for (si, suffix) in suffixes.iter().enumerate() {
                let mut branch = cache.fork();
                let logits = m.extend_cached(suffix, hook.as_ref(), &mut branch);
                let mut whole = prefix.clone();
                whole.extend_from_slice(suffix);
                let full = full_logits(&m, &whole, hook.as_ref());
                for (i, row) in (prefix.len()..whole.len()).enumerate() {
                    let a = Matrix::row_vec(full.row(row).to_vec());
                    let b = Matrix::row_vec(logits.row(i).to_vec());
                    assert_bitwise(&a, &b, &format!("{name}, branch {si}, row {row}"));
                }
            }
            // The parent cache is untouched by branch extension.
            assert_eq!(cache.tokens(), prefix.len());
        }
    }
    kernels::set_num_threads(0);
}

#[test]
fn prefill_matches_full_forward_with_parallel_kernels() {
    let _g = THREADS.lock().unwrap();
    kernels::set_num_threads(4);
    let m = model(15);
    for (name, hook) in hooks() {
        for n in [1, 5, 19, 32] {
            let toks = tokens(n);
            let full = full_logits(&m, &toks, hook.as_ref());
            let (_, cached) = m.prefill(&toks, hook.as_ref());
            assert_close(
                full.data(),
                cached.data(),
                1e-5,
                &format!("{name}, len {n}, threads 4"),
            );
        }
    }
    kernels::set_num_threads(0);
}

#[test]
fn cached_samplers_match_uncached_on_synthetic_hooks() {
    let _g = THREADS.lock().unwrap();
    kernels::set_num_threads(1);
    let m = model(16);
    let prompt = tokens(6);
    let options: Vec<Vec<usize>> = vec![vec![1], vec![2, 3], vec![4, 5, 6], vec![7, 8]];
    for (name, hook) in hooks() {
        let cached = sampler::score_options(&m, hook.as_ref(), &prompt, &options);
        let naive = reference::score_options_uncached(&m, hook.as_ref(), &prompt, &options);
        for (i, (a, b)) in cached.iter().zip(&naive).enumerate() {
            assert!(
                a.to_bits() == b.to_bits(),
                "{name}: option {i} score {a} vs {b}"
            );
        }
        let g_cached = sampler::greedy_decode(&m, hook.as_ref(), &prompt, 10, None);
        let g_naive = reference::greedy_decode_uncached(&m, hook.as_ref(), &prompt, 10, None);
        assert_eq!(g_cached, g_naive, "{name}: greedy divergence");
        let b_cached = sampler::beam_search(&m, hook.as_ref(), &prompt, 8, 3, None);
        let b_naive = reference::beam_search_uncached(&m, hook.as_ref(), &prompt, 8, 3, None);
        assert_eq!(b_cached, b_naive, "{name}: beam divergence");
    }
    kernels::set_num_threads(0);
}
