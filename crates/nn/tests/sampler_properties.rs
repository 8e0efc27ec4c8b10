//! Property tests on the sampling layer: probability normalization and
//! shift invariance of MCQ option scoring, agreement between the cached
//! shared-prefix scorer and the naive per-option path, and the collapse of
//! width-1 beam search onto greedy decoding.

use std::sync::Mutex;

#[path = "support/reference.rs"]
mod reference;

use infuserki_nn::{sampler, ModelConfig, NoHook, TransformerLm};
use infuserki_tensor::kernels;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const VOCAB: usize = 24;

static THREADS: Mutex<()> = Mutex::new(());

fn model(seed: u64) -> TransformerLm {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    TransformerLm::new(ModelConfig::tiny(VOCAB), &mut rng)
}

fn scores_strategy() -> impl Strategy<Value = Vec<(f32, usize)>> {
    proptest::collection::vec((-30.0f32..0.0, 1usize..6), 2..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn option_probabilities_form_a_distribution(pairs in scores_strategy()) {
        let scores: Vec<f32> = pairs.iter().map(|&(s, _)| s).collect();
        let lengths: Vec<usize> = pairs.iter().map(|&(_, l)| l).collect();
        let probs = sampler::option_probabilities(&scores, &lengths);
        prop_assert_eq!(probs.len(), scores.len());
        for &p in &probs {
            prop_assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        }
        let total: f32 = probs.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-5, "sum {total}");
    }

    #[test]
    fn option_probabilities_invariant_under_uniform_shift(
        pairs in scores_strategy(),
        c in -5.0f32..5.0,
    ) {
        // Scoring is length-normalized, so adding `c · length_i` to every raw
        // score shifts each normalized score by the same constant — a softmax
        // invariance. This is exactly what happens when every option gains
        // one extra token of constant log-probability.
        let scores: Vec<f32> = pairs.iter().map(|&(s, _)| s).collect();
        let lengths: Vec<usize> = pairs.iter().map(|&(_, l)| l).collect();
        let shifted: Vec<f32> = scores
            .iter()
            .zip(&lengths)
            .map(|(&s, &l)| s + c * l as f32)
            .collect();
        let p0 = sampler::option_probabilities(&scores, &lengths);
        let p1 = sampler::option_probabilities(&shifted, &lengths);
        for (a, b) in p0.iter().zip(&p1) {
            prop_assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn cached_score_options_matches_naive_path(
        prompt in proptest::collection::vec(0..VOCAB, 1..10),
        seed in 0u64..3,
    ) {
        let _g = THREADS.lock().unwrap();
        kernels::set_num_threads(1);
        let m = model(seed);
        let options: Vec<Vec<usize>> =
            vec![vec![0], vec![1, 2], vec![3, 4, 5], vec![VOCAB - 1]];
        let cached = sampler::score_options(&m, &NoHook, &prompt, &options);
        let naive = reference::score_options_uncached(&m, &NoHook, &prompt, &options);
        kernels::set_num_threads(0);
        for (i, (a, b)) in cached.iter().zip(&naive).enumerate() {
            prop_assert!(a.to_bits() == b.to_bits(), "option {i}: {a} vs {b}");
        }
    }

    #[test]
    fn beam_width_one_collapses_to_greedy(
        prompt in proptest::collection::vec(0..VOCAB, 1..8),
        max_new in 1usize..10,
        seed in 0u64..3,
    ) {
        let m = model(seed);
        let beam = sampler::beam_search(&m, &NoHook, &prompt, max_new, 1, None);
        let greedy = sampler::greedy_decode(&m, &NoHook, &prompt, max_new, None);
        prop_assert_eq!(beam, greedy);
    }
}
