//! Property tests on the transformer substrate: causality, determinism,
//! finiteness, and loss/score consistency over randomized inputs.

#[path = "support/reference.rs"]
mod reference;

use infuserki_nn::{sampler, ModelConfig, NoHook, TransformerLm};
use infuserki_tensor::op::IGNORE_INDEX;
use infuserki_tensor::Tape;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const VOCAB: usize = 24;

fn model(seed: u64) -> TransformerLm {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    TransformerLm::new(ModelConfig::tiny(VOCAB), &mut rng)
}

fn tokens_strategy() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0..VOCAB, 2..10)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn logits_are_finite(tokens in tokens_strategy(), seed in 0u64..4) {
        let m = model(seed);
        let mut tape = Tape::new();
        let logits = m.forward(&tokens, &NoHook, &mut tape);
        prop_assert!(tape.value(logits).all_finite());
        prop_assert_eq!(tape.value(logits).shape(), (tokens.len(), VOCAB));
    }

    #[test]
    fn forward_is_deterministic(tokens in tokens_strategy()) {
        let m = model(1);
        let mut t1 = Tape::new();
        let mut t2 = Tape::new();
        let a = m.forward(&tokens, &NoHook, &mut t1);
        let b = m.forward(&tokens, &NoHook, &mut t2);
        prop_assert_eq!(t1.value(a).data(), t2.value(b).data());
    }

    #[test]
    fn causality_prefix_logits_stable(tokens in tokens_strategy(), extra in 0..VOCAB) {
        // Appending a token must not change any earlier position's logits.
        let m = model(2);
        let mut t1 = Tape::new();
        let mut t2 = Tape::new();
        let short = m.forward(&tokens, &NoHook, &mut t1);
        let mut longer = tokens.clone();
        longer.push(extra);
        let long = m.forward(&longer, &NoHook, &mut t2);
        for r in 0..tokens.len() {
            let a = t1.value(short).row(r);
            let b = t2.value(long).row(r);
            for (x, y) in a.iter().zip(b) {
                prop_assert!((x - y).abs() < 1e-4, "row {r} changed: {x} vs {y}");
            }
        }
    }

    #[test]
    fn lm_loss_positive_and_finite(tokens in tokens_strategy()) {
        let m = model(3);
        let mut targets = tokens.clone();
        targets.rotate_left(1);
        *targets.last_mut().unwrap() = IGNORE_INDEX;
        let mut tape = Tape::new();
        let loss = m.lm_loss(&tokens, &targets, &NoHook, &mut tape);
        let v = tape.value(loss).scalar_value();
        prop_assert!(v.is_finite() && v > 0.0);
    }

    #[test]
    fn completion_logprob_matches_loss(prompt in proptest::collection::vec(0..VOCAB, 1..4),
                                       completion in proptest::collection::vec(0..VOCAB, 1..4)) {
        // completion_logprob = -(mean CE loss) × (#completion tokens)
        let m = model(4);
        let lp = reference::completion_logprob(&m, &prompt, &completion, &NoHook);
        let mut tape = Tape::new();
        let loss = m.completion_loss(&prompt, &completion, &NoHook, &mut tape);
        let mean_ce = tape.value(loss).scalar_value();
        let expected = -mean_ce * completion.len() as f32;
        prop_assert!((lp - expected).abs() < 1e-3 * completion.len() as f32,
            "logprob {lp} vs -loss*n {expected}");
    }

    #[test]
    fn option_scores_rank_consistently(prompt in proptest::collection::vec(0..VOCAB, 1..4)) {
        let m = model(5);
        let options: Vec<Vec<usize>> = (0..4).map(|i| vec![i + 6]).collect();
        let scores = sampler::score_options(&m, &NoHook, &prompt, &options);
        let probs = sampler::option_probabilities(&scores, &[1, 1, 1, 1]);
        // Highest score ⇒ highest probability.
        let best_score = sampler::argmax(&scores);
        let best_prob = sampler::argmax(&probs);
        prop_assert_eq!(best_score, best_prob);
        prop_assert!((probs.iter().sum::<f32>() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn greedy_decode_prefix_property(prompt in proptest::collection::vec(0..VOCAB, 1..5)) {
        // Decoding k tokens then continuing matches decoding k+j at once.
        let m = model(6);
        let full = sampler::greedy_decode(&m, &NoHook, &prompt, 4, None);
        let first = sampler::greedy_decode(&m, &NoHook, &prompt, 2, None);
        let mut continued_prompt = prompt.clone();
        continued_prompt.extend(&first);
        let rest = sampler::greedy_decode(&m, &NoHook, &continued_prompt, 2, None);
        let mut reassembled = first;
        reassembled.extend(rest);
        prop_assert_eq!(full, reassembled);
    }
}
