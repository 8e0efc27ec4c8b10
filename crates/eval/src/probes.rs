//! Analysis probes: infusing-score profiles (Fig. 6), hidden-state capture
//! (Fig. 1) and option-probability case studies (Fig. 7).

use infuserki_core::dataset::McqBank;
use infuserki_nn::{sampler, ForwardTrace, LayerHook, TransformerLm};
use infuserki_tensor::Tape;
use infuserki_text::{format_mcq_prompt, Mcq, Tokenizer};
use rayon::prelude::*;

/// Mean infusing score per adapted layer over the prompts of the given
/// triple indices (template-0 MCQs) — one Fig. 6 series. Empty under a hook
/// without infusers.
pub fn gate_profile(
    base: &TransformerLm,
    hook: &dyn LayerHook,
    tokenizer: &Tokenizer,
    bank: &McqBank,
    indices: &[usize],
) -> Vec<(usize, f32)> {
    let per_prompt: Vec<Vec<(usize, f32)>> = indices
        .par_iter()
        .map(|&i| {
            let tokens = tokenizer.encode_strict(&format_mcq_prompt(bank.mcq(0, i)));
            let mut tape = Tape::new();
            let mut trace = ForwardTrace::new();
            base.forward_traced(&tokens, hook, &mut tape, &mut trace);
            trace
                .gate_scores
                .iter()
                .map(|&(layer, node)| (layer, tape.value(node).scalar_value()))
                .collect()
        })
        .collect();
    if per_prompt.is_empty() {
        return Vec::new();
    }
    let layers: Vec<usize> = per_prompt[0].iter().map(|&(l, _)| l).collect();
    layers
        .into_iter()
        .enumerate()
        .map(|(pos, layer)| {
            let mean = per_prompt.iter().map(|p| p[pos].1).sum::<f32>() / per_prompt.len() as f32;
            (layer, mean)
        })
        .collect()
}

/// Mean-pooled hidden state at `layer` (block output) for a token sequence —
/// the representations Fig. 1 projects with t-SNE.
pub fn hidden_state(
    base: &TransformerLm,
    hook: &dyn LayerHook,
    tokens: &[usize],
    layer: usize,
) -> Vec<f32> {
    let mut tape = Tape::new();
    let mut trace = ForwardTrace::new();
    base.forward_traced(tokens, hook, &mut tape, &mut trace);
    let node = trace.block_outputs[layer];
    let pooled = tape.mean_rows(node);
    tape.value(pooled).row(0).to_vec()
}

/// Hidden states for a batch of MCQ prompts, in parallel.
pub fn hidden_states_for(
    base: &TransformerLm,
    hook: &dyn LayerHook,
    tokenizer: &Tokenizer,
    bank: &McqBank,
    indices: &[usize],
    layer: usize,
) -> Vec<Vec<f32>> {
    indices
        .par_iter()
        .map(|&i| {
            let tokens = tokenizer.encode_strict(&format_mcq_prompt(bank.mcq(0, i)));
            hidden_state(base, hook, &tokens, layer)
        })
        .collect()
}

/// The paper probes LLaMa's 10th of 32 layers; map that depth fraction onto
/// the reproduction model.
pub fn fig1_layer(n_layers: usize) -> usize {
    ((10.0 / 32.0) * n_layers as f32).round() as usize - 1
}

/// Probability the method assigns to each option of each MCQ
/// (length-normalized option likelihoods, softmaxed) — Fig. 7's cells. Every
/// prompt and every option extension runs through
/// [`sampler::score_options_batch`]'s two ragged forwards.
pub fn option_probs_many(
    base: &TransformerLm,
    hook: &dyn LayerHook,
    tokenizer: &Tokenizer,
    mcqs: &[Mcq],
) -> Vec<[f32; 4]> {
    let prompts: Vec<Vec<usize>> = mcqs
        .iter()
        .map(|m| tokenizer.encode_strict(&format_mcq_prompt(m)))
        .collect();
    let options: Vec<Vec<Vec<usize>>> = mcqs
        .iter()
        .map(|m| {
            m.options
                .iter()
                .enumerate()
                .map(|(i, o)| {
                    tokenizer.encode_strict(&format!("{} {o}", infuserki_text::option_token(i)))
                })
                .collect()
        })
        .collect();
    let per_q: Vec<&[Vec<usize>]> = options.iter().map(Vec::as_slice).collect();
    let scores = sampler::score_options_batch(base, hook, &prompts, &per_q);
    scores
        .iter()
        .zip(&options)
        .map(|(sc, opts)| {
            let lens: Vec<usize> = opts.iter().map(Vec::len).collect();
            let probs = sampler::option_probabilities(sc, &lens);
            [probs[0], probs[1], probs[2], probs[3]]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{build_world_in, Domain, WorldConfig};
    use infuserki_core::{InfuserKiConfig, InfuserKiMethod};
    use infuserki_nn::NoHook;

    fn world() -> crate::world::World {
        let dir = std::env::temp_dir().join(format!("infuserki_probe_{}", std::process::id()));
        build_world_in(&WorldConfig::tiny(Domain::Umls, 55), &dir)
    }

    #[test]
    fn gate_profile_covers_adapted_layers() {
        let w = world();
        let mut cfg = InfuserKiConfig::for_model(w.base.n_layers());
        cfg.bottleneck = 4;
        cfg.infuser_hidden = 4;
        cfg.rc_dim = 8;
        let method = InfuserKiMethod::new(cfg, &w.base, w.store.n_relations());
        let profile = gate_profile(&w.base, &method, &w.tokenizer, &w.bank, &[0, 1, 2]);
        assert_eq!(profile.len(), method.config().placement.len());
        for (_, score) in profile {
            assert!((0.0..=1.0).contains(&score));
        }
    }

    #[test]
    fn gate_profile_empty_indices() {
        let w = world();
        let mut cfg = InfuserKiConfig::for_model(w.base.n_layers());
        cfg.bottleneck = 4;
        cfg.infuser_hidden = 4;
        cfg.rc_dim = 8;
        let method = InfuserKiMethod::new(cfg, &w.base, w.store.n_relations());
        assert!(gate_profile(&w.base, &method, &w.tokenizer, &w.bank, &[]).is_empty());
    }

    #[test]
    fn hidden_states_have_model_width() {
        let w = world();
        let layer = fig1_layer(w.base.n_layers());
        let states = hidden_states_for(&w.base, &NoHook, &w.tokenizer, &w.bank, &[0, 1], layer);
        assert_eq!(states.len(), 2);
        assert_eq!(states[0].len(), w.base.config().d_model);
        assert_ne!(states[0], states[1]);
    }

    #[test]
    fn fig1_layer_mapping() {
        assert_eq!(fig1_layer(32), 9); // 10th layer, 0-based
        assert_eq!(fig1_layer(12), 3);
    }

    #[test]
    fn option_probs_sum_to_one() {
        let w = world();
        let p = option_probs_many(&w.base, &NoHook, &w.tokenizer, &[w.bank.mcq(0, 0).clone()])[0];
        let sum: f32 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
        assert!(p.iter().all(|&x| x >= 0.0));
    }
}
