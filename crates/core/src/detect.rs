//! Knowledge detection (§3.2): query the model with MCQs, extract the chosen
//! option from its generation, and partition triples into known/unknown.

use infuserki_nn::{sampler, LayerHook, TransformerLm};
use infuserki_text::{format_mcq_prompt, Mcq, Tokenizer, OPTION_TOKENS};
use rayon::prelude::*;

/// The known/unknown partition over a set of MCQ-probed triples.
#[derive(Debug, Clone, Default)]
pub struct DetectionResult {
    /// Indices answered correctly (regions N1+N2 of Fig. 3).
    pub known: Vec<usize>,
    /// Indices answered incorrectly or unparseably (N3+N4).
    pub unknown: Vec<usize>,
}

impl DetectionResult {
    /// Fraction of probed triples the model already knows.
    pub fn known_rate(&self) -> f32 {
        let total = self.known.len() + self.unknown.len();
        if total == 0 {
            0.0
        } else {
            self.known.len() as f32 / total as f32
        }
    }
}

/// Token ids of the option letters `(a)`–`(d)` under `tokenizer`.
pub fn option_token_ids(tokenizer: &Tokenizer) -> [usize; 4] {
    let mut ids = [0usize; 4];
    for (i, t) in OPTION_TOKENS.iter().enumerate() {
        ids[i] = tokenizer
            .word_id(t)
            .unwrap_or_else(|| panic!("option token {t} missing from vocabulary"));
    }
    ids
}

/// Answers one MCQ by greedy generation (EOS-stopped), extracting the chosen
/// option by answer-text match with option-letter fallback (see
/// [`infuserki_text::prompts::extract_choice`]); unparseable generations
/// return `None` and count as incorrect, matching the paper's protocol.
pub fn answer_mcq(
    model: &TransformerLm,
    hook: &dyn LayerHook,
    tokenizer: &Tokenizer,
    mcq: &Mcq,
) -> Option<usize> {
    let prompt = tokenizer.encode_strict(&format_mcq_prompt(mcq));
    let max_new = mcq
        .options
        .iter()
        .map(|o| tokenizer.encode(o).len())
        .max()
        .unwrap_or(4)
        + 2;
    let generated = sampler::greedy_decode(
        model,
        hook,
        &prompt,
        max_new,
        Some(infuserki_text::tokenizer::EOS),
    );
    let text = tokenizer.decode(&generated);
    infuserki_text::prompts::extract_choice(&text, &mcq.options)
}

/// Answers a set of MCQs with one batched greedy decode: all prompts prefill
/// as a ragged batch and every question advances one token per decode step.
/// Per question identical to [`answer_mcq`] (bitwise logits at one kernel
/// thread); per-question `max_new` budgets carry through as decode limits.
pub fn answer_mcq_batch(
    model: &TransformerLm,
    hook: &dyn LayerHook,
    tokenizer: &Tokenizer,
    mcqs: &[Mcq],
) -> Vec<Option<usize>> {
    let prompts: Vec<Vec<usize>> = mcqs
        .iter()
        .map(|m| tokenizer.encode_strict(&format_mcq_prompt(m)))
        .collect();
    let limits: Vec<usize> = mcqs
        .iter()
        .map(|m| {
            m.options
                .iter()
                .map(|o| tokenizer.encode(o).len())
                .max()
                .unwrap_or(4)
                + 2
        })
        .collect();
    let generated = sampler::greedy_decode_batch_limits(
        model,
        hook,
        &prompts,
        &limits,
        Some(infuserki_text::tokenizer::EOS),
    );
    generated
        .iter()
        .zip(mcqs)
        .map(|(g, m)| {
            let text = tokenizer.decode(g);
            infuserki_text::prompts::extract_choice(&text, &m.options)
        })
        .collect()
}

/// Decode-batch width for MCQ probing: chunks of this many questions run as
/// one ragged batch, and the chunks themselves spread across the thread pool.
pub const MCQ_BATCH: usize = 16;

/// Probes every MCQ — batched within chunks, chunks in parallel — and
/// partitions indices by correctness.
pub fn detect_unknown(
    model: &TransformerLm,
    hook: &dyn LayerHook,
    tokenizer: &Tokenizer,
    mcqs: &[Mcq],
) -> DetectionResult {
    let verdicts: Vec<bool> = mcqs
        .par_chunks(MCQ_BATCH)
        .map(|chunk| {
            answer_mcq_batch(model, hook, tokenizer, chunk)
                .into_iter()
                .zip(chunk)
                .map(|(pred, m)| pred == Some(m.correct))
                .collect::<Vec<bool>>()
        })
        .collect::<Vec<Vec<bool>>>()
        .concat();
    let mut result = DetectionResult::default();
    for (i, ok) in verdicts.into_iter().enumerate() {
        if ok {
            result.known.push(i);
        } else {
            result.unknown.push(i);
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use infuserki_kg::{synth_umls, UmlsConfig};
    use infuserki_nn::{ModelConfig, NoHook};
    use infuserki_text::prompts;
    use infuserki_text::templates::TemplateSet;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup() -> (TransformerLm, Tokenizer, Vec<Mcq>) {
        let store = synth_umls(&UmlsConfig::with_triplets(30, 5));
        let triples = store.triples().to_vec();
        let bank = crate::dataset::McqBank::build(&store, &triples, 9);
        let mut lines: Vec<String> = store.entity_names().map(str::to_string).collect();
        for r in store.relation_names() {
            lines.extend(TemplateSet::vocabulary_lines(r));
        }
        lines.extend(prompts::vocabulary_lines());
        let tok = Tokenizer::build(lines.iter().map(String::as_str));
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let cfg = ModelConfig {
            vocab_size: tok.vocab_size(),
            max_seq: 96,
            ..ModelConfig::tiny(0)
        };
        let model = TransformerLm::new(cfg, &mut rng);
        (model, tok, bank.template(0).to_vec())
    }

    #[test]
    fn option_ids_resolve() {
        let (_, tok, _) = setup();
        let ids = option_token_ids(&tok);
        assert_eq!(ids.len(), 4);
        assert!(ids.iter().all(|&i| i > 1));
        // distinct
        let set: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn untrained_model_mostly_unknown() {
        let (model, tok, mcqs) = setup();
        let res = detect_unknown(&model, &NoHook, &tok, &mcqs);
        assert_eq!(res.known.len() + res.unknown.len(), mcqs.len());
        // An untrained model rarely emits a correct option letter.
        assert!(res.known_rate() < 0.5);
    }

    #[test]
    fn partition_is_disjoint_and_exhaustive() {
        let (model, tok, mcqs) = setup();
        let res = detect_unknown(&model, &NoHook, &tok, &mcqs);
        let mut all: Vec<usize> = res.known.iter().chain(&res.unknown).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..mcqs.len()).collect::<Vec<_>>());
    }

    #[test]
    fn known_rate_empty_is_zero() {
        assert_eq!(DetectionResult::default().known_rate(), 0.0);
    }
}
