//! Incremental knowledge integration: extend an already-integrated method
//! with newly arriving triples.
//!
//! This is the paper's data-efficiency motivation operationalized: when a
//! KG grows (new products, new cases), detection runs with the *patched*
//! model — facts integrated earlier answer correctly and are skipped — and
//! only the genuinely new unknowns are trained, into the same adapters.

use infuserki_kg::TripleStore;
use infuserki_nn::TransformerLm;
use infuserki_text::Tokenizer;
use serde::{Deserialize, Serialize};

use crate::config::TrainConfig;
use crate::dataset::{KiDataset, McqBank};
use crate::detect::detect_unknown;
use crate::method::InfuserKiMethod;
use crate::trainer::{train_infuserki, TrainingReport};

/// Outcome of one incremental integration round.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IncrementalReport {
    /// Triples presented this round.
    pub presented: usize,
    /// Already answered correctly by the patched model (skipped).
    pub already_known: usize,
    /// Actually trained this round.
    pub newly_integrated: usize,
    /// Phase losses of the round's training.
    pub training: TrainingReport,
}

impl IncrementalReport {
    /// Saves the report as JSON (creating parent directories), so an
    /// integration round leaves an auditable artifact next to the bundle it
    /// produced.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), String> {
        let json = serde_json::to_string(self).map_err(|e| e.to_string())?;
        if let Some(dir) = path.as_ref().parent() {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        }
        std::fs::write(&path, json).map_err(|e| format!("write {}: {e}", path.as_ref().display()))
    }

    /// Loads a report saved by [`save`](Self::save).
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, String> {
        let json = std::fs::read_to_string(&path)
            .map_err(|e| format!("read {}: {e}", path.as_ref().display()))?;
        serde_json::from_str(&json).map_err(|e| format!("parse report: {e}"))
    }
}

/// Integrates the triples of `bank` — the MCQ bank its caller built over
/// `store` for the round's new triples — into an existing `method`.
///
/// Detection runs with the method's hook attached, so knowledge from earlier
/// rounds is treated as known — the unnecessary-overlap avoidance the paper
/// contrasts with whole-graph fine-tuning. Detection asks template 0 of
/// `bank`, and training phrases its questions from the same bank, so a
/// caller that keeps `bank` (to phrase gate probes, say) quizzes exactly what
/// was taught. All entity/relation names must be within `tokenizer`'s
/// vocabulary (the closed-world invariant).
pub fn integrate_more(
    base: &TransformerLm,
    method: &mut InfuserKiMethod,
    store: &TripleStore,
    bank: &McqBank,
    tokenizer: &Tokenizer,
    tc: &TrainConfig,
) -> IncrementalReport {
    let detection = detect_unknown(base, &method.hook(), tokenizer, bank.template(0));
    let data = KiDataset::build(
        store,
        bank,
        tokenizer,
        &detection.known,
        &detection.unknown,
        tc.seed ^ 0x1c2f,
    );
    let training = if detection.unknown.is_empty() {
        TrainingReport::default()
    } else {
        train_infuserki(base, method, &data, tc)
    };
    IncrementalReport {
        presented: bank.len(),
        already_known: detection.known.len(),
        newly_integrated: detection.unknown.len(),
        training,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InfuserKiConfig;
    use infuserki_kg::{synth_umls, Triple, UmlsConfig};
    use infuserki_nn::ModelConfig;
    use infuserki_text::prompts;
    use infuserki_text::templates::TemplateSet;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup() -> (TransformerLm, InfuserKiMethod, TripleStore, Tokenizer) {
        let store = synth_umls(&UmlsConfig::with_triplets(40, 19));
        let mut lines: Vec<String> = store.entity_names().map(str::to_string).collect();
        for r in store.relation_names() {
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
        let mut cfg = InfuserKiConfig::for_model(base.n_layers());
        cfg.bottleneck = 4;
        cfg.infuser_hidden = 4;
        cfg.rc_dim = 8;
        let method = InfuserKiMethod::new(cfg, &base, store.n_relations());
        (base, method, store, tok)
    }

    fn quick_tc() -> TrainConfig {
        TrainConfig {
            epochs_infuser: 1,
            epochs_qa: 1,
            epochs_rc: 1,
            lr: 1e-3,
            lr_infuser: 1e-2,
            batch: 4,
            seed: 11,
        }
    }

    #[test]
    fn incremental_round_partitions_and_trains() {
        let (base, mut method, store, tok) = setup();
        let batch: Vec<Triple> = store.triples()[..20].to_vec();
        let tc = quick_tc();
        let bank = McqBank::build(&store, &batch, tc.seed ^ 0x1c2e);
        let report = integrate_more(&base, &mut method, &store, &bank, &tok, &tc);
        assert_eq!(report.presented, 20);
        assert_eq!(report.already_known + report.newly_integrated, 20);
        if report.newly_integrated > 0 {
            assert!(!report.training.qa_losses.is_empty());
        }
    }

    #[test]
    fn second_round_with_same_triples_trains_less_or_equal() {
        // After one round, at least the facts the method mastered are skipped
        // in round two — the data-efficiency property.
        let (base, mut method, store, tok) = setup();
        let batch: Vec<Triple> = store.triples()[..16].to_vec();
        let tc = TrainConfig {
            epochs_qa: 4,
            lr: 3e-3,
            ..quick_tc()
        };
        let bank = McqBank::build(&store, &batch, tc.seed ^ 0x1c2e);
        let first = integrate_more(&base, &mut method, &store, &bank, &tok, &tc);
        let second = integrate_more(&base, &mut method, &store, &bank, &tok, &tc);
        assert!(
            second.newly_integrated <= first.newly_integrated,
            "round 2 should not rediscover more unknowns: {} vs {}",
            second.newly_integrated,
            first.newly_integrated
        );
    }

    #[test]
    fn report_round_trips_through_json_file() {
        let report = IncrementalReport {
            presented: 20,
            already_known: 7,
            newly_integrated: 13,
            training: TrainingReport::default(),
        };
        let path = std::env::temp_dir().join(format!(
            "ki_increport_rt_{}/round.report.json",
            std::process::id()
        ));
        report.save(&path).unwrap();
        let loaded = IncrementalReport::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.presented, 20);
        assert_eq!(loaded.already_known, 7);
        assert_eq!(loaded.newly_integrated, 13);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let (base, mut method, store, tok) = setup();
        let bank = McqBank::build(&store, &[], 0);
        let report = integrate_more(&base, &mut method, &store, &bank, &tok, &quick_tc());
        assert_eq!(report.presented, 0);
        assert_eq!(report.newly_integrated, 0);
        assert!(report.training.qa_losses.is_empty());
    }
}
