//! Full MCQ evaluation of one method: NR, RR, per-template F1, F1_Unseen.

use infuserki_core::dataset::McqBank;
use infuserki_core::detect::{answer_mcq_batch, MCQ_BATCH};
use infuserki_nn::{LayerHook, TransformerLm};
use infuserki_text::templates::{N_QA_TEMPLATES, UNSEEN_TEMPLATES};
use infuserki_text::Tokenizer;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::metrics::{macro_f1, subset_accuracy, McqOutcome};

/// A full metric row for one method — the columns of Tables 1–3.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MethodEval {
    /// Newly-learned rate (reliability): accuracy on initially unknown facts.
    pub nr: f32,
    /// Remembering rate (locality): accuracy on initially known facts.
    pub rr: f32,
    /// Macro-F1 per template (T1–T5; T1–T2 seen, T3–T5 unseen).
    pub f1_templates: [f32; N_QA_TEMPLATES],
    /// Mean F1 over the unseen templates.
    pub f1_unseen: f32,
}

impl MethodEval {
    /// Renders the row in the paper's column order.
    pub fn row(&self, name: &str) -> String {
        let fmt = |v: f32| {
            if v.is_nan() {
                "  -  ".to_string()
            } else {
                format!("{v:.2}")
            }
        };
        format!(
            "{name:<16} {} {}  {} {}  {} {} {}  {}",
            fmt(self.nr),
            fmt(self.rr),
            fmt(self.f1_templates[0]),
            fmt(self.f1_templates[1]),
            fmt(self.f1_templates[2]),
            fmt(self.f1_templates[3]),
            fmt(self.f1_templates[4]),
            fmt(self.f1_unseen),
        )
    }
}

/// Answers every MCQ of one template — chunks of [`MCQ_BATCH`] questions run
/// as one ragged decode batch, and the chunks spread across the thread pool.
pub fn answer_template(
    model: &TransformerLm,
    hook: &dyn LayerHook,
    tokenizer: &Tokenizer,
    bank: &McqBank,
    template: usize,
) -> Vec<McqOutcome> {
    bank.template(template)
        .par_chunks(MCQ_BATCH)
        .map(|chunk| {
            answer_mcq_batch(model, hook, tokenizer, chunk)
                .into_iter()
                .zip(chunk)
                .map(|(pred, mcq)| McqOutcome {
                    gold: mcq.correct,
                    pred,
                })
                .collect::<Vec<McqOutcome>>()
        })
        .collect::<Vec<Vec<McqOutcome>>>()
        .concat()
}

/// Evaluates a method over the bank: NR/RR on the detection template (T1),
/// macro-F1 on every template, and F1_Unseen.
///
/// `known`/`unknown` are the detection partition indices (N1+N2 / N3+N4).
pub fn evaluate_method(
    model: &TransformerLm,
    hook: &dyn LayerHook,
    tokenizer: &Tokenizer,
    bank: &McqBank,
    known: &[usize],
    unknown: &[usize],
) -> MethodEval {
    let mut f1_templates = [0.0f32; N_QA_TEMPLATES];
    let mut nr = f32::NAN;
    let mut rr = f32::NAN;
    for (tpl, f1_slot) in f1_templates.iter_mut().enumerate() {
        let outcomes = answer_template(model, hook, tokenizer, bank, tpl);
        *f1_slot = macro_f1(&outcomes, 4);
        if tpl == 0 {
            nr = subset_accuracy(&outcomes, unknown);
            rr = subset_accuracy(&outcomes, known);
        }
    }
    let f1_unseen = UNSEEN_TEMPLATES
        .iter()
        .map(|&t| f1_templates[t])
        .sum::<f32>()
        / UNSEEN_TEMPLATES.len() as f32;
    MethodEval {
        nr,
        rr,
        f1_templates,
        f1_unseen,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{build_world_in, Domain, WorldConfig};
    use infuserki_nn::NoHook;

    #[test]
    fn evaluate_untrained_world_produces_full_row() {
        let dir = std::env::temp_dir().join(format!("infuserki_eval_{}", std::process::id()));
        let w = build_world_in(&WorldConfig::tiny(Domain::MetaQa, 3), &dir);
        let known: Vec<usize> = (0..10).collect();
        let unknown: Vec<usize> = (10..40).collect();
        let eval = evaluate_method(&w.base, &NoHook, &w.tokenizer, &w.bank, &known, &unknown);
        assert!(eval.nr >= 0.0 && eval.nr <= 1.0);
        assert!(eval.rr >= 0.0 && eval.rr <= 1.0);
        for f in eval.f1_templates {
            assert!(f.is_nan() || (0.0..=1.0).contains(&f));
        }
        let row = eval.row("vanilla");
        assert!(row.starts_with("vanilla"));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn empty_subsets_render_as_dash() {
        let w = MethodEval {
            nr: f32::NAN,
            rr: 0.5,
            f1_templates: [0.1, 0.2, 0.3, 0.4, 0.5],
            f1_unseen: 0.4,
        };
        assert!(w.row("x").contains("-"));
    }
}
