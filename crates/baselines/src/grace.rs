//! GRACE (Hartvigsen et al. 2023): lifelong model editing with a discrete
//! key–value adapter and an ε-ball **deferral mechanism** — the adapter only
//! activates when the current activation falls inside a stored key's radius,
//! otherwise the base model runs untouched.
//!
//! Reproduction notes: as in the GRACE paper, keys are a token's own
//! activation — each row's FFN-sublayer input at the host layer — so the hook
//! is row-local and runs on the KV-cached engine like every other hook. An
//! edit's key is that input at the sample's first supervised row (the last
//! prompt row, which predicts the answer). Each entry's value is a trainable
//! vector added to the FFN output of the rows inside its ε-ball. Conflict-
//! driven radius splitting is simplified to radius shrinking against the
//! nearest differing key; the deferral behaviour — the property the paper
//! contrasts with InfuserKI's *soft* infuser gate — is exact.

use infuserki_nn::optim::{AdamW, AdamWConfig};
use infuserki_nn::{Exec, ForwardTrace, LayerHook, LmSample, NoHook, TransformerLm, Val};
use infuserki_tensor::op::IGNORE_INDEX;
use infuserki_tensor::{Matrix, Param, Tape, TrainableSet};
use serde::{Deserialize, Serialize};

use crate::common::VisitTrainable;

/// GRACE hyperparameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct GraceConfig {
    /// Host layer (GRACE edits one mid/top block).
    pub layer: usize,
    /// Initial ε radius for new codebook entries.
    pub init_radius: f32,
    /// Gradient steps per edit when fitting a value vector.
    pub steps_per_edit: usize,
    /// Learning rate for value fitting.
    pub lr: f32,
}

impl GraceConfig {
    /// Defaults for a model of `n_layers` (host at ⅔ depth).
    pub fn for_model(n_layers: usize) -> Self {
        GraceConfig {
            layer: (2 * n_layers / 3).min(n_layers - 1),
            init_radius: 3.0,
            steps_per_edit: 10,
            lr: 5e-2,
        }
    }
}

#[derive(Debug)]
struct Entry {
    key: Vec<f32>,
    value: Param,
    radius: f32,
}

/// The GRACE codebook adapter.
#[derive(Debug)]
pub struct Grace {
    cfg: GraceConfig,
    d_model: usize,
    entries: Vec<Entry>,
}

impl Grace {
    /// Empty codebook for `base`.
    pub fn new(cfg: GraceConfig, base: &TransformerLm) -> Self {
        assert!(cfg.layer < base.n_layers(), "layer out of range");
        Grace {
            cfg,
            d_model: base.config().d_model,
            entries: Vec::new(),
        }
    }

    /// Number of stored edits.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no edits are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// An edit's key: the host layer's FFN input at the sample's first
    /// supervised row. The hook itself runs only at the host layer, so the
    /// base forward computes the same row any later hooked forward keys on.
    fn edit_key(&self, base: &TransformerLm, sample: &LmSample) -> Vec<f32> {
        let row = sample
            .targets
            .iter()
            .position(|&t| t != IGNORE_INDEX)
            .expect("apply_edit: sample has no supervised row");
        let mut tape = Tape::new();
        let mut trace = ForwardTrace::new();
        base.forward_traced(&sample.tokens, &NoHook, &mut tape, &mut trace);
        tape.value(trace.ffn_inputs[self.cfg.layer])
            .row(row)
            .to_vec()
    }

    fn nearest(&self, query: &[f32]) -> Option<(usize, f32)> {
        self.entries
            .iter()
            .enumerate()
            .map(|(i, e)| (i, euclid(&e.key, query)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// The entry whose ε-ball holds `query`; `None` defers to the base.
    fn firing(&self, query: &[f32]) -> Option<usize> {
        let (i, d) = self.nearest(query)?;
        (d <= self.entries[i].radius).then_some(i)
    }

    /// Applies one edit: creates or reuses a codebook entry for the sample's
    /// key activation, then fits its value vector to the gold completion.
    /// Returns the entry index used.
    pub fn apply_edit(&mut self, base: &TransformerLm, sample: &LmSample) -> usize {
        let query = self.edit_key(base, sample);
        let idx = match self.firing(&query) {
            Some(i) => i,
            None => {
                // New entry; shrink against the closest existing key so the
                // ε-balls stay disjoint (simplified conflict handling).
                let init = self.cfg.init_radius;
                let radius = self
                    .nearest(&query)
                    .map_or(init, |(_, d)| init.min(d * 0.5));
                self.entries.push(Entry {
                    key: query,
                    value: Param::new(
                        format!("grace.v{}", self.entries.len()),
                        Matrix::zeros(1, self.d_model),
                    ),
                    radius: radius.max(1e-3),
                });
                self.entries.len() - 1
            }
        };
        // Fit the value vector on this edit: it is the only gradient the
        // tape computes, so the clip reads its norm alone.
        let mut opt = AdamW::new(AdamWConfig {
            lr: self.cfg.lr,
            weight_decay: 0.0,
            ..AdamWConfig::default()
        });
        let trainable: TrainableSet = std::iter::once(self.entries[idx].value.id()).collect();
        for _ in 0..self.cfg.steps_per_edit {
            let mut tape = Tape::with_trainable(trainable.clone());
            let loss = base.lm_loss(&sample.tokens, &sample.targets, &*self, &mut tape);
            tape.backward(loss);
            opt.step(&tape.grads(), |f| f(&mut self.entries[idx].value));
        }
        idx
    }

    /// Edits a whole set of samples sequentially (GRACE's lifelong setting).
    pub fn apply_edits(&mut self, base: &TransformerLm, samples: &[LmSample]) {
        for s in samples {
            self.apply_edit(base, s);
        }
    }
}

fn euclid(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f32>()
        .sqrt()
}

impl LayerHook for Grace {
    fn ffn_output(&self, layer: usize, ffn_in: &Val, ffn_out: Val, e: &mut Exec) -> Val {
        if layer != self.cfg.layer {
            return ffn_out;
        }
        // Deferral, row by row: a row fires the entry whose ε-ball holds its
        // own FFN input. The output is reassembled from runs of rows sharing
        // one decision; deferred runs are the base rows, copied unchanged.
        let x = e.value(ffn_in);
        let fired: Vec<Option<usize>> = (0..x.rows()).map(|r| self.firing(x.row(r))).collect();
        let mut out: Option<Val> = None;
        let mut start = 0;
        for run in fired.chunk_by(|a, b| a == b) {
            let mut part = e.slice_rows(&ffn_out, start, start + run.len());
            start += run.len();
            if let Some(i) = run[0] {
                part = e.add_row_param(part, &self.entries[i].value);
            }
            out = Some(match out {
                None => part,
                Some(prev) => e.concat_rows(&prev, &part),
            });
        }
        out.expect("a non-empty FFN output has at least one run")
    }
}

impl VisitTrainable for Grace {
    fn visit_trainable_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for e in &mut self.entries {
            f(&mut e.value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infuserki_nn::ModelConfig;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn base() -> TransformerLm {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        TransformerLm::new(ModelConfig::tiny(30), &mut rng)
    }

    #[test]
    fn empty_grace_defers_everywhere() {
        let b = base();
        let g = Grace::new(GraceConfig::for_model(b.n_layers()), &b);
        let mut t1 = Tape::new();
        let mut t2 = Tape::new();
        let plain = b.forward(&[1, 2], &NoHook, &mut t1);
        let hooked = b.forward(&[1, 2], &g, &mut t2);
        assert_eq!(t1.value(plain).data(), t2.value(hooked).data());
    }

    #[test]
    fn edit_creates_entry_and_changes_output_inside_ball() {
        let b = base();
        let mut g = Grace::new(GraceConfig::for_model(b.n_layers()), &b);
        let sample = LmSample::from_completion(&[3, 4], &[5]);
        g.apply_edit(&b, &sample);
        assert_eq!(g.len(), 1);
        // On the edited prompt, the output differs from plain.
        let mut t1 = Tape::new();
        let mut t2 = Tape::new();
        let plain = b.forward(&[3, 4], &NoHook, &mut t1);
        let hooked = b.forward(&[3, 4], &g, &mut t2);
        assert_ne!(t1.value(plain).data(), t2.value(hooked).data());
    }

    #[test]
    fn edit_fires_at_its_key_row_and_earlier_rows_stay_base() {
        let b = base();
        let mut cfg = GraceConfig::for_model(b.n_layers());
        cfg.init_radius = 1e-4; // only the keyed activation itself fires
        let mut g = Grace::new(cfg, &b);
        // Tokens [3, 4, 5]; the first supervised row, and so the key, is 2.
        g.apply_edit(&b, &LmSample::from_completion(&[3, 4, 5], &[6]));
        let (mut t1, mut t2) = (Tape::new(), Tape::new());
        let plain = b.forward(&[3, 4, 5], &NoHook, &mut t1);
        let hooked = b.forward(&[3, 4, 5], &g, &mut t2);
        let (plain, hooked) = (t1.value(plain), t2.value(hooked));
        for r in 0..2 {
            assert_eq!(plain.row(r), hooked.row(r), "row {r} must defer");
        }
        assert_ne!(plain.row(2), hooked.row(2), "the key row must fire");
    }

    #[test]
    fn deferral_leaves_distant_inputs_untouched() {
        let b = base();
        let mut cfg = GraceConfig::for_model(b.n_layers());
        cfg.init_radius = 1e-4; // tiny ball: everything else defers
        let mut g = Grace::new(cfg, &b);
        g.apply_edit(&b, &LmSample::from_completion(&[3, 4], &[5]));
        let mut t1 = Tape::new();
        let mut t2 = Tape::new();
        let plain = b.forward(&[10, 11, 12], &NoHook, &mut t1);
        let hooked = b.forward(&[10, 11, 12], &g, &mut t2);
        assert_eq!(t1.value(plain).data(), t2.value(hooked).data());
    }

    #[test]
    fn nearby_edits_share_an_entry() {
        let b = base();
        let mut cfg = GraceConfig::for_model(b.n_layers());
        cfg.init_radius = 1e6; // everything inside the first ball
        let mut g = Grace::new(cfg, &b);
        g.apply_edit(&b, &LmSample::from_completion(&[3, 4], &[5]));
        g.apply_edit(&b, &LmSample::from_completion(&[6, 7], &[8]));
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn distinct_edits_grow_the_codebook() {
        let b = base();
        let mut cfg = GraceConfig::for_model(b.n_layers());
        cfg.init_radius = 1e-6;
        let mut g = Grace::new(cfg, &b);
        g.apply_edits(
            &b,
            &[
                LmSample::from_completion(&[3, 4], &[5]),
                LmSample::from_completion(&[9, 1], &[2]),
            ],
        );
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn edit_fits_the_target_answer_direction() {
        let b = base();
        let mut g = Grace::new(GraceConfig::for_model(b.n_layers()), &b);
        let sample = LmSample::from_completion(&[3, 4], &[5]);
        let before = {
            let mut t = Tape::new();
            let l = b.lm_loss(&sample.tokens, &sample.targets, &NoHook, &mut t);
            t.value(l).scalar_value()
        };
        g.apply_edit(&b, &sample);
        let after = {
            let mut t = Tape::new();
            let l = b.lm_loss(&sample.tokens, &sample.targets, &g, &mut t);
            t.value(l).scalar_value()
        };
        assert!(after < before, "edit should lower loss: {before} → {after}");
    }
}
