//! Prefix Tuning (Li & Liang 2021): learnable key/value rows prepended to
//! every attention layer; base weights frozen.

use infuserki_nn::{Exec, LayerHook, TransformerLm, Val};
use infuserki_tensor::{init, Param};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::common::VisitTrainable;

/// Prefix-tuning hyperparameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PrefixConfig {
    /// Number of prefix positions per layer.
    pub prefix_len: usize,
    /// Init seed.
    pub seed: u64,
}

impl Default for PrefixConfig {
    fn default() -> Self {
        PrefixConfig {
            prefix_len: 8,
            seed: 0x9ef1,
        }
    }
}

/// Per-layer learnable prefix key/value rows `[p, d_model]`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PrefixTuning {
    keys: Vec<Param>,
    values: Vec<Param>,
}

impl PrefixTuning {
    /// Builds prefixes for every layer of `base`.
    pub fn new(cfg: PrefixConfig, base: &TransformerLm) -> Self {
        let d = base.config().d_model;
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let keys = (0..base.n_layers())
            .map(|l| {
                Param::new(
                    format!("prefix{l}.k"),
                    init::normal(cfg.prefix_len, d, 0.02, &mut rng),
                )
            })
            .collect();
        let values = (0..base.n_layers())
            .map(|l| {
                Param::new(
                    format!("prefix{l}.v"),
                    // Small-normal value rows: zero-init creates a saddle
                    // (dL/dP_k ∝ P_v), stalling training; real prefix-tuning
                    // implementations likewise init from nonzero activations.
                    init::normal(cfg.prefix_len, d, 0.02, &mut rng),
                )
            })
            .collect();
        PrefixTuning { keys, values }
    }

    /// Prefix length.
    pub fn prefix_len(&self) -> usize {
        self.keys.first().map(|k| k.data().rows()).unwrap_or(0)
    }
}

impl LayerHook for PrefixTuning {
    fn prefix_kv(&self, layer: usize, e: &mut Exec) -> Option<(Val, Val)> {
        let k = e.param(&self.keys[layer]);
        let v = e.param(&self.values[layer]);
        Some((k, v))
    }
}

impl VisitTrainable for PrefixTuning {
    fn visit_trainable_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for p in self.keys.iter_mut().chain(self.values.iter_mut()) {
            f(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::train_patched;
    use infuserki_nn::{LmSample, ModelConfig, NoHook};
    use infuserki_tensor::Tape;

    fn base() -> TransformerLm {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        TransformerLm::new(ModelConfig::tiny(30), &mut rng)
    }

    #[test]
    fn fresh_prefix_with_zero_values_changes_little() {
        // Zero V rows mean prefix positions contribute zero vectors weighted
        // by their attention mass — outputs shrink but stay finite.
        let b = base();
        let m = PrefixTuning::new(PrefixConfig::default(), &b);
        let mut t = Tape::new();
        let y = b.forward(&[1, 2, 3], &m, &mut t);
        assert_eq!(t.value(y).shape(), (3, 30));
        assert!(t.value(y).all_finite());
    }

    #[test]
    fn param_count() {
        let b = base();
        let mut m = PrefixTuning::new(
            PrefixConfig {
                prefix_len: 4,
                ..PrefixConfig::default()
            },
            &b,
        );
        assert_eq!(m.prefix_len(), 4);
        let expect = b.n_layers() * 2 * 4 * b.config().d_model;
        assert_eq!(m.trainable_params(), expect);
    }

    #[test]
    fn prefix_learns_a_completion() {
        let b = base();
        let mut m = PrefixTuning::new(PrefixConfig::default(), &b);
        let samples = vec![LmSample::from_completion(&[5, 6], &[7]); 4];
        let losses = train_patched(&b, &mut m, &samples, 30, 5e-3, 4, 0);
        assert!(
            losses.last().unwrap() < losses.first().unwrap(),
            "prefix tuning should reduce loss: {losses:?}"
        );
    }

    #[test]
    fn causality_preserved_with_prefix() {
        // First token's output must not depend on later tokens even with a
        // prefix (offset mask correctness).
        let b = base();
        let m = PrefixTuning::new(PrefixConfig::default(), &b);
        let run = |last: usize| {
            let mut t = Tape::new();
            let y = b.forward(&[1, 2, last], &m, &mut t);
            t.value(y).row(0).to_vec()
        };
        assert_eq!(run(5), run(9));
        // Sanity: unhooked model agrees on that invariant too.
        let mut t = Tape::new();
        let _ = b.forward(&[1, 2, 3], &NoHook, &mut t);
    }
}
