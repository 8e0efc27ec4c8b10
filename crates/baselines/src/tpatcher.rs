//! T-Patcher (Huang et al. 2023): a few trainable "patch" neurons appended
//! to the **last** FFN layer — one-mistake-one-neuron model editing.

use infuserki_nn::layers::{Linear, Module};
use infuserki_nn::{Exec, LayerHook, TransformerLm, Val};
use infuserki_tensor::Param;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::common::VisitTrainable;

/// T-Patcher hyperparameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TPatcherConfig {
    /// Number of patch neurons appended to the last FFN layer.
    pub patches: usize,
    /// Init seed.
    pub seed: u64,
}

impl Default for TPatcherConfig {
    fn default() -> Self {
        TPatcherConfig {
            patches: 32,
            seed: 0x7a7c,
        }
    }
}

/// Patch neurons on the final FFN: `Δ = relu(x K + b) V`, keyed on the FFN
/// input so each neuron fires for its trigger pattern.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TPatcher {
    last_layer: usize,
    keys: Linear,
    values: Linear,
}

impl TPatcher {
    /// Builds the patch head for `base`'s last layer.
    pub fn new(cfg: TPatcherConfig, base: &TransformerLm) -> Self {
        let d = base.config().d_model;
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        TPatcher {
            last_layer: base.n_layers() - 1,
            keys: Linear::new("tpatcher.k", d, cfg.patches, 0.02, true, &mut rng),
            values: Linear::zeros("tpatcher.v", cfg.patches, d, false),
        }
    }

    /// The patched layer (always the last).
    pub fn layer(&self) -> usize {
        self.last_layer
    }
}

impl LayerHook for TPatcher {
    fn ffn_output(&self, layer: usize, ffn_in: &Val, ffn_out: Val, e: &mut Exec) -> Val {
        if layer != self.last_layer {
            return ffn_out;
        }
        let k = self.keys.forward(ffn_in, e);
        let a = e.relu(k);
        let delta = self.values.forward(&a, e);
        e.add(ffn_out, &delta)
    }
}

impl VisitTrainable for TPatcher {
    fn visit_trainable_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.keys.visit_mut(f);
        self.values.visit_mut(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::train_patched;
    use infuserki_nn::{LmSample, ModelConfig, NoHook};
    use infuserki_tensor::Tape;

    fn base() -> TransformerLm {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        TransformerLm::new(ModelConfig::tiny(30), &mut rng)
    }

    #[test]
    fn fresh_patcher_is_identity() {
        let b = base();
        let m = TPatcher::new(TPatcherConfig::default(), &b);
        let mut t1 = Tape::new();
        let mut t2 = Tape::new();
        let plain = b.forward(&[1, 2], &NoHook, &mut t1);
        let hooked = b.forward(&[1, 2], &m, &mut t2);
        assert_eq!(t1.value(plain).data(), t2.value(hooked).data());
        assert_eq!(m.layer(), b.n_layers() - 1);
    }

    #[test]
    fn patcher_learns_a_completion() {
        let b = base();
        let mut m = TPatcher::new(TPatcherConfig::default(), &b);
        let samples = vec![LmSample::from_completion(&[5, 6], &[7]); 4];
        let losses = train_patched(&b, &mut m, &samples, 25, 5e-3, 4, 0);
        assert!(losses.last().unwrap() < losses.first().unwrap());
    }

    #[test]
    fn param_count_scales_with_patches() {
        let b = base();
        let mut small = TPatcher::new(
            TPatcherConfig {
                patches: 4,
                seed: 0,
            },
            &b,
        );
        let mut large = TPatcher::new(
            TPatcherConfig {
                patches: 16,
                seed: 0,
            },
            &b,
        );
        assert!(large.trainable_params() > small.trainable_params());
    }
}
