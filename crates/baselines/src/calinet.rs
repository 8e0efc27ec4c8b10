//! CALINET (Dong et al. 2022): a calibration memory — extra FFN-style slots —
//! added to **one specific FFN layer** in the top region of the transformer,
//! trained to correct false factual predictions while the base stays frozen.

use infuserki_nn::layers::{Linear, Module};
use infuserki_nn::{Exec, LayerHook, TransformerLm, Val};
use infuserki_tensor::Param;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::common::VisitTrainable;

/// CALINET hyperparameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CalinetConfig {
    /// Which FFN layer hosts the calibration memory (0-based). The paper
    /// places it in the top region; [`CalinetConfig::for_model`] uses ¾ depth.
    pub layer: usize,
    /// Number of calibration memory slots.
    pub slots: usize,
    /// Init seed.
    pub seed: u64,
}

impl CalinetConfig {
    /// Default placement for a model of `n_layers`: the ¾-depth FFN layer.
    pub fn for_model(n_layers: usize) -> Self {
        CalinetConfig {
            layer: (3 * n_layers / 4).min(n_layers - 1),
            slots: 48,
            seed: 0xca11,
        }
    }
}

/// The calibration memory: `ΔFFN(x) = gelu(x K) V`, added to the host FFN's
/// output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Calinet {
    cfg: CalinetConfig,
    keys: Linear,
    values: Linear,
}

impl Calinet {
    /// Builds the memory for `base`.
    pub fn new(cfg: CalinetConfig, base: &TransformerLm) -> Self {
        assert!(cfg.layer < base.n_layers(), "layer out of range");
        let d = base.config().d_model;
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        Calinet {
            keys: Linear::new("calinet.k", d, cfg.slots, 0.02, true, &mut rng),
            values: Linear::zeros("calinet.v", cfg.slots, d, false),
            cfg,
        }
    }

    /// Host layer index.
    pub fn layer(&self) -> usize {
        self.cfg.layer
    }
}

impl LayerHook for Calinet {
    fn ffn_output(&self, layer: usize, ffn_in: &Val, ffn_out: Val, e: &mut Exec) -> Val {
        if layer != self.cfg.layer {
            return ffn_out;
        }
        let k = self.keys.forward(ffn_in, e);
        let a = e.gelu(k);
        let delta = self.values.forward(&a, e);
        e.add(ffn_out, &delta)
    }
}

impl VisitTrainable for Calinet {
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
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        TransformerLm::new(ModelConfig::tiny(30), &mut rng)
    }

    #[test]
    fn fresh_calinet_is_identity() {
        let b = base();
        let m = Calinet::new(CalinetConfig::for_model(b.n_layers()), &b);
        let mut t1 = Tape::new();
        let mut t2 = Tape::new();
        let plain = b.forward(&[1, 2], &NoHook, &mut t1);
        let hooked = b.forward(&[1, 2], &m, &mut t2);
        assert_eq!(t1.value(plain).data(), t2.value(hooked).data());
    }

    #[test]
    fn default_placement_is_top_region() {
        let cfg = CalinetConfig::for_model(12);
        assert_eq!(cfg.layer, 9);
        let tiny = CalinetConfig::for_model(2);
        assert!(tiny.layer < 2);
    }

    #[test]
    fn calinet_learns_a_completion() {
        let b = base();
        let mut m = Calinet::new(CalinetConfig::for_model(b.n_layers()), &b);
        let samples = vec![LmSample::from_completion(&[5, 6], &[7]); 4];
        let losses = train_patched(&b, &mut m, &samples, 25, 5e-3, 4, 0);
        assert!(losses.last().unwrap() < losses.first().unwrap());
    }

    #[test]
    #[should_panic(expected = "layer out of range")]
    fn rejects_bad_layer() {
        let b = base();
        Calinet::new(
            CalinetConfig {
                layer: 99,
                slots: 4,
                seed: 0,
            },
            &b,
        );
    }
}
