//! LoRA (Hu et al. 2021): trainable low-rank deltas on the attention query
//! and value projections, frozen base weights.

use infuserki_nn::layers::{Linear, Module};
use infuserki_nn::{Exec, LayerHook, TransformerLm, Val};
use infuserki_tensor::Param;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::common::VisitTrainable;

/// LoRA hyperparameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LoraConfig {
    /// Rank `r` of the update matrices.
    pub rank: usize,
    /// Scaling `α`; the delta is `(α / r) · x A B`.
    pub alpha: f32,
    /// Init seed.
    pub seed: u64,
}

impl Default for LoraConfig {
    fn default() -> Self {
        LoraConfig {
            rank: 8,
            alpha: 16.0,
            seed: 0x10ea,
        }
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct LoraPair {
    a: Linear,
    b: Linear,
}

impl LoraPair {
    fn new(name: &str, d: usize, rank: usize, rng: &mut impl rand::Rng) -> Self {
        LoraPair {
            // A ~ N(0, σ²), B = 0 — standard LoRA init: delta starts at zero.
            a: Linear::new(&format!("{name}.A"), d, rank, 0.02, false, rng),
            b: Linear::zeros(&format!("{name}.B"), rank, d, false),
        }
    }

    fn delta(&self, x: &Val, scale: f32, e: &mut Exec) -> Val {
        let low = self.a.forward(x, e);
        let up = self.b.forward(&low, e);
        e.scale(up, scale)
    }
}

/// Low-rank adaptation of every layer's Wq and Wv.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LoraMethod {
    cfg: LoraConfig,
    q: Vec<LoraPair>,
    v: Vec<LoraPair>,
}

impl LoraMethod {
    /// Builds LoRA modules for every layer of `base`.
    pub fn new(cfg: LoraConfig, base: &TransformerLm) -> Self {
        let d = base.config().d_model;
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let q = (0..base.n_layers())
            .map(|l| LoraPair::new(&format!("lora{l}.q"), d, cfg.rank, &mut rng))
            .collect();
        let v = (0..base.n_layers())
            .map(|l| LoraPair::new(&format!("lora{l}.v"), d, cfg.rank, &mut rng))
            .collect();
        LoraMethod { cfg, q, v }
    }

    fn scale(&self) -> f32 {
        self.cfg.alpha / self.cfg.rank as f32
    }
}

impl LayerHook for LoraMethod {
    fn attn_q_delta(&self, layer: usize, x: &Val, e: &mut Exec) -> Option<Val> {
        Some(self.q[layer].delta(x, self.scale(), e))
    }

    fn attn_v_delta(&self, layer: usize, x: &Val, e: &mut Exec) -> Option<Val> {
        Some(self.v[layer].delta(x, self.scale(), e))
    }
}

impl VisitTrainable for LoraMethod {
    fn visit_trainable_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for p in self.q.iter_mut().chain(self.v.iter_mut()) {
            p.a.visit_mut(f);
            p.b.visit_mut(f);
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
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        TransformerLm::new(ModelConfig::tiny(30), &mut rng)
    }

    #[test]
    fn fresh_lora_is_identity() {
        let b = base();
        let m = LoraMethod::new(LoraConfig::default(), &b);
        let mut t1 = Tape::new();
        let mut t2 = Tape::new();
        let plain = b.forward(&[1, 2, 3], &NoHook, &mut t1);
        let hooked = b.forward(&[1, 2, 3], &m, &mut t2);
        assert_eq!(t1.value(plain).data(), t2.value(hooked).data());
    }

    #[test]
    fn lora_param_count() {
        let b = base();
        let mut m = LoraMethod::new(
            LoraConfig {
                rank: 4,
                ..LoraConfig::default()
            },
            &b,
        );
        let d = b.config().d_model;
        let expect = b.n_layers() * 2 * (d * 4 + 4 * d);
        assert_eq!(m.trainable_params(), expect);
    }

    #[test]
    fn lora_learns_a_completion() {
        let b = base();
        let mut m = LoraMethod::new(LoraConfig::default(), &b);
        let samples = vec![LmSample::from_completion(&[5, 6], &[7]); 4];
        let losses = train_patched(&b, &mut m, &samples, 40, 1e-2, 4, 0);
        assert!(
            losses.last().unwrap() < losses.first().unwrap(),
            "LoRA should reduce loss: {losses:?}"
        );
    }
}
