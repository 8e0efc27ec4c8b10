//! Knowledge adapter layers (Eq. 1–2).
//!
//! Each adapted layer holds a bottleneck pair `W_down ∈ R^{d×d'}`,
//! `W_up ∈ R^{d'×d}`: the combined input `H̃_A^l = H_A^{l-1} + H_P^l` is
//! down-projected, passed through a nonlinearity σ (ReLU here, following
//! He et al. 2022's parallel-adapter formulation), and up-projected.
//! `W_up` is zero-initialized so a fresh adapter stack is an exact identity
//! on the base model — integration starts from the unmodified LLM.

use infuserki_nn::layers::{Linear, Module};
use infuserki_nn::{Exec, Val};
use infuserki_tensor::Param;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One bottleneck adapter (`d → d' → d`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdapterLayer {
    down: Linear,
    up: Linear,
}

impl AdapterLayer {
    /// New adapter for `layer` with bottleneck `d_prime`.
    pub fn new(layer: usize, d_model: usize, d_prime: usize, rng: &mut impl Rng) -> Self {
        AdapterLayer {
            down: Linear::new(
                &format!("adapter{layer}.down"),
                d_model,
                d_prime,
                0.02,
                true,
                rng,
            ),
            up: Linear::zeros(&format!("adapter{layer}.up"), d_prime, d_model, false),
        }
    }

    /// `H_A^l = σ(H̃_A^l W_down) W_up` (Eq. 2).
    pub fn forward(&self, h_tilde: &Val, e: &mut Exec) -> Val {
        let z = self.down.forward(h_tilde, e);
        let a = e.relu(z);
        self.up.forward(&a, e)
    }

    /// Bottleneck width `d'`.
    pub fn bottleneck(&self) -> usize {
        self.down.shape().1
    }

    /// Model width `d`.
    pub fn d_model(&self) -> usize {
        self.down.shape().0
    }

    /// True when the projections chain `d_model → d' → d_model`.
    pub fn fits(&self, d_model: usize) -> bool {
        self.d_model() == d_model && self.up.shape() == (self.bottleneck(), d_model)
    }
}

impl Module for AdapterLayer {
    fn visit(&self, f: &mut dyn FnMut(&Param)) {
        self.down.visit(f);
        self.up.visit(f);
    }

    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.down.visit_mut(f);
        self.up.visit_mut(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infuserki_tensor::{Matrix, Tape};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn fresh_adapter_outputs_zero() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let a = AdapterLayer::new(0, 8, 3, &mut rng);
        let mut t = Tape::new();
        let x = t.leaf(Matrix::full(4, 8, 0.7));
        let y = Exec::on_tape(&mut t, |e| a.forward(&x.into(), e));
        assert_eq!(t.value(y).shape(), (4, 8));
        assert!(t.value(y).data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn bottleneck_reported() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let a = AdapterLayer::new(2, 16, 10, &mut rng);
        assert_eq!(a.bottleneck(), 10);
    }

    #[test]
    fn parameter_count_matches_formula() {
        // d×d' + d' (bias) + d'×d (up, no bias)
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let a = AdapterLayer::new(0, 64, 10, &mut rng);
        assert_eq!(a.numel(), 64 * 10 + 10 + 10 * 64);
    }

    #[test]
    fn gradients_flow_once_trained_weights_nonzero() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut a = AdapterLayer::new(0, 4, 2, &mut rng);
        // Nudge the up-projection so the forward is non-trivial.
        a.up.weight_mut().data_mut().data_mut()[0] = 0.5;
        let mut t = Tape::new();
        let x = t.leaf(Matrix::full(1, 4, 1.0));
        let y = Exec::on_tape(&mut t, |e| a.forward(&x.into(), e));
        let ones = t.leaf(Matrix::from_vec(4, 1, vec![1.0; 4]));
        let loss = t.matmul(y, ones);
        t.backward(loss);
        let grads = t.grads();
        let mut n_with_grad = 0;
        a.visit(&mut |p| {
            if grads.get(p.id()).is_some() {
                n_with_grad += 1;
            }
        });
        assert_eq!(n_with_grad, 3); // down.w, down.b, up.w
    }
}
