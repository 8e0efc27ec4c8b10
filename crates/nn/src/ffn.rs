//! Position-wise feed-forward network — the sublayer the paper identifies as
//! the transformer's factual-knowledge store (Dai et al. 2022; Geva et al.
//! 2021) and the anchor point for knowledge adapters.

use infuserki_tensor::Param;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::exec::{Exec, Val};
use crate::layers::{Linear, Module};

/// Two-layer GELU MLP: `W2(gelu(W1 x + b1)) + b2`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FeedForward {
    w1: Linear,
    w2: Linear,
}

impl FeedForward {
    /// New FFN for layer `layer` with inner width `d_ff`.
    pub fn new(layer: usize, d_model: usize, d_ff: usize, std: f32, rng: &mut impl Rng) -> Self {
        FeedForward {
            w1: Linear::new(&format!("blk{layer}.ffn.w1"), d_model, d_ff, std, true, rng),
            w2: Linear::new(&format!("blk{layer}.ffn.w2"), d_ff, d_model, std, true, rng),
        }
    }

    /// `FFN(x)`. Row-local, so it is batch-transparent: applied eagerly to a
    /// packed multi-sequence matrix, each row's output is bitwise (at one
    /// kernel thread) what it would be with that sequence alone.
    pub fn forward(&self, x: &Val, e: &mut Exec) -> Val {
        let h = self.w1.forward(x, e);
        let a = e.gelu(h);
        self.w2.forward(&a, e)
    }

    /// Inner width (T-Patcher appends neurons logically after this).
    pub fn d_ff(&self) -> usize {
        self.w1.shape().1
    }

    /// Second projection (down from the FFN's value space).
    pub fn w2(&self) -> &Linear {
        &self.w2
    }

    /// Mutable projections for quantization experiments.
    pub fn projections_mut(&mut self) -> [&mut Linear; 2] {
        [&mut self.w1, &mut self.w2]
    }
}

impl Module for FeedForward {
    fn visit(&self, f: &mut dyn FnMut(&Param)) {
        self.w1.visit(f);
        self.w2.visit(f);
    }

    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.w1.visit_mut(f);
        self.w2.visit_mut(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infuserki_tensor::{Matrix, Tape};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn forward_shape() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let f = FeedForward::new(0, 8, 16, 0.2, &mut rng);
        let mut t = Tape::new();
        let x = t.leaf(Matrix::full(3, 8, 0.5));
        let y = Exec::on_tape(&mut t, |e| f.forward(&x.into(), e));
        assert_eq!(t.value(y).shape(), (3, 8));
        assert_eq!(f.d_ff(), 16);
    }

    #[test]
    fn rows_are_independent() {
        // Position-wise: changing one row must not affect another.
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let f = FeedForward::new(0, 4, 8, 0.3, &mut rng);
        let run = |second_row: f32| {
            let mut t = Tape::new();
            let mut m = Matrix::full(2, 4, 0.2);
            for c in 0..4 {
                m.set(1, c, second_row);
            }
            let x = t.leaf(m);
            let y = Exec::on_tape(&mut t, |e| f.forward(&x.into(), e));
            t.value(y).row(0).to_vec()
        };
        assert_eq!(run(1.0), run(-1.0));
    }

    #[test]
    fn numel() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let f = FeedForward::new(0, 4, 8, 0.3, &mut rng);
        assert_eq!(f.numel(), 4 * 8 + 8 + 8 * 4 + 4);
    }
}
