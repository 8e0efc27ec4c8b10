//! Causal multi-head self-attention with hook points for LoRA deltas and
//! prefix-tuning key/value rows.

use infuserki_tensor::Param;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::exec::{Exec, Val};
use crate::layers::{Linear, Module};
use crate::LayerHook;

/// Multi-head causal self-attention.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CausalSelfAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    n_heads: usize,
    head_dim: usize,
    layer: usize,
}

impl CausalSelfAttention {
    /// New attention module for layer index `layer`.
    pub fn new(layer: usize, d_model: usize, n_heads: usize, std: f32, rng: &mut impl Rng) -> Self {
        assert_eq!(d_model % n_heads, 0, "d_model must divide into heads");
        let p = |n: &str| format!("blk{layer}.attn.{n}");
        CausalSelfAttention {
            wq: Linear::new(&p("wq"), d_model, d_model, std, false, rng),
            wk: Linear::new(&p("wk"), d_model, d_model, std, false, rng),
            wv: Linear::new(&p("wv"), d_model, d_model, std, false, rng),
            wo: Linear::new(&p("wo"), d_model, d_model, std, false, rng),
            n_heads,
            head_dim: d_model / n_heads,
            layer,
        }
    }

    /// Forward over `x: [n, d_model]` (post-LN sublayer input). The hook may
    /// add low-rank deltas to the q/v projections and prepend prefix K/V
    /// rows. The projections and deltas are row-local, so eagerly they run
    /// once over a packed batch; the attention core (`Exec::attention`) is
    /// the one stage that mixes rows, per sequence.
    pub fn forward(&self, x: &Val, hook: &dyn LayerHook, e: &mut Exec) -> Val {
        let mut q = self.wq.forward(x, e);
        let k = self.wk.forward(x, e);
        let mut v = self.wv.forward(x, e);
        if let Some(dq) = hook.attn_q_delta(self.layer, x, e) {
            q = e.add(q, &dq);
        }
        if let Some(dv) = hook.attn_v_delta(self.layer, x, e) {
            v = e.add(v, &dv);
        }
        let merged = e.attention(self.layer, self.n_heads, &q, &k, &v, hook);
        self.wo.forward(&merged, e)
    }

    /// The query projection (LoRA targets it).
    pub fn wq(&self) -> &Linear {
        &self.wq
    }

    /// Mutable access for weight-quantization experiments (QLoRA).
    pub fn projections_mut(&mut self) -> [&mut Linear; 4] {
        [&mut self.wq, &mut self.wk, &mut self.wv, &mut self.wo]
    }
}

impl Module for CausalSelfAttention {
    fn visit(&self, f: &mut dyn FnMut(&Param)) {
        self.wq.visit(f);
        self.wk.visit(f);
        self.wv.visit(f);
        self.wo.visit(f);
    }

    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.wq.visit_mut(f);
        self.wk.visit_mut(f);
        self.wv.visit_mut(f);
        self.wo.visit_mut(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NoHook;
    use infuserki_tensor::{Matrix, NodeId, Tape};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn attn() -> CausalSelfAttention {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        CausalSelfAttention::new(0, 8, 2, 0.2, &mut rng)
    }

    fn forward(a: &CausalSelfAttention, t: &mut Tape, x: NodeId) -> NodeId {
        Exec::on_tape(t, |e| a.forward(&x.into(), &NoHook, e))
    }

    #[test]
    fn forward_shape_preserved() {
        let a = attn();
        let mut t = Tape::new();
        let x = t.leaf(Matrix::full(5, 8, 0.3));
        let y = forward(&a, &mut t, x);
        assert_eq!(t.value(y).shape(), (5, 8));
    }

    #[test]
    fn causality_first_token_ignores_future() {
        // Changing later tokens must not change the first row's output.
        let a = attn();
        let mk = |tail: f32| {
            let mut t = Tape::new();
            let mut m = Matrix::full(4, 8, 0.1);
            for c in 0..8 {
                m.set(3, c, tail);
            }
            let x = t.leaf(m);
            let y = forward(&a, &mut t, x);
            t.value(y).row(0).to_vec()
        };
        assert_eq!(mk(0.5), mk(-0.9));
    }

    #[test]
    fn later_tokens_do_attend_to_earlier() {
        let a = attn();
        let mk = |head: f32| {
            let mut t = Tape::new();
            let mut m = Matrix::full(4, 8, 0.1);
            for c in 0..8 {
                m.set(0, c, head);
            }
            let x = t.leaf(m);
            let y = forward(&a, &mut t, x);
            t.value(y).row(3).to_vec()
        };
        assert_ne!(mk(0.5), mk(-0.9));
    }

    #[test]
    fn param_count() {
        let a = attn();
        assert_eq!(a.numel(), 4 * 8 * 8);
    }

    #[test]
    fn single_token_works() {
        let a = attn();
        let mut t = Tape::new();
        let x = t.leaf(Matrix::full(1, 8, 0.2));
        let y = forward(&a, &mut t, x);
        assert_eq!(t.value(y).shape(), (1, 8));
        assert!(t.value(y).all_finite());
    }
}
