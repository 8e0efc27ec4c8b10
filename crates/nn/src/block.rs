//! Pre-LN transformer decoder block with hook points on both sublayers.

use infuserki_tensor::Param;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::attention::CausalSelfAttention;
use crate::exec::{Exec, Val};
use crate::ffn::FeedForward;
use crate::hooks::LayerHook;
use crate::layers::{LayerNorm, Module};
use crate::ModelConfig;

/// One decoder layer: `x += hook(attn(LN1 x)); x += hook(FFN(LN2 x))`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TransformerBlock {
    ln1: LayerNorm,
    attn: CausalSelfAttention,
    ln2: LayerNorm,
    ffn: FeedForward,
    layer: usize,
}

impl TransformerBlock {
    /// New block for layer index `layer` (0-based).
    pub fn new(layer: usize, cfg: &ModelConfig, rng: &mut impl Rng) -> Self {
        TransformerBlock {
            ln1: LayerNorm::new(&format!("blk{layer}.ln1"), cfg.d_model, cfg.ln_eps),
            attn: CausalSelfAttention::new(layer, cfg.d_model, cfg.n_heads, cfg.init_std, rng),
            ln2: LayerNorm::new(&format!("blk{layer}.ln2"), cfg.d_model, cfg.ln_eps),
            ffn: FeedForward::new(layer, cfg.d_model, cfg.d_ff, cfg.init_std, rng),
            layer,
        }
    }

    /// Forward one block; on the tape it records the FFN sublayer's input
    /// and output and the block output in the trace. Eagerly the residual
    /// adds run in place in `x`'s storage.
    pub fn forward(&self, x: Val, hook: &dyn LayerHook, e: &mut Exec) -> Val {
        // Attention sublayer.
        let a_in = self.ln1.forward(&x, e);
        let a_raw = self.attn.forward(&a_in, hook, e);
        let a_out = hook.attn_output(self.layer, &a_in, a_raw, e);
        let x = e.add(x, &a_out);

        // FFN sublayer — `H_P^l` in the paper's notation is `f_in`.
        let f_in = self.ln2.forward(&x, e);
        let f_raw = self.ffn.forward(&f_in, e);
        if e.is_tape() {
            let trace = e.trace();
            trace.ffn_inputs.push(f_in.node());
            trace.ffn_outputs.push(f_raw.node());
        }
        let f_out = hook.ffn_output(self.layer, &f_in, f_raw, e);
        let x = e.add(x, &f_out);

        if e.is_tape() {
            e.trace().block_outputs.push(x.node());
        }
        x
    }

    /// Layer index.
    pub fn layer(&self) -> usize {
        self.layer
    }

    /// The attention module.
    pub fn attn(&self) -> &CausalSelfAttention {
        &self.attn
    }

    /// Mutable attention module (quantization).
    pub fn attn_mut(&mut self) -> &mut CausalSelfAttention {
        &mut self.attn
    }

    /// The FFN module.
    pub fn ffn(&self) -> &FeedForward {
        &self.ffn
    }

    /// Mutable FFN module (quantization).
    pub fn ffn_mut(&mut self) -> &mut FeedForward {
        &mut self.ffn
    }
}

impl Module for TransformerBlock {
    fn visit(&self, f: &mut dyn FnMut(&Param)) {
        self.ln1.visit(f);
        self.attn.visit(f);
        self.ln2.visit(f);
        self.ffn.visit(f);
    }

    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.ln1.visit_mut(f);
        self.attn.visit_mut(f);
        self.ln2.visit_mut(f);
        self.ffn.visit_mut(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::{ForwardTrace, NoHook};
    use infuserki_tensor::{Matrix, NodeId, Tape};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn block() -> TransformerBlock {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let cfg = ModelConfig::tiny(50);
        TransformerBlock::new(0, &cfg, &mut rng)
    }

    /// One tape forward of `b` over `x`, returning the output and the trace.
    fn forward(b: &TransformerBlock, t: &mut Tape, x: NodeId) -> (NodeId, ForwardTrace) {
        let mut e = Exec::tape(t);
        let y = b.forward(x.into(), &NoHook, &mut e).node();
        let mut trace = ForwardTrace::new();
        e.swap_trace(&mut trace);
        (y, trace)
    }

    #[test]
    fn forward_records_trace() {
        let b = block();
        let mut t = Tape::new();
        let x = t.leaf(Matrix::full(4, 16, 0.1));
        let (y, trace) = forward(&b, &mut t, x);
        assert_eq!(t.value(y).shape(), (4, 16));
        assert_eq!(trace.ffn_inputs.len(), 1);
        assert_eq!(trace.ffn_outputs.len(), 1);
        assert_eq!(trace.block_outputs.len(), 1);
        assert_eq!(trace.block_outputs[0], y);
    }

    #[test]
    fn residual_path_active() {
        // Output differs from input (sublayers contribute) but correlates with
        // it (residual). Check the former.
        let b = block();
        let mut t = Tape::new();
        let x = t.leaf(Matrix::full(2, 16, 0.4));
        let (y, _) = forward(&b, &mut t, x);
        assert_ne!(t.value(y).data(), t.value(x).data());
        assert!(t.value(y).all_finite());
    }

    #[test]
    fn param_visit_covers_all() {
        let b = block();
        let mut names = Vec::new();
        b.visit(&mut |p| names.push(p.name().to_string()));
        assert!(names.iter().any(|n| n.contains("ln1")));
        assert!(names.iter().any(|n| n.contains("attn.wq")));
        assert!(names.iter().any(|n| n.contains("ffn.w2")));
        // 2 LN × 2 + attn × 4 + ffn × 4 (w+b each)
        assert_eq!(names.len(), 2 + 4 + 2 + 4);
    }
}
