//! Layer hook points — the extension mechanism every knowledge-integration
//! method plugs into.
//!
//! The paper patches a *frozen* LLaMa-2 with extra modules at various
//! positions: parallel FFN adapters (InfuserKI, CALINET), extra FFN neurons
//! (T-Patcher), low-rank attention deltas (LoRA/QLoRA) and prepended
//! key/value prefixes (Prefix Tuning). [`LayerHook`] exposes exactly those
//! interception points on [`crate::TransformerLm`]; the base forward pass is
//! method-agnostic.

use infuserki_tensor::NodeId;

use crate::exec::{Exec, Val};

/// Per-forward observations and cross-layer hook state.
///
/// The node lists are the probe surface for the paper's analyses (Fig. 1
/// hidden states, Fig. 6 infusing scores) and are filled on the tape only.
/// The adapter carry flows in both modes: InfuserKI's cross-layer
/// accumulator `H_A^{l-1}` (Eq. 1) passes from one layer's hook invocation
/// to the next within a single forward.
#[derive(Default)]
pub struct ForwardTrace {
    /// `H_P^l`: the input of each layer's FFN sublayer (post-LayerNorm).
    pub ffn_inputs: Vec<NodeId>,
    /// The raw FFN output of each layer (before hooks).
    pub ffn_outputs: Vec<NodeId>,
    /// Each layer's block output hidden state (after both residuals).
    pub block_outputs: Vec<NodeId>,
    /// Cross-layer adapter accumulator `H_A^{l-1}` (InfuserKI Eq. 1).
    pub adapter_carry: Option<Val>,
    /// `(layer, H_A^l)` adapter outputs, for RC-phase entity pooling.
    pub adapter_outputs: Vec<(usize, NodeId)>,
    /// `(layer, r^l)` infusing-score nodes, for the Fig. 6 probe.
    pub gate_scores: Vec<(usize, NodeId)>,
    /// `(layer, logit)` pre-sigmoid infuser outputs, for the BCE infuser-
    /// tuning phase (Eq. 5).
    pub gate_logits: Vec<(usize, NodeId)>,
}

impl ForwardTrace {
    /// A fresh, empty trace.
    pub fn new() -> Self {
        ForwardTrace::default()
    }

    /// The last recorded adapter output (`H_A^L` in Eq. 9's pooling).
    pub fn last_adapter_output(&self) -> Option<NodeId> {
        self.adapter_outputs.last().map(|(_, n)| *n)
    }
}

/// Interception points on the transformer forward pass.
///
/// All methods default to "no change", so the unit struct [`NoHook`] runs the
/// vanilla model. A hook is written once against the [`Exec`] it is handed:
/// on the tape its ops record (trainable-parameter) subgraphs, and on the
/// KV-cached engine the same ops run eagerly over the packed rows of a
/// ragged batch. Every hook therefore runs on the cached engine, so output
/// row `t` may depend only on rows up to `t` of its own sequence: row-local
/// ops are batch-transparent as they are, and the one statistic that crosses
/// rows is [`Exec::cum_mean_rows`], which keeps sequences apart and resumes
/// across chunks.
pub trait LayerHook: Sync {
    /// Additive delta to the attention **query** projection output at
    /// `layer` (`x` is the attention sublayer input, post-LN). LoRA-style.
    fn attn_q_delta(&self, _layer: usize, _x: &Val, _e: &mut Exec) -> Option<Val> {
        None
    }

    /// Additive delta to the attention **value** projection output.
    fn attn_v_delta(&self, _layer: usize, _x: &Val, _e: &mut Exec) -> Option<Val> {
        None
    }

    /// Learnable key/value rows `([p, d_model], [p, d_model])` prepended to
    /// attention at `layer` (prefix tuning), in front of every head's keys
    /// and values. The cached engine asks once per cache, eagerly.
    fn prefix_kv(&self, _layer: usize, _e: &mut Exec) -> Option<(Val, Val)> {
        None
    }

    /// Rewrites the attention sublayer output (pre-residual). Used by the
    /// Fig. 5 "attention placement" ablation of the knowledge adapters.
    fn attn_output(&self, _layer: usize, _attn_in: &Val, attn_out: Val, _e: &mut Exec) -> Val {
        attn_out
    }

    /// Rewrites the FFN sublayer output (pre-residual). `ffn_in` is `H_P^l`,
    /// `ffn_out` is `FFN(H_P^l)`; InfuserKI returns
    /// `r^l · H_A^l + FFN(H_P^l)` (Eq. 6), CALINET/T-Patcher add their own
    /// corrections here.
    fn ffn_output(&self, _layer: usize, _ffn_in: &Val, ffn_out: Val, _e: &mut Exec) -> Val {
        ffn_out
    }
}

/// References forward every method to the referent, so `&dyn LayerHook` is
/// itself a `LayerHook`.
impl<H: LayerHook + ?Sized> LayerHook for &H {
    fn attn_q_delta(&self, layer: usize, x: &Val, e: &mut Exec) -> Option<Val> {
        (**self).attn_q_delta(layer, x, e)
    }

    fn attn_v_delta(&self, layer: usize, x: &Val, e: &mut Exec) -> Option<Val> {
        (**self).attn_v_delta(layer, x, e)
    }

    fn prefix_kv(&self, layer: usize, e: &mut Exec) -> Option<(Val, Val)> {
        (**self).prefix_kv(layer, e)
    }

    fn attn_output(&self, layer: usize, attn_in: &Val, attn_out: Val, e: &mut Exec) -> Val {
        (**self).attn_output(layer, attn_in, attn_out, e)
    }

    fn ffn_output(&self, layer: usize, ffn_in: &Val, ffn_out: Val, e: &mut Exec) -> Val {
        (**self).ffn_output(layer, ffn_in, ffn_out, e)
    }
}

/// A shared hook forwards like a borrowed one, so its owner can hand a
/// scheduler (which owns the hooks it serves) a handle and keep using it.
impl<H: LayerHook + Send + ?Sized> LayerHook for std::sync::Arc<H> {
    fn attn_q_delta(&self, layer: usize, x: &Val, e: &mut Exec) -> Option<Val> {
        (**self).attn_q_delta(layer, x, e)
    }

    fn attn_v_delta(&self, layer: usize, x: &Val, e: &mut Exec) -> Option<Val> {
        (**self).attn_v_delta(layer, x, e)
    }

    fn prefix_kv(&self, layer: usize, e: &mut Exec) -> Option<(Val, Val)> {
        (**self).prefix_kv(layer, e)
    }

    fn attn_output(&self, layer: usize, attn_in: &Val, attn_out: Val, e: &mut Exec) -> Val {
        (**self).attn_output(layer, attn_in, attn_out, e)
    }

    fn ffn_output(&self, layer: usize, ffn_in: &Val, ffn_out: Val, e: &mut Exec) -> Val {
        (**self).ffn_output(layer, ffn_in, ffn_out, e)
    }
}

/// The identity hook: runs the unmodified base model.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoHook;

impl LayerHook for NoHook {}

#[cfg(test)]
mod tests {
    use super::*;
    use infuserki_tensor::{Matrix, Tape};

    #[test]
    fn nohook_defaults_are_identity() {
        let mut tape = Tape::new();
        let x = Val::Node(tape.leaf(Matrix::zeros(2, 4)));
        let y = tape.leaf(Matrix::zeros(2, 4));
        let mut e = Exec::tape(&mut tape);
        let h = NoHook;
        assert!(h.attn_q_delta(0, &x, &mut e).is_none());
        assert!(h.prefix_kv(0, &mut e).is_none());
        assert_eq!(h.ffn_output(0, &x, Val::Node(y), &mut e).node(), y);
        assert_eq!(h.attn_output(0, &x, Val::Node(y), &mut e).node(), y);
    }

    #[test]
    fn trace_adapter_lookup() {
        let mut tape = Tape::new();
        let a = tape.leaf(Matrix::scalar(0.0));
        let b = tape.leaf(Matrix::scalar(0.0));
        let mut trace = ForwardTrace::new();
        assert!(trace.last_adapter_output().is_none());
        trace.adapter_outputs.push((3, a));
        trace.adapter_outputs.push((4, b));
        assert_eq!(trace.last_adapter_output(), Some(b));
    }
}
