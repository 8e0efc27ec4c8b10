//! Layer hook points — the extension mechanism every knowledge-integration
//! method plugs into.
//!
//! The paper patches a *frozen* LLaMa-2 with extra modules at various
//! positions: parallel FFN adapters (InfuserKI, CALINET), extra FFN neurons
//! (T-Patcher), low-rank attention deltas (LoRA/QLoRA) and prepended
//! key/value prefixes (Prefix Tuning). [`LayerHook`] exposes exactly those
//! interception points on [`crate::TransformerLm`]; the base forward pass is
//! method-agnostic.

use infuserki_tensor::{Matrix, NodeId, SeqBatch, Tape};

/// Per-forward observations and cross-layer hook state.
///
/// The trace doubles as (a) the probe surface for the paper's analyses
/// (Fig. 1 hidden states, Fig. 6 infusing scores) and (b) the carrier of the
/// InfuserKI adapter's cross-layer accumulator `H_A^{l-1}` (Eq. 1), which must
/// flow from one layer's hook invocation to the next within a single forward.
#[derive(Default)]
pub struct ForwardTrace {
    /// `H_P^l`: the input of each layer's FFN sublayer (post-LayerNorm).
    pub ffn_inputs: Vec<NodeId>,
    /// The raw FFN output of each layer (before hooks).
    pub ffn_outputs: Vec<NodeId>,
    /// Each layer's block output hidden state (after both residuals).
    pub block_outputs: Vec<NodeId>,
    /// Cross-layer adapter accumulator `H_A^{l-1}` (InfuserKI Eq. 1).
    pub adapter_carry: Option<NodeId>,
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

    /// The adapter output recorded at `layer`, if any.
    pub fn adapter_output_at(&self, layer: usize) -> Option<NodeId> {
        self.adapter_outputs
            .iter()
            .find(|(l, _)| *l == layer)
            .map(|(_, n)| *n)
    }

    /// The last recorded adapter output (`H_A^L` in Eq. 9's pooling).
    pub fn last_adapter_output(&self) -> Option<NodeId> {
        self.adapter_outputs.last().map(|(_, n)| *n)
    }
}

/// Persistent, forkable hook state carried by a KV cache across incremental
/// forward chunks.
///
/// Hooks whose tape-free path needs memory between chunks (InfuserKI's
/// cross-layer adapter carry and cumulative gate statistics) store it here;
/// the cache clones it on [`crate::KvCache::fork`] so shared-prefix decoding
/// branches evolve independently.
pub trait HookState: Send {
    /// Clones the state for a cache fork.
    fn clone_box(&self) -> Box<dyn HookState>;

    /// Downcast access for the owning hook's `infer_*` overrides.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;

    /// Called at the start of every incremental chunk. Per-forward state
    /// (like the adapter carry, which flows across *layers*, not tokens)
    /// resets here; per-token state (cumulative gate sums) persists.
    fn begin_chunk(&mut self) {}
}

impl Clone for Box<dyn HookState> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Interception points on the transformer forward pass.
///
/// All methods default to "no change", so the unit struct [`NoHook`] runs the
/// vanilla model. Implementations receive the tape to record their own
/// (trainable-parameter) subgraphs; the trace carries per-forward state.
///
/// The `infer_*` family mirrors the tape methods on plain [`Matrix`] values
/// for the KV-cached inference engine. The sublayer-output pair has one form,
/// the packed ragged batch: the input/output matrices hold every sequence's
/// chunk row-wise per [`SeqBatch`], and `states` holds one entry per
/// sequence. A single sequence is a batch of one; there is no second form.
///
/// The defaults emulate the tape hook on a throwaway scratch tape, one
/// sequence at a time. That is bitwise-correct for every row-local,
/// stateless hook (LoRA deltas, prefix K/V, CALINET/T-Patcher corrections,
/// GRACE's per-row ε-ball lookup) under any chunking and any batch
/// composition. Hooks with cross-layer or cross-chunk state override the
/// pair natively (InfuserKI fuses its adapter/infuser matmuls across the
/// batch while keeping carry and gate statistics strictly per sequence).
/// Every hook runs on the KV-cached engine, so output row `t` may depend
/// only on tokens up to `t`.
///
/// The *projection* hooks (`infer_attn_q_delta`, `infer_attn_v_delta`) are
/// applied to the packed `[total, d]` chunk directly, so they must be
/// row-local: output row `i` may depend only on input row `i` (true of every
/// LoRA-style delta). Hooks needing per-sequence projection context must
/// override the sublayer-output hooks instead.
pub trait LayerHook: Sync {
    /// Additive delta to the attention **query** projection output at
    /// `layer` (`x` is the attention sublayer input, post-LN). LoRA-style.
    fn attn_q_delta(&self, _layer: usize, _x: NodeId, _tape: &mut Tape) -> Option<NodeId> {
        None
    }

    /// Additive delta to the attention **value** projection output.
    fn attn_v_delta(&self, _layer: usize, _x: NodeId, _tape: &mut Tape) -> Option<NodeId> {
        None
    }

    /// Learnable key/value rows `([p, d_model], [p, d_model])` prepended to
    /// attention at `layer` (prefix tuning). Rows are split per-head by the
    /// attention module.
    fn prefix_kv(&self, _layer: usize, _tape: &mut Tape) -> Option<(NodeId, NodeId)> {
        None
    }

    /// Rewrites the attention sublayer output (pre-residual). Used by the
    /// Fig. 5 "attention placement" ablation of the knowledge adapters.
    fn attn_output(
        &self,
        _layer: usize,
        _attn_in: NodeId,
        attn_out: NodeId,
        _tape: &mut Tape,
        _trace: &mut ForwardTrace,
    ) -> NodeId {
        attn_out
    }

    /// Rewrites the FFN sublayer output (pre-residual). `ffn_in` is `H_P^l`,
    /// `ffn_out` is `FFN(H_P^l)`; InfuserKI returns
    /// `r^l · H_A^l + FFN(H_P^l)` (Eq. 6), CALINET/T-Patcher add their own
    /// corrections here.
    fn ffn_output(
        &self,
        _layer: usize,
        _ffn_in: NodeId,
        ffn_out: NodeId,
        _tape: &mut Tape,
        _trace: &mut ForwardTrace,
    ) -> NodeId {
        ffn_out
    }

    /// Fresh per-cache state for the `infer_*` path, if this hook needs any.
    fn make_state(&self) -> Option<Box<dyn HookState>> {
        None
    }

    /// Whether cached KV blocks *and hook-state snapshots* taken at a token
    /// boundary may be adopted by a different request with the same token
    /// prefix (the serving prefix cache). Safe exactly when the per-sequence
    /// state after feeding a prefix is a pure function of that prefix — no
    /// dependence on wall clock, request identity, or cross-sequence
    /// statistics. Stateless hooks are trivially safe; stateful hooks must
    /// opt in explicitly after checking that rule (InfuserKI's cross-layer
    /// carry qualifies: the per-chunk carry resets at `begin_chunk` and the
    /// cumulative gate statistics are prefix-determined). When this returns
    /// `false` the scheduler disables cross-request sharing rather than risk
    /// divergence.
    fn prefix_cache_safe(&self) -> bool {
        self.make_state().is_none()
    }

    /// Tape-free counterpart of [`LayerHook::attn_q_delta`].
    fn infer_attn_q_delta(&self, layer: usize, x: &Matrix) -> Option<Matrix> {
        let mut tape = Tape::new();
        let xn = tape.leaf(x.clone());
        let d = self.attn_q_delta(layer, xn, &mut tape)?;
        Some(tape.value(d).clone())
    }

    /// Tape-free counterpart of [`LayerHook::attn_v_delta`].
    fn infer_attn_v_delta(&self, layer: usize, x: &Matrix) -> Option<Matrix> {
        let mut tape = Tape::new();
        let xn = tape.leaf(x.clone());
        let d = self.attn_v_delta(layer, xn, &mut tape)?;
        Some(tape.value(d).clone())
    }

    /// Tape-free counterpart of [`LayerHook::prefix_kv`].
    fn infer_prefix_kv(&self, layer: usize) -> Option<(Matrix, Matrix)> {
        let mut tape = Tape::new();
        let (k, v) = self.prefix_kv(layer, &mut tape)?;
        Some((tape.value(k).clone(), tape.value(v).clone()))
    }

    /// Tape-free counterpart of [`LayerHook::attn_output`] over a packed
    /// ragged batch. `states[i]` is sequence `i`'s cache hook state (if
    /// [`LayerHook::make_state`] provided one).
    fn infer_attn_output(
        &self,
        layer: usize,
        attn_in: &Matrix,
        attn_out: Matrix,
        batch: &SeqBatch,
        states: &mut [Option<Box<dyn HookState>>],
    ) -> Matrix {
        debug_assert_eq!(batch.n_seqs(), states.len());
        emulate_per_sequence(attn_in, attn_out, batch, |i, o, tape, trace| {
            self.attn_output(layer, i, o, tape, trace)
        })
    }

    /// Tape-free counterpart of [`LayerHook::ffn_output`] over a packed
    /// ragged batch; `states` as for [`LayerHook::infer_attn_output`].
    fn infer_ffn_output(
        &self,
        layer: usize,
        ffn_in: &Matrix,
        ffn_out: Matrix,
        batch: &SeqBatch,
        states: &mut [Option<Box<dyn HookState>>],
    ) -> Matrix {
        debug_assert_eq!(batch.n_seqs(), states.len());
        emulate_per_sequence(ffn_in, ffn_out, batch, |i, o, tape, trace| {
            self.ffn_output(layer, i, o, tape, trace)
        })
    }
}

/// The default sublayer-output inference: runs the tape hook `f` on each
/// sequence's row block alone, on a scratch tape with a fresh trace, and
/// writes the result back in place.
fn emulate_per_sequence(
    sub_in: &Matrix,
    sub_out: Matrix,
    batch: &SeqBatch,
    f: impl Fn(NodeId, NodeId, &mut Tape, &mut ForwardTrace) -> NodeId,
) -> Matrix {
    let mut out = sub_out;
    for r in batch.ranges() {
        let mut tape = Tape::new();
        let mut trace = ForwardTrace::new();
        let i = tape.leaf(sub_in.slice_rows(r.start, r.end));
        let o = tape.leaf(out.slice_rows(r.start, r.end));
        let res = f(i, o, &mut tape, &mut trace);
        out.copy_rows_from(r.start, tape.value(res));
    }
    out
}

/// References forward every method to the referent. This must cover the
/// *entire* trait: relying on the default bodies here would silently replace
/// a hook's native overrides (e.g. [`NoHook`]'s identity fast paths or
/// InfuserKI's packed kernels) with the scratch-tape emulation,
/// breaking bitwise equality for stateful hooks. With this impl,
/// `&dyn LayerHook` is itself a `LayerHook`, which lets owners of a borrowed
/// hook re-share it behind `Arc` (the serving bundle registry does).
impl<H: LayerHook + ?Sized> LayerHook for &H {
    fn attn_q_delta(&self, layer: usize, x: NodeId, tape: &mut Tape) -> Option<NodeId> {
        (**self).attn_q_delta(layer, x, tape)
    }

    fn attn_v_delta(&self, layer: usize, x: NodeId, tape: &mut Tape) -> Option<NodeId> {
        (**self).attn_v_delta(layer, x, tape)
    }

    fn prefix_kv(&self, layer: usize, tape: &mut Tape) -> Option<(NodeId, NodeId)> {
        (**self).prefix_kv(layer, tape)
    }

    fn attn_output(
        &self,
        layer: usize,
        attn_in: NodeId,
        attn_out: NodeId,
        tape: &mut Tape,
        trace: &mut ForwardTrace,
    ) -> NodeId {
        (**self).attn_output(layer, attn_in, attn_out, tape, trace)
    }

    fn ffn_output(
        &self,
        layer: usize,
        ffn_in: NodeId,
        ffn_out: NodeId,
        tape: &mut Tape,
        trace: &mut ForwardTrace,
    ) -> NodeId {
        (**self).ffn_output(layer, ffn_in, ffn_out, tape, trace)
    }

    fn make_state(&self) -> Option<Box<dyn HookState>> {
        (**self).make_state()
    }

    fn prefix_cache_safe(&self) -> bool {
        (**self).prefix_cache_safe()
    }

    fn infer_attn_q_delta(&self, layer: usize, x: &Matrix) -> Option<Matrix> {
        (**self).infer_attn_q_delta(layer, x)
    }

    fn infer_attn_v_delta(&self, layer: usize, x: &Matrix) -> Option<Matrix> {
        (**self).infer_attn_v_delta(layer, x)
    }

    fn infer_prefix_kv(&self, layer: usize) -> Option<(Matrix, Matrix)> {
        (**self).infer_prefix_kv(layer)
    }

    fn infer_attn_output(
        &self,
        layer: usize,
        attn_in: &Matrix,
        attn_out: Matrix,
        batch: &SeqBatch,
        states: &mut [Option<Box<dyn HookState>>],
    ) -> Matrix {
        (**self).infer_attn_output(layer, attn_in, attn_out, batch, states)
    }

    fn infer_ffn_output(
        &self,
        layer: usize,
        ffn_in: &Matrix,
        ffn_out: Matrix,
        batch: &SeqBatch,
        states: &mut [Option<Box<dyn HookState>>],
    ) -> Matrix {
        (**self).infer_ffn_output(layer, ffn_in, ffn_out, batch, states)
    }
}

/// The identity hook: runs the unmodified base model.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoHook;

impl LayerHook for NoHook {
    // Identity fast paths: bit-identical to the scratch-tape defaults (a
    // tape leaf's value is the input matrix unchanged) but skip three
    // matrix copies per sequence and sublayer — the vanilla model's decode
    // hot path.
    fn infer_attn_output(
        &self,
        _layer: usize,
        _attn_in: &Matrix,
        attn_out: Matrix,
        _batch: &SeqBatch,
        _states: &mut [Option<Box<dyn HookState>>],
    ) -> Matrix {
        attn_out
    }

    fn infer_ffn_output(
        &self,
        _layer: usize,
        _ffn_in: &Matrix,
        ffn_out: Matrix,
        _batch: &SeqBatch,
        _states: &mut [Option<Box<dyn HookState>>],
    ) -> Matrix {
        ffn_out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infuserki_tensor::Matrix;

    #[test]
    fn nohook_defaults_are_identity() {
        let mut tape = Tape::new();
        let mut trace = ForwardTrace::new();
        let x = tape.leaf(Matrix::zeros(2, 4));
        let y = tape.leaf(Matrix::zeros(2, 4));
        let h = NoHook;
        assert!(h.attn_q_delta(0, x, &mut tape).is_none());
        assert!(h.prefix_kv(0, &mut tape).is_none());
        assert_eq!(h.ffn_output(0, x, y, &mut tape, &mut trace), y);
        assert_eq!(h.attn_output(0, x, y, &mut tape, &mut trace), y);
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
        assert_eq!(trace.adapter_output_at(3), Some(a));
        assert_eq!(trace.adapter_output_at(5), None);
        assert_eq!(trace.last_adapter_output(), Some(b));
    }
}
