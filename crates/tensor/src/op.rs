//! The operation vocabulary of the autograd tape.

use crate::matrix::Matrix;
use crate::param::ParamId;
use crate::tape::NodeId;

/// One differentiable operation recorded on a [`crate::Tape`].
///
/// Ops are a closed enum (no boxed closures): the backward pass in
/// `backward.rs` matches on this tag, which keeps tapes `Send` and dispatch
/// branch-predictable. Integer payloads (`ids`, `targets`) and the
/// attention probabilities are owned by the op so a node is self-contained.
#[derive(Debug, Clone)]
pub enum Op {
    /// An input value; `param` links it to a trainable parameter for gradient
    /// extraction.
    Leaf { param: Option<ParamId> },
    /// `a @ b`.
    MatMul(NodeId, NodeId),
    /// `a @ b^T`, computed as `a @ (b^T)` over `b`'s transpose (a parameter's
    /// own, or one built at the op).
    MatMulBt(NodeId, NodeId),
    /// Fused `x @ w + bias` with `bias [1,d]` broadcast over rows — the
    /// linear-layer hot path as a single node (one output allocation, one
    /// backward dispatch instead of MatMul + AddRowBroadcast).
    Affine {
        /// Input `[n,k]`.
        x: NodeId,
        /// Weight `[k,d]`.
        w: NodeId,
        /// Row-broadcast bias `[1,d]`.
        bias: NodeId,
    },
    /// Element-wise `a + b` (equal shapes).
    Add(NodeId, NodeId),
    /// `a [n,d] + b [1,d]` broadcast over rows (bias add).
    AddRowBroadcast(NodeId, NodeId),
    /// Element-wise `a - b` (equal shapes).
    Sub(NodeId, NodeId),
    /// Element-wise `a * b` (equal shapes).
    Mul(NodeId, NodeId),
    /// `a * c` for a compile-time constant `c`.
    Scale(NodeId, f32),
    /// Row-wise log-softmax.
    LogSoftmax(NodeId),
    /// Layer normalization over each row with affine `gain`/`bias` (`[1,d]`).
    LayerNorm {
        /// Input `[n,d]`.
        x: NodeId,
        /// Per-feature gain `[1,d]`.
        gain: NodeId,
        /// Per-feature bias `[1,d]`.
        bias: NodeId,
        /// Variance epsilon.
        eps: f32,
    },
    /// Element-wise ReLU.
    Relu(NodeId),
    /// Element-wise GELU (tanh approximation).
    Gelu(NodeId),
    /// Element-wise logistic sigmoid.
    Sigmoid(NodeId),
    /// Element-wise tanh.
    Tanh(NodeId),
    /// Row gather: `value[i] = weight[ids[i]]`.
    Embedding {
        /// Embedding table node (usually a parameter leaf) `[V,d]`.
        weight: NodeId,
        /// Row indices, one per output row.
        ids: Vec<usize>,
    },
    /// Mean over all rows: `[n,d] -> [1,d]`.
    MeanRows(NodeId),
    /// Cumulative prefix mean over rows: `out[t] = mean(x[0..=t])`,
    /// `[n,d] -> [n,d]`. The causal form of [`Op::MeanRows`] — row `t` sees
    /// only rows `0..=t`, which is what makes the infuser gate KV-cacheable.
    CumMeanRows(NodeId),
    /// Per-row scaling `out[t] = a[t] * s[t]` with `s [n,1]` (the causal
    /// infuser gate applied to the adapter output).
    MulColBroadcast(NodeId, NodeId),
    /// Mean over the selected rows: `[n,d] -> [1,d]`.
    MeanSelectedRows(NodeId, Vec<usize>),
    /// Vertical stacking `[n1,d];[n2,d] -> [n1+n2,d]`.
    ConcatRows(NodeId, NodeId),
    /// Horizontal concatenation of parts with equal row counts.
    ConcatCols(Vec<NodeId>),
    /// Row slice `[start..end, ..]`.
    SliceRows(NodeId, usize, usize),
    /// Causal multi-head attention, every head in one node:
    /// `softmax(mask(q_h k_hᵀ / √d_h)) v_h` for each head `h` (columns
    /// `h·d_h..(h+1)·d_h`), heads side by side in the output. The `prefix`
    /// `(K, V)` rows are prepended to every head's keys and values and are
    /// visible to every query.
    Attention {
        /// Queries `[n,d]`.
        q: NodeId,
        /// Keys `[n,d]`.
        k: NodeId,
        /// Values `[n,d]`.
        v: NodeId,
        /// Prefix keys and values `[p,d]` each.
        prefix: Option<(NodeId, NodeId)>,
        /// Heads `d` splits into.
        n_heads: usize,
        /// The attention probabilities, query-major `[n·n_heads, p+n]`
        /// (row `i·n_heads + h`), kept for the backward.
        probs: Matrix,
    },
    /// Mean token-level cross-entropy between `logits [n,V]` and `targets`;
    /// produces a `[1,1]` loss. Positions with target == `IGNORE_INDEX`
    /// contribute nothing.
    CrossEntropy {
        /// Unnormalized logits.
        logits: NodeId,
        /// One class index per row (or [`IGNORE_INDEX`]).
        targets: Vec<usize>,
    },
    /// Mean binary cross-entropy on `logits [n,1]` against float targets;
    /// numerically stable (log-sum-exp form); produces `[1,1]`.
    BceWithLogits {
        /// Pre-sigmoid logits.
        logits: NodeId,
        /// Targets in `[0,1]`, one per row.
        targets: Vec<f32>,
    },
}

/// Sentinel target value ignored by [`Op::CrossEntropy`] (prompt positions).
pub const IGNORE_INDEX: usize = usize::MAX;

impl Op {
    /// True when `f` holds for some parent node. Parents are visited in
    /// evaluation order up to the first hit, without allocating.
    pub fn any_parent(&self, mut f: impl FnMut(NodeId) -> bool) -> bool {
        match self {
            Op::Leaf { .. } => false,
            Op::MatMul(a, b)
            | Op::MatMulBt(a, b)
            | Op::Add(a, b)
            | Op::AddRowBroadcast(a, b)
            | Op::Sub(a, b)
            | Op::Mul(a, b)
            | Op::MulColBroadcast(a, b)
            | Op::ConcatRows(a, b) => f(*a) || f(*b),
            Op::Scale(a, _)
            | Op::LogSoftmax(a)
            | Op::Relu(a)
            | Op::Gelu(a)
            | Op::Sigmoid(a)
            | Op::Tanh(a)
            | Op::MeanRows(a)
            | Op::CumMeanRows(a)
            | Op::MeanSelectedRows(a, _)
            | Op::SliceRows(a, _, _) => f(*a),
            Op::LayerNorm { x, gain, bias, .. } => f(*x) || f(*gain) || f(*bias),
            Op::Affine { x, w, bias } => f(*x) || f(*w) || f(*bias),
            Op::Embedding { weight, .. } => f(*weight),
            Op::ConcatCols(parts) => parts.iter().any(|&p| f(p)),
            Op::Attention {
                q, k, v, prefix, ..
            } => f(*q) || f(*k) || f(*v) || prefix.is_some_and(|(pk, pv)| f(pk) || f(pv)),
            Op::CrossEntropy { logits, .. } | Op::BceWithLogits { logits, .. } => f(*logits),
        }
    }

    /// Short name for debugging/profiling.
    pub fn name(&self) -> &'static str {
        match self {
            Op::Leaf { .. } => "leaf",
            Op::MatMul(..) => "matmul",
            Op::MatMulBt(..) => "matmul_bt",
            Op::Affine { .. } => "affine",
            Op::Add(..) => "add",
            Op::AddRowBroadcast(..) => "add_row_bcast",
            Op::Sub(..) => "sub",
            Op::Mul(..) => "mul",
            Op::Scale(..) => "scale",
            Op::LogSoftmax(..) => "log_softmax",
            Op::LayerNorm { .. } => "layer_norm",
            Op::Relu(..) => "relu",
            Op::Gelu(..) => "gelu",
            Op::Sigmoid(..) => "sigmoid",
            Op::Tanh(..) => "tanh",
            Op::Embedding { .. } => "embedding",
            Op::MeanRows(..) => "mean_rows",
            Op::CumMeanRows(..) => "cum_mean_rows",
            Op::MulColBroadcast(..) => "mul_col_broadcast",
            Op::MeanSelectedRows(..) => "mean_selected_rows",
            Op::ConcatRows(..) => "concat_rows",
            Op::ConcatCols(..) => "concat_cols",
            Op::SliceRows(..) => "slice_rows",
            Op::Attention { .. } => "attention",
            Op::CrossEntropy { .. } => "cross_entropy",
            Op::BceWithLogits { .. } => "bce_with_logits",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every parent of `op`, in evaluation order.
    fn parents(op: &Op) -> Vec<NodeId> {
        let mut out = Vec::new();
        op.any_parent(|p| {
            out.push(p);
            false
        });
        out
    }

    #[test]
    fn parents_of_leaf_is_empty() {
        assert!(parents(&Op::Leaf { param: None }).is_empty());
    }

    #[test]
    fn parents_of_binary_ops() {
        let a = NodeId(0);
        let b = NodeId(1);
        assert_eq!(parents(&Op::MatMul(a, b)), vec![a, b]);
        assert_eq!(parents(&Op::ConcatCols(vec![a, b])), vec![a, b]);
        let c = NodeId(2);
        let ln = Op::LayerNorm {
            x: a,
            gain: b,
            bias: c,
            eps: 1e-5,
        };
        assert_eq!(parents(&ln), vec![a, b, c]);
    }

    #[test]
    fn any_parent_stops_at_the_first_hit() {
        let (a, b, c) = (NodeId(0), NodeId(1), NodeId(2));
        let mut seen = Vec::new();
        let hit = Op::Affine {
            x: a,
            w: b,
            bias: c,
        }
        .any_parent(|p| {
            seen.push(p);
            p == b
        });
        assert!(hit);
        assert_eq!(seen, vec![a, b]);
        assert!(!Op::Leaf { param: None }.any_parent(|_| true));
    }

    #[test]
    fn names_are_distinctive() {
        assert_eq!(Op::LogSoftmax(NodeId(0)).name(), "log_softmax");
        let attention = Op::Attention {
            q: NodeId(0),
            k: NodeId(1),
            v: NodeId(2),
            prefix: Some((NodeId(3), NodeId(4))),
            n_heads: 2,
            probs: Matrix::zeros(1, 1),
        };
        assert_eq!(attention.name(), "attention");
        assert_eq!(parents(&attention), (0..5).map(NodeId).collect::<Vec<_>>());
    }
}
