//! The autograd tape: eager forward evaluation + recorded graph.
//!
//! Every node carries a "needs a gradient" flag, set when it is recorded.
//! On a [`Tape::new`] tape every node needs one, so every parameter leaf
//! gets a gradient. On a [`Tape::with_trainable`] tape a leaf needs one
//! only when it is a parameter in the [`TrainableSet`], and any other node
//! when one of its parents does: frozen weights get no gradient, and the
//! layers below the lowest trainable parameter get no backward at all.
//!
//! A parameter leaf holds its [`Param`]'s own storage, shared, not copied,
//! and its transpose cell. Every product with a transposed right operand —
//! [`Tape::matmul_bt`], and in `backward` the `g·bᵀ` of a matmul and the
//! `g·Wᵀ` of an affine — is a plain [`kernels::matmul_into`] over that
//! transpose, built once per parameter value and shared by every tape of
//! it; any other operand is transposed once, at the op.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use crate::infer;
use crate::kernels;
use crate::matrix::Matrix;
use crate::op::{Op, IGNORE_INDEX};
use crate::param::{Param, ParamId, TrainableSet, Transpose};

/// Index of a node on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Raw index into the tape's node vector.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

pub(crate) struct Node {
    pub(crate) op: Op,
    value: Value,
    pub(crate) needs_grad: bool,
}

/// A node's forward value: the one its op computed, or a parameter's own
/// storage and transpose cell, shared with the [`Param`] and every other
/// tape of it.
enum Value {
    Computed(Matrix),
    Param(Arc<Matrix>, Transpose),
}

impl Node {
    /// The forward value.
    #[inline]
    pub(crate) fn value(&self) -> &Matrix {
        match &self.value {
            Value::Computed(m) => m,
            Value::Param(m, _) => m,
        }
    }

    /// The value transposed: a parameter leaf's shared transpose (built here
    /// if no tape or owner has built it yet), any other node's built now.
    pub(crate) fn transposed(&self) -> Cow<'_, Matrix> {
        match &self.value {
            Value::Param(m, cell) => Cow::Borrowed(cell.get_or_init(|| m.transposed())),
            Value::Computed(m) => Cow::Owned(m.transposed()),
        }
    }
}

/// A single forward pass: values are computed eagerly as ops are recorded;
/// [`Tape::backward`](crate::Tape::backward) then fills per-node gradients.
///
/// One tape per (sample, forward); tapes are cheap to create and are dropped
/// after gradient extraction. Parameters are leafed in at most once per tape
/// via [`Tape::param`]. Which nodes `backward` differentiates towards is
/// fixed by the constructor: see the module docs.
#[derive(Default)]
pub struct Tape {
    pub(crate) nodes: Vec<Node>,
    pub(crate) grads: Vec<Option<Matrix>>,
    leaf_cache: HashMap<ParamId, NodeId>,
    /// `None`: every node needs a gradient.
    trainable: Option<TrainableSet>,
}

impl Tape {
    /// An empty tape whose `backward` reaches every node, so every
    /// parameter leaf gets a gradient.
    pub fn new() -> Self {
        Tape::default()
    }

    /// An empty tape whose `backward` computes only what the parameters in
    /// `trainable` need: other leaves get no gradient, and [`Tape::grads`]
    /// holds exactly the trainable gradients, each bitwise the one a
    /// [`Tape::new`] tape computes.
    pub fn with_trainable(trainable: TrainableSet) -> Self {
        Tape {
            trainable: Some(trainable),
            ..Tape::default()
        }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The forward value of `id`.
    pub fn value(&self, id: NodeId) -> &Matrix {
        self.nodes[id.index()].value()
    }

    /// The gradient of `id` after [`backward`](Self::backward); `None` if the
    /// node did not receive any gradient.
    pub fn grad(&self, id: NodeId) -> Option<&Matrix> {
        self.grads.get(id.index()).and_then(|g| g.as_ref())
    }

    /// The op recorded at `id` (for diagnostics).
    pub fn op(&self, id: NodeId) -> &Op {
        &self.nodes[id.index()].op
    }

    /// Whether [`backward`](Self::backward) differentiates towards `id`.
    pub(crate) fn needs_grad(&self, id: NodeId) -> bool {
        self.nodes[id.index()].needs_grad
    }

    fn push(&mut self, op: Op, value: Matrix) -> NodeId {
        debug_assert!(value.all_finite());
        self.push_value(op, Value::Computed(value))
    }

    fn push_value(&mut self, op: Op, value: Value) -> NodeId {
        let needs_grad = match (&self.trainable, &op) {
            (None, _) => true,
            (Some(set), Op::Leaf { param }) => param.is_some_and(|p| set.contains(p)),
            (Some(_), op) => op.any_parent(|p| self.nodes[p.index()].needs_grad),
        };
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            op,
            value,
            needs_grad,
        });
        id
    }

    // ---- leaves ------------------------------------------------------------

    /// Records a constant input value (no gradient extraction; no gradient
    /// at all on a [`Tape::with_trainable`] tape).
    pub fn leaf(&mut self, value: Matrix) -> NodeId {
        self.push(Op::Leaf { param: None }, value)
    }

    /// Leafs a parameter into the tape, sharing its storage and its
    /// transpose cell ([`Param::transposed`]): no value is copied, and the
    /// leaf keeps the value it was leafed with if the parameter changes
    /// meanwhile. Repeated calls with the same parameter return the cached
    /// node. It needs a gradient unless the tape was built with a
    /// [`TrainableSet`] that does not hold it.
    pub fn param(&mut self, p: &Param) -> NodeId {
        if let Some(&id) = self.leaf_cache.get(&p.id()) {
            return id;
        }
        let (data, transpose) = p.share();
        let id = self.push_value(
            Op::Leaf {
                param: Some(p.id()),
            },
            Value::Param(data, transpose),
        );
        self.leaf_cache.insert(p.id(), id);
        id
    }

    // ---- linear algebra ----------------------------------------------------

    /// `a @ b`.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = kernels::matmul(self.value(a), self.value(b));
        self.push(Op::MatMul(a, b), v)
    }

    /// `a @ bᵀ`, computed as `a @ (bᵀ)` over `b`'s transpose (see the module
    /// docs): a parameter's shared one, or one built here.
    pub fn matmul_bt(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = kernels::matmul(self.value(a), &self.nodes[b.index()].transposed());
        self.push(Op::MatMulBt(a, b), v)
    }

    /// Fused `x @ w + bias` (`bias [1,d]` broadcast over rows): the
    /// linear-layer hot path recorded as a single node. The value computation
    /// lives in [`infer::affine`] (shared with the tape-free inference path)
    /// — one output allocation, bias folded in place, so the unfused
    /// intermediate `x @ w` never exists.
    pub fn affine(&mut self, x: NodeId, w: NodeId, bias: NodeId) -> NodeId {
        let v = infer::affine(self.value(x), self.value(w), self.value(bias));
        self.push(Op::Affine { x, w, bias }, v)
    }

    /// Element-wise `a + b`.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (va, vb) = (self.value(a), self.value(b));
        assert_eq!(va.shape(), vb.shape(), "add: shape mismatch");
        let mut v = va.clone();
        v.add_assign(vb);
        self.push(Op::Add(a, b), v)
    }

    /// `a [n,d] + b [1,d]`, broadcasting `b` over rows.
    pub fn add_row_broadcast(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (va, vb) = (self.value(a), self.value(b));
        assert_eq!(vb.rows(), 1, "add_row_broadcast: rhs must be [1,d]");
        assert_eq!(va.cols(), vb.cols(), "add_row_broadcast: col mismatch");
        let mut v = va.clone();
        let brow = vb.row(0);
        for r in 0..v.rows() {
            for (x, y) in v.row_mut(r).iter_mut().zip(brow) {
                *x += y;
            }
        }
        self.push(Op::AddRowBroadcast(a, b), v)
    }

    /// Element-wise `a - b`.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (va, vb) = (self.value(a), self.value(b));
        assert_eq!(va.shape(), vb.shape(), "sub: shape mismatch");
        let mut v = va.clone();
        for (x, y) in v.data_mut().iter_mut().zip(vb.data().iter()) {
            *x -= y;
        }
        self.push(Op::Sub(a, b), v)
    }

    /// Element-wise `a * b`.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (va, vb) = (self.value(a), self.value(b));
        assert_eq!(va.shape(), vb.shape(), "mul: shape mismatch");
        let mut v = va.clone();
        for (x, y) in v.data_mut().iter_mut().zip(vb.data().iter()) {
            *x *= y;
        }
        self.push(Op::Mul(a, b), v)
    }

    /// `a * c` for a constant `c`.
    pub fn scale(&mut self, a: NodeId, c: f32) -> NodeId {
        let mut v = self.value(a).clone();
        v.scale_assign(c);
        self.push(Op::Scale(a, c), v)
    }

    // ---- normalization & nonlinearity ---------------------------------------

    /// Row-wise log-softmax.
    pub fn log_softmax(&mut self, a: NodeId) -> NodeId {
        let v = kernels::log_softmax_rows(self.value(a));
        self.push(Op::LogSoftmax(a), v)
    }

    /// Layer normalization over rows with affine gain/bias (`[1,d]` each).
    /// Value computation shared with the tape-free path via
    /// [`infer::layer_norm`].
    pub fn layer_norm(&mut self, x: NodeId, gain: NodeId, bias: NodeId, eps: f32) -> NodeId {
        let v = infer::layer_norm(self.value(x), self.value(gain), self.value(bias), eps);
        self.push(Op::LayerNorm { x, gain, bias, eps }, v)
    }

    /// Element-wise ReLU.
    pub fn relu(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).map(|x| x.max(0.0));
        self.push(Op::Relu(a), v)
    }

    /// Element-wise GELU (tanh approximation), through the same SIMD-
    /// dispatched [`kernels::gelu_slice`] as the inference path (all tiers
    /// bitwise-equal).
    pub fn gelu(&mut self, a: NodeId) -> NodeId {
        let mut v = self.value(a).clone();
        kernels::gelu_slice(v.data_mut());
        self.push(Op::Gelu(a), v)
    }

    /// Element-wise logistic sigmoid.
    pub fn sigmoid(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).map(kernels::sigmoid);
        self.push(Op::Sigmoid(a), v)
    }

    /// Element-wise tanh, through [`kernels::tanh_slice`] — the polynomial
    /// the engine's infuser gate runs, so the two stay bitwise equal.
    pub fn tanh(&mut self, a: NodeId) -> NodeId {
        let mut v = self.value(a).clone();
        kernels::tanh_slice(v.data_mut());
        self.push(Op::Tanh(a), v)
    }

    // ---- structure ----------------------------------------------------------

    /// Gathers rows `ids` from the `[V,d]` table at `weight`.
    pub fn embedding(&mut self, weight: NodeId, ids: &[usize]) -> NodeId {
        let w = self.value(weight);
        let d = w.cols();
        let mut v = Matrix::zeros(ids.len(), d);
        for (r, &id) in ids.iter().enumerate() {
            assert!(id < w.rows(), "embedding: id {id} >= vocab {}", w.rows());
            v.row_mut(r).copy_from_slice(w.row(id));
        }
        self.push(
            Op::Embedding {
                weight,
                ids: ids.to_vec(),
            },
            v,
        )
    }

    /// Mean over all rows: `[n,d] -> [1,d]`.
    pub fn mean_rows(&mut self, a: NodeId) -> NodeId {
        let va = self.value(a);
        let (n, d) = va.shape();
        assert!(n > 0, "mean_rows: empty input");
        let mut v = Matrix::zeros(1, d);
        for r in 0..n {
            let row = va.row(r);
            for (o, &x) in v.row_mut(0).iter_mut().zip(row.iter()) {
                *o += x;
            }
        }
        v.scale_assign(1.0 / n as f32);
        self.push(Op::MeanRows(a), v)
    }

    /// Cumulative prefix mean over rows: `out[t] = mean(x[0..=t])`,
    /// `[n,d] -> [n,d]`. The causal counterpart of
    /// [`mean_rows`](Self::mean_rows): the last output row is bitwise identical to
    /// `mean_rows`, earlier rows see only their prefix — which is what makes
    /// the infuser gate compatible with incremental (KV-cached) decoding.
    /// Value computation shared with the tape-free path via
    /// [`infer::cumulative_mean_rows`].
    pub fn cum_mean_rows(&mut self, a: NodeId) -> NodeId {
        let va = self.value(a);
        assert!(va.rows() > 0, "cum_mean_rows: empty input");
        let v = infer::cumulative_mean_rows(va);
        self.push(Op::CumMeanRows(a), v)
    }

    /// Per-row scaling `out[t] = a[t] * s[t]` where `s` is a differentiable
    /// `[n,1]` node — the causal infuser gate applied row-wise. Value
    /// computation shared with the tape-free path via
    /// [`infer::mul_col_broadcast`].
    pub fn mul_col_broadcast(&mut self, a: NodeId, s: NodeId) -> NodeId {
        let v = infer::mul_col_broadcast(self.value(a), self.value(s));
        self.push(Op::MulColBroadcast(a, s), v)
    }

    /// Mean over the given rows: `[n,d] -> [1,d]` (entity-span pooling).
    pub fn mean_selected_rows(&mut self, a: NodeId, rows: &[usize]) -> NodeId {
        let va = self.value(a);
        assert!(!rows.is_empty(), "mean_selected_rows: empty selection");
        let d = va.cols();
        let mut v = Matrix::zeros(1, d);
        for &r in rows {
            assert!(r < va.rows(), "mean_selected_rows: row {r} out of bounds");
            for (o, &x) in v.row_mut(0).iter_mut().zip(va.row(r).iter()) {
                *o += x;
            }
        }
        v.scale_assign(1.0 / rows.len() as f32);
        self.push(Op::MeanSelectedRows(a, rows.to_vec()), v)
    }

    /// Vertical stack `[a; b]`.
    pub fn concat_rows(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (va, vb) = (self.value(a), self.value(b));
        assert_eq!(va.cols(), vb.cols(), "concat_rows: col mismatch");
        let mut data = Vec::with_capacity(va.len() + vb.len());
        data.extend_from_slice(va.data());
        data.extend_from_slice(vb.data());
        let v = Matrix::from_vec(va.rows() + vb.rows(), va.cols(), data);
        self.push(Op::ConcatRows(a, b), v)
    }

    /// Horizontal concatenation of equally-tall parts.
    pub fn concat_cols(&mut self, parts: &[NodeId]) -> NodeId {
        assert!(!parts.is_empty(), "concat_cols: no parts");
        let n = self.value(parts[0]).rows();
        let total: usize = parts.iter().map(|&p| self.value(p).cols()).sum();
        let mut v = Matrix::zeros(n, total);
        let mut off = 0;
        for &p in parts {
            let vp = self.value(p);
            assert_eq!(vp.rows(), n, "concat_cols: row mismatch");
            let w = vp.cols();
            for r in 0..n {
                v.row_mut(r)[off..off + w].copy_from_slice(vp.row(r));
            }
            off += w;
        }
        self.push(Op::ConcatCols(parts.to_vec()), v)
    }

    /// Row slice `[start..end, ..)`.
    pub fn slice_rows(&mut self, a: NodeId, start: usize, end: usize) -> NodeId {
        let va = self.value(a);
        assert!(start < end && end <= va.rows(), "slice_rows: bad range");
        let cols = va.cols();
        let data = va.data()[start * cols..end * cols].to_vec();
        let v = Matrix::from_vec(end - start, cols, data);
        self.push(Op::SliceRows(a, start, end), v)
    }

    /// Causal multi-head attention of `q` over `k`/`v` (`[n,d]` each), with
    /// `prefix`'s `(K, V)` rows (`[p,d]` each) prepended to every head's keys
    /// and values and visible to every query: one [`Op::Attention`] node for
    /// every head. The forward runs the KV-cached engine's kernels over the
    /// sequence as one panel — [`kernels::qk_heads_panel`],
    /// [`kernels::softmax_heads_causal_in_place`] and
    /// [`kernels::av_heads_seg_into`], prefix first — so each row is bitwise
    /// the engine's, and bitwise the per-head graph of slices, `q_h·k_hᵀ`,
    /// scale, causal mask, softmax, `·v_h` and concatenation.
    ///
    /// # Panics
    /// Panics on mismatched shapes or `d` not divisible by `n_heads`.
    pub fn attention(
        &mut self,
        q: NodeId,
        k: NodeId,
        v: NodeId,
        prefix: Option<(NodeId, NodeId)>,
        n_heads: usize,
    ) -> NodeId {
        let vq = self.value(q);
        let (n, d) = vq.shape();
        for x in [k, v] {
            assert_eq!(self.value(x).shape(), (n, d), "attention: q/k/v shapes");
        }
        let p = prefix.map_or(0, |(pk, pv)| {
            let rows = self.value(pk).rows();
            for x in [pk, pv] {
                assert_eq!(self.value(x).shape(), (rows, d), "attention: prefix shape");
            }
            rows
        });
        let keys = p + n;
        let scale = 1.0 / ((d / n_heads) as f32).sqrt();
        let mut probs = Matrix::zeros(n * n_heads, keys);
        let panel = |kt: &Matrix, keys, probs: &mut Matrix, col| {
            kernels::qk_heads_panel(vq, 0, n, kt, keys, n_heads, probs, col)
        };
        if let Some((pk, _)) = prefix {
            panel(&self.nodes[pk.index()].transposed(), p, &mut probs, 0);
        }
        panel(&self.nodes[k.index()].transposed(), n, &mut probs, p);
        kernels::softmax_heads_causal_in_place(&mut probs, n_heads, p, scale);
        let mut out = Matrix::zeros(n, d);
        if let Some((_, pv)) = prefix {
            kernels::av_heads_seg_into(&probs, 0, p, self.value(pv), n_heads, &mut out, 0, false);
        }
        kernels::av_heads_seg_into(&probs, p, keys, self.value(v), n_heads, &mut out, 0, p > 0);
        self.push(
            Op::Attention {
                q,
                k,
                v,
                prefix,
                n_heads,
                probs,
            },
            out,
        )
    }

    // ---- losses -------------------------------------------------------------

    /// Mean token cross-entropy; rows whose target is [`IGNORE_INDEX`] are
    /// masked out of the mean. Returns a `[1,1]` loss node.
    ///
    /// # Panics
    /// Panics if every target is ignored.
    pub fn cross_entropy(&mut self, logits: NodeId, targets: &[usize]) -> NodeId {
        let vl = self.value(logits);
        assert_eq!(vl.rows(), targets.len(), "cross_entropy: target count");
        let ls = kernels::log_softmax_rows(vl);
        let mut loss = 0.0;
        let mut count = 0usize;
        for (r, &t) in targets.iter().enumerate() {
            if t == IGNORE_INDEX {
                continue;
            }
            assert!(t < vl.cols(), "cross_entropy: target {t} >= classes");
            loss -= ls.get(r, t);
            count += 1;
        }
        assert!(count > 0, "cross_entropy: all targets ignored");
        let v = Matrix::scalar(loss / count as f32);
        self.push(
            Op::CrossEntropy {
                logits,
                targets: targets.to_vec(),
            },
            v,
        )
    }

    /// Mean binary cross-entropy on `[n,1]` logits, numerically stable:
    /// `max(z,0) - z*y + ln(1 + e^{-|z|})`. Returns `[1,1]`.
    pub fn bce_with_logits(&mut self, logits: NodeId, targets: &[f32]) -> NodeId {
        let vl = self.value(logits);
        assert_eq!(vl.cols(), 1, "bce_with_logits: logits must be [n,1]");
        assert_eq!(vl.rows(), targets.len(), "bce_with_logits: target count");
        let mut loss = 0.0;
        for (r, &y) in targets.iter().enumerate() {
            let z = vl.get(r, 0);
            loss += z.max(0.0) - z * y + (1.0 + (-z.abs()).exp()).ln();
        }
        let v = Matrix::scalar(loss / targets.len() as f32);
        self.push(
            Op::BceWithLogits {
                logits,
                targets: targets.to_vec(),
            },
            v,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_and_value() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::scalar(3.0));
        assert_eq!(t.value(a).scalar_value(), 3.0);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn param_is_cached() {
        let mut t = Tape::new();
        let p = Param::new("w", Matrix::zeros(2, 2));
        let a = t.param(&p);
        let b = t.param(&p);
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn needs_grad_follows_the_trainable_set() {
        let frozen = Param::new("w", Matrix::full(2, 2, 0.5));
        let trained = Param::new("a", Matrix::full(2, 2, 0.25));
        let set: TrainableSet = std::iter::once(trained.id()).collect();
        let mut t = Tape::with_trainable(set);
        let x = t.leaf(Matrix::full(1, 2, 1.0));
        let w = t.param(&frozen);
        let h = t.matmul(x, w);
        let a = t.param(&trained);
        let y = t.matmul(h, a);
        assert!(!t.needs_grad(x) && !t.needs_grad(w) && !t.needs_grad(h));
        assert!(t.needs_grad(a) && t.needs_grad(y));

        let mut full = Tape::new();
        let c = full.leaf(Matrix::scalar(1.0));
        assert!(full.needs_grad(c), "Tape::new differentiates every node");
    }

    #[test]
    fn forward_values_of_composites() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_vec(1, 2, vec![1.0, 2.0]));
        let b = t.leaf(Matrix::from_vec(2, 1, vec![3.0, 4.0]));
        let c = t.matmul(a, b);
        assert_eq!(t.value(c).scalar_value(), 11.0);
        let s = t.scale(c, 2.0);
        assert_eq!(t.value(s).scalar_value(), 22.0);
    }

    #[test]
    fn embedding_gathers_rows() {
        let mut t = Tape::new();
        let w = t.leaf(Matrix::from_vec(3, 2, vec![0., 0., 1., 1., 2., 2.]));
        let e = t.embedding(w, &[2, 0, 2]);
        assert_eq!(t.value(e).row(0), &[2., 2.]);
        assert_eq!(t.value(e).row(1), &[0., 0.]);
    }

    #[test]
    fn mean_selected_rows_value() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_vec(3, 2, vec![0., 0., 2., 4., 4., 8.]));
        let m = t.mean_selected_rows(a, &[1, 2]);
        assert_eq!(t.value(m).row(0), &[3., 6.]);
    }

    #[test]
    fn concat_and_slice_rows() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]));
        let b = t.leaf(Matrix::from_vec(2, 1, vec![5., 6.]));
        let c = t.concat_cols(&[a, b]);
        assert_eq!(t.value(c).row(0), &[1., 2., 5.]);
        let r = t.slice_rows(c, 1, 2);
        assert_eq!(t.value(r).data(), &[3., 4., 6.]);
    }

    #[test]
    fn cross_entropy_ignores_masked_rows() {
        let mut t = Tape::new();
        // row 0: confident correct, row 1: masked garbage
        let l = t.leaf(Matrix::from_vec(2, 2, vec![10.0, -10.0, 0.0, 0.0]));
        let loss = t.cross_entropy(l, &[0, IGNORE_INDEX]);
        assert!(t.value(loss).scalar_value() < 1e-3);
    }

    #[test]
    fn bce_with_logits_known_values() {
        let mut t = Tape::new();
        let l = t.leaf(Matrix::from_vec(2, 1, vec![0.0, 0.0]));
        let loss = t.bce_with_logits(l, &[1.0, 0.0]);
        // -ln(0.5) for both rows
        assert!((t.value(loss).scalar_value() - std::f32::consts::LN_2).abs() < 1e-3);
    }
}
