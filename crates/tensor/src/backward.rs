//! Reverse-mode differentiation over a recorded tape.
//!
//! `backward` visits only nodes that need a gradient (see the tape module's
//! docs) and writes a parent's contribution only when that parent needs it.
//! No product, delta or zero matrix is built for any other target. A node
//! that needs a gradient has every child that needs one, so a needed slot
//! receives the same contributions in the same order whichever constructor
//! built the tape: the masked gradients are bitwise the full ones.
//!
//! An op's arm reads the node's stored forward value where its derivative is
//! in terms of its output; [`Op::Attention`] keeps its softmax probabilities
//! for that, and its one arm computes every input's gradient for every head
//! on the all-heads attention kernels.

use crate::kernels;
use crate::matrix::Matrix;
use crate::op::{Op, IGNORE_INDEX};
use crate::param::Gradients;
use crate::tape::{Node, NodeId, Tape};

fn accumulate(slot: &mut Option<Matrix>, delta: Matrix) {
    match slot {
        Some(g) => g.add_assign(&delta),
        None => *slot = Some(delta),
    }
}

/// Accumulates a `rows×cols` matrix-product contribution directly into
/// `slot` via an allocation-free `_into` kernel: an occupied slot is passed
/// with `accumulate=true` (no temporary, no add pass); an empty slot is
/// allocated once and overwritten.
fn accumulate_product(
    slot: &mut Option<Matrix>,
    rows: usize,
    cols: usize,
    compute: impl FnOnce(&mut Matrix, bool),
) {
    match slot {
        Some(g) => compute(g, true),
        None => {
            let mut g = Matrix::zeros(rows, cols);
            compute(&mut g, false);
            *slot = Some(g);
        }
    }
}

/// Column-sums of `gout` added into `slot` (bias gradient of a row-broadcast
/// add).
fn accumulate_col_sums(slot: &mut Option<Matrix>, gout: &Matrix) {
    if slot.is_none() {
        *slot = Some(Matrix::zeros(1, gout.cols()));
    }
    let db = slot.as_mut().expect("slot just filled");
    for r in 0..gout.rows() {
        for (o, &g) in db.row_mut(0).iter_mut().zip(gout.row(r).iter()) {
            *o += g;
        }
    }
}

impl Tape {
    /// Runs reverse-mode autodiff from the scalar node `root`, filling
    /// per-node gradients (readable via [`Tape::grad`], extractable via
    /// [`Tape::grads`]).
    ///
    /// Nodes recorded after `root` are ignored; nodes that do not contribute
    /// to `root`, or need no gradient, keep a `None` gradient. Safe to call
    /// once per tape.
    ///
    /// # Panics
    /// Panics if `root` is not a `[1,1]` node.
    pub fn backward(&mut self, root: NodeId) {
        assert_eq!(
            self.value(root).shape(),
            (1, 1),
            "backward: root must be a scalar loss"
        );
        self.grads = (0..self.nodes.len()).map(|_| None).collect();
        if !self.needs_grad(root) {
            return;
        }
        self.grads[root.index()] = Some(Matrix::scalar(1.0));

        for i in (0..=root.index()).rev() {
            // Parents are strictly earlier on the tape (topological order by
            // construction), so split lets us read this node's gradient while
            // mutating parents' slots.
            let (before, after) = self.grads.split_at_mut(i);
            let gout = match &after[0] {
                Some(g) => g,
                None => continue,
            };
            backward_op(&self.nodes[i], &self.nodes, gout, before);
        }
    }

    /// Extracts per-parameter gradients (leaf nodes carrying a `ParamId`)
    /// into a mergeable map. Call after [`Tape::backward`]. On a
    /// [`Tape::with_trainable`] tape it holds only parameters of the set.
    pub fn grads(&self) -> Gradients {
        let mut out = Gradients::new();
        for (i, node) in self.nodes.iter().enumerate() {
            if let Op::Leaf { param: Some(pid) } = node.op {
                if let Some(g) = &self.grads[i] {
                    out.add(pid, g.clone());
                }
            }
        }
        out
    }
}

/// Propagates `gout` (gradient of `node`'s output) into `grads_before`
/// (slots for earlier nodes), for the parents that need it. `node` needs a
/// gradient (it has one), so a single-parent op's parent does too; only ops
/// with several parents check. Every `g·bᵀ` runs as `g·(bᵀ)` on the strip
/// kernel over the operand's transpose ([`Node::transposed`]).
fn backward_op(node: &Node, nodes: &[Node], gout: &Matrix, grads_before: &mut [Option<Matrix>]) {
    let val = |id: NodeId| -> &Matrix { nodes[id.index()].value() };
    let needs = |id: &NodeId| nodes[id.index()].needs_grad;
    // The node's own forward value, for ops whose derivative is in terms of
    // their output: bitwise what the backward would recompute.
    let y = node.value();
    match &node.op {
        Op::Leaf { .. } => {}
        Op::MatMul(a, b) => {
            // y = a @ b: dA = g @ bᵀ, dB = aᵀ @ g — both written straight
            // into the gradient slots (no temporaries on the re-visit path).
            let va = val(*a);
            if needs(a) {
                let bt = nodes[b.index()].transposed();
                accumulate_product(
                    &mut grads_before[a.index()],
                    gout.rows(),
                    bt.cols(),
                    |o, acc| {
                        kernels::matmul_into(gout, &bt, o, acc);
                    },
                );
            }
            if needs(b) {
                accumulate_product(
                    &mut grads_before[b.index()],
                    va.cols(),
                    gout.cols(),
                    |o, acc| {
                        kernels::matmul_at_into(va, gout, o, acc);
                    },
                );
            }
        }
        Op::MatMulBt(a, b) => {
            // y = a @ bᵀ: dA = g @ b, dB = gᵀ @ a
            let (va, vb) = (val(*a), val(*b));
            if needs(a) {
                accumulate_product(
                    &mut grads_before[a.index()],
                    gout.rows(),
                    vb.cols(),
                    |o, acc| {
                        kernels::matmul_into(gout, vb, o, acc);
                    },
                );
            }
            if needs(b) {
                accumulate_product(
                    &mut grads_before[b.index()],
                    gout.cols(),
                    va.cols(),
                    |o, acc| {
                        kernels::matmul_at_into(gout, va, o, acc);
                    },
                );
            }
        }
        Op::Affine { x, w, bias } => {
            // y = x @ w + 1·biasᵀ: dX = g @ wᵀ, dW = xᵀ @ g, dbias = Σ_rows g
            let vx = val(*x);
            if needs(x) {
                let wt = nodes[w.index()].transposed();
                accumulate_product(
                    &mut grads_before[x.index()],
                    gout.rows(),
                    wt.cols(),
                    |o, acc| {
                        kernels::matmul_into(gout, &wt, o, acc);
                    },
                );
            }
            if needs(w) {
                accumulate_product(
                    &mut grads_before[w.index()],
                    vx.cols(),
                    gout.cols(),
                    |o, acc| {
                        kernels::matmul_at_into(vx, gout, o, acc);
                    },
                );
            }
            if needs(bias) {
                accumulate_col_sums(&mut grads_before[bias.index()], gout);
            }
        }
        Op::Add(a, b) => {
            for p in [a, b] {
                if needs(p) {
                    accumulate(&mut grads_before[p.index()], gout.clone());
                }
            }
        }
        Op::AddRowBroadcast(a, b) => {
            if needs(a) {
                accumulate(&mut grads_before[a.index()], gout.clone());
            }
            if needs(b) {
                accumulate_col_sums(&mut grads_before[b.index()], gout);
            }
        }
        Op::Sub(a, b) => {
            if needs(a) {
                accumulate(&mut grads_before[a.index()], gout.clone());
            }
            if needs(b) {
                let mut db = gout.clone();
                db.scale_assign(-1.0);
                accumulate(&mut grads_before[b.index()], db);
            }
        }
        Op::Mul(a, b) => {
            // Each side is gout times the other side's value.
            for (p, other) in [(a, b), (b, a)] {
                if needs(p) {
                    let mut dp = gout.clone();
                    for (x, y) in dp.data_mut().iter_mut().zip(val(*other).data().iter()) {
                        *x *= y;
                    }
                    accumulate(&mut grads_before[p.index()], dp);
                }
            }
        }
        Op::Scale(a, c) => {
            let mut da = gout.clone();
            da.scale_assign(*c);
            accumulate(&mut grads_before[a.index()], da);
        }
        Op::LogSoftmax(a) => {
            let p = kernels::softmax_rows(val(*a));
            let mut da = Matrix::zeros(p.rows(), p.cols());
            for r in 0..p.rows() {
                let gr = gout.row(r);
                let gsum: f32 = gr.iter().sum();
                let pr = p.row(r);
                for (c, o) in da.row_mut(r).iter_mut().enumerate() {
                    *o = gr[c] - pr[c] * gsum;
                }
            }
            accumulate(&mut grads_before[a.index()], da);
        }
        Op::LayerNorm { x, gain, bias, eps } => {
            let vx = val(*x);
            let vg = val(*gain);
            let (n, d) = vx.shape();
            let zeros_if = |needed: bool, rows: usize| needed.then(|| Matrix::zeros(rows, d));
            let mut dx = zeros_if(needs(x), n);
            let mut dgain = zeros_if(needs(gain), 1);
            let mut dbias = zeros_if(needs(bias), 1);
            let mut xhat = vec![0.0f32; d];
            let mut dxhat = vec![0.0f32; d];
            for r in 0..n {
                let row = vx.row(r);
                let mean = row.iter().sum::<f32>() / d as f32;
                let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
                let inv = 1.0 / (var + eps).sqrt();
                let gr = gout.row(r);
                // dgain, dbias and the two per-row means of dxhat statistics
                let mut mean_dxhat = 0.0f32;
                let mut mean_dxhat_xhat = 0.0f32;
                for c in 0..d {
                    xhat[c] = (row[c] - mean) * inv;
                    dxhat[c] = gr[c] * vg.get(0, c);
                    mean_dxhat += dxhat[c];
                    mean_dxhat_xhat += dxhat[c] * xhat[c];
                }
                if let Some(dgain) = &mut dgain {
                    for (o, (&g, &xh)) in dgain.row_mut(0).iter_mut().zip(gr.iter().zip(&xhat)) {
                        *o += g * xh;
                    }
                }
                if let Some(dbias) = &mut dbias {
                    for (o, &g) in dbias.row_mut(0).iter_mut().zip(gr) {
                        *o += g;
                    }
                }
                let Some(dx) = &mut dx else { continue };
                mean_dxhat /= d as f32;
                mean_dxhat_xhat /= d as f32;
                for (c, o) in dx.row_mut(r).iter_mut().enumerate() {
                    *o = inv * (dxhat[c] - mean_dxhat - xhat[c] * mean_dxhat_xhat);
                }
            }
            for (p, dp) in [(x, dx), (gain, dgain), (bias, dbias)] {
                if let Some(dp) = dp {
                    accumulate(&mut grads_before[p.index()], dp);
                }
            }
        }
        Op::Relu(a) => {
            let mut da = gout.clone();
            for (g, &x) in da.data_mut().iter_mut().zip(val(*a).data().iter()) {
                if x <= 0.0 {
                    *g = 0.0;
                }
            }
            accumulate(&mut grads_before[a.index()], da);
        }
        Op::Gelu(a) => {
            let mut da = gout.clone();
            for (g, &x) in da.data_mut().iter_mut().zip(val(*a).data().iter()) {
                *g *= kernels::gelu_grad(x);
            }
            accumulate(&mut grads_before[a.index()], da);
        }
        Op::Sigmoid(a) => {
            let mut da = gout.clone();
            for (g, &y) in da.data_mut().iter_mut().zip(y.data()) {
                *g *= y * (1.0 - y);
            }
            accumulate(&mut grads_before[a.index()], da);
        }
        Op::Tanh(a) => {
            // g · (1 − y²).
            let mut da = y.clone();
            for (y, &g) in da.data_mut().iter_mut().zip(gout.data().iter()) {
                *y = g * (1.0 - *y * *y);
            }
            accumulate(&mut grads_before[a.index()], da);
        }
        Op::Embedding { weight, ids } => {
            let w = val(*weight);
            let mut dw = Matrix::zeros(w.rows(), w.cols());
            for (r, &id) in ids.iter().enumerate() {
                let src = gout.row(r);
                for (o, &g) in dw.row_mut(id).iter_mut().zip(src.iter()) {
                    *o += g;
                }
            }
            accumulate(&mut grads_before[weight.index()], dw);
        }
        Op::MeanRows(a) => {
            let va = val(*a);
            let n = va.rows();
            let scale = 1.0 / n as f32;
            let mut da = Matrix::zeros(n, va.cols());
            for r in 0..n {
                for (o, &g) in da.row_mut(r).iter_mut().zip(gout.row(0).iter()) {
                    *o = g * scale;
                }
            }
            accumulate(&mut grads_before[a.index()], da);
        }
        Op::CumMeanRows(a) => {
            // out[t] = (1/(t+1)) Σ_{i<=t} x[i], so dL/dx[i] = Σ_{t>=i} g[t]/(t+1):
            // a reverse suffix accumulation of the scaled output gradients.
            let va = val(*a);
            let (n, d) = va.shape();
            let mut da = Matrix::zeros(n, d);
            let mut acc = vec![0.0f32; d];
            for t in (0..n).rev() {
                let scale = 1.0 / (t + 1) as f32;
                for (s, &g) in acc.iter_mut().zip(gout.row(t).iter()) {
                    *s += g * scale;
                }
                da.row_mut(t).copy_from_slice(&acc);
            }
            accumulate(&mut grads_before[a.index()], da);
        }
        Op::MulColBroadcast(a, s) => {
            // out[t] = a[t] * s[t]: da[t] = g[t]*s[t], ds[t] = <g[t], a[t]>
            if needs(a) {
                let vs = val(*s);
                let mut da = gout.clone();
                for r in 0..da.rows() {
                    let sv = vs.get(r, 0);
                    for x in da.row_mut(r) {
                        *x *= sv;
                    }
                }
                accumulate(&mut grads_before[a.index()], da);
            }
            if needs(s) {
                let va = val(*a);
                let mut ds = Matrix::zeros(gout.rows(), 1);
                for r in 0..gout.rows() {
                    ds.set(r, 0, kernels::dot(gout.row(r), va.row(r)));
                }
                accumulate(&mut grads_before[s.index()], ds);
            }
        }
        Op::MeanSelectedRows(a, rows) => {
            let va = val(*a);
            let scale = 1.0 / rows.len() as f32;
            let mut da = Matrix::zeros(va.rows(), va.cols());
            for &r in rows {
                for (o, &g) in da.row_mut(r).iter_mut().zip(gout.row(0).iter()) {
                    *o += g * scale;
                }
            }
            accumulate(&mut grads_before[a.index()], da);
        }
        Op::ConcatRows(a, b) => {
            let na = val(*a).rows();
            let cols = gout.cols();
            if needs(a) {
                let da = Matrix::from_vec(na, cols, gout.data()[..na * cols].to_vec());
                accumulate(&mut grads_before[a.index()], da);
            }
            if needs(b) {
                let db =
                    Matrix::from_vec(gout.rows() - na, cols, gout.data()[na * cols..].to_vec());
                accumulate(&mut grads_before[b.index()], db);
            }
        }
        Op::ConcatCols(parts) => {
            let mut off = 0;
            for p in parts {
                let vp = val(*p);
                let w = vp.cols();
                if needs(p) {
                    let mut dp = Matrix::zeros(vp.rows(), w);
                    for r in 0..vp.rows() {
                        dp.row_mut(r).copy_from_slice(&gout.row(r)[off..off + w]);
                    }
                    accumulate(&mut grads_before[p.index()], dp);
                }
                off += w;
            }
        }
        Op::SliceRows(a, start, end) => {
            let va = val(*a);
            let mut da = Matrix::zeros(va.rows(), va.cols());
            for (gr, r) in (*start..*end).enumerate() {
                da.row_mut(r).copy_from_slice(gout.row(gr));
            }
            accumulate(&mut grads_before[a.index()], da);
        }
        Op::Attention {
            q,
            k,
            v,
            prefix,
            n_heads,
            probs,
        } => attention_backward(
            nodes,
            gout,
            grads_before,
            [*q, *k, *v],
            *prefix,
            *n_heads,
            probs,
        ),
        Op::CrossEntropy { logits, targets } => {
            let vl = val(*logits);
            let p = kernels::softmax_rows(vl);
            let count = targets.iter().filter(|&&t| t != IGNORE_INDEX).count() as f32;
            let gv = gout.scalar_value() / count;
            let mut dl = Matrix::zeros(vl.rows(), vl.cols());
            for (r, &t) in targets.iter().enumerate() {
                if t == IGNORE_INDEX {
                    continue;
                }
                let pr = p.row(r);
                let out = dl.row_mut(r);
                for (c, o) in out.iter_mut().enumerate() {
                    *o = gv * (pr[c] - if c == t { 1.0 } else { 0.0 });
                }
            }
            accumulate(&mut grads_before[logits.index()], dl);
        }
        Op::BceWithLogits { logits, targets } => {
            let vl = val(*logits);
            let gv = gout.scalar_value() / targets.len() as f32;
            let mut dl = Matrix::zeros(vl.rows(), 1);
            for (r, &y) in targets.iter().enumerate() {
                let z = vl.get(r, 0);
                dl.set(r, 0, gv * (kernels::sigmoid(z) - y));
            }
            accumulate(&mut grads_before[logits.index()], dl);
        }
    }
}

/// The backward of [`Op::Attention`] for every head at once, bitwise the
/// per-head graph's (see [`Tape::attention`]): each product is one ascending
/// `fmadd` chain from `0.0` over the same terms as that graph's matmul arm,
/// on the all-heads kernels.
///
/// - `dV = Aᵀ·g` and `dK = dSᵀ·Q` ([`kernels::at_heads_into`]) chain over
///   the queries;
/// - `dA = g·Vᵀ` ([`kernels::qk_heads_panel`] over the transposed values)
///   chains over the head's dimensions. It covers the masked columns too:
///   there the softmax backward gives `+0.0·(dA − ⟨dA, y⟩)`, a zero whose
///   sign comes from `dA`;
/// - the softmax backward runs on full rows ([`kernels::dot`]'s lane split
///   depends on the row length), then the score scale;
/// - `dQ = dS·K` ([`kernels::av_heads_seg_into`], prefix then sequence)
///   chains over every key, masked ones included: their signed zeros close
///   the chain, and can turn a sum that underflowed to `-0.0` into `+0.0`.
///
/// The per-head graph accumulated each input's gradient head by head, each
/// head's columns inside a zero matrix, so with more than one head every
/// element also got `+ 0.0` added, which changes no bit but a `-0.0`, to
/// `+0.0`. Accumulating each gradient whole, in that graph's order of
/// inputs (prefix V, prefix K, V, K, Q), and then adding `+0.0` once to
/// every slot written gives the same bits whatever the slots held before,
/// even where two inputs are one node.
fn attention_backward(
    nodes: &[Node],
    gout: &Matrix,
    grads_before: &mut [Option<Matrix>],
    [q, k, v]: [NodeId; 3],
    prefix: Option<(NodeId, NodeId)>,
    n_heads: usize,
    probs: &Matrix,
) {
    let val = |id: NodeId| -> &Matrix { nodes[id.index()].value() };
    let needs = |id: NodeId| nodes[id.index()].needs_grad;
    let (n, d) = gout.shape();
    let keys = probs.cols();
    let p = keys - n;
    let (pk, pv) = (prefix.map(|x| x.0), prefix.map(|x| x.1));
    let needs_k = needs(k) || pk.is_some_and(needs);
    let needs_v = needs(v) || pv.is_some_and(needs);

    let dv = needs_v.then(|| {
        let mut dv = Matrix::zeros(keys, d);
        kernels::at_heads_into(probs, gout, n_heads, &mut dv);
        split_rows(dv, p)
    });
    let ds = (needs(q) || needs_k).then(|| {
        let mut ds = Matrix::zeros(n * n_heads, keys);
        let panel = |values: NodeId, keys, ds: &mut Matrix, col| {
            let vt = nodes[values.index()].transposed();
            kernels::qk_heads_panel(gout, 0, n, &vt, keys, n_heads, ds, col);
        };
        if let Some(pv) = pv {
            panel(pv, p, &mut ds, 0);
        }
        panel(v, n, &mut ds, p);
        let scale = 1.0 / ((d / n_heads) as f32).sqrt();
        for (g, y) in (ds.data_mut().chunks_exact_mut(keys)).zip(probs.data().chunks_exact(keys)) {
            let dotp = kernels::dot(g, y);
            for (g, &y) in g.iter_mut().zip(y) {
                *g = y * (*g - dotp) * scale;
            }
        }
        ds
    });
    let dk = ds.as_ref().filter(|_| needs_k).map(|ds| {
        let mut dk = Matrix::zeros(keys, d);
        kernels::at_heads_into(ds, val(q), n_heads, &mut dk);
        split_rows(dk, p)
    });
    let dq = ds.as_ref().filter(|_| needs(q)).map(|ds| {
        let mut dq = Matrix::zeros(n, d);
        if let Some(pk) = pk {
            kernels::av_heads_seg_into(ds, 0, p, val(pk), n_heads, &mut dq, 0, false);
        }
        kernels::av_heads_seg_into(ds, p, keys, val(k), n_heads, &mut dq, 0, p > 0);
        dq
    });
    let (dpv, dv) = dv.unzip();
    let (dpk, dk) = dk.unzip();
    let mut written = Vec::new();
    for (id, g) in [
        (pv, dpv),
        (pk, dpk),
        (Some(v), dv),
        (Some(k), dk),
        (Some(q), dq),
    ] {
        if let (Some(id), Some(g)) = (id.filter(|&id| needs(id)), g) {
            accumulate(&mut grads_before[id.index()], g);
            written.push(id);
        }
    }
    if n_heads > 1 {
        for id in written {
            let slot = grads_before[id.index()].as_mut().expect("just written");
            slot.data_mut().iter_mut().for_each(|x| *x += 0.0);
        }
    }
}

/// `m`'s first `rows` rows and the rest.
fn split_rows(m: Matrix, rows: usize) -> (Matrix, Matrix) {
    let cols = m.cols();
    let total = m.rows();
    let mut head = m.into_vec();
    let tail = head.split_off(rows * cols);
    (
        Matrix::from_vec(rows, cols, head),
        Matrix::from_vec(total - rows, cols, tail),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::{Param, TrainableSet};

    #[test]
    fn backward_through_matmul_chain() {
        // loss = sum(a @ b) with a=[1,2], b=[2,1]
        let mut t = Tape::new();
        let pa = Param::new("a", Matrix::from_vec(1, 2, vec![2.0, 3.0]));
        let pb = Param::new("b", Matrix::from_vec(2, 1, vec![5.0, 7.0]));
        let a = t.param(&pa);
        let b = t.param(&pb);
        let c = t.matmul(a, b); // 2*5 + 3*7 = 31
        t.backward(c);
        let g = t.grads();
        assert_eq!(g.get(pa.id()).unwrap().data(), &[5.0, 7.0]);
        assert_eq!(g.get(pb.id()).unwrap().data(), &[2.0, 3.0]);
    }

    #[test]
    fn backward_accumulates_on_shared_nodes() {
        // loss = (x + x) reduced to scalar: dx = 2
        let mut t = Tape::new();
        let p = Param::new("x", Matrix::scalar(4.0));
        let x = t.param(&p);
        let y = t.add(x, x);
        t.backward(y);
        assert_eq!(t.grads().get(p.id()).unwrap().scalar_value(), 2.0);
    }

    #[test]
    fn backward_cross_entropy_points_toward_target() {
        let mut t = Tape::new();
        let p = Param::new("l", Matrix::from_vec(1, 3, vec![0.0, 0.0, 0.0]));
        let l = t.param(&p);
        let loss = t.cross_entropy(l, &[1]);
        t.backward(loss);
        let g = t.grads();
        let gl = g.get(p.id()).unwrap();
        // gradient is softmax - onehot: [1/3, 1/3-1, 1/3]
        assert!((gl.get(0, 0) - 1.0 / 3.0).abs() < 1e-5);
        assert!((gl.get(0, 1) + 2.0 / 3.0).abs() < 1e-5);
        assert!(gl.get(0, 1) < 0.0, "target logit should be pushed up");
    }

    /// A two-layer net: embedding, layer norm and affine under a frozen
    /// first layer, then a trainable gain, affine and gated product.
    fn two_layer_loss(t: &mut Tape, ps: &[Param]) -> NodeId {
        let [table, w0, b0, g1, w1, b1, gate] = ps else {
            unreachable!("seven params")
        };
        let (table, w0, b0) = (t.param(table), t.param(w0), t.param(b0));
        let x = t.embedding(table, &[2, 0, 1]);
        let h = t.affine(x, w0, b0);
        let (g1, b1n) = (t.param(g1), t.param(b1));
        let n = t.layer_norm(h, g1, b0, 1e-5);
        let w1 = t.param(w1);
        let y = t.affine(n, w1, b1n);
        let gate = t.param(gate);
        let s = t.sigmoid(gate);
        let gated = t.mul_col_broadcast(y, s);
        let both = t.concat_cols(&[gated, h]);
        t.cross_entropy(both, &[0, 3, 1])
    }

    fn two_layer_params() -> Vec<Param> {
        let m = |r, c, k: f32| {
            Matrix::from_vec(r, c, (0..r * c).map(|i| (i as f32 * k).sin()).collect())
        };
        vec![
            Param::new("table", m(3, 2, 0.7)),
            Param::new("w0", m(2, 2, 1.3)),
            Param::new("b0", m(1, 2, 0.4)),
            Param::new("g1", m(1, 2, 0.9)),
            Param::new("w1", m(2, 2, 2.1)),
            Param::new("b1", m(1, 2, 0.2)),
            Param::new("gate", m(3, 1, 1.7)),
        ]
    }

    #[test]
    fn masked_gradients_are_bitwise_the_full_ones() {
        let ps = two_layer_params();
        let mut full = Tape::new();
        let loss = two_layer_loss(&mut full, &ps);
        full.backward(loss);
        let gf = full.grads();
        assert_eq!(gf.len(), ps.len());
        // Every subset that leaves the first layer frozen, plus the full set.
        for trained in [
            vec![3, 4, 5, 6],
            vec![4],
            vec![3, 6],
            vec![2],
            (0..7).collect(),
        ] {
            let set: TrainableSet = trained.iter().map(|&i| ps[i].id()).collect();
            let mut t = Tape::with_trainable(set);
            let loss = two_layer_loss(&mut t, &ps);
            t.backward(loss);
            let gm = t.grads();
            assert_eq!(gm.len(), trained.len(), "{trained:?}");
            for &i in &trained {
                let (m, f) = (gm.get(ps[i].id()).unwrap(), gf.get(ps[i].id()).unwrap());
                let bits = |x: &Matrix| x.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(m), bits(f), "{} with {trained:?}", ps[i].name());
            }
        }
    }

    #[test]
    fn frozen_layers_get_no_backward() {
        let ps = two_layer_params();
        let set: TrainableSet = std::iter::once(ps[6].id()).collect();
        let mut t = Tape::with_trainable(set);
        let loss = two_layer_loss(&mut t, &ps);
        t.backward(loss);
        let first_layer = (0..t.len())
            .map(|i| NodeId(i as u32))
            .take_while(|&id| !matches!(t.op(id), Op::LayerNorm { .. }));
        for id in first_layer {
            assert!(t.grad(id).is_none(), "{} got a gradient", t.op(id).name());
        }
        // Nothing trainable reaches the loss: no gradient anywhere.
        let mut none = Tape::with_trainable(TrainableSet::default());
        let loss = two_layer_loss(&mut none, &ps);
        none.backward(loss);
        assert!(none.grads().is_empty() && none.grad(loss).is_none());
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.data().iter().map(|v| v.to_bits()).collect()
    }

    fn wave(rows: usize, cols: usize, f: f32) -> Matrix {
        Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols).map(|i| (i as f32 * f).sin()).collect(),
        )
    }

    /// `a·bᵀ` as one ascending-`p` [`kernels::fmadd`] chain from `+0.0` per
    /// element, plus `prior` once after the chain.
    fn chain_bt(a: &Matrix, b: &Matrix, prior: Option<&Matrix>) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.rows());
        for i in 0..a.rows() {
            for j in 0..b.rows() {
                let s = (a.row(i).iter().zip(b.row(j)))
                    .fold(0.0, |s, (&x, &y)| kernels::fmadd(x, y, s));
                out.set(i, j, prior.map_or(s, |p| p.get(i, j) + s));
            }
        }
        out
    }

    /// Every product with a transposed right operand — the `matmul_bt`
    /// node, `MatMul`'s `dA = g·bᵀ` and `Affine`'s `dX = g·Wᵀ` — is bitwise
    /// the chain oracle, over a parameter's shared transpose and over a
    /// plain node's, with the gradient slot empty or already holding a
    /// contribution.
    #[test]
    fn every_transposed_product_is_the_ascending_chain() {
        for m in 1..=9 {
            for width in 1..=33 {
                for inner in [1usize, 5, 16, 33] {
                    let ctx = format!("{m} rows, width {width}, inner {inner}");
                    let a = wave(m, inner, 0.37);
                    let b = Param::new("b", wave(width, inner, 0.71));
                    let mut t = Tape::new();
                    let an = t.leaf(a.clone());
                    let (bp, bl) = (t.param(&b), t.leaf(b.data().clone()));
                    let want = bits(&chain_bt(&a, b.data(), None));
                    for bn in [bp, bl] {
                        let y = t.matmul_bt(an, bn);
                        assert_eq!(bits(t.value(y)), want, "matmul_bt, {ctx}");
                    }
                    let w = Param::new("w", wave(width, inner, 0.29));
                    let bias = Param::new("bias", wave(1, inner, 0.13));
                    for (affine, w_param, accumulate) in
                        (0..8).map(|c| (c & 1 > 0, c & 2 > 0, c & 4 > 0))
                    {
                        let mut t = Tape::new();
                        let x = t.leaf(wave(m, width, 0.43));
                        let wn = if w_param {
                            t.param(&w)
                        } else {
                            t.leaf(w.data().clone())
                        };
                        let y = if affine {
                            let bn = t.param(&bias);
                            t.affine(x, wn, bn)
                        } else {
                            t.matmul(x, wn)
                        };
                        // A later reader of `x` fills its slot first, so the
                        // product accumulates onto that contribution.
                        let later = accumulate.then(|| t.scale(x, 0.5));
                        let logits = match later {
                            Some(z) => t.concat_cols(&[y, z]),
                            None => y,
                        };
                        let targets: Vec<usize> = (0..m).map(|i| i % inner).collect();
                        let loss = t.cross_entropy(logits, &targets);
                        t.backward(loss);
                        let prior = later.map(|z| {
                            let mut p = t.grad(z).unwrap().clone();
                            p.scale_assign(0.5);
                            p
                        });
                        let want = chain_bt(t.grad(y).unwrap(), w.data(), prior.as_ref());
                        assert_eq!(
                            bits(t.grad(x).unwrap()),
                            bits(&want),
                            "affine {affine}, param {w_param}, accumulate {accumulate}, {ctx}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn backward_ignores_unrelated_nodes() {
        let mut t = Tape::new();
        let p = Param::new("x", Matrix::scalar(1.0));
        let x = t.param(&p);
        let _unused = t.scale(x, 3.0);
        let y = t.scale(x, 2.0);
        t.backward(y);
        assert_eq!(t.grads().get(p.id()).unwrap().scalar_value(), 2.0);
    }
}
