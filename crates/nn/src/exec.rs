//! One forward, two ways to run it.
//!
//! Every module of the model (`Linear`, `LayerNorm`, `Embedding`,
//! `FeedForward`, attention, the block, the LM) and every [`LayerHook`] is
//! written once, as calls on an [`Exec`]:
//!
//! - [`Exec::tape`] records each op as a tape node, so training and the
//!   analysis probes differentiate and read the same graph they always did;
//! - an eager `Exec` runs the same `tensor::infer` / `kernels` call at once
//!   on owned matrices — the packed rows of a ragged batch — reading
//!   parameters in place, updating residuals in place and folding int8
//!   weights through the fused kernel. The KV-cached engine
//!   ([`crate::TransformerLm::extend_cached_batch`]) runs it over its block
//!   pool.
//!
//! Both modes share every value computation, so a row computed eagerly is
//! bitwise the tape's (at one kernel thread) under any chunking and batch
//! composition. Two ops differ in *where* they read history, not in what
//! they compute:
//!
//! - `Exec::attention` runs the all-heads kernels
//!   ([`kernels::qk_heads_panel`], [`kernels::softmax_heads_causal_in_place`],
//!   [`kernels::av_heads_seg_into`]) in both modes: on the tape as one
//!   [`Tape::attention`] node over the whole sequence as one panel, eagerly
//!   over each sequence's cached blocks, panel by panel;
//! - [`Exec::cum_mean_rows`] is the gate's causal prefix mean. Eagerly, each
//!   sequence resumes from the running column sums stored in the KV block
//!   that holds its last cached row, and leaves its new sums in the blocks
//!   it writes — so the statistic forks, copies-on-write and is adopted from
//!   the prefix cache together with the K/V rows it summarizes.

use infuserki_tensor::{
    infer, kernels, HalfMatrix, Matrix, NodeId, Param, QuantizedMatrix, SeqBatch, Tape,
};

use crate::block_alloc::{BlockId, BlockPool};
use crate::hooks::{ForwardTrace, LayerHook};
use crate::kv_cache::SeqKv;

/// A value flowing through a forward: a node on the tape, or an owned
/// matrix of an eager forward. An `Exec` only ever sees its own kind.
#[derive(Debug, Clone)]
pub enum Val {
    /// A tape node ([`Exec::tape`]).
    Node(NodeId),
    /// An eager value.
    Mat(Matrix),
}

impl Val {
    /// The tape node.
    ///
    /// # Panics
    /// Panics on an eager value.
    pub fn node(&self) -> NodeId {
        match self {
            Val::Node(n) => *n,
            Val::Mat(_) => panic!("Val::node on an eager value"),
        }
    }

    /// The eager matrix.
    ///
    /// # Panics
    /// Panics on a tape node.
    pub fn into_mat(self) -> Matrix {
        match self {
            Val::Mat(m) => m,
            Val::Node(_) => panic!("Val::into_mat on a tape node"),
        }
    }
}

impl From<NodeId> for Val {
    fn from(n: NodeId) -> Self {
        Val::Node(n)
    }
}

/// The KV context of an eager forward over a packed batch: sequence `i`'s
/// chunk is rows `batch.range(i)`, its history is `seqs[i]`'s blocks in
/// `pool` (with the span for this chunk already made writable), and
/// `prefix[l]` is layer `l`'s shared virtual prefix panel pair `(Kᵀ, V)`,
/// binary16 like the blocks.
pub(crate) struct Paged<'a> {
    pub(crate) batch: &'a SeqBatch,
    pub(crate) pool: &'a mut BlockPool,
    pub(crate) seqs: &'a [SeqKv],
    pub(crate) prefix: &'a [(HalfMatrix, HalfMatrix)],
}

enum Mode<'a> {
    Tape(&'a mut Tape),
    /// `None` outside a cached forward: hooks asked for their prefix rows
    /// when a cache is built.
    Eager(Option<Paged<'a>>),
}

/// How a forward runs: recorded on a tape, or eagerly over a KV cache.
pub struct Exec<'a> {
    mode: Mode<'a>,
    trace: ForwardTrace,
}

fn mismatch() -> ! {
    panic!("Exec: a value of the other mode")
}

fn mat(v: &Val) -> &Matrix {
    match v {
        Val::Mat(m) => m,
        Val::Node(_) => mismatch(),
    }
}

impl<'a> Exec<'a> {
    /// Records onto `tape`, with a fresh trace.
    pub fn tape(tape: &'a mut Tape) -> Self {
        Exec {
            mode: Mode::Tape(tape),
            trace: ForwardTrace::new(),
        }
    }

    /// Runs `f` as one recording on `tape` and returns its output node: how
    /// a loss or a test drives a module outside a model forward.
    pub fn on_tape(tape: &mut Tape, f: impl FnOnce(&mut Exec<'_>) -> Val) -> NodeId {
        f(&mut Exec::tape(tape)).node()
    }

    /// An eager `Exec` outside any cached forward (attention and the pooled
    /// gate need `Exec::paged`).
    pub fn eager() -> Exec<'static> {
        Exec {
            mode: Mode::Eager(None),
            trace: ForwardTrace::new(),
        }
    }

    /// An eager `Exec` over a cached forward's packed batch.
    pub(crate) fn paged(kv: Paged<'a>) -> Self {
        Exec {
            mode: Mode::Eager(Some(kv)),
            trace: ForwardTrace::new(),
        }
    }

    /// Whether ops record tape nodes.
    pub fn is_tape(&self) -> bool {
        matches!(self.mode, Mode::Tape(_))
    }

    /// The forward's trace. On the tape it collects the probe nodes; in both
    /// modes it carries InfuserKI's cross-layer adapter output.
    pub fn trace(&mut self) -> &mut ForwardTrace {
        &mut self.trace
    }

    pub(crate) fn swap_trace(&mut self, trace: &mut ForwardTrace) {
        std::mem::swap(&mut self.trace, trace);
    }

    /// The value of `v`.
    pub fn value<'v>(&'v self, v: &'v Val) -> &'v Matrix {
        match (&self.mode, v) {
            (Mode::Tape(t), Val::Node(n)) => t.value(*n),
            (Mode::Eager(_), Val::Mat(m)) => m,
            _ => mismatch(),
        }
    }

    /// One op: `tape` records it, `eager` computes it.
    fn op(
        &mut self,
        tape: impl FnOnce(&mut Tape) -> NodeId,
        eager: impl FnOnce() -> Matrix,
    ) -> Val {
        match &mut self.mode {
            Mode::Tape(t) => Val::Node(tape(t)),
            Mode::Eager(_) => Val::Mat(eager()),
        }
    }

    /// One op whose result replaces `a`: eagerly it runs in `a`'s storage.
    fn op_into(
        &mut self,
        a: Val,
        tape: impl FnOnce(&mut Tape, NodeId) -> NodeId,
        eager: impl FnOnce(&mut Matrix),
    ) -> Val {
        match (&mut self.mode, a) {
            (Mode::Tape(t), Val::Node(n)) => Val::Node(tape(t, n)),
            (Mode::Eager(_), Val::Mat(mut m)) => {
                eager(&mut m);
                Val::Mat(m)
            }
            _ => mismatch(),
        }
    }

    /// A constant input (copied).
    pub fn leaf(&mut self, m: &Matrix) -> Val {
        self.op(|t| t.leaf(m.clone()), || m.clone())
    }

    /// A parameter as a value: its tape leaf, or a copy of its data.
    pub fn param(&mut self, p: &Param) -> Val {
        self.op(|t| t.param(p), || p.data().clone())
    }

    /// `x W + b`: the fused affine node (plain matmul without a bias) on the
    /// tape; eagerly the same arithmetic through [`infer::affine`], or the
    /// fused int8 dequant-matmul when `qw` holds `w` packed (bitwise the
    /// dense product over the dequantized `w`).
    pub fn linear(
        &mut self,
        x: &Val,
        w: &Param,
        b: Option<&Param>,
        qw: Option<&QuantizedMatrix>,
    ) -> Val {
        let tape = |t: &mut Tape| {
            let wn = t.param(w);
            match b {
                Some(b) => {
                    let bn = t.param(b);
                    t.affine(x.node(), wn, bn)
                }
                None => t.matmul(x.node(), wn),
            }
        };
        let eager = || match (qw, b) {
            (Some(qw), b) => {
                let mut v = qw.matmul(mat(x));
                if let Some(b) = b {
                    // `infer::affine`'s bias pass: one `+=` per element
                    // after the matmul chain.
                    add_row(&mut v, b.data().row(0));
                }
                v
            }
            (None, Some(b)) => infer::affine(mat(x), w.data(), b.data()),
            (None, None) => kernels::matmul(mat(x), w.data()),
        };
        self.op(tape, eager)
    }

    /// Row-wise layer normalization with gain and bias.
    pub fn layer_norm(&mut self, x: &Val, gain: &Param, bias: &Param, eps: f32) -> Val {
        self.op(
            |t| {
                let (g, b) = (t.param(gain), t.param(bias));
                t.layer_norm(x.node(), g, b, eps)
            },
            || infer::layer_norm(mat(x), gain.data(), bias.data(), eps),
        )
    }

    /// Rows `ids` of `table`.
    pub fn embedding(&mut self, table: &Param, ids: &[usize]) -> Val {
        self.op(
            |t| {
                let w = t.param(table);
                t.embedding(w, ids)
            },
            || {
                let t = table.data();
                let mut out = Matrix::zeros(ids.len(), t.cols());
                for (r, &id) in ids.iter().enumerate() {
                    assert!(id < t.rows(), "embedding id {id} out of range");
                    out.row_mut(r).copy_from_slice(t.row(id));
                }
                out
            },
        )
    }

    /// The weight-tied LM head `h Eᵀ`: `matmul_bt` on the tape; eagerly a
    /// plain matmul by the table's own transpose ([`Param::transposed`],
    /// `[d_model, vocab]`, so logits fold with lanes across the vocabulary)
    /// — the product the tape runs too, so the logits are bitwise equal.
    pub(crate) fn tied_head(&mut self, h: &Val, table: &Param) -> Val {
        self.op(
            |t| {
                let e = t.param(table);
                t.matmul_bt(h.node(), e)
            },
            || kernels::matmul(mat(h), table.transposed()),
        )
    }

    /// `a + b`, into `a`'s storage when eager (f32 addition commutes, so the
    /// bits do not depend on which operand owns the sum).
    pub fn add(&mut self, a: Val, b: &Val) -> Val {
        self.op_into(a, |t, n| t.add(n, b.node()), |m| m.add_assign(mat(b)))
    }

    /// `a [n,d]` plus the `[1,d]` parameter `p` on every row.
    pub fn add_row_param(&mut self, a: Val, p: &Param) -> Val {
        self.op_into(
            a,
            |t, n| {
                let pn = t.param(p);
                t.add_row_broadcast(n, pn)
            },
            |m| add_row(m, p.data().row(0)),
        )
    }

    /// `a @ b`.
    pub fn matmul(&mut self, a: &Val, b: &Val) -> Val {
        self.op(
            |t| t.matmul(a.node(), b.node()),
            || kernels::matmul(mat(a), mat(b)),
        )
    }

    /// Per-row scaling `a[t] · s[t]` by the `[n,1]` column `s`.
    pub fn mul_col_broadcast(&mut self, a: &Val, s: &Val) -> Val {
        self.op(
            |t| t.mul_col_broadcast(a.node(), s.node()),
            || infer::mul_col_broadcast(mat(a), mat(s)),
        )
    }

    /// `a · c` for a constant `c`.
    pub fn scale(&mut self, a: Val, c: f32) -> Val {
        self.op_into(a, |t, n| t.scale(n, c), |m| m.scale_assign(c))
    }

    /// Element-wise ReLU.
    pub fn relu(&mut self, a: Val) -> Val {
        self.op_into(a, Tape::relu, |m| {
            m.data_mut().iter_mut().for_each(|x| *x = x.max(0.0))
        })
    }

    /// Element-wise GELU (tanh approximation).
    pub fn gelu(&mut self, a: Val) -> Val {
        self.op_into(a, Tape::gelu, |m| kernels::gelu_slice(m.data_mut()))
    }

    /// Element-wise tanh.
    pub fn tanh(&mut self, a: Val) -> Val {
        self.op_into(a, Tape::tanh, |m| kernels::tanh_slice(m.data_mut()))
    }

    /// Element-wise logistic sigmoid.
    pub fn sigmoid(&mut self, a: Val) -> Val {
        self.op_into(a, Tape::sigmoid, |m| {
            m.data_mut()
                .iter_mut()
                .for_each(|x| *x = kernels::sigmoid(*x))
        })
    }

    /// Rows `start..end` of `a`.
    pub fn slice_rows(&mut self, a: &Val, start: usize, end: usize) -> Val {
        self.op(
            |t| t.slice_rows(a.node(), start, end),
            || mat(a).slice_rows(start, end),
        )
    }

    /// The vertical stack `[a; b]`.
    pub fn concat_rows(&mut self, a: &Val, b: &Val) -> Val {
        self.op(
            |t| t.concat_rows(a.node(), b.node()),
            || {
                let (a, b) = (mat(a), mat(b));
                assert_eq!(a.cols(), b.cols(), "concat_rows: col mismatch");
                Matrix::from_vec(a.rows() + b.rows(), a.cols(), [a.data(), b.data()].concat())
            },
        )
    }

    /// Cumulative prefix mean over each sequence's rows,
    /// `out[t] = mean(x[0..=t])` with `t` counted from the sequence's first
    /// token — the one statistic that crosses chunks. Eagerly it resumes
    /// from the running column sums the sequence's last cached row left in
    /// its KV block for `layer`, and stores the new sums in every block this
    /// chunk writes; a hook calls it at most once per layer per forward.
    pub fn cum_mean_rows(&mut self, x: &Val, layer: usize) -> Val {
        match &mut self.mode {
            Mode::Tape(t) => Val::Node(t.cum_mean_rows(x.node())),
            Mode::Eager(None) => Val::Mat(infer::cumulative_mean_rows(mat(x))),
            Mode::Eager(Some(kv)) => Val::Mat(kv.cum_mean_rows(mat(x), layer)),
        }
    }

    /// Causal multi-head attention of `q` over `k`/`v` plus the hook's
    /// prefix rows at `layer`. On the tape: one [`Tape::attention`] node
    /// over the whole sequence, the prefix from [`LayerHook::prefix_kv`].
    /// Eagerly: each sequence's new K/V rows are written into its blocks and
    /// its queries attend over the cache's prefix panel and its block
    /// history. Both run the same all-heads kernels.
    pub(crate) fn attention(
        &mut self,
        layer: usize,
        n_heads: usize,
        q: &Val,
        k: &Val,
        v: &Val,
        hook: &dyn LayerHook,
    ) -> Val {
        if let Mode::Eager(kv) = &mut self.mode {
            let kv = kv.as_mut().expect("eager attention runs over a KV cache");
            return Val::Mat(kv.attention(layer, n_heads, mat(q), mat(k), mat(v)));
        }
        let prefix = hook
            .prefix_kv(layer, self)
            .map(|(pk, pv)| (pk.node(), pv.node()));
        let Mode::Tape(t) = &mut self.mode else {
            unreachable!("eager returned above")
        };
        Val::Node(t.attention(q.node(), k.node(), v.node(), prefix, n_heads))
    }
}

/// Where [`Paged::attention`] reads one cached panel pair from: the hook's
/// prefix panels or an unshared block, both widened into scratch per fold
/// call, or the `n`-th shared block widened once per call.
enum Panel {
    Prefix,
    Own(BlockId),
    Shared(usize),
}

/// The first `rows` rows of `h`, widened into `scratch`.
fn widened<'s>(h: &HalfMatrix, rows: usize, scratch: &'s mut Matrix) -> &'s Matrix {
    h.widen_rows_into(rows, scratch);
    scratch
}

/// `m[r] += row` for every row `r`.
fn add_row(m: &mut Matrix, row: &[f32]) {
    for r in 0..m.rows() {
        for (x, y) in m.row_mut(r).iter_mut().zip(row) {
            *x += y;
        }
    }
}

impl Paged<'_> {
    /// See [`Exec::cum_mean_rows`].
    fn cum_mean_rows(&mut self, x: &Matrix, layer: usize) -> Matrix {
        assert_eq!(self.batch.total_rows(), x.rows(), "cum_mean: row mismatch");
        let b = self.pool.block_rows();
        let mut out = Matrix::zeros(x.rows(), x.cols());
        let mut sums = vec![0.0f32; x.cols()];
        for (seq, rng) in self.seqs.iter().zip(self.batch.ranges()) {
            let mut count = seq.tokens;
            match count {
                0 => sums.fill(0.0),
                n => sums.copy_from_slice(self.pool.block(seq.table[(n - 1) / b]).sums(layer)),
            }
            // Block by block: each block the chunk writes keeps the sums
            // after its last written row.
            let mut row = rng.start;
            while row < rng.end {
                let j = count / b;
                let n = (b - count % b).min(rng.end - row);
                let span = row..row + n;
                infer::cumulative_mean_rows_continue(
                    &mut sums,
                    &mut count,
                    x.row_span(span.clone()),
                    out.row_span_mut(span),
                );
                let data = self.pool.block_mut(seq.table[j]);
                data.sums_mut(layer).copy_from_slice(&sums);
                row += n;
            }
        }
        out
    }

    /// The paged attention core over one layer's projected rows.
    ///
    /// The walk is block outer, heads inner: per (sequence, block) one
    /// [`kernels::qk_heads_panel`] call reads the transposed K panel once and
    /// writes every head's score columns into the query-major scores buffer
    /// `[m·n_heads, keys]`; one [`kernels::softmax_heads_causal_in_place`]
    /// call per sequence applies the `1/√d_h` scale and the causal softmax to
    /// every head's rows; and one [`kernels::av_heads_seg_into`] call per
    /// (sequence, block) continues every head's attention·V chain. Each
    /// binary16 panel is widened into one f32 scratch panel just before the
    /// call that folds it, once per call whatever the number of query rows.
    /// Only this stage mixes rows, and it runs per sequence against that
    /// sequence's own history, so batch members cannot attend to each other.
    ///
    /// Bitwise contract: widening is exact, so the kernels fold the rounded
    /// rows [`Tape::attention`] folds; each score is one ascending chain over
    /// its head's dimensions and depends on one Q row and one key only; and
    /// the attention·V product folds prefix-then-blocks in ascending order
    /// through one continued accumulation chain per output element — so the
    /// output rows are bit-for-bit what [`Tape::attention`] computes over
    /// the contiguous sequence.
    fn attention(
        &mut self,
        layer: usize,
        n_heads: usize,
        q: &Matrix,
        k: &Matrix,
        v: &Matrix,
    ) -> Matrix {
        let batch = self.batch;
        assert_eq!(
            batch.n_seqs(),
            self.seqs.len(),
            "attention: cache/batch mismatch"
        );
        assert_eq!(batch.total_rows(), q.rows(), "attention: row mismatch");
        let (pkt, pv) = &self.prefix[layer];
        let prefix_len = pv.rows();
        let pool = &mut *self.pool;
        let b_rows = pool.block_rows();
        let scale = 1.0 / ((q.cols() / n_heads) as f32).sqrt();
        let mut merged = Matrix::zeros(q.rows(), q.cols());
        // One scores buffer for every sequence of this call, sized for the
        // largest: the panels below overwrite every element the softmax and
        // the AV fold later read, so it is never cleared.
        let widest = self
            .seqs
            .iter()
            .zip(batch.ranges())
            .map(|(seq, rng)| rng.len() * (prefix_len + seq.tokens + rng.len()))
            .max()
            .unwrap_or(0);
        let mut scores = Matrix::zeros(1, n_heads * widest);
        // An unshared panel is widened into one f32 scratch just before the
        // call that folds it. A block more than one reference holds (a
        // forked question, an adopted prefix) is never written while shared,
        // so it is widened once per call and kept for every sequence here
        // that reads it.
        let mut scratch = Matrix::zeros(0, 0);
        let mut shared: Vec<(BlockId, Matrix, Matrix)> = Vec::new();
        // (where a panel pair comes from, tokens it holds) in history order.
        let mut panels: Vec<(Panel, usize)> = Vec::new();
        for (s, seq) in self.seqs.iter().enumerate() {
            let rng = batch.range(s);
            let m = rng.len();
            seq.write_chunk(pool, layer, k, v, rng.start, m);
            let tokens_after = seq.tokens + m;
            scores.reset_shape(m * n_heads, prefix_len + tokens_after);
            panels.clear();
            if prefix_len > 0 {
                panels.push((Panel::Prefix, prefix_len));
            }
            for (j, &id) in seq.table.iter().enumerate() {
                let panel = if pool.refs(id) > 1 {
                    let at = shared.iter().position(|e| e.0 == id).unwrap_or_else(|| {
                        let data = pool.block(id);
                        shared.push((id, data.keys(layer).widen(), data.values(layer).widen()));
                        shared.len() - 1
                    });
                    Panel::Shared(at)
                } else {
                    Panel::Own(id)
                };
                panels.push((panel, b_rows.min(tokens_after - j * b_rows)));
            }
            let mut col = 0;
            for (panel, keys) in &panels {
                let kt = match *panel {
                    Panel::Shared(at) => &shared[at].1,
                    Panel::Prefix => widened(pkt, pkt.rows(), &mut scratch),
                    Panel::Own(id) => {
                        let kt = pool.block(id).keys(layer);
                        widened(kt, kt.rows(), &mut scratch)
                    }
                };
                kernels::qk_heads_panel(
                    q,
                    rng.start,
                    rng.end,
                    kt,
                    *keys,
                    n_heads,
                    &mut scores,
                    col,
                );
                col += keys;
            }
            // Columns visible to this chunk's first row: prefix + previously
            // cached tokens — the causal-mask offset of these rows in a full
            // forward over this sequence.
            let offset = prefix_len + seq.tokens;
            kernels::softmax_heads_causal_in_place(&mut scores, n_heads, offset, scale);
            // Fold the AV product prefix-then-blocks in ascending order: the
            // segment at column 0 starts `merged`'s rows from zero, the rest
            // continue the same chains.
            let mut col = 0;
            for (panel, keys) in &panels {
                let v = match *panel {
                    Panel::Shared(at) => &shared[at].2,
                    Panel::Prefix => widened(pv, *keys, &mut scratch),
                    Panel::Own(id) => widened(pool.block(id).values(layer), *keys, &mut scratch),
                };
                let hi = col + keys;
                kernels::av_heads_seg_into(
                    &scores,
                    col,
                    hi,
                    v,
                    n_heads,
                    &mut merged,
                    rng.start,
                    col > 0,
                );
                col = hi;
            }
        }
        merged
    }
}
