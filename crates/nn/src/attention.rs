//! Causal multi-head self-attention with hook points for LoRA deltas and
//! prefix-tuning key/value rows.

use infuserki_tensor::{kernels, Matrix, NodeId, Param, SeqBatch, Tape};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::block_alloc::BlockPool;
use crate::kv_cache::SeqKv;
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
    /// add low-rank deltas to the q/v projections and prepend prefix K/V rows.
    pub fn forward(&self, x: NodeId, hook: &dyn LayerHook, tape: &mut Tape) -> NodeId {
        let mut q = self.wq.forward(x, tape);
        let k = self.wk.forward(x, tape);
        let mut v = self.wv.forward(x, tape);

        if let Some(dq) = hook.attn_q_delta(self.layer, x, tape) {
            q = tape.add(q, dq);
        }
        if let Some(dv) = hook.attn_v_delta(self.layer, x, tape) {
            v = tape.add(v, dv);
        }
        let prefix = hook.prefix_kv(self.layer, tape);
        let prefix_len = prefix.map(|(pk, _)| tape.value(pk).rows()).unwrap_or(0);

        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let mut heads = Vec::with_capacity(self.n_heads);
        for h in 0..self.n_heads {
            let lo = h * self.head_dim;
            let hi = lo + self.head_dim;
            let qh = tape.slice_cols(q, lo, hi);
            let mut kh = tape.slice_cols(k, lo, hi);
            let mut vh = tape.slice_cols(v, lo, hi);
            if let Some((pk, pv)) = prefix {
                let pkh = tape.slice_cols(pk, lo, hi);
                let pvh = tape.slice_cols(pv, lo, hi);
                kh = tape.concat_rows(pkh, kh);
                vh = tape.concat_rows(pvh, vh);
            }
            let scores = tape.matmul_bt(qh, kh);
            let scaled = tape.scale(scores, scale);
            let masked = tape.causal_mask(scaled, prefix_len);
            let attn = tape.softmax(masked);
            heads.push(tape.matmul(attn, vh));
        }
        let merged = tape.concat_cols(&heads);
        self.wo.forward(merged, tape)
    }

    /// Batched incremental forward over the paged KV pool: `x` packs one new
    /// chunk per sequence (layout in `batch`); `seqs[i]` is sequence `i`'s
    /// block table, with the span for this chunk already made writable
    /// (`SeqKv::prepare_append`); `prefix` is this layer's shared virtual
    /// prefix panel pair `(Kᵀ, V)` as `KvCache` holds it (zero-length when
    /// the hook provides none).
    ///
    /// The q/k/v/output projections and the hook's q/v deltas are row-local,
    /// so they run once over the packed matrix — per-row bitwise-equal (at
    /// one kernel thread) to projecting each sequence alone. Only the
    /// score/mask/softmax/AV stage mixes rows, and it runs per sequence
    /// against that sequence's own cached history, so batch members cannot
    /// attend to each other.
    ///
    /// The walk is block outer, heads inner: per (sequence, block) one
    /// [`kernels::qk_heads_panel`] call reads the transposed K panel once and
    /// writes every head's score columns into the query-major scores buffer
    /// `[m·n_heads, keys]`; one [`kernels::softmax_heads_causal_in_place`]
    /// call per sequence applies the `1/√d_h` scale and the causal softmax to
    /// every head's rows; and one [`kernels::av_heads_seg_into`] call per
    /// (sequence, block) continues every head's attention·V chain.
    ///
    /// Bitwise contract: each score is one ascending chain over its head's
    /// dimensions and depends on one Q row and one key only; the softmax
    /// computes `v · scale` per element exactly as the tape's scale node
    /// does; and the attention·V product folds prefix-then-blocks in
    /// ascending order through one continued accumulation chain per output
    /// element — so the output rows are bit-for-bit what the per-head,
    /// contiguous-cache tape forward produces.
    pub fn forward_batch(
        &self,
        x: &Matrix,
        batch: &SeqBatch,
        hook: &dyn LayerHook,
        pool: &mut BlockPool,
        seqs: &[SeqKv],
        prefix: &(Matrix, Matrix),
    ) -> Matrix {
        assert_eq!(
            batch.n_seqs(),
            seqs.len(),
            "forward_batch: cache/batch mismatch"
        );
        assert_eq!(batch.total_rows(), x.rows(), "forward_batch: row mismatch");
        let mut q = self.wq.apply(x);
        let k = self.wk.apply(x);
        let mut v = self.wv.apply(x);
        if let Some(dq) = hook.infer_attn_q_delta(self.layer, x) {
            q.add_assign(&dq);
        }
        if let Some(dv) = hook.infer_attn_v_delta(self.layer, x) {
            v.add_assign(&dv);
        }
        let (pkt, pv) = prefix;
        let prefix_len = pv.rows();
        let b_rows = pool.block_rows();
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let mut merged = Matrix::zeros(x.rows(), self.n_heads * self.head_dim);
        // One scores buffer for every sequence of this call, sized for the
        // largest: the panels below overwrite every element the softmax and
        // the AV fold later read, so it is never cleared.
        let widest = seqs
            .iter()
            .zip(batch.ranges())
            .map(|(seq, rng)| rng.len() * (prefix_len + seq.tokens + rng.len()))
            .max()
            .unwrap_or(0);
        let mut scores = Matrix::zeros(1, self.n_heads * widest);
        for (s, seq) in seqs.iter().enumerate() {
            let rng = batch.range(s);
            let m = rng.len();
            seq.write_chunk(pool, self.layer, &k, &v, rng.start, m);
            let tokens_after = seq.tokens + m;
            scores.reset_shape(m * self.n_heads, prefix_len + tokens_after);
            // (block, tokens it holds) in history order.
            let blocks = || {
                seq.table
                    .iter()
                    .enumerate()
                    .map(|(j, &id)| (pool.block(id), b_rows.min(tokens_after - j * b_rows)))
            };
            let panel = |kt: &Matrix, keys: usize, scores: &mut Matrix, col: usize| {
                kernels::qk_heads_panel(&q, rng.start, rng.end, kt, keys, self.n_heads, scores, col)
            };
            if prefix_len > 0 {
                panel(pkt, prefix_len, &mut scores, 0);
            }
            let mut col = prefix_len;
            for (data, filled) in blocks() {
                panel(&data.k[self.layer], filled, &mut scores, col);
                col += filled;
            }
            // Columns visible to this chunk's first row: prefix + previously
            // cached tokens — the causal-mask offset of these rows in a full
            // forward over this sequence.
            let offset = prefix_len + seq.tokens;
            kernels::softmax_heads_causal_in_place(&mut scores, self.n_heads, offset, scale);
            // Fold the AV product prefix-then-blocks in ascending order: the
            // segment at column 0 starts `merged`'s rows from zero, the rest
            // continue the same chains.
            let mut fold = |v: &Matrix, lo: usize, hi: usize| {
                let (n_heads, row0) = (self.n_heads, rng.start);
                kernels::av_heads_seg_into(&scores, lo, hi, v, n_heads, &mut merged, row0, lo > 0)
            };
            if prefix_len > 0 {
                fold(pv, 0, prefix_len);
            }
            let mut col = prefix_len;
            for (data, filled) in blocks() {
                fold(&data.v[self.layer], col, col + filled);
                col += filled;
            }
        }
        self.wo.apply(&merged)
    }

    /// The query projection (LoRA targets it).
    pub fn wq(&self) -> &Linear {
        &self.wq
    }

    /// The value projection (LoRA targets it).
    pub fn wv(&self) -> &Linear {
        &self.wv
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
    use infuserki_tensor::Matrix;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn attn() -> CausalSelfAttention {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        CausalSelfAttention::new(0, 8, 2, 0.2, &mut rng)
    }

    #[test]
    fn forward_shape_preserved() {
        let a = attn();
        let mut t = Tape::new();
        let x = t.leaf(Matrix::full(5, 8, 0.3));
        let y = a.forward(x, &NoHook, &mut t);
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
            let y = a.forward(x, &NoHook, &mut t);
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
            let y = a.forward(x, &NoHook, &mut t);
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
        let y = a.forward(x, &NoHook, &mut t);
        assert_eq!(t.value(y).shape(), (1, 8));
        assert!(t.value(y).all_finite());
    }
}
