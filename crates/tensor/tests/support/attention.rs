//! The per-head attention graph the tape recorded before `Tape::attention`
//! fused it into one node, kept as the reference that node must reproduce
//! bit for bit. The keys, values and prefix rows are first rounded through
//! binary16 (`half::narrow` then `half::widen`), as the KV cache stores
//! them. Per head `h`: slice `q` and the rounded `k`, `v` (and prefix rows)
//! to the head's columns, stack the prefix rows above the keys and values,
//! `q_h·k_hᵀ`, scale by `1/√d_h`, mask, softmax, `·v_h`; then concatenate
//! the heads. The backward replays that graph's arms in reverse tape order
//! with the same kernels, each into a fresh matrix as its gradient slot got
//! one, and accumulates every input's gradient head by head as the slice
//! nodes did: a zero matrix holding only that head's columns. The rounding
//! passes gradients straight through, so the slots of `k`, `v` and the
//! prefix rows take the rounded rows' gradients unchanged.
//!
//! Included with `#[path]` by the suites that compare against it.
#![allow(dead_code)]

use infuserki_tensor::{half, kernels, Matrix};

/// The attention inputs: `[n,d]` queries, keys and values, and optional
/// `[p,d]` prefix keys and values.
pub struct Inputs<'a> {
    pub q: &'a Matrix,
    pub k: &'a Matrix,
    pub v: &'a Matrix,
    pub prefix: Option<(&'a Matrix, &'a Matrix)>,
    pub n_heads: usize,
}

/// `m` through binary16 and back: the rows a KV cache reads.
fn rounded(m: &Matrix) -> Matrix {
    let mut bits = vec![0u16; m.len()];
    half::narrow(m.data(), &mut bits);
    let mut out = Matrix::zeros(m.rows(), m.cols());
    half::widen(&bits, out.data_mut());
    out
}

/// One head's forward intermediates, as the per-head nodes held them.
struct Head {
    qh: Matrix,
    /// `[p+n, d_h]`: prefix rows above the sequence's.
    kh: Matrix,
    vh: Matrix,
    attn: Matrix,
    out: Matrix,
}

impl Inputs<'_> {
    fn prefix_len(&self) -> usize {
        self.prefix.map_or(0, |(pk, _)| pk.rows())
    }

    fn head_dim(&self) -> usize {
        self.q.cols() / self.n_heads
    }

    fn head(&self, h: usize) -> Head {
        let (lo, hi) = (h * self.head_dim(), (h + 1) * self.head_dim());
        let p = self.prefix_len();
        let stacked = |prefix: Option<&Matrix>, x: &Matrix| match prefix {
            Some(px) => {
                let mut m = rounded(&px.slice_cols(lo, hi));
                m.append_rows(&rounded(&x.slice_cols(lo, hi)));
                m
            }
            None => rounded(&x.slice_cols(lo, hi)),
        };
        let qh = self.q.slice_cols(lo, hi);
        let kh = stacked(self.prefix.map(|x| x.0), self.k);
        let vh = stacked(self.prefix.map(|x| x.1), self.v);
        // `matmul_bt` over a plain node transposed it at the op.
        let mut scores = kernels::matmul(&qh, &kh.transposed());
        scores.scale_assign(1.0 / (self.head_dim() as f32).sqrt());
        for r in 0..scores.rows() {
            for x in &mut scores.row_mut(r)[r + p + 1..] {
                *x = -1e9;
            }
        }
        let attn = kernels::softmax_rows(&scores);
        let out = kernels::matmul(&attn, &vh);
        Head {
            qh,
            kh,
            vh,
            attn,
            out,
        }
    }

    /// The forward value `[n,d]`.
    pub fn forward(&self) -> Matrix {
        let hd = self.head_dim();
        let mut out = Matrix::zeros(self.q.rows(), self.q.cols());
        for h in 0..self.n_heads {
            let head = self.head(h).out;
            for r in 0..out.rows() {
                out.row_mut(r)[h * hd..(h + 1) * hd].copy_from_slice(head.row(r));
            }
        }
        out
    }

    /// The gradient slots of `[q, k, v, pk, pv]` after the attention arms
    /// ran on the output gradient `gout`, from the slots' contents before
    /// (`None`: empty).
    pub fn backward(&self, gout: &Matrix, mut slots: [Option<Matrix>; 5]) -> [Option<Matrix>; 5] {
        let (n, d) = self.q.shape();
        let hd = self.head_dim();
        let p = self.prefix_len();
        let scale = 1.0 / (hd as f32).sqrt();
        for h in (0..self.n_heads).rev() {
            let (lo, hi) = (h * hd, (h + 1) * hd);
            let head = self.head(h);
            let g = gout.slice_cols(lo, hi);
            // out = attn·v: dA = g·vᵀ, dV = attnᵀ·g.
            let mut da = Matrix::zeros(n, p + n);
            kernels::matmul_into(&g, &head.vh.transposed(), &mut da, false);
            let mut dvh = Matrix::zeros(p + n, hd);
            kernels::matmul_at_into(&head.attn, &g, &mut dvh, false);
            // Softmax, then the mask (identity), then the scale.
            let mut ds = Matrix::zeros(n, p + n);
            for r in 0..n {
                let (gr, yr) = (da.row(r), head.attn.row(r));
                let dotp = kernels::dot(gr, yr);
                for (c, o) in ds.row_mut(r).iter_mut().enumerate() {
                    *o = yr[c] * (gr[c] - dotp);
                }
            }
            ds.scale_assign(scale);
            // scores = q·kᵀ: dQ = ds·k, dK = dsᵀ·q.
            let mut dqh = Matrix::zeros(n, hd);
            kernels::matmul_into(&ds, &head.kh, &mut dqh, false);
            let mut dkh = Matrix::zeros(p + n, hd);
            kernels::matmul_at_into(&ds, &head.qh, &mut dkh, false);
            // The slice nodes, latest first: pv, pk, v, k, q.
            let rows = |m: &Matrix, a: usize, b: usize| {
                Matrix::from_vec(b - a, hd, m.data()[a * hd..b * hd].to_vec())
            };
            let parts = [
                (4, rows(&dvh, 0, p)),
                (3, rows(&dkh, 0, p)),
                (2, rows(&dvh, p, p + n)),
                (1, rows(&dkh, p, p + n)),
                (0, dqh),
            ];
            for (slot, part) in parts {
                if slot >= 3 && self.prefix.is_none() {
                    continue;
                }
                let mut full = Matrix::zeros(part.rows(), d);
                for r in 0..part.rows() {
                    full.row_mut(r)[lo..hi].copy_from_slice(part.row(r));
                }
                match &mut slots[slot] {
                    Some(s) => s.add_assign(&full),
                    empty => *empty = Some(full),
                }
            }
        }
        slots
    }
}
