//! Blockwise int8 weight quantization with a fused dequant-matmul kernel.
//!
//! Frozen base weights never need gradients, so they can be stored as packed
//! signed bytes plus per-block scales and dequantized on the fly inside the
//! matmul inner loop — 4× less weight memory traffic per product. Adapters,
//! gates and everything a tape touches stay f32.
//!
//! # Scheme
//!
//! Symmetric blockwise absmax, the int8 sibling of the 4-bit quantizer the
//! QLoRA baseline applies (`crates/baselines/src/qlora.rs`, which delegates
//! its arithmetic to [`quantize_dequantize_levels`] here): each weight row is
//! split into `block_size` column blocks; per block `scale = absmax / 127`
//! and values round to `q ∈ [-127, 127]` (symmetric — the `-128` code is
//! unused so the grid is sign-balanced). Dequantization is exactly
//! `q as f32 * scale`.
//!
//! # Determinism contract
//!
//! [`QuantizedMatrix::matmul`] is **bitwise-identical** to
//! `kernels::matmul(x, &self.dequantize())` in every ISA tier and at every
//! thread count: the fused kernel computes each dequantized value with the
//! same two exact-or-correctly-rounded steps (int→float convert is exact for
//! `|q| ≤ 127`; one f32 multiply) and folds it through the same ascending-`p`
//! accumulation chain as the dense kernel. Quantization itself is lossy —
//! per-element error against the *original* weights is bounded by
//! [`max_abs_error`] — but everything downstream of the quantized values is
//! exact, which is what lets one tolerance statement at the weights cover the
//! whole inference stack.

use crate::kernels;
use crate::matrix::Matrix;
use crate::simd::{self, Isa};
use serde::{Deserialize, Serialize};

/// Symmetric int8 levels: `[-MAX_LEVEL, MAX_LEVEL]`.
const MAX_LEVEL: f32 = 127.0;

/// Blockwise int8 quantization parameters for the frozen base.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct QuantSpec {
    /// Values per quantization block along a weight row (64, QLoRA's choice,
    /// keeps blocks aligned with the 16-column matmul strips).
    pub block_size: usize,
}

impl Default for QuantSpec {
    fn default() -> Self {
        QuantSpec { block_size: 64 }
    }
}

/// Worst-case absolute error of int8 absmax quantization for a block with
/// the given absmax: half a quantization step, plus an ulp-scale slop term
/// for the two roundings (`v/scale` and `q*scale`) the half-step argument
/// treats as exact, plus an absolute epsilon for subnormal-scale corners.
pub fn max_abs_error(absmax: f32) -> f32 {
    absmax / (2.0 * MAX_LEVEL) + absmax * 1e-5 + 1e-7
}

/// Quantizes one buffer blockwise to symmetric levels and dequantizes it
/// back, in place: per block `scale = absmax / max_level`, levels clamped to
/// `[min_level, max_level]`, zero blocks untouched. The shared arithmetic
/// core of this module's int8 path (`max_level = 127`) and the QLoRA
/// baseline's 4-bit path (`max_level = 7`, `min_level = -8`).
pub fn quantize_dequantize_levels(
    data: &mut [f32],
    block_size: usize,
    max_level: f32,
    min_level: f32,
) {
    assert!(block_size > 0, "block_size must be positive");
    for block in data.chunks_mut(block_size) {
        let absmax = block.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        if absmax == 0.0 {
            continue;
        }
        let scale = absmax / max_level;
        for v in block.iter_mut() {
            let q = (*v / scale).round().clamp(min_level, max_level);
            *v = q * scale;
        }
    }
}

/// A row-major matrix stored as packed int8 blocks plus per-block scales.
///
/// Layout: `q[r*cols + c]` holds the quantized value of element `(r, c)`;
/// `scales[r*blocks_per_row + c/block_size]` its block scale. Serialization
/// round-trips exactly (bytes and scale bits are stored verbatim).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedMatrix {
    rows: usize,
    cols: usize,
    block_size: usize,
    q: Vec<i8>,
    scales: Vec<f32>,
}

impl QuantizedMatrix {
    /// Quantizes `m` blockwise along its rows.
    ///
    /// # Panics
    /// Panics if `spec.block_size == 0`.
    pub fn quantize(m: &Matrix, spec: QuantSpec) -> Self {
        let bs = spec.block_size;
        assert!(bs > 0, "QuantSpec::block_size must be positive");
        let (rows, cols) = m.shape();
        let bpr = cols.div_ceil(bs).max(1);
        let mut q = vec![0i8; rows * cols];
        let mut scales = vec![0.0f32; rows * bpr];
        for r in 0..rows {
            let row = m.row(r);
            for (blk, chunk) in row.chunks(bs).enumerate() {
                let absmax = chunk.iter().fold(0.0f32, |acc, v| acc.max(v.abs()));
                if absmax == 0.0 {
                    continue; // q stays 0, scale stays 0.0: dequantizes to +0.0
                }
                let scale = absmax / MAX_LEVEL;
                scales[r * bpr + blk] = scale;
                for (c, &v) in chunk.iter().enumerate() {
                    let lvl = (v / scale).round().clamp(-MAX_LEVEL, MAX_LEVEL);
                    q[r * cols + blk * bs + c] = lvl as i8;
                }
            }
        }
        QuantizedMatrix {
            rows,
            cols,
            block_size: bs,
            q,
            scales,
        }
    }

    /// Rows of the (logical f32) matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of the (logical f32) matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The quantization block size along rows.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Blocks per row.
    fn bpr(&self) -> usize {
        self.cols.div_ceil(self.block_size).max(1)
    }

    /// Materializes the dequantized f32 matrix.
    pub fn dequantize(&self) -> Matrix {
        let bpr = self.bpr();
        let mut data = Vec::with_capacity(self.rows * self.cols);
        for r in 0..self.rows {
            let srow = &self.scales[r * bpr..(r + 1) * bpr];
            for (c, &qv) in self.q[r * self.cols..(r + 1) * self.cols]
                .iter()
                .enumerate()
            {
                data.push(qv as f32 * srow[c / self.block_size]);
            }
        }
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// `x @ self` with in-register dequantization.
    ///
    /// # Panics
    /// Panics if inner dimensions disagree.
    pub fn matmul(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(x.rows(), self.cols);
        self.matmul_into(x, &mut out, false);
        out
    }

    /// `out (+)= x @ self`, allocation-free; bitwise-identical to
    /// `kernels::matmul_into(x, &self.dequantize(), out, accumulate)` in
    /// every ISA tier and at every thread count (see module docs).
    pub fn matmul_into(&self, x: &Matrix, out: &mut Matrix, accumulate: bool) {
        let (m, k) = x.shape();
        let n = self.cols;
        assert_eq!(self.rows, k, "quantized matmul: inner dims");
        assert_eq!(out.shape(), (m, n), "quantized matmul: out shape");
        let flops = 2 * m * n * k;
        let xd = x.data();
        let isa = simd::active_isa();
        kernels::run_banded(out.data_mut(), m, n, flops, |rows, chunk| {
            self.band(xd, k, rows, chunk, n, accumulate, isa);
        });
    }

    /// One row band of the fused product — the quantized mirror of the dense
    /// kernel's band: identical row tiles (`MR`, then one of exactly the
    /// remainder's height), identical column strips (additionally cut at
    /// scale-block boundaries, see [`Self::qtile_rows`]).
    #[allow(clippy::too_many_arguments)]
    fn band(
        &self,
        xd: &[f32],
        k: usize,
        rows: std::ops::Range<usize>,
        chunk: &mut [f32],
        n: usize,
        accumulate: bool,
        isa: Isa,
    ) {
        let mb = rows.len();
        let mut apack = kernels::pack_scratch(k, isa);
        let mut ib = 0;
        macro_rules! tile {
            ($r:expr) => {
                self.qtile_rows::<{ $r }>(
                    xd, rows.start, ib, chunk, k, n, accumulate, &mut apack, isa,
                )
            };
        }
        while mb - ib >= kernels::MR {
            tile!(kernels::MR);
            ib += kernels::MR;
        }
        match mb - ib {
            0 => {}
            1 => tile!(1),
            2 => tile!(2),
            3 => tile!(3),
            4 => tile!(4),
            5 => tile!(5),
            6 => tile!(6),
            7 => tile!(7),
            _ => unreachable!("row remainder is below MR"),
        }
    }

    /// Quantized mirror of the dense kernel's `tile_rows`. Passes are cut at
    /// [`kernels::pass_width`] columns and at every scale-block boundary, so
    /// one scale per weight row covers a pass whatever the block size (the
    /// default 64 never cuts one short — two 32-column passes sit inside a
    /// block; a block size below `NR` makes every strip that narrow).
    #[allow(clippy::too_many_arguments)]
    fn qtile_rows<const R: usize>(
        &self,
        xd: &[f32],
        row0: usize,
        ib: usize,
        chunk: &mut [f32],
        k: usize,
        n: usize,
        accumulate: bool,
        apack: &mut [f32],
        isa: Isa,
    ) {
        let bpr = self.bpr();
        assert!(
            self.q.len() == k * n && self.scales.len() == k * bpr && (ib + R) * n <= chunk.len()
        );
        // The pass starting at column `jb`: its width and its scale block.
        let pass = |jb: usize| {
            let blk = jb / self.block_size;
            let block_end = (blk + 1) * self.block_size;
            let w = kernels::pass_width(isa).min(n - jb).min(block_end - jb);
            (w, blk)
        };
        let mut jb = 0;
        // SAFETY (both vector arms): the deepest q read is
        // (k-1)·n + jb + w ≤ k·n, the deepest scale read
        // (k-1)·bpr + blk < k·bpr, the deepest out access
        // (ib+R-1)·n + jb + w ≤ (ib+R)·n — all inside the lengths asserted
        // above; jb + w stays inside block `blk` for every row; A reads are
        // checked by `TileA::new`, or stay inside the k·R floats `pack_a`
        // returns. CPU support is guaranteed by `active_isa`.
        #[cfg(target_arch = "x86_64")]
        if isa == Isa::Avx512 {
            use simd::x86::qstrip_avx512;
            let a = kernels::TileA::new::<R>(xd, k, 1, row0 + ib, k);
            while jb < n {
                let (w, blk) = pass(jb);
                unsafe {
                    let q = self.q.as_ptr().add(jb);
                    let scales = self.scales.as_ptr().add(blk);
                    let out = chunk.as_mut_ptr().add(ib * n + jb);
                    if w > kernels::NR {
                        qstrip_avx512::<R, 2>(a, q, n, scales, bpr, k, out, n, w, accumulate)
                    } else {
                        qstrip_avx512::<R, 1>(a, q, n, scales, bpr, k, out, n, w, accumulate)
                    }
                }
                jb += w;
            }
            return;
        }
        let apack = kernels::pack_a::<R>(xd, k, 1, row0 + ib, k, apack);
        while jb < n {
            let (w, blk) = pass(jb);
            #[cfg(target_arch = "x86_64")]
            if isa == Isa::Avx2 {
                unsafe {
                    let q = self.q.as_ptr().add(jb);
                    let scales = self.scales.as_ptr().add(blk);
                    let out = chunk.as_mut_ptr().add(ib * n + jb);
                    let ap = apack.as_ptr();
                    simd::x86::qstrip_avx2::<R>(ap, q, n, scales, bpr, k, out, n, w, accumulate);
                }
                jb += w;
                continue;
            }
            // Row `p`'s strip of weights with its scale; the loaders below
            // dequantize it into the zero-padded `[f32; NR]` the shared strip
            // body folds.
            let rows = (0..k).map(|p| (&self.q[p * n + jb..], self.scales[p * bpr + blk]));
            let acc = if w == kernels::NR {
                kernels::strip_scalar::<R, _>(apack, rows, |(q, scale)| {
                    let q: &[i8; kernels::NR] = q[..kernels::NR].try_into().expect("NR block");
                    q.map(|qv| qv as f32 * scale)
                })
            } else {
                kernels::strip_scalar::<R, _>(apack, rows, |(q, scale)| {
                    let mut bs = [0.0f32; kernels::NR];
                    for (b, &qv) in bs.iter_mut().zip(&q[..w]) {
                        *b = qv as f32 * scale;
                    }
                    bs
                })
            };
            kernels::store_strip(&acc, chunk, ib, jb, w, n, accumulate);
            jb += w;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::Isa;

    fn wave(rows: usize, cols: usize, f: f32) -> Matrix {
        Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols).map(|i| (i as f32 * f).sin()).collect(),
        )
    }

    #[test]
    fn error_within_bound_per_block() {
        let m = wave(5, 150, 0.37);
        let qm = QuantizedMatrix::quantize(&m, QuantSpec { block_size: 64 });
        let d = qm.dequantize();
        for r in 0..5 {
            for (blk, chunk) in m.row(r).chunks(64).enumerate() {
                let absmax = chunk.iter().fold(0.0f32, |a, v| a.max(v.abs()));
                let bound = max_abs_error(absmax);
                for (c, &v) in chunk.iter().enumerate() {
                    let err = (v - d.get(r, blk * 64 + c)).abs();
                    assert!(err <= bound, "err {err} > bound {bound} at ({r},{blk},{c})");
                }
            }
        }
    }

    #[test]
    fn quantization_is_idempotent() {
        let m = wave(3, 70, 0.51);
        let spec = QuantSpec { block_size: 16 };
        let once = QuantizedMatrix::quantize(&m, spec).dequantize();
        let twice = QuantizedMatrix::quantize(&once, spec).dequantize();
        assert_eq!(once.data(), twice.data());
    }

    #[test]
    fn zero_and_edge_blocks() {
        // All-zero matrix dequantizes to exact zeros.
        let z = Matrix::zeros(2, 40);
        let qz = QuantizedMatrix::quantize(&z, QuantSpec { block_size: 16 });
        assert!(qz.dequantize().data().iter().all(|&v| v == 0.0));
        // Single element: one block, scale = |v| / 127, value survives to
        // within the bound.
        let s = Matrix::from_vec(1, 1, vec![-0.8125]);
        let qs = QuantizedMatrix::quantize(&s, QuantSpec::default());
        assert!((qs.dequantize().get(0, 0) + 0.8125).abs() <= max_abs_error(0.8125));
        // Ragged final block (cols not a multiple of block_size).
        let m = wave(2, 19, 0.73);
        let qm = QuantizedMatrix::quantize(&m, QuantSpec { block_size: 8 });
        let d = qm.dequantize();
        for (v, w) in m.data().iter().zip(d.data()) {
            assert!((v - w).abs() <= max_abs_error(1.0));
        }
    }

    #[test]
    fn serde_round_trip_is_exact() {
        let m = wave(4, 33, 0.29);
        let qm = QuantizedMatrix::quantize(&m, QuantSpec { block_size: 16 });
        let json = serde_json::to_string(&qm).unwrap();
        let back: QuantizedMatrix = serde_json::from_str(&json).unwrap();
        assert_eq!(qm, back);
        assert_eq!(qm.dequantize().data(), back.dequantize().data());
    }

    #[test]
    fn fused_matmul_is_bitwise_dequantize_then_matmul() {
        // Shapes covering full strips, ragged columns, ragged rows, the
        // scalar row ladder, and a block size that disables strips.
        for &(m, k, n, bs) in &[
            (8usize, 64usize, 64usize, 64usize),
            (5, 33, 80, 16),
            (1, 7, 19, 64),
            (13, 16, 31, 3),
            (2, 64, 128, 32),
        ] {
            let x = wave(m, k, 0.31);
            let w = wave(k, n, 0.57);
            let qw = QuantizedMatrix::quantize(&w, QuantSpec { block_size: bs });
            let fused = qw.matmul(&x);
            let dense = kernels::matmul(&x, &qw.dequantize());
            for (a, b) in fused.data().iter().zip(dense.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{m}x{k}x{n} bs={bs}");
            }
        }
    }

    #[test]
    fn fused_matmul_bitwise_across_isa_tiers() {
        let x = wave(9, 48, 0.41);
        let w = wave(48, 80, 0.23);
        let qw = QuantizedMatrix::quantize(&w, QuantSpec { block_size: 16 });
        simd::set_isa(Some(Isa::Scalar));
        let base = qw.matmul(&x);
        for isa in [Isa::Avx2, Isa::Avx512] {
            if !simd::supported(isa) {
                continue;
            }
            simd::set_isa(Some(isa));
            let tier = qw.matmul(&x);
            for (a, b) in tier.data().iter().zip(base.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{} tier", isa.name());
            }
        }
        simd::set_isa(None);
    }

    #[test]
    fn accumulate_adds_once_after_the_chain() {
        let x = wave(1, 8, 0.61);
        let w = wave(8, 4, 0.43);
        let qw = QuantizedMatrix::quantize(&w, QuantSpec::default());
        let mut out = Matrix::full(1, 4, 10.0);
        qw.matmul_into(&x, &mut out, true);
        let plain = qw.matmul(&x);
        for c in 0..4 {
            assert_eq!(out.get(0, c), 10.0 + plain.get(0, c));
        }
    }
}
