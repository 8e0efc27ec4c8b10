//! Tape-free forward arithmetic, shared with the autograd tape.
//!
//! The incremental inference engine (KV-cached decoding in `infuserki-nn`)
//! re-runs the model's forward math on plain [`Matrix`] values without
//! recording gradient nodes. Its differential test suite asserts *bitwise*
//! equality against the tape path at `threads = 1`, which is only tractable if
//! both paths execute the exact same floating-point accumulation chains. This
//! module is that single source of truth: [`crate::Tape::affine`],
//! [`crate::Tape::layer_norm`], [`crate::Tape::cum_mean_rows`] and
//! [`crate::Tape::mul_col_broadcast`]
//! delegate their forward value computation here, and the inference engine
//! calls the same functions directly.
//!
//! Two invariants carried over from `kernels.rs` make per-row equivalence
//! hold between a full forward and a chunked incremental one:
//!
//! 1. every matmul output element is one ascending fused accumulation chain
//!    over the inner dimension, independent of how many *other* rows exist in
//!    either operand — so the projection of a token row does not change when
//!    the surrounding rows do;
//! 2. masked attention scores are `-1e9`, which softmax maps to exactly
//!    `0.0`, and `0.0` contributions vanish from the ascending AV chains — so
//!    attending over a truncated (cached) history equals attending over the
//!    full masked history row for row.

use crate::kernels;
use crate::matrix::Matrix;

/// Fused `x @ w + bias` with `bias [1,d]` broadcast over rows — the value
/// computation of [`crate::Tape::affine`].
pub fn affine(x: &Matrix, w: &Matrix, bias: &Matrix) -> Matrix {
    assert_eq!(bias.rows(), 1, "affine: bias must be [1,d]");
    assert_eq!(w.cols(), bias.cols(), "affine: bias col mismatch");
    let mut v = Matrix::zeros(x.rows(), w.cols());
    kernels::matmul_into(x, w, &mut v, false);
    let brow = bias.row(0);
    for r in 0..v.rows() {
        for (o, &b) in v.row_mut(r).iter_mut().zip(brow) {
            *o += b;
        }
    }
    v
}

/// Row-wise layer normalization with affine gain/bias (`[1,d]` each) — the
/// value computation of [`crate::Tape::layer_norm`].
pub fn layer_norm(x: &Matrix, gain: &Matrix, bias: &Matrix, eps: f32) -> Matrix {
    let d = x.cols();
    assert_eq!(gain.shape(), (1, d), "layer_norm: gain shape");
    assert_eq!(bias.shape(), (1, d), "layer_norm: bias shape");
    let mut v = Matrix::zeros(x.rows(), d);
    let (gain, bias) = (gain.row(0), bias.row(0));
    for r in 0..x.rows() {
        let row = x.row(r);
        let mean = row.iter().sum::<f32>() / d as f32;
        let var = row.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / d as f32;
        let inv = 1.0 / (var + eps).sqrt();
        let affine = gain.iter().zip(bias);
        for ((o, &x), (&g, &b)) in v.row_mut(r).iter_mut().zip(row).zip(affine) {
            *o = (x - mean) * inv * g + b;
        }
    }
    v
}

/// Cumulative prefix mean over rows: `out[t] = mean(x[0..=t])` — the value
/// computation of [`crate::Tape::cum_mean_rows`].
///
/// The running column sums accumulate rows in ascending order and each output
/// row scales by `1.0 / (t+1)`, exactly like
/// [`cumulative_mean_rows_continue`] resuming from empty state — so a chunked
/// incremental computation reproduces this bitwise. The last output row is
/// bitwise identical to [`crate::Tape::mean_rows`] over the same input (same
/// ascending sum, same reciprocal scaling).
pub fn cumulative_mean_rows(x: &Matrix) -> Matrix {
    let mut sums = vec![0.0f32; x.cols()];
    let mut count = 0usize;
    let mut out = Matrix::zeros(x.rows(), x.cols());
    cumulative_mean_rows_continue(&mut sums, &mut count, x.data(), out.data_mut());
    out
}

/// Continuation form of [`cumulative_mean_rows`]: folds `chunk`'s rows
/// (row-major, `sums.len()` wide) into running `(sums, count)` state and
/// writes the cumulative means of the new rows into `out`, row for row — in
/// place in a packed batch, each sequence's row span pools into the same
/// span of the destination. Feeding a sequence through in any chunking
/// yields the same rows as one full-sequence call, bitwise.
pub fn cumulative_mean_rows_continue(
    sums: &mut [f32],
    count: &mut usize,
    chunk: &[f32],
    out: &mut [f32],
) {
    let d = sums.len();
    assert_eq!(chunk.len(), out.len(), "cum_mean: destination mismatch");
    assert!(
        d > 0 && chunk.len().is_multiple_of(d),
        "cum_mean: width mismatch"
    );
    for (row, out_row) in chunk.chunks_exact(d).zip(out.chunks_exact_mut(d)) {
        for (s, &x) in sums.iter_mut().zip(row) {
            *s += x;
        }
        *count += 1;
        let scale = 1.0 / *count as f32;
        for (o, &s) in out_row.iter_mut().zip(sums.iter()) {
            *o = s * scale;
        }
    }
}

/// Per-row scaling `out[t] = a[t] * s[t]` with `s [n,1]` — the value
/// computation of [`crate::Tape::mul_col_broadcast`] (the causal infuser
/// gate).
pub fn mul_col_broadcast(a: &Matrix, s: &Matrix) -> Matrix {
    assert_eq!(s.cols(), 1, "mul_col_broadcast: gate must be [n,1]");
    assert_eq!(a.rows(), s.rows(), "mul_col_broadcast: row mismatch");
    let mut v = a.clone();
    for r in 0..v.rows() {
        let sv = s.get(r, 0);
        for x in v.row_mut(r) {
            *x *= sv;
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cumulative_mean_matches_chunked_continuation() {
        let x = Matrix::from_vec(4, 2, vec![1.0, 2.0, 3.0, 5.0, -1.0, 0.5, 2.0, 8.0]);
        let full = cumulative_mean_rows(&x);
        let mut sums = vec![0.0; 2];
        let mut count = 0;
        let mut chunked = Matrix::zeros(4, 2);
        cumulative_mean_rows_continue(
            &mut sums,
            &mut count,
            x.row_span(0..1),
            chunked.row_span_mut(0..1),
        );
        cumulative_mean_rows_continue(
            &mut sums,
            &mut count,
            x.row_span(1..4),
            chunked.row_span_mut(1..4),
        );
        assert_eq!(full, chunked);
    }

    #[test]
    fn cumulative_mean_first_row_is_identity() {
        let x = Matrix::from_vec(2, 3, vec![4.0, -2.0, 7.0, 0.0, 0.0, 0.0]);
        let c = cumulative_mean_rows(&x);
        assert_eq!(c.row(0), x.row(0));
        assert_eq!(c.row(1), &[2.0, -1.0, 3.5]);
    }

    #[test]
    fn mul_col_broadcast_scales_rows() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let s = Matrix::from_vec(2, 1, vec![2.0, -1.0]);
        let v = mul_col_broadcast(&a, &s);
        assert_eq!(v.data(), &[2.0, 4.0, -3.0, -4.0]);
    }

    #[test]
    fn affine_adds_bias_rowwise() {
        let x = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let w = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(1, 2, vec![10.0, 20.0]);
        let y = affine(&x, &w, &b);
        assert_eq!(y.data(), &[11.0, 22.0, 13.0, 24.0]);
    }
}
