//! Dense row-major `f32` matrix — the single value type of the engine.

use crate::base64;
use crate::error::TensorError;
use serde::{DeError, Deserialize, Serialize, Value};

/// A dense, row-major `f32` matrix.
///
/// All tensor values in the engine are 2-D: a token-embedding sequence is
/// `[seq, d]`, a scalar loss is `[1, 1]`, a bias row is `[1, d]`.
///
/// It serializes as `{"rows": r, "cols": c, "data": "<base64>"}`, where
/// `data` is standard padded base64 of the row-major little-endian `f32`
/// bytes: every weight's bits, NaN payloads and signed zeros included, with
/// no float printed or parsed. That is the only tensor format a checkpoint
/// has; an older file whose `data` is a number array is refused with an
/// error that says so.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A `rows × cols` matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Builds a matrix from a row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: buffer length {} != {rows}x{cols}",
            data.len()
        );
        Matrix { rows, cols, data }
    }

    /// Fallible variant of [`Matrix::from_vec`] for deserialization paths.
    pub fn try_from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, TensorError> {
        if data.len() != rows * cols {
            return Err(TensorError::Corrupt(format!(
                "buffer length {} != {rows}x{cols}",
                data.len()
            )));
        }
        Ok(Matrix { rows, cols, data })
    }

    /// A `[1, 1]` scalar matrix.
    pub fn scalar(v: f32) -> Self {
        Matrix::from_vec(1, 1, vec![v])
    }

    /// A `[1, n]` row vector.
    pub fn row_vec(v: Vec<f32>) -> Self {
        let n = v.len();
        Matrix::from_vec(1, n, v)
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the row-major buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the row-major buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable slice over row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable slice over row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Contiguous view of rows `range` (row-major) — one sequence's rows of
    /// a packed ragged batch, read in place.
    #[inline]
    pub fn row_span(&self, range: std::ops::Range<usize>) -> &[f32] {
        &self.data[range.start * self.cols..range.end * self.cols]
    }

    /// Mutable form of [`Matrix::row_span`].
    #[inline]
    pub fn row_span_mut(&mut self, range: std::ops::Range<usize>) -> &mut [f32] {
        &mut self.data[range.start * self.cols..range.end * self.cols]
    }

    /// The value of a `[1,1]` matrix.
    ///
    /// # Panics
    /// Panics if the matrix is not `[1,1]`.
    pub fn scalar_value(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "scalar_value on non-scalar matrix");
        self.data[0]
    }

    /// Re-shapes to `rows × cols` in place, reusing the allocation (it only
    /// grows when `rows * cols` exceeds every earlier size). Element values
    /// afterwards are unspecified — stale or zero — so this is for scratch
    /// the caller overwrites before reading, e.g. one attention-scores buffer
    /// shared by every (sequence, head) of a forward.
    pub fn reset_shape(&mut self, rows: usize, cols: usize) {
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// In-place element-wise `self += other`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// In-place `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// In-place scaling `self *= alpha`.
    pub fn scale_assign(&mut self, alpha: f32) {
        self.data.iter_mut().for_each(|v| *v *= alpha);
    }

    /// Appends `other`'s rows below `self`'s (KV-cache growth).
    ///
    /// # Panics
    /// Panics on column-count mismatch.
    pub fn append_rows(&mut self, other: &Matrix) {
        assert_eq!(self.cols, other.cols, "append_rows: col mismatch");
        self.data.extend_from_slice(&other.data);
        self.rows += other.rows;
    }

    /// Owned row slice `[start..end, ..)` — how the batched runtime peels one
    /// sequence out of a packed ragged batch.
    ///
    /// # Panics
    /// Panics on an empty or out-of-bounds range.
    pub fn slice_rows(&self, start: usize, end: usize) -> Matrix {
        assert!(start < end && end <= self.rows, "slice_rows: bad range");
        Matrix {
            rows: end - start,
            cols: self.cols,
            data: self.data[start * self.cols..end * self.cols].to_vec(),
        }
    }

    /// Overwrites rows `start..start + src.rows()` with `src` — the repacking
    /// half of per-sequence batched processing.
    ///
    /// # Panics
    /// Panics on column mismatch or if the rows don't fit.
    pub fn copy_rows_from(&mut self, start: usize, src: &Matrix) {
        assert_eq!(self.cols, src.cols, "copy_rows_from: col mismatch");
        assert!(
            start + src.rows <= self.rows,
            "copy_rows_from: rows {}..{} out of bounds for {}",
            start,
            start + src.rows,
            self.rows
        );
        self.data[start * self.cols..(start + src.rows) * self.cols].copy_from_slice(&src.data);
    }

    /// Reserves capacity for at least `extra` more rows, so subsequent
    /// [`Matrix::append_rows`] calls (KV-cache growth during decoding) do not
    /// reallocate.
    pub fn reserve_rows(&mut self, extra: usize) {
        self.data.reserve(extra * self.cols);
    }

    /// Rows the current allocation can hold without reallocating (equals
    /// [`Matrix::rows`] at minimum). Zero-column matrices report their row
    /// count. Exposed so tests can pin KV-cache reservation behavior.
    pub fn row_capacity(&self) -> usize {
        self.data
            .capacity()
            .checked_div(self.cols)
            .unwrap_or(self.rows)
    }

    /// Releases spare row capacity, shrinking the allocation to the live
    /// rows. The KV cache calls this when compacting after retiring
    /// sequences, so unused decode reservations are actually returned to the
    /// allocator.
    pub fn shrink_to_fit(&mut self) {
        self.data.shrink_to_fit();
    }

    /// Owned column slice `[.., start..end)`.
    ///
    /// # Panics
    /// Panics on an empty or out-of-bounds range.
    pub fn slice_cols(&self, start: usize, end: usize) -> Matrix {
        assert!(start < end && end <= self.cols, "slice_cols: bad range");
        let mut out = Matrix::zeros(self.rows, end - start);
        for r in 0..self.rows {
            out.row_mut(r).copy_from_slice(&self.row(r)[start..end]);
        }
        out
    }

    /// Element-wise map into a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Transposed copy.
    pub fn transposed(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            let row = self.row(r);
            for (c, &v) in row.iter().enumerate() {
                out.data[c * self.rows + r] = v;
            }
        }
        out
    }

    /// Frobenius (L2) norm of the buffer.
    pub fn l2_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Maximum absolute element, or 0.0 for an empty matrix.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0_f32, |m, v| m.max(v.abs()))
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// True when every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl Serialize for Matrix {
    fn to_value(&self) -> Value {
        let bytes: Vec<u8> = self.data.iter().flat_map(|x| x.to_le_bytes()).collect();
        Value::Object(vec![
            ("rows".into(), self.rows.to_value()),
            ("cols".into(), self.cols.to_value()),
            ("data".into(), Value::Str(base64::encode(&bytes))),
        ])
    }
}

impl Deserialize for Matrix {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        if !matches!(v, Value::Object(_)) {
            return Err(DeError::expected("tensor object", v));
        }
        let field = |name| v.get_field(name).ok_or_else(|| DeError::missing(name));
        let rows = usize::from_value(field("rows")?)?;
        let cols = usize::from_value(field("cols")?)?;
        let text = match field("data")? {
            Value::Str(text) => text,
            Value::Array(_) => {
                return Err(DeError(
                    "tensor data is a number array: a pre-format-3 tensor; \
                     re-save it with this build"
                        .into(),
                ))
            }
            other => return Err(DeError::expected("base64 tensor data", other)),
        };
        let n_bytes = rows
            .checked_mul(cols)
            .and_then(|n| n.checked_mul(4))
            .ok_or_else(|| DeError(format!("tensor shape {rows}x{cols} overflows")))?;
        let bytes = base64::decode(text, n_bytes)
            .map_err(|e| DeError(format!("{rows}x{cols} tensor: {e}")))?;
        let data = bytes
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect();
        Ok(Matrix { rows, cols, data })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_content() {
        let m = Matrix::zeros(2, 3);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.len(), 6);
        assert!(m.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_vec_round_trip() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.into_vec(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_bad_len_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn try_from_vec_rejects_bad_len() {
        assert!(Matrix::try_from_vec(2, 2, vec![0.0; 3]).is_err());
        assert!(Matrix::try_from_vec(2, 2, vec![0.0; 4]).is_ok());
    }

    #[test]
    fn row_access() {
        let m = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(m.row(1), &[4., 5., 6.]);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let t = m.transposed();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transposed(), m);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Matrix::full(1, 3, 1.0);
        let b = Matrix::from_vec(1, 3, vec![1., 2., 3.]);
        a.axpy(2.0, &b);
        assert_eq!(a.data(), &[3., 5., 7.]);
        a.scale_assign(0.5);
        assert_eq!(a.data(), &[1.5, 2.5, 3.5]);
    }

    #[test]
    fn norms() {
        let m = Matrix::from_vec(1, 2, vec![3.0, -4.0]);
        assert!((m.l2_norm() - 5.0).abs() < 1e-6);
        assert_eq!(m.max_abs(), 4.0);
        assert_eq!(m.sum(), -1.0);
    }

    #[test]
    fn scalar_helpers() {
        let s = Matrix::scalar(2.5);
        assert_eq!(s.scalar_value(), 2.5);
        let r = Matrix::row_vec(vec![1.0, 2.0]);
        assert_eq!(r.shape(), (1, 2));
    }

    #[test]
    fn finite_check() {
        let mut m = Matrix::zeros(1, 2);
        assert!(m.all_finite());
        m.set(0, 1, f32::NAN);
        assert!(!m.all_finite());
    }

    #[test]
    fn slice_and_copy_rows_round_trip() {
        let m = Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let mid = m.slice_rows(1, 3);
        assert_eq!(mid.shape(), (2, 2));
        assert_eq!(mid.data(), &[3., 4., 5., 6.]);
        let mut out = Matrix::zeros(3, 2);
        out.copy_rows_from(1, &mid);
        assert_eq!(out.row(0), &[0., 0.]);
        assert_eq!(out.row(1), &[3., 4.]);
        assert_eq!(out.row(2), &[5., 6.]);
    }

    #[test]
    #[should_panic(expected = "bad range")]
    fn slice_rows_rejects_bad_range() {
        Matrix::zeros(2, 2).slice_rows(1, 4);
    }

    #[test]
    fn reserve_rows_prevents_reallocation_on_append() {
        let mut m = Matrix::zeros(1, 4);
        m.reserve_rows(10);
        assert!(m.row_capacity() >= 11);
        let ptr = m.data().as_ptr();
        for _ in 0..10 {
            m.append_rows(&Matrix::full(1, 4, 1.0));
        }
        assert_eq!(m.rows(), 11);
        assert_eq!(
            m.data().as_ptr(),
            ptr,
            "append within reserve must not move"
        );
    }

    #[test]
    fn shrink_to_fit_releases_reservation() {
        let mut m = Matrix::full(3, 4, 1.0);
        m.reserve_rows(32);
        assert!(m.row_capacity() >= 35);
        m.shrink_to_fit();
        assert_eq!(m.row_capacity(), 3);
        assert_eq!(m.row(2), &[1.0; 4]);
    }

    #[test]
    fn serde_round_trip() {
        let m = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let s = serde_json::to_string(&m).unwrap();
        assert_eq!(
            s,
            r#"{"rows":2,"cols":2,"data":"AACAPwAAAEAAAEBAAACAQA=="}"#
        );
        let back: Matrix = serde_json::from_str(&s).unwrap();
        assert_eq!(back, m);
    }
}
