//! The pre-blocking seed kernels, kept verbatim as the correctness oracle
//! for the kernel suites: serial loops with plain multiply + add, no tiles,
//! no bands, no tiers. `matmul_bt` is the seed's per-element dot product
//! over a row-major `b`, the oracle for the product the workspace now runs
//! as `a·(bᵀ)` over a transposed operand.
//!
//! Included with `#[path]` by the suites that compare against it.
#![allow(dead_code)]

use infuserki_tensor::Matrix;

/// Seed `a @ b`: serial `ikj` loop with a zero-skip branch.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "reference matmul: inner dims");
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = Matrix::zeros(m, n);
    let bd = b.data();
    for i in 0..m {
        let arow = a.row(i);
        let orow = out.row_mut(i);
        for (p, &av) in arow.iter().enumerate().take(k) {
            if av == 0.0 {
                continue;
            }
            let brow = &bd[p * n..(p + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                *o += av * bv;
            }
        }
    }
    out
}

/// Seed `a @ bᵀ`: per-element dot products.
pub fn matmul_bt(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.cols(), "reference matmul_bt: inner dims");
    let m = a.rows();
    let n = b.rows();
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        let arow = a.row(i);
        let orow = out.row_mut(i);
        for (j, o) in orow.iter_mut().enumerate() {
            *o = arow.iter().zip(b.row(j).iter()).map(|(&x, &y)| x * y).sum();
        }
    }
    out
}

/// Seed `aᵀ @ b`: `p`-outer accumulation.
pub fn matmul_at(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.rows(), b.rows(), "reference matmul_at: inner dims");
    let (k, m) = a.shape();
    let n = b.cols();
    let mut out = Matrix::zeros(m, n);
    for p in 0..k {
        let arow = a.row(p);
        let brow = b.row(p);
        for (i, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let orow = &mut out.data_mut()[i * n..(i + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                *o += av * bv;
            }
        }
    }
    out
}
