//! Equivalence suite for the blocked/parallel kernels in `kernels.rs`.
//!
//! Every optimized product (`matmul`, `matmul_at`, and their `_into`
//! accumulate variants) is compared against the preserved seed kernels in
//! `support/reference.rs` over randomized shapes, including the degenerate
//! ones the tiling logic must survive: `k = 0`, `1×1`, tall/skinny operands,
//! and dimensions that are not multiples of the register tile. The
//! transposed-operand cases run `a·bᵀ` the way the workspace does — `matmul`
//! over `bᵀ` — against the seed's per-element dot products over `b`.
//!
//! The blocked kernels are designed to be *bitwise* identical to the serial
//! reference (each output element is one ascending-`p` accumulation chain in
//! every code path), but the contract these tests enforce is the documented
//! one: agreement within `1e-4` relative error. A separate test pins the
//! stronger bitwise claim across thread counts.

// The proptest! macro is token-tree recursive; eight properties in one block
// exceed the default limit of 128.
#![recursion_limit = "256"]

#[path = "support/reference.rs"]
mod reference;

use infuserki_tensor::kernels;
use infuserki_tensor::{Matrix, QuantSpec, QuantizedMatrix};
use proptest::prelude::*;

const REL_TOL: f32 = 1e-4;

/// Largest `|x - y| / max(1, |x|, |y|)` over all elements.
fn max_rel_err(x: &Matrix, y: &Matrix) -> f32 {
    assert_eq!(x.shape(), y.shape(), "shape mismatch in comparison");
    x.data()
        .iter()
        .zip(y.data().iter())
        .map(|(&a, &b)| (a - b).abs() / 1.0f32.max(a.abs()).max(b.abs()))
        .fold(0.0f32, f32::max)
}

/// A random `(m, n, k, a, b)` problem with dims in `1..=24` (and `k` allowed
/// to be zero), covering non-tile-multiple shapes by construction.
fn mm_case() -> impl Strategy<Value = (usize, usize, Matrix, Matrix)> {
    (1usize..=24, 1usize..=24, 0usize..=24).prop_flat_map(|(m, n, k)| {
        (
            Just(m),
            Just(n),
            proptest::collection::vec(-3.0f32..3.0, m * k)
                .prop_map(move |v| Matrix::from_vec(m, k, v)),
            proptest::collection::vec(-3.0f32..3.0, k * n)
                .prop_map(move |v| Matrix::from_vec(k, n, v)),
        )
    })
}

/// Tall/skinny and wide/flat operands: one dimension large, others tiny.
fn skewed_case() -> impl Strategy<Value = (Matrix, Matrix)> {
    (1usize..=3, 1usize..=3, 48usize..=96, proptest::bool::ANY).prop_flat_map(
        |(small_a, small_b, big, tall)| {
            let (m, n, k) = if tall {
                (big, small_b, small_a)
            } else {
                (small_a, small_b, big)
            };
            (
                proptest::collection::vec(-2.0f32..2.0, m * k)
                    .prop_map(move |v| Matrix::from_vec(m, k, v)),
                proptest::collection::vec(-2.0f32..2.0, k * n)
                    .prop_map(move |v| Matrix::from_vec(k, n, v)),
            )
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matmul_matches_reference((_m, _n, a, b) in mm_case()) {
        let got = kernels::matmul(&a, &b);
        let want = reference::matmul(&a, &b);
        prop_assert!(max_rel_err(&got, &want) <= REL_TOL);
    }

    #[test]
    fn transposed_operand_matches_reference((_m, _n, a, b) in mm_case()) {
        // `a·cᵀ` for a row-major `c = bᵀ` `[n,k]`: `matmul` over its
        // transpose, against the seed's dot products over `c` itself.
        let c = b.transposed();
        let got = kernels::matmul(&a, &c.transposed());
        let want = reference::matmul_bt(&a, &c);
        prop_assert!(max_rel_err(&got, &want) <= REL_TOL);
    }

    #[test]
    fn matmul_at_matches_reference((_m, _n, a, b) in mm_case()) {
        // a is [m,k]; the at kernel wants [k,m], so transpose the operand.
        let at = a.transposed();
        let got = kernels::matmul_at(&at, &b);
        let want = reference::matmul_at(&at, &b);
        prop_assert!(max_rel_err(&got, &want) <= REL_TOL);
    }

    #[test]
    fn matmul_skewed_shapes((a, b) in skewed_case()) {
        let got = kernels::matmul(&a, &b);
        let want = reference::matmul(&a, &b);
        prop_assert!(max_rel_err(&got, &want) <= REL_TOL);
    }

    #[test]
    fn matmul_into_accumulate_equals_naive_plus_prior((_m, _n, a, b) in mm_case()) {
        let prior_data: Vec<f32> = (0..a.rows() * b.cols())
            .map(|i| 0.25 * (i % 7) as f32 - 0.75)
            .collect();
        let mut out = Matrix::from_vec(a.rows(), b.cols(), prior_data.clone());
        kernels::matmul_into(&a, &b, &mut out, true);
        let mut want = reference::matmul(&a, &b);
        for (w, p) in want.data_mut().iter_mut().zip(prior_data.iter()) {
            *w += p;
        }
        prop_assert!(max_rel_err(&out, &want) <= REL_TOL);
    }

    #[test]
    fn transposed_operand_accumulate_equals_naive_plus_prior((_m, _n, a, b) in mm_case()) {
        let c = b.transposed();
        let prior_data: Vec<f32> = (0..a.rows() * c.rows())
            .map(|i| 0.1 * (i % 11) as f32 - 0.5)
            .collect();
        let mut out = Matrix::from_vec(a.rows(), c.rows(), prior_data.clone());
        kernels::matmul_into(&a, &c.transposed(), &mut out, true);
        let mut want = reference::matmul_bt(&a, &c);
        for (w, p) in want.data_mut().iter_mut().zip(prior_data.iter()) {
            *w += p;
        }
        prop_assert!(max_rel_err(&out, &want) <= REL_TOL);
    }

    #[test]
    fn matmul_at_into_accumulate_equals_naive_plus_prior((_m, _n, a, b) in mm_case()) {
        let at = a.transposed();
        let prior_data: Vec<f32> = (0..at.cols() * b.cols())
            .map(|i| 0.2 * (i % 5) as f32 - 0.4)
            .collect();
        let mut out = Matrix::from_vec(at.cols(), b.cols(), prior_data.clone());
        kernels::matmul_at_into(&at, &b, &mut out, true);
        let mut want = reference::matmul_at(&at, &b);
        for (w, p) in want.data_mut().iter_mut().zip(prior_data.iter()) {
            *w += p;
        }
        prop_assert!(max_rel_err(&out, &want) <= REL_TOL);
    }

    #[test]
    fn matmul_into_overwrite_equals_fresh((_m, _n, a, b) in mm_case()) {
        // accumulate=false must fully overwrite stale garbage in `out`.
        let mut out = Matrix::full(a.rows(), b.cols(), f32::MAX / 2.0);
        kernels::matmul_into(&a, &b, &mut out, false);
        let want = kernels::matmul(&a, &b);
        prop_assert!(max_rel_err(&out, &want) <= REL_TOL);
    }
}

/// The degenerate shapes spelled out in the acceptance criteria, pinned
/// explicitly (proptest covers them probabilistically).
#[test]
fn explicit_degenerate_shapes_match_reference() {
    let shapes: &[(usize, usize, usize)] = &[
        (1, 1, 1),    // scalar product
        (1, 7, 0),    // k = 0: result is all zeros
        (3, 1, 0),    // k = 0, column output
        (1, 1, 16),   // dot product through the tile path
        (64, 1, 3),   // tall and skinny
        (1, 64, 3),   // wide and flat
        (5, 7, 9),    // nothing divides the 4x8 tile
        (13, 3, 17),  // prime edges
        (32, 32, 32), // exact tile multiples
    ];
    // Tolerance, not bitwise: on FMA builds the blocked kernels' fused
    // chains round differently from the reference's separate multiply+add
    // (the bitwise guarantee is blocked-vs-blocked across thread counts,
    // pinned below, not blocked-vs-reference).
    for &(m, n, k) in shapes {
        let a = Matrix::from_vec(m, k, (0..m * k).map(|i| 0.3 * i as f32 - 1.0).collect());
        let b = Matrix::from_vec(k, n, (0..k * n).map(|i| 0.7 - 0.2 * i as f32).collect());
        let got = kernels::matmul(&a, &b);
        let want = reference::matmul(&a, &b);
        assert!(max_rel_err(&got, &want) <= REL_TOL, "matmul at {m}x{n}x{k}");
        if k > 0 {
            let c = b.transposed();
            assert!(
                max_rel_err(
                    &kernels::matmul(&a, &c.transposed()),
                    &reference::matmul_bt(&a, &c)
                ) <= REL_TOL,
                "transposed operand at {m}x{n}x{k}"
            );
            let at = a.transposed();
            assert!(
                max_rel_err(&kernels::matmul_at(&at, &b), &reference::matmul_at(&at, &b))
                    <= REL_TOL,
                "matmul_at at {m}x{n}x{k}"
            );
        }
    }
}

/// Shapes straddling tile boundaries: `1×1` and non-multiples of the
/// `MR×NR` tile, against the seed `ikj` loop.
#[test]
fn blocked_matches_reference_on_awkward_shapes() {
    for &(mm, kk, nn) in &[(1, 1, 1), (5, 7, 9), (4, 8, 8), (13, 3, 17), (3, 16, 5)] {
        let a = Matrix::from_vec(
            mm,
            kk,
            (0..mm * kk).map(|i| (i as f32 * 0.37).sin()).collect(),
        );
        let b = Matrix::from_vec(
            kk,
            nn,
            (0..kk * nn).map(|i| (i as f32 * 0.73).cos()).collect(),
        );
        let fast = kernels::matmul(&a, &b);
        let slow = reference::matmul(&a, &b);
        for (x, y) in fast.data().iter().zip(slow.data().iter()) {
            assert!((x - y).abs() <= 1e-5 * y.abs().max(1.0), "{mm}x{kk}x{nn}");
        }
    }
}

/// Row invariance, the property the batched engine and the deletion of the
/// scalar edge paths both rest on: row `i` of a product over a packed
/// operand is bit-for-bit the product of row `i` alone, whatever tile height
/// the row lands in (packed row counts 1..=17 cross every remainder tile)
/// and whatever strip width the columns end on — and both agree with the
/// `reference` chain within the documented tolerance. All three products
/// that run the strips, `accumulate` both ways.
#[test]
fn packed_rows_are_bitwise_the_rows_alone() {
    let wave = |rows: usize, cols: usize, f: f32| {
        Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols).map(|i| (i as f32 * f).sin()).collect(),
        )
    };
    let assert_row_bits = |packed: &Matrix, i: usize, alone: &Matrix, ctx: &str| {
        for (j, (x, y)) in packed.row(i).iter().zip(alone.row(0)).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{ctx}: row {i} col {j}: {x} vs {y}"
            );
        }
    };
    for k in [1usize, 10, 16, 64, 192] {
        for n in [1usize, 10, 15, 16, 17, 26, 192] {
            let b = wave(k, n, 0.57);
            let qb = QuantizedMatrix::quantize(&b, QuantSpec::default());
            let qb_dense = qb.dequantize();
            for m in 1usize..=17 {
                let a = wave(m, k, 0.31);
                let at = a.transposed();
                let prior = wave(m, n, 0.11);
                for accumulate in [false, true] {
                    let ctx = format!("{m}x{k}x{n} acc={accumulate}");
                    let mut want = reference::matmul(&a, &b);
                    let mut want_q = reference::matmul(&a, &qb_dense);
                    if accumulate {
                        want.add_assign(&prior);
                        want_q.add_assign(&prior);
                    }
                    let mut packed = prior.clone();
                    kernels::matmul_into(&a, &b, &mut packed, accumulate);
                    let mut packed_at = prior.clone();
                    kernels::matmul_at_into(&at, &b, &mut packed_at, accumulate);
                    let mut packed_q = prior.clone();
                    qb.matmul_into(&a, &mut packed_q, accumulate);
                    assert!(max_rel_err(&packed, &want) <= REL_TOL, "matmul {ctx}");
                    assert!(max_rel_err(&packed_at, &want) <= REL_TOL, "matmul_at {ctx}");
                    assert!(max_rel_err(&packed_q, &want_q) <= REL_TOL, "qmatmul {ctx}");
                    for i in 0..m {
                        let row = a.slice_rows(i, i + 1);
                        let mut alone = prior.slice_rows(i, i + 1);
                        kernels::matmul_into(&row, &b, &mut alone, accumulate);
                        assert_row_bits(&packed, i, &alone, &format!("matmul {ctx}"));
                        let mut alone = prior.slice_rows(i, i + 1);
                        kernels::matmul_at_into(&row.transposed(), &b, &mut alone, accumulate);
                        assert_row_bits(&packed_at, i, &alone, &format!("matmul_at {ctx}"));
                        let mut alone = prior.slice_rows(i, i + 1);
                        qb.matmul_into(&row, &mut alone, accumulate);
                        assert_row_bits(&packed_q, i, &alone, &format!("qmatmul {ctx}"));
                    }
                }
            }
        }
    }
}

/// Forcing different worker counts must not change a single bit: every
/// output element is one serial ascending-`p` chain regardless of how rows
/// are banded across threads. This is the only test in the binary that
/// touches the global thread override, so there is no cross-test race.
#[test]
fn thread_override_is_bitwise_invisible() {
    // 2*170^3 ≈ 9.8 MFLOP clears the parallel-dispatch threshold.
    let n = 170;
    let a = Matrix::from_vec(
        n,
        n,
        (0..n * n)
            .map(|i| ((i * 37) % 97) as f32 * 0.021 - 1.0)
            .collect(),
    );
    let b = Matrix::from_vec(
        n,
        n,
        (0..n * n)
            .map(|i| ((i * 53) % 89) as f32 * 0.017 - 0.7)
            .collect(),
    );

    kernels::set_num_threads(1);
    let serial = kernels::matmul(&a, &b);
    let bt = b.transposed();
    let serial_bt = kernels::matmul(&a, &bt);
    let serial_at = kernels::matmul_at(&a, &b);
    for threads in [2, 3, 5, 8] {
        kernels::set_num_threads(threads);
        assert_eq!(
            kernels::matmul(&a, &b).data(),
            serial.data(),
            "{threads} threads"
        );
        assert_eq!(
            kernels::matmul(&a, &bt).data(),
            serial_bt.data(),
            "{threads} threads"
        );
        assert_eq!(
            kernels::matmul_at(&a, &b).data(),
            serial_at.data(),
            "{threads} threads"
        );
    }
    kernels::set_num_threads(0); // restore "unset"
}
