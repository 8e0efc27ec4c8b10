//! Property-based gradient checks: every differentiable op's backward rule is
//! compared against central finite differences on randomized inputs.

use infuserki_tensor::check::check_gradient;
use infuserki_tensor::op::IGNORE_INDEX;
use infuserki_tensor::{Matrix, NodeId, Tape};
use proptest::prelude::*;

const EPS: f32 = 1e-2;
const TOL: f32 = 3e-2;

/// Strategy: a rows×cols matrix with entries in a gradient-friendly range
/// (bounded away from activation kinks by the tolerance).
fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-2.0f32..2.0, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

/// Reduces any matrix node to a scalar by summing with fixed weights — keeps
/// the loss sensitive to every element.
fn reduce(t: &mut Tape, x: NodeId) -> NodeId {
    let (r, c) = {
        let v = t.value(x);
        v.shape()
    };
    let w = t.leaf(Matrix::from_vec(
        c,
        1,
        (0..c).map(|i| 0.3 + 0.1 * i as f32).collect(),
    ));
    let col = t.matmul(x, w); // [r,1]
    let ones = t.leaf(Matrix::from_vec(1, r, vec![1.0; r]));
    t.matmul(ones, col) // [1,1]
}

macro_rules! unary_grad_test {
    ($name:ident, $rows:expr, $cols:expr, $body:expr) => {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]
            #[test]
            fn $name(m in matrix($rows, $cols)) {
                let res = check_gradient(&m, EPS, |t, x| {
                    let y = $body(t, x);
                    reduce(t, y)
                });
                prop_assert!(res.within(TOL), "{:?}", res);
            }
        }
    };
}

unary_grad_test!(grad_scale, 2, 3, |t: &mut Tape, x| t.scale(x, 1.7));
unary_grad_test!(grad_log_softmax, 2, 4, |t: &mut Tape, x| t.log_softmax(x));
unary_grad_test!(grad_gelu, 2, 3, |t: &mut Tape, x| t.gelu(x));
unary_grad_test!(grad_sigmoid, 2, 3, |t: &mut Tape, x| t.sigmoid(x));
unary_grad_test!(grad_tanh, 2, 3, |t: &mut Tape, x| t.tanh(x));
unary_grad_test!(grad_mean_rows, 3, 4, |t: &mut Tape, x| t.mean_rows(x));
unary_grad_test!(grad_cum_mean_rows, 4, 3, |t: &mut Tape, x| t
    .cum_mean_rows(x));
unary_grad_test!(grad_mean_selected, 4, 3, |t: &mut Tape, x| t
    .mean_selected_rows(x, &[1, 3]));
unary_grad_test!(grad_slice_rows, 4, 3, |t: &mut Tape, x| t
    .slice_rows(x, 1, 3));

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn grad_relu_away_from_kink(v in proptest::collection::vec(0.2f32..2.0, 6)) {
        // Restrict to strictly positive inputs: ReLU is non-differentiable at 0.
        let m = Matrix::from_vec(2, 3, v);
        let res = check_gradient(&m, 1e-3, |t, x| {
            let y = t.relu(x);
            reduce(t, y)
        });
        prop_assert!(res.within(TOL), "{:?}", res);
    }

    #[test]
    fn grad_matmul_lhs(a in matrix(2, 3)) {
        let res = check_gradient(&a, EPS, |t, x| {
            let b = t.leaf(Matrix::from_vec(3, 2, vec![0.5, -1.0, 1.5, 0.3, -0.7, 0.9]));
            let y = t.matmul(x, b);
            reduce(t, y)
        });
        prop_assert!(res.within(TOL), "{:?}", res);
    }

    #[test]
    fn grad_matmul_rhs(b in matrix(3, 2)) {
        let res = check_gradient(&b, EPS, |t, x| {
            let a = t.leaf(Matrix::from_vec(2, 3, vec![0.5, -1.0, 1.5, 0.3, -0.7, 0.9]));
            let y = t.matmul(a, x);
            reduce(t, y)
        });
        prop_assert!(res.within(TOL), "{:?}", res);
    }

    #[test]
    fn grad_matmul_bt(a in matrix(2, 3)) {
        let res = check_gradient(&a, EPS, |t, x| {
            let b = t.leaf(Matrix::from_vec(4, 3, (0..12).map(|i| 0.1 * i as f32 - 0.5).collect()));
            let y = t.matmul_bt(x, b);
            reduce(t, y)
        });
        prop_assert!(res.within(TOL), "{:?}", res);
    }

    #[test]
    fn grad_affine_input(x in matrix(2, 3)) {
        let res = check_gradient(&x, EPS, |t, n| {
            let w = t.leaf(Matrix::from_vec(3, 2, vec![0.5, -1.0, 1.5, 0.3, -0.7, 0.9]));
            let b = t.leaf(Matrix::from_vec(1, 2, vec![0.2, -0.4]));
            let y = t.affine(n, w, b);
            reduce(t, y)
        });
        prop_assert!(res.within(TOL), "{:?}", res);
    }

    #[test]
    fn grad_affine_weight(w in matrix(3, 2)) {
        let res = check_gradient(&w, EPS, |t, n| {
            let x = t.leaf(Matrix::from_vec(2, 3, vec![0.5, -1.0, 1.5, 0.3, -0.7, 0.9]));
            let b = t.leaf(Matrix::from_vec(1, 2, vec![0.2, -0.4]));
            let y = t.affine(x, n, b);
            reduce(t, y)
        });
        prop_assert!(res.within(TOL), "{:?}", res);
    }

    #[test]
    fn grad_affine_bias(b in matrix(1, 2)) {
        let res = check_gradient(&b, EPS, |t, n| {
            let x = t.leaf(Matrix::from_vec(2, 3, vec![0.5, -1.0, 1.5, 0.3, -0.7, 0.9]));
            let w = t.leaf(Matrix::from_vec(3, 2, vec![0.1, 0.6, -0.2, 0.8, 0.4, -0.9]));
            let y = t.affine(x, w, n);
            reduce(t, y)
        });
        prop_assert!(res.within(TOL), "{:?}", res);
    }

    #[test]
    fn affine_matches_unfused(x in matrix(3, 4)) {
        // The fused node must agree exactly with matmul + add_row_broadcast.
        let mut t = Tape::new();
        let xn = t.leaf(x);
        let w = t.leaf(Matrix::from_vec(4, 2, (0..8).map(|i| 0.15 * i as f32 - 0.5).collect()));
        let b = t.leaf(Matrix::from_vec(1, 2, vec![0.3, -0.8]));
        let fused = t.affine(xn, w, b);
        let mm = t.matmul(xn, w);
        let unfused = t.add_row_broadcast(mm, b);
        prop_assert_eq!(t.value(fused).data(), t.value(unfused).data());
    }

    #[test]
    fn grad_add_and_sub(a in matrix(2, 3)) {
        let res = check_gradient(&a, EPS, |t, x| {
            let b = t.leaf(Matrix::from_vec(2, 3, vec![0.2; 6]));
            let s = t.add(x, b);
            let d = t.sub(s, x); // gradient cancels partially: checks accumulation
            let y = t.add(d, x);
            reduce(t, y)
        });
        prop_assert!(res.within(TOL), "{:?}", res);
    }

    #[test]
    fn grad_add_row_broadcast_bias(b in matrix(1, 3)) {
        let res = check_gradient(&b, EPS, |t, x| {
            let a = t.leaf(Matrix::from_vec(2, 3, vec![0.1, 0.4, -0.3, 0.9, -1.1, 0.6]));
            let y = t.add_row_broadcast(a, x);
            reduce(t, y)
        });
        prop_assert!(res.within(TOL), "{:?}", res);
    }

    #[test]
    fn grad_mul_elementwise(a in matrix(2, 3)) {
        let res = check_gradient(&a, EPS, |t, x| {
            let b = t.leaf(Matrix::from_vec(2, 3, vec![0.5, -1.0, 1.5, 0.3, -0.7, 0.9]));
            let y = t.mul(x, b);
            reduce(t, y)
        });
        prop_assert!(res.within(TOL), "{:?}", res);
    }

    #[test]
    fn grad_mul_col_broadcast_lhs(a in matrix(3, 2)) {
        let res = check_gradient(&a, EPS, |t, x| {
            let s = t.leaf(Matrix::from_vec(3, 1, vec![0.6, -0.9, 1.3]));
            let y = t.mul_col_broadcast(x, s);
            reduce(t, y)
        });
        prop_assert!(res.within(TOL), "{:?}", res);
    }

    #[test]
    fn grad_mul_col_broadcast_gate(s in matrix(3, 1)) {
        let res = check_gradient(&s, EPS, |t, x| {
            let a = t.leaf(Matrix::from_vec(3, 2, vec![0.4, -0.2, 0.8, 1.1, -0.5, 0.3]));
            let y = t.mul_col_broadcast(a, x);
            reduce(t, y)
        });
        prop_assert!(res.within(TOL), "{:?}", res);
    }

    #[test]
    fn cum_mean_last_row_matches_mean_rows(m in matrix(4, 3)) {
        // The causal gate reads the last cumulative-mean row where the
        // full-sequence mean used to be — they must agree bitwise.
        let mut t = Tape::new();
        let x = t.leaf(m);
        let cum = t.cum_mean_rows(x);
        let mean = t.mean_rows(x);
        prop_assert_eq!(t.value(cum).row(3), t.value(mean).row(0));
    }

    #[test]
    fn grad_layer_norm_input(x in matrix(2, 4)) {
        let res = check_gradient(&x, EPS, |t, n| {
            let g = t.leaf(Matrix::from_vec(1, 4, vec![1.0, 0.9, 1.1, 1.2]));
            let b = t.leaf(Matrix::from_vec(1, 4, vec![0.0, 0.1, -0.1, 0.2]));
            let y = t.layer_norm(n, g, b, 1e-5);
            reduce(t, y)
        });
        prop_assert!(res.within(TOL), "{:?}", res);
    }

    #[test]
    fn grad_layer_norm_gain(g in matrix(1, 4)) {
        let res = check_gradient(&g, EPS, |t, n| {
            let x = t.leaf(Matrix::from_vec(2, 4, vec![0.3, -0.5, 0.9, 1.4, -1.0, 0.2, 0.8, -0.6]));
            let b = t.leaf(Matrix::zeros(1, 4));
            let y = t.layer_norm(x, n, b, 1e-5);
            reduce(t, y)
        });
        prop_assert!(res.within(TOL), "{:?}", res);
    }

    #[test]
    fn grad_embedding_table(w in matrix(4, 3)) {
        let res = check_gradient(&w, EPS, |t, x| {
            let e = t.embedding(x, &[0, 2, 2, 3]);
            reduce(t, e)
        });
        prop_assert!(res.within(TOL), "{:?}", res);
    }

    #[test]
    fn grad_concat_rows(a in matrix(2, 3)) {
        let res = check_gradient(&a, EPS, |t, x| {
            let b = t.leaf(Matrix::from_vec(1, 3, vec![0.4, -0.1, 0.7]));
            let y = t.concat_rows(x, b);
            reduce(t, y)
        });
        prop_assert!(res.within(TOL), "{:?}", res);
    }

    #[test]
    fn grad_concat_cols(a in matrix(2, 2)) {
        let res = check_gradient(&a, EPS, |t, x| {
            let b = t.leaf(Matrix::from_vec(2, 3, vec![0.4, -0.1, 0.7, 0.2, 0.9, -0.8]));
            let y = t.concat_cols(&[x, b, x]);
            reduce(t, y)
        });
        prop_assert!(res.within(TOL), "{:?}", res);
    }

    /// The fused attention node with two heads and two prefix rows, by
    /// each input in turn: queries, keys, values, prefix keys, prefix values.
    #[test]
    fn grad_attention(a in matrix(3, 4), role in 0usize..5) {
        let fixed = |seed: f32, rows: usize| {
            Matrix::from_vec(rows, 4, (0..rows * 4).map(|i| (i as f32 * seed).sin()).collect())
        };
        let x0 = if role < 3 { a } else { a.slice_rows(0, 2) };
        let res = check_gradient(&x0, EPS, |t, x| {
            let mut ins: Vec<NodeId> = [(0.7, 3), (1.3, 3), (2.1, 3), (0.4, 2), (1.9, 2)]
                .iter()
                .map(|&(seed, rows)| t.leaf(fixed(seed, rows)))
                .collect();
            ins[role] = x;
            let y = t.attention(ins[0], ins[1], ins[2], Some((ins[3], ins[4])), 2);
            reduce(t, y)
        });
        prop_assert!(res.within(TOL), "role {role}: {:?}", res);
    }

    #[test]
    fn grad_cross_entropy(l in matrix(3, 4)) {
        let res = check_gradient(&l, EPS, |t, x| {
            t.cross_entropy(x, &[1, IGNORE_INDEX, 3])
        });
        prop_assert!(res.within(TOL), "{:?}", res);
    }

    #[test]
    fn grad_bce_with_logits(l in matrix(3, 1)) {
        let res = check_gradient(&l, EPS, |t, x| {
            t.bce_with_logits(x, &[1.0, 0.0, 1.0])
        });
        prop_assert!(res.within(TOL), "{:?}", res);
    }

    #[test]
    fn softmax_rows_are_distributions(m in matrix(3, 5)) {
        let v = infuserki_tensor::kernels::softmax_rows(&m);
        for r in 0..3 {
            let sum: f32 = v.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(v.row(r).iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn sigmoid_outputs_in_unit_interval(m in matrix(2, 4)) {
        let mut t = Tape::new();
        let x = t.leaf(m);
        let s = t.sigmoid(x);
        prop_assert!(t.value(s).data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn layer_norm_rows_standardized(m in matrix(3, 8)) {
        let mut t = Tape::new();
        let x = t.leaf(m);
        let g = t.leaf(Matrix::full(1, 8, 1.0));
        let b = t.leaf(Matrix::zeros(1, 8));
        let y = t.layer_norm(x, g, b, 1e-5);
        let v = t.value(y);
        for r in 0..3 {
            let mean: f32 = v.row(r).iter().sum::<f32>() / 8.0;
            prop_assert!(mean.abs() < 1e-3, "row mean {mean}");
        }
    }
}
