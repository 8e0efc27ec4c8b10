//! Finite-difference gradient checks over the method's composite paths:
//! the adapter bottleneck (`σ(x W_down + b) W_up`) and the causal infuser
//! gate (`adapter(h) · σ(MLP(CumMean(h)))`, row by row), end to end through
//! the real `AdapterLayer` / `InfuserMlp` modules rather than per-op.
//!
//! Per-op rules are already covered in `crates/tensor/tests/grad_properties.rs`;
//! what these checks pin down is the composition the paper's training loop
//! actually differentiates — including the fused affine node the `Linear`
//! layers now record.

use infuserki_core::adapter::AdapterLayer;
use infuserki_core::infuser::InfuserMlp;
use infuserki_nn::layers::Module;
use infuserki_nn::Exec;
use infuserki_tensor::check::check_gradient;
use infuserki_tensor::{Matrix, NodeId, Tape};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const EPS: f32 = 1e-2;
const TOL: f32 = 3e-2;

/// Weighted scalar reduction keeping the loss sensitive to every element.
fn reduce(t: &mut Tape, x: NodeId) -> NodeId {
    let (r, c) = t.value(x).shape();
    let w = t.leaf(Matrix::from_vec(
        c,
        1,
        (0..c).map(|i| 0.3 + 0.1 * i as f32).collect(),
    ));
    let col = t.matmul(x, w);
    let ones = t.leaf(Matrix::from_vec(1, r, vec![1.0; r]));
    t.matmul(ones, col)
}

/// An adapter whose up-projection has been nudged off its zero init, so the
/// forward (and every gradient) is non-trivial.
fn live_adapter(d: usize, d_prime: usize, seed: u64) -> AdapterLayer {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut a = AdapterLayer::new(0, d, d_prime, &mut rng);
    let mut idx = 0;
    a.visit_mut(&mut |p| {
        if p.name().contains("up") {
            for v in p.data_mut().data_mut() {
                idx += 1;
                *v = 0.11 * (idx % 7) as f32 - 0.3;
            }
        }
    });
    a
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// d/dh of `σ(h W_down + b) W_up` through the real adapter module.
    #[test]
    fn grad_adapter_bottleneck_wrt_input(v in proptest::collection::vec(-1.5f32..1.5, 2 * 6)) {
        let h = Matrix::from_vec(2, 6, v);
        let adapter = live_adapter(6, 3, 11);
        let res = check_gradient(&h, EPS, |t, x| {
            let y = Exec::on_tape(t, |e| adapter.forward(&x.into(), e));
            reduce(t, y)
        });
        prop_assert!(res.within(TOL), "{:?}", res);
    }

    /// d/dW_down of the bottleneck, via the fused affine node (the checked
    /// matrix is the weight, input and bias are fixed leaves).
    #[test]
    fn grad_adapter_bottleneck_wrt_down_weight(v in proptest::collection::vec(-0.8f32..0.8, 6 * 3)) {
        let w_down = Matrix::from_vec(6, 3, v);
        let res = check_gradient(&w_down, EPS, |t, w| {
            let x = t.leaf(Matrix::from_vec(
                2, 6,
                (0..12).map(|i| 0.25 * (i % 5) as f32 - 0.5).collect(),
            ));
            let b = t.leaf(Matrix::from_vec(1, 3, vec![0.2, -0.1, 0.3]));
            let z = t.affine(x, w, b);
            let a = t.relu(z);
            let w_up = t.leaf(Matrix::from_vec(
                3, 6,
                (0..18).map(|i| 0.1 * (i % 4) as f32 - 0.15).collect(),
            ));
            let y = t.matmul(a, w_up);
            reduce(t, y)
        });
        prop_assert!(res.within(TOL), "{:?}", res);
    }

    /// d/dx of the infuser score `σ(l2(tanh(l1(x))))` on a pooled state.
    #[test]
    fn grad_infuser_score_wrt_pooled_state(v in proptest::collection::vec(-1.5f32..1.5, 6)) {
        let pooled = Matrix::from_vec(1, 6, v);
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let infuser = InfuserMlp::new(0, 6, 4, &mut rng);
        let res = check_gradient(&pooled, EPS, |t, x| {
            Exec::on_tape(t, |e| {
                let z = infuser.logit(&x.into(), e);
                e.sigmoid(z)
            })
        });
        prop_assert!(res.within(TOL), "{:?}", res);
    }

    /// The full infuser-gated residual path the method trains through:
    /// `h + adapter(h) · σ(MLP(CumMean(h)))`, each row gated by its own
    /// prefix mean — gradients flow into `h` through the residual, the
    /// bottleneck, the causal pooling, and the `[n,1]` gate column.
    #[test]
    fn grad_infuser_gated_adapter_wrt_input(v in proptest::collection::vec(-1.2f32..1.2, 3 * 6)) {
        let h = Matrix::from_vec(3, 6, v);
        let adapter = live_adapter(6, 3, 17);
        let mut rng = ChaCha8Rng::seed_from_u64(19);
        let infuser = InfuserMlp::new(0, 6, 4, &mut rng);
        let res = check_gradient(&h, EPS, |t, x| {
            let out = Exec::on_tape(t, |e| {
                let x = x.into();
                let a = adapter.forward(&x, e);
                let pooled = e.cum_mean_rows(&x, 0);
                let z = infuser.logit(&pooled, e);
                let r = e.sigmoid(z);
                let gated = e.mul_col_broadcast(&a, &r);
                e.add(x, &gated)
            });
            reduce(t, out)
        });
        prop_assert!(res.within(TOL), "{:?}", res);
    }
}
