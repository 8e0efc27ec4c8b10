//! The knowledge Infuser (Eq. 4–5).
//!
//! A small MLP over the mean-pooled FFN-sublayer input `Mean(H_P^l)` produces
//! a pre-sigmoid logit; `r^l = σ(logit)` is the infusing score that scales the
//! adapter contribution. Following Azaria & Mitchell (2023), the transformer's
//! internal state at layer `l` carries enough signal to tell whether the model
//! "knows" the current question — the infuser reads exactly that state.

use infuserki_nn::layers::{Linear, Module};
use infuserki_nn::{Exec, Val};
use infuserki_tensor::Param;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Per-layer infuser MLP: `d → hidden → 1` with tanh hidden activation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InfuserMlp {
    l1: Linear,
    l2: Linear,
}

impl InfuserMlp {
    /// New infuser for `layer`.
    pub fn new(layer: usize, d_model: usize, hidden: usize, rng: &mut impl Rng) -> Self {
        InfuserMlp {
            l1: Linear::new(
                &format!("infuser{layer}.l1"),
                d_model,
                hidden,
                0.1,
                true,
                rng,
            ),
            l2: Linear::new(&format!("infuser{layer}.l2"), hidden, 1, 0.1, true, rng),
        }
    }

    /// Pre-sigmoid logits `[n, 1]` for pooled states `x: [n, d]`, row by
    /// row; the infusing score is `r = σ(logit)` ∈ [0, 1] (Eq. 4).
    pub fn logit(&self, x: &Val, e: &mut Exec) -> Val {
        let h = self.l1.forward(x, e);
        let a = e.tanh(h);
        self.l2.forward(&a, e)
    }

    /// True when the layers chain `d_model → hidden → 1`.
    pub fn fits(&self, d_model: usize) -> bool {
        self.l1.shape().0 == d_model && self.l2.shape() == (self.l1.shape().1, 1)
    }
}

impl Module for InfuserMlp {
    fn visit(&self, f: &mut dyn FnMut(&Param)) {
        self.l1.visit(f);
        self.l2.visit(f);
    }

    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.l1.visit_mut(f);
        self.l2.visit_mut(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infuserki_tensor::{Matrix, NodeId, Tape};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn logit(inf: &InfuserMlp, t: &mut Tape, x: NodeId) -> NodeId {
        Exec::on_tape(t, |e| inf.logit(&x.into(), e))
    }

    /// The infusing score `σ(logit)`.
    fn score(inf: &InfuserMlp, t: &mut Tape, x: NodeId) -> NodeId {
        Exec::on_tape(t, |e| {
            let z = inf.logit(&x.into(), e);
            e.sigmoid(z)
        })
    }

    #[test]
    fn score_in_unit_interval() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let inf = InfuserMlp::new(0, 8, 4, &mut rng);
        let mut t = Tape::new();
        let x = t.leaf(Matrix::full(1, 8, 2.0));
        let s = score(&inf, &mut t, x);
        let v = t.value(s).scalar_value();
        assert!((0.0..=1.0).contains(&v));
    }

    #[test]
    fn logit_shape_is_scalar() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let inf = InfuserMlp::new(0, 6, 3, &mut rng);
        let mut t = Tape::new();
        let x = t.leaf(Matrix::zeros(1, 6));
        let z = logit(&inf, &mut t, x);
        assert_eq!(t.value(z).shape(), (1, 1));
    }

    #[test]
    fn infuser_is_trainable_on_separation_task() {
        // Two pooled states; train BCE to separate them.
        use infuserki_nn::optim::{AdamW, AdamWConfig};
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut inf = InfuserMlp::new(0, 4, 8, &mut rng);
        let pos = Matrix::from_vec(1, 4, vec![1.0, 0.5, -0.5, 1.0]);
        let neg = Matrix::from_vec(1, 4, vec![-1.0, -0.5, 0.5, -1.0]);
        let mut opt = AdamW::new(AdamWConfig {
            lr: 0.05,
            weight_decay: 0.0,
            ..AdamWConfig::default()
        });
        for _ in 0..100 {
            let mut t = Tape::new();
            let xp = t.leaf(pos.clone());
            let xn = t.leaf(neg.clone());
            let zp = logit(&inf, &mut t, xp);
            let zn = logit(&inf, &mut t, xn);
            let z = t.concat_rows(zp, zn);
            let loss = t.bce_with_logits(z, &[1.0, 0.0]);
            t.backward(loss);
            let grads = t.grads();
            opt.step(&grads, |f| inf.visit_mut(f));
        }
        let mut t = Tape::new();
        let xp = t.leaf(pos);
        let xn = t.leaf(neg);
        let sp = score(&inf, &mut t, xp);
        let sn = score(&inf, &mut t, xn);
        assert!(t.value(sp).scalar_value() > 0.85);
        assert!(t.value(sn).scalar_value() < 0.15);
    }

    /// The tape's `tanh` and the engine's gate are one function: the same
    /// rows give the same bits through `logit` on the tape and eagerly, at
    /// the world's gate geometry (hidden 16) and off the vector width
    /// (hidden 5), with hidden pre-activations out past the polynomial's
    /// clamp.
    #[test]
    fn tape_and_eager_logit_agree_bitwise() {
        let eager = |f: &dyn Fn(&Val, &mut Exec) -> Val, x: &Matrix| {
            f(&Val::Mat(x.clone()), &mut Exec::eager()).into_mat()
        };
        for (d, hidden) in [(64, 16), (7, 5)] {
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            let mut inf = InfuserMlp::new(0, d, hidden, &mut rng);
            inf.visit_mut(&mut |p| {
                for w in p.data_mut().data_mut() {
                    *w = *w * 9.0 + 0.03;
                }
            });
            let x = Matrix::from_vec(
                17,
                d,
                (0..17 * d).map(|i| (i as f32 * 0.37).sin() * 3.0).collect(),
            );
            let mut t = Tape::new();
            let leaf = t.leaf(x.clone());
            let z = logit(&inf, &mut t, leaf);
            let hidden_pre = eager(&|v, e| inf.l1.forward(v, e), &x);
            assert!(hidden_pre.data().iter().any(|v| v.abs() > 8.0));
            let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let eager_logit = |x: &Matrix| eager(&|v, e| inf.logit(v, e), x);
            assert_eq!(bits(t.value(z)), bits(&eager_logit(&x)));
            // Row by row, as a decode step pools one row per sequence.
            for r in 0..x.rows() {
                let row = eager_logit(&x.slice_rows(r, r + 1));
                assert_eq!(bits(&row), bits(&t.value(z).slice_rows(r, r + 1)));
            }
        }
    }
}
