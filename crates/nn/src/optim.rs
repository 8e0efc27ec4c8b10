//! AdamW optimizer with decoupled weight decay, global-norm gradient
//! clipping, and learning-rate schedules.

use std::collections::HashMap;

use infuserki_tensor::{Gradients, Matrix, Param, ParamId};

/// AdamW hyperparameters. The defaults match the paper's experimental
/// details (lr = 1e-4, AdamW; Loshchilov & Hutter 2018).
#[derive(Debug, Clone, Copy)]
pub struct AdamWConfig {
    /// Peak learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Denominator epsilon.
    pub eps: f32,
    /// Decoupled weight decay (skipped for biases/gains by name suffix).
    pub weight_decay: f32,
    /// Global-norm clip threshold; `None` disables clipping.
    pub clip_norm: Option<f32>,
}

impl Default for AdamWConfig {
    fn default() -> Self {
        AdamWConfig {
            lr: 1e-4,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.01,
            clip_norm: Some(1.0),
        }
    }
}

struct Slot {
    m: Matrix,
    v: Matrix,
}

/// AdamW with per-parameter moment state keyed by [`ParamId`].
pub struct AdamW {
    cfg: AdamWConfig,
    slots: HashMap<ParamId, Slot>,
    step: u64,
}

impl AdamW {
    /// New optimizer.
    pub fn new(cfg: AdamWConfig) -> Self {
        AdamW {
            cfg,
            slots: HashMap::new(),
            step: 0,
        }
    }

    /// Steps taken so far.
    pub fn steps(&self) -> u64 {
        self.step
    }

    /// Applies one update. `visit` must yield every trainable parameter;
    /// parameters without a gradient entry are left untouched.
    ///
    /// Gradients should already be averaged over the batch; this method only
    /// applies clipping and the AdamW rule. The clip reads the global norm
    /// of every gradient in `grads`, so `grads` should hold exactly the
    /// parameters `visit` yields: [`crate::train_epoch`] passes the
    /// trainable set's gradients and nothing else, as standard PEFT
    /// practice clips over the adapter gradients alone.
    pub fn step(&mut self, grads: &Gradients, visit: impl FnOnce(&mut dyn FnMut(&mut Param))) {
        self.step += 1;
        let clip_scale = match self.cfg.clip_norm {
            Some(c) => {
                let n = grads.global_norm();
                if n > c && n > 0.0 {
                    c / n
                } else {
                    1.0
                }
            }
            None => 1.0,
        };
        let lr = self.cfg.lr;
        let b1 = self.cfg.beta1;
        let b2 = self.cfg.beta2;
        let bc1 = 1.0 - b1.powi(self.step as i32);
        let bc2 = 1.0 - b2.powi(self.step as i32);
        let eps = self.cfg.eps;
        let wd = self.cfg.weight_decay;
        let slots = &mut self.slots;

        visit(&mut |p: &mut Param| {
            let Some(g) = grads.get(p.id()) else {
                return;
            };
            let (rows, cols) = p.data().shape();
            let slot = slots.entry(p.id()).or_insert_with(|| Slot {
                m: Matrix::zeros(rows, cols),
                v: Matrix::zeros(rows, cols),
            });
            // Decay weights only (not norm gains / biases, identified by name).
            let decay = if is_decayable(p.name()) { wd } else { 0.0 };
            let data = p.data_mut();
            for i in 0..data.len() {
                let gi = g.data()[i] * clip_scale;
                let m = &mut slot.m.data_mut()[i];
                let v = &mut slot.v.data_mut()[i];
                *m = b1 * *m + (1.0 - b1) * gi;
                *v = b2 * *v + (1.0 - b2) * gi * gi;
                let mhat = *m / bc1;
                let vhat = *v / bc2;
                let x = &mut data.data_mut()[i];
                *x -= lr * (mhat / (vhat.sqrt() + eps) + decay * *x);
            }
        });
    }
}

fn is_decayable(name: &str) -> bool {
    // Biases and LayerNorm gains end with ".b" or ".g"; embedding tables and
    // projection weights decay.
    !(name.ends_with(".b") || name.ends_with(".g"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use infuserki_tensor::Tape;

    fn quad_grad(p: &Param) -> Gradients {
        // loss = 0.5 * x^2 → grad = x
        let mut t = Tape::new();
        let x = t.param(p);
        let sq = t.mul(x, x);
        let half = t.scale(sq, 0.5);
        let m = t.mean_rows(half);
        let ones = t.leaf(Matrix::from_vec(1, 1, vec![1.0]));
        let loss = t.matmul(m, ones);
        t.backward(loss);
        t.grads()
    }

    #[test]
    fn adamw_decreases_quadratic() {
        let mut p = Param::new("x.w", Matrix::scalar(5.0));
        let mut opt = AdamW::new(AdamWConfig {
            lr: 0.1,
            weight_decay: 0.0,
            clip_norm: None,
            ..AdamWConfig::default()
        });
        for _ in 0..200 {
            let g = quad_grad(&p);
            opt.step(&g, |f| f(&mut p));
        }
        assert!(
            p.data().scalar_value().abs() < 0.5,
            "{}",
            p.data().scalar_value()
        );
    }

    #[test]
    fn weight_decay_skips_biases() {
        let mut w = Param::new("l.w", Matrix::scalar(1.0));
        let mut b = Param::new("l.b", Matrix::scalar(1.0));
        let mut opt = AdamW::new(AdamWConfig {
            lr: 0.01,
            weight_decay: 0.5,
            clip_norm: None,
            ..AdamWConfig::default()
        });
        // Zero gradient for both: only decay moves values.
        let mut g = Gradients::new();
        g.add(w.id(), Matrix::scalar(0.0));
        g.add(b.id(), Matrix::scalar(0.0));
        opt.step(&g, |f| {
            f(&mut w);
            f(&mut b);
        });
        assert!(w.data().scalar_value() < 1.0);
        assert_eq!(b.data().scalar_value(), 1.0);
    }

    #[test]
    fn clip_limits_update_size() {
        let mut p = Param::new("x.w", Matrix::scalar(0.0));
        let mut opt = AdamW::new(AdamWConfig {
            lr: 1.0,
            weight_decay: 0.0,
            clip_norm: Some(1.0),
            ..AdamWConfig::default()
        });
        let mut g = Gradients::new();
        g.add(p.id(), Matrix::scalar(1000.0));
        opt.step(&g, |f| f(&mut p));
        // After clipping, first Adam step magnitude ≈ lr regardless of raw grad.
        assert!(p.data().scalar_value().abs() < 1.5);
    }

    #[test]
    fn untracked_params_untouched() {
        let mut p = Param::new("x.w", Matrix::scalar(3.0));
        let mut opt = AdamW::new(AdamWConfig::default());
        let g = Gradients::new();
        opt.step(&g, |f| f(&mut p));
        assert_eq!(p.data().scalar_value(), 3.0);
    }
}
