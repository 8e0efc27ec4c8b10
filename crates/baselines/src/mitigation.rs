//! Classic catastrophic-forgetting mitigations from the paper's related-work
//! section, applied to full fine-tuning: **EWC** (Kirkpatrick et al. 2017),
//! **replay** (Lopez-Paz & Ranzato 2017), and **knowledge distillation**
//! against the pre-update model (Buzzega et al. 2020).
//!
//! These are not rows in the paper's tables, but they are the natural
//! yardstick for its claim that the infuser mechanism beats generic
//! mitigation at *intra-task* forgetting; the ablation benches exercise them.

use std::collections::HashMap;

use infuserki_nn::layers::Module;
use infuserki_nn::optim::{AdamW, AdamWConfig};
use infuserki_nn::{compute_batch_grads, LmSample, NoHook, Trainable, TransformerLm};
use infuserki_tensor::{kernels, Gradients, Matrix, NodeId, Param, ParamId, Tape};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Elastic Weight Consolidation state: the anchor parameters θ* and the
/// diagonal Fisher information estimated on retained-knowledge samples.
pub struct EwcPenalty {
    anchor: HashMap<ParamId, Matrix>,
    fisher: HashMap<ParamId, Matrix>,
    /// Penalty strength λ.
    pub lambda: f32,
}

impl EwcPenalty {
    /// Estimates the diagonal Fisher on `known_samples` (squared gradients of
    /// the LM loss, averaged) and anchors the current parameters.
    pub fn estimate(model: &TransformerLm, known_samples: &[LmSample], lambda: f32) -> Self {
        struct Probe<'a>(&'a TransformerLm);
        impl Trainable for Probe<'_> {
            type Sample = LmSample;
            fn loss(&self, s: &LmSample, tape: &mut Tape) -> NodeId {
                self.0.lm_loss(&s.tokens, &s.targets, &NoHook, tape)
            }
            fn visit_trainable(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
        }
        let probe = Probe(model);
        let every = model.trainable_set();
        let indices: Vec<usize> = (0..known_samples.len()).collect();
        let mut fisher: HashMap<ParamId, Matrix> = HashMap::new();
        for chunk in indices.chunks(8) {
            let (_, grads) = compute_batch_grads(&probe, known_samples, chunk, &every);
            for (id, g) in grads.iter() {
                let sq = g.map(|v| v * v);
                match fisher.get_mut(id) {
                    Some(acc) => acc.add_assign(&sq),
                    None => {
                        fisher.insert(*id, sq);
                    }
                }
            }
        }
        let n = known_samples.len().max(1) as f32;
        for f in fisher.values_mut() {
            f.scale_assign(1.0 / n);
        }
        let mut anchor = HashMap::new();
        model.visit(&mut |p| {
            anchor.insert(p.id(), p.data().clone());
        });
        EwcPenalty {
            anchor,
            fisher,
            lambda,
        }
    }

    /// Adds the analytic EWC gradient `λ F (θ − θ*)` for every parameter to
    /// `grads` (the quadratic penalty differentiates outside the tape).
    pub fn add_penalty_grads(&self, model: &TransformerLm, grads: &mut Gradients) {
        model.visit(&mut |p| {
            let (Some(anchor), Some(fisher)) = (self.anchor.get(&p.id()), self.fisher.get(&p.id()))
            else {
                return;
            };
            let mut delta = p.data().clone();
            for ((d, &a), &f) in delta
                .data_mut()
                .iter_mut()
                .zip(anchor.data())
                .zip(fisher.data())
            {
                *d = self.lambda * f * (*d - a);
            }
            grads.add(p.id(), delta);
        });
    }

    /// The current penalty value `λ/2 Σ F (θ − θ*)²` (for logging).
    pub fn penalty_value(&self, model: &TransformerLm) -> f32 {
        let mut total = 0.0;
        model.visit(&mut |p| {
            let (Some(anchor), Some(fisher)) = (self.anchor.get(&p.id()), self.fisher.get(&p.id()))
            else {
                return;
            };
            for ((&v, &a), &f) in p.data().data().iter().zip(anchor.data()).zip(fisher.data()) {
                total += f * (v - a) * (v - a);
            }
        });
        0.5 * self.lambda * total
    }
}

/// Full fine-tuning with the EWC penalty. Returns per-epoch mean task losses.
#[allow(clippy::too_many_arguments)]
pub fn train_full_ft_ewc(
    model: &mut TransformerLm,
    new_samples: &[LmSample],
    known_samples: &[LmSample],
    lambda: f32,
    epochs: usize,
    lr: f32,
    batch: usize,
    seed: u64,
) -> Vec<f32> {
    let penalty = EwcPenalty::estimate(model, known_samples, lambda);
    let every = model.trainable_set();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut opt = AdamW::new(AdamWConfig {
        lr,
        ..AdamWConfig::default()
    });
    let mut losses = Vec::with_capacity(epochs);
    for _ in 0..epochs {
        let mut order: Vec<usize> = (0..new_samples.len()).collect();
        order.shuffle(&mut rng);
        let mut total = 0.0f32;
        for chunk in order.chunks(batch) {
            struct Probe<'a>(&'a TransformerLm);
            impl Trainable for Probe<'_> {
                type Sample = LmSample;
                fn loss(&self, s: &LmSample, tape: &mut Tape) -> NodeId {
                    self.0.lm_loss(&s.tokens, &s.targets, &NoHook, tape)
                }
                fn visit_trainable(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
            }
            let (loss_sum, mut grads) = {
                let probe = Probe(model);
                compute_batch_grads(&probe, new_samples, chunk, &every)
            };
            grads.scale(1.0 / chunk.len() as f32);
            penalty.add_penalty_grads(model, &mut grads);
            opt.step(&grads, |f| model.visit_mut(f));
            total += loss_sum;
        }
        losses.push(total / new_samples.len().max(1) as f32);
    }
    losses
}

/// Replay: full fine-tuning on the new samples plus a replayed fraction of
/// known samples each epoch.
#[allow(clippy::too_many_arguments)]
pub fn train_full_ft_replay(
    model: &mut TransformerLm,
    new_samples: &[LmSample],
    known_samples: &[LmSample],
    replay_fraction: f32,
    epochs: usize,
    lr: f32,
    batch: usize,
    seed: u64,
) -> Vec<f32> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n_replay = ((new_samples.len() as f32) * replay_fraction) as usize;
    let mut mixed: Vec<LmSample> = new_samples.to_vec();
    let mut pool = known_samples.to_vec();
    pool.shuffle(&mut rng);
    mixed.extend(pool.into_iter().take(n_replay));

    let mut wrapper = crate::fullft::FullFineTune::new(model.clone());
    let losses = wrapper.train(&mixed, epochs, lr, batch, seed);
    *model = wrapper.into_model();
    losses
}

/// Distillation against the frozen pre-update teacher: task CE on new samples
/// plus `alpha ·` cross-entropy between the student and the teacher's output
/// distribution on known prompts.
#[allow(clippy::too_many_arguments)]
pub fn train_full_ft_distill(
    model: &mut TransformerLm,
    new_samples: &[LmSample],
    known_samples: &[LmSample],
    alpha: f32,
    epochs: usize,
    lr: f32,
    batch: usize,
    seed: u64,
) -> Vec<f32> {
    let teacher = model.clone();
    // Precompute teacher distributions per known sample.
    let teacher_probs: Vec<Matrix> = known_samples
        .iter()
        .map(|s| {
            let mut tape = Tape::new();
            let logits = teacher.forward(&s.tokens, &NoHook, &mut tape);
            kernels::softmax_rows(tape.value(logits))
        })
        .collect();

    struct DistillSample {
        new_idx: Option<usize>,
        known_idx: Option<usize>,
    }
    struct DistillModel<'a> {
        model: &'a TransformerLm,
        new_samples: &'a [LmSample],
        known_samples: &'a [LmSample],
        teacher_probs: &'a [Matrix],
        alpha: f32,
    }
    impl Trainable for DistillModel<'_> {
        type Sample = DistillSample;
        fn loss(&self, s: &DistillSample, tape: &mut Tape) -> NodeId {
            match (s.new_idx, s.known_idx) {
                (Some(i), None) => {
                    let sm = &self.new_samples[i];
                    self.model.lm_loss(&sm.tokens, &sm.targets, &NoHook, tape)
                }
                (None, Some(i)) => {
                    // Soft cross-entropy: −Σ p_teacher · log_softmax(student),
                    // averaged over positions, scaled by alpha.
                    let sm = &self.known_samples[i];
                    let logits = self.model.forward(&sm.tokens, &NoHook, tape);
                    let logp = tape.log_softmax(logits);
                    let p = tape.leaf(self.teacher_probs[i].clone());
                    let prod = tape.mul(p, logp);
                    let row_mean = tape.mean_rows(prod); // [1, V]
                    let (rows, cols) = {
                        let v = tape.value(row_mean);
                        v.shape()
                    };
                    debug_assert_eq!(rows, 1);
                    let ones = tape.leaf(Matrix::from_vec(cols, 1, vec![1.0; cols]));
                    let summed = tape.matmul(row_mean, ones); // [1,1]
                    tape.scale(summed, -self.alpha)
                }
                _ => unreachable!("distill sample must reference exactly one side"),
            }
        }
        fn visit_trainable(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
    }

    let mut samples: Vec<DistillSample> = (0..new_samples.len())
        .map(|i| DistillSample {
            new_idx: Some(i),
            known_idx: None,
        })
        .collect();
    samples.extend((0..known_samples.len()).map(|i| DistillSample {
        new_idx: None,
        known_idx: Some(i),
    }));

    let every = model.trainable_set();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut opt = AdamW::new(AdamWConfig {
        lr,
        ..AdamWConfig::default()
    });
    let mut losses = Vec::with_capacity(epochs);
    for _ in 0..epochs {
        let mut order: Vec<usize> = (0..samples.len()).collect();
        order.shuffle(&mut rng);
        let mut total = 0.0f32;
        for chunk in order.chunks(batch) {
            let (loss_sum, mut grads) = {
                let dm = DistillModel {
                    model,
                    new_samples,
                    known_samples,
                    teacher_probs: &teacher_probs,
                    alpha,
                };
                compute_batch_grads(&dm, &samples, chunk, &every)
            };
            grads.scale(1.0 / chunk.len() as f32);
            opt.step(&grads, |f| model.visit_mut(f));
            total += loss_sum;
        }
        losses.push(total / samples.len().max(1) as f32);
    }
    losses
}

#[cfg(test)]
mod tests {
    use super::*;
    use infuserki_nn::ModelConfig;

    fn model() -> TransformerLm {
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        TransformerLm::new(ModelConfig::tiny(24), &mut rng)
    }

    fn samples(prompt: usize, answer: usize) -> Vec<LmSample> {
        vec![LmSample::from_completion(&[prompt], &[answer]); 3]
    }

    #[test]
    fn fisher_is_nonnegative_and_covers_params() {
        let m = model();
        let known = samples(1, 2);
        let ewc = EwcPenalty::estimate(&m, &known, 1.0);
        assert!(!ewc.fisher.is_empty());
        for f in ewc.fisher.values() {
            assert!(f.data().iter().all(|&v| v >= 0.0));
        }
        // At the anchor, the penalty is zero.
        assert_eq!(ewc.penalty_value(&m), 0.0);
    }

    #[test]
    fn penalty_grows_as_params_move() {
        let mut m = model();
        let known = samples(1, 2);
        let ewc = EwcPenalty::estimate(&m, &known, 1.0);
        train_full_ft_ewc(&mut m, &samples(3, 4), &known, 0.0, 3, 5e-3, 2, 0);
        assert!(ewc.penalty_value(&m) > 0.0);
    }

    #[test]
    fn ewc_training_reduces_task_loss() {
        let mut m = model();
        let losses = train_full_ft_ewc(&mut m, &samples(3, 4), &samples(1, 2), 10.0, 8, 5e-3, 3, 0);
        assert!(losses.last().unwrap() < losses.first().unwrap());
    }

    #[test]
    fn replay_mixes_and_trains() {
        let mut m = model();
        let losses =
            train_full_ft_replay(&mut m, &samples(3, 4), &samples(1, 2), 0.5, 4, 5e-3, 3, 0);
        assert_eq!(losses.len(), 4);
        assert!(losses.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn distill_keeps_student_near_teacher_on_known() {
        let mut student = model();
        let teacher = student.clone();
        let known = samples(1, 2);
        let new = samples(3, 4);
        train_full_ft_distill(&mut student, &new, &known, 5.0, 6, 5e-3, 3, 0);
        // Student should still be close to the teacher on the known prompt
        // (closer than a plain fine-tune of the same budget).
        let mut plain = teacher.clone();
        let mut ft = crate::fullft::FullFineTune::new(plain.clone());
        ft.train(&new, 6, 5e-3, 3, 0);
        plain = ft.into_model();

        let dist = |m: &TransformerLm| {
            let mut t1 = Tape::new();
            let mut t2 = Tape::new();
            let a = teacher.forward(&[1], &NoHook, &mut t1);
            let b = m.forward(&[1], &NoHook, &mut t2);
            t1.value(a)
                .data()
                .iter()
                .zip(t2.value(b).data())
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f32>()
        };
        assert!(
            dist(&student) <= dist(&plain) * 1.5,
            "distilled student drifted more than plain FT: {} vs {}",
            dist(&student),
            dist(&plain)
        );
    }
}
