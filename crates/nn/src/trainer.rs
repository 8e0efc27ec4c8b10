//! Generic mini-batch training loop with data-parallel gradient accumulation.
//!
//! The same loop drives base-model pre-training, InfuserKI's three phases and
//! every baseline: a [`Trainable`] supplies per-sample scalar losses on fresh
//! tapes and exposes its trainable parameters; the loop shuffles, batches,
//! accumulates gradients (in parallel with rayon — each sample gets its own
//! tape, and [`infuserki_tensor::Gradients`] merge by parameter id), and
//! applies AdamW. Each tape differentiates towards the trainable parameters
//! only ([`Tape::with_trainable`]), so a frozen base costs a forward and the
//! backward above the lowest trainable parameter, and AdamW clips over the
//! trainable gradients alone.

use infuserki_obs as obs;
use infuserki_tensor::op::IGNORE_INDEX;
use infuserki_tensor::{kernels, Gradients, NodeId, Param, Tape, TrainableSet};
use rand::seq::SliceRandom;
use rand::Rng;
use rayon::prelude::*;

use crate::optim::AdamW;

/// Per-step telemetry into the global registry, namespaced by the current
/// [`obs::phase`] label — `train.qa.step_ms` while the QA phase runs,
/// `train.step_ms` outside any phase. The post-scale gradient norm is only
/// computed (an extra pass over every gradient) while tracing is enabled.
fn record_step(loss: f32, grads: &Gradients, elapsed: std::time::Duration) {
    let phase = obs::phase();
    let prefix = if phase.is_empty() {
        "train".to_string()
    } else {
        format!("train.{phase}")
    };
    let g = obs::global();
    g.counter(format!("{prefix}.steps").as_str()).inc();
    g.histogram(format!("{prefix}.step_ms").as_str())
        .record_duration(elapsed);
    g.histogram_with(format!("{prefix}.loss").as_str(), || {
        obs::Histogram::exponential(1e-4, 2.0, 30)
    })
    .record(loss as f64);
    if obs::enabled() {
        g.histogram_with(format!("{prefix}.grad_norm").as_str(), || {
            obs::Histogram::exponential(1e-4, 2.0, 30)
        })
        .record(grads.global_norm() as f64);
    }
}

/// A model (or model + patch-module combination) that can be trained on
/// samples of type `Sample`.
pub trait Trainable: Sync {
    /// The sample type consumed by [`loss`](Trainable::loss).
    type Sample: Sync;

    /// Builds the scalar loss node for one sample on `tape`.
    fn loss(&self, sample: &Self::Sample, tape: &mut Tape) -> NodeId;

    /// Visits every parameter the optimizer may update. Frozen base-model
    /// parameters are simply not visited, and [`train_epoch`] computes no
    /// gradient for them.
    fn visit_trainable(&mut self, f: &mut dyn FnMut(&mut Param));
}

/// A plain next-token-prediction sample: aligned `tokens`/`targets` with
/// [`IGNORE_INDEX`] masking prompt positions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LmSample {
    /// Input token ids.
    pub tokens: Vec<usize>,
    /// Per-position next-token targets.
    pub targets: Vec<usize>,
}

impl LmSample {
    /// Builds a teacher-forced sample from prompt + completion.
    pub fn from_completion(prompt: &[usize], completion: &[usize]) -> Self {
        let (tokens, targets) = crate::model::completion_sample(prompt, completion);
        LmSample { tokens, targets }
    }

    /// Builds a plain LM sample where every position predicts its successor
    /// (used for knowledge-statement NTL training, Eq. 10).
    pub fn from_sequence(tokens: &[usize]) -> Self {
        assert!(tokens.len() >= 2, "from_sequence: need at least 2 tokens");
        let mut targets: Vec<usize> = tokens[1..].to_vec();
        targets.push(IGNORE_INDEX);
        LmSample {
            tokens: tokens.to_vec(),
            targets,
        }
    }

    /// Number of supervised positions.
    pub fn supervised_len(&self) -> usize {
        self.targets.iter().filter(|&&t| t != IGNORE_INDEX).count()
    }
}

/// Runs one epoch over `samples`: shuffle, batch, accumulate, step.
/// Returns the mean per-sample loss.
///
/// The trainable set is read once, from [`Trainable::visit_trainable`], and
/// every batch's gradients are computed for it alone: frozen parameters get
/// none, and the optimizer clips over exactly the gradients it applies.
pub fn train_epoch<T: Trainable>(
    model: &mut T,
    samples: &[T::Sample],
    batch_size: usize,
    opt: &mut AdamW,
    rng: &mut impl Rng,
) -> f32 {
    assert!(batch_size > 0, "train_epoch: batch_size must be positive");
    let mut ids = Vec::new();
    model.visit_trainable(&mut |p| ids.push(p.id()));
    let trainable: TrainableSet = ids.into_iter().collect();
    let mut order: Vec<usize> = (0..samples.len()).collect();
    order.shuffle(rng);
    let mut total_loss = 0.0f64;
    let mut count = 0usize;
    for chunk in order.chunks(batch_size) {
        let _sp = obs::enabled().then(|| obs::span("train.step"));
        let t0 = std::time::Instant::now();
        let (loss_sum, mut grads) = compute_batch_grads(model, samples, chunk, &trainable);
        grads.scale(1.0 / chunk.len() as f32);
        opt.step(&grads, |f| model.visit_trainable(f));
        record_step(loss_sum / chunk.len() as f32, &grads, t0.elapsed());
        total_loss += loss_sum as f64;
        count += chunk.len();
    }
    if count == 0 {
        0.0
    } else {
        (total_loss / count as f64) as f32
    }
}

/// Computes summed loss and accumulated gradients for one batch without
/// stepping — exposed for tests and custom loops.
///
/// Runs `f`, whose parallel iterators fan out over samples, on
/// [`kernels::num_threads`] threads: the process's one thread count
/// (`kernels::set_num_threads`, which `serve --threads` sets, then
/// `INFUSERKI_THREADS`, then the host's cores).
fn on_kernel_threads<R>(f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(kernels::num_threads())
        .build()
        .expect("shim pool build is infallible")
        .install(f)
}

/// Each sample's tape is [`Tape::with_trainable`]`(trainable)`: the result
/// holds a gradient for each parameter of `trainable` the loss reaches and
/// for no other, each bitwise what a full [`Tape::new`] backward computes.
/// A full-model loop passes every parameter of the model.
///
/// Per-sample losses and gradients are computed in parallel but reduced
/// sequentially in index order, with the loss summed in f64 — the result is
/// identical at any thread count, so a training run replays bit-for-bit
/// regardless of `INFUSERKI_THREADS`.
pub fn compute_batch_grads<T: Trainable>(
    model: &T,
    samples: &[T::Sample],
    indices: &[usize],
    trainable: &TrainableSet,
) -> (f32, Gradients) {
    let per: Vec<(f32, Gradients)> = on_kernel_threads(|| {
        indices
            .par_iter()
            .map(|&i| {
                let mut tape = Tape::with_trainable(trainable.clone());
                let loss = model.loss(&samples[i], &mut tape);
                let lv = tape.value(loss).scalar_value();
                tape.backward(loss);
                (lv, tape.grads())
            })
            .collect()
    });
    let mut total = 0.0f64;
    let mut grads = Gradients::new();
    for (lv, g) in per {
        total += lv as f64;
        grads = grads.merge(g);
    }
    (total as f32, grads)
}

/// Mean loss over samples without updating anything (validation).
///
/// Like [`compute_batch_grads`], the reduction is index-ordered and
/// accumulated in f64, so the reported loss does not depend on how the
/// parallel map interleaves.
pub fn eval_loss<T: Trainable>(model: &T, samples: &[T::Sample]) -> f32 {
    if samples.is_empty() {
        return 0.0;
    }
    let per: Vec<f32> = on_kernel_threads(|| {
        samples
            .par_iter()
            .map(|s| {
                let mut tape = Tape::new();
                let loss = model.loss(s, &mut tape);
                tape.value(loss).scalar_value()
            })
            .collect()
    });
    let total: f64 = per.iter().map(|&l| l as f64).sum();
    (total / samples.len() as f64) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NoHook;
    use crate::layers::Module;
    use crate::optim::AdamWConfig;
    use crate::{ModelConfig, TransformerLm};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    struct FullModel(TransformerLm);

    impl Trainable for FullModel {
        type Sample = LmSample;
        fn loss(&self, s: &LmSample, tape: &mut Tape) -> NodeId {
            self.0.lm_loss(&s.tokens, &s.targets, &NoHook, tape)
        }
        fn visit_trainable(&mut self, f: &mut dyn FnMut(&mut Param)) {
            self.0.visit_mut(f);
        }
    }

    #[test]
    fn lm_sample_constructors() {
        let s = LmSample::from_sequence(&[1, 2, 3]);
        assert_eq!(s.tokens, vec![1, 2, 3]);
        assert_eq!(s.targets[0], 2);
        assert_eq!(s.targets[1], 3);
        assert_eq!(s.targets[2], IGNORE_INDEX);
        assert_eq!(s.supervised_len(), 2);

        let c = LmSample::from_completion(&[1, 2], &[3, 4]);
        assert_eq!(c.tokens, vec![1, 2, 3]);
        assert_eq!(c.supervised_len(), 2);
    }

    #[test]
    fn training_reduces_loss_on_memorization_task() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let lm = TransformerLm::new(ModelConfig::tiny(20), &mut rng);
        let mut model = FullModel(lm);
        // Memorize: prompt [5] → completion [7, 9]
        let samples = vec![LmSample::from_completion(&[5], &[7, 9]); 4];
        let before = eval_loss(&model, &samples);
        let mut opt = AdamW::new(AdamWConfig {
            lr: 3e-3,
            ..AdamWConfig::default()
        });
        for _ in 0..30 {
            train_epoch(&mut model, &samples, 4, &mut opt, &mut rng);
        }
        let after = eval_loss(&model, &samples);
        assert!(
            after < before * 0.5,
            "loss should drop: before {before}, after {after}"
        );
    }

    #[test]
    fn batch_grads_sum_over_samples() {
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let lm = TransformerLm::new(ModelConfig::tiny(20), &mut rng);
        let model = FullModel(lm);
        let samples = vec![
            LmSample::from_completion(&[1], &[2]),
            LmSample::from_completion(&[1], &[2]),
        ];
        let all = model.0.trainable_set();
        let (l1, g1) = compute_batch_grads(&model, &samples, &[0], &all);
        let (l2, g2) = compute_batch_grads(&model, &samples, &[0, 1], &all);
        assert!((l2 - 2.0 * l1).abs() < 1e-4);
        // Identical samples → doubled gradients.
        for (id, g) in g1.iter() {
            let gg = g2.get(*id).unwrap();
            let diff = g
                .data()
                .iter()
                .zip(gg.data())
                .map(|(a, b)| (2.0 * a - b).abs())
                .fold(0.0f32, f32::max);
            assert!(diff < 1e-4, "diff {diff}");
        }
    }

    /// The per-sample fan-out follows the kernels' thread count, whatever
    /// `RAYON_NUM_THREADS` says: at one thread every sample's loss runs on
    /// the calling thread, at two the samples split over two others.
    #[test]
    fn sample_fan_out_follows_the_kernel_thread_count() {
        use std::sync::Mutex;
        use std::thread::ThreadId;

        struct Recording(FullModel, Mutex<Vec<ThreadId>>);

        impl Trainable for Recording {
            type Sample = LmSample;
            fn loss(&self, s: &LmSample, tape: &mut Tape) -> NodeId {
                self.1.lock().unwrap().push(std::thread::current().id());
                self.0.loss(s, tape)
            }
            fn visit_trainable(&mut self, f: &mut dyn FnMut(&mut Param)) {
                self.0.visit_trainable(f);
            }
        }

        let lm = TransformerLm::new(ModelConfig::tiny(20), &mut ChaCha8Rng::seed_from_u64(24));
        let all = lm.trainable_set();
        let model = Recording(FullModel(lm), Mutex::default());
        let samples: Vec<LmSample> = (1..5)
            .map(|t| LmSample::from_completion(&[t], &[2]))
            .collect();
        let threads_used = |n: usize| {
            kernels::set_num_threads(n);
            model.1.lock().unwrap().clear();
            compute_batch_grads(&model, &samples, &[0, 1, 2, 3], &all);
            eval_loss(&model, &samples);
            let mut ids = std::mem::take(&mut *model.1.lock().unwrap());
            assert_eq!(ids.len(), 8, "one loss per sample per call");
            let on_caller = ids.iter().all(|&id| id == std::thread::current().id());
            ids.sort_by_key(|id| format!("{id:?}"));
            ids.dedup();
            (on_caller, ids.len())
        };
        let one = threads_used(1);
        let two = threads_used(2);
        kernels::set_num_threads(0);
        assert_eq!(one, (true, 1));
        // Each call spawns its own two scoped workers.
        assert_eq!(two, (false, 4));
    }

    #[test]
    fn eval_loss_empty_is_zero() {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let lm = TransformerLm::new(ModelConfig::tiny(20), &mut rng);
        let model = FullModel(lm);
        assert_eq!(eval_loss(&model, &[]), 0.0);
    }
}
