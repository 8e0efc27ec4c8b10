//! End-to-end trainer-determinism regression test: the documented
//! index-ordered reduction contract of `compute_batch_grads` (losses and
//! gradients merged in sample-index order, loss summed in f64) plus the
//! bitwise-deterministic kernels must make an entire `train_epoch` run —
//! loss trajectory and every final parameter — identical at any thread
//! count. This pins the contract at `INFUSERKI_THREADS=1` vs `=4` through
//! both knobs that fan work out: the rayon shim (per-sample gradient
//! pipelines) and the kernel band splitter, for a full-model trainable and
//! for a frozen-base PEFT trainable, whose tapes differentiate towards the
//! trainable parameters only.
//!
//! It also pins the clip domain: `train_epoch` on the PEFT trainable equals,
//! bitwise, a hand-written loop that computes full gradients and drops the
//! frozen ones before `AdamW::step`.

use infuserki_nn::layers::Module;
use infuserki_nn::{
    train_epoch, AdamW, AdamWConfig, Exec, LayerHook, LmSample, ModelConfig, NoHook, Trainable,
    TransformerLm, Val,
};
use infuserki_tensor::{init, kernels, Gradients, NodeId, Param, Tape};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Full-model trainable via the public API (the crate-internal test wrapper
/// in `trainer.rs` is private to its module).
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

/// A frozen-base PEFT patch on the last layer: a low-rank query delta
/// `x A B` and a bias on the FFN output.
struct Patch {
    layer: usize,
    a: Param,
    b: Param,
    bias: Param,
}

impl LayerHook for Patch {
    fn attn_q_delta(&self, layer: usize, x: &Val, e: &mut Exec) -> Option<Val> {
        if layer != self.layer {
            return None;
        }
        let a = e.param(&self.a);
        let low = e.matmul(x, &a);
        let b = e.param(&self.b);
        Some(e.matmul(&low, &b))
    }

    fn ffn_output(&self, layer: usize, _ffn_in: &Val, ffn_out: Val, e: &mut Exec) -> Val {
        if layer != self.layer {
            return ffn_out;
        }
        e.add_row_param(ffn_out, &self.bias)
    }
}

/// The frozen base under [`Patch`]; only the patch is visited.
struct Peft {
    base: TransformerLm,
    patch: Patch,
}

impl Trainable for Peft {
    type Sample = LmSample;
    fn loss(&self, s: &LmSample, tape: &mut Tape) -> NodeId {
        self.base.lm_loss(&s.tokens, &s.targets, &self.patch, tape)
    }
    fn visit_trainable(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.patch.a);
        f(&mut self.patch.b);
        f(&mut self.patch.bias);
    }
}

fn full_model() -> FullModel {
    let mut rng = ChaCha8Rng::seed_from_u64(21);
    FullModel(TransformerLm::new(ModelConfig::tiny(20), &mut rng))
}

fn peft_model() -> Peft {
    let mut rng = ChaCha8Rng::seed_from_u64(21);
    let base = TransformerLm::new(ModelConfig::tiny(20), &mut rng);
    let d = base.config().d_model;
    let patch = Patch {
        layer: base.n_layers() - 1,
        a: Param::new("patch.A", init::normal(d, 4, 0.3, &mut rng)),
        b: Param::new("patch.B", init::normal(4, d, 0.3, &mut rng)),
        bias: Param::new("patch.b", init::normal(1, d, 0.1, &mut rng)),
    };
    Peft { base, patch }
}

fn samples() -> Vec<LmSample> {
    vec![
        LmSample::from_completion(&[5], &[7, 9]),
        LmSample::from_completion(&[3, 1], &[2]),
        LmSample::from_completion(&[8], &[4, 6, 11]),
        LmSample::from_completion(&[2, 9], &[13]),
        LmSample::from_completion(&[1], &[17, 5]),
    ]
}

/// Every bit of every parameter `visit` yields.
fn param_bits<T: Trainable>(model: &mut T) -> Vec<u32> {
    let mut bits = Vec::new();
    model.visit_trainable(&mut |p| bits.extend(p.data().data().iter().map(|v| v.to_bits())));
    bits
}

/// Trains `model` for three epochs at the given thread count (pinned for
/// both the kernel bands and the rayon shim), returning the per-epoch loss
/// bits and every final trainable parameter bit.
fn run<T: Trainable<Sample = LmSample>>(threads: usize, mut model: T) -> (Vec<u32>, Vec<u32>) {
    kernels::set_num_threads(threads);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("shim pool build is infallible");
    let result = pool.install(|| {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let samples = samples();
        let mut opt = AdamW::new(AdamWConfig {
            lr: 3e-3,
            ..AdamWConfig::default()
        });
        let mut losses = Vec::new();
        for _ in 0..3 {
            // Batch of 2 over 5 samples: multi-step epochs with a ragged
            // final batch, so the scale-by-batch-len path is exercised too.
            losses.push(train_epoch(&mut model, &samples, 2, &mut opt, &mut rng).to_bits());
        }
        (losses, param_bits(&mut model))
    });
    kernels::set_num_threads(0);
    result
}

fn assert_thread_invariant(what: &str, one: (Vec<u32>, Vec<u32>), four: (Vec<u32>, Vec<u32>)) {
    let ((losses_1, params_1), (losses_4, params_4)) = (one, four);
    assert_eq!(
        losses_1, losses_4,
        "{what}: per-epoch loss trajectory must not depend on the thread count"
    );
    assert_eq!(params_1.len(), params_4.len());
    assert_eq!(
        params_1, params_4,
        "{what}: every trained parameter must be bit-identical at 1 vs 4 threads"
    );
    // Sanity: training actually happened (losses decrease overall).
    let first = f32::from_bits(losses_1[0]);
    let last = f32::from_bits(*losses_1.last().unwrap());
    assert!(last < first, "{what}: loss should drop: {first} -> {last}");
}

#[test]
fn train_epoch_is_bitwise_identical_across_thread_counts() {
    assert_thread_invariant("full model", run(1, full_model()), run(4, full_model()));
}

#[test]
fn peft_train_epoch_is_bitwise_identical_across_thread_counts() {
    assert_thread_invariant(
        "frozen-base PEFT",
        run(1, peft_model()),
        run(4, peft_model()),
    );
}

/// `train_epoch`'s contract written out by hand on full tapes: shuffle,
/// batch, merge every gradient in sample order, then keep only the
/// trainable ones, average and step. Panics unless the first step's full
/// gradient norm is over the clip while the trainable norm differs from it,
/// i.e. unless clipping over the frozen gradients would change the step.
fn hand_epoch(
    model: &mut Peft,
    samples: &[LmSample],
    batch: usize,
    opt: &mut AdamW,
    rng: &mut ChaCha8Rng,
    clip: f32,
) -> f32 {
    let mut trainable = Vec::new();
    model.visit_trainable(&mut |p| trainable.push(p.id()));
    let mut order: Vec<usize> = (0..samples.len()).collect();
    order.shuffle(rng);
    let mut total_loss = 0.0f64;
    for chunk in order.chunks(batch) {
        let mut loss_sum = 0.0f64;
        let mut grads = Gradients::new();
        for &i in chunk {
            let mut tape = Tape::new();
            let loss = model.loss(&samples[i], &mut tape);
            loss_sum += tape.value(loss).scalar_value() as f64;
            tape.backward(loss);
            grads = grads.merge(tape.grads());
        }
        let mut kept = Gradients::new();
        for (id, g) in grads.iter() {
            if trainable.contains(id) {
                kept.add(*id, g.clone());
            }
        }
        assert!(kept.len() == trainable.len() && grads.len() > kept.len());
        if opt.steps() == 0 {
            let (all, own) = (grads.global_norm(), kept.global_norm());
            assert!(all > clip && own < all, "clip must bind: {all} vs {own}");
        }
        kept.scale(1.0 / chunk.len() as f32);
        opt.step(&kept, |f| model.visit_trainable(f));
        total_loss += (loss_sum as f32) as f64;
    }
    (total_loss / samples.len() as f64) as f32
}

#[test]
fn peft_train_epoch_clips_over_the_trainable_gradients_only() {
    const CLIP: f32 = 0.5;
    let cfg = AdamWConfig {
        lr: 3e-3,
        clip_norm: Some(CLIP),
        ..AdamWConfig::default()
    };
    let samples = samples();
    let mut sides = [peft_model(), peft_model()];
    let mut opts = [AdamW::new(cfg), AdamW::new(cfg)];
    let mut rngs = [ChaCha8Rng::seed_from_u64(9), ChaCha8Rng::seed_from_u64(9)];
    for epoch in 0..3 {
        let [a, b] = &mut sides;
        let [oa, ob] = &mut opts;
        let [ra, rb] = &mut rngs;
        let la = train_epoch(a, &samples, 2, oa, ra);
        let lb = hand_epoch(b, &samples, 2, ob, rb, CLIP);
        assert_eq!(la.to_bits(), lb.to_bits(), "epoch {epoch} loss");
        assert_eq!(param_bits(a), param_bits(b), "epoch {epoch} parameters");
    }
    // The base stays frozen on both sides.
    let frozen = |m: &Peft| {
        let mut bits = Vec::new();
        m.base
            .visit(&mut |p| bits.extend(p.data().data().iter().map(|v| v.to_bits())));
        bits
    };
    assert_eq!(frozen(&sides[0]), frozen(&peft_model()));
}
