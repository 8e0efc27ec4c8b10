//! Cross-crate differential suite for the ragged-batch runtime: every *real*
//! knowledge-integration method (LoRA, prefix tuning, InfuserKI — with
//! non-trivially nudged weights) must produce, through the batched samplers
//! and batched model entry points, exactly what looping the single-sequence
//! path produces — bitwise with serial kernels, within 1e-5 with parallel
//! row-banded kernels. GRACE, with an edit that fires, runs the same batched
//! paths.
//!
//! The InfuserKI cases are the sharpest: its gate pools each sequence's
//! cumulative mean (running sums kept in that sequence's KV blocks) and its
//! adapter carry crosses layers, so any cross-batch leak shows up as a
//! bitwise divergence here.
//!
//! The kernel thread override is process-global; this file serializes every
//! test behind one lock.

use std::sync::Mutex;

use infuserki::baselines::grace::{Grace, GraceConfig};
use infuserki::baselines::lora::{LoraConfig, LoraMethod};
use infuserki::baselines::prefix::{PrefixConfig, PrefixTuning};
use infuserki::baselines::VisitTrainable;
use infuserki::core::{GateInput, InfuserKiConfig, InfuserKiMethod, Placement};
use infuserki::nn::{sampler, LayerHook, LmSample, ModelConfig, NoHook, TransformerLm};
use infuserki::tensor::{kernels, Tape};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const VOCAB: usize = 40;

static THREADS: Mutex<()> = Mutex::new(());

fn base() -> TransformerLm {
    let mut rng = ChaCha8Rng::seed_from_u64(21);
    TransformerLm::new(ModelConfig::tiny(VOCAB), &mut rng)
}

/// Deterministic nonzero nudge so zero-initialized up-projections don't make
/// the method a trivial identity.
fn nudge(p: &mut infuserki::tensor::Param) {
    for (i, w) in p.data_mut().data_mut().iter_mut().enumerate() {
        *w += 0.01 * ((i % 7) as f32 - 3.0);
    }
}

fn lora(b: &TransformerLm) -> LoraMethod {
    let mut m = LoraMethod::new(LoraConfig::default(), b);
    m.visit_trainable_params(&mut nudge);
    m
}

fn prefix(b: &TransformerLm) -> PrefixTuning {
    PrefixTuning::new(PrefixConfig::default(), b)
}

fn infuserki(b: &TransformerLm) -> InfuserKiMethod {
    infuserki_with(b, |_| {})
}

/// An adjustment to the default test configuration.
type ConfigEdit = fn(&mut InfuserKiConfig);

fn infuserki_with(b: &TransformerLm, edit: ConfigEdit) -> InfuserKiMethod {
    let mut c = InfuserKiConfig::for_model(b.n_layers());
    c.bottleneck = 4;
    c.infuser_hidden = 4;
    c.rc_dim = 8;
    edit(&mut c);
    let mut m = InfuserKiMethod::new(c, b, 5);
    m.visit_adapters_mut(&mut nudge);
    m
}

/// Every configuration the tape-free InfuserKI path branches on: the default
/// on the 2-layer base, then on a 4-layer base (so the Eq. 1 adapter carry
/// crosses layers) the default again, the attention site, the gate reading
/// the sublayer output, the no-infuser ablation and a placement that starts
/// above layer 1.
fn infuserki_variants() -> Vec<(&'static str, TransformerLm, InfuserKiMethod)> {
    let edits: [(&'static str, ConfigEdit); 5] = [
        ("4-layer default", |_| {}),
        ("attention site", |c| c.placement = Placement::attention(4)),
        ("gate on sublayer output", |c| {
            c.gate_input = GateInput::SublayerOut
        }),
        ("no infuser", |c| c.ablation.use_infuser = false),
        ("placement 2..4", |c| c.placement.first = 2),
    ];
    let tiny = base();
    let tiny_method = infuserki(&tiny);
    let mut out = vec![("2-layer default", tiny, tiny_method)];
    for (name, edit) in edits {
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let cfg = ModelConfig {
            n_layers: 4,
            ..ModelConfig::tiny(VOCAB)
        };
        let b = TransformerLm::new(cfg, &mut rng);
        let m = infuserki_with(&b, edit);
        out.push((name, b, m));
    }
    out
}

/// GRACE with one edit, keyed on row 2 of the first prompt.
fn grace(b: &TransformerLm) -> Grace {
    let mut g = Grace::new(GraceConfig::for_model(b.n_layers()), b);
    g.apply_edit(b, &LmSample::from_completion(&[3, 10, 17], &[24, 31]));
    g
}

/// A bitwise match proves nothing unless the hook changes some rows of
/// `tokens` and defers on others.
fn assert_fires_and_defers(b: &TransformerLm, hook: &dyn LayerHook, tokens: &[usize]) {
    let (mut t1, mut t2) = (Tape::new(), Tape::new());
    let plain = b.forward(tokens, &NoHook, &mut t1);
    let hooked = b.forward(tokens, hook, &mut t2);
    let (plain, hooked) = (t1.value(plain), t2.value(hooked));
    let fired = (0..tokens.len())
        .filter(|&r| plain.row(r) != hooked.row(r))
        .count();
    assert!(
        fired > 0 && fired < tokens.len(),
        "hook changed {fired} of {} rows",
        tokens.len()
    );
}

/// A ragged batch of prompts (lengths 6, 9, 1, 4) with distinct contents.
fn prompts() -> Vec<Vec<usize>> {
    vec![
        vec![3, 10, 17, 24, 31, 2],
        vec![5, 12, 19, 26, 33, 1, 8, 15, 22],
        vec![7],
        vec![9, 16, 23, 30],
    ]
}

/// Per-question option sets, ragged in count and token length.
fn options() -> Vec<Vec<Vec<usize>>> {
    vec![
        vec![vec![1], vec![2, 3], vec![4, 5, 6], vec![7, 8]],
        vec![vec![9, 10, 11], vec![12]],
        vec![vec![13, 14], vec![15, 16], vec![17]],
        vec![vec![18, 19, 20, 21], vec![22, 23]],
    ]
}

/// Batched sampler outputs must equal looping the single-sequence samplers.
fn assert_batched_matches_looped(b: &TransformerLm, hook: &dyn LayerHook, name: &str) {
    let ps = prompts();
    let opts = options();
    let per_q: Vec<&[Vec<usize>]> = opts.iter().map(Vec::as_slice).collect();

    let batched = sampler::score_options_batch(b, hook, &ps, &per_q);
    for (q, p) in ps.iter().enumerate() {
        let single = sampler::score_options(b, hook, p, &opts[q]);
        for (oi, (x, y)) in batched[q].iter().zip(&single).enumerate() {
            assert!(
                x.to_bits() == y.to_bits(),
                "{name}: q {q} option {oi} score {x} vs {y}"
            );
        }
    }

    let g_batched = sampler::greedy_decode_batch(b, hook, &ps, 12, Some(0));
    for (i, p) in ps.iter().enumerate() {
        let g_single = sampler::greedy_decode(b, hook, p, 12, Some(0));
        assert_eq!(g_batched[i], g_single, "{name}: greedy divergence, seq {i}");
    }
}

#[test]
fn lora_batched_sampling_is_bitwise_identical() {
    let _g = THREADS.lock().unwrap();
    kernels::set_num_threads(1);
    let b = base();
    let m = lora(&b);
    assert_batched_matches_looped(&b, &m, "lora");
    kernels::set_num_threads(0);
}

#[test]
fn prefix_batched_sampling_is_bitwise_identical() {
    let _g = THREADS.lock().unwrap();
    kernels::set_num_threads(1);
    let b = base();
    let m = prefix(&b);
    assert_batched_matches_looped(&b, &m, "prefix");
    kernels::set_num_threads(0);
}

#[test]
fn infuserki_batched_sampling_is_bitwise_identical() {
    let _g = THREADS.lock().unwrap();
    kernels::set_num_threads(1);
    let b = base();
    let m = infuserki(&b);
    let hook = m.hook();
    assert_batched_matches_looped(&b, &hook, "infuserki hook");
    // `hook()` is the method itself; the bare method must take the same path.
    assert_batched_matches_looped(&b, &m, "infuserki method");
    kernels::set_num_threads(0);
}

#[test]
fn infuserki_batched_prefill_isolates_per_sequence_state() {
    let _g = THREADS.lock().unwrap();
    kernels::set_num_threads(1);
    for (variant, b, m) in infuserki_variants() {
        println!("variant: {variant}");
        let hook = m.hook();
        let ps = prompts();
        // Packed batched forward vs each sequence alone: the gate statistics
        // and adapter carry must pool within one sequence only.
        let (packed, batch) = b.forward_batch(&ps, &hook);
        for (i, p) in ps.iter().enumerate() {
            let (_, single) = b.prefill(p, &hook);
            let rng = batch.range(i);
            let got = packed.slice_rows(rng.start, rng.end);
            assert_eq!(single.shape(), got.shape(), "seq {i}");
            for (e, (x, y)) in single.data().iter().zip(got.data()).enumerate() {
                assert!(
                    x.to_bits() == y.to_bits(),
                    "seq {i}, element {e}: {x} vs {y}"
                );
            }
        }
    }
    kernels::set_num_threads(0);
}

#[test]
fn infuserki_batched_sampling_close_with_parallel_kernels() {
    let _g = THREADS.lock().unwrap();
    kernels::set_num_threads(4);
    let b = base();
    let m = infuserki(&b);
    let hook = m.hook();
    let ps = prompts();
    let opts = options();
    let per_q: Vec<&[Vec<usize>]> = opts.iter().map(Vec::as_slice).collect();
    let batched = sampler::score_options_batch(&b, &hook, &ps, &per_q);
    for (q, p) in ps.iter().enumerate() {
        let single = sampler::score_options(&b, &hook, p, &opts[q]);
        for (oi, (x, y)) in batched[q].iter().zip(&single).enumerate() {
            assert!(
                (x - y).abs() <= 1e-5,
                "q {q} option {oi}: {x} vs {y} (threads 4)"
            );
        }
    }
    kernels::set_num_threads(0);
}

#[test]
fn grace_batched_sampling_is_bitwise_identical() {
    let _g = THREADS.lock().unwrap();
    kernels::set_num_threads(1);
    let b = base();
    let g = grace(&b);
    assert_fires_and_defers(&b, &g, &prompts()[0]);
    assert_batched_matches_looped(&b, &g, "grace");
    kernels::set_num_threads(0);
}
