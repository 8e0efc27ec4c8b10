//! Cross-crate differential suite: every *real* knowledge-integration method
//! (LoRA, prefix tuning, InfuserKI — with non-trivially nudged weights — and
//! GRACE with an edit that fires) runs bitwise-identically through the
//! KV-cached samplers and the tape path with serial kernels.
//!
//! The kernel thread override is process-global; this file serializes every
//! test behind one lock.

use std::sync::Mutex;

#[path = "../crates/nn/tests/support/reference.rs"]
mod reference;

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
    // Fresh prefix K/V rows are already nonzero.
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

/// GRACE with one edit, keyed on row 2 of the suite prompt.
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

fn prompt() -> Vec<usize> {
    vec![3, 10, 17, 24, 31, 2]
}

fn options() -> Vec<Vec<usize>> {
    vec![vec![1], vec![2, 3], vec![4, 5, 6], vec![7, 8]]
}

fn assert_samplers_agree(b: &TransformerLm, hook: &dyn LayerHook, name: &str) {
    let p = prompt();
    let opts = options();
    let cached = sampler::score_options(b, hook, &p, &opts);
    let naive = reference::score_options_uncached(b, hook, &p, &opts);
    for (i, (x, y)) in cached.iter().zip(&naive).enumerate() {
        assert!(
            x.to_bits() == y.to_bits(),
            "{name}: option {i} score {x} vs {y}"
        );
    }
    let g_cached = sampler::greedy_decode(b, hook, &p, 12, None);
    let g_naive = reference::greedy_decode_uncached(b, hook, &p, 12, None);
    assert_eq!(g_cached, g_naive, "{name}: greedy divergence");
    let bm_cached = sampler::beam_search(b, hook, &p, 8, 3, None);
    let bm_naive = reference::beam_search_uncached(b, hook, &p, 8, 3, None);
    assert_eq!(bm_cached, bm_naive, "{name}: beam divergence");
}

#[test]
fn lora_cached_sampling_is_bitwise_identical() {
    let _g = THREADS.lock().unwrap();
    kernels::set_num_threads(1);
    let b = base();
    let m = lora(&b);
    assert_samplers_agree(&b, &m, "lora");
    kernels::set_num_threads(0);
}

#[test]
fn prefix_cached_sampling_is_bitwise_identical() {
    let _g = THREADS.lock().unwrap();
    kernels::set_num_threads(1);
    let b = base();
    let m = prefix(&b);
    assert_samplers_agree(&b, &m, "prefix");
    kernels::set_num_threads(0);
}

#[test]
fn infuserki_cached_sampling_is_bitwise_identical() {
    let _g = THREADS.lock().unwrap();
    kernels::set_num_threads(1);
    let b = base();
    let m = infuserki(&b);
    let hook = m.hook();
    assert_samplers_agree(&b, &hook, "infuserki hook");
    // `hook()` is the method itself; the bare method must take the same path.
    assert_samplers_agree(&b, &m, "infuserki method");
    kernels::set_num_threads(0);
}

#[test]
fn infuserki_prefill_matches_tape_forward_every_length() {
    let _g = THREADS.lock().unwrap();
    kernels::set_num_threads(1);
    for (variant, b, m) in infuserki_variants() {
        println!("variant: {variant}");
        let hook = m.hook();
        let max_seq = b.config().max_seq;
        for n in 1..=max_seq {
            let toks: Vec<usize> = (0..n).map(|i| (i * 11 + 5) % VOCAB).collect();
            let mut tape = Tape::new();
            let full = b.forward(&toks, &hook, &mut tape);
            let (_, cached) = b.prefill(&toks, &hook);
            let fv = tape.value(full);
            assert_eq!(fv.shape(), cached.shape(), "len {n}");
            for (i, (x, y)) in fv.data().iter().zip(cached.data()).enumerate() {
                assert!(
                    x.to_bits() == y.to_bits(),
                    "len {n}, element {i}: {x} vs {y}"
                );
            }
        }
    }
    kernels::set_num_threads(0);
}

#[test]
fn infuserki_forked_option_scoring_shares_gate_statistics_correctly() {
    let _g = THREADS.lock().unwrap();
    kernels::set_num_threads(1);
    for (variant, b, m) in infuserki_variants() {
        println!("variant: {variant}");
        let hook = m.hook();
        // Score each option against the cached shared prefix AND standalone;
        // the cumulative gate sums forked from the prefix must not leak
        // between branches (each option sees prefix stats + its own rows
        // only).
        let p = prompt();
        let opts = options();
        let cached = sampler::score_options(&b, &hook, &p, &opts);
        for (i, opt) in opts.iter().enumerate() {
            let naive = reference::completion_logprob(&b, &p, opt, &hook);
            assert!(
                cached[i].to_bits() == naive.to_bits(),
                "option {i}: {} vs {naive}",
                cached[i]
            );
        }
    }
    kernels::set_num_threads(0);
}

#[test]
fn grace_cached_sampling_is_bitwise_identical() {
    let _g = THREADS.lock().unwrap();
    kernels::set_num_threads(1);
    let b = base();
    let g = grace(&b);
    assert_fires_and_defers(&b, &g, &prompt());
    assert_samplers_agree(&b, &g, "grace");
    kernels::set_num_threads(0);
}
