//! The trainable-set tape is bitwise neutral: for one sample of every PEFT
//! loss (InfuserKI's three phases, LoRA, QLoRA, prefix tuning, CALINET,
//! T-Patcher and GRACE), each trainable parameter's gradient on a
//! `Tape::with_trainable` tape is bitwise the one `Tape::new()` computes,
//! and the masked tape holds no other gradient. With every base parameter
//! in the set, a full-model loss gets exactly `Tape::new()`'s gradients.

use infuserki::baselines::calinet::{Calinet, CalinetConfig};
use infuserki::baselines::grace::{Grace, GraceConfig};
use infuserki::baselines::lora::{LoraConfig, LoraMethod};
use infuserki::baselines::prefix::{PrefixConfig, PrefixTuning};
use infuserki::baselines::qlora::{quantize_model, QuantConfig};
use infuserki::baselines::tpatcher::{TPatcher, TPatcherConfig};
use infuserki::baselines::VisitTrainable;
use infuserki::core::{InfuserKiConfig, InfuserKiMethod, KiDataset, McqBank};
use infuserki::kg::umls::{synth_umls, UmlsConfig};
use infuserki::nn::layers::Module;
use infuserki::nn::{LayerHook, LmSample, ModelConfig, NoHook, TransformerLm};
use infuserki::tensor::{Gradients, Matrix, NodeId, Param, ParamId, Tape, TrainableSet};
use infuserki::text::templates::TemplateSet;
use infuserki::text::{prompts, Tokenizer};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn bits(m: &Matrix) -> Vec<u32> {
    m.data().iter().map(|v| v.to_bits()).collect()
}

/// `loss` on a full tape and on a tape masked to `trainable`.
fn both_sides(
    trainable: &[ParamId],
    loss: impl Fn(&mut Tape) -> NodeId,
) -> (Gradients, Gradients, TrainableSet) {
    let mut full = Tape::new();
    let l = loss(&mut full);
    full.backward(l);
    let set: TrainableSet = trainable.iter().copied().collect();
    let mut masked = Tape::with_trainable(set.clone());
    let lm = loss(&mut masked);
    assert_eq!(
        full.value(l).data(),
        masked.value(lm).data(),
        "same forward"
    );
    masked.backward(lm);
    (full.grads(), masked.grads(), set)
}

/// The masked gradients are bitwise the full ones for every trainable
/// parameter, and the masked tape holds no other.
fn assert_neutral(what: &str, trainable: &[ParamId], loss: impl Fn(&mut Tape) -> NodeId) {
    let (full, masked, set) = both_sides(trainable, loss);
    assert!(!masked.is_empty(), "{what}: no trainable gradient at all");
    assert!(
        full.len() > masked.len(),
        "{what}: the masked tape must leave the frozen base without gradients"
    );
    for (id, g) in masked.iter() {
        assert!(set.contains(*id), "{what}: gradient outside the set");
        let f = full.get(*id).expect("the full tape has it too");
        assert_eq!(bits(g), bits(f), "{what}: masked gradient differs");
    }
    for id in trainable {
        assert_eq!(
            full.get(*id).is_some(),
            masked.get(*id).is_some(),
            "{what}: a trainable parameter lost its gradient"
        );
    }
}

fn ids_of(visit: impl FnOnce(&mut dyn FnMut(&mut Param))) -> Vec<ParamId> {
    let mut ids = Vec::new();
    visit(&mut |p| ids.push(p.id()));
    ids
}

/// Moves every visited parameter off its init, so zero-initialised halves
/// (LoRA's B, adapter up-projections) pass gradients on.
fn nudge(visit: impl FnOnce(&mut dyn FnMut(&mut Param)), rng: &mut ChaCha8Rng) {
    visit(&mut |p| {
        for w in p.data_mut().data_mut() {
            *w += rng.gen_range(-0.1f32..0.1);
        }
    });
}

struct Fixture {
    base: TransformerLm,
    method: InfuserKiMethod,
    data: KiDataset,
}

/// A random-init tiny base over a small synthetic UMLS and an InfuserKI
/// method with every module nudged off its init.
fn fixture() -> Fixture {
    let store = synth_umls(&UmlsConfig::with_triplets(24, 13));
    let triples = store.triples().to_vec();
    let bank = McqBank::build(&store, &triples, 2);
    let mut lines: Vec<String> = store.entity_names().map(str::to_string).collect();
    for r in store.relation_names() {
        lines.extend(TemplateSet::vocabulary_lines(r));
    }
    lines.extend(prompts::vocabulary_lines());
    let tok = Tokenizer::build(lines.iter().map(String::as_str));
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    let base = TransformerLm::new(
        ModelConfig {
            vocab_size: tok.vocab_size(),
            max_seq: 96,
            n_layers: 3,
            ..ModelConfig::tiny(0)
        },
        &mut rng,
    );
    let known: Vec<usize> = (0..8).collect();
    let unknown: Vec<usize> = (8..24).collect();
    let data = KiDataset::build(&store, &bank, &tok, &known, &unknown, 1);
    let mut cfg = InfuserKiConfig::for_model(base.n_layers());
    cfg.bottleneck = 4;
    cfg.infuser_hidden = 4;
    cfg.rc_dim = 8;
    let mut method = InfuserKiMethod::new(cfg, &base, store.n_relations());
    nudge(|f| method.visit_adapters_mut(f), &mut rng);
    nudge(|f| method.visit_infusers_mut(f), &mut rng);
    nudge(|f| method.visit_rc_mut(f), &mut rng);
    Fixture { base, method, data }
}

#[test]
fn infuserki_phase_losses_are_mask_neutral() {
    let Fixture {
        base,
        mut method,
        data,
    } = fixture();
    let infusers = ids_of(|f| method.visit_infusers_mut(f));
    let adapters = ids_of(|f| method.visit_adapters_mut(f));
    let mut adapters_rc = adapters.clone();
    adapters_rc.extend(ids_of(|f| method.visit_rc_mut(f)));

    assert_neutral("InfuserKI phase 1", &infusers, |t| {
        method.infuser_loss(&base, &data.infuser[0], t)
    });
    let qa = &data.qa[0];
    assert_neutral("InfuserKI phase 2", &adapters, |t| {
        base.lm_loss(&qa.tokens, &qa.targets, method.hook(), t)
    });
    assert_neutral("InfuserKI phase 3", &adapters_rc, |t| {
        method.rc_loss(&base, &data.rc[0], t)
    });
}

/// `method`'s QA loss on `sample` is mask-neutral over its visited set.
fn assert_patch_neutral<M: LayerHook + VisitTrainable>(
    what: &str,
    base: &TransformerLm,
    method: &mut M,
    sample: &LmSample,
) {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    nudge(|f| method.visit_trainable_params(f), &mut rng);
    let trainable = ids_of(|f| method.visit_trainable_params(f));
    assert_neutral(what, &trainable, |t| {
        base.lm_loss(&sample.tokens, &sample.targets, &*method, t)
    });
}

#[test]
fn baseline_losses_are_mask_neutral() {
    let Fixture { base, data, .. } = fixture();
    let qa = &data.qa[0];
    let n = base.n_layers();

    let mut lora = LoraMethod::new(LoraConfig::default(), &base);
    assert_patch_neutral("LoRA", &base, &mut lora, qa);

    let mut quantized = base.clone();
    quantize_model(&mut quantized, QuantConfig::default());
    let mut qlora = LoraMethod::new(LoraConfig::default(), &quantized);
    assert_patch_neutral("QLoRA", &quantized, &mut qlora, qa);

    let mut prefix = PrefixTuning::new(PrefixConfig::default(), &base);
    assert_patch_neutral("prefix tuning", &base, &mut prefix, qa);

    let mut calinet = Calinet::new(CalinetConfig::for_model(n), &base);
    assert_patch_neutral("CALINET", &base, &mut calinet, qa);

    let mut tpatcher = TPatcher::new(TPatcherConfig::default(), &base);
    assert_patch_neutral("T-Patcher", &base, &mut tpatcher, qa);

    // GRACE: one edit creates the entry the loss then fires.
    let mut grace = Grace::new(GraceConfig::for_model(n), &base);
    grace.apply_edit(&base, qa);
    assert_eq!(grace.len(), 1);
    assert_patch_neutral("GRACE", &base, &mut grace, qa);
}

#[test]
fn the_full_set_gives_exactly_the_full_tape_gradients() {
    let Fixture { base, data, .. } = fixture();
    let qa = &data.qa[0];
    let every: Vec<ParamId> = {
        let mut ids = Vec::new();
        base.visit(&mut |p| ids.push(p.id()));
        ids
    };
    let (full, masked, _) = both_sides(&every, |t| {
        base.lm_loss(&qa.tokens, &qa.targets, &NoHook, t)
    });
    assert_eq!(full.len(), masked.len());
    for (id, g) in full.iter() {
        let m = masked.get(*id).expect("same parameters");
        assert_eq!(bits(g), bits(m));
    }
    assert_eq!(base.trainable_set().len(), every.len());
}
