//! The online update pipeline against the REAL serving control plane: an
//! [`infuserki::router::RouterClient`] over one replica is the pipeline's
//! publisher, so bundles go through load→stage→promote on the scheduler
//! thread with the NR regression gate live.
//!
//! Proves the acceptance pair:
//! * a round of genuinely new facts trains, packages and promotes a bundle
//!   the serving side activates;
//! * a regressing candidate (the method reset underneath the pipeline) is
//!   REFUSED by the promote-time gate, the batch is dropped, the prior
//!   version keeps serving, and requests still complete.

use infuserki::core::{GateReport, InfuserKiConfig, TrainConfig};
use infuserki::ingest::{
    AppendOutcome, DurableStore, PipelineConfig, RoundOutcome, StoreOptions, TripleDelta,
    UpdatePipeline,
};
use infuserki::kg::{synth_umls, TripleStore, UmlsConfig};
use infuserki::nn::{ModelConfig, NoHook, TransformerLm};
use infuserki::router::{spawn_router, RouterConfig};
use infuserki::serve::{ControlPlane, GenerateSpec, Outcome, RequestKind};
use infuserki::tensor::kernels;
use infuserki::text::{prompts, templates::TemplateSet, Tokenizer};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("infuserki_ingpipe_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn tiny_world() -> (TransformerLm, Tokenizer, TripleStore) {
    let store = synth_umls(&UmlsConfig::with_triplets(40, 19));
    let mut lines: Vec<String> = store.entity_names().map(str::to_string).collect();
    for r in store.relation_names() {
        lines.extend(TemplateSet::vocabulary_lines(r));
    }
    lines.extend(prompts::vocabulary_lines());
    let tok = Tokenizer::build(lines.iter().map(String::as_str));
    let mut rng = ChaCha8Rng::seed_from_u64(91);
    let base = TransformerLm::new(
        ModelConfig {
            vocab_size: tok.vocab_size(),
            max_seq: 96,
            ..ModelConfig::tiny(0)
        },
        &mut rng,
    );
    (base, tok, store)
}

fn pipeline_cfg(dir: &std::path::Path) -> PipelineConfig {
    let mut method = InfuserKiConfig::for_model(2);
    method.bottleneck = 4;
    method.infuser_hidden = 4;
    method.rc_dim = 8;
    PipelineConfig {
        min_batch: 2,
        max_age_ms: 120_000,
        max_relations: 24,
        method: Some(method),
        bundle_dir: dir.join("bundles").display().to_string(),
        name_prefix: "live".to_string(),
        train: TrainConfig {
            epochs_infuser: 6,
            epochs_qa: 24,
            epochs_rc: 2,
            lr: 3e-3,
            lr_infuser: 2e-2,
            batch: 4,
            seed: 11,
        },
        ..PipelineConfig::default()
    }
}

/// Appends `n` novel (not-yet-live) facts re-using known names, so they are
/// in-vocabulary and trainable. Facts appended by an earlier call are live
/// and rejected as duplicates, so repeated calls find fresh ones. Returns
/// how many were accepted.
fn append_novel(ds: &mut DurableStore, world: &TripleStore, n: usize) -> usize {
    let names: Vec<&str> = world.entity_names().collect();
    let rel = world.relation_name(world.triples()[0].relation);
    let mut appended = 0;
    'outer: for (i, &s) in names.iter().enumerate() {
        for &o in names.iter().skip(i + 1) {
            if appended == n {
                break 'outer;
            }
            if let AppendOutcome::Accepted(_) = ds.append(&TripleDelta::add(s, rel, o)).unwrap() {
                appended += 1;
            }
        }
    }
    ds.sync().unwrap();
    appended
}

#[test]
fn pipeline_publishes_through_real_gate_then_refuses_regression() {
    kernels::set_num_threads(1);
    let dir = tmp("gate");
    let (base, tok, world) = tiny_world();

    // Baseline world into the WAL before the pipeline exists.
    let mut ds = DurableStore::open(&dir, StoreOptions::default()).unwrap();
    for t in world.triples() {
        let d = TripleDelta::add(
            world.entity_name(t.head),
            world.relation_name(t.relation),
            world.entity_name(t.tail),
        );
        ds.append(&d).unwrap();
    }
    ds.sync().unwrap();

    let (client, handle) =
        spawn_router(RouterConfig::default(), |_| (base.clone(), NoHook)).unwrap();
    let mut pipe = UpdatePipeline::new(
        base,
        tok,
        &dir,
        pipeline_cfg(&dir),
        client.clone(),
        client.metrics().registry(),
    )
    .unwrap();
    assert_eq!(pipe.run_once().unwrap(), RoundOutcome::Idle, "baseline");

    // Round 1: two new facts → trained bundle promoted as version 1.
    assert_eq!(append_novel(&mut ds, &world, 2), 2);
    let outcome = pipe.run_once().unwrap();
    let RoundOutcome::Published { version, .. } = outcome else {
        panic!("round 1 should publish, got {outcome:?}");
    };
    assert_eq!(version, 1);
    let list = client.list_bundles().unwrap();
    assert!(list[1].active, "published version serves unpinned traffic");
    assert!(
        !pipe.carried_probes().is_empty(),
        "round 1 probes are carried forward"
    );

    // Sabotage: replace the trained method with a fresh untrained one and
    // gate the next bundle ONLY on the carried (round-1) probes. The
    // candidate now regresses on knowledge version 1 mastered — exactly
    // what the NR gate exists to catch.
    pipe.reset_method();
    let carried = pipe.carried_probes().len();
    pipe.config_mut().max_gate_probes = carried;

    assert_eq!(append_novel(&mut ds, &world, 2), 2);
    let outcome = pipe.run_once().unwrap();
    let RoundOutcome::Refused(GateReport {
        probes,
        staged_correct,
        active_correct,
    }) = outcome
    else {
        panic!("regressing candidate should be refused, got {outcome:?}");
    };
    assert_eq!(probes, carried);
    assert!(
        staged_correct < active_correct,
        "gate fired on a genuine regression: {staged_correct} vs {active_correct}"
    );

    // The prior version keeps serving: still active, and live requests
    // complete normally after the refusal.
    let list = client.list_bundles().unwrap();
    assert!(list[1].active, "version 1 still active after refusal");
    assert_eq!(
        list.iter().filter(|b| b.active).count(),
        1,
        "exactly one active version"
    );
    let kind = RequestKind::Generate(GenerateSpec::greedy(vec![1, 2, 3], 4, None));
    let rx = client.submit(kind, Default::default(), None).unwrap();
    assert!(matches!(rx.wait().unwrap(), Outcome::Generated { .. }));

    // The pipeline itself moved on: batch dropped, ready for more work.
    assert_eq!(pipe.pending(), 0);
    handle.shutdown();
    kernels::set_num_threads(0);
    let _ = std::fs::remove_dir_all(&dir);
}
