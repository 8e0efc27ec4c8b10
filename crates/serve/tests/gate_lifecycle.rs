//! The promote gate's verdict through its lifecycle on a spawned scheduler:
//! scored when a bundle is staged, on a worker thread, against the version
//! active then; swapped on by a promote while that version is still active;
//! waited for by a promote that arrives before it; and scored again, on the
//! promote's caller, once another version has become active. None of it
//! runs on the scheduler thread.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use infuserki_core::{GateProbe, GateReport, InfuserKiConfig, InfuserKiMethod, KnowledgeBundle};
use infuserki_nn::{sampler, Exec, LayerHook, NoHook, TransformerLm, Val};
use infuserki_serve::{
    demo_model, spawn_scheduler, ControlError, ControlPlane, GenerateSpec, Outcome, RequestKind,
    ServeConfig, SubmitOpts,
};
use infuserki_tensor::{kernels, Param};

/// Probe picks are compared bitwise with the server's, so every test runs
/// at one kernel thread, one test at a time.
static THREADS: Mutex<()> = Mutex::new(());

/// An InfuserKI method on `base` whose adapters are pushed far enough from
/// zero, by `scale`, to change the base's answers.
fn nudged(base: &TransformerLm, scale: f32) -> InfuserKiMethod {
    let mut c = InfuserKiConfig::for_model(base.n_layers());
    c.bottleneck = 4;
    c.infuser_hidden = 4;
    c.rc_dim = 8;
    let mut m = InfuserKiMethod::new(c, base, 5);
    m.visit_adapters_mut(&mut |p: &mut Param| {
        for (i, w) in p.data_mut().data_mut().iter_mut().enumerate() {
            *w += scale * ((i % 7) as f32 - 3.0);
        }
    });
    m
}

/// Up to `n` probes from a fixed candidate stream: `correct` sees each
/// hook's pick, in `hooks` order, and names the correct option or skips
/// the candidate.
fn probes(
    base: &TransformerLm,
    hooks: &[&dyn LayerHook],
    n: usize,
    correct: impl Fn(&[usize]) -> Option<usize>,
) -> Vec<GateProbe> {
    let found: Vec<GateProbe> = (1..4000usize)
        .filter_map(|seed| {
            let prompt = vec![seed % 64, (seed * 3 + 1) % 64, (seed * 7 + 2) % 64];
            let options = vec![
                vec![(seed * 5) % 64, (seed + 11) % 64],
                vec![(seed * 2 + 3) % 64],
                vec![(seed + 9) % 64, (seed * 4 + 1) % 64],
            ];
            let lens: Vec<usize> = options.iter().map(Vec::len).collect();
            let picks: Vec<usize> = hooks
                .iter()
                .map(|h| {
                    let scores = sampler::score_options(base, *h, &prompt, &options);
                    sampler::argmax(&sampler::option_probabilities(&scores, &lens))
                })
                .collect();
            correct(&picks).map(|correct| GateProbe {
                prompt,
                options,
                correct,
            })
        })
        .take(n)
        .collect();
    assert_eq!(found.len(), n, "the candidate stream holds {n} such probes");
    found
}

/// Saves `method` as a bundle carrying `probes`; returns its path.
fn save(
    tag: &str,
    method: InfuserKiMethod,
    base: &TransformerLm,
    probes: Vec<GateProbe>,
) -> String {
    let path = std::env::temp_dir().join(format!(
        "infuserki_gate_lifecycle_{tag}_{}.bundle.json",
        std::process::id()
    ));
    KnowledgeBundle::new(tag, method, base, None, probes)
        .unwrap()
        .save(&path)
        .unwrap();
    path.to_str().unwrap().to_string()
}

/// Version 0: records the name of the thread of every forward run under
/// it, and changes nothing.
struct NameHook(Arc<Mutex<Vec<String>>>);

impl LayerHook for NameHook {
    fn attn_q_delta(&self, _layer: usize, _x: &Val, _e: &mut Exec) -> Option<Val> {
        let name = std::thread::current()
            .name()
            .unwrap_or("<unnamed>")
            .to_string();
        self.0.lock().unwrap().push(name);
        None
    }
}

/// Version 0: counts its layer calls and sleeps in each, so a gate scored
/// under it is still running when the next control op arrives. Changes
/// nothing.
struct SlowHook(Arc<AtomicUsize>);

impl LayerHook for SlowHook {
    fn attn_q_delta(&self, _layer: usize, _x: &Val, _e: &mut Exec) -> Option<Val> {
        self.0.fetch_add(1, Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(20));
        None
    }
}

/// Every gate score under version 0 runs on a worker thread
/// (`infuserki-gate`) or on the promote's caller, never on
/// `infuserki-serve`; a request served under version 0 shows the recorder
/// does see that thread.
#[test]
fn gate_scoring_never_runs_on_the_scheduler_thread() {
    let _g = THREADS.lock().unwrap();
    kernels::set_num_threads(1);
    let base = demo_model();
    let a = nudged(&base, 0.5);
    // Probes `a` answers and the base does not: every promote passes.
    let passing = probes(&base, &[&a, &NoHook], 3, |p| (p[0] != p[1]).then_some(p[0]));
    let path = save("named", a, &base, passing);
    let names = Arc::new(Mutex::new(Vec::new()));
    let (client, handle) =
        spawn_scheduler(base, NameHook(Arc::clone(&names)), ServeConfig::default()).unwrap();

    // Staged against version 0 and scored on a worker; the promote waits
    // for that score and swaps on it.
    assert_eq!(client.load_bundle(&path).unwrap().version, 1);
    let gate = client
        .promote(1)
        .unwrap()
        .expect("the bundle carries probes");
    assert_eq!((gate.staged_correct, gate.active_correct), (3, 0));
    // Staged against version 1, then version 0 is active again: the promote
    // scores it again, against version 0, on this thread.
    assert_eq!(client.load_bundle(&path).unwrap().version, 2);
    assert_eq!(client.rollback().unwrap(), 0);
    let gate = client
        .promote(2)
        .unwrap()
        .expect("the bundle carries probes");
    assert_eq!((gate.staged_correct, gate.active_correct), (3, 0));

    let here = std::thread::current().name().unwrap().to_string();
    let seen = std::mem::take(&mut *names.lock().unwrap());
    assert!(seen.iter().any(|n| n == "infuserki-gate"), "{seen:?}");
    assert!(seen.contains(&here), "{seen:?}");
    assert!(seen.iter().all(|n| n != "infuserki-serve"), "{seen:?}");

    let pinned = SubmitOpts {
        bundle: Some(0),
        ..SubmitOpts::default()
    };
    let h = client
        .submit(
            RequestKind::Generate(GenerateSpec::greedy(vec![1, 2, 3], 2, None)),
            pinned,
        )
        .unwrap();
    assert!(matches!(h.wait(), Ok(Outcome::Generated { .. })));
    assert!(names.lock().unwrap().iter().any(|n| n == "infuserki-serve"));
    handle.shutdown();
    kernels::set_num_threads(0);
    let _ = std::fs::remove_file(&path);
}

/// v2 is staged while v1 is active, and its gate passes against v1. After
/// v3 is promoted, promoting v2 scores it again against v3, which refuses
/// it; after a rollback to v1 it is scored against v1 again and passes.
#[test]
fn a_stale_verdict_is_scored_again_against_the_new_active_version() {
    let _g = THREADS.lock().unwrap();
    kernels::set_num_threads(1);
    let base = demo_model();
    let (a, b, c) = (nudged(&base, 0.5), nudged(&base, -0.5), nudged(&base, 0.3));
    // Probes only `c` answers: `b` ties `a` at zero and loses to `c`.
    let only_c = probes(&base, &[&a, &b, &c], 3, |p| {
        (p[0] != p[2] && p[1] != p[2]).then_some(p[2])
    });
    let paths = [
        save("stale-a", a, &base, Vec::new()),
        save("stale-b", b, &base, only_c),
        save("stale-c", c, &base, Vec::new()),
    ];
    let (client, handle) = spawn_scheduler(base, NoHook, ServeConfig::default()).unwrap();
    assert_eq!(client.load_bundle(&paths[0]).unwrap().version, 1);
    assert_eq!(client.promote(1).unwrap(), None);
    assert_eq!(client.load_bundle(&paths[1]).unwrap().version, 2);
    assert_eq!(client.load_bundle(&paths[2]).unwrap().version, 3);
    assert_eq!(client.promote(3).unwrap(), None);

    let refused = GateReport {
        probes: 3,
        staged_correct: 0,
        active_correct: 3,
    };
    assert_eq!(
        client.promote(2).unwrap_err(),
        ControlError::NrGateFailed {
            version: 2,
            gate: refused
        }
    );
    assert_eq!(client.metrics().bundle_rejected_promotions, 1);
    assert!(client.list_bundles().unwrap()[3].active);

    assert_eq!(client.rollback().unwrap(), 1);
    let passed = client
        .promote(2)
        .unwrap()
        .expect("the bundle carries probes");
    assert_eq!((passed.staged_correct, passed.active_correct), (0, 0));
    assert!(client.list_bundles().unwrap()[2].active);
    handle.shutdown();
    kernels::set_num_threads(0);
    for p in paths {
        let _ = std::fs::remove_file(p);
    }
}

/// A promote sent the moment its load returns, while the load's gate score
/// is still running, waits for that score and is refused by it. A second
/// promote is refused by the stored verdict without another forward.
#[test]
fn a_promote_sent_straight_after_the_load_waits_for_its_score() {
    let _g = THREADS.lock().unwrap();
    kernels::set_num_threads(1);
    let base = demo_model();
    let a = nudged(&base, 0.5);
    // Probes the base answers and `a` does not: the gate refuses `a`.
    let regressing = probes(&base, &[&NoHook, &a], 3, |p| (p[0] != p[1]).then_some(p[0]));
    let want = GateReport::score(&base, &a, &NoHook, &regressing);
    assert!(want.refuses(), "{want:?}");
    let path = save("in-flight", a, &base, regressing);
    let calls = Arc::new(AtomicUsize::new(0));
    let (client, handle) =
        spawn_scheduler(base, SlowHook(Arc::clone(&calls)), ServeConfig::default()).unwrap();

    assert_eq!(client.load_bundle(&path).unwrap().version, 1);
    let refusal = ControlError::NrGateFailed {
        version: 1,
        gate: want,
    };
    assert_eq!(client.promote(1).unwrap_err(), refusal);
    let scored = calls.load(Ordering::SeqCst);
    assert!(scored > 0, "the gate ran its probes under version 0");
    assert_eq!(client.promote(1).unwrap_err(), refusal);
    assert_eq!(
        calls.load(Ordering::SeqCst),
        scored,
        "the verdict was stored"
    );
    assert_eq!(client.metrics().bundle_rejected_promotions, 2);
    assert_eq!(client.metrics().bundle_swaps, 0);
    handle.shutdown();
    kernels::set_num_threads(0);
    let _ = std::fs::remove_file(&path);
}
