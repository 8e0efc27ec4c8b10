//! Hot-swap differential suite for versioned knowledge bundles.
//!
//! The scheduler serves while bundles are loaded, promoted and rolled back
//! mid-stream. The invariants proved here, at one kernel thread:
//!
//! * **Version pinning** — a request runs on the version it resolved at
//!   admission (explicit pin, or active-at-admission), bitwise equal to the
//!   single-request sampler path under *that* hook, no matter what control
//!   ops land while it is in flight.
//! * **Per-version isolation** — two versions serving concurrently (A/B)
//!   never adopt each other's prefix-cache blocks (K/V rows and gate sums),
//!   even for identical prompts: `PrefixIndex` entries are keyed by
//!   `(bundle_version, tokens)`.
//! * **Bitwise rollback** — after promote + rollback, unpinned requests
//!   reproduce the pre-promote responses bit for bit.
//! * **NR regression gate** — a promote whose candidate answers fewer
//!   held-out probes than the active version is refused with a typed error,
//!   leaves the active version unchanged, and bumps
//!   `serve.bundle.rejected_promotions`.
//! * **Zero drops** — every request submitted across a swap reaches a
//!   terminal outcome.
//!
//! Each test pins its own kernel thread count: the bitwise suites run
//! serial, and one suite re-runs the A/B phase under 4-way banded kernels
//! with the MCQ-score tolerance convention of `serve_differential.rs` (the
//! pinning/isolation/gate logic is threading-independent). The thread
//! override is process-global; every test serializes behind one lock.

use std::sync::mpsc::{self, Receiver};
use std::sync::Mutex;

use infuserki::core::{
    base_model_digest, EvalStamp, GateProbe, InfuserKiConfig, InfuserKiMethod, KnowledgeBundle,
};
use infuserki::nn::{sampler, LayerHook, ModelConfig, NoHook, TransformerLm};
use infuserki::serve::{
    ControlError, ControlOp, ControlOutcome, ControlPlane, GenerateSpec, McqSpec, Outcome, Request,
    RequestKind, Response, Scheduler, ServeConfig,
};
use infuserki::tensor::kernels;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const VOCAB: usize = 40;

static THREADS: Mutex<()> = Mutex::new(());

fn base() -> TransformerLm {
    let mut rng = ChaCha8Rng::seed_from_u64(21);
    TransformerLm::new(ModelConfig::tiny(VOCAB), &mut rng)
}

/// Deterministic nonzero nudge (scaled by `k`) so zero-initialized
/// up-projections don't make the hook a trivial identity, and so different
/// `k` yield observably different knowledge versions.
fn nudged_method(b: &TransformerLm, k: f32) -> InfuserKiMethod {
    let mut c = InfuserKiConfig::for_model(b.n_layers());
    c.bottleneck = 4;
    c.infuser_hidden = 4;
    c.rc_dim = 8;
    let mut m = InfuserKiMethod::new(c, b, 5);
    m.visit_adapters_mut(&mut |p: &mut infuserki::tensor::Param| {
        for (i, w) in p.data_mut().data_mut().iter_mut().enumerate() {
            *w += k * ((i % 7) as f32 - 3.0);
        }
    });
    m
}

/// Writes `method` to a temp bundle file and returns the path.
fn save_bundle(
    name: &str,
    method: InfuserKiMethod,
    b: &TransformerLm,
    stamp: Option<EvalStamp>,
    probes: Vec<GateProbe>,
) -> String {
    let path = std::env::temp_dir().join(format!(
        "infuserki_hotswap_{}_{}.bundle.json",
        name,
        std::process::id()
    ));
    let bundle = KnowledgeBundle::new(name, method, b, stamp, probes).unwrap();
    bundle.save(&path).unwrap();
    path.to_string_lossy().into_owned()
}

fn cfg() -> ServeConfig {
    ServeConfig {
        prefill_chunk: 3,
        max_batch: 6,
        kv_budget_rows: 512,
        block_rows: 4,
        queue_capacity: 64,
        threads: None,
    }
}

fn submit(
    sched: &mut Scheduler<'_>,
    id: u64,
    kind: RequestKind,
    bundle: Option<u32>,
) -> Receiver<Response> {
    let (tx, rx) = mpsc::channel();
    let mut req = Request::new(id, kind, tx);
    if let Some(v) = bundle {
        req = req.with_bundle(v);
    }
    sched.enqueue(req);
    rx
}

fn wait_tokens(rx: &Receiver<Response>) -> Vec<usize> {
    match rx.try_recv().expect("request reached a terminal outcome") {
        Response {
            outcome: Outcome::Generated { tokens },
            ..
        } => tokens,
        Response { outcome, .. } => panic!("unexpected outcome {outcome:?}"),
    }
}

fn wait_scores(rx: &Receiver<Response>) -> Vec<f32> {
    match rx.try_recv().expect("request reached a terminal outcome") {
        Response {
            outcome: Outcome::McqScored { scores, .. },
            ..
        } => scores,
        Response { outcome, .. } => panic!("unexpected outcome {outcome:?}"),
    }
}

/// Whether bitwise equality is required at the current thread setting
/// (serial kernels ⇒ bitwise; banded parallel kernels ⇒ tolerance).
fn serial() -> bool {
    kernels::num_threads() == 1
}

fn assert_tokens(got: &[usize], want: &[usize], ctx: &str) {
    assert_eq!(got, want, "{ctx}: token divergence");
}

fn assert_scores(got: &[f32], want: &[f32], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: score arity");
    for (i, (x, y)) in got.iter().zip(want).enumerate() {
        if serial() {
            assert!(
                x.to_bits() == y.to_bits(),
                "{ctx}: option {i}: {x} vs {y} (bitwise)"
            );
        } else {
            assert!((x - y).abs() <= 1e-5, "{ctx}: option {i}: {x} vs {y}");
        }
    }
}

/// Held-out probes on which `right` answers with `right`'s own argmax and
/// `wrong` disagrees — so `right` scores 100% and `wrong` scores 0%.
fn disagreement_probes(
    b: &TransformerLm,
    right: &dyn LayerHook,
    wrong: &dyn LayerHook,
    n: usize,
) -> Vec<GateProbe> {
    let mut probes = Vec::new();
    let mut seed = 0usize;
    while probes.len() < n {
        seed += 1;
        let prompt = vec![seed % VOCAB, (seed * 3 + 1) % VOCAB, (seed * 7 + 2) % VOCAB];
        let options = vec![
            vec![(seed * 5) % VOCAB, (seed + 11) % VOCAB],
            vec![(seed * 2 + 3) % VOCAB],
            vec![(seed + 9) % VOCAB, (seed * 4 + 1) % VOCAB],
        ];
        let pick = |hook: &dyn LayerHook| {
            let scores = sampler::score_options(b, hook, &prompt, &options);
            let lens: Vec<usize> = options.iter().map(Vec::len).collect();
            sampler::argmax(&sampler::option_probabilities(&scores, &lens))
        };
        let (r, w) = (pick(right), pick(wrong));
        if r != w {
            probes.push(GateProbe {
                prompt,
                options,
                correct: r,
            });
        }
        assert!(seed < 4000, "no disagreeing probes found");
    }
    probes
}

/// A mid-stream load → promote → A/B → rollback sequence with the request
/// mix verified request-by-request against the single-path sampler under
/// each request's pinned hook. Also proves zero drops: every submission
/// gets a terminal outcome.
#[test]
fn swap_under_load_pins_in_flight_requests_and_isolates_versions() {
    let _g = THREADS.lock().unwrap();
    kernels::set_num_threads(1);
    let b = base();
    let m1 = nudged_method(&b, 0.01);
    let m2 = nudged_method(&b, -0.02);
    let p1 = save_bundle("k1", nudged_method(&b, 0.01), &b, None, Vec::new());
    let p2 = save_bundle("k2", nudged_method(&b, -0.02), &b, None, Vec::new());
    let hook1 = m1.hook();
    let hook2 = m2.hook();

    let mut sched = Scheduler::new(&b, NoHook, cfg()).unwrap();

    // Long-running request admitted under version 0 (base); it will still
    // be mid-flight when the first swap lands.
    let long_prompt: Vec<usize> = (1..=9).collect();
    let rx_long = submit(
        &mut sched,
        0,
        RequestKind::Generate(GenerateSpec::greedy(long_prompt.clone(), 24, None)),
        None,
    );
    // Admit it and feed a few chunks.
    sched.step();
    sched.step();

    // Load + promote k1 while request 0 is in flight.
    let info = match sched
        .handle_control(ControlOp::LoadBundle { path: p1.clone() })
        .unwrap()
    {
        ControlOutcome::Loaded(info) => info,
        other => panic!("unexpected outcome {other:?}"),
    };
    assert_eq!(info.version, 1);
    assert_eq!(sched.active_version(), 0, "staging does not activate");
    sched
        .handle_control(ControlOp::Promote {
            version: 1,
            verdict: None,
        })
        .unwrap();
    assert_eq!(sched.active_version(), 1);

    // Unpinned requests now resolve to version 1; explicit pins run base
    // and k2 (staged below) concurrently — three versions in one batch.
    let v2 = match sched
        .handle_control(ControlOp::LoadBundle { path: p2.clone() })
        .unwrap()
    {
        ControlOutcome::Loaded(info) => info.version,
        other => panic!("unexpected outcome {other:?}"),
    };
    assert_eq!(v2, 2);

    // Identical prompts across versions: any cross-version reuse of cached
    // blocks (rows or gate sums) diverges from the single-path replay.
    let shared: Vec<usize> = vec![4, 5, 6, 7, 8, 9, 10, 11];
    let mcq_prompt = vec![2, 3, 4, 5];
    let mcq_options = vec![vec![6], vec![7, 8], vec![9, 10, 11]];
    let rx_v1 = submit(
        &mut sched,
        1,
        RequestKind::Generate(GenerateSpec::greedy(shared.clone(), 6, None)),
        None, // active = 1
    );
    let rx_v0 = submit(
        &mut sched,
        2,
        RequestKind::Generate(GenerateSpec::greedy(shared.clone(), 6, None)),
        Some(0),
    );
    let rx_v2 = submit(
        &mut sched,
        3,
        RequestKind::Generate(GenerateSpec::greedy(shared.clone(), 6, None)),
        Some(2),
    );
    let rx_m1 = submit(
        &mut sched,
        4,
        RequestKind::Mcq(McqSpec {
            prompt: mcq_prompt.clone(),
            options: mcq_options.clone(),
        }),
        Some(1),
    );
    let rx_m2 = submit(
        &mut sched,
        5,
        RequestKind::Mcq(McqSpec {
            prompt: mcq_prompt.clone(),
            options: mcq_options.clone(),
        }),
        Some(2),
    );
    // Roll back to base mid-stream: in-flight pins must be unaffected.
    sched.step();
    sched.handle_control(ControlOp::Rollback).unwrap();
    assert_eq!(sched.active_version(), 0);
    sched.run_until_idle();

    assert_tokens(
        &wait_tokens(&rx_long),
        &sampler::greedy_decode(&b, &NoHook, &long_prompt, 24, None),
        "long-running v0 request across two swaps",
    );
    assert_tokens(
        &wait_tokens(&rx_v1),
        &sampler::greedy_decode(&b, &hook1, &shared, 6, None),
        "unpinned request admitted while v1 active",
    );
    assert_tokens(
        &wait_tokens(&rx_v0),
        &sampler::greedy_decode(&b, &NoHook, &shared, 6, None),
        "request pinned to v0",
    );
    assert_tokens(
        &wait_tokens(&rx_v2),
        &sampler::greedy_decode(&b, &hook2, &shared, 6, None),
        "request pinned to staged v2",
    );
    assert_scores(
        &wait_scores(&rx_m1),
        &sampler::score_options(&b, &hook1, &mcq_prompt, &mcq_options),
        "MCQ pinned to v1",
    );
    assert_scores(
        &wait_scores(&rx_m2),
        &sampler::score_options(&b, &hook2, &mcq_prompt, &mcq_options),
        "MCQ pinned to v2",
    );

    let snap = sched.snapshot();
    assert_eq!(snap.bundle_swaps, 1);
    assert_eq!(snap.bundle_rollbacks, 1);
    assert_eq!(snap.bundle_active_version, 0);
    assert_eq!(snap.completed, 6, "zero dropped requests across swaps");
    kernels::set_num_threads(0);
    let _ = std::fs::remove_file(&p1);
    let _ = std::fs::remove_file(&p2);
}

/// Prefix-cache poisoning check: warm the index under one version with a
/// block-aligned prompt, then serve the identical prompt pinned to another
/// version. `(bundle_version, tokens)` keying means the second request must
/// rebuild its own prefix (and still match its own single-path replay) —
/// and re-serving under the first version again still matches too.
#[test]
fn prefix_cache_entries_never_cross_versions() {
    let _g = THREADS.lock().unwrap();
    kernels::set_num_threads(1);
    let b = base();
    let m1 = nudged_method(&b, 0.015);
    let p1 = save_bundle("iso", nudged_method(&b, 0.015), &b, None, Vec::new());
    let hook1 = m1.hook();

    let mut sched = Scheduler::new(&b, NoHook, cfg()).unwrap();
    sched
        .handle_control(ControlOp::LoadBundle { path: p1.clone() })
        .unwrap();

    // Two full 4-row blocks of shared prompt, so the index holds entries
    // (with InfuserKI's gate sums in v1's) for both versions.
    let prompt: Vec<usize> = vec![3, 1, 4, 1, 5, 9, 2, 6];
    for (round, (pin, hook)) in [
        (None, &NoHook as &dyn LayerHook),
        (Some(1u32), &hook1 as &dyn LayerHook),
        (None, &NoHook as &dyn LayerHook),
        (Some(1), &hook1 as &dyn LayerHook),
    ]
    .into_iter()
    .enumerate()
    {
        let rx = submit(
            &mut sched,
            round as u64,
            RequestKind::Generate(GenerateSpec::greedy(prompt.clone(), 8, None)),
            pin,
        );
        sched.run_until_idle();
        assert_tokens(
            &wait_tokens(&rx),
            &sampler::greedy_decode(&b, hook, &prompt, 8, None),
            &format!("round {round} pin {pin:?}"),
        );
    }
    // Later rounds actually exercised the per-version cache: the identical
    // prompt re-served under the same version hits its own namespace.
    let snap = sched.snapshot();
    assert!(
        snap.prefix_hits >= 2,
        "expected same-version prefix hits, got {}",
        snap.prefix_hits
    );
    kernels::set_num_threads(0);
    let _ = std::fs::remove_file(&p1);
}

/// Rollback restores bitwise-identical responses: the same unpinned request
/// replayed before promote and after rollback produces identical bits (at
/// one kernel thread).
#[test]
fn rollback_restores_bitwise_identical_responses() {
    let _g = THREADS.lock().unwrap();
    kernels::set_num_threads(1);
    let b = base();
    let p1 = save_bundle("rb", nudged_method(&b, 0.02), &b, None, Vec::new());

    let mut sched = Scheduler::new(&b, NoHook, cfg()).unwrap();
    let prompts: Vec<Vec<usize>> = vec![vec![1, 2, 3], vec![7, 8], vec![4, 5, 6, 7, 8]];

    let run_all = |sched: &mut Scheduler<'_>, tag: u64| -> Vec<Vec<usize>> {
        let rxs: Vec<_> = prompts
            .iter()
            .enumerate()
            .map(|(i, p)| {
                submit(
                    sched,
                    tag * 100 + i as u64,
                    RequestKind::Generate(GenerateSpec::greedy(p.clone(), 7, None)),
                    None,
                )
            })
            .collect();
        sched.run_until_idle();
        rxs.iter().map(wait_tokens).collect()
    };

    let before = run_all(&mut sched, 0);
    sched
        .handle_control(ControlOp::LoadBundle { path: p1.clone() })
        .unwrap();
    sched
        .handle_control(ControlOp::Promote {
            version: 1,
            verdict: None,
        })
        .unwrap();
    let during = run_all(&mut sched, 1);
    assert_ne!(
        before, during,
        "the nudged bundle must observably change at least one response"
    );
    sched.handle_control(ControlOp::Rollback).unwrap();
    let after = run_all(&mut sched, 2);
    if serial() {
        assert_eq!(
            before, after,
            "post-rollback responses must be bitwise identical to pre-promote"
        );
    }
    kernels::set_num_threads(0);
    let _ = std::fs::remove_file(&p1);
}

/// The NR regression gate: a candidate answering fewer held-out probes than
/// the active version is refused with `ControlError::NrGateFailed`, the
/// active version stays put, and the rejection is counted. A candidate
/// matching the active version's probe accuracy passes.
#[test]
fn nr_gate_refuses_regressing_promotions() {
    let _g = THREADS.lock().unwrap();
    kernels::set_num_threads(1);
    let b = base();
    let bad_method = nudged_method(&b, 0.05);
    // Probes the base (active v0) answers "correctly" by construction and
    // the candidate gets wrong.
    let probes = disagreement_probes(&b, &NoHook, &bad_method.hook(), 3);
    let stamp = EvalStamp { nr: 0.4, rr: 0.9 };
    let p_bad = save_bundle("bad", bad_method, &b, Some(stamp), probes.clone());
    // The good bundle carries probes whose "correct" answers are its own, and
    // the base disagrees — strictly more correct than active, so it passes.
    let good_method = nudged_method(&b, 0.03);
    let good_probes = disagreement_probes(&b, &good_method.hook(), &NoHook, 3);
    let p_good = save_bundle("good", good_method, &b, None, good_probes);

    let mut sched = Scheduler::new(&b, NoHook, cfg()).unwrap();
    sched
        .handle_control(ControlOp::LoadBundle {
            path: p_bad.clone(),
        })
        .unwrap();
    let err = sched
        .handle_control(ControlOp::Promote {
            version: 1,
            verdict: None,
        })
        .unwrap_err();
    match err {
        ControlError::NrGateFailed { version, gate } => {
            assert_eq!(version, 1);
            assert_eq!(gate.probes, 3);
            assert_eq!(gate.staged_correct, 0);
            assert_eq!(gate.active_correct, 3);
        }
        other => panic!("unexpected control error {other:?}"),
    }
    assert_eq!(
        sched.active_version(),
        0,
        "failed promote must not activate"
    );
    let snap = sched.snapshot();
    assert_eq!(snap.bundle_rejected_promotions, 1);
    assert_eq!(snap.bundle_swaps, 0);

    // The offline stamp survives the round trip into list_bundles.
    let listed = sched.list_bundles();
    assert_eq!(listed[1].nr, Some(0.4));
    assert_eq!(listed[1].gate_probes, 3);

    // A non-regressing candidate passes the same gate.
    sched
        .handle_control(ControlOp::LoadBundle {
            path: p_good.clone(),
        })
        .unwrap();
    let gate = match sched
        .handle_control(ControlOp::Promote {
            version: 2,
            verdict: None,
        })
        .unwrap()
    {
        ControlOutcome::Promoted { gate, .. } => gate.expect("probes present"),
        other => panic!("unexpected outcome {other:?}"),
    };
    assert_eq!(gate.staged_correct, 3);
    assert_eq!(gate.active_correct, 0);
    assert_eq!(sched.active_version(), 2);
    kernels::set_num_threads(0);
    let _ = std::fs::remove_file(&p_bad);
    let _ = std::fs::remove_file(&p_good);
}

/// The A/B phase again under banded parallel kernels: pinning and
/// per-version isolation hold at any thread count; scores are compared at
/// the cross-batch-shape tolerance instead of bitwise (the
/// `serve_differential.rs` convention).
#[test]
fn swap_under_load_matches_scores_with_parallel_kernels() {
    let _g = THREADS.lock().unwrap();
    kernels::set_num_threads(4);
    let b = base();
    let m1 = nudged_method(&b, 0.01);
    let p1 = save_bundle("par", nudged_method(&b, 0.01), &b, None, Vec::new());
    let hook1 = m1.hook();

    let mut sched = Scheduler::new(&b, NoHook, cfg()).unwrap();
    sched
        .handle_control(ControlOp::LoadBundle { path: p1.clone() })
        .unwrap();
    sched
        .handle_control(ControlOp::Promote {
            version: 1,
            verdict: None,
        })
        .unwrap();

    let prompt = vec![2, 3, 4, 5, 6];
    let options = vec![vec![7], vec![8, 9], vec![10, 11, 12]];
    let rx_v0 = submit(
        &mut sched,
        0,
        RequestKind::Mcq(McqSpec {
            prompt: prompt.clone(),
            options: options.clone(),
        }),
        Some(0),
    );
    let rx_v1 = submit(
        &mut sched,
        1,
        RequestKind::Mcq(McqSpec {
            prompt: prompt.clone(),
            options: options.clone(),
        }),
        None, // active = 1
    );
    sched.run_until_idle();
    assert_scores(
        &wait_scores(&rx_v0),
        &sampler::score_options(&b, &NoHook, &prompt, &options),
        "parallel kernels, pinned to v0",
    );
    assert_scores(
        &wait_scores(&rx_v1),
        &sampler::score_options(&b, &hook1, &prompt, &options),
        "parallel kernels, unpinned on v1",
    );
    kernels::set_num_threads(0);
    let _ = std::fs::remove_file(&p1);
}

/// The in-process client control path: load/promote/rollback through the
/// scheduler thread while requests stream, plus bundle verification
/// failures surfacing as typed `Incompatible` errors.
#[test]
fn client_control_plane_round_trips() {
    let _g = THREADS.lock().unwrap();
    kernels::set_num_threads(1);
    let b = base();
    let hook_ref = nudged_method(&b, 0.01);
    let hook1 = hook_ref.hook();
    let p1 = save_bundle("cli", nudged_method(&b, 0.01), &b, None, Vec::new());
    // A bundle built against a *different* base must be refused at load.
    let other_base = {
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        TransformerLm::new(ModelConfig::tiny(VOCAB), &mut rng)
    };
    assert_ne!(
        base_model_digest(&b).unwrap(),
        base_model_digest(&other_base).unwrap()
    );
    let p_alien = save_bundle(
        "alien",
        nudged_method(&other_base, 0.01),
        &other_base,
        None,
        Vec::new(),
    );

    let (client, handle) = infuserki::serve::spawn_scheduler(base(), NoHook, cfg()).unwrap();
    let want_base = sampler::greedy_decode(&b, &NoHook, &[1, 2, 3, 4], 6, None);
    let want_v1 = sampler::greedy_decode(&b, &hook1, &[1, 2, 3, 4], 6, None);
    // Unpinned requests resolve to active-at-*admission*, which races
    // control ops issued from this thread — so each phase waits for its
    // response before the next control op, making every resolution certain.
    let run = |want: &[usize], ctx: &str| {
        let rx = client.generate(vec![1, 2, 3, 4], 6, None).unwrap();
        match rx.wait().unwrap() {
            Outcome::Generated { tokens } => assert_tokens(&tokens, want, ctx),
            other => panic!("{ctx}: unexpected outcome {other:?}"),
        }
    };
    run(&want_base, "pre-promote");

    let info = client.load_bundle(&p1).unwrap();
    assert_eq!(info.version, 1);
    match client.load_bundle(&p_alien) {
        Err(ControlError::Incompatible(msg)) => {
            assert!(msg.contains("base"), "unhelpful incompatibility: {msg}")
        }
        other => panic!("alien bundle load returned {other:?}"),
    }
    assert!(client.promote(1).unwrap().is_none(), "no probes, no gate");
    run(&want_v1, "while v1 active");
    assert_eq!(client.rollback().unwrap(), 0);
    run(&want_base, "post-rollback");

    let list = client.list_bundles().unwrap();
    assert_eq!(list.len(), 2);
    assert!(list[0].active && !list[1].active);
    assert!(list[1].previous);
    handle.shutdown();
    kernels::set_num_threads(0);
    let _ = std::fs::remove_file(&p1);
    let _ = std::fs::remove_file(&p_alien);
}

/// Replaces the (bracket-balanced) JSON array under `key` with `[]`.
fn empty_json_array(json: &str, key: &str) -> String {
    let open = json.find(key).expect("key present") + key.len();
    assert_eq!(&json[open..open + 1], "[");
    let mut depth = 0usize;
    for (i, c) in json[open..].char_indices() {
        match c {
            '[' => depth += 1,
            ']' => depth -= 1,
            _ => {}
        }
        if depth == 0 {
            return format!("{}[]{}", &json[..open], &json[open + i + 1..]);
        }
    }
    panic!("unbalanced array under {key}");
}

/// A bundle file with the right base hash but a truncated adapter stack must
/// be refused at load with the typed `Incompatible` error. Staged, it would
/// panic the scheduler thread at the first pinned request or gate probe
/// (the hook indexes its adapters by placement) and take the replica down
/// with it.
#[test]
fn mis_shaped_bundle_is_refused_at_load_and_serving_continues() {
    let _g = THREADS.lock().unwrap();
    kernels::set_num_threads(1);
    let b = base();
    let path = save_bundle("truncated", nudged_method(&b, 0.01), &b, None, Vec::new());
    let json = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, empty_json_array(&json, "\"adapters\":")).unwrap();

    let (client, handle) = infuserki::serve::spawn_scheduler(base(), NoHook, cfg()).unwrap();
    match client.load_bundle(&path) {
        Err(ControlError::Incompatible(msg)) => {
            assert!(
                msg.contains("0 adapters"),
                "unhelpful incompatibility: {msg}"
            )
        }
        other => panic!("truncated bundle load returned {other:?}"),
    }
    assert_eq!(client.list_bundles().unwrap().len(), 1, "nothing staged");
    // The scheduler thread is alive and serves as before.
    let want = sampler::greedy_decode(&b, &NoHook, &[1, 2, 3, 4], 6, None);
    match client
        .generate(vec![1, 2, 3, 4], 6, None)
        .unwrap()
        .wait()
        .unwrap()
    {
        Outcome::Generated { tokens } => assert_tokens(&tokens, &want, "after refused load"),
        other => panic!("unexpected outcome {other:?}"),
    }
    handle.shutdown();
    kernels::set_num_threads(0);
    let _ = std::fs::remove_file(&path);
}
