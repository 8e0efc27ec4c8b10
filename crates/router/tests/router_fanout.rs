//! Fan-out edge cases of the multi-replica router: tenant fairness under an
//! aggressive tenant, a replica's scheduler panicking mid-request,
//! all-or-none group promotion with an injected partial failure, an
//! all-or-none load one replica refuses, and a fleet promote that scores
//! its gate on one replica.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier, Mutex};
use std::time::Duration;

use infuserki_core::{GateProbe, GateReport, InfuserKiConfig, InfuserKiMethod, KnowledgeBundle};
use infuserki_nn::{sampler, LayerHook, NoHook, TransformerLm};
use infuserki_router::{affinity, spawn_router, RouterClient, RouterConfig, RouterHandle};
use infuserki_serve::{
    demo_model, CancelToken, ControlError, ControlPlane, GenerateSpec, Outcome, RejectReason,
    RequestKind, ServeConfig, SubmitError, SubmitOpts,
};
use infuserki_tensor::kernels;

/// The kernel thread override is process-global; tests that pin it
/// serialize behind this lock.
static THREADS: Mutex<()> = Mutex::new(());

fn fleet_cfg(replicas: usize) -> RouterConfig {
    RouterConfig {
        replicas,
        serve: ServeConfig {
            block_rows: 4,
            ..ServeConfig::default()
        },
        ..RouterConfig::default()
    }
}

fn gen(prompt: Vec<usize>, max_new: usize) -> RequestKind {
    RequestKind::Generate(GenerateSpec::greedy(prompt, max_new, None))
}

/// A 9-token prompt whose affinity home, with all of `replicas` replicas
/// alive, is replica `home`.
fn homed_prompt(home: usize, replicas: usize, block_rows: usize) -> Vec<usize> {
    homed_prompts(home, replicas, block_rows)
        .next()
        .expect("a prompt homed on each replica")
}

/// Every 9-token candidate prompt the router homes on replica `home`.
fn homed_prompts(
    home: usize,
    replicas: usize,
    block_rows: usize,
) -> impl Iterator<Item = Vec<usize>> {
    (0..64usize)
        .map(|seed| (0..9).map(|i| (seed * 13 + i) % 32).collect::<Vec<usize>>())
        .filter(move |p| {
            let h = affinity::prefix_hash(p, block_rows, affinity::AFFINITY_BLOCKS).unwrap();
            affinity::rendezvous_pick(h, &vec![true; replicas]) == Some(home)
        })
}

/// An aggressive tenant floods 30 requests before a polite tenant submits
/// 4. Round-robin fair share must interleave the polite tenant's requests
/// near the front instead of behind the whole backlog.
#[test]
fn aggressive_tenant_cannot_starve_polite_tenant() {
    let cfg = RouterConfig {
        // A small in-flight cap keeps the aggressive backlog parked in its
        // tenant queue, where the fair-share drain (not arrival order)
        // decides what goes next.
        max_tenant_inflight: 2,
        ..fleet_cfg(1)
    };
    let (client, handle) = spawn_router(cfg, |_| (demo_model(), NoHook)).unwrap();
    // One shared response channel: responses arrive in completion order.
    let (tx, rx) = mpsc::channel();
    let n_big = 30u64;
    for id in 0..n_big {
        client
            .submit_with_sender(
                id,
                gen(vec![1 + (id as usize % 5), 2, 3], 6),
                SubmitOpts::default(),
                Some("aggressive"),
                tx.clone(),
                CancelToken::new(),
            )
            .unwrap();
    }
    let polite_ids: Vec<u64> = (1000..1004).collect();
    for &id in &polite_ids {
        client
            .submit_with_sender(
                id,
                gen(vec![7, 8, 9], 6),
                SubmitOpts::default(),
                Some("polite"),
                tx.clone(),
                CancelToken::new(),
            )
            .unwrap();
    }
    let total = n_big as usize + polite_ids.len();
    let mut order = Vec::with_capacity(total);
    for _ in 0..total {
        let resp = rx.recv_timeout(Duration::from_secs(60)).unwrap();
        assert!(
            matches!(resp.outcome, Outcome::Generated { .. }),
            "request {} failed: {:?}",
            resp.id,
            resp.outcome
        );
        order.push(resp.id);
    }
    let last_polite = order
        .iter()
        .enumerate()
        .filter(|(_, id)| polite_ids.contains(id))
        .map(|(pos, _)| pos)
        .max()
        .unwrap();
    // Without fair share the polite tenant would finish in the last 4
    // slots (positions 30..34). Round-robin must pull all of its requests
    // well into the first half.
    assert!(
        last_polite < total / 2,
        "polite tenant's last completion at position {last_polite}/{total}: starved \
         (order {order:?})"
    );
    handle.shutdown();
}

/// Slows every forward down without changing any output and, when armed,
/// panics on the scheduler thread after `panic_at` layer calls.
struct PanicHook {
    armed: bool,
    calls: AtomicUsize,
    panic_at: usize,
}

impl LayerHook for PanicHook {
    fn attn_q_delta(
        &self,
        _layer: usize,
        _x: &infuserki_nn::Val,
        _e: &mut infuserki_nn::Exec,
    ) -> Option<infuserki_nn::Val> {
        std::thread::sleep(Duration::from_millis(2));
        if self.armed && self.calls.fetch_add(1, Ordering::Relaxed) >= self.panic_at {
            panic!("injected scheduler-thread panic");
        }
        None
    }
}

/// A hook panics mid-decode on replica 0 of 2 and nothing else is
/// submitted meanwhile: the request homed there must still be answered
/// with the typed `ReplicaFailed` — with the replica already counted dead —
/// while the request on replica 1 completes untouched, and new traffic is
/// served by the survivor.
#[test]
fn scheduler_panic_answers_replica_failed_without_further_traffic() {
    let _g = THREADS.lock().unwrap();
    kernels::set_num_threads(1);
    let cfg = fleet_cfg(2);
    let block_rows = cfg.serve.block_rows;
    let (client, handle) = spawn_router(cfg, |i| {
        let hook = PanicHook {
            armed: i == 0,
            calls: AtomicUsize::new(0),
            // Two layers per forward: the tenth decode step or so.
            panic_at: 20,
        };
        (demo_model(), hook)
    })
    .unwrap();
    let (doomed_prompt, safe_prompt) = (
        homed_prompt(0, 2, block_rows),
        homed_prompt(1, 2, block_rows),
    );
    let doomed = client
        .submit(gen(doomed_prompt.clone(), 48), SubmitOpts::default(), None)
        .unwrap();
    let safe = client
        .submit(gen(safe_prompt.clone(), 48), SubmitOpts::default(), None)
        .unwrap();
    match doomed.wait_timeout(Duration::from_secs(5)) {
        Ok(Some(Outcome::Rejected(RejectReason::ReplicaFailed))) => {}
        other => panic!("doomed request got {other:?}, wanted ReplicaFailed within 5 s"),
    }
    assert_eq!(client.replicas_alive(), 1, "dead before its answer arrived");
    let reference = demo_model();
    match safe.wait().unwrap() {
        Outcome::Generated { tokens } => {
            let want = sampler::greedy_decode(&reference, &NoHook, &safe_prompt, 48, None);
            assert_eq!(tokens, want, "survivor's response must be unaffected");
        }
        other => panic!("safe request got {other:?}"),
    }
    assert_eq!(client.metrics().failed_replica.get(), 1);
    // New traffic — including prompts whose affinity home was the dead
    // replica — keeps being served by the survivor.
    let after = client
        .submit(gen(doomed_prompt.clone(), 4), SubmitOpts::default(), None)
        .unwrap();
    match after.wait().unwrap() {
        Outcome::Generated { tokens } => {
            let want = sampler::greedy_decode(&reference, &NoHook, &doomed_prompt, 4, None);
            assert_eq!(tokens, want);
        }
        other => panic!("request after the panic got {other:?}"),
    }
    handle.shutdown();
    kernels::set_num_threads(0);
}

fn nudged_method(b: &TransformerLm) -> InfuserKiMethod {
    let mut c = InfuserKiConfig::for_model(b.n_layers());
    c.bottleneck = 4;
    c.infuser_hidden = 4;
    c.rc_dim = 8;
    let mut m = InfuserKiMethod::new(c, b, 5);
    m.visit_adapters_mut(&mut |p: &mut infuserki_tensor::Param| {
        for (i, w) in p.data_mut().data_mut().iter_mut().enumerate() {
            *w += 0.5 * ((i % 7) as f32 - 3.0);
        }
    });
    m
}

/// Inject a promote failure on one replica of three: the fleet must roll
/// the already-promoted replicas back (all-or-none), keep serving the base
/// everywhere, and then promote cleanly once the fault is gone.
#[test]
fn partial_promotion_failure_rolls_the_whole_group_back() {
    let _g = THREADS.lock().unwrap();
    kernels::set_num_threads(1);
    let model = demo_model();
    let bundle_path = std::env::temp_dir().join(format!(
        "infuserki_router_fanout_{}.bundle.json",
        std::process::id()
    ));
    KnowledgeBundle::new("fanout-k1", nudged_method(&model), &model, None, Vec::new())
        .unwrap()
        .save(&bundle_path)
        .unwrap();
    let (client, handle) = spawn_router(fleet_cfg(3), |_| (demo_model(), NoHook)).unwrap();
    let info = client.load_bundle(bundle_path.to_str().unwrap()).unwrap();
    assert_eq!(info.version, 1, "staged on every replica as version 1");

    // Promote with a fault injected at replica 2: replicas 0 and 1 promote
    // first, then the fault refuses — the group must roll back.
    let err = client.promote_with_fault(info.version, 2).unwrap_err();
    assert!(
        matches!(err, ControlError::UnknownVersion(_)),
        "fault surfaces as the refusing replica's error, got {err:?}"
    );
    assert_eq!(client.metrics().group_rollbacks.get(), 1);

    // No replica serves v1: unpinned traffic still gets base-model tokens
    // (bitwise at one kernel thread), on every replica — each prompt is
    // homed on one of them by the router's prefix affinity.
    // The bundle must observably change each prompt's output.
    let method = nudged_method(&model);
    let block_rows = fleet_cfg(3).serve.block_rows;
    let decode =
        |hook: &dyn LayerHook, p: &[usize]| sampler::greedy_decode(&model, hook, p, 6, None);
    let (mut prompts, mut want_base, mut want_v1) = (Vec::new(), Vec::new(), Vec::new());
    for home in 0..3 {
        let (prompt, base, v1) = homed_prompts(home, 3, block_rows)
            .map(|p| (decode(&NoHook, &p), decode(&method.hook(), &p), p))
            .map(|(base, v1, p)| (p, base, v1))
            .find(|(_, base, v1)| base != v1)
            .expect("a prompt on each replica that the bundle changes");
        prompts.push(prompt);
        want_base.push(base);
        want_v1.push(v1);
    }
    let served_on_every_replica = |want: &[Vec<usize>], what: &str| {
        for (home, (prompt, want)) in prompts.iter().zip(want).enumerate() {
            let h = client
                .submit(gen(prompt.clone(), 6), SubmitOpts::default(), None)
                .unwrap();
            match h.wait().unwrap() {
                Outcome::Generated { tokens } => {
                    assert_eq!(&tokens, want, "replica {home}: {what}")
                }
                other => panic!("unexpected outcome {other:?}"),
            }
        }
    };
    served_on_every_replica(
        &want_base,
        "served the half-promoted bundle after group rollback",
    );
    let listed = client.list_bundles().unwrap();
    assert!(
        listed.iter().all(|b| !(b.version == 1 && b.active)),
        "v1 still active somewhere after rollback: {listed:?}"
    );

    // Without the fault the same promote lands fleet-wide.
    client.promote(info.version).unwrap();
    served_on_every_replica(&want_v1, "does not serve the promoted bundle");
    handle.shutdown();
    let _ = std::fs::remove_file(&bundle_path);
    kernels::set_num_threads(0);
}

/// A fleet load is all or none. With replica 2 of 3 on another base, the
/// bundle is refused as `Incompatible` and no replica stages it: a request
/// pinned to version 1 is refused as an unknown bundle wherever it lands.
/// With that replica gone, the next good load stages as version 1 on every
/// live replica, and each serves it.
#[test]
fn a_load_one_replica_refuses_stages_on_no_replica() {
    use rand::SeedableRng;
    let _g = THREADS.lock().unwrap();
    kernels::set_num_threads(1);
    let model = demo_model();
    let method = nudged_method(&model);
    let path = std::env::temp_dir().join(format!(
        "infuserki_router_fanout_all_or_none_{}.bundle.json",
        std::process::id()
    ));
    KnowledgeBundle::new("all-or-none", method.clone(), &model, None, Vec::new())
        .unwrap()
        .save(&path)
        .unwrap();
    let path = path.to_str().unwrap().to_string();
    // Replica 2 serves another base, under a hook that panics in its first
    // forward: one request homed there takes it out of the fleet.
    let (client, handle) = spawn_router(fleet_cfg(3), |i| {
        let base = if i == 2 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(8);
            TransformerLm::new(model.config().clone(), &mut rng)
        } else {
            demo_model()
        };
        let hook = PanicHook {
            armed: i == 2,
            calls: AtomicUsize::new(0),
            panic_at: 0,
        };
        (base, hook)
    })
    .unwrap();
    let block_rows = fleet_cfg(3).serve.block_rows;
    let pinned_v1 = |home: usize| {
        let opts = SubmitOpts {
            bundle: Some(1),
            ..SubmitOpts::default()
        };
        let prompt = homed_prompt(home, 3, block_rows);
        client
            .submit(gen(prompt, 4), opts, None)
            .unwrap()
            .wait()
            .unwrap()
    };

    match client.load_bundle(&path) {
        Err(ControlError::Incompatible(msg)) => {
            assert!(msg.contains("built against base"), "got: {msg}")
        }
        other => panic!("a load replica 2 refuses returned {other:?}"),
    }
    assert_eq!(client.list_bundles().unwrap().len(), 1);
    for home in 0..3 {
        assert_eq!(
            pinned_v1(home),
            Outcome::Rejected(RejectReason::UnknownBundle { version: 1 }),
            "replica {home} staged a bundle the fleet refused"
        );
    }

    let doomed = client
        .submit(
            gen(homed_prompt(2, 3, block_rows), 4),
            SubmitOpts::default(),
            None,
        )
        .unwrap();
    assert_eq!(
        doomed.wait().unwrap(),
        Outcome::Rejected(RejectReason::ReplicaFailed)
    );
    assert_eq!(client.replicas_alive(), 2);
    assert_eq!(client.load_bundle(&path).unwrap().version, 1);
    assert_eq!(client.list_bundles().unwrap().len(), 2);
    for home in 0..2 {
        let prompt = homed_prompt(home, 3, block_rows);
        let want = sampler::greedy_decode(&model, &method.hook(), &prompt, 4, None);
        assert_eq!(
            pinned_v1(home),
            Outcome::Generated { tokens: want },
            "replica {home}"
        );
    }
    handle.shutdown();
    let _ = std::fs::remove_file(&path);
    kernels::set_num_threads(0);
}

/// Counts the layer calls of its replica's forwards and changes nothing,
/// like `NoHook`: the fleet's version 0, so a test can see which replicas
/// ran the promote gate's probe forwards.
struct CountingHook(Arc<AtomicUsize>);

impl LayerHook for CountingHook {
    fn attn_q_delta(
        &self,
        _layer: usize,
        _x: &infuserki_nn::Val,
        _e: &mut infuserki_nn::Exec,
    ) -> Option<infuserki_nn::Val> {
        self.0.fetch_add(1, Ordering::Relaxed);
        None
    }
}

/// Probes on which `right` picks its own argmax and `wrong` disagrees, so
/// `right` answers all of them and `wrong` none.
fn disagreement_probes(
    model: &TransformerLm,
    right: &dyn LayerHook,
    wrong: &dyn LayerHook,
    n: usize,
) -> Vec<GateProbe> {
    let pick = |hook: &dyn LayerHook, prompt: &[usize], options: &[Vec<usize>]| {
        let scores = sampler::score_options(model, hook, prompt, options);
        let lens: Vec<usize> = options.iter().map(Vec::len).collect();
        sampler::argmax(&sampler::option_probabilities(&scores, &lens))
    };
    (1..4000usize)
        .filter_map(|seed| {
            let prompt = vec![seed % 32, (seed * 3 + 1) % 32, (seed * 7 + 2) % 32];
            let options = vec![
                vec![(seed * 5) % 32, (seed + 11) % 32],
                vec![(seed * 2 + 3) % 32],
                vec![(seed + 9) % 32, (seed * 4 + 1) % 32],
            ];
            let correct = pick(right, &prompt, &options);
            (correct != pick(wrong, &prompt, &options)).then_some(GateProbe {
                prompt,
                options,
                correct,
            })
        })
        .take(n)
        .collect()
}

/// A three-replica fleet whose version 0 counts its forwards per replica,
/// with `probes` saved into a bundle of [`nudged_method`]. `before_load`
/// runs on the counters just before that bundle is loaded as version 1
/// everywhere.
fn counted_fleet<T>(
    probes: Vec<GateProbe>,
    tag: &str,
    before_load: impl FnOnce(&[Arc<AtomicUsize>]) -> T,
) -> (RouterClient, RouterHandle, Vec<Arc<AtomicUsize>>, T) {
    let model = demo_model();
    let path = std::env::temp_dir().join(format!(
        "infuserki_router_fanout_{tag}_{}.bundle.json",
        std::process::id()
    ));
    KnowledgeBundle::new(tag, nudged_method(&model), &model, None, probes)
        .unwrap()
        .save(&path)
        .unwrap();
    let calls: Vec<Arc<AtomicUsize>> = (0..3).map(|_| Arc::default()).collect();
    let (client, handle) = spawn_router(fleet_cfg(3), |i| {
        (demo_model(), CountingHook(Arc::clone(&calls[i])))
    })
    .unwrap();
    let seen = before_load(&calls);
    let info = client.load_bundle(path.to_str().unwrap()).unwrap();
    assert_eq!(info.version, 1);
    let _ = std::fs::remove_file(&path);
    (client, handle, calls, seen)
}

/// Unpinned traffic homed on each of the three replicas in turn (one at a
/// time, so affinity is never overruled by load) gets `hook`'s greedy
/// tokens.
fn every_replica_serves(client: &RouterClient, hook: &dyn LayerHook) {
    let (model, block_rows) = (demo_model(), fleet_cfg(3).serve.block_rows);
    for home in 0..3 {
        let prompt = homed_prompt(home, 3, block_rows);
        let want = sampler::greedy_decode(&model, hook, &prompt, 6, None);
        let h = client
            .submit(gen(prompt, 6), SubmitOpts::default(), None)
            .unwrap();
        match h.wait().unwrap() {
            Outcome::Generated { tokens } => assert_eq!(tokens, want, "replica {home}"),
            other => panic!("unexpected outcome {other:?}"),
        }
    }
}

/// A fleet load scores the NR gate once, under one replica's version 0,
/// and the promote swaps every replica on that verdict: the other two never
/// run a gate forward. The report is the in-process one, afterwards every
/// replica serves v1 bitwise, and a promote after a rollback swaps on the
/// stored verdict without a forward anywhere.
#[test]
fn fleet_promote_scores_the_gate_on_one_replica() {
    let _g = THREADS.lock().unwrap();
    kernels::set_num_threads(1);
    let model = demo_model();
    let method = nudged_method(&model);
    let probes = disagreement_probes(&model, &method.hook(), &NoHook, 3);
    let snapshot = |calls: &[Arc<AtomicUsize>]| -> Vec<usize> {
        calls.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    };
    let (client, handle, calls, before) = counted_fleet(probes.clone(), "scored-once", snapshot);
    let count = || snapshot(&calls);

    let gate = client
        .promote(1)
        .unwrap()
        .expect("the bundle carries probes");
    assert_eq!(
        gate,
        GateReport::score(&model, &method.hook(), &NoHook, &probes)
    );
    let after = count();
    assert_eq!(
        before.iter().zip(&after).filter(|(b, a)| a > b).count(),
        1,
        "exactly one replica ran the gate's forwards: {before:?} -> {after:?}"
    );
    assert_eq!(client.metrics().group_rollbacks.get(), 0);
    assert_eq!(client.rollback().unwrap(), 0);
    assert_eq!(client.promote(1).unwrap(), Some(gate));
    assert_eq!(count(), after, "a stored verdict costs no forward");

    every_replica_serves(&client, &method.hook());
    handle.shutdown();
    kernels::set_num_threads(0);
}

/// A bundle whose probes the active version wins is refused on the fleet's
/// verdict before any replica swaps: the caller gets the in-process
/// report, no group rollback is counted, and every replica serves v0.
#[test]
fn fleet_gate_refusal_leaves_every_replica_unchanged() {
    let _g = THREADS.lock().unwrap();
    kernels::set_num_threads(1);
    let model = demo_model();
    let method = nudged_method(&model);
    let probes = disagreement_probes(&model, &NoHook, &method.hook(), 3);
    let (client, handle, _calls, ()) = counted_fleet(probes.clone(), "refused", |_| ());

    let err = client.promote(1).unwrap_err();
    let want = GateReport::score(&model, &method.hook(), &NoHook, &probes);
    assert!(want.refuses(), "{want:?}");
    assert_eq!(
        err,
        ControlError::NrGateFailed {
            version: 1,
            gate: want
        }
    );
    assert_eq!(client.metrics().group_rollbacks.get(), 0);
    assert!(client
        .list_bundles()
        .unwrap()
        .iter()
        .all(|b| b.active == (b.version == 0)));

    every_replica_serves(&client, &NoHook);
    handle.shutdown();
    kernels::set_num_threads(0);
}

/// Submissions racing `RouterHandle::shutdown` are all answered: accepted
/// ones with a terminal outcome, refused ones with `ShuttingDown`. A request
/// parked in a tenant queue after the dispatcher's final drain would never
/// be — its sender lives on inside the router, so `wait()` would hang.
#[test]
fn submissions_racing_shutdown_all_resolve() {
    for _round in 0..25 {
        let (client, handle) = spawn_router(fleet_cfg(1), |_| (demo_model(), NoHook)).unwrap();
        let start = Barrier::new(5);
        std::thread::scope(|s| {
            let hammers: Vec<_> = (0..4usize)
                .map(|t| {
                    let (client, start) = (client.clone(), &start);
                    s.spawn(move || {
                        start.wait();
                        let mut accepted = Vec::new();
                        loop {
                            match client.submit(gen(vec![1 + t, 2], 2), SubmitOpts::default(), None)
                            {
                                Ok(h) => accepted.push(h),
                                Err(SubmitError::Rejected(RejectReason::ShuttingDown)) => break,
                                Err(SubmitError::Rejected(RejectReason::TenantQueueFull {
                                    ..
                                })) => std::thread::yield_now(),
                                Err(e) => panic!("unexpected submit error {e:?}"),
                            }
                        }
                        accepted
                    })
                })
                .collect();
            start.wait();
            handle.shutdown();
            for hammer in hammers {
                for h in hammer.join().expect("hammer thread") {
                    let id = h.id;
                    let outcome = h.wait_timeout(Duration::from_secs(20));
                    assert!(
                        matches!(outcome, Ok(Some(_))),
                        "request {id} accepted during shutdown was never answered: {outcome:?}"
                    );
                }
            }
        });
    }
}
