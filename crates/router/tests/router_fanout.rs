//! Fan-out edge cases of the multi-replica router: tenant fairness under an
//! aggressive tenant, a replica's scheduler panicking mid-request, and
//! all-or-none group promotion with an injected partial failure.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Barrier, Mutex};
use std::time::Duration;

use infuserki_core::{InfuserKiConfig, InfuserKiMethod, KnowledgeBundle};
use infuserki_nn::{sampler, LayerHook, NoHook, TransformerLm};
use infuserki_router::{affinity, spawn_router, RouterConfig};
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

/// A 9-token prompt whose affinity home, with both of two replicas alive,
/// is replica `home`.
fn homed_prompt(home: usize, block_rows: usize) -> Vec<usize> {
    (0..64usize)
        .map(|seed| (0..9).map(|i| (seed * 13 + i) % 32).collect::<Vec<usize>>())
        .find(|p| {
            let h = affinity::prefix_hash(p, block_rows, affinity::AFFINITY_BLOCKS).unwrap();
            affinity::rendezvous_pick(h, &[true, true]) == Some(home)
        })
        .expect("a prompt homed on each replica")
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
    let (doomed_prompt, safe_prompt) = (homed_prompt(0, block_rows), homed_prompt(1, block_rows));
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
    // (bitwise at one kernel thread), on every replica.
    let method = nudged_method(&model);
    let prompt = vec![1usize, 2, 3];
    let want_base = sampler::greedy_decode(&model, &NoHook, &prompt, 6, None);
    let want_v1 = sampler::greedy_decode(&model, &method.hook(), &prompt, 6, None);
    assert_ne!(want_base, want_v1, "bundle must observably change output");
    for _ in 0..6 {
        let h = client
            .submit(gen(prompt.clone(), 6), SubmitOpts::default(), None)
            .unwrap();
        match h.wait().unwrap() {
            Outcome::Generated { tokens } => assert_eq!(
                tokens, want_base,
                "a replica served the half-promoted bundle after group rollback"
            ),
            other => panic!("unexpected outcome {other:?}"),
        }
    }
    let listed = client.list_bundles().unwrap();
    assert!(
        listed.iter().all(|b| !(b.version == 1 && b.active)),
        "v1 still active somewhere after rollback: {listed:?}"
    );

    // Without the fault the same promote lands fleet-wide.
    client.promote(info.version).unwrap();
    for _ in 0..6 {
        let h = client
            .submit(gen(prompt.clone(), 6), SubmitOpts::default(), None)
            .unwrap();
        match h.wait().unwrap() {
            Outcome::Generated { tokens } => assert_eq!(tokens, want_v1),
            other => panic!("unexpected outcome {other:?}"),
        }
    }
    handle.shutdown();
    let _ = std::fs::remove_file(&bundle_path);
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
