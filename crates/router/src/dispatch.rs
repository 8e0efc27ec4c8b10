//! The router proper: tenant queues in front (the `tenants` module), N
//! scheduler replicas behind, a dispatcher thread in between, and a fan-out
//! control plane (the `fanout` module).
//!
//! # Threads
//!
//! * One *dispatcher* thread: drains tenant queues round-robin (one request
//!   per tenant per sweep — the fair share), spends token-bucket tokens,
//!   and hands each request to a replica (affinity first, least-loaded
//!   fallback).
//! * N scheduler threads (one per replica, from
//!   [`infuserki_serve::spawn_scheduler`]). A request reaches its replica
//!   with the caller's own id and channel, so the scheduler answers the
//!   caller directly; the router's accounting is attached at dispatch and
//!   runs on the scheduler thread as the request is answered.
//!
//! # Failure semantics
//!
//! Every request is answered exactly once. One a scheduler drops
//! unanswered — its thread crashed, panicked or exited — answers itself
//! [`RejectReason::ReplicaFailed`] (a typed, retryable error), and its
//! accounting marks the replica dead before the caller sees that answer,
//! whether or not any other traffic arrives. A hand-off to a replica that
//! is already gone comes back to the dispatcher, which marks the replica
//! dead and fails the same request over to a survivor. Dead replicas are
//! excluded from dispatch; rendezvous hashing means only their prefixes
//! are remapped.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use infuserki_nn::{LayerHook, TransformerLm};
use infuserki_obs as obs;
use infuserki_serve::{
    spawn_scheduler, Client, EngineLimits, Outcome, RejectReason, Request, SchedulerHandle,
};

use crate::affinity;
use crate::config::RouterConfig;
use crate::metrics::RouterMetrics;
use crate::tenants::{collect_dispatchable, TenantTable};

/// One scheduler replica plus its routing state.
pub(crate) struct Replica {
    pub(crate) client: Client,
    pub(crate) alive: AtomicBool,
}

/// State shared by every router thread and client clone.
pub(crate) struct Inner {
    pub(crate) cfg: RouterConfig,
    pub(crate) limits: EngineLimits,
    pub(crate) replicas: Vec<Replica>,
    pub(crate) tenants: Mutex<TenantTable>,
    /// Signalled on enqueue and, under an in-flight cap, on request
    /// completion (freed capacity).
    pub(crate) cv: Condvar,
    pub(crate) stop: AtomicBool,
    pub(crate) metrics: RouterMetrics,
}

impl Inner {
    pub(crate) fn alive_flags(&self) -> Vec<bool> {
        self.replicas
            .iter()
            .map(|r| r.alive.load(Ordering::SeqCst))
            .collect()
    }

    fn load_of(&self, i: usize) -> usize {
        self.metrics.replica_outstanding[i].get().max(0) as usize
    }

    /// Marks a replica dead (idempotent).
    fn mark_dead(&self, i: usize) {
        if self.replicas[i].alive.swap(false, Ordering::SeqCst) {
            self.metrics.replicas_alive.add(-1);
        }
    }

    /// Returns a dispatched request's in-flight slot to its tenant and wakes
    /// the dispatcher — only under an in-flight cap; uncapped tenants are
    /// not counted. Never panics (a poisoned lock is still usable).
    fn finish_one(&self, tenant: &str) {
        if self.cfg.max_tenant_inflight == 0 {
            return;
        }
        let mut t = self.tenants.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(state) = t.map.get_mut(tenant) {
            state.inflight = state.inflight.saturating_sub(1);
        }
        drop(t);
        self.cv.notify_all();
    }
}

/// Cloneable handle submitting requests and control ops to the fleet: the
/// one front the TCP server serves and `--watch-kg` publishes through
/// (reaching every replica atomically), at any replica count N ≥ 1.
#[derive(Clone)]
pub struct RouterClient {
    pub(crate) inner: Arc<Inner>,
    pub(crate) next_id: Arc<AtomicU64>,
}

impl RouterClient {
    /// The fleet's admission limits (identical on every replica).
    pub fn limits(&self) -> &EngineLimits {
        &self.inner.limits
    }

    /// The router's own metrics.
    pub fn metrics(&self) -> &RouterMetrics {
        &self.inner.metrics
    }

    /// How many replicas are currently alive.
    pub fn replicas_alive(&self) -> usize {
        self.inner.alive_flags().iter().filter(|&&a| a).count()
    }

    /// Router, update-pipeline (`ingest.*`) and per-replica metrics as one
    /// JSON object (the wire `metrics` op payload).
    pub fn metrics_json(&self) -> String {
        let m = &self.inner.metrics;
        let alive = self.inner.alive_flags();
        let replicas: Vec<String> = self
            .inner
            .replicas
            .iter()
            .enumerate()
            .map(|(i, r)| {
                format!(
                    "{{\"alive\":{},\"dispatched\":{},\"outstanding\":{},\"serve\":{}}}",
                    alive[i],
                    m.replica_dispatched[i].get(),
                    m.replica_outstanding[i].get().max(0),
                    r.client.metrics().to_json()
                )
            })
            .collect();
        // What an update pipeline registered here (`serve --watch-kg`),
        // without the `ingest.` prefix: `{}` when none runs.
        let ingest = obs::Snapshot {
            entries: (m.registry().snapshot().entries.into_iter())
                .filter_map(|(name, v)| Some((name.strip_prefix("ingest.")?.to_string(), v)))
                .collect(),
        };
        format!(
            "{{\"submitted\":{},\"dispatched\":{},\"affinity_hits\":{},\"balanced\":{},\
             \"rejected_tenant_queue_full\":{},\"failed_replica\":{},\"cancelled_queued\":{},\
             \"group_rollbacks\":{},\"replicas_alive\":{},\"tenant_queued\":{},\"ingest\":{},\
             \"replicas\":[{}]}}",
            m.submitted.get(),
            m.dispatched.get(),
            m.affinity_hits.get(),
            m.balanced.get(),
            m.rejected_tenant_queue_full.get(),
            m.failed_replica.get(),
            m.cancelled_queued.get(),
            m.group_rollbacks.get(),
            m.replicas_alive.get().max(0),
            m.tenant_queued.get().max(0),
            ingest.to_json(),
            replicas.join(",")
        )
    }
}

/// Owns every router thread. [`RouterHandle::shutdown`] drains the fleet:
/// queued requests are rejected, in-flight requests finish, then every
/// thread joins.
pub struct RouterHandle {
    inner: Arc<Inner>,
    dispatcher: Option<JoinHandle<()>>,
    scheds: Vec<SchedulerHandle>,
}

impl RouterHandle {
    /// Drains and joins the whole fleet.
    pub fn shutdown(mut self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        self.inner.cv.notify_all();
        if let Some(d) = self.dispatcher.take() {
            let _ = d.join();
        }
        // Each scheduler's drain answers its in-flight requests before the
        // thread exits.
        for s in self.scheds.drain(..) {
            s.shutdown();
        }
    }
}

/// Spawns `cfg.replicas` schedulers and the dispatcher. Returns the
/// cloneable client plus the owning handle.
///
/// The factory builds each replica's model + hook (the hook is the
/// replica's version 0), and must build identical replicas: the bitwise
/// routing contract assumes it, and a fleet promote scores the NR gate on
/// one replica and applies that verdict to every other.
pub fn spawn_router<H, F>(
    cfg: RouterConfig,
    mut factory: F,
) -> Result<(RouterClient, RouterHandle), String>
where
    H: LayerHook + Send + 'static,
    F: FnMut(usize) -> (TransformerLm, H),
{
    cfg.validate()?;
    let metrics = RouterMetrics::new(cfg.replicas);
    let mut replicas = Vec::with_capacity(cfg.replicas);
    let mut scheds = Vec::with_capacity(cfg.replicas);
    for i in 0..cfg.replicas {
        let (model, hook) = factory(i);
        let (client, handle) = spawn_scheduler(model, hook, cfg.serve.clone())
            .map_err(|e| format!("router: replica {i}: {e}"))?;
        replicas.push(Replica {
            client,
            alive: AtomicBool::new(true),
        });
        scheds.push(handle);
    }
    metrics.replicas_alive.set(cfg.replicas as i64);
    let limits = replicas[0].client.limits().clone();
    let inner = Arc::new(Inner {
        cfg,
        limits,
        replicas,
        tenants: Mutex::new(TenantTable {
            map: HashMap::new(),
            order: Vec::new(),
            cursor: 0,
        }),
        cv: Condvar::new(),
        stop: AtomicBool::new(false),
        metrics,
    });
    let disp_inner = Arc::clone(&inner);
    let dispatcher = std::thread::Builder::new()
        .name("infuserki-router-dispatch".into())
        .spawn(move || dispatcher_loop(&disp_inner))
        .map_err(|e| format!("router: failed to spawn dispatcher: {e}"))?;
    let client = RouterClient {
        inner: Arc::clone(&inner),
        next_id: Arc::new(AtomicU64::new(0)),
    };
    let handle = RouterHandle {
        inner,
        dispatcher: Some(dispatcher),
        scheds,
    };
    Ok((client, handle))
}

fn dispatcher_loop(inner: &Arc<Inner>) {
    let mut guard = inner.tenants.lock().unwrap();
    loop {
        if inner.stop.load(Ordering::SeqCst) {
            // Reject everything still queued, like the scheduler's drain.
            // Queued requests carry no router accounting yet, so answering
            // them under the tenant lock never re-enters it.
            for state in guard.map.values_mut() {
                for req in state.queue.drain(..) {
                    inner.metrics.tenant_queued.add(-1);
                    inner.metrics.rejected_shutdown.inc();
                    req.respond(Outcome::Rejected(RejectReason::ShuttingDown));
                }
            }
            return;
        }
        let batch = collect_dispatchable(inner, &mut guard);
        if batch.is_empty() {
            let queued = guard.map.values().any(|s| !s.queue.is_empty());
            // Short wait while throttled/capped (tokens refill on a clock);
            // long wait when idle (enqueue and capped completion notify).
            let wait = if queued {
                Duration::from_millis(5)
            } else {
                Duration::from_millis(100)
            };
            guard = inner.cv.wait_timeout(guard, wait).unwrap().0;
            continue;
        }
        drop(guard);
        for (tenant, req) in batch {
            dispatch_one(inner, tenant, req);
        }
        guard = inner.tenants.lock().unwrap();
    }
}

/// Picks a replica (affinity first, least-loaded fallback) and forwards one
/// request, failing over to survivors when a replica turns out dead.
fn dispatch_one(inner: &Arc<Inner>, tenant: String, mut req: Request) {
    if req.cancel.is_cancelled() {
        inner.metrics.cancelled_queued.inc();
        inner.finish_one(&tenant);
        req.respond(Outcome::Cancelled);
        return;
    }
    let alive = inner.alive_flags();
    let least_loaded = |alive: &[bool]| {
        alive
            .iter()
            .enumerate()
            .filter(|&(_, &up)| up)
            .min_by_key(|&(i, _)| inner.load_of(i))
            .map(|(i, _)| i)
    };
    let block_rows = inner.cfg.serve.block_rows;
    let prompt = req.kind.prompt();
    let choice = match affinity::prefix_hash(prompt, block_rows, affinity::AFFINITY_BLOCKS) {
        Some(h) => match affinity::rendezvous_pick(h, &alive) {
            Some(target) => {
                let min_load = least_loaded(&alive).map(|i| inner.load_of(i)).unwrap_or(0);
                if inner.load_of(target) <= min_load + affinity::IMBALANCE_SLACK {
                    inner.metrics.affinity_hits.inc();
                    Some(target)
                } else {
                    inner.metrics.balanced.inc();
                    least_loaded(&alive)
                }
            }
            None => None,
        },
        None => {
            let pick = least_loaded(&alive);
            if pick.is_some() {
                inner.metrics.balanced.inc();
            }
            pick
        }
    };
    // Failover: a replica that bounces the hand-off is marked dead, so the
    // next pick is the least-loaded survivor.
    let m = &inner.metrics;
    let mut target = choice;
    while let Some(i) = target {
        // Counted before the hand-off: the answer can reach the caller
        // before `submit_request` returns. A bounced hand-off counts too.
        m.replica_outstanding[i].add(1);
        m.dispatched.inc();
        m.replica_dispatched[i].inc();
        let (acct, tenant) = (Arc::clone(inner), tenant.clone());
        req.on_answer = Some(Box::new(move |outcome: &Outcome| {
            // Runs on the answering scheduler thread, possibly mid-unwind:
            // atomics only, plus the tenant lock under an in-flight cap.
            acct.metrics.replica_outstanding[i].add(-1);
            if matches!(outcome, Outcome::Rejected(RejectReason::ReplicaFailed)) {
                // Only a request its scheduler dropped unanswered says this.
                acct.metrics.failed_replica.inc();
                acct.mark_dead(i);
            }
            acct.finish_one(&tenant);
        }));
        match inner.replicas[i].client.submit_request(req) {
            Ok(()) => return,
            Err(back) => {
                req = back;
                req.on_answer = None;
                m.replica_outstanding[i].add(-1);
                inner.mark_dead(i);
                target = least_loaded(&inner.alive_flags());
            }
        }
    }
    m.failed_replica.inc();
    inner.finish_one(&tenant);
    req.respond(Outcome::Rejected(RejectReason::ReplicaFailed));
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use infuserki_nn::{sampler, NoHook};
    use infuserki_serve::{
        GenerateSpec, McqSpec, RequestKind, ServeConfig, SubmitError, SubmitOpts,
    };
    use infuserki_tensor::kernels;

    pub(crate) fn demo_pair(_i: usize) -> (TransformerLm, NoHook) {
        (infuserki_serve::demo_model(), NoHook)
    }

    pub(crate) fn small_cfg(replicas: usize) -> RouterConfig {
        RouterConfig {
            replicas,
            serve: ServeConfig {
                block_rows: 4,
                ..ServeConfig::default()
            },
            ..RouterConfig::default()
        }
    }

    #[test]
    fn round_trips_generate_and_mcq_across_replicas() {
        kernels::set_num_threads(1);
        let reference = infuserki_serve::demo_model();
        let (client, handle) = spawn_router(small_cfg(2), demo_pair).unwrap();
        let mut handles = Vec::new();
        for i in 0..6usize {
            let prompt = vec![1 + i, 2, 3 + i];
            handles.push((
                prompt.clone(),
                client
                    .submit(
                        RequestKind::Generate(GenerateSpec::greedy(prompt, 4, None)),
                        SubmitOpts::default(),
                        None,
                    )
                    .unwrap(),
            ));
        }
        for (prompt, h) in handles {
            match h.wait().unwrap() {
                Outcome::Generated { tokens } => {
                    let want = sampler::greedy_decode(&reference, &NoHook, &prompt, 4, None);
                    assert_eq!(tokens, want);
                }
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        let m = client
            .submit(
                RequestKind::Mcq(McqSpec {
                    prompt: vec![4, 5],
                    options: vec![vec![6], vec![7, 8]],
                }),
                SubmitOpts::default(),
                Some("acme"),
            )
            .unwrap();
        match m.wait().unwrap() {
            Outcome::McqScored { scores, .. } => assert_eq!(scores.len(), 2),
            other => panic!("unexpected outcome {other:?}"),
        }
        assert_eq!(client.metrics().dispatched.get(), 7);
        handle.shutdown();
        kernels::set_num_threads(0);
    }

    #[test]
    fn invalid_submission_fails_synchronously() {
        let (client, handle) = spawn_router(small_cfg(1), demo_pair).unwrap();
        let err = client
            .submit(
                RequestKind::Generate(GenerateSpec::greedy(Vec::new(), 4, None)),
                SubmitOpts::default(),
                None,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            SubmitError::Rejected(RejectReason::Invalid(_))
        ));
        handle.shutdown();
    }

    #[test]
    fn metrics_json_is_wire_shaped() {
        let (client, handle) = spawn_router(small_cfg(2), demo_pair).unwrap();
        let j = RouterClient::metrics_json(&client);
        assert!(j.contains("\"affinity_hits\""));
        assert!(j.contains("\"replicas\":["));
        assert!(j.contains("\"serve\":{"));
        assert!(j.contains("\"ingest\":{}"), "no pipeline registered: {j}");
        // It must parse as one JSON object (the wire `metrics` op embeds it).
        let v: serde::Value = serde_json::from_str(&j).unwrap();
        assert!(v.get_field("replicas").is_some());
        handle.shutdown();
    }
}
