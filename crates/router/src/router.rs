//! The router proper: tenant queues in front, N scheduler replicas behind,
//! a dispatcher thread in between, and a fan-out control plane.
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

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use infuserki_nn::{LayerHook, TransformerLm};
use infuserki_serve::{
    spawn_scheduler, BundleInfo, CancelToken, Client, ControlError, ControlOp, ControlOutcome,
    ControlPlane, EngineLimits, Outcome, RejectReason, Request, RequestId, RequestKind, Response,
    ResponseHandle, SchedulerHandle, SubmitError, SubmitOpts,
};

use crate::affinity;
use crate::config::RouterConfig;
use crate::metrics::RouterMetrics;

/// Tenant id used when a submission carries none.
pub const DEFAULT_TENANT: &str = "";

/// One scheduler replica plus its routing state.
struct Replica {
    client: Client,
    alive: AtomicBool,
}

/// Per-tenant shaping state.
struct TenantState {
    queue: VecDeque<Request>,
    tokens: f64,
    last_refill: Instant,
    /// Dispatched, unanswered requests; counted only under an in-flight cap.
    inflight: usize,
}

impl TenantState {
    fn new(cfg: &RouterConfig) -> Self {
        TenantState {
            queue: VecDeque::new(),
            tokens: cfg.bucket_capacity(),
            last_refill: Instant::now(),
            inflight: 0,
        }
    }
}

/// All tenants plus the rotating fair-share cursor.
struct TenantTable {
    map: HashMap<String, TenantState>,
    /// Tenant names in first-appearance order (the round-robin ring).
    order: Vec<String>,
    /// Where the next sweep starts, so no tenant is permanently first.
    cursor: usize,
}

struct Inner {
    cfg: RouterConfig,
    limits: EngineLimits,
    replicas: Vec<Replica>,
    tenants: Mutex<TenantTable>,
    /// Signalled on enqueue and, under an in-flight cap, on request
    /// completion (freed capacity).
    cv: Condvar,
    stop: AtomicBool,
    metrics: RouterMetrics,
}

impl Inner {
    fn alive_flags(&self) -> Vec<bool> {
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
    inner: Arc<Inner>,
    next_id: Arc<AtomicU64>,
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

    /// Per-replica serve metrics snapshots (dead replicas report their last
    /// state).
    pub fn replica_metrics(&self) -> Vec<infuserki_serve::MetricsSnapshot> {
        self.inner
            .replicas
            .iter()
            .map(|r| r.client.metrics())
            .collect()
    }

    /// How many replicas are currently alive.
    pub fn replicas_alive(&self) -> usize {
        self.inner.alive_flags().iter().filter(|&&a| a).count()
    }

    /// Submits one request under an optional tenant id; the handle receives
    /// exactly one terminal outcome.
    pub fn submit(
        &self,
        kind: RequestKind,
        opts: SubmitOpts,
        tenant: Option<&str>,
    ) -> Result<ResponseHandle, SubmitError> {
        let (tx, rx) = mpsc::channel();
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let cancel = CancelToken::new();
        self.submit_with_sender(id, kind, opts, tenant, tx, cancel.clone())?;
        Ok(ResponseHandle::new(id, rx, cancel))
    }

    /// Submission for callers that own the response channel and the
    /// cancellation token (the TCP server). Validates synchronously against
    /// the shared limits and the tenant's queue bound, then parks the
    /// request for the dispatcher.
    pub fn submit_with_sender(
        &self,
        id: RequestId,
        kind: RequestKind,
        opts: SubmitOpts,
        tenant: Option<&str>,
        tx: Sender<Response>,
        cancel: CancelToken,
    ) -> Result<(), SubmitError> {
        let inner = &self.inner;
        inner
            .limits
            .validate(&kind)
            .map_err(SubmitError::Rejected)?;
        let tenant = tenant.unwrap_or(DEFAULT_TENANT);
        {
            let mut t = inner.tenants.lock().unwrap();
            // Checked under the lock the dispatcher drains under: a request
            // that gets in before the final drain is rejected by it, one
            // that comes after sees `stop` — none is parked unanswered.
            if inner.stop.load(Ordering::SeqCst) {
                return Err(SubmitError::Rejected(RejectReason::ShuttingDown));
            }
            if !t.map.contains_key(tenant) {
                t.map
                    .insert(tenant.to_string(), TenantState::new(&inner.cfg));
                t.order.push(tenant.to_string());
            }
            let state = t.map.get_mut(tenant).expect("tenant just ensured");
            if state.queue.len() >= inner.cfg.tenant_queue_capacity {
                inner.metrics.rejected_tenant_queue_full.inc();
                return Err(SubmitError::Rejected(RejectReason::TenantQueueFull {
                    capacity: inner.cfg.tenant_queue_capacity,
                }));
            }
            // Built only once it is sure to be queued: a `Request` dropped
            // unanswered would answer the caller `ReplicaFailed`.
            let mut req = Request::new(id, kind, tx).with_opts(opts);
            req.cancel = cancel;
            state.queue.push_back(req);
            inner.metrics.submitted.inc();
            inner.metrics.tenant_queued.add(1);
        }
        inner.cv.notify_all();
        Ok(())
    }

    /// Promote with a fault injected at one replica: that replica receives
    /// a `Promote` for a version that was never loaded, so its refusal
    /// exercises the real all-or-none group rollback. Test hook.
    #[doc(hidden)]
    pub fn promote_with_fault(
        &self,
        version: u32,
        fault_replica: usize,
    ) -> Result<ControlOutcome, ControlError> {
        self.fan_promote(version, Some(fault_replica))
    }

    /// Kills one replica abruptly (no drain): its scheduler thread exits,
    /// outstanding requests come back [`RejectReason::ReplicaFailed`], and
    /// dispatch continues on survivors. Test hook.
    #[doc(hidden)]
    pub fn kill_replica(&self, i: usize) {
        self.inner.replicas[i].client.crash_for_test();
        self.inner.mark_dead(i);
    }

    fn first_alive(&self) -> Result<&Client, ControlError> {
        self.inner
            .replicas
            .iter()
            .find(|r| r.alive.load(Ordering::SeqCst))
            .map(|r| &r.client)
            .ok_or(ControlError::Disconnected)
    }

    fn fan_load(&self, path: &str) -> Result<ControlOutcome, ControlError> {
        let mut first: Option<BundleInfo> = None;
        for r in &self.inner.replicas {
            if !r.alive.load(Ordering::SeqCst) {
                continue;
            }
            let outcome = r
                .client
                .control(ControlOp::LoadBundle { path: path.into() })?;
            let ControlOutcome::Loaded(info) = outcome else {
                unreachable!("load returned {outcome:?}");
            };
            if let Some(f) = &first {
                if f.version != info.version {
                    return Err(ControlError::Incompatible(format!(
                        "replica registries diverged: version {} vs {}",
                        f.version, info.version
                    )));
                }
            } else {
                first = Some(info);
            }
        }
        first
            .map(ControlOutcome::Loaded)
            .ok_or(ControlError::Disconnected)
    }

    /// Two-phase promote: every live replica promotes in turn; the first
    /// refusal (NR gate, unknown version, anything) rolls the
    /// already-promoted replicas back and returns the error — the fleet
    /// either serves the new version everywhere or nowhere.
    fn fan_promote(
        &self,
        version: u32,
        fault_replica: Option<usize>,
    ) -> Result<ControlOutcome, ControlError> {
        let mut promoted: Vec<&Client> = Vec::new();
        let mut first: Option<ControlOutcome> = None;
        for (i, r) in self.inner.replicas.iter().enumerate() {
            if !r.alive.load(Ordering::SeqCst) {
                continue;
            }
            let v = if fault_replica == Some(i) {
                u32::MAX // never a loaded version: forces a refusal
            } else {
                version
            };
            match r.client.control(ControlOp::Promote { version: v }) {
                Ok(outcome) => {
                    if first.is_none() {
                        first = Some(outcome);
                    }
                    promoted.push(&r.client);
                }
                Err(e) => {
                    for c in promoted {
                        // Rollback restores the pre-promote active version;
                        // a failure here means the replica died mid-op, and
                        // dead replicas serve nothing anyway.
                        let _ = c.control(ControlOp::Rollback);
                    }
                    self.inner.metrics.group_rollbacks.inc();
                    return Err(e);
                }
            }
        }
        first.ok_or(ControlError::Disconnected)
    }

    fn fan_rollback(&self) -> Result<ControlOutcome, ControlError> {
        let mut first: Option<ControlOutcome> = None;
        for r in &self.inner.replicas {
            if !r.alive.load(Ordering::SeqCst) {
                continue;
            }
            let outcome = r.client.control(ControlOp::Rollback)?;
            if first.is_none() {
                first = Some(outcome);
            }
        }
        first.ok_or(ControlError::Disconnected)
    }

    /// Router + per-replica metrics as one JSON object (the wire `metrics`
    /// op payload).
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
        format!(
            "{{\"submitted\":{},\"dispatched\":{},\"affinity_hits\":{},\"balanced\":{},\
             \"rejected_tenant_queue_full\":{},\"failed_replica\":{},\"cancelled_queued\":{},\
             \"group_rollbacks\":{},\"replicas_alive\":{},\"tenant_queued\":{},\"replicas\":[{}]}}",
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
            replicas.join(",")
        )
    }
}

impl ControlPlane for RouterClient {
    /// Executes one knowledge-bundle control op across the fleet. Loads
    /// stage everywhere; promotes are all-or-none (any refusal rolls the
    /// already-promoted replicas back); rollbacks address every live
    /// replica and listings the first (the registries march in lockstep —
    /// all control traffic fans out).
    fn control(&self, op: ControlOp) -> Result<ControlOutcome, ControlError> {
        match op {
            ControlOp::LoadBundle { path } => self.fan_load(&path),
            ControlOp::Promote { version } => self.fan_promote(version, None),
            ControlOp::Rollback => self.fan_rollback(),
            ControlOp::ListBundles => self.first_alive()?.control(ControlOp::ListBundles),
        }
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

/// Spawns `cfg.replicas` schedulers (the factory builds each replica's
/// model + hook; deterministic factories give identical replicas, which is
/// what the bitwise routing contract assumes) and the dispatcher. Returns
/// the cloneable client plus the owning handle.
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

/// One fair-share collection: starting at the rotating cursor, take at most
/// one dispatchable request per tenant per sweep, spending tokens and
/// charging in-flight, until a full sweep takes nothing. Each request comes
/// with its tenant's name.
fn collect_dispatchable(inner: &Inner, t: &mut TenantTable) -> Vec<(String, Request)> {
    let cfg = &inner.cfg;
    let now = Instant::now();
    if cfg.rate_limited() {
        for state in t.map.values_mut() {
            let dt = now.duration_since(state.last_refill).as_secs_f64();
            state.tokens =
                (state.tokens + dt * cfg.tenant_refill_per_sec).min(cfg.bucket_capacity());
            state.last_refill = now;
        }
    }
    let capped = cfg.max_tenant_inflight > 0;
    let n = t.order.len();
    let mut batch = Vec::new();
    if n == 0 {
        return batch;
    }
    loop {
        let mut took = false;
        for k in 0..n {
            let name = &t.order[(t.cursor + k) % n];
            let state = t.map.get_mut(name).expect("ring names are table keys");
            if state.queue.is_empty() {
                continue;
            }
            if capped && state.inflight >= cfg.max_tenant_inflight {
                continue;
            }
            if cfg.rate_limited() && state.tokens < 1.0 {
                continue;
            }
            if cfg.rate_limited() {
                state.tokens -= 1.0;
            }
            if capped {
                state.inflight += 1;
            }
            let req = state.queue.pop_front().expect("queue checked non-empty");
            inner.metrics.tenant_queued.add(-1);
            batch.push((name.clone(), req));
            took = true;
        }
        t.cursor = (t.cursor + 1) % n;
        if !took {
            return batch;
        }
    }
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
    let prompt = match &req.kind {
        RequestKind::Generate(g) => &g.prompt,
        RequestKind::Mcq(m) => &m.prompt,
    };
    let block_rows = inner.cfg.serve.block_rows;
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
mod tests {
    use super::*;
    use infuserki_nn::{sampler, NoHook};
    use infuserki_serve::{GenerateSpec, McqSpec, ServeConfig};
    use infuserki_tensor::kernels;

    fn demo_pair(_i: usize) -> (TransformerLm, NoHook) {
        (infuserki_serve::demo_model(), NoHook)
    }

    fn small_cfg(replicas: usize) -> RouterConfig {
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
    fn tenant_queue_bound_backpressures_that_tenant_only() {
        // A router with no replicas consuming work is hard to arrange, so
        // bound the queue instead: capacity 1 with an in-flight cap of 1
        // forces the second burst submission of the same tenant to park and
        // the third to bounce, while another tenant still gets in.
        let cfg = RouterConfig {
            tenant_queue_capacity: 1,
            max_tenant_inflight: 1,
            ..small_cfg(1)
        };
        let (client, handle) = spawn_router(cfg, demo_pair).unwrap();
        let slow = |i: usize| RequestKind::Generate(GenerateSpec::greedy(vec![1 + i, 2], 8, None));
        let h1 = client
            .submit(slow(0), SubmitOpts::default(), Some("big"))
            .unwrap();
        // One of these lands in the queue; with capacity 1 a rapid burst
        // must eventually bounce with the typed tenant error.
        let mut bounced = false;
        let mut extra = Vec::new();
        for i in 1..40 {
            match client.submit(slow(i), SubmitOpts::default(), Some("big")) {
                Ok(h) => extra.push(h),
                Err(SubmitError::Rejected(RejectReason::TenantQueueFull { capacity })) => {
                    assert_eq!(capacity, 1);
                    bounced = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e:?}"),
            }
        }
        assert!(bounced, "burst never hit the tenant queue bound");
        // A different tenant is unaffected by big's backlog.
        let other = client
            .submit(slow(50), SubmitOpts::default(), Some("small"))
            .unwrap();
        assert!(matches!(other.wait().unwrap(), Outcome::Generated { .. }));
        assert!(matches!(h1.wait().unwrap(), Outcome::Generated { .. }));
        for h in extra {
            assert!(matches!(h.wait().unwrap(), Outcome::Generated { .. }));
        }
        assert!(client.metrics().rejected_tenant_queue_full.get() >= 1);
        handle.shutdown();
    }

    #[test]
    fn cancel_while_queued_reports_cancelled() {
        let cfg = RouterConfig {
            max_tenant_inflight: 1,
            ..small_cfg(1)
        };
        let (client, handle) = spawn_router(cfg, demo_pair).unwrap();
        let gen = |i: usize| RequestKind::Generate(GenerateSpec::greedy(vec![1 + i, 2], 6, None));
        let h1 = client
            .submit(gen(0), SubmitOpts::default(), Some("t"))
            .unwrap();
        let h2 = client
            .submit(gen(1), SubmitOpts::default(), Some("t"))
            .unwrap();
        // h2 waits behind h1's in-flight slot; cancelling it while parked
        // must come back Cancelled (from the router or, if it raced into
        // the scheduler, from there — either way terminal and Cancelled).
        h2.cancel();
        assert!(matches!(h1.wait().unwrap(), Outcome::Generated { .. }));
        assert!(matches!(h2.wait().unwrap(), Outcome::Cancelled));
        handle.shutdown();
    }

    #[test]
    fn token_bucket_shapes_a_burst_and_spares_other_tenants() {
        // 20 req/s with a burst of 2: `a`'s first two go at once, then one
        // every 50 ms, so its sixth waits for four refills (200 ms).
        let cfg = RouterConfig {
            tenant_refill_per_sec: 20.0,
            tenant_bucket_capacity: 2.0,
            ..small_cfg(1)
        };
        let (client, handle) = spawn_router(cfg, demo_pair).unwrap();
        let (tx, rx) = mpsc::channel();
        let one = |i: usize| RequestKind::Generate(GenerateSpec::greedy(vec![1 + i, 2], 1, None));
        let submitted = Instant::now();
        for (id, tenant) in (0..6).map(|i| (i, "a")).chain([(100, "b")]) {
            client
                .submit_with_sender(
                    id,
                    one(id as usize % 7),
                    SubmitOpts::default(),
                    Some(tenant),
                    tx.clone(),
                    CancelToken::new(),
                )
                .unwrap();
        }
        let arrivals: Vec<(u64, Duration)> = (0..7)
            .map(|_| {
                let resp = rx.recv_timeout(Duration::from_secs(10)).unwrap();
                assert!(matches!(resp.outcome, Outcome::Generated { .. }));
                (resp.id, submitted.elapsed())
            })
            .collect();
        let pos = |id: u64| arrivals.iter().position(|&(i, _)| i == id).unwrap();
        assert!(
            pos(100) < pos(3),
            "b queued behind a's shaped backlog: {arrivals:?}"
        );
        assert!(
            arrivals[pos(5)].1 >= Duration::from_millis(190),
            "a's sixth request beat its bucket: {arrivals:?}"
        );
        handle.shutdown();
    }

    #[test]
    fn control_plane_requires_a_live_replica() {
        let (client, handle) = spawn_router(small_cfg(1), demo_pair).unwrap();
        client.kill_replica(0);
        assert!(matches!(
            client.list_bundles(),
            Err(ControlError::Disconnected)
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
        // It must parse as one JSON object (the wire `metrics` op embeds it).
        let v: serde::Value = serde_json::from_str(&j).unwrap();
        assert!(v.get_field("replicas").is_some());
        handle.shutdown();
    }
}
