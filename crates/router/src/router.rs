//! The router proper: tenant queues in front, N scheduler replicas behind,
//! a dispatcher thread in between, and a fan-out control plane.
//!
//! # Threads
//!
//! * N scheduler threads (one per replica, from
//!   [`infuserki_serve::spawn_scheduler`]).
//! * N *pump* threads: each replica's responses funnel through one channel;
//!   the pump translates internal router ids back to caller ids and
//!   channels, and detects replica death (the channel disconnects when the
//!   scheduler thread drops its request senders).
//! * One *dispatcher* thread: drains tenant queues round-robin (one request
//!   per tenant per sweep — the fair share), spends token-bucket tokens,
//!   and picks a replica per request (affinity first, least-loaded
//!   fallback).
//!
//! # Failure semantics
//!
//! A dead replica (detected by a failed submit or a disconnected response
//! channel) is excluded from dispatch; its outstanding requests are
//! answered with [`RejectReason::ReplicaFailed`] — a typed, retryable
//! error — and survivors keep serving. Rendezvous hashing means only the
//! dead replica's prefixes are remapped.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use infuserki_nn::{LayerHook, TransformerLm};
use infuserki_serve::{
    spawn_scheduler, BundleInfo, CancelToken, Client, ControlError, ControlOp, ControlOutcome,
    ControlPlane, EngineLimits, Outcome, RejectReason, RequestId, RequestKind, Response,
    ResponseHandle, SchedulerHandle, SubmitError, SubmitOpts,
};

use crate::affinity;
use crate::config::RouterConfig;
use crate::metrics::RouterMetrics;

/// Tenant id used when a submission carries none.
pub const DEFAULT_TENANT: &str = "";

/// A request parked in a tenant queue, waiting for dispatch.
struct Pending {
    caller_id: RequestId,
    kind: RequestKind,
    opts: SubmitOpts,
    cancel: CancelToken,
    tx: Sender<Response>,
    tenant: String,
}

/// Book-keeping for one dispatched request, until its replica responds.
struct Outstanding {
    caller_id: RequestId,
    tenant: String,
    tx: Sender<Response>,
}

/// One scheduler replica plus its routing state.
struct Replica {
    client: Client,
    /// Master clone of the replica's response sender. Dropped on death so
    /// the pump's receiver disconnects once the scheduler's own per-request
    /// senders are gone too.
    resp_tx: Mutex<Option<Sender<Response>>>,
    /// Internal router id → caller book-keeping.
    outstanding: Mutex<HashMap<u64, Outstanding>>,
    alive: AtomicBool,
}

/// Per-tenant shaping state.
struct TenantState {
    queue: VecDeque<Pending>,
    tokens: f64,
    last_refill: Instant,
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
    /// Signalled on enqueue and on request completion (freed capacity).
    cv: Condvar,
    stop: AtomicBool,
    metrics: RouterMetrics,
    next_rid: AtomicU64,
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

    /// Marks a replica dead (idempotent) and drops its master sender so the
    /// pump can observe full disconnection.
    fn mark_dead(&self, i: usize) {
        if self.replicas[i].alive.swap(false, Ordering::SeqCst) {
            self.metrics.replicas_alive.add(-1);
        }
        *self.replicas[i].resp_tx.lock().unwrap() = None;
    }

    /// Decrements a tenant's in-flight count and wakes the dispatcher.
    fn finish_one(&self, tenant: &str) {
        let mut t = self.tenants.lock().unwrap();
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
        let cancel = self.submit_with_sender(id, kind, opts, tenant, tx)?;
        Ok(ResponseHandle::new(id, rx, cancel))
    }

    /// Submission for callers that own the response channel (the TCP
    /// server). Validates synchronously against the shared limits and the
    /// tenant's queue bound, then parks the request for the dispatcher.
    pub fn submit_with_sender(
        &self,
        id: RequestId,
        kind: RequestKind,
        opts: SubmitOpts,
        tenant: Option<&str>,
        tx: Sender<Response>,
    ) -> Result<CancelToken, SubmitError> {
        let inner = &self.inner;
        inner
            .limits
            .validate(&kind)
            .map_err(SubmitError::Rejected)?;
        let tenant = tenant.unwrap_or(DEFAULT_TENANT).to_string();
        let cancel = CancelToken::new();
        let pending = Pending {
            caller_id: id,
            kind,
            opts,
            cancel: cancel.clone(),
            tx,
            tenant: tenant.clone(),
        };
        {
            let mut t = inner.tenants.lock().unwrap();
            // Checked under the lock the dispatcher drains under: a request
            // that gets in before the final drain is rejected by it, one
            // that comes after sees `stop` — none is parked unanswered.
            if inner.stop.load(Ordering::SeqCst) {
                return Err(SubmitError::Rejected(RejectReason::ShuttingDown));
            }
            if !t.map.contains_key(&tenant) {
                t.map.insert(tenant.clone(), TenantState::new(&inner.cfg));
                t.order.push(tenant.clone());
            }
            let state = t.map.get_mut(&tenant).expect("tenant just ensured");
            if state.queue.len() >= inner.cfg.tenant_queue_capacity {
                inner.metrics.rejected_tenant_queue_full.inc();
                return Err(SubmitError::Rejected(RejectReason::TenantQueueFull {
                    capacity: inner.cfg.tenant_queue_capacity,
                }));
            }
            state.queue.push_back(pending);
            inner.metrics.submitted.inc();
            inner.metrics.tenant_queued.add(1);
        }
        inner.cv.notify_all();
        Ok(cancel)
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
    pumps: Vec<JoinHandle<()>>,
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
        // Scheduler drains deliver every in-flight response into the pump
        // channels before the threads exit...
        for s in self.scheds.drain(..) {
            s.shutdown();
        }
        // ...then dropping the master senders lets the pumps observe full
        // disconnection and exit once they have relayed everything.
        for r in &self.inner.replicas {
            *r.resp_tx.lock().unwrap() = None;
        }
        for p in self.pumps.drain(..) {
            let _ = p.join();
        }
    }
}

/// Spawns `cfg.replicas` schedulers (the factory builds each replica's
/// model + hook; deterministic factories give identical replicas, which is
/// what the bitwise routing contract assumes), the per-replica pumps, and
/// the dispatcher. Returns the cloneable client plus the owning handle.
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
    let mut rxs = Vec::with_capacity(cfg.replicas);
    for i in 0..cfg.replicas {
        let (model, hook) = factory(i);
        let (client, handle) = spawn_scheduler(model, hook, cfg.serve.clone())
            .map_err(|e| format!("router: replica {i}: {e}"))?;
        let (tx, rx) = mpsc::channel::<Response>();
        replicas.push(Replica {
            client,
            resp_tx: Mutex::new(Some(tx)),
            outstanding: Mutex::new(HashMap::new()),
            alive: AtomicBool::new(true),
        });
        scheds.push(handle);
        rxs.push(rx);
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
        next_rid: AtomicU64::new(0),
    });
    let mut pumps = Vec::with_capacity(inner.replicas.len());
    for (i, rx) in rxs.into_iter().enumerate() {
        let pump_inner = Arc::clone(&inner);
        let pump = std::thread::Builder::new()
            .name(format!("infuserki-router-pump{i}"))
            .spawn(move || pump_loop(&pump_inner, i, rx))
            .map_err(|e| format!("router: failed to spawn pump {i}: {e}"))?;
        pumps.push(pump);
    }
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
        pumps,
        scheds,
    };
    Ok((client, handle))
}

/// Relays one replica's responses back to their callers; on disconnection
/// (replica death) flushes every outstanding request with a typed error.
fn pump_loop(inner: &Inner, i: usize, rx: Receiver<Response>) {
    while let Ok(resp) = rx.recv() {
        let out = inner.replicas[i]
            .outstanding
            .lock()
            .unwrap()
            .remove(&resp.id);
        if let Some(o) = out {
            inner.metrics.replica_outstanding[i].add(-1);
            let _ = o.tx.send(Response {
                id: o.caller_id,
                outcome: resp.outcome,
            });
            inner.finish_one(&o.tenant);
        }
    }
    // Every sender is gone: either a clean shutdown (outstanding is empty)
    // or the scheduler thread died mid-request.
    inner.mark_dead(i);
    let drained: Vec<Outstanding> = {
        let mut map = inner.replicas[i].outstanding.lock().unwrap();
        map.drain().map(|(_, o)| o).collect()
    };
    for o in drained {
        inner.metrics.replica_outstanding[i].add(-1);
        inner.metrics.failed_replica.inc();
        let _ = o.tx.send(Response {
            id: o.caller_id,
            outcome: Outcome::Rejected(RejectReason::ReplicaFailed),
        });
        inner.finish_one(&o.tenant);
    }
}

/// One fair-share collection: starting at the rotating cursor, take at most
/// one dispatchable request per tenant per sweep, spending tokens and
/// charging in-flight, until a full sweep takes nothing.
fn collect_dispatchable(inner: &Inner, t: &mut TenantTable) -> Vec<Pending> {
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
    let n = t.order.len();
    let mut batch = Vec::new();
    if n == 0 {
        return batch;
    }
    loop {
        let mut took = false;
        for k in 0..n {
            let name = t.order[(t.cursor + k) % n].clone();
            let state = t.map.get_mut(&name).expect("ring names are table keys");
            if state.queue.is_empty() {
                continue;
            }
            if cfg.max_tenant_inflight > 0 && state.inflight >= cfg.max_tenant_inflight {
                continue;
            }
            if cfg.rate_limited() && state.tokens < 1.0 {
                continue;
            }
            if cfg.rate_limited() {
                state.tokens -= 1.0;
            }
            state.inflight += 1;
            let p = state.queue.pop_front().expect("queue checked non-empty");
            inner.metrics.tenant_queued.add(-1);
            batch.push(p);
            took = true;
        }
        t.cursor = (t.cursor + 1) % n;
        if !took {
            return batch;
        }
    }
}

fn dispatcher_loop(inner: &Inner) {
    let mut guard = inner.tenants.lock().unwrap();
    loop {
        if inner.stop.load(Ordering::SeqCst) {
            // Reject everything still queued, like the scheduler's drain.
            for state in guard.map.values_mut() {
                while let Some(p) = state.queue.pop_front() {
                    inner.metrics.tenant_queued.add(-1);
                    inner.metrics.rejected_shutdown.inc();
                    let _ = p.tx.send(Response {
                        id: p.caller_id,
                        outcome: Outcome::Rejected(RejectReason::ShuttingDown),
                    });
                }
            }
            return;
        }
        let batch = collect_dispatchable(inner, &mut guard);
        if batch.is_empty() {
            let queued = guard.map.values().any(|s| !s.queue.is_empty());
            // Short wait while throttled/capped (tokens refill on a clock);
            // long wait when idle (enqueue and completion both notify).
            let wait = if queued {
                Duration::from_millis(5)
            } else {
                Duration::from_millis(100)
            };
            guard = inner.cv.wait_timeout(guard, wait).unwrap().0;
            continue;
        }
        drop(guard);
        for p in batch {
            dispatch_one(inner, p);
        }
        guard = inner.tenants.lock().unwrap();
    }
}

/// Picks a replica (affinity first, least-loaded fallback) and forwards one
/// request, failing over to survivors when a replica turns out dead.
fn dispatch_one(inner: &Inner, p: Pending) {
    if p.cancel.is_cancelled() {
        inner.metrics.cancelled_queued.inc();
        let _ = p.tx.send(Response {
            id: p.caller_id,
            outcome: Outcome::Cancelled,
        });
        inner.finish_one(&p.tenant);
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
    let prompt = match &p.kind {
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
    let Some(mut target) = choice else {
        inner.metrics.failed_replica.inc();
        let _ = p.tx.send(Response {
            id: p.caller_id,
            outcome: Outcome::Rejected(RejectReason::ReplicaFailed),
        });
        inner.finish_one(&p.tenant);
        return;
    };
    // Failover ring: the chosen replica first, then every other live one.
    let mut tried = vec![false; inner.replicas.len()];
    loop {
        tried[target] = true;
        match try_forward(inner, target, &p) {
            Ok(()) => return,
            Err(SubmitError::Rejected(reason)) => {
                let _ = p.tx.send(Response {
                    id: p.caller_id,
                    outcome: Outcome::Rejected(reason),
                });
                inner.finish_one(&p.tenant);
                return;
            }
            Err(SubmitError::Disconnected) => {
                inner.mark_dead(target);
                match inner
                    .alive_flags()
                    .iter()
                    .enumerate()
                    .filter(|&(i, &up)| up && !tried[i])
                    .min_by_key(|&(i, _)| inner.load_of(i))
                    .map(|(i, _)| i)
                {
                    Some(next) => target = next,
                    None => {
                        inner.metrics.failed_replica.inc();
                        let _ = p.tx.send(Response {
                            id: p.caller_id,
                            outcome: Outcome::Rejected(RejectReason::ReplicaFailed),
                        });
                        inner.finish_one(&p.tenant);
                        return;
                    }
                }
            }
        }
    }
}

/// Forwards one pending request to replica `i` under a fresh internal id.
fn try_forward(inner: &Inner, i: usize, p: &Pending) -> Result<(), SubmitError> {
    let replica = &inner.replicas[i];
    let tx = replica
        .resp_tx
        .lock()
        .unwrap()
        .clone()
        .ok_or(SubmitError::Disconnected)?;
    let rid = inner.next_rid.fetch_add(1, Ordering::Relaxed);
    replica.outstanding.lock().unwrap().insert(
        rid,
        Outstanding {
            caller_id: p.caller_id,
            tenant: p.tenant.clone(),
            tx: p.tx.clone(),
        },
    );
    inner.metrics.replica_outstanding[i].add(1);
    match replica
        .client
        .submit_with_parts(rid, p.kind.clone(), p.opts, p.cancel.clone(), tx)
    {
        Ok(()) => {
            inner.metrics.dispatched.inc();
            inner.metrics.replica_dispatched[i].inc();
            Ok(())
        }
        Err(e) => {
            replica.outstanding.lock().unwrap().remove(&rid);
            inner.metrics.replica_outstanding[i].add(-1);
            Err(e)
        }
    }
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
