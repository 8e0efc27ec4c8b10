//! Per-tenant fair share: bounded tenant queues, token buckets and
//! in-flight caps in front of the dispatcher.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Sender};
use std::time::Instant;

use infuserki_serve::{
    CancelToken, RejectReason, Request, RequestId, RequestKind, Response, ResponseHandle,
    SubmitError, SubmitOpts,
};

use crate::config::RouterConfig;
use crate::dispatch::{Inner, RouterClient};

/// Tenant id used when a submission carries none.
pub(crate) const DEFAULT_TENANT: &str = "";

/// Per-tenant shaping state.
pub(crate) struct TenantState {
    pub(crate) queue: VecDeque<Request>,
    tokens: f64,
    last_refill: Instant,
    /// Dispatched, unanswered requests; counted only under an in-flight cap.
    pub(crate) inflight: usize,
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
pub(crate) struct TenantTable {
    pub(crate) map: HashMap<String, TenantState>,
    /// Tenant names in first-appearance order (the round-robin ring).
    pub(crate) order: Vec<String>,
    /// Where the next sweep starts, so no tenant is permanently first.
    pub(crate) cursor: usize,
}

impl RouterClient {
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
}

/// One fair-share collection: starting at the rotating cursor, take at most
/// one dispatchable request per tenant per sweep, spending tokens and
/// charging in-flight, until a full sweep takes nothing. Each request comes
/// with its tenant's name.
pub(crate) fn collect_dispatchable(inner: &Inner, t: &mut TenantTable) -> Vec<(String, Request)> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::tests::{demo_pair, small_cfg};
    use crate::spawn_router;
    use infuserki_serve::{GenerateSpec, Outcome};
    use std::time::Duration;

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
}
