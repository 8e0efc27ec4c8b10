//! Router-level metrics, backed by an instance `obs::Registry` exactly
//! like [`infuserki_serve::ServeMetrics`] — every handle is atomic, so the
//! dispatcher and the replicas' scheduler threads (through the accounting
//! each dispatched request carries) update them lock-free and any thread
//! snapshots concurrently.

use std::sync::Arc;

use infuserki_obs as obs;

/// Registry-backed dispatch counters, one instance per router.
#[derive(Debug)]
pub struct RouterMetrics {
    registry: obs::Registry,
    /// Requests accepted into a tenant queue.
    pub submitted: Arc<obs::Counter>,
    /// Requests handed to a replica scheduler (a hand-off a dead replica
    /// bounced, then failed over, counts once per replica tried).
    pub dispatched: Arc<obs::Counter>,
    /// Dispatches that followed the prefix-affinity target.
    pub affinity_hits: Arc<obs::Counter>,
    /// Dispatches that fell back to least-loaded (no hashable chunk, or
    /// the affinity target was overloaded past the slack).
    pub balanced: Arc<obs::Counter>,
    /// Submissions rejected because the tenant's queue was full.
    pub rejected_tenant_queue_full: Arc<obs::Counter>,
    /// Requests answered `ReplicaFailed` because their replica died
    /// mid-request (or none was alive to dispatch to).
    pub failed_replica: Arc<obs::Counter>,
    /// Requests cancelled while still waiting in a tenant queue.
    pub cancelled_queued: Arc<obs::Counter>,
    /// Queued requests rejected when the router shut down.
    pub rejected_shutdown: Arc<obs::Counter>,
    /// Fan-out promotes that rolled the whole group back after a swap
    /// failed past the first replica (a gate refusal changes no replica
    /// and is not counted).
    pub group_rollbacks: Arc<obs::Counter>,
    /// Replicas currently alive.
    pub replicas_alive: Arc<obs::Gauge>,
    /// Requests currently queued across all tenants.
    pub tenant_queued: Arc<obs::Gauge>,
    /// Per-replica dispatch counters (`router.replica{i}.dispatched`).
    pub replica_dispatched: Vec<Arc<obs::Counter>>,
    /// Per-replica outstanding-request gauges
    /// (`router.replica{i}.outstanding`) — the dispatcher's load signal.
    pub replica_outstanding: Vec<Arc<obs::Gauge>>,
}

impl RouterMetrics {
    /// Builds a fresh instance registry with `n` per-replica handle sets.
    pub fn new(n: usize) -> Self {
        let registry = obs::Registry::new();
        let c = |name: &str| registry.counter(name);
        let g = |name: &str| registry.gauge(name);
        RouterMetrics {
            submitted: c("router.submitted"),
            dispatched: c("router.dispatched"),
            affinity_hits: c("router.dispatch.affinity"),
            balanced: c("router.dispatch.balanced"),
            rejected_tenant_queue_full: c("router.rejected.tenant_queue_full"),
            failed_replica: c("router.failed.replica"),
            cancelled_queued: c("router.cancelled_queued"),
            rejected_shutdown: c("router.rejected.shutdown"),
            group_rollbacks: c("router.bundle.group_rollbacks"),
            replicas_alive: g("router.replicas_alive"),
            tenant_queued: g("router.tenant_queued"),
            replica_dispatched: (0..n)
                .map(|i| c(&format!("router.replica{i}.dispatched")))
                .collect(),
            replica_outstanding: (0..n)
                .map(|i| g(&format!("router.replica{i}.outstanding")))
                .collect(),
            registry,
        }
    }

    /// The backing registry (for full-snapshot export).
    pub fn registry(&self) -> &obs::Registry {
        &self.registry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_replica_handles_are_distinct() {
        let m = RouterMetrics::new(3);
        m.replica_dispatched[1].inc();
        assert_eq!(m.replica_dispatched[0].get(), 0);
        assert_eq!(m.replica_dispatched[1].get(), 1);
        m.replica_outstanding[2].set(5);
        assert_eq!(m.replica_outstanding[2].get(), 5);
    }

    #[test]
    fn registry_snapshot_sees_router_names() {
        let m = RouterMetrics::new(1);
        m.affinity_hits.inc();
        let snap = m.registry().snapshot();
        assert_eq!(
            snap.get("router.dispatch.affinity"),
            Some(&obs::MetricValue::Counter(1))
        );
        assert!(snap.get("router.replica0.outstanding").is_some());
    }
}
