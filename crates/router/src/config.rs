//! Router configuration: replica count and per-tenant shaping knobs on top
//! of the per-replica [`ServeConfig`].

use infuserki_serve::ServeConfig;

/// Configuration of a multi-replica router front.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Number of model replicas, each its own scheduler thread with its own
    /// KV block pool and budget.
    pub replicas: usize,
    /// Per-replica scheduler configuration (every replica gets a clone).
    pub serve: ServeConfig,
    /// Bound of each tenant's pending queue; a submission past it is
    /// rejected [`infuserki_serve::RejectReason::TenantQueueFull`]
    /// (backpressure per tenant, so one tenant's backlog never consumes
    /// another's headroom).
    pub tenant_queue_capacity: usize,
    /// Maximum requests a tenant may have in flight across the fleet
    /// (dispatched, not yet responded). 0 = unlimited.
    pub max_tenant_inflight: usize,
    /// Token-bucket burst size per tenant. Only meaningful with
    /// [`RouterConfig::tenant_refill_per_sec`] > 0; clamped up to 1.
    pub tenant_bucket_capacity: f64,
    /// Token-bucket refill rate per tenant (requests/second). Each dispatch
    /// spends one token; an empty bucket delays (shapes) the tenant's queue
    /// rather than rejecting. 0 disables rate limiting.
    pub tenant_refill_per_sec: f64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            replicas: 1,
            serve: ServeConfig::default(),
            tenant_queue_capacity: 256,
            max_tenant_inflight: 0,
            tenant_bucket_capacity: 0.0,
            tenant_refill_per_sec: 0.0,
        }
    }
}

impl RouterConfig {
    /// Checks internal consistency; every field that is a count must be
    /// meaningful and the serve config must validate itself.
    pub fn validate(&self) -> Result<(), String> {
        if self.replicas == 0 {
            return Err("router: replicas must be at least 1".into());
        }
        if self.tenant_queue_capacity == 0 {
            return Err("router: tenant_queue_capacity must be at least 1".into());
        }
        if self.tenant_refill_per_sec < 0.0 || self.tenant_bucket_capacity < 0.0 {
            return Err("router: token-bucket knobs must be non-negative".into());
        }
        self.serve.validate().map_err(|e| format!("router: {e}"))
    }

    /// Whether per-tenant token-bucket rate limiting is enabled.
    pub fn rate_limited(&self) -> bool {
        self.tenant_refill_per_sec > 0.0
    }

    /// Effective burst size when rate limiting is on (at least one token,
    /// or dispatch could never proceed).
    pub fn bucket_capacity(&self) -> f64 {
        self.tenant_bucket_capacity.max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        assert!(RouterConfig::default().validate().is_ok());
    }

    #[test]
    fn zero_counts_are_rejected() {
        let mut c = RouterConfig {
            replicas: 0,
            ..RouterConfig::default()
        };
        assert!(c.validate().is_err());
        c.replicas = 1;
        c.tenant_queue_capacity = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn bucket_capacity_clamps_to_one() {
        let c = RouterConfig {
            tenant_refill_per_sec: 5.0,
            tenant_bucket_capacity: 0.25,
            ..RouterConfig::default()
        };
        assert!(c.rate_limited());
        assert_eq!(c.bucket_capacity(), 1.0);
    }
}
