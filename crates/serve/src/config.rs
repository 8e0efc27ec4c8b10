//! Serving configuration: batch shape, KV budget, backpressure knobs.

use infuserki_tensor::kernels;

/// Tunables of the continuous-batching scheduler.
///
/// The **KV-row budget** is the scheduler's unit of memory admission
/// control: every admitted request reserves, up front, the worst-case number
/// of cache rows it can ever occupy, rounded up to whole KV blocks of
/// `block_rows` (prefix + prompt + decode budget, per sequence it will own —
/// MCQ requests also pay each multi-token option branch, net of the full
/// prompt blocks the branches share). Rows held by the cross-request prefix
/// cache count against the same budget; under pressure the scheduler evicts
/// cold cached prefixes before making a request wait. Requests whose
/// reservation cannot fit the whole budget are rejected with a typed error
/// at submission; requests that fit the budget but not the *currently free*
/// rows wait in the queue until running sequences retire.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Total KV rows (per layer, summed over live sequences) the scheduler
    /// may reserve at once.
    pub kv_budget_rows: usize,
    /// Token rows per paged-KV block — the granularity of allocation,
    /// sharing and prefix-cache reuse. Every full prompt block is indexed in
    /// the cross-request prefix cache, so a later request with a matching
    /// token prefix adopts it and skips that prefill; the cache is safe for
    /// every hook (a block holds all a sequence carries past it: its K/V
    /// rows and the gate's running sums; entries are keyed by bundle
    /// version). Smaller blocks share shorter common prefixes but cost more
    /// per-block kernel dispatches.
    pub block_rows: usize,
    /// Maximum number of requests admitted into the running batch at once.
    /// MCQ option branches spawned by an already-admitted request do not
    /// count against this cap (their rows were reserved at admission).
    pub max_batch: usize,
    /// Maximum prompt (or option-script) tokens fed per sequence per step.
    /// Chunked prefill: a long prompt advances `prefill_chunk` tokens per
    /// scheduler step while every decode lane still advances its one token,
    /// so a newcomer with a huge prompt cannot stall the live batch. A
    /// prompt chunk is cut back to the last block boundary it crosses, so
    /// each full block is indexed the step it fills.
    pub prefill_chunk: usize,
    /// Bounded queue depth; submissions beyond it are rejected with
    /// [`crate::RejectReason::QueueFull`] (backpressure, not a hang).
    pub queue_capacity: usize,
    /// Kernel worker threads; `None` resolves the shared `INFUSERKI_THREADS`
    /// knob via [`kernels::env_thread_count`].
    pub threads: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            kv_budget_rows: 4096,
            block_rows: 16,
            max_batch: 16,
            prefill_chunk: 32,
            queue_capacity: 256,
            threads: None,
        }
    }
}

impl ServeConfig {
    /// Validates the knobs (every count must be nonzero).
    pub fn validate(&self) -> Result<(), String> {
        if self.kv_budget_rows == 0 {
            return Err("ServeConfig: kv_budget_rows must be at least 1".into());
        }
        if self.block_rows == 0 {
            return Err("ServeConfig: block_rows must be at least 1".into());
        }
        if self.max_batch == 0 {
            return Err("ServeConfig: max_batch must be at least 1".into());
        }
        if self.prefill_chunk == 0 {
            return Err("ServeConfig: prefill_chunk must be at least 1".into());
        }
        if self.queue_capacity == 0 {
            return Err("ServeConfig: queue_capacity must be at least 1".into());
        }
        if self.threads == Some(0) {
            return Err("ServeConfig: threads must be at least 1 when set".into());
        }
        Ok(())
    }

    /// Resolves the worker-thread count: the explicit `threads` field wins,
    /// otherwise the shared `INFUSERKI_THREADS` env knob (strictly parsed —
    /// `0` and garbage are errors, exactly as the kernels treat it),
    /// otherwise available parallelism.
    pub fn resolve_threads(&self) -> Result<usize, String> {
        if let Some(n) = self.threads {
            if n == 0 {
                return Err("ServeConfig: threads must be at least 1 when set".into());
            }
            return Ok(n);
        }
        Ok(kernels::env_thread_count()?
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get())))
    }

    /// Resolves and installs the worker-thread count process-wide
    /// ([`kernels::set_num_threads`]). The `serve` binary calls this at
    /// startup so a mistyped knob fails loudly before the listener binds.
    pub fn apply_threads(&self) -> Result<usize, String> {
        let n = self.resolve_threads()?;
        kernels::set_num_threads(n);
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        assert!(ServeConfig::default().validate().is_ok());
    }

    #[test]
    fn zero_knobs_are_rejected() {
        for f in [
            |c: &mut ServeConfig| c.kv_budget_rows = 0,
            |c: &mut ServeConfig| c.block_rows = 0,
            |c: &mut ServeConfig| c.max_batch = 0,
            |c: &mut ServeConfig| c.prefill_chunk = 0,
            |c: &mut ServeConfig| c.queue_capacity = 0,
            |c: &mut ServeConfig| c.threads = Some(0),
        ] {
            let mut c = ServeConfig::default();
            f(&mut c);
            assert!(c.validate().is_err());
        }
    }

    #[test]
    fn explicit_threads_resolve_without_env() {
        let cfg = ServeConfig {
            threads: Some(3),
            ..ServeConfig::default()
        };
        assert_eq!(cfg.resolve_threads(), Ok(3));
    }
}
