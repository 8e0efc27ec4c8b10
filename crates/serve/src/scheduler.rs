//! The continuous-batching scheduler core.
//!
//! One [`Scheduler`] owns a [`BundleRegistry`] of knowledge versions and one
//! ragged KV cache *per live version* (a version group) holding that
//! version's *lanes*. A lane is one cache sequence working through one
//! script: a request's prompt, a generate request's last output token, or
//! an MCQ option's score script (`option[..len-1]`). A request resolves its
//! version at admission — its explicit `bundle` pin, or whatever is active
//! right then — and stays on that version's hook until it retires, no
//! matter how many promotes/rollbacks happen meanwhile. Each
//! [`Scheduler::step`]:
//!
//! 1. **Sweeps** cancelled and deadline-expired requests out of the batch
//!    ([`infuserki_nn::KvCache::retain_indices`]).
//! 2. **Admits** queued requests — highest priority first, FIFO on ties —
//!    while the batch has request slots free *and* the head's worst-case
//!    KV-row reservation fits the budget. Admission is strictly in queue
//!    order (no bypass), so a large head waits for rows rather than being
//!    starved by small late arrivals. A prompt whose leading full blocks are
//!    in the prefix index adopts them and starts past them.
//! 3. Builds one chunk per lane — up to [`crate::ServeConfig::prefill_chunk`]
//!    prompt or option-script tokens, a prompt chunk cut back to the last
//!    block boundary it crosses so every full prompt block is indexed;
//!    exactly one token for decode lanes — and advances each version group
//!    with one [`infuserki_nn::TransformerLm::extend_cached_batch`] call (one
//!    forward per live version per step; splitting the batch by version is
//!    bitwise free because batching is bitwise-invariant). Chunked prefill
//!    means a newcomer with a long prompt joins the batch gradually while
//!    every live decode lane still produces its token each step.
//! 4. Retires finished lanes, spawns MCQ option branches (gathered from the
//!    prompt's cache *before* the prompt lane is dropped), back-fills the
//!    cache, and responds to finished requests.
//!
//! The steps live in sibling modules: admission (sweep, admit, open lane),
//! lanes (chunk plan, advance, retire) and control (load, promote,
//! rollback, list); [`crate::limits`] holds the reservation arithmetic.
//!
//! # Equivalence
//!
//! The per-lane math replicates, float-op for float-op, the single-request
//! paths in [`infuserki_nn::sampler`]: greedy lanes reproduce the candidate /
//! eos-check / push / limit-check order of `greedy_decode`, and MCQ lanes
//! reproduce `score_options`' first-token log-softmax plus ascending
//! per-position accumulation over each option branch. Combined with the
//! runtime's batch- and chunking-equivalence guarantees this gives the crown
//! property: at one kernel thread, every response is bitwise identical to
//! running that request alone, regardless of batch composition (proved by
//! `tests/serve_differential.rs` under randomized arrival/cancel schedules).
//!
//! Beam requests (`beam_width > 1`) maintain `beam_width` forked caches with
//! their own pruning schedule; interleaving that with the continuous batch
//! buys little and complicates retirement, so they run atomically on the
//! single-request [`infuserki_nn::sampler::beam_search`] path at admission —
//! trivially equivalent, at the cost of stalling the batch for their
//! duration.

use std::sync::Arc;
use std::time::Instant;

use infuserki_obs as obs;

use infuserki_nn::{KvCache, LayerHook, PoolHandle, PrefixIndex, TransformerLm};

use crate::config::ServeConfig;
use crate::limits::EngineLimits;
use crate::metrics::{MetricsSnapshot, ServeMetrics};
use crate::queue::RequestQueue;
use crate::registry::{BundleRegistry, HookArc};
use crate::request::{Outcome, RejectReason, Request};

/// Which script a lane is feeding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// The request's prompt.
    Prompt,
    /// A generate request's last output token, exactly as the single-path
    /// loop carries it.
    Decode,
    /// MCQ option `i`'s score script, `option[..len-1]`.
    Option(usize),
}

/// A live cache sequence: the request slot it serves, how many tokens of
/// its script it has fed, and which script that is.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lane {
    pub(crate) slot: usize,
    pub(crate) fed: usize,
    pub(crate) phase: Phase,
}

/// Per-admitted-request state.
#[derive(Debug)]
pub(crate) struct InFlight {
    pub(crate) req: Request,
    /// KV rows reserved at admission, released when the slot frees.
    pub(crate) cost: usize,
    /// Generated tokens (generate requests).
    pub(crate) out: Vec<usize>,
    /// Per-option accumulated log-likelihood (MCQ requests).
    pub(crate) scores: Vec<f32>,
    /// Option branches still extending (MCQ requests).
    pub(crate) branches_left: usize,
}

/// What one [`Scheduler::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepReport {
    /// Whether a batched forward ran (false = idle step).
    pub ran_forward: bool,
    /// Requests admitted this step (including ones answered inline).
    pub admitted: usize,
    /// Requests that reached a terminal outcome this step.
    pub finished: usize,
    /// Lanes live after the step.
    pub active_lanes: usize,
    /// Queue depth after the step.
    pub queue_depth: usize,
}

/// All live state of one knowledge version: its hook, its ragged KV cache,
/// and the lanes running on it. Groups exist only while they have lanes; a
/// version with no in-flight work costs nothing per step.
pub(crate) struct VersionGroup<'a> {
    pub(crate) version: u32,
    pub(crate) hook: HookArc<'a>,
    /// The live ragged cache; lane `i` is cache sequence `i`.
    pub(crate) cache: KvCache,
    pub(crate) lanes: Vec<Lane>,
}

/// The continuous-batching scheduler. Single-threaded by design: drive it
/// directly for deterministic tests, or hand it to [`crate::spawn_scheduler`]
/// to run on its own thread behind a [`crate::Client`]. Dropping it — a
/// panic unwinding its thread included — answers every request it still
/// holds [`RejectReason::ReplicaFailed`].
pub struct Scheduler<'a> {
    pub(crate) model: &'a TransformerLm,
    /// Knowledge versions; version 0 is the construction hook.
    pub(crate) registry: BundleRegistry<'a>,
    pub(crate) cfg: ServeConfig,
    pub(crate) limits: EngineLimits,
    pub(crate) queue: RequestQueue,
    /// Per-version live state; empty iff no lanes are live anywhere.
    pub(crate) groups: Vec<VersionGroup<'a>>,
    /// The one paged block pool every lane cache (and the prefix index)
    /// allocates from, so blocks are shareable across requests.
    pub(crate) pool: PoolHandle,
    /// Radix index over cached full-block token prefixes, namespaced by
    /// bundle version; hits fork their blocks copy-on-write into the new
    /// lane and skip that much prefill.
    pub(crate) index: PrefixIndex,
    pub(crate) slots: Vec<Option<InFlight>>,
    pub(crate) free_slots: Vec<usize>,
    pub(crate) reserved_rows: usize,
    pub(crate) metrics: Arc<ServeMetrics>,
    pub(crate) draining: bool,
}

impl<'a> Scheduler<'a> {
    /// Builds a scheduler over `model` + `hook`; `hook` becomes knowledge
    /// version 0, active. Any hook serves. Fails on invalid config.
    pub fn new(
        model: &'a TransformerLm,
        hook: &'a dyn LayerHook,
        cfg: ServeConfig,
    ) -> Result<Self, String> {
        cfg.validate()?;
        let limits = EngineLimits {
            vocab_size: model.config().vocab_size,
            max_seq: model.config().max_seq,
            prefix_rows: model.max_prefix_rows(hook),
            kv_budget_rows: cfg.kv_budget_rows,
            queue_capacity: cfg.queue_capacity,
            block_rows: cfg.block_rows,
        };
        let slots = (0..cfg.max_batch).map(|_| None).collect::<Vec<_>>();
        let free_slots = (0..cfg.max_batch).rev().collect();
        let metrics = Arc::new(ServeMetrics::new());
        // `&dyn LayerHook` is `Send + Sync` (the trait requires `Sync`) and
        // implements `LayerHook` by forwarding, so a borrowed hook shares
        // through `Arc` exactly like an owned bundle hook.
        let registry = BundleRegistry::new(Arc::new(hook) as HookArc<'a>, &metrics);
        Ok(Scheduler {
            model,
            registry,
            queue: RequestQueue::new(cfg.queue_capacity),
            limits,
            pool: model.new_pool(cfg.block_rows),
            index: PrefixIndex::new(cfg.block_rows),
            cfg,
            groups: Vec::new(),
            slots,
            free_slots,
            reserved_rows: 0,
            metrics,
            draining: false,
        })
    }

    /// The model-derived admission limits.
    pub fn limits(&self) -> &EngineLimits {
        &self.limits
    }

    /// Shared handle to the raw metrics (all-atomic: no lock to take).
    pub fn metrics(&self) -> Arc<ServeMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Point-in-time metrics snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Whether stepping would make progress (queued or live work exists).
    pub fn has_work(&self) -> bool {
        !self.queue.is_empty() || !self.groups.is_empty()
    }

    /// Stops accepting new requests; in-flight and queued work still runs.
    pub fn begin_drain(&mut self) {
        self.draining = true;
    }

    /// Rejects everything still queued with
    /// [`RejectReason::ShuttingDown`] (bounded shutdown: live lanes finish,
    /// queued work does not start).
    pub fn reject_queued_for_shutdown(&mut self) {
        let entries = self.queue.drain();
        let n = entries.len() as u64;
        for e in entries {
            e.request
                .respond(Outcome::Rejected(RejectReason::ShuttingDown));
        }
        self.metrics.rejected_shutdown.add(n);
        self.metrics.queue_depth.set(0);
    }

    /// Validates and enqueues a request. Every outcome — including
    /// rejection — is delivered on the request's response channel, so this
    /// never fails synchronously.
    pub fn enqueue(&mut self, req: Request) {
        if self.draining {
            req.respond(Outcome::Rejected(RejectReason::ShuttingDown));
            self.metrics.rejected_shutdown.inc();
            return;
        }
        // An explicit version pin must exist *now*; versions are never
        // unloaded, so a pin that validates here stays resolvable at
        // admission no matter what control ops run in between.
        if let Some(v) = req.bundle {
            if self.registry.get(v).is_none() {
                self.metrics.rejected_invalid.inc();
                req.respond(Outcome::Rejected(RejectReason::UnknownBundle {
                    version: v,
                }));
                return;
            }
        }
        let cost = match self.limits.validate(&req.kind) {
            Ok(c) => c,
            Err(reason) => {
                match reason {
                    RejectReason::BudgetExceeded { .. } => self.metrics.rejected_budget.inc(),
                    _ => self.metrics.rejected_invalid.inc(),
                }
                req.respond(Outcome::Rejected(reason));
                return;
            }
        };
        match self.queue.try_push(req, cost) {
            Ok(()) => {
                self.metrics.submitted.inc();
                self.metrics.queue_depth.set(self.queue.len() as i64);
            }
            Err(req) => {
                self.metrics.rejected_queue_full.inc();
                req.respond(Outcome::Rejected(RejectReason::QueueFull {
                    capacity: self.queue.capacity(),
                }));
            }
        }
    }

    /// Runs one scheduling step (sweep, admit, forward, retire).
    pub fn step(&mut self) -> StepReport {
        let _sp = obs::enabled().then(|| obs::span("serve.step"));
        let now = Instant::now();
        self.sweep_dead(now);
        let admitted = self.admit(now);
        if self.groups.is_empty() {
            let m = &self.metrics;
            m.idle_steps.inc();
            m.queue_depth.set(self.queue.len() as i64);
            m.active_lanes.set(0);
            m.active_requests.set(0);
            m.reserved_rows.set(self.reserved_rows as i64);
            self.set_block_gauges();
            return StepReport {
                ran_forward: false,
                admitted,
                finished: 0,
                active_lanes: 0,
                queue_depth: self.queue.len(),
            };
        }
        let finished = self.advance_lanes();
        let active_lanes: usize = self.groups.iter().map(|g| g.lanes.len()).sum();
        let report = StepReport {
            ran_forward: true,
            admitted,
            finished,
            active_lanes,
            queue_depth: self.queue.len(),
        };
        let m = &self.metrics;
        m.queue_depth.set(self.queue.len() as i64);
        m.active_lanes.set(active_lanes as i64);
        m.active_requests
            .set(self.slots.iter().filter(|s| s.is_some()).count() as i64);
        m.reserved_rows.set(self.reserved_rows as i64);
        let used = self
            .groups
            .iter()
            .map(|g| g.cache.rows_used())
            .sum::<usize>() as i64;
        m.kv_rows_used.set(used);
        m.kv_rows_peak.set_max(used);
        self.set_block_gauges();
        report
    }

    /// Publishes the paged-pool occupancy gauges.
    fn set_block_gauges(&self) {
        let (live, peak) = {
            let pool = self.pool.lock();
            (pool.live_blocks() as i64, pool.peak_blocks() as i64)
        };
        self.metrics.blocks_live.set(live);
        self.metrics.blocks_peak.set_max(peak);
    }

    /// Steps until neither queued nor live work remains; returns the number
    /// of steps run. Terminates because every queued request's reservation
    /// fits the whole budget (validated at enqueue), so once the batch
    /// drains the head is always admissible.
    pub fn run_until_idle(&mut self) -> usize {
        let mut steps = 0;
        while self.has_work() {
            self.step();
            steps += 1;
        }
        steps
    }

    /// Responds, releases the reservation and frees the slot. Lanes are the
    /// caller's responsibility.
    pub(crate) fn finish_slot(&mut self, slot: usize, outcome: Outcome) {
        let inf = self.slots[slot].take().expect("finishing a live slot");
        inf.req.respond(outcome);
        self.reserved_rows -= inf.cost;
        self.free_slots.push(slot);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::request::{GenerateSpec, RequestKind, Response};
    use infuserki_nn::{ModelConfig, NoHook};
    use infuserki_tensor::kernels;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::sync::mpsc;

    pub(crate) fn model() -> TransformerLm {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        TransformerLm::new(ModelConfig::tiny(30), &mut rng)
    }

    pub(crate) fn submit(
        sched: &mut Scheduler<'_>,
        id: u64,
        kind: RequestKind,
    ) -> mpsc::Receiver<Response> {
        let (tx, rx) = mpsc::channel();
        sched.enqueue(Request::new(id, kind, tx));
        rx
    }

    #[test]
    fn invalid_requests_get_typed_rejections() {
        let m = model();
        let mut sched = Scheduler::new(&m, &NoHook, ServeConfig::default()).unwrap();
        let rx = submit(
            &mut sched,
            0,
            RequestKind::Generate(GenerateSpec::greedy(Vec::new(), 4, None)),
        );
        match rx.try_recv().unwrap().outcome {
            Outcome::Rejected(RejectReason::Invalid(msg)) => {
                assert!(msg.contains("empty prompt"));
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        let rx = submit(
            &mut sched,
            1,
            RequestKind::Generate(GenerateSpec::greedy(vec![999], 4, None)),
        );
        assert!(matches!(
            rx.try_recv().unwrap().outcome,
            Outcome::Rejected(RejectReason::Invalid(_))
        ));
    }

    #[test]
    fn kv_rows_return_to_zero_after_drain() {
        kernels::set_num_threads(1);
        let m = model();
        let mut sched = Scheduler::new(&m, &NoHook, ServeConfig::default()).unwrap();
        let _rx = submit(
            &mut sched,
            0,
            RequestKind::Generate(GenerateSpec::greedy(vec![1, 2], 4, None)),
        );
        sched.run_until_idle();
        assert_eq!(sched.reserved_rows, 0);
        assert!(
            sched.groups.is_empty(),
            "drained scheduler holds no version groups (or caches)"
        );
        let snap = sched.snapshot();
        assert_eq!(snap.completed, 1);
        assert!(snap.kv_rows_peak > 0);
    }

    #[test]
    fn unknown_bundle_pin_is_rejected_at_enqueue() {
        let m = model();
        let mut sched = Scheduler::new(&m, &NoHook, ServeConfig::default()).unwrap();
        let (tx, rx) = mpsc::channel();
        let req = Request::new(
            0,
            RequestKind::Generate(GenerateSpec::greedy(vec![1, 2], 2, None)),
            tx,
        )
        .with_bundle(7);
        sched.enqueue(req);
        assert_eq!(
            rx.try_recv().unwrap().outcome,
            Outcome::Rejected(RejectReason::UnknownBundle { version: 7 })
        );
        // Version 0 (the construction hook) always exists and is pinnable.
        let (tx, rx) = mpsc::channel();
        sched.enqueue(
            Request::new(
                1,
                RequestKind::Generate(GenerateSpec::greedy(vec![1, 2], 2, None)),
                tx,
            )
            .with_bundle(0),
        );
        kernels::set_num_threads(1);
        sched.run_until_idle();
        assert!(matches!(
            rx.try_recv().unwrap().outcome,
            Outcome::Generated { .. }
        ));
    }
}
