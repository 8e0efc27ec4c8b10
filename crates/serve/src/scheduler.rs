//! The continuous-batching scheduler core.
//!
//! One [`Scheduler`] owns a [`BundleRegistry`] of knowledge versions and one
//! ragged KV cache *per live version* (a [`VersionGroup`]) holding that
//! version's *lanes* (a cache sequence: a generate request mid-prefill or
//! mid-decode, an MCQ prompt mid-prefill, or one MCQ option branch). A
//! request resolves its version at admission — its explicit `bundle` pin, or
//! whatever is active right then — and stays on that version's hook until it
//! retires, no matter how many promotes/rollbacks happen meanwhile. Each
//! [`Scheduler::step`]:
//!
//! 1. **Sweeps** cancelled and deadline-expired requests out of the batch
//!    ([`infuserki_nn::KvCache::retain_indices`]).
//! 2. **Admits** queued requests — highest priority first, FIFO on ties —
//!    while the batch has request slots free *and* the head's worst-case
//!    KV-row reservation fits the budget. Admission is strictly in queue
//!    order (no bypass), so a large head waits for rows rather than being
//!    starved by small late arrivals.
//! 3. Builds one chunk per lane — up to [`crate::ServeConfig::prefill_chunk`]
//!    prompt tokens for prefilling lanes, exactly one token for decode
//!    lanes — and advances each version group with one
//!    [`infuserki_nn::TransformerLm::extend_cached_batch`] call (one forward
//!    per live version per step; splitting the batch by version is bitwise
//!    free because batching is bitwise-invariant). Chunked prefill means a
//!    newcomer with a long prompt joins the batch gradually while every live
//!    decode lane still produces its token each step.
//! 4. Retires finished lanes, spawns MCQ option branches (gathered from the
//!    prompt's cache *before* the prompt lane is dropped), back-fills the
//!    cache, and responds to finished requests.
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

use infuserki_core::KnowledgeBundle;
use infuserki_nn::sampler::{argmax, beam_search, option_probabilities, score_options};
use infuserki_nn::{KvCache, LayerHook, PoolHandle, PrefixIndex, PrefixMatch, TransformerLm};
use infuserki_tensor::{kernels, Matrix, SeqBatch};

use crate::config::ServeConfig;
use crate::metrics::{MetricsSnapshot, ServeMetrics};
use crate::queue::RequestQueue;
use crate::registry::{
    BundleInfo, BundleRegistry, ControlError, ControlOp, ControlOutcome, GateReport, HookArc,
};
use crate::request::{GenerateSpec, McqSpec, Outcome, RejectReason, Request, RequestKind};

/// Model-derived admission limits, computed once at scheduler construction
/// and shared with clients so they can reject impossible requests
/// synchronously.
#[derive(Debug, Clone)]
pub struct EngineLimits {
    /// Vocabulary size; every token id must be below it.
    pub vocab_size: usize,
    /// Model context length.
    pub max_seq: usize,
    /// Widest per-layer prefix-tuning K/V block the hook prepends to every
    /// cached sequence ([`TransformerLm::max_prefix_rows`]).
    pub prefix_rows: usize,
    /// Total KV-row budget ([`ServeConfig::kv_budget_rows`]).
    pub kv_budget_rows: usize,
    /// Queue capacity ([`ServeConfig::queue_capacity`]).
    pub queue_capacity: usize,
    /// Paged-KV block granularity ([`ServeConfig::block_rows`]); every
    /// reservation is rounded up to whole blocks.
    pub block_rows: usize,
}

impl EngineLimits {
    /// `rows` rounded up to whole KV blocks.
    fn block_span(&self, rows: usize) -> usize {
        rows.div_ceil(self.block_rows) * self.block_rows
    }

    /// Worst-case KV rows `kind` can ever occupy at any single moment:
    /// prefix-tuning virtual rows plus whole-block token rows, per sequence
    /// it owns. Beam requests pay per beam.
    ///
    /// MCQ requests run in two phases that never coexist — the prompt lane
    /// prefills, retires, and only then do the option branches extend
    /// copy-on-write forks of its blocks — so the reservation is the *max*
    /// of the phases, with the prompt's full blocks charged once (branches
    /// share them by reference). Summing the phases instead (as a naive
    /// worst-case would) double-counts the prompt rows and the prefix-tuning
    /// virtual rows of the early-retired prompt lane.
    pub fn cost(&self, kind: &RequestKind) -> usize {
        match kind {
            RequestKind::Generate(g) => {
                let per_seq = self.prefix_rows
                    + self.block_span((g.prompt.len() + g.max_new).min(self.max_seq));
                per_seq * g.beam_width.max(1)
            }
            RequestKind::Mcq(m) => {
                let prompt_phase = self.prefix_rows + self.block_span(m.prompt.len());
                // Full prompt blocks every branch shares by reference.
                let shared = (m.prompt.len() / self.block_rows) * self.block_rows;
                let branch_phase: usize = shared
                    + m.options
                        .iter()
                        .filter(|o| o.len() > 1)
                        .map(|o| {
                            self.prefix_rows + self.block_span(m.prompt.len() + o.len() - 1)
                                - shared
                        })
                        .sum::<usize>();
                prompt_phase.max(branch_phase)
            }
        }
    }

    /// Validates `kind`, returning its KV-row cost on success.
    pub fn validate(&self, kind: &RequestKind) -> Result<usize, RejectReason> {
        let invalid = |msg: &str| Err(RejectReason::Invalid(msg.into()));
        let check_tokens = |toks: &[usize]| -> Result<(), RejectReason> {
            match toks.iter().find(|&&t| t >= self.vocab_size) {
                Some(&t) => Err(RejectReason::Invalid(format!(
                    "token {t} out of range for vocab {}",
                    self.vocab_size
                ))),
                None => Ok(()),
            }
        };
        match kind {
            RequestKind::Generate(g) => {
                if g.prompt.is_empty() {
                    return invalid("empty prompt");
                }
                if g.beam_width == 0 {
                    return invalid("beam_width must be at least 1");
                }
                check_tokens(&g.prompt)?;
            }
            RequestKind::Mcq(m) => {
                if m.prompt.is_empty() {
                    return invalid("empty prompt");
                }
                if m.options.is_empty() {
                    return invalid("MCQ request with no options");
                }
                if m.options.iter().any(|o| o.is_empty()) {
                    return invalid("empty option");
                }
                check_tokens(&m.prompt)?;
                for o in &m.options {
                    check_tokens(o)?;
                }
                let longest = m.options.iter().map(|o| o.len()).max().unwrap();
                if m.prompt.len() + longest - 1 > self.max_seq {
                    return invalid("prompt plus option exceeds the model context");
                }
            }
        }
        let cost = self.cost(kind);
        if cost > self.kv_budget_rows {
            return Err(RejectReason::BudgetExceeded {
                cost,
                budget: self.kv_budget_rows,
            });
        }
        Ok(cost)
    }
}

/// What one lane (cache sequence) is doing.
#[derive(Debug, Clone, Copy)]
enum LaneRole {
    /// Feeding a generate request's prompt, `fed` tokens in.
    GenPrefill { fed: usize },
    /// Decoding: the token about to be fed is the last one pushed to the
    /// request's output, exactly as the single-path loop carries it.
    GenDecode,
    /// Feeding an MCQ request's prompt.
    McqPrefill { fed: usize },
    /// Extending option `opt`'s branch with its score script
    /// (`option[..len-1]`), `fed` tokens in.
    McqBranch { opt: usize, fed: usize },
}

/// A live cache sequence: which request slot it serves and its role.
#[derive(Debug, Clone, Copy)]
struct Lane {
    slot: usize,
    role: LaneRole,
}

/// Per-admitted-request state.
#[derive(Debug)]
struct InFlight {
    req: Request,
    /// KV rows reserved at admission, released when the slot frees.
    cost: usize,
    /// Generated tokens (generate requests).
    out: Vec<usize>,
    /// Per-option accumulated log-likelihood (MCQ requests).
    scores: Vec<f32>,
    /// Option branches still extending (MCQ requests).
    branches_left: usize,
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
struct VersionGroup<'a> {
    version: u32,
    hook: HookArc<'a>,
    /// The live ragged cache; lane `i` is cache sequence `i`.
    cache: KvCache,
    lanes: Vec<Lane>,
}

/// The continuous-batching scheduler. Single-threaded by design: drive it
/// directly for deterministic tests, or hand it to [`crate::spawn_scheduler`]
/// to run on its own thread behind a [`crate::Client`]. Dropping it — a
/// panic unwinding its thread included — answers every request it still
/// holds [`RejectReason::ReplicaFailed`].
pub struct Scheduler<'a> {
    model: &'a TransformerLm,
    /// Knowledge versions; version 0 is the construction hook.
    registry: BundleRegistry<'a>,
    cfg: ServeConfig,
    limits: EngineLimits,
    queue: RequestQueue,
    /// Per-version live state; empty iff no lanes are live anywhere.
    groups: Vec<VersionGroup<'a>>,
    /// The one paged block pool every lane cache (and the prefix index)
    /// allocates from, so blocks are shareable across requests.
    pool: PoolHandle,
    /// Radix index over cached full-block token prefixes, namespaced by
    /// bundle version; hits fork their blocks copy-on-write into the new
    /// lane and skip that much prefill.
    index: PrefixIndex,
    slots: Vec<Option<InFlight>>,
    free_slots: Vec<usize>,
    reserved_rows: usize,
    metrics: Arc<ServeMetrics>,
    draining: bool,
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

    // ----- knowledge-bundle control plane ----------------------------------

    /// The version unpinned requests resolve to at admission.
    pub fn active_version(&self) -> u32 {
        self.registry.active_version()
    }

    /// Executes one control op. Runs between steps on the scheduler thread,
    /// so a swap can never tear a batch: every in-flight lane keeps the hook
    /// its request resolved at admission.
    pub fn handle_control(&mut self, op: ControlOp) -> Result<ControlOutcome, ControlError> {
        match op {
            ControlOp::LoadBundle { path } => self.load_bundle(&path).map(ControlOutcome::Loaded),
            ControlOp::Promote { version } => self
                .promote(version)
                .map(|gate| ControlOutcome::Promoted { version, gate }),
            ControlOp::Rollback => self
                .rollback()
                .map(|version| ControlOutcome::RolledBack { version }),
            ControlOp::ListBundles => Ok(ControlOutcome::Bundles(self.list_bundles())),
        }
    }

    /// Loads, verifies and stages a [`KnowledgeBundle`] file. The new
    /// version is immediately pinnable (`bundle: v` on requests) but does
    /// not serve unpinned traffic until [`Scheduler::promote`].
    pub fn load_bundle(&mut self, path: &str) -> Result<BundleInfo, ControlError> {
        let bundle = KnowledgeBundle::load(path).map_err(ControlError::Bundle)?;
        bundle
            .verify(self.model)
            .map_err(ControlError::Incompatible)?;
        let KnowledgeBundle {
            name,
            config_fingerprint,
            stamp,
            gate_probes,
            method,
            ..
        } = bundle;
        let hook: HookArc<'static> = Arc::new(method);
        // EngineLimits (and every client's synchronous validation) bake in
        // the base hook's prefix-row width; a bundle changing it would make
        // admitted reservations wrong for its lanes.
        let rows = self.model.max_prefix_rows(hook.as_ref());
        if rows != self.limits.prefix_rows {
            return Err(ControlError::Incompatible(format!(
                "bundle '{name}' needs {rows} prefix K/V rows per layer but the engine was \
                 sized for {}",
                self.limits.prefix_rows
            )));
        }
        let v = self.registry.stage(
            name,
            config_fingerprint,
            stamp,
            gate_probes,
            hook,
            &self.metrics,
        );
        Ok(self.registry.info(v))
    }

    /// Promotes a staged version to active after the NR regression gate
    /// passes: on the bundle's held-out known-set probes, the candidate must
    /// answer at least as many correctly as the currently active version
    /// (the paper's knowledge-retention test, enforced online). The
    /// gate runs single-request sampler calls on the scheduler thread — a
    /// promote blocks the batch for the probe forwards, which is the price
    /// of gating on the exact serving weights.
    pub fn promote(&mut self, version: u32) -> Result<Option<GateReport>, ControlError> {
        let active = self.registry.active_version();
        if self.registry.get(version).is_none() {
            return Err(ControlError::UnknownVersion(version));
        }
        if version == active {
            return Err(ControlError::AlreadyActive(version));
        }
        let gate = {
            let staged = self.registry.get(version).unwrap();
            if staged.gate_probes.is_empty() {
                None
            } else {
                let active_hook = self.registry.get(active).unwrap().hook.clone();
                let probes = &staged.gate_probes;
                let mut report = GateReport {
                    probes: probes.len(),
                    staged_correct: 0,
                    active_correct: 0,
                };
                for p in probes {
                    if probe_answer(self.model, staged.hook.as_ref(), p) == p.correct {
                        report.staged_correct += 1;
                    }
                    if probe_answer(self.model, active_hook.as_ref(), p) == p.correct {
                        report.active_correct += 1;
                    }
                }
                if report.staged_correct < report.active_correct {
                    self.metrics.bundle_rejected_promotions.inc();
                    return Err(ControlError::NrGateFailed {
                        version,
                        gate: report,
                    });
                }
                Some(report)
            }
        };
        self.registry.promote(version);
        self.metrics.bundle_swaps.inc();
        self.metrics.bundle_active_version.set(version as i64);
        Ok(gate)
    }

    /// Restores the previously active version (no gate: rollback is the
    /// escape hatch and must never be refused). Returns the now-active
    /// version.
    pub fn rollback(&mut self) -> Result<u32, ControlError> {
        let v = self
            .registry
            .rollback()
            .ok_or(ControlError::NothingToRollBack)?;
        self.metrics.bundle_rollbacks.inc();
        self.metrics.bundle_active_version.set(v as i64);
        Ok(v)
    }

    /// Every registered version, in version order.
    pub fn list_bundles(&self) -> Vec<BundleInfo> {
        self.registry.list()
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

    // ----- internals -------------------------------------------------------

    /// Retires every lane whose request was cancelled or deadline-expired,
    /// responding accordingly.
    fn sweep_dead(&mut self, now: Instant) {
        if self.groups.is_empty() {
            return;
        }
        let mut any_dead = false;
        for slot in 0..self.slots.len() {
            let Some(inf) = &self.slots[slot] else {
                continue;
            };
            let outcome = if inf.req.cancel.is_cancelled() {
                Some(Outcome::Cancelled)
            } else if inf.req.expired_at(now) {
                Some(Outcome::Expired)
            } else {
                None
            };
            if let Some(outcome) = outcome {
                match outcome {
                    Outcome::Cancelled => self.metrics.cancelled.inc(),
                    _ => self.metrics.expired.inc(),
                }
                self.finish_slot(slot, outcome);
                any_dead = true;
            }
        }
        if !any_dead {
            return;
        }
        let mut groups = std::mem::take(&mut self.groups);
        for g in &mut groups {
            let keep: Vec<usize> = (0..g.lanes.len())
                .filter(|&i| self.slots[g.lanes[i].slot].is_some())
                .collect();
            if keep.len() == g.lanes.len() {
                continue;
            }
            if keep.is_empty() {
                // Dropping the group (below) drops its cache and releases
                // the blocks.
                g.lanes.clear();
                continue;
            }
            g.cache.retain_indices(&keep);
            g.lanes = keep.iter().map(|&i| g.lanes[i]).collect();
            g.cache.compact();
        }
        groups.retain(|g| !g.lanes.is_empty());
        self.groups = groups;
    }

    /// Admits queue heads while slots and budget allow. Returns how many
    /// requests were admitted or answered inline.
    fn admit(&mut self, now: Instant) -> usize {
        let mut admitted = 0;
        while let Some(head) = self.queue.peek() {
            // Dead queue entries are dropped regardless of capacity.
            if head.request.cancel.is_cancelled() {
                let e = self.queue.pop().unwrap();
                e.request.respond(Outcome::Cancelled);
                // Never touched the batch: counted apart from in-flight
                // cancellations so queue churn is visible on its own.
                self.metrics.cancelled_queued.inc();
                continue;
            }
            if head.request.expired_at(now) {
                let e = self.queue.pop().unwrap();
                e.request.respond(Outcome::Expired);
                self.metrics.expired_queued.inc();
                continue;
            }
            if self.free_slots.is_empty() {
                break;
            }
            // Strict queue order: a head that doesn't fit the remaining
            // budget blocks later (smaller) entries, so it cannot starve.
            // Cached-prefix blocks the head would share are discounted from
            // its reservation (it adopts them instead of allocating), and
            // cold cached prefixes are evicted before the head is made to
            // wait — so pinning rows in the index can never deadlock
            // admission.
            // Resolve the head's knowledge version *now*: its explicit pin,
            // or the currently active version. Versions are never unloaded,
            // so a pin validated at enqueue always resolves.
            let version = head
                .request
                .bundle
                .unwrap_or_else(|| self.registry.active_version());
            let prompt = match &head.request.kind {
                RequestKind::Generate(g) if g.beam_width <= 1 && g.max_new > 0 => {
                    Some(g.prompt.as_slice())
                }
                RequestKind::Mcq(m) => Some(m.prompt.as_slice()),
                _ => None,
            };
            let cost = head.cost;
            let hit = loop {
                // Re-run the lookup after every eviction: the evicted leaf
                // may have been on the matched path, invalidating its
                // blocks (they are only pinned at adoption, below). The
                // lookup is namespaced by version: cached blocks are only
                // reusable under the exact hook that produced them.
                let hit = match prompt {
                    Some(p) if self.cfg.prefix_cache => self.index.lookup_in(version as u64, p),
                    _ => None,
                };
                let discount = hit.as_ref().map_or(0, |m| m.tokens);
                if self.reserved_rows + self.index.indexed_rows() + cost - discount
                    <= self.limits.kv_budget_rows
                {
                    break Some((hit, discount));
                }
                if self.index.evict_lru(&mut self.pool.lock()).is_none() {
                    break None;
                }
                self.metrics.blocks_evicted.inc();
            };
            let Some((hit, discount)) = hit else {
                break;
            };
            let entry = self.queue.pop().unwrap();
            self.admit_one(entry.request, version, entry.cost - discount, hit);
            admitted += 1;
        }
        admitted
    }

    /// Admits one request on `version`: answers trivial and beam requests
    /// inline, otherwise reserves rows and opens a prefill lane in the
    /// version's group. `hit` is the cached prefix the admission check
    /// matched (already discounted from `cost`); it is adopted before any
    /// further eviction can free it.
    fn admit_one(&mut self, req: Request, version: u32, cost: usize, hit: Option<PrefixMatch>) {
        self.metrics.admitted.inc();
        let entry = self
            .registry
            .get(version)
            .expect("admit resolved this version");
        entry.served.inc();
        let hook = entry.hook.clone();
        match &req.kind {
            RequestKind::Generate(g) => {
                if g.max_new == 0 || g.prompt.len() >= self.limits.max_seq {
                    // Single-path parity: no budget or no context room emits
                    // nothing (`greedy_decode_batch_limits` filters these
                    // before prefilling).
                    self.record_ttft(&req);
                    req.respond(Outcome::Generated { tokens: Vec::new() });
                    self.metrics.completed.inc();
                    return;
                }
                if g.beam_width > 1 {
                    let tokens = beam_search(
                        self.model,
                        hook.as_ref(),
                        &g.prompt,
                        g.max_new,
                        g.beam_width,
                        g.eos,
                    );
                    self.record_ttft(&req);
                    req.respond(Outcome::Generated { tokens });
                    self.metrics.completed.inc();
                    return;
                }
                self.open_lane(req, version, cost, hit, LaneRole::GenPrefill { fed: 0 });
            }
            RequestKind::Mcq(m) => {
                let scores = vec![0.0; m.options.len()];
                self.open_lane_with(
                    req,
                    version,
                    cost,
                    hit,
                    LaneRole::McqPrefill { fed: 0 },
                    scores,
                );
            }
        }
    }

    fn open_lane(
        &mut self,
        req: Request,
        version: u32,
        cost: usize,
        hit: Option<PrefixMatch>,
        role: LaneRole,
    ) {
        self.open_lane_with(req, version, cost, hit, role, Vec::new());
    }

    fn open_lane_with(
        &mut self,
        req: Request,
        version: u32,
        cost: usize,
        hit: Option<PrefixMatch>,
        role: LaneRole,
        scores: Vec<f32>,
    ) {
        let slot = self.free_slots.pop().expect("admit checked a slot is free");
        self.slots[slot] = Some(InFlight {
            req,
            cost,
            out: Vec::new(),
            scores,
            branches_left: 0,
        });
        self.reserved_rows += cost;
        let metrics = Arc::clone(&self.metrics);
        // Find or create the version's group. Group creation is where a
        // request *pins* its hook: the group holds the version's [`HookArc`]
        // until its last lane retires. `new_cache_in` pre-opens exactly one
        // empty sequence — this lane's.
        let g = match self.groups.iter().position(|g| g.version == version) {
            Some(i) => {
                let fresh = self
                    .model
                    .new_cache_in(self.groups[i].hook.as_ref(), self.pool.clone());
                self.groups[i].cache.absorb(fresh);
                &mut self.groups[i]
            }
            None => {
                let entry = self
                    .registry
                    .get(version)
                    .expect("admit resolved this version");
                self.groups.push(VersionGroup {
                    version,
                    hook: entry.hook.clone(),
                    cache: self
                        .model
                        .new_cache_in(entry.hook.as_ref(), self.pool.clone()),
                    lanes: Vec::new(),
                });
                self.groups.last_mut().unwrap()
            }
        };
        // Prefix-cache hit: adopt the matched blocks by reference (pinning
        // them against eviction) and start prefill past them. The adopted
        // rows are never re-fed; the skipped forward work is the win.
        let mut fed = 0;
        if let Some(m) = hit {
            let lane_idx = g.cache.n_seqs() - 1;
            fed = m.tokens;
            g.cache.adopt_prefix(lane_idx, &m.blocks, m.tokens);
            metrics.prefix_hits.inc();
            metrics.prefix_hit_tokens.add(m.tokens as u64);
        } else if self.cfg.prefix_cache {
            metrics.prefix_misses.inc();
        }
        let role = match role {
            LaneRole::GenPrefill { .. } => LaneRole::GenPrefill { fed },
            LaneRole::McqPrefill { .. } => LaneRole::McqPrefill { fed },
            other => other,
        };
        g.lanes.push(Lane { slot, role });
    }

    /// End of the prompt span a lane at `fed` feeds this step: up to
    /// `prefill_chunk` tokens, cut back to the last block boundary it crosses
    /// when the prefix cache is on, so every full block the chunk fills is
    /// indexed right after it. Chunking is bitwise-invariant, so the cut
    /// changes no output — it only splits the prefill across one more step.
    fn prefill_end(&self, fed: usize, total: usize) -> usize {
        let end = total.min(fed + self.cfg.prefill_chunk);
        if !self.cfg.prefix_cache {
            return end;
        }
        let b = self.cfg.block_rows;
        let cut = end - end % b;
        if cut > fed {
            cut
        } else {
            end
        }
    }

    /// The tokens lane `lane` feeds this step (always non-empty), borrowed
    /// from its request's prompt, option script or output.
    fn lane_chunk(&self, lane: &Lane) -> &[usize] {
        let inf = self.slots[lane.slot]
            .as_ref()
            .expect("lane has a live slot");
        let chunk = self.cfg.prefill_chunk;
        match lane.role {
            LaneRole::GenPrefill { fed } => {
                let p = &gen_spec(&inf.req).prompt;
                &p[fed..self.prefill_end(fed, p.len())]
            }
            LaneRole::GenDecode => &inf.out[inf.out.len() - 1..],
            LaneRole::McqPrefill { fed } => {
                let p = &mcq_spec(&inf.req).prompt;
                &p[fed..self.prefill_end(fed, p.len())]
            }
            LaneRole::McqBranch { opt, fed } => {
                let o = &mcq_spec(&inf.req).options[opt];
                let script = &o[..o.len() - 1];
                &script[fed..(fed + chunk).min(script.len())]
            }
        }
    }

    /// One batched forward per live version group, then per-lane
    /// bookkeeping. Returns the number of requests finished.
    fn advance_lanes(&mut self) -> usize {
        let _sp = obs::enabled().then(|| obs::span("serve.advance_lanes"));
        let t0 = Instant::now();
        let mut groups = std::mem::take(&mut self.groups);
        let mut finished = 0usize;
        let mut lanes_before = 0usize;
        let mut prefill_toks = 0u64;
        let mut decode_toks = 0u64;
        for g in &mut groups {
            lanes_before += g.lanes.len();
            let (f, p, d) = self.advance_group(g);
            finished += f;
            prefill_toks += p;
            decode_toks += d;
        }
        groups.retain(|g| !g.lanes.is_empty());
        self.groups = groups;

        let m = &self.metrics;
        let elapsed = t0.elapsed();
        m.steps.inc();
        m.occupancy_lane_steps.add(lanes_before as u64);
        m.prefill_tokens.add(prefill_toks);
        m.decode_tokens.add(decode_toks);
        m.busy_ns.add(elapsed.as_nanos() as u64);
        m.step_ms.record_duration(elapsed);
        // Each decode lane emits exactly one token per step it advances,
        // so the step's wall time is one time-between-tokens observation.
        if decode_toks > 0 {
            m.tbt_ms.record_duration(elapsed);
        }
        m.completed.add(finished as u64);
        finished
    }

    /// Advances one version group: one batched forward over its lanes under
    /// its pinned hook, then the per-lane bookkeeping. Returns
    /// `(finished, prefill_tokens, decode_tokens)`. A group whose last lane
    /// retires is left empty for the caller to drop (releasing its cache).
    fn advance_group(&mut self, g: &mut VersionGroup<'a>) -> (usize, u64, u64) {
        let chunks: Vec<&[usize]> = g.lanes.iter().map(|l| self.lane_chunk(l)).collect();
        let lens: Vec<usize> = chunks.iter().map(|c| c.len()).collect();
        let cache = &mut g.cache;
        let logits = self
            .model
            .extend_cached_batch(&chunks, g.hook.as_ref(), cache);
        let batch = SeqBatch::from_lens(&lens);

        // Index every prompt prefill that just reached a block boundary:
        // its full blocks (with the gate sums they hold) become adoptable by
        // later requests with the same prefix — in this version's namespace
        // only. This runs before retirement, so even a prompt finishing this
        // step leaves its prefix behind.
        if self.cfg.prefix_cache {
            let b = self.cfg.block_rows;
            let handle = self.pool.clone();
            let mut pool = handle.lock();
            for (i, lane) in g.lanes.iter().enumerate() {
                let inf = self.slots[lane.slot]
                    .as_ref()
                    .expect("lane has a live slot");
                let (fed, prompt) = match lane.role {
                    LaneRole::GenPrefill { fed } => (fed, &gen_spec(&inf.req).prompt),
                    LaneRole::McqPrefill { fed } => (fed, &mcq_spec(&inf.req).prompt),
                    _ => continue,
                };
                let t = fed + lens[i];
                if t.is_multiple_of(b) {
                    self.index.insert_in(
                        &mut pool,
                        g.version as u64,
                        &prompt[..t],
                        &cache.seq_table(i)[..t / b],
                    );
                }
            }
        }

        let lanes = std::mem::take(&mut g.lanes);
        let n_before = lanes.len();
        let mut new_lanes: Vec<Lane> = Vec::with_capacity(n_before);
        let mut keep: Vec<usize> = Vec::with_capacity(n_before);
        // (source lane, slot, option) for every branch spawned this step.
        let mut spawns: Vec<(usize, usize, usize)> = Vec::new();
        let mut finished = 0usize;
        let mut prefill_toks = 0u64;
        let mut decode_toks = 0u64;
        let max_seq = self.limits.max_seq;

        for (i, lane) in lanes.iter().enumerate() {
            let chunk_len = lens[i];
            match lane.role {
                LaneRole::GenPrefill { fed } => {
                    prefill_toks += chunk_len as u64;
                    let plen = {
                        let inf = self.slots[lane.slot].as_ref().unwrap();
                        gen_spec(&inf.req).prompt.len()
                    };
                    if fed + chunk_len < plen {
                        keep.push(i);
                        new_lanes.push(Lane {
                            slot: lane.slot,
                            role: LaneRole::GenPrefill {
                                fed: fed + chunk_len,
                            },
                        });
                        continue;
                    }
                    // Prefill complete: the last chunk row predicts the
                    // first candidate, exactly as the single path's prefill.
                    {
                        let inf = self.slots[lane.slot].as_ref().unwrap();
                        self.record_ttft(&inf.req);
                    }
                    let tok = argmax(logits.row(batch.last_row(i)));
                    match self.greedy_advance(lane.slot, tok, max_seq) {
                        Advance::Finished { emitted } => {
                            decode_toks += emitted as u64;
                            self.finish_gen(lane.slot);
                            finished += 1;
                        }
                        Advance::Continue => {
                            decode_toks += 1;
                            keep.push(i);
                            new_lanes.push(Lane {
                                slot: lane.slot,
                                role: LaneRole::GenDecode,
                            });
                        }
                    }
                }
                LaneRole::GenDecode => {
                    let tok = argmax(logits.row(batch.last_row(i)));
                    match self.greedy_advance(lane.slot, tok, max_seq) {
                        Advance::Finished { emitted } => {
                            decode_toks += emitted as u64;
                            self.finish_gen(lane.slot);
                            finished += 1;
                        }
                        Advance::Continue => {
                            decode_toks += 1;
                            keep.push(i);
                            new_lanes.push(Lane {
                                slot: lane.slot,
                                role: LaneRole::GenDecode,
                            });
                        }
                    }
                }
                LaneRole::McqPrefill { fed } => {
                    prefill_toks += chunk_len as u64;
                    let plen = {
                        let inf = self.slots[lane.slot].as_ref().unwrap();
                        mcq_spec(&inf.req).prompt.len()
                    };
                    if fed + chunk_len < plen {
                        keep.push(i);
                        new_lanes.push(Lane {
                            slot: lane.slot,
                            role: LaneRole::McqPrefill {
                                fed: fed + chunk_len,
                            },
                        });
                        continue;
                    }
                    // Prompt prefilled: the last row scores every option's
                    // first token (log-softmax is row-local, so normalizing
                    // the extracted row matches `score_options` exactly).
                    let last_lp = kernels::log_softmax_rows(&Matrix::row_vec(
                        logits.row(batch.last_row(i)).to_vec(),
                    ));
                    let inf = self.slots[lane.slot].as_mut().unwrap();
                    let multis: Vec<usize> = {
                        let spec = mcq_spec(&inf.req);
                        for (oi, opt) in spec.options.iter().enumerate() {
                            inf.scores[oi] = last_lp.get(0, opt[0]);
                        }
                        spec.options
                            .iter()
                            .enumerate()
                            .filter(|(_, o)| o.len() > 1)
                            .map(|(oi, _)| oi)
                            .collect()
                    };
                    inf.branches_left = multis.len();
                    {
                        let inf = self.slots[lane.slot].as_ref().unwrap();
                        self.record_ttft(&inf.req);
                    }
                    if multis.is_empty() {
                        self.finish_mcq(lane.slot);
                        finished += 1;
                    } else {
                        // The prompt lane retires; its branches are gathered
                        // from the cache (below) before it is dropped.
                        for oi in multis {
                            spawns.push((i, lane.slot, oi));
                        }
                    }
                }
                LaneRole::McqBranch { opt, fed } => {
                    prefill_toks += chunk_len as u64;
                    let r = batch.range(i);
                    let lp = kernels::log_softmax_rows(&logits.slice_rows(r.start, r.end));
                    let inf = self.slots[lane.slot].as_mut().unwrap();
                    let script_len = {
                        let spec = mcq_spec(&inf.req);
                        let option = &spec.options[opt];
                        // Row j of this chunk predicts option[fed + j + 1];
                        // accumulate in ascending position order so the f32
                        // sum replays `score_options` bit for bit.
                        for j in 0..chunk_len {
                            inf.scores[opt] += lp.get(j, option[fed + j + 1]);
                        }
                        option.len() - 1
                    };
                    if fed + chunk_len < script_len {
                        keep.push(i);
                        new_lanes.push(Lane {
                            slot: lane.slot,
                            role: LaneRole::McqBranch {
                                opt,
                                fed: fed + chunk_len,
                            },
                        });
                        continue;
                    }
                    inf.branches_left -= 1;
                    if inf.branches_left == 0 {
                        self.finish_mcq(lane.slot);
                        finished += 1;
                    }
                }
            }
        }

        // Cache surgery: gather branch sources before retiring anything, so
        // the branches copy the freshly prefilled prompt rows.
        let branch_cache = if spawns.is_empty() {
            None
        } else {
            let srcs: Vec<usize> = spawns.iter().map(|&(src, _, _)| src).collect();
            Some(cache.gather(&srcs))
        };
        if keep.is_empty() {
            // Every surviving sequence (if any) is a fresh branch; otherwise
            // the group is now empty and the caller drops it, cache and all.
            if let Some(b) = branch_cache {
                *cache = b;
            }
        } else {
            if keep.len() < n_before {
                cache.retain_indices(&keep);
            }
            if let Some(b) = branch_cache {
                cache.absorb(b);
            }
        }
        for &(_, slot, oi) in &spawns {
            new_lanes.push(Lane {
                slot,
                role: LaneRole::McqBranch { opt: oi, fed: 0 },
            });
        }
        let retired_any = keep.len() < n_before;
        if retired_any && !new_lanes.is_empty() {
            cache.compact();
        }
        g.lanes = new_lanes;
        debug_assert!(
            g.lanes.is_empty() || g.lanes.len() == g.cache.n_seqs(),
            "lane list must mirror cache sequences"
        );
        (finished, prefill_toks, decode_toks)
    }

    /// Replays one iteration of the single-path greedy loop for `tok`, the
    /// candidate just produced: stop on eos (without emitting), else emit,
    /// then stop when the budget or the context fills.
    fn greedy_advance(&mut self, slot: usize, tok: usize, max_seq: usize) -> Advance {
        let inf = self.slots[slot].as_mut().expect("advancing a live slot");
        let (eos, max_new, plen) = {
            let g = gen_spec(&inf.req);
            (g.eos, g.max_new, g.prompt.len())
        };
        if Some(tok) == eos {
            return Advance::Finished { emitted: 0 };
        }
        inf.out.push(tok);
        if inf.out.len() == max_new || plen + inf.out.len() >= max_seq {
            return Advance::Finished { emitted: 1 };
        }
        Advance::Continue
    }

    fn finish_gen(&mut self, slot: usize) {
        let tokens = self.slots[slot]
            .as_mut()
            .map(|inf| std::mem::take(&mut inf.out))
            .expect("finishing a live slot");
        self.finish_slot(slot, Outcome::Generated { tokens });
    }

    fn finish_mcq(&mut self, slot: usize) {
        let outcome = {
            let inf = self.slots[slot].as_ref().expect("finishing a live slot");
            let spec = mcq_spec(&inf.req);
            let lens: Vec<usize> = spec.options.iter().map(Vec::len).collect();
            let probabilities = option_probabilities(&inf.scores, &lens);
            let best = argmax(&probabilities);
            Outcome::McqScored {
                scores: inf.scores.clone(),
                probabilities,
                best,
            }
        };
        self.finish_slot(slot, outcome);
    }

    /// Responds, releases the reservation and frees the slot. Lanes are the
    /// caller's responsibility.
    fn finish_slot(&mut self, slot: usize, outcome: Outcome) {
        let inf = self.slots[slot].take().expect("finishing a live slot");
        inf.req.respond(outcome);
        self.reserved_rows -= inf.cost;
        self.free_slots.push(slot);
    }

    fn record_ttft(&self, req: &Request) {
        self.metrics.record_ttft(req.submitted_at.elapsed());
    }
}

/// Result of one greedy-loop iteration.
enum Advance {
    /// The request is done; `emitted` tokens were pushed this iteration.
    Finished { emitted: usize },
    /// The lane keeps decoding.
    Continue,
}

fn gen_spec(req: &Request) -> &GenerateSpec {
    match &req.kind {
        RequestKind::Generate(g) => g,
        RequestKind::Mcq(_) => unreachable!("generate lane on an MCQ request"),
    }
}

fn mcq_spec(req: &Request) -> &McqSpec {
    match &req.kind {
        RequestKind::Mcq(m) => m,
        RequestKind::Generate(_) => unreachable!("MCQ lane on a generate request"),
    }
}

/// Which option `hook` picks for a held-out NR gate probe: the paper's
/// detection-probe scoring (length-normalized option likelihood, argmax) on
/// the single-request sampler path.
fn probe_answer(
    model: &TransformerLm,
    hook: &dyn LayerHook,
    probe: &infuserki_core::GateProbe,
) -> usize {
    let scores = score_options(model, hook, &probe.prompt, &probe.options);
    let lens: Vec<usize> = probe.options.iter().map(Vec::len).collect();
    argmax(&option_probabilities(&scores, &lens))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Response;
    use infuserki_nn::sampler;
    use infuserki_nn::{ModelConfig, NoHook, TransformerLm};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::sync::mpsc;

    fn model() -> TransformerLm {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        TransformerLm::new(ModelConfig::tiny(30), &mut rng)
    }

    fn submit(sched: &mut Scheduler<'_>, id: u64, kind: RequestKind) -> mpsc::Receiver<Response> {
        let (tx, rx) = mpsc::channel();
        sched.enqueue(Request::new(id, kind, tx));
        rx
    }

    #[test]
    fn generate_matches_single_path_sampler() {
        kernels::set_num_threads(1);
        let m = model();
        let cfg = ServeConfig {
            prefill_chunk: 2,
            kv_budget_rows: 256,
            ..ServeConfig::default()
        };
        let mut sched = Scheduler::new(&m, &NoHook, cfg).unwrap();
        let prompts: Vec<Vec<usize>> = vec![vec![1, 2, 3], vec![4], vec![5, 6, 7, 8, 9]];
        let rxs: Vec<_> = prompts
            .iter()
            .enumerate()
            .map(|(i, p)| {
                submit(
                    &mut sched,
                    i as u64,
                    RequestKind::Generate(GenerateSpec::greedy(p.clone(), 6, Some(3))),
                )
            })
            .collect();
        sched.run_until_idle();
        for (p, rx) in prompts.iter().zip(&rxs) {
            let got = match rx.try_recv().unwrap().outcome {
                Outcome::Generated { tokens } => tokens,
                other => panic!("unexpected outcome {other:?}"),
            };
            let want = sampler::greedy_decode(&m, &NoHook, p, 6, Some(3));
            assert_eq!(got, want);
        }
    }

    #[test]
    fn mcq_matches_single_path_scores_bitwise() {
        kernels::set_num_threads(1);
        let m = model();
        let cfg = ServeConfig {
            prefill_chunk: 3,
            kv_budget_rows: 512,
            ..ServeConfig::default()
        };
        let mut sched = Scheduler::new(&m, &NoHook, cfg).unwrap();
        let prompt = vec![1, 2, 3, 4, 5];
        let options = vec![vec![6], vec![7, 8], vec![9, 10, 11, 12]];
        let rx = submit(
            &mut sched,
            0,
            RequestKind::Mcq(McqSpec {
                prompt: prompt.clone(),
                options: options.clone(),
            }),
        );
        sched.run_until_idle();
        let (scores, probabilities, best) = match rx.try_recv().unwrap().outcome {
            Outcome::McqScored {
                scores,
                probabilities,
                best,
            } => (scores, probabilities, best),
            other => panic!("unexpected outcome {other:?}"),
        };
        let want = sampler::score_options(&m, &NoHook, &prompt, &options);
        let want_bits: Vec<u32> = want.iter().map(|s| s.to_bits()).collect();
        let got_bits: Vec<u32> = scores.iter().map(|s| s.to_bits()).collect();
        assert_eq!(got_bits, want_bits, "scores must be bitwise identical");
        let lens: Vec<usize> = options.iter().map(Vec::len).collect();
        let want_p = option_probabilities(&want, &lens);
        assert_eq!(probabilities, want_p);
        assert_eq!(best, argmax(&want_p));
    }

    #[test]
    fn beam_requests_run_inline_and_match() {
        kernels::set_num_threads(1);
        let m = model();
        let mut sched = Scheduler::new(&m, &NoHook, ServeConfig::default()).unwrap();
        let rx = submit(
            &mut sched,
            0,
            RequestKind::Generate(GenerateSpec {
                prompt: vec![3],
                max_new: 3,
                eos: None,
                beam_width: 3,
            }),
        );
        sched.run_until_idle();
        let got = match rx.try_recv().unwrap().outcome {
            Outcome::Generated { tokens } => tokens,
            other => panic!("unexpected outcome {other:?}"),
        };
        assert_eq!(got, sampler::beam_search(&m, &NoHook, &[3], 3, 3, None));
    }

    #[test]
    fn zero_budget_and_overlong_prompts_emit_nothing() {
        kernels::set_num_threads(1);
        let m = model();
        let max_seq = m.config().max_seq;
        let mut sched = Scheduler::new(&m, &NoHook, ServeConfig::default()).unwrap();
        let rx0 = submit(
            &mut sched,
            0,
            RequestKind::Generate(GenerateSpec::greedy(vec![1, 2], 0, None)),
        );
        let rx1 = submit(
            &mut sched,
            1,
            RequestKind::Generate(GenerateSpec::greedy(vec![1; max_seq], 4, None)),
        );
        sched.run_until_idle();
        for rx in [rx0, rx1] {
            assert_eq!(
                rx.try_recv().unwrap().outcome,
                Outcome::Generated { tokens: Vec::new() }
            );
        }
    }

    #[test]
    fn budget_reservation_serializes_large_requests() {
        kernels::set_num_threads(1);
        let m = model();
        // Budget fits exactly one request at a time; both must still finish.
        // Small blocks keep each reservation (ceil(8/2)*2 = 8 rows) under
        // the 10-row budget while two together still exceed it.
        let cfg = ServeConfig {
            kv_budget_rows: 10,
            block_rows: 2,
            prefill_chunk: 4,
            ..ServeConfig::default()
        };
        let mut sched = Scheduler::new(&m, &NoHook, cfg).unwrap();
        let rx0 = submit(
            &mut sched,
            0,
            RequestKind::Generate(GenerateSpec::greedy(vec![1, 2, 3], 5, None)),
        );
        let rx1 = submit(
            &mut sched,
            1,
            RequestKind::Generate(GenerateSpec::greedy(vec![4, 5, 6], 5, None)),
        );
        let report = sched.step();
        assert_eq!(report.admitted, 1, "second request must wait for rows");
        sched.run_until_idle();
        for (rx, p) in [(rx0, vec![1, 2, 3]), (rx1, vec![4, 5, 6])] {
            let got = match rx.try_recv().unwrap().outcome {
                Outcome::Generated { tokens } => tokens,
                other => panic!("unexpected outcome {other:?}"),
            };
            assert_eq!(got, sampler::greedy_decode(&m, &NoHook, &p, 5, None));
        }
    }

    #[test]
    fn mcq_cost_counts_shared_prompt_blocks_once() {
        // Regression: the pre-paged accounting summed the prompt lane and
        // every branch's full prompt+option span, double-counting the
        // prompt rows and the prefix-tuning virtual rows of the prompt
        // lane, which retires before any branch extends. The block-based
        // model charges max(prompt phase, branch phase) with the shared
        // full prompt blocks paid once.
        let lim = EngineLimits {
            vocab_size: 100,
            max_seq: 64,
            prefix_rows: 2,
            kv_budget_rows: 1000,
            queue_capacity: 8,
            block_rows: 4,
        };
        let kind = RequestKind::Mcq(McqSpec {
            prompt: vec![1, 2, 3, 4, 5],
            options: vec![vec![6, 7, 8], vec![9, 10]],
        });
        // Prompt phase: 2 virtual + ceil(5/4)*4 = 10 rows.
        // Branch phase: 4 shared prompt rows + two branches at
        // 2 virtual + (ceil(7/4) - 1)*4 = 6 rows each = 16 rows.
        assert_eq!(lim.cost(&kind), 16);
        // The old sum-of-phases model would have charged
        // (2+5) + (2+7) + (2+6) = 24 rows — half again too much.

        // Generate reservations round the token span up to whole blocks.
        let g = RequestKind::Generate(GenerateSpec::greedy(vec![1, 2, 3], 5, None));
        assert_eq!(lim.cost(&g), 2 + 8);
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

    #[test]
    fn control_plane_promote_and_rollback_flip_active_version() {
        let m = model();
        let mut sched = Scheduler::new(&m, &NoHook, ServeConfig::default()).unwrap();
        assert_eq!(sched.active_version(), 0);
        assert!(matches!(
            sched.handle_control(ControlOp::Promote { version: 9 }),
            Err(ControlError::UnknownVersion(9))
        ));
        assert!(matches!(
            sched.handle_control(ControlOp::Promote { version: 0 }),
            Err(ControlError::AlreadyActive(0))
        ));
        assert!(matches!(
            sched.handle_control(ControlOp::Rollback),
            Err(ControlError::NothingToRollBack)
        ));
        let out = sched.handle_control(ControlOp::ListBundles).unwrap();
        match out {
            ControlOutcome::Bundles(list) => {
                assert_eq!(list.len(), 1);
                assert_eq!(list[0].name, "base");
                assert!(list[0].active);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }
}
