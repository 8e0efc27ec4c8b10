//! The knowledge-bundle control plane: loading a bundle file, scoring its
//! NR regression gate, and the scheduler thread's half of load, promote,
//! rollback and list.
//!
//! A load is split across threads. [`VerifiedBundle::load`] reads the file
//! once, parses it and checks it against every [`BundleTarget`] (one per
//! replica) on the caller's thread: the JSONL connection, a [`Client`]'s
//! caller, the router's fleet fan-out or the KG watcher. Only then does the
//! scheduler thread get the bundle, as an `Arc`'d hook with its metadata;
//! its staging arm ([`Scheduler::stage_bundle`]) reads no file and computes
//! no digest: it checks the prefix-row width, appends to the registry and
//! hands back a [`GateJob`] against the version active right then.
//!
//! The gate is scored off the scheduler thread. A [`Client`] (or a fleet,
//! once for all its replicas) runs the staging's [`GateJob`] on a worker
//! thread and answers the load without waiting for it; the verdict lands in
//! the bundle's [`VerdictCell`], which its registry entries share. A
//! promote then costs the scheduler thread a check and a swap
//! ([`Scheduler::promote`]). When the stored verdict is not there yet the
//! promote's caller waits for it, and when it was scored against a version
//! that is no longer active the caller scores it again on its own thread;
//! either way the scheduler thread never runs [`GateReport::score`]. A
//! [`Scheduler`] driven directly scores on the thread that drives it, at
//! its first promote.
//!
//! [`Client`]: crate::Client

use std::sync::Arc;

use infuserki_core::{BaseDigest, EvalStamp, GateProbe, GateReport, KnowledgeBundle};
use infuserki_nn::{LayerHook, TransformerLm};

use crate::registry::{
    BundleInfo, ControlError, ControlOp, ControlOutcome, GateVerdict, HookArc, VerdictCell,
};
use crate::scheduler::Scheduler;

/// What a bundle must fit to stage on one replica: the replica's frozen
/// base, that base's digest (hashed on first use, kept by the replica),
/// and the prefix-row width its engine was sized for.
pub struct BundleTarget<'a> {
    pub(crate) model: &'a TransformerLm,
    pub(crate) digest: &'a BaseDigest,
    pub(crate) prefix_rows: usize,
}

impl BundleTarget<'_> {
    /// Checks `bundle` against this replica: the base digest, the method's
    /// fit and gate probes ([`KnowledgeBundle::verify`]), and the
    /// prefix-row width.
    fn check(&self, bundle: &KnowledgeBundle) -> Result<(), ControlError> {
        let digest = self
            .digest
            .of(self.model)
            .map_err(ControlError::Incompatible)?;
        bundle
            .verify(self.model, digest)
            .map_err(ControlError::Incompatible)?;
        check_prefix_rows(self.model, self.prefix_rows, &bundle.name, &bundle.method)
    }
}

/// EngineLimits (and every client's synchronous validation) bake in the
/// base hook's prefix-row width; a bundle changing it would make admitted
/// reservations wrong for its lanes.
fn check_prefix_rows(
    model: &TransformerLm,
    prefix_rows: usize,
    name: &str,
    hook: &dyn LayerHook,
) -> Result<(), ControlError> {
    let rows = model.max_prefix_rows(hook);
    if rows != prefix_rows {
        return Err(ControlError::Incompatible(format!(
            "bundle '{name}' needs {rows} prefix K/V rows per layer but the engine was \
             sized for {prefix_rows}"
        )));
    }
    Ok(())
}

/// A bundle file read, parsed and verified, ready to stage: its hook behind
/// an `Arc`, the metadata the registry keeps and the cell its gate verdict
/// will be kept in. Clones share all three, so a fleet stages one hook and
/// one verdict on every replica.
#[derive(Clone)]
pub struct VerifiedBundle {
    name: String,
    config_fingerprint: String,
    stamp: Option<EvalStamp>,
    gate_probes: Arc<[GateProbe]>,
    verdict: Arc<VerdictCell>,
    hook: HookArc,
}

impl VerifiedBundle {
    /// Reads the bundle file at `path` once and verifies it against every
    /// target, on the calling thread. An unreadable or malformed file is
    /// [`ControlError::Bundle`]; a bundle any target refuses (another base,
    /// a method that does not fit, a malformed gate probe, another
    /// prefix-row width) is [`ControlError::Incompatible`].
    pub fn load(path: &str, targets: &[BundleTarget<'_>]) -> Result<Self, ControlError> {
        let bundle = KnowledgeBundle::load(path).map_err(ControlError::Bundle)?;
        for target in targets {
            target.check(&bundle)?;
        }
        let KnowledgeBundle {
            name,
            config_fingerprint,
            stamp,
            gate_probes,
            method,
            ..
        } = bundle;
        Ok(VerifiedBundle {
            name,
            config_fingerprint,
            stamp,
            gate_probes: gate_probes.into(),
            verdict: Arc::default(),
            hook: Arc::new(method),
        })
    }
}

/// The promote gate of one staged version against one active version,
/// packed to be scored off the scheduler thread: both hooks, the probes and
/// the cell the verdict goes in.
pub struct GateJob {
    staged: HookArc,
    active: HookArc,
    against: u32,
    probes: Arc<[GateProbe]>,
    cell: Arc<VerdictCell>,
}

impl GateJob {
    /// Scores the gate on a new thread against `model` and stores the
    /// verdict, unless a verdict against the same version is already
    /// stored. The claim is taken before this returns, so a promote sent
    /// after it waits for this score instead of starting its own. Once the
    /// score is stored the thread returns the allocator's free pages, which
    /// include the score's caches. If no thread can be started the claim is
    /// released, and the first promote scores on its caller's thread.
    pub(crate) fn spawn(self, model: Arc<TransformerLm>) {
        if !self.cell.claim(self.against) {
            return;
        }
        let claimed = Claimed(self);
        let _ = std::thread::Builder::new()
            .name("infuserki-gate".into())
            .spawn(move || {
                claimed.score(&model);
                release_free_heap();
            });
    }

    /// Makes the cell hold a verdict against this job's active version:
    /// waits for a score in flight, or scores on the calling thread.
    pub(crate) fn resolve(self, model: &TransformerLm) {
        if self.cell.claim(self.against) {
            Claimed(self).score(model);
        }
    }
}

/// A [`GateJob`] that holds its cell's claim. Dropped without storing (a
/// panic in the score, a thread that never started), it releases it.
struct Claimed(GateJob);

impl Claimed {
    fn score(self, model: &TransformerLm) {
        let job = &self.0;
        let gate = GateReport::score(model, job.staged.as_ref(), job.active.as_ref(), &job.probes);
        job.cell.store(GateVerdict {
            against: job.against,
            gate: Some(gate),
        });
    }
}

impl Drop for Claimed {
    fn drop(&mut self) {
        self.0.cell.release();
    }
}

/// Returns the allocator's free pages to the OS, from every arena: glibc's
/// `malloc_trim` walks them all, not only the calling thread's. It runs
/// after a wire `load_bundle` and after each gate score. A score on a
/// fresh thread leaves its KV caches free in an arena serving never
/// reuses. The load's own garbage is small now that a bundle's tensors are
/// base64 (a 171 KB file), yet without the trim peak `server_rss_mb` read
/// 7-15 % higher on `gen_decode` and `mcq_templates`. So most of what it
/// returns is not the load's garbage but free pages other arenas hold;
/// setup's checkpoint read and parse in the main arena is the likely
/// source. glibc only; elsewhere a no-op.
pub fn release_free_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: `malloc_trim` takes no pointer and only releases memory
        // the allocator holds free.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// The scheduler's answer to a promote: done (swapped or refused), or the
/// job its caller must score before sending the promote again.
pub(crate) enum Promotion {
    Done(Result<ControlOutcome, ControlError>),
    Unscored(GateJob),
}

/// What a promote can swap on now, or what its caller must score first.
pub(crate) enum Gate {
    /// A verdict scored against the active version.
    Ready(GateVerdict),
    /// No such verdict is stored: the job against the active version.
    Unscored(GateJob),
}

impl<'a> Scheduler<'a> {
    /// The version unpinned requests resolve to at admission.
    pub fn active_version(&self) -> u32 {
        self.registry.active_version()
    }

    /// Executes one control op on the calling thread, between steps, so a
    /// swap can never tear a batch: every in-flight lane keeps the hook its
    /// request resolved at admission. A promote with no verdict takes the
    /// stored one, scoring it here first if it is missing or stale. The
    /// spawned scheduler thread never sends a promote here: it runs
    /// `try_promote`, and its [`crate::Client`] scores on the caller's
    /// thread.
    pub fn handle_control(&mut self, op: ControlOp) -> Result<ControlOutcome, ControlError> {
        match op {
            ControlOp::LoadBundle { path } => self.load_bundle(&path).map(ControlOutcome::Loaded),
            ControlOp::Promote { version, verdict } => loop {
                match self.try_promote(version, verdict) {
                    Promotion::Done(result) => return result,
                    Promotion::Unscored(job) => job.resolve(self.model),
                }
            },
            ControlOp::Rollback => self
                .rollback()
                .map(|version| ControlOutcome::RolledBack { version }),
            ControlOp::ListBundles => Ok(ControlOutcome::Bundles(self.list_bundles())),
        }
    }

    /// What a bundle must fit to stage here.
    pub(crate) fn bundle_target(&self) -> BundleTarget<'_> {
        BundleTarget {
            model: self.model,
            digest: &self.base_digest,
            prefix_rows: self.limits.prefix_rows,
        }
    }

    /// Loads, verifies and stages a [`KnowledgeBundle`] file on the calling
    /// thread. The new version is immediately pinnable (`bundle: v` on
    /// requests) but does not serve unpinned traffic until
    /// [`Scheduler::promote`]. Its gate is scored at the first promote.
    pub fn load_bundle(&mut self, path: &str) -> Result<BundleInfo, ControlError> {
        let bundle = VerifiedBundle::load(path, &[self.bundle_target()])?;
        self.stage_bundle(bundle).map(|(info, _)| info)
    }

    /// Stages a bundle already verified against this scheduler's base: the
    /// scheduler thread's whole share of a load. Returns the job that
    /// scores its gate against the version active now, when it carries
    /// probes.
    pub(crate) fn stage_bundle(
        &mut self,
        bundle: VerifiedBundle,
    ) -> Result<(BundleInfo, Option<GateJob>), ControlError> {
        let VerifiedBundle {
            name,
            config_fingerprint,
            stamp,
            gate_probes,
            verdict,
            hook,
        } = bundle;
        check_prefix_rows(self.model, self.limits.prefix_rows, &name, hook.as_ref())?;
        let v = self.registry.stage(
            name,
            config_fingerprint,
            stamp,
            gate_probes,
            verdict,
            hook,
            &self.metrics,
        );
        let job = match self.gate(v)? {
            Gate::Ready(_) => None,
            Gate::Unscored(job) => Some(job),
        };
        Ok((self.registry.info(v), job))
    }

    /// The verdict a promote of `version` can swap on now: the stored one
    /// if it was scored against the active version (a bundle without
    /// probes needs none), else the job that scores it. Reads a cell; never
    /// scores.
    pub(crate) fn gate(&self, version: u32) -> Result<Gate, ControlError> {
        let active = self.registry.active_version();
        let staged = self
            .registry
            .get(version)
            .ok_or(ControlError::UnknownVersion(version))?;
        if version == active {
            return Err(ControlError::AlreadyActive(version));
        }
        if staged.gate_probes.is_empty() {
            return Ok(Gate::Ready(GateVerdict {
                against: active,
                gate: None,
            }));
        }
        if let Some(v) = staged.verdict.against(active) {
            return Ok(Gate::Ready(v));
        }
        Ok(Gate::Unscored(GateJob {
            staged: Arc::clone(&staged.hook),
            active: Arc::clone(&self.registry.get(active).expect("active exists").hook),
            against: active,
            probes: Arc::clone(&staged.gate_probes),
            cell: Arc::clone(&staged.verdict),
        }))
    }

    /// The scheduler thread's share of a promote: swaps on `verdict`, or
    /// on the stored verdict if it was scored against the active version.
    /// Otherwise it hands back the job to score and changes nothing. It
    /// never scores.
    pub(crate) fn try_promote(&mut self, version: u32, verdict: Option<GateVerdict>) -> Promotion {
        let gate = match verdict {
            Some(v) => Ok(Gate::Ready(v)),
            None => self.gate(version),
        };
        let verdict = match gate {
            Ok(Gate::Ready(v)) => v,
            Ok(Gate::Unscored(job)) => return Promotion::Unscored(job),
            Err(e) => return Promotion::Done(Err(e)),
        };
        Promotion::Done(self.promote(version, verdict))
    }

    /// Promotes a staged version to active on the NR regression gate's
    /// `verdict`: on the bundle's held-out known-set probes, the candidate
    /// must answer at least as many correctly as the active version (the
    /// paper's knowledge-retention test, enforced online, scored by
    /// [`GateReport::score`] off this thread). The scheduler thread only
    /// checks the verdict and swaps.
    ///
    /// The verdict holds only against the active version it was scored
    /// against; any other active version is refused as
    /// [`ControlError::Incompatible`] and nothing changes. A fleet hands
    /// every replica the verdict its first replica swapped on, so this is
    /// how a replica whose registry diverged is caught.
    pub fn promote(
        &mut self,
        version: u32,
        verdict: GateVerdict,
    ) -> Result<ControlOutcome, ControlError> {
        let active = self.registry.active_version();
        if self.registry.get(version).is_none() {
            return Err(ControlError::UnknownVersion(version));
        }
        if version == active {
            return Err(ControlError::AlreadyActive(version));
        }
        if verdict.against != active {
            return Err(ControlError::Incompatible(format!(
                "replica registries diverged: active version {active} vs {}",
                verdict.against
            )));
        }
        let gate = verdict.gate;
        if let Some(report) = gate.filter(GateReport::refuses) {
            self.metrics.bundle_rejected_promotions.inc();
            return Err(ControlError::NrGateFailed {
                version,
                gate: report,
            });
        }
        self.registry.promote(version);
        self.metrics.bundle_swaps.inc();
        self.metrics.bundle_active_version.set(version as i64);
        Ok(ControlOutcome::Promoted {
            version,
            replaced: active,
            gate,
        })
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::tests::model;
    use crate::ServeConfig;
    use infuserki_nn::NoHook;

    #[test]
    fn control_plane_promote_and_rollback_flip_active_version() {
        let m = model();
        let mut sched = Scheduler::new(&m, NoHook, ServeConfig::default()).unwrap();
        assert_eq!(sched.active_version(), 0);
        assert!(matches!(
            sched.handle_control(ControlOp::Promote {
                version: 9,
                verdict: None
            }),
            Err(ControlError::UnknownVersion(9))
        ));
        assert!(matches!(
            sched.handle_control(ControlOp::Promote {
                version: 0,
                verdict: None
            }),
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

    /// A verdict scored against another active version describes a
    /// different comparison: the replica refuses it with the typed
    /// divergence error and changes nothing, then swaps on a matching one.
    #[test]
    fn a_verdict_against_another_active_version_is_refused() {
        let m = model();
        let mut sched = Scheduler::new(&m, NoHook, ServeConfig::default()).unwrap();
        let v = sched.registry.stage(
            "k1",
            String::new(),
            None,
            Vec::new(),
            Arc::default(),
            Arc::new(NoHook),
            &sched.metrics,
        );
        let gate = Some(GateReport {
            probes: 2,
            staged_correct: 2,
            active_correct: 1,
        });
        let err = sched
            .handle_control(ControlOp::Promote {
                version: v,
                verdict: Some(GateVerdict { against: 7, gate }),
            })
            .unwrap_err();
        assert_eq!(
            err,
            ControlError::Incompatible("replica registries diverged: active version 0 vs 7".into())
        );
        assert_eq!(sched.active_version(), 0);
        let snap = sched.snapshot();
        assert_eq!(snap.bundle_swaps, 0);
        assert_eq!(snap.bundle_rejected_promotions, 0);

        let out = sched
            .handle_control(ControlOp::Promote {
                version: v,
                verdict: Some(GateVerdict { against: 0, gate }),
            })
            .unwrap();
        assert_eq!(
            out,
            ControlOutcome::Promoted {
                version: v,
                replaced: 0,
                gate
            }
        );
        assert_eq!(sched.active_version(), v);
        assert_eq!(sched.snapshot().bundle_swaps, 1);
    }
}
