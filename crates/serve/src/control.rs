//! The knowledge-bundle control plane: loading a bundle file, and the
//! scheduler thread's half of load, promote (behind the NR regression
//! gate), rollback and list.
//!
//! A load is split across threads. [`VerifiedBundle::load`] reads the file
//! once, parses it and checks it against every [`BundleTarget`] (one per
//! replica) on the caller's thread: the JSONL connection, a [`Client`]'s
//! caller, the router's fleet fan-out or the KG watcher. Only then does the
//! scheduler thread get the bundle, as an `Arc`'d hook with its metadata;
//! its staging arm ([`Scheduler::stage_bundle`]) reads no file and computes
//! no digest: it checks the prefix-row width and appends to the registry.
//! A [`Scheduler`] driven directly loads through the same function, on the
//! thread that drives it.
//!
//! [`Client`]: crate::Client

use std::sync::Arc;

use infuserki_core::{BaseDigest, EvalStamp, GateProbe, GateReport, KnowledgeBundle};
use infuserki_nn::{LayerHook, TransformerLm};

use crate::registry::{BundleInfo, ControlError, ControlOp, ControlOutcome, GateVerdict, HookArc};
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
/// an `Arc` (a fleet shares one across replicas) and the metadata the
/// registry keeps.
#[derive(Clone)]
pub struct VerifiedBundle {
    name: String,
    config_fingerprint: String,
    stamp: Option<EvalStamp>,
    gate_probes: Vec<GateProbe>,
    hook: HookArc<'static>,
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
            gate_probes,
            hook: Arc::new(method),
        })
    }
}

impl<'a> Scheduler<'a> {
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
            ControlOp::Promote { version, verdict } => self.promote(version, verdict),
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
    /// [`Scheduler::promote`].
    pub fn load_bundle(&mut self, path: &str) -> Result<BundleInfo, ControlError> {
        let bundle = VerifiedBundle::load(path, &[self.bundle_target()])?;
        self.stage_bundle(bundle)
    }

    /// Stages a bundle already verified against this scheduler's base: the
    /// scheduler thread's whole share of a load.
    pub(crate) fn stage_bundle(
        &mut self,
        bundle: VerifiedBundle,
    ) -> Result<BundleInfo, ControlError> {
        let VerifiedBundle {
            name,
            config_fingerprint,
            stamp,
            gate_probes,
            hook,
        } = bundle;
        check_prefix_rows(self.model, self.limits.prefix_rows, &name, hook.as_ref())?;
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
    /// (the paper's knowledge-retention test, enforced online, scored by
    /// [`GateReport::score`]). The gate runs single-request sampler calls on
    /// the scheduler thread, so scoring blocks the batch for the probe
    /// forwards: the price of gating on the exact serving weights.
    ///
    /// A `verdict` skips the scoring: an identical replica already scored
    /// this comparison, so a fleet blocks one replica's batch per promote
    /// and every other replica only swaps. The verdict holds only against
    /// the active version it was scored against; any other active version
    /// is refused as [`ControlError::Incompatible`] and nothing changes.
    pub fn promote(
        &mut self,
        version: u32,
        verdict: Option<GateVerdict>,
    ) -> Result<ControlOutcome, ControlError> {
        let active = self.registry.active_version();
        let staged = self
            .registry
            .get(version)
            .ok_or(ControlError::UnknownVersion(version))?;
        if version == active {
            return Err(ControlError::AlreadyActive(version));
        }
        let gate = match verdict {
            None => (!staged.gate_probes.is_empty()).then(|| {
                let active_hook = &self.registry.get(active).unwrap().hook;
                GateReport::score(
                    self.model,
                    staged.hook.as_ref(),
                    active_hook.as_ref(),
                    &staged.gate_probes,
                )
            }),
            Some(v) if v.against == active => v.gate,
            Some(v) => {
                return Err(ControlError::Incompatible(format!(
                    "replica registries diverged: active version {active} vs {}",
                    v.against
                )))
            }
        };
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
        let mut sched = Scheduler::new(&m, &NoHook, ServeConfig::default()).unwrap();
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
        let mut sched = Scheduler::new(&m, &NoHook, ServeConfig::default()).unwrap();
        let v = sched.registry.stage(
            "k1",
            String::new(),
            None,
            Vec::new(),
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
