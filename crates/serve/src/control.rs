//! The knowledge-bundle control plane on the scheduler thread: load,
//! promote (behind the NR regression gate), rollback and list.

use std::sync::Arc;

use infuserki_core::{GateReport, KnowledgeBundle};

use crate::registry::{BundleInfo, ControlError, ControlOp, ControlOutcome, HookArc};
use crate::scheduler::Scheduler;

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
    /// (the paper's knowledge-retention test, enforced online, scored by
    /// [`GateReport::score`]). The gate runs single-request sampler calls on
    /// the scheduler thread — a promote blocks the batch for the probe
    /// forwards, which is the price of gating on the exact serving weights.
    pub fn promote(&mut self, version: u32) -> Result<Option<GateReport>, ControlError> {
        let active = self.registry.active_version();
        let staged = self
            .registry
            .get(version)
            .ok_or(ControlError::UnknownVersion(version))?;
        if version == active {
            return Err(ControlError::AlreadyActive(version));
        }
        let gate = (!staged.gate_probes.is_empty()).then(|| {
            let active_hook = &self.registry.get(active).unwrap().hook;
            GateReport::score(
                self.model,
                staged.hook.as_ref(),
                active_hook.as_ref(),
                &staged.gate_probes,
            )
        });
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
