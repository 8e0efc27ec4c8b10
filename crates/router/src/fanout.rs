//! The fleet's control plane: every control op fans out over the live
//! replicas. Loads stage everywhere; promotes are all-or-none (any refusal
//! rolls the already-promoted replicas back); rollbacks address every live
//! replica and listings the first (the registries march in lockstep — all
//! control traffic fans out).

use std::sync::atomic::Ordering;

use infuserki_serve::{BundleInfo, Client, ControlError, ControlOp, ControlOutcome, ControlPlane};

use crate::dispatch::{Inner, RouterClient};

impl Inner {
    /// The live replicas' clients, with their indices, in replica order.
    fn live(&self) -> impl Iterator<Item = (usize, &Client)> {
        self.replicas
            .iter()
            .enumerate()
            .filter(|(_, r)| r.alive.load(Ordering::SeqCst))
            .map(|(i, r)| (i, &r.client))
    }
}

impl RouterClient {
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

    fn fan_load(&self, path: &str) -> Result<ControlOutcome, ControlError> {
        let mut first: Option<BundleInfo> = None;
        for (_, client) in self.inner.live() {
            let outcome = client.control(ControlOp::LoadBundle { path: path.into() })?;
            let ControlOutcome::Loaded(info) = outcome else {
                unreachable!("load returned {outcome:?}");
            };
            match &first {
                Some(f) if f.version != info.version => {
                    return Err(ControlError::Incompatible(format!(
                        "replica registries diverged: version {} vs {}",
                        f.version, info.version
                    )));
                }
                Some(_) => {}
                None => first = Some(info),
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
        for (i, client) in self.inner.live() {
            let v = if fault_replica == Some(i) {
                u32::MAX // never a loaded version: forces a refusal
            } else {
                version
            };
            match client.control(ControlOp::Promote { version: v }) {
                Ok(outcome) => {
                    first.get_or_insert(outcome);
                    promoted.push(client);
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
        for (_, client) in self.inner.live() {
            let outcome = client.control(ControlOp::Rollback)?;
            first.get_or_insert(outcome);
        }
        first.ok_or(ControlError::Disconnected)
    }
}

impl ControlPlane for RouterClient {
    /// Executes one knowledge-bundle control op across the fleet.
    fn control(&self, op: ControlOp) -> Result<ControlOutcome, ControlError> {
        match op {
            ControlOp::LoadBundle { path } => self.fan_load(&path),
            ControlOp::Promote { version } => self.fan_promote(version, None),
            ControlOp::Rollback => self.fan_rollback(),
            ControlOp::ListBundles => match self.inner.live().next() {
                Some((_, client)) => client.control(ControlOp::ListBundles),
                None => Err(ControlError::Disconnected),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::tests::small_cfg;
    use crate::spawn_router;
    use infuserki_nn::LayerHook;
    use infuserki_serve::{demo_model, GenerateSpec, Outcome, RejectReason, RequestKind};

    /// Panics on the scheduler thread in its first forward.
    struct PanicHook;

    impl LayerHook for PanicHook {
        fn attn_q_delta(
            &self,
            _layer: usize,
            _x: &infuserki_nn::Val,
            _e: &mut infuserki_nn::Exec,
        ) -> Option<infuserki_nn::Val> {
            panic!("injected scheduler-thread panic");
        }
    }

    #[test]
    fn control_plane_requires_a_live_replica() {
        let (client, handle) = spawn_router(small_cfg(1), |_| (demo_model(), PanicHook)).unwrap();
        let h = client
            .submit(
                RequestKind::Generate(GenerateSpec::greedy(vec![1, 2], 2, None)),
                Default::default(),
                None,
            )
            .unwrap();
        // The replica is counted dead before this answer arrives.
        assert_eq!(
            h.wait().unwrap(),
            Outcome::Rejected(RejectReason::ReplicaFailed)
        );
        assert!(matches!(
            client.list_bundles(),
            Err(ControlError::Disconnected)
        ));
        handle.shutdown();
    }
}
