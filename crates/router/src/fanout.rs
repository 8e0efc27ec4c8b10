//! The fleet's control plane: every control op fans out over the live
//! replicas, and loads and promotes are all-or-none.
//!
//! * A load reads the bundle file once, on the caller's thread, and checks
//!   it against every live replica's base digest and prefix-row width
//!   before any replica stages ([`VerifiedBundle::load`]); a refusal by any
//!   replica stages nothing anywhere. The replicas then stage one shared
//!   hook `Arc` and one shared verdict cell, so their scheduler threads only
//!   append them, and the NR gate is scored once for the fleet, on a worker
//!   thread, against the first replica's active version.
//! * A promote swaps the first live replica on that stored verdict (its
//!   caller waits for the score, or scores again if the active version has
//!   changed since), so a gate refusal happens before any replica swaps,
//!   and every other replica swaps on the verdict the first swapped on (a
//!   swap that fails there rolls the already-promoted replicas back).
//! * Rollbacks address every live replica and listings the first (the
//!   registries march in lockstep — all control traffic fans out).

use std::sync::atomic::Ordering;

use infuserki_serve::{
    Client, ControlError, ControlOp, ControlOutcome, ControlPlane, GateVerdict, VerifiedBundle,
};

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
    /// exercises the real all-or-none group rollback (or, at the first live
    /// replica, the refusal before any swap). Test hook.
    #[doc(hidden)]
    pub fn promote_with_fault(
        &self,
        version: u32,
        fault_replica: usize,
    ) -> Result<ControlOutcome, ControlError> {
        self.fan_promote(version, Some(fault_replica))
    }

    /// All-or-none load: verified against every live replica before any
    /// stages, then staged everywhere from one read of the file. The gate
    /// is scored once, on a worker thread, after every replica staged; the
    /// load does not wait for it.
    fn fan_load(&self, path: &str) -> Result<ControlOutcome, ControlError> {
        let live: Vec<&Client> = self.inner.live().map(|(_, client)| client).collect();
        let (first, rest) = live.split_first().ok_or(ControlError::Disconnected)?;
        let targets: Vec<_> = live.iter().map(|client| client.bundle_target()).collect();
        let bundle = VerifiedBundle::load(path, &targets)?;
        let (info, job) = first.stage(bundle.clone())?;
        for client in rest {
            let (other, _) = client.stage(bundle.clone())?;
            if other.version != info.version {
                return Err(ControlError::Incompatible(format!(
                    "replica registries diverged: version {} vs {}",
                    info.version, other.version
                )));
            }
        }
        if let Some(job) = job {
            first.score_gate(job);
        }
        Ok(ControlOutcome::Loaded(info))
    }

    /// All-or-none promote on one verdict. The first live replica swaps on
    /// the verdict its load stored (scored again on this thread if it is
    /// stale); its refusal (gate, unknown version, anything) returns before
    /// any replica has changed. Replicas are identical (same base, verified
    /// by every load; same bundle files; same factory hook), so the verdict
    /// holds fleet-wide, and every other live replica only checks it was
    /// scored against its own active version and swaps. A
    /// failure there (a dead or diverged replica) rolls the
    /// already-promoted replicas back and returns the error: the fleet
    /// serves the new version everywhere or nowhere.
    fn fan_promote(
        &self,
        version: u32,
        fault_replica: Option<usize>,
    ) -> Result<ControlOutcome, ControlError> {
        let mut verdict: Option<GateVerdict> = None;
        let mut promoted: Vec<&Client> = Vec::new();
        for (i, client) in self.inner.live() {
            let v = if fault_replica == Some(i) {
                u32::MAX // never a loaded version: forces a refusal
            } else {
                version
            };
            match client.control(ControlOp::Promote {
                version: v,
                verdict,
            }) {
                Ok(outcome) => {
                    let ControlOutcome::Promoted { replaced, gate, .. } = outcome else {
                        unreachable!("promote returned {outcome:?}");
                    };
                    verdict.get_or_insert(GateVerdict {
                        against: replaced,
                        gate,
                    });
                    promoted.push(client);
                }
                Err(e) if promoted.is_empty() => return Err(e),
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
        verdict
            .map(|v| ControlOutcome::Promoted {
                version,
                replaced: v.against,
                gate: v.gate,
            })
            .ok_or(ControlError::Disconnected)
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
            // The fleet reaches its own verdict; a caller's is not trusted.
            ControlOp::Promote { version, .. } => self.fan_promote(version, None),
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
