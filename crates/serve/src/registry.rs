//! The knowledge-bundle registry: versioned, hot-swappable hooks.
//!
//! A serving process starts with one *base* hook (version 0 — whatever
//! [`crate::Scheduler::new`] was built with, typically `NoHook` or an
//! initial adapter set) and grows a version per loaded
//! [`infuserki_core::KnowledgeBundle`]. The lifecycle is
//! **load → stage → promote → rollback**:
//!
//! * `load_bundle` verifies the artifact against the serving base model and
//!   *stages* it — it gets a version number and is immediately addressable
//!   by requests that pin it explicitly (`bundle: v`), which is how A/B
//!   traffic runs two knowledge versions concurrently;
//! * `promote` makes a staged version the default for unpinned requests —
//!   after the scheduler's NR regression gate passes ([the gate lives in the
//!   scheduler](crate::Scheduler::promote), which owns the model);
//! * `rollback` swaps the active version back to the previously active one.
//!
//! Versions are never unloaded: a hook that admitted even one request may
//! have in-flight lanes and prefix-cache entries keyed to it, and bundle
//! checkpoints are kilobytes — keeping every staged version addressable
//! makes pinning and rollback trivially safe. In-flight requests hold the
//! hook through an [`Arc`], so a version stays alive (and its lanes bitwise
//! deterministic) across any number of promotes while they retire.

use std::sync::Arc;

use infuserki_core::{EvalStamp, GateProbe, GateReport};
use infuserki_nn::LayerHook;
use infuserki_obs as obs;

use crate::metrics::ServeMetrics;

/// A shareable, thread-safe hook handle. The lifetime covers borrowed base
/// hooks (`Arc<&'a dyn LayerHook>` coerces here via the reference-forwarding
/// `LayerHook` impl); owned bundle hooks are `'static` and subtype in.
pub type HookArc<'a> = Arc<dyn LayerHook + Send + Sync + 'a>;

/// One registered knowledge version.
pub struct BundleEntry<'a> {
    /// Registry version number (== index; dense from 0).
    pub version: u32,
    /// Bundle name ("base" for version 0).
    pub name: String,
    /// Hex fingerprint of the method config (empty for the base hook).
    pub config_fingerprint: String,
    /// Offline NR/RR stamp carried by the bundle, if any.
    pub stamp: Option<EvalStamp>,
    /// Held-out probes for the promote-time NR gate.
    pub gate_probes: Vec<GateProbe>,
    /// The hook itself.
    pub hook: HookArc<'a>,
    /// Requests admitted on this version (`serve.bundle.v<N>.requests`).
    pub served: Arc<obs::Counter>,
}

/// Registry of knowledge versions plus the active/previous promotion state.
pub struct BundleRegistry<'a> {
    entries: Vec<BundleEntry<'a>>,
    active: u32,
    previous: Option<u32>,
}

impl<'a> BundleRegistry<'a> {
    /// A registry whose version 0 is `base_hook`, active.
    pub fn new(base_hook: HookArc<'a>, metrics: &ServeMetrics) -> Self {
        let mut r = BundleRegistry {
            entries: Vec::new(),
            active: 0,
            previous: None,
        };
        r.stage("base", String::new(), None, Vec::new(), base_hook, metrics);
        r
    }

    /// The version unpinned requests resolve to at admission.
    pub fn active_version(&self) -> u32 {
        self.active
    }

    /// The version `rollback` would restore.
    pub fn previous_version(&self) -> Option<u32> {
        self.previous
    }

    /// Looks up a version.
    pub fn get(&self, version: u32) -> Option<&BundleEntry<'a>> {
        self.entries.get(version as usize)
    }

    /// Resolves a request's optional pin to a concrete version. `None` pins
    /// to whatever is active *now*; an explicit unknown version is an error
    /// carrying the bad number.
    pub fn resolve(&self, pin: Option<u32>) -> Result<&BundleEntry<'a>, u32> {
        let v = pin.unwrap_or(self.active);
        self.get(v).ok_or(v)
    }

    /// Stages a new version (not yet active). Returns its version number.
    pub fn stage(
        &mut self,
        name: impl Into<String>,
        config_fingerprint: String,
        stamp: Option<EvalStamp>,
        gate_probes: Vec<GateProbe>,
        hook: HookArc<'a>,
        metrics: &ServeMetrics,
    ) -> u32 {
        let version = self.entries.len() as u32;
        let served = metrics
            .registry()
            .counter(&format!("serve.bundle.v{version}.requests"));
        self.entries.push(BundleEntry {
            version,
            name: name.into(),
            config_fingerprint,
            stamp,
            gate_probes,
            hook,
            served,
        });
        version
    }

    /// Makes `version` active, remembering the outgoing version for
    /// rollback. The caller (scheduler) has already run the NR gate.
    pub fn promote(&mut self, version: u32) {
        assert!((version as usize) < self.entries.len(), "promote: unknown");
        self.previous = Some(self.active);
        self.active = version;
    }

    /// Swaps active back to the previously active version. A second
    /// rollback undoes the first (active/previous swap).
    pub fn rollback(&mut self) -> Option<u32> {
        let prev = self.previous?;
        self.previous = Some(self.active);
        self.active = prev;
        Some(prev)
    }

    /// Descriptive row for `list_bundles` / control responses.
    pub fn info(&self, version: u32) -> BundleInfo {
        let e = &self.entries[version as usize];
        BundleInfo {
            version,
            name: e.name.clone(),
            config_fingerprint: e.config_fingerprint.clone(),
            active: version == self.active,
            previous: self.previous == Some(version),
            requests: e.served.get(),
            nr: e.stamp.map(|s| s.nr),
            rr: e.stamp.map(|s| s.rr),
            gate_probes: e.gate_probes.len(),
        }
    }

    /// All versions, in version order.
    pub fn list(&self) -> Vec<BundleInfo> {
        (0..self.entries.len() as u32)
            .map(|v| self.info(v))
            .collect()
    }
}

/// One row of `list_bundles`.
#[derive(Debug, Clone, PartialEq)]
pub struct BundleInfo {
    pub version: u32,
    pub name: String,
    pub config_fingerprint: String,
    /// Default for unpinned requests right now.
    pub active: bool,
    /// Would become active on `rollback`.
    pub previous: bool,
    /// Requests admitted on this version so far.
    pub requests: u64,
    /// Offline NR stamp, if the bundle carried one.
    pub nr: Option<f32>,
    /// Offline RR stamp, if the bundle carried one.
    pub rr: Option<f32>,
    /// Held-out probes available to the promote gate.
    pub gate_probes: usize,
}

/// A control-plane operation on the live scheduler, executed between steps
/// on the scheduler thread (never mid-forward, so swaps cannot tear a
/// batch).
#[derive(Debug, Clone, PartialEq)]
pub enum ControlOp {
    /// Load + verify + stage a bundle file.
    LoadBundle {
        /// Filesystem path of the bundle JSON.
        path: String,
    },
    /// Make a staged version the default (runs the NR gate first).
    Promote {
        /// Version to activate.
        version: u32,
    },
    /// Restore the previously active version.
    Rollback,
    /// Describe every registered version.
    ListBundles,
}

/// Successful control-plane result.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlOutcome {
    /// Bundle staged as this version.
    Loaded(BundleInfo),
    /// Version activated; `gate` reports the NR probe comparison when the
    /// bundle carried probes.
    Promoted {
        version: u32,
        gate: Option<GateReport>,
    },
    /// Previous version restored.
    RolledBack { version: u32 },
    /// Registry contents.
    Bundles(Vec<BundleInfo>),
}

/// Typed control-plane failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlError {
    /// The version was never staged.
    UnknownVersion(u32),
    /// Promote target is already the active version.
    AlreadyActive(u32),
    /// The NR gate refused the promotion: the candidate answers fewer
    /// held-out known-set probes than the active version.
    NrGateFailed { version: u32, gate: GateReport },
    /// Rollback with no previously active version.
    NothingToRollBack,
    /// The bundle file could not be read or parsed.
    Bundle(String),
    /// The bundle verifies against a different base model, or its hook
    /// cannot run under this engine configuration.
    Incompatible(String),
    /// The scheduler is draining; control ops are refused.
    ShuttingDown,
    /// The scheduler thread is gone.
    Disconnected,
}

impl std::fmt::Display for ControlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControlError::UnknownVersion(v) => write!(f, "unknown bundle version {v}"),
            ControlError::AlreadyActive(v) => write!(f, "version {v} is already active"),
            ControlError::NrGateFailed { version, gate } => write!(
                f,
                "NR gate failed for version {version}: {}/{} probes correct vs {}/{} on the \
                 active version",
                gate.staged_correct, gate.probes, gate.active_correct, gate.probes
            ),
            ControlError::NothingToRollBack => write!(f, "no previous version to roll back to"),
            ControlError::Bundle(e) => write!(f, "bundle error: {e}"),
            ControlError::Incompatible(e) => write!(f, "incompatible bundle: {e}"),
            ControlError::ShuttingDown => write!(f, "scheduler is shutting down"),
            ControlError::Disconnected => write!(f, "scheduler disconnected"),
        }
    }
}

impl std::error::Error for ControlError {}

/// Whatever executes [`ControlOp`]s: one scheduler ([`crate::Client`]) or a
/// fleet of them behind a router. Implementors supply
/// [`ControlPlane::control`]; the typed wrappers are written once, here.
pub trait ControlPlane {
    /// Executes one knowledge-bundle control op and blocks for the result.
    fn control(&self, op: ControlOp) -> Result<ControlOutcome, ControlError>;

    /// Loads, verifies and stages a [`infuserki_core::KnowledgeBundle`]
    /// file; the returned version is pinnable immediately but serves
    /// unpinned traffic only after [`ControlPlane::promote`].
    fn load_bundle(&self, path: &str) -> Result<BundleInfo, ControlError> {
        match self.control(ControlOp::LoadBundle { path: path.into() })? {
            ControlOutcome::Loaded(info) => Ok(info),
            other => unreachable!("load_bundle returned {other:?}"),
        }
    }

    /// Promotes a staged version to active (after the NR regression gate,
    /// whose report is returned when the bundle carries probes).
    fn promote(&self, version: u32) -> Result<Option<GateReport>, ControlError> {
        match self.control(ControlOp::Promote { version })? {
            ControlOutcome::Promoted { gate, .. } => Ok(gate),
            other => unreachable!("promote returned {other:?}"),
        }
    }

    /// Restores the previously active version; returns the now-active one.
    fn rollback(&self) -> Result<u32, ControlError> {
        match self.control(ControlOp::Rollback)? {
            ControlOutcome::RolledBack { version } => Ok(version),
            other => unreachable!("rollback returned {other:?}"),
        }
    }

    /// Every registered knowledge version, in version order.
    fn list_bundles(&self) -> Result<Vec<BundleInfo>, ControlError> {
        match self.control(ControlOp::ListBundles)? {
            ControlOutcome::Bundles(list) => Ok(list),
            other => unreachable!("list_bundles returned {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infuserki_nn::NoHook;

    fn registry() -> (BundleRegistry<'static>, ServeMetrics) {
        let metrics = ServeMetrics::new();
        let r = BundleRegistry::new(Arc::new(NoHook), &metrics);
        (r, metrics)
    }

    #[test]
    fn base_is_version_zero_and_active() {
        let (r, _m) = registry();
        assert_eq!(r.active_version(), 0);
        assert_eq!(r.previous_version(), None);
        let info = r.info(0);
        assert_eq!(info.name, "base");
        assert!(info.active);
        assert!(r.resolve(None).is_ok());
        assert_eq!(r.resolve(Some(5)).err(), Some(5));
    }

    #[test]
    fn promote_then_rollback_swaps_active_and_previous() {
        let (mut r, m) = registry();
        let v = r.stage("k1", String::new(), None, Vec::new(), Arc::new(NoHook), &m);
        assert_eq!(v, 1);
        assert_eq!(r.active_version(), 0, "staging does not activate");
        r.promote(v);
        assert_eq!(r.active_version(), 1);
        assert_eq!(r.previous_version(), Some(0));
        assert_eq!(r.rollback(), Some(0));
        assert_eq!(r.active_version(), 0);
        // Rollback is itself reversible.
        assert_eq!(r.rollback(), Some(1));
        assert_eq!(r.active_version(), 1);
    }

    #[test]
    fn rollback_without_history_is_none() {
        let (mut r, _m) = registry();
        assert_eq!(r.rollback(), None);
    }

    #[test]
    fn per_version_request_counters_register() {
        let (mut r, m) = registry();
        let v = r.stage("k1", String::new(), None, Vec::new(), Arc::new(NoHook), &m);
        r.get(v).unwrap().served.inc();
        let snap = m.registry().snapshot();
        assert_eq!(
            snap.get("serve.bundle.v1.requests"),
            Some(&obs::MetricValue::Counter(1))
        );
        assert_eq!(r.info(v).requests, 1);
    }
}
