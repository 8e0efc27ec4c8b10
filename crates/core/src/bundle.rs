//! Versioned knowledge-bundle artifacts — the deployable unit of knowledge.
//!
//! InfuserKI's deployment story is "one frozen base, many small patches":
//! everything a knowledge version adds — adapter weights, infuser-gate
//! weights, the RC head — lives in an [`InfuserKiMethod`] checkpoint measured
//! in kilobytes. A [`KnowledgeBundle`] wraps that checkpoint with the
//! metadata the serving layer needs to load it *safely* into a live process:
//!
//! * a **config fingerprint** (hash of the method config) for telemetry and
//!   A/B bookkeeping;
//! * the **base-model hash** the bundle was trained against — a bundle's
//!   adapters are deltas on one specific frozen base, so loading them onto a
//!   different base is silent corruption; [`KnowledgeBundle::verify`] makes
//!   it a typed error instead;
//! * an optional **NR/RR eval stamp** recorded at training time (the paper's
//!   two headline metrics: knowledge-*retention* on the known set, NR, and
//!   knowledge-*acquisition* on the unknown set, RR);
//! * **gate probes**: a held-out known-set MCQ sample the serving layer
//!   re-scores at `promote` time as an online NR regression gate — a bundle
//!   that answers fewer probes correctly than the currently active version
//!   is refused promotion.
//!
//! Bundles serialize as plain JSON through the workspace serde shim, same as
//! every other artifact in the repo.

use infuserki_nn::TransformerLm;
use serde::{Deserialize, Serialize};
use std::hash::{Hash, Hasher};

use crate::method::InfuserKiMethod;

/// Current bundle format version. Bump on incompatible schema changes;
/// [`KnowledgeBundle::verify`] rejects mismatches.
pub const BUNDLE_FORMAT: u32 = 1;

/// NR/RR scores stamped on a bundle at training/eval time (fractions in
/// `[0, 1]`; NR = known-set retention, RR = unknown-set acquisition).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvalStamp {
    pub nr: f32,
    pub rr: f32,
}

/// One held-out known-set MCQ probe for the promote-time NR gate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GateProbe {
    /// Question prompt tokens.
    pub prompt: Vec<usize>,
    /// Candidate answer continuations.
    pub options: Vec<Vec<usize>>,
    /// Index of the correct option.
    pub correct: usize,
}

/// A versioned, self-describing knowledge artifact: the trained
/// [`InfuserKiMethod`] plus the provenance and gate data needed to hot-swap
/// it into a serving process.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KnowledgeBundle {
    /// Schema version ([`BUNDLE_FORMAT`]).
    pub format: u32,
    /// Human-readable bundle name (e.g. `"umls-2026-08"`).
    pub name: String,
    /// Hex fingerprint of the method configuration.
    pub config_fingerprint: String,
    /// Hex hash of the frozen base model this bundle was built against.
    pub base_model_hash: String,
    /// Offline NR/RR eval results, if recorded.
    pub stamp: Option<EvalStamp>,
    /// Held-out known-set probes for the online NR gate at `promote`.
    pub gate_probes: Vec<GateProbe>,
    /// The knowledge weights themselves.
    pub method: InfuserKiMethod,
}

/// Deterministic 64-bit hex digest of a serializable value. Uses
/// `DefaultHasher`, which is fixed-key SipHash in this workspace's std — the
/// same digest on every run and host, which is what makes the base-model
/// hash a portable compatibility check. Returned as a hex *string* because
/// the serde_json shim stores numbers as f64 (u64 digests above 2^53 would
/// silently lose bits).
fn hex_digest<T: Serialize>(value: &T) -> Result<String, String> {
    let json = serde_json::to_string(value).map_err(|e| e.to_string())?;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    json.hash(&mut h);
    Ok(format!("{:016x}", h.finish()))
}

/// The hex digest [`KnowledgeBundle`] records for a frozen base model.
pub fn base_model_digest(base: &TransformerLm) -> Result<String, String> {
    hex_digest(base)
}

impl KnowledgeBundle {
    /// Wraps a trained method into a bundle targeting `base`, computing both
    /// hashes.
    pub fn new(
        name: impl Into<String>,
        method: InfuserKiMethod,
        base: &TransformerLm,
        stamp: Option<EvalStamp>,
        gate_probes: Vec<GateProbe>,
    ) -> Result<Self, String> {
        Ok(KnowledgeBundle {
            format: BUNDLE_FORMAT,
            name: name.into(),
            config_fingerprint: hex_digest(method.config())?,
            base_model_hash: base_model_digest(base)?,
            stamp,
            gate_probes,
            method,
        })
    }

    /// Saves the bundle as JSON.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), String> {
        let json = serde_json::to_string(self).map_err(|e| e.to_string())?;
        if let Some(dir) = path.as_ref().parent() {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        }
        std::fs::write(&path, json).map_err(|e| format!("write {}: {e}", path.as_ref().display()))
    }

    /// Loads a bundle saved by [`save`](Self::save). Checks only the schema
    /// version here; base compatibility is [`verify`](Self::verify), which
    /// needs the target model.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, String> {
        let json = std::fs::read_to_string(&path)
            .map_err(|e| format!("read {}: {e}", path.as_ref().display()))?;
        let bundle: KnowledgeBundle =
            serde_json::from_str(&json).map_err(|e| format!("parse bundle: {e}"))?;
        if bundle.format != BUNDLE_FORMAT {
            return Err(format!(
                "bundle '{}' has format {} but this build reads format {BUNDLE_FORMAT}",
                bundle.name, bundle.format
            ));
        }
        Ok(bundle)
    }

    /// Checks that this bundle can run against `base`: recorded base hash
    /// matches, the method's modules fit the model's depth and width
    /// ([`InfuserKiMethod::check_fits`]), and every gate probe is well-formed
    /// for the model's vocabulary. Returns a description of the first
    /// violation.
    pub fn verify(&self, base: &TransformerLm) -> Result<(), String> {
        self.verify_with_digest(base, &base_model_digest(base)?)
    }

    /// [`verify`](Self::verify) for a caller that holds `base` frozen and
    /// keeps its [`base_model_digest`]: the digest serializes every base
    /// weight, which is far more work than the rest of the check.
    pub fn verify_with_digest(&self, base: &TransformerLm, want: &str) -> Result<(), String> {
        if self.base_model_hash != want {
            return Err(format!(
                "bundle '{}' was built against base {} but the serving base is {}",
                self.name, self.base_model_hash, want
            ));
        }
        self.method
            .check_fits(base)
            .map_err(|e| format!("bundle '{}': {e}", self.name))?;
        let vocab = base.config().vocab_size;
        for (i, probe) in self.gate_probes.iter().enumerate() {
            if probe.options.is_empty() || probe.correct >= probe.options.len() {
                return Err(format!(
                    "bundle '{}' gate probe {i}: correct={} out of range for {} options",
                    self.name,
                    probe.correct,
                    probe.options.len()
                ));
            }
            let tokens = probe.prompt.iter().chain(probe.options.iter().flatten());
            for &t in tokens {
                if t >= vocab {
                    return Err(format!(
                        "bundle '{}' gate probe {i}: token {t} outside vocab {vocab}",
                        self.name
                    ));
                }
            }
            if probe.prompt.is_empty() || probe.options.iter().any(|o| o.is_empty()) {
                return Err(format!(
                    "bundle '{}' gate probe {i}: empty prompt or option",
                    self.name
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InfuserKiConfig;
    use infuserki_nn::ModelConfig;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn base() -> TransformerLm {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        TransformerLm::new(ModelConfig::tiny(24), &mut rng)
    }

    fn method(base: &TransformerLm) -> InfuserKiMethod {
        let mut c = InfuserKiConfig::for_model(base.n_layers());
        c.bottleneck = 4;
        c.infuser_hidden = 4;
        c.rc_dim = 8;
        InfuserKiMethod::new(c, base, 3)
    }

    fn probe() -> GateProbe {
        GateProbe {
            prompt: vec![1, 2, 3],
            options: vec![vec![4], vec![5, 6]],
            correct: 1,
        }
    }

    #[test]
    fn bundle_round_trips_and_verifies() {
        let b = base();
        let stamp = EvalStamp { nr: 0.96, rr: 0.41 };
        let bundle =
            KnowledgeBundle::new("umls-test", method(&b), &b, Some(stamp), vec![probe()]).unwrap();
        let path = std::env::temp_dir().join(format!("ki_bundle_rt_{}.json", std::process::id()));
        bundle.save(&path).unwrap();
        let loaded = KnowledgeBundle::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.name, "umls-test");
        assert_eq!(loaded.config_fingerprint, bundle.config_fingerprint);
        assert_eq!(loaded.base_model_hash, bundle.base_model_hash);
        assert_eq!(loaded.stamp, Some(stamp));
        assert_eq!(loaded.gate_probes, vec![probe()]);
        loaded.verify(&b).expect("round-tripped bundle verifies");
    }

    #[test]
    fn verify_rejects_a_different_base_model() {
        let b = base();
        let bundle = KnowledgeBundle::new("drift", method(&b), &b, None, vec![]).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let other = TransformerLm::new(ModelConfig::tiny(24), &mut rng);
        let err = bundle.verify(&other).unwrap_err();
        assert!(err.contains("built against base"), "got: {err}");
        // The digest-taking form compares against what it is handed.
        let kept = base_model_digest(&b).unwrap();
        bundle.verify_with_digest(&b, &kept).unwrap();
        let err = bundle
            .verify_with_digest(&b, &base_model_digest(&other).unwrap())
            .unwrap_err();
        assert!(err.contains("built against base"), "got: {err}");
    }

    #[test]
    fn verify_rejects_malformed_gate_probes() {
        let b = base();
        let bad_correct = GateProbe {
            correct: 2,
            ..probe()
        };
        let bundle = KnowledgeBundle::new("bad", method(&b), &b, None, vec![bad_correct]).unwrap();
        assert!(bundle.verify(&b).unwrap_err().contains("out of range"));
        let oov = GateProbe {
            prompt: vec![1, 999],
            ..probe()
        };
        let bundle = KnowledgeBundle::new("oov", method(&b), &b, None, vec![oov]).unwrap();
        assert!(bundle.verify(&b).unwrap_err().contains("outside vocab"));
    }

    #[test]
    fn load_rejects_future_formats() {
        let b = base();
        let mut bundle = KnowledgeBundle::new("future", method(&b), &b, None, vec![]).unwrap();
        bundle.format = BUNDLE_FORMAT + 1;
        let path = std::env::temp_dir().join(format!("ki_bundle_fmt_{}.json", std::process::id()));
        bundle.save(&path).unwrap();
        let err = KnowledgeBundle::load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.contains("format"), "got: {err}");
    }
}
