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
//! Both hashes are FNV-1a 64, a specified hash, so a digest is the same on
//! every run, host and toolchain. The config fingerprint hashes the method
//! config's JSON. The base-model hash ([`base_model_digest`]) hashes the
//! model config's JSON, then every parameter in visit order: its name, its
//! shape and the bits of each weight, so it reads the weights in place
//! instead of writing them out as text. Every length and count in that byte
//! stream is a little-endian `u64`, and every weight a little-endian `u32`
//! of its `f32` bits.
//!
//! Format 2 (this one) introduced those digests; a format-1 file fails
//! [`KnowledgeBundle::load`] with the format error, not a hash mismatch.
//!
//! Bundles serialize as plain JSON through the workspace serde shim, same as
//! every other artifact in the repo.

use infuserki_nn::layers::Module;
use infuserki_nn::{sampler, LayerHook, TransformerLm};
use serde::{Deserialize, Serialize};

use crate::method::InfuserKiMethod;

/// Current bundle format version. Bump on incompatible schema changes or a
/// change to what a digest covers; [`KnowledgeBundle::load`] rejects
/// mismatches.
pub const BUNDLE_FORMAT: u32 = 2;

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

impl GateProbe {
    /// Whether `hook` picks the correct option: the paper's detection-probe
    /// scoring (length-normalized option likelihood, argmax) on the
    /// single-request sampler path.
    pub fn answered_by(&self, model: &TransformerLm, hook: &dyn LayerHook) -> bool {
        let scores = sampler::score_options(model, hook, &self.prompt, &self.options);
        let lens: Vec<usize> = self.options.iter().map(Vec::len).collect();
        sampler::argmax(&sampler::option_probabilities(&scores, &lens)) == self.correct
    }
}

/// The promote-time NR regression gate's result: held-out known-set probes
/// answered correctly by the candidate vs the currently active version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateReport {
    /// Probes evaluated.
    pub probes: usize,
    /// Correct answers under the candidate (staged) version.
    pub staged_correct: usize,
    /// Correct answers under the active version.
    pub active_correct: usize,
}

impl GateReport {
    /// Scores every probe under the `staged` and the `active` hook.
    pub fn score(
        model: &TransformerLm,
        staged: &dyn LayerHook,
        active: &dyn LayerHook,
        probes: &[GateProbe],
    ) -> GateReport {
        let correct = |hook| probes.iter().filter(|p| p.answered_by(model, hook)).count();
        GateReport {
            probes: probes.len(),
            staged_correct: correct(staged),
            active_correct: correct(active),
        }
    }

    /// Whether the gate refuses the candidate: it answers fewer probes
    /// correctly than the active version.
    pub fn refuses(&self) -> bool {
        self.staged_correct < self.active_correct
    }
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

/// FNV-1a 64 over a byte stream. Rendered as a hex *string* because the
/// serde_json shim stores numbers as f64 (u64 digests above 2^53 would
/// silently lose bits).
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Writes a length or count.
    fn write_len(&mut self, n: usize) {
        self.write(&(n as u64).to_le_bytes());
    }

    fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The config fingerprint [`KnowledgeBundle`] records: FNV-1a 64 over the
/// method config's JSON.
fn config_fingerprint<T: Serialize>(config: &T) -> Result<String, String> {
    let json = serde_json::to_string(config).map_err(|e| e.to_string())?;
    let mut h = Fnv1a::new();
    h.write(json.as_bytes());
    Ok(h.hex())
}

/// The hex digest [`KnowledgeBundle`] records for a frozen base model:
/// FNV-1a 64 over the model config's JSON, then each parameter's name,
/// shape and weight bits (the byte stream the module doc specifies).
pub fn base_model_digest(base: &TransformerLm) -> Result<String, String> {
    let json = serde_json::to_string(base.config()).map_err(|e| e.to_string())?;
    let mut h = Fnv1a::new();
    h.write_len(json.len());
    h.write(json.as_bytes());
    base.visit(&mut |p| {
        h.write_len(p.name().len());
        h.write(p.name().as_bytes());
        h.write_len(p.data().rows());
        h.write_len(p.data().cols());
        for &x in p.data().data() {
            h.write(&x.to_bits().to_le_bytes());
        }
    });
    Ok(h.hex())
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
            config_fingerprint: config_fingerprint(method.config())?,
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
        let want = base_model_digest(base)?;
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

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ki_bundle_{name}_{}.json", std::process::id()))
    }

    /// A tiny model whose every weight is a fixed function of its position,
    /// so the pinned digest depends on the byte stream alone, not on init.
    fn fixed_base() -> TransformerLm {
        let mut m = TransformerLm::new(ModelConfig::tiny(8), &mut ChaCha8Rng::seed_from_u64(0));
        let mut k = 0u32;
        m.visit_mut(&mut |p| {
            for x in p.data_mut().data_mut() {
                *x = (k % 17) as f32 * 0.125 - 1.0;
                k += 1;
            }
        });
        m
    }

    #[test]
    fn digests_are_pinned_fnv1a() {
        let mut h = Fnv1a::new();
        assert_eq!(h.hex(), "cbf29ce484222325");
        h.write(b"a");
        assert_eq!(h.hex(), "af63dc4c8601ec8c");
        let b = fixed_base();
        assert_eq!(base_model_digest(&b).unwrap(), "4f865df28b816fe4");
        let mut c = InfuserKiConfig::for_model(2);
        c.bottleneck = 4;
        c.infuser_hidden = 4;
        c.rc_dim = 8;
        assert_eq!(config_fingerprint(&c).unwrap(), "f4b5d09de5c6560d");
    }

    #[test]
    fn base_digest_survives_save_and_load() {
        let b = base();
        let path = temp_path("digest_rt");
        b.save(&path).unwrap();
        let loaded = TransformerLm::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(
            base_model_digest(&loaded).unwrap(),
            base_model_digest(&b).unwrap()
        );
    }

    #[test]
    fn base_digest_sees_every_bit_every_name_and_the_config() {
        let b = base();
        let want = base_model_digest(&b).unwrap();
        // Flip one bit of one weight: the lowest mantissa bit, and the sign
        // of a zero (+0.0 and -0.0 compare equal but are different bits).
        let mut flipped = b.clone();
        let mut first = true;
        flipped.visit_mut(&mut |p| {
            if std::mem::take(&mut first) {
                let x = &mut p.data_mut().data_mut()[5];
                *x = f32::from_bits(x.to_bits() ^ 1);
            }
        });
        assert_ne!(base_model_digest(&flipped).unwrap(), want);
        let mut zeroed = b.clone();
        let mut signed = b.clone();
        for (m, zero) in [(&mut zeroed, 0.0f32), (&mut signed, -0.0f32)] {
            let mut first = true;
            m.visit_mut(&mut |p| {
                if std::mem::take(&mut first) {
                    p.data_mut().data_mut()[5] = zero;
                }
            });
        }
        assert_ne!(
            base_model_digest(&zeroed).unwrap(),
            base_model_digest(&signed).unwrap()
        );
        // Rename one parameter, keeping its value.
        let mut renamed = b.clone();
        let mut first = true;
        renamed.visit_mut(&mut |p| {
            if std::mem::take(&mut first) {
                *p = infuserki_tensor::Param::new("renamed", p.data().clone());
            }
        });
        assert_ne!(base_model_digest(&renamed).unwrap(), want);
        // Change only the config: `ln_eps` does not touch initialization, so
        // every weight stays bit-identical.
        let mk = |ln_eps| {
            let cfg = ModelConfig {
                ln_eps,
                ..ModelConfig::tiny(24)
            };
            TransformerLm::new(cfg, &mut ChaCha8Rng::seed_from_u64(3))
        };
        let (x, y) = (mk(1e-5), mk(1e-6));
        let bits = |m: &TransformerLm| {
            let mut v = Vec::new();
            m.visit(&mut |p| v.extend(p.data().data().iter().map(|x| x.to_bits())));
            v
        };
        assert_eq!(bits(&x), bits(&y));
        assert_ne!(
            base_model_digest(&x).unwrap(),
            base_model_digest(&y).unwrap()
        );
    }

    #[test]
    fn load_refuses_format_1() {
        let b = base();
        let mut bundle = KnowledgeBundle::new("old", method(&b), &b, None, vec![]).unwrap();
        bundle.format = 1;
        let path = temp_path("fmt1");
        bundle.save(&path).unwrap();
        let err = KnowledgeBundle::load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(
            err.contains("has format 1 but this build reads format 2"),
            "got: {err}"
        );
    }
}
