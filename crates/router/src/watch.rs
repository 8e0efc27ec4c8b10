//! Live knowledge watching: hosts the ingest update pipeline inside a
//! serving process (`serve --watch-kg DIR`).
//!
//! Two pieces close the loop between a WAL directory and the serving
//! registry:
//!
//! * [`RouterClient`] implements [`infuserki_ingest::BundlePublisher`], so
//!   the pipeline's finished bundles go through the real control plane:
//!   `load_bundle` (verify + stage on every replica) then `promote` (NR
//!   regression gate, all-or-none). A gate refusal on any replica rolls the
//!   group back and maps to [`PublishError::GateRefused`] — the pipeline
//!   drops the regressing batch and the previous version keeps serving
//!   everywhere.
//! * [`spawn_watcher`] drives [`UpdatePipeline::run_once`] on a background
//!   thread at the configured poll cadence until a stop flag is set, so the
//!   `serve` binary can ingest and serve from one process. Requests are
//!   never paused: control ops land between scheduler steps, so a promote
//!   mid-stream cannot tear an in-flight batch.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use infuserki_ingest::{
    BundlePublisher, PublishError, PublishReport, RoundOutcome, UpdatePipeline,
};
use infuserki_serve::{ControlError, ControlPlane};
use infuserki_text::Tokenizer;

use crate::RouterClient;

impl BundlePublisher for RouterClient {
    /// Fleet-wide load → stage → all-or-none promote. The promote-time NR
    /// gate is the safety valve: a refusal comes back typed so the pipeline
    /// can drop the batch instead of erroring out.
    fn publish(&self, path: &Path) -> Result<PublishReport, PublishError> {
        let path_str = path.to_str().ok_or_else(|| {
            PublishError::Other(format!("non-utf8 bundle path {}", path.display()))
        })?;
        let info = self
            .load_bundle(path_str)
            .map_err(|e| PublishError::Other(e.to_string()))?;
        match self.promote(info.version) {
            Ok(_) => Ok(PublishReport {
                version: info.version,
            }),
            Err(ControlError::NrGateFailed { gate, .. }) => Err(PublishError::GateRefused(gate)),
            Err(e) => Err(PublishError::Other(e.to_string())),
        }
    }
}

/// Loads a tokenizer saved as JSON (the serde form of
/// [`infuserki_text::Tokenizer`]) and rebuilds its lookup index, which does
/// not serialize.
pub fn load_tokenizer(path: &str) -> Result<Tokenizer, String> {
    let json =
        std::fs::read_to_string(path).map_err(|e| format!("read tokenizer `{path}`: {e}"))?;
    let mut tok: Tokenizer =
        serde_json::from_str(&json).map_err(|e| format!("parse tokenizer `{path}`: {e}"))?;
    tok.rebuild_index();
    Ok(tok)
}

/// Runs the update pipeline on a named background thread until `stop` is
/// set. Round outcomes are narrated on stderr; pipeline errors are logged
/// and polling continues (ingestion must outlive transient publish
/// failures — durability lives in the WAL, not in this thread).
pub fn spawn_watcher(
    mut pipeline: UpdatePipeline<RouterClient>,
    stop: Arc<AtomicBool>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("infuserki-watch-kg".into())
        .spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                match pipeline.run_once() {
                    Ok(RoundOutcome::Idle) | Ok(RoundOutcome::Waiting { .. }) => {}
                    Ok(RoundOutcome::Published {
                        version,
                        name,
                        newly_integrated,
                        ..
                    }) => eprintln!(
                        "serve: watch-kg published `{name}` as version {version} \
                         ({newly_integrated} newly integrated)"
                    ),
                    Ok(RoundOutcome::Refused(g)) => eprintln!(
                        "serve: watch-kg NR gate refused bundle ({}/{} vs {}/{} active); \
                         previous version keeps serving",
                        g.staged_correct, g.probes, g.active_correct, g.probes
                    ),
                    Err(e) => eprintln!("serve: watch-kg error: {e}"),
                }
                // Sleep in short slices so shutdown joins promptly even
                // under a long poll cadence.
                let poll_ms = pipeline.config().poll_ms.max(1);
                let mut waited = 0u64;
                while waited < poll_ms && !stop.load(Ordering::Relaxed) {
                    let slice = (poll_ms - waited).min(25);
                    std::thread::sleep(Duration::from_millis(slice));
                    waited += slice;
                }
            }
        })
        .expect("serve: failed to spawn watch-kg thread")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{spawn_router, RouterConfig};
    use infuserki_core::{
        GateProbe, GateReport, InfuserKiConfig, InfuserKiMethod, KnowledgeBundle,
    };
    use infuserki_nn::{sampler, LayerHook, ModelConfig, NoHook, TransformerLm};
    use infuserki_tensor::kernels;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::path::PathBuf;

    const VOCAB: usize = 40;

    fn base() -> TransformerLm {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        TransformerLm::new(ModelConfig::tiny(VOCAB), &mut rng)
    }

    fn nudged_method(b: &TransformerLm, k: f32) -> InfuserKiMethod {
        let mut c = InfuserKiConfig::for_model(b.n_layers());
        c.bottleneck = 4;
        c.infuser_hidden = 4;
        c.rc_dim = 8;
        let mut m = InfuserKiMethod::new(c, b, 5);
        m.visit_adapters_mut(&mut |p: &mut infuserki_tensor::Param| {
            for (i, w) in p.data_mut().data_mut().iter_mut().enumerate() {
                *w += k * ((i % 7) as f32 - 3.0);
            }
        });
        m
    }

    fn save_bundle(
        name: &str,
        method: InfuserKiMethod,
        b: &TransformerLm,
        probes: Vec<GateProbe>,
    ) -> PathBuf {
        let path = std::env::temp_dir().join(format!(
            "infuserki_watch_{}_{}.bundle.json",
            name,
            std::process::id()
        ));
        KnowledgeBundle::new(name, method, b, None, probes)
            .unwrap()
            .save(&path)
            .unwrap();
        path
    }

    /// Probes `right` answers with its own argmax and `wrong` disagrees on.
    fn disagreement_probes(
        b: &TransformerLm,
        right: &dyn LayerHook,
        wrong: &dyn LayerHook,
        n: usize,
    ) -> Vec<GateProbe> {
        let mut probes = Vec::new();
        let mut seed = 0usize;
        while probes.len() < n {
            seed += 1;
            let prompt = vec![seed % VOCAB, (seed * 3 + 1) % VOCAB, (seed * 7 + 2) % VOCAB];
            let options = vec![
                vec![(seed * 5) % VOCAB, (seed + 11) % VOCAB],
                vec![(seed * 2 + 3) % VOCAB],
                vec![(seed + 9) % VOCAB, (seed * 4 + 1) % VOCAB],
            ];
            let pick = |hook: &dyn LayerHook| {
                let scores = sampler::score_options(b, hook, &prompt, &options);
                let lens: Vec<usize> = options.iter().map(Vec::len).collect();
                sampler::argmax(&sampler::option_probabilities(&scores, &lens))
            };
            let (r, w) = (pick(right), pick(wrong));
            if r != w {
                probes.push(GateProbe {
                    prompt,
                    options,
                    correct: r,
                });
            }
            assert!(seed < 4000, "no disagreeing probes found");
        }
        probes
    }

    #[test]
    fn client_publishes_through_load_and_promote() {
        kernels::set_num_threads(1);
        let b = base();
        let p1 = save_bundle("pub1", nudged_method(&b, 0.01), &b, Vec::new());
        let p2 = save_bundle("pub2", nudged_method(&b, -0.02), &b, Vec::new());
        let (client, handle) = spawn_router(RouterConfig::default(), |_| (base(), NoHook)).unwrap();
        assert_eq!(client.publish(&p1).unwrap(), PublishReport { version: 1 });
        assert_eq!(client.publish(&p2).unwrap(), PublishReport { version: 2 });
        let list = client.list_bundles().unwrap();
        assert_eq!(list.len(), 3);
        assert!(list[2].active, "last published version is active");
        handle.shutdown();
        let _ = std::fs::remove_file(&p1);
        let _ = std::fs::remove_file(&p2);
    }

    #[test]
    fn gate_refusal_maps_to_typed_publish_error() {
        kernels::set_num_threads(1);
        let b = base();
        // Probes the active base answers "correctly" by construction and
        // the candidate gets wrong → the NR gate refuses the promote.
        let bad = nudged_method(&b, 0.05);
        let probes = disagreement_probes(&b, &NoHook, &bad.hook(), 3);
        let p_bad = save_bundle("bad", bad, &b, probes);
        let (client, handle) = spawn_router(RouterConfig::default(), |_| (base(), NoHook)).unwrap();
        let err = client.publish(&p_bad).unwrap_err();
        assert_eq!(
            err,
            PublishError::GateRefused(GateReport {
                probes: 3,
                staged_correct: 0,
                active_correct: 3,
            })
        );
        // The refused bundle stays staged but never activates.
        let list = client.list_bundles().unwrap();
        assert!(list[0].active, "base remains active after refusal");
        assert!(!list[1].active);
        handle.shutdown();
        let _ = std::fs::remove_file(&p_bad);
    }

    #[test]
    fn tokenizer_round_trips_through_json_with_live_index() {
        let tok = Tokenizer::build(["alpha beta", "gamma delta"]);
        let path =
            std::env::temp_dir().join(format!("infuserki_watch_tok_{}.json", std::process::id()));
        std::fs::write(&path, serde_json::to_string(&tok).unwrap()).unwrap();
        let loaded = load_tokenizer(&path.display().to_string()).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(loaded.vocab_size(), tok.vocab_size());
        // The rebuilt index actually resolves words (it is #[serde(skip)]).
        assert_eq!(loaded.word_id("gamma"), tok.word_id("gamma"));
        assert!(loaded.word_id("epsilon").is_none());
    }
}
