//! The online knowledge-update pipeline: WAL tail → batch trigger →
//! detect/train (`core::incremental`) → bundle packaging → publish.
//!
//! One pipeline instance watches one WAL directory and owns a persistent
//! [`InfuserKiMethod`] that accumulates knowledge across rounds (the
//! paper's incremental-integration setting). Each round:
//!
//! 1. **Tail** — poll the WAL for new records and fold them into the
//!    materialized [`KgState`]. `add` deltas that the serving tokenizer can
//!    phrase (closed-vocabulary check) queue for training; the rest become
//!    typed rejects. WAL content that predates the pipeline is baseline
//!    world state, not training work.
//! 2. **Trigger** — a round starts when the queue passes `min_batch` or the
//!    oldest queued delta passes `max_age_ms`.
//! 3. **Train** — rebuild the vocab-filtered live store, build the round's
//!    one [`McqBank`], run [`integrate_more`] on it (detection with the
//!    patched model, so facts from earlier rounds are skipped), and score
//!    held-out probes.
//! 4. **Package** — wrap the method in a [`KnowledgeBundle`] whose gate
//!    probes are the new facts' MCQs (template 0 of the same bank) plus
//!    probes carried from earlier rounds, and persist the round's
//!    [`IncrementalReport`](infuserki_core::IncrementalReport) next to it.
//! 5. **Publish** — hand the bundle to a [`BundlePublisher`]
//!    (load→stage→promote in a serving process). The promote-time NR gate
//!    is the safety valve: a refused bundle leaves the previous version
//!    serving and the pipeline moves on.

use std::path::{Path, PathBuf};
use std::time::Instant;

use infuserki_core::{
    integrate_more, EvalStamp, GateProbe, GateReport, InfuserKiConfig, InfuserKiMethod,
    KnowledgeBundle, McqBank, TrainConfig,
};
use infuserki_kg::{Triple, TripleStore};
use infuserki_nn::TransformerLm;
use infuserki_obs::Registry;
use infuserki_text::tokenizer::split_words;
use infuserki_text::{format_mcq_prompt, prompts, templates::TemplateSet, Mcq, Tokenizer};
use serde::{Deserialize, Serialize};

use crate::delta::{DeltaOp, RejectKind, TripleDelta};
use crate::metrics::IngestMetrics;
use crate::store::{latest_snapshot_seq, recover, KgState};
use crate::wal::{WalError, WalTailer, WAL_FILE};

/// How a published bundle landed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublishReport {
    /// The version the serving registry assigned.
    pub version: u32,
}

/// Why a publish did not land.
#[derive(Debug, Clone, PartialEq)]
pub enum PublishError {
    /// The serving side's promote-time NR gate refused the bundle; the
    /// previous version keeps serving.
    GateRefused(GateReport),
    /// Any other failure (I/O, incompatible bundle, dead server).
    Other(String),
}

impl std::fmt::Display for PublishError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PublishError::GateRefused(g) => write!(
                f,
                "NR gate refused bundle: {}/{} vs {}/{} active",
                g.staged_correct, g.probes, g.active_correct, g.probes
            ),
            PublishError::Other(e) => write!(f, "{e}"),
        }
    }
}

/// Where finished bundles go. The serving integration implements this for
/// its control-plane client (load→stage→promote); tests implement it
/// in-process.
pub trait BundlePublisher {
    /// Publishes the bundle file at `path` and returns the assigned
    /// version.
    fn publish(&self, path: &Path) -> Result<PublishReport, PublishError>;
}

/// Pipeline tuning. Serializable so `serve --watch-config` can load it
/// from a JSON file; generate one with
/// `serde_json::to_string(&PipelineConfig::default())` and edit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Queue size that triggers a round.
    pub min_batch: usize,
    /// Age (ms) of the oldest queued delta that triggers a round of any
    /// size.
    pub max_age_ms: u64,
    /// Poll cadence (ms) for the watcher thread driving [`UpdatePipeline::run_once`].
    pub poll_ms: u64,
    /// Cap on gate probes per bundle (carried probes first, then this
    /// round's new-fact probes).
    pub max_gate_probes: usize,
    /// How many probes to carry forward to later rounds' bundles (the NR
    /// gate's memory of earlier knowledge).
    pub carry_probes: usize,
    /// Directory bundles and reports are written to (a path, stored as a
    /// string so the config serializes through the workspace serde shim).
    pub bundle_dir: String,
    /// Bundle name prefix (`{prefix}-r{round}`).
    pub name_prefix: String,
    /// Relation-head capacity of the method (new relations beyond this are
    /// rejected as [`RejectKind::RelationCapacity`]).
    pub max_relations: usize,
    /// Method architecture; `None` uses [`InfuserKiConfig::for_model`].
    pub method: Option<InfuserKiConfig>,
    /// Per-round training config (`seed` is xored with the round number).
    pub train: TrainConfig,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            min_batch: 4,
            max_age_ms: 10_000,
            poll_ms: 200,
            max_gate_probes: 32,
            carry_probes: 16,
            bundle_dir: "bundles".to_string(),
            name_prefix: "ingest".to_string(),
            max_relations: 32,
            method: None,
            train: TrainConfig::default(),
        }
    }
}

/// What one [`UpdatePipeline::run_once`] call did.
#[derive(Debug, Clone, PartialEq)]
pub enum RoundOutcome {
    /// No new records and nothing queued.
    Idle,
    /// Deltas are queued but the trigger has not fired.
    Waiting {
        /// Queued delta count.
        pending: usize,
    },
    /// A bundle was built and promoted.
    Published {
        /// Serving-side version.
        version: u32,
        /// Bundle name.
        name: String,
        /// Bundle artifact path.
        path: PathBuf,
        /// Facts the round actually trained (unknown under the patched
        /// model).
        newly_integrated: usize,
    },
    /// A bundle was built but the NR gate refused it; the batch is dropped
    /// and the previous version keeps serving.
    Refused(GateReport),
}

/// A pipeline failure (distinct from a gate refusal, which is an outcome).
#[derive(Debug)]
pub enum PipelineError {
    /// WAL read failure or corruption.
    Wal(WalError),
    /// Bundle/report artifact could not be written.
    Artifact(String),
    /// The publisher failed for a non-gate reason.
    Publish(String),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Wal(e) => write!(f, "wal: {e}"),
            PipelineError::Artifact(e) => write!(f, "artifact: {e}"),
            PipelineError::Publish(e) => write!(f, "publish: {e}"),
        }
    }
}

impl From<WalError> for PipelineError {
    fn from(e: WalError) -> Self {
        PipelineError::Wal(e)
    }
}

/// The online update pipeline. See the module docs for the round shape.
pub struct UpdatePipeline<P: BundlePublisher> {
    base: TransformerLm,
    tokenizer: Tokenizer,
    method: InfuserKiMethod,
    cfg: PipelineConfig,
    publisher: P,
    metrics: IngestMetrics,
    wal_dir: PathBuf,
    state: KgState,
    tailer: WalTailer,
    pending: Vec<TripleDelta>,
    pending_since: Option<Instant>,
    carried: Vec<GateProbe>,
    round: u64,
}

impl<P: BundlePublisher> UpdatePipeline<P> {
    /// Opens the pipeline over `wal_dir`, recovering the current state.
    /// Existing WAL content becomes the baseline world; only records
    /// appended afterwards queue for training. `registry` receives the
    /// `ingest.*` metrics.
    pub fn new(
        base: TransformerLm,
        tokenizer: Tokenizer,
        wal_dir: impl AsRef<Path>,
        cfg: PipelineConfig,
        publisher: P,
        registry: &Registry,
    ) -> Result<Self, WalError> {
        let wal_dir = wal_dir.as_ref().to_path_buf();
        let rec = recover(&wal_dir)?;
        let tailer = WalTailer::new(
            wal_dir.join(WAL_FILE),
            rec.state.seq,
            rec.valid_len,
            rec.state.seq as usize,
        );
        let method_cfg = cfg
            .method
            .clone()
            .unwrap_or_else(|| InfuserKiConfig::for_model(base.n_layers()));
        let method = InfuserKiMethod::new(method_cfg, &base, cfg.max_relations);
        let metrics = IngestMetrics::new(registry);
        metrics.wal_bytes.set(rec.valid_len as i64);
        Ok(UpdatePipeline {
            base,
            tokenizer,
            method,
            cfg,
            publisher,
            metrics,
            wal_dir,
            state: rec.state,
            tailer,
            pending: Vec::new(),
            pending_since: None,
            carried: Vec::new(),
            round: 0,
        })
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.cfg
    }

    /// Mutable configuration access (an operations hook: retune triggers or
    /// probe budgets between rounds).
    pub fn config_mut(&mut self) -> &mut PipelineConfig {
        &mut self.cfg
    }

    /// The materialized WAL state as of the last poll.
    pub fn state(&self) -> &KgState {
        &self.state
    }

    /// Deltas queued for the next round.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Probes carried from earlier rounds (earlier knowledge the NR gate
    /// re-checks on every later bundle).
    pub fn carried_probes(&self) -> &[GateProbe] {
        &self.carried
    }

    /// Replaces the accumulated method with a fresh (untrained) one —
    /// an operations/testing hook for "start knowledge over without
    /// restarting ingestion".
    pub fn reset_method(&mut self) {
        let method_cfg = self
            .cfg
            .method
            .clone()
            .unwrap_or_else(|| InfuserKiConfig::for_model(self.base.n_layers()));
        self.method = InfuserKiMethod::new(method_cfg, &self.base, self.cfg.max_relations);
    }

    /// One pipeline step: poll the WAL, queue work, and run a round if the
    /// trigger fires. Non-blocking (call it on a cadence of
    /// [`PipelineConfig::poll_ms`]).
    pub fn run_once(&mut self) -> Result<RoundOutcome, PipelineError> {
        self.poll()?;
        if self.pending.is_empty() {
            return Ok(RoundOutcome::Idle);
        }
        let aged = self
            .pending_since
            .is_some_and(|t| t.elapsed().as_millis() as u64 >= self.cfg.max_age_ms);
        if self.pending.len() < self.cfg.min_batch && !aged {
            return Ok(RoundOutcome::Waiting {
                pending: self.pending.len(),
            });
        }
        self.run_round()
    }

    /// Polls the WAL and folds new records into the state and the pending
    /// queue. Returns whether anything new arrived.
    fn poll(&mut self) -> Result<bool, WalError> {
        let started = Instant::now();
        let records = self.tailer.poll()?;
        if records.is_empty() {
            return Ok(false);
        }
        self.metrics.records_in.add(records.len() as u64);
        for rec in &records {
            self.state.apply(&rec.delta);
            self.state.seq = rec.seq;
            self.metrics.records_accepted.inc();
            match rec.delta.op {
                DeltaOp::Add => match self.admit(&rec.delta) {
                    Ok(()) => {
                        if self.pending.is_empty() {
                            self.pending_since = Some(Instant::now());
                        }
                        self.pending.push(rec.delta.clone());
                    }
                    Err(kind) => self.metrics.reject(kind),
                },
                // Retracts update the world (and future distractors) but
                // are not trainable facts themselves.
                DeltaOp::Retract => {}
            }
        }
        self.metrics.apply_ms.record_duration(started.elapsed());
        self.metrics.pending_deltas.set(self.pending.len() as i64);
        self.metrics.wal_bytes.set(self.tailer_bytes() as i64);
        self.metrics
            .snapshot_age_records
            .set((self.state.seq - latest_snapshot_seq(&self.wal_dir).min(self.state.seq)) as i64);
        Ok(true)
    }

    fn tailer_bytes(&self) -> u64 {
        std::fs::metadata(self.wal_dir.join(WAL_FILE))
            .map(|m| m.len())
            .unwrap_or(0)
    }

    /// Checks a freshly applied `add` for trainability: the serving
    /// tokenizer must be able to phrase questions about it (closed
    /// vocabulary) and its relation must fit the method's RC-head capacity.
    fn admit(&self, delta: &TripleDelta) -> Result<(), RejectKind> {
        if !self.delta_in_vocab(delta) {
            return Err(RejectKind::OutOfVocabulary);
        }
        let known_relation = self
            .state
            .store
            .relation_names()
            .take(self.cfg.max_relations)
            .any(|r| r == delta.relation);
        if !known_relation {
            return Err(RejectKind::RelationCapacity);
        }
        Ok(())
    }

    fn delta_in_vocab(&self, delta: &TripleDelta) -> bool {
        self.text_in_vocab(&delta.subject)
            && self.text_in_vocab(&delta.object)
            && self.relation_in_vocab(&delta.relation)
    }

    fn text_in_vocab(&self, text: &str) -> bool {
        let words = split_words(text);
        !words.is_empty() && words.iter().all(|w| self.tokenizer.word_id(w).is_some())
    }

    /// Whether every template line of `relation` is phrasable (the `x`/`y`
    /// slots are filled by entity names, checked separately).
    fn relation_in_vocab(&self, relation: &str) -> bool {
        TemplateSet::vocabulary_lines(relation).iter().all(|line| {
            split_words(line)
                .iter()
                .all(|w| w == "x" || w == "y" || self.tokenizer.word_id(w).is_some())
        })
    }

    /// Rebuilds the vocab-filtered live training store (fresh interning in
    /// WAL order, so ids are deterministic given the same live set) and
    /// maps the pending deltas into it. Each distinct entity and relation
    /// is checked against the vocabulary once.
    fn live_training_store(&self) -> (TripleStore, Vec<Triple>) {
        let names = &self.state.store;
        let mut entity_ok: Vec<Option<bool>> = vec![None; names.n_entities()];
        let mut relation_ok: Vec<Option<bool>> = vec![None; names.n_relations()];
        let mut live = TripleStore::default();
        for t in self.state.live_triples() {
            let s = names.entity_name(t.head);
            let r = names.relation_name(t.relation);
            let o = names.entity_name(t.tail);
            let in_vocab = *entity_ok[t.head.0 as usize]
                .get_or_insert_with(|| self.text_in_vocab(s))
                && *entity_ok[t.tail.0 as usize].get_or_insert_with(|| self.text_in_vocab(o))
                && *relation_ok[t.relation.0 as usize]
                    .get_or_insert_with(|| self.relation_in_vocab(r));
            if !in_vocab {
                continue;
            }
            let h = live.intern_entity(s);
            let rel = live.intern_relation(r);
            let tl = live.intern_entity(o);
            live.insert(Triple::new(h, rel, tl));
        }
        let mut new_triples = Vec::new();
        for d in &self.pending {
            let Some(t) = (|| {
                Some(Triple::new(
                    live.entity_by_name(&d.subject)?,
                    live.relation_by_name(&d.relation)?,
                    live.entity_by_name(&d.object)?,
                ))
            })() else {
                continue; // retracted (or otherwise gone) while queued
            };
            if live.contains(&t) && !new_triples.contains(&t) {
                new_triples.push(t);
            }
        }
        (live, new_triples)
    }

    /// Runs one full round: train, package, publish.
    fn run_round(&mut self) -> Result<RoundOutcome, PipelineError> {
        self.round += 1;
        self.metrics.rounds.inc();
        let (live, new_triples) = self.live_training_store();
        if new_triples.is_empty() {
            // Everything queued was retracted before the round fired.
            self.clear_pending();
            return Ok(RoundOutcome::Idle);
        }
        let tc = TrainConfig {
            seed: self.cfg.train.seed ^ self.round,
            ..self.cfg.train.clone()
        };

        let started = Instant::now();
        let bank = McqBank::build(&live, &new_triples, tc.seed ^ 0x1c2e);
        let report = integrate_more(
            &self.base,
            &mut self.method,
            &live,
            &bank,
            &self.tokenizer,
            &tc,
        );
        self.metrics.integrate_ms.record_duration(started.elapsed());

        let started = Instant::now();
        // Probes quiz exactly the phrasing that was taught: template 0 of
        // the bank `integrate_more` detected and trained on.
        let new_probes: Vec<GateProbe> = bank
            .template(0)
            .iter()
            .map(|m| probe_from_mcq(m, &self.tokenizer))
            .collect();
        let stamp = self.stamp(&new_probes);
        let mut gate_probes = self.carried.clone();
        gate_probes.extend(new_probes.iter().cloned());
        gate_probes.truncate(self.cfg.max_gate_probes);

        let name = format!("{}-r{}", self.cfg.name_prefix, self.round);
        let bundle = KnowledgeBundle::new(
            &name,
            self.method.clone(),
            &self.base,
            Some(stamp),
            gate_probes,
        )
        .map_err(PipelineError::Artifact)?;
        let bundle_dir = Path::new(&self.cfg.bundle_dir);
        let path = bundle_dir.join(format!("{name}.json"));
        bundle.save(&path).map_err(PipelineError::Artifact)?;
        // Satellite artifact: the round's IncrementalReport next to the
        // bundle, for offline NR/RR bookkeeping.
        report
            .save(bundle_dir.join(format!("{name}.report.json")))
            .map_err(PipelineError::Artifact)?;
        self.metrics.package_ms.record_duration(started.elapsed());

        let started = Instant::now();
        let outcome = self.publisher.publish(&path);
        self.metrics.publish_ms.record_duration(started.elapsed());
        match outcome {
            Ok(pub_report) => {
                self.metrics.bundles_published.inc();
                // The new facts join the carried probe pool so later rounds
                // are gated on them too (newest first, bounded).
                let mut carried = new_probes;
                carried.append(&mut self.carried);
                carried.truncate(self.cfg.carry_probes);
                self.carried = carried;
                self.clear_pending();
                Ok(RoundOutcome::Published {
                    version: pub_report.version,
                    name,
                    path,
                    newly_integrated: report.newly_integrated,
                })
            }
            Err(PublishError::GateRefused(gate)) => {
                self.metrics.bundles_refused.inc();
                // Safety valve: drop the regressing batch, keep serving the
                // previous version, and keep ingesting.
                self.clear_pending();
                Ok(RoundOutcome::Refused(gate))
            }
            Err(PublishError::Other(e)) => Err(PipelineError::Publish(e)),
        }
    }

    fn clear_pending(&mut self) {
        self.pending.clear();
        self.pending_since = None;
        self.metrics.pending_deltas.set(0);
    }

    /// Scores the method on carried probes (NR: earlier knowledge retained)
    /// and this round's new probes (RR: new knowledge acquired).
    fn stamp(&self, new_probes: &[GateProbe]) -> EvalStamp {
        let hook = self.method.hook();
        let frac = |probes: &[GateProbe]| -> f32 {
            if probes.is_empty() {
                return 1.0;
            }
            let correct = probes
                .iter()
                .filter(|p| p.answered_by(&self.base, &hook))
                .count();
            correct as f32 / probes.len() as f32
        };
        EvalStamp {
            nr: frac(&self.carried),
            rr: frac(new_probes),
        }
    }
}

/// Encodes one MCQ as a [`GateProbe`] the serving NR gate can score: the
/// standard MCQ prompt, with each option phrased as the model is trained to
/// answer (`"(x) option text"`).
pub fn probe_from_mcq(mcq: &Mcq, tokenizer: &Tokenizer) -> GateProbe {
    let prompt = tokenizer.encode_strict(&format_mcq_prompt(mcq));
    let options = mcq
        .options
        .iter()
        .enumerate()
        .map(|(i, o)| tokenizer.encode_strict(&format!("{} {o}", prompts::option_token(i))))
        .collect();
    GateProbe {
        prompt,
        options,
        correct: mcq.correct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{DurableStore, StoreOptions};
    use infuserki_core::IncrementalReport;
    use infuserki_kg::{synth_umls, UmlsConfig};
    use infuserki_nn::ModelConfig;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// Publisher double that accepts everything and counts versions.
    struct CountingPublisher(AtomicU32);

    impl BundlePublisher for CountingPublisher {
        fn publish(&self, path: &Path) -> Result<PublishReport, PublishError> {
            assert!(path.exists(), "bundle file must exist before publish");
            Ok(PublishReport {
                version: self.0.fetch_add(1, Ordering::SeqCst) + 1,
            })
        }
    }

    /// Publisher double that always refuses at the gate.
    struct RefusingPublisher;

    impl BundlePublisher for RefusingPublisher {
        fn publish(&self, _path: &Path) -> Result<PublishReport, PublishError> {
            Err(PublishError::GateRefused(GateReport {
                probes: 4,
                staged_correct: 1,
                active_correct: 3,
            }))
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("infuserki_pipe_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn tiny_world() -> (TransformerLm, Tokenizer, TripleStore) {
        let store = synth_umls(&UmlsConfig::with_triplets(40, 19));
        let mut lines: Vec<String> = store.entity_names().map(str::to_string).collect();
        for r in store.relation_names() {
            lines.extend(TemplateSet::vocabulary_lines(r));
        }
        lines.extend(prompts::vocabulary_lines());
        let tok = Tokenizer::build(lines.iter().map(String::as_str));
        let mut rng = ChaCha8Rng::seed_from_u64(91);
        let base = TransformerLm::new(
            ModelConfig {
                vocab_size: tok.vocab_size(),
                max_seq: 96,
                ..ModelConfig::tiny(0)
            },
            &mut rng,
        );
        (base, tok, store)
    }

    fn quick_cfg(dir: &Path) -> PipelineConfig {
        let mut method = InfuserKiConfig::for_model(2);
        method.bottleneck = 4;
        method.infuser_hidden = 4;
        method.rc_dim = 8;
        PipelineConfig {
            min_batch: 2,
            max_age_ms: 60_000,
            max_relations: 24,
            method: Some(method),
            bundle_dir: dir.join("bundles").display().to_string(),
            train: TrainConfig {
                epochs_infuser: 1,
                epochs_qa: 1,
                epochs_rc: 1,
                lr: 1e-3,
                lr_infuser: 1e-2,
                batch: 4,
                seed: 11,
            },
            ..PipelineConfig::default()
        }
    }

    /// Seeds a WAL with the baseline world and returns the durable store.
    fn seed_wal(dir: &Path, store: &TripleStore) -> DurableStore {
        let mut ds = DurableStore::open(dir, StoreOptions::default()).unwrap();
        for t in store.triples() {
            let d = TripleDelta::add(
                store.entity_name(t.head),
                store.relation_name(t.relation),
                store.entity_name(t.tail),
            );
            ds.append(&d).unwrap();
        }
        ds.sync().unwrap();
        ds
    }

    /// Appends up to `n` facts new to `world` (known entities, its first
    /// relation) and returns how many were accepted.
    fn append_novel(ds: &mut DurableStore, world: &TripleStore, n: usize) -> usize {
        let names: Vec<&str> = world.entity_names().collect();
        let rel = world.relation_name(world.triples()[0].relation);
        let mut appended = 0;
        for (i, &s) in names.iter().enumerate() {
            for &o in names.iter().skip(i + 1) {
                if appended == n {
                    return appended;
                }
                if let crate::store::AppendOutcome::Accepted(_) =
                    ds.append(&TripleDelta::add(s, rel, o)).unwrap()
                {
                    appended += 1;
                }
            }
        }
        appended
    }

    #[test]
    fn baseline_wal_is_not_training_work() {
        let dir = tmp("baseline");
        let (base, tok, world) = tiny_world();
        let mut ds = seed_wal(&dir, &world);
        let reg = Registry::new();
        let mut pipe = UpdatePipeline::new(
            base,
            tok,
            &dir,
            quick_cfg(&dir),
            CountingPublisher(AtomicU32::new(0)),
            &reg,
        )
        .unwrap();
        // Everything logged before startup is baseline: idle, no pending.
        assert_eq!(pipe.run_once().unwrap(), RoundOutcome::Idle);
        assert_eq!(pipe.pending(), 0);
        assert_eq!(pipe.state().live_len(), world.len());
        // A post-startup append queues (below min_batch → waiting).
        assert_eq!(append_novel(&mut ds, &world, 1), 1);
        ds.sync().unwrap();
        assert_eq!(
            pipe.run_once().unwrap(),
            RoundOutcome::Waiting { pending: 1 }
        );
    }

    #[test]
    fn round_publishes_bundle_with_report_and_probes() {
        let dir = tmp("publish");
        let (base, tok, world) = tiny_world();
        let mut ds = seed_wal(&dir, &world);
        let reg = Registry::new();
        let mut pipe = UpdatePipeline::new(
            base.clone(),
            tok.clone(),
            &dir,
            quick_cfg(&dir),
            CountingPublisher(AtomicU32::new(0)),
            &reg,
        )
        .unwrap();
        assert_eq!(pipe.run_once().unwrap(), RoundOutcome::Idle);
        // Two brand-new facts re-using known entities/relations.
        assert_eq!(append_novel(&mut ds, &world, 2), 2);
        ds.sync().unwrap();
        let outcome = pipe.run_once().unwrap();
        let RoundOutcome::Published {
            version,
            name,
            path,
            ..
        } = outcome
        else {
            panic!("expected publish, got {outcome:?}");
        };
        assert_eq!(version, 1);
        // Bundle artifact exists, has probes, and carries a stamp.
        let bundle = KnowledgeBundle::load(&path).unwrap();
        assert_eq!(bundle.name, name);
        assert!(!bundle.gate_probes.is_empty());
        assert!(bundle.stamp.is_some());
        bundle.verify(&base).expect("bundle verifies against base");
        // The report satellite sits next to it.
        let report_path = path.with_file_name(format!("{name}.report.json"));
        let report = IncrementalReport::load(&report_path).unwrap();
        assert_eq!(report.presented, 2);
        // Probes are carried for later rounds.
        assert!(!pipe.carried_probes().is_empty());
        assert_eq!(pipe.pending(), 0);
        // Metrics flowed.
        let snap = reg.snapshot();
        assert_eq!(
            snap.get("ingest.bundles_published"),
            Some(&infuserki_obs::MetricValue::Counter(1))
        );
    }

    #[test]
    fn round_probes_are_template_zero_of_the_trained_bank() {
        let dir = tmp("probes");
        let (base, tok, world) = tiny_world();
        let mut ds = seed_wal(&dir, &world);
        let reg = Registry::new();
        let cfg = quick_cfg(&dir);
        assert!(cfg.max_gate_probes > 0);
        let mut pipe = UpdatePipeline::new(
            base.clone(),
            tok.clone(),
            &dir,
            cfg.clone(),
            CountingPublisher(AtomicU32::new(0)),
            &reg,
        )
        .unwrap();
        assert_eq!(pipe.run_once().unwrap(), RoundOutcome::Idle);
        assert_eq!(append_novel(&mut ds, &world, 2), 2);
        ds.sync().unwrap();
        pipe.poll().unwrap();
        let (live, new_triples) = pipe.live_training_store();
        let outcome = pipe.run_once().unwrap();
        let RoundOutcome::Published { name, path, .. } = outcome else {
            panic!("expected publish, got {outcome:?}");
        };
        let bundle = KnowledgeBundle::load(&path).unwrap();
        let report =
            IncrementalReport::load(path.with_file_name(format!("{name}.report.json"))).unwrap();

        // Round 1's bank, trained into an untrained twin of the method: the
        // same report and the same weights say it is the bank the round
        // trained on.
        let tc = TrainConfig {
            seed: cfg.train.seed ^ 1,
            ..cfg.train.clone()
        };
        let bank = McqBank::build(&live, &new_triples, tc.seed ^ 0x1c2e);
        let mut twin = InfuserKiMethod::new(cfg.method.clone().unwrap(), &base, cfg.max_relations);
        let twin_report = integrate_more(&base, &mut twin, &live, &bank, &tok, &tc);
        assert_eq!(
            serde_json::to_string(&twin_report).unwrap(),
            serde_json::to_string(&report).unwrap()
        );
        assert_eq!(
            serde_json::to_string(&twin).unwrap(),
            serde_json::to_string(&bundle.method).unwrap()
        );
        // Nothing is carried into round 1, so its probes are exactly
        // template 0 of that bank.
        let want: Vec<GateProbe> = bank
            .template(0)
            .iter()
            .map(|m| probe_from_mcq(m, &tok))
            .collect();
        assert_eq!(bundle.gate_probes, want);
    }

    #[test]
    fn gate_refusal_drops_batch_and_keeps_ingesting() {
        let dir = tmp("refuse");
        let (base, tok, world) = tiny_world();
        let mut ds = seed_wal(&dir, &world);
        let reg = Registry::new();
        let mut pipe =
            UpdatePipeline::new(base, tok, &dir, quick_cfg(&dir), RefusingPublisher, &reg).unwrap();
        assert_eq!(pipe.run_once().unwrap(), RoundOutcome::Idle);
        append_novel(&mut ds, &world, 2);
        ds.sync().unwrap();
        let outcome = pipe.run_once().unwrap();
        assert!(
            matches!(
                outcome,
                RoundOutcome::Refused(GateReport {
                    staged_correct: 1,
                    ..
                })
            ),
            "{outcome:?}"
        );
        // Batch dropped, no probes carried, metrics show the refusal.
        assert_eq!(pipe.pending(), 0);
        assert!(pipe.carried_probes().is_empty());
        let snap = reg.snapshot();
        assert_eq!(
            snap.get("ingest.bundles_refused"),
            Some(&infuserki_obs::MetricValue::Counter(1))
        );
        assert_eq!(
            snap.get("ingest.bundles_published"),
            Some(&infuserki_obs::MetricValue::Counter(0))
        );
    }

    #[test]
    fn oov_adds_are_rejected_not_queued() {
        let dir = tmp("oov");
        let (base, tok, world) = tiny_world();
        let mut ds = seed_wal(&dir, &world);
        let reg = Registry::new();
        let mut pipe = UpdatePipeline::new(
            base,
            tok,
            &dir,
            quick_cfg(&dir),
            CountingPublisher(AtomicU32::new(0)),
            &reg,
        )
        .unwrap();
        pipe.run_once().unwrap();
        let rel = world.relation_name(world.triples()[0].relation);
        ds.append(&TripleDelta::add("zzzunseen entity", rel, "other zzzthing"))
            .unwrap();
        ds.sync().unwrap();
        assert_eq!(pipe.run_once().unwrap(), RoundOutcome::Idle);
        assert_eq!(pipe.pending(), 0);
        let snap = reg.snapshot();
        assert_eq!(
            snap.get("ingest.rejected.out_of_vocabulary"),
            Some(&infuserki_obs::MetricValue::Counter(1))
        );
    }
}
