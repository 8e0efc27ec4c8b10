//! The experiment "world": KG + tokenizer + a base model pre-trained on a
//! designated *known* subset of the graph.
//!
//! The paper starts from LLaMa-2-7B, which already knows part of UMLS/MetaQA
//! from its pre-training. The reproduction makes that state explicit and
//! measurable: a fraction of the generated triples (statements, all five QA
//! templates, open-form QA, yes/no pairs) forms the base model's pre-training
//! corpus, so the knowledge-detection step afterwards *measures* known vs.
//! unknown exactly as the paper's §3.2 does. Pre-trained checkpoints are
//! cached on disk keyed by the config hash, so every table/figure binary
//! reuses the same base model.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;

use infuserki_core::dataset::{qa_sample, yesno_pair, McqBank};
use infuserki_kg::{synth_metaqa, synth_umls, MetaQaConfig, TripleStore, UmlsConfig};
use infuserki_nn::layers::Module;
use infuserki_nn::optim::{AdamW, AdamWConfig};
use infuserki_nn::{train_epoch, LmSample, ModelConfig, NoHook, Trainable, TransformerLm};
use infuserki_tensor::kernels::NUMERICS_VERSION;
use infuserki_tensor::{NodeId, Param, Tape};
use infuserki_text::templates::TemplateSet;
use infuserki_text::{prompts, Tokenizer};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::downstream;

/// Which synthetic knowledge graph backs the world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Domain {
    /// Medical (UMLS-style), paired with PubMedQA-style downstream.
    Umls,
    /// Movie (MetaQA-style), paired with 1-hop QA downstream.
    MetaQa,
}

/// Configuration of a reproducible experiment world.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorldConfig {
    /// KG domain.
    pub domain: Domain,
    /// Number of KG triplets in the experiment sample.
    pub n_triplets: usize,
    /// Master seed (KG, splits, init, shuffling).
    pub seed: u64,
    /// Fraction of triples whose facts enter base pre-training.
    pub known_fraction: f32,
    /// Hidden width of the base model.
    pub d_model: usize,
    /// Depth of the base model.
    pub n_layers: usize,
    /// Attention heads.
    pub n_heads: usize,
    /// FFN width.
    pub d_ff: usize,
    /// Base pre-training epochs.
    pub pretrain_epochs: usize,
    /// Base pre-training learning rate.
    pub pretrain_lr: f32,
    /// Reading-comprehension drills per known fact mixed into pre-training.
    ///
    /// A drill states a *random* (head, relation, tail) pairing in a context
    /// sentence and asks the MCQ about it; because pairings are random, the
    /// only strategy that fits all drills is the find-and-copy circuit — the
    /// generic option-binding skill LLaMa brings from its own pre-training.
    pub drills_per_fact: usize,
}

impl WorldConfig {
    /// The default experiment-scale world for a domain.
    pub fn new(domain: Domain, n_triplets: usize, seed: u64) -> Self {
        WorldConfig {
            domain,
            n_triplets,
            seed,
            known_fraction: 0.45,
            d_model: 64,
            n_layers: 12,
            n_heads: 4,
            d_ff: 192,
            pretrain_epochs: 30,
            pretrain_lr: 2e-3,
            drills_per_fact: 6,
        }
    }

    /// A miniature world for unit/integration tests.
    pub fn tiny(domain: Domain, seed: u64) -> Self {
        WorldConfig {
            domain,
            n_triplets: 40,
            seed,
            known_fraction: 0.45,
            d_model: 32,
            n_layers: 4,
            n_heads: 2,
            d_ff: 64,
            pretrain_epochs: 2,
            pretrain_lr: 3e-3,
            drills_per_fact: 2,
        }
    }

    /// Stable cache key derived from every field and from the kernels'
    /// [`NUMERICS_VERSION`]: a base model pre-trained under other numerics
    /// is not bitwise the one a fresh build would pre-train, so it must not
    /// be found.
    pub fn cache_key(&self) -> String {
        self.cache_key_under(NUMERICS_VERSION)
    }

    fn cache_key_under(&self, numerics_version: u32) -> String {
        let json = serde_json::to_string(self).expect("config serializes");
        let mut h = DefaultHasher::new();
        json.hash(&mut h);
        numerics_version.hash(&mut h);
        format!("{:016x}", h.finish())
    }
}

/// A built world: everything an experiment needs.
pub struct World {
    /// The world's configuration.
    pub config: WorldConfig,
    /// The knowledge graph.
    pub store: TripleStore,
    /// Closed vocabulary over the whole universe.
    pub tokenizer: Tokenizer,
    /// The pre-trained frozen base model.
    pub base: TransformerLm,
    /// All MCQs (template × triple), shared by detection/training/eval.
    pub bank: McqBank,
    /// Ground-truth indices of triples included in pre-training.
    pub pretrained_idx: Vec<usize>,
}

/// Builds the closed vocabulary for a store (entities, relations' template
/// frames, prompt scaffolding, downstream phrasings).
pub fn build_vocabulary(store: &TripleStore) -> Tokenizer {
    let mut lines: Vec<String> = store.entity_names().map(str::to_string).collect();
    for r in store.relation_names() {
        lines.extend(TemplateSet::vocabulary_lines(r));
        lines.push(downstream::one_hop_question(r, "x"));
    }
    lines.extend(prompts::vocabulary_lines());
    Tokenizer::build(lines.iter().map(String::as_str))
}

struct PretrainModel(TransformerLm);

impl Trainable for PretrainModel {
    type Sample = LmSample;
    fn loss(&self, s: &LmSample, tape: &mut Tape) -> NodeId {
        self.0.lm_loss(&s.tokens, &s.targets, &NoHook, tape)
    }
    fn visit_trainable(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.0.visit_mut(f);
    }
}

/// Binary-level default for the base-model cache location: the
/// `INFUSERKI_ARTIFACTS` env var, falling back to `artifacts/`. Tests and
/// library callers that need isolation pass an explicit directory to
/// [`build_world_in`] instead — mutating the env var from concurrently
/// running tests is a process-global race.
fn artifacts_dir() -> PathBuf {
    std::env::var_os("INFUSERKI_ARTIFACTS")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("artifacts"))
}

/// Generates the KG for a config.
pub fn generate_store(cfg: &WorldConfig) -> TripleStore {
    match cfg.domain {
        Domain::Umls => synth_umls(&UmlsConfig::with_triplets(cfg.n_triplets, cfg.seed)),
        Domain::MetaQa => synth_metaqa(&MetaQaConfig::with_triplets(cfg.n_triplets, cfg.seed)),
    }
}

/// Builds (or loads from cache) the full world for `cfg`, caching the base
/// model under the process-wide artifacts directory (see `artifacts_dir`).
pub fn build_world(cfg: &WorldConfig) -> World {
    build_world_in(cfg, &artifacts_dir())
}

/// Builds (or loads from cache) the full world for `cfg`, caching the base
/// model under `artifacts`. Parallel callers with distinct directories never
/// interfere — unlike the env-var default, which is process-global.
pub fn build_world_in(cfg: &WorldConfig, artifacts: &std::path::Path) -> World {
    let store = generate_store(cfg);
    let tokenizer = build_vocabulary(&store);
    let triples = store.triples().to_vec();
    let bank = McqBank::build(&store, &triples, cfg.seed ^ 0xba7c);

    // Ground-truth known split.
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x5eed);
    let mut idx: Vec<usize> = (0..triples.len()).collect();
    idx.shuffle(&mut rng);
    let n_known = ((triples.len() as f32) * cfg.known_fraction) as usize;
    let mut pretrained_idx: Vec<usize> = idx.into_iter().take(n_known).collect();
    pretrained_idx.sort_unstable();

    let model_cfg = ModelConfig {
        vocab_size: tokenizer.vocab_size(),
        d_model: cfg.d_model,
        n_layers: cfg.n_layers,
        n_heads: cfg.n_heads,
        d_ff: cfg.d_ff,
        max_seq: 96,
        ..ModelConfig::default()
    };

    let cache_path = artifacts.join(format!("base_{}.json", cfg.cache_key()));
    let cached = match TransformerLm::load(&cache_path) {
        Ok(model) if model.config() == &model_cfg => Ok(model),
        Ok(_) => Err("its model config differs".to_string()),
        Err(e) => Err(e.to_string()),
    };
    let base = match cached {
        Ok(model) => {
            eprintln!(
                "[world] loaded cached base model from {}",
                cache_path.display()
            );
            model
        }
        Err(why) => {
            if cache_path.exists() {
                eprintln!(
                    "[world] rebuilding the cached base model at {}: {why}",
                    cache_path.display()
                );
            }
            let model = pretrain_base(cfg, &store, &tokenizer, &bank, &pretrained_idx, model_cfg);
            if let Err(e) = model.save(&cache_path) {
                eprintln!("[world] warning: could not cache base model: {e}");
            }
            model
        }
    };

    World {
        config: cfg.clone(),
        store,
        tokenizer,
        base,
        bank,
        pretrained_idx,
    }
}

fn pretrain_base(
    cfg: &WorldConfig,
    store: &TripleStore,
    tokenizer: &Tokenizer,
    bank: &McqBank,
    pretrained_idx: &[usize],
    model_cfg: ModelConfig,
) -> TransformerLm {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0xba5e);
    let mut corpus: Vec<LmSample> = Vec::new();
    for (k, &i) in pretrained_idx.iter().enumerate() {
        let triple = bank.triples()[i];
        // All five templates: the base "understands" every phrasing of known
        // facts, just as LLaMa does — templates are unseen only w.r.t. the
        // knowledge-integration fine-tuning.
        for tpl in 0..infuserki_text::templates::N_QA_TEMPLATES {
            corpus.push(qa_sample(bank.mcq(tpl, i), tokenizer));
        }
        // The knowledge statement.
        let st = TemplateSet::statement(
            store.relation_name(triple.relation),
            store.entity_name(triple.head),
            store.entity_name(triple.tail),
        );
        corpus.push(LmSample::from_sequence(&tokenizer.encode_strict(&st.text)));
        // Open-form QA (downstream phrasing).
        let q = downstream::one_hop_question(
            store.relation_name(triple.relation),
            store.entity_name(triple.head),
        );
        let mut open_completion = tokenizer.encode_strict(store.entity_name(triple.tail));
        open_completion.push(infuserki_text::tokenizer::EOS);
        corpus.push(LmSample::from_completion(
            &tokenizer.encode_strict(&format!("question : {q} answer :")),
            &open_completion,
        ));
        // Yes/no pairs for a third of the known facts.
        if k % 3 == 0 {
            corpus.extend(yesno_pair(store, triple, tokenizer, &mut rng));
        }
    }

    // Reading-comprehension drills: random facts stated in context, asked as
    // MCQs. These teach the generic find-and-copy binding circuit (see the
    // `drills_per_fact` doc) without leaking held-out knowledge — pairings
    // are random, so no consistent fact can be memorized from them.
    let n_drills = pretrained_idx.len() * cfg.drills_per_fact;
    for _ in 0..n_drills {
        if let Some(s) = drill_sample(store, tokenizer, &mut rng) {
            corpus.push(s);
        }
    }

    let mut model = PretrainModel(TransformerLm::new(model_cfg, &mut rng));
    let mut opt = AdamW::new(AdamWConfig {
        lr: cfg.pretrain_lr,
        ..AdamWConfig::default()
    });
    for epoch in 0..cfg.pretrain_epochs {
        let loss = train_epoch(&mut model, &corpus, 8, &mut opt, &mut rng);
        eprintln!(
            "[world] pretrain epoch {}/{}: loss {loss:.4} over {} samples",
            epoch + 1,
            cfg.pretrain_epochs,
            corpus.len()
        );
    }
    model.0
}

/// One reading-comprehension drill: a random (head, relation, tail) pairing
/// stated in a context sentence, then asked as an MCQ whose gold answer is
/// the stated tail. Returns `None` when a relation's pools are too thin.
fn drill_sample(
    store: &TripleStore,
    tokenizer: &Tokenizer,
    rng: &mut ChaCha8Rng,
) -> Option<LmSample> {
    use rand::Rng;
    let rels = store.relation_ids();
    let rel = rels[rng.gen_range(0..rels.len())];
    let rel_triples = store.triples_of_relation(rel);
    let tails = store.tail_pool(rel);
    if rel_triples.is_empty() || tails.len() < 4 {
        return None;
    }
    let head = rel_triples[rng.gen_range(0..rel_triples.len())].head;
    let gold = tails[rng.gen_range(0..tails.len())];
    // Three distinct distractors from the same pool.
    let mut distractors = Vec::with_capacity(3);
    let mut guard = 0;
    while distractors.len() < 3 {
        guard += 1;
        if guard > 200 {
            return None;
        }
        let d = tails[rng.gen_range(0..tails.len())];
        if d != gold && !distractors.contains(&d) {
            distractors.push(d);
        }
    }
    let correct = rng.gen_range(0..4usize);
    let mut options = distractors;
    options.insert(correct, gold);

    let rel_name = store.relation_name(rel);
    let head_name = store.entity_name(head);
    let gold_name = store.entity_name(gold);
    let tpl = rng.gen_range(0..infuserki_text::templates::N_QA_TEMPLATES);
    let statement = TemplateSet::statement(rel_name, head_name, gold_name).text;
    let question = TemplateSet::question(rel_name, head_name, tpl);
    let prompt = format!(
        "context : {statement} question : {question} options : (a) {} (b) {} (c) {} (d) {} answer :",
        store.entity_name(options[0]),
        store.entity_name(options[1]),
        store.entity_name(options[2]),
        store.entity_name(options[3]),
    );
    let completion = format!("{} {gold_name}", infuserki_text::option_token(correct));
    let mut completion_ids = tokenizer.encode_strict(&completion);
    completion_ids.push(infuserki_text::tokenizer::EOS);
    Some(LmSample::from_completion(
        &tokenizer.encode_strict(&prompt),
        &completion_ids,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use infuserki_core::detect::detect_unknown;

    #[test]
    fn tiny_world_builds_and_caches() {
        let dir = std::env::temp_dir().join(format!("infuserki_world_{}", std::process::id()));
        let cfg = WorldConfig::tiny(Domain::Umls, 99);
        let w = build_world_in(&cfg, &dir);
        assert_eq!(w.store.len(), 40);
        assert!(!w.pretrained_idx.is_empty());
        assert!(w.tokenizer.vocab_size() > 50);
        // Second build loads from cache and produces identical logits.
        let w2 = build_world_in(&cfg, &dir);
        let mut t1 = Tape::new();
        let mut t2 = Tape::new();
        let a = w.base.forward(&[2, 3], &NoHook, &mut t1);
        let b = w2.base.forward(&[2, 3], &NoHook, &mut t2);
        assert_eq!(t1.value(a).data(), t2.value(b).data());
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Every tensor in `v` with its `data` as a JSON number array, the way
    /// builds before the base64 tensor format wrote it.
    fn number_array_tensors(v: &mut serde::Value) {
        use serde::Value;
        if v.get_field("rows").is_some() {
            let m = infuserki_tensor::Matrix::from_value(v).unwrap();
            let nums = m.data().iter().map(|&x| Value::Num(x.into())).collect();
            if let Value::Object(fields) = v {
                fields.iter_mut().find(|(k, _)| k == "data").unwrap().1 = Value::Array(nums);
            }
            return;
        }
        match v {
            Value::Object(fields) => fields.iter_mut().for_each(|(_, f)| number_array_tensors(f)),
            Value::Array(items) => items.iter_mut().for_each(number_array_tensors),
            _ => {}
        }
    }

    #[test]
    fn an_array_form_cached_base_is_rebuilt_in_the_current_format() {
        let dir = std::env::temp_dir().join(format!("infuserki_world_old_{}", std::process::id()));
        let cfg = WorldConfig::tiny(Domain::Umls, 98);
        let path = dir.join(format!("base_{}.json", cfg.cache_key()));
        std::fs::create_dir_all(&dir).unwrap();
        let fresh = build_world_in(&cfg, &dir).base;
        let mut old = fresh.to_value();
        number_array_tensors(&mut old);
        std::fs::write(&path, serde_json::to_string(&old).unwrap()).unwrap();
        assert!(
            TransformerLm::load(&path).is_err(),
            "the old form must not load"
        );

        let rebuilt = build_world_in(&cfg, &dir).base;
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(
            !text.contains(r#""data":["#),
            "the cache still holds number arrays"
        );
        assert!(text.contains(r#""data":""#), "the cache was not rewritten");
        let bits = |m: &TransformerLm| {
            let mut v = Vec::new();
            m.visit(&mut |p| v.extend(p.data().data().iter().map(|x| x.to_bits())));
            v
        };
        assert_eq!(
            bits(&rebuilt),
            bits(&fresh),
            "pre-training is deterministic"
        );
    }

    #[test]
    fn pretraining_separates_known_from_unknown() {
        let dir = std::env::temp_dir().join(format!("infuserki_world_sep_{}", std::process::id()));
        let mut cfg = WorldConfig::tiny(Domain::Umls, 7);
        cfg.pretrain_epochs = 14;
        let w = build_world_in(&cfg, &dir);
        let mcqs = w.bank.template(0).to_vec();
        let det = detect_unknown(&w.base, &NoHook, &w.tokenizer, &mcqs);
        // Accuracy on pretrained facts should exceed accuracy on held-out.
        let known_set: std::collections::HashSet<_> = w.pretrained_idx.iter().collect();
        let acc = |subset: &[usize]| {
            let hits = subset.iter().filter(|i| det.known.contains(i)).count();
            hits as f32 / subset.len().max(1) as f32
        };
        let seen: Vec<usize> = (0..mcqs.len()).filter(|i| known_set.contains(i)).collect();
        let unseen: Vec<usize> = (0..mcqs.len()).filter(|i| !known_set.contains(i)).collect();
        assert!(
            acc(&seen) > acc(&unseen),
            "seen acc {} should beat unseen acc {}",
            acc(&seen),
            acc(&unseen)
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn cache_key_changes_with_config() {
        let a = WorldConfig::tiny(Domain::Umls, 1).cache_key();
        let b = WorldConfig::tiny(Domain::Umls, 2).cache_key();
        let c = WorldConfig::tiny(Domain::MetaQa, 1).cache_key();
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn cache_key_changes_with_numerics_version() {
        let cfg = WorldConfig::tiny(Domain::Umls, 1);
        assert_eq!(cfg.cache_key(), cfg.cache_key_under(NUMERICS_VERSION));
        assert_ne!(
            cfg.cache_key_under(NUMERICS_VERSION),
            cfg.cache_key_under(NUMERICS_VERSION + 1)
        );
        assert_ne!(
            cfg.cache_key_under(NUMERICS_VERSION),
            cfg.cache_key_under(NUMERICS_VERSION - 1)
        );
    }
}
