//! MCQ banks and training-sample construction for the three phases.

use infuserki_kg::{Triple, TripleStore};
use infuserki_nn::LmSample;
use infuserki_text::templates::{TemplateSet, N_QA_TEMPLATES, SEEN_TEMPLATES};
use infuserki_text::{format_mcq_prompt, prompts, Mcq, McqBuilder, Tokenizer};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// All MCQs for an experiment's triples, one per (template, triple) pair.
///
/// Option shuffles are seeded per pair, so the *same* MCQ (same distractors,
/// same letter positions) is used by detection, training, and every method's
/// evaluation — a fairness requirement the paper's shared test set implies.
pub struct McqBank {
    /// `mcqs[template][triple_idx]`.
    mcqs: Vec<Vec<Mcq>>,
    triples: Vec<Triple>,
}

impl McqBank {
    /// Builds the bank for `triples` against `store`. Each triple's
    /// distractor ranking is computed once and shared by its five templates.
    pub fn build(store: &TripleStore, triples: &[Triple], seed: u64) -> Self {
        let builder = McqBuilder::new(store);
        let pools: Vec<_> = triples
            .iter()
            .map(|&t| builder.distractor_pool(t))
            .collect();
        let mcqs = (0..N_QA_TEMPLATES)
            .map(|tpl| {
                triples
                    .iter()
                    .zip(&pools)
                    .enumerate()
                    .map(|(i, (&t, pool))| {
                        let mut rng = ChaCha8Rng::seed_from_u64(
                            seed ^ (i as u64).wrapping_mul(0x9e37_79b9) ^ ((tpl as u64) << 56),
                        );
                        builder.build_with(t, pool, tpl, &mut rng)
                    })
                    .collect()
            })
            .collect();
        McqBank {
            mcqs,
            triples: triples.to_vec(),
        }
    }

    /// The MCQ for `(template, triple_idx)`.
    pub fn mcq(&self, template: usize, triple_idx: usize) -> &Mcq {
        &self.mcqs[template][triple_idx]
    }

    /// All MCQs of one template.
    pub fn template(&self, template: usize) -> &[Mcq] {
        &self.mcqs[template]
    }

    /// The experiment triples, in bank order.
    pub fn triples(&self) -> &[Triple] {
        &self.triples
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// True when the bank is empty.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }
}

/// A phase-1 infuser-tuning sample: an MCQ prompt with a binary label
/// (1 = unknown knowledge, 0 = known).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InfuserSample {
    /// Prompt token ids.
    pub tokens: Vec<usize>,
    /// Infusing label `y_In` (Eq. 5).
    pub label: f32,
}

/// A phase-3 RC sample: a knowledge statement with entity spans.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RcSample {
    /// Statement token ids.
    pub tokens: Vec<usize>,
    /// Shifted next-token targets.
    pub targets: Vec<usize>,
    /// Token span of the head mention.
    pub head_span: (usize, usize),
    /// Token span of the tail mention.
    pub tail_span: (usize, usize),
    /// Relation id (InfoNCE positive class).
    pub relation: usize,
}

/// The full training corpus for one InfuserKI run.
pub struct KiDataset {
    /// Phase-2 QA samples (seen templates on unknown triples + known mix +
    /// yes/no mix).
    pub qa: Vec<LmSample>,
    /// Phase-1 infuser samples (balanced known/unknown).
    pub infuser: Vec<InfuserSample>,
    /// Phase-3 RC samples (unknown statements).
    pub rc: Vec<RcSample>,
}

/// Fraction of known samples mixed into QA training — the paper's "modest
/// quantity of samples representing knowledge the LLMs already have".
pub const KNOWN_MIX_RATIO: f32 = 0.25;

/// Fraction of unknown triples that also contribute a yes/no pair.
pub const YESNO_RATIO: f32 = 0.25;

impl KiDataset {
    /// Builds the three phases' samples.
    ///
    /// `known`/`unknown` are triple indices into `bank` from knowledge
    /// detection. Known QA samples reuse the same gold-completion format.
    pub fn build(
        store: &TripleStore,
        bank: &McqBank,
        tokenizer: &Tokenizer,
        known: &[usize],
        unknown: &[usize],
        seed: u64,
    ) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);

        // ---- phase 2: QA samples -------------------------------------------
        let mut qa = Vec::new();
        for &i in unknown {
            for &tpl in &SEEN_TEMPLATES {
                qa.push(qa_sample(bank.mcq(tpl, i), tokenizer));
            }
        }
        // Yes/no mix for question-type generality.
        let n_yesno = ((unknown.len() as f32) * YESNO_RATIO) as usize;
        for &i in unknown.iter().take(n_yesno) {
            let t = bank.triples()[i];
            qa.extend(yesno_pair(store, t, tokenizer, &mut rng));
        }
        // Modest known mix (paper: all methods get the same mix).
        let mut known_shuffled = known.to_vec();
        known_shuffled.shuffle(&mut rng);
        let n_known = ((qa.len() as f32) * KNOWN_MIX_RATIO) as usize;
        for &i in known_shuffled
            .iter()
            .cycle()
            .take(n_known.min(known_shuffled.len().saturating_mul(SEEN_TEMPLATES.len())))
        {
            let tpl = SEEN_TEMPLATES[rng.gen_range(0..SEEN_TEMPLATES.len())];
            qa.push(qa_sample(bank.mcq(tpl, i), tokenizer));
        }

        // ---- phase 1: balanced infuser samples ------------------------------
        let mut infuser = Vec::new();
        let n_bal = known.len().min(unknown.len());
        for &i in unknown.iter().take(n_bal) {
            infuser.push(InfuserSample {
                tokens: tokenizer.encode_strict(&format_mcq_prompt(bank.mcq(0, i))),
                label: 1.0,
            });
        }
        for &i in known_shuffled.iter().take(n_bal) {
            infuser.push(InfuserSample {
                tokens: tokenizer.encode_strict(&format_mcq_prompt(bank.mcq(0, i))),
                label: 0.0,
            });
        }

        // ---- phase 3: RC statements -----------------------------------------
        let rc = unknown
            .iter()
            .map(|&i| rc_sample(store, bank.triples()[i], tokenizer))
            .collect();

        KiDataset { qa, infuser, rc }
    }
}

/// Builds a QA [`LmSample`]: MCQ prompt → "(letter) answer" + `<eos>`.
pub fn qa_sample(mcq: &Mcq, tokenizer: &Tokenizer) -> LmSample {
    let prompt = tokenizer.encode_strict(&format_mcq_prompt(mcq));
    let mut completion = tokenizer.encode_strict(&prompts::gold_completion(mcq));
    completion.push(infuserki_text::tokenizer::EOS);
    LmSample::from_completion(&prompt, &completion)
}

/// Builds a yes/no pair for a triple: the true statement and one corrupted.
pub fn yesno_pair(
    store: &TripleStore,
    triple: Triple,
    tokenizer: &Tokenizer,
    rng: &mut impl Rng,
) -> Vec<LmSample> {
    let rel = store.relation_name(triple.relation);
    let subj = store.entity_name(triple.head);
    let obj = store.entity_name(triple.tail);
    let mut out = Vec::with_capacity(2);
    let eos = infuserki_text::tokenizer::EOS;
    let yes_q = TemplateSet::yesno_question(rel, subj, obj);
    let mut yes_completion = tokenizer.encode_strict("yes");
    yes_completion.push(eos);
    out.push(LmSample::from_completion(
        &tokenizer.encode_strict(&prompts::format_yesno_prompt(&yes_q)),
        &yes_completion,
    ));
    // Corrupt the tail with another entity from the same relation's pool.
    let pool: Vec<_> = store
        .tail_pool(triple.relation)
        .into_iter()
        .filter(|&e| e != triple.tail)
        .collect();
    if !pool.is_empty() {
        let wrong = pool[rng.gen_range(0..pool.len())];
        let no_q = TemplateSet::yesno_question(rel, subj, store.entity_name(wrong));
        let mut no_completion = tokenizer.encode_strict("no");
        no_completion.push(eos);
        out.push(LmSample::from_completion(
            &tokenizer.encode_strict(&prompts::format_yesno_prompt(&no_q)),
            &no_completion,
        ));
    }
    out
}

/// Builds the RC sample for a triple's knowledge statement.
pub fn rc_sample(store: &TripleStore, triple: Triple, tokenizer: &Tokenizer) -> RcSample {
    let st = TemplateSet::statement(
        store.relation_name(triple.relation),
        store.entity_name(triple.head),
        store.entity_name(triple.tail),
    );
    let lm = LmSample::from_sequence(&tokenizer.encode_strict(&st.text));
    debug_assert!(st.tail_span.1 <= lm.tokens.len());
    RcSample {
        tokens: lm.tokens,
        targets: lm.targets,
        head_span: st.head_span,
        tail_span: st.tail_span,
        relation: triple.relation.0 as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infuserki_kg::{synth_umls, UmlsConfig};

    fn setup() -> (TripleStore, McqBank, Tokenizer) {
        let store = synth_umls(&UmlsConfig::with_triplets(60, 3));
        let triples = store.triples().to_vec();
        let bank = McqBank::build(&store, &triples, 42);
        let mut lines: Vec<String> = store.entity_names().map(str::to_string).collect();
        for r in store.relation_names() {
            lines.extend(TemplateSet::vocabulary_lines(r));
        }
        lines.extend(prompts::vocabulary_lines());
        let tok = Tokenizer::build(lines.iter().map(String::as_str));
        (store, bank, tok)
    }

    #[test]
    fn bank_is_deterministic_and_complete() {
        let (store, bank, _) = setup();
        assert_eq!(bank.len(), 60);
        for tpl in 0..N_QA_TEMPLATES {
            assert_eq!(bank.template(tpl).len(), 60);
        }
        let bank2 = McqBank::build(&store, store.triples(), 42);
        assert_eq!(bank.mcq(2, 7).options, bank2.mcq(2, 7).options);
        assert_eq!(bank.mcq(2, 7).correct, bank2.mcq(2, 7).correct);
    }

    /// The seed's per-MCQ algorithm, kept as it was (as a free function) as
    /// the reference the shared-ranking bank must reproduce: one ranking per
    /// MCQ, with the edit distances recomputed inside the sort comparator.
    fn reference_mcq(store: &TripleStore, triple: Triple, tpl: usize, rng: &mut ChaCha8Rng) -> Mcq {
        use infuserki_kg::EntityId;
        use infuserki_text::levenshtein;
        let head_name = store.entity_name(triple.head).to_string();
        let gold_name = store.entity_name(triple.tail).to_string();
        let question = TemplateSet::question(store.relation_name(triple.relation), &head_name, tpl);
        let mut pool: Vec<EntityId> = store
            .tail_pool(triple.relation)
            .into_iter()
            .filter(|&e| e != triple.tail && e != triple.head)
            .collect();
        if pool.len() < 3 {
            for i in 0..store.n_entities() {
                let e = EntityId(i as u32);
                if e != triple.tail && e != triple.head && !pool.contains(&e) {
                    pool.push(e);
                }
                if pool.len() >= 10 {
                    break;
                }
            }
        }
        let names: Vec<&str> = pool.iter().map(|&e| store.entity_name(e)).collect();
        let d1 = (0..names.len())
            .min_by_key(|&i| levenshtein(&head_name, names[i]))
            .unwrap();
        let mut by_gold: Vec<usize> = (0..names.len()).filter(|&i| i != d1).collect();
        by_gold.sort_by_key(|&i| levenshtein(&gold_name, names[i]));
        by_gold.truncate(10);
        by_gold.shuffle(rng);
        let mut options: Vec<String> = vec![gold_name, names[d1].to_string()];
        options.extend(by_gold.iter().take(2).map(|&i| names[i].to_string()));
        let mut order = [0usize, 1, 2, 3];
        order.shuffle(rng);
        let mut display: [String; 4] = Default::default();
        let mut correct = 0;
        for (pos, &src) in order.iter().enumerate() {
            if src == 0 {
                correct = pos;
            }
            display[pos] = options[src].clone();
        }
        Mcq {
            question,
            options: display,
            correct,
            triple,
            template_idx: tpl,
        }
    }

    fn assert_bank_matches_reference(store: &TripleStore, triples: &[Triple], seed: u64) {
        let bank = McqBank::build(store, triples, seed);
        for tpl in 0..N_QA_TEMPLATES {
            for (i, &t) in triples.iter().enumerate() {
                let mut rng = ChaCha8Rng::seed_from_u64(
                    seed ^ (i as u64).wrapping_mul(0x9e37_79b9) ^ ((tpl as u64) << 56),
                );
                let want = reference_mcq(store, t, tpl, &mut rng);
                let got = bank.mcq(tpl, i);
                assert_eq!(got.question, want.question, "question of ({tpl}, {i})");
                assert_eq!(got.options, want.options, "options of ({tpl}, {i})");
                assert_eq!(got.correct, want.correct, "correct of ({tpl}, {i})");
                assert_eq!(got.triple, want.triple);
                assert_eq!(got.template_idx, want.template_idx);
            }
        }
    }

    #[test]
    fn bank_matches_the_per_mcq_reference() {
        for (n, seed) in [(40, 7), (300, 8)] {
            let store = synth_umls(&UmlsConfig::with_triplets(n, seed));
            assert_bank_matches_reference(&store, store.triples(), seed ^ 0x1c2e);
        }
        // Hand-built: `treats` has two tails (its pools are topped up from
        // the entity universe); the `causes` tails tie pairwise in edit
        // distance to each gold and head; and the 40 `links` tails tie in
        // long runs, in pools past the size where a sort stops being an
        // insertion sort. Stable tie order decides every one of them.
        let mut store = TripleStore::default();
        let facts = [
            ("abc", "treats", "abd"),
            ("abe", "treats", "abf"),
            ("abg", "treats", "abd"),
            ("xa", "causes", "ya"),
            ("xb", "causes", "yb"),
            ("xc", "causes", "yc"),
            ("xd", "causes", "yd"),
            ("xe", "causes", "ya"),
            ("xf", "causes", "zz"),
        ];
        let links: Vec<(String, String)> = (0..40)
            .map(|i| {
                (
                    format!("h{:02}", (i * 7) % 40),
                    format!("t{:02}", (i * 13) % 40),
                )
            })
            .collect();
        let facts = facts
            .into_iter()
            .chain(links.iter().map(|(h, t)| (h.as_str(), "links", t.as_str())));
        for (h, r, t) in facts {
            let h = store.intern_entity(h);
            let r = store.intern_relation(r);
            let t = store.intern_entity(t);
            store.insert(Triple::new(h, r, t));
        }
        assert_bank_matches_reference(&store, store.triples(), 3);
    }

    #[test]
    fn same_triple_same_template_across_calls() {
        let (_, bank, _) = setup();
        // Different templates share the triple but may differ in options seed.
        assert_eq!(bank.mcq(0, 3).triple, bank.mcq(4, 3).triple);
    }

    #[test]
    fn qa_sample_supervises_completion_only() {
        let (_, bank, tok) = setup();
        let s = qa_sample(bank.mcq(0, 0), &tok);
        assert!(s.supervised_len() >= 2); // letter + ≥1 answer word
        assert!(s.supervised_len() < s.tokens.len());
    }

    #[test]
    fn dataset_builds_all_three_phases() {
        let (store, bank, tok) = setup();
        let known: Vec<usize> = (0..20).collect();
        let unknown: Vec<usize> = (20..60).collect();
        let d = KiDataset::build(&store, &bank, &tok, &known, &unknown, 1);
        // 40 unknown × 2 seen templates + yes/no + known mix
        assert!(d.qa.len() >= 80);
        assert_eq!(d.infuser.len(), 40); // 2 × min(20, 40)
        let pos = d.infuser.iter().filter(|s| s.label == 1.0).count();
        assert_eq!(pos * 2, d.infuser.len()); // balanced
        assert_eq!(d.rc.len(), 40);
    }

    #[test]
    fn rc_sample_spans_are_valid() {
        let (store, bank, tok) = setup();
        for &t in bank.triples().iter().take(10) {
            let s = rc_sample(&store, t, &tok);
            assert!(s.head_span.0 < s.head_span.1);
            assert!(s.tail_span.0 < s.tail_span.1);
            assert!(s.tail_span.1 <= s.tokens.len());
            // Spans decode back to the entity names.
            let head_text = tok.decode(&s.tokens[s.head_span.0..s.head_span.1]);
            assert_eq!(head_text, store.entity_name(t.head));
        }
    }

    #[test]
    fn yesno_pair_has_yes_and_no() {
        let (store, bank, tok) = setup();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let pair = yesno_pair(&store, bank.triples()[0], &tok, &mut rng);
        assert_eq!(pair.len(), 2);
        let yes_id = tok.word_id("yes").unwrap();
        let no_id = tok.word_id("no").unwrap();
        assert!(pair[0].targets.contains(&yes_id));
        assert!(pair[1].targets.contains(&no_id));
    }
}
