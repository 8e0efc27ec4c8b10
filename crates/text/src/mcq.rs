//! Multiple-choice question construction (Appendix A.1).
//!
//! Each triplet becomes a 4-way MCQ: the gold tail plus three distractors —
//! one chosen for minimal edit distance to the *head* entity, two sampled
//! from the ten candidates nearest (by edit distance) to the *correct
//! answer*. Options are shuffled into positions (a)–(d).

use infuserki_kg::{EntityId, Triple, TripleStore};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::distance::{levenshtein, rank_by_distance};
use crate::templates::TemplateSet;

/// A rendered multiple-choice question.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mcq {
    /// The question text (template-filled).
    pub question: String,
    /// The four options in display order.
    pub options: [String; 4],
    /// Index (0–3) of the correct option.
    pub correct: usize,
    /// The source triple.
    pub triple: Triple,
    /// Which QA template (0–4) rendered the question.
    pub template_idx: usize,
}

impl Mcq {
    /// The gold answer text.
    pub fn answer(&self) -> &str {
        &self.options[self.correct]
    }
}

/// The rng-free half of distractor choice for one triple: the candidate
/// nearest the head entity, and the (up to) ten other candidates nearest the
/// gold answer, nearest first. It depends only on the triple and the store,
/// so a bank computes it once per triple and shares it across templates.
#[derive(Debug, Clone)]
pub struct DistractorPool {
    near_head: String,
    near_gold: Vec<String>,
}

/// Builds MCQs against a triple store.
pub struct McqBuilder<'a> {
    store: &'a TripleStore,
}

impl<'a> McqBuilder<'a> {
    /// New builder over `store`.
    pub fn new(store: &'a TripleStore) -> Self {
        McqBuilder { store }
    }

    /// Builds the MCQ for `triple` under `template_idx`, drawing distractors
    /// with `rng`. Distractor pools that are too small are topped up from the
    /// full entity set, so this always succeeds on stores with ≥ 4 entities.
    pub fn build(&self, triple: Triple, template_idx: usize, rng: &mut impl Rng) -> Mcq {
        self.build_with(triple, &self.distractor_pool(triple), template_idx, rng)
    }

    /// The rng-free half of [`build`](Self::build): ranks `triple`'s
    /// candidates, computing each edit distance once.
    pub fn distractor_pool(&self, triple: Triple) -> DistractorPool {
        // Candidate pool: tails of the same relation (type-consistent),
        // excluding the gold tail and the head itself.
        let mut pool: Vec<EntityId> = self
            .store
            .tail_pool(triple.relation)
            .into_iter()
            .filter(|&e| e != triple.tail && e != triple.head)
            .collect();
        // Top up from the entity universe when a relation's pool is thin.
        if pool.len() < 3 {
            for i in 0..self.store.n_entities() {
                let e = EntityId(i as u32);
                if e != triple.tail && e != triple.head && !pool.contains(&e) {
                    pool.push(e);
                }
                if pool.len() >= 10 {
                    break;
                }
            }
        }
        assert!(pool.len() >= 3, "need at least 3 distractor candidates");

        let mut names: Vec<&str> = pool.iter().map(|&e| self.store.entity_name(e)).collect();

        // Distractor 1: minimal edit distance to the head entity (the first
        // such candidate on ties).
        let head_name = self.store.entity_name(triple.head);
        let d1 = (0..names.len())
            .min_by_key(|&i| levenshtein(head_name, names[i]))
            .expect("non-empty pool");
        let near_head = names.remove(d1).to_string();

        // Distractors 2–3 are drawn from the 10 nearest to the gold answer;
        // the stable ranking keeps pool order on ties.
        let gold_name = self.store.entity_name(triple.tail);
        let near_gold = rank_by_distance(gold_name, &names)
            .into_iter()
            .take(10)
            .map(|i| names[i].to_string())
            .collect();
        DistractorPool {
            near_head,
            near_gold,
        }
    }

    /// The rng half of [`build`](Self::build): picks two of `pool`'s
    /// gold-nearest candidates at random and shuffles the four options.
    pub fn build_with(
        &self,
        triple: Triple,
        pool: &DistractorPool,
        template_idx: usize,
        rng: &mut impl Rng,
    ) -> Mcq {
        let question = TemplateSet::question(
            self.store.relation_name(triple.relation),
            self.store.entity_name(triple.head),
            template_idx,
        );

        let mut near_gold: Vec<&str> = pool.near_gold.iter().map(String::as_str).collect();
        near_gold.shuffle(rng);
        let options = [
            self.store.entity_name(triple.tail),
            pool.near_head.as_str(),
            near_gold[0],
            near_gold[1],
        ];
        let mut order = [0usize, 1, 2, 3];
        order.shuffle(rng);
        Mcq {
            question,
            options: order.map(|src| options[src].to_string()),
            correct: order
                .iter()
                .position(|&src| src == 0)
                .expect("gold is placed"),
            triple,
            template_idx,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infuserki_kg::{synth_umls, UmlsConfig};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn store() -> TripleStore {
        synth_umls(&UmlsConfig::with_triplets(200, 11))
    }

    #[test]
    fn mcq_has_gold_and_three_distinct_distractors() {
        let s = store();
        let b = McqBuilder::new(&s);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        for &t in s.triples().iter().take(50) {
            let mcq = b.build(t, 0, &mut rng);
            let gold = s.entity_name(t.tail);
            assert_eq!(mcq.answer(), gold);
            // gold appears exactly once
            let count = mcq.options.iter().filter(|o| o.as_str() == gold).count();
            assert_eq!(count, 1);
            // head never offered as an option
            assert!(mcq.options.iter().all(|o| o != s.entity_name(t.head)));
        }
    }

    #[test]
    fn correct_position_is_shuffled() {
        let s = store();
        let b = McqBuilder::new(&s);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut positions = std::collections::HashSet::new();
        for &t in s.triples().iter().take(40) {
            positions.insert(b.build(t, 0, &mut rng).correct);
        }
        assert!(positions.len() >= 3, "answers should land in varied slots");
    }

    #[test]
    fn question_uses_requested_template() {
        let s = store();
        let b = McqBuilder::new(&s);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let t = s.triples()[0];
        let q0 = b.build(t, 0, &mut rng).question;
        let q3 = b.build(t, 3, &mut rng).question;
        assert_ne!(q0, q3);
        assert!(q0.starts_with("what is the"));
    }

    #[test]
    fn deterministic_given_seed() {
        let s = store();
        let b = McqBuilder::new(&s);
        let t = s.triples()[5];
        let a = b.build(t, 1, &mut ChaCha8Rng::seed_from_u64(9));
        let c = b.build(t, 1, &mut ChaCha8Rng::seed_from_u64(9));
        assert_eq!(a.options, c.options);
        assert_eq!(a.correct, c.correct);
    }
}
