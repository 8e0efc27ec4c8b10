//! The interned triple store with secondary indices.

use std::collections::{HashMap, HashSet};

use serde::{Deserialize, Serialize};

use crate::types::{EntityId, RelationId, Triple};

/// An in-memory knowledge graph: interned entity/relation names, a deduped
/// triple list, and by-head / by-relation / by-tail indices.
///
/// Invariants (property-tested):
/// * every triple appears exactly once;
/// * each `(head, relation)` pair has at most one tail when inserted through
///   [`insert_functional`](Self::insert_functional) — the generators use this
///   so every multiple-choice question has a unique gold answer;
/// * indices always agree with the triple list.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TripleStore {
    entities: Vec<String>,
    relations: Vec<String>,
    triples: Vec<Triple>,
    #[serde(skip)]
    entity_index: HashMap<String, EntityId>,
    #[serde(skip)]
    relation_index: HashMap<String, RelationId>,
    #[serde(skip)]
    triple_set: HashSet<Triple>,
    #[serde(skip)]
    head_rel: HashSet<(EntityId, RelationId)>,
    #[serde(skip)]
    by_head: HashMap<EntityId, Vec<usize>>,
    #[serde(skip)]
    by_relation: HashMap<RelationId, Vec<usize>>,
    #[serde(skip)]
    by_tail: HashMap<EntityId, Vec<usize>>,
}

impl TripleStore {
    /// An empty store.
    pub fn new() -> Self {
        TripleStore::default()
    }

    /// Rebuilds all indices from the entity/relation/triple lists. Needed
    /// after deserialization (indices are not serialized).
    pub fn rebuild_indices(&mut self) {
        self.entity_index = self
            .entities
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), EntityId(i as u32)))
            .collect();
        self.relation_index = self
            .relations
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), RelationId(i as u32)))
            .collect();
        self.triple_set = self.triples.iter().copied().collect();
        self.head_rel = self.triples.iter().map(|t| (t.head, t.relation)).collect();
        self.by_head.clear();
        self.by_relation.clear();
        self.by_tail.clear();
        for (i, t) in self.triples.iter().enumerate() {
            self.by_head.entry(t.head).or_default().push(i);
            self.by_relation.entry(t.relation).or_default().push(i);
            self.by_tail.entry(t.tail).or_default().push(i);
        }
    }

    /// Interns an entity name, returning its id (existing id on repeats).
    pub fn intern_entity(&mut self, name: &str) -> EntityId {
        if let Some(&id) = self.entity_index.get(name) {
            return id;
        }
        let id = EntityId(self.entities.len() as u32);
        self.entities.push(name.to_string());
        self.entity_index.insert(name.to_string(), id);
        id
    }

    /// Interns a relation name.
    pub fn intern_relation(&mut self, name: &str) -> RelationId {
        if let Some(&id) = self.relation_index.get(name) {
            return id;
        }
        let id = RelationId(self.relations.len() as u32);
        self.relations.push(name.to_string());
        self.relation_index.insert(name.to_string(), id);
        id
    }

    /// Inserts a triple; returns false if it already exists.
    pub fn insert(&mut self, t: Triple) -> bool {
        self.validate_ids(&t);
        if !self.triple_set.insert(t) {
            return false;
        }
        let idx = self.triples.len();
        self.triples.push(t);
        self.head_rel.insert((t.head, t.relation));
        self.by_head.entry(t.head).or_default().push(idx);
        self.by_relation.entry(t.relation).or_default().push(idx);
        self.by_tail.entry(t.tail).or_default().push(idx);
        true
    }

    /// Inserts only when no triple with the same `(head, relation)` exists —
    /// keeps relations functional so MCQ gold answers are unique.
    pub fn insert_functional(&mut self, t: Triple) -> bool {
        self.validate_ids(&t);
        if self.head_rel.contains(&(t.head, t.relation)) {
            return false;
        }
        self.insert(t)
    }

    fn validate_ids(&self, t: &Triple) {
        assert!(
            (t.head.0 as usize) < self.entities.len(),
            "unknown head entity id"
        );
        assert!(
            (t.tail.0 as usize) < self.entities.len(),
            "unknown tail entity id"
        );
        assert!(
            (t.relation.0 as usize) < self.relations.len(),
            "unknown relation id"
        );
    }

    /// True when the exact triple is present.
    pub fn contains(&self, t: &Triple) -> bool {
        self.triple_set.contains(t)
    }

    /// All triples with the given head.
    pub fn triples_of_head(&self, head: EntityId) -> Vec<Triple> {
        self.by_head
            .get(&head)
            .map(|idxs| idxs.iter().map(|&i| self.triples[i]).collect())
            .unwrap_or_default()
    }

    /// All triples with the given relation.
    pub fn triples_of_relation(&self, relation: RelationId) -> Vec<Triple> {
        self.by_relation
            .get(&relation)
            .map(|idxs| idxs.iter().map(|&i| self.triples[i]).collect())
            .unwrap_or_default()
    }

    /// Distinct entities appearing as tails of `relation` — the distractor
    /// pool for that relation's MCQs.
    pub fn tail_pool(&self, relation: RelationId) -> Vec<EntityId> {
        let mut seen = HashSet::new();
        let mut pool = Vec::new();
        for t in self.triples_of_relation(relation) {
            if seen.insert(t.tail) {
                pool.push(t.tail);
            }
        }
        pool
    }

    /// Entity name.
    pub fn entity_name(&self, id: EntityId) -> &str {
        &self.entities[id.0 as usize]
    }

    /// Relation name.
    pub fn relation_name(&self, id: RelationId) -> &str {
        &self.relations[id.0 as usize]
    }

    /// Looks up an entity by name.
    pub fn entity_by_name(&self, name: &str) -> Option<EntityId> {
        self.entity_index.get(name).copied()
    }

    /// Looks up a relation by name.
    pub fn relation_by_name(&self, name: &str) -> Option<RelationId> {
        self.relation_index.get(name).copied()
    }

    /// All triples in insertion order.
    pub fn triples(&self) -> &[Triple] {
        &self.triples
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// True when the store holds no triples.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// Number of distinct entities.
    pub fn n_entities(&self) -> usize {
        self.entities.len()
    }

    /// Number of distinct relations.
    pub fn n_relations(&self) -> usize {
        self.relations.len()
    }

    /// All relation ids.
    pub fn relation_ids(&self) -> Vec<RelationId> {
        (0..self.relations.len() as u32).map(RelationId).collect()
    }

    /// All entity names (tokenizer vocabulary building).
    pub fn entity_names(&self) -> impl Iterator<Item = &str> {
        self.entities.iter().map(String::as_str)
    }

    /// All relation names.
    pub fn relation_names(&self) -> impl Iterator<Item = &str> {
        self.relations.iter().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TripleStore {
        let mut s = TripleStore::new();
        let a = s.intern_entity("aspirin");
        let b = s.intern_entity("headache");
        let c = s.intern_entity("fever");
        let r = s.intern_relation("treats");
        s.insert(Triple::new(a, r, b));
        s.insert(Triple::new(a, r, c));
        s
    }

    #[test]
    fn interning_is_idempotent() {
        let mut s = TripleStore::new();
        let a1 = s.intern_entity("x");
        let a2 = s.intern_entity("x");
        assert_eq!(a1, a2);
        assert_eq!(s.n_entities(), 1);
    }

    #[test]
    fn insert_dedupes() {
        let mut s = tiny();
        let a = s.entity_by_name("aspirin").unwrap();
        let b = s.entity_by_name("headache").unwrap();
        let r = s.intern_relation("treats");
        assert!(!s.insert(Triple::new(a, r, b)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn insert_functional_enforces_unique_tail() {
        let mut s = TripleStore::new();
        let a = s.intern_entity("a");
        let b = s.intern_entity("b");
        let c = s.intern_entity("c");
        let r = s.intern_relation("r");
        assert!(s.insert_functional(Triple::new(a, r, b)));
        assert!(!s.insert_functional(Triple::new(a, r, c)));
        let tails: Vec<_> = s.triples_of_head(a).iter().map(|t| t.tail).collect();
        assert_eq!(tails, [b]);
    }

    #[test]
    fn indices_answer_queries() {
        let s = tiny();
        let a = s.entity_by_name("aspirin").unwrap();
        let r = s.relation_ids()[0];
        assert_eq!(s.triples_of_head(a).len(), 2);
        assert_eq!(s.triples_of_relation(r).len(), 2);
        assert_eq!(s.tail_pool(r).len(), 2);
    }

    #[test]
    fn serde_round_trip_with_rebuild() {
        let s = tiny();
        let json = serde_json::to_string(&s).unwrap();
        let mut back: TripleStore = serde_json::from_str(&json).unwrap();
        back.rebuild_indices();
        assert_eq!(back.len(), s.len());
        let a = back.entity_by_name("aspirin").unwrap();
        assert_eq!(back.triples_of_head(a).len(), 2);
    }

    #[test]
    #[should_panic(expected = "unknown head entity")]
    fn insert_rejects_foreign_ids() {
        let mut s = TripleStore::new();
        let r = s.intern_relation("r");
        s.insert(Triple::new(EntityId(5), r, EntityId(6)));
    }
}
