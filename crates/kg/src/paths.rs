//! Multi-hop path queries over the triple store.
//!
//! MetaQA's benchmark includes 1/2/3-hop questions with annotated reasoning
//! paths; the reproduction's downstream task uses 1-hop, and the 2-hop
//! generator here backs the extension experiment (`eval::downstream`'s 2-hop
//! items) — integrating single triples should also improve compositional
//! questions whose *both* hops were integrated.

use serde::{Deserialize, Serialize};

use crate::store::TripleStore;
use crate::types::{EntityId, RelationId, Triple};

/// A 2-hop path `h -r1-> m -r2-> t`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TwoHopPath {
    /// First hop.
    pub first: Triple,
    /// Second hop (its head equals the first hop's tail).
    pub second: Triple,
}

impl TwoHopPath {
    /// Start entity.
    pub fn start(&self) -> EntityId {
        self.first.head
    }

    /// End entity (the 2-hop answer).
    pub fn end(&self) -> EntityId {
        self.second.tail
    }

    /// The relation pair.
    pub fn relations(&self) -> (RelationId, RelationId) {
        (self.first.relation, self.second.relation)
    }
}

/// Enumerates every 2-hop path in the store (bounded by `limit`).
///
/// Paths where the end loops back to the start are excluded (MetaQA's
/// questions never ask "which movie is the movie of itself").
pub fn two_hop_paths(store: &TripleStore, limit: usize) -> Vec<TwoHopPath> {
    let mut out = Vec::new();
    for &first in store.triples() {
        for second in store.triples_of_head(first.tail) {
            if second.tail == first.head {
                continue;
            }
            out.push(TwoHopPath { first, second });
            if out.len() >= limit {
                return out;
            }
        }
    }
    out
}

/// All entities reachable from `start` in exactly `hops` steps.
pub fn reachable(store: &TripleStore, start: EntityId, hops: usize) -> Vec<EntityId> {
    let mut frontier = vec![start];
    for _ in 0..hops {
        let mut next = Vec::new();
        for &e in &frontier {
            for t in store.triples_of_head(e) {
                if !next.contains(&t.tail) {
                    next.push(t.tail);
                }
            }
        }
        frontier = next;
    }
    frontier
}

/// Degree-weighted connectivity check: fraction of entities with at least
/// one outgoing edge (a KG-quality diagnostic the generators are tested on).
pub fn outgoing_coverage(store: &TripleStore) -> f32 {
    if store.n_entities() == 0 {
        return 0.0;
    }
    let with_out = (0..store.n_entities() as u32)
        .filter(|&i| !store.triples_of_head(EntityId(i)).is_empty())
        .count();
    with_out as f32 / store.n_entities() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metaqa::{synth_metaqa, MetaQaConfig};
    use crate::umls::{synth_umls, UmlsConfig};

    #[test]
    fn two_hop_paths_are_connected() {
        let s = synth_umls(&UmlsConfig::with_triplets(300, 21));
        let paths = two_hop_paths(&s, 200);
        for p in &paths {
            assert_eq!(p.first.tail, p.second.head, "hops must chain");
            assert_ne!(p.end(), p.start(), "no loops");
            assert!(s.contains(&p.first) && s.contains(&p.second));
        }
    }

    #[test]
    fn two_hop_respects_limit() {
        let s = synth_umls(&UmlsConfig::with_triplets(300, 22));
        assert!(two_hop_paths(&s, 10).len() <= 10);
    }

    #[test]
    fn reachable_zero_hops_is_start() {
        let s = synth_metaqa(&MetaQaConfig::with_triplets(120, 3));
        let start = s.triples()[0].head;
        assert_eq!(reachable(&s, start, 0), vec![start]);
    }

    #[test]
    fn reachable_one_hop_matches_tails() {
        let s = synth_metaqa(&MetaQaConfig::with_triplets(120, 3));
        let start = s.triples()[0].head;
        let r = reachable(&s, start, 1);
        let tails: Vec<EntityId> = s.triples_of_head(start).iter().map(|t| t.tail).collect();
        for t in &tails {
            assert!(r.contains(t));
        }
        assert_eq!(r.len(), {
            let mut dedup = tails.clone();
            dedup.sort_unstable();
            dedup.dedup();
            dedup.len()
        });
    }

    #[test]
    fn movie_graph_has_full_outgoing_coverage_for_movies() {
        let s = synth_metaqa(&MetaQaConfig::with_triplets(200, 4));
        // Heads are movies; tail-only entities (people, genres…) lower overall
        // coverage, but it must be strictly positive and below 1.
        let c = outgoing_coverage(&s);
        assert!(c > 0.0 && c < 1.0, "coverage {c}");
    }
}
