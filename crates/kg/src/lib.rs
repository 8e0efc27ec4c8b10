//! # infuserki-kg
//!
//! Knowledge-graph substrate for the InfuserKI reproduction: an interned
//! triple store with head/relation/tail indices, plus deterministic synthetic
//! generators standing in for the paper's UMLS and MetaQA graphs (see
//! `DESIGN.md` §2 for the substitution rationale).
//!
//! The generators produce **closed-vocabulary** entity names from small word
//! pools, so the downstream tokenizer stays small no matter how many triplets
//! are sampled — the property that makes the paper's 2.5k → 25k scale-up
//! experiment (Table 3) feasible on CPU.

pub mod io;
pub mod metaqa;
pub mod names;
pub mod paths;
pub mod stats;
pub mod store;
pub mod types;
pub mod umls;

pub use io::ParseError;
pub use metaqa::{synth_metaqa, MetaQaConfig};
pub use stats::KgStats;
pub use store::TripleStore;
pub use types::{EntityId, RelationId, Triple};
pub use umls::{synth_umls, UmlsConfig};
