//! # infuserki-text
//!
//! The text layer of the InfuserKI reproduction: a closed-vocabulary
//! word-level tokenizer, per-relation QA/statement templates (standing in for
//! the paper's GPT-4-generated templates, Appendix A.1), multiple-choice
//! question construction with edit-distance distractors, and the instruction
//! prompt format (Table 6).

pub mod distance;
pub mod mcq;
pub mod prompts;
pub mod templates;
pub mod tokenizer;

pub use distance::levenshtein;
pub use mcq::{DistractorPool, Mcq, McqBuilder};
pub use prompts::{extract_option, format_mcq_prompt, option_token, OPTION_TOKENS};
pub use templates::{FilledStatement, TemplateSet, N_QA_TEMPLATES};
pub use tokenizer::Tokenizer;
