//! # infuserki-core
//!
//! The paper's primary contribution: **Infuser-guided Knowledge Integration**.
//!
//! * [`adapter`] — bottleneck knowledge adapters parallel to FFN (or
//!   attention) sublayers with a cross-layer accumulator (Eq. 1–3);
//! * [`infuser`] — the per-layer gate `r^l = σ(MLP(Mean(H_P^l)))` that decides
//!   how much adapter signal reaches the frozen base model (Eq. 4–6);
//! * [`method`] — [`method::InfuserKiMethod`], bundling adapters, infusers and
//!   the relation-classification head, exposed as a
//!   [`infuserki_nn::LayerHook`];
//! * [`detect`] — MCQ-based known/unknown knowledge detection (§3.2);
//! * [`dataset`] — MCQ banks and the three phases' training samples;
//! * [`trainer`] — the three-phase training loop (Eq. 7) with ablation
//!   switches for the paper's Table 4 variants.

pub mod adapter;
pub mod bundle;
pub mod config;
pub mod dataset;
pub mod detect;
pub mod incremental;
pub mod infuser;
pub mod method;
pub mod trainer;

pub use bundle::{
    base_model_digest, BaseDigest, EvalStamp, GateProbe, GateReport, KnowledgeBundle, BUNDLE_FORMAT,
};
pub use config::{Ablation, GateInput, InfuserKiConfig, Placement, Site, TrainConfig};
pub use dataset::{InfuserSample, KiDataset, McqBank, RcSample};
pub use detect::{answer_mcq, answer_mcq_batch, detect_unknown, DetectionResult};
pub use incremental::{integrate_more, IncrementalReport};
pub use method::InfuserKiMethod;
pub use trainer::{train_infuserki, TrainingReport};
