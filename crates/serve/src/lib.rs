//! # infuserki-serve
//!
//! The serving layer over the batch-first inference runtime: **continuous
//! batching** of generation and MCQ-scoring requests under a KV-row memory
//! budget.
//!
//! A deployed InfuserKI knowledge service answers detection MCQs and free
//! generation requests that arrive and finish asynchronously. The
//! [`Scheduler`] keeps one ragged decode batch full while that happens: each
//! step it retires finished/cancelled/deadline-expired sequences
//! ([`infuserki_nn::KvCache::retain_indices`]), admits queued requests up to
//! the configured KV-row budget, prefills newcomers *in chunks* so one long
//! prompt never stalls the live decode lanes, and advances everything with a
//! single [`infuserki_nn::TransformerLm::extend_cached_batch`] call.
//!
//! The crown property, inherited from the batch- and chunking-equivalence
//! guarantees of the runtime underneath: **at one kernel thread, every
//! response is bitwise identical to running that request alone on the
//! single-sequence sampler path, regardless of what batch compositions the
//! scheduler happened to choose** (see `tests/serve_differential.rs` at the
//! workspace root).
//!
//! Entry points:
//! - [`Scheduler`] — the single-threaded core; drive it directly with
//!   [`Scheduler::enqueue`] / [`Scheduler::step`] for deterministic tests.
//! - [`spawn_scheduler`] — runs the scheduler on its own thread and hands
//!   back a cloneable in-process [`Client`] (std `mpsc`, blocking and `try`
//!   waits, cancellation tokens). One `Client` is one replica: the front
//!   door — tenant queues, the JSONL TCP server, the `serve` binary,
//!   `--watch-kg` — lives in `infuserki-router`, which dispatches over
//!   N ≥ 1 of these.

mod admission;
pub mod client;
pub mod config;
mod control;
mod lanes;
pub mod limits;
pub mod metrics;
pub mod queue;
pub mod registry;
pub mod request;
pub mod scheduler;

pub use client::{spawn_scheduler, Client, ResponseHandle, SchedulerHandle, SubmitOpts};
pub use config::ServeConfig;
pub use infuserki_core::GateReport;
pub use limits::EngineLimits;
pub use metrics::{MetricsSnapshot, ServeMetrics};
pub use registry::{
    BundleEntry, BundleInfo, BundleRegistry, ControlError, ControlOp, ControlOutcome, ControlPlane,
    HookArc,
};
pub use request::{
    CancelToken, GenerateSpec, McqSpec, OnAnswer, Outcome, RejectReason, Request, RequestId,
    RequestKind, Response, SubmitError,
};
pub use scheduler::{Scheduler, StepReport};

use infuserki_nn::{ModelConfig, TransformerLm};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The deterministic demo model the `serve` binary falls back to when no
/// checkpoint is given (`--demo`): a tiny fresh transformer, seeded so the
/// loopback smoke test can rebuild the identical model in-process and check
/// the served tokens against the single-sequence sampler.
pub fn demo_model() -> TransformerLm {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let cfg = ModelConfig {
        max_seq: 128,
        ..ModelConfig::tiny(64)
    };
    TransformerLm::new(cfg, &mut rng)
}
