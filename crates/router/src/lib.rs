//! # infuserki-router
//!
//! The serving front over `infuserki-serve`: one front door, N ≥ 1
//! in-process model replicas.
//!
//! A single continuous-batching scheduler saturates at one model instance.
//! [`spawn_router`] brings up `replicas` independent schedulers — each its
//! own model copy, KV block pool and budget, reached over its own
//! [`infuserki_serve::Client`] — behind one cloneable [`RouterClient`].
//! Everything caller-facing goes through that client at every N, one
//! replica included: the JSONL TCP server ([`server`]), the `serve` binary
//! and its `--watch-kg` update loop ([`watch`]).
//!
//! Three mechanisms make the fleet more than a load balancer:
//!
//! * **Prefix-affinity dispatch** ([`affinity`]): the leading block-aligned
//!   chunk of the prompt — the same `block_rows`-sized chunking the radix
//!   prefix cache (`nn::PrefixIndex`) is keyed by — is hashed and mapped to
//!   a replica by rendezvous (highest-random-weight) hashing, so repeated
//!   templates land where their KV blocks are already cached, and a replica
//!   death only remaps the prefixes it owned. A replica overloaded past the
//!   configured slack falls back to least-loaded dispatch.
//! * **Per-tenant fair share**: requests wait in per-tenant bounded queues
//!   drained round-robin (one request per tenant per sweep), with optional
//!   token-bucket rate limits and in-flight caps in front — an aggressive
//!   tenant can fill its own queue but cannot starve another's.
//! * **Atomic control fan-out**: `load_bundle` stages on every replica,
//!   `promote` executes two-phase (promote each replica in turn; any
//!   refusal — NR gate or otherwise — rolls the already-promoted replicas
//!   back), so the fleet never serves mixed knowledge versions to unpinned
//!   traffic. [`RouterClient`] implements
//!   [`infuserki_ingest::BundlePublisher`], so `serve --watch-kg` publishes
//!   ingested knowledge to the whole fleet atomically.
//!
//! The determinism contract survives routing: every response served
//! through the router is produced by exactly one scheduler, and each
//! scheduler's responses are bitwise-equal (at one kernel thread) to
//! single-request execution — so the router's responses are too, no matter
//! which replica a request lands on (see `tests/router_differential.rs` at
//! the workspace root).

pub mod affinity;
pub mod config;
mod dispatch;
mod fanout;
pub mod metrics;
pub mod server;
mod tenants;
pub mod watch;

pub use config::RouterConfig;
pub use dispatch::{spawn_router, RouterClient, RouterHandle};
pub use metrics::RouterMetrics;
pub use watch::{load_tokenizer, spawn_watcher};
