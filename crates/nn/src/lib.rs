//! # infuserki-nn
//!
//! A decoder-only transformer language model (`SmolLM`) built on
//! `infuserki-tensor`, plus the optimizer and training machinery shared by
//! the InfuserKI method and every baseline.
//!
//! The model exposes **hook points** ([`hooks::LayerHook`]) at each layer's
//! attention and FFN sublayers. The InfuserKI adapters, LoRA, QLoRA, prefix
//! tuning, CALINET and T-Patcher all inject themselves through these hooks,
//! so a single frozen base model serves every method — mirroring how the
//! paper patches a frozen LLaMa-2. The model and every hook are written once
//! against an [`exec::Exec`], which records them on the autograd tape for
//! training or runs them eagerly over the paged KV cache for inference.

pub mod attention;
pub mod block;
pub mod block_alloc;
pub mod config;
pub mod exec;
pub mod ffn;
pub mod hooks;
pub mod kv_cache;
pub mod layers;
pub mod model;
pub mod optim;
pub mod prefix_index;
pub mod sampler;
pub mod trainer;

pub use block_alloc::{BlockId, BlockPool, PoolHandle};
pub use config::ModelConfig;
pub use exec::{Exec, Val};
pub use hooks::{ForwardTrace, LayerHook, NoHook};
pub use kv_cache::KvCache;
pub use model::TransformerLm;
pub use optim::{AdamW, AdamWConfig};
pub use prefix_index::{PrefixIndex, PrefixMatch};
pub use trainer::{compute_batch_grads, eval_loss, train_epoch, LmSample, Trainable};
