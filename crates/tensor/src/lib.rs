//! # infuserki-tensor
//!
//! A small, dependency-light CPU tensor library with tape-based reverse-mode
//! automatic differentiation, purpose-built as the numerical substrate for the
//! InfuserKI reproduction.
//!
//! Design notes (see `DESIGN.md` at the workspace root):
//!
//! * All values are dense, row-major `f32` matrices ([`Matrix`]). Sequences of
//!   token embeddings are `[seq, d]` matrices; scalars are `[1, 1]`.
//! * Autograd is a **tape** ([`Tape`]): every operation appends a node holding
//!   its op tag ([`Op`]), parent node ids and the eagerly computed value.
//!   [`Tape::backward`] walks the tape in reverse, matching on the op enum —
//!   no boxed closures, so tapes are `Send` and backward dispatch is a jump
//!   table over a dense `Vec`.
//! * Trainable parameters live *outside* tapes in [`ParamSet`]s. A parameter is
//!   leafed into a tape once per forward pass (cached by [`Tape::param`]),
//!   sharing the parameter's storage, so no value is copied;
//!   after `backward`, [`Tape::grads`] extracts per-parameter gradients into a
//!   mergeable [`Gradients`] map, enabling data-parallel batch accumulation.
//!   [`Tape::new`] differentiates towards every node;
//!   [`Tape::with_trainable`] towards the parameters of a [`TrainableSet`]
//!   only, so a frozen base gets no weight gradients and no backward below
//!   the lowest trainable parameter.
//! * Two matrix products, `a@b` and `aᵀ@b` ([`kernels`]). Every `a@bᵀ` —
//!   [`Tape::matmul_bt`] and the backward's `g·bᵀ`, `g·Wᵀ` — multiplies by a
//!   transposed operand: a [`Param`] owns its value's
//!   ([`Param::transposed`]), any other operand is transposed at the op.
//! * Causal multi-head attention is one node ([`Tape::attention`]) on the
//!   KV-cached engine's all-heads kernels, with one backward arm for every
//!   head; its values and gradients are bitwise the per-head graph of
//!   slices, products, mask and softmax it replaced.
//!
//! Gradient correctness for every op is property-tested against central finite
//! differences (see `tests/` and [`check`]).

mod backward;
mod base64;
pub mod batch;
pub mod check;
pub mod error;
pub mod half;
pub mod infer;
pub mod init;
pub mod kernels;
pub mod matrix;
pub mod op;
pub mod param;
pub mod quant;
pub mod simd;
pub mod tape;

pub use batch::SeqBatch;
pub use error::TensorError;
pub use half::HalfMatrix;
pub use matrix::Matrix;
pub use op::Op;
pub use param::{Gradients, Param, ParamId, ParamSet, TrainableSet};
pub use quant::{QuantSpec, QuantizedMatrix};
pub use simd::Isa;
pub use tape::{NodeId, Tape};
