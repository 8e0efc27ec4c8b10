//! Primitive layers: linear projections, embeddings, layer norm.

use infuserki_tensor::{init, Matrix, Param, QuantSpec, QuantizedMatrix, TrainableSet};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::exec::{Exec, Val};

/// Visitor over a module's trainable parameters.
///
/// Implemented by every layer and model; the optimizer and checkpointing walk
/// parameters through this trait so ownership stays inside the module tree.
pub trait Module {
    /// Visits each parameter immutably.
    fn visit(&self, f: &mut dyn FnMut(&Param));
    /// Visits each parameter mutably (optimizer updates).
    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Total scalar parameter count.
    fn numel(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |p| n += p.numel());
        n
    }

    /// Every parameter of the module, as the set a full-model training loop
    /// differentiates towards ([`crate::compute_batch_grads`]).
    fn trainable_set(&self) -> TrainableSet {
        let mut ids = Vec::new();
        self.visit(&mut |p| ids.push(p.id()));
        ids.into_iter().collect()
    }
}

/// Affine projection `y = x W + b`.
///
/// A frozen projection can additionally carry packed int8 weights
/// ([`Linear::quantize_frozen`]): an eager [`Linear::forward`] then runs the
/// fused dequant-matmul, while `w` holds the *dequantized* f32 values — so
/// the tape, checkpoints and any code reading `weight()` see exactly the
/// numbers inference folds, and the two stay bitwise consistent. The packed
/// form is rebuilt at load, not serialized (`#[serde(skip)]`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Linear {
    w: Param,
    b: Option<Param>,
    #[serde(skip)]
    qw: Option<QuantizedMatrix>,
}

impl Linear {
    /// New linear layer with `N(0, std²)` weights and zero bias.
    pub fn new(
        name: &str,
        d_in: usize,
        d_out: usize,
        std: f32,
        bias: bool,
        rng: &mut impl Rng,
    ) -> Self {
        Linear {
            w: Param::new(format!("{name}.w"), init::normal(d_in, d_out, std, rng)),
            b: bias.then(|| Param::new(format!("{name}.b"), Matrix::zeros(1, d_out))),
            qw: None,
        }
    }

    /// New linear layer with all-zero weights (adapter up-projections start
    /// as the identity mapping in residual form).
    pub fn zeros(name: &str, d_in: usize, d_out: usize, bias: bool) -> Self {
        Linear {
            w: Param::new(format!("{name}.w"), Matrix::zeros(d_in, d_out)),
            b: bias.then(|| Param::new(format!("{name}.b"), Matrix::zeros(1, d_out))),
            qw: None,
        }
    }

    /// `x W + b` ([`Exec::linear`]): on the tape the fused affine node (a
    /// plain matmul without a bias); eagerly the same arithmetic, row-local
    /// and therefore batch-transparent, through the fused int8
    /// dequant-matmul once [`Linear::quantize_frozen`] has run — bitwise the
    /// dense product over the dequantized `w` this layer then holds.
    pub fn forward(&self, x: &Val, e: &mut Exec) -> Val {
        e.linear(x, &self.w, self.b.as_ref(), self.qw.as_ref())
    }

    /// Quantizes this projection's weights to packed int8 blocks and replaces
    /// `w` with their dequantized values, so every non-fused reader (tape
    /// forwards, checkpoints, analysis) sees exactly the numbers the fused
    /// kernel folds. Inference-only contract: mutating the weights afterwards
    /// (training) would desync the packed copy — freeze first, quantize last.
    pub fn quantize_frozen(&mut self, spec: QuantSpec) {
        let qm = QuantizedMatrix::quantize(self.w.data(), spec);
        *self.w.data_mut() = qm.dequantize();
        self.qw = Some(qm);
    }

    /// The packed int8 weights, when [`Linear::quantize_frozen`] has run.
    pub fn quantized(&self) -> Option<&QuantizedMatrix> {
        self.qw.as_ref()
    }

    /// Whether this projection runs the fused int8 path.
    pub fn is_quantized(&self) -> bool {
        self.qw.is_some()
    }

    /// Weight parameter.
    pub fn weight(&self) -> &Param {
        &self.w
    }

    /// Mutable weight parameter (quantization experiments). Writing through
    /// this on a [`Linear::is_quantized`] layer desyncs the packed int8 copy
    /// — quantization is inference-only, re-quantize after any edit.
    pub fn weight_mut(&mut self) -> &mut Param {
        &mut self.w
    }

    /// Bias parameter, if present.
    pub fn bias(&self) -> Option<&Param> {
        self.b.as_ref()
    }

    /// Input/output sizes `(d_in, d_out)`.
    pub fn shape(&self) -> (usize, usize) {
        self.w.data().shape()
    }
}

impl Module for Linear {
    fn visit(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.w);
        if let Some(b) = &self.b {
            f(b);
        }
    }

    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w);
        if let Some(b) = &mut self.b {
            f(b);
        }
    }
}

/// Token (or positional) embedding table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Embedding {
    table: Param,
}

impl Embedding {
    /// New table `[vocab, d]` with `N(0, std²)` entries.
    pub fn new(name: &str, vocab: usize, d: usize, std: f32, rng: &mut impl Rng) -> Self {
        Embedding {
            table: Param::new(name, init::normal(vocab, d, std, rng)),
        }
    }

    /// Gathers rows for `ids`.
    pub fn forward(&self, ids: &[usize], e: &mut Exec) -> Val {
        e.embedding(&self.table, ids)
    }

    /// The raw table parameter (tied LM head reads it).
    pub fn table(&self) -> &Param {
        &self.table
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.table.data().rows()
    }
}

impl Module for Embedding {
    fn visit(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.table);
    }

    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.table);
    }
}

/// Layer normalization with learnable gain and bias.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LayerNorm {
    gain: Param,
    bias: Param,
    eps: f32,
}

impl LayerNorm {
    /// New layer norm over width `d` (gain=1, bias=0).
    pub fn new(name: &str, d: usize, eps: f32) -> Self {
        LayerNorm {
            gain: Param::new(format!("{name}.g"), Matrix::full(1, d, 1.0)),
            bias: Param::new(format!("{name}.b"), Matrix::zeros(1, d)),
            eps,
        }
    }

    /// Normalizes each row of `x` (per-row statistics, so packed
    /// multi-sequence input normalizes batch-transparently).
    pub fn forward(&self, x: &Val, e: &mut Exec) -> Val {
        e.layer_norm(x, &self.gain, &self.bias, self.eps)
    }
}

impl Module for LayerNorm {
    fn visit(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.gain);
        f(&self.bias);
    }

    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gain);
        f(&mut self.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infuserki_tensor::Tape;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn linear_forward_shapes_and_bias() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let lin = Linear::new("l", 3, 2, 0.1, true, &mut rng);
        let mut t = Tape::new();
        let x = t.leaf(Matrix::zeros(4, 3));
        let y = Exec::on_tape(&mut t, |e| lin.forward(&x.into(), e));
        assert_eq!(t.value(y).shape(), (4, 2));
        // zero input → output equals bias (zero here)
        assert!(t.value(y).data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn linear_zeros_is_zero_map() {
        let lin = Linear::zeros("z", 3, 3, false);
        let mut t = Tape::new();
        let x = t.leaf(Matrix::full(2, 3, 5.0));
        let y = Exec::on_tape(&mut t, |e| lin.forward(&x.into(), e));
        assert!(t.value(y).data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn linear_module_numel() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let lin = Linear::new("l", 3, 2, 0.1, true, &mut rng);
        assert_eq!(lin.numel(), 3 * 2 + 2);
        let nobias = Linear::new("l", 3, 2, 0.1, false, &mut rng);
        assert_eq!(nobias.numel(), 6);
    }

    #[test]
    fn embedding_gathers() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let e = Embedding::new("e", 5, 4, 0.5, &mut rng);
        let mut t = Tape::new();
        let x = Exec::on_tape(&mut t, |ex| e.forward(&[3, 3, 0], ex));
        assert_eq!(t.value(x).shape(), (3, 4));
        assert_eq!(t.value(x).row(0), t.value(x).row(1));
        assert_eq!(e.vocab(), 5);
    }

    #[test]
    fn layer_norm_standardizes() {
        let ln = LayerNorm::new("ln", 4, 1e-5);
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]));
        let y = Exec::on_tape(&mut t, |e| ln.forward(&x.into(), e));
        let v = t.value(y);
        let mean: f32 = v.row(0).iter().sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-4);
    }

    #[test]
    fn visit_counts_params() {
        let ln = LayerNorm::new("ln", 4, 1e-5);
        let mut count = 0;
        ln.visit(&mut |_| count += 1);
        assert_eq!(count, 2);
    }
}
