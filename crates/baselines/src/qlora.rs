//! QLoRA (Dettmers et al. 2023): the frozen base model's projection weights
//! are quantized to 4 bits (blockwise absmax), then LoRA trains on top.
//!
//! The reproduction applies the quantization *noise* in place: weights are
//! quantized and immediately dequantized, exactly the values a NF4-storage /
//! f32-compute implementation would use on the forward pass. LoRA then
//! reuses [`crate::lora::LoraMethod`] unchanged.

use infuserki_nn::TransformerLm;
use serde::{Deserialize, Serialize};

/// Blockwise 4-bit quantization parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct QuantConfig {
    /// Values per quantization block (QLoRA uses 64).
    pub block_size: usize,
}

impl Default for QuantConfig {
    fn default() -> Self {
        QuantConfig { block_size: 64 }
    }
}

/// Quantizes one buffer blockwise to 4-bit signed levels and dequantizes it
/// back, in place. Per block: `scale = absmax / 7`, levels in `[-8, 7]`.
///
/// The arithmetic is [`infuserki_tensor::quant::quantize_dequantize_levels`]
/// at the 4-bit levels — the same core the int8 frozen-base inference path
/// uses at `max_level = 127`, so the two quantizers can never drift apart.
pub fn quantize_dequantize(data: &mut [f32], block_size: usize) {
    infuserki_tensor::quant::quantize_dequantize_levels(data, block_size, 7.0, -8.0);
}

/// Quantizes the attention and FFN projection weights of `model` in place
/// (embeddings and LayerNorms stay full precision, as in QLoRA).
/// Returns the number of quantized matrices.
pub fn quantize_model(model: &mut TransformerLm, cfg: QuantConfig) -> usize {
    let mut count = 0;
    for block in model.blocks_mut() {
        for lin in block.attn_mut().projections_mut() {
            quantize_dequantize(lin.weight_mut().data_mut().data_mut(), cfg.block_size);
            count += 1;
        }
        for lin in block.ffn_mut().projections_mut() {
            quantize_dequantize(lin.weight_mut().data_mut().data_mut(), cfg.block_size);
            count += 1;
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use infuserki_nn::{ModelConfig, NoHook};
    use infuserki_tensor::{Matrix, Tape};
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Worst-case absolute 4-bit error for a block with the given absmax.
    fn max_error_bound(absmax: f32) -> f32 {
        absmax / 14.0 + 1e-7
    }

    /// Mean absolute difference between two equally-shaped matrices.
    fn mean_abs_diff(a: &Matrix, b: &Matrix) -> f32 {
        assert_eq!(a.shape(), b.shape());
        let sum: f32 = (a.data().iter().zip(b.data()))
            .map(|(x, y)| (x - y).abs())
            .sum();
        sum / a.len() as f32
    }

    #[test]
    fn quantization_is_idempotent() {
        let mut a: Vec<f32> = (0..100).map(|i| (i as f32 * 0.37).sin()).collect();
        quantize_dequantize(&mut a, 64);
        let snapshot = a.clone();
        quantize_dequantize(&mut a, 64);
        assert_eq!(a, snapshot);
    }

    #[test]
    fn zero_block_unchanged() {
        let mut a = vec![0.0f32; 32];
        quantize_dequantize(&mut a, 16);
        assert!(a.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn quantized_model_is_close_but_not_identical() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let model = TransformerLm::new(ModelConfig::tiny(30), &mut rng);
        let mut quant = model.clone();
        let n = quantize_model(&mut quant, QuantConfig::default());
        assert_eq!(n, quant.n_layers() * 6);
        let mut t1 = Tape::new();
        let mut t2 = Tape::new();
        let a = model.forward(&[1, 2, 3], &NoHook, &mut t1);
        let b = quant.forward(&[1, 2, 3], &NoHook, &mut t2);
        let diff = mean_abs_diff(t1.value(a), t2.value(b));
        assert!(diff > 0.0, "quantization must perturb the model");
        assert!(diff < 1.0, "4-bit noise should stay moderate, got {diff}");
    }

    #[test]
    fn int8_levels_share_the_same_core() {
        // The int8 path is the same shared core at max_level = 127: finer
        // grid, strictly smaller error, idempotent like the 4-bit path.
        let v: Vec<f32> = (0..96).map(|i| (i as f32 * 0.37).sin()).collect();
        let mut q4 = v.clone();
        quantize_dequantize(&mut q4, 64);
        let mut q8 = v.clone();
        infuserki_tensor::quant::quantize_dequantize_levels(&mut q8, 64, 127.0, -127.0);
        let err = |q: &[f32]| {
            v.iter()
                .zip(q)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max)
        };
        assert!(
            err(&q8) < err(&q4),
            "int8 must be strictly finer than 4-bit"
        );
        let snapshot = q8.clone();
        infuserki_tensor::quant::quantize_dequantize_levels(&mut q8, 64, 127.0, -127.0);
        assert_eq!(q8, snapshot);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn int8_error_within_bound(v in proptest::collection::vec(-3.0f32..3.0, 1..96)) {
            use infuserki_tensor::quant;
            let mut q = v.clone();
            quant::quantize_dequantize_levels(&mut q, 64, 127.0, -127.0);
            for block_idx in 0..v.len().div_ceil(64) {
                let lo = block_idx * 64;
                let hi = (lo + 64).min(v.len());
                let absmax = v[lo..hi].iter().fold(0.0f32, |m, x| m.max(x.abs()));
                let bound = quant::max_abs_error(absmax);
                for i in lo..hi {
                    prop_assert!((v[i] - q[i]).abs() <= bound,
                        "err {} > bound {bound}", (v[i] - q[i]).abs());
                }
            }
        }

        #[test]
        fn error_within_half_step(v in proptest::collection::vec(-3.0f32..3.0, 1..96)) {
            let mut q = v.clone();
            quantize_dequantize(&mut q, 64);
            for block_idx in 0..v.len().div_ceil(64) {
                let lo = block_idx * 64;
                let hi = (lo + 64).min(v.len());
                let absmax = v[lo..hi].iter().fold(0.0f32, |m, x| m.max(x.abs()));
                let bound = max_error_bound(absmax);
                for i in lo..hi {
                    prop_assert!((v[i] - q[i]).abs() <= bound,
                        "err {} > bound {bound}", (v[i] - q[i]).abs());
                }
            }
        }

        #[test]
        fn levels_are_at_most_sixteen(v in proptest::collection::vec(-2.0f32..2.0, 64)) {
            let mut q = v.clone();
            quantize_dequantize(&mut q, 64);
            let distinct: std::collections::HashSet<u32> =
                q.iter().map(|f| f.to_bits()).collect();
            prop_assert!(distinct.len() <= 16);
        }
    }
}
