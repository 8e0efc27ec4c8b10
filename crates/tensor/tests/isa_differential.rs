//! ISA-dispatch differential suite: every dispatched kernel, run under every
//! tier the host supports, must be **bit-for-bit** the scalar tier's output —
//! across ragged shapes (proptest), at the banded thread counts, and for the
//! fused int8 dequant-matmul, for the binary16 narrow / widen of cached K/V
//! rows, and for the gradients of a hooked LM loss, so the backward's
//! products dispatch by tier too. Plus the loud-failure
//! contract of the `INFUSERKI_ISA` knob: an invalid value aborts with a
//! clear message (checked end-to-end in a subprocess), never a silent
//! fallback.

use infuserki_core::{InfuserKiConfig, InfuserKiMethod};
use infuserki_nn::layers::Module;
use infuserki_nn::{LmSample, ModelConfig, TransformerLm};
use infuserki_tensor::{half, kernels, quant, simd, Matrix, Param, Tape};
use proptest::prelude::*;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Mutex;

/// Serializes tests that flip the process-global tier override. (The bitwise
/// contract makes cross-talk harmless in value terms, but a failure must
/// point at the tier that produced it.)
static ISA_GUARD: Mutex<()> = Mutex::new(());

fn guard() -> std::sync::MutexGuard<'static, ()> {
    ISA_GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

/// The non-scalar tiers this host can execute.
fn simd_tiers() -> Vec<simd::Isa> {
    [simd::Isa::Avx2, simd::Isa::Avx512]
        .into_iter()
        .filter(|&isa| simd::supported(isa))
        .collect()
}

/// Runs `f` under `isa` and returns its output.
fn under<R>(isa: simd::Isa, f: impl Fn() -> R) -> R {
    simd::set_isa(Some(isa));
    let r = f();
    simd::set_isa(None);
    r
}

fn assert_bits_eq(a: &Matrix, b: &Matrix, ctx: &str) {
    assert_eq!(a.shape(), b.shape(), "{ctx}: shape");
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{ctx}: elem {i} {x} vs {y} (bits differ)"
        );
    }
}

fn matrix(rows: usize, cols: usize, vals: &[f32]) -> Matrix {
    Matrix::from_vec(rows, cols, vals[..rows * cols].to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `a@b` and `aᵀ@b` across ragged shapes: strips, column tails, the
    /// MR/4/2/scalar row ladder, and accumulate mode.
    #[test]
    fn matmul_family_bitwise_across_tiers(
        m in 1usize..24,
        k in 1usize..40,
        n in 1usize..40,
        seed in 0u64..1000,
        accumulate in prop::bool::ANY,
    ) {
        let _g = guard();
        let vals: Vec<f32> = (0..m.max(k) * k.max(n) + m * n)
            .map(|i| ((i as f32 + (seed % 1000) as f32) * 0.37).sin())
            .collect();
        let a = matrix(m, k, &vals);
        let b = matrix(k, n, &vals[1..]);
        let at = matrix(k, m, &vals);
        let init = matrix(m, n, &vals[2..]);
        let scalar = under(simd::Isa::Scalar, || {
            let mut out = init.clone();
            kernels::matmul_into(&a, &b, &mut out, accumulate);
            let mut out_at = init.clone();
            kernels::matmul_at_into(&at, &b, &mut out_at, accumulate);
            (out, out_at)
        });
        for isa in simd_tiers() {
            let tier = under(isa, || {
                let mut out = init.clone();
                kernels::matmul_into(&a, &b, &mut out, accumulate);
                let mut out_at = init.clone();
                kernels::matmul_at_into(&at, &b, &mut out_at, accumulate);
                (out, out_at)
            });
            assert_bits_eq(&tier.0, &scalar.0, &format!("matmul {m}x{k}x{n} {}", isa.name()));
            assert_bits_eq(&tier.1, &scalar.1, &format!("matmul_at {m}x{k}x{n} {}", isa.name()));
        }
    }

    /// The all-heads attention row fold: the scores·V fold (contiguous and
    /// segmented forms) and the Q·Kᵀ score fold over transposed K panels —
    /// one whole-history panel (a hook prefix: any length, rarely a multiple
    /// of 16) and 16-key blocks whose last one is filled 1..=16 with stale
    /// NaN past the fill — for 1..=4 heads of any width (rarely a multiple of
    /// a vector). Scalar tier bitwise vs `a@bᵀ` / `a@b` over each head's
    /// sliced window; every tier bitwise vs scalar.
    #[test]
    fn av_fold_bitwise_across_tiers(
        ra in 1usize..8,
        hist in 1usize..40,
        hd in 1usize..24,
        nh in 1usize..5,
        seed in 0u64..100,
    ) {
        let _g = guard();
        let d = hd * nh;
        let attn = Matrix::from_vec(ra * nh, hist, (0..ra * nh * hist)
            .map(|i| ((i as f32 + (seed % 100) as f32) * 0.41).sin()).collect());
        let v = Matrix::from_vec(hist, d, (0..hist * d)
            .map(|i| (i as f32 * 0.23).cos()).collect());
        // `v` doubles as the keys and `q` as the queries of the score fold.
        let q = Matrix::from_vec(ra, d, (0..ra * d)
            .map(|i| ((i as f32 + (seed % 100) as f32) * 0.29).cos()).collect());
        let kt = v.transposed();
        const BLOCK: usize = 16;
        let run = || {
            let mut merged = Matrix::full(ra, d, 7.5);
            kernels::av_heads_seg_into(&attn, 0, hist, &v, nh, &mut merged, 0, false);
            let mut panel = Matrix::full(ra * nh, hist, 7.5);
            kernels::qk_heads_panel(&q, 0, ra, &kt, hist, nh, &mut panel, 0);
            // Segmented: 16-token blocks, stale NaN past each block's fill.
            let mut seg = Matrix::full(ra, d, 7.5);
            let mut paged = Matrix::full(ra * nh, hist, 7.5);
            for col in (0..hist).step_by(BLOCK) {
                let filled = BLOCK.min(hist - col);
                let mut vblock = Matrix::full(BLOCK, d, f32::NAN);
                vblock.copy_rows_from(0, &v.slice_rows(col, col + filled));
                kernels::av_heads_seg_into(
                    &attn, col, col + filled, &vblock, nh, &mut seg, 0, col > 0,
                );
                // A K block holds `BLOCK` key columns, stale past `filled`.
                let mut kblock = Matrix::full(d, BLOCK, f32::NAN);
                for p in 0..d {
                    kblock.row_mut(p)[..filled].copy_from_slice(&kt.row(p)[col..col + filled]);
                }
                kernels::qk_heads_panel(&q, 0, ra, &kblock, filled, nh, &mut paged, col);
            }
            (merged, seg, panel, paged)
        };
        let scalar = under(simd::Isa::Scalar, run);
        assert_bits_eq(&scalar.0, &scalar.1, "segmented fold vs contiguous (scalar)");
        assert_bits_eq(&scalar.2, &scalar.3, "paged score fold vs one panel (scalar)");
        for h in 0..nh {
            let (lo, hi) = (h * hd, (h + 1) * hd);
            // Head `h`'s rows of a query-major matrix: `i·nh + h`.
            let head_rows = |m: &Matrix| {
                let mut out = Matrix::zeros(ra, m.cols());
                for i in 0..ra {
                    out.row_mut(i).copy_from_slice(m.row(i * nh + h));
                }
                out
            };
            let dense = under(simd::Isa::Scalar, || {
                kernels::matmul(&q.slice_cols(lo, hi), &v.slice_cols(lo, hi).transposed())
            });
            assert_bits_eq(&head_rows(&scalar.2), &dense,
                &format!("score fold vs a@bT over head {h}'s window (scalar)"));
            let dense = kernels::matmul(&head_rows(&attn), &v.slice_cols(lo, hi));
            assert_bits_eq(&scalar.0.slice_cols(lo, hi), &dense,
                &format!("av fold vs a@b over head {h}'s window (scalar)"));
        }
        for isa in simd_tiers() {
            let tier = under(isa, run);
            let ctx = format!("{ra}x{hist}x{hd}x{nh} {}", isa.name());
            assert_bits_eq(&tier.0, &scalar.0, &format!("av fold {ctx}"));
            assert_bits_eq(&tier.1, &scalar.1, &format!("av seg fold {ctx}"));
            assert_bits_eq(&tier.2, &scalar.2, &format!("score panel {ctx}"));
            assert_bits_eq(&tier.3, &scalar.3, &format!("paged scores {ctx}"));
        }
    }

    /// Softmax (plain and the fused all-heads causal form) and GELU over
    /// ragged rows.
    #[test]
    fn softmax_and_gelu_bitwise_across_tiers(
        rows in 1usize..10,
        cols in 1usize..40,
        offset in 0usize..6,
        nh in 1usize..5,
        seed in 0u64..50,
    ) {
        let _g = guard();
        let x = Matrix::from_vec(rows * nh, cols, (0..rows * nh * cols)
            .map(|i| ((i as f32 + (seed % 50) as f32) * 0.63).sin() * 4.0).collect());
        let run = || {
            let mut s = x.clone();
            kernels::softmax_rows_in_place(&mut s);
            let mut c = x.clone();
            kernels::softmax_heads_causal_in_place(&mut c, nh, offset, 0.25);
            let mut g = x.clone();
            kernels::gelu_slice(g.data_mut());
            (s, c, g, kernels::log_softmax_rows(&x))
        };
        let scalar = under(simd::Isa::Scalar, run);
        for isa in simd_tiers() {
            let tier = under(isa, run);
            assert_bits_eq(&tier.0, &scalar.0, &format!("softmax {rows}x{cols} {}", isa.name()));
            assert_bits_eq(&tier.1, &scalar.1, &format!("causal softmax {rows}x{cols} {}", isa.name()));
            assert_bits_eq(&tier.2, &scalar.2, &format!("gelu {rows}x{cols} {}", isa.name()));
            assert_bits_eq(&tier.3, &scalar.3, &format!("log-softmax {rows}x{cols} {}", isa.name()));
        }
    }

    /// Fused int8 dequant-matmul: every tier bitwise vs the scalar fused
    /// kernel, and the scalar fused kernel bitwise vs dense-over-dequantized.
    #[test]
    fn quantized_matmul_bitwise_across_tiers(
        m in 1usize..12,
        k in 1usize..32,
        n in 1usize..48,
        bs_idx in 0usize..4,
        seed in 0u64..100,
    ) {
        let _g = guard();
        let bs = [3usize, 16, 32, 64][bs_idx];
        let x = Matrix::from_vec(m, k, (0..m * k)
            .map(|i| ((i as f32 + (seed % 100) as f32) * 0.31).sin()).collect());
        let w = Matrix::from_vec(k, n, (0..k * n).map(|i| (i as f32 * 0.57).cos()).collect());
        let qw = quant::QuantizedMatrix::quantize(&w, quant::QuantSpec { block_size: bs });
        let scalar = under(simd::Isa::Scalar, || {
            let fused = qw.matmul(&x);
            let dense = kernels::matmul(&x, &qw.dequantize());
            assert_bits_eq(&fused, &dense, "fused vs dense (scalar)");
            fused
        });
        for isa in simd_tiers() {
            let tier = under(isa, || qw.matmul(&x));
            assert_bits_eq(&tier, &scalar, &format!("qmatmul {m}x{k}x{n} bs={bs} {}", isa.name()));
        }
    }
}

/// Dense `a@b` / `aᵀ@b` and the fused int8 product at every packed row count
/// 1..=17 (every remainder tile height) for each inner size in `ks`, width in
/// `ns` and quantization block size in `block_sizes`, `accumulate` both
/// ways: every tier bitwise equal to the scalar tier.
fn sweep_products_across_tiers(ks: &[usize], ns: &[usize], block_sizes: &[usize]) {
    let _g = guard();
    let wave = |rows: usize, cols: usize, f: f32| {
        Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols).map(|i| (i as f32 * f).sin()).collect(),
        )
    };
    for &k in ks {
        for &n in ns {
            let b = wave(k, n, 0.57);
            let qbs: Vec<_> = block_sizes
                .iter()
                .map(|&block_size| {
                    quant::QuantizedMatrix::quantize(&b, quant::QuantSpec { block_size })
                })
                .collect();
            for m in 1usize..=17 {
                let a = wave(m, k, 0.31);
                let at = a.transposed();
                let init = wave(m, n, 0.11);
                for accumulate in [false, true] {
                    let run = || {
                        let mut out = init.clone();
                        kernels::matmul_into(&a, &b, &mut out, accumulate);
                        let mut out_at = init.clone();
                        kernels::matmul_at_into(&at, &b, &mut out_at, accumulate);
                        let out_q: Vec<Matrix> = qbs
                            .iter()
                            .map(|qb| {
                                let mut out_q = init.clone();
                                qb.matmul_into(&a, &mut out_q, accumulate);
                                out_q
                            })
                            .collect();
                        (out, out_at, out_q)
                    };
                    let scalar = under(simd::Isa::Scalar, run);
                    for isa in simd_tiers() {
                        let tier = under(isa, run);
                        let ctx = format!("{m}x{k}x{n} acc={accumulate} {}", isa.name());
                        assert_bits_eq(&tier.0, &scalar.0, &format!("matmul {ctx}"));
                        assert_bits_eq(&tier.1, &scalar.1, &format!("matmul_at {ctx}"));
                        for ((t, s), bs) in tier.2.iter().zip(&scalar.2).zip(block_sizes) {
                            assert_bits_eq(t, s, &format!("qmatmul bs={bs} {ctx}"));
                        }
                    }
                }
            }
        }
    }
}

/// The shapes the strip remainders exist for, swept exhaustively where the
/// properties above sample: widths that are one partial strip (1, 10, 15),
/// exact strips, and strips plus a partial one (17, 26), at the model's
/// inner sizes.
#[test]
fn remainder_tiles_and_partial_strips_bitwise_across_tiers() {
    let default_block = quant::QuantSpec::default().block_size;
    sweep_products_across_tiers(
        &[1, 10, 16, 64, 192],
        &[1, 10, 15, 16, 17, 26, 192],
        &[default_block],
    );
}

/// The AVX-512 tier's two-strip pass against the one-strip scalar reference:
/// widths either side of one pair (31, 32, 33), a pair plus a strip (47, 48),
/// either side of two pairs (63, 64, 65), the world vocabulary (106: three
/// pairs and a 10-wide strip) and the model's widest product (192). The
/// int8 blocks cut passes short at 24 and 40 columns (a full strip beside a
/// partial one) as well as at the default 64 (two whole pairs).
#[test]
fn strip_pairs_bitwise_across_tiers() {
    let default_block = quant::QuantSpec::default().block_size;
    sweep_products_across_tiers(
        &[1, 10, 64, 192],
        &[31, 32, 33, 47, 48, 63, 64, 65, 106, 192],
        &[default_block, 24, 40],
    );
}

/// `tanh_slice` at every length 1..=67 — every vector-tail length beside
/// zero to four full vectors — with both zeros, both clamp edges and a step
/// past them, both infinities and NaN among the inputs: every tier bitwise
/// equal to scalar `tanh_fast` per element (NaN stays NaN).
#[test]
fn tanh_slice_bitwise_across_tiers_at_every_length() {
    let _g = guard();
    const CLAMP: f32 = 7.905_311;
    let specials = [
        0.0,
        -0.0,
        CLAMP,
        -CLAMP,
        CLAMP + 1e-3,
        -CLAMP - 1e-3,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        f32::MIN_POSITIVE,
        1e-42,
    ];
    for len in 1usize..=67 {
        let mut xs: Vec<f32> = (0..len).map(|i| (i as f32 * 0.71).sin() * 9.0).collect();
        // Rotate the specials through the positions so each meets every lane.
        for (i, x) in xs.iter_mut().enumerate().skip(len % 3).step_by(3) {
            *x = specials[(i + len) % specials.len()];
        }
        let by_hand: Vec<f32> = xs.iter().map(|&x| kernels::tanh_fast(x)).collect();
        for isa in std::iter::once(simd::Isa::Scalar).chain(simd_tiers()) {
            let tier = under(isa, || {
                let mut t = xs.clone();
                kernels::tanh_slice(&mut t);
                t
            });
            for (i, (t, h)) in tier.iter().zip(&by_hand).enumerate() {
                assert!(
                    t.to_bits() == h.to_bits() || (t.is_nan() && h.is_nan()),
                    "tanh len {len} elem {i} ({}) {}: {t} vs {h}",
                    xs[i],
                    isa.name()
                );
            }
        }
    }
}

/// The binary16 narrow / widen pair that stores and reads cached K/V rows:
/// every tier bitwise equal to the scalar software conversion. `narrow` over
/// sampled `u32` bit patterns (uniform, and concentrated on the exponents a
/// half can hold) plus the edges — both zeros, half subnormals and the
/// ties around them, 65504, 65520 (which rounds to +inf), both infinities
/// and NaN payloads, quiet and signalling — once whole and at every length
/// 1..=40 so each vector tail meets them; `widen` over all 65 536 halves.
#[test]
fn half_narrow_and_widen_bitwise_across_tiers() {
    let _g = guard();
    let sub = |m: u32| f32::from_bits(0x3380_0000) * m as f32; // m · 2^-24
    let mut xs: Vec<f32> = vec![
        0.0,
        -0.0,
        sub(1),
        -sub(1),
        sub(3),
        sub(1023),
        sub(1024),
        f32::from_bits(0x3300_0000), // 2^-25: ties to zero
        f32::from_bits(0x3300_0001),
        sub(1) * 1.5, // ties to 2^-23
        f32::from_bits(0x3280_0000),
        65504.0,
        65519.996,
        65520.0,
        -65520.0,
        65536.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::MIN_POSITIVE,
        f32::from_bits(1),
        f32::MAX,
    ];
    for bits in [
        0x7fc0_0000u32,
        0x7f80_0001,
        0xffbf_ffff,
        0x7f80_2000,
        0xff80_0001,
        0x7fff_ffff,
        0x7fa0_1fff,
    ] {
        xs.push(f32::from_bits(bits));
    }
    let mut rng = ChaCha8Rng::seed_from_u64(44);
    for _ in 0..20_000 {
        xs.push(f32::from_bits(rng.next_u32()));
        let exp = rng.gen_range(97u32..=143);
        let bits = (rng.next_u32() & 0x8000_0000) | (exp << 23) | (rng.next_u32() & 0x7f_ffff);
        xs.push(f32::from_bits(bits));
    }
    let want: Vec<u16> = xs.iter().map(|&x| half::f32_to_f16(x)).collect();
    let halves: Vec<u16> = (0..=u16::MAX).collect();
    let wide: Vec<u32> = halves
        .iter()
        .map(|&h| half::f16_to_f32(h).to_bits())
        .collect();
    for isa in std::iter::once(simd::Isa::Scalar).chain(simd_tiers()) {
        under(isa, || {
            let mut got = vec![0u16; xs.len()];
            half::narrow(&xs, &mut got);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g, w, "narrow {:08x} on {}", xs[i].to_bits(), isa.name());
            }
            let mut back = vec![0.0f32; halves.len()];
            half::widen(&halves, &mut back);
            for (h, (b, w)) in halves.iter().zip(back.iter().zip(&wide)) {
                assert_eq!(b.to_bits(), *w, "widen {h:04x} on {}", isa.name());
            }
            for len in 1..=40 {
                let mut got = vec![0u16; len];
                half::narrow(&xs[..len], &mut got);
                assert_eq!(got, want[..len], "narrow, length {len} on {}", isa.name());
                let mut back = vec![0.0f32; len];
                half::widen(&want[..len], &mut back);
                let bits: Vec<u32> = back.iter().map(|b| b.to_bits()).collect();
                let by_hand: Vec<u32> = want[..len]
                    .iter()
                    .map(|&h| half::f16_to_f32(h).to_bits())
                    .collect();
                assert_eq!(bits, by_hand, "widen, length {len} on {}", isa.name());
            }
        });
    }
}

/// `exp` over a slice and the fused all-heads causal softmax at every row
/// length 1..=97 — every vector-tail length 1..=15 beside zero to six full
/// vectors — with inputs that reach the subnormal results, the cutoff, the
/// `-1e9` mask value and both infinities: every tier bitwise equal to the
/// scalar tier, and the scalar slice bitwise `exp_fast` per element.
#[test]
fn exp_and_fused_softmax_bitwise_across_tiers_at_every_length() {
    let _g = guard();
    let specials = [0.0, -0.0, -87.4, -95.0, -103.99, -104.0, -1e9, 88.7, 89.5];
    for len in 1usize..=97 {
        let mut xs: Vec<f32> = (0..len)
            .map(|i| (i as f32 * 0.71).sin() * 30.0 - 20.0)
            .collect();
        for (x, s) in xs.iter_mut().step_by(7).zip(specials) {
            *x = s;
        }
        xs[len / 2] = f32::NEG_INFINITY;
        let exp = || {
            let mut e = xs.clone();
            kernels::exp_slice(&mut e);
            Matrix::row_vec(e)
        };
        let nh = 1 + len % 4;
        let rows = 3;
        let scores = Matrix::from_vec(
            rows * nh,
            len,
            (0..rows * nh * len)
                .map(|i| (i as f32 * 0.37).sin() * 40.0)
                .collect(),
        );
        let softmax = || {
            let mut s = scores.clone();
            // The last query row sees the whole row, earlier ones less.
            kernels::softmax_heads_causal_in_place(&mut s, nh, len.saturating_sub(rows), 0.25);
            s
        };
        let scalar = under(simd::Isa::Scalar, || (exp(), softmax()));
        let by_hand = Matrix::row_vec(xs.iter().map(|&x| kernels::exp_fast(x)).collect());
        assert_bits_eq(
            &scalar.0,
            &by_hand,
            &format!("exp_slice vs exp_fast, len {len}"),
        );
        for isa in simd_tiers() {
            let tier = under(isa, || (exp(), softmax()));
            assert_bits_eq(&tier.0, &scalar.0, &format!("exp len {len} {}", isa.name()));
            assert_bits_eq(
                &tier.1,
                &scalar.1,
                &format!("fused softmax len {len} {}", isa.name()),
            );
        }
    }
}

/// Every gradient of one InfuserKI-hooked LM loss on a full `Tape::new()`
/// tape, per tier: the forward's `a·bᵀ` products (attention scores, the
/// tied LM head), every `g·Wᵀ` and `g·bᵀ` of the backward and every frozen
/// `dW` all run on the dispatched strips. A 2-layer base whose widths sit
/// off the strip width (d = 40, heads of 8, d_ff = 72), every hook module
/// nudged off its init.
#[test]
fn hooked_lm_gradients_bitwise_across_tiers() {
    let _g = guard();
    let mut rng = ChaCha8Rng::seed_from_u64(33);
    let cfg = ModelConfig {
        d_model: 40,
        n_heads: 5,
        d_ff: 72,
        ..ModelConfig::tiny(53)
    };
    let base = TransformerLm::new(cfg, &mut rng);
    let mut method = InfuserKiMethod::new(InfuserKiConfig::for_model(base.n_layers()), &base, 4);
    let mut bump = |p: &mut Param| {
        for w in p.data_mut().data_mut() {
            *w += rng.gen_range(-0.1f32..0.1);
        }
    };
    method.visit_adapters_mut(&mut bump);
    method.visit_infusers_mut(&mut bump);
    let prompt: Vec<usize> = (0..19).map(|i| (i * 7 + 3) % 53).collect();
    let sample = LmSample::from_completion(&prompt, &[5, 11]);
    let grads = || {
        let mut t = Tape::new();
        let loss = base.lm_loss(&sample.tokens, &sample.targets, method.hook(), &mut t);
        t.backward(loss);
        let g = t.grads();
        let mut out = Vec::new();
        base.visit(&mut |p| out.push((p.name().to_string(), g.get(p.id()).cloned())));
        method.visit_all(&mut |p| out.push((p.name().to_string(), g.get(p.id()).cloned())));
        out
    };
    let scalar = under(simd::Isa::Scalar, grads);
    // Everything but the relation-classification head, which this loss
    // does not reach.
    let missing: Vec<_> = scalar
        .iter()
        .filter(|(_, g)| g.is_none())
        .map(|(n, _)| n)
        .collect();
    assert!(missing.iter().all(|n| n.starts_with("rc.")), "{missing:?}");
    for isa in simd_tiers() {
        for ((name, want), (_, got)) in scalar.iter().zip(under(isa, grads)) {
            let ctx = format!("d{name} on {}", isa.name());
            match (want, got) {
                (Some(want), Some(got)) => assert_bits_eq(&got, want, &ctx),
                (want, got) => assert_eq!(want.is_some(), got.is_some(), "{ctx}"),
            }
        }
    }
}

/// The fused attention node's value and every input's gradient — queries,
/// keys, values and prefix rows — per tier, at every sequence length up to
/// the 12-layer geometry's `max_seq`, 1, 2 and 4 heads, 0 and 3 prefix rows.
#[test]
fn fused_attention_bitwise_across_tiers() {
    let _g = guard();
    let cfg = ModelConfig::default();
    let mut rng = ChaCha8Rng::seed_from_u64(39);
    for n_heads in [1, 2, 4] {
        for prefix in [0, 3] {
            for n in 1..=cfg.max_seq {
                let mut random = |rows: usize| {
                    let vals: Vec<f32> = (0..rows * cfg.d_model)
                        .map(|_| rng.gen_range(-1.5f32..1.5))
                        .collect();
                    Param::new("x", matrix(rows, cfg.d_model, &vals))
                };
                let mut inputs = vec![random(n), random(n), random(n)];
                if prefix > 0 {
                    inputs.extend([random(prefix), random(prefix)]);
                }
                let w = random(n);
                let run = || {
                    let mut t = Tape::new();
                    let x: Vec<_> = inputs.iter().map(|p| t.param(p)).collect();
                    let pre = (prefix > 0).then(|| (x[3], x[4]));
                    let att = t.attention(x[0], x[1], x[2], pre, n_heads);
                    let wn = t.param(&w);
                    let y = t.mul(att, wn);
                    let row = t.mean_rows(y);
                    let ones = t.leaf(Matrix::full(cfg.d_model, 1, 1.0));
                    let loss = t.matmul(row, ones);
                    t.backward(loss);
                    let mut out = vec![t.value(att).clone()];
                    out.extend(x.iter().map(|&id| t.grad(id).unwrap().clone()));
                    out
                };
                let scalar = under(simd::Isa::Scalar, run);
                for isa in simd_tiers() {
                    for (i, (want, got)) in scalar.iter().zip(under(isa, run)).enumerate() {
                        let ctx = format!(
                            "{n} rows, {n_heads} heads, {prefix} prefix rows, output {i} on {}",
                            isa.name()
                        );
                        assert_bits_eq(&got, want, &ctx);
                    }
                }
            }
        }
    }
}

/// A product big enough to cross `PAR_MIN_FLOPS` (160³ ≈ 8.2 MFLOP): the
/// banded multi-thread path and every tier must all agree bitwise.
#[test]
fn banded_threads_and_tiers_all_agree_bitwise() {
    let _g = guard();
    let a = Matrix::from_vec(160, 160, (0..160 * 160).map(|i| (i as f32).sin()).collect());
    let b = Matrix::from_vec(160, 160, (0..160 * 160).map(|i| (i as f32).cos()).collect());
    kernels::set_num_threads(1);
    let base = under(simd::Isa::Scalar, || kernels::matmul(&a, &b));
    for threads in [1usize, 4] {
        kernels::set_num_threads(threads);
        let scalar = under(simd::Isa::Scalar, || kernels::matmul(&a, &b));
        assert_bits_eq(&scalar, &base, &format!("scalar @ {threads} threads"));
        for isa in simd_tiers() {
            let tier = under(isa, || kernels::matmul(&a, &b));
            assert_bits_eq(&tier, &base, &format!("{} @ {threads} threads", isa.name()));
        }
    }
    kernels::set_num_threads(0);
}

/// The knob parser rejects garbage with a message naming the knob and the
/// valid spellings, and never falls back.
#[test]
fn invalid_isa_values_are_rejected() {
    for bad in ["avx9000", "AVX2", "", "auto"] {
        let err = simd::parse_isa(bad).unwrap_err();
        assert!(err.contains(simd::ISA_ENV), "{err}");
        assert!(err.contains("scalar|avx2|avx512"), "{err}");
    }
    let err = simd::resolve_isa(Some("fast")).unwrap_err();
    assert!(err.contains(simd::ISA_ENV), "{err}");
}

/// Subprocess probe: only runs the kernel call when the parent test below
/// re-invokes this binary with the probe env set.
#[test]
fn probe_active_isa_under_env() {
    if std::env::var("INFUSERKI_ISA_PROBE").is_err() {
        return;
    }
    // With an invalid INFUSERKI_ISA this must panic loudly inside active_isa.
    let a = Matrix::full(2, 2, 1.0);
    let _ = kernels::matmul(&a, &a);
}

/// End-to-end loud failure: a process with `INFUSERKI_ISA=avx9000` must die
/// with a message naming the knob on its first dispatched kernel call — not
/// silently fall back to another tier.
#[test]
fn invalid_isa_env_fails_loudly_end_to_end() {
    let exe = std::env::current_exe().expect("test binary path");
    let out = std::process::Command::new(exe)
        .args([
            "--exact",
            "probe_active_isa_under_env",
            "--nocapture",
            "--test-threads=1",
        ])
        .env("INFUSERKI_ISA", "avx9000")
        .env("INFUSERKI_ISA_PROBE", "1")
        .output()
        .expect("spawn probe");
    assert!(
        !out.status.success(),
        "probe must fail under an invalid INFUSERKI_ISA"
    );
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        text.contains("INFUSERKI_ISA") && text.contains("scalar|avx2|avx512"),
        "failure must name the knob and valid values:\n{text}"
    );
}

/// Forcing a tier through the env knob (valid spelling) resolves to exactly
/// that tier — `scalar` is always legal, so this is host-independent.
#[test]
fn scalar_env_value_resolves_to_scalar() {
    assert_eq!(simd::resolve_isa(Some("scalar")), Ok(simd::Isa::Scalar));
    assert_eq!(simd::resolve_isa(Some(" scalar ")), Ok(simd::Isa::Scalar));
}
