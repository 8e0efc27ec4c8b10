//! Runtime-dispatched explicit-SIMD kernel tiers.
//!
//! The scalar/autovec kernels in [`crate::kernels`] stay the portable
//! fallback and the semantic reference; this module adds explicit
//! `std::arch` AVX2 and AVX-512 micro-kernels for the hot inner loops
//! (matmul column strips, the attention all-heads row fold, GELU, `exp`,
//! the row softmax, the binary16 narrow / widen of cached K/V rows
//! ([`crate::half`]) and the fused int8 dequant-matmul strips of
//! [`crate::quant`]), selected once per kernel call by [`active_isa`].
//!
//! # Tier selection
//!
//! Resolution order mirrors the thread knob in `kernels`:
//! [`set_isa`] override → the [`ISA_ENV`] environment variable → runtime
//! CPU-feature detection ([`detect_best`]). The env knob is strict: an
//! unknown value, or a tier the running CPU cannot execute, aborts with a
//! clear message instead of silently falling back — a mistyped
//! `INFUSERKI_ISA=axv2` must not quietly benchmark the scalar tier.
//!
//! # Bitwise contract
//!
//! Every f32 tier is **bit-for-bit identical** to the scalar tier, by
//! construction: SIMD is applied only across *independent output elements*
//! (the 16 output columns of a matmul strip, the lanes of an elementwise
//! map), never across the inner accumulation dimension. Each output element
//! keeps the exact single ascending-`p` accumulation chain the scalar
//! kernels define, with the same fused-or-not multiply-add per build
//! (see `crate::kernels::fmadd`): fused `vfmadd` intrinsics when the build
//! targets FMA, separate multiply + add intrinsics otherwise. Where an
//! operand's layout would put a chain along the lanes, the layout changes,
//! not the rule: attention keys are cached transposed so score rows lane
//! across keys, and the engine's tied LM head multiplies by a transposed
//! copy of the embedding table. Partial strips mask their unused lanes off
//! every load and store, so there is no scalar remainder path to keep in
//! step. Only `a@bᵀ` over row-major operands (the tape's LM head, backward
//! passes) runs the shared scalar path in every tier — the same chain per
//! element as the transposed-table product.
//!
//! Transcendentals follow the same discipline one level down: the vector
//! `tanh` and `exp` replicate the scalar polynomial's operation sequence lane
//! by lane — plain multiplies and adds, never fused (the scalar forms use
//! `*`/`+`, which Rust never contracts) — from constants shared verbatim
//! with `kernels`, so they are bitwise-equal to it in every build.
//!
//! Two value-level (not bit-level) caveats, both invisible to finite
//! workloads: the vectorized softmax max-scan may return the other sign of
//! zero on `±0.0` ties (the subsequent `v - max` and `exp` make the softmax
//! output bitwise identical regardless), and NaN lanes flow through the
//! vector GELU/min/max as NaN values without a payload guarantee.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Environment variable selecting the kernel instruction-set tier.
pub const ISA_ENV: &str = "INFUSERKI_ISA";

/// A kernel instruction-set tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// The portable scalar/autovec kernels (always available).
    Scalar,
    /// Explicit 256-bit `std::arch` kernels (requires AVX2 and F16C).
    Avx2,
    /// Explicit 512-bit `std::arch` kernels (requires AVX-512F + AVX2).
    Avx512,
}

impl Isa {
    /// The knob spelling of this tier (`scalar` / `avx2` / `avx512`).
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
        }
    }

    /// All tiers, strongest last.
    pub const ALL: [Isa; 3] = [Isa::Scalar, Isa::Avx2, Isa::Avx512];
}

/// Parses an [`ISA_ENV`] value. Strict: exactly `scalar`, `avx2` or
/// `avx512` (surrounding whitespace tolerated); anything else is an error
/// naming the knob and the valid spellings.
pub fn parse_isa(raw: &str) -> Result<Isa, String> {
    match raw.trim() {
        "scalar" => Ok(Isa::Scalar),
        "avx2" => Ok(Isa::Avx2),
        "avx512" => Ok(Isa::Avx512),
        other => Err(format!(
            "{ISA_ENV} must be one of scalar|avx2|avx512; got `{other}`"
        )),
    }
}

/// Whether the running CPU can execute `isa`.
pub fn supported(isa: Isa) -> bool {
    match isa {
        Isa::Scalar => true,
        // The tier's binary16 narrow / widen are F16C instructions.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("f16c")
        }
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => {
            std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx2")
        }
        #[cfg(not(target_arch = "x86_64"))]
        _ => false,
    }
}

/// The strongest tier the running CPU supports.
pub fn detect_best() -> Isa {
    if supported(Isa::Avx512) {
        Isa::Avx512
    } else if supported(Isa::Avx2) {
        Isa::Avx2
    } else {
        Isa::Scalar
    }
}

/// Resolves an optional [`ISA_ENV`] value into a tier: `None` detects the
/// best supported tier; `Some` must parse and be supported, otherwise an
/// error describes the problem (never a silent fallback). Pure function —
/// the unit-testable core of [`active_isa`]'s env resolution.
pub fn resolve_isa(raw: Option<&str>) -> Result<Isa, String> {
    match raw {
        None => Ok(detect_best()),
        Some(s) => {
            let isa = parse_isa(s)?;
            if supported(isa) {
                Ok(isa)
            } else {
                Err(format!(
                    "{ISA_ENV}={} requests the {} tier, but this CPU does not support it \
                     (best available: {})",
                    s.trim(),
                    isa.name(),
                    detect_best().name()
                ))
            }
        }
    }
}

/// Runtime tier override; 0 = unset (use env/detection).
static ISA_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

fn isa_to_code(isa: Isa) -> usize {
    match isa {
        Isa::Scalar => 1,
        Isa::Avx2 => 2,
        Isa::Avx512 => 3,
    }
}

/// Overrides the kernel tier for this process (differential tests sweep all
/// tiers available on one machine this way). `None` clears the override.
///
/// # Panics
/// Panics if the requested tier is not supported by the running CPU.
pub fn set_isa(isa: Option<Isa>) {
    match isa {
        None => ISA_OVERRIDE.store(0, Ordering::SeqCst),
        Some(isa) => {
            assert!(
                supported(isa),
                "set_isa: this CPU does not support the {} tier",
                isa.name()
            );
            ISA_OVERRIDE.store(isa_to_code(isa), Ordering::SeqCst);
        }
    }
}

/// The tier every dispatched kernel call uses right now:
/// [`set_isa`] override → [`ISA_ENV`] (strict, resolved once) →
/// [`detect_best`].
///
/// # Panics
/// Panics (on first use, with a clear message) if [`ISA_ENV`] is set to an
/// unknown value or to a tier this CPU cannot execute.
pub fn active_isa() -> Isa {
    match ISA_OVERRIDE.load(Ordering::SeqCst) {
        1 => return Isa::Scalar,
        2 => return Isa::Avx2,
        3 => return Isa::Avx512,
        _ => {}
    }
    static DEFAULT: OnceLock<Isa> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        let raw = match std::env::var(ISA_ENV) {
            Ok(v) => Some(v),
            Err(std::env::VarError::NotPresent) => None,
            Err(std::env::VarError::NotUnicode(_)) => {
                panic!("{ISA_ENV} is set to a non-UTF-8 value; expected scalar|avx2|avx512")
            }
        };
        match resolve_isa(raw.as_deref()) {
            Ok(isa) => isa,
            Err(e) => panic!("{e}"),
        }
    })
}

/// Explicit AVX2 / AVX-512 micro-kernels. Every function is `unsafe` —
/// callers must have checked the matching CPU feature (the dispatchers in
/// `kernels`/`quant` only reach these arms when [`active_isa`] says so) and
/// must uphold the pointer-range contracts documented per function.
#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    use crate::kernels::{exp_poly as ep, gelu, tanh_poly as tp, HeadFold, TileA};
    use core::arch::x86_64::*;

    /// One multiply-add chain step on 8 lanes, matching
    /// [`crate::kernels::fmadd`]'s build-level fused/unfused choice: fused
    /// `vfmadd` in FMA builds, separate multiply + add otherwise (so the
    /// AVX2 tier executed on an FMA-capable CPU under a baseline build stays
    /// bitwise equal to that build's unfused scalar chain).
    #[inline(always)]
    unsafe fn madd256(a: __m256, b: __m256, c: __m256) -> __m256 {
        #[cfg(target_feature = "fma")]
        {
            _mm256_fmadd_ps(a, b, c)
        }
        #[cfg(not(target_feature = "fma"))]
        {
            _mm256_add_ps(c, _mm256_mul_ps(a, b))
        }
    }

    /// 16-lane sibling of [`madd256`].
    #[inline(always)]
    unsafe fn madd512(a: __m512, b: __m512, c: __m512) -> __m512 {
        #[cfg(target_feature = "fma")]
        {
            _mm512_fmadd_ps(a, b, c)
        }
        #[cfg(not(target_feature = "fma"))]
        {
            _mm512_add_ps(c, _mm512_mul_ps(a, b))
        }
    }

    /// Lane mask of the first `w` of 8 lanes (all of them for `w ≥ 8`), in
    /// the sign-bit form `_mm256_maskload_ps` / `_mm256_maskstore_ps` take.
    #[inline(always)]
    unsafe fn mask256(w: usize) -> __m256i {
        _mm256_cmpgt_epi32(
            _mm256_set1_epi32(w.min(8) as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        )
    }

    /// Lane mask of the first `w` of 16 lanes (all of them for `w ≥ 16`).
    #[inline(always)]
    fn mask512(w: usize) -> __mmask16 {
        if w >= 16 {
            !0
        } else {
            (1u16 << w) - 1
        }
    }

    /// Lane masks of the `S` adjacent 16-column strips of a `w`-column pass
    /// (`16·(S-1) < w ≤ 16·S`): all lanes but for the last strip's.
    #[inline(always)]
    fn masks512<const S: usize>(w: usize) -> [__mmask16; S] {
        core::array::from_fn(|s| mask512(w - s * 16))
    }

    // ---- dense f32 matmul strips -------------------------------------------

    /// `R×w` dense strip, `1 ≤ w ≤ 16`: for `r < R`, `out[r*ostride..+w]
    /// (+)= Σ_p apack[p*R+r] · b[p*bstride..+w]`, `p` ascending through one
    /// [`madd256`] chain per output element — the exact chain of the scalar
    /// tile path, 8 columns per register, two register halves per strip.
    /// Lanes at or past `w` are masked off every load and store: they read
    /// as zero, never fault, and are never written.
    ///
    /// # Safety
    /// Requires AVX2. `apack` must hold `k*R` floats, `b` must be readable
    /// for `(k-1)*bstride + w` floats, `out` for `(R-1)*ostride + w`.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub unsafe fn strip_avx2<const R: usize>(
        apack: *const f32,
        b: *const f32,
        bstride: usize,
        k: usize,
        out: *mut f32,
        ostride: usize,
        w: usize,
        accumulate: bool,
    ) {
        // Two independent 8-wide halves keep register pressure at R
        // accumulators + operands (R=8 with a full 16-wide strip would
        // spill half the ymm file).
        for half in 0..w.div_ceil(8) {
            let mask = mask256(w - half * 8);
            let mut acc = [_mm256_setzero_ps(); R];
            let mut bp = b.add(half * 8);
            let mut ap = apack;
            for _ in 0..k {
                let bv = _mm256_maskload_ps(bp, mask);
                for (r, s) in acc.iter_mut().enumerate() {
                    *s = madd256(_mm256_set1_ps(*ap.add(r)), bv, *s);
                }
                bp = bp.add(bstride);
                ap = ap.add(R);
            }
            for (r, &s) in acc.iter().enumerate() {
                let o = out.add(r * ostride + half * 8);
                let v = if accumulate {
                    _mm256_add_ps(_mm256_maskload_ps(o, mask), s)
                } else {
                    s
                };
                _mm256_maskstore_ps(o, mask, v);
            }
        }
    }

    /// 512-bit form of [`strip_avx2`], `S` adjacent 16-column strips per pass
    /// (`S ∈ {1, 2}`, `16·(S-1) < w ≤ 16·S`; only the last strip can be
    /// partial). Per inner step `S` B loads and `R` A broadcasts feed `R·S`
    /// multiply-adds into `R·S` register accumulators: at `S = 2` every
    /// broadcast serves two chains and the 8-row tile holds 16 of the 32 zmm
    /// registers as accumulators, which turns the loop from load-bound
    /// (9 loads per 8 multiply-adds at `S = 1`) to multiply-add-bound
    /// (10 per 16). Each output element is still its own ascending-`p`
    /// [`madd512`] chain, so `S` never changes a result bit.
    ///
    /// # Safety
    /// Requires AVX-512F; same pointer contracts as [`strip_avx2`].
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,avx512f")]
    pub unsafe fn strip_avx512<const R: usize, const S: usize>(
        a: TileA,
        b: *const f32,
        bstride: usize,
        k: usize,
        out: *mut f32,
        ostride: usize,
        w: usize,
        accumulate: bool,
    ) {
        let masks = masks512::<S>(w);
        let mut acc = [[_mm512_setzero_ps(); S]; R];
        let mut bp = b;
        let mut ap = a.ptr;
        for _ in 0..k {
            let mut bv = [_mm512_setzero_ps(); S];
            for (s, v) in bv.iter_mut().enumerate() {
                *v = _mm512_maskz_loadu_ps(masks[s], bp.add(s * 16));
            }
            for (r, row) in acc.iter_mut().enumerate() {
                let av = _mm512_set1_ps(*ap.add(r * a.rs));
                for (c, &v) in row.iter_mut().zip(&bv) {
                    *c = madd512(av, v, *c);
                }
            }
            bp = bp.add(bstride);
            ap = ap.add(a.ps);
        }
        store_strips512(&acc, &masks, out, ostride, accumulate);
    }

    /// Writes (or adds into) `out` the `R×S` accumulators of a 512-bit strip
    /// pass: row `r`, strip `s` at `out[r*ostride + 16*s..]` under `masks[s]`.
    #[inline(always)]
    unsafe fn store_strips512<const R: usize, const S: usize>(
        acc: &[[__m512; S]; R],
        masks: &[__mmask16; S],
        out: *mut f32,
        ostride: usize,
        accumulate: bool,
    ) {
        for (r, row) in acc.iter().enumerate() {
            for (s, (&c, &mask)) in row.iter().zip(masks).enumerate() {
                let o = out.add(r * ostride + s * 16);
                let v = if accumulate {
                    _mm512_add_ps(_mm512_maskz_loadu_ps(mask, o), c)
                } else {
                    c
                };
                _mm512_mask_storeu_ps(o, mask, v);
            }
        }
    }

    // ---- fused int8 dequant-matmul strips ----------------------------------

    /// The first `w` (of at most `N`) quantized bytes at `q`, zero-padded to
    /// `N`. A full load reads `q` directly; a partial one goes through a
    /// stack copy, so no byte past `q + w` is touched (the last strip of the
    /// last weight row ends at the end of the buffer).
    #[inline(always)]
    unsafe fn load_q<const N: usize>(q: *const i8, w: usize) -> [i8; N] {
        if w >= N {
            return core::ptr::read_unaligned(q as *const [i8; N]);
        }
        let mut buf = [0i8; N];
        core::ptr::copy_nonoverlapping(q, buf.as_mut_ptr(), w);
        buf
    }

    /// [`strip_avx2`] over an int8 B strip: per inner step the `w` quantized
    /// bytes `q[p*qstride..+w]` dequantize in registers as
    /// `q as f32 * scales[p*sstride]` (sign-extend → exact i32→f32 convert →
    /// multiply — the identical arithmetic of scalar dequantization) before
    /// extending the same per-element chains. The caller guarantees the
    /// strip lies inside one quantization block per row, so one scale covers
    /// the whole strip width.
    ///
    /// # Safety
    /// Requires AVX2. `q` readable for `(k-1)*qstride + w` bytes, `scales`
    /// for `(k-1)*sstride + 1` floats; `apack`/`out` as [`strip_avx2`].
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub unsafe fn qstrip_avx2<const R: usize>(
        apack: *const f32,
        q: *const i8,
        qstride: usize,
        scales: *const f32,
        sstride: usize,
        k: usize,
        out: *mut f32,
        ostride: usize,
        w: usize,
        accumulate: bool,
    ) {
        for half in 0..w.div_ceil(8) {
            let hw = w - half * 8;
            let mask = mask256(hw);
            let mut acc = [_mm256_setzero_ps(); R];
            let mut qp = q.add(half * 8);
            let mut sp = scales;
            let mut ap = apack;
            for _ in 0..k {
                let qb = load_q::<8>(qp, hw);
                let qi = _mm_loadl_epi64(qb.as_ptr() as *const __m128i);
                let qf = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(qi));
                let bv = _mm256_mul_ps(qf, _mm256_set1_ps(*sp));
                for (r, s) in acc.iter_mut().enumerate() {
                    *s = madd256(_mm256_set1_ps(*ap.add(r)), bv, *s);
                }
                qp = qp.add(qstride);
                sp = sp.add(sstride);
                ap = ap.add(R);
            }
            for (r, &s) in acc.iter().enumerate() {
                let o = out.add(r * ostride + half * 8);
                let v = if accumulate {
                    _mm256_add_ps(_mm256_maskload_ps(o, mask), s)
                } else {
                    s
                };
                _mm256_maskstore_ps(o, mask, v);
            }
        }
    }

    /// 512-bit form of [`qstrip_avx2`], `S` adjacent strips per pass as
    /// [`strip_avx512`] (`16·(S-1) < w ≤ 16·S`, the whole pass inside one
    /// quantization block per row, so one scale broadcast serves every strip).
    ///
    /// # Safety
    /// Requires AVX-512F; same pointer contracts as [`qstrip_avx2`].
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,avx512f")]
    pub unsafe fn qstrip_avx512<const R: usize, const S: usize>(
        a: TileA,
        q: *const i8,
        qstride: usize,
        scales: *const f32,
        sstride: usize,
        k: usize,
        out: *mut f32,
        ostride: usize,
        w: usize,
        accumulate: bool,
    ) {
        let masks = masks512::<S>(w);
        let mut acc = [[_mm512_setzero_ps(); S]; R];
        let mut qp = q;
        let mut sp = scales;
        let mut ap = a.ptr;
        for _ in 0..k {
            let scale = _mm512_set1_ps(*sp);
            let mut bv = [_mm512_setzero_ps(); S];
            for (s, v) in bv.iter_mut().enumerate() {
                let qb = load_q::<16>(qp.add(s * 16), w - s * 16);
                let qi = _mm_loadu_si128(qb.as_ptr() as *const __m128i);
                *v = _mm512_mul_ps(_mm512_cvtepi32_ps(_mm512_cvtepi8_epi32(qi)), scale);
            }
            for (r, row) in acc.iter_mut().enumerate() {
                let av = _mm512_set1_ps(*ap.add(r * a.rs));
                for (c, &v) in row.iter_mut().zip(&bv) {
                    *c = madd512(av, v, *c);
                }
            }
            qp = qp.add(qstride);
            sp = sp.add(sstride);
            ap = ap.add(a.ps);
        }
        store_strips512(&acc, &masks, out, ostride, accumulate);
    }

    // ---- attention all-heads row fold ---------------------------------------

    /// `H` heads' row folds of one query row, side by side: for `h < H`,
    /// `out[h·o_head..+w] (+)= Σ_p a[h·a_head + p] · b[h·b_head + p·b_stride..+w]`,
    /// `p` ascending. Each 8-column chunk holds every head's output columns
    /// in registers across the whole fold — each lane one independent chain
    /// (continued from the prior `out` value when `accumulate`), the `H`
    /// heads' chains interleaved to hide the multiply-add latency; the last
    /// chunk masks the lanes at or past `w` off every load and store.
    #[inline(always)]
    unsafe fn fold_group256<const H: usize>(
        a: *const f32,
        b: *const f32,
        out: *mut f32,
        g: &HeadFold,
    ) {
        for c in (0..g.w).step_by(8) {
            let mask = mask256(g.w - c);
            let mut acc = [_mm256_setzero_ps(); H];
            if g.accumulate {
                for (h, s) in acc.iter_mut().enumerate() {
                    *s = _mm256_maskload_ps(out.add(h * g.o_head + c), mask);
                }
            }
            for p in 0..g.seg {
                let bp = b.add(p * g.b_stride + c);
                for (h, s) in acc.iter_mut().enumerate() {
                    *s = madd256(
                        _mm256_set1_ps(*a.add(h * g.a_head + p)),
                        _mm256_maskload_ps(bp.add(h * g.b_head), mask),
                        *s,
                    );
                }
            }
            for (h, &s) in acc.iter().enumerate() {
                _mm256_maskstore_ps(out.add(h * g.o_head + c), mask, s);
            }
        }
    }

    /// 16-lane sibling of [`fold_group256`].
    #[inline(always)]
    unsafe fn fold_group512<const H: usize>(
        a: *const f32,
        b: *const f32,
        out: *mut f32,
        g: &HeadFold,
    ) {
        for c in (0..g.w).step_by(16) {
            let mask = mask512(g.w - c);
            let mut acc = [_mm512_setzero_ps(); H];
            if g.accumulate {
                for (h, s) in acc.iter_mut().enumerate() {
                    *s = _mm512_maskz_loadu_ps(mask, out.add(h * g.o_head + c));
                }
            }
            for p in 0..g.seg {
                let bp = b.add(p * g.b_stride + c);
                for (h, s) in acc.iter_mut().enumerate() {
                    *s = madd512(
                        _mm512_set1_ps(*a.add(h * g.a_head + p)),
                        _mm512_maskz_loadu_ps(mask, bp.add(h * g.b_head)),
                        *s,
                    );
                }
            }
            for (h, &s) in acc.iter().enumerate() {
                _mm512_mask_storeu_ps(out.add(h * g.o_head + c), mask, s);
            }
        }
    }

    /// The all-heads attention row fold ([`crate::kernels::fold_heads`]):
    /// every (query row, head) of one panel, heads four at a time. Serves
    /// both halves of attention: scores·V (`a` score rows, `b` a V block) and
    /// Q·Kᵀ (`a` query rows' head windows, `b` a transposed K panel).
    ///
    /// # Safety
    /// Requires AVX2. `a`, `b` and `out` point at the fold's `a0`/`b0`/`o0`
    /// origins; from there `a` must be readable for
    /// `(rows-1)·a_row + (heads-1)·a_head + seg` floats, `b` (when
    /// `seg > 0`) for `(heads-1)·b_head + (seg-1)·b_stride + w`, and `out`
    /// writable for `(rows-1)·o_row + (heads-1)·o_head + w`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn fold_heads_avx2(a: *const f32, b: *const f32, out: *mut f32, g: &HeadFold) {
        for i in 0..g.rows {
            for h in (0..g.heads).step_by(4) {
                let a = a.add(i * g.a_row + h * g.a_head);
                let b = b.add(h * g.b_head);
                let out = out.add(i * g.o_row + h * g.o_head);
                match g.heads - h {
                    1 => fold_group256::<1>(a, b, out, g),
                    2 => fold_group256::<2>(a, b, out, g),
                    3 => fold_group256::<3>(a, b, out, g),
                    _ => fold_group256::<4>(a, b, out, g),
                }
            }
        }
    }

    /// 512-bit form of [`fold_heads_avx2`]: 16-column chunks.
    ///
    /// # Safety
    /// Requires AVX-512F; same pointer contracts as [`fold_heads_avx2`].
    #[target_feature(enable = "avx2,avx512f")]
    pub unsafe fn fold_heads_avx512(a: *const f32, b: *const f32, out: *mut f32, g: &HeadFold) {
        for i in 0..g.rows {
            for h in (0..g.heads).step_by(4) {
                let a = a.add(i * g.a_row + h * g.a_head);
                let b = b.add(h * g.b_head);
                let out = out.add(i * g.o_row + h * g.o_head);
                match g.heads - h {
                    1 => fold_group512::<1>(a, b, out, g),
                    2 => fold_group512::<2>(a, b, out, g),
                    3 => fold_group512::<3>(a, b, out, g),
                    _ => fold_group512::<4>(a, b, out, g),
                }
            }
        }
    }

    // ---- binary16 narrow / widen --------------------------------------------

    /// [`crate::half::narrow`] on F16C: 8 lanes per `vcvtps2ph`, rounding to
    /// nearest even. The last partial chunk is a masked load and a store
    /// through a stack copy, so no element past either slice is touched.
    ///
    /// # Safety
    /// Requires AVX2 and F16C. `src` and `dst` must have equal lengths.
    #[target_feature(enable = "avx2,f16c")]
    pub unsafe fn narrow_avx2(src: &[f32], dst: &mut [u16]) {
        let n = src.len();
        let (sp, dp) = (src.as_ptr(), dst.as_mut_ptr());
        let mut i = 0;
        while i + 8 <= n {
            let h = _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(_mm256_loadu_ps(sp.add(i)));
            _mm_storeu_si128(dp.add(i) as *mut __m128i, h);
            i += 8;
        }
        if i < n {
            let x = _mm256_maskload_ps(sp.add(i), mask256(n - i));
            let mut buf = [0u16; 8];
            let h = _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(x);
            _mm_storeu_si128(buf.as_mut_ptr() as *mut __m128i, h);
            dst[i..].copy_from_slice(&buf[..n - i]);
        }
    }

    /// [`crate::half::widen`] on F16C: 8 lanes per `vcvtph2ps`; the last
    /// partial chunk loads through a stack copy and stores masked.
    ///
    /// # Safety
    /// Requires AVX2 and F16C. `src` and `dst` must have equal lengths.
    #[target_feature(enable = "avx2,f16c")]
    pub unsafe fn widen_avx2(src: &[u16], dst: &mut [f32]) {
        let n = src.len();
        let (sp, dp) = (src.as_ptr(), dst.as_mut_ptr());
        let mut i = 0;
        while i + 8 <= n {
            let x = _mm256_cvtph_ps(_mm_loadu_si128(sp.add(i) as *const __m128i));
            _mm256_storeu_ps(dp.add(i), x);
            i += 8;
        }
        if i < n {
            let mut buf = [0u16; 8];
            buf[..n - i].copy_from_slice(&src[i..]);
            let x = _mm256_cvtph_ps(_mm_loadu_si128(buf.as_ptr() as *const __m128i));
            _mm256_maskstore_ps(dp.add(i), mask256(n - i), x);
        }
    }

    /// 16-lane form of [`narrow_avx2`].
    ///
    /// # Safety
    /// Requires AVX-512F. `src` and `dst` must have equal lengths.
    #[target_feature(enable = "avx2,avx512f")]
    pub unsafe fn narrow_avx512(src: &[f32], dst: &mut [u16]) {
        let n = src.len();
        let (sp, dp) = (src.as_ptr(), dst.as_mut_ptr());
        let mut i = 0;
        while i + 16 <= n {
            let h = _mm512_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(_mm512_loadu_ps(sp.add(i)));
            _mm256_storeu_si256(dp.add(i) as *mut __m256i, h);
            i += 16;
        }
        if i < n {
            let x = _mm512_maskz_loadu_ps(mask512(n - i), sp.add(i));
            let mut buf = [0u16; 16];
            let h = _mm512_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(x);
            _mm256_storeu_si256(buf.as_mut_ptr() as *mut __m256i, h);
            dst[i..].copy_from_slice(&buf[..n - i]);
        }
    }

    /// 16-lane form of [`widen_avx2`].
    ///
    /// # Safety
    /// Requires AVX-512F. `src` and `dst` must have equal lengths.
    #[target_feature(enable = "avx2,avx512f")]
    pub unsafe fn widen_avx512(src: &[u16], dst: &mut [f32]) {
        let n = src.len();
        let (sp, dp) = (src.as_ptr(), dst.as_mut_ptr());
        let mut i = 0;
        while i + 16 <= n {
            let x = _mm512_cvtph_ps(_mm256_loadu_si256(sp.add(i) as *const __m256i));
            _mm512_storeu_ps(dp.add(i), x);
            i += 16;
        }
        if i < n {
            let mut buf = [0u16; 16];
            buf[..n - i].copy_from_slice(&src[i..]);
            let x = _mm512_cvtph_ps(_mm256_loadu_si256(buf.as_ptr() as *const __m256i));
            _mm512_mask_storeu_ps(dp.add(i), mask512(n - i), x);
        }
    }

    // ---- elementwise tanh and GELU ---------------------------------------

    /// 8-lane [`crate::kernels::tanh_fast`]: the identical clamp and
    /// mul/add-ordered rational polynomial, deliberately *never* fused —
    /// the scalar form uses plain `*`/`+`, which Rust never contracts, so a
    /// fused vector variant would diverge bitwise in FMA builds.
    #[inline(always)]
    unsafe fn tanh_fast256(x: __m256) -> __m256 {
        // NaN lanes: `_mm256_min_ps(x, c)` returns `c` when `x` is NaN, so
        // they leave the clamp finite; the caller restores NaN.
        let x = _mm256_max_ps(
            _mm256_min_ps(x, _mm256_set1_ps(tp::CLAMP)),
            _mm256_set1_ps(-tp::CLAMP),
        );
        let x2 = _mm256_mul_ps(x, x);
        let mut p = _mm256_set1_ps(tp::A13);
        for &a in &[tp::A11, tp::A9, tp::A7, tp::A5, tp::A3, tp::A1] {
            p = _mm256_add_ps(_mm256_mul_ps(p, x2), _mm256_set1_ps(a));
        }
        let p = _mm256_mul_ps(p, x);
        let mut q = _mm256_set1_ps(tp::B6);
        for &b in &[tp::B4, tp::B2, tp::B0] {
            q = _mm256_add_ps(_mm256_mul_ps(q, x2), _mm256_set1_ps(b));
        }
        _mm256_div_ps(p, q)
    }

    /// 16-lane sibling of [`tanh_fast256`].
    #[inline(always)]
    unsafe fn tanh_fast512(x: __m512) -> __m512 {
        let x = _mm512_max_ps(
            _mm512_min_ps(x, _mm512_set1_ps(tp::CLAMP)),
            _mm512_set1_ps(-tp::CLAMP),
        );
        let x2 = _mm512_mul_ps(x, x);
        let mut p = _mm512_set1_ps(tp::A13);
        for &a in &[tp::A11, tp::A9, tp::A7, tp::A5, tp::A3, tp::A1] {
            p = _mm512_add_ps(_mm512_mul_ps(p, x2), _mm512_set1_ps(a));
        }
        let p = _mm512_mul_ps(p, x);
        let mut q = _mm512_set1_ps(tp::B6);
        for &b in &[tp::B4, tp::B2, tp::B0] {
            q = _mm512_add_ps(_mm512_mul_ps(q, x2), _mm512_set1_ps(b));
        }
        _mm512_div_ps(p, q)
    }

    /// In-place GELU over a slice, 8 lanes at a time — operation-for-
    /// operation the scalar [`crate::kernels::gelu`] (multiplies
    /// left-associated, plain mul/add, division exact), so finite inputs map
    /// to bitwise-identical outputs. NaN lanes are blended back to NaN.
    ///
    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn gelu_slice_avx2(xs: &mut [f32]) {
        let n = xs.len();
        let ptr = xs.as_mut_ptr();
        let c = _mm256_set1_ps(tp::GELU_C);
        let k3 = _mm256_set1_ps(tp::GELU_K);
        let half = _mm256_set1_ps(0.5);
        let one = _mm256_set1_ps(1.0);
        let mut i = 0;
        while i + 8 <= n {
            let v = _mm256_loadu_ps(ptr.add(i));
            // u = C * (v + K * v * v * v), multiplies left-associated.
            let t = _mm256_mul_ps(_mm256_mul_ps(_mm256_mul_ps(k3, v), v), v);
            let u = _mm256_mul_ps(c, _mm256_add_ps(v, t));
            let th = tanh_fast256(u);
            let r = _mm256_mul_ps(_mm256_mul_ps(half, v), _mm256_add_ps(one, th));
            let nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(v, v);
            let r = _mm256_blendv_ps(r, v, nan);
            _mm256_storeu_ps(ptr.add(i), r);
            i += 8;
        }
        for x in &mut xs[i..] {
            *x = gelu(*x);
        }
    }

    /// 16-lane form of [`gelu_slice_avx2`].
    ///
    /// # Safety
    /// Requires AVX-512F.
    #[target_feature(enable = "avx2,avx512f")]
    pub unsafe fn gelu_slice_avx512(xs: &mut [f32]) {
        let n = xs.len();
        let ptr = xs.as_mut_ptr();
        let c = _mm512_set1_ps(tp::GELU_C);
        let k3 = _mm512_set1_ps(tp::GELU_K);
        let half = _mm512_set1_ps(0.5);
        let one = _mm512_set1_ps(1.0);
        let mut i = 0;
        while i + 16 <= n {
            let v = _mm512_loadu_ps(ptr.add(i));
            let t = _mm512_mul_ps(_mm512_mul_ps(_mm512_mul_ps(k3, v), v), v);
            let u = _mm512_mul_ps(c, _mm512_add_ps(v, t));
            let th = tanh_fast512(u);
            let r = _mm512_mul_ps(_mm512_mul_ps(half, v), _mm512_add_ps(one, th));
            let nan = _mm512_cmp_ps_mask::<_CMP_UNORD_Q>(v, v);
            let r = _mm512_mask_blend_ps(nan, r, v);
            _mm512_storeu_ps(ptr.add(i), r);
            i += 16;
        }
        for x in &mut xs[i..] {
            *x = gelu(*x);
        }
    }

    /// In-place [`crate::kernels::tanh_fast`] over a slice, 8 lanes at a
    /// time; the last chunk masks its unused lanes off the load and the
    /// store. NaN lanes (which [`tanh_fast256`]'s clamp makes finite) are
    /// blended back to the input.
    ///
    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn tanh_slice_avx2(xs: &mut [f32]) {
        let n = xs.len();
        let ptr = xs.as_mut_ptr();
        for c in (0..n).step_by(8) {
            let mask = mask256(n - c);
            let v = _mm256_maskload_ps(ptr.add(c), mask);
            let nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(v, v);
            let t = _mm256_blendv_ps(tanh_fast256(v), v, nan);
            _mm256_maskstore_ps(ptr.add(c), mask, t);
        }
    }

    /// 16-lane form of [`tanh_slice_avx2`].
    ///
    /// # Safety
    /// Requires AVX-512F.
    #[target_feature(enable = "avx2,avx512f")]
    pub unsafe fn tanh_slice_avx512(xs: &mut [f32]) {
        let n = xs.len();
        let ptr = xs.as_mut_ptr();
        for c in (0..n).step_by(16) {
            let mask = mask512(n - c);
            let v = _mm512_maskz_loadu_ps(mask, ptr.add(c));
            let nan = _mm512_cmp_ps_mask::<_CMP_UNORD_Q>(v, v);
            let t = _mm512_mask_blend_ps(nan, tanh_fast512(v), v);
            _mm512_mask_storeu_ps(ptr.add(c), mask, t);
        }
    }

    // ---- elementwise exp ---------------------------------------------------

    /// 8-lane [`crate::kernels::exp_fast`]: the identical clamps, magic-number
    /// rounding, Cody–Waite reduction, Horner polynomial and two-step
    /// exponent-bit scale, operation for operation and never fused.
    #[inline(always)]
    unsafe fn exp_fast256(x: __m256) -> __m256 {
        // `min`/`max` return their second operand when either is NaN, so
        // with `x` second NaN lanes fall through both clamps, as the scalar
        // comparisons let them.
        let x = _mm256_min_ps(_mm256_set1_ps(ep::HI), x);
        let x = _mm256_max_ps(_mm256_set1_ps(ep::LO), x);
        let round = _mm256_set1_ps(ep::ROUND);
        let t = _mm256_add_ps(_mm256_mul_ps(x, _mm256_set1_ps(ep::LOG2E)), round);
        let m = _mm256_sub_ps(t, round);
        let n = _mm256_sub_epi32(_mm256_castps_si256(t), _mm256_castps_si256(round));
        let r = _mm256_sub_ps(
            _mm256_sub_ps(x, _mm256_mul_ps(m, _mm256_set1_ps(ep::LN2_HI))),
            _mm256_mul_ps(m, _mm256_set1_ps(ep::LN2_LO)),
        );
        let mut y = _mm256_set1_ps(ep::P[0]);
        for &c in &ep::P[1..] {
            y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(c));
        }
        let y = _mm256_add_ps(
            _mm256_add_ps(_mm256_mul_ps(y, _mm256_mul_ps(r, r)), r),
            _mm256_set1_ps(1.0),
        );
        let n1 = _mm256_srai_epi32::<1>(n);
        let bias = _mm256_set1_epi32(127);
        let pow2 = |k| _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(k, bias)));
        _mm256_mul_ps(_mm256_mul_ps(y, pow2(n1)), pow2(_mm256_sub_epi32(n, n1)))
    }

    /// 16-lane sibling of [`exp_fast256`].
    #[inline(always)]
    unsafe fn exp_fast512(x: __m512) -> __m512 {
        let x = _mm512_min_ps(_mm512_set1_ps(ep::HI), x);
        let x = _mm512_max_ps(_mm512_set1_ps(ep::LO), x);
        let round = _mm512_set1_ps(ep::ROUND);
        let t = _mm512_add_ps(_mm512_mul_ps(x, _mm512_set1_ps(ep::LOG2E)), round);
        let m = _mm512_sub_ps(t, round);
        let n = _mm512_sub_epi32(_mm512_castps_si512(t), _mm512_castps_si512(round));
        let r = _mm512_sub_ps(
            _mm512_sub_ps(x, _mm512_mul_ps(m, _mm512_set1_ps(ep::LN2_HI))),
            _mm512_mul_ps(m, _mm512_set1_ps(ep::LN2_LO)),
        );
        let mut y = _mm512_set1_ps(ep::P[0]);
        for &c in &ep::P[1..] {
            y = _mm512_add_ps(_mm512_mul_ps(y, r), _mm512_set1_ps(c));
        }
        let y = _mm512_add_ps(
            _mm512_add_ps(_mm512_mul_ps(y, _mm512_mul_ps(r, r)), r),
            _mm512_set1_ps(1.0),
        );
        let n1 = _mm512_srai_epi32::<1>(n);
        let bias = _mm512_set1_epi32(127);
        let pow2 = |k| _mm512_castsi512_ps(_mm512_slli_epi32::<23>(_mm512_add_epi32(k, bias)));
        _mm512_mul_ps(_mm512_mul_ps(y, pow2(n1)), pow2(_mm512_sub_epi32(n, n1)))
    }

    /// `xs[i] = exp_fast(xs[i] · scale - shift)`, 8 lanes at a time; the last
    /// chunk masks its unused lanes off the load and the store.
    ///
    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn exp_scaled_slice_avx2(xs: &mut [f32], scale: f32, shift: f32) {
        let n = xs.len();
        let ptr = xs.as_mut_ptr();
        let (scale, shift) = (_mm256_set1_ps(scale), _mm256_set1_ps(shift));
        for c in (0..n).step_by(8) {
            let mask = mask256(n - c);
            let v = _mm256_maskload_ps(ptr.add(c), mask);
            let e = exp_fast256(_mm256_sub_ps(_mm256_mul_ps(v, scale), shift));
            _mm256_maskstore_ps(ptr.add(c), mask, e);
        }
    }

    /// 16-lane form of [`exp_scaled_slice_avx2`].
    ///
    /// # Safety
    /// Requires AVX-512F.
    #[target_feature(enable = "avx2,avx512f")]
    pub unsafe fn exp_scaled_slice_avx512(xs: &mut [f32], scale: f32, shift: f32) {
        let n = xs.len();
        let ptr = xs.as_mut_ptr();
        let (scale, shift) = (_mm512_set1_ps(scale), _mm512_set1_ps(shift));
        for c in (0..n).step_by(16) {
            let mask = mask512(n - c);
            let v = _mm512_maskz_loadu_ps(mask, ptr.add(c));
            let e = exp_fast512(_mm512_sub_ps(_mm512_mul_ps(v, scale), shift));
            _mm512_mask_storeu_ps(ptr.add(c), mask, e);
        }
    }

    // ---- row softmax ---------------------------------------------------------

    /// Max of the 8 lanes, by halving — the same *value* as any other fold
    /// order (the sign of a `±0.0` winner aside).
    #[inline(always)]
    unsafe fn reduce_max256(v: __m256) -> f32 {
        let m = _mm_max_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps::<1>(v));
        let m = _mm_max_ps(m, _mm_movehl_ps(m, m));
        _mm_cvtss_f32(_mm_max_ss(m, _mm_shuffle_ps::<1>(m, m)))
    }

    /// Sums of `G` equal-length rows, each one ascending chain from `0.0`,
    /// advanced side by side so the adds of different rows overlap.
    #[inline(always)]
    fn row_sums<const G: usize>(rows: &[f32], stride: usize, len: usize) -> [f32; G] {
        let rows: [&[f32]; G] = std::array::from_fn(|g| &rows[g * stride..g * stride + len]);
        let mut sums = [0.0f32; G];
        for j in 0..len {
            for (s, row) in sums.iter_mut().zip(&rows) {
                *s += row[j];
            }
        }
        sums
    }

    /// Softmax of `scale · row[..valid]` for `G` rows `stride` apart, zeros
    /// over the tails: [`crate::kernels::softmax_rows_span`]'s per-row
    /// sequence with the `G` rows' max scans, `exp` passes, sum chains
    /// ([`row_sums`], scalar and ascending as in every tier) and scale passes
    /// side by side. Lanes at or past `valid` are masked off every load and
    /// store.
    #[inline(always)]
    unsafe fn softmax_group256<const G: usize>(
        rows: &mut [f32],
        stride: usize,
        valid: usize,
        scale: f32,
    ) {
        let p = rows.as_mut_ptr();
        let ninf = _mm256_set1_ps(f32::NEG_INFINITY);
        let mut maxv = [ninf; G];
        for c in (0..valid).step_by(8) {
            let mask = mask256(valid - c);
            for (g, m) in maxv.iter_mut().enumerate() {
                let v = _mm256_maskload_ps(p.add(g * stride + c), mask);
                *m = _mm256_max_ps(*m, _mm256_blendv_ps(ninf, v, _mm256_castsi256_ps(mask)));
            }
        }
        let scale_v = _mm256_set1_ps(scale);
        let shift = maxv.map(|m| _mm256_set1_ps(reduce_max256(m) * scale));
        for c in (0..valid).step_by(8) {
            let mask = mask256(valid - c);
            for (g, &shift) in shift.iter().enumerate() {
                let v = _mm256_maskload_ps(p.add(g * stride + c), mask);
                let e = exp_fast256(_mm256_sub_ps(_mm256_mul_ps(v, scale_v), shift));
                _mm256_maskstore_ps(p.add(g * stride + c), mask, e);
            }
        }
        for g in 0..G {
            rows[g * stride + valid..(g + 1) * stride].fill(0.0);
        }
        let sums = row_sums::<G>(rows, stride, valid);
        let p = rows.as_mut_ptr();
        for (g, &sum) in sums.iter().enumerate() {
            let inv = _mm256_set1_ps(1.0 / sum);
            for c in (0..valid).step_by(8) {
                let mask = mask256(valid - c);
                let v = _mm256_maskload_ps(p.add(g * stride + c), mask);
                _mm256_maskstore_ps(p.add(g * stride + c), mask, _mm256_mul_ps(v, inv));
            }
        }
    }

    /// 16-lane sibling of [`softmax_group256`].
    #[inline(always)]
    unsafe fn softmax_group512<const G: usize>(
        rows: &mut [f32],
        stride: usize,
        valid: usize,
        scale: f32,
    ) {
        let p = rows.as_mut_ptr();
        let mut maxv = [_mm512_set1_ps(f32::NEG_INFINITY); G];
        for c in (0..valid).step_by(16) {
            let mask = mask512(valid - c);
            for (g, m) in maxv.iter_mut().enumerate() {
                let v = _mm512_maskz_loadu_ps(mask, p.add(g * stride + c));
                *m = _mm512_mask_max_ps(*m, mask, *m, v);
            }
        }
        let scale_v = _mm512_set1_ps(scale);
        let shift = maxv.map(|m| _mm512_set1_ps(_mm512_reduce_max_ps(m) * scale));
        for c in (0..valid).step_by(16) {
            let mask = mask512(valid - c);
            for (g, &shift) in shift.iter().enumerate() {
                let v = _mm512_maskz_loadu_ps(mask, p.add(g * stride + c));
                let e = exp_fast512(_mm512_sub_ps(_mm512_mul_ps(v, scale_v), shift));
                _mm512_mask_storeu_ps(p.add(g * stride + c), mask, e);
            }
        }
        for g in 0..G {
            rows[g * stride + valid..(g + 1) * stride].fill(0.0);
        }
        let sums = row_sums::<G>(rows, stride, valid);
        let p = rows.as_mut_ptr();
        for (g, &sum) in sums.iter().enumerate() {
            let inv = _mm512_set1_ps(1.0 / sum);
            for c in (0..valid).step_by(16) {
                let mask = mask512(valid - c);
                let v = _mm512_maskz_loadu_ps(mask, p.add(g * stride + c));
                _mm512_mask_storeu_ps(p.add(g * stride + c), mask, _mm512_mul_ps(v, inv));
            }
        }
    }

    /// [`crate::kernels::softmax_rows_span`] for the AVX2 tier: rows four at
    /// a time through [`softmax_group256`].
    ///
    /// # Safety
    /// Requires AVX2. `data.len()` must be a multiple of `stride` and
    /// `0 < valid <= stride`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn softmax_rows_avx2(data: &mut [f32], stride: usize, valid: usize, scale: f32) {
        for group in data.chunks_mut(4 * stride) {
            match group.len() / stride {
                1 => softmax_group256::<1>(group, stride, valid, scale),
                2 => softmax_group256::<2>(group, stride, valid, scale),
                3 => softmax_group256::<3>(group, stride, valid, scale),
                _ => softmax_group256::<4>(group, stride, valid, scale),
            }
        }
    }

    /// 512-bit form of [`softmax_rows_avx2`].
    ///
    /// # Safety
    /// Requires AVX-512F; same slice contract as [`softmax_rows_avx2`].
    #[target_feature(enable = "avx2,avx512f")]
    pub unsafe fn softmax_rows_avx512(data: &mut [f32], stride: usize, valid: usize, scale: f32) {
        for group in data.chunks_mut(4 * stride) {
            match group.len() / stride {
                1 => softmax_group512::<1>(group, stride, valid, scale),
                2 => softmax_group512::<2>(group, stride, valid, scale),
                3 => softmax_group512::<3>(group, stride, valid, scale),
                _ => softmax_group512::<4>(group, stride, valid, scale),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_exact_tier_names() {
        assert_eq!(parse_isa("scalar"), Ok(Isa::Scalar));
        assert_eq!(parse_isa(" avx2 "), Ok(Isa::Avx2));
        assert_eq!(parse_isa("avx512"), Ok(Isa::Avx512));
    }

    #[test]
    fn parse_rejects_garbage_loudly() {
        for bad in ["", "  ", "AVX2", "axv2", "avx-512", "auto", "best", "1"] {
            let err = parse_isa(bad).unwrap_err();
            assert!(
                err.contains(ISA_ENV) && err.contains("scalar|avx2|avx512"),
                "error for {bad:?} must name the knob and valid values: {err}"
            );
        }
    }

    #[test]
    fn resolve_unset_detects_supported_tier() {
        let isa = resolve_isa(None).expect("detection never fails");
        assert!(supported(isa));
    }

    #[test]
    fn resolve_invalid_value_is_loud_not_a_fallback() {
        let err = resolve_isa(Some("turbo")).unwrap_err();
        assert!(err.contains(ISA_ENV), "{err}");
    }

    #[test]
    fn resolve_unsupported_tier_is_an_error() {
        // Whichever way detection goes on this host, both branches are
        // meaningful: a supported tier resolves to itself, an unsupported
        // one must error (not fall back).
        for isa in Isa::ALL {
            let r = resolve_isa(Some(isa.name()));
            if supported(isa) {
                assert_eq!(r, Ok(isa));
            } else {
                let err = r.unwrap_err();
                assert!(
                    err.contains(ISA_ENV) && err.contains(isa.name()),
                    "unsupported tier must fail loudly: {err}"
                );
            }
        }
    }

    #[test]
    fn scalar_is_always_supported() {
        assert!(supported(Isa::Scalar));
        let _ = detect_best(); // must not panic anywhere
    }

    #[test]
    fn set_isa_overrides_and_clears() {
        let before = active_isa();
        set_isa(Some(Isa::Scalar));
        assert_eq!(active_isa(), Isa::Scalar);
        set_isa(None);
        assert!(supported(active_isa()));
        set_isa(Some(before));
        set_isa(None);
    }

    #[test]
    #[should_panic(expected = "does not support")]
    fn set_isa_rejects_unsupported_tier() {
        // Find an unsupported tier if any; otherwise simulate the panic the
        // assert would produce so the expectation holds on maxed-out hosts.
        for isa in [Isa::Avx512, Isa::Avx2] {
            if !supported(isa) {
                set_isa(Some(isa));
            }
        }
        panic!("this CPU does not support no tier (all tiers available)");
    }
}
