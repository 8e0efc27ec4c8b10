//! Hot numeric kernels: parallel, cache-blocked matrix products plus the
//! activation/softmax primitives the rest of the workspace builds on.
//!
//! # Blocking design
//!
//! There are two products, `a@b` and `aᵀ@b`, and they share one kernel. A
//! product with a transposed right operand, `a@bᵀ`, is `a@(bᵀ)` over a
//! transposed copy: a parameter owns its transpose
//! ([`crate::Param::transposed`], built once per value), and the tape
//! transposes any other operand once, at the op. Both products are built
//! the same way:
//!
//! 1. **Row-band parallelism.** Output rows are split into contiguous,
//!    near-equal bands, one band per worker thread, run under
//!    `std::thread::scope`. Bands write disjoint `out` slices (via
//!    `split_at_mut`), so no synchronization is needed beyond the join.
//! 2. **Register tiling.** Inside a band, outputs are computed in `MR×NR`
//!    tiles (8 output rows × 16 columns, one ZMM register per row; the
//!    AVX-512 tier takes two such strips per pass, an 8×32 tile in 16 of its
//!    32 registers — see `pass_width`). Each tile's accumulators live in
//!    registers across the entire inner dimension, so per-`p` traffic is
//!    loads only — the seed kernel re-read and re-wrote the output row on
//!    every step of the inner dimension. There are no scalar edges: a row
//!    remainder is one tile of exactly its height, a column remainder one
//!    strip of exactly its width (masked lanes in the vector tiers), so a
//!    product costs the same per row whatever its row count or width.
//! 3. **Serial fast path.** Products smaller than `PAR_MIN_FLOPS` run on
//!    the calling thread even when more threads are configured: band spawn
//!    costs ~10µs, which swamps sub-millisecond products: at 64³ spawning
//!    loses, at 256³ it amortizes.
//!
//! # Determinism
//!
//! Every output element is accumulated **over the inner dimension `p` in
//! ascending order through a single accumulator chain**, in every tile
//! height, every strip width, and every band split. Consequently the blocked,
//! banded, multi-threaded result is *bit-for-bit identical* to the serial
//! result for any thread count and any tile alignment — floating-point
//! summation order never changes. (`accumulate=true` in the `_into` variants
//! adds the prior output value once, after the chain.)
//!
//! The chain's arithmetic is the `fmadd` helper: hardware fused
//! multiply-add when the build targets it (see `.cargo/config.toml`), plain
//! multiply + add otherwise. The choice is per *build*, never per call, so
//! reproducibility holds within any given binary; against the plain-chain
//! seed kernels the test suite keeps as its oracle, an FMA build agrees to
//! (tighter than) the documented `1e-4` relative tolerance.
//!
//! # Thread knob
//!
//! Worker count resolution order: [`set_num_threads`] override →
//! `INFUSERKI_THREADS` env var → `std::thread::available_parallelism()`.
//! Set either to `1` for strictly single-threaded execution; results are
//! identical either way (see above), so the knob only trades wall-clock.
//! The env knob is parsed strictly ([`parse_thread_count`]): `0`, empty and
//! non-numeric values abort with a clear error instead of silently falling
//! back, and [`env_thread_count`] is the shared helper the serving config
//! resolves the same knob through.
//!
//! # ISA tiers
//!
//! The column-strip loop of the `a@b`/`aᵀ@b` tile path, the attention
//! all-heads row fold (Q·Kᵀ and scores·V), GELU, `exp` and the row softmax
//! each dispatch through [`crate::simd::active_isa`] to an explicit AVX2 or
//! AVX-512 micro-kernel ([`crate::simd`]) when the CPU (or
//! the `INFUSERKI_ISA` knob) selects one.
//! Every f32 tier is bitwise-equal to the scalar tier — SIMD lanes only ever
//! span independent output elements, never an accumulation chain (see the
//! `simd` module docs for the proof obligations). Every `a@bᵀ` obeys the
//! rule through a layout change, so no product stays scalar in any tier:
//! K panels are stored transposed, one column per key, so a Q·Kᵀ score row
//! folds with lanes across keys exactly as a scores·V row folds with lanes
//! across value columns — one micro-kernel (`fold_heads`), which walks a
//! panel once for every head. The tied LM head, the tape's attention scores
//! and the backward's `g·bᵀ` and `g·Wᵀ` multiply by a transposed operand
//! with [`matmul_into`]. The transposed layout changes no bit: each output
//! element is the same ascending-`p` chain from `+0.0` whichever layout `b`
//! was stored in, so the engine's and the tape's LM heads agree bitwise.
//!
//! Transcendentals are polynomials, not libm calls: [`tanh_fast`] and
//! [`exp_fast`] are fixed sequences of plain multiplies, adds and bit
//! operations with constants shared verbatim with the vector tiers, so they
//! too are bitwise-equal across tiers (and across FMA / non-FMA builds — they
//! never fuse). `exp_fast` is the bit-reference for the whole row-softmax
//! family; bump [`NUMERICS_VERSION`] when any kernel changes values.

use crate::matrix::Matrix;
use crate::simd::{self, Isa};
use infuserki_obs as obs;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Version of the values these kernels produce. Bump when any kernel changes
/// values (a different polynomial, a reordered chain): everything that caches
/// results computed through them — the pre-trained base model under
/// `artifacts/` — folds it into its key, so a cached result is never reused
/// across a numerics change. 2: the softmax family's `exp` is [`exp_fast`].
/// 3: `Tape::tanh` and the infuser gate are [`tanh_fast`], not libm `tanhf`.
/// 4: attention folds K, V and prefix rows rounded through binary16, as the
/// KV cache stores them ([`crate::half`]).
pub const NUMERICS_VERSION: u32 = 4;

/// Output-row tile height of the register micro-kernel.
pub(crate) const MR: usize = 8;
/// Output-column tile width of the register micro-kernel.
pub(crate) const NR: usize = 16;

/// Products below this many FLOPs (`2·m·n·k`) stay on the calling thread.
///
/// A 64×64×192 product (~1.6 MFLOP) finishes in well under the ~10µs a
/// scoped-thread spawn costs, while 256³ (~33 MFLOP) amortizes spawning
/// comfortably. The break-even sits near a few MFLOP; 8 MFLOP adds safety
/// margin.
const PAR_MIN_FLOPS: usize = 8_000_000;

/// Runtime thread-count override; 0 = unset (use env/default).
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the kernel worker-thread count for this process.
///
/// `set_num_threads(1)` forces strictly serial execution; `0` clears the
/// override, falling back to `INFUSERKI_THREADS` / available parallelism.
pub fn set_num_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::SeqCst);
}

/// Environment variable holding the worker-thread count for the matrix
/// kernels (and, via [`env_thread_count`], the serving subsystem).
pub const THREADS_ENV: &str = "INFUSERKI_THREADS";

/// Parses a thread-count string as the [`THREADS_ENV`] knob accepts it:
/// a positive integer. `0`, empty strings and garbage are rejected with a
/// descriptive error rather than silently falling back — a mistyped knob
/// should fail loudly, not quietly run on a surprise thread count.
pub fn parse_thread_count(raw: &str) -> Result<usize, String> {
    let t = raw.trim();
    if t.is_empty() {
        return Err(format!(
            "{THREADS_ENV} is set but empty; expected a positive integer"
        ));
    }
    match t.parse::<usize>() {
        Ok(0) => Err(format!(
            "{THREADS_ENV} must be at least 1 (0 worker threads cannot run anything); got `{raw}`"
        )),
        Ok(n) => Ok(n),
        Err(_) => Err(format!(
            "{THREADS_ENV} must be a positive integer; got `{raw}`"
        )),
    }
}

/// Reads and validates the [`THREADS_ENV`] environment knob: `Ok(None)` when
/// unset, `Ok(Some(n))` for a valid positive integer, `Err` (with a clear
/// message) for anything else. The single source of truth shared by the
/// kernel thread pool and the serve config.
pub fn env_thread_count() -> Result<Option<usize>, String> {
    match std::env::var(THREADS_ENV) {
        Ok(v) => parse_thread_count(&v).map(Some),
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(_)) => Err(format!(
            "{THREADS_ENV} is set to a non-UTF-8 value; expected a positive integer"
        )),
    }
}

/// Worker threads the matrix kernels will use for large products.
///
/// # Panics
/// Panics (once, with a clear message) if [`THREADS_ENV`] is set to `0` or
/// to anything that is not a positive integer.
pub fn num_threads() -> usize {
    let o = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if o != 0 {
        return o;
    }
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| match env_thread_count() {
        Ok(Some(n)) => n,
        Ok(None) => std::thread::available_parallelism().map_or(1, |n| n.get()),
        Err(e) => panic!("{e}"),
    })
}

/// Splits `rows` output rows into `bands` contiguous near-equal ranges.
fn row_bands(rows: usize, bands: usize) -> Vec<Range<usize>> {
    let bands = bands.min(rows).max(1);
    let base = rows / bands;
    let extra = rows % bands;
    let mut out = Vec::with_capacity(bands);
    let mut start = 0;
    for b in 0..bands {
        let len = base + usize::from(b < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Worker count for a product of `flops` FLOPs over `out_rows` output rows.
fn effective_threads(flops: usize, out_rows: usize) -> usize {
    if flops < PAR_MIN_FLOPS {
        1
    } else {
        num_threads().min(out_rows).max(1)
    }
}

/// Cached handles into the global metrics registry for the dispatch path.
///
/// Resolved once (the registry's get-or-create takes a lock); after that
/// every update is a single relaxed `fetch_add`, cheap enough to keep on
/// even in the serial fast path.
struct DispatchMetrics {
    /// Dispatches that ran on the calling thread (serial fast path).
    serial: std::sync::Arc<obs::Counter>,
    /// Dispatches that spawned a banded thread scope.
    banded: std::sync::Arc<obs::Counter>,
    /// Band tasks spawned across all banded dispatches.
    band_tasks: std::sync::Arc<obs::Counter>,
    /// Σ band busy nanoseconds (only advanced while tracing is enabled).
    busy_ns: std::sync::Arc<obs::Counter>,
    /// Σ idle nanoseconds: `threads·wall − Σbusy`, the time worker slots
    /// spent waiting on the slowest band (only while tracing is enabled).
    idle_ns: std::sync::Arc<obs::Counter>,
}

fn dispatch_metrics() -> &'static DispatchMetrics {
    static M: OnceLock<DispatchMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let g = obs::global();
        DispatchMetrics {
            serial: g.counter("kernels.dispatch.serial"),
            banded: g.counter("kernels.dispatch.banded"),
            band_tasks: g.counter("kernels.band_tasks"),
            busy_ns: g.counter("kernels.band_busy_ns"),
            idle_ns: g.counter("kernels.band_idle_ns"),
        }
    })
}

/// Runs `band_fn(rows, out_band)` over row bands, threaded when worthwhile.
///
/// `out` is the full output buffer (`out_rows × n`, row-major); each band
/// receives the disjoint slice holding exactly its rows.
///
/// Dispatch counts always feed the global metrics registry (one relaxed
/// `fetch_add` per call); per-band busy/idle timing and the dispatch span
/// are gated on [`obs::enabled`] so the tracing-off path never reads the
/// clock.
pub(crate) fn run_banded<F>(out: &mut [f32], out_rows: usize, n: usize, flops: usize, band_fn: F)
where
    F: Fn(Range<usize>, &mut [f32]) + Sync,
{
    let m = dispatch_metrics();
    let threads = effective_threads(flops, out_rows);
    if threads <= 1 {
        m.serial.inc();
        band_fn(0..out_rows, out);
        return;
    }
    m.banded.inc();
    let bands = row_bands(out_rows, threads);
    m.band_tasks.add(bands.len() as u64);
    let traced = obs::enabled();
    let _sp = traced.then(|| obs::span("kernels.banded_dispatch"));
    let t0 = traced.then(std::time::Instant::now);
    let busy_ns = std::sync::atomic::AtomicU64::new(0);
    let n_bands = bands.len();
    std::thread::scope(|scope| {
        let mut rest = out;
        let band_fn = &band_fn;
        let busy_ns = &busy_ns;
        for band in bands {
            let (chunk, tail) = rest.split_at_mut(band.len() * n);
            rest = tail;
            scope.spawn(move || {
                if traced {
                    let b0 = std::time::Instant::now();
                    band_fn(band, chunk);
                    busy_ns.fetch_add(b0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                } else {
                    band_fn(band, chunk);
                }
            });
        }
    });
    if let Some(t0) = t0 {
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let busy = busy_ns.load(Ordering::Relaxed);
        m.busy_ns.add(busy);
        m.idle_ns
            .add((wall_ns * n_bands as u64).saturating_sub(busy));
    }
}

// ---- a @ b -----------------------------------------------------------------

/// `out = a @ b` where `a: [m, k]`, `b: [k, n]`.
///
/// # Panics
/// Panics if inner dimensions disagree.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul: inner dims {}x{} @ {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let mut out = Matrix::zeros(a.rows(), b.cols());
    matmul_into(a, b, &mut out, false);
    out
}

/// `out (+)= a @ b`; when `accumulate` is false `out` is overwritten.
///
/// Allocation-free: `out` must already have shape `[a.rows, b.cols]`.
pub fn matmul_into(a: &Matrix, b: &Matrix, out: &mut Matrix, accumulate: bool) {
    let (m, k) = a.shape();
    let n = b.cols();
    assert_eq!(b.rows(), k, "matmul_into: inner dims");
    assert_eq!(out.shape(), (m, n), "matmul_into: out shape");
    let flops = 2 * m * n * k;
    let (ad, bd) = (a.data(), b.data());
    let isa = simd::active_isa();
    run_banded(out.data_mut(), m, n, flops, |rows, chunk| {
        // Output row `i` reads row `i` of `a`: row stride k, entries adjacent.
        matmul_band(ad, k, 1, bd, rows, chunk, k, n, accumulate, isa);
    });
}

/// `out = aᵀ @ b` where `a: [k, m]`, `b: [k, n]`.
pub fn matmul_at(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.rows(),
        b.rows(),
        "matmul_at: inner dims ({}x{})^T @ {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let mut out = Matrix::zeros(a.cols(), b.cols());
    matmul_at_into(a, b, &mut out, false);
    out
}

/// `out (+)= aᵀ @ b`; allocation-free, `out: [a.cols, b.cols]`.
pub fn matmul_at_into(a: &Matrix, b: &Matrix, out: &mut Matrix, accumulate: bool) {
    let (k, m) = a.shape();
    let n = b.cols();
    assert_eq!(b.rows(), k, "matmul_at_into: inner dims");
    assert_eq!(out.shape(), (m, n), "matmul_at_into: out shape");
    let flops = 2 * m * n * k;
    let (ad, bd) = (a.data(), b.data());
    let isa = simd::active_isa();
    run_banded(out.data_mut(), m, n, flops, |rows, chunk| {
        // Output row `i` reads column `i` of `a`: rows adjacent, entries m apart.
        matmul_band(ad, 1, m, bd, rows, chunk, k, n, accumulate, isa);
    });
}

/// One fused-multiply-add step of an accumulation chain: `c + a·b`.
///
/// When the build targets hardware FMA (e.g. `-C target-cpu=native` via this
/// repo's `.cargo/config.toml`) this compiles to a single `vfmadd`
/// instruction; otherwise it is a plain multiply + add (`f32::mul_add`
/// without hardware support would fall back to a slow libm call). The choice
/// is fixed at compile time, so within one build every kernel path uses the
/// same chain and results stay bitwise reproducible.
#[inline(always)]
pub(crate) fn fmadd(a: f32, b: f32, c: f32) -> f32 {
    #[cfg(target_feature = "fma")]
    {
        a.mul_add(b, c)
    }
    #[cfg(not(target_feature = "fma"))]
    {
        c + a * b
    }
}

/// The A operand of one row tile as the AVX-512 strips read it, in place:
/// the value multiplying tile row `r` at inner index `p` is
/// `ptr[r·rs + p·ps]`.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
pub(crate) struct TileA {
    pub ptr: *const f32,
    pub rs: usize,
    pub ps: usize,
}

#[cfg(target_arch = "x86_64")]
impl TileA {
    /// The `R`-row tile at output row `i0` of an operand whose element
    /// `(p, i)` is `ad[i·rs + p·ps]`, with every read `r < R`, `p < k`
    /// checked to lie inside `ad` — the bound the strips' raw reads rely on.
    #[inline(always)]
    pub(crate) fn new<const R: usize>(
        ad: &[f32],
        rs: usize,
        ps: usize,
        i0: usize,
        k: usize,
    ) -> Self {
        assert!(
            k == 0 || (i0 + R - 1) * rs + (k - 1) * ps < ad.len(),
            "matmul tile: A operand out of range"
        );
        // `min`: an empty operand (`k = 0`) has no row `i0` to point at.
        let ptr = ad[(i0 * rs).min(ad.len())..].as_ptr();
        TileA { ptr, rs, ps }
    }
}

/// The packing scratch a band of inner size `k` needs on the `isa` tier:
/// `O(k·MR)`, reused across the band's row tiles; empty on the AVX-512 tier,
/// which reads A in place (see [`tile_rows`]).
#[inline(always)]
pub(crate) fn pack_scratch(k: usize, isa: Isa) -> Vec<f32> {
    vec![0.0; if isa == Isa::Avx512 { 0 } else { k * MR }]
}

/// Packs the `R`-row tile at output row `i0` of an operand whose element
/// `(p, i)` is `ad[i·rs + p·ps]` into the first `k·R` floats of `apack`, at
/// `[p][r]`, and returns that slice.
#[inline(always)]
pub(crate) fn pack_a<'a, const R: usize>(
    ad: &[f32],
    rs: usize,
    ps: usize,
    i0: usize,
    k: usize,
    apack: &'a mut [f32],
) -> &'a [f32] {
    let apack = &mut apack[..k * R];
    for (p, ap) in apack.chunks_exact_mut(R).enumerate() {
        for (r, slot) in ap.iter_mut().enumerate() {
            *slot = ad[(i0 + r) * rs + p * ps];
        }
    }
    apack
}

/// Shared banded kernel for `a@b` and `aᵀ@b`; element `(p, i)` of the A
/// operand is `ad[i·a_rs + p·a_ps]`.
///
/// Computes `chunk[i - rows.start][j] (+)= Σ_p A(p, i) · b[p][j]` for
/// `i ∈ rows`, `j ∈ 0..n`, `p` ascending: register tiles of `MR` rows (the
/// last one exactly as tall as the row remainder) by up to
/// [`pass_width`] columns, with the column-strip inner loop dispatched to the
/// `isa` tier. There is no other path: row and column remainders are narrower
/// tiles of the same kernel.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn matmul_band(
    ad: &[f32],
    a_rs: usize,
    a_ps: usize,
    bd: &[f32],
    rows: Range<usize>,
    chunk: &mut [f32],
    k: usize,
    n: usize,
    accumulate: bool,
    isa: Isa,
) {
    let mb = rows.len();
    let mut apack = pack_scratch(k, isa);
    let mut ib = 0;
    macro_rules! tile {
        ($r:expr) => {
            tile_rows::<{ $r }>(
                ad, a_rs, a_ps, bd, rows.start, ib, chunk, k, n, accumulate, &mut apack, isa,
            )
        };
    }
    while mb - ib >= MR {
        tile!(MR);
        ib += MR;
    }
    // The remainder is one tile of exactly its height, not a 4/2/1 ladder:
    // a tile's time is set by the k-long dependent chain of each strip, not
    // by how many rows ride along, so every extra pass over the strips would
    // cost as much as a full MR tile. A one-lane decode step is the `1` arm.
    match mb - ib {
        0 => {}
        1 => tile!(1),
        2 => tile!(2),
        3 => tile!(3),
        4 => tile!(4),
        5 => tile!(5),
        6 => tile!(6),
        7 => tile!(7),
        _ => unreachable!("row remainder is below MR"),
    }
}

/// Output columns one strip pass of the `isa` tier covers: two `NR` strips
/// on the AVX-512 tier, whose 32 registers hold an `MR×2·NR` accumulator
/// tile with room for the operands, one strip everywhere else (AVX2's 16
/// registers already split an `MR×NR` strip into two halves; the scalar
/// tier's `[f32; NR]` loops are what the auto-vectorizer keeps in registers).
#[inline(always)]
pub(crate) fn pass_width(isa: Isa) -> usize {
    match isa {
        Isa::Avx512 => 2 * NR,
        Isa::Avx2 | Isa::Scalar => NR,
    }
}

/// One `R`-row block of [`matmul_band`]: sweeps the output columns in passes
/// of [`pass_width`] columns with register accumulators; the last pass is as
/// wide as what is left (all of a product narrower than one pass). Per
/// output element the accumulation is the same single ascending-`p`
/// [`fmadd`] chain for every `R`, every pass width and every tier, so neither
/// the height of the tile a row lands in nor where a strip boundary falls
/// ever changes a result bit.
///
/// The AVX2 and scalar tiers fold over a `[p][r]` packed copy of the tile's
/// A rows ([`pack_a`]): `k·R` scalar moves per tile that make every later
/// read one pointer plus a constant, which pays when many passes re-read the
/// tile (and the scalar tier's safe strip body wants the slice). The AVX-512
/// tier reads the rows in place ([`TileA`]): its pair makes a quarter of the
/// AVX2 tier's passes and uses each broadcast twice, and measures 1.2–2×
/// faster that way (`[192×192]·[192×64]` 68 → 35 µs — packing was half that
/// product), where the AVX2 tier measures 1.1–1.3× slower.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tile_rows<const R: usize>(
    ad: &[f32],
    a_rs: usize,
    a_ps: usize,
    bd: &[f32],
    row0: usize,
    ib: usize,
    chunk: &mut [f32],
    k: usize,
    n: usize,
    accumulate: bool,
    apack: &mut [f32],
    isa: Isa,
) {
    assert!(bd.len() == k * n && (ib + R) * n <= chunk.len());
    let passes = (0..n)
        .step_by(pass_width(isa))
        .map(|jb| (jb, pass_width(isa).min(n - jb)));
    // SAFETY (both vector arms): the deepest B read is
    // (k-1)·n + jb + w ≤ k·n = bd.len() and the deepest out access
    // (ib+R-1)·n + jb + w ≤ (ib+R)·n ≤ chunk.len(), both asserted above with
    // jb + w ≤ n; A reads are checked by `TileA::new`, or stay inside the
    // k·R floats `pack_a` returns. CPU support is guaranteed by `active_isa`.
    #[cfg(target_arch = "x86_64")]
    if isa == Isa::Avx512 {
        let a = TileA::new::<R>(ad, a_rs, a_ps, row0 + ib, k);
        for (jb, w) in passes {
            unsafe {
                let b = bd.as_ptr().add(jb);
                let out = chunk.as_mut_ptr().add(ib * n + jb);
                if w > NR {
                    simd::x86::strip_avx512::<R, 2>(a, b, n, k, out, n, w, accumulate)
                } else {
                    simd::x86::strip_avx512::<R, 1>(a, b, n, k, out, n, w, accumulate)
                }
            }
        }
        return;
    }
    let apack = pack_a::<R>(ad, a_rs, a_ps, row0 + ib, k, apack);
    for (jb, w) in passes {
        #[cfg(target_arch = "x86_64")]
        if isa == Isa::Avx2 {
            unsafe {
                let b = bd.as_ptr().add(jb);
                let out = chunk.as_mut_ptr().add(ib * n + jb);
                simd::x86::strip_avx2::<R>(apack.as_ptr(), b, n, k, out, n, w, accumulate);
            }
            continue;
        }
        let acc = if w == NR {
            strip_scalar::<R, _>(apack, bd.chunks_exact(n), |brow| {
                brow[jb..jb + NR].try_into().expect("NR block")
            })
        } else {
            strip_scalar::<R, _>(apack, bd.chunks_exact(n), |brow| {
                let mut bs = [0.0f32; NR];
                bs[..w].copy_from_slice(&brow[jb..jb + w]);
                bs
            })
        };
        store_strip(&acc, chunk, ib, jb, w, n, accumulate);
    }
}

/// The scalar tier's strip body, shared with the fused int8 strip: `p`-outer
/// over `[f32; NR]` accumulators, `load_b` producing row `p`'s `NR` B values
/// (zero-padded past the strip's width). The `NR`-lane inner loops have a
/// constant trip count whatever the strip's width, which is what lets the
/// compiler keep them in vector registers; callers instantiate it once with
/// a fixed-size full-strip loader and once with a padding one, so the
/// full-width loop never carries the partial strip's variable-length copy.
#[inline(always)]
pub(crate) fn strip_scalar<const R: usize, B>(
    apack: &[f32],
    b_rows: impl Iterator<Item = B>,
    load_b: impl Fn(B) -> [f32; NR],
) -> [[f32; NR]; R] {
    let mut acc = [[0.0f32; NR]; R];
    for (ap, brow) in apack.chunks_exact(R).zip(b_rows) {
        let bs = load_b(brow);
        for (r, acc_row) in acc.iter_mut().enumerate() {
            let av = ap[r];
            for (s, &bv) in acc_row.iter_mut().zip(bs.iter()) {
                *s = fmadd(av, bv, *s);
            }
        }
    }
    acc
}

/// Writes (or adds) the first `w` columns of a strip's accumulators into
/// rows `ib..ib+R` of `chunk` at column `jb`.
#[inline(always)]
pub(crate) fn store_strip<const R: usize>(
    acc: &[[f32; NR]; R],
    chunk: &mut [f32],
    ib: usize,
    jb: usize,
    w: usize,
    n: usize,
    accumulate: bool,
) {
    for (r, acc_row) in acc.iter().enumerate() {
        let orow = &mut chunk[(ib + r) * n + jb..(ib + r) * n + jb + w];
        if accumulate {
            for (o, &v) in orow.iter_mut().zip(acc_row.iter()) {
                *o += v;
            }
        } else {
            orow.copy_from_slice(&acc_row[..w]);
        }
    }
}

// ---- all-heads row folds (attention over cached K/V) -----------------------

/// Every head's score panel against one K panel stored *transposed*
/// (`kt: [d_model, capacity]`, one column per cached key, of which the first
/// `keys` hold tokens — a paged KV block, or the hook's virtual-prefix
/// panel), in one walk over the panel: heads are row bands of it. For query
/// row `i` of `q[r0..r1]` and head `h` (dimensions `h·d_h..(h+1)·d_h`,
/// `d_h = q.cols() / n_heads`),
/// `out[i·n_heads + h, col0..col0+keys] = q[r0+i, head h] @ kt[head h, 0..keys]`
/// — `out` is the query-major scores matrix `[m·n_heads, total keys]` that
/// [`softmax_heads_causal_in_place`] and [`av_heads_seg_into`] read,
/// assembled from several such panels.
///
/// Bitwise contract: each output element is one ascending-`p` `fmadd`
/// chain from `0.0` over the head's `d_h` dimensions — the chain
/// [`matmul`] computes for the same Q row and the transposed K rows over the
/// sliced head window — and depends on exactly one Q row and one key, so a scores matrix
/// assembled panel-by-panel is bit-for-bit the product over the same keys
/// stored contiguously. Key columns at or past `keys` are never read.
/// Serial: one panel sits far below the parallel threshold.
#[allow(clippy::too_many_arguments)]
pub fn qk_heads_panel(
    q: &Matrix,
    r0: usize,
    r1: usize,
    kt: &Matrix,
    keys: usize,
    n_heads: usize,
    out: &mut Matrix,
    col0: usize,
) {
    assert!(r0 <= r1 && r1 <= q.rows(), "qk_heads_panel: row window");
    let d = q.cols();
    assert!(
        n_heads > 0 && d.is_multiple_of(n_heads) && kt.rows() == d,
        "qk_heads_panel: head split"
    );
    assert!(keys <= kt.cols(), "qk_heads_panel: key count");
    let m = r1 - r0;
    assert!(
        m * n_heads <= out.rows() && col0 + keys <= out.cols(),
        "qk_heads_panel: out window"
    );
    let (hd, kn, on) = (d / n_heads, kt.cols(), out.cols());
    let g = HeadFold {
        rows: m,
        heads: n_heads,
        seg: hd,
        w: keys,
        a0: r0 * d,
        a_row: d,
        a_head: hd,
        b0: 0,
        b_head: hd * kn,
        b_stride: kn,
        o0: col0,
        o_row: n_heads * on,
        o_head: on,
        accumulate: false,
    };
    fold_heads(q.data(), kt.data(), out.data_mut(), &g);
}

/// Every head's attention·V product over one segment of a *paged* V cache:
/// folds score columns `a_lo..a_hi` of the query-major scores matrix `a`
/// (`[m·n_heads, keys]`, row `i·n_heads + h`) against the first
/// `a_hi - a_lo` rows of `v` (one KV block, or the virtual-prefix panel)
/// into `out[row0 + i, head h]`, reading cached V in place. With
/// `accumulate == false` the chains start from `0.0`; with `true` they
/// continue on top of earlier segments.
///
/// Bitwise contract: calling this once per segment in ascending column order
/// (prefix panel first, then each block) gives every output element the
/// single ascending-`p` `fmadd` chain [`matmul`] folds for that head over
/// the same history stored contiguously — so the segmented product is
/// bit-identical. Masked score columns are exact `+0.0` and must still pass
/// through the chain: skipping `av == 0.0`, as the seed kernel did, turns
/// `-0.0 + 0.0·x` into `-0.0` where the chain produces `+0.0`. Rows of `v`
/// at or past the segment length are never read.
#[allow(clippy::too_many_arguments)]
pub fn av_heads_seg_into(
    a: &Matrix,
    a_lo: usize,
    a_hi: usize,
    v: &Matrix,
    n_heads: usize,
    out: &mut Matrix,
    row0: usize,
    accumulate: bool,
) {
    assert!(
        a_lo <= a_hi && a_hi <= a.cols(),
        "av_heads_seg_into: a window"
    );
    let d = v.cols();
    assert!(
        n_heads > 0 && d.is_multiple_of(n_heads) && a.rows().is_multiple_of(n_heads),
        "av_heads_seg_into: head split"
    );
    let seg = a_hi - a_lo;
    assert!(seg <= v.rows(), "av_heads_seg_into: v row count");
    let m = a.rows() / n_heads;
    assert!(
        row0 + m <= out.rows() && out.cols() == d,
        "av_heads_seg_into: out window"
    );
    let (hd, ka) = (d / n_heads, a.cols());
    let g = HeadFold {
        rows: m,
        heads: n_heads,
        seg,
        w: hd,
        a0: a_lo,
        a_row: n_heads * ka,
        a_head: ka,
        b0: 0,
        b_head: hd,
        b_stride: d,
        o0: row0 * d,
        o_row: d,
        o_head: hd,
        accumulate,
    };
    fold_heads(a.data(), v.data(), out.data_mut(), &g);
}

/// Every head's `aᵀ·b` over a query-major scores matrix: for `a`
/// `[m·n_heads, keys]` (row `i·n_heads + h`, as [`qk_heads_panel`] writes
/// it) and `b` `[m, d]`,
/// `out[j, head h] = Σ_i a[i·n_heads + h, j] · b[i, head h]`, `out`
/// `[keys, d]` overwritten — the attention backward's `dV = Aᵀ·g` and
/// `dK = dSᵀ·Q` for every head in one call.
///
/// Bitwise contract: each output element is one ascending-`i` `fmadd` chain
/// from `0.0` — the chain [`matmul_at`] folds for the same head's columns of
/// `a` and `b`. `a` is transposed head by head into a scratch panel first,
/// so the fold reads each chain's terms contiguously.
pub fn at_heads_into(a: &Matrix, b: &Matrix, n_heads: usize, out: &mut Matrix) {
    let (m, d) = b.shape();
    let keys = a.cols();
    assert!(
        n_heads > 0 && d.is_multiple_of(n_heads) && a.rows() == m * n_heads,
        "at_heads_into: head split"
    );
    assert_eq!(out.shape(), (keys, d), "at_heads_into: out shape");
    // `at[(h·keys + j)·m + i] = a[i·n_heads + h, j]`.
    let mut at = vec![0.0f32; a.len()];
    for i in 0..m {
        for h in 0..n_heads {
            for (j, &x) in a.row(i * n_heads + h).iter().enumerate() {
                at[(h * keys + j) * m + i] = x;
            }
        }
    }
    let hd = d / n_heads;
    let g = HeadFold {
        rows: keys,
        heads: n_heads,
        seg: m,
        w: hd,
        a0: 0,
        a_row: m,
        a_head: keys * m,
        b0: 0,
        b_head: hd,
        b_stride: d,
        o0: 0,
        o_row: d,
        o_head: hd,
        accumulate: false,
    };
    fold_heads(&at, b.data(), out.data_mut(), &g);
}

/// Geometry of one all-heads row fold ([`fold_heads`]): offsets and strides,
/// in elements, into the three flat buffers.
#[derive(Clone, Copy)]
pub(crate) struct HeadFold {
    /// Query rows.
    pub rows: usize,
    /// Heads per query row.
    pub heads: usize,
    /// Chain length: terms folded per output element.
    pub seg: usize,
    /// Output elements per (row, head).
    pub w: usize,
    pub a0: usize,
    pub a_row: usize,
    pub a_head: usize,
    pub b0: usize,
    pub b_head: usize,
    pub b_stride: usize,
    pub o0: usize,
    pub o_row: usize,
    pub o_head: usize,
    /// Continue the chains from `out`'s values instead of `0.0`.
    pub accumulate: bool,
}

/// The attention row fold for every (query row, head) of one panel, in one
/// dispatched call: for `i < rows`, `h < heads`, `j < w`,
/// `out[o0 + i·o_row + h·o_head + j] (+)= Σ_p a[a0 + i·a_row + h·a_head + p] ·
/// b[b0 + h·b_head + p·b_stride + j]`, `p` ascending through one [`fmadd`]
/// chain per output element. SIMD lanes span the `w` independent outputs of
/// a (row, head), and up to four heads' chains advance side by side, so all
/// tiers are bitwise-equal. Scores·V folds score rows over a V block's rows;
/// Q·Kᵀ folds a query row's head windows over a transposed K panel's rows.
fn fold_heads(a: &[f32], b: &[f32], out: &mut [f32], g: &HeadFold) {
    if g.rows == 0 || g.heads == 0 || g.w == 0 {
        return;
    }
    // Every tier indexes up to the last fold's windows; check them once.
    let last = |n: usize, step: usize| (n - 1) * step;
    assert!(
        g.a0 + last(g.rows, g.a_row) + last(g.heads, g.a_head) + g.seg <= a.len(),
        "fold_heads: a window"
    );
    assert!(
        g.seg == 0 || g.b0 + last(g.heads, g.b_head) + last(g.seg, g.b_stride) + g.w <= b.len(),
        "fold_heads: fold runs past the panel"
    );
    assert!(
        g.o0 + last(g.rows, g.o_row) + last(g.heads, g.o_head) + g.w <= out.len(),
        "fold_heads: out window"
    );
    let isa = simd::active_isa();
    #[cfg(target_arch = "x86_64")]
    if isa != Isa::Scalar {
        // SAFETY: the three windows are asserted above; CPU support is
        // guaranteed by `active_isa`.
        unsafe {
            let (a, b, out) = (
                a.as_ptr().add(g.a0),
                b.as_ptr().add(g.b0),
                out.as_mut_ptr().add(g.o0),
            );
            match isa {
                Isa::Avx2 => simd::x86::fold_heads_avx2(a, b, out, g),
                Isa::Avx512 => simd::x86::fold_heads_avx512(a, b, out, g),
                Isa::Scalar => unreachable!(),
            }
        }
        return;
    }
    let _ = isa;
    for i in 0..g.rows {
        for h in 0..g.heads {
            let a0 = g.a0 + i * g.a_row + h * g.a_head;
            let o0 = g.o0 + i * g.o_row + h * g.o_head;
            let orow = &mut out[o0..o0 + g.w];
            if !g.accumulate {
                orow.fill(0.0);
            }
            for (p, &av) in a[a0..a0 + g.seg].iter().enumerate() {
                let b0 = g.b0 + h * g.b_head + p * g.b_stride;
                for (o, &bv) in orow.iter_mut().zip(&b[b0..b0 + g.w]) {
                    *o = fmadd(av, bv, *o);
                }
            }
        }
    }
}

/// Dot product of two equal-length slices (unrolled by 4 for the vectorizer).
///
/// Note: the 4-lane split is *not* the matmul kernels' single ascending
/// chain; it is used where raw speed matters and bit-stability across code
/// paths does not (e.g. softmax backward).
#[inline]
pub fn dot(x: &[f32], y: &[f32]) -> f32 {
    debug_assert_eq!(x.len(), y.len());
    let mut acc0 = 0.0f32;
    let mut acc1 = 0.0f32;
    let mut acc2 = 0.0f32;
    let mut acc3 = 0.0f32;
    let chunks = x.len() / 4;
    for c in 0..chunks {
        let i = c * 4;
        acc0 += x[i] * y[i];
        acc1 += x[i + 1] * y[i + 1];
        acc2 += x[i + 2] * y[i + 2];
        acc3 += x[i + 3] * y[i + 3];
    }
    let mut acc = acc0 + acc1 + acc2 + acc3;
    for i in chunks * 4..x.len() {
        acc += x[i] * y[i];
    }
    acc
}

// ---- softmax & activations -------------------------------------------------

/// Row-wise softmax with max-subtraction for stability.
pub fn softmax_rows(x: &Matrix) -> Matrix {
    let mut out = x.clone();
    softmax_rows_in_place(&mut out);
    out
}

/// The range-reduced polynomial `exp` constants, shared verbatim with the
/// vector tiers in [`crate::simd`] — one source of truth, like
/// [`tanh_poly`], so a coefficient tweak can never bitwise-desync the scalar
/// and SIMD paths.
pub(crate) mod exp_poly {
    /// Inputs above this clamp to it: `exp_fast(HI)` is already `+∞`.
    pub const HI: f32 = 89.0;
    /// The cutoff. Inputs below this clamp to it, and `exp_fast(LO)` rounds
    /// to exactly `+0.0` (`e^-104 < 2^-150`, half the smallest subnormal).
    pub const LO: f32 = -104.0;
    pub const LOG2E: f32 = std::f32::consts::LOG2_E;
    /// `1.5·2^23`: adding it rounds to the nearest integer (ties to even)
    /// and leaves that integer in the low mantissa bits.
    pub const ROUND: f32 = 12_582_912.0;
    /// Cody–Waite split of `ln 2`: `LN2_HI` has nine significant bits, so
    /// `n · LN2_HI` is exact for every `|n| ≤ 150`.
    pub const LN2_HI: f32 = 0.693_359_4;
    pub const LN2_LO: f32 = -2.121_944_4e-4;
    /// Cephes `expf` minimax coefficients of `(e^r - 1 - r) / r²` on
    /// `|r| ≤ ln 2 / 2`, highest degree first.
    pub const P: [f32; 6] = [
        1.987_569_1e-4,
        1.398_2e-3,
        8.333_452e-3,
        4.166_579_6e-2,
        1.666_666_5e-1,
        5e-1,
    ];
}

/// Branch-free `e^x`: `x = n·ln 2 + r` by Cody–Waite reduction, a degree-5
/// polynomial for `e^r`, and `2^n` applied through the exponent bits in two
/// halves so results below the normal range round once, gradually, instead
/// of flushing. Measured against `f64::exp`: under 1 ulp (0.99) over
/// `[-104, 88]`, monotone, `exp_fast(0.0) == 1.0`, exactly `+0.0` for every
/// input below `exp_poly::LO` (`-1e9`-masked scores, `-∞`), `+∞` from
/// `128·ln 2` up, NaN for NaN.
///
/// The libm `expf` it replaces is a scalar black box; this is plain
/// multiplies, adds and integer operations — never fused, so one build's
/// scalar tier, its vector tiers ([`exp_slice`]) and an FMA-less build all
/// produce the same bits. Every member of the row-softmax family calls it,
/// which keeps the tape, `tensor::infer` and the KV-cached engine bitwise
/// equal to each other.
#[inline]
pub fn exp_fast(x: f32) -> f32 {
    use exp_poly::*;
    // Comparisons, not `f32::min`/`max`: NaN must fall through both.
    let x = if x > HI { HI } else { x };
    let x = if x < LO { LO } else { x };
    let t = x * LOG2E + ROUND;
    let m = t - ROUND;
    let n = (t.to_bits() as i32).wrapping_sub(ROUND.to_bits() as i32);
    let r = (x - m * LN2_HI) - m * LN2_LO;
    let mut y = P[0];
    for &c in &P[1..] {
        y = y * r + c;
    }
    let y = (y * (r * r) + r) + 1.0;
    // 2^n as 2^(n>>1) · 2^(n - (n>>1)): both factors are normal floats for
    // every n in [-150, 128], the first product is exact, and the second
    // rounds once — correctly into the subnormals, or up to +∞.
    let n1 = n >> 1;
    let pow2 = |k: i32| f32::from_bits((k.wrapping_add(127) << 23) as u32);
    (y * pow2(n1)) * pow2(n.wrapping_sub(n1))
}

/// `xs[i] = exp_fast(xs[i] · scale - shift)`, dispatched to the `isa` tier:
/// the softmax numerator pass, with the score scale folded in. The vector
/// tiers replicate [`exp_fast`]'s operation sequence lane by lane, so every
/// tier is bitwise-equal.
#[inline(always)]
fn exp_scaled_slice(xs: &mut [f32], scale: f32, shift: f32, isa: Isa) {
    #[cfg(target_arch = "x86_64")]
    match isa {
        Isa::Scalar => {}
        // SAFETY: CPU support is guaranteed by `active_isa`.
        Isa::Avx2 => return unsafe { simd::x86::exp_scaled_slice_avx2(xs, scale, shift) },
        Isa::Avx512 => return unsafe { simd::x86::exp_scaled_slice_avx512(xs, scale, shift) },
    }
    let _ = isa;
    for v in xs.iter_mut() {
        *v = exp_fast(*v * scale - shift);
    }
}

/// In-place [`exp_fast`] over a slice, dispatched to the active SIMD tier
/// (bitwise-equal in every tier).
pub fn exp_slice(xs: &mut [f32]) {
    // `x · 1.0 - 0.0` is `x` exactly.
    exp_scaled_slice(xs, 1.0, 0.0, simd::active_isa());
}

/// Softmax of `scale · row[..valid]` for every `stride`-long row of `data`,
/// exact zeros written over `row[valid..]` without reading it. The one body
/// behind the in-place softmax family, dispatched to the `isa` tier (the
/// vector tiers take rows four at a time so their latencies overlap).
///
/// Per row: max scan, [`exp_fast`] of `v · scale - max · scale`, the sum as
/// one ascending scalar chain from `0.0` (in every tier), and a multiply by
/// `1/sum`.
/// `max(s·x) = s·max(x)` bitwise for `s > 0` (rounding is monotone), so
/// scaling the max instead of the row changes no bit against scaling first.
/// Every tier returns the same max *value* as the `f32::max` fold here (max
/// is order-insensitive over finite floats); on a `±0.0` tie the vector
/// tiers may pick the other zero's sign, which `exp_fast(v - ±0.0)` absorbs.
fn softmax_rows_span(data: &mut [f32], stride: usize, valid: usize, scale: f32, isa: Isa) {
    assert!(
        0 < valid && valid <= stride && data.len().is_multiple_of(stride),
        "softmax_rows_span: row geometry"
    );
    #[cfg(target_arch = "x86_64")]
    match isa {
        Isa::Scalar => {}
        // SAFETY: CPU support is guaranteed by `active_isa`; the geometry the
        // tier functions rely on is asserted above.
        Isa::Avx2 => return unsafe { simd::x86::softmax_rows_avx2(data, stride, valid, scale) },
        Isa::Avx512 => {
            return unsafe { simd::x86::softmax_rows_avx512(data, stride, valid, scale) }
        }
    }
    let _ = isa;
    for row in data.chunks_exact_mut(stride) {
        let (head, tail) = row.split_at_mut(valid);
        let max = head.iter().cloned().fold(f32::NEG_INFINITY, f32::max) * scale;
        let mut sum = 0.0;
        for v in head.iter_mut() {
            *v = exp_fast(*v * scale - max);
            sum += *v;
        }
        let inv = 1.0 / sum;
        for v in head.iter_mut() {
            *v *= inv;
        }
        tail.fill(0.0);
    }
}

/// In-place row-wise softmax (allocation-free form of [`softmax_rows`]).
pub fn softmax_rows_in_place(out: &mut Matrix) {
    let n = out.cols();
    if n > 0 {
        softmax_rows_span(out.data_mut(), n, n, 1.0, simd::active_isa());
    }
}

/// In-place causal softmax of a query-major all-heads scores matrix
/// (`[m·n_heads, keys]`, row `i·n_heads + h` as [`qk_heads_panel`] writes
/// it), with the `1/√d_h` score scale folded in: every row of query `i`
/// softmaxes `scale ·` its first `offset + i + 1` entries (its causally
/// visible prefix) and gets exact zeros over the tail, which is never read.
///
/// Bitwise-identical, head by head, to scaling the scores by `scale`
/// (`v · scale` per element, as here), masking the tail to `-1e9` or `-∞`
/// and running full-row [`softmax_rows_in_place`]: masked entries never win
/// the row max, their `exp_fast(..) = +0.0` terms extend the sum's chain only
/// with exact-zero additions (which cannot change any accumulated bit — the
/// sum is never `-0.0`), and `+0.0 × inv` is `+0.0`. Skipping them drops half
/// the `exp` work of a square prefill score block and the masking pass.
pub fn softmax_heads_causal_in_place(out: &mut Matrix, n_heads: usize, offset: usize, scale: f32) {
    let n = out.cols();
    assert!(
        n_heads > 0 && out.rows().is_multiple_of(n_heads),
        "softmax_heads_causal_in_place: head split"
    );
    assert!(scale > 0.0, "softmax_heads_causal_in_place: scale");
    if n == 0 {
        return;
    }
    let isa = simd::active_isa();
    for (i, query) in out.data_mut().chunks_exact_mut(n_heads * n).enumerate() {
        softmax_rows_span(query, n, (offset + i + 1).min(n), scale, isa);
    }
}

/// Row-wise log-softmax (numerically stable log-sum-exp form; the sum is one
/// ascending chain over [`exp_fast`] terms).
pub fn log_softmax_rows(x: &Matrix) -> Matrix {
    let isa = simd::active_isa();
    let mut out = x.clone();
    let mut e = vec![0.0f32; x.cols()];
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        e.copy_from_slice(row);
        exp_scaled_slice(&mut e, 1.0, max, isa);
        let lse = max + e.iter().fold(0.0f32, |s, &v| s + v).ln();
        for v in row.iter_mut() {
            *v -= lse;
        }
    }
    out
}

/// Numerically stable logistic sigmoid.
#[inline]
pub fn sigmoid(v: f32) -> f32 {
    if v >= 0.0 {
        1.0 / (1.0 + (-v).exp())
    } else {
        let e = v.exp();
        e / (1.0 + e)
    }
}

/// The rational-tanh / GELU polynomial constants, shared verbatim with the
/// vector tiers in [`crate::simd`] — one source of truth, so a coefficient
/// tweak can never bitwise-desync the scalar and SIMD paths.
pub(crate) mod tanh_poly {
    /// Saturating clamp: past ±7.905 f32 tanh rounds to ±1.
    pub const CLAMP: f32 = 7.905_311;
    pub const A1: f32 = 4.893_525_6e-3;
    pub const A3: f32 = 6.372_619_3e-4;
    pub const A5: f32 = 1.485_722_4e-5;
    pub const A7: f32 = 5.122_297_1e-8;
    pub const A9: f32 = -8.604_672e-11;
    pub const A11: f32 = 2.000_188e-13;
    pub const A13: f32 = -2.760_768_5e-16;
    pub const B0: f32 = 4.893_525e-3;
    pub const B2: f32 = 2.268_434_6e-3;
    pub const B4: f32 = 1.185_347_1e-4;
    pub const B6: f32 = 1.198_258_4e-6;
    /// sqrt(2/pi), the GELU tanh-approximation scale.
    pub const GELU_C: f32 = 0.797_884_6;
    /// The GELU cubic coefficient.
    pub const GELU_K: f32 = 0.044_715;
}

/// Branch-free rational tanh (odd `x·P(x²)/Q(x²)`, saturating clamp at
/// ±7.905 where f32 tanh rounds to ±1), accurate to a few ulp — the
/// polynomial Eigen and XNNPACK use for their vectorized tanh.
///
/// The libm `tanhf` call it replaces is a scalar black box the
/// auto-vectorizer cannot touch, which made [`gelu`] the single largest
/// cost of a prefill (more than all its GEMMs combined). This form is pure
/// clamped polynomial arithmetic, so an elementwise map over a matrix
/// compiles to SIMD. Like every kernel here it is exactly reproducible:
/// same input, same bits, on every path that calls it.
#[inline]
pub fn tanh_fast(x: f32) -> f32 {
    use tanh_poly::*;
    let x = x.clamp(-CLAMP, CLAMP);
    let x2 = x * x;
    let p = ((((((A13 * x2 + A11) * x2 + A9) * x2 + A7) * x2 + A5) * x2 + A3) * x2 + A1) * x;
    let q = ((B6 * x2 + B4) * x2 + B2) * x2 + B0;
    p / q
}

/// In-place [`tanh_fast`] over a slice, dispatched to the active SIMD tier —
/// the one `tanh` of the workspace: `Tape::tanh`, its backward and the
/// infuser gate's engine path all call it, so tape and engine agree bitwise.
/// The vector tiers replicate [`tanh_fast`]'s operation sequence lane by lane
/// (plain multiplies and adds, never fused; the division exact), so every
/// tier is bitwise-equal; NaNs stay NaN.
pub fn tanh_slice(xs: &mut [f32]) {
    let isa = simd::active_isa();
    #[cfg(target_arch = "x86_64")]
    match isa {
        Isa::Scalar => {}
        // SAFETY: CPU support is guaranteed by `active_isa`.
        Isa::Avx2 => return unsafe { simd::x86::tanh_slice_avx2(xs) },
        Isa::Avx512 => return unsafe { simd::x86::tanh_slice_avx512(xs) },
    }
    let _ = isa;
    for v in xs.iter_mut() {
        *v = tanh_fast(*v);
    }
}

/// tanh-approximation GELU (the variant used by GPT-style models), with the
/// inner tanh computed by [`tanh_fast`] so the map vectorizes. The tape
/// forward and the KV-cached inference path both route through this one
/// function, so their outputs stay bitwise identical to each other.
#[inline]
pub fn gelu(v: f32) -> f32 {
    const C: f32 = tanh_poly::GELU_C;
    const K: f32 = tanh_poly::GELU_K;
    0.5 * v * (1.0 + tanh_fast(C * (v + K * v * v * v)))
}

/// In-place GELU over a slice, dispatched to the active SIMD tier. The
/// vector tiers replicate [`gelu`]'s exact operation sequence lane-by-lane
/// (plain multiplies and adds, never contracted to FMA — the scalar form
/// uses `*`/`+`, which Rust never fuses), so finite inputs produce
/// bitwise-identical outputs in every tier; NaNs stay NaN.
pub fn gelu_slice(xs: &mut [f32]) {
    let isa = simd::active_isa();
    #[cfg(target_arch = "x86_64")]
    match isa {
        Isa::Scalar => {}
        Isa::Avx2 => return unsafe { simd::x86::gelu_slice_avx2(xs) },
        Isa::Avx512 => return unsafe { simd::x86::gelu_slice_avx512(xs) },
    }
    let _ = isa;
    for v in xs.iter_mut() {
        *v = gelu(*v);
    }
}

/// Derivative of [`gelu`] (same [`tanh_fast`] inner tanh).
#[inline]
pub fn gelu_grad(v: f32) -> f32 {
    const C: f32 = tanh_poly::GELU_C;
    const K: f32 = tanh_poly::GELU_K;
    let u = C * (v + K * v * v * v);
    let t = tanh_fast(u);
    let du = C * (1.0 + 3.0 * K * v * v);
    0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * du
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn matmul_small() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = m(3, 2, &[7., 8., 9., 10., 11., 12.]);
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let a = m(2, 2, &[1., 2., 3., 4.]);
        let i = m(2, 2, &[1., 0., 0., 1.]);
        assert_eq!(matmul(&a, &i), a);
    }

    #[test]
    fn matmul_at_matches_explicit_transpose() {
        let a = m(3, 2, &[1., 2., 3., 4., 5., 6.]);
        let b = m(3, 4, &[1., 0., 1., 0., 0., 1., 0., 1., 2., 2., 2., 2.]);
        assert_eq!(matmul_at(&a, &b), matmul(&a.transposed(), &b));
    }

    #[test]
    fn matmul_into_accumulates() {
        let a = m(1, 2, &[1., 1.]);
        let b = m(2, 1, &[2., 3.]);
        let mut out = Matrix::full(1, 1, 10.0);
        matmul_into(&a, &b, &mut out, true);
        assert_eq!(out.scalar_value(), 15.0);
        matmul_into(&a, &b, &mut out, false);
        assert_eq!(out.scalar_value(), 5.0);
    }

    #[test]
    fn matmul_at_into_accumulates() {
        let a = m(2, 1, &[1., 1.]);
        let b = m(2, 1, &[2., 3.]);
        let mut out = Matrix::full(1, 1, 10.0);
        matmul_at_into(&a, &b, &mut out, true);
        assert_eq!(out.scalar_value(), 15.0);
        matmul_at_into(&a, &b, &mut out, false);
        assert_eq!(out.scalar_value(), 5.0);
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn matmul_shape_panics() {
        let a = m(1, 2, &[1., 1.]);
        let b = m(3, 1, &[1., 1., 1.]);
        let _ = matmul(&a, &b);
    }

    #[test]
    fn thread_count_does_not_change_bits() {
        // Band splits must not change accumulation order: force threading by
        // hammering the banded path directly on a mid-size product.
        let a = Matrix::from_vec(64, 33, (0..64 * 33).map(|i| (i as f32).sin()).collect());
        let b = Matrix::from_vec(33, 29, (0..33 * 29).map(|i| (i as f32).cos()).collect());
        let serial = matmul(&a, &b);
        let mut banded = Matrix::zeros(64, 29);
        // Simulate a 3-way band split exactly as run_banded would.
        let (ad, bd) = (a.data(), b.data());
        let isa = simd::active_isa();
        let mut rest = banded.data_mut();
        for band in row_bands(64, 3) {
            let (chunk, tail) = rest.split_at_mut(band.len() * 29);
            rest = tail;
            matmul_band(ad, 33, 1, bd, band, chunk, 33, 29, false, isa);
        }
        assert_eq!(serial.data(), banded.data());
    }

    #[test]
    fn set_num_threads_round_trip() {
        let before = num_threads();
        set_num_threads(3);
        assert_eq!(num_threads(), 3);
        set_num_threads(0);
        let _ = num_threads(); // falls back to default resolution
        set_num_threads(before.max(1));
        set_num_threads(0);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = m(2, 3, &[1., 2., 3., -1., 0., 100.]);
        let s = softmax_rows(&x);
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // the large-logit row should be a near-one-hot
        assert!(s.get(1, 2) > 0.999);
    }

    #[test]
    fn log_softmax_consistent_with_softmax() {
        let x = m(1, 4, &[0.5, -1.0, 2.0, 0.0]);
        let s = softmax_rows(&x);
        let ls = log_softmax_rows(&x);
        for c in 0..4 {
            assert!((ls.get(0, c) - s.get(0, c).ln()).abs() < 1e-5);
        }
    }

    #[test]
    fn sigmoid_stable_extremes() {
        assert!((sigmoid(100.0) - 1.0).abs() < 1e-6);
        assert!(sigmoid(-100.0) < 1e-6);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
    }

    #[test]
    fn gelu_reference_points() {
        assert!((gelu(0.0)).abs() < 1e-7);
        assert!((gelu(1.0) - 0.8412).abs() < 1e-3);
        assert!((gelu(-1.0) + 0.1588).abs() < 1e-3);
    }

    #[test]
    fn activation_grads_match_finite_diff() {
        let eps = 1e-3;
        for &v in &[-2.0f32, -0.5, 0.0, 0.7, 1.9] {
            let fd_g = (gelu(v + eps) - gelu(v - eps)) / (2.0 * eps);
            assert!(
                (gelu_grad(v) - fd_g).abs() < 1e-2,
                "gelu'({v}) = {} vs fd {fd_g}",
                gelu_grad(v)
            );
        }
    }

    #[test]
    fn dot_handles_remainders() {
        let x: Vec<f32> = (0..7).map(|i| i as f32).collect();
        let y = vec![1.0f32; 7];
        assert_eq!(dot(&x, &y), 21.0);
    }

    fn wave(rows: usize, cols: usize, f: f32) -> Matrix {
        Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols).map(|i| (i as f32 * f).sin()).collect(),
        )
    }

    /// Head `h`'s rows of a query-major all-heads matrix (row `i·n_heads + h`).
    fn head_rows(m: &Matrix, n_heads: usize, h: usize) -> Matrix {
        let mut out = Matrix::zeros(m.rows() / n_heads, m.cols());
        for i in 0..out.rows() {
            out.row_mut(i).copy_from_slice(m.row(i * n_heads + h));
        }
        out
    }

    /// `(query rows, history, d_model, block rows, heads)`: the single-query
    /// decode shape, ragged histories, every fill level, head widths on and
    /// off the vector widths.
    const HEAD_SHAPES: &[(usize, usize, usize, usize, usize)] = &[
        (1, 1, 8, 4, 2),
        (1, 23, 12, 4, 3),
        (5, 9, 16, 2, 2),
        (7, 17, 16, 8, 1),
        (4, 4, 6, 16, 3),
        (3, 41, 64, 16, 4),
        (2, 19, 40, 16, 5),
    ];

    fn assert_bits(x: &[f32], y: &[f32], ctx: &str) {
        assert_eq!(x.len(), y.len(), "{ctx}");
        for (i, (a, b)) in x.iter().zip(y).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: elem {i}");
        }
    }

    #[test]
    fn av_heads_bitwise_matches_sliced_matmul_per_head() {
        for &(ra, hist, d, _, nh) in HEAD_SHAPES {
            let hd = d / nh;
            let attn = wave(ra * nh, hist, 0.41);
            let v = wave(hist, d, 0.23);
            // Pre-fill the sink with garbage: the kernel must overwrite its
            // rows and leave everything else alone.
            let mut merged = Matrix::full(ra + 1, d, 7.5);
            av_heads_seg_into(&attn, 0, hist, &v, nh, &mut merged, 1, false);
            for h in 0..nh {
                let (lo, hi) = (h * hd, (h + 1) * hd);
                let sliced = matmul(&head_rows(&attn, nh, h), &v.slice_cols(lo, hi));
                let got = merged.slice_rows(1, 1 + ra).slice_cols(lo, hi);
                assert_bits(
                    got.data(),
                    sliced.data(),
                    &format!("{ra}x{hist} head {h}/{nh}"),
                );
            }
            assert!(merged.row(0).iter().all(|&x| x == 7.5));
        }
    }

    #[test]
    fn qk_heads_panel_assembles_bitwise_scores_from_blocks() {
        // Split the cached history into fixed-size blocks (last one ragged),
        // store each block's K rows transposed, compute one all-heads score
        // panel per block, and check each head's assembled rows are
        // bit-for-bit `a@bᵀ` over the sliced head window of the contiguous
        // history.
        for &(ra, hist, d, blk, nh) in HEAD_SHAPES {
            let hd = d / nh;
            let a = wave(ra + 2, d, 0.31);
            let k = wave(hist, d, 0.57);
            // Stale garbage in the sink: a panel must overwrite its window.
            let mut paged = Matrix::full(ra * nh, hist, f32::NAN);
            let mut col = 0;
            while col < hist {
                let filled = blk.min(hist - col);
                // Blocks are full-size with only `filled` valid key columns,
                // like a partially-written KV block.
                let mut block = Matrix::full(d, blk, f32::NAN);
                for j in 0..filled {
                    for p in 0..d {
                        block.set(p, j, k.get(col + j, p));
                    }
                }
                qk_heads_panel(&a, 1, 1 + ra, &block, filled, nh, &mut paged, col);
                col += filled;
            }
            for h in 0..nh {
                let (lo, hi) = (h * hd, (h + 1) * hd);
                let contiguous = matmul(
                    &a.slice_rows(1, 1 + ra).slice_cols(lo, hi),
                    &k.slice_cols(lo, hi).transposed(),
                );
                assert_bits(
                    head_rows(&paged, nh, h).data(),
                    contiguous.data(),
                    &format!("{ra}x{hist} b={blk} head {h}/{nh}"),
                );
            }
        }
    }

    #[test]
    fn av_heads_seg_into_continues_the_chain_bitwise() {
        // Fold the attention·V product segment-by-segment (from zero on the
        // first, accumulate after) and check against the single contiguous
        // fold — the chain must extend, not restart.
        for &(ra, hist, d, blk, nh) in HEAD_SHAPES {
            let attn = wave(ra * nh, hist, 0.41);
            let v = wave(hist, d, 0.23);
            let mut contiguous = Matrix::full(ra + 1, d, 7.5);
            av_heads_seg_into(&attn, 0, hist, &v, nh, &mut contiguous, 1, false);
            let mut paged = Matrix::full(ra + 1, d, 7.5);
            let mut col = 0;
            while col < hist {
                let filled = blk.min(hist - col);
                let mut block = Matrix::full(blk, d, f32::NAN);
                block.copy_rows_from(0, &v.slice_rows(col, col + filled));
                av_heads_seg_into(&attn, col, col + filled, &block, nh, &mut paged, 1, col > 0);
                col += filled;
            }
            assert_bits(
                paged.data(),
                contiguous.data(),
                &format!("{ra}x{hist} b={blk} h={nh}"),
            );
        }
    }

    #[test]
    fn causal_softmax_bitwise_matches_scale_mask_then_full_softmax() {
        for &(rows, cols, offset, nh, scale) in &[
            (1usize, 1usize, 0usize, 1usize, 1.0f32),
            (5, 5, 0, 1, 1.0),
            (4, 7, 3, 2, 0.25),
            (7, 9, 2, 3, 0.353_553_4),
            (3, 40, 37, 4, 0.25),
        ] {
            let x = Matrix::from_vec(
                rows * nh,
                cols,
                (0..rows * nh * cols)
                    .map(|i| (i as f32 * 0.63).sin() * 12.0)
                    .collect(),
            );
            let mut causal = x.clone();
            softmax_heads_causal_in_place(&mut causal, nh, offset, scale);
            for h in 0..nh {
                // The tape's sequence: scale, mask to -1e9, full-row softmax.
                let mut masked = head_rows(&x, nh, h);
                masked.scale_assign(scale);
                for r in 0..rows {
                    masked.row_mut(r)[r + offset + 1..].fill(-1e9);
                }
                softmax_rows_in_place(&mut masked);
                assert_bits(
                    head_rows(&causal, nh, h).data(),
                    masked.data(),
                    &format!("{rows}x{cols} off {offset} head {h}/{nh}"),
                );
            }
        }
    }

    #[test]
    fn exp_fast_tracks_f64_exp_within_two_ulp() {
        // ulp of the correctly rounded f32 result (2^-149 in the subnormals).
        let ulps = |x: f32| {
            let want = (x as f64).exp();
            let w = want as f32;
            let exp = ((w.to_bits() >> 23) & 0xff) as i32;
            let ulp = 2f64.powi(exp.max(1) - 127 - 23);
            ((exp_fast(x) as f64) - want).abs() / ulp
        };
        // Dense sweeps of [-104, 0] and (0, 88]: 2^-14 apart, so ~6·10^-5
        // relative (hundreds of ulp) between neighbours.
        let step = 1.0 / 16384.0;
        let mut worst = 0.0f64;
        let mut prev = 0.0f32;
        for i in 0..=(192 * 16384) {
            let x = -104.0 + i as f32 * step;
            if x > 88.0 {
                break;
            }
            let y = exp_fast(x);
            assert!(y >= prev, "not monotone at {x}: {prev} then {y}");
            prev = y;
            worst = worst.max(ulps(x));
        }
        // Measured max: 0.99 ulp.
        assert!(worst <= 2.0, "max error {worst} ulp");
        assert_eq!(exp_fast(0.0).to_bits(), 1.0f32.to_bits());
        assert_eq!(exp_fast(-0.0).to_bits(), 1.0f32.to_bits());
        assert_eq!(exp_fast(1.0), std::f32::consts::E);
        assert_eq!(exp_fast(89.0), f32::INFINITY);
        assert_eq!(exp_fast(f32::INFINITY), f32::INFINITY);
        assert!(exp_fast(f32::NAN).is_nan());
    }

    #[test]
    fn exp_fast_is_exact_positive_zero_below_the_cutoff() {
        // The tape masks with -1e9 and the "masked softmax ≡ causal softmax"
        // bitwise equivalence needs `exp(-1e9 - max)` to be exactly +0.0.
        let below = f32::from_bits(exp_poly::LO.to_bits() + 1);
        for x in [
            exp_poly::LO,
            below,
            -104.5,
            -150.0,
            -1e9,
            -1e9 - 30.0,
            -1e9 + 30.0,
            f32::MIN,
            f32::NEG_INFINITY,
        ] {
            assert_eq!(exp_fast(x).to_bits(), 0, "exp_fast({x})");
        }
        // Just above it the result is the smallest subnormal, not a flush.
        assert_eq!(exp_fast(-103.0).to_bits(), 1);
    }

    #[test]
    fn softmax_family_agrees_on_one_exp() {
        // softmax, its in-place form, log-softmax and `exp_slice` are all
        // built on `exp_fast`: spot-check them against each other.
        let x = wave(3, 11, 0.77);
        let s = softmax_rows(&x);
        let ls = log_softmax_rows(&x);
        for r in 0..3 {
            let max = x.row(r).iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut e: Vec<f32> = x.row(r).iter().map(|&v| v - max).collect();
            exp_slice(&mut e);
            let by_hand: Vec<f32> = x.row(r).iter().map(|&v| exp_fast(v - max)).collect();
            assert_bits(&e, &by_hand, "exp_slice vs exp_fast");
            let sum = e.iter().fold(0.0f32, |a, &v| a + v);
            let inv = 1.0 / sum;
            let want: Vec<f32> = e.iter().map(|&v| v * inv).collect();
            assert_bits(s.row(r), &want, "softmax row");
            let lse = max + sum.ln();
            let want: Vec<f32> = x.row(r).iter().map(|&v| v - lse).collect();
            assert_bits(ls.row(r), &want, "log-softmax row");
        }
    }

    #[test]
    fn tanh_fast_tracks_libm_tanh() {
        let mut worst = 0.0f32;
        for i in -4000..=4000 {
            let x = i as f32 * 0.004; // spans ±16, well past the clamp
            let d = (tanh_fast(x) - x.tanh()).abs();
            worst = worst.max(d);
        }
        assert!(worst <= 5e-7, "max abs error {worst}");
        assert_eq!(tanh_fast(0.0), 0.0);
        assert_eq!(tanh_fast(100.0), 1.0);
        assert_eq!(tanh_fast(-100.0), -1.0);
        assert!(tanh_fast(f32::NAN).is_nan());
    }

    #[test]
    fn thread_count_parsing_rejects_zero_and_garbage() {
        assert_eq!(parse_thread_count("4"), Ok(4));
        assert_eq!(parse_thread_count(" 16 "), Ok(16));
        for bad in ["0", "", "  ", "garbage", "-3", "1.5", "1e3", "0x4"] {
            let err = parse_thread_count(bad).unwrap_err();
            assert!(
                err.contains(THREADS_ENV),
                "error for {bad:?} must name the knob: {err}"
            );
        }
    }

    #[test]
    fn av_heads_keeps_signed_zero_of_the_chain() {
        // Signed zeros are where accumulation-order shortcuts (like the seed
        // kernel's zero-skip branch) diverge from the fused chain; the
        // strided kernel must track the blocked kernel bit-for-bit here too.
        let attn = m(1, 2, &[0.0, 1.0]);
        let mut v = m(2, 1, &[5.0, 0.0]);
        v.set(1, 0, -0.0);
        let mut out = Matrix::zeros(1, 1);
        av_heads_seg_into(&attn, 0, 2, &v, 1, &mut out, 0, false);
        let dense = matmul(&attn, &v);
        assert_eq!(out.get(0, 0).to_bits(), dense.get(0, 0).to_bits());
    }
}
