//! IEEE binary16 storage: the format of every cached K/V panel.
//!
//! A KV cache row is written once and read by every later step of its
//! sequence, so it is stored at half width: [`narrow`] rounds f32 to
//! binary16 round-to-nearest-even, [`widen`] converts back exactly. The
//! attention kernels never see a half: the engine widens each cached panel
//! once per fold call into an f32 scratch ([`HalfMatrix::widen_rows_into`])
//! and folds that, so [`crate::kernels::qk_heads_panel`] and
//! [`crate::kernels::av_heads_seg_into`] keep their bitwise contracts on
//! f32. The tape's attention node folds the same values: it passes K, V and
//! the prefix rows through [`round_slice`] once per forward.
//!
//! # Tiers
//!
//! [`narrow`] and [`widen`] dispatch on [`crate::simd::active_isa`] like the
//! other kernels: software conversion on the scalar tier, F16C `vcvtps2ph` /
//! `vcvtph2ps` on the AVX2 tier, their 512-bit forms on the AVX-512 tier.
//! Every tier gives the same bits for every input. The software forms
//! below are written to match the hardware where IEEE leaves a choice:
//!
//! - finite values round to nearest, ties to even; a magnitude of 65520 or
//!   more (the midpoint past the largest half, 65504) becomes infinity, and
//!   results below the smallest half subnormal round to a signed zero;
//! - a NaN keeps its sign and the top 10 bits of its payload, with the
//!   quiet bit set, both ways (a signalling NaN comes out quiet).

use crate::matrix::Matrix;
use crate::simd::{self, Isa};

/// `x` rounded to the nearest binary16, ties to even, as its bits.
pub fn f32_to_f16(x: f32) -> u16 {
    let b = x.to_bits();
    let sign = ((b >> 16) & 0x8000) as u16;
    let exp = ((b >> 23) & 0xff) as i32;
    let man = b & 0x7f_ffff;
    if exp == 0xff {
        return match man {
            0 => sign | 0x7c00,
            _ => sign | 0x7e00 | (man >> 13) as u16,
        };
    }
    // The half's biased exponent.
    let e = exp - 127 + 15;
    if e >= 0x1f {
        return sign | 0x7c00;
    }
    if e <= 0 {
        // A half subnormal (or zero): the implicit bit joins the mantissa,
        // shifted down by one more place per step below the normal range.
        if e < -10 {
            return sign;
        }
        let m = man | 0x80_0000;
        let shift = (14 - e) as u32;
        let kept = m >> shift;
        let rest = m & ((1 << shift) - 1);
        let half_way = 1 << (shift - 1);
        let up = rest > half_way || (rest == half_way && kept & 1 == 1);
        return sign | (kept + up as u32) as u16;
    }
    // A carry out of the mantissa rounds into the exponent, and from the
    // largest finite half into infinity.
    let kept = ((e as u32) << 10) | (man >> 13);
    let rest = man & 0x1fff;
    let up = rest > 0x1000 || (rest == 0x1000 && kept & 1 == 1);
    sign | (kept + up as u32) as u16
}

/// The f32 value of the binary16 bits `h` (exact).
pub fn f16_to_f32(h: u16) -> f32 {
    let sign = u32::from(h & 0x8000) << 16;
    let exp = u32::from((h >> 10) & 0x1f);
    let man = u32::from(h & 0x3ff);
    let bits = match exp {
        // Zero or a subnormal, `man · 2⁻²⁴`: exact in f32.
        0 => (man as f32 * f32::from_bits(0x3380_0000)).to_bits(),
        0x1f if man == 0 => 0x7f80_0000,
        0x1f => 0x7fc0_0000 | (man << 13),
        _ => ((exp + 127 - 15) << 23) | (man << 13),
    };
    f32::from_bits(sign | bits)
}

/// `dst[i] = f32_to_f16(src[i])` on the active tier.
///
/// # Panics
/// Panics if the lengths differ.
pub fn narrow(src: &[f32], dst: &mut [u16]) {
    assert_eq!(src.len(), dst.len(), "half::narrow: length mismatch");
    match simd::active_isa() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `active_isa` only selects a tier the CPU supports.
        Isa::Avx512 => unsafe { simd::x86::narrow_avx512(src, dst) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        Isa::Avx2 => unsafe { simd::x86::narrow_avx2(src, dst) },
        _ => {
            for (h, &x) in dst.iter_mut().zip(src) {
                *h = f32_to_f16(x);
            }
        }
    }
}

/// `dst[i] = f16_to_f32(src[i])` on the active tier.
///
/// # Panics
/// Panics if the lengths differ.
pub fn widen(src: &[u16], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "half::widen: length mismatch");
    match simd::active_isa() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `active_isa` only selects a tier the CPU supports.
        Isa::Avx512 => unsafe { simd::x86::widen_avx512(src, dst) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        Isa::Avx2 => unsafe { simd::x86::widen_avx2(src, dst) },
        _ => {
            for (x, &h) in dst.iter_mut().zip(src) {
                *x = f16_to_f32(h);
            }
        }
    }
}

/// Replaces every element by the value a cached row reads back as:
/// `widen(narrow(x))`.
pub fn round_slice(xs: &mut [f32]) {
    let mut buf = [0u16; 256];
    for chunk in xs.chunks_mut(buf.len()) {
        let h = &mut buf[..chunk.len()];
        narrow(chunk, h);
        widen(h, chunk);
    }
}

/// A dense row-major matrix of binary16 bits: a cached K or V panel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HalfMatrix {
    rows: usize,
    cols: usize,
    data: Vec<u16>,
}

impl HalfMatrix {
    /// A `rows × cols` matrix of `+0.0`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        HalfMatrix {
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    /// `m` narrowed element by element ([`narrow`]).
    pub fn from_matrix(m: &Matrix) -> Self {
        let mut h = HalfMatrix::zeros(m.rows(), m.cols());
        narrow(m.data(), &mut h.data);
        h
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The bits, row-major.
    pub fn data(&self) -> &[u16] {
        &self.data
    }

    /// The bits, row-major, writable.
    pub fn data_mut(&mut self) -> &mut [u16] {
        &mut self.data
    }

    /// Element `(r, c)`, widened.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(
            r < self.rows && c < self.cols,
            "HalfMatrix::get out of range"
        );
        f16_to_f32(self.data[r * self.cols + c])
    }

    /// Bytes of element storage.
    pub fn bytes(&self) -> usize {
        std::mem::size_of_val(self.data.as_slice())
    }

    /// The whole matrix, widened.
    pub fn widen(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        widen(&self.data, out.data_mut());
        out
    }

    /// Widens the first `rows` rows into `out`, re-shaped to `rows × cols`
    /// (its allocation is reused, as [`Matrix::reset_shape`] does).
    pub fn widen_rows_into(&self, rows: usize, out: &mut Matrix) {
        assert!(rows <= self.rows, "HalfMatrix::widen_rows_into: row count");
        out.reset_shape(rows, self.cols);
        widen(&self.data[..rows * self.cols], out.data_mut());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_values_narrow_and_widen() {
        let cases: [(f32, u16); 12] = [
            (0.0, 0x0000),
            (-0.0, 0x8000),
            (1.0, 0x3c00),
            (-2.5, 0xc100),
            (65504.0, 0x7bff),
            (65519.99, 0x7bff),
            (65520.0, 0x7c00),
            (f32::INFINITY, 0x7c00),
            (f32::NEG_INFINITY, 0xfc00),
            (f32::from_bits(0x3380_0000), 0x0001), // 2^-24, the least subnormal
            (f32::from_bits(0x3300_0000), 0x0000), // 2^-25 ties to even: zero
            (f32::from_bits(0x3300_0001), 0x0001), // just past it rounds up
        ];
        for (x, h) in cases {
            assert_eq!(f32_to_f16(x), h, "narrow {x:e}");
        }
        for h in [
            0x0000u16, 0x8000, 0x3c00, 0xc100, 0x7bff, 0x0001, 0x03ff, 0x0400,
        ] {
            assert_eq!(f32_to_f16(f16_to_f32(h)), h, "round trip {h:04x}");
        }
        assert_eq!(f16_to_f32(0x0001), f32::from_bits(0x3380_0000));
    }

    #[test]
    fn ties_round_to_even() {
        // 1 + 2^-11 is halfway between 1 and 1 + 2^-10: down to the even 1.
        assert_eq!(f32_to_f16(1.0 + f32::powi(2.0, -11)), 0x3c00);
        // 1 + 3·2^-11 is halfway between two odd/even neighbours: up.
        assert_eq!(f32_to_f16(1.0 + 3.0 * f32::powi(2.0, -11)), 0x3c02);
    }

    #[test]
    fn nans_stay_nans_with_the_quiet_bit() {
        assert_eq!(f32_to_f16(f32::from_bits(0x7f80_0001)), 0x7e00);
        assert_eq!(f32_to_f16(f32::from_bits(0xff80_2001)), 0xfe01);
        assert_eq!(f16_to_f32(0x7c01).to_bits(), 0x7fc0_2000);
        assert_eq!(f16_to_f32(0xfd00).to_bits(), 0xffe0_0000);
    }

    #[test]
    fn every_half_widens_and_narrows_back_to_itself() {
        for h in 0..=u16::MAX {
            let back = f32_to_f16(f16_to_f32(h));
            let quiet = if h & 0x7c00 == 0x7c00 && h & 0x3ff != 0 {
                h | 0x0200
            } else {
                h
            };
            assert_eq!(back, quiet, "{h:04x}");
        }
    }

    #[test]
    fn half_matrix_widens_a_row_prefix() {
        let m = Matrix::from_vec(3, 2, vec![1.0, -0.5, 2.0, 0.1, 4.0, 8.0]);
        let h = HalfMatrix::from_matrix(&m);
        assert_eq!(h.bytes(), 12);
        assert_eq!(h.get(1, 1), f16_to_f32(f32_to_f16(0.1)));
        let mut out = Matrix::full(5, 5, 9.0);
        h.widen_rows_into(2, &mut out);
        assert_eq!(out.shape(), (2, 2));
        assert_eq!(out.row(0), &[1.0, -0.5]);
        assert_eq!(out.get(1, 0), 2.0);
    }
}
