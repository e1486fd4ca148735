//! Fixed-point image planes (Q8.7).
//!
//! This module stores samples as `i16` in **Q8.7** fixed point (7
//! fraction bits, 1 LSB = 1/128 of a code value), which
//!
//! * represents every 8-bit code value *exactly* (`v · 128` for
//!   `v ∈ [0, 255]` stays below `i16::MAX = 32767`),
//! * leaves headroom for signed offsets (`±255` code values),
//! * and keeps per-pixel transforms to integer arithmetic over flat
//!   row-major slices.
//!
//! Two consumers use it: the LUT render's chessboard offsets
//! (`inframe_core::pattern::ChessLut`) and the fleet's photometric
//! transforms ([`crate::perturb`]), which quantize a capture, transform
//! it in raw units and hand the exact scorer the dequantized result.

use crate::plane::Plane;

/// Number of fraction bits in the Q8.7 format.
pub const FRAC_BITS: u32 = 7;

/// The fixed-point value of 1.0 (`1 << FRAC_BITS`).
pub const ONE: i16 = 1 << FRAC_BITS;

/// Magnitude of one least-significant bit in code-value units (1/128).
pub const LSB: f32 = 1.0 / ONE as f32;

/// Converts a code-value `f32` to Q8.7, rounding to nearest (ties to
/// even, the hardware rounding mode) and saturating at the `i16` range.
///
/// Rounding uses the classic shift trick instead of `round_ties_even`
/// (a libm call on baseline x86-64): adding and subtracting `1.5 * 2^23`
/// drops the fraction bits of any `|x| <= 2^22` f32 at the FPU's
/// ties-to-even mode, and the clamp keeps the scaled value inside that
/// window. Every step is a plain SSE2 op, which is what lets the
/// per-frame [`QPlane::quantize_from`] autovectorize.
#[inline]
pub fn quantize(v: f32) -> i16 {
    const SHIFT: f32 = 12_582_912.0; // 1.5 * 2^23
    let clamped = (v * ONE as f32).clamp(i16::MIN as f32, i16::MAX as f32);
    ((clamped + SHIFT) - SHIFT) as i32 as i16
}

/// Converts a Q8.7 raw value back to a code-value `f32` (exact — every
/// `i16` is representable in `f32`).
#[inline]
pub fn dequantize(raw: i16) -> f32 {
    raw as f32 * LSB
}

/// A 2-D plane of Q8.7 fixed-point samples, row-major.
///
/// Thin wrapper over a flat `Vec<i16>` (not [`Plane<i16>`]) so callers
/// state the fixed-point contract in the type; [`QPlane::quantize_from`]
/// refills it without reallocating.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QPlane {
    width: usize,
    height: usize,
    data: Vec<i16>,
}

impl QPlane {
    /// Creates a zeroed plane.
    pub fn new(width: usize, height: usize) -> Self {
        Self {
            width,
            height,
            data: vec![0; width * height],
        }
    }

    /// Quantizes an f32 plane into a new `QPlane`.
    pub fn from_plane(src: &Plane<f32>) -> Self {
        let mut q = Self::new(src.width(), src.height());
        q.quantize_from(src);
        q
    }

    /// Re-quantizes `src` into this plane, reshaping if needed. Steady
    /// state (same shape every call) never reallocates. Dispatches to
    /// the active [`crate::simd`] level (bit-identical at every level).
    pub fn quantize_from(&mut self, src: &Plane<f32>) {
        self.width = src.width();
        self.height = src.height();
        self.data.resize(src.samples().len(), 0);
        crate::simd::quantize_slice(crate::simd::active_level(), src.samples(), &mut self.data);
    }

    /// `(width, height)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// The flat row-major raw samples.
    pub fn samples(&self) -> &[i16] {
        &self.data
    }

    /// Mutable flat row-major raw samples.
    pub fn samples_mut(&mut self) -> &mut [i16] {
        &mut self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn code_values_are_exact() {
        for v in 0..=255 {
            let q = quantize(v as f32);
            assert_eq!(q, (v * ONE as i32) as i16);
            assert_eq!(dequantize(q), v as f32);
        }
    }

    #[test]
    fn quantize_saturates() {
        assert_eq!(quantize(1e6), i16::MAX);
        assert_eq!(quantize(-1e6), i16::MIN);
    }

    proptest! {
        /// f32 → Q8.7 → f32 round-trips within 1 LSB over the full
        /// signed code-value range.
        #[test]
        fn roundtrip_within_one_lsb(v in -255.0f32..255.0) {
            let back = dequantize(quantize(v));
            prop_assert!((back - v).abs() <= LSB, "{v} -> {back}");
        }
    }
}
