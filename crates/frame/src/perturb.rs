//! Receiver-side photometric capture perturbations in the quantized
//! Q8.7 domain.
//!
//! The batched demultiplexer (one scoring per *distinct* transform, then
//! one fold per noise class) and the sequential single-receiver
//! reference must see byte-identical captures, so perturbations are
//! defined on the **integer** [`crate::qplane`] raws rather than on f32
//! pixels: `dequantize(raw) = raw · 2⁻⁷` is exact and re-quantizes to
//! the same raw (the LSB is a power of two), which makes
//! [`materialized`] a lossless bridge — the f32 plane it returns is what
//! a sequential receiver pushes through `push_capture`, and quantizing
//! it back reproduces the transformed raws the batch path scored.
//!
//! A transform is `clamp(round(raw · gain) + awb)` followed by an
//! optional occlusion rectangle painted at a fixed level — the cheap
//! affine/masking algebra the fleet simulator draws per receiver. The
//! **photometric identity** (unity gain, zero AWB) copies raws verbatim,
//! with *no* clamp — so out-of-code-range synthetic inputs survive the
//! round trip bit-exactly.

use crate::plane::Plane;
use crate::qplane::{self, QPlane};

/// Unity gain in the Q4.12 gain fixed point used by
/// [`CaptureTransform::gain_q12`].
pub const GAIN_ONE_Q12: i32 = 1 << 12;

/// Largest in-code-range raw: code value 255 in Q8.7.
pub const CODE_MAX_RAW: i16 = 255 * qplane::ONE;

/// An opaque rectangle (lens blockage, a passer-by) painted over the
/// capture after the photometric transform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OcclusionRect {
    /// Left edge in sensor pixels.
    pub x0: usize,
    /// Top edge in sensor pixels.
    pub y0: usize,
    /// Width in sensor pixels.
    pub w: usize,
    /// Height in sensor pixels.
    pub h: usize,
    /// Fill level as a Q8.7 raw (e.g. `quantize(40.0)` for a dark
    /// blocker).
    pub level_raw: i16,
}

impl OcclusionRect {
    /// Whether the rectangle covers zero pixels (treated as absent).
    pub fn is_empty(&self) -> bool {
        self.w == 0 || self.h == 0
    }
}

/// One receiver's photometric difference from the shared capture:
/// exposure gain, AWB offset, and an optional occlusion mask, all in the
/// integer Q8.7 domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaptureTransform {
    /// Exposure/AE gain in Q4.12 fixed point ([`GAIN_ONE_Q12`] = 1.0).
    pub gain_q12: i32,
    /// AWB / black-level offset added after the gain, in Q8.7 raws.
    pub awb_raw: i16,
    /// Optional occlusion rectangle painted last.
    pub occlusion: Option<OcclusionRect>,
}

impl CaptureTransform {
    /// The do-nothing transform.
    pub const IDENTITY: Self = Self {
        gain_q12: GAIN_ONE_Q12,
        awb_raw: 0,
        occlusion: None,
    };

    /// Whether gain and AWB leave pixels untouched (occlusion may still
    /// be present).
    pub fn is_photometric_identity(&self) -> bool {
        self.gain_q12 == GAIN_ONE_Q12 && self.awb_raw == 0
    }

    /// The gain+AWB map on one raw. The photometric identity copies the
    /// raw verbatim (no clamp); anything else rounds the gain product
    /// half-up, adds the AWB offset, and clamps to the code range.
    #[inline]
    pub fn apply_raw_value(&self, raw: i16) -> i16 {
        if self.is_photometric_identity() {
            return raw;
        }
        let scaled = (raw as i64 * self.gain_q12 as i64 + (GAIN_ONE_Q12 as i64 / 2))
            .div_euclid(GAIN_ONE_Q12 as i64);
        (scaled + self.awb_raw as i64).clamp(0, CODE_MAX_RAW as i64) as i16
    }

    /// Applies the full transform in place.
    pub fn apply_raw_in_place(&self, plane: &mut QPlane) {
        let (w, h) = plane.shape();
        if !self.is_photometric_identity() {
            for raw in plane.samples_mut() {
                *raw = self.apply_raw_value(*raw);
            }
        }
        if let Some(o) = self.occlusion {
            if !o.is_empty() {
                for y in o.y0..(o.y0 + o.h).min(h) {
                    if o.x0 >= w {
                        break;
                    }
                    let x1 = (o.x0 + o.w).min(w);
                    plane.samples_mut()[y * w + o.x0..y * w + x1].fill(o.level_raw);
                }
            }
        }
    }
}

/// What a receiver with transform `t` actually captures, as an f32
/// plane: quantize the shared capture, transform the raws, dequantize.
/// This is the **canonical materialization**, used by the batch scorer
/// and by the per-receiver reference alike, which is what makes batch
/// scoring bit-identical to the per-receiver loop. In-place,
/// allocation-free variant; `qscratch` is reshaped as needed.
pub fn materialize_in_place(plane: &mut Plane<f32>, t: &CaptureTransform, qscratch: &mut QPlane) {
    qscratch.quantize_from(plane);
    t.apply_raw_in_place(qscratch);
    for (dst, &raw) in plane.samples_mut().iter_mut().zip(qscratch.samples()) {
        *dst = qplane::dequantize(raw);
    }
}

/// Allocating convenience wrapper over [`materialize_in_place`].
pub fn materialized(base: &Plane<f32>, t: &CaptureTransform) -> Plane<f32> {
    let mut out = base.clone();
    let mut q = QPlane::new(base.width(), base.height());
    materialize_in_place(&mut out, t, &mut q);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qplane::quantize;

    #[test]
    fn identity_copies_raws_verbatim_even_out_of_range() {
        let t = CaptureTransform::IDENTITY;
        // Out-of-code-range raws survive — no clamp on the identity.
        for raw in [-300i16, -1, 0, 77, CODE_MAX_RAW, i16::MAX] {
            assert_eq!(t.apply_raw_value(raw), raw);
        }
        let mut q = QPlane::new(4, 3);
        q.samples_mut()
            .copy_from_slice(&[-5, 0, 1, 2, 100, 200, 300, 400, 32000, 32640, 12345, -7]);
        let mut out = q.clone();
        t.apply_raw_in_place(&mut out);
        assert_eq!(out.samples(), q.samples());
    }

    #[test]
    fn gain_rounds_half_up_and_clamps() {
        let t = CaptureTransform {
            gain_q12: GAIN_ONE_Q12 * 2,
            awb_raw: 0,
            occlusion: None,
        };
        assert_eq!(t.apply_raw_value(100), 200);
        assert_eq!(t.apply_raw_value(20000), CODE_MAX_RAW); // clamped
        let half = CaptureTransform {
            gain_q12: GAIN_ONE_Q12 / 2,
            awb_raw: 0,
            occlusion: None,
        };
        assert_eq!(half.apply_raw_value(101), 51); // 50.5 rounds up
    }

    #[test]
    fn occlusion_paints_clipped_rectangle() {
        let t = CaptureTransform {
            occlusion: Some(OcclusionRect {
                x0: 2,
                y0: 1,
                w: 10, // extends past the right edge — clipped
                h: 2,
                level_raw: quantize(40.0),
            }),
            ..CaptureTransform::IDENTITY
        };
        let base = Plane::filled(4, 4, 127.0);
        let cap = materialized(&base, &t);
        for (i, (x, y, v)) in cap.iter_xy().enumerate() {
            let inside = x >= 2 && (1..3).contains(&y);
            let want = if inside { 40.0 } else { 127.0 };
            assert_eq!(v, want, "pixel {i} at ({x},{y})");
        }
    }

    #[test]
    fn materialization_round_trips_through_quantization() {
        let base = Plane::from_fn(16, 9, |x, y| ((x * 31 + y * 7) % 256) as f32 * 0.93);
        let t = CaptureTransform {
            gain_q12: GAIN_ONE_Q12 + 300,
            awb_raw: -64,
            occlusion: None,
        };
        let cap = materialized(&base, &t);
        // Quantizing the materialized capture reproduces the transformed
        // raws exactly — the lossless bridge batch scoring relies on.
        let mut want = QPlane::from_plane(&base);
        t.apply_raw_in_place(&mut want);
        assert_eq!(QPlane::from_plane(&cap).samples(), want.samples());
    }
}
