//! Exact 8-bit gamma encode without a per-pixel `powf`.
//!
//! The capture's last step maps clamped linear light `x ∈ [0, 1]` to the
//! code `linear_to_code(x).round().clamp(0, 255)`. Over the f32 values in
//! `(0, 1]` that map is monotone and steps exactly 255 times, so 255
//! thresholds describe it completely: `t[k − 1]` is the least f32 in
//! `(0, 1]` whose code is `≥ k`, and the code of any `x` in `(0, 1]` is the
//! number of thresholds `≤ x`. The thresholds are found once, by bisection
//! over f32 bit patterns (positive floats order like their bits).
//!
//! A lookup takes two steps. The top 17 bits of `x`'s pattern
//! (`x.to_bits() >> 15`) pick one of 32,513 buckets, each `2¹⁵`
//! consecutive floats wide, and a byte table gives the number of
//! thresholds `≤` the bucket's first float. The thresholds are far enough
//! apart that no bucket holds more than one of them past its first float
//! (the build asserts it), so one compare of `x` against the next
//! threshold finishes the count. `±0.0`, NaN and values above 1 take the
//! `powf` path, which keeps their results (`-0.0` stays `-0.0`) exactly as
//! they were.
//!
//! The exhaustive test `gamma_table_matches_powf_on_every_f32_in_unit_interval`
//! (ignored by default; 7–12 s in release) checks every f32 in `(0, 1]`.

use inframe_frame::color;
use std::sync::OnceLock;

/// Bit pattern of `1.0f32`, the largest input the table covers.
const ONE_BITS: u32 = 0x3F80_0000;

/// A bucket is the floats sharing their pattern's bits above this many.
const BUCKET_SHIFT: u32 = 15;

/// Buckets from `+0.0` through the one holding `1.0`.
const BUCKETS: usize = (ONE_BITS >> BUCKET_SHIFT) as usize + 1;

/// The reference encode: `linear_to_code(x)` rounded and clamped to an
/// 8-bit code.
#[inline]
fn encode_powf(x: f32) -> f32 {
    color::linear_to_code(x).round().clamp(0.0, 255.0)
}

/// The threshold table (see the module docs).
#[derive(Debug)]
pub(crate) struct GammaTable {
    /// `thresholds[k − 1]` is the least f32 in `(0, 1]` encoding to a code
    /// `≥ k`; `thresholds[255]` is `+∞`, which no input reaches.
    thresholds: [f32; 256],
    /// `bucket[b]` is the number of thresholds `≤` bucket `b`'s first
    /// float, `f32::from_bits(b << BUCKET_SHIFT)`.
    bucket: [u8; BUCKETS],
}

impl GammaTable {
    fn build() -> Self {
        let mut thresholds = [f32::INFINITY; 256];
        for (i, t) in thresholds[..255].iter_mut().enumerate() {
            let k = (i + 1) as f32;
            // Least bit pattern in [1, ONE_BITS] whose code is ≥ k, or the
            // first f32 past 1.0 if there is none.
            let (mut lo, mut hi) = (1u32, ONE_BITS + 1);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if encode_powf(f32::from_bits(mid)) >= k {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            *t = f32::from_bits(lo);
        }
        let mut bucket = [0u8; BUCKETS];
        let mut below = 0;
        for (b, count) in bucket.iter_mut().enumerate() {
            let first = (b as u32) << BUCKET_SHIFT;
            while thresholds[below].to_bits() <= first {
                below += 1;
            }
            *count = u8::try_from(below).expect("at most 255 thresholds");
            let last = first + (1 << BUCKET_SHIFT) - 1;
            assert!(
                thresholds.get(below + 1).is_none_or(|t| t.to_bits() > last),
                "bucket {b} holds more than one threshold past its first float"
            );
        }
        Self { thresholds, bucket }
    }

    /// The 8-bit code of clamped linear light `x`, bit-identical to
    /// [`encode_powf`] for every input.
    #[inline]
    pub(crate) fn encode(&self, x: f32) -> f32 {
        if !(x > 0.0 && x <= 1.0) {
            return encode_powf(x);
        }
        let below = self.bucket[(x.to_bits() >> BUCKET_SHIFT) as usize];
        let at = x >= self.thresholds[below as usize];
        (u32::from(below) + u32::from(at)) as f32
    }
}

/// The process-wide table, built on first use.
pub(crate) fn table() -> &'static GammaTable {
    static TABLE: OnceLock<GammaTable> = OnceLock::new();
    TABLE.get_or_init(GammaTable::build)
}

#[cfg(test)]
mod tests {
    use super::*;
    use inframe_frame::simd;

    #[test]
    fn gamma_encode_edge_cases() {
        let t = table();
        assert_eq!(t.encode(-0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(t.encode(0.0).to_bits(), 0.0f32.to_bits());
        assert!(t.encode(f32::NAN).is_nan());
        assert_eq!(t.encode(1.0), 255.0);
        assert_eq!(t.encode(f32::from_bits(1)), 0.0);
        assert_eq!(t.encode(2.0), encode_powf(2.0));
    }

    #[test]
    fn gamma_thresholds_sit_exactly_on_code_steps() {
        let t = table();
        for k in 1..=255usize {
            let at = t.thresholds[k - 1];
            let below = f32::from_bits(at.to_bits() - 1);
            assert_eq!(encode_powf(at), k as f32, "threshold {k}");
            assert_eq!(encode_powf(below), (k - 1) as f32, "below threshold {k}");
            assert_eq!(t.encode(at), k as f32, "table at threshold {k}");
            assert_eq!(t.encode(below), (k - 1) as f32, "table below threshold {k}");
        }
    }

    #[test]
    #[ignore = "exhaustive over 2^30 floats; run in release"]
    fn gamma_table_matches_powf_on_every_f32_in_unit_interval() {
        let t = table();
        // Compiled for the active SIMD level, as inside the noise loop.
        let mismatches = simd::run_at(
            simd::active_level(),
            #[inline(always)]
            || {
                (1..=ONE_BITS)
                    .map(f32::from_bits)
                    .filter(|&x| t.encode(x).to_bits() != encode_powf(x).to_bits())
                    .count()
            },
        );
        assert_eq!(mismatches, 0);
    }
}
