//! Fixed-point image planes (Q8.7) and flat, autovectorizable kernels.
//!
//! The receiver's hot path — smooth, subtract, correlate — does not need
//! f32 precision: display code values are 8-bit integers and the paper's
//! chessboard amplitudes (δ = 20–50) tower over any rounding error. This
//! module stores samples as `i16` in **Q8.7** fixed point (7 fraction
//! bits, 1 LSB = 1/128 of a code value), which
//!
//! * represents every 8-bit code value *exactly* (`v · 128` for
//!   `v ∈ [0, 255]` stays below `i16::MAX = 32767`),
//! * leaves headroom for signed high-pass residuals (`±255` code values),
//! * and keeps the inner loops to integer adds/subtracts over flat
//!   row-major slices — the shape LLVM's autovectorizer turns into SIMD
//!   without any intrinsics.
//!
//! The centerpiece is [`sliding_box_blur_into`]: an **O(1)-per-pixel**
//! box blur using running row/column window sums, radius-independent,
//! with the same replicate-border semantics as
//! [`crate::filter::box_blur`]. Unlike the f64 summed-area-table blur in
//! [`crate::integral`], the sliding-window blur never materializes a padded
//! copy and works entirely in integer arithmetic, so its result is the
//! *exactly rounded* window mean of the quantized input — which is what
//! makes the quantized demodulation path bit-identical at every worker
//! count.

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
/// Thin wrapper over a flat `Vec<i16>` (not [`Plane<i16>`]) so the hot
/// kernels can state their fixed-point contract in the type and keep
/// reallocation-free `*_into` variants for streaming reuse.
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

    /// Plane width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Plane height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// The flat row-major raw samples.
    pub fn samples(&self) -> &[i16] {
        &self.data
    }

    /// Mutable flat row-major raw samples.
    pub fn samples_mut(&mut self) -> &mut [i16] {
        &mut self.data
    }

    /// One raw row.
    pub fn row(&self, y: usize) -> &[i16] {
        &self.data[y * self.width..(y + 1) * self.width]
    }

    /// Raw sample at `(x, y)`.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> i16 {
        debug_assert!(x < self.width && y < self.height);
        self.data[y * self.width + x]
    }

    /// Writes raw sample at `(x, y)`.
    #[inline]
    pub fn put(&mut self, x: usize, y: usize, raw: i16) {
        debug_assert!(x < self.width && y < self.height);
        self.data[y * self.width + x] = raw;
    }

    /// Reshapes (zero-filling) without shrinking capacity.
    pub fn reshape(&mut self, width: usize, height: usize) {
        self.width = width;
        self.height = height;
        self.data.clear();
        self.data.resize(width * height, 0);
    }
}

/// Writes `a − b` elementwise into `out` with saturating arithmetic
/// (reshaping `out` to match). For code-value inputs (`|v| ≤ 255`) the
/// subtraction is exact — `±255·128` fits `i16` — and saturation only
/// guards pathological inputs.
///
/// # Panics
/// Panics if `a` and `b` shapes differ.
pub fn saturating_sub_into(a: &QPlane, b: &QPlane, out: &mut QPlane) {
    assert_eq!(a.shape(), b.shape(), "operands must be same-shaped");
    out.reshape(a.width, a.height);
    for ((o, &x), &y) in out.data.iter_mut().zip(&a.data).zip(&b.data) {
        *o = x.saturating_sub(y);
    }
}

/// Reusable working memory for [`sliding_box_blur_into`]: the horizontal
/// window sums (one `i32` per pixel) and the per-column running vertical
/// accumulators. Grows to the largest frame filtered, then is reused.
#[derive(Debug, Clone, Default)]
pub struct QBlurScratch {
    /// Horizontal pass output: window sums of width `2r+1`, row-major.
    pub(crate) rowsum: Vec<i32>,
    /// Vertical running accumulators, one per column (`i32` — see
    /// [`init_column_sums`] for the overflow bound).
    pub(crate) col: Vec<i32>,
}

/// Rounded division for the window mean: nearest integer, ties away from
/// zero (matches [`quantize`]'s rounding of the real-valued mean).
#[inline]
pub(crate) fn div_round(n: i64, d: i64) -> i64 {
    debug_assert!(d > 0);
    if n >= 0 {
        (n + d / 2) / d
    } else {
        -((-n + d / 2) / d)
    }
}

/// O(1)-per-pixel sliding-window box blur with replicate borders,
/// allocation-free after the first call.
///
/// Two passes, both running-window sums:
///
/// 1. **Horizontal**: per row, a width-`2r+1` window sum slides left to
///    right; entering/leaving taps use clamped indices, which reproduces
///    replicate-border semantics exactly.
/// 2. **Vertical**: per column, a height-`2r+1` running sum over the
///    horizontal sums, advanced one row per output row.
///
/// The output sample is the window sum divided (round-to-nearest) by the
/// window area — the exactly rounded mean, independent of radius and of
/// how rows are partitioned across threads. Cost per pixel is a handful
/// of integer adds regardless of `r` (the reference
/// [`crate::filter::box_blur`] is O(r) per pixel; the SAT blur is O(1)
/// but builds a padded f64 table).
///
/// # Panics
/// Panics if `src` is empty.
pub fn sliding_box_blur_into(src: &QPlane, r: usize, scratch: &mut QBlurScratch, out: &mut QPlane) {
    let (w, h) = src.shape();
    assert!(w > 0 && h > 0, "cannot blur an empty plane");
    out.reshape(w, h);
    if r == 0 {
        out.samples_mut().copy_from_slice(src.samples());
        return;
    }
    horizontal_window_sums(src, r, &mut scratch.rowsum);
    // Pass 2: vertical running sums over the horizontal sums (i32 — the
    // radius bound asserted by `init_column_sums` keeps them exact), one
    // row of output per step.
    let area = ((2 * r + 1) * (2 * r + 1)) as i64;
    init_column_sums(&scratch.rowsum, w, h, r, &mut scratch.col);
    let rowsum = &scratch.rowsum;
    let col = &mut scratch.col;
    // The closing division is the one per-pixel operation a CPU cannot
    // pipeline (integer division: ~20–40 cycles, never vectorized), so
    // every practical radius takes a precomputed round-up reciprocal
    // instead: with m = ⌊2⁴⁰ / 2·area⌋ + 1, `(2·|n| + area)·m >> 40`
    // equals ⌊(2·|n| + area) / 2·area⌋ — the round-half-up quotient, i.e.
    // `div_round(|n|, area)` — exactly, for every |n| ≤ area·i16::MAX,
    // provided area ≤ 2896 (Granlund–Montgomery round-up method: the
    // numerator bound area·65535 stays below 2⁴⁰/(2·area)). Exactness is
    // pinned against `div_round` by unit and property tests below. The
    // division itself lives in [`crate::simd::blur_mean_row`], which
    // runs the same arithmetic at the active SIMD level.
    let use_magic = area <= crate::simd::MAX_MEAN_AREA;
    let level = crate::simd::active_level();
    for y in 0..h {
        let dst = &mut out.samples_mut()[y * w..(y + 1) * w];
        if use_magic {
            crate::simd::blur_mean_row(level, col, area, dst);
        } else {
            for (o, &n) in dst.iter_mut().zip(col.iter()) {
                *o = div_round(n as i64, area) as i16;
            }
        }
        if y + 1 < h {
            let enter = &rowsum[(y + 1 + r).min(h - 1) * w..(y + 1 + r).min(h - 1) * w + w];
            let leave = &rowsum[y.saturating_sub(r) * w..y.saturating_sub(r) * w + w];
            for ((c, &e), &l) in col.iter_mut().zip(enter).zip(leave) {
                *c += e - l;
            }
        }
    }
}

/// Pass 1 of the sliding blur over a horizontal band: width-`2r+1`
/// window sums with replicate borders, row by row (i32: 255·128·(2r+1)
/// needs r < 410 even at the full code range — far beyond any smoothing
/// radius; the demux clamps r to 8).
///
/// The sums are purely row-local, so disjoint bands of rows can be
/// filled concurrently — `band` holds whole rows of width `w` and `out`
/// must be the same length. Building block for the band-parallel
/// high-pass prefix build in [`crate::integral`].
///
/// # Panics
/// Panics if `band` is not a whole number of `w`-sample rows or `out`
/// has a different length.
pub fn horizontal_window_sums_band(band: &[i16], w: usize, r: usize, out: &mut [i32]) {
    assert!(
        w > 0 && band.len().is_multiple_of(w),
        "band must hold whole rows"
    );
    assert_eq!(band.len(), out.len(), "output must match the band");
    let level = crate::simd::active_level();
    for (row, dst) in band.chunks_exact(w).zip(out.chunks_exact_mut(w)) {
        crate::simd::window_sums_row(level, row, r, dst);
    }
}

/// Full-plane wrapper over [`horizontal_window_sums_band`] (the sliding
/// blur's pass 1).
pub(crate) fn horizontal_window_sums(src: &QPlane, r: usize, rowsum: &mut Vec<i32>) {
    let (w, h) = src.shape();
    rowsum.clear();
    rowsum.resize(w * h, 0);
    horizontal_window_sums_band(src.samples(), w, r, rowsum);
}

/// Seeds the vertical running accumulators for output row 0: the
/// replicate-border window sum of rows `-r..=r` per column.
///
/// The accumulators are `i32`: a column sum is at most
/// `(2r+1)² · 32768`, which stays below `2³¹` for every `r ≤ 127` —
/// asserted here so the bound is load-bearing, not folklore (practical
/// smoothing radii are ≤ 26, the reciprocal-mean ceiling).
pub(crate) fn init_column_sums(rowsum: &[i32], w: usize, h: usize, r: usize, col: &mut Vec<i32>) {
    assert!(r <= 127, "radius beyond 127 would overflow i32 column sums");
    col.clear();
    col.resize(w, 0);
    for x in 0..w {
        let mut s = (r as i32 + 1) * rowsum[x];
        for j in 1..=r {
            s += rowsum[j.min(h - 1) * w + x];
        }
        col[x] = s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::box_blur;
    use proptest::prelude::*;

    fn sliding_box_blur(src: &QPlane, r: usize) -> QPlane {
        let mut out = QPlane::new(src.width(), src.height());
        sliding_box_blur_into(src, r, &mut QBlurScratch::default(), &mut out);
        out
    }

    fn hash_plane(w: usize, h: usize, seed: u64) -> Plane<f32> {
        Plane::from_fn(w, h, |x, y| {
            let v = (x as u64)
                .wrapping_mul(0x9E37_79B9)
                .wrapping_add((y as u64).wrapping_mul(0x85EB_CA6B))
                .wrapping_add(seed.wrapping_mul(0xC2B2_AE35));
            ((v >> 5) % 256) as f32
        })
    }

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

    #[test]
    fn saturating_sub_matches_exact_difference() {
        let a = QPlane::from_plane(&hash_plane(13, 7, 1));
        let b = QPlane::from_plane(&hash_plane(13, 7, 2));
        let mut out = QPlane::new(13, 7);
        saturating_sub_into(&a, &b, &mut out);
        for i in 0..a.samples().len() {
            assert_eq!(
                out.samples()[i] as i32,
                a.samples()[i] as i32 - b.samples()[i] as i32
            );
        }
    }

    #[test]
    fn zero_radius_blur_is_identity() {
        let q = QPlane::from_plane(&hash_plane(9, 5, 3));
        assert_eq!(sliding_box_blur(&q, 0), q);
    }

    #[test]
    fn blur_preserves_constant_planes() {
        let q = QPlane::from_plane(&Plane::filled(19, 11, 200.0));
        for r in 1..=8 {
            assert_eq!(sliding_box_blur(&q, r), q, "r = {r}");
        }
    }

    #[test]
    fn blur_radius_larger_than_plane_averages_with_replication() {
        // 3×2 plane, r = 8: every window replicates heavily but stays the
        // exactly rounded mean of the clamped taps.
        let p = Plane::from_fn(3, 2, |x, y| (x * 100 + y * 30) as f32);
        let q = QPlane::from_plane(&p);
        let got = sliding_box_blur(&q, 8);
        let reference = box_blur(&p, 8);
        for y in 0..2 {
            for x in 0..3 {
                let diff = (dequantize(got.get(x, y)) - reference.get(x, y)).abs();
                assert!(diff <= LSB, "({x},{y}): diff {diff}");
            }
        }
    }

    #[test]
    fn blur_into_reuses_scratch_across_shapes() {
        let mut scratch = QBlurScratch::default();
        let mut out = QPlane::new(1, 1);
        for (w, h, r) in [(23usize, 17usize, 3usize), (9, 31, 1), (23, 17, 8)] {
            let q = QPlane::from_plane(&hash_plane(w, h, (w * h) as u64));
            sliding_box_blur_into(&q, r, &mut scratch, &mut out);
            assert_eq!(out, sliding_box_blur(&q, r), "{w}x{h} r={r}");
        }
    }

    /// The blur's reciprocal quotient as implemented in pass 2.
    fn magic_quotient(n: i64, area: i64) -> i64 {
        let magic = (1u64 << 40) / (2 * area as u64) + 1;
        let q = (((2 * n.unsigned_abs() + area as u64) * magic) >> 40) as i64;
        if n < 0 {
            -q
        } else {
            q
        }
    }

    #[test]
    fn magic_division_matches_div_round_at_boundaries() {
        // Dense sweep near zero plus the extreme numerators each radius can
        // actually produce (|col sum| ≤ area · i16::MAX).
        for r in 0..=8usize {
            let area = ((2 * r + 1) * (2 * r + 1)) as i64;
            let bound = area * i16::MAX as i64;
            for n in -(4 * area)..=(4 * area) {
                assert_eq!(magic_quotient(n, area), div_round(n, area), "n={n} r={r}");
            }
            for n in (bound - 2 * area)..=bound {
                assert_eq!(magic_quotient(n, area), div_round(n, area), "n={n} r={r}");
                assert_eq!(
                    magic_quotient(-n, area),
                    div_round(-n, area),
                    "n={} r={r}",
                    -n
                );
            }
        }
    }

    proptest! {
        /// The reciprocal division is exact over the full numerator range
        /// of every supported radius.
        #[test]
        fn magic_division_matches_div_round(
            r in 0usize..27,
            frac in -1.0f64..1.0,
        ) {
            let area = ((2 * r + 1) * (2 * r + 1)) as i64;
            let n = (frac * (area * i16::MAX as i64) as f64) as i64;
            prop_assert_eq!(magic_quotient(n, area), div_round(n, area), "n={} area={}", n, area);
        }

        /// Satellite: f32 → Q8.7 → f32 round-trips within 1 LSB over the
        /// full signed code-value range.
        #[test]
        fn roundtrip_within_one_lsb(v in -255.0f32..255.0) {
            let back = dequantize(quantize(v));
            prop_assert!((back - v).abs() <= LSB, "{v} -> {back}");
        }

        /// Satellite: the sliding-window blur matches the reference
        /// `filter::box_blur` within 1 LSB for radii 0..8 on random
        /// integer-valued planes.
        #[test]
        fn sliding_blur_matches_reference(
            w in 3usize..24,
            h in 3usize..24,
            r in 0usize..8,
            seed in any::<u64>(),
        ) {
            let p = hash_plane(w, h, seed);
            let q = QPlane::from_plane(&p);
            let got = sliding_box_blur(&q, r);
            let reference = box_blur(&p, r);
            for y in 0..h {
                for x in 0..w {
                    let diff = (dequantize(got.get(x, y)) - reference.get(x, y)).abs();
                    prop_assert!(diff <= LSB, "r={r} ({x},{y}): diff {diff}");
                }
            }
        }
    }
}
