//! Explicit SIMD kernel backend with one-time runtime dispatch.
//!
//! The quantized pipeline's hot loops — f32→Q8.7 quantization, the fused
//! high-pass + prefix-sum build, the sliding-blur window mean, the
//! `ChessLut` chessboard patch and the demodulator's segment-sum scoring
//! — previously relied on LLVM's autovectorizer. This module supplies
//! hand-written `std::arch` paths (SSE2 and AVX2) for them, and for the
//! rateless code's GF(2⁸) row operations, next to a portable scalar
//! path, selected once per process:
//!
//! * [`active_level`] reads the `INFRAME_SIMD` environment variable
//!   (`off` | `sse2` | `avx2`), clamps it to what
//!   `is_x86_feature_detected!` reports, and caches the result in an
//!   atomic — later calls are a single relaxed load.
//! * [`force_level`] overrides the cached level (tests use it to prove
//!   bit-identity across levels); `force_level(None)` re-arms detection.
//!
//! **The scalar path is the oracle.** Every vector kernel is constructed
//! to be *bit-identical* to the scalar quantized kernels in
//! [`crate::qplane`] / [`crate::integral`] for all pipeline-reachable
//! inputs, and the equivalence suite pins that claim at every forced
//! level. The interesting identities:
//!
//! * **Quantization** uses the same multiply → clamp → `±1.5·2²³` shift
//!   trick; `_mm{,256}_cvtps_epi32` on the already-integral result is
//!   exact regardless of rounding mode.
//! * **Window means** evaluate the scalar round-up reciprocal
//!   (`(2|n|+area)·magic >> 40`) verbatim in u64 lane arithmetic: the
//!   40-bit `magic` is split `mh·2³² + ml` and the product assembled
//!   from two 32×32→64 `mul_epu32`s. Since `t = 2|n|+area` and `magic`
//!   are inversely proportional through `area`, the true product stays
//!   ≲ 2⁵⁶, so neither partial product overflows — the lanes compute
//!   the *same expression* as the scalar oracle, not an approximation
//!   of it.
//! * **Window sums** (blur pass 1) replace the sequential sliding
//!   recurrence with a `(2r+1)`-tap widen-add convolution over the row
//!   interior — a reassociation of the same exact i32 sum.
//! * **High-pass residuals** use `subs_epi16`, the same saturating
//!   subtract as the scalar `saturating_sub`; prefix sums are log-step
//!   Hillis–Steele scans whose wrapping `i32`/`i64` adds match the scalar
//!   running sums term for term.
//! * **Lane-width invariants**: vector bodies process 16/8/4-lane groups
//!   and hand the remainder to the *same* scalar core that defines the
//!   oracle, so a row of any width splits into identical arithmetic.
//! * **GF(2⁸) row kernels** ([`gf256_mul_add_prefix`],
//!   [`gf256_scale_prefix`]) serve the rateless code in `inframe-link`.
//!   The product `c·b` is `low[b & 15] ⊕ high[b >> 4]` over factor `c`'s
//!   two 16-entry nibble tables, so a byte shuffle (`pshufb`) looks up 32
//!   bytes at once — exact, not approximate. Their scalar oracle lives in
//!   `inframe_code::gf256` (this crate does not depend on it), so the
//!   vector bodies return how far they got and the caller finishes the
//!   row there. Only the AVX2 level has a body: the shuffle needs SSSE3,
//!   which the SSE2 level does not assume, so SSE2 runs the scalar form.
//!
//! All `unsafe` in the workspace is confined to this module (the crate
//! root keeps `#![deny(unsafe_code)]`); every intrinsic body is wrapped
//! by a safe dispatcher that clamps the requested level to the detected
//! one, so callers can never reach an instruction the CPU lacks.

#![allow(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::sync::atomic::{AtomicU8, Ordering};

/// A dispatchable kernel implementation tier, ordered by capability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum SimdLevel {
    /// Portable scalar Rust — the bit-exact oracle, available everywhere.
    Scalar = 1,
    /// 128-bit SSE2 paths (baseline on every `x86_64`).
    Sse2 = 2,
    /// 256-bit AVX2 paths (gathers, 16-lane i16 arithmetic).
    Avx2 = 3,
}

impl SimdLevel {
    /// Parses an `INFRAME_SIMD` value. Unknown strings yield `None`
    /// (auto-detect).
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "scalar" | "none" | "0" => Some(Self::Scalar),
            "sse2" | "sse" => Some(Self::Sse2),
            "avx2" | "avx" => Some(Self::Avx2),
            _ => None,
        }
    }

    /// Stable lower-case name (used in bench metadata and test labels).
    pub fn name(self) -> &'static str {
        match self {
            Self::Scalar => "scalar",
            Self::Sse2 => "sse2",
            Self::Avx2 => "avx2",
        }
    }

    fn from_u8(raw: u8) -> Option<Self> {
        match raw {
            1 => Some(Self::Scalar),
            2 => Some(Self::Sse2),
            3 => Some(Self::Avx2),
            _ => None,
        }
    }

    /// All levels this machine can execute, weakest first.
    pub fn supported() -> impl Iterator<Item = Self> {
        [Self::Scalar, Self::Sse2, Self::Avx2]
            .into_iter()
            .filter(|&l| l <= detected_level())
    }
}

/// 0 = undetermined (next [`active_level`] call re-runs detection).
static ACTIVE: AtomicU8 = AtomicU8::new(0);

/// The best level the running CPU supports, independent of overrides.
pub fn detected_level() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            SimdLevel::Avx2
        } else {
            SimdLevel::Sse2
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        SimdLevel::Scalar
    }
}

/// The level the kernels dispatch on: `INFRAME_SIMD` (if set and
/// recognized) clamped to [`detected_level`], cached after the first
/// call. Later calls are one relaxed atomic load.
pub fn active_level() -> SimdLevel {
    match SimdLevel::from_u8(ACTIVE.load(Ordering::Relaxed)) {
        Some(level) => level,
        None => {
            let level = level_from_env();
            ACTIVE.store(level as u8, Ordering::Relaxed);
            level
        }
    }
}

fn level_from_env() -> SimdLevel {
    let detected = detected_level();
    match std::env::var("INFRAME_SIMD") {
        Ok(value) => SimdLevel::parse(&value).unwrap_or(detected).min(detected),
        Err(_) => detected,
    }
}

/// Overrides the dispatch level (clamped to the detected ceiling), or
/// re-arms environment/CPU detection with `None`.
///
/// The override is process-global; it exists so the equivalence and
/// allocation suites can pin every tier. All tiers are bit-identical, so
/// concurrent tests observing a forced level still see identical
/// numerics.
pub fn force_level(level: Option<SimdLevel>) {
    let raw = level.map_or(0, |l| l.min(detected_level()) as u8);
    ACTIVE.store(raw, Ordering::Relaxed);
}

/// Largest window area the reciprocal/f64 mean kernels accept
/// (`(2r+1)² ≤ 2896` ⇔ `r ≤ 26`; the demodulator clamps r to 8).
pub const MAX_MEAN_AREA: i64 = 2896;

// --------------------------------------------------------------------
// f32 → Q8.7 quantization
// --------------------------------------------------------------------

const SHIFT: f32 = 12_582_912.0; // 1.5 * 2^23, the round-to-int bias

fn quantize_slice_scalar(src: &[f32], dst: &mut [i16]) {
    for (d, &v) in dst.iter_mut().zip(src) {
        *d = crate::qplane::quantize(v);
    }
}

/// Quantizes `src` into `dst` ([`crate::qplane::quantize`] per sample),
/// bit-identical at every level for finite inputs.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn quantize_slice(level: SimdLevel, src: &[f32], dst: &mut [i16]) {
    assert_eq!(src.len(), dst.len(), "quantize buffers must match");
    match level.min(detected_level()) {
        SimdLevel::Scalar => quantize_slice_scalar(src, dst),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the clamp above guarantees the feature is present.
        SimdLevel::Sse2 => unsafe { x86::quantize_slice_sse2(src, dst) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        SimdLevel::Avx2 => unsafe { x86::quantize_slice_avx2(src, dst) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => quantize_slice_scalar(src, dst),
    }
}

// --------------------------------------------------------------------
// Sliding-blur pass 1: width-(2r+1) horizontal window sums
// --------------------------------------------------------------------

/// The oracle: replicate-border sliding window sum over one row.
fn window_sums_row_scalar(row: &[i16], r: usize, out: &mut [i32]) {
    let w = row.len();
    let mut sum: i32 = (r as i32 + 1) * row[0] as i32;
    for i in 1..=r {
        sum += row[i.min(w - 1)] as i32;
    }
    out[0] = sum;
    for x in 1..w {
        let entering = row[(x + r).min(w - 1)] as i32;
        let leaving = row[(x - 1).saturating_sub(r)] as i32;
        sum += entering - leaving;
        out[x] = sum;
    }
}

/// One border-clamped window sum — exactly the value the sliding oracle
/// produces at `x` (integer adds in any order are the same sum).
#[inline]
fn window_sum_at(row: &[i16], r: usize, x: usize) -> i32 {
    let w = row.len();
    let mut s = 0i32;
    for j in 0..=2 * r {
        s += row[(x + j).saturating_sub(r).min(w - 1)] as i32;
    }
    s
}

/// Width-`2r+1` window sums of an i16 row with replicate borders — pass 1
/// of the sliding box blur. The sequential sliding recurrence defeats the
/// autovectorizer, but the interior of the row is a plain `(2r+1)`-tap
/// integer convolution: the vector tiers widen-add the taps 16 (AVX2) or
/// 8 (SSE2) columns at a time, which is the *same exact integer sum* in a
/// different association — bit-identical to the oracle. Borders run
/// through the clamped scalar core.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn window_sums_row(level: SimdLevel, row: &[i16], r: usize, out: &mut [i32]) {
    assert_eq!(row.len(), out.len(), "window-sum output must match row");
    if row.is_empty() {
        return;
    }
    match level.min(detected_level()) {
        SimdLevel::Scalar => window_sums_row_scalar(row, r, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the clamp above guarantees the feature is present.
        SimdLevel::Sse2 => unsafe { x86::window_sums_row_sse2(row, r, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        SimdLevel::Avx2 => unsafe { x86::window_sums_row_avx2(row, r, out) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => window_sums_row_scalar(row, r, out),
    }
}

// --------------------------------------------------------------------
// Window means and the fused high-pass + prefix-sum row kernel
// --------------------------------------------------------------------

/// Round-up reciprocal for `div_round(n, area)`; see the exactness note
/// on [`crate::qplane::sliding_box_blur_into`].
#[inline]
fn mean_magic(area: i64) -> u64 {
    (1u64 << 40) / (2 * area as u64) + 1
}

#[inline]
fn scalar_mean(n: i32, area: i64, magic: u64) -> i32 {
    let q = (((2 * u64::from(n.unsigned_abs()) + area as u64) * magic) >> 40) as i32;
    if n < 0 {
        -q
    } else {
        q
    }
}

fn blur_mean_row_scalar(col: &[i32], area: i64, magic: u64, out: &mut [i16]) {
    for (o, &n) in out.iter_mut().zip(col) {
        *o = scalar_mean(n, area, magic) as i16;
    }
}

/// Writes the rounded window mean `div_round(col[x], area)` per column
/// — pass 2 of the sliding box blur. Requires `1 ≤ area ≤`
/// [`MAX_MEAN_AREA`] and `|col[x]| ≤ area·32767` (every genuine window
/// sum of Q8.7 samples satisfies both).
///
/// # Panics
/// Panics if `out` and `col` differ in length or `area` is out of range.
pub fn blur_mean_row(level: SimdLevel, col: &[i32], area: i64, out: &mut [i16]) {
    assert_eq!(col.len(), out.len(), "mean output must match columns");
    assert!(
        (1..=MAX_MEAN_AREA).contains(&area),
        "window area out of reciprocal range"
    );
    let magic = mean_magic(area);
    match level.min(detected_level()) {
        SimdLevel::Scalar => blur_mean_row_scalar(col, area, magic, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the clamp above guarantees the feature is present.
        SimdLevel::Sse2 => unsafe { x86::blur_mean_row_sse2(col, area, magic, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        SimdLevel::Avx2 => unsafe { x86::blur_mean_row_avx2(col, area, magic, out) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => blur_mean_row_scalar(col, area, magic, out),
    }
}

/// The oracle-defining scalar core shared by every tier's tail loop:
/// continues the running sums from `x0` with the carried `run_s`/`run_q`.
#[allow(clippy::too_many_arguments)]
fn highpass_prefix_tail(
    row: &[i16],
    col: &[i32],
    area: i64,
    magic: u64,
    sum: &mut [i32],
    sq: &mut [i64],
    x0: usize,
    mut run_s: i32,
    mut run_q: i64,
) {
    for x in x0..row.len() {
        let mean = scalar_mean(col[x], area, magic);
        let hp = row[x].saturating_sub(mean as i16);
        run_s = run_s.wrapping_add(hp as i32);
        run_q = run_q.wrapping_add((hp as i64) * (hp as i64));
        sum[x + 1] = run_s;
        sq[x + 1] = run_q;
    }
}

/// Fused high-pass + prefix-sum row: for each column, subtracts the
/// rounded window mean (`subs`-saturating, exactly the scalar
/// `saturating_sub`) from the sample and writes the running sum of the
/// residual into `sum[1..]` and of its square into `sq[1..]`
/// (`sum[0] = sq[0] = 0`). One row of the [`crate::integral`] table
/// builds. Same operand contract as [`blur_mean_row`].
///
/// # Panics
/// Panics on inconsistent slice lengths or an out-of-range `area`.
pub fn highpass_prefix_row(
    level: SimdLevel,
    row: &[i16],
    col: &[i32],
    area: i64,
    sum: &mut [i32],
    sq: &mut [i64],
) {
    let w = row.len();
    assert_eq!(col.len(), w, "column sums must match the row");
    assert!(
        sum.len() == w + 1 && sq.len() == w + 1,
        "prefix rows are w+1"
    );
    assert!(
        (1..=MAX_MEAN_AREA).contains(&area),
        "window area out of reciprocal range"
    );
    sum[0] = 0;
    sq[0] = 0;
    let magic = mean_magic(area);
    match level.min(detected_level()) {
        SimdLevel::Scalar => highpass_prefix_tail(row, col, area, magic, sum, sq, 0, 0, 0),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the clamp above guarantees the feature is present.
        SimdLevel::Sse2 => unsafe { x86::highpass_prefix_row_sse2(row, col, area, magic, sum, sq) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        SimdLevel::Avx2 => unsafe { x86::highpass_prefix_row_avx2(row, col, area, magic, sum, sq) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => highpass_prefix_tail(row, col, area, magic, sum, sq, 0, 0, 0),
    }
}

// --------------------------------------------------------------------
// ChessLut chessboard patch
// --------------------------------------------------------------------

fn lut_apply_scalar(video: &[f32], table: &[f32; 256], add: bool, out: &mut [f32]) {
    if add {
        for (o, &v) in out.iter_mut().zip(video) {
            let code = (v.clamp(0.0, 255.0) + 0.5) as usize & 0xFF;
            *o = v + table[code];
        }
    } else {
        for (o, &v) in out.iter_mut().zip(video) {
            let code = (v.clamp(0.0, 255.0) + 0.5) as usize & 0xFF;
            *o = v - table[code];
        }
    }
}

/// Applies one chessboard cell span: per pixel, rounds the clamped video
/// sample to its 8-bit code, looks the dequantized LUT amplitude up and
/// adds (`add`) or subtracts it. AVX2 uses a hardware gather; SSE2 uses
/// a 4-lane shuffle/extract gather. Bit-identical across levels for
/// finite inputs (the f32 adds are performed on identical operands).
///
/// # Panics
/// Panics if the slices differ in length.
pub fn lut_apply_span(
    level: SimdLevel,
    video: &[f32],
    table: &[f32; 256],
    add: bool,
    out: &mut [f32],
) {
    assert_eq!(video.len(), out.len(), "cell span buffers must match");
    match level.min(detected_level()) {
        SimdLevel::Scalar => lut_apply_scalar(video, table, add, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the clamp above guarantees the feature is present.
        SimdLevel::Sse2 => unsafe { x86::lut_apply_sse2(video, table, add, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        SimdLevel::Avx2 => unsafe { x86::lut_apply_avx2(video, table, add, out) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => lut_apply_scalar(video, table, add, out),
    }
}

// --------------------------------------------------------------------
// Wide segment-sum scoring (demodulator gathers)
// --------------------------------------------------------------------

fn signed_segment_sum_scalar(table: &[i32], idx0: &[u32], idx1: &[u32], sign: &[i32]) -> i64 {
    let mut acc = 0i64;
    for ((&a, &b), &s) in idx0.iter().zip(idx1).zip(sign) {
        let d = (table[b as usize] - table[a as usize]) as i64;
        acc += s as i64 * d;
    }
    acc
}

fn segment_sum_scalar(table: &[i64], idx0: &[u32], idx1: &[u32]) -> i64 {
    let mut acc = 0i64;
    for (&a, &b) in idx0.iter().zip(idx1) {
        acc += table[b as usize] - table[a as usize];
    }
    acc
}

/// `Σ sign·(table[idx1] − table[idx0])` over precomputed prefix-table
/// indices — the demodulator's template correlation — with one
/// accumulator per slice, where `slices[k]` is the half-open range of the
/// index arrays belonging to slice `k`. Each difference is a row-segment
/// sum (fits `i32` exactly); `sign` entries must be `±1` (the AVX2 path
/// applies them by conditional negation). A Block's demodulation makes a handful of very short
/// segment-sum calls (one per rolling-shutter slice); batching them pays
/// the bounds validation and dispatch once per Block instead of per
/// slice. Each slice's accumulator is the exact per-slice kernel result.
///
/// # Panics
/// Panics on mismatched index/sign lengths, an out-of-bounds gather
/// index, a slice range outside the index arrays, or `out` shorter than
/// `slices`.
pub fn signed_segment_sums_sliced(
    level: SimdLevel,
    table: &[i32],
    idx0: &[u32],
    idx1: &[u32],
    sign: &[i32],
    slices: &[(u32, u32)],
    out: &mut [i64],
) {
    assert!(idx0.len() == idx1.len() && idx0.len() == sign.len());
    assert!(
        table.len() <= i32::MAX as usize,
        "table too large to gather"
    );
    assert_eq!(slices.len(), out.len(), "one accumulator per slice");
    let bound = table.len() as u32;
    assert!(
        idx0.iter().chain(idx1).all(|&i| i < bound),
        "gather index out of table bounds"
    );
    debug_assert!(sign.iter().all(|&s| s == 1 || s == -1));
    let n = idx0.len() as u32;
    assert!(
        slices.iter().all(|&(a, b)| a <= b && b <= n),
        "slice range outside the index arrays"
    );
    let level = level.min(detected_level());
    for (&(a, b), acc) in slices.iter().zip(out) {
        let (a, b) = (a as usize, b as usize);
        *acc = match level {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: feature present per clamp; indices verified above.
            SimdLevel::Avx2 => unsafe {
                x86::signed_segment_sum_avx2(table, &idx0[a..b], &idx1[a..b], &sign[a..b])
            },
            _ => signed_segment_sum_scalar(table, &idx0[a..b], &idx1[a..b], &sign[a..b]),
        };
    }
}

/// `Σ (table[idx1] − table[idx0])` over the squared-sum prefix table per
/// slice — the demodulator's high-pass energy term, the twin of
/// [`signed_segment_sums_sliced`] with the same slicing contract.
///
/// # Panics
/// Panics on mismatched index lengths, an out-of-bounds gather index, a
/// slice range outside the index arrays, or `out` shorter than `slices`.
pub fn segment_sums_sliced(
    level: SimdLevel,
    table: &[i64],
    idx0: &[u32],
    idx1: &[u32],
    slices: &[(u32, u32)],
    out: &mut [i64],
) {
    assert_eq!(idx0.len(), idx1.len());
    assert!(
        table.len() <= i32::MAX as usize,
        "table too large to gather"
    );
    assert_eq!(slices.len(), out.len(), "one accumulator per slice");
    let bound = table.len() as u32;
    assert!(
        idx0.iter().chain(idx1).all(|&i| i < bound),
        "gather index out of table bounds"
    );
    let n = idx0.len() as u32;
    assert!(
        slices.iter().all(|&(a, b)| a <= b && b <= n),
        "slice range outside the index arrays"
    );
    let level = level.min(detected_level());
    for (&(a, b), acc) in slices.iter().zip(out) {
        let (a, b) = (a as usize, b as usize);
        *acc = match level {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: feature present per clamp; indices verified above.
            SimdLevel::Avx2 => unsafe { x86::segment_sum_avx2(table, &idx0[a..b], &idx1[a..b]) },
            _ => segment_sum_scalar(table, &idx0[a..b], &idx1[a..b]),
        };
    }
}

/// Folds one fused high-pass prefix row into the direct row sweep's
/// slice accumulators: every run `(x0, x1, tag)` adds the prefix
/// difference `row_s[x1] − row_s[x0]` (negated when the tag's top bit is
/// set) into `acc_s[tag & 0x7FFF_FFFF]`, and every span `(x0, x1, acc)`
/// adds `row_q[x1] − row_q[x0]` into `acc_q[acc]`.
///
/// This is the per-row entry point of the quantized demodulator's direct
/// row sweep *and* of the batched multi-receiver scorer, which replays
/// the same row program once per distinct photometric variant — the
/// kernel-launch shape a GPU port would batch. The body is deliberately
/// scalar at every level: the endpoints are a run-length gather and the
/// accumulator indices a scatter with unpredictable collisions, and with
/// ~2 table loads per short run the loop is bound by the same L1 reads a
/// vector gather would issue — measured no faster under AVX2 (unlike the
/// gather kernels above, which amortize over long materialized prefix
/// tables). Routing it through the dispatch layer pins the bit-identical
/// contract at every level and marks the seam for wider ISAs.
///
/// # Panics
/// Panics on a run or span endpoint outside the prefix rows or an
/// accumulator index outside the accumulator slices.
pub fn sweep_row_segments(
    level: SimdLevel,
    row_s: &[i32],
    row_q: &[i64],
    runs: &[(u32, u32, u32)],
    spans: &[(u32, u32, u32)],
    acc_s: &mut [i64],
    acc_q: &mut [i64],
) {
    let _ = level.min(detected_level()); // scalar at every level (see above)
    for &(x0, x1, tag) in runs {
        let s = (row_s[x1 as usize] - row_s[x0 as usize]) as i64;
        let i = (tag & 0x7FFF_FFFF) as usize;
        acc_s[i] += if tag >> 31 != 0 { -s } else { s };
    }
    for &(x0, x1, acc) in spans {
        acc_q[acc as usize] += row_q[x1 as usize] - row_q[x0 as usize];
    }
}

// --------------------------------------------------------------------
// GF(2⁸) row kernels (rateless decoder and encoder)
// --------------------------------------------------------------------

/// Vector body of the GF(2⁸) row multiply-accumulate `dst[i] ⊕= c·src[i]`,
/// given factor `c`'s split-nibble tables `[low, high]` (`low[x] = c·x`,
/// `high[x] = c·(x << 4)`). Processes the longest prefix the level's body
/// covers and returns its length; the caller finishes the row with the
/// scalar form, `inframe_code::gf256::mul_add_row`, which is the oracle.
///
/// AVX2 looks both nibbles up with `_mm256_shuffle_epi8`, 32 bytes a
/// step and then one 16-byte step, so it covers all but `len % 16`
/// bytes. Below AVX2 it covers nothing: the byte shuffle needs SSSE3,
/// which the SSE2 level does not assume.
///
/// # Panics
/// Panics if the rows differ in length.
pub fn gf256_mul_add_prefix(
    level: SimdLevel,
    tables: &[[u8; 16]; 2],
    dst: &mut [u8],
    src: &[u8],
) -> usize {
    assert_eq!(dst.len(), src.len(), "GF(256) rows must match");
    match level.min(detected_level()) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the clamp above guarantees the feature is present.
        SimdLevel::Avx2 => unsafe { x86::gf256_mul_add_avx2(tables, dst, src) },
        _ => 0,
    }
}

/// Vector body of the GF(2⁸) row scaling `row[i] = c·row[i]`, with the
/// same tables, coverage and contract as [`gf256_mul_add_prefix`]; the
/// caller finishes with `inframe_code::gf256::scale_row`.
pub fn gf256_scale_prefix(level: SimdLevel, tables: &[[u8; 16]; 2], row: &mut [u8]) -> usize {
    match level.min(detected_level()) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the clamp above guarantees the feature is present.
        SimdLevel::Avx2 => unsafe { x86::gf256_scale_avx2(tables, row) },
        _ => 0,
    }
}

// --------------------------------------------------------------------
// x86-64 intrinsic bodies
// --------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::*;
    use std::arch::x86_64::*;

    #[inline]
    #[target_feature(enable = "sse2")]
    fn quant4_sse2(v: __m128) -> __m128i {
        let scaled = _mm_mul_ps(v, _mm_set1_ps(crate::qplane::ONE as f32));
        let clamped = _mm_max_ps(
            _mm_min_ps(scaled, _mm_set1_ps(i16::MAX as f32)),
            _mm_set1_ps(i16::MIN as f32),
        );
        let shift = _mm_set1_ps(SHIFT);
        // The add/sub pair leaves an exactly integral f32, so the
        // convert below is mode-independent — identical to the scalar
        // `as i32` truncation.
        _mm_cvtps_epi32(_mm_sub_ps(_mm_add_ps(clamped, shift), shift))
    }

    /// # Safety
    /// Requires SSE2 (guaranteed on `x86_64`; dispatcher clamps anyway).
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn quantize_slice_sse2(src: &[f32], dst: &mut [i16]) {
        let n = src.len();
        let mut x = 0;
        while x + 8 <= n {
            // SAFETY: x + 8 <= n bounds both unaligned loads.
            let (a, b) = unsafe {
                (
                    _mm_loadu_ps(src.as_ptr().add(x)),
                    _mm_loadu_ps(src.as_ptr().add(x + 4)),
                )
            };
            let packed = _mm_packs_epi32(quant4_sse2(a), quant4_sse2(b));
            // SAFETY: dst[x..x + 8] is in bounds (dst.len() == n).
            unsafe { _mm_storeu_si128(dst.as_mut_ptr().add(x).cast(), packed) };
            x += 8;
        }
        quantize_slice_scalar(&src[x..], &mut dst[x..]);
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn quant8_avx2(v: __m256) -> __m256i {
        let scaled = _mm256_mul_ps(v, _mm256_set1_ps(crate::qplane::ONE as f32));
        let clamped = _mm256_max_ps(
            _mm256_min_ps(scaled, _mm256_set1_ps(i16::MAX as f32)),
            _mm256_set1_ps(i16::MIN as f32),
        );
        let shift = _mm256_set1_ps(SHIFT);
        _mm256_cvtps_epi32(_mm256_sub_ps(_mm256_add_ps(clamped, shift), shift))
    }

    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn quantize_slice_avx2(src: &[f32], dst: &mut [i16]) {
        let n = src.len();
        let mut x = 0;
        while x + 16 <= n {
            // SAFETY: x + 16 <= n bounds both loads.
            let (a, b) = unsafe {
                (
                    _mm256_loadu_ps(src.as_ptr().add(x)),
                    _mm256_loadu_ps(src.as_ptr().add(x + 8)),
                )
            };
            // packs interleaves the 128-bit lanes; permute restores
            // element order.
            let packed = _mm256_packs_epi32(quant8_avx2(a), quant8_avx2(b));
            let fixed = _mm256_permute4x64_epi64::<0b11_01_10_00>(packed);
            // SAFETY: dst[x..x + 16] is in bounds.
            unsafe { _mm256_storeu_si256(dst.as_mut_ptr().add(x).cast(), fixed) };
            x += 16;
        }
        // SAFETY: AVX2 implies SSE2.
        unsafe { quantize_slice_sse2(&src[x..], &mut dst[x..]) };
    }

    /// # Safety
    /// Requires SSE2.
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn window_sums_row_sse2(row: &[i16], r: usize, out: &mut [i32]) {
        let w = row.len();
        let mut x = 0usize;
        while x < r.min(w) {
            out[x] = window_sum_at(row, r, x);
            x += 1;
        }
        while x + r + 8 <= w {
            let mut lo = _mm_setzero_si128();
            let mut hi = _mm_setzero_si128();
            for j in 0..=2 * r {
                // SAFETY: x ≥ r (head loop) and x + r + 8 ≤ w bound the
                // 8-lane load at x - r + j.
                let v = unsafe { _mm_loadu_si128(row.as_ptr().add(x - r + j).cast()) };
                lo = _mm_add_epi32(lo, _mm_srai_epi32::<16>(_mm_unpacklo_epi16(v, v)));
                hi = _mm_add_epi32(hi, _mm_srai_epi32::<16>(_mm_unpackhi_epi16(v, v)));
            }
            // SAFETY: out[x..x + 8] in bounds (out.len() == w).
            unsafe {
                _mm_storeu_si128(out.as_mut_ptr().add(x).cast(), lo);
                _mm_storeu_si128(out.as_mut_ptr().add(x + 4).cast(), hi);
            }
            x += 8;
        }
        while x < w {
            out[x] = window_sum_at(row, r, x);
            x += 1;
        }
    }

    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn window_sums_row_avx2(row: &[i16], r: usize, out: &mut [i32]) {
        let w = row.len();
        let mut x = 0usize;
        while x < r.min(w) {
            out[x] = window_sum_at(row, r, x);
            x += 1;
        }
        while x + r + 16 <= w {
            let mut lo = _mm256_setzero_si256();
            let mut hi = _mm256_setzero_si256();
            for j in 0..=2 * r {
                // SAFETY: x ≥ r (head loop) and x + r + 16 ≤ w bound the
                // 16-lane load at x - r + j.
                let v = unsafe { _mm256_loadu_si256(row.as_ptr().add(x - r + j).cast()) };
                lo = _mm256_add_epi32(lo, _mm256_cvtepi16_epi32(_mm256_castsi256_si128(v)));
                hi = _mm256_add_epi32(hi, _mm256_cvtepi16_epi32(_mm256_extracti128_si256::<1>(v)));
            }
            // SAFETY: out[x..x + 16] in bounds (out.len() == w).
            unsafe {
                _mm256_storeu_si256(out.as_mut_ptr().add(x).cast(), lo);
                _mm256_storeu_si256(out.as_mut_ptr().add(x + 8).cast(), hi);
            }
            x += 16;
        }
        while x < w {
            out[x] = window_sum_at(row, r, x);
            x += 1;
        }
    }

    /// `col[x..x + 4]` as four i32 lanes (one unaligned load — the
    /// accumulators are natively i32; see `init_column_sums`).
    ///
    /// # Safety
    /// `col[x..x + 4]` must be in bounds.
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn load_col4(col: &[i32], x: usize) -> __m128i {
        // SAFETY: caller guarantees col[x..x + 4] in bounds.
        unsafe { _mm_loadu_si128(col.as_ptr().add(x).cast()) }
    }

    /// `div_round(n, area)` on 4 lanes via the scalar path's own
    /// round-up reciprocal: `q = ((2|n| + area)·magic) >> 40` evaluated
    /// in exact u64 lane arithmetic, `magic` split `mh·2³² + ml` so the
    /// product comes out of two 32×32→64 `mul_epu32`s. Both partial
    /// products stay under the true product (`t·mh·2³² ≤ t·magic ≲ 2⁵⁶`
    /// for every in-contract `area ≤ MAX_MEAN_AREA`), so nothing
    /// overflows — the result is the *same u64 expression* the scalar
    /// oracle computes, not merely equal to it.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn mean4_sse2(n32: __m128i, area: __m128i, ml: __m128i, mh: __m128i) -> __m128i {
        let s = _mm_srai_epi32::<31>(n32);
        let abs = _mm_sub_epi32(_mm_xor_si128(n32, s), s);
        let t = _mm_add_epi32(_mm_slli_epi32::<1>(abs), area);
        let pe = _mm_add_epi64(
            _mm_mul_epu32(t, ml),
            _mm_slli_epi64::<32>(_mm_mul_epu32(t, mh)),
        );
        let to = _mm_srli_epi64::<32>(t);
        let po = _mm_add_epi64(
            _mm_mul_epu32(to, ml),
            _mm_slli_epi64::<32>(_mm_mul_epu32(to, mh)),
        );
        let q = _mm_or_si128(
            _mm_srli_epi64::<40>(pe),
            _mm_slli_epi64::<32>(_mm_srli_epi64::<40>(po)),
        );
        _mm_sub_epi32(_mm_xor_si128(q, s), s)
    }

    /// `col[x..x + 8]` as eight i32 lanes (one unaligned load).
    ///
    /// # Safety
    /// `col[x..x + 8]` must be in bounds.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load_col8(col: &[i32], x: usize) -> __m256i {
        // SAFETY: caller guarantees col[x..x + 8] in bounds.
        unsafe { _mm256_loadu_si256(col.as_ptr().add(x).cast()) }
    }

    /// 8-lane twin of [`mean4_sse2`] — same magic-multiply expression.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn mean8_avx2(n32: __m256i, area: __m256i, ml: __m256i, mh: __m256i) -> __m256i {
        let s = _mm256_srai_epi32::<31>(n32);
        let abs = _mm256_abs_epi32(n32);
        let t = _mm256_add_epi32(_mm256_slli_epi32::<1>(abs), area);
        let pe = _mm256_add_epi64(
            _mm256_mul_epu32(t, ml),
            _mm256_slli_epi64::<32>(_mm256_mul_epu32(t, mh)),
        );
        let to = _mm256_srli_epi64::<32>(t);
        let po = _mm256_add_epi64(
            _mm256_mul_epu32(to, ml),
            _mm256_slli_epi64::<32>(_mm256_mul_epu32(to, mh)),
        );
        let q = _mm256_or_si256(
            _mm256_srli_epi64::<40>(pe),
            _mm256_slli_epi64::<32>(_mm256_srli_epi64::<40>(po)),
        );
        _mm256_sub_epi32(_mm256_xor_si256(q, s), s)
    }

    /// # Safety
    /// Requires SSE2.
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn blur_mean_row_sse2(col: &[i32], area: i64, magic: u64, out: &mut [i16]) {
        let w = out.len();
        let areav = _mm_set1_epi32(area as i32);
        let ml = _mm_set1_epi64x((magic & 0xFFFF_FFFF) as i64);
        let mh = _mm_set1_epi64x((magic >> 32) as i64);
        let mut x = 0;
        while x + 4 <= w {
            // SAFETY: col[x..x + 4] in bounds (col.len() == w).
            let n32 = unsafe { load_col4(col, x) };
            let m16 = {
                let m = mean4_sse2(n32, areav, ml, mh);
                _mm_packs_epi32(m, m)
            };
            // SAFETY: out[x..x + 4] in bounds (8-byte store).
            unsafe { _mm_storel_epi64(out.as_mut_ptr().add(x).cast(), m16) };
            x += 4;
        }
        blur_mean_row_scalar(&col[x..], area, magic, &mut out[x..]);
    }

    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn blur_mean_row_avx2(col: &[i32], area: i64, magic: u64, out: &mut [i16]) {
        let w = out.len();
        let areav = _mm256_set1_epi32(area as i32);
        let ml = _mm256_set1_epi64x((magic & 0xFFFF_FFFF) as i64);
        let mh = _mm256_set1_epi64x((magic >> 32) as i64);
        let mut x = 0;
        while x + 8 <= w {
            // SAFETY: col[x..x + 8] in bounds.
            let n32 = unsafe { load_col8(col, x) };
            let m = mean8_avx2(n32, areav, ml, mh);
            let m16 = _mm_packs_epi32(_mm256_castsi256_si128(m), _mm256_extracti128_si256::<1>(m));
            // SAFETY: out[x..x + 8] in bounds (16-byte store).
            unsafe { _mm_storeu_si128(out.as_mut_ptr().add(x).cast(), m16) };
            x += 8;
        }
        blur_mean_row_scalar(&col[x..], area, magic, &mut out[x..]);
    }

    /// # Safety
    /// Requires SSE2.
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn highpass_prefix_row_sse2(
        row: &[i16],
        col: &[i32],
        area: i64,
        magic: u64,
        sum: &mut [i32],
        sq: &mut [i64],
    ) {
        let w = row.len();
        let areav = _mm_set1_epi32(area as i32);
        let ml = _mm_set1_epi64x((magic & 0xFFFF_FFFF) as i64);
        let mh = _mm_set1_epi64x((magic >> 32) as i64);
        let zero = _mm_setzero_si128();
        let mut run_s = 0i32;
        let mut run_q = 0i64;
        let mut x = 0;
        while x + 4 <= w {
            // SAFETY: col[x..x + 4] in bounds.
            let n32 = unsafe { load_col4(col, x) };
            let m = mean4_sse2(n32, areav, ml, mh);
            let m16 = _mm_packs_epi32(m, m);
            // SAFETY: row[x..x + 4] in bounds (8-byte load).
            let r16 = unsafe { _mm_loadl_epi64(row.as_ptr().add(x).cast()) };
            let hp16 = _mm_subs_epi16(r16, m16);
            let hp32 = _mm_srai_epi32::<16>(_mm_unpacklo_epi16(hp16, hp16));
            // Inclusive Hillis–Steele scan over the 4 i32 lanes.
            let mut v = _mm_add_epi32(hp32, _mm_slli_si128::<4>(hp32));
            v = _mm_add_epi32(v, _mm_slli_si128::<8>(v));
            let outv = _mm_add_epi32(v, _mm_set1_epi32(run_s));
            // SAFETY: sum.len() == w + 1 and x + 4 <= w bound the store.
            unsafe { _mm_storeu_si128(sum.as_mut_ptr().add(x + 1).cast(), outv) };
            run_s = _mm_cvtsi128_si32(_mm_shuffle_epi32::<0b11_11_11_11>(outv));
            // hp² via |hp| and a lo/hi 16-bit multiply (SSE2 has no
            // 32-bit mullo); |−32768| wraps to the same 0x8000 bit
            // pattern the unsigned multiplies square correctly.
            let sg = _mm_srai_epi16::<15>(hp16);
            let habs = _mm_sub_epi16(_mm_xor_si128(hp16, sg), sg);
            let lo = _mm_mullo_epi16(habs, habs);
            let hi = _mm_mulhi_epu16(habs, habs);
            let sq32 = _mm_unpacklo_epi16(lo, hi);
            let q01 = _mm_unpacklo_epi32(sq32, zero);
            let q23 = _mm_unpackhi_epi32(sq32, zero);
            let aout = {
                let a = _mm_add_epi64(q01, _mm_slli_si128::<8>(q01));
                _mm_add_epi64(a, _mm_set1_epi64x(run_q))
            };
            // SAFETY: sq.len() == w + 1; lanes land at x + 1, x + 2.
            unsafe { _mm_storeu_si128(sq.as_mut_ptr().add(x + 1).cast(), aout) };
            run_q = _mm_cvtsi128_si64(_mm_unpackhi_epi64(aout, aout));
            let bout = {
                let b = _mm_add_epi64(q23, _mm_slli_si128::<8>(q23));
                _mm_add_epi64(b, _mm_set1_epi64x(run_q))
            };
            // SAFETY: lanes land at x + 3, x + 4 ≤ w.
            unsafe { _mm_storeu_si128(sq.as_mut_ptr().add(x + 3).cast(), bout) };
            run_q = _mm_cvtsi128_si64(_mm_unpackhi_epi64(bout, bout));
            x += 4;
        }
        highpass_prefix_tail(row, col, area, magic, sum, sq, x, run_s, run_q);
    }

    /// Inclusive prefix scan over 4 i64 lanes (within-lane shift, then a
    /// cross-lane carry broadcast).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn scan4_epi64(v: __m256i) -> __m256i {
        let v = _mm256_add_epi64(v, _mm256_slli_si256::<8>(v));
        let t = _mm256_permute4x64_epi64::<0b01_01_01_01>(v);
        let carry = _mm256_permute2x128_si256::<0x08>(t, t);
        _mm256_add_epi64(v, carry)
    }

    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn highpass_prefix_row_avx2(
        row: &[i16],
        col: &[i32],
        area: i64,
        magic: u64,
        sum: &mut [i32],
        sq: &mut [i64],
    ) {
        let w = row.len();
        let areav = _mm256_set1_epi32(area as i32);
        let ml = _mm256_set1_epi64x((magic & 0xFFFF_FFFF) as i64);
        let mh = _mm256_set1_epi64x((magic >> 32) as i64);
        let mut run_s = 0i32;
        let mut run_q = 0i64;
        let mut x = 0;
        while x + 8 <= w {
            // SAFETY: col[x..x + 8] in bounds.
            let n32 = unsafe { load_col8(col, x) };
            let m = mean8_avx2(n32, areav, ml, mh);
            let m16 = _mm_packs_epi32(_mm256_castsi256_si128(m), _mm256_extracti128_si256::<1>(m));
            // SAFETY: row[x..x + 8] in bounds (16-byte load).
            let r16 = unsafe { _mm_loadu_si128(row.as_ptr().add(x).cast()) };
            let hp16 = _mm_subs_epi16(r16, m16);
            let hp32 = _mm256_cvtepi16_epi32(hp16);
            // Inclusive scan of 8 i32 lanes: two within-lane steps plus
            // a cross-lane carry of the low lane's total.
            let mut v = _mm256_add_epi32(hp32, _mm256_slli_si256::<4>(hp32));
            v = _mm256_add_epi32(v, _mm256_slli_si256::<8>(v));
            let lane_top = _mm256_shuffle_epi32::<0b11_11_11_11>(v);
            let carry = _mm256_permute2x128_si256::<0x08>(lane_top, lane_top);
            v = _mm256_add_epi32(v, carry);
            let outv = _mm256_add_epi32(v, _mm256_set1_epi32(run_s));
            // SAFETY: sum.len() == w + 1 and x + 8 <= w bound the store.
            unsafe { _mm256_storeu_si256(sum.as_mut_ptr().add(x + 1).cast(), outv) };
            run_s = _mm256_extract_epi32::<7>(outv);
            let sq32 = _mm256_mullo_epi32(hp32, hp32);
            let sql = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(sq32));
            let sqh = _mm256_cvtepi32_epi64(_mm256_extracti128_si256::<1>(sq32));
            let aout = _mm256_add_epi64(scan4_epi64(sql), _mm256_set1_epi64x(run_q));
            // SAFETY: lanes land at x + 1 ..= x + 4 ≤ w.
            unsafe { _mm256_storeu_si256(sq.as_mut_ptr().add(x + 1).cast(), aout) };
            run_q = _mm256_extract_epi64::<3>(aout);
            let bout = _mm256_add_epi64(scan4_epi64(sqh), _mm256_set1_epi64x(run_q));
            // SAFETY: lanes land at x + 5 ..= x + 8 ≤ w.
            unsafe { _mm256_storeu_si256(sq.as_mut_ptr().add(x + 5).cast(), bout) };
            run_q = _mm256_extract_epi64::<3>(bout);
            x += 8;
        }
        highpass_prefix_tail(row, col, area, magic, sum, sq, x, run_s, run_q);
    }

    /// # Safety
    /// Requires SSE2.
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn lut_apply_sse2(
        video: &[f32],
        table: &[f32; 256],
        add: bool,
        out: &mut [f32],
    ) {
        let n = video.len();
        let zero = _mm_setzero_ps();
        let maxv = _mm_set1_ps(255.0);
        let half = _mm_set1_ps(0.5);
        let mut x = 0;
        while x + 4 <= n {
            // SAFETY: video[x..x + 4] in bounds.
            let v = unsafe { _mm_loadu_ps(video.as_ptr().add(x)) };
            let c = _mm_max_ps(_mm_min_ps(v, maxv), zero);
            let idx = _mm_cvttps_epi32(_mm_add_ps(c, half));
            // Manual 4-lane gather: extract, mask, table-load, repack.
            let i0 = (_mm_cvtsi128_si32(idx) as usize) & 0xFF;
            let i1 = (_mm_cvtsi128_si32(_mm_shuffle_epi32::<0b01>(idx)) as usize) & 0xFF;
            let i2 = (_mm_cvtsi128_si32(_mm_shuffle_epi32::<0b10>(idx)) as usize) & 0xFF;
            let i3 = (_mm_cvtsi128_si32(_mm_shuffle_epi32::<0b11>(idx)) as usize) & 0xFF;
            let g = _mm_set_ps(table[i3], table[i2], table[i1], table[i0]);
            let o = if add {
                _mm_add_ps(v, g)
            } else {
                _mm_sub_ps(v, g)
            };
            // SAFETY: out[x..x + 4] in bounds.
            unsafe { _mm_storeu_ps(out.as_mut_ptr().add(x), o) };
            x += 4;
        }
        lut_apply_scalar(&video[x..], table, add, &mut out[x..]);
    }

    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn lut_apply_avx2(
        video: &[f32],
        table: &[f32; 256],
        add: bool,
        out: &mut [f32],
    ) {
        let n = video.len();
        let zero = _mm256_setzero_ps();
        let maxv = _mm256_set1_ps(255.0);
        let half = _mm256_set1_ps(0.5);
        let mut x = 0;
        while x + 8 <= n {
            // SAFETY: video[x..x + 8] in bounds.
            let v = unsafe { _mm256_loadu_ps(video.as_ptr().add(x)) };
            let c = _mm256_max_ps(_mm256_min_ps(v, maxv), zero);
            let idx = _mm256_cvttps_epi32(_mm256_add_ps(c, half));
            // SAFETY: the clamp pins every lane to [0, 255] (min/max
            // ordering maps even NaN to 255), so the gather cannot
            // leave the 256-entry table.
            let g = unsafe { _mm256_i32gather_ps::<4>(table.as_ptr(), idx) };
            let o = if add {
                _mm256_add_ps(v, g)
            } else {
                _mm256_sub_ps(v, g)
            };
            // SAFETY: out[x..x + 8] in bounds.
            unsafe { _mm256_storeu_ps(out.as_mut_ptr().add(x), o) };
            x += 8;
        }
        // SAFETY: AVX2 implies SSE2.
        unsafe { lut_apply_sse2(&video[x..], table, add, &mut out[x..]) };
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn reduce_epi64(v: __m256i) -> i64 {
        let s = _mm_add_epi64(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v));
        _mm_cvtsi128_si64(s).wrapping_add(_mm_cvtsi128_si64(_mm_unpackhi_epi64(s, s)))
    }

    /// # Safety
    /// Requires AVX2; every index must be `< table.len()` (the
    /// dispatcher checks before calling).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn signed_segment_sum_avx2(
        table: &[i32],
        idx0: &[u32],
        idx1: &[u32],
        sign: &[i32],
    ) -> i64 {
        let n = idx0.len();
        let mut acc = _mm256_setzero_si256();
        let mut i = 0;
        while i + 8 <= n {
            // SAFETY: i + 8 <= n bounds the three index/sign loads.
            let (a, b, sg) = unsafe {
                (
                    _mm256_loadu_si256(idx0.as_ptr().add(i).cast()),
                    _mm256_loadu_si256(idx1.as_ptr().add(i).cast()),
                    _mm256_loadu_si256(sign.as_ptr().add(i).cast()),
                )
            };
            // SAFETY: all indices verified < table.len() up front.
            let (v0, v1) = unsafe {
                (
                    _mm256_i32gather_epi32::<4>(table.as_ptr(), a),
                    _mm256_i32gather_epi32::<4>(table.as_ptr(), b),
                )
            };
            // Segment sums fit i32, so the wrapping lane subtract is
            // exact; signs are ±1 → conditional negation.
            let d = _mm256_sub_epi32(v1, v0);
            let s = _mm256_srai_epi32::<31>(sg);
            let ds = _mm256_sub_epi32(_mm256_xor_si256(d, s), s);
            acc = _mm256_add_epi64(acc, _mm256_cvtepi32_epi64(_mm256_castsi256_si128(ds)));
            acc = _mm256_add_epi64(
                acc,
                _mm256_cvtepi32_epi64(_mm256_extracti128_si256::<1>(ds)),
            );
            i += 8;
        }
        reduce_epi64(acc) + signed_segment_sum_scalar(table, &idx0[i..], &idx1[i..], &sign[i..])
    }

    /// # Safety
    /// Requires AVX2; every index must be `< table.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn segment_sum_avx2(table: &[i64], idx0: &[u32], idx1: &[u32]) -> i64 {
        let n = idx0.len();
        let mut acc = _mm256_setzero_si256();
        let mut i = 0;
        while i + 4 <= n {
            // SAFETY: i + 4 <= n bounds the index loads.
            let (a, b) = unsafe {
                (
                    _mm_loadu_si128(idx0.as_ptr().add(i).cast()),
                    _mm_loadu_si128(idx1.as_ptr().add(i).cast()),
                )
            };
            // SAFETY: all indices verified < table.len() up front.
            let (v0, v1) = unsafe {
                (
                    _mm256_i32gather_epi64::<8>(table.as_ptr(), a),
                    _mm256_i32gather_epi64::<8>(table.as_ptr(), b),
                )
            };
            acc = _mm256_add_epi64(acc, _mm256_sub_epi64(v1, v0));
            i += 4;
        }
        reduce_epi64(acc) + segment_sum_scalar(table, &idx0[i..], &idx1[i..])
    }

    /// `c·v` per byte: each nibble indexes its 16-entry table through a
    /// byte shuffle (both 128-bit halves hold the same table).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn gf256_mul32(lo: __m256i, hi: __m256i, v: __m256i) -> __m256i {
        let mask = _mm256_set1_epi8(0x0F);
        let l = _mm256_and_si256(v, mask);
        let h = _mm256_and_si256(_mm256_srli_epi16::<4>(v), mask);
        _mm256_xor_si256(_mm256_shuffle_epi8(lo, l), _mm256_shuffle_epi8(hi, h))
    }

    /// The 16-byte form of [`gf256_mul32`] (SSSE3, implied by AVX2).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn gf256_mul16(lo: __m128i, hi: __m128i, v: __m128i) -> __m128i {
        let mask = _mm_set1_epi8(0x0F);
        let l = _mm_and_si128(v, mask);
        let h = _mm_and_si128(_mm_srli_epi16::<4>(v), mask);
        _mm_xor_si128(_mm_shuffle_epi8(lo, l), _mm_shuffle_epi8(hi, h))
    }

    /// Loads the `[low, high]` nibble tables as 128-bit registers.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn gf256_tables(tables: &[[u8; 16]; 2]) -> (__m128i, __m128i) {
        // SAFETY: each table is exactly 16 readable bytes.
        unsafe {
            (
                _mm_loadu_si128(tables[0].as_ptr().cast()),
                _mm_loadu_si128(tables[1].as_ptr().cast()),
            )
        }
    }

    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gf256_mul_add_avx2(
        tables: &[[u8; 16]; 2],
        dst: &mut [u8],
        src: &[u8],
    ) -> usize {
        let n = dst.len().min(src.len());
        let (lo, hi) = gf256_tables(tables);
        let (lo2, hi2) = (
            _mm256_broadcastsi128_si256(lo),
            _mm256_broadcastsi128_si256(hi),
        );
        let (d, s) = (dst.as_mut_ptr(), src.as_ptr());
        let mut i = 0;
        while i + 32 <= n {
            // SAFETY: i + 32 <= n bounds both rows.
            unsafe {
                let p = gf256_mul32(lo2, hi2, _mm256_loadu_si256(s.add(i).cast()));
                let acc = _mm256_loadu_si256(d.add(i).cast());
                _mm256_storeu_si256(d.add(i).cast(), _mm256_xor_si256(acc, p));
            }
            i += 32;
        }
        if i + 16 <= n {
            // SAFETY: i + 16 <= n bounds both rows.
            unsafe {
                let p = gf256_mul16(lo, hi, _mm_loadu_si128(s.add(i).cast()));
                let acc = _mm_loadu_si128(d.add(i).cast());
                _mm_storeu_si128(d.add(i).cast(), _mm_xor_si128(acc, p));
            }
            i += 16;
        }
        i
    }

    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gf256_scale_avx2(tables: &[[u8; 16]; 2], row: &mut [u8]) -> usize {
        let n = row.len();
        let (lo, hi) = gf256_tables(tables);
        let (lo2, hi2) = (
            _mm256_broadcastsi128_si256(lo),
            _mm256_broadcastsi128_si256(hi),
        );
        let r = row.as_mut_ptr();
        let mut i = 0;
        while i + 32 <= n {
            // SAFETY: i + 32 <= n bounds the row.
            unsafe {
                let p = gf256_mul32(lo2, hi2, _mm256_loadu_si256(r.add(i).cast()));
                _mm256_storeu_si256(r.add(i).cast(), p);
            }
            i += 32;
        }
        if i + 16 <= n {
            // SAFETY: i + 16 <= n bounds the row.
            unsafe {
                let p = gf256_mul16(lo, hi, _mm_loadu_si128(r.add(i).cast()));
                _mm_storeu_si128(r.add(i).cast(), p);
            }
            i += 16;
        }
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random stream (no RNG dependency needed).
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 11
        }
        fn i64_in(&mut self, lo: i64, hi: i64) -> i64 {
            lo + (self.next() % (hi - lo + 1) as u64) as i64
        }
        fn f32_in(&mut self, lo: f32, hi: f32) -> f32 {
            lo + (self.next() % 10_000) as f32 / 10_000.0 * (hi - lo)
        }
    }

    fn vector_levels() -> Vec<SimdLevel> {
        SimdLevel::supported()
            .filter(|&l| l != SimdLevel::Scalar)
            .collect()
    }

    #[test]
    fn parse_recognizes_override_values() {
        assert_eq!(SimdLevel::parse("off"), Some(SimdLevel::Scalar));
        assert_eq!(SimdLevel::parse("Scalar"), Some(SimdLevel::Scalar));
        assert_eq!(SimdLevel::parse("sse2"), Some(SimdLevel::Sse2));
        assert_eq!(SimdLevel::parse(" AVX2 "), Some(SimdLevel::Avx2));
        assert_eq!(SimdLevel::parse("neon"), None);
    }

    #[test]
    fn detection_orders_levels() {
        let d = detected_level();
        assert!(d >= SimdLevel::Scalar);
        assert!(SimdLevel::supported().all(|l| l <= d));
    }

    #[test]
    fn quantize_matches_scalar_at_every_level() {
        let mut rng = Lcg(7);
        for len in [0usize, 1, 3, 7, 8, 15, 16, 17, 33, 257] {
            let src: Vec<f32> = (0..len)
                .map(|i| match i % 7 {
                    0 => rng.f32_in(-300.0, 300.0),
                    1 => rng.f32_in(-0.01, 0.01),
                    2 => 1e6,
                    3 => -1e6,
                    4 => rng.f32_in(0.0, 255.0),
                    5 => (rng.next() % 256) as f32,
                    _ => rng.f32_in(-256.5, -255.5),
                })
                .collect();
            let mut want = vec![0i16; len];
            quantize_slice(SimdLevel::Scalar, &src, &mut want);
            for level in vector_levels() {
                let mut got = vec![1i16; len];
                quantize_slice(level, &src, &mut got);
                assert_eq!(got, want, "{} len={len}", level.name());
            }
        }
    }

    #[test]
    fn means_and_prefix_rows_match_scalar_at_every_level() {
        let mut rng = Lcg(99);
        for r in [1usize, 2, 3, 8, 26] {
            let area = ((2 * r + 1) * (2 * r + 1)) as i64;
            for w in [1usize, 4, 5, 8, 13, 16, 31, 64, 127] {
                let bound = area * i16::MAX as i64;
                let col: Vec<i32> = (0..w)
                    .map(|i| match i % 5 {
                        0 => bound as i32,
                        1 => -bound as i32,
                        _ => rng.i64_in(-bound, bound) as i32,
                    })
                    .collect();
                let row: Vec<i16> = (0..w)
                    .map(|_| rng.i64_in(i16::MIN as i64, i16::MAX as i64) as i16)
                    .collect();
                let mut want_mean = vec![0i16; w];
                blur_mean_row(SimdLevel::Scalar, &col, area, &mut want_mean);
                let mut want_sum = vec![0i32; w + 1];
                let mut want_sq = vec![0i64; w + 1];
                highpass_prefix_row(
                    SimdLevel::Scalar,
                    &row,
                    &col,
                    area,
                    &mut want_sum,
                    &mut want_sq,
                );
                for level in vector_levels() {
                    let mut mean = vec![i16::MIN; w];
                    blur_mean_row(level, &col, area, &mut mean);
                    assert_eq!(mean, want_mean, "mean {} r={r} w={w}", level.name());
                    let mut sum = vec![-1i32; w + 1];
                    let mut sq = vec![-1i64; w + 1];
                    highpass_prefix_row(level, &row, &col, area, &mut sum, &mut sq);
                    assert_eq!(sum, want_sum, "sum {} r={r} w={w}", level.name());
                    assert_eq!(sq, want_sq, "sq {} r={r} w={w}", level.name());
                }
            }
        }
    }

    #[test]
    fn window_sums_match_scalar_at_every_level() {
        let mut rng = Lcg(31);
        for r in [0usize, 1, 4, 8, 13] {
            for w in [1usize, 2, 5, 8, 9, 16, 17, 31, 40, 127, 300] {
                let row: Vec<i16> = (0..w)
                    .map(|i| match i % 5 {
                        0 => i16::MAX,
                        1 => i16::MIN,
                        _ => rng.i64_in(i16::MIN as i64, i16::MAX as i64) as i16,
                    })
                    .collect();
                let mut want = vec![0i32; w];
                window_sums_row(SimdLevel::Scalar, &row, r, &mut want);
                for level in vector_levels() {
                    let mut got = vec![-1i32; w];
                    window_sums_row(level, &row, r, &mut got);
                    assert_eq!(got, want, "{} r={r} w={w}", level.name());
                }
            }
        }
    }

    #[test]
    fn lut_apply_matches_scalar_at_every_level() {
        let mut rng = Lcg(1234);
        let mut table = [0.0f32; 256];
        for (i, t) in table.iter_mut().enumerate() {
            *t = crate::qplane::dequantize((i as i16).wrapping_mul(37) - 512);
        }
        for len in [0usize, 1, 3, 4, 5, 8, 9, 17, 64] {
            let video: Vec<f32> = (0..len)
                .map(|i| match i % 6 {
                    0 => -5.0,
                    1 => 300.0,
                    2 => 254.99,
                    3 => 0.49,
                    _ => rng.f32_in(0.0, 255.0),
                })
                .collect();
            for add in [true, false] {
                let mut want = vec![0.0f32; len];
                lut_apply_span(SimdLevel::Scalar, &video, &table, add, &mut want);
                for level in vector_levels() {
                    let mut got = vec![f32::NAN; len];
                    lut_apply_span(level, &video, &table, add, &mut got);
                    assert_eq!(
                        got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        "{} len={len} add={add}",
                        level.name()
                    );
                }
            }
        }
    }

    /// Shift-and-add GF(2⁸) product under 0x11D (the field of
    /// `inframe_code::gf256`), for building reference nibble tables.
    fn gf_mul(mut a: u8, mut b: u8) -> u8 {
        let mut p = 0u8;
        while b != 0 {
            if b & 1 != 0 {
                p ^= a;
            }
            a = (a << 1) ^ if a & 0x80 != 0 { 0x1D } else { 0 };
            b >>= 1;
        }
        p
    }

    #[test]
    fn gf256_prefixes_match_per_byte_products() {
        let mut rng = Lcg(11);
        let src: Vec<u8> = (0..140).map(|_| rng.next() as u8).collect();
        let base: Vec<u8> = (0..140).map(|_| rng.next() as u8).collect();
        for c in [0u8, 1, 2, 0x53, 0x8E, 0xFF] {
            let mut tables = [[0u8; 16]; 2];
            for x in 0..16u8 {
                tables[0][x as usize] = gf_mul(c, x);
                tables[1][x as usize] = gf_mul(c, x << 4);
            }
            for level in SimdLevel::supported() {
                // Odd offsets exercise unaligned loads.
                for (off, len) in [
                    (0, 0),
                    (1, 15),
                    (3, 16),
                    (0, 31),
                    (5, 32),
                    (2, 52),
                    (7, 130),
                ] {
                    let mut dst = base[off..off + len].to_vec();
                    let n = gf256_mul_add_prefix(level, &tables, &mut dst, &src[off..off + len]);
                    let mut row = src[off..off + len].to_vec();
                    let m = gf256_scale_prefix(level, &tables, &mut row);
                    let want = if level == SimdLevel::Avx2 {
                        len - len % 16
                    } else {
                        0
                    };
                    assert_eq!((n, m), (want, want), "{level:?} len {len}");
                    for i in 0..len {
                        let (b, s) = (base[off + i], src[off + i]);
                        let covered = i < n;
                        assert_eq!(dst[i], if covered { b ^ gf_mul(c, s) } else { b });
                        assert_eq!(row[i], if covered { gf_mul(c, s) } else { s });
                    }
                }
            }
        }
    }

    #[test]
    fn segment_sums_match_scalar_at_every_level() {
        let mut rng = Lcg(5150);
        let table_i32: Vec<i32> = (0..1000)
            .map(|_| rng.i64_in(-60_000_000, 60_000_000) as i32)
            .collect();
        let table_i64: Vec<i64> = (0..1000).map(|_| rng.i64_in(0, 1 << 45)).collect();
        for n in [0usize, 1, 4, 5, 7, 8, 9, 16, 40, 129] {
            let idx0: Vec<u32> = (0..n).map(|_| (rng.next() % 1000) as u32).collect();
            let idx1: Vec<u32> = (0..n).map(|_| (rng.next() % 1000) as u32).collect();
            let sign: Vec<i32> = (0..n).map(|i| if i % 3 == 0 { -1 } else { 1 }).collect();
            let whole = [(0u32, n as u32)];
            let signed = |level| {
                let mut acc = [0i64];
                signed_segment_sums_sliced(
                    level, &table_i32, &idx0, &idx1, &sign, &whole, &mut acc,
                );
                acc[0]
            };
            let energy = |level| {
                let mut acc = [0i64];
                segment_sums_sliced(level, &table_i64, &idx0, &idx1, &whole, &mut acc);
                acc[0]
            };
            let want_s = signed(SimdLevel::Scalar);
            let want_q = energy(SimdLevel::Scalar);
            for level in vector_levels() {
                assert_eq!(signed(level), want_s, "i32 {} n={n}", level.name());
                assert_eq!(energy(level), want_q, "i64 {} n={n}", level.name());
            }
        }
    }

    #[test]
    #[should_panic(expected = "gather index out of table bounds")]
    fn out_of_bounds_gather_index_panics() {
        let table = vec![0i32; 8];
        signed_segment_sums_sliced(
            detected_level(),
            &table,
            &[8],
            &[0],
            &[1],
            &[(0, 1)],
            &mut [0],
        );
    }
}
