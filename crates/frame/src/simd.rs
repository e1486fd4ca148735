//! Explicit SIMD kernel backend with one-time runtime dispatch.
//!
//! The LUT render's two hot loops — f32→Q8.7 quantization and the
//! `ChessLut` chessboard patch — have hand-written `std::arch` paths
//! (SSE2 and AVX2) here, as do the rateless code's GF(2⁸) row
//! operations, next to a portable scalar path, selected once per
//! process:
//!
//! * [`active_level`] reads the `INFRAME_SIMD` environment variable
//!   (`off` | `sse2` | `avx2`), clamps it to what
//!   `is_x86_feature_detected!` reports, and caches the result in an
//!   atomic — later calls are a single relaxed load.
//! * [`force_level`] overrides the cached level (tests use it to prove
//!   bit-identity across levels); `force_level(None)` re-arms detection.
//!
//! **The scalar path is the oracle.** Every vector kernel is constructed
//! to be *bit-identical* to its scalar form for all pipeline-reachable
//! inputs, and the equivalence suite pins that claim at every forced
//! level. The interesting identities:
//!
//! * **Quantization** uses the same multiply → clamp → `±1.5·2²³` shift
//!   trick as [`crate::qplane::quantize`]; `_mm{,256}_cvtps_epi32` on
//!   the already-integral result is exact regardless of rounding mode.
//! * **LUT apply** rounds each clamped video sample to its code and
//!   gathers the table entry; the f32 add or subtract then runs on the
//!   same operands as the scalar loop.
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
//! * **Scalar code compiled twice** ([`run_at`]): the camera's capture
//!   back end (the noise draws and polynomial Gaussian, the gamma lookup
//!   that follows them, and the two-tap area downsample in
//!   [`crate::resample`]) has no intrinsics. Its scalar Rust runs inside
//!   a closure that [`run_at`] calls through an AVX2 `target_feature`
//!   trampoline, so LLVM vectorizes it four `f64`s wide instead of the
//!   baseline SSE2's two. Rust never fuses a multiply and an add or
//!   reorders float operations, so the AVX2 compilation gives the same
//!   bits as the plain one, which is its oracle. Callers mark the
//!   closure `#[inline(always)]`: the trampoline only changes code that
//!   LLVM inlines into it.
//!
//! All `unsafe` in the workspace is confined to this module (the crate
//! root keeps `#![deny(unsafe_code)]`, and crates such as the camera that
//! use [`run_at`] keep `#![forbid(unsafe_code)]`); every intrinsic body
//! and the trampoline are wrapped by safe dispatchers that clamp the
//! requested level to the detected one, so callers can never reach an
//! instruction the CPU lacks.

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
// Scalar code compiled for AVX2
// --------------------------------------------------------------------

/// Runs `f`, compiled for AVX2 when `level` (clamped to the detected
/// level) is [`SimdLevel::Avx2`], and as plain code otherwise.
///
/// At AVX2 the call goes through a `#[target_feature(enable = "avx2")]`
/// trampoline, so `f`'s loops vectorize four `f64`s or eight `f32`s
/// wide. That holds only for code inlined into the trampoline: mark the
/// closure `#[inline(always)]`, or LLVM may compile it once, for the
/// baseline, and call it. `f` is scalar Rust either way, and Rust never
/// contracts a multiply and an add into an FMA or reorders float
/// operations, so both compilations give the same bits: the plain one is
/// the oracle.
#[inline]
pub fn run_at<R>(level: SimdLevel, f: impl FnOnce() -> R) -> R {
    match level.min(detected_level()) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the clamp above guarantees the feature is present.
        SimdLevel::Avx2 => unsafe { x86::run_avx2(f) },
        _ => f(),
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

    /// Calls `f` with AVX2 enabled, for [`super::run_at`].
    ///
    /// # Safety
    /// Requires AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn run_avx2<R>(f: impl FnOnce() -> R) -> R {
        f()
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
}
