//! Chessboard pattern rendering and local amplitude adjustment.
//!
//! A `1` Block adds a chessboard of super-Pixels at amplitude δ to `V+D`
//! frames and subtracts it from `V−D` frames; a `0` Block leaves the video
//! unchanged (§3.3). Because multiplexed pixel values must stay inside
//! `[0, 255]`, bright/dark areas get a locally reduced amplitude — applied
//! identically to both frames of a complementary pair so the pair still
//! averages to `V`.
//!
//! Two complementation rules are provided:
//!
//! * [`Complementation::Code`] — the paper's definition (`v_p + v_p* =
//!   2v`, §3.2): symmetric in code values. Because the display EOTF is
//!   convex, the *light* average of such a pair sits slightly above the
//!   original, and that offset is modulated by the smoothing envelope —
//!   a residual low-frequency ripple.
//! * [`Complementation::Luminance`] — symmetric in linear light: the code
//!   offsets are chosen so the pair's emitted light averages to exactly
//!   the original's. This is what a production implementation would ship
//!   (and what the workspace defaults to); the ripple ablation quantifies
//!   the difference.

use crate::dataframe::DataFrame;
use crate::layout::DataLayout;
use crate::parallel::ParallelEngine;
use inframe_frame::color;
use inframe_frame::qplane;
use inframe_frame::simd;
use inframe_frame::Plane;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// How complementary frame pairs are balanced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Complementation {
    /// Symmetric in code values (`(v+p) + (v−p) = 2v`), the paper's §3.2
    /// definition.
    Code,
    /// Symmetric in emitted linear light (the pair averages to the
    /// original luminance exactly).
    Luminance,
}

/// The per-pixel offsets `(P⁺, P⁻)` such that the displayed pair is
/// `(V + P⁺, V − P⁻)`.
///
/// `envelope_amplitude(bx, by)` returns the per-Block amplitude fraction
/// in `[0, 1]` for the current iteration (1.0 for a stable `1` bit, 0.0
/// for a stable `0`, intermediate during smoothed transitions).
pub fn pair_offsets(
    layout: &DataLayout,
    video: &Plane<f32>,
    data: &DataFrame,
    delta: f32,
    complementation: Complementation,
    envelope_amplitude: impl FnMut(usize, usize) -> f32,
) -> (Plane<f32>, Plane<f32>) {
    let mut plus = Plane::<f32>::filled(video.width(), video.height(), 0.0);
    let mut minus = Plane::<f32>::filled(video.width(), video.height(), 0.0);
    pair_offsets_into(
        layout,
        video,
        data,
        delta,
        complementation,
        envelope_amplitude,
        &ParallelEngine::sequential(),
        &mut plus,
        &mut minus,
    );
    (plus, minus)
}

/// Allocation-free, band-parallel form of [`pair_offsets`]: renders the
/// offsets into caller-provided planes using `engine`'s workers.
///
/// The envelope closure is stateful (`FnMut`), so amplitudes are sampled
/// once on the calling thread — in the same `(by, bx)` row-major order the
/// sequential renderer uses — before the per-pixel work is banded across
/// workers. Every pixel is a pure function of `(x, y, video)`, so the
/// output is **bit-identical for every worker count**.
///
/// # Panics
/// Panics if `plus` or `minus` is not shaped like `video`.
#[allow(clippy::too_many_arguments)]
pub fn pair_offsets_into(
    layout: &DataLayout,
    video: &Plane<f32>,
    data: &DataFrame,
    delta: f32,
    complementation: Complementation,
    envelope_amplitude: impl FnMut(usize, usize) -> f32,
    engine: &ParallelEngine,
    plus: &mut Plane<f32>,
    minus: &mut Plane<f32>,
) {
    let _ = &data; // bits arrive through the envelope closure
    let mut amps = Vec::new();
    sample_amplitudes(layout, envelope_amplitude, &mut amps);
    render_offsets_with_amps(
        layout,
        video,
        delta,
        complementation,
        &amps,
        engine,
        plus,
        minus,
    );
}

/// Samples the per-Block envelope amplitudes into `amps` (reused,
/// row-major `(by, bx)` order — the order every renderer assumes). The
/// closure is stateful (`FnMut`), so this always runs on the calling
/// thread; the streaming multiplexer keeps one `amps` vector alive so
/// pair turnover allocates nothing.
pub fn sample_amplitudes(
    layout: &DataLayout,
    mut envelope_amplitude: impl FnMut(usize, usize) -> f32,
    amps: &mut Vec<f32>,
) {
    amps.clear();
    amps.reserve(layout.blocks_x * layout.blocks_y);
    for by in 0..layout.blocks_y {
        for bx in 0..layout.blocks_x {
            let a = envelope_amplitude(bx, by);
            debug_assert!(
                a <= 1.0 + 1e-6,
                "envelope amplitude out of range at ({bx},{by})"
            );
            amps.push(a);
        }
    }
}

/// Band-parallel offset renderer over presampled amplitudes — the core of
/// [`pair_offsets_into`], split out so callers with a long-lived amplitude
/// buffer render with zero per-pair allocations.
///
/// # Panics
/// Panics if `plus`/`minus` are not shaped like `video` or `amps` does not
/// cover the block grid.
#[allow(clippy::too_many_arguments)]
pub fn render_offsets_with_amps(
    layout: &DataLayout,
    video: &Plane<f32>,
    delta: f32,
    complementation: Complementation,
    amps: &[f32],
    engine: &ParallelEngine,
    plus: &mut Plane<f32>,
    minus: &mut Plane<f32>,
) {
    assert_eq!(plus.shape(), video.shape(), "plus plane must match video");
    assert_eq!(minus.shape(), video.shape(), "minus plane must match video");
    assert_eq!(
        amps.len(),
        layout.blocks_x * layout.blocks_y,
        "one amplitude per Block"
    );
    plus.samples_mut().fill(0.0);
    minus.samples_mut().fill(0.0);
    let width = video.width();
    engine.for_each_band_pair(plus, minus, |rows, band_plus, band_minus| {
        render_band(
            layout,
            video,
            delta,
            complementation,
            amps,
            rows,
            width,
            band_plus,
            band_minus,
        );
    });
}

/// Renders the offset pair for the display rows `rows` into two band
/// slices whose row 0 is display row `rows.start`.
#[allow(clippy::too_many_arguments)]
fn render_band(
    layout: &DataLayout,
    video: &Plane<f32>,
    delta: f32,
    complementation: Complementation,
    amps: &[f32],
    rows: Range<usize>,
    width: usize,
    plus: &mut [f32],
    minus: &mut [f32],
) {
    let cell = layout.pixel_size;
    for by in 0..layout.blocks_y {
        // All blocks of a block-row share one vertical extent; clip it to
        // the band before visiting the row's blocks.
        let row_rect = layout.block_rect(0, by);
        let y_lo = row_rect.y.max(rows.start);
        let y_hi = (row_rect.y + row_rect.h).min(rows.end);
        if y_lo >= y_hi {
            continue;
        }
        for bx in 0..layout.blocks_x {
            let a = amps[by * layout.blocks_x + bx];
            if a <= 0.0 {
                continue;
            }
            let rect = layout.block_rect(bx, by);
            for y in y_lo..y_hi {
                let row_off = (y - rows.start) * width;
                let pj = (y - rect.y) / cell;
                for x in rect.x..rect.x + rect.w {
                    let pi = (x - rect.x) / cell;
                    // Paper: δ where Pixel (i+j) is odd, 0 otherwise.
                    if (pi + pj) % 2 != 1 {
                        continue;
                    }
                    if let Some((p, m)) = pixel_offsets(delta, complementation, a, video.get(x, y))
                    {
                        plus[row_off + x] = p;
                        minus[row_off + x] = m;
                    }
                }
            }
        }
    }
}

/// The chessboard offsets `(P⁺, P⁻)` of one odd-parity pixel with video
/// code `v` in a Block at envelope amplitude `a`, or `None` where the
/// pixel stays unperturbed (both offsets `0`).
///
/// Local adjustment: the full swing must fit in `[0, 255]` on both frames
/// of the pair, so bright and dark pixels get a reduced amplitude. Under
/// [`Complementation::Luminance`] the offsets move `±λ` in linear light
/// around `L(v)`, where `λ` is half the light swing of the code-symmetric
/// pair — same detectability, zero mean-light shift — at the cost of five
/// sRGB transfer evaluations.
#[inline]
fn pixel_offsets(
    delta: f32,
    complementation: Complementation,
    a: f32,
    v: f32,
) -> Option<(f32, f32)> {
    let amp = (delta * a).min(255.0 - v).min(v).max(0.0);
    if amp <= 0.0 {
        return None;
    }
    Some(match complementation {
        Complementation::Code => (amp, amp),
        Complementation::Luminance => {
            let l_mid = color::code_to_linear(v);
            let l_hi = color::code_to_linear(v + amp);
            let l_lo = color::code_to_linear(v - amp);
            let lambda = ((l_hi - l_lo) / 2.0).min(l_mid).min(1.0 - l_mid);
            let code_hi = color::linear_to_code(l_mid + lambda);
            let code_lo = color::linear_to_code(l_mid - lambda);
            ((code_hi - v).max(0.0), (v - code_lo).max(0.0))
        }
    })
}

/// Amplitude quantization steps of the [`ChessLut`] (envelope fractions
/// `[0, 1]` map to `0..=LUT_AMP_STEPS`). At 1024 steps and δ ≤ 50 the
/// worst-case amplitude snap is δ/2048 < 0.025 code values — 3 Q8.7 LSB,
/// invisible next to the ±20 chessboard swing.
pub const LUT_AMP_STEPS: usize = 1024;

/// One amplitude step's lookup tables: Q8.7 offsets `(P⁺, P⁻)` indexed by
/// the 8-bit video code value.
#[derive(Debug, Clone)]
pub struct LutTable {
    /// `P⁺` offset per video code value, Q8.7.
    pub plus: [i16; 256],
    /// `P⁻` offset per video code value, Q8.7.
    pub minus: [i16; 256],
    /// `dequantize(plus)`, precomputed so the SIMD render gather adds
    /// exactly the values the scalar path dequantizes per pixel.
    pub plus_f32: [f32; 256],
    /// `dequantize(minus)`, same contract.
    pub minus_f32: [f32; 256],
}

/// Precomputed per-(amplitude step, video code) chessboard delta tables —
/// the quantized render backend.
///
/// The expensive part of `pixel_offsets` is [`Complementation::Luminance`]:
/// five sRGB transfer evaluations (`powf`) per chessboard pixel. But the
/// offsets depend only on `(amplitude, video code)`, the
/// envelope takes a handful of distinct amplitudes per configuration
/// (stable 0/1 plus the τ/2 transition samples), and video codes are
/// 8-bit — so the SRRC temporal envelope collapses to a table lookup and
/// a Q8.7 add per pixel. Tables are built lazily per amplitude step
/// (256 entries each) and cached for the multiplexer's lifetime.
#[derive(Debug, Clone)]
pub struct ChessLut {
    delta: f32,
    complementation: Complementation,
    tables: Vec<Option<Box<LutTable>>>,
}

impl ChessLut {
    /// Creates an empty cache for the given amplitude/complementation.
    pub fn new(delta: f32, complementation: Complementation) -> Self {
        Self {
            delta,
            complementation,
            tables: vec![None; LUT_AMP_STEPS + 1],
        }
    }

    /// Quantizes an envelope amplitude fraction to its step index.
    #[inline]
    pub fn amp_step(a: f32) -> u16 {
        (a.clamp(0.0, 1.0) * LUT_AMP_STEPS as f32).round() as u16
    }

    /// Builds the table for `step` if missing (idempotent; call for every
    /// step a frame needs before fanning rendering out over workers).
    pub fn ensure_step(&mut self, step: u16) {
        let slot = &mut self.tables[step as usize];
        if slot.is_some() {
            return;
        }
        let a = step as f32 / LUT_AMP_STEPS as f32;
        let mut table = Box::new(LutTable {
            plus: [0; 256],
            minus: [0; 256],
            plus_f32: [0.0; 256],
            minus_f32: [0.0; 256],
        });
        for code in 0..256usize {
            let Some((p, m)) = pixel_offsets(self.delta, self.complementation, a, code as f32)
            else {
                continue;
            };
            table.plus[code] = qplane::quantize(p);
            table.minus[code] = qplane::quantize(m);
            table.plus_f32[code] = qplane::dequantize(table.plus[code]);
            table.minus_f32[code] = qplane::dequantize(table.minus[code]);
        }
        *slot = Some(table);
    }

    /// The table for `step`.
    ///
    /// # Panics
    /// Panics if [`ChessLut::ensure_step`] was not called for `step`.
    #[inline]
    pub fn table(&self, step: u16) -> &LutTable {
        self.tables[step as usize]
            .as_deref()
            .expect("ensure_step must precede table lookups")
    }
}

/// Walks display row `y`'s chessboard geometry left to right and hands
/// every sample to `span` exactly once: `span(xs, None)` for each span off
/// the chessboard (margins, Blocks whose amplitude is not `active`,
/// even-parity cells) and `span(xs, Some(a))` for each odd-parity cell of
/// an active Block with amplitude `a`. `amps` is row-major over the Block
/// grid; both fused renderers walk their rows through this one function.
#[inline]
fn for_each_row_span<A: Copy>(
    layout: &DataLayout,
    width: usize,
    y: usize,
    amps: &[A],
    active: impl Fn(A) -> bool,
    mut span: impl FnMut(Range<usize>, Option<A>),
) {
    let cell = layout.pixel_size;
    let bp = layout.block_px();
    let grid_y0 = layout.origin_y;
    if y < grid_y0 || y >= grid_y0 + layout.blocks_y * bp {
        span(0..width, None);
        return;
    }
    let by = (y - grid_y0) / bp;
    let pj = ((y - grid_y0) % bp) / cell;
    let mut cursor = 0usize;
    for (bx, &a) in amps[by * layout.blocks_x..(by + 1) * layout.blocks_x]
        .iter()
        .enumerate()
    {
        let xa = layout.origin_x + bx * bp;
        if xa > cursor {
            span(cursor..xa, None);
        }
        cursor = xa + bp;
        if !active(a) {
            span(xa..cursor, None);
            continue;
        }
        for pi in 0..layout.block_size {
            let x0 = xa + pi * cell;
            // Paper: δ where Pixel (i+j) is odd, 0 otherwise.
            let odd = (pi + pj) % 2 == 1;
            span(x0..x0 + cell, odd.then_some(a));
        }
    }
    if cursor < width {
        span(cursor..width, None);
    }
}

/// Renders one displayed frame `V ± P` directly (fused video copy + LUT
/// add) — the quantized backend's replacement for offset rendering plus
/// full-frame [`inframe_frame::arith`] add/sub.
///
/// `steps[by·blocks_x + bx]` is the Block's quantized envelope amplitude
/// (see [`ChessLut::amp_step`]); every step referenced must have been
/// built via [`ChessLut::ensure_step`]. Each band walks its rows once,
/// writing every output pixel exactly once: margins and even-parity
/// chessboard cells are straight copies of the video row, odd-parity
/// cells of active Blocks go through [`simd::lut_apply_span`] (AVX2
/// hardware gather, SSE2 manual gather, or the scalar oracle — all
/// bit-identical). The single-write row-major pass both halves the
/// bytes written over the data rectangle (no copy-then-overwrite) and
/// streams each video row through cache once instead of revisiting the
/// band per Block column. Output is **bit-identical for every worker
/// count and SIMD level** (pure per-pixel function).
///
/// # Panics
/// Panics if shapes mismatch or a referenced step was never built.
pub fn render_frame_lut(
    layout: &DataLayout,
    video: &Plane<f32>,
    plus_frame: bool,
    steps: &[u16],
    lut: &ChessLut,
    engine: &ParallelEngine,
    out: &mut Plane<f32>,
) {
    assert_eq!(out.shape(), video.shape(), "output must match video");
    assert_eq!(
        steps.len(),
        layout.blocks_x * layout.blocks_y,
        "one amplitude step per Block"
    );
    let width = video.width();
    let level = simd::active_level();
    engine.for_each_band(out, |rows, band| {
        let vsrc = video.samples();
        for y in rows.clone() {
            let row_off = (y - rows.start) * width;
            let dst = &mut band[row_off..row_off + width];
            let vrow = &vsrc[y * width..(y + 1) * width];
            for_each_row_span(
                layout,
                width,
                y,
                steps,
                |step| step != 0,
                |xs, step| {
                    let Some(step) = step else {
                        dst[xs.clone()].copy_from_slice(&vrow[xs]);
                        return;
                    };
                    let table = lut.table(step);
                    let table = if plus_frame {
                        &table.plus_f32
                    } else {
                        &table.minus_f32
                    };
                    simd::lut_apply_span(level, &vrow[xs.clone()], table, plus_frame, &mut dst[xs]);
                },
            );
        }
    });
}

/// The reference backend's plus frame `V + P⁺`, rendered straight into
/// `out` from presampled Block amplitudes, that also saves the pair's
/// `P⁻` into `minus_offsets` for [`render_minus_reference`]. Together the
/// two are bit-identical to [`render_offsets_with_amps`] followed by a
/// full-frame [`inframe_frame::arith`] add/sub.
///
/// Each band walks its rows once and writes every output pixel once.
/// Pixels off the chessboard (margins, even-parity cells, silent Blocks)
/// compute `v + 0.0`, exactly what the add over a zero offset plane
/// computes, so signed zeros come out the same. Odd-parity pixels go
/// through `pixel_offsets`, memoized on the last `(a, v)` bit pair: a run
/// of equal codes pays the Luminance mode's five transfer evaluations
/// once, and content without runs pays one compare per pixel. Only those
/// odd-parity samples of `minus_offsets` are written. Output is
/// **bit-identical for every worker count** (the memo is exact, so where
/// a band starts cannot matter).
///
/// # Panics
/// Panics if `out` or `minus_offsets` is not shaped like `video`, or
/// `amps` does not cover the block grid.
#[allow(clippy::too_many_arguments)]
pub(crate) fn render_plus_reference(
    layout: &DataLayout,
    video: &Plane<f32>,
    delta: f32,
    complementation: Complementation,
    amps: &[f32],
    engine: &ParallelEngine,
    out: &mut Plane<f32>,
    minus_offsets: &mut Plane<f32>,
) {
    assert_eq!(out.shape(), video.shape(), "output must match video");
    assert_eq!(
        amps.len(),
        layout.blocks_x * layout.blocks_y,
        "one amplitude per Block"
    );
    let width = video.width();
    engine.for_each_band_pair(out, minus_offsets, |rows, band, band_minus| {
        let vsrc = video.samples();
        // The last `(a, v)` bit pair and the offsets it selects.
        let mut memo: Option<(u64, (f32, f32))> = None;
        for y in rows.clone() {
            let row_off = (y - rows.start) * width;
            let dst = &mut band[row_off..row_off + width];
            let saved = &mut band_minus[row_off..row_off + width];
            let vrow = &vsrc[y * width..(y + 1) * width];
            for_each_row_span(
                layout,
                width,
                y,
                amps,
                |a| a > 0.0,
                |xs, a| {
                    let Some(a) = a else {
                        for (d, &v) in dst[xs.clone()].iter_mut().zip(&vrow[xs]) {
                            *d = v + 0.0;
                        }
                        return;
                    };
                    let a_key = u64::from(a.to_bits()) << 32;
                    let pixels = dst[xs.clone()].iter_mut().zip(&mut saved[xs.clone()]);
                    for ((d, m), &v) in pixels.zip(&vrow[xs]) {
                        let key = a_key | u64::from(v.to_bits());
                        let (p, minus) = match memo {
                            Some((k, offsets)) if k == key => offsets,
                            _ => {
                                let offsets = pixel_offsets(delta, complementation, a, v)
                                    .unwrap_or((0.0, 0.0));
                                memo = Some((key, offsets));
                                offsets
                            }
                        };
                        *d = v + p;
                        *m = minus;
                    }
                },
            );
        }
    });
}

/// The reference backend's minus frame `V − P⁻`, from the offsets that
/// [`render_plus_reference`] saved for the same video and `amps`: pixels
/// off the chessboard compute `v − 0.0`, odd-parity pixels `v −` their
/// saved `P⁻`. Bit-identical for every worker count.
///
/// # Panics
/// Panics if `out` or `minus_offsets` is not shaped like `video`, or
/// `amps` does not cover the block grid.
pub(crate) fn render_minus_reference(
    layout: &DataLayout,
    video: &Plane<f32>,
    amps: &[f32],
    minus_offsets: &Plane<f32>,
    engine: &ParallelEngine,
    out: &mut Plane<f32>,
) {
    assert_eq!(out.shape(), video.shape(), "output must match video");
    assert_eq!(
        minus_offsets.shape(),
        video.shape(),
        "offsets must match video"
    );
    assert_eq!(
        amps.len(),
        layout.blocks_x * layout.blocks_y,
        "one amplitude per Block"
    );
    let width = video.width();
    engine.for_each_band(out, |rows, band| {
        let (vsrc, msrc) = (video.samples(), minus_offsets.samples());
        for y in rows.clone() {
            let row_off = (y - rows.start) * width;
            let dst = &mut band[row_off..row_off + width];
            let vrow = &vsrc[y * width..(y + 1) * width];
            let mrow = &msrc[y * width..(y + 1) * width];
            for_each_row_span(
                layout,
                width,
                y,
                amps,
                |a| a > 0.0,
                |xs, a| {
                    let pixels = dst[xs.clone()].iter_mut().zip(&vrow[xs.clone()]);
                    if a.is_some() {
                        for ((d, &v), &m) in pixels.zip(&mrow[xs]) {
                            *d = v - m;
                        }
                    } else {
                        for (d, &v) in pixels {
                            *d = v - 0.0;
                        }
                    }
                },
            );
        }
    });
}

/// Renders the complementary pair `(V + P⁺, V − P⁻)` for one iteration.
pub fn complementary_pair(
    layout: &DataLayout,
    video: &Plane<f32>,
    data: &DataFrame,
    delta: f32,
    complementation: Complementation,
    envelope_amplitude: impl FnMut(usize, usize) -> f32,
) -> (Plane<f32>, Plane<f32>) {
    let (p_plus, p_minus) = pair_offsets(
        layout,
        video,
        data,
        delta,
        complementation,
        envelope_amplitude,
    );
    let plus = inframe_frame::arith::add(video, &p_plus).expect("same shape by construction");
    let minus = inframe_frame::arith::sub(video, &p_minus).expect("same shape by construction");
    (plus, minus)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CodingMode, InFrameConfig};
    use proptest::prelude::*;

    fn setup() -> (DataLayout, DataFrame) {
        let cfg = InFrameConfig::small_test();
        let layout = DataLayout::from_config(&cfg);
        let payload: Vec<bool> = (0..layout.payload_bits_parity())
            .map(|i| i % 2 == 0)
            .collect();
        let frame = DataFrame::encode(&layout, &payload, CodingMode::Parity);
        (layout, frame)
    }

    fn full_amplitude(data: &DataFrame) -> impl FnMut(usize, usize) -> f32 + '_ {
        move |bx, by| if data.bit(bx, by) { 1.0 } else { 0.0 }
    }

    #[test]
    fn code_pair_averages_back_to_video_exactly() {
        let (layout, data) = setup();
        let video = Plane::from_fn(192, 144, |x, y| 60.0 + ((x + y) % 100) as f32);
        let (plus, minus) = complementary_pair(
            &layout,
            &video,
            &data,
            20.0,
            Complementation::Code,
            full_amplitude(&data),
        );
        for (x, y, v) in video.iter_xy() {
            let avg = (plus.get(x, y) + minus.get(x, y)) / 2.0;
            assert!((avg - v).abs() < 1e-4, "({x},{y})");
        }
    }

    #[test]
    fn luminance_pair_averages_to_video_light() {
        let (layout, data) = setup();
        let video = Plane::filled(192, 144, 180.0);
        let (plus, minus) = complementary_pair(
            &layout,
            &video,
            &data,
            30.0,
            Complementation::Luminance,
            full_amplitude(&data),
        );
        for (x, y, v) in video.iter_xy() {
            let l_avg = (color::code_to_linear(plus.get(x, y))
                + color::code_to_linear(minus.get(x, y)))
                / 2.0;
            let l_orig = color::code_to_linear(v);
            assert!(
                (l_avg - l_orig).abs() < 2e-3,
                "light shift at ({x},{y}): {l_avg} vs {l_orig}"
            );
        }
    }

    #[test]
    fn code_pair_shifts_light_upward_on_bright_content() {
        // The convexity ripple the Luminance mode eliminates.
        let (layout, data) = setup();
        let video = Plane::filled(192, 144, 180.0);
        let (plus, minus) = complementary_pair(
            &layout,
            &video,
            &data,
            30.0,
            Complementation::Code,
            full_amplitude(&data),
        );
        let mut max_shift = 0.0f32;
        for (x, y, v) in video.iter_xy() {
            let l_avg = (color::code_to_linear(plus.get(x, y))
                + color::code_to_linear(minus.get(x, y)))
                / 2.0;
            max_shift = max_shift.max(l_avg - color::code_to_linear(v));
        }
        assert!(max_shift > 1e-3, "code pairs must show the light shift");
    }

    #[test]
    fn both_frames_stay_in_code_range() {
        let (layout, data) = setup();
        let video = Plane::from_fn(192, 144, |x, _| if x % 2 == 0 { 3.0 } else { 252.0 });
        for mode in [Complementation::Code, Complementation::Luminance] {
            let (plus, minus) =
                complementary_pair(&layout, &video, &data, 20.0, mode, full_amplitude(&data));
            assert!(plus.max_sample() <= 255.0 + 1e-3);
            assert!(plus.min_sample() >= -1e-3);
            assert!(minus.max_sample() <= 255.0 + 1e-3);
            assert!(minus.min_sample() >= -1e-3);
        }
    }

    #[test]
    fn one_blocks_carry_chessboard_zero_blocks_do_not() {
        let (layout, data) = setup();
        let video = Plane::filled(192, 144, 127.0);
        let (p, _) = pair_offsets(
            &layout,
            &video,
            &data,
            20.0,
            Complementation::Code,
            full_amplitude(&data),
        );
        let mut found_one = false;
        let mut found_zero = false;
        for by in 0..layout.blocks_y {
            for bx in 0..layout.blocks_x {
                let rect = layout.block_rect(bx, by);
                let region = p.crop(rect.x, rect.y, rect.w, rect.h).unwrap();
                let energy: f32 = region.samples().iter().sum();
                if data.bit(bx, by) {
                    assert!(energy > 0.0, "1-block ({bx},{by}) must perturb");
                    found_one = true;
                } else {
                    assert_eq!(energy, 0.0, "0-block ({bx},{by}) must be silent");
                    found_zero = true;
                }
            }
        }
        assert!(found_one && found_zero);
    }

    #[test]
    fn chessboard_cells_have_pixel_granularity() {
        let (layout, data) = setup();
        let video = Plane::filled(192, 144, 127.0);
        let (p, _) = pair_offsets(
            &layout,
            &video,
            &data,
            20.0,
            Complementation::Code,
            full_amplitude(&data),
        );
        let (bx, by) = (0..layout.blocks_y)
            .flat_map(|by| (0..layout.blocks_x).map(move |bx| (bx, by)))
            .find(|&(bx, by)| data.bit(bx, by))
            .expect("some 1 block exists");
        let rect = layout.block_rect(bx, by);
        let cell = layout.pixel_size;
        let base = p.get(rect.x + cell, rect.y); // Pixel (1,0): odd → δ
        for dy in 0..cell {
            for dx in 0..cell {
                assert_eq!(p.get(rect.x + cell + dx, rect.y + dy), base);
            }
        }
        assert_eq!(base, 20.0);
        assert_eq!(p.get(rect.x, rect.y), 0.0);
    }

    #[test]
    fn envelope_scales_amplitude() {
        let (layout, data) = setup();
        let video = Plane::filled(192, 144, 127.0);
        let (half, _) = pair_offsets(
            &layout,
            &video,
            &data,
            20.0,
            Complementation::Code,
            |bx, by| {
                if data.bit(bx, by) {
                    0.5
                } else {
                    0.0
                }
            },
        );
        let (full, _) = pair_offsets(
            &layout,
            &video,
            &data,
            20.0,
            Complementation::Code,
            full_amplitude(&data),
        );
        assert!((half.max_sample() - 10.0).abs() < 1e-4);
        assert!((full.max_sample() - 20.0).abs() < 1e-4);
    }

    #[test]
    fn bright_areas_get_reduced_amplitude() {
        let (layout, data) = setup();
        let video = Plane::filled(192, 144, 250.0);
        let (p, _) = pair_offsets(
            &layout,
            &video,
            &data,
            20.0,
            Complementation::Code,
            full_amplitude(&data),
        );
        // Amplitude capped at 255 − 250 = 5.
        assert!(p.max_sample() <= 5.0 + 1e-4);
    }

    #[test]
    fn lut_render_matches_reference_pair_within_half_lsb() {
        // The fused LUT renderer must agree with pair_offsets + add/sub on
        // integer-valued video (the only values the sender ever feeds it)
        // to within Q8.7 quantization of the offsets.
        let (layout, data) = setup();
        let video = Plane::from_fn(192, 144, |x, y| ((x * 7 + y * 13) % 256) as f32);
        let engine = ParallelEngine::sequential();
        for mode in [Complementation::Code, Complementation::Luminance] {
            let (p_plus, p_minus) =
                pair_offsets(&layout, &video, &data, 20.0, mode, full_amplitude(&data));
            let ref_plus = inframe_frame::arith::add(&video, &p_plus).unwrap();
            let ref_minus = inframe_frame::arith::sub(&video, &p_minus).unwrap();

            let mut amps = Vec::new();
            sample_amplitudes(&layout, full_amplitude(&data), &mut amps);
            let steps: Vec<u16> = amps.iter().map(|&a| ChessLut::amp_step(a)).collect();
            let mut lut = ChessLut::new(20.0, mode);
            for &s in &steps {
                lut.ensure_step(s);
            }
            let mut lut_plus = Plane::filled(192, 144, -1.0);
            let mut lut_minus = Plane::filled(192, 144, -1.0);
            render_frame_lut(&layout, &video, true, &steps, &lut, &engine, &mut lut_plus);
            render_frame_lut(
                &layout,
                &video,
                false,
                &steps,
                &lut,
                &engine,
                &mut lut_minus,
            );

            let half_lsb = qplane::LSB / 2.0 + 1e-6;
            for (x, y, r) in ref_plus.iter_xy() {
                assert!(
                    (lut_plus.get(x, y) - r).abs() <= half_lsb,
                    "{mode:?} plus ({x},{y}): {} vs {r}",
                    lut_plus.get(x, y)
                );
            }
            for (x, y, r) in ref_minus.iter_xy() {
                assert!(
                    (lut_minus.get(x, y) - r).abs() <= half_lsb,
                    "{mode:?} minus ({x},{y}): {} vs {r}",
                    lut_minus.get(x, y)
                );
            }
        }
    }

    #[test]
    fn lut_render_handles_fractional_envelope_amplitudes() {
        // Mid-transition amplitudes go through amp_step quantization; at
        // 1024 steps the amplitude snap is ≤ δ/2048, so the rendered frame
        // stays within (δ/2048 + half an LSB) of the reference.
        let (layout, data) = setup();
        let video = Plane::filled(192, 144, 127.0);
        let engine = ParallelEngine::new(3);
        let frac = |data: &DataFrame| {
            let d = data.clone();
            move |bx: usize, by: usize| if d.bit(bx, by) { 0.37 } else { 0.0 }
        };
        let (p_plus, _) = pair_offsets(
            &layout,
            &video,
            &data,
            20.0,
            Complementation::Luminance,
            frac(&data),
        );
        let ref_plus = inframe_frame::arith::add(&video, &p_plus).unwrap();

        let mut amps = Vec::new();
        sample_amplitudes(&layout, frac(&data), &mut amps);
        let steps: Vec<u16> = amps.iter().map(|&a| ChessLut::amp_step(a)).collect();
        let mut lut = ChessLut::new(20.0, Complementation::Luminance);
        for &s in &steps {
            lut.ensure_step(s);
        }
        let mut lut_plus = Plane::filled(192, 144, 0.0);
        render_frame_lut(&layout, &video, true, &steps, &lut, &engine, &mut lut_plus);

        let tol = 20.0 / (2.0 * LUT_AMP_STEPS as f32) + qplane::LSB / 2.0 + 1e-5;
        for (x, y, r) in ref_plus.iter_xy() {
            assert!(
                (lut_plus.get(x, y) - r).abs() <= tol,
                "({x},{y}): {} vs {r}",
                lut_plus.get(x, y)
            );
        }
    }

    #[test]
    fn lut_render_is_identical_across_worker_counts() {
        let (layout, data) = setup();
        let video = Plane::from_fn(192, 144, |x, y| ((x * 3 + y * 5) % 256) as f32);
        let mut amps = Vec::new();
        sample_amplitudes(&layout, full_amplitude(&data), &mut amps);
        let steps: Vec<u16> = amps.iter().map(|&a| ChessLut::amp_step(a)).collect();
        let mut lut = ChessLut::new(20.0, Complementation::Luminance);
        for &s in &steps {
            lut.ensure_step(s);
        }
        let render = |workers: usize| {
            let engine = ParallelEngine::new(workers);
            let mut out = Plane::filled(192, 144, 0.0);
            render_frame_lut(&layout, &video, true, &steps, &lut, &engine, &mut out);
            out
        };
        let reference = render(1);
        for workers in [2usize, 4, 6] {
            assert_eq!(render(workers), reference, "workers = {workers}");
        }
    }

    #[test]
    #[should_panic(expected = "ensure_step must precede")]
    fn lut_table_lookup_requires_ensure() {
        let lut = ChessLut::new(20.0, Complementation::Code);
        let _ = lut.table(512);
    }

    /// SplitMix64: a tiny seeded generator for the oracle proptest.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform f32 in `[0, 1)`.
    fn unit(state: &mut u64) -> f32 {
        (splitmix(state) >> 40) as f32 / (1u64 << 24) as f32
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// The fused reference pair (plus frame saving `P⁻`, then the minus
        /// frame from it) is bitwise `render_offsets_with_amps` followed by
        /// a full-frame add/sub: on fractional video with
        /// signed zeros, range ends and long equal-code runs, fractional
        /// and zero amplitudes, margins on every side, both complementation
        /// modes and 1–4 workers. The plane is large enough that every
        /// worker count really splits it into bands, so memo runs restart
        /// mid-frame.
        #[test]
        fn fused_reference_render_is_bitwise_the_offset_oracle(
            seed in any::<u64>(),
            workers in 1usize..=4,
        ) {
            let layout = DataLayout {
                pixel_size: 3,
                block_size: 4,
                blocks_x: 48,
                blocks_y: 36,
                gob_size: 2,
                origin_x: 31,
                origin_y: 23,
            };
            let (w, h) = (640, 480);
            let mut rng = seed;
            let mut samples = Vec::with_capacity(w * h);
            while samples.len() < w * h {
                let v = match splitmix(&mut rng) % 8 {
                    0 => 0.0,
                    1 => -0.0,
                    2 => 255.0,
                    3 => (splitmix(&mut rng) % 256) as f32,
                    _ => unit(&mut rng) * 255.0,
                };
                let run = 1 + (splitmix(&mut rng) % 48) as usize;
                samples.extend(std::iter::repeat_n(v, run.min(w * h - samples.len())));
            }
            let video = Plane::from_vec(w, h, samples).unwrap();
            let amps: Vec<f32> = (0..layout.num_blocks())
                .map(|_| match splitmix(&mut rng) % 4 {
                    0 => 0.0,
                    1 => 1.0,
                    _ => unit(&mut rng),
                })
                .collect();
            let engine = ParallelEngine::new(workers);
            for mode in [Complementation::Code, Complementation::Luminance] {
                let mut p_plus = Plane::filled(w, h, 0.0);
                let mut p_minus = Plane::filled(w, h, 0.0);
                render_offsets_with_amps(
                    &layout,
                    &video,
                    20.0,
                    mode,
                    &amps,
                    &ParallelEngine::sequential(),
                    &mut p_plus,
                    &mut p_minus,
                );
                // NaN everywhere the passes must not read or leave behind.
                let mut fused = Plane::filled(w, h, f32::NAN);
                let mut saved = Plane::filled(w, h, f32::NAN);
                for plus_frame in [true, false] {
                    let oracle = if plus_frame {
                        render_plus_reference(
                            &layout, &video, 20.0, mode, &amps, &engine, &mut fused, &mut saved,
                        );
                        inframe_frame::arith::add(&video, &p_plus).unwrap()
                    } else {
                        render_minus_reference(&layout, &video, &amps, &saved, &engine, &mut fused);
                        inframe_frame::arith::sub(&video, &p_minus).unwrap()
                    };
                    for (i, (f, o)) in fused.samples().iter().zip(oracle.samples()).enumerate() {
                        prop_assert_eq!(
                            f.to_bits(),
                            o.to_bits(),
                            "{:?} plus={} workers={} pixel ({}, {}): {} vs {}",
                            mode, plus_frame, workers, i % w, i / w, f, o
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn luminance_mode_has_comparable_detectability() {
        // The light swing (what the camera sees) is the same for both
        // modes by construction.
        let (layout, data) = setup();
        let video = Plane::filled(192, 144, 127.0);
        let swing = |mode| {
            let (plus, minus) =
                complementary_pair(&layout, &video, &data, 20.0, mode, full_amplitude(&data));
            let mut max = 0.0f32;
            for (x, y, _) in video.iter_xy() {
                let s =
                    color::code_to_linear(plus.get(x, y)) - color::code_to_linear(minus.get(x, y));
                max = max.max(s);
            }
            max
        };
        let code = swing(Complementation::Code);
        let lum = swing(Complementation::Luminance);
        assert!((code - lum).abs() < 0.05 * code, "swings {code} vs {lum}");
    }
}
