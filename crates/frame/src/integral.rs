//! Integral images (summed-area tables) and O(1)-per-pixel box filtering.
//!
//! The receiver box-blurs every capture; the naive separable blur costs
//! O(r) per pixel. A summed-area table gives exact box sums in constant
//! time per pixel regardless of radius — the classic trade used by every
//! real-time vision pipeline. [`box_blur_fast_into`] is a drop-in equivalent of
//! [`crate::filter::box_blur`] (replicate-border semantics included) used
//! by the performance-sensitive paths and property-tested against the
//! reference implementation; on planes of small whole numbers (captured
//! 8-bit codes) it forms the same sums in `i32`, with the same output
//! bits.

use crate::plane::Plane;
use crate::qplane::{self, QPlane};

/// Paired integer summed-area tables over a Q8.7 [`QPlane`]: one for the
/// raw samples and one for their squares — the whole-plane reference the
/// quantized demodulator's banded [`QRowPrefix`] tables are tested
/// against. Per-Block correlation (`Σ hp·t`) and high-pass energy
/// (`Σ hp²`) reduce to a handful of row-segment lookups instead of
/// re-walking every sensor pixel per Block.
///
/// All arithmetic is `i64` and **exact**: `(255·128)² ≈ 1.07e9` per pixel
/// times a 4K sensor (`~8.3e6` pixels) stays below `9e15 ≪ i64::MAX`.
/// Exactness is what keeps quantized block scores bit-identical for every
/// worker partition.
#[derive(Debug, Clone, Default)]
pub struct QIntegral {
    width: usize,
    height: usize,
    /// `(width+1) × (height+1)` raw-sum table, zero top row / left column.
    sum: Vec<i64>,
    /// Same layout for the squared raw samples.
    sq: Vec<i64>,
}

impl QIntegral {
    /// Builds both tables from `src`.
    pub fn new(src: &QPlane) -> Self {
        let mut q = Self::default();
        q.build_into(src);
        q
    }

    /// Rebuilds both tables in place, reusing the buffers (zero
    /// allocations in steady state).
    ///
    /// Only the top padding row is zero-filled on reuse: every interior
    /// entry and the left padding column are overwritten below, so the
    /// `resize(_, 0)` memset (~16 bytes/pixel across both tables) would
    /// be pure wasted bandwidth on the per-capture path.
    pub fn build_into(&mut self, src: &QPlane) {
        let (w, h) = src.shape();
        self.width = w;
        self.height = h;
        let stride = w + 1;
        let needed = stride * (h + 1);
        if self.sum.len() == needed {
            self.sum[..stride].fill(0);
            self.sq[..stride].fill(0);
        } else {
            self.sum.clear();
            self.sum.resize(needed, 0);
            self.sq.clear();
            self.sq.resize(needed, 0);
        }
        for y in 0..h {
            let row = &src.row(y)[..w];
            let (prev_s, cur_s) = self.sum[y * stride..(y + 2) * stride].split_at_mut(stride);
            let (prev_q, cur_q) = self.sq[y * stride..(y + 2) * stride].split_at_mut(stride);
            cur_s[0] = 0;
            cur_q[0] = 0;
            let mut run_s = 0i64;
            let mut run_q = 0i64;
            for x in 0..w {
                let v = row[x] as i64;
                run_s += v;
                run_q += v * v;
                cur_s[x + 1] = prev_s[x + 1] + run_s;
                cur_q[x + 1] = prev_q[x + 1] + run_q;
            }
        }
    }

    /// The source shape the tables were built for.
    pub fn shape(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// Raw-sum over the half-open row segment `[x0, x1)` of row `y`.
    ///
    /// # Panics
    /// Debug-panics when the segment leaves the image.
    #[inline]
    pub fn row_sum(&self, y: usize, x0: usize, x1: usize) -> i64 {
        debug_assert!(y < self.height && x0 <= x1 && x1 <= self.width);
        let stride = self.width + 1;
        let lo = (y + 1) * stride;
        let hi = y * stride;
        (self.sum[lo + x1] - self.sum[lo + x0]) - (self.sum[hi + x1] - self.sum[hi + x0])
    }

    /// Squared-sum over the half-open row segment `[x0, x1)` of row `y`
    /// (units: raw², i.e. Q16.14).
    #[inline]
    pub fn row_sum_sq(&self, y: usize, x0: usize, x1: usize) -> i64 {
        debug_assert!(y < self.height && x0 <= x1 && x1 <= self.width);
        let stride = self.width + 1;
        let lo = (y + 1) * stride;
        let hi = y * stride;
        (self.sq[lo + x1] - self.sq[lo + x0]) - (self.sq[hi + x1] - self.sq[hi + x0])
    }
}

/// Per-row prefix sums (and squared sums) over a Q8.7 plane: the
/// row-segment-only sibling of [`QIntegral`].
///
/// The quantized demodulator consumes nothing but row segments
/// ([`QRowPrefix::row_sum`] / [`QRowPrefix::row_sum_sq`]), so the full
/// summed-area table's vertical accumulation is wasted work — and worse,
/// it makes every row depend on the previous one, forcing a serial
/// build. Dropping it buys two things:
///
/// * **Less traffic**: raw row sums fit `i32` (`w · 255·128` stays exact
///   up to 65 535-pixel rows, asserted in [`QRowPrefix::reshape`]), so
///   the tables shrink from 16 to 12 bytes per pixel and lose the
///   previous-row loads.
/// * **Row parallelism**: rows are independent, so disjoint bands can be
///   built concurrently ([`build_highpass_band`]) — the reference f32
///   blur front end has no such decomposition.
#[derive(Debug, Clone, Default)]
pub struct QRowPrefix {
    width: usize,
    height: usize,
    /// `(width+1)`-stride row prefix sums, zero left column.
    sum: Vec<i32>,
    /// Same layout for the squared samples (`i64`: `w · (255·128)²`).
    sq: Vec<i64>,
}

impl QRowPrefix {
    /// Prepares the tables for a `w × h` build, reusing the buffers
    /// (shape changes zero-fill once; steady state writes every entry).
    ///
    /// # Panics
    /// Panics if a row is too wide for exact `i32` prefix sums.
    pub fn reshape(&mut self, w: usize, h: usize) {
        assert!(w <= 65_535, "row prefix sums exceed i32 beyond 65535 px");
        self.width = w;
        self.height = h;
        let needed = (w + 1) * h;
        if self.sum.len() != needed {
            self.sum.clear();
            self.sum.resize(needed, 0);
            self.sq.clear();
            self.sq.resize(needed, 0);
        }
    }

    /// The source shape the tables were built for.
    pub fn shape(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// The two tables as mutable row-major slices of stride `width + 1`,
    /// for band-parallel builders (rows are independent, so callers may
    /// hand disjoint row bands to [`build_highpass_band`] concurrently).
    pub fn tables_mut(&mut self) -> (&mut [i32], &mut [i64]) {
        (&mut self.sum, &mut self.sq)
    }

    /// The two tables as shared slices of stride `width + 1`, for the
    /// gather-based segment scoring in [`crate::simd`].
    pub fn tables(&self) -> (&[i32], &[i64]) {
        (&self.sum, &self.sq)
    }

    /// Raw-sum over the half-open row segment `[x0, x1)` of row `y`.
    ///
    /// # Panics
    /// Debug-panics when the segment leaves the image.
    #[inline]
    pub fn row_sum(&self, y: usize, x0: usize, x1: usize) -> i64 {
        debug_assert!(y < self.height && x0 <= x1 && x1 <= self.width);
        let base = y * (self.width + 1);
        (self.sum[base + x1] - self.sum[base + x0]) as i64
    }

    /// Squared-sum over the half-open row segment `[x0, x1)` of row `y`
    /// (units: raw², i.e. Q16.14).
    #[inline]
    pub fn row_sum_sq(&self, y: usize, x0: usize, x1: usize) -> i64 {
        debug_assert!(y < self.height && x0 <= x1 && x1 <= self.width);
        let base = y * (self.width + 1);
        self.sq[base + x1] - self.sq[base + x0]
    }
}

/// Fills the rows `rows` of a [`QRowPrefix`] band with the prefix sums of
/// the high-pass residual `src − blur_r(src)` — the band-parallel fused
/// front end of the quantized demodulator.
///
/// * `dst_sum` / `dst_sq` — the band's table rows (stride `w + 1`,
///   exactly `rows.len()` rows; disjoint bands may run concurrently).
/// * `rowsum` — the full plane's horizontal window sums
///   ([`qplane::horizontal_window_sums_band`] output), shared read-only:
///   the vertical window reaches up to `r` rows past the band edges.
/// * `col` — per-caller scratch for the vertical running sums (grows to
///   `w`, then reused; each concurrent band needs its own).
///
/// The residual values are bit-identical to composing
/// [`qplane::sliding_box_blur_into`] and [`qplane::saturating_sub_into`]
/// (same window sums, same round-up reciprocal division, same saturating
/// subtract — pinned by a test below), and they are independent of the
/// band partition: the seed of the vertical window at `rows.start` is an
/// exact integer sum, so any split of the rows produces the same tables.
///
/// # Panics
/// Panics on inconsistent slice lengths.
pub fn build_highpass_band(
    dst_sum: &mut [i32],
    dst_sq: &mut [i64],
    src: &QPlane,
    rowsum: &[i32],
    r: usize,
    rows: std::ops::Range<usize>,
    col: &mut Vec<i32>,
) {
    let (w, h) = src.shape();
    if r > 0 {
        assert!(rows.end <= h, "band rows must lie inside the plane");
        prime_highpass_columns(rowsum, w, h, r, rows.start, col);
    }
    build_highpass_band_seeded(dst_sum, dst_sq, src, rowsum, r, rows, col);
}

/// Seeds the vertical running column sums for a high-pass sweep starting
/// at row `start`: per column, the replicate-border window sum of rows
/// `start − r ..= start + r` of `rowsum`. This is the priming step
/// [`build_highpass_band`] performs internally, exposed so row-at-a-time
/// drivers ([`highpass_row_into`]) can start a sweep anywhere.
///
/// # Panics
/// Panics if `rowsum` is not `w·h` long or `r > 127` (the i32 column-sum
/// bound — see `qplane::init_column_sums`).
pub fn prime_highpass_columns(
    rowsum: &[i32],
    w: usize,
    h: usize,
    r: usize,
    start: usize,
    col: &mut Vec<i32>,
) {
    assert!(r <= 127, "radius beyond 127 would overflow i32 column sums");
    assert_eq!(rowsum.len(), w * h, "window sums must cover the plane");
    col.clear();
    col.resize(w, 0);
    for j in start as isize - r as isize..=(start + r) as isize {
        let jy = j.clamp(0, h as isize - 1) as usize;
        let src_row = &rowsum[jy * w..(jy + 1) * w];
        for (c, &v) in col.iter_mut().zip(src_row) {
            *c += v;
        }
    }
}

/// Computes one row of the high-pass prefix tables into caller scratch
/// (`row_s`/`row_q`, each `w + 1` long) without materializing any table,
/// then slides the column window to row `y + 1`. `col` must be primed
/// for row `y` ([`prime_highpass_columns`], or the slide of a previous
/// call); the prefix values are bit-identical to the corresponding
/// [`build_highpass_band`] table row at every SIMD level.
///
/// The single-worker demodulator drives this row by row and consumes
/// each prefix row's segment sums while it is still L1-resident — the
/// full tables (`12` bytes/px of write traffic per capture) are never
/// written.
///
/// # Panics
/// Panics on inconsistent slice lengths or `y` outside the plane.
pub fn highpass_row_into(
    src: &QPlane,
    rowsum: &[i32],
    r: usize,
    y: usize,
    col: &mut [i32],
    row_s: &mut [i32],
    row_q: &mut [i64],
) {
    let (w, h) = src.shape();
    assert!(y < h, "row outside the plane");
    assert_eq!(rowsum.len(), w * h, "window sums must cover the plane");
    assert!(
        row_s.len() == w + 1 && row_q.len() == w + 1,
        "prefix rows are w+1"
    );
    if r == 0 {
        row_s.fill(0);
        row_q.fill(0);
        return;
    }
    assert_eq!(col.len(), w, "column sums must be primed for the row");
    let area = ((2 * r + 1) * (2 * r + 1)) as i64;
    let row = &src.row(y)[..w];
    if area <= crate::simd::MAX_MEAN_AREA {
        let level = crate::simd::active_level();
        crate::simd::highpass_prefix_row(level, row, col, area, row_s, row_q);
    } else {
        row_s[0] = 0;
        row_q[0] = 0;
        let mut run_s = 0i32;
        let mut run_q = 0i64;
        for x in 0..w {
            let mean = qplane::div_round(col[x] as i64, area);
            let hp = row[x].saturating_sub(mean as i16);
            run_s += hp as i32;
            run_q += (hp as i64) * (hp as i64);
            row_s[x + 1] = run_s;
            row_q[x + 1] = run_q;
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

/// [`build_highpass_band`] continuation: assumes `col` already holds the
/// vertical window sums centred on `rows.start` — exactly the state a
/// previous call over `..rows.start` leaves behind (each call slides the
/// window one past its last processed row). Strip-at-a-time drivers use
/// this to extend the tables without re-priming the `2r+1`-row window per
/// strip, which would otherwise cost an extra full pass over `rowsum`
/// across a frame's strips.
///
/// # Panics
/// Panics on inconsistent slice lengths.
pub fn build_highpass_band_seeded(
    dst_sum: &mut [i32],
    dst_sq: &mut [i64],
    src: &QPlane,
    rowsum: &[i32],
    r: usize,
    rows: std::ops::Range<usize>,
    col: &mut [i32],
) {
    let (w, h) = src.shape();
    let stride = w + 1;
    assert!(rows.end <= h, "band rows must lie inside the plane");
    assert_eq!(rowsum.len(), w * h, "window sums must cover the plane");
    assert_eq!(dst_sum.len(), rows.len() * stride, "sum band mismatch");
    assert_eq!(dst_sq.len(), rows.len() * stride, "sq band mismatch");
    if r == 0 {
        // blur(src) == src: the residual — and every prefix — is zero.
        dst_sum.fill(0);
        dst_sq.fill(0);
        return;
    }
    assert_eq!(col.len(), w, "column sums must be primed for the band");
    let area = ((2 * r + 1) * (2 * r + 1)) as i64;
    // The fused mean/residual/prefix row is [`crate::simd`]'s hot
    // kernel (same round-up reciprocal semantics as the sliding blur,
    // same `area ≤ 2896` guard, bit-identical at every level); larger
    // windows take the exact `div_round` fallback.
    let use_kernel = area <= crate::simd::MAX_MEAN_AREA;
    let level = crate::simd::active_level();
    for (i, y) in rows.clone().enumerate() {
        let row = &src.row(y)[..w];
        let sum_row = &mut dst_sum[i * stride..(i + 1) * stride];
        let sq_row = &mut dst_sq[i * stride..(i + 1) * stride];
        if use_kernel {
            crate::simd::highpass_prefix_row(level, row, col, area, sum_row, sq_row);
        } else {
            sum_row[0] = 0;
            sq_row[0] = 0;
            let mut run_s = 0i32;
            let mut run_q = 0i64;
            for x in 0..w {
                let mean = qplane::div_round(col[x] as i64, area);
                let hp = row[x].saturating_sub(mean as i16);
                run_s += hp as i32;
                run_q += (hp as i64) * (hp as i64);
                sum_row[x + 1] = run_s;
                sq_row[x + 1] = run_q;
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

/// Reusable working memory for [`box_blur_fast_into`]: the last `2r + 2`
/// rows of the padded source's summed-area table, or, on the whole-number
/// path, the last `2r + 2` rows of horizontal window sums, one padded
/// row's prefix sums and the column sums. It grows to the widest frame
/// and largest radius ever filtered and is then reused verbatim, so a
/// streaming receiver blurs every capture with zero steady-state
/// allocations.
#[derive(Debug, Clone, Default)]
pub struct BlurScratch {
    sat: Vec<f64>,
    rows: Vec<i32>,
    prefix: Vec<i32>,
    col: Vec<i32>,
}

/// Box blur via the summed-area table with **replicate-border** semantics,
/// exactly matching [`crate::filter::box_blur`]: filters `src` into `out`
/// using (and growing, on first use) the caller's [`BlurScratch`].
///
/// A plane of small whole numbers, such as a capture of 8-bit codes,
/// takes an integer path, compiled for AVX2 where the CPU has it, with
/// the same output bits; any other plane takes the `f64` table.
///
/// # Panics
/// Panics if `out` and `src` shapes differ.
pub fn box_blur_fast_into(
    src: &Plane<f32>,
    r: usize,
    scratch: &mut BlurScratch,
    out: &mut Plane<f32>,
) {
    assert_eq!(
        out.shape(),
        src.shape(),
        "blur output must match source shape"
    );
    if r == 0 {
        out.samples_mut().copy_from_slice(src.samples());
        return;
    }
    let whole = crate::simd::run_at(
        crate::simd::active_level(),
        #[inline(always)]
        || box_blur_whole_into(src, r, scratch, out),
    );
    if !whole {
        box_blur_table_into(src, r, scratch, out);
    }
}

/// [`box_blur_fast_into`]'s `f64` summed-area path, for any samples.
fn box_blur_table_into(
    src: &Plane<f32>,
    r: usize,
    scratch: &mut BlurScratch,
    out: &mut Plane<f32>,
) {
    // Replicate semantics via an integral image of the source padded by
    // `r` replicated samples on every side (clamping per tap would be
    // O(r) again). Row `y` of the padded image is source row
    // `clamp(y − r)` with its first and last samples repeated `r` times,
    // streamed straight into the table.
    let (w, h) = src.shape();
    let pw = w + 2 * r;
    let ph = h + 2 * r;
    // Summed-area table over the padded image (zero top row and left
    // column). Output row
    // `y` reads table rows `y` and `y + n` (`n = 2r + 1`), so only the
    // last `n + 1` table rows are kept, in a ring: table row `k` lives in
    // slot `k % (n + 1)`, and slot 0 starts as the zero row.
    let n = 2 * r + 1;
    let slots = n + 1;
    let stride = pw + 1;
    scratch.sat.clear();
    scratch.sat.resize(stride * slots, 0.0);
    let window = (n * n) as f64;
    for k in 1..=ph {
        let row = src.row((k - 1).saturating_sub(r).min(h - 1));
        let padded = std::iter::repeat_n(row[0], r)
            .chain(row.iter().copied())
            .chain(std::iter::repeat_n(row[w - 1], r));
        let (above, cur) = ring_rows(&mut scratch.sat, stride, (k - 1) % slots, k % slots);
        let mut row_sum = 0.0f64;
        for ((s, &a), v) in cur[1..].iter_mut().zip(&above[1..]).zip(padded) {
            row_sum += v as f64;
            *s = a + row_sum;
        }
        // The separable reference filter normalizes each axis
        // independently, which equals the 2-D window normalization for a
        // full (padded) window. Every output window lies fully inside the
        // padded image, so no clamping is needed here: output `(x, y)`
        // spans table columns `x..x + n`.
        if let Some(y) = k.checked_sub(n) {
            let top = &scratch.sat[(y % slots) * stride..][..stride];
            let bottom = &scratch.sat[(k % slots) * stride..][..stride];
            let corners = bottom[n..].iter().zip(top).zip(&top[n..]).zip(bottom);
            for (o, (((&br, &tl), &tr), &bl)) in out.row_mut(y).iter_mut().zip(corners) {
                *o = ((br + tl - tr - bl) / window) as f32;
            }
        }
    }
}

/// [`box_blur_fast_into`] on a plane of whole numbers no larger in
/// magnitude than `(2²⁴ − 1) / (2r + 1)²`, with the `f64` table's output
/// bits. Returns `false`, leaving `out` unspecified, at the first row
/// holding any other sample (a fraction, a larger number, NaN, ±∞).
///
/// On such a plane every sum the `f64` table forms is a whole number
/// below 2⁵³, so the table computes each window sum `S` exactly, and its
/// output is `((S as f64) / area) as f32`. This path forms the same `S`
/// in `i32` (wrapping prefix sums: the window sums themselves stay below
/// 2²⁴) and divides in `f32`. `S` and the area are exact in `f32`, and
/// an `f32` quotient rounded once equals the `f64` quotient rounded to
/// `f32`, because `f64` carries at least `2·24 + 2` bits (double rounding
/// is innocuous for division at that width), so the bits match. Window
/// sums slide in two passes: a padded row's prefix sums give its
/// horizontal sums, and per-column sums move down one row per output
/// row over a ring of the last `2r + 2` horizontal-sum rows.
#[inline(always)]
fn box_blur_whole_into(
    src: &Plane<f32>,
    r: usize,
    scratch: &mut BlurScratch,
    out: &mut Plane<f32>,
) -> bool {
    const F32_EXACT: u64 = 1 << 24;
    let (w, h) = src.shape();
    let n = 2 * r + 1;
    let area = (n * n) as u64;
    // At most (2²⁴ − 1)/9 < 2²², inside `nearest_whole`'s exact range.
    let limit = ((F32_EXACT - 1) / area) as u32;
    // The table's sums, at most (w + 2r)(h + 2r)·limit, must stay exact.
    let table_bound = ((w + 2 * r) * (h + 2 * r)) as f64 * limit as f64;
    if limit == 0 || table_bound >= (1u64 << 53) as f64 {
        return false;
    }
    let slots = n + 1;
    scratch.rows.clear();
    scratch.rows.resize(w * slots, 0);
    scratch.prefix.clear();
    scratch.prefix.resize(w + 2 * r + 1, 0);
    scratch.col.clear();
    scratch.col.resize(w, 0);
    let BlurScratch {
        rows, prefix, col, ..
    } = scratch;
    // Horizontal sums of source row `y` live in ring slot `y % slots`.
    let slot = |y: usize| (y % slots) * w..(y % slots + 1) * w;
    // Column sums of output row 0: source rows −r..=r, clamped.
    for y in 0..=r.min(h - 1) {
        if !window_row(src.row(y), r, limit, prefix, &mut rows[slot(y)]) {
            return false;
        }
    }
    for dy in 0..n {
        let y = dy.saturating_sub(r).min(h - 1);
        for (c, &s) in col.iter_mut().zip(&rows[slot(y)]) {
            *c += s;
        }
    }
    let area = area as f32;
    for y in 0..h {
        for (o, &c) in out.row_mut(y).iter_mut().zip(&*col) {
            *o = c as f32 / area;
        }
        if y + 1 < h {
            let enter = (y + 1 + r).min(h - 1);
            if enter == y + 1 + r
                && !window_row(src.row(enter), r, limit, prefix, &mut rows[slot(enter)])
            {
                return false;
            }
            let leave = y.saturating_sub(r);
            for ((c, &e), &l) in col
                .iter_mut()
                .zip(&rows[slot(enter)])
                .zip(&rows[slot(leave)])
            {
                *c += e - l;
            }
        }
    }
    true
}

/// The horizontal window sums of one source row into `sums`, through the
/// padded row's wrapping prefix sums in `prefix`. Returns whether every
/// sample is a whole number of magnitude at most `limit`.
#[inline(always)]
fn window_row(row: &[f32], r: usize, limit: u32, prefix: &mut [i32], sums: &mut [i32]) -> bool {
    let w = row.len();
    // The samples first, in a loop without a carried sum, so the
    // conversion and the check vectorize.
    let mut whole = true;
    for (p, &v) in prefix[1 + r..1 + r + w].iter_mut().zip(row) {
        let i = nearest_whole(v);
        whole &= (i as f32 == v) & (i.unsigned_abs() <= limit);
        *p = i;
    }
    let (first, last) = (prefix[1 + r], prefix[r + w]);
    prefix[1..1 + r].fill(first);
    prefix[1 + r + w..].fill(last);
    let mut acc = 0i32;
    for p in &mut prefix[1..] {
        acc = acc.wrapping_add(*p);
        *p = acc;
    }
    for (s, (&hi, &lo)) in sums
        .iter_mut()
        .zip(prefix[2 * r + 1..].iter().zip(&*prefix))
    {
        *s = hi.wrapping_sub(lo);
    }
    whole
}

/// The whole number nearest to `v` clamped to `±2²²` (NaN reads as a
/// number past that bound): adding `1.5·2²³` rounds it into the low
/// mantissa bits. Unlike `v as i32`, whose saturation LLVM does not
/// vectorize, this is plain float arithmetic. Equal to `v` exactly when
/// `v` is a whole number no larger in magnitude than `2²²`.
#[inline(always)]
fn nearest_whole(v: f32) -> i32 {
    const BOUND: f32 = 4_194_304.0;
    const SHIFT: f32 = 12_582_912.0;
    (v.clamp(-BOUND, BOUND) + SHIFT).to_bits() as i32 - SHIFT.to_bits() as i32
}

/// Slot `read` of a ring of `stride`-long rows, shared, and slot `write`,
/// mutable (`read != write`).
fn ring_rows(ring: &mut [f64], stride: usize, read: usize, write: usize) -> (&[f64], &mut [f64]) {
    if read < write {
        let (lo, hi) = ring.split_at_mut(write * stride);
        (&lo[read * stride..][..stride], &mut hi[..stride])
    } else {
        let (lo, hi) = ring.split_at_mut(read * stride);
        (&hi[..stride], &mut lo[write * stride..][..stride])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::box_blur;
    use proptest::prelude::*;

    fn box_blur_fast(src: &Plane<f32>, r: usize) -> Plane<f32> {
        let mut out = Plane::filled(src.width(), src.height(), 0.0);
        box_blur_fast_into(src, r, &mut BlurScratch::default(), &mut out);
        out
    }

    #[test]
    fn banded_row_prefix_matches_composition_for_any_split() {
        let src = QPlane::from_plane(&Plane::from_fn(41, 23, |x, y| {
            ((x * 67 + y * 149 + x * y * 3) % 256) as f32 - 96.0
        }));
        let (w, h) = src.shape();
        let mut scratch = qplane::QBlurScratch::default();
        let mut smoothed = QPlane::new(1, 1);
        let mut highpass = QPlane::new(1, 1);
        let mut col = Vec::new();
        for r in [0usize, 1, 3, 8] {
            qplane::sliding_box_blur_into(&src, r, &mut scratch, &mut smoothed);
            qplane::saturating_sub_into(&src, &smoothed, &mut highpass);
            let oracle = QIntegral::new(&highpass);
            let mut rowsum = Vec::new();
            qplane::horizontal_window_sums(&src, r, &mut rowsum);
            for bands in [1usize, 2, 3, 7] {
                let mut prefix = QRowPrefix::default();
                prefix.reshape(w, h);
                let (sum, sq) = prefix.tables_mut();
                let mut rest_s = sum;
                let mut rest_q = sq;
                for rows in crate::plane::band_rows(h, bands) {
                    let (band_s, tail_s) = rest_s.split_at_mut(rows.len() * (w + 1));
                    let (band_q, tail_q) = rest_q.split_at_mut(rows.len() * (w + 1));
                    rest_s = tail_s;
                    rest_q = tail_q;
                    build_highpass_band(band_s, band_q, &src, &rowsum, r, rows, &mut col);
                }
                for y in 0..h {
                    for (x0, x1) in [(0, w), (3, w - 5), (w / 2, w / 2), (1, 2)] {
                        assert_eq!(
                            prefix.row_sum(y, x0, x1),
                            oracle.row_sum(y, x0, x1),
                            "sum r={r} bands={bands} y={y} [{x0},{x1})"
                        );
                        assert_eq!(
                            prefix.row_sum_sq(y, x0, x1),
                            oracle.row_sum_sq(y, x0, x1),
                            "sq r={r} bands={bands} y={y} [{x0},{x1})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fast_blur_matches_reference_interior_and_edges() {
        let p = Plane::from_fn(17, 13, |x, y| ((x * 31 + y * 17) % 211) as f32);
        for r in [1usize, 2, 3] {
            let slow = box_blur(&p, r);
            let fast = box_blur_fast(&p, r);
            for (x, y, v) in slow.iter_xy() {
                assert!(
                    (v - fast.get(x, y)).abs() < 1e-3,
                    "r={r} at ({x},{y}): {v} vs {}",
                    fast.get(x, y)
                );
            }
        }
    }

    #[test]
    fn blur_into_with_reused_scratch_matches_fresh() {
        // One scratch across frames of different sizes and radii: results
        // must stay bit-identical to the allocating path.
        let mut scratch = BlurScratch::default();
        for (w, h, r) in [
            (23usize, 17usize, 3usize),
            (9, 31, 1),
            (23, 17, 2),
            (4, 4, 2),
        ] {
            let p = Plane::from_fn(w, h, |x, y| ((x * 131 + y * 37) % 251) as f32);
            let mut out = Plane::filled(w, h, -1.0);
            box_blur_fast_into(&p, r, &mut scratch, &mut out);
            assert_eq!(out, box_blur_fast(&p, r), "{w}x{h} r={r}");
        }
    }

    #[test]
    fn zero_radius_is_identity() {
        let p = Plane::from_fn(6, 6, |x, y| (x * y) as f32);
        assert_eq!(box_blur_fast(&p, 0), p);
    }

    /// `box_blur_fast` as it was computed with a materialized padded copy
    /// and a full summed-area table: the bitwise oracle for the streamed
    /// ring-of-rows version.
    fn naive_box_blur_fast(src: &Plane<f32>, r: usize) -> Plane<f32> {
        let (w, h) = src.shape();
        let (pw, ph) = (w + 2 * r, h + 2 * r);
        let padded = Plane::from_fn(pw, ph, |x, y| {
            src.get_clamped(x as isize - r as isize, y as isize - r as isize)
        });
        let stride = pw + 1;
        let mut sat = vec![0.0f64; stride * (ph + 1)];
        for y in 0..ph {
            let mut row_sum = 0.0f64;
            for x in 0..pw {
                row_sum += padded.get(x, y) as f64;
                sat[(y + 1) * stride + (x + 1)] = sat[y * stride + (x + 1)] + row_sum;
            }
        }
        let window = ((2 * r + 1) * (2 * r + 1)) as f64;
        Plane::from_fn(w, h, |x, y| {
            let (x1, y1) = (x + 2 * r + 1, y + 2 * r + 1);
            let sum = sat[y1 * stride + x1] + sat[y * stride + x]
                - sat[y * stride + x1]
                - sat[y1 * stride + x];
            (sum / window) as f32
        })
    }

    proptest! {
        #[test]
        fn fast_blur_is_bitwise_the_full_table_blur(
            w in 1usize..24, h in 1usize..24, r in 1usize..12, seed in any::<u64>(),
        ) {
            // Half the samples are ±2⁴⁵, half fractions in [0, 1): the f64
            // prefix sums round, so any change in their order would show.
            let p = Plane::from_fn(w, h, |x, y| {
                let v = (seed ^ ((x as u64) << 32 | y as u64)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                match (v >> 13) % 4 {
                    0 => 2f32.powi(45),
                    1 => -(2f32.powi(45)),
                    _ => (v >> 40) as u16 as f32 / 65_536.0,
                }
            });
            let bits = |q: &Plane<f32>| q.samples().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&box_blur_fast(&p, r)), bits(&naive_box_blur_fast(&p, r)));
        }
    }

    /// The whole-number path's closing division: an exact window sum `s`
    /// divided in `f32` against the `f64` table's quotient rounded to
    /// `f32`, for every radius 1–8 and `s` of step `step` over the whole
    /// range the path admits.
    fn whole_division_matches_f64(step: usize) {
        for r in 1..=8usize {
            let area = ((2 * r + 1) * (2 * r + 1)) as i32;
            let max = (1 << 24) - 1;
            for s in (-max..=max).step_by(step) {
                let want = (s as f64 / area as f64) as f32;
                let got = s as f32 / area as f32;
                assert_eq!(got.to_bits(), want.to_bits(), "r {r}, sum {s}");
            }
        }
    }

    #[test]
    fn whole_division_matches_f64_on_a_grid_and_every_code_sum() {
        whole_division_matches_f64(97);
        for r in 1..=8usize {
            let area = ((2 * r + 1) * (2 * r + 1)) as i32;
            for s in -255 * area..=255 * area {
                let want = (s as f64 / area as f64) as f32;
                assert_eq!((s as f32 / area as f32).to_bits(), want.to_bits());
            }
        }
    }

    /// Every sum the whole-number path admits (about 2.7·10⁸ divisions,
    /// about a second in release).
    #[test]
    #[ignore]
    fn whole_division_matches_f64_on_every_sum() {
        whole_division_matches_f64(1);
    }

    #[test]
    fn nearest_whole_is_exact_only_on_whole_numbers_within_its_bound() {
        let whole = |v: f32| nearest_whole(v) as f32 == v;
        for v in [0.0, -0.0, 1.0, -1.0, 255.0, 4_194_304.0, -4_194_304.0] {
            assert!(whole(v), "{v}");
            assert_eq!(nearest_whole(v), v as i32);
        }
        for v in [0.5, -0.5, 2.5, 254.999, 4_194_305.0, -4_194_306.0, 1e30] {
            assert!(!whole(v), "{v}");
        }
        for v in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            assert!(!whole(v), "{v}");
        }
    }

    proptest! {
        /// Planes of whole numbers (8-bit codes, signed values up to the
        /// path's limit, `-0.0`) take the whole-number path and give the
        /// full `f64` table's bits; one fraction, one value past the
        /// limit or a NaN anywhere sends the plane to the table.
        #[test]
        fn whole_number_blur_is_bitwise_the_full_table_blur(
            w in 1usize..40, h in 1usize..40, r in 1usize..12, seed in any::<u64>(), spoil in 0usize..4,
        ) {
            let limit = ((1u32 << 24) - 1) / ((2 * r + 1) * (2 * r + 1)) as u32;
            let mut p = Plane::from_fn(w, h, |x, y| {
                let v = (seed ^ ((x as u64) << 32 | y as u64)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                match (v >> 13) % 8 {
                    0 => limit as f32,
                    1 => -(limit as f32),
                    2 => -0.0,
                    3 => ((v >> 20) % (2 * limit as u64 + 1)) as f32 - limit as f32,
                    _ => ((v >> 40) % 256) as f32,
                }
            });
            let spot = (seed as usize) % (w * h);
            match spoil {
                1 => p.samples_mut()[spot] = 0.5,
                2 => p.samples_mut()[spot] = limit as f32 + 1.0,
                3 => p.samples_mut()[spot] = f32::NAN,
                _ => {}
            }
            let mut out = Plane::filled(w, h, 0.0);
            let whole = box_blur_whole_into(&p, r, &mut BlurScratch::default(), &mut out);
            prop_assert_eq!(whole, spoil == 0);
            let bits = |q: &Plane<f32>| q.samples().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let want = bits(&naive_box_blur_fast(&p, r));
            if whole {
                prop_assert_eq!(bits(&out), want.clone());
            }
            prop_assert_eq!(bits(&box_blur_fast(&p, r)), want);
        }
    }

    #[test]
    fn qintegral_row_segments_match_manual() {
        let p = Plane::from_fn(7, 5, |x, y| (y * 7 + x) as f32);
        let q = QPlane::from_plane(&p);
        let sat = QIntegral::new(&q);
        // Row 2, columns [1, 4): raw samples are 128·(15, 16, 17).
        assert_eq!(sat.row_sum(2, 1, 4), 128 * (15 + 16 + 17));
        assert_eq!(
            sat.row_sum_sq(2, 1, 4),
            128 * 128 * (15 * 15 + 16 * 16 + 17 * 17)
        );
        assert_eq!(sat.row_sum(0, 3, 3), 0);
    }

    proptest! {
        /// Satellite: integral-image block sums equal naive sums exactly
        /// (integer arithmetic) on random planes.
        #[test]
        fn qintegral_rects_match_naive(
            w in 2usize..20,
            h in 2usize..20,
            seed in any::<u64>(),
        ) {
            let p = Plane::from_fn(w, h, |x, y| {
                let v = (x as u64).wrapping_mul(0x9E3779B9)
                    ^ (y as u64).wrapping_mul(0x85EBCA6B)
                    ^ seed;
                (v % 256) as f32 - 64.0
            });
            let q = QPlane::from_plane(&p);
            let sat = QIntegral::new(&q);
            let (x0, y0) = (w / 4, h / 4);
            let (x1, y1) = (w - w / 5, h - h / 5);
            let mut want_s = 0i64;
            let mut want_q = 0i64;
            for y in y0..y1 {
                for x in x0..x1 {
                    let v = q.get(x, y) as i64;
                    want_s += v;
                    want_q += v * v;
                }
            }
            let mut row_s = 0i64;
            let mut row_q = 0i64;
            for y in y0..y1 {
                row_s += sat.row_sum(y, x0, x1);
                row_q += sat.row_sum_sq(y, x0, x1);
            }
            prop_assert_eq!(row_s, want_s);
            prop_assert_eq!(row_q, want_q);
        }

        #[test]
        fn fast_equals_slow(
            w in 3usize..20,
            h in 3usize..20,
            r in 1usize..4,
            seed in any::<u64>(),
        ) {
            let p = Plane::from_fn(w, h, |x, y| {
                let v = (x as u64).wrapping_mul(0x9E3779B9)
                    ^ (y as u64).wrapping_mul(0x85EBCA6B)
                    ^ seed;
                (v % 256) as f32
            });
            let slow = box_blur(&p, r);
            let fast = box_blur_fast(&p, r);
            for i in 0..p.len() {
                prop_assert!((slow.samples()[i] - fast.samples()[i]).abs() < 1e-2);
            }
        }
    }
}
