//! The InFrame receiver: captured frames in, decoded data frames out.
//!
//! Demultiplexing follows §3.3 of the paper: the receiver evaluates the
//! induced noise of the chessboard pattern per Block. Each captured Block
//! is smoothed, the smoothed content subtracted from the original (leaving
//! the high-frequency residual that carries the chessboard plus fine video
//! texture and sensor noise), and the residual is then **demodulated
//! against the known chessboard template** — the spatial-phase-aware way
//! of "checking the induced noise level" that also performs the paper's
//! mean-difference removal: video texture is uncorrelated with the
//! template, so its mean contribution cancels, while the chessboard adds
//! coherently.
//!
//! Scores are aggregated across all captures of a data cycle (the camera
//! sees each cycle 2–4 times), keeping the most confident capture per
//! Block; captures whose exposure straddled a complementary pair show a
//! washed-out pattern and lose. A threshold `T` then decides the bit;
//! Blocks whose best score falls inside the dead zone `T ± margin` are
//! declared undecodable and make their GOB unavailable.

use crate::config::{InFrameConfig, KernelBackend};
use crate::dataframe;
use crate::layout::DataLayout;
use crate::metrics::ThroughputMeter;
use crate::parallel::ParallelEngine;
use inframe_code::parity::GobStats;
use inframe_frame::geometry::Homography;
use inframe_frame::integral::{
    box_blur_fast_into, build_highpass_band, highpass_row_into, prime_highpass_columns,
    BlurScratch, QRowPrefix,
};
use inframe_frame::qplane::{self, horizontal_window_sums_band, QPlane};
use inframe_frame::simd;
use inframe_frame::Plane;
use inframe_obs::{names, Telemetry};
use std::sync::Arc;
use std::sync::Mutex;
use std::time::Instant;

/// Demodulation result of one Block in one capture.
///
/// Replaces the former `f32::NEG_INFINITY` sentinel: a Block whose
/// template carries no sensor pixels (degenerate projection) — or one
/// never scored inside a cycle — is an explicit [`BlockScore::Unreadable`]
/// instead of a magic float that could leak into comparisons.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BlockScore {
    /// Demodulated chessboard amplitude (≥ 0, code values).
    Readable(f32),
    /// The Block could not be demodulated from this capture.
    Unreadable,
}

impl BlockScore {
    /// The score value, if readable.
    pub fn value(self) -> Option<f32> {
        match self {
            BlockScore::Readable(v) => Some(v),
            BlockScore::Unreadable => None,
        }
    }

    /// Keeps the more confident of `self` and `other` (readable beats
    /// unreadable; higher score beats lower).
    pub(crate) fn merge_max(&mut self, other: BlockScore) {
        match (*self, other) {
            (_, BlockScore::Unreadable) => {}
            (BlockScore::Unreadable, s) => *self = s,
            (BlockScore::Readable(b), BlockScore::Readable(s)) if s > b => {
                *self = BlockScore::Readable(s);
            }
            _ => {}
        }
    }
}

/// One decoded data cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedDataFrame {
    /// Data cycle index.
    pub cycle: u64,
    /// Recovered payload bits; `None` where the covering GOB/codeword
    /// failed.
    pub payload: Vec<Option<bool>>,
    /// GOB statistics (Figure 7's availability and error rate).
    pub stats: GobStats,
    /// Number of captures that contributed.
    pub captures_used: u32,
}

impl DecodedDataFrame {
    /// Number of payload bits actually recovered.
    pub fn recovered_bits(&self) -> usize {
        self.payload.iter().filter(|b| b.is_some()).count()
    }
}

/// Per-Block sensor-space region plus its demodulation template.
/// `pub(crate)` so the batched scorer (`crate::batch`) can replay the
/// same regions against shared sweeps.
#[derive(Debug, Clone)]
pub(crate) struct BlockRegion {
    pub(crate) x: usize,
    pub(crate) y: usize,
    /// The ±1 chessboard template over the region (0 where the sensor
    /// pixel maps outside the Block). Reference-backend representation.
    pub(crate) template: Plane<f32>,
    /// Run-length compressed template for the quantized backend.
    pub(crate) qt: QTemplate,
}

/// Run-length compressed chessboard template: per row, the signed runs of
/// nonzero template cells plus their merged extents, and per demodulation
/// slice the precomputed static weight (nonzero-cell count).
///
/// With this, [`demodulate_quantized`] evaluates `Σ hp·t` as a handful of
/// integral-image row-segment sums per template row (one per chessboard
/// column stripe) and `Σ hp²` as one segment sum per merged span —
/// instead of re-walking every sensor pixel of every Block per capture.
#[derive(Debug, Clone, Default)]
pub(crate) struct QTemplate {
    /// Per template row: half-open index range into `runs`.
    row_runs: Vec<(u32, u32)>,
    /// Per template row: half-open index range into `spans`.
    row_spans: Vec<(u32, u32)>,
    /// Signed runs `(x0, x1, sign)`, x region-relative, half-open.
    runs: Vec<(u16, u16, i8)>,
    /// Maximal nonzero intervals `(x0, x1)` per row (energy sums).
    spans: Vec<(u16, u16)>,
    /// Rows per demodulation slice (`(h/4).max(2)`, as in [`demodulate`]).
    slice_h: usize,
    /// Static weight (`Σ |t|`) per slice.
    pub(crate) slice_weights: Vec<f64>,
    /// Flattened absolute [`QRowPrefix`] table indices, one `(lo, hi)`
    /// pair per run, grouped by slice — the gather-friendly layout
    /// [`inframe_frame::simd::signed_segment_sum_i32`] consumes. Built
    /// for a specific sensor stride; a capture of any other shape falls
    /// back to the per-run `row_sum` loop.
    g_run_lo: Vec<u32>,
    /// Upper table index per run (`g_run_lo[i]..g_run_hi[i]`).
    g_run_hi: Vec<u32>,
    /// Run sign as ±1, parallel to `g_run_lo`.
    g_run_sign: Vec<i32>,
    /// Lower table index per merged span (energy sums).
    g_span_lo: Vec<u32>,
    /// Upper table index per merged span.
    g_span_hi: Vec<u32>,
    /// Per slice: half-open index range into the flattened run arrays.
    slice_runs: Vec<(u32, u32)>,
    /// Per slice: half-open index range into the flattened span arrays.
    slice_spans: Vec<(u32, u32)>,
    /// The `sensor_w + 1` table stride the absolute indices assume
    /// (0 = not built; gather path disabled).
    gather_stride: usize,
}

impl QTemplate {
    /// Flattens the run-length template into absolute prefix-table
    /// indices for one `(region, sensor)` placement. `stride` is the
    /// [`QRowPrefix`] row stride (`sensor_w + 1`).
    fn build_gather(&mut self, region_x: usize, region_y: usize, stride: usize) {
        let h = self.row_runs.len();
        // Absolute indices must round-trip through u32 gather lanes.
        if (region_y + h) * stride + region_x >= u32::MAX as usize {
            return;
        }
        self.gather_stride = stride;
        let num_slices = self.slice_weights.len();
        for s in 0..num_slices {
            let run_start = self.g_run_lo.len() as u32;
            let span_start = self.g_span_lo.len() as u32;
            let y1 = ((s + 1) * self.slice_h).min(h);
            for dy in s * self.slice_h..y1 {
                let base = (region_y + dy) * stride + region_x;
                let (r0, r1) = self.row_runs[dy];
                for &(x0, x1, sign) in &self.runs[r0 as usize..r1 as usize] {
                    self.g_run_lo.push((base + x0 as usize) as u32);
                    self.g_run_hi.push((base + x1 as usize) as u32);
                    self.g_run_sign.push(sign as i32);
                }
                let (s0, s1) = self.row_spans[dy];
                for &(x0, x1) in &self.spans[s0 as usize..s1 as usize] {
                    self.g_span_lo.push((base + x0 as usize) as u32);
                    self.g_span_hi.push((base + x1 as usize) as u32);
                }
            }
            self.slice_runs
                .push((run_start, self.g_run_lo.len() as u32));
            self.slice_spans
                .push((span_start, self.g_span_lo.len() as u32));
        }
    }
}

/// Builds the run-length template representation from the dense `±1/0`
/// template plane.
fn build_qtemplate(template: &Plane<f32>) -> QTemplate {
    let (w, h) = template.shape();
    let slice_h = (h / 4).max(2);
    let num_slices = h.div_ceil(slice_h);
    let mut qt = QTemplate {
        slice_h,
        slice_weights: vec![0.0; num_slices],
        ..QTemplate::default()
    };
    for dy in 0..h {
        let run_start = qt.runs.len() as u32;
        let span_start = qt.spans.len() as u32;
        let row = template.row(dy);
        let mut x = 0;
        while x < w {
            let sign = row[x];
            if sign == 0.0 {
                x += 1;
                continue;
            }
            let x0 = x;
            while x < w && row[x] == sign {
                x += 1;
            }
            qt.runs
                .push((x0 as u16, x as u16, if sign > 0.0 { 1 } else { -1 }));
            qt.slice_weights[dy / slice_h] += (x - x0) as f64;
            let extend = qt.spans.len() as u32 > span_start
                && qt.spans.last().is_some_and(|s| s.1 as usize == x0);
            if extend {
                qt.spans.last_mut().expect("just checked").1 = x as u16;
            } else {
                qt.spans.push((x0 as u16, x as u16));
            }
        }
        qt.row_runs.push((run_start, qt.runs.len() as u32));
        qt.row_spans.push((span_start, qt.spans.len() as u32));
    }
    qt
}

/// Immutable per-geometry receiver state: every Block's sensor region and
/// demodulation template, plus the derived smoothing radius.
///
/// Building this costs one inverse-homography evaluation per sensor pixel
/// of every Block — by far the receiver's most expensive setup step — so
/// it is computed once per `(config, registration, sensor)` geometry and
/// shared via `Arc` between demultiplexers (e.g. parallel ablation runs
/// over the same setup).
#[derive(Debug)]
pub struct RegionCache {
    pub(crate) regions: Vec<BlockRegion>,
    /// Row-major scoring program for the single-worker direct sweep.
    pub(crate) program: RowProgram,
    /// Smoothing radius for the high-pass prefilter, sensor pixels.
    smooth_radius: usize,
    sensor_w: usize,
    sensor_h: usize,
}

/// The per-Block templates re-bucketed by **sensor row**: for each row,
/// every run/span segment any region reads there, with absolute sensor
/// columns and a flat per-`(region, slice)` accumulator index.
///
/// The single-worker quantized path sweeps the capture once in row order,
/// computes each high-pass prefix row into L1-resident scratch
/// ([`highpass_row_into`]) and applies that row's program entries into the
/// slice accumulators — the full prefix tables (12 bytes/px of write
/// traffic per capture) are never materialized. Accumulation order differs
/// from the per-region path (row-major vs region-major), but `i64`
/// addition over the same exact segment sums is associative, so the
/// resulting slice sums — and the scores — are bit-identical.
#[derive(Debug, Default)]
pub(crate) struct RowProgram {
    /// Per sensor row `0..rows_used`: half-open ranges `(runs, spans)`
    /// into the flattened arrays below.
    pub(crate) rows: Vec<(u32, u32, u32, u32)>,
    /// `(x0, x1, tag)` — absolute half-open sensor columns of a signed
    /// template run; `tag` is the accumulator index with the run's sign
    /// in the top bit (set = negative).
    pub(crate) runs: Vec<(u32, u32, u32)>,
    /// `(x0, x1, acc)` — absolute columns of an energy span.
    pub(crate) spans: Vec<(u32, u32, u32)>,
    /// Per region: first accumulator slot (a region's slices are
    /// contiguous).
    pub(crate) slice_base: Vec<u32>,
    /// Accumulator slots across all regions (`Σ slices`).
    pub(crate) total_slices: usize,
}

impl RowProgram {
    fn build(regions: &[BlockRegion]) -> Self {
        let mut slice_base = Vec::with_capacity(regions.len());
        let mut total_slices = 0usize;
        for rg in regions {
            slice_base.push(total_slices as u32);
            total_slices += rg.qt.slice_weights.len();
        }
        let rows_used = regions
            .iter()
            .map(|rg| rg.y + rg.qt.row_runs.len())
            .max()
            .unwrap_or(0);
        // Build-time bucketing by row; flattened below so the hot sweep
        // walks two contiguous arrays.
        let mut by_row_runs: Vec<Vec<(u32, u32, u32)>> = vec![Vec::new(); rows_used];
        let mut by_row_spans: Vec<Vec<(u32, u32, u32)>> = vec![Vec::new(); rows_used];
        for (ri, rg) in regions.iter().enumerate() {
            let qt = &rg.qt;
            for dy in 0..qt.row_runs.len() {
                let y = rg.y + dy;
                let acc = slice_base[ri] + (dy / qt.slice_h) as u32;
                let (r0, r1) = qt.row_runs[dy];
                for &(x0, x1, sign) in &qt.runs[r0 as usize..r1 as usize] {
                    let tag = acc | if sign < 0 { 1 << 31 } else { 0 };
                    by_row_runs[y].push((
                        (rg.x + x0 as usize) as u32,
                        (rg.x + x1 as usize) as u32,
                        tag,
                    ));
                }
                let (s0, s1) = qt.row_spans[dy];
                for &(x0, x1) in &qt.spans[s0 as usize..s1 as usize] {
                    by_row_spans[y].push((
                        (rg.x + x0 as usize) as u32,
                        (rg.x + x1 as usize) as u32,
                        acc,
                    ));
                }
            }
        }
        let mut program = RowProgram {
            rows: Vec::with_capacity(rows_used),
            runs: Vec::with_capacity(by_row_runs.iter().map(Vec::len).sum()),
            spans: Vec::with_capacity(by_row_spans.iter().map(Vec::len).sum()),
            slice_base,
            total_slices,
        };
        for (rr, rs) in by_row_runs.into_iter().zip(by_row_spans) {
            let r0 = program.runs.len() as u32;
            let s0 = program.spans.len() as u32;
            program.runs.extend(rr);
            program.spans.extend(rs);
            program.rows.push((
                r0,
                program.runs.len() as u32,
                s0,
                program.spans.len() as u32,
            ));
        }
        program
    }
}

impl RegionCache {
    /// Precomputes regions and templates for one geometry.
    ///
    /// # Panics
    /// Panics if the registration is singular or any Block projects to a
    /// degenerate sensor region.
    pub fn build(
        config: &InFrameConfig,
        registration: &Homography,
        sensor_w: usize,
        sensor_h: usize,
    ) -> Arc<Self> {
        config.validate();
        let layout = DataLayout::from_config(config);
        let inverse = registration
            .inverse()
            .expect("registration homography must be invertible");
        // The chessboard cell size on the sensor sets the smoothing scale.
        let scale = estimate_scale(registration);
        let cell_sensor = (layout.pixel_size as f64 * scale).max(1.0);
        let smooth_radius = (cell_sensor.round() as usize).clamp(1, 8);
        let mut regions = Vec::with_capacity(layout.num_blocks());
        for by in 0..layout.blocks_y {
            for bx in 0..layout.blocks_x {
                let region =
                    build_region(&layout, registration, &inverse, bx, by, sensor_w, sensor_h);
                regions.push(region);
            }
        }
        let program = RowProgram::build(&regions);
        Arc::new(Self {
            regions,
            program,
            smooth_radius,
            sensor_w,
            sensor_h,
        })
    }

    /// Number of Block regions (`layout.num_blocks()`).
    pub fn num_regions(&self) -> usize {
        self.regions.len()
    }

    /// The high-pass smoothing radius, sensor pixels.
    pub fn smooth_radius(&self) -> usize {
        self.smooth_radius
    }

    /// The sensor dimensions this cache was built for.
    pub fn sensor_shape(&self) -> (usize, usize) {
        (self.sensor_w, self.sensor_h)
    }
}

/// The streaming demultiplexer.
pub struct Demultiplexer {
    config: InFrameConfig,
    layout: DataLayout,
    cache: Arc<RegionCache>,
    engine: Arc<ParallelEngine>,
    cycle_duration: f64,
    current: Option<CycleAccumulator>,
    /// Reused high-pass buffer (one sensor frame).
    smoothed: Plane<f32>,
    /// Reused blur working memory.
    scratch: BlurScratch,
    /// Reused per-capture score buffer (one slot per Block) — refilled in
    /// place by [`ParallelEngine::map_into`], so scoring a capture
    /// allocates nothing in steady state.
    score_buf: Vec<BlockScore>,
    /// Retired `best` vector of the previously finished cycle, recycled
    /// into the next [`CycleAccumulator`].
    retired_best: Vec<BlockScore>,
    /// Fixed-point working set, allocated only on the quantized backend.
    quant: Option<QuantState>,
    meter: ThroughputMeter,
    obs: DemuxObs,
}

/// Receiver-side telemetry instruments, registered once per
/// demultiplexer. All hot-path updates are relaxed atomics, preserving
/// the zero-steady-state-allocation guarantee.
#[derive(Debug, Clone, Default)]
struct DemuxObs {
    telemetry: Telemetry,
    captures: inframe_obs::Counter,
    aborted: inframe_obs::Counter,
    score_ns: inframe_obs::Histogram,
    /// Milli-ns per sensor pixel per scored capture (see
    /// [`names::kern`] for the unit rationale).
    ns_per_px: inframe_obs::Histogram,
    margin_milli: inframe_obs::Histogram,
    band_rows: inframe_obs::ShardedCounter,
    chan_cycles: inframe_obs::Counter,
    gob_ok: inframe_obs::Counter,
    gob_erroneous: inframe_obs::Counter,
    gob_unavailable: inframe_obs::Counter,
}

impl DemuxObs {
    fn new(telemetry: &Telemetry) -> Self {
        Self {
            captures: telemetry.counter(names::demux::CAPTURES),
            aborted: telemetry.counter(names::demux::ABORTED),
            score_ns: telemetry.histogram(names::demux::SCORE_NS),
            ns_per_px: telemetry.histogram(names::kern::DEMUX_NS_PER_PX),
            margin_milli: telemetry.histogram(names::demux::MARGIN_MILLI),
            band_rows: telemetry.sharded_counter(names::demux::BAND_ROWS),
            chan_cycles: telemetry.counter(names::chan::CYCLES),
            gob_ok: telemetry.counter(names::chan::GOB_OK),
            gob_erroneous: telemetry.counter(names::chan::GOB_ERRONEOUS),
            gob_unavailable: telemetry.counter(names::chan::GOB_UNAVAILABLE),
            telemetry: telemetry.clone(),
        }
    }
}

/// Reused fixed-point buffers of the quantized scoring path. The
/// smoothed and residual planes are never materialized: each band worker
/// quantizes its rows and computes their horizontal window sums (stage
/// 1), then fuses vertical windowing, subtraction and the row-prefix
/// build in one sweep (stage 2, [`build_highpass_band`]).
#[derive(Debug)]
struct QuantState {
    capture: QPlane,
    /// Horizontal window sums of the quantized capture (stage 1 output;
    /// stage 2 reads across band edges, so it lives outside the bands).
    rowsum: Vec<i32>,
    /// Per-band vertical running-sum scratch, keyed by band index. The
    /// mutex is uncontended by construction (each band has exactly one
    /// worker); it exists to keep the scoring closure `Fn`.
    cols: Vec<Mutex<Vec<i32>>>,
    /// Row-prefix tables over the high-pass residual (multi-worker and
    /// mismatched-shape captures only; the single-worker direct sweep
    /// never touches them).
    prefix: QRowPrefix,
    /// Direct-sweep slice accumulators (`Σ hp·t` per `(region, slice)`).
    acc_s: Vec<i64>,
    /// Direct-sweep energy accumulators (`Σ hp²`).
    acc_q: Vec<i64>,
    /// One high-pass prefix row (`sensor_w + 1`) of direct-sweep scratch.
    row_s: Vec<i32>,
    /// Squared-prefix counterpart of `row_s`.
    row_q: Vec<i64>,
}

struct CycleAccumulator {
    cycle: u64,
    /// Best score seen per Block, row-major.
    best: Vec<BlockScore>,
    captures: u32,
}

impl Demultiplexer {
    /// Creates a receiver scoring on [`ParallelEngine::from_env`] workers
    /// (set `INFRAME_WORKERS` to override the count).
    ///
    /// * `registration` — the display→sensor homography (known from setup
    ///   or a registration pass; the paper's fixed lab geometry makes this
    ///   a constant).
    /// * `sensor_w`, `sensor_h` — captured frame dimensions.
    ///
    /// # Panics
    /// Panics if the registration is singular or any Block projects to a
    /// degenerate sensor region.
    pub fn new(
        config: InFrameConfig,
        registration: &Homography,
        sensor_w: usize,
        sensor_h: usize,
    ) -> Self {
        let cache = RegionCache::build(&config, registration, sensor_w, sensor_h);
        Self::with_cache(config, cache, Arc::new(ParallelEngine::from_env()))
    }

    /// Creates a receiver from a prebuilt [`RegionCache`] (shared across
    /// demultiplexers of the same geometry) and an explicit engine.
    /// Decoded output is bit-identical for every worker count.
    pub fn with_cache(
        config: InFrameConfig,
        cache: Arc<RegionCache>,
        engine: Arc<ParallelEngine>,
    ) -> Self {
        config.validate();
        let (sensor_w, sensor_h) = cache.sensor_shape();
        let meter = ThroughputMeter::new(engine.workers());
        let quant = (config.kernel == KernelBackend::Quantized).then(|| QuantState {
            capture: QPlane::new(sensor_w, sensor_h),
            rowsum: vec![0; sensor_w * sensor_h],
            cols: (0..engine.workers())
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
            prefix: QRowPrefix::default(),
            acc_s: vec![0; cache.program.total_slices],
            acc_q: vec![0; cache.program.total_slices],
            row_s: vec![0; sensor_w + 1],
            row_q: vec![0; sensor_w + 1],
        });
        Self {
            cycle_duration: config.tau as f64 / config.refresh_hz,
            layout: DataLayout::from_config(&config),
            config,
            cache,
            engine,
            current: None,
            smoothed: Plane::filled(sensor_w, sensor_h, 0.0),
            scratch: BlurScratch::default(),
            score_buf: Vec::new(),
            retired_best: Vec::new(),
            quant,
            meter,
            obs: DemuxObs::default(),
        }
    }

    /// Attaches telemetry: capture/score instruments, threshold-margin
    /// histograms, the `chan.*` GOB accounting, and per-cycle decode
    /// events go live. Constructors default to the disabled handle (one
    /// branch per instrumented site).
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.obs = DemuxObs::new(telemetry);
        self
    }

    /// The resolved layout.
    pub fn layout(&self) -> &DataLayout {
        &self.layout
    }

    /// The shared per-geometry region/template cache.
    pub fn region_cache(&self) -> &Arc<RegionCache> {
        &self.cache
    }

    /// The scoring engine.
    pub fn engine(&self) -> &Arc<ParallelEngine> {
        &self.engine
    }

    /// Live demux performance: captures/s and worker utilization.
    pub fn meter(&self) -> &ThroughputMeter {
        &self.meter
    }

    /// Duration of one data cycle, seconds.
    pub fn cycle_duration(&self) -> f64 {
        self.cycle_duration
    }

    /// Feeds one captured frame. `t_mid` is the capture's temporal centre
    /// (exposure midpoint of the frame) in display time. Returns a decoded
    /// data frame whenever a cycle completes.
    pub fn push_capture(&mut self, capture: &Plane<f32>, t_mid: f64) -> Option<DecodedDataFrame> {
        let cycle = (t_mid / self.cycle_duration).floor().max(0.0) as u64;
        let mut completed = None;
        let flush = matches!(&self.current, Some(acc) if acc.cycle != cycle);
        if flush {
            completed = self.finish();
        }
        // Captures from the second half of a cycle see the smoothing
        // envelope ramping toward the *next* data frame (§3.2): a 0-Block
        // whose bit flips next cycle already shows a growing chessboard.
        // Only first-half captures carry the current frame cleanly; the
        // cycle length τ is chosen so at least one 30 FPS capture always
        // lands there.
        let phase = (t_mid / self.cycle_duration).fract();
        let scored = phase < 0.45;
        if scored {
            self.score_capture_pooled(capture);
        }
        if self.current.is_none() {
            // Recycle the previous cycle's best vector: cycle turnover is
            // allocation-free once the first cycle has been finished.
            let mut best = std::mem::take(&mut self.retired_best);
            best.clear();
            best.resize(self.layout.num_blocks(), BlockScore::Unreadable);
            self.current = Some(CycleAccumulator {
                cycle,
                best,
                captures: 0,
            });
        }
        let acc = self.current.as_mut().expect("accumulator just ensured");
        acc.captures += 1;
        if scored {
            for (best, &score) in acc.best.iter_mut().zip(&self.score_buf) {
                best.merge_max(score);
            }
        }
        completed
    }

    /// Scores one capture into the reused `score_buf` on the configured
    /// backend: one shared high-pass per capture, then per-Block
    /// demodulation fanned out over the workers via
    /// [`ParallelEngine::map_into`]. Allocation-free in steady state.
    fn score_capture_pooled(&mut self, capture: &Plane<f32>) {
        let started = Instant::now();
        let busy_before = self.engine.busy();
        self.score_buf.clear();
        self.score_buf
            .resize(self.cache.regions.len(), BlockScore::Unreadable);
        match self.config.kernel {
            KernelBackend::Reference => {
                box_blur_fast_into(
                    capture,
                    self.cache.smooth_radius,
                    &mut self.scratch,
                    &mut self.smoothed,
                );
                let smoothed = &self.smoothed;
                self.engine
                    .map_into(&self.cache.regions, &mut self.score_buf, |_, region| {
                        demodulate(capture, smoothed, region)
                    });
            }
            KernelBackend::Quantized => {
                let q = self
                    .quant
                    .as_mut()
                    .expect("quantized state is allocated at construction");
                let (w, h) = (capture.width(), capture.height());
                let r = self.cache.smooth_radius;
                if q.capture.shape() != (w, h) {
                    q.capture.reshape(w, h);
                }
                if q.rowsum.len() != w * h {
                    q.rowsum.clear();
                    q.rowsum.resize(w * h, 0);
                }
                // Stage 1 (band-parallel): quantize the capture and take
                // each row's horizontal window sums — both row-local.
                let level = simd::active_level();
                self.engine.for_each_row_band2(
                    h,
                    w,
                    q.capture.samples_mut(),
                    w,
                    &mut q.rowsum,
                    |_, rows, cap, rs| {
                        // Row-interleaved so the window sums read the
                        // just-quantized row while it is still in L1.
                        for (i, y) in rows.enumerate() {
                            let dst = &mut cap[i * w..(i + 1) * w];
                            simd::quantize_slice(level, capture.row(y), dst);
                            horizontal_window_sums_band(dst, w, r, &mut rs[i * w..(i + 1) * w]);
                        }
                    },
                );
                if self.engine.workers() == 1 && (w, h) == self.cache.sensor_shape() {
                    // Direct row sweep: compute each high-pass prefix row
                    // into one reused `w + 1` scratch row and fold the
                    // row's template segments straight into per-(region,
                    // slice) accumulators — the prefix tables are never
                    // materialized, eliminating their 12 bytes/px of
                    // write traffic per capture. Exact i64 sums in a
                    // different (row-major) order, so the scores stay
                    // bit-identical to the table path.
                    let mut col = q.cols[0].lock().expect("col scratch lock");
                    let prog = &self.cache.program;
                    direct_sweep(
                        prog,
                        &q.capture,
                        &q.rowsum,
                        r,
                        &mut col,
                        &mut q.row_s,
                        &mut q.row_q,
                        &mut q.acc_s,
                        &mut q.acc_q,
                    );
                    self.obs.band_rows.add(0, prog.rows.len() as u64);
                    for (ri, region) in self.cache.regions.iter().enumerate() {
                        let base = prog.slice_base[ri] as usize;
                        let n = region.qt.slice_weights.len();
                        self.score_buf[ri] = score_from_slices(
                            &region.qt,
                            &q.acc_s[base..base + n],
                            &q.acc_q[base..base + n],
                        );
                    }
                } else {
                    q.prefix.reshape(w, h);
                    // Stage 2 (band-parallel): fused vertical window,
                    // residual `capture − blur(capture)` and row-prefix
                    // build — bit-identical to the blur→subtract→build
                    // composition and to every other band partition.
                    let qcap = &q.capture;
                    let rowsum = &q.rowsum;
                    let cols = &q.cols;
                    let (sum, sq) = q.prefix.tables_mut();
                    let stride = w + 1;
                    let band_rows = &self.obs.band_rows;
                    self.engine.for_each_row_band2(
                        h,
                        stride,
                        sum,
                        stride,
                        sq,
                        |band, rows, bs, bq| {
                            band_rows.add(band, rows.len() as u64);
                            let mut col = cols[band].lock().expect("col scratch lock");
                            build_highpass_band(bs, bq, qcap, rowsum, r, rows, &mut col);
                        },
                    );
                    let prefix = &q.prefix;
                    self.engine
                        .map_into(&self.cache.regions, &mut self.score_buf, |_, region| {
                            demodulate_quantized(prefix, region)
                        });
                }
            }
        }
        let busy = self.engine.busy().saturating_sub(busy_before);
        let elapsed = started.elapsed();
        self.meter.record_frame(elapsed, busy);
        self.obs.captures.incr();
        self.obs.score_ns.record_ns(elapsed);
        let px = (capture.width() * capture.height()) as u128;
        if let Some(milli_ns) = elapsed.as_nanos().saturating_mul(1000).checked_div(px) {
            self.obs.ns_per_px.record(milli_ns as u64);
        }
    }

    /// Per-Block scores of the most recently scored capture (empty before
    /// the first in-phase capture). Exposed so equivalence tests can
    /// compare raw backend scores without re-running the blur.
    pub fn last_scores(&self) -> &[BlockScore] {
        &self.score_buf
    }

    /// Flushes the in-progress cycle (call at end of stream).
    pub fn finish(&mut self) -> Option<DecodedDataFrame> {
        let mut acc = self.current.take()?;
        let t = self.config.threshold;
        let m = self.config.margin;
        let verdicts: Vec<Option<bool>> = acc
            .best
            .iter()
            .map(|score| match score.value() {
                None => None,
                Some(s) if s > t + m => Some(true),
                Some(s) if s < t - m => Some(false),
                Some(_) => None,
            })
            .collect();
        // Threshold-distance telemetry: how much margin each readable
        // Block's decision had. A healthy channel is strongly bimodal
        // (large distances); scores crowding the dead zone are the
        // leading indicator of availability collapse.
        for score in &acc.best {
            if let Some(s) = score.value() {
                self.obs
                    .margin_milli
                    .record(((s - t).abs() * 1000.0) as u64);
            }
        }
        self.retired_best = std::mem::take(&mut acc.best);
        let (payload, stats) = dataframe::decode(&self.layout, &verdicts, self.config.coding);
        self.obs.chan_cycles.incr();
        self.obs.gob_ok.add(stats.available - stats.erroneous);
        self.obs.gob_erroneous.add(stats.erroneous);
        self.obs.gob_unavailable.add(stats.unavailable);
        self.obs.telemetry.event(inframe_obs::Event::CycleDecoded {
            cycle: acc.cycle,
            ok: (stats.available - stats.erroneous) as u32,
            erroneous: stats.erroneous as u32,
            unavailable: stats.unavailable as u32,
            captures: acc.captures,
        });
        Some(DecodedDataFrame {
            cycle: acc.cycle,
            payload,
            stats,
            captures_used: acc.captures,
        })
    }

    /// Discards the in-progress cycle without decoding it. A receiver
    /// that loses cycle lock calls this: the accumulated scores were
    /// folded with a phase no longer trusted, and decoding them would
    /// emit garbage verdicts.
    pub fn abort_cycle(&mut self) {
        if let Some(acc) = self.current.take() {
            self.retired_best = acc.best;
            self.obs.aborted.incr();
        }
    }

    /// Raw per-Block scores of a single capture — exposed for calibration
    /// and the threshold ablation. Always runs the reference kernels (it
    /// is the oracle); Blocks with no usable sensor pixels report `0.0`.
    /// Thin allocating wrapper over [`Demultiplexer::score_capture_into`].
    pub fn score_capture(&mut self, capture: &Plane<f32>) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.cache.regions.len());
        self.score_capture_into(capture, &mut out);
        out
    }

    /// [`Demultiplexer::score_capture`] writing into a caller-provided
    /// scratch vector (cleared first) and reusing the receiver's blur
    /// buffers — allocation-free once `out`'s capacity covers the Block
    /// count, which is what lets the session layer score acquisition
    /// probes at the streaming rate.
    pub fn score_capture_into(&mut self, capture: &Plane<f32>, out: &mut Vec<f32>) {
        box_blur_fast_into(
            capture,
            self.cache.smooth_radius,
            &mut self.scratch,
            &mut self.smoothed,
        );
        out.clear();
        out.extend(self.cache.regions.iter().map(|r| {
            demodulate(capture, &self.smoothed, r)
                .value()
                .unwrap_or(0.0)
        }));
    }
}

/// One full direct row sweep: computes each fused high-pass prefix row
/// into L1-resident scratch and folds the row program's segments into
/// the per-`(region, slice)` accumulators. Shared verbatim by the
/// single-worker streaming path and the batched scorer
/// (`crate::batch`), which replays it once per distinct photometric
/// variant — keeping the two bit-identical by construction.
#[allow(clippy::too_many_arguments)] // scratch-threading seam; all slices
pub(crate) fn direct_sweep(
    prog: &RowProgram,
    qcap: &QPlane,
    rowsum: &[i32],
    r: usize,
    col: &mut Vec<i32>,
    row_s: &mut [i32],
    row_q: &mut [i64],
    acc_s: &mut [i64],
    acc_q: &mut [i64],
) {
    let (w, h) = qcap.shape();
    prime_highpass_columns(rowsum, w, h, r, 0, col);
    acc_s.fill(0);
    acc_q.fill(0);
    let level = simd::active_level();
    for (y, &(r0, r1, s0, s1)) in prog.rows.iter().enumerate() {
        highpass_row_into(qcap, rowsum, r, y, col, row_s, row_q);
        simd::sweep_row_segments(
            level,
            row_s,
            row_q,
            &prog.runs[r0 as usize..r1 as usize],
            &prog.spans[s0 as usize..s1 as usize],
            acc_s,
            acc_q,
        );
    }
}

/// Demodulated chessboard amplitude of one Block region: twice the
/// template-weighted mean of the high-pass residual, i.e. approximately the
/// captured peak-to-peak chessboard contrast in code values.
/// The region is demodulated in **horizontal slices**, accumulating the
/// absolute correlation per slice. A rolling-shutter camera can catch the
/// `V+D` frame in the top of a Block and the `V−D` frame in the bottom
/// (the strobe index flips at some row); a whole-block correlation would
/// cancel there, while per-slice magnitudes survive with only the boundary
/// slice lost — the receiver-side rolling-shutter resilience of §3.3.
fn demodulate(capture: &Plane<f32>, smoothed: &Plane<f32>, region: &BlockRegion) -> BlockScore {
    demodulate_noised(capture, smoothed, region, 0.0)
}

/// [`demodulate`] with an extra per-cell expected noise power folded into
/// each slice's energy term — how the batched scorer models a receiver's
/// sensor-noise class without perturbing pixels: extra incoherent energy
/// raises the noise floor (and so deterministically lowers the score)
/// exactly as white residual noise of that power would in expectation.
/// `noise_cell_sq = 0.0` adds literal `+0.0` per slice, so the result is
/// bit-identical to the unnoised path.
pub(crate) fn demodulate_noised(
    capture: &Plane<f32>,
    smoothed: &Plane<f32>,
    region: &BlockRegion,
    noise_cell_sq: f64,
) -> BlockScore {
    let t = &region.template;
    let h = t.height();
    // Slices of ~1/4 block height (at least 2 rows) balance sign-flip
    // resilience against the positive bias |noise| picks up per slice.
    let slice_h = (h / 4).max(2);
    let mut total = 0.0f64;
    let mut total_weight = 0.0f64;
    let mut y0 = 0;
    while y0 < h {
        let y1 = (y0 + slice_h).min(h);
        let mut acc = 0.0f64;
        let mut energy = 0.0f64;
        let mut weight = 0.0f64;
        for dy in y0..y1 {
            let cols = region.x..region.x + t.width();
            let y = region.y + dy;
            let row = t.row(dy).iter().zip(&capture.row(y)[cols.clone()]);
            for ((&tv, &c), &s) in row.zip(&smoothed.row(y)[cols]) {
                if tv == 0.0 {
                    continue;
                }
                let hp = (c - s) as f64;
                acc += hp * tv as f64;
                energy += hp * hp;
                weight += tv.abs() as f64;
            }
        }
        let energy = energy + noise_cell_sq * weight;
        // Noise-floor subtraction — the paper's "remove the mean absolute
        // difference": content that is incoherent with the template (video
        // texture, sensor noise) contributes E|Σ hpᵢ| ≈ √(2/π · Σ hpᵢ²) to
        // the slice magnitude. The coherent (template-aligned) part of the
        // energy is excluded first so a clean chessboard is not penalized
        // for its own power.
        let incoherent = if weight > 0.0 {
            (energy - acc * acc / weight).max(0.0)
        } else {
            0.0
        };
        let noise_floor = (2.0 / std::f64::consts::PI * incoherent).sqrt();
        total += (acc.abs() - noise_floor).max(0.0);
        total_weight += weight;
        y0 = y1;
    }
    if total_weight == 0.0 {
        BlockScore::Unreadable
    } else {
        BlockScore::Readable((2.0 * total / total_weight) as f32)
    }
}

/// Quantized-backend demodulation: the same per-slice correlate /
/// noise-floor-subtract formula as [`demodulate`], but with `Σ hp·t` and
/// `Σ hp²` pulled from the high-pass residual's [`QRowPrefix`] via the
/// region's run-length template — a handful of O(1) row-segment lookups
/// per template row instead of a walk over every sensor pixel.
///
/// The integer segment sums are **exact**, so the result is independent
/// of how Blocks are partitioned across workers (PR 1's bit-identical
/// guarantee carries over to the quantized path by construction).
fn demodulate_quantized(integral: &QRowPrefix, region: &BlockRegion) -> BlockScore {
    let qt = &region.qt;
    let h = qt.row_runs.len();
    // The flattened gather indices bake in a specific sensor stride; use
    // them (and the wide segment-sum kernels) only when this capture's
    // prefix table matches the geometry the cache was built for.
    let gather = qt.gather_stride == integral.shape().0 + 1;
    // A Block has at most ~6 rolling-shutter slices (`slice_h = h/4`,
    // floored at 2 rows); the batched gathers fill both stack arrays in
    // one validated kernel call each instead of two calls per slice.
    const MAX_SLICES: usize = 16;
    let num_slices = qt.slice_weights.len();
    assert!(num_slices <= MAX_SLICES, "unexpected slice count");
    let mut accs = [0i64; MAX_SLICES];
    let mut energies = [0i64; MAX_SLICES];
    if gather {
        let level = simd::active_level();
        let (sum_tab, sq_tab) = integral.tables();
        simd::signed_segment_sums_sliced(
            level,
            sum_tab,
            &qt.g_run_lo,
            &qt.g_run_hi,
            &qt.g_run_sign,
            &qt.slice_runs,
            &mut accs[..num_slices],
        );
        simd::segment_sums_sliced(
            level,
            sq_tab,
            &qt.g_span_lo,
            &qt.g_span_hi,
            &qt.slice_spans,
            &mut energies[..num_slices],
        );
    } else {
        for dy in 0..h {
            let slice = dy / qt.slice_h;
            let y = region.y + dy;
            let (r0, r1) = qt.row_runs[dy];
            for &(x0, x1, sign) in &qt.runs[r0 as usize..r1 as usize] {
                let s = integral.row_sum(y, region.x + x0 as usize, region.x + x1 as usize);
                accs[slice] += if sign > 0 { s } else { -s };
            }
            let (s0, s1) = qt.row_spans[dy];
            for &(x0, x1) in &qt.spans[s0 as usize..s1 as usize] {
                energies[slice] +=
                    integral.row_sum_sq(y, region.x + x0 as usize, region.x + x1 as usize);
            }
        }
    }
    score_from_slices(qt, &accs[..num_slices], &energies[..num_slices])
}

/// Folds exact per-slice integer sums (`Σ hp·t` and `Σ hp²`, Q8.7 raw
/// units) into a Block score — the shared back end of
/// [`demodulate_quantized`] and the direct row sweep. Same per-slice
/// correlate / noise-floor-subtract formula as [`demodulate`].
fn score_from_slices(qt: &QTemplate, accs: &[i64], energies: &[i64]) -> BlockScore {
    score_from_slices_noised(qt, accs, energies, 0)
}

/// [`score_from_slices`] with a per-cell expected noise power (in
/// squared Q8.7 raw units) added to each slice's energy — the quantized
/// twin of [`demodulate_noised`]'s noise-as-class model, kept in the
/// integer domain so noise classes fold into exact i64 sums.
/// `noise_raw_sq = 0` is bit-identical to the unnoised path.
pub(crate) fn score_from_slices_noised(
    qt: &QTemplate,
    accs: &[i64],
    energies: &[i64],
    noise_raw_sq: i64,
) -> BlockScore {
    // Q8.7 raw → code values; energies carry two factors of the scale.
    let scale = qplane::LSB as f64;
    let scale_sq = scale * scale;
    let mut total = 0.0f64;
    let mut total_weight = 0.0f64;
    for (slice, (&acc_raw, &energy_raw)) in accs.iter().zip(energies).enumerate() {
        let weight = qt.slice_weights[slice];
        // Slice weights are integral (run-length counts), so the noise
        // energy lands as an exact i64 before any float rounding.
        let energy_raw = energy_raw + noise_raw_sq * weight as i64;
        let acc = acc_raw as f64 * scale;
        let energy = energy_raw as f64 * scale_sq;
        let incoherent = if weight > 0.0 {
            (energy - acc * acc / weight).max(0.0)
        } else {
            0.0
        };
        let noise_floor = (2.0 / std::f64::consts::PI * incoherent).sqrt();
        total += (acc.abs() - noise_floor).max(0.0);
        total_weight += weight;
    }
    if total_weight == 0.0 {
        BlockScore::Unreadable
    } else {
        BlockScore::Readable((2.0 * total / total_weight) as f32)
    }
}

/// Mean linear scale factor of a homography near the display centre — used
/// to size the receiver's smoothing radius.
fn estimate_scale(h: &Homography) -> f64 {
    let (x0, y0) = h.apply(100.0, 100.0).unwrap_or((0.0, 0.0));
    let (x1, _) = h.apply(101.0, 100.0).unwrap_or((1.0, 0.0));
    let (_, y2) = h.apply(100.0, 101.0).unwrap_or((0.0, 1.0));
    (((x1 - x0).abs() + (y2 - y0).abs()) / 2.0).max(1e-6)
}

/// Builds the sensor region and chessboard template for one Block.
fn build_region(
    layout: &DataLayout,
    registration: &Homography,
    inverse: &Homography,
    bx: usize,
    by: usize,
    sensor_w: usize,
    sensor_h: usize,
) -> BlockRegion {
    let r = layout.block_rect(bx, by);
    let corners = [
        (r.x as f64, r.y as f64),
        ((r.x + r.w) as f64, r.y as f64),
        ((r.x + r.w) as f64, (r.y + r.h) as f64),
        (r.x as f64, (r.y + r.h) as f64),
    ];
    let mut min_x = f64::INFINITY;
    let mut min_y = f64::INFINITY;
    let mut max_x = f64::NEG_INFINITY;
    let mut max_y = f64::NEG_INFINITY;
    for (cx, cy) in corners {
        let (sx, sy) = registration
            .apply(cx, cy)
            .expect("registration must not map blocks to infinity");
        min_x = min_x.min(sx);
        min_y = min_y.min(sy);
        max_x = max_x.max(sx);
        max_y = max_y.max(sy);
    }
    // Inset to avoid bleed from neighbouring blocks, then clamp to the
    // sensor.
    let inset_x = ((max_x - min_x) * 0.10).max(1.0);
    let inset_y = ((max_y - min_y) * 0.10).max(1.0);
    let x0 = ((min_x + inset_x).floor().max(0.0)) as usize;
    let y0 = ((min_y + inset_y).floor().max(0.0)) as usize;
    let x1 = ((max_x - inset_x).ceil().min(sensor_w as f64)) as usize;
    let y1 = ((max_y - inset_y).ceil().min(sensor_h as f64)) as usize;
    assert!(
        x1 > x0 + 1 && y1 > y0 + 1,
        "block ({bx},{by}) projects to a degenerate sensor region"
    );
    // Template: per sensor pixel, map its centre back to display space and
    // take the chessboard parity of its super-Pixel. Pattern value is δ on
    // odd-parity Pixels, 0 on even: after mean removal that is ±δ/2, so
    // the template is +1 (odd) / −1 (even).
    let cell = layout.pixel_size as f64;
    let template = Plane::from_fn(x1 - x0, y1 - y0, |dx, dy| {
        let sx = (x0 + dx) as f64 + 0.5;
        let sy = (y0 + dy) as f64 + 0.5;
        match inverse.apply(sx, sy) {
            Some((ux, uy)) => {
                let lx = ux - r.x as f64;
                let ly = uy - r.y as f64;
                if lx < 0.0 || ly < 0.0 || lx >= r.w as f64 || ly >= r.h as f64 {
                    0.0
                } else {
                    let pi = (lx / cell).floor() as i64;
                    let pj = (ly / cell).floor() as i64;
                    if (pi + pj).rem_euclid(2) == 1 {
                        1.0
                    } else {
                        -1.0
                    }
                }
            }
            None => 0.0,
        }
    });
    let mut qt = build_qtemplate(&template);
    qt.build_gather(x0, y0, sensor_w + 1);
    BlockRegion {
        x: x0,
        y: y0,
        template,
        qt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CodingMode;
    use crate::dataframe::DataFrame;
    use crate::pattern::{self, Complementation};

    fn paper_small() -> InFrameConfig {
        InFrameConfig::small_test()
    }

    fn encode_frame(cfg: &InFrameConfig, key: usize) -> (DataLayout, DataFrame, Vec<bool>) {
        let layout = DataLayout::from_config(cfg);
        let payload: Vec<bool> = (0..layout.payload_bits_parity())
            .map(|i| i % key == 0)
            .collect();
        let frame = DataFrame::encode(&layout, &payload, CodingMode::Parity);
        (layout, frame, payload)
    }

    fn render_plus(
        cfg: &InFrameConfig,
        layout: &DataLayout,
        frame: &DataFrame,
        video: &Plane<f32>,
    ) -> Plane<f32> {
        let (plus, _) = pattern::complementary_pair(
            layout,
            video,
            frame,
            cfg.delta,
            Complementation::Code,
            |bx, by| {
                if frame.bit(bx, by) {
                    1.0
                } else {
                    0.0
                }
            },
        );
        plus
    }

    #[test]
    fn demux_decodes_synthetic_clean_captures() {
        let cfg = paper_small();
        let (layout, frame, payload) = encode_frame(&cfg, 3);
        let video = Plane::filled(cfg.display_w, cfg.display_h, 127.0);
        let plus = render_plus(&cfg, &layout, &frame, &video);
        let mut demux =
            Demultiplexer::new(cfg, &Homography::identity(), cfg.display_w, cfg.display_h);
        assert!(demux.push_capture(&plus, 0.01).is_none());
        assert!(demux.push_capture(&plus, 0.05).is_none());
        let decoded = demux
            .push_capture(&video, demux.cycle_duration() + 0.01)
            .expect("first cycle completes");
        assert_eq!(decoded.cycle, 0);
        assert_eq!(decoded.captures_used, 2);
        assert_eq!(decoded.stats.available_ratio(), 1.0);
        assert_eq!(decoded.stats.error_rate(), 0.0);
        let bits: Vec<bool> = decoded.payload.iter().map(|b| b.unwrap()).collect();
        assert_eq!(bits, payload);
    }

    #[test]
    fn minus_frame_decodes_identically() {
        // The demodulator takes |·|, so V−D captures decode the same way.
        let cfg = paper_small();
        let (layout, frame, payload) = encode_frame(&cfg, 2);
        let video = Plane::filled(cfg.display_w, cfg.display_h, 127.0);
        let (_, minus) = pattern::complementary_pair(
            &layout,
            &video,
            &frame,
            cfg.delta,
            Complementation::Code,
            |bx, by| {
                if frame.bit(bx, by) {
                    1.0
                } else {
                    0.0
                }
            },
        );
        let mut demux =
            Demultiplexer::new(cfg, &Homography::identity(), cfg.display_w, cfg.display_h);
        demux.push_capture(&minus, 0.01);
        let decoded = demux.finish().unwrap();
        let bits: Vec<bool> = decoded.payload.iter().map(|b| b.unwrap()).collect();
        assert_eq!(bits, payload);
    }

    #[test]
    fn clean_scores_separate_clearly() {
        // Scores of 1-blocks sit near δ; 0-blocks near zero — the dead
        // zone between them is wide at δ = 20.
        let cfg = paper_small();
        let (layout, frame, _) = encode_frame(&cfg, 2);
        let video = Plane::filled(cfg.display_w, cfg.display_h, 127.0);
        let plus = render_plus(&cfg, &layout, &frame, &video);
        let mut demux =
            Demultiplexer::new(cfg, &Homography::identity(), cfg.display_w, cfg.display_h);
        let scores = demux.score_capture(&plus);
        for (i, &score) in scores.iter().enumerate() {
            let (bx, by) = (i % layout.blocks_x, i / layout.blocks_x);
            if frame.bit(bx, by) {
                assert!(score > 12.0, "1-block ({bx},{by}) score {score}");
            } else {
                assert!(score < 2.0, "0-block ({bx},{by}) score {score}");
            }
        }
    }

    #[test]
    fn washed_out_capture_scores_near_zero() {
        // A capture that integrated across a complementary pair sees plain
        // video: every block scores ~0 → all-zero frame decodes (parity of
        // zeros holds), no spurious 1s.
        let cfg = paper_small();
        let video = Plane::filled(cfg.display_w, cfg.display_h, 127.0);
        let mut demux =
            Demultiplexer::new(cfg, &Homography::identity(), cfg.display_w, cfg.display_h);
        demux.push_capture(&video, 0.01);
        let decoded = demux.finish().unwrap();
        assert_eq!(decoded.stats.available_ratio(), 1.0);
        let zeros = decoded
            .payload
            .iter()
            .filter(|b| **b == Some(false))
            .count();
        assert_eq!(zeros, decoded.payload.len());
    }

    #[test]
    fn half_contrast_lands_in_dead_zone() {
        // A capture with the pattern at a small fraction of δ (e.g. a
        // mostly-cancelled straddle) must be declared undecodable, not
        // guessed.
        let cfg = paper_small();
        let (layout, frame, _) = encode_frame(&cfg, 2);
        let video = Plane::filled(cfg.display_w, cfg.display_h, 127.0);
        let faint = pattern::complementary_pair(
            &layout,
            &video,
            &frame,
            cfg.delta,
            Complementation::Code,
            |bx, by| {
                if frame.bit(bx, by) {
                    0.1 // ~10% residual contrast → score ≈ 2 ≈ T
                } else {
                    0.0
                }
            },
        )
        .0;
        let mut demux =
            Demultiplexer::new(cfg, &Homography::identity(), cfg.display_w, cfg.display_h);
        demux.push_capture(&faint, 0.01);
        let decoded = demux.finish().unwrap();
        assert!(
            decoded.stats.unavailable > 0,
            "faint pattern must produce unavailable GOBs, got {:?}",
            decoded.stats
        );
    }

    #[test]
    fn instrumented_demux_reports_channel_accounting() {
        let cfg = paper_small();
        let (layout, frame, _) = encode_frame(&cfg, 3);
        let video = Plane::filled(cfg.display_w, cfg.display_h, 127.0);
        let plus = render_plus(&cfg, &layout, &frame, &video);
        let tele = Telemetry::new();
        let mut demux =
            Demultiplexer::new(cfg, &Homography::identity(), cfg.display_w, cfg.display_h)
                .with_telemetry(&tele);
        demux.push_capture(&plus, 0.01);
        demux.push_capture(&plus, 0.02);
        let decoded = demux.finish().unwrap();
        let s = tele.summary();
        assert_eq!(s.counter(names::demux::CAPTURES), 2);
        assert_eq!(s.counter(names::chan::CYCLES), 1);
        assert_eq!(
            s.channel().total_gobs(),
            decoded.stats.available + decoded.stats.unavailable
        );
        assert_eq!(s.histogram(names::demux::SCORE_NS).unwrap().count, 2);
        assert!(s.histogram(names::demux::MARGIN_MILLI).unwrap().count > 0);
        assert!(tele
            .recorder_dump()
            .iter()
            .any(|r| matches!(r.event, inframe_obs::Event::CycleDecoded { cycle: 0, .. })));
    }

    #[test]
    fn finish_on_empty_stream_is_none() {
        let cfg = paper_small();
        let mut demux =
            Demultiplexer::new(cfg, &Homography::identity(), cfg.display_w, cfg.display_h);
        assert!(demux.finish().is_none());
    }

    #[test]
    fn registration_scales_block_regions() {
        // 2/3-resolution sensor (the paper's 1920→1280 ratio): decoding
        // must survive the downsample.
        use inframe_frame::resample::downsample_area;

        let cfg = paper_small();
        let (layout, frame, payload) = encode_frame(&cfg, 4);
        let video = Plane::filled(cfg.display_w, cfg.display_h, 127.0);
        let plus = render_plus(&cfg, &layout, &frame, &video);
        let sw = cfg.display_w * 2 / 3;
        let sh = cfg.display_h * 2 / 3;
        let captured = downsample_area(&plus, sw, sh);
        let reg = Homography::scale(
            sw as f64 / cfg.display_w as f64,
            sh as f64 / cfg.display_h as f64,
        );
        let mut demux = Demultiplexer::new(cfg, &reg, sw, sh);
        demux.push_capture(&captured, 0.01);
        let decoded = demux.finish().unwrap();
        assert!(
            decoded.stats.available_ratio() > 0.9,
            "availability {}",
            decoded.stats.available_ratio()
        );
        let mut correct = 0;
        let mut total = 0;
        for (bit, truth) in decoded.payload.iter().zip(&payload) {
            if let Some(b) = bit {
                total += 1;
                if b == truth {
                    correct += 1;
                }
            }
        }
        assert!(total > 0);
        assert!(
            correct as f64 / total as f64 > 0.97,
            "accuracy {correct}/{total}"
        );
    }

    #[test]
    fn textured_video_confuses_some_blocks() {
        // High-contrast texture at the chessboard scale raises 0-block
        // scores: the root cause of Figure 7's lower availability on real
        // video.
        let cfg = paper_small();
        let (_, _, _) = encode_frame(&cfg, 2);
        let noisy_video = Plane::from_fn(cfg.display_w, cfg.display_h, |x, y| {
            let h = (x as u64)
                .wrapping_mul(2654435761)
                .wrapping_add((y as u64).wrapping_mul(40503));
            80.0 + ((h >> 3) % 120) as f32
        });
        let mut demux =
            Demultiplexer::new(cfg, &Homography::identity(), cfg.display_w, cfg.display_h);
        let scores = demux.score_capture(&noisy_video);
        let max = scores.iter().cloned().fold(0.0f32, f32::max);
        assert!(
            max > 0.5,
            "texture must raise scores above the clean floor, max {max}"
        );
    }
}
