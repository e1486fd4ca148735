//! Batched demultiplexing: score N perturbed receivers of one displayed
//! cycle against **shared** state.
//!
//! InFrame is one-to-many broadcast — one display, arbitrarily many
//! cameras — so the receiver-side work for a fleet factors cleanly:
//!
//! 1. Every receiver of the same capture instant sees the same emitted
//!    light; its capture differs by a cheap photometric transform
//!    ([`CaptureTransform`]: AE gain, AWB shift, occlusion) plus sensor
//!    noise. Receivers therefore collapse into a small set of **variant
//!    sweeps** (one direct row sweep per *distinct* transform, shared by
//!    every receiver carrying it) and **score classes** (a variant plus
//!    a noise power folded into the slice energies — pure accumulator
//!    arithmetic, no pixels touched).
//! 2. A pure AWB shift never even needs its own sweep: the high-pass is
//!    shift-invariant under the replicate-border box means (verified by
//!    [`CaptureTransform::shifts_without_clamp`] eligibility plus the
//!    fleet equivalence suite), so those classes alias the identity
//!    variant's accumulators outright.
//! 3. Per-receiver state is then one `f32` row per receiver, folded by
//!    [`BatchScorer::merge_assigned`] — a branch-free max loop the
//!    engine band-slices over *receivers* when N is large.
//!
//! The batch path reuses the exact kernels of the streaming
//! [`Demultiplexer`](crate::demux::Demultiplexer) (`direct_sweep`, `score_from_slices`,
//! `demodulate`), so its decode decisions are bit-identical to looping
//! `push_capture` over per-receiver materialized captures — enforced by
//! `tests/fleet_equivalence.rs` across backends, SIMD levels, and
//! worker counts. It is also the kernel-launch shape a GPU
//! `KernelBackend` port would batch: V sweeps + C folds + one N×B max
//! reduction per capture.

use crate::config::{InFrameConfig, KernelBackend};
use crate::demux::{
    demodulate_noised, direct_sweep, score_from_slices_noised, BlockScore, RegionCache,
};
use crate::parallel::ParallelEngine;
use inframe_frame::integral::{box_blur_fast_into, BlurScratch};
use inframe_frame::perturb::CaptureTransform;
use inframe_frame::qplane::{self, horizontal_window_sums_band, QPlane};
use inframe_frame::Plane;
use inframe_obs::{names, Telemetry};
use std::sync::Arc;

/// Score encoding of [`BlockScore::Unreadable`] in the flat `f32`
/// tables: negative infinity loses every `max` against a readable score
/// and never satisfies the `< T − margin` verdict test, so the flat
/// encoding is value-identical to `BlockScore::merge_max` folding.
pub const UNREADABLE: f32 = f32::NEG_INFINITY;

/// Receiver-class sentinel for [`BatchScorer::merge_assigned`]: the
/// receiver did not see this capture (dropped frame, not yet joined).
pub const SKIP: u32 = u32::MAX;

/// Encodes a [`BlockScore`] into the flat representation.
#[inline]
pub fn encode_score(s: BlockScore) -> f32 {
    s.value().unwrap_or(UNREADABLE)
}

/// One scoring class: a photometric variant plus a sensor-noise power.
/// Many receivers share a class; scoring cost scales with distinct
/// classes, not with receivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScoreClass {
    /// Index into the `transforms` slice given to
    /// [`BatchScorer::score_classes`].
    pub transform: u32,
    /// Expected per-cell sensor-noise power in squared Q8.7 raw units,
    /// folded into each slice's energy term (see
    /// `score_from_slices_noised`); `0` reproduces the noiseless scores
    /// bit-exactly.
    pub noise_raw_sq: i64,
}

impl ScoreClass {
    /// The identity-transform, noiseless class (requires the identity
    /// transform at index `transform`).
    pub fn clean(transform: u32) -> Self {
        Self {
            transform,
            noise_raw_sq: 0,
        }
    }

    /// Converts a noise standard deviation in code values (e.g. a read
    /// noise of 2.5 code steps) into the squared-raw units this class
    /// carries.
    pub fn noise_raw_sq_from_sigma(sigma_code: f64) -> i64 {
        let raw = sigma_code * qplane::ONE as f64;
        (raw * raw).round() as i64
    }
}

/// Scores every distinct receiver class of one capture against shared
/// sweeps, then folds per-receiver bests with a flat max. See the
/// module docs for the three-level sharing scheme.
pub struct BatchScorer {
    config: InFrameConfig,
    cache: Arc<RegionCache>,
    engine: Arc<ParallelEngine>,
    // Quantized-backend working set (allocated on either backend — the
    // reference path also materializes variants through the quantized
    // bridge so both backends score the same capture bytes).
    qbase: QPlane,
    qvar: QPlane,
    rowsum: Vec<i32>,
    col: Vec<i32>,
    row_s: Vec<i32>,
    row_q: Vec<i64>,
    acc_s: Vec<i64>,
    acc_q: Vec<i64>,
    /// Identity-variant accumulators, kept across the transform loop so
    /// pure-AWB-shift variants can alias them without a sweep.
    base_acc_s: Vec<i64>,
    base_acc_q: Vec<i64>,
    // Reference-backend working set.
    fvar: Plane<f32>,
    smoothed: Plane<f32>,
    blur: BlurScratch,
    /// `classes × num_blocks` encoded scores of the last
    /// [`BatchScorer::score_classes`] call.
    class_scores: Vec<f32>,
    num_classes: usize,
    /// Histogram (ns): one `score_classes` fan-out (all sweeps + folds).
    score_ns: inframe_obs::Histogram,
    /// Counter: per-receiver scorings fanned out by `merge_assigned`.
    fanout: inframe_obs::Counter,
}

impl BatchScorer {
    /// Creates a batch scorer over a prebuilt region cache. The kernel
    /// backend follows `config.kernel`, exactly like the streaming
    /// [`Demultiplexer`](crate::demux::Demultiplexer).
    pub fn new(
        config: InFrameConfig,
        cache: Arc<RegionCache>,
        engine: Arc<ParallelEngine>,
    ) -> Self {
        config.validate();
        let (w, h) = cache.sensor_shape();
        let total_slices = cache.program.total_slices;
        Self {
            config,
            engine,
            qbase: QPlane::new(w, h),
            qvar: QPlane::new(w, h),
            rowsum: vec![0; w * h],
            col: Vec::new(),
            row_s: vec![0; w + 1],
            row_q: vec![0; w + 1],
            acc_s: vec![0; total_slices],
            acc_q: vec![0; total_slices],
            base_acc_s: vec![0; total_slices],
            base_acc_q: vec![0; total_slices],
            fvar: Plane::filled(w, h, 0.0),
            smoothed: Plane::filled(w, h, 0.0),
            blur: BlurScratch::default(),
            class_scores: Vec::new(),
            num_classes: 0,
            score_ns: inframe_obs::Histogram::noop(),
            fanout: inframe_obs::Counter::noop(),
            cache,
        }
    }

    /// Attaches telemetry: `core.batch.score_ns` times each
    /// `score_classes` fan-out and `core.batch.fanout` counts receiver
    /// scorings folded by `merge_assigned`. Builder-style, like the
    /// streaming [`Demultiplexer`](crate::demux::Demultiplexer).
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.score_ns = telemetry.histogram(names::batch::SCORE_NS);
        self.fanout = telemetry.counter(names::batch::FANOUT);
        self
    }

    /// Blocks per receiver (the width of every score row).
    pub fn num_blocks(&self) -> usize {
        self.cache.num_regions()
    }

    /// Classes scored by the last [`BatchScorer::score_classes`] call.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The scoring engine.
    pub fn engine(&self) -> &Arc<ParallelEngine> {
        &self.engine
    }

    /// The shared per-geometry region/template cache.
    pub fn region_cache(&self) -> &Arc<RegionCache> {
        &self.cache
    }

    /// Scores one shared capture under every class. `transforms` lists
    /// the distinct photometric variants; `classes` pair a transform
    /// with a noise power. Cost: one sweep per transform that needs one
    /// (identity and unclamped pure AWB shifts share a single sweep),
    /// plus one accumulator fold per class — independent of how many
    /// receivers later map onto each class. Allocation-free once the
    /// buffers are warm for this class count.
    ///
    /// # Panics
    /// Panics if the capture's shape differs from the cache's sensor
    /// shape or a class references a transform out of range.
    pub fn score_classes(
        &mut self,
        base: &Plane<f32>,
        transforms: &[CaptureTransform],
        classes: &[ScoreClass],
    ) {
        assert_eq!(
            base.shape(),
            self.cache.sensor_shape(),
            "batch capture must match the cache's sensor shape"
        );
        assert!(
            classes
                .iter()
                .all(|c| (c.transform as usize) < transforms.len()),
            "class references a transform out of range"
        );
        let nb = self.num_blocks();
        self.num_classes = classes.len();
        self.class_scores.clear();
        self.class_scores.resize(classes.len() * nb, UNREADABLE);
        // Owned clone of the handle so the span guard does not hold a
        // borrow of `self` across the &mut dispatch below.
        let timer = self.score_ns.clone();
        let _span = timer.span();
        match self.config.kernel {
            KernelBackend::Quantized => self.score_classes_quantized(base, transforms, classes),
            KernelBackend::Reference => self.score_classes_reference(base, transforms, classes),
        }
    }

    /// Quantized backend: quantize the shared capture once, run one
    /// direct row sweep per distinct transform, fold each class from
    /// the transform's accumulators. The sweep is the exact
    /// `direct_sweep` of the streaming single-worker path (bit-identical
    /// to the multi-worker prefix-table path by the PR-6 equivalence
    /// guarantee), so batched scores equal the sequential reference at
    /// every worker count.
    fn score_classes_quantized(
        &mut self,
        base: &Plane<f32>,
        transforms: &[CaptureTransform],
        classes: &[ScoreClass],
    ) {
        let Self {
            ref cache,
            ref engine,
            ref mut qbase,
            ref mut qvar,
            ref mut rowsum,
            ref mut col,
            ref mut row_s,
            ref mut row_q,
            ref mut acc_s,
            ref mut acc_q,
            ref mut base_acc_s,
            ref mut base_acc_q,
            ref mut class_scores,
            ..
        } = *self;
        let (w, h) = cache.sensor_shape();
        let r = cache.smooth_radius();
        let nb = cache.num_regions();
        let prog = &cache.program;
        qbase.quantize_from(base);
        // Raw range of the shared capture, for AWB shift-aliasing
        // eligibility (a shift that would clamp any pixel gets its own
        // sweep instead). Scanned lazily — only if a candidate exists.
        let mut raw_range: Option<(i16, i16)> = None;
        let mut have_base_sweep = false;
        for (ti, t) in transforms.iter().enumerate() {
            let ti = ti as u32;
            if !classes.iter().any(|c| c.transform == ti) {
                continue;
            }
            let aliases_identity = t.is_identity() || {
                t.gain_q12 == inframe_frame::perturb::GAIN_ONE_Q12
                    && t.occlusion.is_none_or(|o| o.is_empty())
                    && {
                        let (lo, hi) = *raw_range.get_or_insert_with(|| {
                            qbase
                                .samples()
                                .iter()
                                .fold((i16::MAX, i16::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)))
                        });
                        t.shifts_without_clamp(lo, hi)
                    }
            };
            let (var_s, var_q): (&[i64], &[i64]) = if aliases_identity {
                if !have_base_sweep {
                    engine.for_each_row_band(h, w, rowsum, |rows, rs| {
                        for (i, y) in rows.enumerate() {
                            let src = &qbase.samples()[y * w..(y + 1) * w];
                            horizontal_window_sums_band(src, w, r, &mut rs[i * w..(i + 1) * w]);
                        }
                    });
                    direct_sweep(
                        prog, qbase, rowsum, r, col, row_s, row_q, base_acc_s, base_acc_q,
                    );
                    have_base_sweep = true;
                }
                (base_acc_s, base_acc_q)
            } else {
                // Variant stage 1, band-parallel like the streaming
                // path: apply the transform row-wise from the shared
                // quantized capture and take horizontal window sums
                // while the row is in L1.
                let qb: &QPlane = qbase;
                engine.for_each_row_band2(
                    h,
                    w,
                    qvar.samples_mut(),
                    w,
                    rowsum,
                    |_, rows, cap, rs| {
                        for (i, y) in rows.enumerate() {
                            let dst = &mut cap[i * w..(i + 1) * w];
                            t.apply_row(y, &qb.samples()[y * w..(y + 1) * w], dst);
                            horizontal_window_sums_band(dst, w, r, &mut rs[i * w..(i + 1) * w]);
                        }
                    },
                );
                direct_sweep(prog, qvar, rowsum, r, col, row_s, row_q, acc_s, acc_q);
                (acc_s, acc_q)
            };
            // Fold every class of this transform: pure accumulator
            // arithmetic, parallel over regions.
            for (ci, cl) in classes.iter().enumerate() {
                if cl.transform != ti {
                    continue;
                }
                let out = &mut class_scores[ci * nb..(ci + 1) * nb];
                engine.map_into(&cache.regions, out, |ri, region| {
                    let base_slot = prog.slice_base[ri] as usize;
                    let n = region.qt.slice_weights.len();
                    encode_score(score_from_slices_noised(
                        &region.qt,
                        &var_s[base_slot..base_slot + n],
                        &var_q[base_slot..base_slot + n],
                        cl.noise_raw_sq,
                    ))
                });
            }
        }
    }

    /// Reference backend (the oracle): fully materialize each variant
    /// through the quantized bridge — exactly the capture a sequential
    /// receiver would push — blur it, and demodulate per class with the
    /// noise power folded into the slice energies.
    fn score_classes_reference(
        &mut self,
        base: &Plane<f32>,
        transforms: &[CaptureTransform],
        classes: &[ScoreClass],
    ) {
        let Self {
            ref cache,
            ref engine,
            ref mut qbase,
            ref mut qvar,
            ref mut fvar,
            ref mut smoothed,
            ref mut blur,
            ref mut class_scores,
            ..
        } = *self;
        let r = cache.smooth_radius();
        let nb = cache.num_regions();
        let scale = qplane::LSB as f64;
        qbase.quantize_from(base);
        for (ti, t) in transforms.iter().enumerate() {
            let ti = ti as u32;
            if !classes.iter().any(|c| c.transform == ti) {
                continue;
            }
            t.apply_raw(qbase, qvar);
            for (d, &raw) in fvar.samples_mut().iter_mut().zip(qvar.samples()) {
                *d = qplane::dequantize(raw);
            }
            box_blur_fast_into(fvar, r, blur, smoothed);
            for (ci, cl) in classes.iter().enumerate() {
                if cl.transform != ti {
                    continue;
                }
                let noise_cell_sq = cl.noise_raw_sq as f64 * scale * scale;
                let out = &mut class_scores[ci * nb..(ci + 1) * nb];
                let (fvar, smoothed) = (&*fvar, &*smoothed);
                engine.map_into(&cache.regions, out, |_, region| {
                    encode_score(demodulate_noised(fvar, smoothed, region, noise_cell_sq))
                });
            }
        }
    }

    /// Encoded scores of one class from the last
    /// [`BatchScorer::score_classes`] call (one entry per Block;
    /// [`UNREADABLE`] encodes an unreadable Block).
    pub fn class_scores(&self, class: usize) -> &[f32] {
        let nb = self.num_blocks();
        &self.class_scores[class * nb..(class + 1) * nb]
    }

    /// Folds the last scored classes into per-receiver best tables:
    /// receiver `i` (owning `best[i·B..(i+1)·B]`) takes the elementwise
    /// max with class `assign[i]`'s scores, or is left untouched when
    /// `assign[i] == `[`SKIP`]. Band-sliced over receivers; the inner
    /// fold is a branch-free autovectorizable max loop — this is the
    /// only per-receiver work in the whole batch path.
    ///
    /// # Panics
    /// Panics if `best.len() != assign.len() * num_blocks()` or an
    /// assignment references a class out of range.
    pub fn merge_assigned(&self, assign: &[u32], best: &mut [f32]) {
        let nb = self.num_blocks();
        assert_eq!(
            best.len(),
            assign.len() * nb,
            "best table must be receivers × blocks"
        );
        assert!(
            assign
                .iter()
                .all(|&c| c == SKIP || (c as usize) < self.num_classes),
            "assignment references a class out of range"
        );
        self.fanout
            .add(assign.iter().filter(|&&c| c != SKIP).count() as u64);
        let scores = &self.class_scores;
        self.engine
            .for_each_row_band(assign.len(), nb, best, |rows, band| {
                for (i, rcv) in rows.enumerate() {
                    let c = assign[rcv];
                    if c == SKIP {
                        continue;
                    }
                    let src = &scores[c as usize * nb..(c as usize + 1) * nb];
                    let dst = &mut band[i * nb..(i + 1) * nb];
                    for (d, &s) in dst.iter_mut().zip(src) {
                        *d = d.max(s);
                    }
                }
            });
    }

    /// Converts one receiver's best-score row into Block verdicts, with
    /// exactly the `T ± margin` dead-zone rule of
    /// [`Demultiplexer::finish`]. `out` is cleared first.
    ///
    /// [`Demultiplexer::finish`]: crate::demux::Demultiplexer::finish
    pub fn verdicts_into(&self, best: &[f32], out: &mut Vec<Option<bool>>) {
        let t = self.config.threshold;
        let m = self.config.margin;
        out.clear();
        out.extend(best.iter().map(|&enc| {
            if enc == UNREADABLE {
                None
            } else if enc > t + m {
                Some(true)
            } else if enc < t - m {
                Some(false)
            } else {
                None
            }
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demux::Demultiplexer;
    use inframe_frame::geometry::Homography;
    use inframe_frame::perturb::{materialized, OcclusionRect};

    fn small_cfg(kernel: KernelBackend) -> InFrameConfig {
        InFrameConfig {
            display_w: 96,
            display_h: 64,
            pixel_size: 4,
            block_size: 4,
            blocks_x: 6,
            blocks_y: 4,
            kernel,
            ..InFrameConfig::paper()
        }
    }

    fn checker_capture(cfg: &InFrameConfig) -> Plane<f32> {
        Plane::from_fn(cfg.display_w, cfg.display_h, |x, y| {
            127.0 + if (x / 4 + y / 4) % 2 == 0 { 9.0 } else { -9.0 }
        })
    }

    fn scorer(cfg: InFrameConfig, workers: usize) -> BatchScorer {
        let cache = RegionCache::build(&cfg, &Homography::identity(), cfg.display_w, cfg.display_h);
        BatchScorer::new(cfg, cache, Arc::new(ParallelEngine::new(workers)))
    }

    #[test]
    fn identity_class_matches_streaming_demux() {
        for kernel in [KernelBackend::Reference, KernelBackend::Quantized] {
            let cfg = small_cfg(kernel);
            let capture = checker_capture(&cfg);
            let mut batch = scorer(cfg, 1);
            batch.score_classes(
                &capture,
                &[CaptureTransform::IDENTITY],
                &[ScoreClass::clean(0)],
            );
            let mut demux = Demultiplexer::with_cache(
                cfg,
                Arc::clone(batch.region_cache()),
                Arc::new(ParallelEngine::new(1)),
            );
            demux.push_capture(&capture, 0.01);
            let want: Vec<f32> = demux
                .last_scores()
                .iter()
                .map(|&s| encode_score(s))
                .collect();
            assert_eq!(batch.class_scores(0), &want[..], "kernel {kernel:?}");
        }
    }

    #[test]
    fn awb_shift_aliases_identity_sweep_exactly() {
        let cfg = small_cfg(KernelBackend::Quantized);
        let capture = checker_capture(&cfg);
        let shift = CaptureTransform {
            awb_raw: 640, // +5 code values
            ..CaptureTransform::IDENTITY
        };
        let mut batch = scorer(cfg, 1);
        batch.score_classes(
            &capture,
            &[CaptureTransform::IDENTITY, shift],
            &[ScoreClass::clean(0), ScoreClass::clean(1)],
        );
        // The aliased class reuses the identity accumulators…
        assert_eq!(batch.class_scores(0), batch.class_scores(1));
        // …and that is also what a from-scratch scoring of the shifted
        // capture produces (shift invariance is real, not assumed).
        let shifted = materialized(&capture, &shift);
        let mut direct = scorer(cfg, 1);
        direct.score_classes(
            &shifted,
            &[CaptureTransform::IDENTITY],
            &[ScoreClass::clean(0)],
        );
        assert_eq!(batch.class_scores(1), direct.class_scores(0));
    }

    #[test]
    fn noise_class_lowers_scores_deterministically() {
        for kernel in [KernelBackend::Reference, KernelBackend::Quantized] {
            let cfg = small_cfg(kernel);
            let capture = checker_capture(&cfg);
            let mut batch = scorer(cfg, 1);
            let noisy = ScoreClass {
                transform: 0,
                noise_raw_sq: ScoreClass::noise_raw_sq_from_sigma(3.0),
            };
            batch.score_classes(
                &capture,
                &[CaptureTransform::IDENTITY],
                &[ScoreClass::clean(0), noisy],
            );
            let clean: Vec<f32> = batch.class_scores(0).to_vec();
            let degraded: Vec<f32> = batch.class_scores(1).to_vec();
            assert!(
                clean
                    .iter()
                    .zip(&degraded)
                    .all(|(c, d)| d <= c && *d > UNREADABLE),
                "noise must lower (never raise) every readable score; kernel {kernel:?}"
            );
            assert!(
                clean.iter().zip(&degraded).any(|(c, d)| d < c),
                "a 3-code-sigma noise class must actually bite; kernel {kernel:?}"
            );
        }
    }

    #[test]
    fn merge_assigned_folds_per_receiver_maxima() {
        let cfg = small_cfg(KernelBackend::Quantized);
        let capture = checker_capture(&cfg);
        let occluded = CaptureTransform {
            occlusion: Some(OcclusionRect {
                x0: 0,
                y0: 0,
                w: cfg.display_w,
                h: cfg.display_h / 2,
                level_raw: qplane::quantize(127.0),
            }),
            ..CaptureTransform::IDENTITY
        };
        let mut batch = scorer(cfg, 1);
        batch.score_classes(
            &capture,
            &[CaptureTransform::IDENTITY, occluded],
            &[ScoreClass::clean(0), ScoreClass::clean(1)],
        );
        let nb = batch.num_blocks();
        let mut best = vec![UNREADABLE; 3 * nb];
        batch.merge_assigned(&[0, 1, SKIP], &mut best);
        assert_eq!(&best[..nb], batch.class_scores(0));
        assert_eq!(&best[nb..2 * nb], batch.class_scores(1));
        assert!(best[2 * nb..].iter().all(|&v| v == UNREADABLE));
        // Merging the identity class on top upgrades the occluded
        // receiver to the elementwise max.
        batch.merge_assigned(&[SKIP, 0, SKIP], &mut best);
        for (i, (&got, (&a, &b))) in best[nb..2 * nb]
            .iter()
            .zip(batch.class_scores(0).iter().zip(batch.class_scores(1)))
            .enumerate()
        {
            assert_eq!(got, a.max(b), "block {i}");
        }
    }

    #[test]
    fn verdicts_match_streaming_finish_rule() {
        let cfg = small_cfg(KernelBackend::Quantized);
        let batch = scorer(cfg, 1);
        let t = cfg.threshold;
        let m = cfg.margin;
        let mut out = Vec::new();
        batch.verdicts_into(
            &[UNREADABLE, t + m + 0.1, t + m, t - m, t - m - 0.1, 0.0],
            &mut out,
        );
        assert_eq!(
            out,
            vec![None, Some(true), None, None, Some(false), Some(false)]
        );
    }

    #[test]
    #[should_panic(expected = "transform out of range")]
    fn out_of_range_class_rejected() {
        let cfg = small_cfg(KernelBackend::Quantized);
        let capture = checker_capture(&cfg);
        let mut batch = scorer(cfg, 1);
        batch.score_classes(
            &capture,
            &[CaptureTransform::IDENTITY],
            &[ScoreClass::clean(1)],
        );
    }
}
