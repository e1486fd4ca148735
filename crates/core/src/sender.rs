//! The InFrame sender: video in, 120 Hz multiplexed display frames out.
//!
//! Wires together the video source, payload source, data-frame encoder and
//! multiplexer.

use crate::config::InFrameConfig;
use crate::dataframe::{payload_bits_rs, DataFrame};
use crate::layout::DataLayout;
use crate::metrics::ThroughputMeter;
use crate::multiplex::{slot, FrameSlot, Multiplexer};
use crate::parallel::ParallelEngine;
use crate::CodingMode;
use inframe_frame::pool::{FramePool, PooledPlane};
use inframe_frame::Plane;
use inframe_obs::{names, Telemetry};
use inframe_video::VideoSource;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// How many data cycles of ground-truth payload a [`Sender`] keeps for
/// [`Sender::sent_payload`]: the newest (pre-fetched) cycle and the ones
/// before it. A receiver scoring its decodes as they arrive trails the
/// sender by a cycle or two; the window bounds the log of a long run.
pub const SENT_PAYLOAD_WINDOW: usize = 32;

/// Supplies payload bits for successive data frames.
pub trait PayloadSource {
    /// Returns the next `bits` payload bits.
    fn next_payload(&mut self, bits: usize) -> Vec<bool>;
}

impl<F: FnMut(usize) -> Vec<bool>> PayloadSource for F {
    fn next_payload(&mut self, bits: usize) -> Vec<bool> {
        self(bits)
    }
}

/// A PRBS-backed payload source (the paper's "pseudo-random data generator
/// with a pre-set seed", §4).
#[derive(Debug, Clone)]
pub struct PrbsPayload {
    rng: inframe_code::prbs::Xoshiro256,
}

impl PrbsPayload {
    /// Creates a seeded payload source.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: inframe_code::prbs::Xoshiro256::seed_from_u64(seed),
        }
    }
}

impl PayloadSource for PrbsPayload {
    fn next_payload(&mut self, bits: usize) -> Vec<bool> {
        (0..bits).map(|_| self.rng.next_bit()).collect()
    }
}

/// One emitted display frame with its schedule metadata and ground truth.
///
/// The plane is a [`FramePool`] checkout: dropping the frame returns the
/// buffer to the sender's pool, which is what keeps the steady-state
/// pipeline allocation-free. Cloning copies the pixels into a detached
/// (non-pooled) plane.
#[derive(Debug, Clone)]
pub struct SenderFrame {
    /// The multiplexed frame (code values 0–255).
    pub plane: PooledPlane,
    /// Schedule slot.
    pub slot: FrameSlot,
}

/// The end-to-end sender.
pub struct Sender<V, P> {
    config: InFrameConfig,
    layout: DataLayout,
    mux: Multiplexer,
    video: V,
    payload: P,
    /// Payload bits per data frame under the active coding mode.
    payload_bits: usize,
    current_video: Option<Plane<f32>>,
    cur: DataFrame,
    next: DataFrame,
    /// Ground truth: payloads of the last [`SENT_PAYLOAD_WINDOW`] data
    /// cycles, oldest first.
    sent_payloads: VecDeque<Vec<bool>>,
    /// Cycle index of `sent_payloads[0]`.
    first_sent_cycle: u64,
    display_index: u64,
    /// Pending (δ, τ) command, applied at the next cycle boundary.
    queued_modulation: Option<(f32, u32)>,
    /// τ re-basing epoch: cycle counting restarts here whenever τ
    /// changes mid-run, so `cycle_index` stays contiguous across the
    /// change instead of jumping with the new divisor.
    epoch_display: u64,
    epoch_cycle: u64,
    /// Display-frame buffer arena; emitted frames return here on drop.
    pool: FramePool,
    meter: ThroughputMeter,
    obs: SenderObs,
}

/// Sender-side telemetry instruments, registered once per sender.
#[derive(Debug, Clone, Default)]
struct SenderObs {
    telemetry: Telemetry,
    frames: inframe_obs::Counter,
    cycles: inframe_obs::Counter,
    render_ns: inframe_obs::Histogram,
    /// Milli-ns per display pixel per rendered frame (see
    /// [`names::kern`] for the unit rationale).
    ns_per_px: inframe_obs::Histogram,
    pool_live: inframe_obs::Gauge,
    pool_free: inframe_obs::Gauge,
    pool_allocated: inframe_obs::Gauge,
}

impl SenderObs {
    fn new(telemetry: &Telemetry) -> Self {
        Self {
            frames: telemetry.counter(names::sender::FRAMES),
            cycles: telemetry.counter(names::sender::CYCLES),
            render_ns: telemetry.histogram(names::sender::RENDER_NS),
            ns_per_px: telemetry.histogram(names::kern::RENDER_NS_PER_PX),
            pool_live: telemetry.gauge(names::sender::POOL_LIVE),
            pool_free: telemetry.gauge(names::sender::POOL_FREE),
            pool_allocated: telemetry.gauge(names::sender::POOL_ALLOCATED),
            telemetry: telemetry.clone(),
        }
    }
}

impl<V: VideoSource, P: PayloadSource> Sender<V, P> {
    /// Creates a sender rendering on [`ParallelEngine::from_env`] workers
    /// (set `INFRAME_WORKERS` to override the count).
    ///
    /// # Panics
    /// Panics if the video source shape disagrees with the configured
    /// display, or the video is not 1/4 of the refresh rate.
    pub fn new(config: InFrameConfig, video: V, payload: P) -> Self {
        Self::with_engine(config, video, payload, Arc::new(ParallelEngine::from_env()))
    }

    /// Creates a sender rendering on the given engine. Emitted frames are
    /// bit-identical for every worker count.
    ///
    /// # Panics
    /// See [`Sender::new`].
    pub fn with_engine(
        config: InFrameConfig,
        video: V,
        mut payload: P,
        engine: Arc<ParallelEngine>,
    ) -> Self {
        config.validate();
        assert_eq!(
            (video.width(), video.height()),
            (config.display_w, config.display_h),
            "video must match the display resolution"
        );
        let expected_fps = config.refresh_hz / InFrameConfig::DUPLICATES_PER_VIDEO_FRAME as f64;
        assert!(
            (video.frame_rate().0 - expected_fps).abs() < 1e-6,
            "video must run at refresh/4 FPS"
        );
        let layout = DataLayout::from_config(&config);
        let payload_bits = match config.coding {
            CodingMode::Parity => layout.payload_bits_parity(),
            CodingMode::ReedSolomon { parity_bytes } => payload_bits_rs(&layout, parity_bytes),
        };
        let p0 = payload.next_payload(payload_bits);
        let p1 = payload.next_payload(payload_bits);
        let cur = DataFrame::encode(&layout, &p0, config.coding);
        let next = DataFrame::encode(&layout, &p1, config.coding);
        let meter = ThroughputMeter::new(engine.workers());
        Self {
            mux: Multiplexer::with_engine(config, engine),
            layout,
            video,
            payload,
            payload_bits,
            current_video: None,
            sent_payloads: VecDeque::from([p0, p1]),
            first_sent_cycle: 0,
            cur,
            next,
            display_index: 0,
            queued_modulation: None,
            epoch_display: 0,
            epoch_cycle: 0,
            pool: FramePool::new(config.display_w, config.display_h),
            meter,
            obs: SenderObs::default(),
            config,
        }
    }

    /// Attaches telemetry: per-frame render timing, cycle events, pool
    /// occupancy gauges, and the channel-rate gauges the unified
    /// throughput report is built from. Constructors default to the
    /// disabled handle.
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.obs = SenderObs::new(telemetry);
        // Channel-rate constants: set once so the obs summary subsumes
        // every input of `ThroughputReport`.
        telemetry
            .gauge(names::chan::PAYLOAD_BITS)
            .set(self.payload_bits as u64);
        telemetry
            .gauge(names::chan::DATA_FRAME_RATE)
            .set_f64(self.config.data_frame_rate());
        self
    }

    /// The configuration.
    pub fn config(&self) -> &InFrameConfig {
        &self.config
    }

    /// The resolved data layout.
    pub fn layout(&self) -> &DataLayout {
        &self.layout
    }

    /// Payload capacity per data frame, bits.
    pub fn payload_bits(&self) -> usize {
        self.payload_bits
    }

    /// The frame buffer pool emitted frames are drawn from (and return to
    /// when dropped). Its [`inframe_frame::pool::PoolStats`] back the
    /// pipeline's zero-allocation assertions.
    pub fn pool(&self) -> &FramePool {
        &self.pool
    }

    /// Live render performance: frames/s and worker utilization.
    pub fn meter(&self) -> &ThroughputMeter {
        &self.meter
    }

    /// The render engine.
    pub fn engine(&self) -> &Arc<ParallelEngine> {
        self.mux.engine()
    }

    /// The kernel backend the render hot path dispatches to (set via
    /// [`crate::config::KernelBackend::from_env`] / `INFRAME_KERNEL`;
    /// [`crate::config::KernelBackend::Quantized`] replaces the offset
    /// render + full-frame add with the fused chessboard-LUT pass).
    pub fn kernel(&self) -> crate::config::KernelBackend {
        self.config.kernel
    }

    /// Ground-truth payload of data cycle `c`: available for the last
    /// [`SENT_PAYLOAD_WINDOW`] cycles up to and including the pre-fetched
    /// next cycle. `None` for a cycle not fetched yet, and for one older
    /// than the window, whose payload has been dropped.
    pub fn sent_payload(&self, c: u64) -> Option<&[bool]> {
        let i = usize::try_from(c.checked_sub(self.first_sent_cycle)?).ok()?;
        self.sent_payloads.get(i).map(Vec::as_slice)
    }

    /// Queues a mid-run (δ, τ) modulation command. It takes effect at
    /// the next cycle boundary — never mid-cycle, so the smoothing
    /// envelope stays continuous and emitted frames remain
    /// bit-deterministic for a given command schedule. A later queue
    /// call before the boundary replaces the earlier one.
    ///
    /// # Panics
    /// The command is validated at application; an invalid (δ, τ) pair
    /// panics at the boundary (see [`InFrameConfig::validate`]).
    pub fn queue_modulation(&mut self, delta: f32, tau: u32) {
        self.queued_modulation = Some((delta, tau));
    }

    /// The active (δ, τ) operating point (queued commands excluded
    /// until they apply).
    pub fn modulation(&self) -> (f32, u32) {
        (self.config.delta, self.config.tau)
    }

    /// Computes the schedule slot for the current display index under
    /// the τ epoch: cycle position restarts at each τ change so
    /// `cycle_index` advances contiguously (1 per τ_new frames) instead
    /// of re-dividing the absolute frame count.
    fn current_slot(&self) -> FrameSlot {
        let rel = self.display_index - self.epoch_display;
        let mut s = slot(&self.config, rel);
        s.display_index = self.display_index;
        s.video_index = self.display_index / InFrameConfig::DUPLICATES_PER_VIDEO_FRAME as u64;
        s.cycle_index += self.epoch_cycle;
        s.t_start = self.display_index as f64 / self.config.refresh_hz;
        s
    }

    /// Emits the next displayed frame, or `None` when the video ends.
    pub fn next_frame(&mut self) -> Option<SenderFrame> {
        let mut s = self.current_slot();
        // Apply a queued modulation command exactly at the cycle
        // boundary. δ swaps the chessboard LUT; τ re-bases the cycle
        // epoch so this boundary starts the first cycle of the new
        // length.
        if s.k == 0 {
            if let Some((delta, tau)) = self.queued_modulation.take() {
                if tau != self.config.tau {
                    self.epoch_display = self.display_index;
                    self.epoch_cycle = s.cycle_index;
                }
                self.config.delta = delta;
                self.config.tau = tau;
                self.mux.set_modulation(delta, tau);
                self.obs
                    .telemetry
                    .gauge(names::chan::DATA_FRAME_RATE)
                    .set_f64(self.config.data_frame_rate());
                s = self.current_slot();
            }
        }
        // Fetch the video frame at each video boundary (including frame 0).
        // The buffer is refilled in place (`next_frame_into`): one plane
        // lives for the whole stream, so video boundaries do not churn
        // full-frame allocations through the allocator.
        if s.display_index
            .is_multiple_of(InFrameConfig::DUPLICATES_PER_VIDEO_FRAME as u64)
            || self.current_video.is_none()
        {
            let buf = self.current_video.get_or_insert_with(|| {
                Plane::filled(self.config.display_w, self.config.display_h, 0.0)
            });
            if !self.video.next_frame_into(buf) {
                self.current_video = None;
                return None;
            }
        }
        if s.k == 0 {
            self.obs.cycles.incr();
            self.obs.telemetry.event(inframe_obs::Event::CycleRendered {
                cycle: s.cycle_index,
            });
        }
        // Advance the data cycle at each cycle boundary (but not at f = 0,
        // where cur/next are already primed).
        if s.k == 0 && s.display_index != 0 {
            std::mem::swap(&mut self.cur, &mut self.next);
            let p = self.payload.next_payload(self.payload_bits);
            self.next = DataFrame::encode(&self.layout, &p, self.config.coding);
            if self.sent_payloads.len() == SENT_PAYLOAD_WINDOW {
                self.sent_payloads.pop_front();
                self.first_sent_cycle += 1;
            }
            self.sent_payloads.push_back(p);
        }
        let video = self.current_video.as_ref().expect("fetched above");
        let started = Instant::now();
        let busy_before = self.mux.engine().busy();
        // Every render writes every pixel of every row, so a recycled
        // plane needs no zero fill first.
        let mut plane = self.pool.checkout_for_overwrite();
        self.mux
            .render_into(&s, video, &self.cur, &self.next, &mut plane);
        let busy = self.mux.engine().busy().saturating_sub(busy_before);
        let elapsed = started.elapsed();
        self.meter.record_frame(elapsed, busy);
        self.obs.frames.incr();
        self.obs.render_ns.record_ns(elapsed);
        let px = (plane.width() * plane.height()) as u128;
        if let Some(milli_ns) = elapsed.as_nanos().saturating_mul(1000).checked_div(px) {
            self.obs.ns_per_px.record(milli_ns as u64);
        }
        let pool = self.pool.stats();
        self.obs.pool_live.set(pool.live);
        self.obs.pool_free.set(pool.free);
        self.obs.pool_allocated.set(pool.allocated);
        self.display_index += 1;
        Some(SenderFrame { plane, slot: s })
    }

    /// Maximum envelope amplitude step (for HVS assessment).
    pub fn max_envelope_step(&self) -> f64 {
        self.mux.max_envelope_step()
    }

    /// Sets per-Block amplitude scales on the embedded multiplexer —
    /// spatial sub-channels drive per-region δ backoff through this seam
    /// (see [`crate::region::RegionMap::block_scales`]).
    ///
    /// # Panics
    /// Panics unless `scales` has one entry per Block.
    pub fn set_block_amp_scales(&mut self, scales: &[f32]) {
        self.mux.set_block_amp_scales(scales);
    }

    /// Clears per-Block amplitude scales (uniform full δ).
    pub fn clear_block_amp_scales(&mut self) {
        self.mux.clear_block_amp_scales();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inframe_video::synth::SolidClip;
    use inframe_video::FrameRate;

    fn video(c: &InFrameConfig) -> SolidClip {
        SolidClip::new(
            c.display_w,
            c.display_h,
            127.0,
            FrameRate(c.refresh_hz / 4.0),
        )
    }

    fn sender(c: InFrameConfig) -> Sender<SolidClip, PrbsPayload> {
        Sender::new(c, video(&c), PrbsPayload::new(42))
    }

    #[test]
    fn emits_frames_with_correct_schedule() {
        let c = InFrameConfig::small_test();
        let mut s = sender(c);
        for f in 0..30u64 {
            let out = s.next_frame().unwrap();
            assert_eq!(out.slot.display_index, f);
            assert_eq!(out.slot.cycle_index, f / c.tau as u64);
            assert_eq!(out.plane.shape(), (c.display_w, c.display_h));
        }
    }

    #[test]
    fn payload_ground_truth_is_recorded() {
        let c = InFrameConfig::small_test();
        let mut s = sender(c);
        // Run three full cycles.
        for _ in 0..(3 * c.tau as usize) {
            s.next_frame().unwrap();
        }
        for cycle in 0..3u64 {
            let p = s.sent_payload(cycle).expect("payload recorded");
            assert_eq!(p.len(), s.payload_bits());
        }
        // Payloads differ between cycles (PRBS).
        assert_ne!(s.sent_payload(0), s.sent_payload(1));
    }

    #[test]
    fn payload_log_keeps_a_bounded_window() {
        let c = InFrameConfig::small_test();
        let mut s = sender(c);
        let mut log = PrbsPayload::new(42);
        let cycles = SENT_PAYLOAD_WINDOW as u64 + 5;
        for _ in 0..cycles * c.tau as u64 {
            s.next_frame().unwrap();
        }
        // Cycles 0..=cycles are fetched (the last one pre-fetched); only
        // the newest window of them is kept.
        let oldest = cycles + 1 - SENT_PAYLOAD_WINDOW as u64;
        for cycle in 0..=cycles {
            let want = log.next_payload(s.payload_bits());
            let got = s.sent_payload(cycle);
            if cycle < oldest {
                assert_eq!(got, None, "cycle {cycle} is older than the window");
            } else {
                assert_eq!(got, Some(want.as_slice()), "cycle {cycle}");
            }
        }
        assert_eq!(s.sent_payload(cycles + 1), None, "not fetched yet");
    }

    /// Every render overwrites every pixel of the plane it checks out: a
    /// sender whose planes go back to its pool full of NaN emits the same
    /// bits, frame for frame, as a sender that renders each frame into a
    /// fresh plane. The grid leaves margins on all four sides, the video
    /// is textured, and the run crosses per-Block amplitude scales (one
    /// of them zero), a scale change between the plus and minus frame of
    /// a pair (so that minus frame renders without its plus frame) and a
    /// queued (δ, τ) change.
    #[test]
    fn recycled_planes_are_fully_overwritten() {
        use crate::config::KernelBackend;
        use inframe_video::synth::SunriseClip;
        for kernel in [KernelBackend::Reference, KernelBackend::Quantized] {
            let c = InFrameConfig {
                kernel,
                blocks_x: 14,
                blocks_y: 10,
                ..InFrameConfig::small_test()
            };
            let clip = || SunriseClip::new(c.display_w, c.display_h, 64, 3);
            let mut recycled = Sender::new(c, clip(), PrbsPayload::new(5));
            let mut fresh = Sender::new(c, clip(), PrbsPayload::new(5));
            let scales: Vec<f32> = (0..recycled.layout().num_blocks())
                .map(|i| (i % 4) as f32 / 3.0)
                .collect();
            let tau = c.tau as usize;
            // Holding every frame keeps the fresh sender's pool from
            // handing a buffer out twice.
            let mut held = Vec::new();
            let mut minus_frames = 0;
            for f in 0..4 * tau {
                for s in [&mut recycled, &mut fresh] {
                    match f {
                        5 => s.set_block_amp_scales(&scales),
                        _ if f == tau + 1 => s.clear_block_amp_scales(),
                        _ if f == tau + 4 => s.queue_modulation(12.0, 8),
                        _ => {}
                    }
                }
                let mut got = recycled.next_frame().unwrap();
                let want = fresh.next_frame().unwrap();
                assert_eq!(got.slot, want.slot);
                if got.slot.sign == crate::multiplex::FrameSign::Minus {
                    minus_frames += 1;
                }
                let same = got.plane.samples().iter().zip(want.plane.samples());
                assert!(
                    same.into_iter().all(|(g, w)| g.to_bits() == w.to_bits()),
                    "{kernel:?} frame {f} differs"
                );
                got.plane.samples_mut().fill(f32::NAN);
                held.push(want);
            }
            assert_eq!(
                recycled.modulation(),
                (12.0, 8),
                "the queued change applied"
            );
            assert!(minus_frames > 0);
            assert!(recycled.pool().stats().reused > 0, "planes were recycled");
            assert_eq!(fresh.pool().stats().reused, 0, "every plane was fresh");
        }
    }

    #[test]
    fn complementary_pairs_average_to_video() {
        let c = InFrameConfig {
            complementation: crate::pattern::Complementation::Code,
            ..InFrameConfig::small_test()
        };
        let mut s = sender(c);
        let a = s.next_frame().unwrap();
        let b = s.next_frame().unwrap();
        for (x, y, _) in a.plane.iter_xy() {
            let avg = (a.plane.get(x, y) + b.plane.get(x, y)) / 2.0;
            assert!((avg - 127.0).abs() < 1e-3);
        }
    }

    #[test]
    fn instrumented_sender_reports_frames_cycles_and_pool() {
        let c = InFrameConfig::small_test();
        let tele = Telemetry::new();
        let mut s = Sender::new(c, video(&c), PrbsPayload::new(42)).with_telemetry(&tele);
        for _ in 0..(2 * c.tau as usize) {
            s.next_frame().unwrap();
        }
        let summary = tele.summary();
        assert_eq!(summary.counter(names::sender::FRAMES), 2 * c.tau as u64);
        assert_eq!(summary.counter(names::sender::CYCLES), 2);
        assert_eq!(
            summary.histogram(names::sender::RENDER_NS).unwrap().count,
            2 * c.tau as u64
        );
        // Channel-rate gauges are primed for the unified report.
        assert_eq!(
            summary.gauge(names::chan::PAYLOAD_BITS),
            Some(s.payload_bits() as u64)
        );
        // Bit-exact: the f64 gauge must preserve 120/τ without f32
        // truncation (the end-to-end raw_kbps identity depends on it).
        let rate = summary.gauge_f64(names::chan::DATA_FRAME_RATE).unwrap();
        assert_eq!(rate, c.refresh_hz / c.tau as f64);
        // Pool gauges reflect the live arena.
        assert_eq!(
            summary.gauge(names::sender::POOL_ALLOCATED),
            Some(s.pool().stats().allocated)
        );
        // Cycle events landed in the recorder.
        assert!(tele
            .recorder_dump()
            .iter()
            .any(|r| matches!(r.event, inframe_obs::Event::CycleRendered { cycle: 1 })));
    }

    #[test]
    fn quantized_sender_matches_reference_within_tolerance() {
        let reference = InFrameConfig {
            kernel: crate::config::KernelBackend::Reference,
            ..InFrameConfig::small_test()
        };
        let quantized = InFrameConfig {
            kernel: crate::config::KernelBackend::Quantized,
            ..reference
        };
        let mut sr = Sender::new(reference, video(&reference), PrbsPayload::new(7));
        let mut sq = Sender::new(quantized, video(&quantized), PrbsPayload::new(7));
        assert_eq!(sq.kernel(), crate::config::KernelBackend::Quantized);
        let tol = reference.delta / (2.0 * 1024.0) + 1.0 / 256.0 + 1e-5;
        for f in 0..(2 * reference.tau as usize) {
            let a = sr.next_frame().unwrap();
            let b = sq.next_frame().unwrap();
            for (x, y, v) in a.plane.iter_xy() {
                assert!(
                    (b.plane.get(x, y) - v).abs() <= tol,
                    "frame {f} ({x},{y}): {} vs {v}",
                    b.plane.get(x, y)
                );
            }
        }
    }

    #[test]
    fn ends_when_video_ends() {
        let c = InFrameConfig::small_test();
        let clip = inframe_video::source::Limited::new(video(&c), 2); // 2 video frames
        let mut s = Sender::new(c, clip, PrbsPayload::new(1));
        let mut count = 0;
        while s.next_frame().is_some() {
            count += 1;
        }
        assert_eq!(count, 8); // 2 video frames × 4 duplicates
    }

    #[test]
    #[should_panic(expected = "match the display resolution")]
    fn mismatched_video_rejected() {
        let c = InFrameConfig::small_test();
        let clip = SolidClip::new(64, 64, 127.0, FrameRate(30.0));
        let _ = Sender::new(c, clip, PrbsPayload::new(1));
    }

    #[test]
    fn rs_mode_sender_works() {
        let mut c = InFrameConfig::small_test();
        c.coding = CodingMode::ReedSolomon { parity_bytes: 4 };
        let mut s = sender(c);
        assert!(s.payload_bits() > 0);
        let out = s.next_frame().unwrap();
        assert_eq!(out.plane.shape(), (c.display_w, c.display_h));
    }
}
