//! Throughput accounting — the arithmetic behind Figure 7.
//!
//! A data frame carries `payload_bits` and refreshes every τ displayed
//! frames, so the raw rate is `payload_bits · refresh/τ` bit/s. Only
//! available GOBs deliver bits, and erroneous GOBs deliver wrong ones, so
//! goodput is `raw · availableRatio · (1 − errorRate)` — which reproduces
//! every bar of Figure 7 from its printed annotations (e.g. gray, δ=20,
//! τ=10: `1125 · 12 · 0.952 · 0.985 ≈ 12.6 kbps`).

use inframe_code::framing::LossyBits;
use std::time::Duration;

/// Aggregated link performance over a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputReport {
    /// Payload bits per data frame.
    pub payload_bits: usize,
    /// Data frames per second (`refresh / τ`).
    pub data_frame_rate: f64,
    /// Available-GOB ratio (Figure 7 top annotation).
    pub available_ratio: f64,
    /// GOB error rate among available GOBs (Figure 7 bracketed annotation).
    pub error_rate: f64,
    /// Fraction of decoded payload bits that match the sent ground truth
    /// (1.0 when no ground truth was supplied).
    pub bit_accuracy: f64,
    /// Data cycles observed.
    pub cycles: u64,
}

impl ThroughputReport {
    /// Builds a report from the telemetry spine's channel roll-up — the
    /// unified accounting path: every layer reports into the well-known
    /// `inframe_obs::names::chan` instruments and the report is a pure
    /// function of that summary, so `sim`, examples, and benches can no
    /// longer drift apart by recomputing from raw `GobStats`.
    pub fn from_channel_summary(ch: &inframe_obs::ChannelSummary) -> Self {
        Self {
            payload_bits: ch.payload_bits as usize,
            data_frame_rate: ch.data_frame_rate,
            available_ratio: ch.available_ratio(),
            error_rate: ch.error_rate(),
            bit_accuracy: ch.bit_accuracy(),
            cycles: ch.cycles,
        }
    }

    /// Raw channel rate in kbit/s, before losses.
    pub fn raw_kbps(&self) -> f64 {
        self.payload_bits as f64 * self.data_frame_rate / 1000.0
    }

    /// Goodput in kbit/s: raw rate × availability × (1 − error rate), the
    /// paper's Figure 7 metric.
    pub fn goodput_kbps(&self) -> f64 {
        self.raw_kbps() * self.available_ratio * (1.0 - self.error_rate)
    }
}

/// Live pipeline performance: processed frames per wall-clock second and
/// worker utilization, fed by [`crate::sender::Sender`] and
/// [`crate::demux::Demultiplexer`] as they run.
///
/// Utilization is accumulated worker busy time divided by `wall × workers`
/// — 1.0 means every worker of the [`crate::parallel::ParallelEngine`] was
/// saturated for the whole measured span, and the gap to 1.0 is the
/// band-merge / checkout overhead the engine adds on top of pixel math.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThroughputMeter {
    workers: usize,
    frames: u64,
    wall: Duration,
    busy: Duration,
}

impl ThroughputMeter {
    /// Creates an empty meter for an engine with `workers` workers.
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
            frames: 0,
            wall: Duration::ZERO,
            busy: Duration::ZERO,
        }
    }

    /// Records one processed frame: its wall-clock duration and the worker
    /// busy time it accumulated.
    pub fn record_frame(&mut self, wall: Duration, busy: Duration) {
        self.frames += 1;
        self.wall += wall;
        self.busy += busy;
    }

    /// Frames recorded so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Worker count of the engine being measured.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Total measured wall-clock time.
    pub fn wall(&self) -> Duration {
        self.wall
    }

    /// Total accumulated worker busy time.
    pub fn busy(&self) -> Duration {
        self.busy
    }

    /// Processed frames per second of measured wall time (0.0 before the
    /// first frame).
    pub fn fps(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        self.frames as f64 / self.wall.as_secs_f64()
    }

    /// Mean worker utilization in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        (self.busy.as_secs_f64() / (self.wall.as_secs_f64() * self.workers as f64)).clamp(0.0, 1.0)
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{:8.1} frames/s over {} frames ({} worker(s), {:.0}% utilization)",
            self.fps(),
            self.frames,
            self.workers,
            self.utilization() * 100.0
        )
    }

    /// Clears the counters (the worker count is kept).
    pub fn reset(&mut self) {
        *self = Self::new(self.workers);
    }
}

/// Compares decoded payload bits to ground truth: returns
/// `(correct, compared)` counting only bits that were actually recovered.
pub fn bit_accuracy(decoded: &LossyBits, truth: &[bool]) -> (usize, usize) {
    let hit = |(d, &t): (Option<bool>, &bool)| Some(d? == t);
    let hits = decoded.iter().zip(truth).filter_map(hit);
    hits.fold((0, 0), |(correct, n), ok| (correct + ok as usize, n + 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use inframe_code::parity::{GobStats, GobStatus};

    fn stats(ok: u64, err: u64, unavail: u64) -> GobStats {
        let mut s = GobStats::default();
        for _ in 0..ok {
            s.record(GobStatus::Ok);
        }
        for _ in 0..err {
            s.record(GobStatus::Erroneous);
        }
        for _ in 0..unavail {
            s.record(GobStatus::Unavailable);
        }
        s
    }

    fn report(
        payload_bits: usize,
        data_frame_rate: f64,
        stats: &GobStats,
        bit_accuracy: f64,
        cycles: u64,
    ) -> ThroughputReport {
        ThroughputReport {
            payload_bits,
            data_frame_rate,
            available_ratio: stats.available_ratio(),
            error_rate: stats.error_rate(),
            bit_accuracy,
            cycles,
        }
    }

    #[test]
    fn reproduces_figure7_gray_tau10_bar() {
        // Paper: δ=20, τ=10, gray → 95.2% available, 1.5% err → 12.6 kbps.
        let s = stats(952, 14, 48); // 1000 GOBs: 95.2% avail, ~1.47% err
        let r = report(1125, 12.0, &s, 1.0, 100);
        assert!((r.raw_kbps() - 13.5).abs() < 1e-9);
        let g = r.goodput_kbps();
        assert!((g - 12.66).abs() < 0.08, "goodput {g}");
    }

    #[test]
    fn reproduces_figure7_video_bar() {
        // Paper: video δ=30, τ=12 → 68.5% available, 9.54% err → 7.0 kbps.
        let s = stats(620, 65, 315); // 685 available (620 ok + 65 err), 31.5% unavailable
        let r = report(1125, 10.0, &s, 1.0, 100);
        let g = r.goodput_kbps();
        assert!((g - 6.97).abs() < 0.1, "goodput {g}");
    }

    #[test]
    fn channel_summary_report_matches_gob_stats() {
        let s = stats(952, 14, 48);
        let direct = report(1125, 12.0, &s, 0.99, 100);
        let ch = inframe_obs::ChannelSummary {
            cycles: 100,
            gobs_ok: 952,
            gobs_erroneous: 14,
            gobs_unavailable: 48,
            bits_correct: 990,
            bits_compared: 1000,
            payload_bits: 1125,
            data_frame_rate: 12.0,
        };
        let unified = ThroughputReport::from_channel_summary(&ch);
        assert_eq!(unified.payload_bits, direct.payload_bits);
        assert_eq!(unified.data_frame_rate, direct.data_frame_rate);
        assert!((unified.available_ratio - direct.available_ratio).abs() < 1e-12);
        assert!((unified.error_rate - direct.error_rate).abs() < 1e-12);
        assert!((unified.bit_accuracy - direct.bit_accuracy).abs() < 1e-12);
        assert_eq!(unified.cycles, direct.cycles);
        assert!((unified.goodput_kbps() - direct.goodput_kbps()).abs() < 1e-9);
    }

    #[test]
    fn goodput_zero_when_nothing_available() {
        let s = stats(0, 0, 100);
        let r = report(1125, 10.0, &s, 0.0, 10);
        assert_eq!(r.goodput_kbps(), 0.0);
    }

    #[test]
    fn meter_computes_fps_and_utilization() {
        let mut m = ThroughputMeter::new(4);
        assert_eq!(m.fps(), 0.0);
        assert_eq!(m.utilization(), 0.0);
        // 10 frames, 10 ms wall each, 20 ms busy each (2 of 4 workers hot).
        for _ in 0..10 {
            m.record_frame(Duration::from_millis(10), Duration::from_millis(20));
        }
        assert_eq!(m.frames(), 10);
        assert!((m.fps() - 100.0).abs() < 1e-9, "fps {}", m.fps());
        assert!((m.utilization() - 0.5).abs() < 1e-9);
        assert!(m.summary().contains("frames/s"));
        m.reset();
        assert_eq!(m.frames(), 0);
        assert_eq!(m.workers(), 4);
    }

    #[test]
    fn meter_utilization_is_clamped() {
        let mut m = ThroughputMeter::new(1);
        // Busy exceeding wall (timer jitter) must not exceed 1.0.
        m.record_frame(Duration::from_millis(5), Duration::from_millis(9));
        assert_eq!(m.utilization(), 1.0);
    }

    #[test]
    fn bit_accuracy_counts_only_recovered() {
        let decoded = [Some(true), None, Some(false), Some(true)]
            .into_iter()
            .collect();
        let truth = vec![true, true, true, true];
        let (correct, compared) = bit_accuracy(&decoded, &truth);
        assert_eq!(compared, 3);
        assert_eq!(correct, 2);
    }
}
