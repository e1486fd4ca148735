//! The end-to-end channel simulation.

use crate::link::CapturePump;
use inframe_camera::{Camera, CameraConfig, CaptureGeometry};
use inframe_code::parity::GobStats;
use inframe_core::metrics::{bit_accuracy, ThroughputReport};
use inframe_core::sender::{PrbsPayload, Sender};
use inframe_core::{DecodedDataFrame, Demultiplexer, InFrameConfig};
use inframe_display::DisplayConfig;
use inframe_frame::geometry::Homography;
use inframe_obs::{names, ChannelSummary, Telemetry};
use inframe_video::VideoSource;
use std::ops::ControlFlow;

/// Everything needed to run one end-to-end experiment.
#[derive(Debug, Clone, Copy)]
pub struct SimulationConfig {
    /// InFrame system parameters.
    pub inframe: InFrameConfig,
    /// Display model.
    pub display: DisplayConfig,
    /// Camera model.
    pub camera: CameraConfig,
    /// Capture geometry.
    pub geometry: CaptureGeometry,
    /// Number of data cycles to run.
    pub cycles: u32,
    /// Seed for payload and sensor noise.
    pub seed: u64,
}

impl SimulationConfig {
    /// Validates every component and their agreement.
    ///
    /// # Panics
    /// Panics on an invalid component, zero cycles, or a display whose
    /// refresh rate differs from the InFrame refresh rate.
    pub fn validate(&self) {
        self.inframe.validate();
        self.display.validate();
        self.camera.validate();
        assert!(self.cycles >= 1, "need at least one cycle");
        assert!(
            (self.display.refresh_hz - self.inframe.refresh_hz).abs() < 1e-9,
            "display and InFrame refresh rates must agree"
        );
    }

    /// The display→sensor registration a receiver inverts to find blocks.
    pub fn registration(&self) -> Homography {
        self.geometry.display_to_sensor(
            self.inframe.display_w,
            self.inframe.display_h,
            self.camera.width,
            self.camera.height,
        )
    }
}

/// Result of one simulation run.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Aggregate GOB statistics across all decoded cycles.
    pub stats: GobStats,
    /// Correct / compared recovered payload bits against ground truth.
    pub bits_correct: usize,
    /// Compared recovered payload bits.
    pub bits_compared: usize,
    /// Decoded cycles (with per-cycle stats).
    pub decoded: Vec<DecodedDataFrame>,
    /// Payload bits per data frame.
    pub payload_bits: usize,
    /// Data frames per second.
    pub data_frame_rate: f64,
}

impl SimOutcome {
    /// Fraction of recovered bits that match ground truth.
    pub fn bit_accuracy(&self) -> f64 {
        self.channel().bit_accuracy()
    }

    /// The run's channel accounting in the telemetry spine's unified
    /// vocabulary. [`Simulation::run`] populates this outcome *from* the
    /// spine's `chan.*` instruments, so this round-trips losslessly.
    pub fn channel(&self) -> ChannelSummary {
        ChannelSummary {
            cycles: self.decoded.len() as u64,
            gobs_ok: self.stats.available - self.stats.erroneous,
            gobs_erroneous: self.stats.erroneous,
            gobs_unavailable: self.stats.unavailable,
            bits_correct: self.bits_correct as u64,
            bits_compared: self.bits_compared as u64,
            payload_bits: self.payload_bits as u64,
            data_frame_rate: self.data_frame_rate,
        }
    }

    /// The Figure 7 report for this run, built from the unified channel
    /// summary (see [`ThroughputReport::from_channel_summary`]).
    pub fn report(&self) -> ThroughputReport {
        ThroughputReport::from_channel_summary(&self.channel())
    }
}

/// The wired-up simulation.
pub struct Simulation {
    config: SimulationConfig,
}

impl Simulation {
    /// Creates a simulation.
    pub fn new(config: SimulationConfig) -> Self {
        config.validate();
        Self { config }
    }

    /// Runs the full sender → display → camera → receiver chain over the
    /// configured number of data cycles and scores the result against the
    /// sent ground truth.
    ///
    /// Accounting flows through a telemetry spine (the `INFRAME_OBS`
    /// global one when enabled, a run-local one otherwise): the sender
    /// and demultiplexer report into the `chan.*` instruments and the
    /// outcome's GOB/bit numbers are read back from the spine, so the
    /// Figure 7 report and telemetry can never disagree.
    pub fn run(&self, video: impl VideoSource) -> SimOutcome {
        self.run_with_telemetry(video, &Telemetry::from_env())
    }

    /// [`Simulation::run`] reporting into an explicit telemetry spine.
    /// Channel accounting is read back as the delta of the spine's
    /// `chan.*` counters over the run.
    pub fn run_with_telemetry(&self, video: impl VideoSource, telemetry: &Telemetry) -> SimOutcome {
        let local;
        let tele = if telemetry.is_enabled() {
            telemetry
        } else {
            local = Telemetry::new();
            &local
        };
        let before = tele.summary().channel();
        let c = &self.config;
        let sender = Sender::new(c.inframe, video, PrbsPayload::new(c.seed)).with_telemetry(tele);
        let mut pump = CapturePump::new(c, sender);
        let mut camera = [Camera::new(c.camera, c.geometry, c.seed ^ 0xCA_3E1A)];
        let mut demux = Demultiplexer::new(
            c.inframe,
            &c.registration(),
            c.camera.width,
            c.camera.height,
        )
        .with_telemetry(tele);
        // Each decoded cycle is scored against the sender's ground truth
        // as it arrives, while the sender still holds that payload.
        let mut decoded: Vec<DecodedDataFrame> = Vec::new();
        let (mut bits_correct, mut bits_compared) = (0, 0);
        let mut score = |frame: DecodedDataFrame, truth: Option<&[bool]>| {
            if let Some(truth) = truth {
                let (correct, compared) = bit_accuracy(&frame.payload, truth);
                bits_correct += correct;
                bits_compared += compared;
            }
            decoded.push(frame);
        };
        pump.run(&mut camera, |_, capture, t_mid, sender| {
            if let Some(frame) = capture
                .ok()
                .and_then(|cap| demux.push_capture(&cap.plane, t_mid))
            {
                let cycle = frame.cycle;
                score(frame, sender.sent_payload(cycle));
            }
            ControlFlow::Continue(())
        });
        let sender = pump.sender();
        if let Some(frame) = demux.finish() {
            let cycle = frame.cycle;
            score(frame, sender.sent_payload(cycle));
        }

        // Report the score into the spine.
        tele.counter(names::chan::BITS_CORRECT)
            .add(bits_correct as u64);
        tele.counter(names::chan::BITS_COMPARED)
            .add(bits_compared as u64);

        // Read the run's GOB accounting back from the spine (delta, so an
        // externally shared spine with prior traffic stays correct).
        let after = tele.summary().channel();
        let erroneous = after.gobs_erroneous - before.gobs_erroneous;
        let stats = GobStats {
            available: (after.gobs_ok - before.gobs_ok) + erroneous,
            erroneous,
            unavailable: after.gobs_unavailable - before.gobs_unavailable,
        };
        SimOutcome {
            stats,
            bits_correct,
            bits_compared,
            decoded,
            payload_bits: sender.payload_bits(),
            data_frame_rate: c.inframe.data_frame_rate(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::{Scale, Scenario};

    fn quick_sim(cycles: u32, seed: u64) -> Simulation {
        let s = Scale::Quick;
        Simulation::new(SimulationConfig {
            inframe: s.inframe(),
            display: s.display(),
            camera: s.camera(),
            geometry: s.geometry(),
            cycles,
            seed,
        })
    }

    #[test]
    fn gray_quick_run_decodes_most_gobs() {
        let sim = quick_sim(6, 7);
        let out = sim.run(Scenario::Gray.source(240, 168, 7));
        assert!(!out.decoded.is_empty(), "must decode at least one cycle");
        let r = out.report();
        assert!(
            r.available_ratio > 0.75,
            "gray availability {} too low",
            r.available_ratio
        );
        assert!(
            out.bit_accuracy() > 0.95,
            "gray bit accuracy {}",
            out.bit_accuracy()
        );
        assert!(r.goodput_kbps() > 0.0);
    }

    #[test]
    fn textured_video_decodes_worse_than_gray() {
        let gray = quick_sim(5, 3).run(Scenario::Gray.source(240, 168, 3));
        let video = quick_sim(5, 3).run(Scenario::Video.source(240, 168, 3));
        let (ga, va) = (
            gray.report().available_ratio,
            video.report().available_ratio,
        );
        assert!(
            ga >= va - 0.02,
            "video ({va}) should not beat gray ({ga}) availability"
        );
    }

    #[test]
    fn outcome_counts_expected_cycles() {
        let sim = quick_sim(4, 1);
        let out = sim.run(Scenario::Gray.source(240, 168, 1));
        // 4 cycles scheduled; the trailing cycle may be cut short, and the
        // camera lags the display, so expect at least 2 decoded.
        assert!(
            out.decoded.len() >= 2,
            "decoded {} cycles",
            out.decoded.len()
        );
        assert!(out.decoded.len() <= 4);
        // Every decoded cycle observed the full GOB grid once.
        for d in &out.decoded {
            assert_eq!(d.stats.total(), 24); // 12×8 blocks → 24 GOBs
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = quick_sim(3, 9).run(Scenario::Gray.source(240, 168, 9));
        let b = quick_sim(3, 9).run(Scenario::Gray.source(240, 168, 9));
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.bits_correct, b.bits_correct);
    }

    #[test]
    fn mismatched_refresh_rejected() {
        // Every pixel-chain driver validates through one
        // `SimulationConfig::validate`, so none can run a 120 Hz chain on
        // a 60 Hz display.
        let mut c = quick_sim(1, 0).config;
        c.display.refresh_hz = 60.0;
        let rejects = |run: &dyn Fn()| {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
                .expect_err("a mismatched display must be rejected");
            let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
            assert!(msg.contains("refresh rates must agree"), "{msg}");
        };
        rejects(&|| {
            Simulation::new(c);
        });
        rejects(&|| {
            crate::Link::new(c);
        });
        rejects(&|| {
            crate::run_fault_scenario(&crate::FaultScenarioConfig::baseline(c, 8));
        });
        rejects(&|| {
            let mut fleet = crate::FleetConfig::quick(1, 1, 0);
            fleet.sim = c;
            crate::run_fleet(&fleet);
        });
    }
}
