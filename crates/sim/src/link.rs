//! The display → camera capture pump, and a ready-made application link
//! built on it.
//!
//! [`CapturePump`] is the one loop every pixel-chain driver runs: feed
//! sender frames to the display, and capture from each camera whenever
//! its exposure window is covered. Drivers differ only in what they do
//! with a capture — demultiplex and score it ([`crate::Simulation`]),
//! push it into a session ([`Link::run_session`]), fault it first
//! ([`crate::faults`]), or batch-score it for a receiver fleet
//! ([`crate::fleet`]).
//!
//! The receive side lives in [`inframe_link::session::ReceiverSession`];
//! [`Link::session`] builds one wired to this link's camera registration
//! and [`Link::run_session`] pumps captures into it.

use crate::pipeline::SimulationConfig;
use inframe_camera::{Camera, CapturedFrame};
use inframe_core::sender::{PayloadSource, Sender};
use inframe_display::{DisplayStream, FrameEmission};
use inframe_link::carousel::SymbolGeometry;
use inframe_link::session::{CompletionTarget, ReceiverSession, SyncMode};
use inframe_video::VideoSource;
use std::collections::VecDeque;
use std::ops::ControlFlow;

/// The sender → display → camera pump over a bounded window of display
/// emissions.
///
/// The pump owns the display and the `cycles × τ` frame budget; the
/// caller builds the [`Sender`] and owns the cameras, so one pump can
/// serve a single receiver or a bank of phase-offset cameras.
pub struct CapturePump<V, P> {
    sender: Sender<V, P>,
    display: DisplayStream,
    window: VecDeque<FrameEmission>,
    frames_left: u64,
}

impl<V: VideoSource, P: PayloadSource> CapturePump<V, P> {
    /// A pump presenting `config.cycles` data cycles of `sender` frames
    /// on `config.display`.
    pub fn new(config: &SimulationConfig, sender: Sender<V, P>) -> Self {
        Self {
            sender,
            display: DisplayStream::new(config.display),
            window: VecDeque::new(),
            frames_left: config.cycles as u64 * config.inframe.tau as u64,
        }
    }

    /// The sender, e.g. for its ground-truth payload log.
    pub(crate) fn sender(&self) -> &Sender<V, P> {
        &self.sender
    }

    /// One frame of [`CapturePump::run`]. Returns [`ControlFlow::Break`]
    /// when the frame budget is spent, the sender runs dry, or the
    /// callback breaks.
    pub(crate) fn step(
        &mut self,
        cameras: &mut [Camera],
        mut on_capture: impl FnMut(
            usize,
            Result<CapturedFrame, u64>,
            f64,
            &mut Sender<V, P>,
        ) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if self.frames_left == 0 {
            return ControlFlow::Break(());
        }
        let Some(frame) = self.sender.next_frame() else {
            return ControlFlow::Break(());
        };
        self.frames_left -= 1;
        let emission = self.display.present(&frame.plane);
        let window_end = emission.t_start + emission.duration;
        self.window.push_back(emission);

        // Drop emissions that ended before any camera's next window.
        let min_need = cameras
            .iter()
            .map(|cam| cam.required_window().0)
            .fold(f64::INFINITY, f64::min);
        while self
            .window
            .front()
            .is_some_and(|e| e.t_start + e.duration <= min_need + 1e-12)
        {
            self.window.pop_front();
        }
        let window = self.window.make_contiguous();
        for (k, camera) in cameras.iter_mut().enumerate() {
            loop {
                let (need_start, need_end) = camera.required_window();
                if need_end > window_end {
                    break;
                }
                let first =
                    window.partition_point(|e| e.t_start + e.duration <= need_start + 1e-12);
                let index = camera.next_index();
                let t_mid = camera.config().frame_mid(index);
                let capture = camera.capture(&window[first..]).map_err(|_| {
                    camera.skip_frame();
                    index
                });
                on_capture(k, capture, t_mid, &mut self.sender)?;
            }
        }
        ControlFlow::Continue(())
    }

    /// Presents sender frames until the frame budget is spent or the
    /// sender runs dry. After each frame, calls `on_capture` once for
    /// every capture of every camera whose exposure window is now covered,
    /// in camera order, with the camera index, the captured frame (or the
    /// index of a frame the camera had to skip), the capture's exposure
    /// midpoint, and the sender, so a control loop can re-modulate in
    /// flight. Stops early when `on_capture` breaks.
    pub fn run(
        &mut self,
        cameras: &mut [Camera],
        mut on_capture: impl FnMut(
            usize,
            Result<CapturedFrame, u64>,
            f64,
            &mut Sender<V, P>,
        ) -> ControlFlow<()>,
    ) {
        while self.step(cameras, &mut on_capture).is_continue() {}
    }
}

/// A configured screen–camera link.
pub struct Link {
    config: SimulationConfig,
}

impl Link {
    /// Creates a link from a simulation configuration.
    ///
    /// # Panics
    /// Panics on an invalid configuration (see
    /// [`SimulationConfig::validate`]).
    pub fn new(config: SimulationConfig) -> Self {
        config.validate();
        Self { config }
    }

    /// A capture-level [`ReceiverSession`] wired to this link's camera
    /// registration, synced to the simulation's shared clock.
    pub fn session(&self, target: CompletionTarget) -> ReceiverSession {
        let c = &self.config;
        ReceiverSession::capture_level(
            &c.inframe,
            SymbolGeometry::for_channel(
                &inframe_core::layout::DataLayout::from_config(&c.inframe),
                c.inframe.coding,
            ),
            &c.registration(),
            c.camera.width,
            c.camera.height,
            SyncMode::Known { phase: 0.0 },
            target,
        )
    }

    /// Runs `cycles` data cycles of `payload` over `video`, pushing every
    /// capture into `session`, and returns the session (finished). Stops
    /// early when the session completes.
    pub fn run_session(
        &self,
        video: impl VideoSource,
        payload: impl PayloadSource,
        camera_seed: u64,
        mut session: ReceiverSession,
    ) -> ReceiverSession {
        let c = &self.config;
        let mut pump = CapturePump::new(c, Sender::new(c.inframe, video, payload));
        let mut camera = [Camera::new(c.camera, c.geometry, camera_seed)];
        pump.run(&mut camera, |_, capture, t_mid, _| {
            if let Ok(cap) = capture {
                session.push_capture(&cap.plane, t_mid);
                if session.is_complete() {
                    return ControlFlow::Break(());
                }
            }
            ControlFlow::Continue(())
        });
        session.finish();
        session
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::{Scale, Scenario};
    use inframe_code::parity::GobStats;
    use inframe_core::sender::PrbsPayload;
    use inframe_link::carousel::Carousel;
    use inframe_link::session::SessionState;

    fn config(cycles: u32) -> SimulationConfig {
        let s = Scale::Quick;
        SimulationConfig {
            inframe: s.inframe(),
            display: s.display(),
            camera: s.camera(),
            geometry: s.geometry(),
            cycles,
            seed: 1,
        }
    }

    #[test]
    fn session_delivers_payload_bits() {
        // A raw-bit consumer: perpetual synced session, recovered bits
        // read straight off the decoded-cycle log.
        let c = config(5);
        let link = Link::new(c);
        let session = link.run_session(
            Scenario::Gray.source(c.inframe.display_w, c.inframe.display_h, 1),
            PrbsPayload::new(1),
            9,
            link.session(CompletionTarget::Never),
        );
        assert!(!session.decoded().is_empty());
        let bits: Vec<Option<bool>> = session
            .decoded()
            .iter()
            .flat_map(|d| d.payload.iter())
            .collect();
        let recovered = bits.iter().filter(|b| b.is_some()).count();
        let ratio = recovered as f64 / bits.len() as f64;
        assert!(ratio > 0.9, "{ratio}");
        assert!(session.stats().available_ratio() > 0.85);
    }

    #[test]
    fn session_pump_matches_simulation_stats() {
        // The session pump and Simulation share the chain; their
        // aggregate GOB stats must agree cycle for cycle.
        use crate::pipeline::Simulation;
        let c = config(4);
        let session = Link::new(c).run_session(
            Scenario::Gray.source(c.inframe.display_w, c.inframe.display_h, c.seed),
            PrbsPayload::new(c.seed),
            c.seed ^ 0xCA_3E1A,
            Link::new(c).session(CompletionTarget::Never),
        );
        let mut merged = GobStats::default();
        for d in session.decoded() {
            merged.merge(&d.stats);
        }
        let sim_out = Simulation::new(c).run(Scenario::Gray.source(
            c.inframe.display_w,
            c.inframe.display_h,
            c.seed,
        ));
        assert_eq!(merged, sim_out.stats);
    }

    #[test]
    fn session_pump_recovers_a_carousel_object() {
        // The full pixel chain end to end: carousel payload → multiplexed
        // frames → display → camera → session → object.
        let c = config(40);
        let link = Link::new(c);
        let layout = inframe_core::layout::DataLayout::from_config(&c.inframe);
        let mut carousel = Carousel::for_channel(&layout, c.inframe.coding);
        let data: Vec<u8> = (0..48u32).map(|i| (i * 5 + 1) as u8).collect();
        carousel.add_object(2, 1, &data);
        let session = link.session(CompletionTarget::AllOf(vec![2]));
        let session = link.run_session(
            Scenario::Gray.source(c.inframe.display_w, c.inframe.display_h, 3),
            carousel,
            5,
            session,
        );
        assert_eq!(session.state(), SessionState::Complete);
        assert_eq!(session.object(2).unwrap(), &data[..]);
    }
}
