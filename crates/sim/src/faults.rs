//! Deterministic fault injection at the capture boundary, and the
//! harness that measures recovery from it.
//!
//! The paper's receiver exists *because* the capture path is hostile —
//! rate mismatch, rolling shutter, "poor capture quality" (§1) — yet a
//! simulator left alone only ever exercises the sunny day. This module
//! composes seeded fault injectors over the captured-frame stream via
//! [`inframe_camera::tap::CaptureTap`]:
//!
//! * dropped and duplicated frames,
//! * capture-clock skew and jitter against the 120 Hz display,
//! * exposure / white-balance drift,
//! * transient partial occlusion,
//! * mid-stream desync (a lost cycle boundary).
//!
//! [`run_fault_scenario`] drives the full pixel chain — sender → display
//! → camera → injector → hardened capture-level session — and reports
//! whether the receiver's LOCKED → SUSPECT → REACQUIRE machinery
//! re-locked, how long that took past fault clearance, and what the
//! fault cost in availability and decode overhead. Every injector is
//! seeded; a fixed configuration replays bit-for-bit.

use crate::link::{CapturePump, Link};
use crate::pipeline::SimulationConfig;
use crate::scenarios::Scenario;
use inframe_camera::tap::{CaptureTap, TappedCapture};
use inframe_camera::Camera;
use inframe_code::prbs::Xoshiro256;
use inframe_core::sender::Sender;
use inframe_core::sync::{LockState, TrackerPolicy};
use inframe_link::carousel::Carousel;
use inframe_link::control::{ChannelHealth, ControllerPolicy, ModulationController};
use inframe_link::session::CompletionTarget;
use inframe_link::ModulationCommand;
use inframe_obs::{names, Counter, Event, FaultClass, Telemetry};
use std::ops::ControlFlow;

/// One class of capture fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Each capture is lost with probability `rate` (driver stalls,
    /// pipeline back-pressure).
    Drop {
        /// Per-capture drop probability.
        rate: f64,
    },
    /// Each capture is delivered twice with probability `rate`; the
    /// duplicate carries a *later* timestamp with stale pixels (buffer
    /// re-delivery, the nastier real-world variant).
    Duplicate {
        /// Per-capture duplication probability.
        rate: f64,
    },
    /// The receiver clock runs fast/slow by `skew` (fractional) and each
    /// timestamp jitters uniformly within `±jitter_s`. The skew offset
    /// accumulates and persists after the window — real clocks do not
    /// snap back.
    ClockSkew {
        /// Fractional rate error (e.g. `5e-3` = 0.5 % fast).
        skew: f64,
        /// Uniform timestamp jitter half-width, seconds.
        jitter_s: f64,
    },
    /// Multiplicative exposure oscillation plus an additive white-balance
    /// shift: `code × (1 + a·sin(2πt/period)) + awb`.
    ExposureDrift {
        /// Peak fractional gain excursion `a`.
        gain_amplitude: f32,
        /// Additive code-value shift.
        awb_shift: f32,
        /// Oscillation period, seconds.
        period_s: f64,
    },
    /// A centred rectangle covering `frac` of the frame is painted at
    /// `level` (a hand, a passer-by).
    Occlusion {
        /// Fraction of the frame area occluded, `(0, 1]`.
        frac: f64,
        /// Code value of the occluder.
        level: f32,
    },
    /// A one-shot timestamp step of `shift_s` at the window start: the
    /// receiver's notion of the cycle boundary is suddenly wrong.
    Desync {
        /// Clock step, seconds (a fraction of a cycle is the worst case).
        shift_s: f64,
    },
    /// A rectangle given in plane fractions is painted at `level` —
    /// aimed at one spatial sub-channel tile rather than the frame
    /// centre.
    RegionOcclusion {
        /// Left edge, fraction of plane width.
        fx: f64,
        /// Top edge, fraction of plane height.
        fy: f64,
        /// Width, fraction of plane width.
        fw: f64,
        /// Height, fraction of plane height.
        fh: f64,
        /// Code value of the occluder.
        level: f32,
    },
}

impl FaultKind {
    /// This fault's class in telemetry's vocabulary (parameters erased).
    pub fn obs_class(&self) -> FaultClass {
        match self {
            FaultKind::Drop { .. } => FaultClass::Drop,
            FaultKind::Duplicate { .. } => FaultClass::Duplicate,
            FaultKind::ClockSkew { .. } => FaultClass::ClockSkew,
            FaultKind::ExposureDrift { .. } => FaultClass::ExposureDrift,
            FaultKind::Occlusion { .. } => FaultClass::Occlusion,
            FaultKind::RegionOcclusion { .. } => FaultClass::Occlusion,
            FaultKind::Desync { .. } => FaultClass::Desync,
        }
    }
}

/// A fault active over `[from_cycle, until_cycle)` in true display
/// cycles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultWindow {
    /// The fault class and parameters.
    pub kind: FaultKind,
    /// First true display cycle the fault is active in.
    pub from_cycle: u64,
    /// First true display cycle past the fault (exclusive).
    pub until_cycle: u64,
}

impl FaultWindow {
    /// The true cycle at which this fault stops corrupting *new*
    /// captures. A desync "clears" the instant it fires — the damage is
    /// the persistent offset, and recovery can begin immediately.
    pub fn clearance_cycle(&self) -> u64 {
        match self.kind {
            FaultKind::Desync { .. } => self.from_cycle,
            _ => self.until_cycle,
        }
    }
}

/// The injector's telemetry instruments: capture-stream counters plus
/// fault-window boundary events, so a flight-recorder dump shows which
/// fault preceded a lock loss.
#[derive(Debug, Clone)]
struct InjectorObs {
    telemetry: Telemetry,
    delivered: Counter,
    dropped: Counter,
    duplicated: Counter,
    windows: Counter,
}

impl InjectorObs {
    fn new(telemetry: &Telemetry) -> Self {
        Self {
            telemetry: telemetry.clone(),
            delivered: telemetry.counter(names::faults::DELIVERED),
            dropped: telemetry.counter(names::faults::DROPPED),
            duplicated: telemetry.counter(names::faults::DUPLICATED),
            windows: telemetry.counter(names::faults::WINDOWS),
        }
    }
}

/// A seeded composition of [`FaultWindow`]s over the capture stream.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: Vec<FaultWindow>,
    desync_fired: Vec<bool>,
    rng: Xoshiro256,
    cycle_duration: f64,
    capture_period: f64,
    time_offset: f64,
    delivered: u64,
    dropped: u64,
    duplicated: u64,
    obs: InjectorObs,
    /// Per-window: [`Event::FaultStart`] emitted.
    obs_started: Vec<bool>,
    /// Per-window: [`Event::FaultEnd`] emitted.
    obs_ended: Vec<bool>,
}

impl FaultInjector {
    /// An injector over `plan`, classifying captures into cycles of
    /// `cycle_duration` seconds, for a camera with `capture_period`
    /// seconds between frames.
    pub fn new(
        plan: Vec<FaultWindow>,
        cycle_duration: f64,
        capture_period: f64,
        seed: u64,
    ) -> Self {
        assert!(cycle_duration > 0.0 && capture_period > 0.0);
        for w in &plan {
            assert!(w.from_cycle < w.until_cycle, "empty fault window");
        }
        let desync_fired = vec![false; plan.len()];
        let obs_started = vec![false; plan.len()];
        let obs_ended = vec![false; plan.len()];
        Self {
            plan,
            desync_fired,
            rng: Xoshiro256::seed_from_u64(seed ^ 0xFA17_5EED),
            cycle_duration,
            capture_period,
            time_offset: 0.0,
            delivered: 0,
            dropped: 0,
            duplicated: 0,
            obs: InjectorObs::new(&Telemetry::disabled()),
            obs_started,
            obs_ended,
        }
    }

    /// Attaches a telemetry spine: capture deliveries/drops/duplications
    /// report as counters, and each fault window's opening and clearance
    /// become [`Event::FaultStart`] / [`Event::FaultEnd`] events.
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.obs = InjectorObs::new(telemetry);
        self
    }

    /// Emits window-boundary events for `true_cycle` (called once per
    /// tapped capture, before the fault transforms are applied).
    fn note_windows(&mut self, true_cycle: u64) {
        for (i, w) in self.plan.iter().enumerate() {
            if !self.obs_started[i] && true_cycle >= w.from_cycle {
                self.obs_started[i] = true;
                self.obs.windows.incr();
                self.obs.telemetry.event(Event::FaultStart {
                    kind: w.kind.obs_class(),
                    from_cycle: w.from_cycle,
                    until_cycle: w.until_cycle - 1,
                });
            }
            if self.obs_started[i] && !self.obs_ended[i] && true_cycle >= w.clearance_cycle() {
                self.obs_ended[i] = true;
                self.obs.telemetry.event(Event::FaultEnd {
                    kind: w.kind.obs_class(),
                    clearance_cycle: w.clearance_cycle(),
                });
            }
        }
    }

    /// Captures delivered downstream (duplicates counted).
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Captures swallowed by drop faults.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Captures that were duplicated.
    pub fn duplicated(&self) -> u64 {
        self.duplicated
    }

    /// The accumulated receiver-clock offset, seconds.
    pub fn time_offset(&self) -> f64 {
        self.time_offset
    }

    /// The latest true cycle at which any planned fault clears.
    pub fn clearance_cycle(&self) -> u64 {
        self.plan
            .iter()
            .map(FaultWindow::clearance_cycle)
            .max()
            .unwrap_or(0)
    }
}

impl CaptureTap for FaultInjector {
    fn tap(&mut self, cap: TappedCapture) -> Vec<TappedCapture> {
        let true_cycle = (cap.t_mid / self.cycle_duration).floor().max(0.0) as u64;
        self.note_windows(true_cycle);
        let mut plane = cap.plane;
        let mut t = cap.t_mid;
        let mut drop = false;
        let mut dup = false;
        for (i, w) in self.plan.iter().enumerate() {
            let active = true_cycle >= w.from_cycle && true_cycle < w.until_cycle;
            match w.kind {
                FaultKind::Desync { shift_s } => {
                    if !self.desync_fired[i] && true_cycle >= w.from_cycle {
                        self.time_offset += shift_s;
                        self.desync_fired[i] = true;
                    }
                }
                FaultKind::ClockSkew { skew, jitter_s } => {
                    if active {
                        self.time_offset += skew * self.capture_period;
                        t += (self.rng.next_f64() * 2.0 - 1.0) * jitter_s;
                    }
                }
                FaultKind::Drop { rate } => {
                    if active && self.rng.next_f64() < rate {
                        drop = true;
                    }
                }
                FaultKind::Duplicate { rate } => {
                    if active && self.rng.next_f64() < rate {
                        dup = true;
                    }
                }
                FaultKind::ExposureDrift {
                    gain_amplitude,
                    awb_shift,
                    period_s,
                } => {
                    if active {
                        let g = 1.0
                            + gain_amplitude as f64
                                * (std::f64::consts::TAU * cap.t_mid / period_s).sin();
                        plane.map_in_place(|c| {
                            ((c as f64 * g) as f32 + awb_shift).clamp(0.0, 255.0)
                        });
                    }
                }
                FaultKind::Occlusion { frac, level } => {
                    if active {
                        occlude_centre(&mut plane, frac, level);
                    }
                }
                FaultKind::RegionOcclusion {
                    fx,
                    fy,
                    fw,
                    fh,
                    level,
                } => {
                    if active {
                        occlude_fraction_rect(&mut plane, fx, fy, fw, fh, level);
                    }
                }
            }
        }
        if drop {
            self.dropped += 1;
            self.obs.dropped.incr();
            return Vec::new();
        }
        t += self.time_offset;
        let main = TappedCapture { plane, t_mid: t };
        if dup {
            self.duplicated += 1;
            self.obs.duplicated.incr();
            self.delivered += 2;
            self.obs.delivered.add(2);
            let ghost = TappedCapture {
                plane: main.plane.clone(),
                // Stale pixels under a plausible later timestamp: the
                // duplicate lands where the *next* capture slot would.
                t_mid: t + 0.4 * self.capture_period,
            };
            vec![main, ghost]
        } else {
            self.delivered += 1;
            self.obs.delivered.incr();
            vec![main]
        }
    }
}

/// The centred rectangle covering `frac` of a `w × h` plane: returns
/// `(x0, y0, ow, oh)`. Shared between the streaming occlusion tap and
/// the fleet simulator's batched occlusion classes so both paint the
/// same pixels for the same fraction.
pub fn occlusion_rect(w: usize, h: usize, frac: f64) -> (usize, usize, usize, usize) {
    let side = frac.clamp(0.0, 1.0).sqrt();
    let ow = ((w as f64 * side).round() as usize).min(w);
    let oh = ((h as f64 * side).round() as usize).min(h);
    ((w - ow) / 2, (h - oh) / 2, ow, oh)
}

/// Paints a centred rectangle covering `frac` of the plane at `level`.
fn occlude_centre(plane: &mut inframe_frame::Plane<f32>, frac: f64, level: f32) {
    let (x0, y0, ow, oh) = occlusion_rect(plane.width(), plane.height(), frac);
    for y in y0..y0 + oh {
        for x in x0..x0 + ow {
            plane.put(x, y, level);
        }
    }
}

/// Paints a fraction-addressed rectangle at `level`.
fn occlude_fraction_rect(
    plane: &mut inframe_frame::Plane<f32>,
    fx: f64,
    fy: f64,
    fw: f64,
    fh: f64,
    level: f32,
) {
    let (w, h) = (plane.width(), plane.height());
    let x0 = ((w as f64 * fx).round().max(0.0) as usize).min(w);
    let y0 = ((h as f64 * fy).round().max(0.0) as usize).min(h);
    let x1 = ((w as f64 * (fx + fw)).round().max(0.0) as usize).min(w);
    let y1 = ((h as f64 * (fy + fh)).round().max(0.0) as usize).min(h);
    for y in y0..y1 {
        for x in x0..x1 {
            plane.put(x, y, level);
        }
    }
}

/// Configuration of one fault-recovery run.
#[derive(Debug, Clone)]
pub struct FaultScenarioConfig {
    /// Pixel-chain configuration (`cycles` caps the run length).
    pub sim: SimulationConfig,
    /// Video content under the data channel.
    pub scenario: Scenario,
    /// Transport object id on the carousel.
    pub object_id: u16,
    /// Object length, bytes (content generated from the seed).
    pub object_len: usize,
    /// The fault plan.
    pub faults: Vec<FaultWindow>,
    /// Run the δ/τ controller (observing, health-coupled). With
    /// `closed_loop` false the commands are only recorded.
    pub adaptive: bool,
    /// Apply controller commands to the in-flight sender via
    /// [`Sender::queue_modulation`] — the full actuation path, not just
    /// the decision log. τ is pinned to the configured value (the
    /// capture-level session tracks one cycle length), so the loop
    /// exercises δ re-modulation.
    pub closed_loop: bool,
    /// Decode watchdog budget: if no cycle decodes for this many true
    /// display cycles, emit [`Event::Watchdog`] (a flight-recorder dump
    /// trigger) once per stall episode.
    pub watchdog_cycles: Option<u64>,
}

impl FaultScenarioConfig {
    /// A baseline: gray content, one small object, no faults.
    pub fn baseline(sim: SimulationConfig, object_len: usize) -> Self {
        Self {
            sim,
            scenario: Scenario::Gray,
            object_id: 1,
            object_len,
            faults: Vec::new(),
            adaptive: false,
            closed_loop: false,
            watchdog_cycles: None,
        }
    }
}

/// What one fault-recovery run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultOutcome {
    /// Whether the completion target was met.
    pub completed: bool,
    /// Whether the recovered object is byte-identical to the original.
    pub object_ok: bool,
    /// Decode overhead ε of the object, if it completed.
    pub epsilon: Option<f64>,
    /// Aggregate GOB availability over the absorbed cycles.
    pub availability: f64,
    /// Aggregate GOB error rate.
    pub error_rate: f64,
    /// Times the session dropped cycle lock.
    pub lock_losses: u64,
    /// Whether the session held (or re-acquired) a lock at the end.
    pub locked_at_end: bool,
    /// True display cycles from fault clearance to the first re-lock
    /// after the last lock loss. `Some(0)` when the relock preceded
    /// clearance; `None` when the lock was never lost or never regained.
    pub relock_cycles: Option<u64>,
    /// Receiver cycles absorbed.
    pub cycles_absorbed: u64,
    /// Receiver-relative cycle at which the object completed.
    pub completion_cycle: Option<u64>,
    /// Health transitions as (true display cycle, new state).
    pub health_transitions: Vec<(u64, LockState)>,
    /// Modulation commands issued (health backoffs and window decisions).
    pub commands: Vec<ModulationCommand>,
    /// Captures delivered / dropped / duplicated by the injector.
    pub captures: (u64, u64, u64),
    /// Times the decode watchdog fired (one per stall episode).
    pub watchdog_fires: u64,
}

/// Deterministic object content.
fn object_bytes(len: usize, id: u16, seed: u64) -> Vec<u8> {
    let mut rng = Xoshiro256::seed_from_u64(seed ^ ((id as u64) << 32) ^ 0x0B_1EC7);
    (0..len).map(|_| rng.next_byte()).collect()
}

fn health_of(state: LockState) -> ChannelHealth {
    match state {
        LockState::Locked => ChannelHealth::Locked,
        LockState::Suspect => ChannelHealth::Suspect,
        LockState::Acquiring | LockState::Reacquiring => ChannelHealth::Reacquiring,
    }
}

/// Runs one fault scenario over the full pixel chain.
///
/// # Panics
/// Panics on an invalid simulation configuration or an empty fault
/// window.
pub fn run_fault_scenario(cfg: &FaultScenarioConfig) -> FaultOutcome {
    run_fault_scenario_with_telemetry(cfg, &Telemetry::from_env())
}

/// [`run_fault_scenario`] with an explicit telemetry spine threaded
/// through every layer: sender, session (and its embedded demultiplexer
/// and phase tracker), controller, and fault injector all report to it,
/// and the harness bridges the receiver's observed health transitions
/// into [`Event::SessionHealth`] events on the true-display-cycle
/// timeline — so a flight-recorder dump interleaves the fault windows
/// with the lock collapse they caused.
///
/// # Panics
/// Panics on an invalid simulation configuration or an empty fault
/// window.
pub fn run_fault_scenario_with_telemetry(
    cfg: &FaultScenarioConfig,
    telemetry: &Telemetry,
) -> FaultOutcome {
    let c = &cfg.sim;
    let link = Link::new(*c);

    let layout = inframe_core::layout::DataLayout::from_config(&c.inframe);
    let mut carousel = Carousel::for_channel(&layout, c.inframe.coding);
    let data = object_bytes(cfg.object_len, cfg.object_id, c.seed);
    carousel.add_object(cfg.object_id, 1, &data);

    let mut session = link
        .session(CompletionTarget::AllOf(vec![cfg.object_id]))
        .with_telemetry(telemetry);
    // Faulted channels trade transient tolerance for relock latency.
    session.set_tracker_policy(TrackerPolicy::fast_recovery());

    let cycle_duration = c.inframe.tau as f64 / c.inframe.refresh_hz;
    let capture_period = 1.0 / c.camera.fps;
    let mut injector =
        FaultInjector::new(cfg.faults.clone(), cycle_duration, capture_period, c.seed)
            .with_telemetry(telemetry);
    let clearance = injector.clearance_cycle();

    let mut controller = cfg.adaptive.then(|| {
        // Closed loop pins τ: the capture session locks to one cycle
        // length, so the actuated knob is δ only. The availability
        // target is per-GOB, and a carousel symbol spans tens of GOB
        // draws, so per-symbol survival compounds steeply — 92 %/GOB is
        // near-zero per symbol. The loop must aim much higher.
        let policy = if cfg.closed_loop {
            ControllerPolicy {
                taus: vec![c.inframe.tau],
                target_availability: 0.985,
                hysteresis: 0.008,
                ..ControllerPolicy::default()
            }
        } else {
            ControllerPolicy::default()
        };
        ModulationController::new(&c.inframe, policy).with_telemetry(telemetry)
    });
    let mut commands = Vec::new();
    let mut transitions: Vec<(u64, LockState)> = Vec::new();
    let mut last_health = session.health();

    let video = cfg
        .scenario
        .source(c.inframe.display_w, c.inframe.display_h, c.seed);
    let sender = Sender::new(c.inframe, video, carousel).with_telemetry(telemetry);
    let mut pump = CapturePump::new(c, sender);
    let mut camera = [Camera::new(c.camera, c.geometry, c.seed ^ 0xCAFE)];

    let mut last_decoded_cycle: Option<u64> = None;
    let mut watchdog_fires = 0u64;
    let mut watchdog_stalled = false;
    pump.run(&mut camera, |_, capture, t_mid, sender| {
        let true_cycle = (t_mid / cycle_duration).floor().max(0.0) as u64;
        // The watchdog measures on the capture clock, not on decode
        // deliveries — a fault that swallows every capture must still
        // trip it.
        if let Some(budget) = cfg.watchdog_cycles {
            let since = true_cycle.saturating_sub(last_decoded_cycle.unwrap_or(0));
            if !watchdog_stalled && since > budget {
                watchdog_stalled = true;
                watchdog_fires += 1;
                telemetry.event(Event::Watchdog {
                    cycle: true_cycle,
                    last_decoded_cycle: last_decoded_cycle.unwrap_or(u64::MAX),
                    budget_cycles: budget,
                });
            }
        }
        let Ok(cap) = capture else {
            return ControlFlow::Continue(());
        };
        for delivered in injector.tap(TappedCapture {
            plane: cap.plane,
            t_mid,
        }) {
            let report = session.push_capture(&delivered.plane, delivered.t_mid);
            let health = session.health();
            if health != last_health {
                transitions.push((true_cycle, health));
                telemetry.event(Event::SessionHealth {
                    cycle: true_cycle,
                    state: health.obs_state(),
                });
                if let Some(ctl) = controller.as_mut() {
                    if let Some(cmd) = ctl.set_health(health_of(health)) {
                        if cfg.closed_loop {
                            sender.queue_modulation(cmd.delta, cmd.tau);
                        }
                        commands.push(cmd);
                    }
                }
                last_health = health;
            }
            if report.is_some() {
                last_decoded_cycle = Some(true_cycle);
                watchdog_stalled = false;
                if let (Some(ctl), Some(d)) = (controller.as_mut(), session.decoded().last()) {
                    if let Some(cmd) = ctl.observe_cycle(&d.stats) {
                        if cfg.closed_loop {
                            sender.queue_modulation(cmd.delta, cmd.tau);
                        }
                        commands.push(cmd);
                    }
                }
            }
            if session.is_complete() {
                return ControlFlow::Break(());
            }
        }
        ControlFlow::Continue(())
    });
    session.finish();

    // Relock latency: first LOCKED transition after the last lock loss,
    // measured from fault clearance in true display cycles.
    let last_loss = transitions
        .iter()
        .rposition(|(_, s)| *s == LockState::Reacquiring);
    let relock_cycles = last_loss.and_then(|i| {
        transitions[i..]
            .iter()
            .find(|(_, s)| *s == LockState::Locked)
            .map(|(cy, _)| cy.saturating_sub(clearance))
    });

    let object_ok = session.object(cfg.object_id) == Some(&data[..]);
    FaultOutcome {
        completed: session.is_complete(),
        object_ok,
        epsilon: session.epsilon(cfg.object_id),
        availability: session.stats().available_ratio(),
        error_rate: session.stats().error_rate(),
        lock_losses: session.resyncs(),
        locked_at_end: session.health() == LockState::Locked
            || session.health() == LockState::Suspect,
        relock_cycles,
        cycles_absorbed: session.cycles_processed(),
        completion_cycle: session.completion_cycle(cfg.object_id),
        health_transitions: transitions,
        commands,
        captures: (
            injector.delivered(),
            injector.dropped(),
            injector.duplicated(),
        ),
        watchdog_fires,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inframe_frame::Plane;

    fn cap(t_mid: f64) -> TappedCapture {
        TappedCapture {
            plane: Plane::filled(8, 8, 100.0f32),
            t_mid,
        }
    }

    #[test]
    fn drop_fault_swallows_captures_inside_the_window_only() {
        let w = FaultWindow {
            kind: FaultKind::Drop { rate: 1.0 },
            from_cycle: 1,
            until_cycle: 2,
        };
        let mut inj = FaultInjector::new(vec![w], 0.1, 1.0 / 30.0, 7);
        assert_eq!(inj.tap(cap(0.05)).len(), 1, "before the window");
        assert_eq!(inj.tap(cap(0.15)).len(), 0, "inside");
        assert_eq!(inj.tap(cap(0.25)).len(), 1, "after");
        assert_eq!(inj.dropped(), 1);
    }

    #[test]
    fn duplicate_fault_emits_a_stale_later_copy() {
        let w = FaultWindow {
            kind: FaultKind::Duplicate { rate: 1.0 },
            from_cycle: 0,
            until_cycle: 10,
        };
        let mut inj = FaultInjector::new(vec![w], 0.1, 1.0 / 30.0, 7);
        let out = inj.tap(cap(0.05));
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].plane, out[1].plane, "stale pixels");
        assert!(out[1].t_mid > out[0].t_mid, "later timestamp");
        assert_eq!(inj.duplicated(), 1);
    }

    #[test]
    fn desync_applies_one_persistent_step() {
        let w = FaultWindow {
            kind: FaultKind::Desync { shift_s: 0.04 },
            from_cycle: 2,
            until_cycle: 3,
        };
        let mut inj = FaultInjector::new(vec![w], 0.1, 1.0 / 30.0, 7);
        assert_eq!(inj.tap(cap(0.05))[0].t_mid, 0.05, "before the step");
        let first = inj.tap(cap(0.25))[0].t_mid;
        assert!((first - 0.29).abs() < 1e-12, "stepped: {first}");
        let later = inj.tap(cap(0.55))[0].t_mid;
        assert!((later - 0.59).abs() < 1e-12, "persists: {later}");
        assert!((inj.time_offset() - 0.04).abs() < 1e-12);
        assert_eq!(w.clearance_cycle(), 2, "desync clears at its onset");
    }

    #[test]
    fn clock_skew_accumulates_and_jitters_deterministically() {
        let w = FaultWindow {
            kind: FaultKind::ClockSkew {
                skew: 3e-3,
                jitter_s: 1e-3,
            },
            from_cycle: 0,
            until_cycle: 100,
        };
        let mut a = FaultInjector::new(vec![w], 0.1, 1.0 / 30.0, 7);
        let mut b = FaultInjector::new(vec![w], 0.1, 1.0 / 30.0, 7);
        let mut last_offset = 0.0;
        for j in 0..30 {
            let t = j as f64 / 30.0;
            let ta = a.tap(cap(t))[0].t_mid;
            let tb = b.tap(cap(t))[0].t_mid;
            assert_eq!(ta, tb, "same seed, same stream");
            assert!(a.time_offset() > last_offset, "offset accumulates");
            last_offset = a.time_offset();
        }
        assert!((last_offset - 30.0 * 3e-3 / 30.0).abs() < 1e-12);
    }

    #[test]
    fn exposure_drift_scales_codes_and_occlusion_paints() {
        let drift = FaultWindow {
            kind: FaultKind::ExposureDrift {
                gain_amplitude: 0.25,
                awb_shift: 4.0,
                period_s: 0.02, // sin peak lands inside the first capture
            },
            from_cycle: 0,
            until_cycle: 10,
        };
        let mut inj = FaultInjector::new(vec![drift], 0.1, 1.0 / 30.0, 7);
        let out = inj.tap(cap(0.005));
        let v = out[0].plane.get(0, 0);
        assert!((v - 129.0).abs() < 0.5, "100×1.25 + 4 = 129, got {v}");

        let occ = FaultWindow {
            kind: FaultKind::Occlusion {
                frac: 0.25,
                level: 10.0,
            },
            from_cycle: 0,
            until_cycle: 10,
        };
        let mut inj = FaultInjector::new(vec![occ], 0.1, 1.0 / 30.0, 7);
        let out = inj.tap(cap(0.005));
        assert_eq!(out[0].plane.get(4, 4), 10.0, "centre occluded");
        assert_eq!(out[0].plane.get(0, 0), 100.0, "corner untouched");
    }

    #[test]
    fn occlusion_fraction_is_respected() {
        let mut plane = Plane::filled(100, 100, 1.0f32);
        occlude_centre(&mut plane, 0.49, 0.0);
        let dark = (0..100)
            .flat_map(|y| (0..100).map(move |x| (x, y)))
            .filter(|&(x, y)| plane.get(x, y) == 0.0)
            .count();
        assert_eq!(dark, 70 * 70);
    }

    #[test]
    fn region_occlusion_paints_exactly_its_rect() {
        let w = FaultWindow {
            kind: FaultKind::RegionOcclusion {
                fx: 0.25,
                fy: 0.5,
                fw: 0.5,
                fh: 0.25,
                level: 3.0,
            },
            from_cycle: 0,
            until_cycle: 10,
        };
        let mut inj = FaultInjector::new(vec![w], 0.1, 1.0 / 30.0, 7);
        let out = inj.tap(cap(0.005));
        assert_eq!(out[0].plane.get(3, 4), 3.0, "inside the tile");
        assert_eq!(out[0].plane.get(1, 4), 100.0, "left of the tile");
        assert_eq!(out[0].plane.get(3, 2), 100.0, "above the tile");
        assert_eq!(out[0].plane.get(3, 6), 100.0, "below the tile");
    }
}
