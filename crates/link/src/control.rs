//! Adaptive modulation control: δ and τ tuned from link statistics.
//!
//! The paper's evaluation (Figure 7) shows the core trade: a larger
//! chessboard amplitude δ raises the available-GOB ratio but eats
//! imperceptibility margin; a longer cycle τ improves capture odds but
//! cuts the data-frame rate. The controller closes that loop: it watches
//! windowed [`GobStats`] from the receiver path and nudges the sender's
//! modulation — raise δ (up to the HVS-derived ceiling from
//! [`imperceptible_delta_ceiling`]) when the channel degrades, claw back
//! goodput (shorter τ, then lower δ) when there is headroom. Hysteresis
//! around the availability target keeps the commands from oscillating.

use inframe_code::parity::GobStats;
use inframe_core::InFrameConfig;
use inframe_hvs::flicker::FlickerMeter;
use inframe_obs::{names, CommandCause, Counter, Event, Gauge, Telemetry};

/// The controller's tuning policy.
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerPolicy {
    /// Availability the controller steers toward (paper channels sit near
    /// 0.95 when healthy).
    pub target_availability: f64,
    /// Half-width of the no-action band around the target.
    pub hysteresis: f64,
    /// δ adjustment per decision, code values.
    pub delta_step: f32,
    /// Smallest δ the controller will command.
    pub delta_min: f32,
    /// Largest δ the controller will command (imperceptibility ceiling).
    pub delta_max: f32,
    /// Allowed τ values, ascending (all must be even and ≥ 2).
    pub taus: Vec<u32>,
    /// Cycles per decision window.
    pub window_cycles: u32,
}

impl Default for ControllerPolicy {
    fn default() -> Self {
        Self {
            target_availability: 0.92,
            hysteresis: 0.03,
            delta_step: 2.0,
            delta_min: 8.0,
            delta_max: 40.0,
            taus: vec![10, 12, 14],
            window_cycles: 8,
        }
    }
}

impl ControllerPolicy {
    /// The default policy with `delta_max` replaced by the HVS ceiling
    /// for this configuration and meter.
    pub fn with_hvs_ceiling(config: &InFrameConfig, meter: &FlickerMeter) -> Self {
        let ceiling = imperceptible_delta_ceiling(config, meter);
        let base = Self::default();
        Self {
            delta_max: ceiling.max(base.delta_min),
            ..base
        }
    }
}

/// One modulation command for the sender.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModulationCommand {
    /// Chessboard amplitude δ, code values.
    pub delta: f32,
    /// Cycle length τ, displayed frames.
    pub tau: u32,
}

/// Receiver-side channel health, as reported by the session's phase
/// tracker (`inframe_core::sync::LockState` collapsed to what the
/// controller cares about).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelHealth {
    /// Cycle lock held and trusted.
    Locked,
    /// Lock doubted; decoding continues but statistics are polluted.
    Suspect,
    /// Lock lost; the receiver is re-acquiring and decodes nothing.
    Reacquiring,
}

/// The controller's telemetry instruments: command counters by cause and
/// gauges carrying the modulation currently in force.
#[derive(Debug, Clone)]
struct ControlObs {
    telemetry: Telemetry,
    backoffs: Counter,
    restores: Counter,
    adapts: Counter,
    delta: Gauge,
    tau: Gauge,
}

impl ControlObs {
    fn new(telemetry: &Telemetry) -> Self {
        Self {
            telemetry: telemetry.clone(),
            backoffs: telemetry.counter(names::control::BACKOFFS),
            restores: telemetry.counter(names::control::RESTORES),
            adapts: telemetry.counter(names::control::ADAPTS),
            delta: telemetry.gauge(names::control::DELTA),
            tau: telemetry.gauge(names::control::TAU),
        }
    }
}

/// The windowed δ/τ controller.
#[derive(Debug, Clone)]
pub struct ModulationController {
    policy: ControllerPolicy,
    delta: f32,
    tau_idx: usize,
    window: GobStats,
    cycles_in_window: u32,
    decisions: u64,
    health: ChannelHealth,
    /// Command in force before the channel went SUSPECT, restored on
    /// re-lock.
    saved: Option<ModulationCommand>,
    /// Cycles observed over the controller's lifetime (timeline axis for
    /// [`Event::Command`] events).
    cycles_seen: u64,
    obs: ControlObs,
}

impl ModulationController {
    /// Creates a controller starting from the configuration's current
    /// modulation, clamped into the policy's ranges.
    ///
    /// # Panics
    /// Panics on an empty or invalid τ ladder, or inverted δ bounds.
    pub fn new(config: &InFrameConfig, policy: ControllerPolicy) -> Self {
        assert!(!policy.taus.is_empty(), "policy needs at least one tau");
        assert!(
            policy.taus.windows(2).all(|w| w[0] < w[1]),
            "taus must be strictly ascending"
        );
        assert!(
            policy.taus.iter().all(|&t| t >= 2 && t % 2 == 0),
            "taus must be even and >= 2"
        );
        assert!(
            policy.delta_min <= policy.delta_max,
            "delta bounds inverted"
        );
        assert!(policy.window_cycles > 0, "window must be nonempty");
        let delta = config.delta.clamp(policy.delta_min, policy.delta_max);
        // Nearest allowed tau at or above the configured one.
        let tau_idx = policy
            .taus
            .iter()
            .position(|&t| t >= config.tau)
            .unwrap_or(policy.taus.len() - 1);
        Self {
            policy,
            delta,
            tau_idx,
            window: GobStats::default(),
            cycles_in_window: 0,
            decisions: 0,
            health: ChannelHealth::Locked,
            saved: None,
            cycles_seen: 0,
            obs: ControlObs::new(&Telemetry::disabled()),
        }
    }

    /// Attaches a telemetry spine: every issued command becomes an
    /// [`Event::Command`] on the δ/τ timeline (cause-tagged: backoff,
    /// restore, or windowed adaptation), and the gauges
    /// `control.delta` / `control.tau` always carry the modulation in
    /// force.
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.obs = ControlObs::new(telemetry);
        let cmd = self.command();
        self.obs.delta.set_f32(cmd.delta);
        self.obs.tau.set(cmd.tau as u64);
        self
    }

    /// Records an issued command: cause counter, gauges, timeline event.
    fn note_command(&mut self, cmd: ModulationCommand, cause: CommandCause) {
        match cause {
            CommandCause::Backoff => self.obs.backoffs.incr(),
            CommandCause::Restore => self.obs.restores.incr(),
            CommandCause::Adapt => self.obs.adapts.incr(),
        }
        self.obs.delta.set_f32(cmd.delta);
        self.obs.tau.set(cmd.tau as u64);
        self.obs.telemetry.event(Event::Command {
            cycle: self.cycles_seen,
            delta: cmd.delta,
            tau: cmd.tau,
            cause,
        });
    }

    /// The current command.
    pub fn command(&self) -> ModulationCommand {
        ModulationCommand {
            delta: self.delta,
            tau: self.policy.taus[self.tau_idx],
        }
    }

    /// Decision windows evaluated so far.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// The health last reported via [`ModulationController::set_health`].
    pub fn health(&self) -> ChannelHealth {
        self.health
    }

    /// One robustness rung up the ladder: spend imperceptibility margin
    /// first (raise δ), then trade rate for capture odds (raise τ).
    fn degrade(&mut self) {
        if self.delta < self.policy.delta_max {
            self.delta = (self.delta + self.policy.delta_step).min(self.policy.delta_max);
        } else if self.tau_idx + 1 < self.policy.taus.len() {
            self.tau_idx += 1;
        }
    }

    /// Reports a channel-health transition from the receiver's phase
    /// tracker. Losing confidence backs the modulation off immediately —
    /// one robustness rung, without waiting out a decision window whose
    /// statistics the fault is busy polluting — and remembers the healthy
    /// command; a return to `Locked` restores it. Returns the new command
    /// if it changed.
    pub fn set_health(&mut self, health: ChannelHealth) -> Option<ModulationCommand> {
        if health == self.health {
            return None;
        }
        let before = self.command();
        let was_locked = self.health == ChannelHealth::Locked;
        self.health = health;
        match health {
            ChannelHealth::Suspect | ChannelHealth::Reacquiring if was_locked => {
                self.saved = Some(before);
                self.degrade();
                // The window accumulated during the collapse: start clean.
                self.window = GobStats::default();
                self.cycles_in_window = 0;
            }
            ChannelHealth::Locked => {
                if let Some(saved) = self.saved.take() {
                    self.delta = saved
                        .delta
                        .clamp(self.policy.delta_min, self.policy.delta_max);
                    if let Some(idx) = self.policy.taus.iter().position(|&t| t >= saved.tau) {
                        self.tau_idx = idx;
                    }
                }
                self.window = GobStats::default();
                self.cycles_in_window = 0;
            }
            _ => {} // SUSPECT ↔ REACQUIRING: keep the backed-off command.
        }
        let after = self.command();
        if after != before {
            let cause = if health == ChannelHealth::Locked {
                CommandCause::Restore
            } else {
                CommandCause::Backoff
            };
            self.note_command(after, cause);
        }
        (after != before).then_some(after)
    }

    /// Accumulates one cycle's statistics; at each window boundary,
    /// evaluates the policy and returns the new command if it changed.
    pub fn observe_cycle(&mut self, stats: &GobStats) -> Option<ModulationCommand> {
        self.window.merge(stats);
        self.cycles_in_window += 1;
        self.cycles_seen += 1;
        if self.cycles_in_window < self.policy.window_cycles {
            return None;
        }
        let availability = self.window.available_ratio();
        let error_rate = self.window.error_rate();
        self.window = GobStats::default();
        self.cycles_in_window = 0;
        self.decisions += 1;

        let before = self.command();
        let lo = self.policy.target_availability - self.policy.hysteresis;
        let hi = self.policy.target_availability + self.policy.hysteresis;
        // Treat parity errors like lost capacity: a channel that decodes
        // everything but wrongly is not healthy.
        let quality = availability * (1.0 - error_rate);
        if quality < lo {
            self.degrade();
        } else if quality > hi && self.health == ChannelHealth::Locked {
            // Headroom: reclaim goodput (shorter τ), then reclaim
            // imperceptibility margin (lower δ). Never while the lock is
            // doubted — apparent headroom measured against a suspect
            // phase is noise, and reclaiming on it whipsaws the sender.
            if self.tau_idx > 0 {
                self.tau_idx -= 1;
            } else if self.delta > self.policy.delta_min {
                self.delta = (self.delta - self.policy.delta_step).max(self.policy.delta_min);
            }
        }
        let after = self.command();
        if after != before {
            self.note_command(after, CommandCause::Adapt);
        }
        (after != before).then_some(after)
    }
}

/// The largest chessboard amplitude δ the flicker meter rates invisible
/// (visibility ≤ 1) for this configuration, found by bisection.
///
/// The probe waveform is the worst case the multiplexer can emit: a
/// mid-gray pixel alternating `±δ` every displayed frame (complementary
/// pairs at `refresh_hz / 2`), converted to linear light with the
/// standard 2.2 display gamma. Envelope smoothing only lowers real
/// visibility below this bound.
pub fn imperceptible_delta_ceiling(config: &InFrameConfig, meter: &FlickerMeter) -> f32 {
    let visible = |delta: f64| -> bool {
        let lin = |c: f64| (c.clamp(0.0, 255.0) / 255.0).powf(2.2);
        let waveform: Vec<f64> = (0..256)
            .map(|i| lin(127.5 + if i % 2 == 0 { delta } else { -delta }))
            .collect();
        meter.assess(&waveform, config.refresh_hz, 0.0).visibility > 1.0
    };
    if !visible(127.0) {
        return 127.0;
    }
    let (mut lo, mut hi) = (0.0f64, 127.0f64);
    for _ in 0..24 {
        let mid = (lo + hi) / 2.0;
        if visible(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    lo as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(available: u64, unavailable: u64, erroneous: u64) -> GobStats {
        GobStats {
            available,
            erroneous,
            unavailable,
        }
    }

    fn controller(policy: ControllerPolicy) -> ModulationController {
        ModulationController::new(&InFrameConfig::paper(), policy)
    }

    #[test]
    fn degraded_channel_raises_delta_then_tau() {
        let policy = ControllerPolicy {
            window_cycles: 1,
            ..ControllerPolicy::default()
        };
        let mut ctl = controller(policy.clone());
        let bad = stats(60, 40, 0); // 60 % availability
        let start = ctl.command();
        assert_eq!(start.delta, 20.0);
        // δ climbs to the ceiling first…
        let steps = ((policy.delta_max - start.delta) / policy.delta_step).ceil() as usize;
        for _ in 0..steps {
            let cmd = ctl.observe_cycle(&bad).expect("must adjust");
            assert_eq!(cmd.tau, start.tau, "τ untouched while δ has room");
        }
        assert_eq!(ctl.command().delta, policy.delta_max);
        // …then τ backs off.
        let cmd = ctl.observe_cycle(&bad).expect("must adjust");
        assert!(cmd.tau > start.tau);
        // At the end of the ladder the controller stops emitting.
        let _ = ctl.observe_cycle(&bad);
        assert_eq!(ctl.observe_cycle(&bad), None);
    }

    #[test]
    fn healthy_channel_reclaims_rate_then_margin() {
        let policy = ControllerPolicy {
            window_cycles: 1,
            ..ControllerPolicy::default()
        };
        let mut ctl = controller(policy.clone());
        let good = stats(100, 0, 0);
        // Paper τ=12 sits at ladder index 1: first decision shortens τ.
        let cmd = ctl.observe_cycle(&good).expect("must adjust");
        assert_eq!(cmd.tau, 10);
        // Then δ ramps down to the floor.
        let mut last = cmd;
        while let Some(cmd) = ctl.observe_cycle(&good) {
            assert!(cmd.delta <= last.delta);
            last = cmd;
        }
        assert_eq!(last.delta, policy.delta_min);
        assert_eq!(last.tau, 10);
    }

    #[test]
    fn hysteresis_band_holds_steady() {
        let mut ctl = controller(ControllerPolicy {
            window_cycles: 1,
            ..ControllerPolicy::default()
        });
        // 92 % availability: inside the band, no command.
        let ok = stats(92, 8, 0);
        for _ in 0..10 {
            assert_eq!(ctl.observe_cycle(&ok), None);
        }
        assert_eq!(ctl.decisions(), 10);
    }

    #[test]
    fn errors_count_against_quality() {
        let mut ctl = controller(ControllerPolicy {
            window_cycles: 1,
            ..ControllerPolicy::default()
        });
        // Fully available but 15 % parity errors → quality 0.85 < 0.89.
        let erroneous = stats(100, 0, 15);
        let cmd = ctl.observe_cycle(&erroneous).expect("must adjust");
        assert!(cmd.delta > 20.0);
    }

    #[test]
    fn window_accumulates_before_deciding() {
        let mut ctl = controller(ControllerPolicy {
            window_cycles: 4,
            ..ControllerPolicy::default()
        });
        let bad = stats(50, 50, 0);
        for _ in 0..3 {
            assert_eq!(ctl.observe_cycle(&bad), None);
            assert_eq!(ctl.decisions(), 0);
        }
        assert!(ctl.observe_cycle(&bad).is_some());
        assert_eq!(ctl.decisions(), 1);
    }

    #[test]
    fn hvs_ceiling_is_a_genuine_threshold() {
        let cfg = InFrameConfig::paper();
        let meter = FlickerMeter::default();
        let ceiling = imperceptible_delta_ceiling(&cfg, &meter);
        assert!(ceiling > 0.0, "some amplitude must be invisible");
        if ceiling < 127.0 {
            // Just above the ceiling the meter must call it visible.
            let lin = |c: f64| (c.clamp(0.0, 255.0) / 255.0).powf(2.2);
            let probe: Vec<f64> = (0..256)
                .map(|i| {
                    lin(127.5
                        + if i % 2 == 0 {
                            ceiling as f64 + 1.0
                        } else {
                            -(ceiling as f64 + 1.0)
                        })
                })
                .collect();
            let v = meter.assess(&probe, cfg.refresh_hz, 0.0).visibility;
            assert!(v > 1.0, "δ={} should be visible, v={v}", ceiling + 1.0);
        }
        let policy = ControllerPolicy::with_hvs_ceiling(&cfg, &meter);
        assert!(policy.delta_max >= policy.delta_min);
    }

    #[test]
    fn suspect_health_backs_off_immediately() {
        let mut ctl = controller(ControllerPolicy {
            window_cycles: 1,
            ..ControllerPolicy::default()
        });
        let before = ctl.command();
        let cmd = ctl
            .set_health(ChannelHealth::Suspect)
            .expect("must back off");
        assert!(cmd.delta > before.delta, "δ must rise: {cmd:?}");
        assert_eq!(ctl.health(), ChannelHealth::Suspect);
        // Escalating to REACQUIRING keeps the backed-off command.
        assert_eq!(ctl.set_health(ChannelHealth::Reacquiring), None);
        // Re-lock restores the pre-suspect command.
        let restored = ctl.set_health(ChannelHealth::Locked).expect("must restore");
        assert_eq!(restored, before);
    }

    #[test]
    fn unhealthy_channel_never_reclaims() {
        let mut ctl = controller(ControllerPolicy {
            window_cycles: 1,
            ..ControllerPolicy::default()
        });
        let _ = ctl.set_health(ChannelHealth::Suspect);
        let after_backoff = ctl.command();
        // Perfect-looking stats while SUSPECT: reclaim is suppressed…
        let good = stats(100, 0, 0);
        for _ in 0..5 {
            assert_eq!(ctl.observe_cycle(&good), None);
        }
        assert_eq!(ctl.command(), after_backoff);
        // …but further degradation still acts.
        let bad = stats(50, 50, 0);
        let cmd = ctl.observe_cycle(&bad).expect("degrade still allowed");
        assert!(cmd.delta > after_backoff.delta);
    }

    #[test]
    fn redundant_health_reports_are_noops() {
        let mut ctl = controller(ControllerPolicy::default());
        assert_eq!(ctl.set_health(ChannelHealth::Locked), None);
        let _ = ctl.set_health(ChannelHealth::Suspect);
        assert_eq!(ctl.set_health(ChannelHealth::Suspect), None);
    }

    #[test]
    fn instrumented_controller_records_command_timeline() {
        let tele = Telemetry::new();
        let mut ctl = controller(ControllerPolicy {
            window_cycles: 1,
            ..ControllerPolicy::default()
        })
        .with_telemetry(&tele);
        // Backoff on SUSPECT, restore on re-lock, adapt on a bad window.
        ctl.set_health(ChannelHealth::Suspect).expect("backoff");
        ctl.set_health(ChannelHealth::Locked).expect("restore");
        ctl.observe_cycle(&stats(50, 50, 0)).expect("adapt");
        let s = tele.summary();
        assert_eq!(s.counter(names::control::BACKOFFS), 1);
        assert_eq!(s.counter(names::control::RESTORES), 1);
        assert_eq!(s.counter(names::control::ADAPTS), 1);
        // Gauges carry the command currently in force.
        let cmd = ctl.command();
        assert_eq!(s.gauge_f32(names::control::DELTA), Some(cmd.delta));
        assert_eq!(s.gauge(names::control::TAU), Some(cmd.tau as u64));
        // The timeline landed in the recorder, cause-tagged.
        let causes: Vec<CommandCause> = tele
            .recorder_dump()
            .iter()
            .filter_map(|r| match r.event {
                Event::Command { cause, .. } => Some(cause),
                _ => None,
            })
            .collect();
        assert_eq!(
            causes,
            vec![
                CommandCause::Backoff,
                CommandCause::Restore,
                CommandCause::Adapt
            ]
        );
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_tau_ladder_rejected() {
        let _ = controller(ControllerPolicy {
            taus: vec![12, 10],
            ..ControllerPolicy::default()
        });
    }
}
