//! Transport-level link simulation at GOB granularity.
//!
//! The pixel pipeline ([`crate::pipeline`]) models how captures become
//! per-GOB verdicts; this module starts where that leaves off and asks
//! the transport questions: does the fountain-coded carousel deliver
//! objects through per-GOB erasures, how much decode overhead ε does a
//! receiver pay, how long does a late joiner wait, and what does the
//! adaptive δ/τ controller do to a drifting channel?
//!
//! Each simulated cycle runs the *real* PHY encode/decode
//! ([`DataFrame::encode`] / [`dataframe::decode`]) — only the optics are
//! abstracted into a seeded per-GOB erasure process whose rate responds
//! to the commanded modulation (larger δ → crisper pattern → fewer
//! erasures; longer τ → more captures per cycle → fewer erasures) and to
//! scene-cut bursts. All randomness is seeded; time is simulated from τ
//! and the refresh rate, never the wall clock.

use inframe_code::parity::GobStats;
use inframe_code::prbs::Xoshiro256;
use inframe_core::dataframe::{self, DataFrame};
use inframe_core::layout::DataLayout;
use inframe_core::InFrameConfig;
use inframe_link::carousel::Carousel;
use inframe_link::control::{ControllerPolicy, ModulationCommand, ModulationController};
use inframe_link::feedback::{FeedbackReport, RegionQuality};
use inframe_link::session::{CompletionTarget, ReceiverSession, SessionState};

/// Scene-cut burst process: every `period` cycles the video cuts, and for
/// `len` cycles the channel erases GOBs at `erasure` instead of its base
/// rate (texture transients swamp the chessboard).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstModel {
    /// Cycles between scene cuts.
    pub period: u64,
    /// Burst length, cycles.
    pub len: u64,
    /// Per-GOB erasure probability inside a burst.
    pub erasure: f64,
}

impl BurstModel {
    /// Whether `cycle` falls inside a burst.
    pub fn active(&self, cycle: u64) -> bool {
        self.period > 0 && cycle % self.period < self.len
    }
}

/// Seeded per-GOB erasure channel with modulation response.
#[derive(Debug, Clone)]
pub struct GobChannel {
    rng: Xoshiro256,
    /// Erasure probability at the reference modulation (δ=20, τ=12).
    pub base_erasure: f64,
    /// Optional scene-cut bursts.
    pub burst: Option<BurstModel>,
    delta: f32,
    tau: u32,
}

/// Reference modulation for the erasure response.
const DELTA_REF: f64 = 20.0;
const TAU_REF: f64 = 12.0;

/// Decision-threshold cliff, calibrated against the full pixel chain
/// (`tests/linksim_calibration.rs`). The demodulator's verdict threshold
/// `T + m` is fixed in code values, so as δ falls toward it the per-Block
/// score distribution slides under the margin and erasures rise along a
/// logistic wall rather than the smooth power law. Midpoint and width are
/// fitted to measured `Scale::Quick` erasure on the gray scenario
/// (δ ∈ {10, 12, 14, 16, 20, 26} → erasure {0.88, 0.75, 0.33, 0.07,
/// 0.007, 0.016}).
const DELTA_CLIFF_MID: f64 = 13.3;
const DELTA_CLIFF_WIDTH: f64 = 1.2;

/// Probability mass added by the decision-threshold cliff at `delta`.
fn threshold_cliff(delta: f64) -> f64 {
    1.0 / (1.0 + ((delta - DELTA_CLIFF_MID) / DELTA_CLIFF_WIDTH).exp())
}

impl GobChannel {
    /// A channel at the reference modulation.
    pub fn new(base_erasure: f64, burst: Option<BurstModel>, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&base_erasure), "erasure out of range");
        Self {
            rng: Xoshiro256::seed_from_u64(seed ^ 0x6C69_6E6B),
            base_erasure,
            burst,
            delta: DELTA_REF as f32,
            tau: TAU_REF as u32,
        }
    }

    /// Applies a modulation command (changes the erasure response).
    pub fn set_modulation(&mut self, cmd: ModulationCommand) {
        self.delta = cmd.delta;
        self.tau = cmd.tau;
    }

    /// The effective per-GOB erasure probability at `cycle`.
    ///
    /// Response model, calibrated against the pixel chain
    /// (`tests/linksim_calibration.rs`): a smooth term scaling the base
    /// rate as `(δ_ref/δ)²` (demodulation SNR is linear in δ) and
    /// `τ_ref/τ` (capture opportunities per cycle are linear in τ),
    /// composed with the decision-threshold cliff — the logistic wall
    /// the fixed verdict threshold raises as δ falls toward `T + m`.
    /// `base_erasure == 0` denotes the idealized exact channel and
    /// bypasses the response model entirely (bursts still apply).
    pub fn erasure_at(&self, cycle: u64) -> f64 {
        if let Some(b) = self.burst {
            if b.active(cycle) {
                return b.erasure.clamp(0.0, 0.98);
            }
        }
        if self.base_erasure == 0.0 {
            return 0.0;
        }
        let smooth = self.base_erasure
            * (DELTA_REF / self.delta as f64).powi(2)
            * (TAU_REF / self.tau as f64);
        let cliff = threshold_cliff(self.delta as f64);
        (1.0 - (1.0 - smooth) * (1.0 - cliff)).clamp(0.0, 0.98)
    }

    /// Transmits one data frame: per-GOB i.i.d. erasure at the current
    /// rate, surviving GOBs delivered verbatim. Returns row-major
    /// per-Block verdicts for [`dataframe::decode`].
    pub fn transmit(
        &mut self,
        layout: &DataLayout,
        frame: &DataFrame,
        cycle: u64,
    ) -> Vec<Option<bool>> {
        let p = self.erasure_at(cycle);
        let erased: Vec<bool> = (0..layout.num_gobs())
            .map(|_| self.rng.next_f64() < p)
            .collect();
        (0..layout.num_blocks())
            .map(|i| {
                let (bx, by) = (i % layout.blocks_x, i / layout.blocks_x);
                if erased[layout.gob_of_block(bx, by)] {
                    None
                } else {
                    Some(frame.bit(bx, by))
                }
            })
            .collect()
    }
}

/// A window during which one spatial region is fully occluded (a hand,
/// a passer-by, a sticker on the display) for this receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionOcclusion {
    /// Region index in the channel's [`RegionMap`](inframe_core::region::RegionMap).
    pub region: usize,
    /// First occluded cycle (inclusive).
    pub from_cycle: u64,
    /// First clear cycle (exclusive; `u64::MAX` = permanent).
    pub until_cycle: u64,
}

impl RegionOcclusion {
    /// Whether the window covers `cycle`.
    pub fn active(&self, cycle: u64) -> bool {
        (self.from_cycle..self.until_cycle).contains(&cycle)
    }
}

/// A per-GOB erasure channel with *per-region* state: each spatial
/// sub-channel gets its own base erasure, its own modulation response
/// (the per-region δ controllers command regions independently) and its
/// own occlusion windows. The heterogeneity is the whole point — a
/// frame-wide channel would force every region to the worst region's
/// operating point.
#[derive(Debug, Clone)]
pub struct RegionChannel {
    map: inframe_core::region::RegionMap,
    /// One response model per region (rngs unused; draws come from
    /// `rng` so region count does not perturb the noise stream).
    channels: Vec<GobChannel>,
    occlusions: Vec<RegionOcclusion>,
    rng: Xoshiro256,
}

impl RegionChannel {
    /// A channel over `map` with one base erasure rate per region.
    ///
    /// # Panics
    /// Panics unless `base_erasures` has exactly one entry per region.
    pub fn new(map: inframe_core::region::RegionMap, base_erasures: &[f64], seed: u64) -> Self {
        assert_eq!(
            base_erasures.len(),
            map.num_regions(),
            "one base erasure per region"
        );
        let channels = base_erasures
            .iter()
            .enumerate()
            .map(|(r, &e)| GobChannel::new(e, None, seed ^ (r as u64) << 24))
            .collect();
        Self {
            map,
            channels,
            occlusions: Vec::new(),
            rng: Xoshiro256::seed_from_u64(seed ^ 0x5245_4749_4F4E),
        }
    }

    /// The region map.
    pub fn region_map(&self) -> &inframe_core::region::RegionMap {
        &self.map
    }

    /// Applies a modulation command to one region's response model.
    pub fn set_region_modulation(&mut self, region: usize, cmd: ModulationCommand) {
        self.channels[region].set_modulation(cmd);
    }

    /// Schedules an occlusion window.
    pub fn add_occlusion(&mut self, occ: RegionOcclusion) {
        assert!(occ.region < self.map.num_regions(), "region out of range");
        assert!(occ.from_cycle < occ.until_cycle, "empty occlusion window");
        self.occlusions.push(occ);
    }

    /// Whether `region` is occluded at `cycle`.
    pub fn occluded(&self, region: usize, cycle: u64) -> bool {
        self.occlusions
            .iter()
            .any(|o| o.region == region && o.active(cycle))
    }

    /// The effective erasure probability of `region` at `cycle` (1 when
    /// occluded).
    pub fn erasure_at(&self, region: usize, cycle: u64) -> f64 {
        if self.occluded(region, cycle) {
            1.0
        } else {
            self.channels[region].erasure_at(cycle)
        }
    }

    /// Transmits one cycle's channel-order payload bits: per-GOB i.i.d.
    /// erasure at the GOB's region rate, occluded regions fully erased.
    /// Returns one `Option<bool>` per payload bit, ready for
    /// [`inframe_net::NetReceiver::push_cycle`].
    pub fn transmit_payload(&mut self, payload: &[bool], cycle: u64) -> Vec<Option<bool>> {
        let bits_per_gob = self.map.region_payload_bits() / self.map.gobs_per_region();
        let num_gobs = self.map.num_regions() * self.map.gobs_per_region();
        assert_eq!(
            payload.len(),
            num_gobs * bits_per_gob,
            "payload is not a whole frame"
        );
        let mut out: Vec<Option<bool>> = payload.iter().map(|&b| Some(b)).collect();
        for g in 0..num_gobs {
            let region = self.map.region_of_gob(g);
            let p = self.erasure_at(region, cycle);
            // One draw per GOB regardless of p keeps runs comparable
            // across erasure settings with the same seed.
            let erased = self.rng.next_f64() < p;
            if erased {
                out[g * bits_per_gob..(g + 1) * bits_per_gob].fill(None);
            }
        }
        out
    }
}

/// One object riding the scenario's carousel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioObject {
    /// Transport object id.
    pub id: u16,
    /// Carousel priority.
    pub priority: u32,
    /// Object length, bytes (content is generated from the seed).
    pub len: usize,
}

/// Configuration of a transport scenario run.
#[derive(Debug, Clone)]
pub struct LinkScenarioConfig {
    /// PHY configuration (the coding mode sets the cycle capacity).
    pub inframe: InFrameConfig,
    /// Objects on the carousel.
    pub objects: Vec<ScenarioObject>,
    /// Base per-GOB erasure probability.
    pub erasure: f64,
    /// Optional scene-cut bursts.
    pub burst: Option<BurstModel>,
    /// Sender cycles that elapse before the receiver joins.
    pub join_cycle: u64,
    /// Receiver cycles to run before giving up.
    pub max_cycles: u64,
    /// Master seed (object content, channel noise).
    pub seed: u64,
    /// Run the adaptive δ/τ controller in the loop.
    pub adaptive: bool,
    /// Route the controller's observations through a modeled
    /// back-channel (delay, loss, reordering) instead of the
    /// instantaneous ideal. The controller then reacts to quantized
    /// [`RegionQuality`] reports
    /// that arrive late or not at all — a blackout silences the loop
    /// while the rateless carousel keeps completing.
    pub feedback: Option<crate::backchannel::BackchannelConfig>,
}

impl LinkScenarioConfig {
    /// A paper-scale baseline: RS{10} coding (the transport needs
    /// within-cycle healing to ride GOB erasures), one 4 KiB object,
    /// prompt join, no bursts, controller off.
    pub fn baseline(erasure: f64, seed: u64) -> Self {
        let mut inframe = InFrameConfig::paper();
        inframe.coding = inframe_core::CodingMode::ReedSolomon { parity_bytes: 10 };
        Self {
            inframe,
            objects: vec![ScenarioObject {
                id: 1,
                priority: 1,
                len: 4096,
            }],
            erasure,
            burst: None,
            join_cycle: 0,
            max_cycles: 4000,
            seed,
            adaptive: false,
            feedback: None,
        }
    }
}

/// What a scenario run measured.
#[derive(Debug, Clone)]
pub struct LinkScenarioOutcome {
    /// Whether every object was recovered (and byte-identical).
    pub completed: bool,
    /// Receiver cycles until the completion target was met.
    pub cycles_to_complete: Option<u64>,
    /// Simulated seconds from join to the first completed object.
    pub time_to_first_object_s: Option<f64>,
    /// Worst per-object decode overhead ε (`received/K − 1`).
    pub epsilon_max: Option<f64>,
    /// Delivered object bits per simulated second, from join to target
    /// completion (or to the cycle cap when incomplete).
    pub goodput_bps: f64,
    /// Aggregate GOB statistics over the receiver's cycles.
    pub stats: GobStats,
    /// Modulation commands the controller issued (empty when off).
    pub commands: Vec<ModulationCommand>,
    /// Final session state.
    pub final_state: SessionState,
}

/// Deterministic object content.
fn object_bytes(len: usize, id: u16, seed: u64) -> Vec<u8> {
    let mut rng = Xoshiro256::seed_from_u64(seed ^ (id as u64) << 32 ^ 0x000B_1EC7);
    (0..len).map(|_| rng.next_byte()).collect()
}

/// Runs one transport scenario.
///
/// # Panics
/// Panics on an object list that is empty or an erasure rate outside
/// `[0, 1)`.
pub fn run_link_scenario(cfg: &LinkScenarioConfig) -> LinkScenarioOutcome {
    assert!(
        !cfg.objects.is_empty(),
        "scenario needs at least one object"
    );
    cfg.inframe.validate();
    let layout = DataLayout::from_config(&cfg.inframe);
    let mut carousel = Carousel::for_channel(&layout, cfg.inframe.coding);
    let mut originals = Vec::new();
    for o in &cfg.objects {
        let data = object_bytes(o.len, o.id, cfg.seed);
        carousel.add_object(o.id, o.priority, &data);
        originals.push((o.id, data));
    }

    // The sender broadcast before this receiver tuned in.
    for _ in 0..cfg.join_cycle {
        let _ = carousel.next_cycle_payload();
    }

    let ids: Vec<u16> = cfg.objects.iter().map(|o| o.id).collect();
    let mut session = ReceiverSession::new(
        &cfg.inframe,
        carousel.geometry(),
        CompletionTarget::AllOf(ids),
    );
    let mut channel = GobChannel::new(cfg.erasure, cfg.burst, cfg.seed);
    let mut controller = cfg
        .adaptive
        .then(|| ModulationController::new(&cfg.inframe, ControllerPolicy::default()));
    let mut backchannel = cfg
        .feedback
        .clone()
        .map(|fb| crate::backchannel::Backchannel::new(fb, cfg.seed ^ 0xBAC_C4A7));
    channel.set_modulation(ModulationCommand {
        delta: cfg.inframe.delta,
        tau: cfg.inframe.tau,
    });

    let mut commands = Vec::new();
    let mut tau = cfg.inframe.tau;
    let mut elapsed_s = 0.0f64;
    let mut time_to_first = None;
    let mut completion_time = None;
    for cycle in 0..cfg.max_cycles {
        let payload = carousel.next_cycle_payload();
        let frame = DataFrame::encode(&layout, &payload, cfg.inframe.coding);
        let received = channel.transmit(&layout, &frame, cfg.join_cycle + cycle);
        let (bits, stats) = dataframe::decode(&layout, &received, cfg.inframe.coding);
        let report = session.push_cycle(&bits, &stats);
        elapsed_s += tau as f64 / cfg.inframe.refresh_hz;
        if time_to_first.is_none() && !report.completed.is_empty() {
            time_to_first = Some(elapsed_s);
        }
        if let Some(ctl) = controller.as_mut() {
            if let Some(bc) = backchannel.as_mut() {
                // Closed loop over the lossy return path: the receiver
                // quantizes its cycle stats into a feedback report; the
                // controller only sees what survives the channel, when
                // it arrives.
                let mut report = FeedbackReport::new(0, cycle);
                report.push_region(RegionQuality::quantize(
                    stats.available_ratio(),
                    stats.error_rate(),
                ));
                bc.send(&report, cycle);
                bc.poll(cycle, |rep| {
                    if let Some(q) = rep.regions().first() {
                        if let Some(cmd) = ctl.observe_cycle(&q.to_stats()) {
                            channel.set_modulation(cmd);
                            tau = cmd.tau;
                            commands.push(cmd);
                        }
                    }
                });
            } else if let Some(cmd) = ctl.observe_cycle(&stats) {
                channel.set_modulation(cmd);
                tau = cmd.tau;
                commands.push(cmd);
            }
        }
        if session.is_complete() {
            completion_time = Some(elapsed_s);
            break;
        }
    }

    let all_match = originals
        .iter()
        .all(|(id, data)| session.object(*id) == Some(&data[..]));
    let completed = session.is_complete() && all_match;
    let delivered_bits: usize = originals
        .iter()
        .filter(|(id, _)| session.object(*id).is_some())
        .map(|(_, d)| d.len() * 8)
        .sum();
    let span = completion_time.unwrap_or(elapsed_s).max(f64::EPSILON);
    let epsilon_max = originals
        .iter()
        .filter_map(|(id, _)| session.epsilon(*id))
        .fold(None, |acc: Option<f64>, e| {
            Some(acc.map_or(e, |a| a.max(e)))
        });
    LinkScenarioOutcome {
        completed,
        cycles_to_complete: completed.then(|| session.cycles_processed()),
        time_to_first_object_s: time_to_first,
        epsilon_max,
        goodput_bps: delivered_bits as f64 / span,
        stats: *session.stats(),
        commands,
        final_state: session.state(),
    }
}

/// Runs [`run_link_scenario`] across an erasure sweep (the 5–30 % band
/// the transport must ride), returning `(erasure, outcome)` pairs.
pub fn erasure_sweep(
    base: &LinkScenarioConfig,
    erasures: &[f64],
) -> Vec<(f64, LinkScenarioOutcome)> {
    erasures
        .iter()
        .map(|&e| {
            let cfg = LinkScenarioConfig {
                erasure: e,
                ..base.clone()
            };
            (e, run_link_scenario(&cfg))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_channel_delivers_with_zero_overhead() {
        let cfg = LinkScenarioConfig::baseline(0.0, 7);
        let out = run_link_scenario(&cfg);
        assert!(out.completed, "final state {:?}", out.final_state);
        assert_eq!(out.epsilon_max, Some(0.0));
        assert!(out.goodput_bps > 0.0);
        // K = 79 symbols at 1/cycle: exactly 79 cycles.
        assert_eq!(out.cycles_to_complete, Some(79));
    }

    #[test]
    fn twenty_percent_erasure_meets_epsilon_bound() {
        let cfg = LinkScenarioConfig::baseline(0.20, 11);
        let out = run_link_scenario(&cfg);
        assert!(out.completed, "final state {:?}", out.final_state);
        assert!(
            out.epsilon_max.unwrap() <= 0.15,
            "ε = {:?}",
            out.epsilon_max
        );
        // The channel really was lossy (RS mode books failed codewords
        // as erroneous, not unavailable).
        assert!(out.stats.error_rate() > 0.0);
    }

    #[test]
    fn late_joiner_still_completes() {
        let mut cfg = LinkScenarioConfig::baseline(0.10, 13);
        // Join after the systematic pass is long gone (K = 79).
        cfg.join_cycle = 200;
        let out = run_link_scenario(&cfg);
        assert!(out.completed, "final state {:?}", out.final_state);
        assert!(out.time_to_first_object_s.unwrap() > 0.0);
    }

    #[test]
    fn erasure_sweep_degrades_gracefully() {
        let base = LinkScenarioConfig::baseline(0.0, 17);
        let sweep = erasure_sweep(&base, &[0.05, 0.30]);
        assert!(sweep.iter().all(|(_, o)| o.completed));
        let (_, mild) = &sweep[0];
        let (_, harsh) = &sweep[1];
        assert!(
            harsh.cycles_to_complete.unwrap() > mild.cycles_to_complete.unwrap(),
            "more erasure must cost more cycles: {:?} vs {:?}",
            mild.cycles_to_complete,
            harsh.cycles_to_complete
        );
    }

    #[test]
    fn scene_cut_bursts_slow_but_do_not_kill_delivery() {
        let mut cfg = LinkScenarioConfig::baseline(0.05, 19);
        cfg.burst = Some(BurstModel {
            period: 25,
            len: 5,
            erasure: 0.9,
        });
        let out = run_link_scenario(&cfg);
        assert!(out.completed, "final state {:?}", out.final_state);
        let calm = run_link_scenario(&LinkScenarioConfig::baseline(0.05, 19));
        assert!(out.cycles_to_complete.unwrap() >= calm.cycles_to_complete.unwrap());
    }

    #[test]
    fn controller_reacts_to_a_harsh_channel() {
        let mut cfg = LinkScenarioConfig::baseline(0.35, 23);
        cfg.adaptive = true;
        let out = run_link_scenario(&cfg);
        assert!(
            !out.commands.is_empty(),
            "controller must issue commands on a degraded channel"
        );
        // The loop closes: commands push δ up (or τ), which lowers the
        // effective erasure and lets the object through.
        assert!(out.completed, "final state {:?}", out.final_state);
        assert!(out.commands.iter().any(|c| c.delta > 20.0 || c.tau > 12));
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = LinkScenarioConfig::baseline(0.20, 29);
        let a = run_link_scenario(&cfg);
        let b = run_link_scenario(&cfg);
        assert_eq!(a.cycles_to_complete, b.cycles_to_complete);
        assert_eq!(a.epsilon_max, b.epsilon_max);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn controller_still_reacts_over_a_delayed_backchannel() {
        let mut cfg = LinkScenarioConfig::baseline(0.35, 23);
        cfg.adaptive = true;
        cfg.feedback = Some(crate::backchannel::BackchannelConfig {
            delay_cycles: 3,
            ..crate::backchannel::BackchannelConfig::clean()
        });
        let out = run_link_scenario(&cfg);
        assert!(
            !out.commands.is_empty(),
            "quantized, delayed reports must still drive the controller"
        );
        assert!(out.completed, "final state {:?}", out.final_state);
    }

    #[test]
    fn backchannel_blackout_silences_the_loop_but_not_the_carousel() {
        let mut cfg = LinkScenarioConfig::baseline(0.30, 23);
        cfg.adaptive = true;
        cfg.feedback = Some(crate::backchannel::BackchannelConfig::dead());
        let out = run_link_scenario(&cfg);
        assert!(
            out.commands.is_empty(),
            "a dead back-channel must silence the controller"
        );
        // Graceful degradation: the rateless schedule still completes,
        // it just pays the un-adapted erasure the whole way.
        assert!(out.completed, "final state {:?}", out.final_state);
        let mut open = LinkScenarioConfig::baseline(0.30, 23);
        open.adaptive = false;
        let open_out = run_link_scenario(&open);
        assert_eq!(
            out.cycles_to_complete, open_out.cycles_to_complete,
            "a silent loop must behave exactly like the open loop"
        );
    }
}
