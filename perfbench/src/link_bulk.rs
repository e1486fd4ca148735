//! `link_bulk`: the fountain carousel at GOB level with large objects.
//!
//! Four 64 KiB objects ride an RS{10} [`Carousel`] through a bursty
//! [`GobChannel`] at about 20 % per-GOB erasure, with the adaptive δ/τ
//! controller on, into one cycle-level [`ReceiverSession`]. [`Bulk`] makes
//! the calls [`inframe_sim::run_link_scenario`] makes (without a modeled
//! back-channel), in the same order, so its outcome matches the
//! simulator's; on top it byte-checks every completed object and times
//! every layer call.

use crate::trace::{self, span, Layer};
use crate::{arrival_lead, mix, run_episodes, Counter, Episode, Measure, Report, SimLedger};
use inframe_code::prbs::Xoshiro256;
use inframe_core::dataframe::{self, DataFrame};
use inframe_core::layout::DataLayout;
use inframe_core::{CodingMode, InFrameConfig};
use inframe_link::carousel::Carousel;
use inframe_link::control::{ControllerPolicy, ModulationCommand, ModulationController};
use inframe_link::session::{CompletionTarget, ReceiverSession};
use inframe_sim::linksim::{BurstModel, GobChannel, LinkScenarioOutcome, ScenarioObject};
use inframe_sim::LinkScenarioConfig;
use std::time::Instant;

/// The simulator's object content.
fn object_bytes(len: usize, id: u16, seed: u64) -> Vec<u8> {
    let mut rng = Xoshiro256::seed_from_u64(seed ^ (id as u64) << 32 ^ 0x000B_1EC7);
    (0..len).map(|_| rng.next_byte()).collect()
}

/// One transport scenario, stepped a cycle at a time.
pub struct Bulk {
    cfg: LinkScenarioConfig,
    layout: DataLayout,
    carousel: Carousel,
    originals: Vec<(u16, Vec<u8>)>,
    session: ReceiverSession,
    channel: GobChannel,
    controller: Option<ModulationController>,
    commands: Vec<ModulationCommand>,
    tau: u32,
    elapsed_s: f64,
    time_to_first: Option<f64>,
    completion_time: Option<f64>,
    cycle: u64,
    /// When each object arrived at the sender, s (≤ 0: before cycle 0).
    pub arrival_s: Vec<f64>,
}

impl Bulk {
    /// Encodes the objects onto the carousel and builds the receiver,
    /// channel and controller exactly as `run_link_scenario` does.
    ///
    /// # Panics
    /// Panics on a configuration with a modeled back-channel (the
    /// workload runs the controller on direct observations).
    pub fn new(cfg: &LinkScenarioConfig) -> Self {
        Self::with_policy(cfg, ControllerPolicy::default())
    }

    /// [`Bulk::new`] with the controller tuned by `policy`.
    ///
    /// # Panics
    /// See [`Bulk::new`].
    pub fn with_policy(cfg: &LinkScenarioConfig, policy: ControllerPolicy) -> Self {
        assert!(cfg.feedback.is_none(), "back-channel runs are not modeled");
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
        for _ in 0..cfg.join_cycle {
            let _ = carousel.next_cycle_payload();
        }
        let ids: Vec<u16> = cfg.objects.iter().map(|o| o.id).collect();
        let session = ReceiverSession::new(
            &cfg.inframe,
            carousel.geometry(),
            CompletionTarget::AllOf(ids),
        );
        let mut channel = GobChannel::new(cfg.erasure, cfg.burst, cfg.seed);
        let controller = cfg
            .adaptive
            .then(|| ModulationController::new(&cfg.inframe, policy));
        channel.set_modulation(ModulationCommand {
            delta: cfg.inframe.delta,
            tau: cfg.inframe.tau,
        });
        Self {
            layout,
            carousel,
            originals,
            session,
            channel,
            controller,
            commands: Vec::new(),
            tau: cfg.inframe.tau,
            elapsed_s: 0.0,
            time_to_first: None,
            completion_time: None,
            cycle: 0,
            arrival_s: vec![0.0; cfg.objects.len()],
            cfg: cfg.clone(),
        }
    }

    fn epsilon_max(&self) -> Option<f64> {
        self.originals
            .iter()
            .filter_map(|(id, _)| self.session.epsilon(*id))
            .fold(None, |acc: Option<f64>, e| {
                Some(acc.map_or(e, |a| a.max(e)))
            })
    }

    /// The simulator's outcome for this run.
    pub fn outcome(self) -> LinkScenarioOutcome {
        let s = &self.session;
        let all_match = self
            .originals
            .iter()
            .all(|(id, data)| s.object(*id) == Some(&data[..]));
        let completed = s.is_complete() && all_match;
        let delivered_bits: usize = self
            .originals
            .iter()
            .filter(|(id, _)| s.object(*id).is_some())
            .map(|(_, d)| d.len() * 8)
            .sum();
        let span_s = self
            .completion_time
            .unwrap_or(self.elapsed_s)
            .max(f64::EPSILON);
        LinkScenarioOutcome {
            completed,
            cycles_to_complete: completed.then(|| s.cycles_processed()),
            time_to_first_object_s: self.time_to_first,
            epsilon_max: self.epsilon_max(),
            goodput_bps: delivered_bits as f64 / span_s,
            stats: *s.stats(),
            commands: self.commands,
            final_state: s.state(),
        }
    }
}

impl Episode for Bulk {
    /// Whether the session completed or the cycle cap was reached.
    fn finished(&self) -> bool {
        self.completion_time.is_some() || self.cycle >= self.cfg.max_cycles
    }

    /// Runs one cycle: carousel payload and PHY encode (sender), channel,
    /// PHY decode and session (one receiver operation), controller.
    /// Returns the simulated seconds the cycle took.
    fn step(&mut self, m: &mut Measure, sim: &mut SimLedger) -> f64 {
        let cycle = self.cycle;
        self.cycle += 1;
        trace::set_request((1 << 32) | cycle);
        let coding = self.cfg.inframe.coding;
        let t = Instant::now();
        let payload = span(Layer::CarouselPayload, || {
            self.carousel.next_cycle_payload()
        });
        let frame = span(Layer::DataframeEncode, || {
            DataFrame::encode(&self.layout, &payload, coding)
        });
        m.sender_ns += t.elapsed().as_nanos() as u64;
        m.sender_ops += 1;
        let received = span(Layer::SimChannel, || {
            self.channel
                .transmit(&self.layout, &frame, self.cfg.join_cycle + cycle)
        });
        let t = Instant::now();
        let (bits, stats) = span(Layer::DataframeDecode, || {
            dataframe::decode(&self.layout, &received, coding)
        });
        let report = span(Layer::LinkSession, || {
            self.session.push_cycle(&bits, &stats)
        });
        m.rx(t.elapsed().as_nanos() as u64);
        let dt = self.tau as f64 / self.cfg.inframe.refresh_hz;
        self.elapsed_s += dt;
        if self.time_to_first.is_none() && !report.completed.is_empty() {
            self.time_to_first = Some(self.elapsed_s);
        }
        for id in &report.completed {
            // Byte check of every completed object.
            let at = self.originals.iter().position(|(o, _)| o == id);
            let original = at.map(|i| &self.originals[i].1);
            match (original, self.session.object(*id)) {
                (Some(want), Some(got)) if want[..] == got[..] => {
                    let arrived = at.map_or(0.0, |i| self.arrival_s[i]);
                    sim.deliver(got.len(), arrived, self.elapsed_s);
                }
                (want, got) => {
                    let at = want
                        .zip(got)
                        .and_then(|(w, g)| w.iter().zip(g).position(|(x, y)| x != y));
                    eprintln!(
                        "corrupt delivery: object {id} at cycle {cycle}, first wrong byte {at:?}"
                    );
                    sim.corrupt += 1;
                }
            }
        }
        if let Some(ctl) = self.controller.as_mut() {
            if let Some(cmd) = span(Layer::LinkControl, || ctl.observe_cycle(&stats)) {
                self.channel.set_modulation(cmd);
                self.tau = cmd.tau;
                self.commands.push(cmd);
            }
        }
        if self.session.is_complete() {
            self.completion_time = Some(self.elapsed_s);
        }
        dt
    }

    fn expected(&self) -> u64 {
        self.originals.len() as u64
    }

    fn cycles(&self) -> u64 {
        self.cycle
    }

    /// Layer counters read from the public getters.
    fn counters(&self) -> Vec<Counter> {
        vec![
            (
                "link.session.epsilon_max",
                self.epsilon_max().unwrap_or(0.0),
            ),
            ("link.control.commands", self.commands.len() as f64),
        ]
    }
}

/// Objects per episode.
const OBJECTS: u16 = 4;
/// Object size, bytes. (At 256 KiB one episode takes minutes of host time.)
const OBJECT_LEN: usize = 64 * 1024;

/// Scene cuts recur every this many cycles and erase a fifth of them.
const BURST_PERIOD: u64 = 400;

/// Episode `episode` of the workload for `seed`: [`OBJECTS`] objects of
/// [`OBJECT_LEN`] bytes over RS{10} coding, 3 % GOB erasure plus
/// scene-cut bursts that erase every GOB of a fifth of the cycles (≈22 %
/// on average), controller on. Whole-cycle losses make the decoder repair
/// from dense rows while damaging few frames: the symbol scanner maps lost
/// bits to zeros and trusts a CRC-16, so scattered codeword failures would
/// now and then complete an object with wrong bytes.
pub fn episode_config(seed: u64, episode: u64) -> LinkScenarioConfig {
    let s = mix(seed ^ episode.wrapping_mul(0xD1B5_4A32_D192_ED03) ^ 0xB01C);
    let mut inframe = InFrameConfig::paper();
    inframe.coding = CodingMode::ReedSolomon { parity_bytes: 10 };
    LinkScenarioConfig {
        inframe,
        objects: (0..OBJECTS)
            .map(|i| ScenarioObject {
                id: i + 1,
                priority: 1,
                len: OBJECT_LEN,
            })
            .collect(),
        erasure: 0.03,
        burst: Some(BurstModel {
            period: BURST_PERIOD,
            len: BURST_PERIOD / 5,
            erasure: 0.98,
        }),
        // The receiver tunes in at a seeded phase of the scene-cut cycle.
        join_cycle: s % BURST_PERIOD,
        max_cycles: 200_000,
        seed: s,
        adaptive: true,
        feedback: None,
    }
}

/// The controller policy: steer codeword availability to 99.5 %, which
/// only ever raises δ or τ. The default 92 % target keeps ~8 % of
/// codewords failing, and frames damaged by those failures occasionally
/// pass the symbol CRC-16 and complete an object with wrong bytes.
fn policy() -> ControllerPolicy {
    ControllerPolicy {
        target_availability: 0.995,
        hysteresis: 0.005,
        ..ControllerPolicy::default()
    }
}

/// Episodes in the simulated slice (episode 0 is also the warm-up).
const SIM_EPISODES: u64 = 2;

/// Runs the workload: episodes until the slice is done and `seconds` of
/// timed cycles have passed.
pub fn run(seed: u64, seconds: f64, trace_mode: bool) -> Report {
    let (mut report, episodes) = run_episodes(seconds, trace_mode, SIM_EPISODES, |e| {
        let cfg = episode_config(seed, e);
        let mut bulk = Bulk::with_policy(&cfg, policy());
        let cycle_s = cfg.inframe.tau as f64 / cfg.inframe.refresh_hz;
        bulk.arrival_s = (0..cfg.objects.len() as u64)
            .map(|i| -cycle_s * arrival_lead(cfg.seed, i))
            .collect();
        bulk
    });
    report.notes.push(format!(
        "link_bulk: {OBJECTS} x {} KiB objects, RS{{10}}, {episodes} episodes ({SIM_EPISODES} in the slice, episode 0 is warm-up), {} timed cycles",
        OBJECT_LEN / 1024,
        report.untraced.blocks + report.traced.blocks
    ));
    report
}
