//! `net_fleet`: the addressed network stack at GOB level.
//!
//! One [`NetSender`] on the paper 5×3 tiling feeds a few dozen
//! [`NetReceiver`]s, each through its own [`RegionChannel`] (mixed
//! per-region erasure, one occlusion window), with selective-repeat ARQ
//! over lossy [`Backchannel`]s and a [`RegionControllerBank`] re-modulating
//! δ. [`Fleet`] makes exactly the calls [`inframe_sim::run_net_scenario`]
//! makes, in the same order, so its ledgers match the simulator's; on top
//! it byte-checks every delivered datagram and times every layer call.

use crate::trace::{self, span, Layer};
use crate::{arrival_lead, mix, run_episodes, Counter, Episode, Measure, Report, SimLedger};
use inframe_core::layout::DataLayout;
use inframe_core::region::RegionMap;
use inframe_core::InFrameConfig;
use inframe_link::control::ControllerPolicy;
use inframe_net::{
    AddressFilter, ArqMode, ArqPolicy, DeadlineClass, MacAddr, NetReceiver, NetSender,
    RegionControllerBank, StreamQos,
};
use inframe_sim::netsim::{
    ClosedLoopSpec, FlowDelivery, LoopStats, NetDatagramSpec, NetReceiverSpec, NetStreamSpec,
    ReceiverOutcome,
};
use inframe_sim::{
    Backchannel, BackchannelConfig, NetScenarioConfig, NetScenarioOutcome, RegionChannel,
    RegionOcclusion,
};
use std::time::Instant;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01B3;

/// The simulator's datagram bytes: SplitMix64 over (seed, datagram index).
fn datagram_bytes(seed: u64, index: usize, len: usize) -> Vec<u8> {
    let mut state = seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    (0..len).map(|_| next() as u8).collect()
}

/// Reusable buffers for the datagrams one receive call pops, so the
/// byte check runs outside the receiver's span without allocating in it.
#[derive(Debug, Default)]
pub(crate) struct Popped {
    bufs: Vec<(u8, Vec<u8>)>,
    n: usize,
}

impl Popped {
    /// Pops every ready datagram of `streams` from `rx`.
    pub fn pop_all(&mut self, rx: &mut NetReceiver, streams: impl Iterator<Item = u8>) {
        self.n = 0;
        for id in streams {
            loop {
                if self.n == self.bufs.len() {
                    self.bufs.push((id, Vec::new()));
                }
                let slot = &mut self.bufs[self.n];
                if !rx.pop_datagram(id, &mut slot.1) {
                    break;
                }
                slot.0 = id;
                self.n += 1;
            }
        }
    }

    /// The datagrams the last [`Popped::pop_all`] returned, as
    /// `(stream, bytes)`.
    pub fn iter(&self) -> impl Iterator<Item = (u8, &[u8])> {
        self.bufs[..self.n].iter().map(|(s, b)| (*s, b.as_slice()))
    }
}

struct Station {
    rx: NetReceiver,
    chan: RegionChannel,
    bc: Option<Backchannel>,
    expected: Vec<FlowDelivery>,
    completed_cycle: Option<u64>,
    /// Datagram indices addressed here and not yet delivered.
    pending: Vec<usize>,
}

/// One addressed scenario, stepped a cycle at a time.
pub struct Fleet {
    config: NetScenarioConfig,
    tx: NetSender,
    bank: Option<RegionControllerBank>,
    payloads: Vec<Vec<u8>>,
    stations: Vec<Station>,
    popped: Popped,
    cycle: u64,
    loop_stats: Option<LoopStats>,
    prev_mode: Option<ArqMode>,
    done: bool,
    /// Largest open-decoder count any receiver held after a cycle.
    pub open_decoders_max: usize,
    /// Largest retransmit backlog the sender held after a cycle.
    pub retransmit_backlog_max: usize,
    /// When each datagram arrived at the sender, s (≤ 0: before cycle 0).
    pub arrival_s: Vec<f64>,
    cycle_s: f64,
}

impl Fleet {
    /// Builds the sender, receivers, channels and back-channels exactly as
    /// `run_net_scenario` does, and queues the traffic.
    pub fn new(config: &NetScenarioConfig) -> Self {
        let policy = config.closed_loop.as_ref().map(|cl| ControllerPolicy {
            delta_step: cl.delta_step,
            target_availability: 0.985,
            hysteresis: 0.008,
            ..ControllerPolicy::default()
        });
        Self::with_bank_policy(config, policy.unwrap_or_default())
    }

    /// [`Fleet::new`] with the per-region δ controllers tuned by `policy`
    /// (τ stays pinned to the paper rung).
    pub fn with_bank_policy(config: &NetScenarioConfig, policy: ControllerPolicy) -> Self {
        let layout = DataLayout::from_config(&InFrameConfig::paper());
        let map = RegionMap::new(&layout, config.tiles_x, config.tiles_y);
        let mut tx = NetSender::new(map.clone(), MacAddr::new(0x0001));
        for s in &config.streams {
            tx.open_stream(s.id, s.qos, s.max_fragment);
        }
        if let Some(cl) = &config.closed_loop {
            tx.enable_arq(cl.arq);
        }
        let bank = config
            .closed_loop
            .as_ref()
            .filter(|cl| cl.remodulate)
            .map(|_| {
                let inframe = InFrameConfig::paper();
                let policy = ControllerPolicy {
                    taus: vec![inframe.tau],
                    ..policy
                };
                RegionControllerBank::new(&inframe, policy, map.clone())
            });
        let payloads: Vec<Vec<u8>> = config
            .datagrams
            .iter()
            .enumerate()
            .map(|(i, d)| datagram_bytes(config.seed, i, d.len))
            .collect();
        for (d, bytes) in config.datagrams.iter().zip(&payloads) {
            tx.send_datagram(d.stream, MacAddr::new(d.dst), bytes);
        }
        let stations = config
            .receivers
            .iter()
            .map(|spec| station(config, &map, spec, &payloads))
            .collect();
        Self {
            loop_stats: config.closed_loop.as_ref().map(|_| LoopStats::default()),
            prev_mode: tx.arq_mode(),
            config: config.clone(),
            tx,
            bank,
            payloads,
            stations,
            popped: Popped::default(),
            cycle: 0,
            done: false,
            open_decoders_max: 0,
            retransmit_backlog_max: 0,
            arrival_s: vec![0.0; config.datagrams.len()],
            cycle_s: InFrameConfig::paper().tau as f64 / InFrameConfig::paper().refresh_hz,
        }
    }

    /// The simulator's outcome ledger for this run.
    pub fn outcome(mut self) -> NetScenarioOutcome {
        if let Some(stats) = self.loop_stats.as_mut() {
            for st in &self.stations {
                if let Some(bc) = &st.bc {
                    stats.reports_sent += bc.sent();
                    stats.reports_delivered += bc.delivered();
                    stats.reports_lost += bc.lost();
                }
            }
            stats.retransmits = self.tx.arq().map_or(0, |a| a.retransmits());
        }
        NetScenarioOutcome {
            cycles_run: self.cycle,
            loop_stats: self.loop_stats,
            receivers: self
                .stations
                .into_iter()
                .zip(&self.config.receivers)
                .map(|(st, spec)| ReceiverOutcome {
                    addr: spec.addr,
                    flows: st
                        .expected
                        .into_iter()
                        .map(|mut e| {
                            if let Some(lane) = st.rx.stream_lane(e.stream, MacAddr::new(e.dst)) {
                                e.delivered_datagrams = lane.delivered_datagrams();
                                e.delivered_bytes = lane.delivered_bytes();
                                e.digest = lane.digest();
                            }
                            e
                        })
                        .collect(),
                    completed_cycle: st.completed_cycle,
                    frames_rx: st.rx.frames_rx(),
                    frames_filtered: st.rx.frames_filtered(),
                    symbols_filtered: st.rx.symbols_filtered(),
                })
                .collect(),
        }
    }
}

impl Episode for Fleet {
    /// Whether every receiver completed or the cycle cap was reached.
    fn finished(&self) -> bool {
        self.done || self.cycle >= self.config.max_cycles
    }

    /// Runs one cycle: sender payload, then per receiver its channel,
    /// network receive, feedback and back-channel, then the return path
    /// and the δ controllers. Each (receiver, cycle) pair is one receiver
    /// operation in `m`; every intact delivery goes to `sim`.
    fn step(&mut self, m: &mut Measure, sim: &mut SimLedger) -> f64 {
        let cycle_s = self.cycle_s;
        let cycle = self.cycle;
        self.cycle += 1;
        trace::set_request(cycle);
        let t = Instant::now();
        let payload = span(Layer::NetSenderPayload, || self.tx.next_cycle_payload());
        m.sender_ns += t.elapsed().as_nanos() as u64;
        m.sender_ops += 1;
        let mut all_done = true;
        let streams = &self.config.streams;
        for (i, st) in self.stations.iter_mut().enumerate() {
            if st.completed_cycle.is_some() {
                continue;
            }
            trace::set_request(((i as u64 + 1) << 32) | cycle);
            let seen = span(Layer::SimChannel, || {
                st.chan.transmit_payload(&payload, cycle)
            });
            let t = Instant::now();
            let popped = &mut self.popped;
            let rx = &mut st.rx;
            span(Layer::NetReceiver, || {
                rx.push_cycle(&seen);
                popped.pop_all(rx, streams.iter().map(|s| s.id));
            });
            if let (Some(cl), Some(bc)) = (&self.config.closed_loop, &mut st.bc) {
                if (cycle + 1).is_multiple_of(cl.report_every) {
                    let report = span(Layer::NetFeedback, || st.rx.build_feedback(cycle));
                    span(Layer::SimBackchannel, || bc.send(&report, cycle));
                }
            }
            m.rx(t.elapsed().as_nanos() as u64);
            // Byte check: each datagram must be one addressed here and
            // not yet delivered.
            let mut delivered = 0u64;
            for (stream, bytes) in self.popped.iter() {
                let hit = st.pending.iter().position(|&d| {
                    self.config.datagrams[d].stream == stream && self.payloads[d] == bytes
                });
                match hit {
                    Some(p) => {
                        let d = st.pending.swap_remove(p);
                        sim.deliver(bytes.len(), self.arrival_s[d], (cycle + 1) as f64 * cycle_s);
                        delivered += 1;
                    }
                    None => sim.corrupt += 1,
                }
            }
            sim.fold(((i as u64) << 32) | delivered);
            self.open_decoders_max = self.open_decoders_max.max(st.rx.open_decoders());
            let done = st.expected.iter().all(|e| {
                let lane = st.rx.stream_lane(e.stream, MacAddr::new(e.dst));
                lane.is_some_and(|l| {
                    l.delivered_datagrams() == e.expected_datagrams
                        && l.digest() == e.expected_digest
                })
            });
            if done {
                st.completed_cycle = Some(cycle);
            } else {
                all_done = false;
            }
        }
        trace::set_request(cycle);
        if let Some(stats) = self.loop_stats.as_mut() {
            let tx = &mut self.tx;
            for st in &mut self.stations {
                if let Some(bc) = &mut st.bc {
                    span(Layer::SimBackchannel, || {
                        bc.poll(cycle, |report| {
                            if !span(Layer::NetFeedback, || tx.ingest_feedback(report)) {
                                stats.reports_stale += 1;
                            }
                        })
                    });
                }
            }
            if let Some(bank) = &mut self.bank {
                if span(Layer::NetFeedback, || tx.observe_feedback_window(bank)) {
                    stats.commands_applied += 1;
                    for r in 0..bank.num_regions() {
                        let cmd = bank.command(r);
                        for st in &mut self.stations {
                            st.chan.set_region_modulation(r, cmd);
                        }
                    }
                }
            }
            let mode = tx.arq_mode();
            match (self.prev_mode, mode) {
                (Some(ArqMode::Closed), Some(ArqMode::Fountain)) => stats.fallbacks += 1,
                (Some(ArqMode::Fountain), Some(ArqMode::Closed)) => stats.recoveries += 1,
                _ => {}
            }
            self.prev_mode = mode;
        }
        self.retransmit_backlog_max = self
            .retransmit_backlog_max
            .max(self.tx.mux_mut().retransmit_backlog());
        self.done = all_done;
        cycle_s
    }

    /// Datagram deliveries this scenario expects, over all receivers.
    fn expected(&self) -> u64 {
        self.stations
            .iter()
            .map(|s| s.expected.iter().map(|f| f.expected_datagrams).sum::<u64>())
            .sum()
    }

    fn cycles(&self) -> u64 {
        self.cycle
    }

    /// Layer counters read from the public getters.
    fn counters(&self) -> Vec<Counter> {
        let sum = |f: fn(&NetReceiver) -> u64| -> f64 {
            self.stations.iter().map(|s| f(&s.rx)).sum::<u64>() as f64
        };
        let arq = self.tx.arq();
        let lost: u64 = self
            .stations
            .iter()
            .filter_map(|s| s.bc.as_ref())
            .map(|b| b.lost())
            .sum();
        vec![
            ("net.receiver.frames_rx", sum(NetReceiver::frames_rx)),
            (
                "net.receiver.frames_filtered",
                sum(NetReceiver::frames_filtered),
            ),
            (
                "net.receiver.symbols_filtered",
                sum(NetReceiver::symbols_filtered),
            ),
            (
                "net.receiver.frames_rejected",
                sum(NetReceiver::frames_rejected),
            ),
            (
                "net.receiver.open_decoders_max",
                self.open_decoders_max as f64,
            ),
            (
                "net.sender.retransmit_backlog_max",
                self.retransmit_backlog_max as f64,
            ),
            (
                "net.arq.retransmits",
                arq.map_or(0, |a| a.retransmits()) as f64,
            ),
            (
                "net.arq.suppressed",
                arq.map_or(0, |a| a.suppressed()) as f64,
            ),
            (
                "net.arq.mode_changes",
                arq.map_or(0, |a| a.mode_changes()) as f64,
            ),
            ("sim.backchannel.reports_lost", lost as f64),
        ]
    }
}

fn station(
    config: &NetScenarioConfig,
    map: &RegionMap,
    spec: &NetReceiverSpec,
    payloads: &[Vec<u8>],
) -> Station {
    let mut filter = AddressFilter::new(MacAddr::new(spec.addr));
    for &g in &spec.groups {
        filter.join_group(MacAddr::new(g));
    }
    let mut rx = NetReceiver::new(map.clone(), filter);
    for s in &config.streams {
        rx.open_stream(s.id, 256, s.max_fragment, 1 << 16);
    }
    let erasures = if spec.region_erasures.is_empty() {
        vec![spec.base_erasure; map.num_regions()]
    } else {
        spec.region_erasures.clone()
    };
    let mut chan = RegionChannel::new(
        map.clone(),
        &erasures,
        config.seed ^ (spec.addr as u64) << 16,
    );
    for &occ in &spec.occlusions {
        chan.add_occlusion(occ);
    }
    let bc = config.closed_loop.as_ref().map(|cl| {
        Backchannel::new(
            cl.backchannel.clone(),
            config.seed ^ ((spec.addr as u64) << 8) ^ 0xFEED,
        )
    });
    let mut expected: Vec<FlowDelivery> = Vec::new();
    let mut pending = Vec::new();
    for (i, (d, payload)) in config.datagrams.iter().zip(payloads).enumerate() {
        if !spec.expects(d.dst) {
            continue;
        }
        pending.push(i);
        let flow = match expected
            .iter_mut()
            .position(|f| f.stream == d.stream && f.dst == d.dst)
        {
            Some(at) => &mut expected[at],
            None => {
                expected.push(FlowDelivery {
                    stream: d.stream,
                    dst: d.dst,
                    expected_datagrams: 0,
                    expected_bytes: 0,
                    expected_digest: FNV_OFFSET,
                    delivered_datagrams: 0,
                    delivered_bytes: 0,
                    digest: 0,
                });
                expected.last_mut().expect("just pushed")
            }
        };
        for &b in payload {
            flow.expected_digest = (flow.expected_digest ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        flow.expected_bytes += d.len as u64;
        flow.expected_datagrams += 1;
    }
    Station {
        rx,
        chan,
        bc,
        expected,
        completed_cycle: None,
        pending,
    }
}

/// Receivers in one episode.
const RECEIVERS: u16 = 32;
const GROUP_A: u16 = 0xFF01;
const GROUP_B: u16 = 0xFF02;

/// Episode `episode` of the workload for `seed`: bulk unicast, group and
/// broadcast streams of small datagrams to [`RECEIVERS`] receivers with
/// mixed per-region erasure and one occlusion window, closed loop on.
pub fn episode_config(seed: u64, episode: u64) -> NetScenarioConfig {
    let s = mix(seed ^ episode.wrapping_mul(0xD1B5_4A32_D192_ED03));
    let r = |k: u64| mix(s ^ k);
    let unit = |k: u64| (r(k) >> 11) as f64 / (1u64 << 53) as f64;
    let addr = |i: u16| 0x0100 + i;
    let receivers: Vec<NetReceiverSpec> = (0..RECEIVERS)
        .map(|i| {
            let base = 0.001 + 0.004 * unit(100 + i as u64);
            let mut spec = NetReceiverSpec {
                groups: match i % 3 {
                    0 => vec![GROUP_A],
                    1 => vec![GROUP_B],
                    _ => Vec::new(),
                },
                base_erasure: base,
                ..NetReceiverSpec::clean(addr(i))
            };
            if i % 2 == 1 {
                // Uneven tiles (glare, a viewing angle), kept mild: frames
                // damaged by scattered erasure now and then pass the symbol
                // CRC-16 and leave a decoder that never completes, so a
                // 2 % tile stalls about one episode in a few thousand.
                spec.region_erasures = (0..15)
                    .map(|t| base * (0.5 + unit(200 + 16 * i as u64 + t)))
                    .collect();
            }
            spec
        })
        .collect();
    let mut receivers = receivers;
    receivers[0].occlusions = vec![RegionOcclusion {
        region: (r(300) % 15) as usize,
        from_cycle: 4,
        until_cycle: 40,
    }];
    let mut datagrams = Vec::new();
    for k in 0..8u16 {
        datagrams.push(NetDatagramSpec {
            stream: 0,
            dst: addr((k * 4 + (r(400) % 4) as u16) % RECEIVERS),
            len: 160 + (r(410 + k as u64) % 160) as usize,
        });
    }
    for (k, g) in [GROUP_A, GROUP_B, GROUP_A, GROUP_B].into_iter().enumerate() {
        datagrams.push(NetDatagramSpec {
            stream: 1,
            dst: g,
            len: 80 + (r(500 + k as u64) % 80) as usize,
        });
    }
    for k in 0..3u64 {
        datagrams.push(NetDatagramSpec {
            stream: 2,
            dst: 0xFFFF,
            len: 40 + (r(600 + k) % 40) as usize,
        });
    }
    NetScenarioConfig {
        tiles_x: 5,
        tiles_y: 3,
        streams: vec![
            NetStreamSpec {
                id: 0,
                qos: StreamQos::bulk(),
                max_fragment: 64,
            },
            NetStreamSpec {
                id: 1,
                qos: StreamQos {
                    priority: 1,
                    weight: 2,
                    deadline: DeadlineClass::Bulk,
                },
                max_fragment: 48,
            },
            NetStreamSpec {
                id: 2,
                qos: StreamQos {
                    priority: 1,
                    weight: 1,
                    deadline: DeadlineClass::Interactive,
                },
                max_fragment: 32,
            },
        ],
        datagrams,
        receivers,
        max_cycles: 3000,
        seed: s,
        closed_loop: Some(ClosedLoopSpec {
            arq: ArqPolicy::default(),
            report_every: 4,
            backchannel: BackchannelConfig {
                delay_cycles: 1,
                jitter_cycles: 1,
                loss: 0.1,
                faults: Vec::new(),
            },
            remodulate: true,
            delta_step: ControllerPolicy::default().delta_step,
        }),
    }
}

/// The per-region δ controllers only climb: a region whose aggregated
/// availability drops under 99 % gets a larger δ, and no region is walked
/// back down toward the decision-threshold cliff. At the simulator's
/// 98.5 % target the reclaim ladder parks regions near the cliff, where
/// damaged frames now and then pass the symbol CRC-16 and a receiver's
/// decoder never completes (about once in a few thousand episodes).
fn bank_policy() -> ControllerPolicy {
    ControllerPolicy {
        target_availability: 0.995,
        hysteresis: 0.005,
        ..ControllerPolicy::default()
    }
}

/// Episodes in the simulated slice (episode 0 is also the warm-up).
const SIM_EPISODES: u64 = 100;

/// Runs the workload: episodes until the slice is done and `seconds` of
/// timed cycles have passed.
pub fn run(seed: u64, seconds: f64, trace_mode: bool) -> Report {
    let (mut report, episodes) = run_episodes(seconds, trace_mode, SIM_EPISODES, |e| {
        let cfg = episode_config(seed, e);
        let mut fleet = Fleet::with_bank_policy(&cfg, bank_policy());
        fleet.arrival_s = (0..cfg.datagrams.len() as u64)
            .map(|i| -fleet.cycle_s * arrival_lead(cfg.seed, i))
            .collect();
        fleet
    });
    report.notes.push(format!(
        "net_fleet: {RECEIVERS} receivers, 5x3 tiles, {episodes} episodes ({SIM_EPISODES} in the slice, episode 0 is warm-up), {} timed cycles",
        report.untraced.blocks + report.traced.blocks
    ));
    report
}
