//! Addressed network scenarios: one [`NetSender`] feeding a fleet of
//! [`NetReceiver`]s through per-receiver [`RegionChannel`]s.
//!
//! The runner works at payload granularity — the sender's cycle payload
//! bits go through a seeded per-GOB erasure channel (with per-region
//! rates and occlusion windows keyed to the spatial sub-channels) and
//! straight into each receiver's `push_cycle`, skipping the optical
//! chain. That keeps multi-receiver sweeps fast while exercising the
//! whole network stack: MAC framing, address filters, per-stream
//! reassembly, spatial shards and fountain repair.
//!
//! Every datagram's bytes are derived from the scenario seed, so the
//! expected per-(receiver, stream) byte counts and FNV-1a digests are
//! computed up front and checked against what the stack delivers —
//! a wrong byte anywhere shows up as a digest mismatch, not a silent
//! pass.

use crate::backchannel::{Backchannel, BackchannelConfig};
use crate::linksim::{RegionChannel, RegionOcclusion};
use inframe_core::layout::DataLayout;
use inframe_core::region::RegionMap;
use inframe_core::InFrameConfig;
use inframe_link::control::ControllerPolicy;
use inframe_net::{
    AddressFilter, ArqMode, ArqPolicy, MacAddr, NetReceiver, NetSender, RegionControllerBank,
    StreamQos,
};
use inframe_obs::{names, Telemetry};

/// One logical stream opened on the sender and on every receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetStreamSpec {
    /// Stream id.
    pub id: u8,
    /// QoS mapped onto the carousel schedule.
    pub qos: StreamQos,
    /// MAC fragment payload size.
    pub max_fragment: usize,
}

/// One datagram queued before the run starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetDatagramSpec {
    /// Stream carrying it.
    pub stream: u8,
    /// Destination address (unicast, group, or `0xFFFF` broadcast).
    pub dst: u16,
    /// Payload length in bytes.
    pub len: usize,
}

/// One receiver and its private channel conditions.
#[derive(Debug, Clone, PartialEq)]
pub struct NetReceiverSpec {
    /// Own unicast address.
    pub addr: u16,
    /// Group addresses joined.
    pub groups: Vec<u16>,
    /// Base per-GOB erasure probability (uniform across regions).
    pub base_erasure: f64,
    /// Per-region base erasures overriding `base_erasure` (empty =
    /// uniform; otherwise one entry per region of the tiling).
    pub region_erasures: Vec<f64>,
    /// Occlusion windows over spatial sub-channels.
    pub occlusions: Vec<RegionOcclusion>,
}

impl NetReceiverSpec {
    /// A clean-channel receiver with no group memberships.
    pub fn clean(addr: u16) -> Self {
        Self {
            addr,
            groups: Vec::new(),
            base_erasure: 0.0,
            region_erasures: Vec::new(),
            occlusions: Vec::new(),
        }
    }

    /// Whether this receiver should deliver a datagram sent to `dst`.
    pub fn expects(&self, dst: u16) -> bool {
        let dst = MacAddr::new(dst);
        dst.is_broadcast() || dst.0 == self.addr || self.groups.contains(&dst.0)
    }
}

/// Closed-loop configuration: receivers report decode quality and NACKs
/// through a modeled [`Backchannel`]; the sender runs selective-repeat
/// ARQ and (optionally) re-modulates δ per region through a
/// [`RegionControllerBank`].
#[derive(Debug, Clone)]
pub struct ClosedLoopSpec {
    /// ARQ policy at the sender.
    pub arq: ArqPolicy,
    /// Receivers build one feedback report every this many cycles.
    pub report_every: u64,
    /// The return-path model (every receiver gets its own seeded
    /// instance).
    pub backchannel: BackchannelConfig,
    /// Drive the per-region δ controllers from aggregated feedback and
    /// apply their commands to the region channels (the GOB-level model
    /// of re-modulating the in-flight carousel).
    pub remodulate: bool,
    /// δ adjustment per controller decision. The open-loop default
    /// (2.0) is tuned for imperceptibility under instant feedback; a
    /// delayed windowed loop can afford a coarser step.
    pub delta_step: f32,
}

impl ClosedLoopSpec {
    /// ARQ over a clean one-cycle back-channel, reporting every 4
    /// cycles, with per-region re-modulation on.
    pub fn healthy() -> Self {
        Self {
            arq: ArqPolicy::default(),
            report_every: 4,
            backchannel: BackchannelConfig::clean(),
            remodulate: true,
            delta_step: ControllerPolicy::default().delta_step,
        }
    }
}

/// A full scenario description.
#[derive(Debug, Clone)]
pub struct NetScenarioConfig {
    /// Spatial tiling (must divide the paper layout's 25×15 GOB grid).
    pub tiles_x: usize,
    /// See `tiles_x`.
    pub tiles_y: usize,
    /// Streams to open everywhere.
    pub streams: Vec<NetStreamSpec>,
    /// Traffic to queue before cycle 0.
    pub datagrams: Vec<NetDatagramSpec>,
    /// The receiver fleet.
    pub receivers: Vec<NetReceiverSpec>,
    /// Hard stop (the run ends early once everything expected arrived).
    pub max_cycles: u64,
    /// Master seed for datagram bytes and channel noise.
    pub seed: u64,
    /// Close the loop: feedback + ARQ (+ δ re-modulation). `None` runs
    /// the original open-loop broadcast.
    pub closed_loop: Option<ClosedLoopSpec>,
}

impl NetScenarioConfig {
    /// A small two-receiver unicast + broadcast scenario.
    pub fn smoke(seed: u64) -> Self {
        Self {
            tiles_x: 5,
            tiles_y: 3,
            streams: vec![NetStreamSpec {
                id: 0,
                qos: StreamQos::bulk(),
                max_fragment: 64,
            }],
            datagrams: vec![
                NetDatagramSpec {
                    stream: 0,
                    dst: 0x0101,
                    len: 600,
                },
                NetDatagramSpec {
                    stream: 0,
                    dst: 0xFFFF,
                    len: 200,
                },
            ],
            receivers: vec![
                NetReceiverSpec::clean(0x0101),
                NetReceiverSpec::clean(0x0102),
            ],
            max_cycles: 400,
            seed,
            closed_loop: None,
        }
    }
}

/// What one receiver saw on one flow — a (stream, destination) pair,
/// matching the stack's per-destination reassembly lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowDelivery {
    /// Stream id.
    pub stream: u8,
    /// Destination address of the flow.
    pub dst: u16,
    /// Datagrams expected at this receiver.
    pub expected_datagrams: u64,
    /// Bytes expected at this receiver.
    pub expected_bytes: u64,
    /// Expected FNV-1a digest over those bytes in send order.
    pub expected_digest: u64,
    /// Datagrams actually delivered in order.
    pub delivered_datagrams: u64,
    /// Bytes actually delivered.
    pub delivered_bytes: u64,
    /// Digest actually folded by the lane's reassembler.
    pub digest: u64,
}

impl FlowDelivery {
    /// Whether everything expected arrived bit-identically.
    pub fn complete(&self) -> bool {
        self.delivered_datagrams == self.expected_datagrams
            && self.delivered_bytes == self.expected_bytes
            && self.digest == self.expected_digest
    }
}

/// What one receiver saw overall.
#[derive(Debug, Clone)]
pub struct ReceiverOutcome {
    /// The receiver's address.
    pub addr: u16,
    /// Per-flow delivery ledger (only flows this receiver expects).
    pub flows: Vec<FlowDelivery>,
    /// Cycle at which the last expected datagram arrived (if all did).
    pub completed_cycle: Option<u64>,
    /// MAC frames accepted by the address filter.
    pub frames_rx: u64,
    /// MAC frames dropped by the address filter.
    pub frames_filtered: u64,
    /// Symbols screened out by the admission-hint pre-filter.
    pub symbols_filtered: u64,
}

impl ReceiverOutcome {
    /// Whether every expected flow completed bit-identically.
    pub fn complete(&self) -> bool {
        self.flows.iter().all(|f| f.complete())
    }
}

/// What the closed loop did during a run.
#[derive(Debug, Clone, Default)]
pub struct LoopStats {
    /// Feedback reports offered to the back-channels.
    pub reports_sent: u64,
    /// Reports that reached the sender intact.
    pub reports_delivered: u64,
    /// Reports lost in flight (including checksum kills).
    pub reports_lost: u64,
    /// Reports the aggregator rejected as stale/duplicate.
    pub reports_stale: u64,
    /// Symbols retransmitted on NACKs.
    pub retransmits: u64,
    /// Closed → fountain degradations.
    pub fallbacks: u64,
    /// Fountain → closed recoveries.
    pub recoveries: u64,
    /// Feedback windows that changed a region's δ command.
    pub commands_applied: u64,
}

/// The scenario result.
#[derive(Debug, Clone)]
pub struct NetScenarioOutcome {
    /// Cycles actually run.
    pub cycles_run: u64,
    /// One ledger per receiver, in config order.
    pub receivers: Vec<ReceiverOutcome>,
    /// Closed-loop accounting (`None` for open-loop runs).
    pub loop_stats: Option<LoopStats>,
}

impl NetScenarioOutcome {
    /// Whether every receiver got everything it was addressed.
    pub fn all_complete(&self) -> bool {
        self.receivers.iter().all(|r| r.complete())
    }
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01B3;

/// Deterministic datagram bytes: SplitMix64 over (seed, datagram index).
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

/// Runs an addressed scenario and checks delivery against expectation.
///
/// # Panics
/// Panics on a config referencing an unopened stream.
pub fn run_net_scenario(config: &NetScenarioConfig) -> NetScenarioOutcome {
    let layout = DataLayout::from_config(&InFrameConfig::paper());
    let map = RegionMap::new(&layout, config.tiles_x, config.tiles_y);

    let mut tx = NetSender::new(map.clone(), MacAddr::new(0x0001));
    for s in &config.streams {
        tx.open_stream(s.id, s.qos, s.max_fragment);
    }
    if let Some(cl) = &config.closed_loop {
        tx.enable_arq(cl.arq);
    }
    // The δ controller bank: τ pinned to the single paper rung (the
    // GOB-level carousel carries no τ; only δ moves the channel
    // response), δ free to climb per region.
    let mut bank = config
        .closed_loop
        .as_ref()
        .filter(|cl| cl.remodulate)
        .map(|cl| {
            let inframe = InFrameConfig::paper();
            let policy = ControllerPolicy {
                taus: vec![inframe.tau],
                delta_step: cl.delta_step,
                // A carousel symbol spans dozens of GOB draws (3 payload
                // bits per GOB at the paper tiling ⇒ ~50 draws per
                // symbol), so per-GOB availability compounds brutally:
                // 0.92 per GOB is ~1% symbol survival. The GOB-
                // granularity loop must steer very close to 1.
                target_availability: 0.985,
                hysteresis: 0.008,
                ..ControllerPolicy::default()
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

    struct Station {
        rx: NetReceiver,
        chan: RegionChannel,
        bc: Option<Backchannel>,
        expected: Vec<FlowDelivery>,
        completed_cycle: Option<u64>,
    }
    let mut stations: Vec<Station> = config
        .receivers
        .iter()
        .map(|spec| {
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
            // Expected ledger: one flow per (stream, destination) pair
            // this receiver accepts, digests folded in send order (the
            // order each lane delivers in).
            let mut expected: Vec<FlowDelivery> = Vec::new();
            for (d, payload) in config.datagrams.iter().zip(&payloads) {
                if !spec.expects(d.dst) {
                    continue;
                }
                let flow = match expected
                    .iter_mut()
                    .find(|f| f.stream == d.stream && f.dst == d.dst)
                {
                    Some(f) => f,
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
                    flow.expected_digest =
                        (flow.expected_digest ^ b as u64).wrapping_mul(FNV_PRIME);
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
            }
        })
        .collect();

    let mut scratch = Vec::new();
    let mut cycles_run = 0;
    let mut loop_stats = config.closed_loop.as_ref().map(|_| LoopStats::default());
    let mut prev_mode = tx.arq_mode();
    for cycle in 0..config.max_cycles {
        cycles_run = cycle + 1;
        let payload = tx.next_cycle_payload();
        let mut all_done = true;
        for st in &mut stations {
            if st.completed_cycle.is_some() {
                continue;
            }
            let seen = st.chan.transmit_payload(&payload, cycle);
            st.rx.push_cycle(&seen);
            for s in &config.streams {
                while st.rx.pop_datagram(s.id, &mut scratch) {}
            }
            if let (Some(cl), Some(bc)) = (&config.closed_loop, &mut st.bc) {
                if (cycle + 1) % cl.report_every == 0 {
                    let report = st.rx.build_feedback(cycle);
                    bc.send(&report, cycle);
                }
            }
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
        if let Some(stats) = loop_stats.as_mut() {
            // Deliver the return path: reports due this cycle reach the
            // sender, which folds region quality and routes NACKs into
            // the retransmit ring (riding the *next* cycle payload).
            for st in &mut stations {
                if let Some(bc) = &mut st.bc {
                    bc.poll(cycle, |report| {
                        if !tx.ingest_feedback(report) {
                            stats.reports_stale += 1;
                        }
                    });
                }
            }
            if let Some(bank) = &mut bank {
                if tx.observe_feedback_window(bank) {
                    stats.commands_applied += 1;
                    for r in 0..bank.num_regions() {
                        let cmd = bank.command(r);
                        for st in &mut stations {
                            st.chan.set_region_modulation(r, cmd);
                        }
                    }
                }
            }
            let mode = tx.arq_mode();
            match (prev_mode, mode) {
                (Some(ArqMode::Closed), Some(ArqMode::Fountain)) => stats.fallbacks += 1,
                (Some(ArqMode::Fountain), Some(ArqMode::Closed)) => stats.recoveries += 1,
                _ => {}
            }
            prev_mode = mode;
        }
        if all_done {
            break;
        }
    }

    if let Some(stats) = loop_stats.as_mut() {
        for st in &stations {
            if let Some(bc) = &st.bc {
                stats.reports_sent += bc.sent();
                stats.reports_delivered += bc.delivered();
                stats.reports_lost += bc.lost();
            }
        }
        stats.retransmits = tx.arq().map_or(0, |a| a.retransmits());
    }

    NetScenarioOutcome {
        cycles_run,
        loop_stats,
        receivers: stations
            .into_iter()
            .zip(&config.receivers)
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

/// Runs [`run_net_scenario`] and publishes its outcome onto `telemetry`
/// so network scenarios fold into the same live-ops rollups
/// ([`inframe_obs::FleetAggregator`]) as the optical-chain fleets.
///
/// The scenario loop itself stays uninstrumented — netsim works at GOB
/// granularity where per-cycle handles would dominate the run — so the
/// spine is fed post-hoc from the outcome ledgers: MAC frame and
/// datagram counts under `net.*`, completions and completion cycles
/// under `sim.fleet.*`, and (for closed-loop runs) the feedback/ARQ
/// accounting under `ctrl.loop.*` and `arq.*`.
pub fn run_net_scenario_with_telemetry(
    config: &NetScenarioConfig,
    telemetry: &Telemetry,
) -> NetScenarioOutcome {
    let out = run_net_scenario(config);
    telemetry
        .gauge(names::net::REGIONS)
        .set((config.tiles_x * config.tiles_y) as u64);
    telemetry
        .counter(names::fleet::RECEIVERS)
        .add(out.receivers.len() as u64);
    telemetry.counter(names::fleet::CYCLES).add(out.cycles_run);
    telemetry.gauge(names::fleet::CYCLE).set(out.cycles_run);
    let frames_rx = telemetry.counter(names::net::FRAMES_RX);
    let frames_filtered = telemetry.counter(names::net::FRAMES_FILTERED);
    let datagrams_rx = telemetry.counter(names::net::DATAGRAMS_RX);
    let bytes_rx = telemetry.counter(names::net::BYTES_RX);
    let completions = telemetry.counter(names::fleet::COMPLETIONS);
    let completion_cycle = telemetry.histogram(names::fleet::COMPLETION_CYCLE);
    for r in &out.receivers {
        frames_rx.add(r.frames_rx);
        frames_filtered.add(r.frames_filtered);
        for f in &r.flows {
            datagrams_rx.add(f.delivered_datagrams);
            bytes_rx.add(f.delivered_bytes);
        }
        if let Some(c) = r.completed_cycle {
            completions.add(1);
            completion_cycle.record(c);
        }
    }
    if let Some(ls) = &out.loop_stats {
        telemetry
            .counter(names::ctrl_loop::REPORTS_RX)
            .add(ls.reports_delivered);
        telemetry
            .counter(names::ctrl_loop::REPORTS_STALE)
            .add(ls.reports_stale);
        telemetry
            .counter(names::ctrl_loop::REPORTS_LOST)
            .add(ls.reports_lost);
        telemetry
            .counter(names::ctrl_loop::COMMANDS_APPLIED)
            .add(ls.commands_applied);
        telemetry
            .counter(names::ctrl_loop::FALLBACKS)
            .add(ls.fallbacks);
        telemetry
            .counter(names::ctrl_loop::RECOVERIES)
            .add(ls.recoveries);
        telemetry
            .counter(names::arq::RETRANSMITS)
            .add(ls.retransmits);
        telemetry.gauge(names::ctrl_loop::CLOSED).set(1);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use inframe_net::stream::DeadlineClass;

    #[test]
    fn telemetry_wrapper_publishes_the_outcome() {
        let tele = Telemetry::new();
        let out = run_net_scenario_with_telemetry(&NetScenarioConfig::smoke(0xA11CE), &tele);
        assert!(out.all_complete());
        let s = tele.summary();
        assert_eq!(s.counter(names::fleet::RECEIVERS), 2);
        assert_eq!(s.counter(names::fleet::COMPLETIONS), 2);
        assert_eq!(s.gauge(names::fleet::CYCLE), Some(out.cycles_run));
        let frames: u64 = out.receivers.iter().map(|r| r.frames_rx).sum();
        assert_eq!(s.counter(names::net::FRAMES_RX), frames);
        let bytes: u64 = out
            .receivers
            .iter()
            .flat_map(|r| &r.flows)
            .map(|f| f.delivered_bytes)
            .sum();
        assert_eq!(s.counter(names::net::BYTES_RX), bytes);
        // Open-loop run: no feedback accounting on the spine.
        assert_eq!(s.counter(names::ctrl_loop::REPORTS_RX), 0);
        assert!(s.gauge(names::ctrl_loop::CLOSED).is_none());
    }

    #[test]
    fn smoke_scenario_delivers_addressed_traffic_only() {
        let out = run_net_scenario(&NetScenarioConfig::smoke(0xA11CE));
        assert!(out.all_complete(), "outcome: {out:?}");
        let a = &out.receivers[0];
        let b = &out.receivers[1];
        // Receiver A expects the unicast + the broadcast (two flows), B
        // only the broadcast; both ledgers must say so and be satisfied.
        assert_eq!(a.flows.len(), 2);
        assert_eq!(b.flows.len(), 1);
        assert_eq!(b.flows[0].dst, 0xFFFF);
        assert_eq!(b.flows[0].expected_bytes, 200);
        // The bystander's filters did real work.
        assert!(b.symbols_filtered > 0 || b.frames_filtered > 0);
    }

    #[test]
    fn group_traffic_reaches_members_only() {
        let mut cfg = NetScenarioConfig::smoke(7);
        cfg.datagrams = vec![NetDatagramSpec {
            stream: 0,
            dst: 0xFF05,
            len: 300,
        }];
        cfg.receivers = vec![
            NetReceiverSpec {
                groups: vec![0xFF05],
                ..NetReceiverSpec::clean(0x0201)
            },
            NetReceiverSpec::clean(0x0202),
        ];
        let out = run_net_scenario(&cfg);
        assert!(out.all_complete());
        assert_eq!(out.receivers[0].flows[0].delivered_bytes, 300);
        // The non-member expects (and gets) nothing at all.
        assert!(out.receivers[1].flows.is_empty());
    }

    #[test]
    fn occluded_receiver_completes_on_visible_regions() {
        let mut cfg = NetScenarioConfig::smoke(42);
        // Region 7 of the 5×3 tiling is covered for the whole run; the
        // fountain code repairs the missing shard from the other 14.
        cfg.receivers[0].occlusions = vec![RegionOcclusion {
            region: 7,
            from_cycle: 0,
            until_cycle: u64::MAX,
        }];
        cfg.max_cycles = 800;
        let out = run_net_scenario(&cfg);
        assert!(out.all_complete(), "outcome: {out:?}");
        let clean = out.receivers[1].completed_cycle.unwrap();
        let occluded = out.receivers[0].completed_cycle.unwrap();
        assert!(occluded >= clean, "losing a shard cannot speed delivery up");
    }

    #[test]
    fn noisy_channel_still_delivers_bit_identical() {
        let mut cfg = NetScenarioConfig::smoke(1234);
        // Streamed region symbols span ~43 GOBs, so per-GOB erasure
        // compounds steeply: 2% already erases more than half of the
        // symbols, leaving plenty for fountain repair to chew on.
        cfg.receivers[0].base_erasure = 0.02;
        cfg.receivers[1].base_erasure = 0.02;
        cfg.max_cycles = 1500;
        let out = run_net_scenario(&cfg);
        assert!(out.all_complete(), "outcome: {out:?}");
    }

    #[test]
    fn multi_stream_qos_and_isolation() {
        let mut cfg = NetScenarioConfig::smoke(99);
        cfg.streams = vec![
            NetStreamSpec {
                id: 0,
                qos: StreamQos::bulk(),
                max_fragment: 64,
            },
            NetStreamSpec {
                id: 1,
                qos: StreamQos {
                    priority: 2,
                    weight: 1,
                    deadline: DeadlineClass::Realtime,
                },
                max_fragment: 32,
            },
        ];
        cfg.datagrams = vec![
            NetDatagramSpec {
                stream: 0,
                dst: 0x0101,
                len: 1200,
            },
            NetDatagramSpec {
                stream: 1,
                dst: 0xFFFF,
                len: 64,
            },
        ];
        let out = run_net_scenario(&cfg);
        assert!(out.all_complete(), "outcome: {out:?}");
        // Flow ledgers stay separate: the broadcast bytes never leak
        // into the unicast flow's digest and vice versa.
        let a = &out.receivers[0];
        let uni = a.flows.iter().find(|f| f.stream == 0).unwrap();
        let bc = a.flows.iter().find(|f| f.stream == 1).unwrap();
        assert_eq!(uni.delivered_bytes, 1200);
        assert_eq!(bc.delivered_bytes, 64);
    }

    /// One unicast the measured receiver wants, one fat background
    /// object contending for carousel slots: the scenario where NACK
    /// retransmission pays (it preempts WRR slots for the symbols the
    /// receiver actually misses).
    fn contended(seed: u64) -> NetScenarioConfig {
        let mut cfg = NetScenarioConfig::smoke(seed);
        cfg.datagrams = vec![
            NetDatagramSpec {
                stream: 0,
                dst: 0x0101,
                len: 1200,
            },
            NetDatagramSpec {
                stream: 0,
                dst: 0x0155,
                len: 6000,
            },
        ];
        cfg.receivers = vec![NetReceiverSpec {
            base_erasure: 0.005,
            ..NetReceiverSpec::clean(0x0101)
        }];
        cfg.max_cycles = 4000;
        cfg
    }

    #[test]
    fn arq_with_healthy_backchannel_beats_fountain_only() {
        let open = run_net_scenario(&contended(0xA40));
        let mut cfg = contended(0xA40);
        cfg.closed_loop = Some(ClosedLoopSpec {
            remodulate: false,
            ..ClosedLoopSpec::healthy()
        });
        let closed = run_net_scenario(&cfg);
        assert!(open.all_complete() && closed.all_complete());
        let open_c = open.receivers[0].completed_cycle.unwrap();
        let closed_c = closed.receivers[0].completed_cycle.unwrap();
        assert!(
            closed_c < open_c,
            "ARQ must complete the unicast sooner: {closed_c} vs {open_c}"
        );
        let stats = closed.loop_stats.unwrap();
        assert!(stats.retransmits > 0, "no retransmits ever queued");
        assert_eq!(stats.fallbacks, 0, "healthy back-channel must not degrade");
    }

    #[test]
    fn dead_backchannel_degrades_to_fountain_within_bound() {
        let open = run_net_scenario(&contended(0xA41));
        let mut cfg = contended(0xA41);
        cfg.closed_loop = Some(ClosedLoopSpec {
            backchannel: BackchannelConfig::dead(),
            remodulate: false,
            ..ClosedLoopSpec::healthy()
        });
        let dead = run_net_scenario(&cfg);
        assert!(dead.all_complete(), "a dead back-channel must not stall");
        let open_c = open.receivers[0].completed_cycle.unwrap() as f64;
        let dead_c = dead.receivers[0].completed_cycle.unwrap() as f64;
        assert!(
            dead_c <= open_c * 1.1,
            "degraded loop must stay within 1.1× of fountain-only: {dead_c} vs {open_c}"
        );
        let stats = dead.loop_stats.unwrap();
        assert_eq!(stats.retransmits, 0, "no feedback, no retransmits");
        assert_eq!(stats.reports_delivered, 0);
    }

    #[test]
    fn backchannel_blackout_falls_back_and_recovers() {
        let mut cfg = contended(0xA42);
        // A fatter unicast so the run outlives the blackout window plus
        // the feedback timeout — the fallback and the recovery must both
        // happen while symbols are still flowing.
        cfg.datagrams[0].len = 6000;
        let mut spec = ClosedLoopSpec::healthy();
        spec.remodulate = false;
        spec.backchannel.faults = vec![crate::backchannel::FeedbackFaultWindow {
            kind: crate::backchannel::FeedbackFaultKind::Loss { rate: 1.0 },
            from_cycle: 20,
            until_cycle: 100,
        }];
        cfg.closed_loop = Some(spec);
        let out = run_net_scenario(&cfg);
        assert!(out.all_complete(), "blackout must not stall delivery");
        let stats = out.loop_stats.unwrap();
        assert!(stats.fallbacks >= 1, "blackout must trip the fallback");
        assert!(
            stats.recoveries >= 1,
            "returning feedback must restore closed mode"
        );
    }

    #[test]
    fn regional_remodulation_beats_open_loop_on_a_bad_tile() {
        // A carousel symbol spans ~50 GOB draws, so per-GOB erasure
        // compounds steeply into symbol loss: 4% per GOB is ~12% symbol
        // survival, and boosting δ 20→40 ((20/δ)² response) lifts it to
        // ~59%. That cliff is exactly where re-modulation pays; much
        // higher per-GOB erasure and no δ in range can save the tile,
        // much lower and there is nothing to heal.
        let base = |seed| {
            let mut cfg = NetScenarioConfig::smoke(seed);
            cfg.datagrams = vec![NetDatagramSpec {
                stream: 0,
                dst: 0x0101,
                len: 12000,
            }];
            let mut erasures = vec![0.0; 15];
            for r in [2, 6, 7, 8, 12] {
                erasures[r] = 0.04;
            }
            cfg.receivers = vec![NetReceiverSpec {
                region_erasures: erasures,
                ..NetReceiverSpec::clean(0x0101)
            }];
            cfg.max_cycles = 4000;
            cfg
        };
        let open = run_net_scenario(&base(0xA43));
        let mut cfg = base(0xA43);
        cfg.closed_loop = Some(ClosedLoopSpec {
            report_every: 2,
            delta_step: 6.0,
            ..ClosedLoopSpec::healthy()
        });
        let closed = run_net_scenario(&cfg);
        assert!(open.all_complete() && closed.all_complete());
        let open_c = open.receivers[0].completed_cycle.unwrap();
        let closed_c = closed.receivers[0].completed_cycle.unwrap();
        assert!(
            closed_c < open_c,
            "per-region δ re-modulation must recover the bad tile: {closed_c} vs {open_c}"
        );
        let stats = closed.loop_stats.unwrap();
        assert!(
            stats.commands_applied > 0,
            "the bank must have re-commanded the bad region"
        );
    }

    #[test]
    fn steady_clean_channel_has_bounded_command_churn() {
        let mut cfg = NetScenarioConfig::smoke(0xA44);
        cfg.datagrams = vec![NetDatagramSpec {
            stream: 0,
            dst: 0x0101,
            len: 4000,
        }];
        cfg.receivers = vec![NetReceiverSpec {
            base_erasure: 0.005,
            ..NetReceiverSpec::clean(0x0101)
        }];
        cfg.max_cycles = 900;
        cfg.closed_loop = Some(ClosedLoopSpec {
            report_every: 2,
            ..ClosedLoopSpec::healthy()
        });
        let out = run_net_scenario(&cfg);
        let stats = out.loop_stats.unwrap();
        // The reclaim ladder walks δ down until hysteresis holds, then
        // the loop must go quiet — command churn is a one-time settling
        // cost, not a steady-state oscillation.
        assert!(
            stats.commands_applied <= 12,
            "δ commands oscillate on a steady channel: {} windows changed",
            stats.commands_applied
        );
        assert_eq!(stats.fallbacks, 0);
    }

    #[test]
    fn closed_loop_outcome_is_deterministic_for_a_seed() {
        let mk = || {
            let mut cfg = contended(0xA45);
            cfg.closed_loop = Some(ClosedLoopSpec::healthy());
            cfg
        };
        let one = run_net_scenario(&mk());
        let two = run_net_scenario(&mk());
        assert_eq!(
            one.receivers[0].completed_cycle,
            two.receivers[0].completed_cycle
        );
        let (a, b) = (one.loop_stats.unwrap(), two.loop_stats.unwrap());
        assert_eq!(a.retransmits, b.retransmits);
        assert_eq!(a.reports_delivered, b.reports_delivered);
        assert_eq!(a.commands_applied, b.commands_applied);
    }

    #[test]
    fn outcome_is_deterministic_for_a_seed() {
        let mut cfg = NetScenarioConfig::smoke(555);
        cfg.receivers[0].base_erasure = 0.15;
        let one = run_net_scenario(&cfg);
        let two = run_net_scenario(&cfg);
        assert_eq!(one.cycles_run, two.cycles_run);
        for (a, b) in one.receivers.iter().zip(&two.receivers) {
            assert_eq!(a.completed_cycle, b.completed_cycle);
            assert_eq!(a.frames_rx, b.frames_rx);
            for (x, y) in a.flows.iter().zip(&b.flows) {
                assert_eq!(x.digest, y.digest);
            }
        }
    }
}
