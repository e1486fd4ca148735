//! The network-layer sender: datagrams → MAC frames → addressed objects
//! → spatial carousel shards.
//!
//! A [`NetSender`] owns one [`StreamTx`] per open stream and one
//! [`SpatialMux`] over the frame tiling. Submitted datagrams fragment
//! into MAC frames batched per destination; at flush time each batch
//! becomes one fountain-coded object whose id carries the destination's
//! 6-bit hint in its high bits (the receiver's symbol-level pre-filter
//! keys on it) and rides every carousel shard at the stream's QoS
//! priority. Completed objects are retired explicitly — the carousel is
//! rateless, so only the application knows when everyone it cares about
//! has finished.

use crate::addr::MacAddr;
use crate::arq::{ArqEngine, ArqMode, ArqPolicy};
use crate::spatial::{RegionControllerBank, SpatialMux};
use crate::stream::{StreamQos, StreamTx};
use inframe_core::region::RegionMap;
use inframe_core::sender::PayloadSource;
use inframe_link::carousel::SymbolGeometry;
use inframe_link::feedback::{FeedbackAggregator, FeedbackReport};
use inframe_obs::{names, Counter, Gauge, Telemetry};
use std::collections::BTreeMap;

struct SenderObs {
    telemetry: Telemetry,
    frames_tx: Counter,
    datagrams_tx: Counter,
    regions: Gauge,
    reports_rx: Counter,
    reports_stale: Counter,
    commands_applied: Counter,
    fallbacks: Counter,
    recoveries: Counter,
    closed: Gauge,
    feedback_age: Gauge,
}

impl SenderObs {
    fn new(telemetry: &Telemetry) -> Self {
        Self {
            telemetry: telemetry.clone(),
            frames_tx: telemetry.counter(names::net::FRAMES_TX),
            datagrams_tx: telemetry.counter(names::net::DATAGRAMS_TX),
            regions: telemetry.gauge(names::net::REGIONS),
            reports_rx: telemetry.counter(names::ctrl_loop::REPORTS_RX),
            reports_stale: telemetry.counter(names::ctrl_loop::REPORTS_STALE),
            commands_applied: telemetry.counter(names::ctrl_loop::COMMANDS_APPLIED),
            fallbacks: telemetry.counter(names::ctrl_loop::FALLBACKS),
            recoveries: telemetry.counter(names::ctrl_loop::RECOVERIES),
            closed: telemetry.gauge(names::ctrl_loop::CLOSED),
            feedback_age: telemetry.gauge(names::ctrl_loop::FEEDBACK_AGE),
        }
    }
}

/// The sender side of the network layer.
pub struct NetSender {
    src: MacAddr,
    mux: SpatialMux,
    streams: BTreeMap<u8, StreamTx>,
    /// Rolling low 10 bits of the next object id.
    next_lo: u16,
    /// Cycles emitted (the ARQ / feedback clock).
    cycles: u64,
    /// Selective-repeat engine, present once [`NetSender::enable_arq`]
    /// ran.
    arq: Option<ArqEngine>,
    /// Multi-receiver feedback aggregator, paired with `arq`.
    agg: Option<FeedbackAggregator>,
    /// Mode at the end of the previous cycle (fallback edge detector).
    last_mode: ArqMode,
    obs: SenderObs,
}

impl NetSender {
    /// A sender at address `src` over the given frame tiling.
    pub fn new(map: RegionMap, src: MacAddr) -> Self {
        let mux = SpatialMux::new(map);
        let obs = SenderObs::new(&Telemetry::disabled());
        Self {
            src,
            mux,
            streams: BTreeMap::new(),
            next_lo: 0,
            cycles: 0,
            arq: None,
            agg: None,
            last_mode: ArqMode::Fountain,
            obs,
        }
    }

    /// Attaches a telemetry spine (`net.frames_tx`, `net.datagrams_tx`,
    /// `net.regions`).
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.obs = SenderObs::new(telemetry);
        self.obs.regions.set(self.mux.num_regions() as u64);
        self
    }

    /// Opens a logical stream.
    ///
    /// # Panics
    /// Panics on a duplicate stream id or an invalid fragment size.
    pub fn open_stream(&mut self, id: u8, qos: StreamQos, max_fragment: usize) {
        assert!(!self.streams.contains_key(&id), "stream {id} already open");
        self.streams
            .insert(id, StreamTx::new(id, qos, self.src, max_fragment));
    }

    /// The per-region symbol geometry.
    pub fn geometry(&self) -> SymbolGeometry {
        self.mux.geometry()
    }

    /// The spatial multiplexer (e.g. to hand to a core `Sender` or to
    /// pull cycle payloads directly).
    pub fn mux_mut(&mut self) -> &mut SpatialMux {
        &mut self.mux
    }

    /// The region map of the tiling.
    pub fn region_map(&self) -> &RegionMap {
        self.mux.region_map()
    }

    /// Queues one datagram on `stream` to `dst`.
    ///
    /// # Panics
    /// Panics on an unopened stream or an empty datagram.
    pub fn send_datagram(&mut self, stream: u8, dst: MacAddr, datagram: &[u8]) {
        let tx = self
            .streams
            .get_mut(&stream)
            .unwrap_or_else(|| panic!("stream {stream} not open"));
        let before = tx.frames_sent();
        tx.send_datagram(dst, datagram);
        self.obs.frames_tx.add(tx.frames_sent() - before);
        self.obs.datagrams_tx.incr();
    }

    /// Bundles every pending per-destination frame batch into addressed
    /// objects on the carousel shards. Returns the new object ids.
    pub fn flush(&mut self) -> Vec<u16> {
        let mut new_ids = Vec::new();
        // Collect (priority, dst, bundle) first: allocating object ids
        // needs `&self.mux` while streams are borrowed.
        let mut batches = Vec::new();
        for tx in self.streams.values_mut() {
            if tx.has_pending() {
                let priority = tx.qos().carousel_priority();
                for (dst, bundle) in tx.take_pending() {
                    batches.push((priority, dst, bundle));
                }
            }
        }
        for (priority, dst, bundle) in batches {
            let id = self.alloc_object_id(dst);
            self.mux.add_object(id, priority, &bundle);
            new_ids.push(id);
        }
        new_ids
    }

    /// The next free object id carrying `dst`'s hint in its high bits.
    ///
    /// # Panics
    /// Panics when all 1024 ids of the hint are live on the carousel
    /// (the application must retire completed objects).
    fn alloc_object_id(&mut self, dst: MacAddr) -> u16 {
        let hint = (dst.hint() as u16) << 10;
        let live = self.mux.object_ids();
        for _ in 0..1024 {
            let id = hint | (self.next_lo & 0x3FF);
            self.next_lo = self.next_lo.wrapping_add(1);
            if !live.contains(&id) {
                return id;
            }
        }
        panic!("all 1024 object ids of hint {:#x} are live", hint >> 10);
    }

    /// Retires a completed object from every shard (dropping any ARQ
    /// state and pending retransmits it held). Returns whether it was
    /// present.
    pub fn retire_object(&mut self, id: u16) -> bool {
        if let Some(arq) = &mut self.arq {
            arq.object_retired(id, &mut self.mux);
        }
        self.mux.remove_object(id)
    }

    /// Turns on the closed control loop: a multi-receiver
    /// [`FeedbackAggregator`] plus a selective-repeat [`ArqEngine`]
    /// under `policy`. Until the first fresh report arrives the sender
    /// behaves exactly as before (pure fountain).
    pub fn enable_arq(&mut self, policy: ArqPolicy) {
        self.agg = Some(FeedbackAggregator::new(self.mux.num_regions()));
        self.arq = Some(ArqEngine::new(policy).with_telemetry(&self.obs.telemetry));
        self.last_mode = ArqMode::Fountain;
    }

    /// Ingests one receiver report from the back-channel: folds its
    /// per-region quality into the aggregation window and routes its
    /// NACKs to the ARQ engine. Returns whether the report was fresh
    /// (stale/duplicate reports are dropped, counted on
    /// `ctrl.loop.reports_stale`).
    ///
    /// # Panics
    /// Panics unless [`NetSender::enable_arq`] ran first.
    pub fn ingest_feedback(&mut self, report: &FeedbackReport) -> bool {
        let agg = self.agg.as_mut().expect("enable_arq first");
        let arq = self.arq.as_mut().expect("enable_arq first");
        if !agg.ingest(report, self.cycles) {
            self.obs.reports_stale.incr();
            return false;
        }
        self.obs.reports_rx.incr();
        for nack in report.nacks() {
            arq.on_nack(nack, self.cycles, &mut self.mux);
        }
        true
    }

    /// Feeds the closed aggregation window to a per-region controller
    /// bank and resets the window. Returns whether any region's δ/τ
    /// command (and thus the scale fan-out) changed; the caller then
    /// re-applies `bank.block_scales(..)` and the τ/δ envelope to the
    /// in-flight core sender. While the ARQ engine is degraded the bank
    /// is left alone — the open-loop controller policy owns the channel.
    ///
    /// # Panics
    /// Panics unless [`NetSender::enable_arq`] ran first.
    pub fn observe_feedback_window(&mut self, bank: &mut RegionControllerBank) -> bool {
        let agg = self.agg.as_mut().expect("enable_arq first");
        if self.last_mode == ArqMode::Fountain {
            agg.reset_window();
            return false;
        }
        let changed = bank.observe_feedback(agg);
        agg.reset_window();
        if changed {
            self.obs.commands_applied.incr();
        }
        changed
    }

    /// The ARQ engine, when the loop is enabled.
    pub fn arq(&self) -> Option<&ArqEngine> {
        self.arq.as_ref()
    }

    /// Current loop mode: `Some(Closed)` with a healthy back-channel,
    /// `Some(Fountain)` when degraded, `None` when ARQ is not enabled.
    pub fn arq_mode(&self) -> Option<ArqMode> {
        self.arq.as_ref().map(|a| a.mode())
    }

    /// Cycles emitted so far (the feedback clock).
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Per-cycle loop upkeep: ages the back-channel, degrades or
    /// restores the ARQ mode, and maintains the `ctrl.loop.*` gauges.
    fn loop_upkeep(&mut self) {
        let (Some(arq), Some(agg)) = (&mut self.arq, &self.agg) else {
            return;
        };
        let mode = arq.on_cycle(self.cycles, agg, &mut self.mux);
        match (self.last_mode, mode) {
            (ArqMode::Closed, ArqMode::Fountain) => self.obs.fallbacks.incr(),
            (ArqMode::Fountain, ArqMode::Closed) => self.obs.recoveries.incr(),
            _ => {}
        }
        self.last_mode = mode;
        self.obs
            .closed
            .set(if mode == ArqMode::Closed { 1 } else { 0 });
        self.obs
            .feedback_age
            .set(agg.feedback_age(self.cycles).unwrap_or(u64::MAX));
    }

    /// Emits one full-frame cycle payload (flushing pending datagrams
    /// first).
    ///
    /// # Panics
    /// Panics when nothing has ever been queued (the carousel is empty).
    pub fn next_cycle_payload(&mut self) -> Vec<bool> {
        self.flush();
        self.loop_upkeep();
        self.cycles += 1;
        self.mux.next_cycle_payload()
    }
}

impl PayloadSource for NetSender {
    fn next_payload(&mut self, bits: usize) -> Vec<bool> {
        self.flush();
        self.loop_upkeep();
        self.cycles += 1;
        PayloadSource::next_payload(&mut self.mux, bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::BROADCAST_HINT;
    use inframe_core::layout::DataLayout;
    use inframe_core::InFrameConfig;
    use inframe_link::symbol::object_hint;

    fn sender() -> NetSender {
        let layout = DataLayout::from_config(&InFrameConfig::paper());
        NetSender::new(RegionMap::new(&layout, 5, 3), MacAddr::new(0x0001))
    }

    #[test]
    fn object_ids_carry_the_destination_hint() {
        let mut s = sender();
        s.open_stream(0, StreamQos::bulk(), 64);
        s.send_datagram(0, MacAddr::new(0x0042), b"unicast");
        s.send_datagram(0, MacAddr::BROADCAST, b"everyone");
        let ids = s.flush();
        assert_eq!(ids.len(), 2);
        let hints: Vec<u8> = ids.iter().map(|&id| object_hint(id)).collect();
        assert!(hints.contains(&MacAddr::new(0x0042).hint()));
        assert!(hints.contains(&BROADCAST_HINT));
    }

    #[test]
    fn retire_frees_the_id_for_reuse() {
        let mut s = sender();
        s.open_stream(0, StreamQos::bulk(), 64);
        s.send_datagram(0, MacAddr::new(7), b"one");
        let ids = s.flush();
        assert_eq!(s.mux.object_ids(), ids);
        assert!(s.retire_object(ids[0]));
        assert!(!s.retire_object(ids[0]));
        assert!(s.mux.object_ids().is_empty());
    }

    #[test]
    fn payloads_flush_implicitly() {
        let mut s = sender();
        s.open_stream(0, StreamQos::bulk(), 64);
        s.send_datagram(0, MacAddr::new(9), &[0x5A; 300]);
        let p = s.next_cycle_payload();
        let layout = DataLayout::from_config(&InFrameConfig::paper());
        assert_eq!(p.len(), layout.payload_bits_parity());
        assert_eq!(s.mux.object_ids().len(), 1);
    }

    #[test]
    #[should_panic(expected = "not open")]
    fn unopened_stream_rejected() {
        let mut s = sender();
        s.send_datagram(3, MacAddr::new(2), b"x");
    }
}
