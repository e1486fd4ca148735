//! The network-layer receiver: cycle payload bits → per-region symbols
//! → shared object decoders → MAC filtering → per-lane in-order
//! delivery (one reassembly lane per (stream, destination) pair, since
//! sequence numbers are per destination on the send side).
//!
//! One [`SymbolScanner`] per spatial region keeps framing damage local —
//! an occluded tile corrupts only its own scanner's alignment — while
//! all regions feed one shared decoder pool (every shard carries slices
//! of the *same* objects, so per-region decoders would each see only
//! `1/R` of an object's symbols and never complete).
//!
//! Filtering happens twice. Symbols whose object-id hint the receiver's
//! [`AddressFilter`] does not admit are dropped before any decoder state
//! is bought; frames inside completed objects are then checked against
//! the exact destination address. The frame-to-stream path
//! ([`NetReceiver::ingest_bytes`]) is the steady-state hot path and
//! performs no heap allocation: MAC views borrow the object bytes and
//! every [`StreamRx`] buffer is preallocated at stream-open time.

use crate::addr::AddressFilter;
use crate::mac::MacScanner;
use crate::stream::StreamRx;
use inframe_code::framing::LossyBits;
use inframe_code::parity::GobStats;
use inframe_core::region::RegionMap;
use inframe_link::feedback::{FeedbackReport, ObjectNack, RegionQuality, NACK_WORDS};
use inframe_link::rlc::ObjectDecoder;
use inframe_link::session::SymbolScanner;
use inframe_link::symbol::object_hint;
use inframe_link::SymbolGeometry;
use inframe_obs::{names, Counter, Telemetry};
use std::collections::BTreeMap;

struct RecvObs {
    telemetry: Telemetry,
    frames_rx: Counter,
    frames_filtered: Counter,
    frames_rejected: Counter,
    datagrams_rx: Counter,
    bytes_rx: Counter,
    objects_ingested: Counter,
}

impl RecvObs {
    fn new(telemetry: &Telemetry) -> Self {
        Self {
            telemetry: telemetry.clone(),
            frames_rx: telemetry.counter(names::net::FRAMES_RX),
            frames_filtered: telemetry.counter(names::net::FRAMES_FILTERED),
            frames_rejected: telemetry.counter(names::net::FRAMES_REJECTED),
            datagrams_rx: telemetry.counter(names::net::DATAGRAMS_RX),
            bytes_rx: telemetry.counter(names::net::BYTES_RX),
            objects_ingested: telemetry.counter(names::net::OBJECTS_INGESTED),
        }
    }
}

/// Strided rounds the global reception frontier must lead a hole by
/// before the hole counts as lost without any same-class evidence —
/// covers the scan pipeline (a symbol spans multiple cycles) plus the
/// slight shard drift retransmit preemption introduces.
const FRONTIER_SLACK_ROUNDS: u32 = 3;

/// One reassembly lane: the [`StreamRx`] for a single (stream,
/// destination) pair, matching the sender's per-destination sequence
/// spaces.
struct Lane {
    dst: u16,
    rx: StreamRx,
}

/// One open receive stream: a lane per destination this receiver
/// accepts, plus its delivered-bytes counter (name resolved once at
/// open time). Lanes for the own address, broadcast, and every joined
/// group are preallocated at open time; only a promiscuous tap ever
/// binds (and allocates) further lanes, on first traffic per flow.
struct OpenStream {
    lanes: Vec<Lane>,
    window: usize,
    max_fragment: usize,
    arena_bytes: usize,
    bytes: Counter,
}

/// The receiver side of the network layer.
pub struct NetReceiver {
    filter: AddressFilter,
    map: RegionMap,
    geometry: SymbolGeometry,
    scanners: Vec<SymbolScanner>,
    /// Symbol-level admission mask derived from `filter`.
    admission: u64,
    decoders: BTreeMap<u16, ObjectDecoder>,
    /// Per-object reception frontiers, one per stride class (`seq % R`):
    /// `max received seq + 1` in that class. A systematic hole below its
    /// class frontier was provably emitted and lost; one at or past it
    /// may simply not have been scheduled yet, and must not be NACKed.
    frontiers: BTreeMap<u16, Vec<u32>>,
    /// Completed object ids in completion order.
    completed: Vec<u16>,
    /// How many completed objects have been MAC-ingested.
    ingested: usize,
    streams: BTreeMap<u8, OpenStream>,
    /// Scratch region payload (gather target).
    region_buf: LossyBits,
    /// Scratch completed-object bytes (ingest staging).
    object_buf: Vec<u8>,
    /// Per-region decode-quality window since the last feedback report.
    region_window: Vec<GobStats>,
    /// Per-region scanner-rejection watermarks (error attribution).
    rejected_mark: Vec<u64>,
    symbols_filtered: u64,
    frames_rx: u64,
    frames_filtered: u64,
    frames_rejected: u64,
    cycles: u64,
    obs: RecvObs,
}

impl NetReceiver {
    /// A receiver with the given address filter over the frame tiling.
    /// The symbol geometry must match the sender's per-region geometry
    /// (it is fully determined by the tiling, so constructing both ends
    /// from the same `RegionMap` guarantees agreement).
    pub fn new(map: RegionMap, filter: AddressFilter) -> Self {
        let geometry = SymbolGeometry::for_payload_bits(map.region_payload_bits());
        let scanners = (0..map.num_regions())
            .map(|_| SymbolScanner::new(geometry.symbol_bytes))
            .collect();
        let admission = filter.admission_mask();
        let region_buf = LossyBits::with_capacity(map.region_payload_bits());
        let region_window = vec![GobStats::default(); map.num_regions()];
        let rejected_mark = vec![0u64; map.num_regions()];
        Self {
            filter,
            map,
            geometry,
            scanners,
            admission,
            decoders: BTreeMap::new(),
            frontiers: BTreeMap::new(),
            completed: Vec::new(),
            ingested: 0,
            streams: BTreeMap::new(),
            region_buf,
            object_buf: Vec::new(),
            region_window,
            rejected_mark,
            symbols_filtered: 0,
            frames_rx: 0,
            frames_filtered: 0,
            frames_rejected: 0,
            cycles: 0,
            obs: RecvObs::new(&Telemetry::disabled()),
        }
    }

    /// Attaches a telemetry spine (`net.frames_*`, `net.datagrams_rx`,
    /// `net.bytes_rx`, `net.objects_ingested`, `net.stream.*.bytes_rx`).
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.obs = RecvObs::new(telemetry);
        self
    }

    /// Opens a receive stream: one reassembly lane per destination the
    /// address filter accepts (own, broadcast, joined groups), each with
    /// a `window`-fragment reorder window, fragments up to
    /// `max_fragment` bytes, and `arena_bytes` of undelivered-datagram
    /// arena. All buffers are allocated here, once — except under a
    /// promiscuous filter, where new flows bind lanes lazily.
    ///
    /// # Panics
    /// Panics on a duplicate stream id.
    pub fn open_stream(&mut self, id: u8, window: usize, max_fragment: usize, arena_bytes: usize) {
        assert!(!self.streams.contains_key(&id), "stream {id} already open");
        // Per-stream counter names are dynamic; the leak is one small
        // string per stream open (bounded by 256 stream ids), never on
        // the per-frame path.
        let name: &'static str = Box::leak(names::net::stream_bytes(id).into_boxed_str());
        let mut dsts = vec![self.filter.own_addr().0, crate::addr::MacAddr::BROADCAST.0];
        dsts.extend_from_slice(self.filter.groups());
        self.streams.insert(
            id,
            OpenStream {
                lanes: dsts
                    .into_iter()
                    .map(|dst| Lane {
                        dst,
                        rx: StreamRx::new(window, max_fragment, arena_bytes),
                    })
                    .collect(),
                window,
                max_fragment,
                arena_bytes,
                bytes: self.obs.telemetry.counter(name),
            },
        );
    }

    /// The receiver's address filter.
    pub fn filter(&self) -> &AddressFilter {
        &self.filter
    }

    /// The per-region symbol geometry.
    pub fn geometry(&self) -> SymbolGeometry {
        self.geometry
    }

    /// The symbol-level admission mask in force.
    pub fn admission_mask(&self) -> u64 {
        self.admission
    }

    /// Absorbs one full-frame cycle payload (channel order, per-GOB
    /// losses erased): gathers each region's bits, scans them for
    /// symbols, admission-filters on the object-id hint, and feeds the
    /// shared decoder pool. Newly completed objects are MAC-ingested
    /// before returning.
    pub fn push_cycle(&mut self, full: &LossyBits) {
        for r in 0..self.scanners.len() {
            // Decode-quality accounting for the feedback loop: per-GOB
            // availability from the erasure pattern, symbol-CRC
            // rejections as the in-region error proxy (GOB parity is
            // resolved below this layer).
            let (ok, lost) = self.map.region_availability(full, r);
            self.region_window[r].available += ok;
            self.region_window[r].unavailable += lost;
            // A fully-erased region yields no symbols, but still keeps
            // its own scanner: damage to one tile's framing alignment
            // never leaks into another tile.
            self.map.gather(full, r, &mut self.region_buf);
            for symbol in self.scanners[r].push_payload(&self.region_buf) {
                let id = symbol.header.object_id;
                if self.admission & (1u64 << object_hint(id)) == 0 {
                    self.symbols_filtered += 1;
                    continue;
                }
                let regions = self.scanners.len();
                let fr = self
                    .frontiers
                    .entry(id)
                    .or_insert_with(|| vec![0u32; regions]);
                let class = (symbol.header.seq as usize) % fr.len();
                fr[class] = fr[class].max(symbol.header.seq + 1);
                let decoder = self
                    .decoders
                    .entry(id)
                    .or_insert_with(|| ObjectDecoder::for_symbol(&symbol));
                let was_complete = decoder.is_complete();
                decoder.absorb(&symbol);
                if decoder.is_complete() && !was_complete {
                    self.completed.push(id);
                    self.obs.objects_ingested.incr();
                }
            }
            let rejected = self.scanners[r].rejected();
            let delta = rejected - self.rejected_mark[r];
            self.rejected_mark[r] = rejected;
            // Attribute CRC-failed symbols to this region's window,
            // capped so error_rate stays ≤ 1.
            let w = &mut self.region_window[r];
            w.erroneous = (w.erroneous + delta).min(w.available);
        }
        self.cycles += 1;
        self.ingest_completed();
    }

    /// Builds one back-channel report: the per-region decode-quality
    /// window accumulated since the previous report (then reset), plus
    /// NACK bitmaps for up to [`inframe_link::feedback::MAX_NACK_OBJECTS`]
    /// in-progress objects (lowest object id first; the bitmap covers the
    /// first [`inframe_link::feedback::NACK_SPAN`] systematic columns).
    /// Stack-only — nothing allocates.
    pub fn build_feedback(&mut self, cycle: u64) -> FeedbackReport {
        let mut report = FeedbackReport::new(self.filter.own_addr().0, cycle);
        for w in &mut self.region_window {
            let availability = if w.total() == 0 {
                1.0
            } else {
                w.available_ratio()
            };
            report.push_region(RegionQuality::quantize(availability, w.error_rate()));
            *w = GobStats::default();
        }
        for (&id, d) in &self.decoders {
            if d.is_complete() || d.received() == 0 {
                continue;
            }
            let mut words = [0u64; NACK_WORDS];
            if d.missing_systematic_into(&mut words) == 0 {
                continue;
            }
            // Selective-repeat discipline: only NACK holes the schedule
            // has provably passed — anything else is in flight (or not
            // yet scheduled) and NACKing it only provokes duplicate
            // repeats. Two proofs of "passed":
            //  * class frontier — a later symbol of the same stride
            //    class arrived, so the hole's shard emitted and lost it;
            //  * round frontier — the shards emit in lockstep, so a
            //    symbol received `FRONTIER_SLACK` strided rounds past
            //    the hole proves every shard (even one so occluded that
            //    nothing of its class ever arrives) emitted it long ago.
            let mut holes = 0u32;
            if let Some(fr) = self.frontiers.get(&id) {
                let classes = fr.len() as u32;
                let round_frontier = fr
                    .iter()
                    .map(|&f| f.saturating_sub(1) / classes)
                    .max()
                    .unwrap_or(0);
                for (w, word) in words.iter_mut().enumerate() {
                    let mut bits = *word;
                    while bits != 0 {
                        let b = bits.trailing_zeros();
                        bits &= bits - 1;
                        let j = w as u32 * 64 + b;
                        let class_passed = j + 1 < fr[(j as usize) % fr.len()];
                        let round_passed = j / classes + FRONTIER_SLACK_ROUNDS <= round_frontier;
                        if class_passed || round_passed {
                            holes += 1;
                        } else {
                            *word &= !(1u64 << b);
                        }
                    }
                }
            } else {
                words = [0u64; NACK_WORDS];
            }
            if holes == 0 {
                continue;
            }
            let nack = ObjectNack {
                object_id: id,
                k: d.k().min(u16::MAX as usize) as u16,
                rank: d.rank().min(u16::MAX as usize) as u16,
                words,
            };
            if !report.push_nack(nack) {
                break;
            }
        }
        report
    }

    /// MAC-ingests completed objects not yet processed.
    fn ingest_completed(&mut self) {
        while self.ingested < self.completed.len() {
            let id = self.completed[self.ingested];
            self.ingested += 1;
            self.object_buf.clear();
            let obj = self.decoders[&id].object().expect("completed object");
            self.object_buf.extend_from_slice(obj);
            let buf = std::mem::take(&mut self.object_buf);
            self.ingest_bytes(&buf);
            self.object_buf = buf;
        }
    }

    /// Scans `bytes` for MAC frames, applies the exact address filter,
    /// and pushes accepted fragments into their streams. This is the
    /// steady-state hot path: it performs no heap allocation (frames
    /// borrow `bytes`; stream buffers are preallocated).
    pub fn ingest_bytes(&mut self, bytes: &[u8]) {
        let mut scanner = MacScanner::new(bytes);
        for frame in &mut scanner {
            self.frames_rx += 1;
            self.obs.frames_rx.incr();
            if !self.filter.accepts(frame.dst) {
                self.frames_filtered += 1;
                self.obs.frames_filtered.incr();
                continue;
            }
            match self.streams.get_mut(&frame.stream) {
                Some(open) => {
                    let lane = match open.lanes.iter_mut().position(|l| l.dst == frame.dst.0) {
                        Some(i) => &mut open.lanes[i],
                        None => {
                            // Only reachable under a promiscuous filter:
                            // a normal filter's accepted destinations all
                            // have eager lanes. Binding allocates — once
                            // per observed flow, a tap's warmup cost.
                            open.lanes.push(Lane {
                                dst: frame.dst.0,
                                rx: StreamRx::new(open.window, open.max_fragment, open.arena_bytes),
                            });
                            open.lanes.last_mut().expect("just pushed")
                        }
                    };
                    lane.rx
                        .push_fragment(frame.seq, frame.is_last(), frame.payload);
                }
                None => {
                    self.frames_rejected += 1;
                    self.obs.frames_rejected.incr();
                }
            }
        }
        if scanner.rejected_bytes() > 0 {
            self.frames_rejected += 1;
            self.obs.frames_rejected.incr();
        }
    }

    /// Copies the next in-order datagram of `stream` into `out`,
    /// scanning the stream's lanes in bind order (own, broadcast,
    /// groups). Returns whether one was delivered.
    pub fn pop_datagram(&mut self, stream: u8, out: &mut Vec<u8>) -> bool {
        let Some(open) = self.streams.get_mut(&stream) else {
            return false;
        };
        for lane in open.lanes.iter_mut() {
            if lane.rx.pop_datagram_into(out) {
                self.obs.datagrams_rx.incr();
                self.obs.bytes_rx.add(out.len() as u64);
                open.bytes.add(out.len() as u64);
                return true;
            }
        }
        false
    }

    /// Read access to one lane's reassembly state (delivered bytes,
    /// digest, drop counters): the lane of `stream` carrying traffic
    /// addressed to `dst`.
    pub fn stream_lane(&self, id: u8, dst: crate::addr::MacAddr) -> Option<&StreamRx> {
        self.streams
            .get(&id)?
            .lanes
            .iter()
            .find(|l| l.dst == dst.0)
            .map(|l| &l.rx)
    }

    /// Total bytes delivered on `stream` across all its lanes.
    pub fn stream_delivered_bytes(&self, id: u8) -> u64 {
        self.streams
            .get(&id)
            .map(|s| s.lanes.iter().map(|l| l.rx.delivered_bytes()).sum())
            .unwrap_or(0)
    }

    /// Completed object ids in completion order.
    pub fn completed_objects(&self) -> &[u16] {
        &self.completed
    }

    /// Drops the decoder state of a completed, already-ingested object
    /// (its id may then be reused by the sender). Returns whether state
    /// was held.
    pub fn forget_object(&mut self, id: u16) -> bool {
        if self.completed.contains(&id) && self.decoders.contains_key(&id) {
            self.decoders.remove(&id);
            self.frontiers.remove(&id);
            return true;
        }
        false
    }

    /// Symbols dropped by the admission pre-filter.
    pub fn symbols_filtered(&self) -> u64 {
        self.symbols_filtered
    }

    /// MAC frames scanned out of completed objects.
    pub fn frames_rx(&self) -> u64 {
        self.frames_rx
    }

    /// Frames dropped by the exact address filter.
    pub fn frames_filtered(&self) -> u64 {
        self.frames_filtered
    }

    /// Frames rejected (unknown stream, or residual bytes that framed no
    /// valid MAC frame).
    pub fn frames_rejected(&self) -> u64 {
        self.frames_rejected
    }

    /// Cycles absorbed.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// In-progress (admitted, incomplete) decoder count.
    pub fn open_decoders(&self) -> usize {
        self.decoders.values().filter(|d| !d.is_complete()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::MacAddr;
    use crate::sender::NetSender;
    use crate::stream::StreamQos;
    use inframe_core::layout::DataLayout;
    use inframe_core::InFrameConfig;

    fn map() -> RegionMap {
        let layout = DataLayout::from_config(&InFrameConfig::paper());
        RegionMap::new(&layout, 5, 3)
    }

    fn wired_pair(dst: MacAddr) -> (NetSender, NetReceiver) {
        let mut tx = NetSender::new(map(), MacAddr::new(0x0001));
        tx.open_stream(0, StreamQos::bulk(), 64);
        let mut rx = NetReceiver::new(map(), AddressFilter::new(MacAddr::new(0x0042)));
        rx.open_stream(0, 64, 64, 1 << 16);
        let _ = dst;
        (tx, rx)
    }

    fn some(bits: &[bool]) -> LossyBits {
        bits.iter().map(|&b| Some(b)).collect()
    }

    #[test]
    fn end_to_end_unicast_delivery() {
        let (mut tx, mut rx) = wired_pair(MacAddr::new(0x0042));
        let data: Vec<u8> = (0..700u32).map(|i| (i * 3) as u8).collect();
        tx.send_datagram(0, MacAddr::new(0x0042), &data);
        let mut out = Vec::new();
        for _ in 0..300 {
            let payload = tx.next_cycle_payload();
            rx.push_cycle(&some(&payload));
            if rx.pop_datagram(0, &mut out) {
                assert_eq!(out, data);
                return;
            }
        }
        panic!("datagram never delivered");
    }

    #[test]
    fn foreign_unicast_is_invisible_past_the_filters() {
        let (mut tx, mut rx) = wired_pair(MacAddr::new(0x0042));
        // Addressed to someone else entirely.
        tx.send_datagram(0, MacAddr::new(0x0077), &[9; 400]);
        for _ in 0..100 {
            let payload = tx.next_cycle_payload();
            rx.push_cycle(&some(&payload));
        }
        let mut out = Vec::new();
        assert!(!rx.pop_datagram(0, &mut out));
        // Either the hint pre-filter caught it (no decoder ever built)
        // or — on a hint collision — the MAC filter did.
        let hint_collision = MacAddr::new(0x0077).hint() == MacAddr::new(0x0042).hint();
        if hint_collision {
            assert!(rx.frames_filtered() > 0);
        } else {
            assert!(rx.symbols_filtered() > 0);
            assert_eq!(rx.frames_rx(), 0);
            assert_eq!(rx.open_decoders(), 0, "no decoder state bought");
        }
        assert_eq!(rx.stream_delivered_bytes(0), 0);
    }

    #[test]
    fn broadcast_reaches_every_receiver() {
        let (mut tx, mut rx_a) = wired_pair(MacAddr::BROADCAST);
        let mut rx_b = NetReceiver::new(map(), AddressFilter::new(MacAddr::new(0x0099)));
        rx_b.open_stream(0, 64, 64, 1 << 16);
        tx.send_datagram(0, MacAddr::BROADCAST, b"hear ye, hear ye");
        let (mut got_a, mut got_b) = (false, false);
        let mut out = Vec::new();
        for _ in 0..200 {
            let payload = tx.next_cycle_payload();
            rx_a.push_cycle(&some(&payload));
            rx_b.push_cycle(&some(&payload));
            got_a |= rx_a.pop_datagram(0, &mut out);
            got_b |= rx_b.pop_datagram(0, &mut out);
            if got_a && got_b {
                return;
            }
        }
        panic!("broadcast incomplete: a={got_a} b={got_b}");
    }

    #[test]
    fn mixed_destinations_on_one_stream_reassemble_per_lane() {
        let (mut tx, mut rx) = wired_pair(MacAddr::new(0x0042));
        // A foreign unicast shares the stream: its fragments must not
        // punch sequence gaps into the lanes this receiver does accept.
        tx.send_datagram(0, MacAddr::new(0x0077), &[1; 300]);
        tx.send_datagram(0, MacAddr::new(0x0042), b"mine");
        tx.send_datagram(0, MacAddr::BROADCAST, b"everyone");
        let (mut got, mut out) = (Vec::new(), Vec::new());
        for _ in 0..300 {
            let payload = tx.next_cycle_payload();
            rx.push_cycle(&some(&payload));
            while rx.pop_datagram(0, &mut out) {
                got.push(out.clone());
            }
            if got.len() == 2 {
                break;
            }
        }
        assert!(got.contains(&b"mine".to_vec()), "unicast lane stalled");
        assert!(
            got.contains(&b"everyone".to_vec()),
            "broadcast lane stalled"
        );
        let own = rx.stream_lane(0, MacAddr::new(0x0042)).unwrap();
        assert_eq!(own.delivered_bytes(), 4);
        let bcast = rx.stream_lane(0, MacAddr::BROADCAST).unwrap();
        assert_eq!(bcast.delivered_bytes(), 8);
    }

    #[test]
    fn occluded_region_still_completes() {
        let (mut tx, mut rx) = wired_pair(MacAddr::new(0x0042));
        let data: Vec<u8> = (0..900u32).map(|i| (i * 7) as u8).collect();
        tx.send_datagram(0, MacAddr::new(0x0042), &data);
        let m = map();
        let mut out = Vec::new();
        for _ in 0..600 {
            let payload = tx.next_cycle_payload();
            let mut seen = some(&payload);
            // Region 3 permanently occluded.
            for &g in m.region_gobs(3) {
                let bits = m.region_payload_bits() / m.gobs_per_region();
                let lo = g as usize * bits;
                seen.erase(lo..lo + bits);
            }
            rx.push_cycle(&seen);
            if rx.pop_datagram(0, &mut out) {
                assert_eq!(out, data);
                return;
            }
        }
        panic!("occluded receiver never completed");
    }

    #[test]
    fn forget_object_releases_decoder_state() {
        let (mut tx, mut rx) = wired_pair(MacAddr::new(0x0042));
        tx.send_datagram(0, MacAddr::new(0x0042), &[1; 100]);
        let mut out = Vec::new();
        for _ in 0..200 {
            let payload = tx.next_cycle_payload();
            rx.push_cycle(&some(&payload));
            if rx.pop_datagram(0, &mut out) {
                break;
            }
        }
        let ids = rx.completed_objects().to_vec();
        assert_eq!(ids.len(), 1);
        assert!(rx.forget_object(ids[0]));
        assert!(!rx.forget_object(ids[0]));
    }
}
