//! The sender side of the transport: symbol geometry and the object
//! carousel.
//!
//! [`SymbolGeometry`] maps the per-cycle payload capacity of the PHY
//! channel (one data-frame cycle under the active
//! [`CodingMode`]) onto framed transport symbols. Where the
//! cycle is roomy the geometry is *aligned* — a whole number of framed
//! symbols per cycle, zero-padded tail — so one erased cycle costs
//! exactly its own symbols. Tiny channels fall back to *streamed*
//! geometry where framed symbols flow across cycle boundaries and the
//! receiver's bit-offset scanner re-finds alignment.
//!
//! [`Carousel`] interleaves any number of objects onto the symbol
//! schedule with smooth weighted round-robin by priority, emitting each
//! object's systematic pass first and then rateless repair symbols
//! forever. It implements [`PayloadSource`], so it plugs directly into
//! [`inframe_core::sender::Sender`].

use crate::rlc::RlcEncoder;
use crate::symbol::{Symbol, SYMBOL_OVERHEAD_BYTES};
use inframe_core::dataframe::payload_bits_rs;
use inframe_core::layout::DataLayout;
use inframe_core::sender::PayloadSource;
use inframe_core::CodingMode;

/// Largest symbol data size the geometry will choose, bytes. Keeps the
/// per-symbol loss quantum small on roomy channels while bounding the
/// framing overhead fraction at 14/(14+64) ≈ 18 %.
pub const MAX_SYMBOL_DATA_BYTES: usize = 64;

/// Symbol data size used by streamed geometry, bytes.
pub const STREAM_SYMBOL_DATA_BYTES: usize = 16;

/// Payload bits one data-frame cycle carries under a coding mode.
pub fn cycle_payload_bits(layout: &DataLayout, coding: CodingMode) -> usize {
    match coding {
        CodingMode::Parity => layout.payload_bits_parity(),
        CodingMode::ReedSolomon { parity_bytes } => payload_bits_rs(layout, parity_bytes),
    }
}

/// How framed symbols tile the per-cycle payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeometryMode {
    /// A whole number of framed symbols per cycle; the remaining bits of
    /// the cycle are zero padding.
    Aligned {
        /// Framed symbols per cycle.
        symbols_per_cycle: usize,
        /// Zero-padding bits at the cycle tail.
        pad_bits: usize,
    },
    /// Framed symbols stream continuously across cycle boundaries.
    Streamed,
}

/// The resolved symbol geometry of a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SymbolGeometry {
    /// Payload bits per data-frame cycle.
    pub payload_bits_per_cycle: usize,
    /// Symbol data size S, bytes.
    pub symbol_bytes: usize,
    /// Tiling mode.
    pub mode: GeometryMode,
}

impl SymbolGeometry {
    /// Geometry for a channel's layout and coding mode.
    pub fn for_channel(layout: &DataLayout, coding: CodingMode) -> Self {
        Self::for_payload_bits(cycle_payload_bits(layout, coding))
    }

    /// Geometry for a raw per-cycle bit capacity.
    ///
    /// # Panics
    /// Panics on a zero capacity.
    pub fn for_payload_bits(payload_bits: usize) -> Self {
        assert!(payload_bits > 0, "cycle carries no payload");
        let bytes = payload_bits / 8;
        if bytes > SYMBOL_OVERHEAD_BYTES {
            // Aligned: as few symbols as possible while keeping each
            // symbol's data at or below the cap.
            let n = bytes.div_ceil(SYMBOL_OVERHEAD_BYTES + MAX_SYMBOL_DATA_BYTES);
            let symbol_bytes = bytes / n - SYMBOL_OVERHEAD_BYTES;
            let used_bits = 8 * n * (SYMBOL_OVERHEAD_BYTES + symbol_bytes);
            Self {
                payload_bits_per_cycle: payload_bits,
                symbol_bytes,
                mode: GeometryMode::Aligned {
                    symbols_per_cycle: n,
                    pad_bits: payload_bits - used_bits,
                },
            }
        } else {
            Self {
                payload_bits_per_cycle: payload_bits,
                symbol_bytes: STREAM_SYMBOL_DATA_BYTES,
                mode: GeometryMode::Streamed,
            }
        }
    }

    /// Framed symbol size in bits.
    pub fn frame_bits(&self) -> usize {
        Symbol::frame_bits(self.symbol_bytes)
    }

    /// Mean symbols emitted per cycle (exact for aligned geometry).
    pub fn symbols_per_cycle(&self) -> f64 {
        match self.mode {
            GeometryMode::Aligned {
                symbols_per_cycle, ..
            } => symbols_per_cycle as f64,
            GeometryMode::Streamed => self.payload_bits_per_cycle as f64 / self.frame_bits() as f64,
        }
    }
}

/// One object riding the carousel.
#[derive(Debug, Clone)]
struct CarouselSlot {
    priority: u32,
    /// Smooth-WRR credit.
    credit: i64,
    encoder: RlcEncoder,
    next_seq: u32,
    /// Symbol-sequence stride: a spatial shard `r` of `R` emits seqs
    /// `r, r+R, r+2R, …` so that `R` shards jointly cover every sequence
    /// number exactly once.
    seq_step: u32,
}

/// A priority-interleaved rateless object carousel.
///
/// Objects are never "done" from the sender's view: after the systematic
/// pass each object keeps earning fresh repair symbols in its priority
/// share, so any receiver — whenever it joins, whatever it lost — keeps
/// making progress until its decoder completes.
#[derive(Debug, Clone)]
pub struct Carousel {
    geometry: SymbolGeometry,
    slots: Vec<CarouselSlot>,
    /// Framed bits carried over a cycle boundary (streamed geometry).
    pending: Vec<bool>,
    /// NACKed `(object, seq)` pairs awaiting retransmission; served
    /// before the WRR schedule. The ring reuses its capacity, so the
    /// steady-state ARQ path allocates nothing.
    retransmit: std::collections::VecDeque<(u16, u32)>,
    /// Symbols emitted from the retransmit ring.
    retransmitted: u64,
    cycles_emitted: u64,
}

impl Carousel {
    /// An empty carousel over the given geometry.
    pub fn new(geometry: SymbolGeometry) -> Self {
        Self {
            geometry,
            slots: Vec::new(),
            pending: Vec::new(),
            retransmit: std::collections::VecDeque::new(),
            retransmitted: 0,
            cycles_emitted: 0,
        }
    }

    /// Convenience: carousel for a channel.
    pub fn for_channel(layout: &DataLayout, coding: CodingMode) -> Self {
        Self::new(SymbolGeometry::for_channel(layout, coding))
    }

    /// The geometry.
    pub fn geometry(&self) -> SymbolGeometry {
        self.geometry
    }

    /// Adds an object. Higher `priority` earns a proportionally larger
    /// share of the symbol schedule.
    ///
    /// # Panics
    /// Panics on a duplicate id, a zero priority, or empty data.
    pub fn add_object(&mut self, id: u16, priority: u32, data: &[u8]) {
        self.add_object_strided(id, priority, data, 0, 1);
    }

    /// Adds an object whose symbol sequence starts at `seq_offset` and
    /// advances by `seq_step` — the sharding primitive behind spatial
    /// sub-channels. Adding the same object to `R` carousel shards with
    /// offsets `0..R` and step `R` makes the shards jointly emit every
    /// sequence number exactly once (shards schedule identically because
    /// smooth WRR is deterministic), so a receiver seeing all shards gets
    /// the systematic pass intact while a receiver missing a shard loses
    /// only `1/R` of the symbols and completes through rateless repair.
    ///
    /// # Panics
    /// Panics on a duplicate id, a zero priority or step, an offset not
    /// below the step, or empty data.
    pub fn add_object_strided(
        &mut self,
        id: u16,
        priority: u32,
        data: &[u8],
        seq_offset: u32,
        seq_step: u32,
    ) {
        assert!(priority > 0, "priority must be positive");
        assert!(seq_step > 0, "sequence step must be positive");
        assert!(seq_offset < seq_step, "offset must lie below the step");
        assert!(
            self.slots.iter().all(|s| s.encoder.object_id() != id),
            "object id {id} already on the carousel"
        );
        self.slots.push(CarouselSlot {
            priority,
            credit: 0,
            encoder: RlcEncoder::new(id, data, self.geometry.symbol_bytes),
            next_seq: seq_offset,
            seq_step,
        });
    }

    /// Removes an object from the schedule (content churn). Returns
    /// whether the id was present. Other slots keep their WRR credit, so
    /// removal never perturbs the relative schedule of the survivors.
    pub fn remove_object(&mut self, id: u16) -> bool {
        let before = self.slots.len();
        self.slots.retain(|s| s.encoder.object_id() != id);
        self.slots.len() != before
    }

    /// Object ids currently on the carousel.
    pub fn object_ids(&self) -> Vec<u16> {
        self.slots.iter().map(|s| s.encoder.object_id()).collect()
    }

    /// Next symbol sequence number of object `id` (equals the symbols
    /// emitted for unsharded slots; strided shards advance by their step).
    pub fn symbols_sent(&self, id: u16) -> Option<u32> {
        self.slots
            .iter()
            .find(|s| s.encoder.object_id() == id)
            .map(|s| s.next_seq)
    }

    /// Source-symbol count K of object `id`.
    pub fn k_of(&self, id: u16) -> Option<usize> {
        self.slots
            .iter()
            .find(|s| s.encoder.object_id() == id)
            .map(|s| s.encoder.k())
    }

    /// Data cycles emitted so far.
    pub fn cycles_emitted(&self) -> u64 {
        self.cycles_emitted
    }

    /// Queues one symbol of object `id` for retransmission (selective
    /// repeat). Retransmits preempt the WRR schedule but do not touch
    /// any slot's credit, so they never perturb the relative schedule
    /// of the live objects. Returns `false` (and queues nothing) when
    /// the object is not on the carousel or the same symbol is already
    /// pending — re-NACKs that race an in-flight repair must not grow
    /// the ring.
    pub fn queue_retransmit(&mut self, id: u16, seq: u32) -> bool {
        if self.slots.iter().all(|s| s.encoder.object_id() != id) {
            return false;
        }
        if self.retransmit.contains(&(id, seq)) {
            return false;
        }
        self.retransmit.push_back((id, seq));
        true
    }

    /// Whether symbol `seq` of object `id` is already queued and not
    /// yet re-emitted.
    pub fn retransmit_pending(&self, id: u16, seq: u32) -> bool {
        self.retransmit.contains(&(id, seq))
    }

    /// NACKed symbols queued and not yet re-emitted.
    pub fn retransmit_backlog(&self) -> usize {
        self.retransmit.len()
    }

    /// Drops queued retransmissions for `id` (object retired or flow
    /// degraded to pure fountain).
    pub fn cancel_retransmits(&mut self, id: u16) {
        self.retransmit.retain(|&(rid, _)| rid != id);
    }

    /// Symbols re-emitted from the retransmit ring so far.
    pub fn symbols_retransmitted(&self) -> u64 {
        self.retransmitted
    }

    /// Emits the next symbol: queued retransmissions first (skipping
    /// any whose object has since been removed), then smooth weighted
    /// round-robin — every slot earns its priority in credit, the
    /// richest slot wins and pays the total priority back.
    ///
    /// # Panics
    /// Panics on an empty carousel.
    pub fn next_symbol(&mut self) -> Symbol {
        assert!(!self.slots.is_empty(), "carousel has no objects");
        while let Some((id, seq)) = self.retransmit.pop_front() {
            if let Some(s) = self.slots.iter().find(|s| s.encoder.object_id() == id) {
                self.retransmitted += 1;
                return s.encoder.symbol(seq);
            }
        }
        let total: i64 = self.slots.iter().map(|s| s.priority as i64).sum();
        for s in &mut self.slots {
            s.credit += s.priority as i64;
        }
        let winner = self
            .slots
            .iter_mut()
            .max_by_key(|s| (s.credit, std::cmp::Reverse(s.encoder.object_id())))
            .expect("nonempty");
        winner.credit -= total;
        let sym = winner.encoder.symbol(winner.next_seq);
        winner.next_seq += winner.seq_step;
        sym
    }

    /// Emits one data cycle's payload bits.
    ///
    /// # Panics
    /// Panics on an empty carousel.
    pub fn next_cycle_payload(&mut self) -> Vec<bool> {
        let bits = self.geometry.payload_bits_per_cycle;
        let mut out = Vec::with_capacity(bits);
        match self.geometry.mode {
            GeometryMode::Aligned {
                symbols_per_cycle, ..
            } => {
                for _ in 0..symbols_per_cycle {
                    out.extend(self.next_symbol().encode_frame_bits());
                }
                out.resize(bits, false);
            }
            GeometryMode::Streamed => {
                out.append(&mut self.pending);
                while out.len() < bits {
                    out.extend(self.next_symbol().encode_frame_bits());
                }
                self.pending = out.split_off(bits);
            }
        }
        self.cycles_emitted += 1;
        out
    }
}

impl PayloadSource for Carousel {
    fn next_payload(&mut self, bits: usize) -> Vec<bool> {
        assert_eq!(
            bits, self.geometry.payload_bits_per_cycle,
            "sender capacity disagrees with carousel geometry"
        );
        self.next_cycle_payload()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rlc::ObjectDecoder;
    use inframe_code::framing;
    use inframe_core::InFrameConfig;
    use std::collections::BTreeMap;

    fn paper_layout() -> DataLayout {
        DataLayout::from_config(&InFrameConfig::paper())
    }

    #[test]
    fn paper_parity_geometry_is_aligned() {
        // 1125 bits → 140 bytes → 2 symbols of 56 data bytes, 5 pad bits.
        let g = SymbolGeometry::for_channel(&paper_layout(), CodingMode::Parity);
        assert_eq!(g.payload_bits_per_cycle, 1125);
        assert_eq!(g.symbol_bytes, 56);
        assert_eq!(
            g.mode,
            GeometryMode::Aligned {
                symbols_per_cycle: 2,
                pad_bits: 5
            }
        );
    }

    #[test]
    fn paper_rs_geometry_is_one_symbol_per_cycle() {
        // RS{10}: 11 codewords × 6 message bytes = 66 bytes → 1 × 52.
        let g = SymbolGeometry::for_channel(
            &paper_layout(),
            CodingMode::ReedSolomon { parity_bytes: 10 },
        );
        assert_eq!(g.payload_bits_per_cycle, 528);
        assert_eq!(g.symbol_bytes, 52);
        assert_eq!(
            g.mode,
            GeometryMode::Aligned {
                symbols_per_cycle: 1,
                pad_bits: 0
            }
        );
    }

    #[test]
    fn tiny_channel_streams() {
        let g = SymbolGeometry::for_payload_bits(100);
        assert_eq!(g.mode, GeometryMode::Streamed);
        assert_eq!(g.symbol_bytes, STREAM_SYMBOL_DATA_BYTES);
        assert!(g.symbols_per_cycle() < 1.0);
    }

    #[test]
    fn aligned_cycle_payload_scans_back_to_symbols() {
        let g = SymbolGeometry::for_channel(&paper_layout(), CodingMode::Parity);
        let mut car = Carousel::new(g);
        car.add_object(1, 1, &[0xAB; 300]);
        let payload = car.next_cycle_payload();
        assert_eq!(payload.len(), g.payload_bits_per_cycle);
        let frames = framing::scan(&payload);
        assert_eq!(frames.len(), 2);
        for f in &frames {
            let s = Symbol::from_frame_payload(&f.payload).expect("valid symbol");
            assert_eq!(s.header.object_id, 1);
            assert_eq!(s.data.len(), g.symbol_bytes);
        }
    }

    #[test]
    fn streamed_cycle_payloads_concatenate_into_symbols() {
        let g = SymbolGeometry::for_payload_bits(100);
        let mut car = Carousel::new(g);
        car.add_object(3, 1, &[7; 40]);
        let mut stream = Vec::new();
        for _ in 0..30 {
            let p = car.next_cycle_payload();
            assert_eq!(p.len(), 100);
            stream.extend(p);
        }
        let frames = framing::scan(&stream);
        assert!(frames.len() >= 10, "only {} frames", frames.len());
        assert!(frames
            .iter()
            .all(|f| Symbol::from_frame_payload(&f.payload).is_some()));
    }

    #[test]
    fn carousel_decodes_end_to_end() {
        let g = SymbolGeometry::for_channel(&paper_layout(), CodingMode::Parity);
        let data: Vec<u8> = (0..500u32).map(|i| (i * 7) as u8).collect();
        let mut car = Carousel::new(g);
        car.add_object(9, 1, &data);
        let mut dec: Option<ObjectDecoder> = None;
        'outer: for _ in 0..40 {
            let payload = car.next_cycle_payload();
            for f in framing::scan(&payload) {
                let s = Symbol::from_frame_payload(&f.payload).expect("valid");
                let d = dec.get_or_insert_with(|| ObjectDecoder::for_symbol(&s));
                d.absorb(&s);
                if d.is_complete() {
                    break 'outer;
                }
            }
        }
        assert_eq!(dec.unwrap().object().unwrap(), &data[..]);
    }

    #[test]
    fn priorities_shape_the_schedule() {
        let g = SymbolGeometry::for_payload_bits(8 * 8 * (SYMBOL_OVERHEAD_BYTES + 8));
        let mut car = Carousel::new(g);
        car.add_object(1, 3, &[1; 64]);
        car.add_object(2, 1, &[2; 64]);
        let mut counts: BTreeMap<u16, u32> = BTreeMap::new();
        for _ in 0..400 {
            let s = car.next_symbol();
            *counts.entry(s.header.object_id).or_default() += 1;
        }
        assert_eq!(counts[&1], 300);
        assert_eq!(counts[&2], 100);
        assert_eq!(car.symbols_sent(1), Some(300));
        assert_eq!(car.symbols_sent(2), Some(100));
    }

    #[test]
    fn carousel_is_rateless_past_the_systematic_pass() {
        let g = SymbolGeometry::for_payload_bits(8 * (SYMBOL_OVERHEAD_BYTES + 8));
        let mut car = Carousel::new(g);
        car.add_object(5, 1, &[3; 16]); // K = 2
        assert_eq!(car.k_of(5), Some(2));
        let seqs: Vec<u32> = (0..6).map(|_| car.next_symbol().header.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4, 5], "repair symbols never repeat");
    }

    #[test]
    fn strided_shards_jointly_cover_every_seq() {
        // R = 3 shards of the same carousel schedule: union of emitted
        // seqs per object is exactly 0..n with no duplicates.
        let g = SymbolGeometry::for_payload_bits(8 * 4 * (SYMBOL_OVERHEAD_BYTES + 8));
        const R: u32 = 3;
        let mut shards: Vec<Carousel> = (0..R)
            .map(|r| {
                let mut c = Carousel::new(g);
                c.add_object_strided(1, 2, &[9; 64], r, R);
                c.add_object_strided(2, 1, &[7; 48], r, R);
                c
            })
            .collect();
        let mut seqs: BTreeMap<u16, Vec<u32>> = BTreeMap::new();
        for shard in &mut shards {
            for _ in 0..60 {
                let s = shard.next_symbol();
                seqs.entry(s.header.object_id)
                    .or_default()
                    .push(s.header.seq);
            }
        }
        for (id, mut got) in seqs {
            got.sort_unstable();
            let expect: Vec<u32> = (0..got.len() as u32).collect();
            assert_eq!(got, expect, "object {id} seq coverage");
        }
    }

    #[test]
    fn remove_object_drops_it_from_the_schedule() {
        let g = SymbolGeometry::for_payload_bits(8 * 2 * (SYMBOL_OVERHEAD_BYTES + 8));
        let mut car = Carousel::new(g);
        car.add_object(1, 1, &[1; 32]);
        car.add_object(2, 1, &[2; 32]);
        assert!(car.remove_object(1));
        assert!(!car.remove_object(1));
        for _ in 0..20 {
            assert_eq!(car.next_symbol().header.object_id, 2);
        }
        assert_eq!(car.object_ids(), vec![2]);
    }

    #[test]
    #[should_panic(expected = "already on the carousel")]
    fn duplicate_object_id_rejected() {
        let mut car = Carousel::new(SymbolGeometry::for_payload_bits(1125));
        car.add_object(1, 1, &[0; 8]);
        car.add_object(1, 1, &[0; 8]);
    }

    #[test]
    fn payload_source_contract_checks_capacity() {
        let g = SymbolGeometry::for_channel(&paper_layout(), CodingMode::Parity);
        let mut car = Carousel::new(g);
        car.add_object(1, 1, &[0x55; 32]);
        let p = PayloadSource::next_payload(&mut car, 1125);
        assert_eq!(p.len(), 1125);
        assert_eq!(car.cycles_emitted(), 1);
    }
}
