//! Spatial sub-channels: one carousel shard and one modulation
//! controller per frame region.
//!
//! A [`SpatialMux`] tiles the cycle payload with a
//! [`RegionMap`] and runs one [`Carousel`] shard per region. Every
//! object is added to all `R` shards with strided symbol sequences
//! (shard `r` emits seqs `r, r+R, …`); smooth WRR schedules the shards
//! identically, so together they emit every sequence exactly once — a
//! receiver seeing the whole frame loses nothing to the sharding, while
//! a receiver with one tile occluded loses exactly `1/R` of each
//! object's symbols and completes through rateless repair on the rest.
//!
//! A [`RegionControllerBank`] gives each region its own δ/τ controller
//! fed by that region's GOB availability, and folds the per-region δ
//! commands into per-Block amplitude scales for
//! [`inframe_core::sender::Sender::set_block_amp_scales`]. δ is spatial
//! for real (each Block carries its region's amplitude); τ is a
//! frame-global display property, so per-region τ commands are exposed
//! for GOB-level simulation but only the *maximum* τ across regions can
//! drive a physical display.

use inframe_code::framing::LossyBits;
use inframe_code::parity::GobStats;
use inframe_core::layout::DataLayout;
use inframe_core::region::RegionMap;
use inframe_core::sender::PayloadSource;
use inframe_core::InFrameConfig;
use inframe_link::carousel::{Carousel, SymbolGeometry};
use inframe_link::control::{ControllerPolicy, ModulationCommand, ModulationController};

/// Per-region carousel shards assembling full-frame cycle payloads.
#[derive(Debug, Clone)]
pub struct SpatialMux {
    map: RegionMap,
    geometry: SymbolGeometry,
    shards: Vec<Carousel>,
    frame_bits: usize,
    /// Scratch full-frame payload (reused across cycles).
    full: Vec<bool>,
    cycles_emitted: u64,
    /// Round-robin cursor spreading retransmits across shards.
    retransmit_rr: usize,
}

impl SpatialMux {
    /// A spatial multiplexer over `map` (Parity coding: regions own
    /// contiguous payload runs). All regions share one symbol geometry —
    /// the map's tiles are equal by construction.
    pub fn new(map: RegionMap) -> Self {
        let geometry = SymbolGeometry::for_payload_bits(map.region_payload_bits());
        let shards = vec![Carousel::new(geometry); map.num_regions()];
        let frame_bits = map.region_payload_bits() * map.num_regions();
        Self {
            map,
            geometry,
            shards,
            frame_bits,
            full: vec![false; frame_bits],
            cycles_emitted: 0,
            retransmit_rr: 0,
        }
    }

    /// The per-region symbol geometry.
    pub fn geometry(&self) -> SymbolGeometry {
        self.geometry
    }

    /// The region map.
    pub fn region_map(&self) -> &RegionMap {
        &self.map
    }

    /// Number of regions / shards.
    pub fn num_regions(&self) -> usize {
        self.map.num_regions()
    }

    /// Adds an object to every shard with strided sequences.
    ///
    /// # Panics
    /// Panics on a duplicate id, zero priority, or empty data.
    pub fn add_object(&mut self, id: u16, priority: u32, data: &[u8]) {
        let r_total = self.shards.len() as u32;
        for (r, shard) in self.shards.iter_mut().enumerate() {
            shard.add_object_strided(id, priority, data, r as u32, r_total);
        }
    }

    /// Removes an object from every shard. Returns whether it was
    /// present.
    pub fn remove_object(&mut self, id: u16) -> bool {
        let mut any = false;
        for shard in &mut self.shards {
            any |= shard.remove_object(id);
        }
        any
    }

    /// Object ids currently riding the shards.
    pub fn object_ids(&self) -> Vec<u16> {
        self.shards[0].object_ids()
    }

    /// Cycles emitted so far.
    pub fn cycles_emitted(&self) -> u64 {
        self.cycles_emitted
    }

    /// Queues symbol `seq` of object `id` for retransmission. Symbols
    /// are self-describing (object id + sequence ride the header), so a
    /// repeat need not retrace the strided shard that first carried it —
    /// and deliberately must not: a symbol is usually NACKed *because*
    /// its home region is faulted, so repeats rotate round-robin across
    /// all shards and mostly ride healthy tiles. Returns `false` when
    /// the object is not loaded or that symbol is already pending on
    /// some shard (re-NACK racing an in-flight repair).
    pub fn queue_retransmit(&mut self, id: u16, seq: u32) -> bool {
        self.queue_retransmit_avoiding(id, seq, 0)
    }

    /// Like [`Self::queue_retransmit`], but skips shards whose region
    /// index is set in `avoid` (a bitmask, bit `r` = shard `r`). The
    /// NACK bitmap localizes the faulted tiles — the very classes being
    /// NACKed — and a repeat routed back through a faulted tile mostly
    /// dies there. Falls back to plain rotation when every shard is
    /// avoided.
    pub fn queue_retransmit_avoiding(&mut self, id: u16, seq: u32, avoid: u64) -> bool {
        if self.shards[0].k_of(id).is_none() {
            return false;
        }
        if self.shards.iter().any(|s| s.retransmit_pending(id, seq)) {
            return false;
        }
        let n = self.shards.len();
        let mut r = self.retransmit_rr % n;
        self.retransmit_rr = self.retransmit_rr.wrapping_add(1);
        if avoid != 0 {
            for _ in 0..n {
                if avoid & (1u64 << (r as u32 & 63)) == 0 {
                    break;
                }
                r = (r + 1) % n;
                self.retransmit_rr = self.retransmit_rr.wrapping_add(1);
            }
        }
        self.shards[r].queue_retransmit(id, seq)
    }

    /// Whether object `id` is loaded on the shards.
    pub fn has_object(&self, id: u16) -> bool {
        self.shards[0].k_of(id).is_some()
    }

    /// Whether the strided schedule has emitted symbol `seq` of object
    /// `id` at least once. A receiver's NACK bitmap cannot tell "lost"
    /// from "not sent yet" — the sender can, and must not burn repeat
    /// slots on columns the regular schedule is about to carry anyway.
    pub fn seq_emitted(&self, id: u16, seq: u32) -> bool {
        let r = (seq as usize) % self.shards.len();
        self.shards[r].symbols_sent(id).is_some_and(|n| seq < n)
    }

    /// Drops queued retransmissions of `id` on every shard.
    pub fn cancel_retransmits(&mut self, id: u16) {
        for shard in &mut self.shards {
            shard.cancel_retransmits(id);
        }
    }

    /// NACKed symbols queued and not yet re-emitted, across all shards.
    pub fn retransmit_backlog(&self) -> usize {
        self.shards.iter().map(|s| s.retransmit_backlog()).sum()
    }

    /// Symbols re-emitted from retransmit rings, across all shards.
    pub fn symbols_retransmitted(&self) -> u64 {
        self.shards.iter().map(|s| s.symbols_retransmitted()).sum()
    }

    /// Emits one full-frame cycle payload: each shard fills its own
    /// region's payload run, scattered into channel order.
    ///
    /// # Panics
    /// Panics when no objects are loaded.
    pub fn next_cycle_payload(&mut self) -> Vec<bool> {
        for (r, shard) in self.shards.iter_mut().enumerate() {
            let region_payload = shard.next_cycle_payload();
            self.map.scatter(&region_payload, r, &mut self.full);
        }
        self.cycles_emitted += 1;
        self.full.clone()
    }
}

impl PayloadSource for SpatialMux {
    fn next_payload(&mut self, bits: usize) -> Vec<bool> {
        assert_eq!(
            bits, self.frame_bits,
            "sender capacity disagrees with the region tiling"
        );
        self.next_cycle_payload()
    }
}

/// One δ/τ controller per region, with per-Block amplitude scale
/// fan-out.
///
/// Per-Block scales can only *attenuate* the sender's global δ (the HVS
/// ceiling is absolute), so the bank works in envelope form: the sender
/// runs at [`RegionControllerBank::delta_envelope`] — the largest δ any
/// region demands — and every region's scale is its own commanded δ
/// divided by that envelope. A lossy region climbs toward the ceiling at
/// scale 1; clean regions reclaim imperceptibility margin by scaling
/// down.
#[derive(Debug)]
pub struct RegionControllerBank {
    map: RegionMap,
    controllers: Vec<ModulationController>,
    /// Latest per-region amplitude scale (`command δ / envelope δ`, ≤ 1).
    scales: Vec<f32>,
    /// Scratch per-Block expansion of `scales`.
    blocks: Vec<f32>,
}

impl RegionControllerBank {
    /// One controller per region of `map`, all starting from `policy`.
    pub fn new(config: &InFrameConfig, policy: ControllerPolicy, map: RegionMap) -> Self {
        let n = map.num_regions();
        Self {
            map,
            controllers: (0..n)
                .map(|_| ModulationController::new(config, policy.clone()))
                .collect(),
            scales: vec![1.0; n],
            blocks: Vec::new(),
        }
    }

    /// Number of regions.
    pub fn num_regions(&self) -> usize {
        self.controllers.len()
    }

    /// Feeds one decoded cycle to every region's controller: region `r`
    /// sees its own GOB availability split out of the cycle payload.
    /// Parity-error attribution is frame-wide, so each region is charged
    /// the frame's error *rate* applied to its own available count.
    /// Returns `true` when the per-region scales changed (the caller
    /// should re-apply the global δ from
    /// [`RegionControllerBank::delta_envelope`] and the per-Block scales
    /// from [`RegionControllerBank::block_scales`]).
    pub fn observe_cycle(&mut self, full: &LossyBits, frame_stats: &GobStats) -> bool {
        let error_rate = frame_stats.error_rate();
        let mut any_command = false;
        for r in 0..self.controllers.len() {
            let (ok, lost) = self.map.region_availability(full, r);
            let region_stats = GobStats {
                available: ok,
                erroneous: (ok as f64 * error_rate).round() as u64,
                unavailable: lost,
            };
            any_command |= self.controllers[r].observe_cycle(&region_stats).is_some();
        }
        if !any_command {
            return false;
        }
        self.recompute_scales()
    }

    /// Feeds one aggregated feedback window to the bank — the
    /// closed-loop sibling of [`RegionControllerBank::observe_cycle`]
    /// for a sender whose only view of the channel is receiver reports.
    /// Region `r`'s controller observes the aggregator's folded window
    /// for `r`; regions no fresh report touched observe nothing (their
    /// controllers hold). Returns `true` when the per-region scales
    /// changed.
    pub fn observe_feedback(&mut self, agg: &inframe_link::FeedbackAggregator) -> bool {
        let mut any_command = false;
        for (r, ctl) in self.controllers.iter_mut().enumerate() {
            if let Some(stats) = agg.window_stats(r) {
                any_command |= ctl.observe_cycle(stats).is_some();
            }
        }
        if !any_command {
            return false;
        }
        self.recompute_scales()
    }

    fn recompute_scales(&mut self) -> bool {
        let envelope = self.delta_envelope();
        let mut changed = false;
        for r in 0..self.controllers.len() {
            let scale = (self.controllers[r].command().delta / envelope).clamp(0.0, 1.0);
            if scale != self.scales[r] {
                self.scales[r] = scale;
                changed = true;
            }
        }
        changed
    }

    /// The largest δ any region currently demands — the global amplitude
    /// the sender should run at (per-Block scales attenuate from here).
    pub fn delta_envelope(&self) -> f32 {
        self.controllers
            .iter()
            .map(|c| c.command().delta)
            .fold(f32::MIN, f32::max)
    }

    /// The current command of region `r`'s controller.
    pub fn command(&self, r: usize) -> ModulationCommand {
        self.controllers[r].command()
    }

    /// Latest per-region amplitude scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Expands the per-region scales to per-Block scales for
    /// [`inframe_core::sender::Sender::set_block_amp_scales`].
    pub fn block_scales(&mut self, layout: &DataLayout) -> &[f32] {
        let scales = std::mem::take(&mut self.scales);
        self.map.block_scales(layout, &scales, &mut self.blocks);
        self.scales = scales;
        &self.blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inframe_code::framing;
    use inframe_link::rlc::ObjectDecoder;
    use inframe_link::symbol::Symbol;
    use std::collections::BTreeMap;

    fn layout() -> DataLayout {
        // paper(): 25×15 GOBs, 3 payload bits per GOB.
        DataLayout::from_config(&InFrameConfig::paper())
    }

    fn clean(bits: &[bool]) -> LossyBits {
        bits.iter().map(|&b| Some(b)).collect()
    }

    fn mux(tiles_x: usize, tiles_y: usize) -> SpatialMux {
        SpatialMux::new(RegionMap::new(&layout(), tiles_x, tiles_y))
    }

    #[test]
    fn shards_fill_the_whole_frame() {
        let mut m = mux(5, 3);
        m.add_object(1, 1, &[0xA5; 200]);
        let p = m.next_cycle_payload();
        assert_eq!(p.len(), layout().payload_bits_parity());
        assert_eq!(m.frame_bits, p.len());
    }

    #[test]
    fn full_view_decodes_each_regions_symbols() {
        // 5×3 tiling → 75-bit regions → *streamed* geometry: symbols
        // cross cycle boundaries, so each region's bits accumulate into
        // a persistent per-region stream before scanning.
        let data: Vec<u8> = (0..900u32).map(|i| (i * 13) as u8).collect();
        let mut m = mux(5, 3);
        m.add_object(7, 1, &data);
        let map = m.region_map().clone();
        let mut streams: Vec<Vec<bool>> = vec![Vec::new(); map.num_regions()];
        let mut region_buf = LossyBits::default();
        for _ in 0..200 {
            let full = clean(&m.next_cycle_payload());
            for (r, stream) in streams.iter_mut().enumerate() {
                map.gather(&full, r, &mut region_buf);
                stream.extend(region_buf.iter().map(|b| b.unwrap()));
            }
        }
        let mut dec: Option<ObjectDecoder> = None;
        let mut seqs = BTreeMap::new();
        for stream in &streams {
            for f in framing::scan(stream) {
                let s = Symbol::from_frame_payload(&f.payload).expect("valid");
                *seqs.entry(s.header.seq).or_insert(0u32) += 1;
                let d = dec.get_or_insert_with(|| ObjectDecoder::for_symbol(&s));
                d.absorb(&s);
            }
        }
        let d = dec.expect("symbols recovered");
        assert!(d.is_complete(), "full view must complete");
        assert_eq!(d.object().unwrap(), &data[..]);
        assert!(
            seqs.values().all(|&n| n == 1),
            "strided shards never repeat a sequence"
        );
    }

    #[test]
    fn losing_one_region_still_completes() {
        // 5×1 tiling → 225-bit regions → aligned geometry (one 14-byte
        // symbol per region per cycle), so per-cycle scanning is exact.
        let data: Vec<u8> = (0..600u32).map(|i| (i * 31) as u8).collect();
        let mut m = mux(5, 1);
        m.add_object(3, 1, &data);
        let map = m.region_map().clone();
        let mut dec: Option<ObjectDecoder> = None;
        let mut region_buf = LossyBits::default();
        'outer: for _ in 0..400 {
            let full = clean(&m.next_cycle_payload());
            for r in 0..map.num_regions() {
                if r == 1 {
                    continue; // region 1 occluded: its symbols never arrive
                }
                map.gather(&full, r, &mut region_buf);
                let bits: Vec<bool> = region_buf.iter().map(|b| b.unwrap()).collect();
                for f in framing::scan(&bits) {
                    let s = Symbol::from_frame_payload(&f.payload).expect("valid");
                    let d = dec.get_or_insert_with(|| ObjectDecoder::for_symbol(&s));
                    d.absorb(&s);
                    if d.is_complete() {
                        break 'outer;
                    }
                }
            }
        }
        let d = dec.expect("decoder started");
        assert!(d.is_complete(), "4 of 5 regions must suffice via repair");
        assert_eq!(d.object().unwrap(), &data[..]);
    }

    #[test]
    fn remove_object_clears_every_shard() {
        let mut m = mux(5, 3);
        m.add_object(1, 1, &[1; 64]);
        m.add_object(2, 1, &[2; 64]);
        assert!(m.remove_object(1));
        assert!(!m.remove_object(1));
        assert_eq!(m.object_ids(), vec![2]);
    }

    #[test]
    fn bank_backs_off_only_the_lossy_region() {
        let l = layout();
        let map = RegionMap::new(&l, 5, 3);
        let policy = ControllerPolicy::default();
        let window = policy.window_cycles;
        let mut bank = RegionControllerBank::new(&InFrameConfig::paper(), policy, map.clone());
        let bits = l.payload_bits_parity();
        // Region 7 erased, everything else clean.
        let mut full = clean(&vec![false; bits]);
        for &g in map.region_gobs(7) {
            let lo = g as usize * 3;
            full.erase(lo..lo + 3);
        }
        let stats = GobStats {
            available: (l.num_gobs() - map.gobs_per_region()) as u64,
            erroneous: 0,
            unavailable: map.gobs_per_region() as u64,
        };
        let mut changed = false;
        for _ in 0..2 * window {
            changed |= bank.observe_cycle(&full, &stats);
        }
        assert!(changed, "lossy region must trigger a δ change");
        // A fully-erased region cannot be saved by δ alone: the
        // controller first stretches τ (amplitude unchanged), so assert
        // the region *commanded* a defensive move while clean regions
        // did not.
        let defensive = bank.command(7);
        let clean = bank.command(0);
        assert!(
            defensive.tau > clean.tau || defensive.delta > clean.delta,
            "region 7 must degrade relative to clean regions: {defensive:?} vs {clean:?}"
        );
        // The lossy region rides the envelope at full scale; clean
        // regions attenuate below it.
        assert!((bank.delta_envelope() - defensive.delta).abs() < 1e-6);
        assert!((bank.scales()[7] - 1.0).abs() < 1e-6);
        assert!(bank.scales()[0] < 1.0);
        let blocks = bank.block_scales(&l);
        assert_eq!(blocks.len(), l.num_blocks());
        // Every Block of region 7 carries scale 1.0.
        let m = l.gob_size;
        let (gobs_x, _) = l.gob_grid();
        for by in 0..l.blocks_y {
            for bx in 0..l.blocks_x {
                let gob = (by / m) * gobs_x + bx / m;
                if map.region_of_gob(gob) == 7 {
                    assert!((blocks[by * l.blocks_x + bx] - 1.0).abs() < 1e-6);
                }
            }
        }
    }

    #[test]
    fn payload_source_contract_checks_capacity() {
        let mut m = mux(5, 5);
        m.add_object(1, 1, &[9; 32]);
        let p = PayloadSource::next_payload(&mut m, layout().payload_bits_parity());
        assert_eq!(p.len(), layout().payload_bits_parity());
    }
}
