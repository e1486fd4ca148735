//! Spatial sub-channel tiling: a rectangular partition of the GOB grid.
//!
//! A [`RegionMap`] splits the data frame into `tiles_x × tiles_y`
//! rectangular regions of whole GOBs. Each region is an independent
//! sub-channel: it owns a contiguous run of payload bits per GOB (Parity
//! coding lays the `m²−1` payload bits of every GOB contiguously in
//! channel order), so a region's payload can be gathered out of — and
//! scattered back into — the full-frame cycle payload without touching
//! any other region's bits. The network layer (`inframe-net`) gives every
//! region its own carousel shard and δ controller; an occluded receiver
//! loses exactly the occluded regions' bits and keeps decoding the rest.
//!
//! Region payload slicing is defined for [`crate::config::CodingMode::Parity`]
//! only: Reed–Solomon coding interleaves codewords across the whole
//! frame, so its payload bits have no per-GOB locality to tile.

use crate::layout::DataLayout;
use inframe_code::framing::LossyBits;
use std::ops::Range;

/// A rectangular tiling of the GOB grid into independent sub-channels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionMap {
    tiles_x: usize,
    tiles_y: usize,
    gobs_x: usize,
    gobs_y: usize,
    /// Payload bits per GOB (`m² − 1` under Parity coding).
    bits_per_gob: usize,
    /// GOB indices (row-major over the GOB grid) of each region,
    /// concatenated; region `r` owns `gob_index[gob_start[r]..gob_start[r+1]]`.
    gob_index: Vec<u32>,
    gob_start: Vec<u32>,
}

impl RegionMap {
    /// Tiles the layout's GOB grid into `tiles_x × tiles_y` regions.
    ///
    /// # Panics
    /// Panics when a tile count is zero or does not divide the GOB grid
    /// evenly — uneven tiles would give regions different symbol
    /// geometries and break carousel shard alignment.
    pub fn new(layout: &DataLayout, tiles_x: usize, tiles_y: usize) -> Self {
        let (gobs_x, gobs_y) = layout.gob_grid();
        assert!(tiles_x > 0 && tiles_y > 0, "tile counts must be positive");
        assert!(
            gobs_x % tiles_x == 0 && gobs_y % tiles_y == 0,
            "tiles {tiles_x}×{tiles_y} do not divide the {gobs_x}×{gobs_y} GOB grid"
        );
        let (tw, th) = (gobs_x / tiles_x, gobs_y / tiles_y);
        let mut gob_index = Vec::with_capacity(gobs_x * gobs_y);
        let mut gob_start = Vec::with_capacity(tiles_x * tiles_y + 1);
        gob_start.push(0);
        for ty in 0..tiles_y {
            for tx in 0..tiles_x {
                for gy in ty * th..(ty + 1) * th {
                    for gx in tx * tw..(tx + 1) * tw {
                        gob_index.push((gy * gobs_x + gx) as u32);
                    }
                }
                gob_start.push(gob_index.len() as u32);
            }
        }
        Self {
            tiles_x,
            tiles_y,
            gobs_x,
            gobs_y,
            bits_per_gob: layout.blocks_per_gob() - 1,
            gob_index,
            gob_start,
        }
    }

    /// Number of regions.
    pub fn num_regions(&self) -> usize {
        self.tiles_x * self.tiles_y
    }

    /// GOBs per region (equal across regions by construction).
    pub fn gobs_per_region(&self) -> usize {
        self.gob_index.len() / self.num_regions()
    }

    /// Payload bits each region carries per cycle (Parity coding).
    pub fn region_payload_bits(&self) -> usize {
        self.gobs_per_region() * self.bits_per_gob
    }

    /// The GOB indices (row-major over the GOB grid) owned by `region`.
    pub fn region_gobs(&self, region: usize) -> &[u32] {
        let lo = self.gob_start[region] as usize;
        let hi = self.gob_start[region + 1] as usize;
        &self.gob_index[lo..hi]
    }

    /// The region owning GOB `gob` (row-major GOB-grid index).
    pub fn region_of_gob(&self, gob: usize) -> usize {
        let (tw, th) = (self.gobs_x / self.tiles_x, self.gobs_y / self.tiles_y);
        let (gx, gy) = (gob % self.gobs_x, gob / self.gobs_x);
        (gy / th) * self.tiles_x + gx / tw
    }

    /// Gathers `region`'s payload bits out of a full-frame cycle payload
    /// (channel order, Parity coding) into `out`. `out` is cleared and
    /// refilled; with its capacity warm this performs no allocation.
    ///
    /// # Panics
    /// Panics when `full` is not a whole frame of payload bits.
    pub fn gather(&self, full: &LossyBits, region: usize, out: &mut LossyBits) {
        assert_eq!(
            full.len(),
            self.gob_index.len() * self.bits_per_gob,
            "payload is not a full frame"
        );
        out.clear();
        for bits in self.runs(region) {
            out.extend_from(full, bits);
        }
    }

    /// Scatters `region`'s payload bits into a full-frame cycle payload
    /// (inverse of [`RegionMap::gather`]).
    ///
    /// # Panics
    /// Panics on a wrong-sized region payload or full-frame buffer.
    pub fn scatter<T: Copy>(&self, region_payload: &[T], region: usize, full: &mut [T]) {
        assert_eq!(
            region_payload.len(),
            self.region_payload_bits(),
            "region payload has the wrong size"
        );
        assert_eq!(
            full.len(),
            self.gob_index.len() * self.bits_per_gob,
            "payload is not a full frame"
        );
        let runs = region_payload.chunks(self.bits_per_gob);
        for (src, &g) in runs.zip(self.region_gobs(region)) {
            let lo = g as usize * self.bits_per_gob;
            full[lo..lo + src.len()].copy_from_slice(src);
        }
    }

    /// Expands per-region amplitude scales into per-Block scales
    /// (row-major over the Block grid), for
    /// [`crate::multiplex::Multiplexer::set_block_amp_scales`]. Scales are
    /// clamped to `[0, 1]` — regions may only back *off* from the global
    /// δ, never exceed the HVS ceiling.
    ///
    /// # Panics
    /// Panics when `scales` has one entry per region missing or spare.
    pub fn block_scales(&self, layout: &DataLayout, scales: &[f32], out: &mut Vec<f32>) {
        assert_eq!(scales.len(), self.num_regions(), "one scale per region");
        let m = layout.gob_size;
        out.clear();
        out.reserve(layout.num_blocks());
        for by in 0..layout.blocks_y {
            for bx in 0..layout.blocks_x {
                let gob = (by / m) * self.gobs_x + bx / m;
                out.push(scales[self.region_of_gob(gob)].clamp(0.0, 1.0));
            }
        }
    }

    /// Per-region GOB availability computed from a decoded cycle payload
    /// (channel order): a GOB whose payload run survived intact counts as
    /// available, a GOB with any erased bit as unavailable. Parity-level
    /// error attribution stays with the frame-wide
    /// [`inframe_code::parity::GobStats`]; this split drives the
    /// per-region δ controllers.
    pub fn region_availability(&self, full: &LossyBits, region: usize) -> (u64, u64) {
        let bpg = self.bits_per_gob;
        let mut lost = 0;
        for bits in self.runs(region) {
            if !full.is_intact(bits.clone()) {
                let gobs = bits.step_by(bpg);
                lost += gobs.filter(|&lo| !full.is_intact(lo..lo + bpg)).count();
            }
        }
        ((self.gobs_per_region() - lost) as u64, lost as u64)
    }

    /// The payload bit ranges of `region`'s runs of consecutive GOBs
    /// (contiguous, since the payload runs GOB by GOB).
    fn runs(&self, region: usize) -> impl Iterator<Item = Range<usize>> + '_ {
        let runs = self.region_gobs(region).chunk_by(|&a, &b| b == a + 1);
        runs.map(|run| {
            let lo = run[0] as usize * self.bits_per_gob;
            lo..lo + run.len() * self.bits_per_gob
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InFrameConfig;

    fn layout() -> DataLayout {
        // paper(): 50×30 blocks, gob_size 2 → 25×15 GOBs.
        DataLayout::from_config(&InFrameConfig::paper())
    }

    #[test]
    fn tiling_partitions_the_gob_grid() {
        let l = layout();
        let map = RegionMap::new(&l, 5, 3);
        assert_eq!(map.num_regions(), 15);
        assert_eq!(map.gobs_per_region(), 25);
        let mut seen = vec![false; l.num_gobs()];
        for r in 0..map.num_regions() {
            for &g in map.region_gobs(r) {
                assert!(!seen[g as usize], "GOB {g} in two regions");
                seen[g as usize] = true;
                assert_eq!(map.region_of_gob(g as usize), r);
            }
        }
        assert!(seen.iter().all(|&s| s), "every GOB covered");
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let l = layout();
        let map = RegionMap::new(&l, 5, 5);
        let full: Vec<bool> = (0..l.payload_bits_parity())
            .map(|i| (i * 7919) % 5 < 2)
            .collect();
        let received: LossyBits = full.iter().map(|&b| Some(b)).collect();
        let mut rebuilt = vec![false; full.len()];
        let mut buf = LossyBits::default();
        for r in 0..map.num_regions() {
            map.gather(&received, r, &mut buf);
            assert_eq!(buf.len(), map.region_payload_bits());
            let bits: Vec<bool> = buf.iter().map(|b| b.unwrap()).collect();
            map.scatter(&bits, r, &mut rebuilt);
        }
        assert_eq!(rebuilt, full);
    }

    #[test]
    fn region_payload_bits_sum_to_frame() {
        let l = layout();
        for (tx, ty) in [(1, 1), (5, 3), (25, 15)] {
            let map = RegionMap::new(&l, tx, ty);
            assert_eq!(
                map.region_payload_bits() * map.num_regions(),
                l.payload_bits_parity()
            );
        }
    }

    #[test]
    fn block_scales_follow_region_of_block() {
        let l = layout();
        let map = RegionMap::new(&l, 5, 3);
        let scales: Vec<f32> = (0..map.num_regions()).map(|r| r as f32 / 20.0).collect();
        let mut blocks = Vec::new();
        map.block_scales(&l, &scales, &mut blocks);
        assert_eq!(blocks.len(), l.num_blocks());
        let m = l.gob_size;
        let (gobs_x, _) = l.gob_grid();
        for by in 0..l.blocks_y {
            for bx in 0..l.blocks_x {
                let gob = (by / m) * gobs_x + bx / m;
                let r = map.region_of_gob(gob);
                assert_eq!(blocks[by * l.blocks_x + bx], scales[r]);
            }
        }
    }

    #[test]
    fn availability_split_counts_erased_gobs() {
        let l = layout();
        let map = RegionMap::new(&l, 5, 3);
        let mut full: Vec<Option<bool>> = vec![Some(true); l.payload_bits_parity()];
        // Erase one bit in the first GOB of region 7.
        let g = map.region_gobs(7)[0] as usize;
        full[g * (l.blocks_per_gob() - 1)] = None;
        let full: LossyBits = full.into_iter().collect();
        let (ok, lost) = map.region_availability(&full, 7);
        assert_eq!(lost, 1);
        assert_eq!(ok as usize, map.gobs_per_region() - 1);
        let (ok0, lost0) = map.region_availability(&full, 0);
        assert_eq!((ok0 as usize, lost0), (map.gobs_per_region(), 0));
    }

    #[test]
    #[should_panic(expected = "do not divide")]
    fn uneven_tiling_rejected() {
        RegionMap::new(&layout(), 7, 3);
    }
}
