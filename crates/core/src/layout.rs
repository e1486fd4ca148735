//! Spatial layout of the data frame: Pixels, Blocks and GOBs on the
//! display.
//!
//! The hierarchy (paper §3.3): `p×p` display pixels form one super-Pixel,
//! `s×s` Pixels form one Block (one bit), `m×m` Blocks form one GOB. The
//! grid is centered on the display; at the paper's parameters the
//! 50×30-Block grid spans 1800×1080 of the 1920×1080 panel.

use crate::config::InFrameConfig;

/// A rectangle in display pixel coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PxRect {
    /// Left edge.
    pub x: usize,
    /// Top edge.
    pub y: usize,
    /// Width in pixels.
    pub w: usize,
    /// Height in pixels.
    pub h: usize,
}

/// Resolved geometry of the data grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataLayout {
    /// Super-Pixel side in display pixels.
    pub pixel_size: usize,
    /// Block side in super-Pixels.
    pub block_size: usize,
    /// Blocks per row.
    pub blocks_x: usize,
    /// Blocks per column.
    pub blocks_y: usize,
    /// GOB side in Blocks.
    pub gob_size: usize,
    /// Left edge of the grid on the display.
    pub origin_x: usize,
    /// Top edge of the grid on the display.
    pub origin_y: usize,
}

impl DataLayout {
    /// Computes the centered layout for a configuration.
    pub fn from_config(c: &InFrameConfig) -> Self {
        c.validate();
        let grid_w = c.blocks_x * c.block_px();
        let grid_h = c.blocks_y * c.block_px();
        Self {
            pixel_size: c.pixel_size,
            block_size: c.block_size,
            blocks_x: c.blocks_x,
            blocks_y: c.blocks_y,
            gob_size: c.gob_size,
            origin_x: (c.display_w - grid_w) / 2,
            origin_y: (c.display_h - grid_h) / 2,
        }
    }

    /// Block side in display pixels.
    pub fn block_px(&self) -> usize {
        self.pixel_size * self.block_size
    }

    /// Total number of Blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks_x * self.blocks_y
    }

    /// GOB grid dimensions `(gobs_x, gobs_y)`.
    pub fn gob_grid(&self) -> (usize, usize) {
        (self.blocks_x / self.gob_size, self.blocks_y / self.gob_size)
    }

    /// Total number of GOBs.
    pub fn num_gobs(&self) -> usize {
        let (gx, gy) = self.gob_grid();
        gx * gy
    }

    /// Blocks per GOB (`m²`).
    pub fn blocks_per_gob(&self) -> usize {
        self.gob_size * self.gob_size
    }

    /// Payload bits per data frame under parity coding
    /// (`gobs × (m² − 1)`).
    pub fn payload_bits_parity(&self) -> usize {
        self.num_gobs() * (self.blocks_per_gob() - 1)
    }

    /// Display-pixel rectangle of Block `(bx, by)`.
    ///
    /// # Panics
    /// Panics for out-of-range block coordinates.
    pub fn block_rect(&self, bx: usize, by: usize) -> PxRect {
        assert!(
            bx < self.blocks_x && by < self.blocks_y,
            "block out of range"
        );
        let bp = self.block_px();
        PxRect {
            x: self.origin_x + bx * bp,
            y: self.origin_y + by * bp,
            w: bp,
            h: bp,
        }
    }

    /// Linear Block index of `(bx, by)` in GOB-major order: GOBs row-major
    /// over the GOB grid, Blocks row-major within each GOB. This is the
    /// order in which bits are laid into the frame.
    pub fn block_channel_index(&self, bx: usize, by: usize) -> usize {
        let m = self.gob_size;
        let (gx_count, _) = self.gob_grid();
        let gx = bx / m;
        let gy = by / m;
        let gob_index = gy * gx_count + gx;
        let lx = bx % m;
        let ly = by % m;
        gob_index * m * m + ly * m + lx
    }

    /// Inverse of [`DataLayout::block_channel_index`].
    pub fn block_at_channel_index(&self, idx: usize) -> (usize, usize) {
        let m = self.gob_size;
        let (gx_count, _) = self.gob_grid();
        let gob_index = idx / (m * m);
        let within = idx % (m * m);
        let gx = gob_index % gx_count;
        let gy = gob_index / gx_count;
        (gx * m + within % m, gy * m + within / m)
    }

    /// GOB index of Block `(bx, by)`.
    pub fn gob_of_block(&self, bx: usize, by: usize) -> usize {
        self.block_channel_index(bx, by) / self.blocks_per_gob()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InFrameConfig;
    use proptest::prelude::*;

    fn paper_layout() -> DataLayout {
        DataLayout::from_config(&InFrameConfig::paper())
    }

    #[test]
    fn paper_grid_is_centered() {
        let l = paper_layout();
        assert_eq!(l.block_px(), 36);
        assert_eq!(l.origin_x, (1920 - 50 * 36) / 2);
        assert_eq!(l.origin_y, 0);
        assert_eq!(l.num_blocks(), 1500);
        assert_eq!(l.num_gobs(), 375);
        assert_eq!(l.payload_bits_parity(), 1125);
    }

    #[test]
    fn block_rects_tile_without_overlap() {
        let l = DataLayout::from_config(&InFrameConfig::small_test());
        let r00 = l.block_rect(0, 0);
        let r10 = l.block_rect(1, 0);
        let r01 = l.block_rect(0, 1);
        assert_eq!(r00.x + r00.w, r10.x);
        assert_eq!(r00.y + r00.h, r01.y);
        assert_eq!(r00.w, l.block_px());
    }

    #[test]
    #[should_panic(expected = "block out of range")]
    fn out_of_range_block_panics() {
        let l = paper_layout();
        let _ = l.block_rect(50, 0);
    }

    #[test]
    fn channel_index_groups_gobs_contiguously() {
        let l = DataLayout::from_config(&InFrameConfig::small_test());
        // The four blocks of GOB (0,0) occupy channel indices 0..4.
        let mut idxs = vec![
            l.block_channel_index(0, 0),
            l.block_channel_index(1, 0),
            l.block_channel_index(0, 1),
            l.block_channel_index(1, 1),
        ];
        idxs.sort_unstable();
        assert_eq!(idxs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn gob_of_block_matches_grid() {
        let l = DataLayout::from_config(&InFrameConfig::small_test());
        assert_eq!(l.gob_of_block(0, 0), 0);
        assert_eq!(l.gob_of_block(2, 0), 1);
        assert_eq!(l.gob_of_block(0, 2), l.gob_grid().0);
    }

    proptest! {
        #[test]
        fn channel_index_roundtrip(bx in 0usize..16, by in 0usize..12) {
            let l = DataLayout::from_config(&InFrameConfig::small_test());
            let idx = l.block_channel_index(bx, by);
            prop_assert!(idx < l.num_blocks());
            prop_assert_eq!(l.block_at_channel_index(idx), (bx, by));
        }

        #[test]
        fn channel_order_is_a_permutation(_x in 0..1) {
            let l = DataLayout::from_config(&InFrameConfig::small_test());
            let mut seen = vec![false; l.num_blocks()];
            for (bx, by) in (0..l.num_blocks()).map(|i| l.block_at_channel_index(i)) {
                let i = by * l.blocks_x + bx;
                prop_assert!(!seen[i]);
                seen[i] = true;
            }
            prop_assert!(seen.into_iter().all(|s| s));
        }
    }
}
