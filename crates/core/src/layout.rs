//! Spatial layout of the data frame: Pixels, Blocks and GOBs on the
//! display.
//!
//! The hierarchy (paper §3.3): `p×p` display pixels form one super-Pixel,
//! `s×s` Pixels form one Block (one bit), `m×m` Blocks form one GOB. The
//! grid is centered on the display; at the paper's parameters the
//! 50×30-Block grid spans 1800×1080 of the 1920×1080 panel.

use crate::config::InFrameConfig;
use std::ops::Range;

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

    /// The row-major Block-index ranges of GOB `gob` (GOBs row-major over
    /// the grid), top row first. Over every GOB they give the channel
    /// order bits are laid in: GOB by GOB, Blocks row-major within each.
    pub fn gob_rows(&self, gob: usize) -> impl Iterator<Item = Range<usize>> {
        let (m, blocks_x) = (self.gob_size, self.blocks_x);
        let (gx, gy) = (gob % self.gob_grid().0, gob / self.gob_grid().0);
        (gy * m..(gy + 1) * m).map(move |by| by * blocks_x + gx * m..by * blocks_x + (gx + 1) * m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InFrameConfig;

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

    /// Channel index of Block `(bx, by)`: GOBs row-major over the GOB
    /// grid, Blocks row-major within each GOB.
    fn channel_index(l: &DataLayout, bx: usize, by: usize) -> usize {
        let m = l.gob_size;
        ((by / m) * l.gob_grid().0 + bx / m) * m * m + (by % m) * m + bx % m
    }

    #[test]
    fn gob_rows_start_at_the_gob_corner() {
        let l = DataLayout::from_config(&InFrameConfig::small_test());
        let bx = l.blocks_x;
        let first: Vec<usize> = l.gob_rows(0).flatten().collect();
        assert_eq!(first, vec![0, 1, bx, bx + 1]);
        assert_eq!(l.gob_rows(1).next(), Some(2..4));
        assert_eq!(l.gob_rows(l.gob_grid().0).next(), Some(2 * bx..2 * bx + 2));
    }

    #[test]
    fn gob_rows_walk_the_channel_order() {
        for l in [
            DataLayout::from_config(&InFrameConfig::small_test()),
            paper_layout(),
        ] {
            let blocks = (0..l.num_gobs()).flat_map(|g| l.gob_rows(g)).flatten();
            let mut n = 0;
            for (idx, i) in blocks.enumerate() {
                assert_eq!(channel_index(&l, i % l.blocks_x, i / l.blocks_x), idx);
                n += 1;
            }
            assert_eq!(n, l.num_blocks());
        }
    }
}
