//! Planar RGB frames.

use crate::color;
use crate::plane::Plane;
use crate::FrameError;

/// A planar RGB frame of `f32` code values in `[0, 255]`.
///
/// The paper's test videos are grayscale (e.g. RGB (127,127,127)) but the
/// system is defined over color video, and the chessboard perturbation is
/// applied to all three channels identically. Keeping the planes separate
/// lets the luma-only receiver path avoid touching chroma.
#[derive(Debug, Clone, PartialEq)]
pub struct RgbFrame {
    /// Red plane.
    pub r: Plane<f32>,
    /// Green plane.
    pub g: Plane<f32>,
    /// Blue plane.
    pub b: Plane<f32>,
}

impl RgbFrame {
    /// Creates a frame with all channels set to a constant gray level.
    pub fn gray(width: usize, height: usize, level: f32) -> Self {
        Self {
            r: Plane::filled(width, height, level),
            g: Plane::filled(width, height, level),
            b: Plane::filled(width, height, level),
        }
    }

    /// Creates a frame with per-channel constant values.
    pub fn solid(width: usize, height: usize, rgb: [f32; 3]) -> Self {
        Self {
            r: Plane::filled(width, height, rgb[0]),
            g: Plane::filled(width, height, rgb[1]),
            b: Plane::filled(width, height, rgb[2]),
        }
    }

    /// Assembles a frame from three planes.
    ///
    /// # Errors
    /// Returns [`FrameError::ShapeMismatch`] if the planes disagree in shape.
    pub fn from_planes(r: Plane<f32>, g: Plane<f32>, b: Plane<f32>) -> Result<Self, FrameError> {
        if r.shape() != g.shape() {
            return Err(FrameError::ShapeMismatch {
                left: r.shape(),
                right: g.shape(),
            });
        }
        if r.shape() != b.shape() {
            return Err(FrameError::ShapeMismatch {
                left: r.shape(),
                right: b.shape(),
            });
        }
        Ok(Self { r, g, b })
    }

    /// Builds an RGB frame by replicating a luma plane into all channels.
    pub fn from_luma(luma: &Plane<f32>) -> Self {
        Self {
            r: luma.clone(),
            g: luma.clone(),
            b: luma.clone(),
        }
    }

    /// Frame width in pixels.
    pub fn width(&self) -> usize {
        self.r.width()
    }

    /// Frame height in pixels.
    pub fn height(&self) -> usize {
        self.r.height()
    }

    /// `(width, height)` pair.
    pub fn shape(&self) -> (usize, usize) {
        self.r.shape()
    }

    /// BT.601 luma plane of the frame.
    pub fn luma(&self) -> Plane<f32> {
        let (w, h) = self.shape();
        Plane::from_fn(w, h, |x, y| {
            color::luma_bt601(self.r.get(x, y), self.g.get(x, y), self.b.get(x, y))
        })
    }

    /// Applies `f` to every channel plane in place.
    pub fn for_each_plane_mut(&mut self, mut f: impl FnMut(&mut Plane<f32>)) {
        f(&mut self.r);
        f(&mut self.g);
        f(&mut self.b);
    }

    /// Clamps all channels into `[0, 255]`.
    pub fn clamp_code_range(&mut self) {
        self.for_each_plane_mut(|p| p.clamp_in_place(0.0, 255.0));
    }

    /// Packs into interleaved 8-bit RGB bytes (for PPM output).
    pub fn to_interleaved_u8(&self) -> Vec<u8> {
        let (w, h) = self.shape();
        let mut out = Vec::with_capacity(w * h * 3);
        for y in 0..h {
            for x in 0..w {
                out.push(self.r.get(x, y).round().clamp(0.0, 255.0) as u8);
                out.push(self.g.get(x, y).round().clamp(0.0, 255.0) as u8);
                out.push(self.b.get(x, y).round().clamp(0.0, 255.0) as u8);
            }
        }
        out
    }

    /// Unpacks from interleaved 8-bit RGB bytes.
    ///
    /// # Errors
    /// Returns [`FrameError::BufferSizeMismatch`] if `bytes.len() != 3*w*h`.
    pub fn from_interleaved_u8(
        width: usize,
        height: usize,
        bytes: &[u8],
    ) -> Result<Self, FrameError> {
        if bytes.len() != width * height * 3 {
            return Err(FrameError::BufferSizeMismatch {
                expected: width * height * 3,
                actual: bytes.len(),
            });
        }
        let mut r = Vec::with_capacity(width * height);
        let mut g = Vec::with_capacity(width * height);
        let mut b = Vec::with_capacity(width * height);
        for px in bytes.chunks_exact(3) {
            r.push(px[0] as f32);
            g.push(px[1] as f32);
            b.push(px[2] as f32);
        }
        Ok(Self {
            r: Plane::from_vec(width, height, r)?,
            g: Plane::from_vec(width, height, g)?,
            b: Plane::from_vec(width, height, b)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gray_frame_has_equal_channels() {
        let f = RgbFrame::gray(4, 3, 127.0);
        assert_eq!(f.r, f.g);
        assert_eq!(f.g, f.b);
        assert_eq!(f.shape(), (4, 3));
    }

    #[test]
    fn from_planes_rejects_mismatched_shapes() {
        let a = Plane::filled(4, 3, 0.0);
        let b = Plane::filled(4, 3, 0.0);
        let c = Plane::filled(3, 4, 0.0);
        assert!(RgbFrame::from_planes(a, b, c).is_err());
    }

    #[test]
    fn luma_of_gray_equals_gray_level() {
        let f = RgbFrame::gray(2, 2, 180.0);
        let l = f.luma();
        for &v in l.samples() {
            assert!((v - 180.0).abs() < 1e-3);
        }
    }

    #[test]
    fn interleave_roundtrip() {
        let bytes: Vec<u8> = (0..2 * 2 * 3).map(|i| (i * 17) as u8).collect();
        let f = RgbFrame::from_interleaved_u8(2, 2, &bytes).unwrap();
        assert_eq!(f.to_interleaved_u8(), bytes);
    }

    #[test]
    fn interleave_rejects_bad_length() {
        assert!(RgbFrame::from_interleaved_u8(2, 2, &[0u8; 11]).is_err());
    }

    #[test]
    fn clamp_code_range_clamps_all_channels() {
        let mut f = RgbFrame::solid(2, 2, [-5.0, 128.0, 300.0]);
        f.clamp_code_range();
        assert_eq!(f.r.get(0, 0), 0.0);
        assert_eq!(f.g.get(0, 0), 128.0);
        assert_eq!(f.b.get(0, 0), 255.0);
    }
}
