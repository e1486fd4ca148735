//! IFV — a minimal raw planar video container.
//!
//! Experiments must be replayable on byte-identical inputs. IFV stores a
//! fixed-size 8-bit luma clip with a 32-byte header:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "IFV1"
//! 4       4     width  (u32 LE)
//! 8       4     height (u32 LE)
//! 12      4     frame count (u32 LE)
//! 16      8     frame rate in micro-FPS (u64 LE, e.g. 30.0 → 30_000_000)
//! 24      8     reserved (zero)
//! 32      w*h   frame 0 (row-major u8), then frame 1, …
//! ```

use crate::source::{FrameList, FrameRate};
use inframe_frame::{FrameError, Plane};

/// Magic bytes identifying an IFV stream.
pub const MAGIC: &[u8; 4] = b"IFV1";

/// An in-memory IFV clip: metadata plus 8-bit luma frames.
#[derive(Debug, Clone, PartialEq)]
pub struct IfvClip {
    /// Frame width in pixels.
    pub width: usize,
    /// Frame height in pixels.
    pub height: usize,
    /// Nominal frame rate.
    pub rate: FrameRate,
    /// The frames, 8-bit luma.
    pub frames: Vec<Plane<u8>>,
}

impl IfvClip {
    /// Builds a clip from f32 frames by 8-bit quantization.
    ///
    /// # Panics
    /// Panics if `frames` is empty or shapes differ.
    pub fn from_f32_frames(frames: &[Plane<f32>], rate: FrameRate) -> Self {
        assert!(!frames.is_empty(), "clip must have at least one frame");
        let shape = frames[0].shape();
        assert!(
            frames.iter().all(|f| f.shape() == shape),
            "all frames must share one shape"
        );
        Self {
            width: shape.0,
            height: shape.1,
            rate,
            frames: frames.iter().map(|f| f.quantize_u8()).collect(),
        }
    }

    /// Converts back to an f32 [`FrameList`] source.
    pub fn to_source(&self) -> FrameList {
        FrameList::new(self.frames.iter().map(|f| f.to_f32()).collect(), self.rate)
    }

    /// Serializes the clip to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(32 + self.frames.len() * self.width * self.height);
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&(self.width as u32).to_le_bytes());
        buf.extend_from_slice(&(self.height as u32).to_le_bytes());
        buf.extend_from_slice(&(self.frames.len() as u32).to_le_bytes());
        buf.extend_from_slice(&((self.rate.0 * 1_000_000.0).round() as u64).to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes()); // reserved
        for f in &self.frames {
            buf.extend_from_slice(f.samples());
        }
        buf
    }

    /// Parses a clip from bytes.
    ///
    /// # Errors
    /// Returns [`FrameError::Parse`] on bad magic, truncated data,
    /// invalid dimensions or a header whose payload size overflows.
    pub fn decode(data: &[u8]) -> Result<Self, FrameError> {
        let Some((header, payload)) = data.split_first_chunk::<32>() else {
            return Err(FrameError::Parse("IFV header truncated".into()));
        };
        let magic = &header[..4];
        if magic != MAGIC {
            return Err(FrameError::Parse(format!(
                "bad IFV magic {magic:02X?}, expected {MAGIC:02X?}"
            )));
        }
        let u32_at = |at: usize| {
            u32::from_le_bytes(header[at..at + 4].try_into().expect("4-byte field")) as usize
        };
        let (width, height, count) = (u32_at(4), u32_at(8), u32_at(12));
        let rate_micro = u64::from_le_bytes(header[16..24].try_into().expect("8-byte field"));
        if width == 0 || height == 0 {
            return Err(FrameError::Parse("IFV frame dimensions are zero".into()));
        }
        // The header is untrusted: its u32 fields can multiply past usize.
        let frame_bytes = width.checked_mul(height);
        let total = frame_bytes.and_then(|f| f.checked_mul(count));
        let (Some(frame_bytes), Some(total)) = (frame_bytes, total) else {
            return Err(FrameError::Parse(format!(
                "IFV payload size {width}x{height}x{count} overflows"
            )));
        };
        if payload.len() != total {
            return Err(FrameError::Parse(format!(
                "IFV payload has {} bytes, expected {total}",
                payload.len()
            )));
        }
        let frames = payload
            .chunks_exact(frame_bytes)
            .map(|raw| Plane::from_vec(width, height, raw.to_vec()))
            .collect::<Result<_, _>>()?;
        Ok(Self {
            width,
            height,
            rate: FrameRate(rate_micro as f64 / 1_000_000.0),
            frames,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::VideoSource;

    fn sample_clip() -> IfvClip {
        let frames: Vec<Plane<f32>> = (0..3)
            .map(|t| Plane::from_fn(6, 4, move |x, y| ((x + y * 6 + t * 24) % 256) as f32))
            .collect();
        IfvClip::from_f32_frames(&frames, FrameRate::VIDEO_30)
    }

    #[test]
    fn encode_decode_roundtrip() {
        let clip = sample_clip();
        let rt = IfvClip::decode(&clip.encode()).unwrap();
        assert_eq!(clip, rt);
        assert!((rt.rate.0 - 30.0).abs() < 1e-6);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample_clip().encode();
        bytes[0] = b'X';
        assert!(IfvClip::decode(&bytes).is_err());
    }

    #[test]
    fn truncated_payload_rejected() {
        let bytes = sample_clip().encode();
        assert!(IfvClip::decode(&bytes[..bytes.len() - 5]).is_err());
    }

    #[test]
    fn tiny_header_rejected() {
        assert!(IfvClip::decode(b"IFV1").is_err());
    }

    #[test]
    fn overflowing_header_rejected() {
        // width 2^31 × height 4 × count 2^31 = 2^64: the payload size
        // wraps to 0, which an empty body would otherwise match.
        let mut header = Vec::from(*MAGIC);
        for field in [1u32 << 31, 4, 1 << 31] {
            header.extend_from_slice(&field.to_le_bytes());
        }
        header.extend_from_slice(&[0; 16]);
        assert!(matches!(
            IfvClip::decode(&header),
            Err(FrameError::Parse(_))
        ));
    }

    #[test]
    fn damaged_clips_never_panic() {
        let bytes = sample_clip().encode();
        for len in 0..bytes.len() {
            assert!(IfvClip::decode(&bytes[..len]).is_err(), "prefix {len}");
        }
        for at in 0..32 {
            for flip in 1..=u8::MAX {
                let mut damaged = bytes.clone();
                damaged[at] ^= flip;
                let _ = IfvClip::decode(&damaged);
            }
        }
    }

    #[test]
    fn to_source_replays_frames() {
        let clip = sample_clip();
        let mut src = clip.to_source();
        assert_eq!(src.width(), 6);
        let frames = src.take_frames(10);
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0].get(1, 1), clip.frames[0].get(1, 1) as f32);
    }

    #[test]
    fn quantization_clamps() {
        let frames = vec![Plane::from_vec(2, 1, vec![-20.0f32, 300.0]).unwrap()];
        let clip = IfvClip::from_f32_frames(&frames, FrameRate(24.0));
        assert_eq!(clip.frames[0].samples(), &[0u8, 255]);
    }
}
