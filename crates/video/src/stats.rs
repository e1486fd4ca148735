//! Input-characterization metrics.
//!
//! Figure 7 shows decoded throughput dropping from pure-color clips to the
//! real video — the paper attributes this to content interference. These
//! metrics quantify the responsible properties (spatial texture, local
//! contrast, motion) so the reproduction can *demonstrate* the causal link
//! rather than assert it.

use inframe_frame::{arith, FrameError, Plane};

/// Mean absolute horizontal+vertical gradient — a cheap spatial-texture
/// measure. Zero for solid frames, large for busy content.
pub fn texture_energy(frame: &Plane<f32>) -> f64 {
    let (w, h) = frame.shape();
    let mut acc = 0.0f64;
    let mut count = 0u64;
    for y in 0..h {
        for x in 0..w {
            let v = frame.get(x, y);
            if x + 1 < w {
                acc += (frame.get(x + 1, y) - v).abs() as f64;
                count += 1;
            }
            if y + 1 < h {
                acc += (frame.get(x, y + 1) - v).abs() as f64;
                count += 1;
            }
        }
    }
    if count == 0 {
        0.0
    } else {
        acc / count as f64
    }
}

/// Mean absolute frame difference — a motion proxy.
///
/// # Errors
/// Returns [`FrameError::ShapeMismatch`] when shapes differ.
pub fn motion_energy(a: &Plane<f32>, b: &Plane<f32>) -> Result<f64, FrameError> {
    arith::mae(a, b)
}

/// Fraction of pixels within `margin` code values of the 0/255 rails —
/// where the sender must locally reduce the chessboard amplitude (§3.3
/// "for bright or dark areas, we locally adjust the amplitude").
pub fn clipping_fraction(frame: &Plane<f32>, delta: f32) -> f64 {
    let n = frame
        .samples()
        .iter()
        .filter(|&&v| v < delta || v > 255.0 - delta)
        .count();
    n as f64 / frame.len() as f64
}

/// Summary of a clip's channel-relevant properties.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClipProfile {
    /// Mean luma over all frames.
    pub mean_luma: f64,
    /// Mean texture energy over all frames.
    pub texture: f64,
    /// Mean inter-frame motion energy.
    pub motion: f64,
    /// Mean clipping fraction at δ = 20.
    pub clipping_at_20: f64,
}

/// Profiles a sequence of frames.
///
/// # Panics
/// Panics on an empty slice.
pub fn profile(frames: &[Plane<f32>]) -> ClipProfile {
    assert!(!frames.is_empty(), "cannot profile an empty clip");
    let mean_luma = frames.iter().map(|f| f.mean()).sum::<f64>() / frames.len() as f64;
    let texture = frames.iter().map(texture_energy).sum::<f64>() / frames.len() as f64;
    let motion = if frames.len() < 2 {
        0.0
    } else {
        frames
            .windows(2)
            .map(|w| motion_energy(&w[0], &w[1]).expect("profiled frames share a shape"))
            .sum::<f64>()
            / (frames.len() - 1) as f64
    };
    let clipping_at_20 = frames
        .iter()
        .map(|f| clipping_fraction(f, 20.0))
        .sum::<f64>()
        / frames.len() as f64;
    ClipProfile {
        mean_luma,
        texture,
        motion,
        clipping_at_20,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solid_frame_has_zero_texture() {
        let p = Plane::filled(16, 16, 127.0);
        assert_eq!(texture_energy(&p), 0.0);
    }

    #[test]
    fn checkerboard_has_maximal_texture() {
        let p = Plane::from_fn(16, 16, |x, y| if (x + y) % 2 == 0 { 0.0 } else { 255.0 });
        assert!((texture_energy(&p) - 255.0).abs() < 1e-6);
    }

    #[test]
    fn motion_energy_zero_for_identical_frames() {
        let p = Plane::filled(8, 8, 50.0);
        assert_eq!(motion_energy(&p, &p).unwrap(), 0.0);
    }

    #[test]
    fn clipping_fraction_detects_rails() {
        let p = Plane::from_vec(4, 1, vec![5.0f32, 127.0, 250.0, 127.0]).unwrap();
        assert!((clipping_fraction(&p, 20.0) - 0.5).abs() < 1e-12);
        assert_eq!(clipping_fraction(&p, 1.0), 0.0);
    }

    #[test]
    fn profile_of_static_gray_clip() {
        let frames = vec![Plane::filled(8, 8, 127.0); 5];
        let pr = profile(&frames);
        assert!((pr.mean_luma - 127.0).abs() < 1e-9);
        assert_eq!(pr.texture, 0.0);
        assert_eq!(pr.motion, 0.0);
        assert_eq!(pr.clipping_at_20, 0.0);
    }

    #[test]
    fn profile_orders_gray_vs_textured() {
        let gray = vec![Plane::filled(16, 16, 127.0); 3];
        let busy: Vec<Plane<f32>> = (0..3)
            .map(|t| Plane::from_fn(16, 16, move |x, y| ((x + y * 3 + t * 5) % 97) as f32 * 2.5))
            .collect();
        let pg = profile(&gray);
        let pb = profile(&busy);
        assert!(pb.texture > pg.texture);
        assert!(pb.motion > pg.motion);
    }
}
