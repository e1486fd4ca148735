//! A minimal in-camera ISP (image signal processor) stage.
//!
//! Phone cameras never hand applications raw sensor data: between the
//! sensor and the app sit denoising and sharpening, both of which act at
//! exactly the spatial scale of InFrame's chessboard. Denoising
//! (edge-preserving smoothing) *attenuates* the pattern; sharpening
//! (unsharp masking) *amplifies* it. The ISP ablation quantifies how much
//! each setting moves the link — a deployment consideration the paper's
//! §5 "practical issues" invites.

use inframe_frame::filter::{box_blur, gaussian_blur};
use inframe_frame::Plane;

/// ISP processing applied to captured frames before the application sees
/// them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IspConfig {
    /// Denoise strength in `[0, 1]`: blend toward a 3×3 smoothed frame.
    /// 0 disables.
    pub denoise: f32,
    /// Unsharp-mask amount (typical phone default ~0.5). 0 disables.
    pub sharpen_amount: f32,
    /// Unsharp-mask radius, pixels.
    pub sharpen_sigma: f32,
}

impl IspConfig {
    /// Pass-through ISP (what the rest of the workspace assumes).
    pub fn off() -> Self {
        Self {
            denoise: 0.0,
            sharpen_amount: 0.0,
            sharpen_sigma: 1.0,
        }
    }

    /// A phone-like default: light denoise, moderate sharpening.
    pub fn phone_default() -> Self {
        Self {
            denoise: 0.25,
            sharpen_amount: 0.5,
            sharpen_sigma: 1.0,
        }
    }

    /// A heavy-handed beauty-mode pipeline (worst case for the channel).
    pub fn aggressive_denoise() -> Self {
        Self {
            denoise: 0.8,
            sharpen_amount: 0.0,
            sharpen_sigma: 1.0,
        }
    }

    /// Validates parameter ranges.
    ///
    /// # Panics
    /// Panics when a parameter is outside its documented range.
    pub fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.denoise),
            "denoise must be in [0, 1]"
        );
        assert!(self.sharpen_amount >= 0.0, "sharpen amount must be >= 0");
        assert!(self.sharpen_sigma > 0.0, "sharpen sigma must be positive");
    }

    /// Whether this configuration changes the image at all.
    pub fn is_passthrough(&self) -> bool {
        self.denoise == 0.0 && self.sharpen_amount == 0.0
    }

    /// Processes a captured code-value frame.
    pub fn process(&self, frame: &Plane<f32>) -> Plane<f32> {
        self.validate();
        if self.is_passthrough() {
            return frame.clone();
        }
        // 1. Denoise: blend toward the local mean.
        let mut out = if self.denoise > 0.0 {
            let smooth = box_blur(frame, 1);
            inframe_frame::arith::zip_map(frame, &smooth, |orig, sm| {
                orig + self.denoise * (sm - orig)
            })
            .expect("same shape by construction")
        } else {
            frame.clone()
        };
        // 2. Unsharp mask: out + amount · (out − blur(out)).
        if self.sharpen_amount > 0.0 {
            let blurred = gaussian_blur(&out, self.sharpen_sigma);
            out = inframe_frame::arith::zip_map(&out, &blurred, |v, b| {
                (v + self.sharpen_amount * (v - b)).clamp(0.0, 255.0)
            })
            .expect("same shape by construction");
        }
        out
    }
}

impl Default for IspConfig {
    fn default() -> Self {
        Self::off()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chessboard() -> Plane<f32> {
        Plane::from_fn(32, 32, |x, y| {
            if ((x / 3) + (y / 3)) % 2 == 1 {
                137.0
            } else {
                117.0
            }
        })
    }

    /// Pattern contrast proxy: sample standard deviation.
    fn contrast(p: &Plane<f32>) -> f64 {
        p.variance().sqrt()
    }

    #[test]
    fn passthrough_is_identity() {
        let p = chessboard();
        assert_eq!(IspConfig::off().process(&p), p);
        assert!(IspConfig::off().is_passthrough());
    }

    #[test]
    fn denoise_attenuates_the_chessboard() {
        let p = chessboard();
        let out = IspConfig::aggressive_denoise().process(&p);
        assert!(
            contrast(&out) < contrast(&p) * 0.8,
            "{} vs {}",
            contrast(&out),
            contrast(&p)
        );
    }

    #[test]
    fn sharpening_amplifies_the_chessboard() {
        let p = chessboard();
        let isp = IspConfig {
            denoise: 0.0,
            sharpen_amount: 1.0,
            sharpen_sigma: 1.0,
        };
        let out = isp.process(&p);
        assert!(
            contrast(&out) > contrast(&p) * 1.1,
            "{} vs {}",
            contrast(&out),
            contrast(&p)
        );
    }

    #[test]
    fn phone_default_roughly_preserves_contrast() {
        // Light denoise and moderate sharpening partially cancel.
        let p = chessboard();
        let out = IspConfig::phone_default().process(&p);
        let ratio = contrast(&out) / contrast(&p);
        assert!((0.6..=1.4).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn sharpening_clamps_to_code_range() {
        let p = Plane::from_fn(16, 16, |x, _| if x % 2 == 0 { 250.0 } else { 5.0 });
        let isp = IspConfig {
            denoise: 0.0,
            sharpen_amount: 2.0,
            sharpen_sigma: 1.0,
        };
        let out = isp.process(&p);
        assert!(out.max_sample() <= 255.0);
        assert!(out.min_sample() >= 0.0);
    }

    #[test]
    #[should_panic(expected = "denoise must be in")]
    fn invalid_denoise_rejected() {
        let bad = IspConfig {
            denoise: 1.5,
            ..IspConfig::off()
        };
        bad.validate();
    }
}
