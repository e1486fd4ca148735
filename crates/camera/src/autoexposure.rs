//! Auto-exposure: the gain control loop every phone camera runs.
//!
//! The paper's receiver inherits whatever exposure the phone picked; a
//! deployment can't assume manual control. This module implements the
//! classic mean-luminance AE servo: measure the captured frame's mean code
//! value, nudge the gain toward an 18%-gray target, clamp to the gain
//! range, damp to avoid oscillation. The robustness tests use it to show
//! the InFrame channel keeps working while AE settles — and that AE
//! reacts to scene changes (a bright scene cut) without breaking decoding.

use inframe_frame::Plane;

/// Auto-exposure controller state and tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoExposure {
    /// Target mean code value (18% gray ≈ 118 in sRGB code space).
    pub target_code: f32,
    /// Proportional damping in `(0, 1]`: fraction of the full correction
    /// applied per frame (phones converge over ~5–15 frames).
    pub damping: f64,
    /// Minimum gain.
    pub min_gain: f64,
    /// Maximum gain.
    pub max_gain: f64,
    /// Current gain (multiplies integrated light before encoding).
    pub gain: f64,
}

impl AutoExposure {
    /// A phone-like controller starting at unity gain.
    pub fn phone_default() -> Self {
        Self {
            target_code: 118.0,
            damping: 0.35,
            min_gain: 0.25,
            max_gain: 8.0,
            gain: 1.0,
        }
    }

    /// Validates the tuning.
    ///
    /// # Panics
    /// Panics for out-of-range parameters.
    pub fn validate(&self) {
        assert!(
            self.target_code > 0.0 && self.target_code < 255.0,
            "target must be inside the code range"
        );
        assert!(
            self.damping > 0.0 && self.damping <= 1.0,
            "damping must be in (0, 1]"
        );
        assert!(
            self.min_gain > 0.0 && self.min_gain <= self.max_gain,
            "gain range must be positive and ordered"
        );
    }

    /// Observes a captured frame and updates the gain for the next one.
    /// Returns the new gain.
    ///
    /// The update works in linear light (gain acts there): the correction
    /// factor is the ratio of target to measured linear means, damped
    /// geometrically.
    pub fn observe(&mut self, captured: &Plane<f32>) -> f64 {
        self.validate();
        let measured_code = captured.mean() as f32;
        let measured_lin = inframe_frame::color::code_to_linear(measured_code.max(1.0)) as f64;
        let target_lin = inframe_frame::color::code_to_linear(self.target_code) as f64;
        let correction = (target_lin / measured_lin.max(1e-6)).clamp(0.1, 10.0);
        // Damped geometric step toward the correction.
        self.gain = (self.gain * correction.powf(self.damping)).clamp(self.min_gain, self.max_gain);
        self.gain
    }

    /// Whether the controller has effectively converged for a frame of the
    /// given mean code value (within ±10% of target in linear light).
    pub fn is_settled(&self, mean_code: f32) -> bool {
        let m = inframe_frame::color::code_to_linear(mean_code) as f64;
        let t = inframe_frame::color::code_to_linear(self.target_code) as f64;
        (m / t - 1.0).abs() < 0.1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake scene: captured mean code responds to gain as
    /// `code(gain × scene_linear)`.
    fn capture_with_gain(scene_linear: f64, gain: f64) -> Plane<f32> {
        let code =
            inframe_frame::color::linear_to_code((scene_linear * gain).clamp(0.0, 1.0) as f32);
        Plane::filled(8, 8, code)
    }

    #[test]
    fn converges_on_a_dim_scene() {
        let mut ae = AutoExposure::phone_default();
        let scene = 0.04; // dim (needs ~4.5x gain, inside the range)
        let mut mean = 0.0f32;
        for _ in 0..30 {
            let frame = capture_with_gain(scene, ae.gain);
            mean = frame.mean() as f32;
            ae.observe(&frame);
        }
        assert!(ae.is_settled(mean), "mean {mean}, gain {}", ae.gain);
        assert!(ae.gain > 1.0, "dim scene needs gain > 1, got {}", ae.gain);
    }

    #[test]
    fn converges_on_a_bright_scene() {
        let mut ae = AutoExposure::phone_default();
        let scene = 0.7;
        let mut mean = 0.0f32;
        for _ in 0..30 {
            let frame = capture_with_gain(scene, ae.gain);
            mean = frame.mean() as f32;
            ae.observe(&frame);
        }
        assert!(ae.is_settled(mean), "mean {mean}, gain {}", ae.gain);
        assert!(
            ae.gain < 1.0,
            "bright scene needs gain < 1, got {}",
            ae.gain
        );
    }

    #[test]
    fn gain_respects_clamps() {
        let mut ae = AutoExposure::phone_default();
        // Nearly black scene: wants infinite gain, must stop at max.
        for _ in 0..60 {
            let frame = capture_with_gain(1e-5, ae.gain);
            ae.observe(&frame);
        }
        assert!(ae.gain <= ae.max_gain + 1e-9);
        assert!((ae.gain - ae.max_gain).abs() < 1e-6);
    }

    #[test]
    fn reacts_to_scene_cut() {
        let mut ae = AutoExposure::phone_default();
        for _ in 0..25 {
            let frame = capture_with_gain(0.05, ae.gain);
            ae.observe(&frame);
        }
        let dim_gain = ae.gain;
        for _ in 0..25 {
            let frame = capture_with_gain(0.6, ae.gain);
            ae.observe(&frame);
        }
        assert!(
            ae.gain < dim_gain * 0.5,
            "cut to bright must slash gain: {} -> {}",
            dim_gain,
            ae.gain
        );
    }

    #[test]
    fn damping_bounds_per_frame_change() {
        let mut ae = AutoExposure::phone_default();
        let before = ae.gain;
        let frame = capture_with_gain(0.01, ae.gain);
        let after = ae.observe(&frame);
        // One step cannot jump the full 10x correction.
        assert!(after / before < 3.0, "{before} -> {after}");
    }

    #[test]
    #[should_panic(expected = "damping")]
    fn bad_damping_rejected() {
        let mut ae = AutoExposure::phone_default();
        ae.damping = 0.0;
        ae.observe(&Plane::filled(2, 2, 100.0));
    }
}
