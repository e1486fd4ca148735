//! Display configuration and presets.

/// Backlight drive scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Backlight {
    /// Constant backlight: light follows the LC state at all times
    /// (ordinary sample-and-hold LCD).
    Constant,
    /// Strobed backlight (the Eizo FG2421's "Turbo 240" mode): the
    /// backlight flashes for the last `duty` fraction of each refresh,
    /// after the liquid crystal has settled. During the strobe the light
    /// is boosted by `1/duty` so the *mean* luminance matches the constant
    /// panel — which is how strobed gaming panels are calibrated.
    ///
    /// Strobing is why such panels look crisp in motion, and it is also
    /// what makes short camera exposures see clean, fully-settled frames
    /// instead of mid-transition blur.
    Strobed {
        /// Fraction of the refresh interval the backlight is on, `(0, 1]`.
        duty: f64,
    },
}

/// Parameters of a simulated display panel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DisplayConfig {
    /// Refresh rate in Hz (frames presented per second).
    pub refresh_hz: f64,
    /// Peak white luminance in cd/m² at 100% brightness.
    pub peak_nits: f64,
    /// Brightness setting in `[0, 1]` (scales emitted light linearly).
    pub brightness: f64,
    /// LCD pixel response time constant in milliseconds (exponential
    /// approach to target). `0` models an instant (ideal) panel.
    pub response_tau_ms: f64,
    /// Backlight drive.
    pub backlight: Backlight,
}

impl DisplayConfig {
    /// The paper's panel: Eizo FG2421, 120 Hz, a fast VA panel with the
    /// "Turbo 240" strobed backlight.
    ///
    /// Peak luminance per its spec sheet is 400 cd/m²; the effective pixel
    /// response is on the order of 2 ms, and the strobe flashes near the
    /// end of each refresh once the liquid crystal has settled. The paper
    /// runs it at 100% brightness.
    pub fn eizo_fg2421() -> Self {
        Self {
            refresh_hz: 120.0,
            peak_nits: 400.0,
            brightness: 1.0,
            response_tau_ms: 2.0,
            backlight: Backlight::Strobed { duty: 0.06 },
        }
    }

    /// A generic office 60 Hz LCD (for naive-design comparisons).
    pub fn office_60hz() -> Self {
        Self {
            refresh_hz: 60.0,
            peak_nits: 250.0,
            brightness: 1.0,
            response_tau_ms: 5.0,
            backlight: Backlight::Constant,
        }
    }

    /// A FG2421-like panel with the strobe disabled (sample-and-hold
    /// mode) — the shutter/backlight ablation baseline.
    pub fn eizo_fg2421_no_strobe() -> Self {
        Self {
            backlight: Backlight::Constant,
            ..Self::eizo_fg2421()
        }
    }

    /// An idealized instant-response 120 Hz panel (isolates algorithmic
    /// effects from panel physics in ablations).
    pub fn ideal_120hz() -> Self {
        Self {
            refresh_hz: 120.0,
            peak_nits: 400.0,
            brightness: 1.0,
            response_tau_ms: 0.0,
            backlight: Backlight::Constant,
        }
    }

    /// Seconds one frame stays on screen.
    pub fn frame_duration(&self) -> f64 {
        1.0 / self.refresh_hz
    }

    /// Response time constant in seconds.
    pub fn response_tau_s(&self) -> f64 {
        self.response_tau_ms / 1000.0
    }

    /// Converts a code value (0–255) to normalized linear light emitted at
    /// steady state, honoring the brightness setting.
    pub fn code_to_light(&self, code: f32) -> f32 {
        inframe_frame::color::code_to_linear(code) * self.brightness as f32
    }

    /// Converts normalized linear light to absolute luminance in cd/m².
    pub fn light_to_nits(&self, light: f64) -> f64 {
        light * self.peak_nits
    }

    /// Validates physical plausibility.
    ///
    /// # Panics
    /// Panics on nonpositive refresh rate, negative response time, or
    /// brightness outside `[0, 1]`.
    pub fn validate(&self) {
        assert!(self.refresh_hz > 0.0, "refresh rate must be positive");
        assert!(self.response_tau_ms >= 0.0, "response tau must be >= 0");
        assert!(
            (0.0..=1.0).contains(&self.brightness),
            "brightness must be in [0,1]"
        );
        assert!(self.peak_nits > 0.0, "peak luminance must be positive");
        if let Backlight::Strobed { duty } = self.backlight {
            assert!(duty > 0.0 && duty <= 1.0, "strobe duty must be in (0, 1]");
        }
    }

    /// The strobe window within a refresh interval `[0, Δ)`, or `None` for
    /// a constant backlight. The strobe sits at the end of the interval,
    /// where the liquid crystal has settled.
    pub fn strobe_window(&self) -> Option<(f64, f64)> {
        match self.backlight {
            Backlight::Constant => None,
            Backlight::Strobed { duty } => {
                let d = self.frame_duration();
                Some((d * (1.0 - duty), d))
            }
        }
    }
}

impl Default for DisplayConfig {
    fn default() -> Self {
        Self::eizo_fg2421()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eizo_preset_matches_paper_setup() {
        let c = DisplayConfig::eizo_fg2421();
        assert_eq!(c.refresh_hz, 120.0);
        assert_eq!(c.brightness, 1.0);
        assert!((c.frame_duration() - 1.0 / 120.0).abs() < 1e-12);
    }

    #[test]
    fn code_to_light_is_monotone_and_bounded() {
        let c = DisplayConfig::default();
        let mut prev = -1.0f32;
        for code in 0..=255 {
            let l = c.code_to_light(code as f32);
            assert!(l >= prev);
            assert!((0.0..=1.0).contains(&l));
            prev = l;
        }
    }

    #[test]
    fn brightness_scales_light() {
        let c = DisplayConfig {
            brightness: 0.5,
            ..DisplayConfig::default()
        };
        let full = DisplayConfig::default().code_to_light(200.0);
        assert!((c.code_to_light(200.0) - full * 0.5).abs() < 1e-6);
    }

    #[test]
    fn nits_conversion() {
        let c = DisplayConfig::eizo_fg2421();
        assert!((c.light_to_nits(1.0) - 400.0).abs() < 1e-9);
        assert!((c.light_to_nits(0.25) - 100.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "brightness")]
    fn invalid_brightness_panics() {
        let c = DisplayConfig {
            brightness: 1.5,
            ..DisplayConfig::default()
        };
        c.validate();
    }

    #[test]
    fn valid_presets_validate() {
        DisplayConfig::eizo_fg2421().validate();
        DisplayConfig::office_60hz().validate();
        DisplayConfig::ideal_120hz().validate();
    }
}
