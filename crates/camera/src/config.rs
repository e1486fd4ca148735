//! Camera configuration and presets.

use crate::isp::IspConfig;

/// Shutter mechanism.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shutter {
    /// All rows expose over the same interval.
    Global,
    /// Rows start exposing sequentially; the last row starts `readout_s`
    /// seconds after the first. CMOS phone sensors (like the Lumia 1020's)
    /// are rolling.
    Rolling {
        /// Time to sweep the exposure start across the full sensor height,
        /// in seconds.
        readout_s: f64,
    },
}

/// Parameters of a simulated camera.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CameraConfig {
    /// Captured frame width in pixels.
    pub width: usize,
    /// Captured frame height in pixels.
    pub height: usize,
    /// Capture rate in frames per second.
    pub fps: f64,
    /// Exposure time per row in seconds.
    pub exposure_s: f64,
    /// Shutter mechanism.
    pub shutter: Shutter,
    /// Phase offset of the first frame against display time zero, seconds.
    pub phase_s: f64,
    /// Fractional clock skew of the camera against the display
    /// (e.g. `1e-4` = camera runs 100 ppm fast). Models the unsynchronized
    /// clocks the paper's τ-cycle design tolerates.
    pub clock_skew: f64,
    /// Gaussian read noise, σ in normalized linear light units.
    pub read_noise_sigma: f64,
    /// Shot-noise scale: per-photosite variance is
    /// `shot_noise_scale · light`. Zero disables shot noise.
    pub shot_noise_scale: f64,
    /// Optics point-spread σ in captured pixels (0 = pinhole-sharp).
    pub psf_sigma_px: f64,
    /// Linear gain applied to integrated light before encoding (exposure
    /// compensation).
    pub gain: f64,
    /// Number of rolling-shutter bands simulated per frame. More bands =
    /// finer temporal granularity across rows (and more compute). Ignored
    /// for global shutter.
    pub shutter_bands: usize,
    /// In-camera image processing applied to the captured frame.
    pub isp: IspConfig,
}

impl CameraConfig {
    /// The paper's receiver: Lumia-1020-like, 1280×720 at 30 FPS, indoor
    /// exposure.
    pub fn lumia_1020() -> Self {
        Self {
            width: 1280,
            height: 720,
            fps: 30.0,
            // Indoor office video exposure: ~1/120 s — short enough to
            // resolve individual 120 Hz display frames most of the time.
            exposure_s: 1.0 / 120.0,
            // A ~24 ms readout sweep, typical for phone CMOS at 30 FPS
            // (and leaving room for the 1/120 s exposure in each period).
            shutter: Shutter::Rolling { readout_s: 0.024 },
            phase_s: 0.0,
            clock_skew: 5e-5,
            read_noise_sigma: 0.004,
            shot_noise_scale: 2.0e-4,
            psf_sigma_px: 0.7,
            gain: 1.0,
            shutter_bands: 16,
            isp: IspConfig::off(),
        }
    }

    /// An idealized noiseless global-shutter camera synchronized to the
    /// display — isolates coding-layer behaviour in tests and ablations.
    pub fn ideal(width: usize, height: usize, fps: f64, exposure_s: f64) -> Self {
        Self {
            width,
            height,
            fps,
            exposure_s,
            shutter: Shutter::Global,
            phase_s: 0.0,
            clock_skew: 0.0,
            read_noise_sigma: 0.0,
            shot_noise_scale: 0.0,
            psf_sigma_px: 0.0,
            gain: 1.0,
            shutter_bands: 1,
            isp: IspConfig::off(),
        }
    }

    /// Seconds between captured frame starts (camera clock).
    pub fn frame_period(&self) -> f64 {
        (1.0 / self.fps) * (1.0 + self.clock_skew)
    }

    /// Start time of capture frame `j` in display time.
    pub fn frame_start(&self, j: u64) -> f64 {
        self.phase_s + j as f64 * self.frame_period()
    }

    /// Temporal centre of capture frame `j` in display time: its start
    /// plus half the readout sweep plus half the exposure.
    pub fn frame_mid(&self, j: u64) -> f64 {
        self.frame_start(j) + (self.readout_s() / 2.0 + self.exposure_s / 2.0)
    }

    /// Full time window touched by capture frame `j` (first row's exposure
    /// start through last row's exposure end).
    pub fn frame_window(&self, j: u64) -> (f64, f64) {
        let t0 = self.frame_start(j);
        (t0, t0 + self.readout_s() + self.exposure_s)
    }

    /// Rolling-shutter readout sweep, seconds (0 for a global shutter).
    fn readout_s(&self) -> f64 {
        match self.shutter {
            Shutter::Global => 0.0,
            Shutter::Rolling { readout_s } => readout_s,
        }
    }

    /// Validates physical plausibility.
    ///
    /// # Panics
    /// Panics on nonpositive dimensions/rates, nonpositive exposure,
    /// negative noise, or an exposure+readout longer than the frame period.
    pub fn validate(&self) {
        assert!(self.width > 0 && self.height > 0, "sensor must be nonempty");
        assert!(self.fps > 0.0, "fps must be positive");
        assert!(self.exposure_s > 0.0, "exposure must be positive");
        assert!(self.read_noise_sigma >= 0.0, "read noise must be >= 0");
        assert!(self.shot_noise_scale >= 0.0, "shot noise must be >= 0");
        assert!(self.psf_sigma_px >= 0.0, "psf sigma must be >= 0");
        assert!(self.gain > 0.0, "gain must be positive");
        assert!(self.shutter_bands >= 1, "need at least one shutter band");
        self.isp.validate();
        let readout = match self.shutter {
            Shutter::Global => 0.0,
            Shutter::Rolling { readout_s } => {
                assert!(readout_s >= 0.0, "readout must be >= 0");
                readout_s
            }
        };
        assert!(
            readout + self.exposure_s <= 1.0 / self.fps + 1e-9,
            "exposure+readout must fit within the frame period"
        );
    }
}

impl Default for CameraConfig {
    fn default() -> Self {
        Self::lumia_1020()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lumia_preset_matches_paper_setup() {
        let c = CameraConfig::lumia_1020();
        assert_eq!((c.width, c.height), (1280, 720));
        assert_eq!(c.fps, 30.0);
        assert!(matches!(c.shutter, Shutter::Rolling { .. }));
        c.validate();
    }

    #[test]
    fn frame_times_advance_with_skew() {
        let mut c = CameraConfig::ideal(64, 36, 30.0, 0.001);
        c.clock_skew = 0.01;
        let p = c.frame_period();
        assert!((p - (1.0 / 30.0) * 1.01).abs() < 1e-12);
        assert!((c.frame_start(3) - 3.0 * p).abs() < 1e-12);
    }

    #[test]
    fn frame_window_includes_readout() {
        let mut c = CameraConfig::lumia_1020();
        c.phase_s = 0.5;
        let (t0, t1) = c.frame_window(0);
        assert_eq!(t0, 0.5);
        assert!((t1 - (0.5 + 0.024 + 1.0 / 120.0)).abs() < 1e-12);
        // The midpoint sits halfway through the window.
        assert!((c.frame_mid(0) - (t0 + t1) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn ideal_camera_validates() {
        CameraConfig::ideal(640, 360, 30.0, 1.0 / 60.0).validate();
    }

    #[test]
    #[should_panic(expected = "fit within the frame period")]
    fn over_long_exposure_rejected() {
        let c = CameraConfig::ideal(64, 36, 30.0, 0.05);
        c.validate();
    }
}
