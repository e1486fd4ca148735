//! Experiment inputs and scale presets.

use inframe_camera::{CameraConfig, CaptureGeometry};
use inframe_core::InFrameConfig;
use inframe_display::DisplayConfig;
use inframe_video::synth::{MovingBarsClip, SolidClip, SunriseClip};
use inframe_video::{FrameRate, VideoSource};

/// The evaluation inputs of §4 (plus a stress clip for ablations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Pure gray RGB(127,127,127).
    Gray,
    /// Pure "dark gray" RGB(180,180,180) (the paper's labels, §4).
    DarkGray,
    /// The sun-rising clip (procedural substitute).
    Video,
    /// High-texture moving bars (ablations only).
    Bars,
}

impl Scenario {
    /// The three inputs of Figure 7, in its order.
    pub fn figure7() -> [Scenario; 3] {
        [Scenario::Gray, Scenario::DarkGray, Scenario::Video]
    }

    /// Figure 7 column label.
    pub fn label(&self) -> &'static str {
        match self {
            Scenario::Gray => "Gray",
            Scenario::DarkGray => "Dark-Gray",
            Scenario::Video => "Video",
            Scenario::Bars => "Bars",
        }
    }

    /// Builds the 30 FPS video source at the given display resolution.
    pub fn source(&self, w: usize, h: usize, seed: u64) -> Box<dyn VideoSource> {
        let rate = FrameRate::VIDEO_30;
        match self {
            Scenario::Gray => Box::new(SolidClip::new(w, h, 127.0, rate)),
            Scenario::DarkGray => Box::new(SolidClip::new(w, h, 180.0, rate)),
            Scenario::Video => Box::new(SunriseClip::new(w, h, 100_000, seed)),
            Scenario::Bars => Box::new(MovingBarsClip::new(w, h, 16, 2.0, 60.0, 190.0, rate)),
        }
    }
}

/// Simulation scale: full paper geometry or a fast reduced geometry with
/// the same super-Pixel size (so the channel physics per Block is
/// unchanged).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// 1920×1080 display → 1280×720 capture, 50×30 Blocks (the paper).
    Paper,
    /// 240×168 display → 160×112 capture, 12×8 Blocks. ~50× faster; keeps
    /// p = 4 and the display:camera ratio of 1.5 so per-Block behaviour
    /// matches the paper scale.
    Quick,
}

impl Scale {
    /// The InFrame configuration at this scale.
    pub fn inframe(&self) -> InFrameConfig {
        match self {
            Scale::Paper => InFrameConfig::paper(),
            Scale::Quick => InFrameConfig {
                display_w: 240,
                display_h: 168,
                pixel_size: 4,
                block_size: 5, // 20 px blocks
                blocks_x: 12,
                blocks_y: 8,
                ..InFrameConfig::paper()
            },
        }
    }

    /// The display model at this scale.
    pub fn display(&self) -> DisplayConfig {
        DisplayConfig::eizo_fg2421()
    }

    /// The camera at this scale (Lumia-like impairments, resolution scaled
    /// with the display to keep the 1.5× ratio).
    pub fn camera(&self) -> CameraConfig {
        let base = CameraConfig::lumia_1020();
        match self {
            Scale::Paper => CameraConfig {
                // One refresh period: on the FG2421's strobed backlight
                // this catches exactly one full strobe for most row
                // phases, so most captures resolve a single ±D frame
                // cleanly (see EXPERIMENTS.md).
                exposure_s: 1.0 / 120.0,
                shutter_bands: 24,
                ..base
            },
            Scale::Quick => CameraConfig {
                width: 160,
                height: 112,
                exposure_s: 1.0 / 120.0,
                shutter_bands: 12,
                ..base
            },
        }
    }

    /// Fronto-parallel geometry (the paper's fixed 50 cm desk setup).
    pub fn geometry(&self) -> CaptureGeometry {
        CaptureGeometry::Fronto
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure7_inputs_in_paper_order() {
        let labels: Vec<_> = Scenario::figure7().iter().map(|s| s.label()).collect();
        assert_eq!(labels, vec!["Gray", "Dark-Gray", "Video"]);
    }

    #[test]
    fn sources_match_requested_resolution() {
        for s in [
            Scenario::Gray,
            Scenario::DarkGray,
            Scenario::Video,
            Scenario::Bars,
        ] {
            let src = s.source(240, 168, 1);
            assert_eq!((src.width(), src.height()), (240, 168));
            assert_eq!(src.frame_rate().0, 30.0);
        }
    }

    #[test]
    fn scales_validate() {
        for scale in [Scale::Paper, Scale::Quick] {
            scale.inframe().validate();
            scale.display().validate();
            scale.camera().validate();
        }
    }

    #[test]
    fn quick_scale_preserves_pixel_size_and_ratio() {
        let q = Scale::Quick;
        let c = q.inframe();
        assert_eq!(c.pixel_size, Scale::Paper.inframe().pixel_size);
        let ratio = c.display_w as f64 / q.camera().width as f64;
        let paper_ratio = 1920.0 / 1280.0;
        assert!((ratio - paper_ratio).abs() < 1e-9);
    }
}
