//! Streaming presentation of frames on a simulated panel.
//!
//! [`DisplayStream`] consumes code-value frames (what the InFrame sender
//! produces) and yields one [`FrameEmission`] per refresh interval,
//! threading the pixel response state from frame to frame. Memory stays
//! bounded: only the current attained plane is retained.

use crate::config::DisplayConfig;
use crate::emission::FrameEmission;
use inframe_frame::Plane;

/// Presents a sequence of frames on a [`DisplayConfig`]-described panel.
#[derive(Debug)]
pub struct DisplayStream {
    config: DisplayConfig,
    /// Current pixel light level (start state for the next frame).
    attained: Option<Plane<f32>>,
    /// Index of the next frame to present.
    frame_index: u64,
}

impl DisplayStream {
    /// Creates a stream for the given panel. The panel starts dark
    /// (all-zero light), as after power-on.
    pub fn new(config: DisplayConfig) -> Self {
        config.validate();
        Self {
            config,
            attained: None,
            frame_index: 0,
        }
    }

    /// The panel configuration.
    pub fn config(&self) -> &DisplayConfig {
        &self.config
    }

    /// Absolute start time of the next refresh interval.
    pub fn next_frame_time(&self) -> f64 {
        self.frame_index as f64 * self.config.frame_duration()
    }

    /// Presents one frame of code values (0–255) and returns its emission.
    ///
    /// # Panics
    /// Panics if the frame shape differs from previously presented frames.
    pub fn present(&mut self, code_frame: &Plane<f32>) -> FrameEmission {
        // Frames are mostly runs of equal codes, and equal bits convert to
        // equal light, so a run costs one transfer-function evaluation.
        let mut run: Option<(u32, f32)> = None;
        let target = code_frame.map(|c| match run {
            Some((bits, light)) if bits == c.to_bits() => light,
            _ => {
                let light = self.config.code_to_light(c);
                run = Some((c.to_bits(), light));
                light
            }
        });
        let initial = match &self.attained {
            Some(prev) => {
                assert_eq!(
                    prev.shape(),
                    target.shape(),
                    "frame shape changed mid-stream"
                );
                prev.clone()
            }
            // Power-on: dark panel.
            None => Plane::filled(target.width(), target.height(), 0.0),
        };
        let emission = FrameEmission {
            t_start: self.next_frame_time(),
            duration: self.config.frame_duration(),
            tau: self.config.response_tau_s(),
            strobe: self.config.strobe_window(),
            target,
            initial,
        };
        self.attained = Some(emission.attained());
        self.frame_index += 1;
        emission
    }

    /// Presents a whole sequence, returning all emissions (convenience for
    /// tests and short analyses; long pipelines should present one frame at
    /// a time).
    pub fn present_all(&mut self, frames: &[Plane<f32>]) -> Vec<FrameEmission> {
        frames.iter().map(|f| self.present(f)).collect()
    }

    /// Number of frames presented so far.
    pub fn frames_presented(&self) -> u64 {
        self.frame_index
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_frame_starts_dark() {
        let mut s = DisplayStream::new(DisplayConfig::eizo_fg2421());
        let e = s.present(&Plane::filled(4, 4, 255.0));
        assert_eq!(e.initial.get(0, 0), 0.0);
        assert!(e.target.get(0, 0) > 0.9);
        assert_eq!(e.t_start, 0.0);
    }

    #[test]
    fn state_threads_between_frames() {
        let mut s = DisplayStream::new(DisplayConfig::eizo_fg2421());
        let e1 = s.present(&Plane::filled(2, 2, 255.0));
        let e2 = s.present(&Plane::filled(2, 2, 0.0));
        assert_eq!(e2.initial, e1.attained());
        assert!((e2.t_start - 1.0 / 120.0).abs() < 1e-12);
        assert_eq!(s.frames_presented(), 2);
    }

    #[test]
    fn ideal_panel_emits_exact_targets() {
        let mut s = DisplayStream::new(DisplayConfig::ideal_120hz());
        let e = s.present(&Plane::filled(2, 2, 127.0));
        let expect = DisplayConfig::ideal_120hz().code_to_light(127.0);
        assert_eq!(e.sample(0.0).get(0, 0), expect);
        assert_eq!(e.average(0.0, e.duration).get(0, 0), expect);
    }

    #[test]
    fn response_attenuates_alternation() {
        // ±δ alternation on a slow panel never reaches its targets, so the
        // captured amplitude shrinks — a real-world effect the camera model
        // inherits from here.
        let slow = DisplayConfig {
            response_tau_ms: 6.0,
            ..DisplayConfig::eizo_fg2421_no_strobe()
        };
        let mut s = DisplayStream::new(slow);
        let hi = Plane::filled(1, 1, 147.0);
        let lo = Plane::filled(1, 1, 107.0);
        // Warm up with several alternations, then measure swing.
        let mut last_hi = 0.0;
        let mut last_lo = 0.0;
        for i in 0..20 {
            let e = if i % 2 == 0 {
                s.present(&hi)
            } else {
                s.present(&lo)
            };
            let end = e.sample_pixel(0, 0, e.duration);
            if i % 2 == 0 {
                last_hi = end;
            } else {
                last_lo = end;
            }
        }
        let swing = last_hi - last_lo;
        let ideal_swing = DisplayConfig::eizo_fg2421().code_to_light(147.0)
            - DisplayConfig::eizo_fg2421().code_to_light(107.0);
        assert!(swing > 0.0);
        assert!(
            swing < ideal_swing as f64 as f32,
            "slow panel must attenuate: {swing} vs {ideal_swing}"
        );
    }

    #[test]
    #[should_panic(expected = "shape changed")]
    fn shape_change_panics() {
        let mut s = DisplayStream::new(DisplayConfig::default());
        s.present(&Plane::filled(4, 4, 0.0));
        s.present(&Plane::filled(3, 3, 0.0));
    }

    #[test]
    fn present_all_matches_sequential() {
        let frames: Vec<Plane<f32>> = (0..4)
            .map(|i| Plane::filled(2, 2, (i * 60) as f32))
            .collect();
        let mut a = DisplayStream::new(DisplayConfig::default());
        let all = a.present_all(&frames);
        let mut b = DisplayStream::new(DisplayConfig::default());
        for (i, f) in frames.iter().enumerate() {
            let e = b.present(f);
            assert_eq!(e, all[i]);
        }
    }
}
