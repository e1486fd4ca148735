//! The naive multiplexing designs of Figure 3 — the strawmen whose flicker
//! motivated the complementary-frame design.
//!
//! All schemes assume a 120 Hz display fed by a 30 FPS video. Data frames
//! here are full chessboard overlays at amplitude δ (no complementary
//! inverse, no smoothing): exactly the "distinctive data frames" the paper
//! describes inserting.

use crate::dataframe::DataFrame;
use crate::layout::DataLayout;
use crate::pattern::{self, Complementation};
use inframe_frame::Plane;

/// The displayed-frame schedules of Figure 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NaiveScheme {
    /// Figure 3(b): plain video, every slot shows `V` (the control).
    VideoOnly,
    /// Figure 3(c): `V, D, D, D` — three distinct data frames after each
    /// video frame.
    ThreeDataFrames,
    /// Figure 3(d): `V, D, V, D` — alternating video and data.
    Alternating,
    /// The `V V D D` option (V:D = 2:2).
    TwoTwo,
    /// The `V V V D` option (V:D = 3:1).
    ThreeOne,
    /// InFrame's schedule for comparison: `V+D, V−D, V+D, V−D`.
    Complementary,
}

impl NaiveScheme {
    /// All schemes, in Figure 3 order (plus InFrame).
    pub fn all() -> [NaiveScheme; 6] {
        [
            NaiveScheme::VideoOnly,
            NaiveScheme::ThreeDataFrames,
            NaiveScheme::Alternating,
            NaiveScheme::TwoTwo,
            NaiveScheme::ThreeOne,
            NaiveScheme::Complementary,
        ]
    }

    /// Human-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            NaiveScheme::VideoOnly => "video only (control)",
            NaiveScheme::ThreeDataFrames => "naive V,D1,D2,D3",
            NaiveScheme::Alternating => "naive V,D,V,D",
            NaiveScheme::TwoTwo => "naive V,V,D,D",
            NaiveScheme::ThreeOne => "naive V,V,V,D",
            NaiveScheme::Complementary => "InFrame V±D",
        }
    }

    /// Renders the four displayed frames for one video frame.
    ///
    /// `data` drives which Blocks carry the chessboard; naive schemes show
    /// the pattern *instead of* complementary-pair modulation: a data slot
    /// displays `V + P` with no compensating `V − P`.
    pub fn render_group(
        &self,
        layout: &DataLayout,
        video: &Plane<f32>,
        data: &DataFrame,
        delta: f32,
    ) -> Vec<Plane<f32>> {
        let amp = |bx: usize, by: usize| if data.bit(bx, by) { 1.0 } else { 0.0 };
        // Naive designs predate the luminance balancing: code-symmetric.
        let (p_plus, p_minus) =
            pattern::pair_offsets(layout, video, data, delta, Complementation::Code, amp);
        let v_plus = inframe_frame::arith::add(video, &p_plus).expect("same shape by construction");
        let v_minus =
            inframe_frame::arith::sub(video, &p_minus).expect("same shape by construction");
        match self {
            NaiveScheme::VideoOnly => vec![video.clone(); 4],
            NaiveScheme::ThreeDataFrames => {
                vec![video.clone(), v_plus.clone(), v_plus.clone(), v_plus]
            }
            NaiveScheme::Alternating => {
                vec![video.clone(), v_plus.clone(), video.clone(), v_plus]
            }
            NaiveScheme::TwoTwo => {
                vec![video.clone(), video.clone(), v_plus.clone(), v_plus]
            }
            NaiveScheme::ThreeOne => {
                vec![video.clone(), video.clone(), video.clone(), v_plus]
            }
            NaiveScheme::Complementary => {
                vec![v_plus.clone(), v_minus.clone(), v_plus, v_minus]
            }
        }
    }

    /// The fundamental frequency (Hz) of the luminance disturbance this
    /// scheme injects on a 120 Hz display — the quantity that decides
    /// whether flicker fusion hides it.
    pub fn disturbance_frequency(&self, refresh_hz: f64) -> f64 {
        match self {
            NaiveScheme::VideoOnly => 0.0,
            // Patterns repeating within the 4-frame group:
            NaiveScheme::ThreeDataFrames => refresh_hz / 4.0, // V vs DDD, 30 Hz
            NaiveScheme::Alternating => refresh_hz / 2.0,     // 60 Hz
            NaiveScheme::TwoTwo => refresh_hz / 4.0,          // 30 Hz
            NaiveScheme::ThreeOne => refresh_hz / 4.0,        // 30 Hz
            NaiveScheme::Complementary => refresh_hz / 2.0,   // 60 Hz
        }
    }

    /// Whether the scheme biases the perceived mean luminance (a DC shift
    /// the viewer sees as color distortion even without flicker) — true for
    /// every uncompensated insertion.
    pub fn shifts_mean_luminance(&self) -> bool {
        !matches!(self, NaiveScheme::VideoOnly | NaiveScheme::Complementary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CodingMode, InFrameConfig};

    fn setup() -> (DataLayout, DataFrame, Plane<f32>) {
        let cfg = InFrameConfig::small_test();
        let layout = DataLayout::from_config(&cfg);
        let payload: Vec<bool> = (0..layout.payload_bits_parity())
            .map(|i| i % 2 == 0)
            .collect();
        let data = DataFrame::encode(&layout, &payload, CodingMode::Parity);
        let video = Plane::filled(cfg.display_w, cfg.display_h, 127.0);
        (layout, data, video)
    }

    #[test]
    fn every_scheme_renders_four_frames() {
        let (layout, data, video) = setup();
        for scheme in NaiveScheme::all() {
            let group = scheme.render_group(&layout, &video, &data, 20.0);
            assert_eq!(group.len(), 4, "{}", scheme.label());
            for f in &group {
                assert_eq!(f.shape(), video.shape());
            }
        }
    }

    #[test]
    fn only_complementary_preserves_mean_exactly() {
        let (layout, data, video) = setup();
        for scheme in NaiveScheme::all() {
            let group = scheme.render_group(&layout, &video, &data, 20.0);
            let mean: f64 = group.iter().map(|f| f.mean()).sum::<f64>() / group.len() as f64;
            let shift = (mean - video.mean()).abs();
            if scheme.shifts_mean_luminance() {
                assert!(
                    shift > 0.05,
                    "{} must shift mean, got {shift}",
                    scheme.label()
                );
            } else {
                assert!(
                    shift < 1e-3,
                    "{} must not shift mean, got {shift}",
                    scheme.label()
                );
            }
        }
    }

    #[test]
    fn naive_disturbances_fall_below_cff() {
        // At 120 Hz: three of the naive schemes disturb at 30 Hz — below
        // the 40–50 Hz CFF, hence visible. InFrame disturbs at 60 Hz.
        assert_eq!(NaiveScheme::TwoTwo.disturbance_frequency(120.0), 30.0);
        assert_eq!(
            NaiveScheme::ThreeDataFrames.disturbance_frequency(120.0),
            30.0
        );
        assert_eq!(NaiveScheme::ThreeOne.disturbance_frequency(120.0), 30.0);
        assert_eq!(
            NaiveScheme::Complementary.disturbance_frequency(120.0),
            60.0
        );
    }

    #[test]
    fn video_only_group_is_unmodified() {
        let (layout, data, video) = setup();
        let group = NaiveScheme::VideoOnly.render_group(&layout, &video, &data, 20.0);
        for f in group {
            assert_eq!(f, video);
        }
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::BTreeSet<_> =
            NaiveScheme::all().iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), 6);
    }
}
