//! Figure 5: the temporal smoothing waveform and its response through an
//! electronic low-pass filter.
//!
//! The paper verifies the block-smoothing design "by passing the waveform
//! to an electronic low-pass filter and observ\[ing\] stable output
//! waveform". This module regenerates both curves: the displayed ±δ
//! waveform with the SRRC transition envelope (red solid curve) and its
//! output through a 2nd-order Butterworth low-pass at the CFF (blue dotted
//! curve).

use crate::report::Series;
use inframe_dsp::biquad::{Biquad, Cascade};
use inframe_dsp::envelope::{Envelope, TransitionShape};
use inframe_dsp::spectrum::Spectrum;

/// The two curves of Figure 5 plus summary statistics.
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// Sample rate of the waveforms (the display refresh rate), Hz.
    pub fs: f64,
    /// The displayed waveform (±δ·envelope per frame).
    pub displayed: Vec<f64>,
    /// The waveform after the low-pass filter.
    pub filtered: Vec<f64>,
    /// Peak-to-peak of the filtered output (the "stability" the paper
    /// checks — small means the eye-like filter sees almost nothing).
    pub filtered_ripple: f64,
    /// Fraction of displayed AC energy above 50 Hz (should be ~1).
    pub hf_energy_fraction: f64,
}

/// Generates Figure 5 for an envelope shape and parameters.
///
/// * `tau` — data cycle in displayed frames; * `delta` — amplitude;
/// * `states` — per-cycle bit states (the paper shows a 1→0→1 sequence).
pub fn run(shape: TransitionShape, tau: u32, delta: f64, states: &[bool]) -> Fig5 {
    assert!(
        tau >= 2 && tau.is_multiple_of(2),
        "tau must be even and >= 2"
    );
    assert!(states.len() >= 2, "need at least two cycles");
    let fs = 120.0;
    let env = Envelope::new(tau / 2, shape);
    let displayed = env.displayed_waveform(states, delta);
    // The paper's verification filter: an electronic low-pass standing in
    // for the eye. Two cascaded 2nd-order Butterworth sections at 30 Hz
    // (4th order overall) kill the 60 Hz carrier and expose only the slow
    // envelope the eye would integrate.
    let lpf = Cascade::new(vec![
        Biquad::butterworth_lowpass(30.0, fs),
        Biquad::butterworth_lowpass(30.0, fs),
    ]);
    let filtered = lpf.filter(&displayed);
    // Discard the filter's settle-in transient when measuring ripple.
    let settle = (fs / 10.0) as usize;
    let steady = &filtered[settle.min(filtered.len().saturating_sub(1))..];
    let ripple = inframe_dsp::spectrum::peak_to_peak(steady);
    let spec = Spectrum::of(&displayed, fs);
    Fig5 {
        fs,
        hf_energy_fraction: spec.band_energy_fraction(50.0, fs / 2.0),
        filtered_ripple: ripple,
        displayed,
        filtered,
    }
}

impl Fig5 {
    /// Both curves as plottable series (x = time in seconds).
    pub fn series(&self) -> Vec<Series> {
        let t = |i: usize| i as f64 / self.fs;
        vec![
            Series::new(
                "displayed waveform",
                self.displayed
                    .iter()
                    .enumerate()
                    .map(|(i, &y)| (t(i), y))
                    .collect(),
            ),
            Series::new(
                "after low-pass",
                self.filtered
                    .iter()
                    .enumerate()
                    .map(|(i, &y)| (t(i), y))
                    .collect(),
            ),
        ]
    }
}

/// Compares the three candidate envelope shapes (§3.2) under the same
/// filter: returns `(shape label, filtered ripple)` sorted as given.
pub fn compare_shapes(tau: u32, delta: f64) -> Vec<(&'static str, f64)> {
    let states = [true, false, true, false, true];
    [
        ("srrc", TransitionShape::SrrCosine),
        ("linear", TransitionShape::Linear),
        ("stair", TransitionShape::Stair { steps: 2 }),
    ]
    .into_iter()
    .map(|(name, shape)| (name, run(shape, tau, delta, &states).filtered_ripple))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displayed_energy_sits_above_cff() {
        let fig = run(TransitionShape::SrrCosine, 12, 20.0, &[true, true, true]);
        assert!(
            fig.hf_energy_fraction > 0.95,
            "hf fraction {}",
            fig.hf_energy_fraction
        );
    }

    #[test]
    fn stable_bits_filter_to_near_silence() {
        let fig = run(TransitionShape::SrrCosine, 12, 20.0, &[true; 6]);
        // ±20 in, tiny ripple out: the filter "sees" almost nothing.
        assert!(
            fig.filtered_ripple < 6.0,
            "ripple {} for ±20 input",
            fig.filtered_ripple
        );
    }

    #[test]
    fn transitions_stay_stable_with_srrc() {
        let fig = run(
            TransitionShape::SrrCosine,
            12,
            20.0,
            &[true, false, true, false, true, false],
        );
        // The paper's check: output remains stable through transitions.
        assert!(
            fig.filtered_ripple < 10.0,
            "ripple {} through transitions",
            fig.filtered_ripple
        );
    }

    #[test]
    fn smoothed_shapes_beat_abrupt_switching() {
        // The design claim behind Figure 5: a shaped transition excites the
        // low-pass less than an instantaneous bit flip. (Among the three
        // shaped candidates the differences are marginal at τ/2 envelope
        // samples — the paper picked SRRC from user impressions.)
        let states = [true, false, true, false, true];
        let abrupt = run(TransitionShape::Stair { steps: 1 }, 12, 20.0, &states).filtered_ripple;
        for (name, ripple) in compare_shapes(12, 20.0) {
            assert!(
                ripple < abrupt,
                "{name} ripple {ripple} must beat abrupt {abrupt}"
            );
        }
    }

    #[test]
    fn series_have_matching_lengths() {
        let fig = run(TransitionShape::Linear, 10, 30.0, &[true, false]);
        let s = fig.series();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].points.len(), s[1].points.len());
        assert_eq!(s[0].points.len(), 2 * 10); // 2 cycles × τ frames
    }

    #[test]
    #[should_panic(expected = "tau must be even")]
    fn odd_tau_rejected() {
        let _ = run(TransitionShape::SrrCosine, 11, 20.0, &[true, false]);
    }
}
