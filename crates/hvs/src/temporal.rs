//! Time-domain model of the eye's temporal response.
//!
//! The CSF surface in [`crate::csf`] works per frequency component; this
//! module provides the complementary **filter view** the paper appeals to
//! ("the temporal behavior of human vision system can be approximated as a
//! linear low-pass filter", §2): an IIR cascade whose cutoff tracks the
//! luminance-dependent CFF. Filtering a luminance waveform through it
//! yields the *perceived* waveform — what survives flicker fusion — which
//! the fig5/fig6 analyses use as an independent cross-check on the
//! spectral path.

use crate::cff::cff;
use inframe_dsp::biquad::{Biquad, Cascade};

/// A luminance-adapted eye filter.
#[derive(Debug, Clone, PartialEq)]
pub struct EyeFilter {
    /// The IIR cascade (two 2nd-order sections → 4th order).
    cascade: Cascade,
    /// Sample rate the filter was designed for, Hz.
    pub fs: f64,
    /// Cutoff used (the CFF at the adapting luminance), Hz.
    pub cutoff_hz: f64,
}

impl EyeFilter {
    /// Designs the filter for a waveform sampled at `fs` Hz viewed at an
    /// adapting luminance of `l_nits` cd/m².
    ///
    /// # Panics
    /// Panics if `fs` is too low to represent the CFF (needs
    /// `fs > 2 · CFF`).
    pub fn new(fs: f64, l_nits: f64) -> Self {
        let cutoff = cff(l_nits);
        assert!(
            fs > 2.0 * cutoff,
            "sample rate {fs} cannot represent a {cutoff} Hz cutoff"
        );
        let section = Biquad::butterworth_lowpass(cutoff, fs);
        Self {
            cascade: Cascade::new(vec![section, section]),
            fs,
            cutoff_hz: cutoff,
        }
    }

    /// Filters a luminance waveform into its perceived version.
    pub fn perceive(&self, waveform: &[f64]) -> Vec<f64> {
        self.cascade.filter(waveform)
    }

    /// Gain at frequency `f` Hz.
    pub fn gain_at(&self, f: f64) -> f64 {
        self.cascade.magnitude_at(f, self.fs)
    }

    /// Residual flicker after fusion: the peak-to-peak of the perceived
    /// waveform's steady state (first 10 % discarded as filter transient),
    /// normalized by the mean — a Michelson-like perceived modulation.
    pub fn perceived_modulation(&self, waveform: &[f64]) -> f64 {
        assert!(waveform.len() >= 16, "waveform too short");
        let perceived = self.perceive(waveform);
        let settle = waveform.len() / 10;
        let steady = &perceived[settle..];
        let mean = steady.iter().sum::<f64>() / steady.len() as f64;
        if mean <= 1e-12 {
            return 0.0;
        }
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &v in steady {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        (hi - lo) / (2.0 * mean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_wave(f: f64, fs: f64, n: usize, mean: f64, amp: f64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let phase = (i as f64 * f * 2.0 / fs) as u64;
                if phase.is_multiple_of(2) {
                    mean + amp
                } else {
                    mean - amp
                }
            })
            .collect()
    }

    #[test]
    fn cutoff_tracks_luminance() {
        let dim = EyeFilter::new(960.0, 5.0);
        let bright = EyeFilter::new(960.0, 400.0);
        assert!(bright.cutoff_hz > dim.cutoff_hz);
        // Brighter adaptation passes more of a 40 Hz signal.
        assert!(bright.gain_at(40.0) > dim.gain_at(40.0));
    }

    #[test]
    fn sixty_hz_flicker_mostly_fuses() {
        let eye = EyeFilter::new(960.0, 200.0);
        let w = square_wave(60.0, 960.0, 2048, 0.5, 0.25); // 50% modulation
        let m = eye.perceived_modulation(&w);
        // 4th-order rolloff at CFF≈48 Hz leaves ~1/3 of the 60 Hz
        // fundamental; the CSF path (thresholds, not gains) is the one
        // that declares it invisible.
        assert!(m < 0.2, "perceived modulation {m}");
    }

    #[test]
    fn ten_hz_flicker_survives() {
        let eye = EyeFilter::new(960.0, 200.0);
        let w = square_wave(10.0, 960.0, 4096, 0.5, 0.25);
        let m = eye.perceived_modulation(&w);
        assert!(m > 0.2, "perceived modulation {m}");
    }

    #[test]
    fn perception_ordering_matches_csf_path() {
        // The filter view and the threshold-surface view must agree on
        // ordering: 60 Hz fuses harder than 30 Hz which fuses harder than
        // 10 Hz.
        let eye = EyeFilter::new(960.0, 200.0);
        let m = |f: f64| eye.perceived_modulation(&square_wave(f, 960.0, 4096, 0.5, 0.25));
        let (m10, m30, m60) = (m(10.0), m(30.0), m(60.0));
        assert!(m10 > m30 && m30 > m60, "{m10} > {m30} > {m60}");
    }

    #[test]
    fn constant_light_is_perceived_constant() {
        let eye = EyeFilter::new(480.0, 100.0);
        let w = vec![0.4; 1024];
        let m = eye.perceived_modulation(&w);
        assert!(m < 1e-9);
    }

    #[test]
    #[should_panic(expected = "cannot represent")]
    fn undersampled_design_panics() {
        let _ = EyeFilter::new(60.0, 400.0);
    }
}
