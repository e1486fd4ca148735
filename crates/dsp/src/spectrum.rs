//! Spectral analysis helpers built on the FFT.
//!
//! These answer the questions the paper's design rests on: *where does the
//! flicker energy of a displayed waveform sit relative to the CFF?* The
//! complementary-frame scheme pushes all data energy to `refresh/2` Hz
//! (60 Hz on a 120 Hz panel); the naive designs leak energy below 40 Hz.

use crate::fft::{fft_real, Complex};

/// A one-sided magnitude spectrum with its frequency axis.
#[derive(Debug, Clone, PartialEq)]
pub struct Spectrum {
    /// Bin frequencies in Hz (DC through Nyquist).
    pub freqs: Vec<f64>,
    /// Magnitudes per bin (normalized by signal length: a full-scale
    /// sinusoid appears with magnitude ≈ 0.5·amplitude at its bin, except
    /// at DC and Nyquist which are unhalved).
    pub mags: Vec<f64>,
}

impl Spectrum {
    /// Computes the one-sided spectrum of `signal` sampled at `fs` Hz.
    /// The signal is zero-padded to a power of two.
    pub fn of(signal: &[f64], fs: f64) -> Self {
        let spec: Vec<Complex> = fft_real(signal);
        let n = spec.len();
        let half = n / 2;
        let freqs: Vec<f64> = (0..=half).map(|i| i as f64 * fs / n as f64).collect();
        let mags: Vec<f64> = (0..=half)
            .map(|i| spec[i].abs() / signal.len() as f64)
            .collect();
        Self { freqs, mags }
    }

    /// Total energy (sum of squared magnitudes) in the band `[lo, hi]` Hz.
    pub fn band_energy(&self, lo: f64, hi: f64) -> f64 {
        self.freqs
            .iter()
            .zip(&self.mags)
            .filter(|(&f, _)| f >= lo && f <= hi)
            .map(|(_, &m)| m * m)
            .sum()
    }

    /// Fraction of total (non-DC) energy inside `[lo, hi]` Hz.
    /// Returns 0 when the signal has no AC energy.
    pub fn band_energy_fraction(&self, lo: f64, hi: f64) -> f64 {
        let total = self.band_energy(self.freqs[1].max(1e-9), *self.freqs.last().unwrap());
        if total <= 0.0 {
            return 0.0;
        }
        self.band_energy(lo.max(self.freqs[1]), hi) / total
    }

    /// Frequency of the strongest non-DC bin.
    pub fn dominant_frequency(&self) -> f64 {
        let mut best = (1, 0.0f64);
        for i in 1..self.mags.len() {
            if self.mags[i] > best.1 {
                best = (i, self.mags[i]);
            }
        }
        self.freqs[best.0]
    }
}

/// Peak-to-peak span of a signal.
pub fn peak_to_peak(signal: &[f64]) -> f64 {
    assert!(!signal.is_empty(), "signal must be nonempty");
    let mut lo = signal[0];
    let mut hi = signal[0];
    for &v in signal {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    hi - lo
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(f: f64, fs: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * f * i as f64 / fs).sin())
            .collect()
    }

    #[test]
    fn dominant_frequency_of_pure_tone() {
        // 60 Hz tone at 120 Hz... that's Nyquist; use 480 Hz sampling.
        let s = tone(60.0, 480.0, 512);
        let spec = Spectrum::of(&s, 480.0);
        assert!((spec.dominant_frequency() - 60.0).abs() < 1.0);
    }

    #[test]
    fn band_energy_concentrates_at_tone() {
        let s = tone(50.0, 400.0, 512);
        let spec = Spectrum::of(&s, 400.0);
        let frac = spec.band_energy_fraction(45.0, 55.0);
        assert!(frac > 0.95, "fraction was {frac}");
    }

    #[test]
    fn complementary_alternation_energy_sits_at_half_refresh() {
        // ±δ alternation at 120 FPS: the InFrame data waveform. All energy
        // must be at 60 Hz, which is why humans cannot see it.
        let fs = 120.0;
        let s: Vec<f64> = (0..256)
            .map(|i| if i % 2 == 0 { 20.0 } else { -20.0 })
            .collect();
        let spec = Spectrum::of(&s, fs);
        assert!((spec.dominant_frequency() - 60.0).abs() < 0.5);
        assert!(spec.band_energy_fraction(55.0, 60.0) > 0.99);
        // Below-CFF band is essentially empty.
        assert!(spec.band_energy_fraction(1.0, 40.0) < 1e-6);
    }

    #[test]
    fn naive_insertion_leaks_low_frequency_energy() {
        // Figure 3(d)-style: video frame then data frame (V, D, V, D) where
        // D differs in mean level — a 60 Hz component, but when the data
        // frame changes every 4 frames a 30 Hz component appears too.
        let fs = 120.0;
        let mut s = Vec::new();
        for block in 0..64 {
            let d_level = if block % 2 == 0 { 20.0 } else { -20.0 };
            // 2 video frames at 0, 2 data frames at d_level: period 4 frames
            // = 30 Hz fundamental, below-ish the 40–50 Hz CFF.
            s.extend_from_slice(&[0.0, 0.0, d_level, d_level]);
        }
        let spec = Spectrum::of(&s, fs);
        assert!(
            spec.band_energy_fraction(1.0, 40.0) > 0.3,
            "naive scheme must leak perceivable energy"
        );
    }

    #[test]
    fn peak_to_peak_of_alternation() {
        let s = vec![1.0, -1.0, 1.0, -1.0];
        assert!((peak_to_peak(&s) - 2.0).abs() < 1e-12);
    }
}
