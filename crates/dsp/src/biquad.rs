//! Second-order IIR sections (biquads) and Butterworth low-pass design.
//!
//! Figure 5 of the paper verifies the block-smoothing envelope "by passing
//! the waveform to an electronic low-pass filter and observ[ing] stable
//! output waveform". [`Biquad::butterworth_lowpass`] is that filter; the
//! HVS temporal model also composes biquads to approximate the eye's
//! flicker-fusion response.

/// A direct-form-I second-order IIR filter:
/// `y[n] = b0·x[n] + b1·x[n−1] + b2·x[n−2] − a1·y[n−1] − a2·y[n−2]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Biquad {
    /// Feed-forward coefficients.
    pub b: [f64; 3],
    /// Feedback coefficients (a0 normalized to 1 and omitted).
    pub a: [f64; 2],
}

impl Biquad {
    /// Identity (pass-through) filter.
    pub fn identity() -> Self {
        Self {
            b: [1.0, 0.0, 0.0],
            a: [0.0, 0.0],
        }
    }

    /// Designs a 2nd-order Butterworth low-pass with cutoff `fc` Hz at
    /// sample rate `fs` Hz via the bilinear transform with pre-warping.
    ///
    /// # Panics
    /// Panics unless `0 < fc < fs/2`.
    pub fn butterworth_lowpass(fc: f64, fs: f64) -> Self {
        assert!(fc > 0.0 && fc < fs / 2.0, "cutoff must be in (0, fs/2)");
        // Pre-warped analog cutoff mapped through the bilinear transform.
        let k = (std::f64::consts::PI * fc / fs).tan();
        let sqrt2 = std::f64::consts::SQRT_2;
        let norm = 1.0 / (1.0 + sqrt2 * k + k * k);
        Self {
            b: [k * k * norm, 2.0 * k * k * norm, k * k * norm],
            a: [2.0 * (k * k - 1.0) * norm, (1.0 - sqrt2 * k + k * k) * norm],
        }
    }

    /// Filters a whole signal, starting from zero state.
    pub fn filter(&self, x: &[f64]) -> Vec<f64> {
        let mut state = BiquadState::default();
        x.iter().map(|&v| state.step(self, v)).collect()
    }

    /// Magnitude response at frequency `f` Hz for sample rate `fs`.
    pub fn magnitude_at(&self, f: f64, fs: f64) -> f64 {
        let w = 2.0 * std::f64::consts::PI * f / fs;
        let (c1, s1) = (w.cos(), w.sin());
        let (c2, s2) = ((2.0 * w).cos(), (2.0 * w).sin());
        // Evaluate B(e^{-jw}) / A(e^{-jw}).
        let num_re = self.b[0] + self.b[1] * c1 + self.b[2] * c2;
        let num_im = -(self.b[1] * s1 + self.b[2] * s2);
        let den_re = 1.0 + self.a[0] * c1 + self.a[1] * c2;
        let den_im = -(self.a[0] * s1 + self.a[1] * s2);
        (num_re.hypot(num_im)) / (den_re.hypot(den_im))
    }
}

/// Running state for streaming use of a [`Biquad`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BiquadState {
    x1: f64,
    x2: f64,
    y1: f64,
    y2: f64,
}

impl BiquadState {
    /// Processes one sample through `bq`, updating the state.
    pub fn step(&mut self, bq: &Biquad, x: f64) -> f64 {
        let y = bq.b[0] * x + bq.b[1] * self.x1 + bq.b[2] * self.x2
            - bq.a[0] * self.y1
            - bq.a[1] * self.y2;
        self.x2 = self.x1;
        self.x1 = x;
        self.y2 = self.y1;
        self.y1 = y;
        y
    }

    /// Resets to zero state.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

/// A cascade of biquad sections applied in series — used to build
/// higher-order low-pass models (e.g. a 4th-order eye response from two
/// 2nd-order sections).
#[derive(Debug, Clone, PartialEq)]
pub struct Cascade {
    /// The sections, applied first-to-last.
    pub sections: Vec<Biquad>,
}

impl Cascade {
    /// Builds a cascade from sections.
    pub fn new(sections: Vec<Biquad>) -> Self {
        Self { sections }
    }

    /// Filters a whole signal through every section in series.
    pub fn filter(&self, x: &[f64]) -> Vec<f64> {
        let mut cur = x.to_vec();
        for s in &self.sections {
            cur = s.filter(&cur);
        }
        cur
    }

    /// Combined magnitude response (product of section responses).
    pub fn magnitude_at(&self, f: f64, fs: f64) -> f64 {
        self.sections
            .iter()
            .map(|s| s.magnitude_at(f, fs))
            .product()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_passes_signal_through() {
        let sig = vec![1.0, -2.0, 3.5, 0.0];
        assert_eq!(Biquad::identity().filter(&sig), sig);
    }

    #[test]
    fn butterworth_dc_gain_is_unity() {
        let bq = Biquad::butterworth_lowpass(50.0, 1000.0);
        assert!((bq.magnitude_at(0.0, 1000.0) - 1.0).abs() < 1e-9);
        // Constant input settles to the same constant.
        let out = bq.filter(&vec![1.0; 500]);
        assert!((out.last().unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn butterworth_cutoff_is_minus_3db() {
        let bq = Biquad::butterworth_lowpass(50.0, 1000.0);
        let g = bq.magnitude_at(50.0, 1000.0);
        let db = 20.0 * g.log10();
        assert!((db + 3.0103).abs() < 0.05, "gain at fc was {db} dB");
    }

    #[test]
    fn butterworth_attenuates_high_frequencies() {
        let bq = Biquad::butterworth_lowpass(40.0, 1000.0);
        // 2nd-order: −12 dB/octave asymptotically.
        let g80 = bq.magnitude_at(80.0, 1000.0);
        let g160 = bq.magnitude_at(160.0, 1000.0);
        assert!(g80 < 0.5);
        assert!(g160 < g80 / 3.0);
    }

    #[test]
    fn sixty_hz_flicker_through_cff_filter_is_attenuated() {
        // The paper's premise: a 60 Hz square-ish alternation through a
        // ~45 Hz low-pass loses most of its amplitude.
        let fs = 120.0;
        let bq = Biquad::butterworth_lowpass(45.0, fs);
        let g = bq.magnitude_at(60.0, fs);
        assert!(g < 0.6, "60Hz gain was {g}");
    }

    #[test]
    fn cascade_squares_the_attenuation() {
        let fs = 1000.0;
        let bq = Biquad::butterworth_lowpass(50.0, fs);
        let cas = Cascade::new(vec![bq, bq]);
        let single = bq.magnitude_at(150.0, fs);
        let double = cas.magnitude_at(150.0, fs);
        assert!((double - single * single).abs() < 1e-9);
    }

    #[test]
    fn streaming_matches_batch() {
        let bq = Biquad::butterworth_lowpass(30.0, 240.0);
        let sig: Vec<f64> = (0..64).map(|i| ((i % 5) as f64) - 2.0).collect();
        let batch = bq.filter(&sig);
        let mut st = BiquadState::default();
        let stream: Vec<f64> = sig.iter().map(|&v| st.step(&bq, v)).collect();
        assert_eq!(batch, stream);
    }

    #[test]
    #[should_panic(expected = "cutoff")]
    fn cutoff_above_nyquist_panics() {
        let _ = Biquad::butterworth_lowpass(600.0, 1000.0);
    }

    #[test]
    fn state_reset_restarts_filter() {
        let bq = Biquad::butterworth_lowpass(30.0, 240.0);
        let mut st = BiquadState::default();
        let a1 = st.step(&bq, 1.0);
        st.reset();
        let a2 = st.step(&bq, 1.0);
        assert_eq!(a1, a2);
    }
}
