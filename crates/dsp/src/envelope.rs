//! Amplitude envelopes for data-frame transitions (paper §3.2, Figure 5).
//!
//! A data Pixel that flips between bit values cannot switch its chessboard
//! amplitude abruptly — the step excites the phantom-array sensitivity of
//! the eye. InFrame instead shapes the amplitude over the data-frame cycle
//! `τ`: constant while the bit is stable, and following a transition
//! function `Ω₁₀(t)` / `Ω₀₁(t)` over the τ/2 iterations around a flip. The
//! paper adopts "half of the square-root raised Cosine waveform, after
//! comparing with linear and stair function forms".

/// The transition function family used when a data Pixel flips bit value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransitionShape {
    /// Half square-root raised cosine — the shape InFrame adopts.
    SrrCosine,
    /// Straight-line ramp between amplitudes.
    Linear,
    /// Discrete stair steps (`steps` levels) between amplitudes.
    Stair {
        /// Number of discrete levels in the stair (≥ 1).
        steps: u32,
    },
}

impl TransitionShape {
    /// Evaluates the normalized transition at progress `t ∈ [0, 1]`,
    /// returning a value that moves monotonically from 0 to 1.
    ///
    /// `Ω₀₁(t)` is this function; `Ω₁₀(t) = 1 − Ω₀₁(t)` by symmetry.
    pub fn eval(&self, t: f64) -> f64 {
        let t = t.clamp(0.0, 1.0);
        match self {
            // Half-period raised-cosine ramp, square-rooted: this is the
            // "half square-root raised cosine" — smooth at both endpoints
            // in amplitude-squared (i.e., energy), which is what the eye's
            // luminance integration sees.
            TransitionShape::SrrCosine => {
                let raised = 0.5 * (1.0 - (std::f64::consts::PI * t).cos());
                raised.sqrt()
            }
            TransitionShape::Linear => t,
            TransitionShape::Stair { steps } => {
                let n = (*steps).max(1) as f64;
                // t=1 must land exactly on 1.0.
                (((t * n).floor()).min(n)) / n
            }
        }
    }

    /// Maximum absolute step between consecutive samples when the
    /// transition is sampled at `n` points — a proxy for the phantom-array
    /// excitation each shape produces (smaller is gentler).
    pub fn max_step(&self, n: usize) -> f64 {
        assert!(n >= 2, "need at least two samples");
        let mut max = 0.0f64;
        let mut prev = self.eval(0.0);
        for i in 1..n {
            let v = self.eval(i as f64 / (n - 1) as f64);
            max = max.max((v - prev).abs());
            prev = v;
        }
        max
    }
}

/// The per-Pixel amplitude envelope over one data-frame cycle of `τ`
/// iterations (paper §3.2).
///
/// `Envelope` answers: "at iteration `k` of the cycle, what fraction of the
/// full amplitude δ does this Pixel carry?", given whether the bit flips at
/// this cycle boundary. Per the paper, a flip plays out over the **last τ/2
/// iterations** of the cycle ("when it switches … at the τ/2-th iteration,
/// the amplitude envelope follows Ω within the remaining τ/2 iterations").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Envelope {
    /// Data-frame cycle length in iterations (τ ≥ 2).
    pub tau: u32,
    /// Transition shape Ω.
    pub shape: TransitionShape,
}

impl Envelope {
    /// Creates an envelope, clamping τ to at least 2.
    pub fn new(tau: u32, shape: TransitionShape) -> Self {
        Self {
            tau: tau.max(2),
            shape,
        }
    }

    /// Amplitude fraction at iteration `k ∈ [0, τ)` of the current cycle.
    ///
    /// * `prev_on` — whether the Pixel carried the chessboard (bit 1) in the
    ///   previous cycle.
    /// * `next_on` — whether it carries it in the next cycle.
    ///
    /// Stable bits return a constant (1.0 if on, 0.0 if off). A 0→1 flip
    /// ramps up over the second half of the cycle; 1→0 ramps down.
    pub fn amplitude(&self, k: u32, prev_on: bool, next_on: bool) -> f64 {
        let k = k.min(self.tau - 1);
        match (prev_on, next_on) {
            (false, false) => 0.0,
            (true, true) => 1.0,
            (prev, _) => {
                let half = self.tau as f64 / 2.0;
                let base = if prev { 1.0 } else { 0.0 };
                if (k as f64) < half {
                    base
                } else {
                    // Progress through the transition half of the cycle.
                    let span = (self.tau as f64 - half - 1.0).max(1.0);
                    let t = (k as f64 - half) / span;
                    let omega = self.shape.eval(t);
                    if prev {
                        1.0 - omega // Ω₁₀
                    } else {
                        omega // Ω₀₁
                    }
                }
            }
        }
    }

    /// Samples the full amplitude waveform for a sequence of per-cycle bit
    /// states, returning `states.len() * τ` iteration amplitudes.
    ///
    /// `states[c]` is the bit carried during cycle `c`; the transition into
    /// `states[c + 1]` plays out in the second half of cycle `c`.
    pub fn waveform(&self, states: &[bool]) -> Vec<f64> {
        let mut out = Vec::with_capacity(states.len() * self.tau as usize);
        for (c, &on) in states.iter().enumerate() {
            let next = states.get(c + 1).copied().unwrap_or(on);
            for k in 0..self.tau {
                out.push(self.amplitude(k, on, next));
            }
        }
        out
    }

    /// Expands cycle amplitudes into the **displayed** signed waveform: each
    /// iteration contributes `+a` then `−a` (the complementary pair), so the
    /// result has `2 ×` the length of [`Envelope::waveform`]. This is the
    /// red solid curve of Figure 5.
    pub fn displayed_waveform(&self, states: &[bool], delta: f64) -> Vec<f64> {
        let amps = self.waveform(states);
        let mut out = Vec::with_capacity(amps.len() * 2);
        for a in amps {
            out.push(a * delta);
            out.push(-a * delta);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn shapes_hit_endpoints() {
        for shape in [
            TransitionShape::SrrCosine,
            TransitionShape::Linear,
            TransitionShape::Stair { steps: 4 },
        ] {
            assert!(shape.eval(0.0).abs() < 1e-12, "{shape:?} at 0");
            assert!((shape.eval(1.0) - 1.0).abs() < 1e-12, "{shape:?} at 1");
        }
    }

    #[test]
    fn srrc_is_smooth_compared_to_stair() {
        let n = 64;
        let srrc = TransitionShape::SrrCosine.max_step(n);
        let stair = TransitionShape::Stair { steps: 2 }.max_step(n);
        assert!(
            srrc < stair,
            "srrc step {srrc} should be below stair step {stair}"
        );
    }

    #[test]
    fn linear_max_step_is_uniform() {
        let n = 11;
        let step = TransitionShape::Linear.max_step(n);
        assert!((step - 0.1).abs() < 1e-9);
    }

    #[test]
    fn stable_bits_have_constant_amplitude() {
        let env = Envelope::new(10, TransitionShape::SrrCosine);
        for k in 0..10 {
            assert_eq!(env.amplitude(k, true, true), 1.0);
            assert_eq!(env.amplitude(k, false, false), 0.0);
        }
    }

    #[test]
    fn flip_starts_at_half_cycle() {
        let env = Envelope::new(12, TransitionShape::Linear);
        // First half: hold previous value.
        for k in 0..6 {
            assert_eq!(env.amplitude(k, true, false), 1.0, "k={k}");
            assert_eq!(env.amplitude(k, false, true), 0.0, "k={k}");
        }
        // Second half: ramp, finishing at the new value.
        assert_eq!(env.amplitude(11, true, false), 0.0);
        assert_eq!(env.amplitude(11, false, true), 1.0);
        // Mid-ramp strictly between the endpoints.
        let mid = env.amplitude(8, false, true);
        assert!(mid > 0.0 && mid < 1.0);
    }

    #[test]
    fn omega_symmetry() {
        let env = Envelope::new(10, TransitionShape::SrrCosine);
        for k in 0..10 {
            let down = env.amplitude(k, true, false);
            let up = env.amplitude(k, false, true);
            assert!((down + up - 1.0).abs() < 1e-12, "k={k}");
        }
    }

    #[test]
    fn waveform_length_and_transitions() {
        let env = Envelope::new(4, TransitionShape::Linear);
        let w = env.waveform(&[false, true, true, false]);
        assert_eq!(w.len(), 16);
        // Cycle 0 ends ramping up to 1; cycle 1..2 stable at 1.
        assert_eq!(w[4], 1.0);
        assert_eq!(w[8], 1.0);
        // Final cycle ramps down to 0.
        assert_eq!(*w.last().unwrap(), 0.0);
    }

    #[test]
    fn displayed_waveform_alternates_sign() {
        let env = Envelope::new(4, TransitionShape::SrrCosine);
        let w = env.displayed_waveform(&[true, true], 20.0);
        assert_eq!(w.len(), 16);
        for pair in w.chunks_exact(2) {
            assert!(
                (pair[0] + pair[1]).abs() < 1e-9,
                "complementary pair sums to 0"
            );
        }
        assert_eq!(w[0], 20.0);
        assert_eq!(w[1], -20.0);
    }

    proptest! {
        #[test]
        fn amplitude_always_in_unit_interval(
            tau in 2u32..32,
            k in 0u32..32,
            prev in any::<bool>(),
            next in any::<bool>(),
        ) {
            let env = Envelope::new(tau, TransitionShape::SrrCosine);
            let a = env.amplitude(k, prev, next);
            prop_assert!((0.0..=1.0).contains(&a));
        }

        #[test]
        fn shapes_are_monotone(t1 in 0.0f64..1.0, t2 in 0.0f64..1.0) {
            let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
            for shape in [
                TransitionShape::SrrCosine,
                TransitionShape::Linear,
                TransitionShape::Stair { steps: 5 },
            ] {
                prop_assert!(shape.eval(lo) <= shape.eval(hi) + 1e-12);
            }
        }
    }
}
