//! Phantom-array visibility.
//!
//! Above-CFF flicker can still be seen during saccades: the flashing source
//! paints a dotted trail across the retina (§2 of the paper). Recent
//! studies (the paper cites Vogels & Hernando, Roberts & Wilkins) find the
//! effect weaker with lower flicker amplitude, larger duty cycle and larger
//! beam size — the knobs InFrame turns via δ, the smoothing envelope and
//! the super-Pixel size p.
//!
//! The model here scores a phantom-array visibility `v_p` from the
//! high-frequency modulation contrast, the spatial cell size of the
//! pattern, and the per-frame step size of the envelope (abrupt data
//! transitions re-excite the effect; the paper's Figure 5 smoothing exists
//! to suppress exactly this).

/// Parameters of the phantom-array model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhantomModel {
    /// Overall gain mapping high-frequency contrast to visibility.
    pub gain: f64,
    /// Spatial cell size (display pixels) at which the effect halves:
    /// larger pattern cells → larger "beam" → weaker phantom trail.
    pub beam_halving_px: f64,
    /// Weight of envelope step discontinuities (per unit contrast step).
    pub step_gain: f64,
}

impl Default for PhantomModel {
    fn default() -> Self {
        Self {
            gain: 60.0,
            beam_halving_px: 4.0,
            step_gain: 30.0,
        }
    }
}

impl PhantomModel {
    /// Phantom-array visibility (same convention as CSF visibility: < 1 is
    /// below threshold).
    ///
    /// * `hf_contrast` — Michelson contrast of the above-CFF alternation in
    ///   linear light.
    /// * `cell_px` — spatial cell size of the alternating pattern in
    ///   display pixels (the paper's super-Pixel `p`).
    /// * `max_step_contrast` — largest frame-to-frame change of the local
    ///   mean luminance contrast (envelope discontinuity; 0 for a stable or
    ///   smoothly ramped pattern).
    /// * `duty_cycle` — fraction of the period the source is in its bright
    ///   state; 0.5 for the complementary pattern.
    pub fn visibility(
        &self,
        hf_contrast: f64,
        cell_px: f64,
        max_step_contrast: f64,
        duty_cycle: f64,
    ) -> f64 {
        if hf_contrast <= 0.0 && max_step_contrast <= 0.0 {
            return 0.0;
        }
        // Larger beams halve the effect per beam_halving_px (empirical
        // shape of the cited studies: big sources smear the retinal trail).
        let beam_factor = 0.5f64.powf((cell_px / self.beam_halving_px).max(0.0));
        // Larger duty cycle → dimmer trail contrast (trail gaps fill in).
        let duty_factor = (1.0 - duty_cycle).clamp(0.0, 1.0) * 2.0;
        let alternation = self.gain * hf_contrast * beam_factor * duty_factor;
        let steps = self.step_gain * max_step_contrast;
        alternation + steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_contrast_is_invisible() {
        let m = PhantomModel::default();
        assert_eq!(m.visibility(0.0, 4.0, 0.0, 0.5), 0.0);
    }

    #[test]
    fn larger_cells_reduce_visibility() {
        let m = PhantomModel::default();
        let small = m.visibility(0.5, 1.0, 0.0, 0.5);
        let paper_p4 = m.visibility(0.5, 4.0, 0.0, 0.5);
        let large = m.visibility(0.5, 16.0, 0.0, 0.5);
        assert!(small > paper_p4);
        assert!(paper_p4 > large);
    }

    #[test]
    fn abrupt_steps_dominate_smooth_envelopes() {
        let m = PhantomModel::default();
        let abrupt = m.visibility(0.3, 4.0, 0.3, 0.5);
        let smooth = m.visibility(0.3, 4.0, 0.03, 0.5);
        assert!(abrupt > smooth * 1.5);
    }

    #[test]
    fn higher_duty_cycle_less_visible() {
        let m = PhantomModel::default();
        let short_pulse = m.visibility(0.5, 4.0, 0.0, 0.1);
        let half = m.visibility(0.5, 4.0, 0.0, 0.5);
        let long_pulse = m.visibility(0.5, 4.0, 0.0, 0.9);
        assert!(short_pulse > half);
        assert!(half > long_pulse);
    }

    #[test]
    fn visibility_scales_with_contrast() {
        let m = PhantomModel::default();
        let lo = m.visibility(0.1, 4.0, 0.0, 0.5);
        let hi = m.visibility(0.6, 4.0, 0.0, 0.5);
        assert!((hi / lo - 6.0).abs() < 1e-9);
    }
}
