//! The flicker meter: waveform in, visibility out.
//!
//! Combines the CSF threshold surface with the phantom-array model to
//! assess a pixel's linear-light waveform the way a viewer would: by the
//! most visible frequency component plus any saccade-visible residue.

use crate::csf::component_visibility;
use crate::phantom::PhantomModel;
use inframe_dsp::spectrum::Spectrum;

/// Configuration of the flicker assessment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlickerMeter {
    /// Display peak luminance, cd/m² (converts normalized light to nits).
    pub peak_nits: f64,
    /// Phantom-array model.
    pub phantom: PhantomModel,
    /// Spatial cell size of the embedded pattern in display pixels (the
    /// super-Pixel size `p`); feeds the phantom beam-size factor.
    pub pattern_cell_px: f64,
    /// Fraction of viewing time spent in saccades — weights the phantom
    /// term (typical viewing: a few saccades per second ≈ 5–10% of time).
    pub saccade_weight: f64,
    /// Threshold elevation for small targets. A single InFrame Block spans
    /// ~1° of visual angle at the paper's viewing distance; flicker
    /// thresholds for 1° fields sit ~2–4× above full-field thresholds
    /// (spatial summation). 1.0 = full-field viewing.
    pub small_target_factor: f64,
}

impl Default for FlickerMeter {
    fn default() -> Self {
        Self {
            peak_nits: 400.0,
            phantom: PhantomModel::default(),
            pattern_cell_px: 4.0,
            saccade_weight: 0.35,
            small_target_factor: 2.8,
        }
    }
}

/// The meter's verdict on one waveform.
#[derive(Debug, Clone, PartialEq)]
pub struct FlickerAssessment {
    /// Mean luminance of the waveform, cd/m².
    pub mean_nits: f64,
    /// Flicker-fusion visibility: max component modulation over threshold
    /// (< 1 = below threshold).
    pub fusion_visibility: f64,
    /// Frequency (Hz) of the most visible component.
    pub dominant_visible_hz: f64,
    /// Phantom-array visibility (already weighted by saccade time).
    pub phantom_visibility: f64,
    /// Combined visibility used for scoring.
    pub visibility: f64,
}

impl FlickerAssessment {
    /// Maps combined visibility onto the paper's 0–4 flicker scale.
    ///
    /// `v ≤ 1` is below threshold → 0 ("no difference at all"). Each
    /// further ~2.2× of suprathreshold visibility adds about one category,
    /// saturating at 4 ("strong flicker or artifact") — a standard
    /// log-compressed suprathreshold magnitude mapping.
    pub fn score(&self) -> f64 {
        if self.visibility <= 1.0 {
            0.0
        } else {
            (self.visibility.ln() / 2.2f64.ln()).min(4.0)
        }
    }
}

impl FlickerMeter {
    /// Assesses a pixel's normalized linear-light waveform sampled at
    /// `fs` Hz.
    ///
    /// * `envelope_step_contrast` — the largest frame-to-frame luminance
    ///   contrast step of the pattern envelope (0 when the data pattern is
    ///   static or smoothly ramped); callers extract it from the sender's
    ///   envelope or from per-frame means.
    ///
    /// # Panics
    /// Panics on an empty waveform or nonpositive sample rate.
    pub fn assess(
        &self,
        waveform: &[f64],
        fs: f64,
        envelope_step_contrast: f64,
    ) -> FlickerAssessment {
        assert!(!waveform.is_empty(), "waveform must be nonempty");
        assert!(fs > 0.0, "sample rate must be positive");
        let mean_light = waveform.iter().sum::<f64>() / waveform.len() as f64;
        let mean_nits = mean_light * self.peak_nits;

        // Fusion path: per-component visibility from the spectrum. The
        // mean is removed first: the FFT zero-pads to a power of two, and
        // a DC pedestal would otherwise leak into the low bins as phantom
        // slow flicker.
        let ac: Vec<f64> = waveform.iter().map(|v| v - mean_light).collect();
        let spec = Spectrum::of(&ac, fs);
        let mut fusion = 0.0f64;
        let mut dominant = 0.0f64;
        let mut hf_contrast = 0.0f64;
        for (i, (&f, &mag)) in spec.freqs.iter().zip(&spec.mags).enumerate() {
            if i == 0 || f <= 0.0 {
                continue;
            }
            // One-sided spectrum: component amplitude ≈ 2·mag (except at
            // Nyquist, where the factor is 1; the overestimate there is
            // conservative).
            let amplitude = 2.0 * mag;
            let modulation = if mean_light > 1e-9 {
                (amplitude / mean_light).min(1.0)
            } else {
                0.0
            };
            let v = component_visibility(f, modulation, mean_nits) / self.small_target_factor;
            if v > fusion {
                fusion = v;
                dominant = f;
            }
            if f >= 50.0 {
                hf_contrast = hf_contrast.max(modulation);
            }
        }

        // Phantom path: above-CFF alternation + envelope steps, active only
        // during saccades. The retinal trail is seen against the adapted
        // field, so contrast is luminance-adapted (Weber behaviour is only
        // reached for bright fields — saccadic suppression raises the
        // semi-saturation level to ~300 cd/m²).
        let adaptation = mean_nits / (mean_nits + 300.0);
        let phantom = self.saccade_weight
            * self.phantom.visibility(
                hf_contrast * adaptation,
                self.pattern_cell_px,
                envelope_step_contrast * adaptation,
                0.5,
            );

        FlickerAssessment {
            mean_nits,
            fusion_visibility: fusion,
            dominant_visible_hz: dominant,
            phantom_visibility: phantom,
            visibility: fusion.max(phantom),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meter() -> FlickerMeter {
        FlickerMeter::default()
    }

    /// ±contrast square alternation at `f` Hz around `level`, sampled at fs.
    fn alternation(level: f64, contrast: f64, f: f64, fs: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let phase = (i as f64 * f / fs) as u64;
                if phase.is_multiple_of(2) {
                    level * (1.0 + contrast)
                } else {
                    level * (1.0 - contrast)
                }
            })
            .collect()
    }

    #[test]
    fn constant_light_scores_zero() {
        let w = vec![0.5; 512];
        let a = meter().assess(&w, 960.0, 0.0);
        assert_eq!(a.score(), 0.0);
        assert!(a.fusion_visibility < 1e-9);
    }

    #[test]
    fn sixty_hz_alternation_fuses() {
        // The InFrame carrier at realistic contrast: invisible in steady
        // viewing.
        let w: Vec<f64> = (0..1024)
            .map(|i| if i % 8 < 4 { 0.30 } else { 0.24 })
            .collect(); // 60 Hz at 480 Hz sampling
        let a = meter().assess(&w, 480.0, 0.0);
        assert!(a.fusion_visibility < 1.0, "fusion {}", a.fusion_visibility);
    }

    #[test]
    fn twenty_hz_alternation_is_seen() {
        let w = alternation(0.3, 0.10, 40.0, 960.0, 2048); // 20 Hz square
        let a = meter().assess(&w, 960.0, 0.0);
        assert!(a.visibility > 1.0, "visibility {}", a.visibility);
        assert!(a.score() > 0.0);
    }

    #[test]
    fn score_grows_with_contrast() {
        let lo = meter().assess(&alternation(0.3, 0.05, 20.0, 960.0, 2048), 960.0, 0.0);
        let hi = meter().assess(&alternation(0.3, 0.30, 20.0, 960.0, 2048), 960.0, 0.0);
        assert!(hi.score() >= lo.score());
        assert!(hi.visibility > lo.visibility);
    }

    #[test]
    fn score_saturates_at_four() {
        let w = alternation(0.5, 1.0, 16.0, 960.0, 2048); // brutal flicker
        let a = meter().assess(&w, 960.0, 0.5);
        assert!(a.score() <= 4.0);
        assert!(a.score() > 3.0);
    }

    #[test]
    fn envelope_steps_raise_phantom_term() {
        let w: Vec<f64> = (0..1024)
            .map(|i| if i % 8 < 4 { 0.32 } else { 0.24 })
            .collect();
        let calm = meter().assess(&w, 480.0, 0.0);
        let abrupt = meter().assess(&w, 480.0, 0.25);
        assert!(abrupt.phantom_visibility > calm.phantom_visibility);
        assert!(abrupt.visibility >= calm.visibility);
    }

    #[test]
    fn assessment_reports_dominant_frequency() {
        let w = alternation(0.3, 0.2, 24.0, 960.0, 2048); // 12 Hz square
        let a = meter().assess(&w, 960.0, 0.0);
        // Fundamental at 12 Hz should dominate visibility.
        assert!(
            (a.dominant_visible_hz - 12.0).abs() < 2.0,
            "{}",
            a.dominant_visible_hz
        );
    }
}
