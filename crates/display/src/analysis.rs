//! Analysis helpers over emitted-light sequences.
//!
//! These extract per-pixel temporal waveforms from a sequence of
//! [`FrameEmission`]s — the signals the HVS model filters (Figure 5/6) and
//! the spectra that justify the complementary-frame design.

use crate::emission::FrameEmission;

/// Per-refresh mean light of one pixel — one sample per emission, the
/// signal a full-frame-exposure camera at the refresh rate would capture.
pub fn per_frame_means(emissions: &[FrameEmission], x: usize, y: usize) -> Vec<f64> {
    emissions
        .iter()
        .map(|e| e.average_pixel(x, y, 0.0, e.duration) as f64)
        .collect()
}

/// Mean light of one pixel over the entire sequence — what an ideal
/// integrator (or the flicker-fused eye, to first order) perceives.
pub fn long_term_mean(emissions: &[FrameEmission], x: usize, y: usize) -> f64 {
    let total: f64 = emissions
        .iter()
        .map(|e| e.average_pixel(x, y, 0.0, e.duration) as f64 * e.duration)
        .sum();
    let dur: f64 = emissions.iter().map(|e| e.duration).sum();
    total / dur
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DisplayConfig;
    use crate::stream::DisplayStream;
    use inframe_frame::Plane;

    fn alternating_emissions(n: usize, hi: f32, lo: f32) -> Vec<FrameEmission> {
        let mut s = DisplayStream::new(DisplayConfig::ideal_120hz());
        (0..n)
            .map(|i| {
                let v = if i % 2 == 0 { hi } else { lo };
                s.present(&Plane::filled(1, 1, v))
            })
            .collect()
    }

    #[test]
    fn per_frame_means_alternate() {
        let em = alternating_emissions(6, 147.0, 107.0);
        let m = per_frame_means(&em, 0, 0);
        assert_eq!(m.len(), 6);
        assert!(m[0] > m[1]);
        assert!((m[0] - m[2]).abs() < 1e-9);
    }

    #[test]
    fn long_term_mean_is_average_of_complementary_pair() {
        let em = alternating_emissions(10, 147.0, 107.0);
        let mean = long_term_mean(&em, 0, 0);
        let hi = DisplayConfig::ideal_120hz().code_to_light(147.0) as f64;
        let lo = DisplayConfig::ideal_120hz().code_to_light(107.0) as f64;
        assert!((mean - (hi + lo) / 2.0).abs() < 1e-9);
    }
}
