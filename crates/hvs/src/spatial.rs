//! Viewing geometry: from screen size and distance to visual angles.
//!
//! The paper chooses the super-Pixel size by a perceptual argument:
//! "a properly selected p, which approximates the human eye resolution,
//! can lead to minimal Phantom Array effect. For example, p = 4 is deemed
//! a good choice for a screen with resolution 1920×1080 at typical viewing
//! distance (1.2× the diagonal of the screen)." This module does that
//! arithmetic — pixels per degree, cells per degree, and the acuity
//! comparison — so the claim is checked by a test instead of taken on
//! faith.

/// A flat screen watched from a distance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ViewingGeometry {
    /// Horizontal resolution, pixels.
    pub res_x: usize,
    /// Vertical resolution, pixels.
    pub res_y: usize,
    /// Physical screen width in meters.
    pub width_m: f64,
    /// Viewing distance in meters.
    pub distance_m: f64,
}

impl ViewingGeometry {
    /// The paper's setup: a 24-inch 16:9 panel at 1.2× its diagonal.
    pub fn paper_setup() -> Self {
        let diagonal_m = 24.0 * 0.0254;
        // 16:9 panel: width = diag · 16/√(16²+9²).
        let width_m = diagonal_m * 16.0 / (16.0f64 * 16.0 + 9.0 * 9.0).sqrt();
        Self {
            res_x: 1920,
            res_y: 1080,
            width_m,
            distance_m: 1.2 * diagonal_m,
        }
    }

    /// Physical size of one pixel, meters.
    pub fn pixel_pitch_m(&self) -> f64 {
        self.width_m / self.res_x as f64
    }

    /// Visual angle subtended by `n` pixels, in degrees.
    pub fn pixels_to_degrees(&self, n: f64) -> f64 {
        let size = n * self.pixel_pitch_m();
        2.0 * (size / (2.0 * self.distance_m)).atan().to_degrees()
    }

    /// Pixels per degree of visual angle at the screen centre.
    pub fn pixels_per_degree(&self) -> f64 {
        1.0 / self.pixels_to_degrees(1.0)
    }

    /// Visual angle of one chessboard *cycle* (two cells of `p` pixels),
    /// in degrees — the spatial period the eye would need to resolve to
    /// see the pattern's structure.
    pub fn pattern_cycle_degrees(&self, p: usize) -> f64 {
        self.pixels_to_degrees(2.0 * p as f64)
    }

    /// Spatial frequency of the chessboard in cycles per degree.
    pub fn pattern_cpd(&self, p: usize) -> f64 {
        1.0 / self.pattern_cycle_degrees(p)
    }
}

/// Upper end of human grating acuity under good conditions, cycles per
/// degree (20/20 letter acuity corresponds to 30 cpd; gratings are
/// resolvable to ~50–60 cpd for high-contrast stimuli).
pub const ACUITY_LIMIT_CPD: f64 = 50.0;

/// The highest spatial frequency at which *flicker* (temporal modulation)
/// is effectively detected; temporal sensitivity collapses well below the
/// static acuity limit (window-of-visibility corner, ~8–15 cpd for
/// high-rate flicker).
pub const FLICKER_ACUITY_CPD: f64 = 10.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_setup_dimensions_are_sane() {
        let g = ViewingGeometry::paper_setup();
        // 24" diagonal → ~53 cm wide; 1.2× diagonal ≈ 73 cm away.
        assert!((g.width_m - 0.531).abs() < 0.01, "{}", g.width_m);
        assert!((g.distance_m - 0.7315).abs() < 0.01, "{}", g.distance_m);
    }

    #[test]
    fn pixels_per_degree_is_tens() {
        let g = ViewingGeometry::paper_setup();
        let ppd = g.pixels_per_degree();
        // ~46 px/degree for this setup.
        assert!((40.0..55.0).contains(&ppd), "ppd {ppd}");
    }

    #[test]
    fn paper_p4_sits_at_the_flicker_acuity_edge() {
        // The paper's claim: p = 4 "approximates the human eye resolution".
        // At p = 4 the chessboard cycle is ~5.8 cpd — *below* the static
        // acuity limit (you can see the pattern if it is static and high
        // contrast) but near the flicker-acuity corner, so its 60 Hz
        // alternation is spatially unresolvable in normal viewing.
        let g = ViewingGeometry::paper_setup();
        let cpd = g.pattern_cpd(4);
        assert!((4.0..9.0).contains(&cpd), "p=4 cpd {cpd}");
        assert!(cpd < FLICKER_ACUITY_CPD);
        // p = 1 would put the pattern beyond even static acuity × safety.
        assert!(g.pattern_cpd(1) > FLICKER_ACUITY_CPD);
    }

    #[test]
    fn angles_scale_linearly_for_small_sizes() {
        let g = ViewingGeometry::paper_setup();
        let one = g.pixels_to_degrees(1.0);
        let ten = g.pixels_to_degrees(10.0);
        assert!((ten / one - 10.0).abs() < 0.01);
    }

    #[test]
    fn closer_viewing_magnifies_the_pattern() {
        let far = ViewingGeometry::paper_setup();
        let near = ViewingGeometry {
            distance_m: far.distance_m / 2.0,
            ..far
        };
        assert!(near.pattern_cycle_degrees(4) > far.pattern_cycle_degrees(4));
        assert!(near.pattern_cpd(4) < far.pattern_cpd(4));
    }

    #[test]
    fn block_subtends_about_a_degree() {
        // One 36-pixel Block ≈ 0.8° — the basis for the small-target
        // threshold elevation in the flicker meter.
        let g = ViewingGeometry::paper_setup();
        let block_deg = g.pixels_to_degrees(36.0);
        assert!((0.5..1.2).contains(&block_deg), "block {block_deg}°");
    }
}
