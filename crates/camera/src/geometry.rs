//! Display→sensor capture geometry.
//!
//! At the paper's 50 cm desk distance the screen fills most of the frame
//! and the view is nearly fronto-parallel; [`CaptureGeometry::Fronto`]
//! models that with an exact area-average resample. Off-axis captures use
//! a full homography. The receiver is assumed registered (it knows the
//! geometry), matching the paper's fixed lab setup.

use inframe_frame::geometry::{warp_inverse, Homography};
use inframe_frame::resample::downsample_area;
use inframe_frame::Plane;

/// How the display plane projects onto the sensor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CaptureGeometry {
    /// Fronto-parallel, screen exactly filling the sensor: a pure
    /// anisotropic scale (display resolution → sensor resolution).
    Fronto,
    /// General projective view; the homography maps display pixel
    /// coordinates to sensor pixel coordinates.
    Projective(Homography),
}

impl CaptureGeometry {
    /// A slightly off-axis handheld pose: the screen corners land inside
    /// the sensor with a mild keystone. `wobble` in `[0, 0.1]` controls
    /// the keystone strength.
    ///
    /// # Panics
    /// Panics if the resulting quad degenerates (cannot happen for
    /// `wobble ≤ 0.1`).
    pub fn handheld(
        display_w: usize,
        display_h: usize,
        sensor_w: usize,
        sensor_h: usize,
        wobble: f64,
    ) -> Self {
        let (dw, dh) = (display_w as f64, display_h as f64);
        let (sw, sh) = (sensor_w as f64, sensor_h as f64);
        let in_x = sw * (0.04 + wobble);
        let in_y = sh * (0.04 + wobble * 0.5);
        let src = [(0.0, 0.0), (dw, 0.0), (dw, dh), (0.0, dh)];
        let dst = [
            (in_x, in_y * 0.8),
            (sw - in_x * 0.6, in_y),
            (sw - in_x, sh - in_y * 0.7),
            (in_x * 0.7, sh - in_y),
        ];
        let h = Homography::quad_to_quad(src, dst)
            .expect("handheld quad is non-degenerate by construction");
        CaptureGeometry::Projective(h)
    }

    /// Projects an integrated display-space light plane to sensor space.
    pub fn project(
        &self,
        display_plane: &Plane<f32>,
        sensor_w: usize,
        sensor_h: usize,
    ) -> Plane<f32> {
        match self {
            CaptureGeometry::Fronto => downsample_area(display_plane, sensor_w, sensor_h),
            CaptureGeometry::Projective(h) => {
                let inv = h
                    .inverse()
                    .expect("projective capture homography must be invertible");
                warp_inverse(display_plane, &inv, sensor_w, sensor_h, 0.0)
            }
        }
    }

    /// The display→sensor homography (exact for `Projective`, the implied
    /// scale for `Fronto`). Receivers invert this for registration.
    pub fn display_to_sensor(
        &self,
        display_w: usize,
        display_h: usize,
        sensor_w: usize,
        sensor_h: usize,
    ) -> Homography {
        match self {
            CaptureGeometry::Fronto => Homography::scale(
                sensor_w as f64 / display_w as f64,
                sensor_h as f64 / display_h as f64,
            ),
            CaptureGeometry::Projective(h) => *h,
        }
    }

    /// For fronto capture the display row band `[y0, y1)` lands in sensor
    /// rows `[y0·s, y1·s)`; used by the rolling-shutter band mapper.
    pub fn is_fronto(&self) -> bool {
        matches!(self, CaptureGeometry::Fronto)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fronto_projects_by_area_average() {
        let display = Plane::from_fn(8, 8, |x, _| (x * 10) as f32);
        let geo = CaptureGeometry::Fronto;
        let sensor = geo.project(&display, 4, 4);
        assert_eq!(sensor.shape(), (4, 4));
        // 2x downsample: first sensor pixel = mean of columns 0..2.
        assert!((sensor.get(0, 0) - 5.0).abs() < 1e-4);
    }

    #[test]
    fn fronto_homography_is_pure_scale() {
        let geo = CaptureGeometry::Fronto;
        let h = geo.display_to_sensor(1920, 1080, 1280, 720);
        let (x, y) = h.apply(1920.0, 1080.0).unwrap();
        assert!((x - 1280.0).abs() < 1e-9);
        assert!((y - 720.0).abs() < 1e-9);
    }

    #[test]
    fn handheld_maps_screen_inside_sensor() {
        let geo = CaptureGeometry::handheld(1920, 1080, 1280, 720, 0.05);
        let h = geo.display_to_sensor(1920, 1080, 1280, 720);
        for corner in [(0.0, 0.0), (1920.0, 0.0), (1920.0, 1080.0), (0.0, 1080.0)] {
            let (x, y) = h.apply(corner.0, corner.1).unwrap();
            assert!(x > 0.0 && x < 1280.0, "corner {corner:?} -> x={x}");
            assert!(y > 0.0 && y < 720.0, "corner {corner:?} -> y={y}");
        }
    }

    #[test]
    fn handheld_projection_keeps_center_bright() {
        let display = Plane::filled(64, 36, 1.0);
        let geo = CaptureGeometry::handheld(64, 36, 64, 36, 0.05);
        let sensor = geo.project(&display, 64, 36);
        // Screen center projected somewhere bright; border filled dark.
        assert!(sensor.get(32, 18) > 0.9);
        assert!(sensor.get(0, 0) < 0.5);
    }

    #[test]
    fn projective_roundtrip_identityish() {
        // A pure scale homography must agree closely with fronto downsample
        // on a smooth image.
        let display = Plane::from_fn(32, 32, |x, y| (x + y) as f32);
        let h = Homography::scale(0.5, 0.5);
        let a = CaptureGeometry::Projective(h).project(&display, 16, 16);
        let b = CaptureGeometry::Fronto.project(&display, 16, 16);
        let diff: f32 = a
            .samples()
            .iter()
            .zip(b.samples())
            .map(|(x, y)| (x - y).abs())
            .sum::<f32>()
            / a.len() as f32;
        assert!(diff < 1.0, "mean diff {diff}");
    }
}
