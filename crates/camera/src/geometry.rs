//! Display→sensor capture geometry.
//!
//! At the paper's 50 cm desk distance the screen fills most of the frame
//! and the view is nearly fronto-parallel; [`CaptureGeometry::Fronto`]
//! models that with an exact area-average resample. Off-axis captures use
//! a full homography. The receiver is assumed registered (it knows the
//! geometry), matching the paper's fixed lab setup.

use inframe_frame::geometry::Homography;
use inframe_frame::resample::downsample_area;
use inframe_frame::Plane;
use std::ops::Range;

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
        match self.band_to_display(0) {
            None => downsample_area(display_plane, sensor_w, sensor_h),
            Some(inv) => {
                let (display_w, display_h) = display_plane.shape();
                let mut sensor = vec![0.0; sensor_w * sensor_h];
                let display = display_plane.samples();
                warp_rows_into(
                    display,
                    display_w,
                    0,
                    display_h,
                    &inv,
                    sensor_w,
                    &mut sensor,
                );
                Plane::from_vec(sensor_w, sensor_h, sensor).expect("sensor is nonempty")
            }
        }
    }

    /// The sensor→display map of the rolling-shutter band whose first row
    /// is sensor row `first_row`, in band pixel coordinates (band row `y`
    /// is sensor row `first_row + y`); `None` for `Fronto`.
    pub(crate) fn band_to_display(&self, first_row: usize) -> Option<Homography> {
        match self {
            CaptureGeometry::Fronto => None,
            CaptureGeometry::Projective(h) => Some(
                h.inverse()
                    .expect("projective capture homography must be invertible")
                    .compose(&Homography::translation(0.0, first_row as f64)),
            ),
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

/// The display rows that [`warp_rows_into`] reads when it warps an
/// `out_w × out_h` band through `inv` from a `display_h`-row display:
/// the row span of the band's pixel centres mapped into the display, plus
/// the bilinear neighbour row and a row of slack for rounding on each
/// side, clamped to the display (never empty).
///
/// The band's pixel centres span a rectangle; while `inv`'s `w` keeps one
/// sign over it, its image is the convex quad of the corner images, so
/// the corners bound every sample. Otherwise the whole display is needed.
pub(crate) fn sampled_display_rows(
    inv: &Homography,
    out_w: usize,
    out_h: usize,
    display_h: usize,
) -> Range<usize> {
    let (x1, y1) = (out_w as f64 - 0.5, out_h as f64 - 0.5);
    let corners = [(0.5, 0.5), (x1, 0.5), (0.5, y1), (x1, y1)];
    let w = |(x, y): (f64, f64)| inv.m[2][0] * x + inv.m[2][1] * y + inv.m[2][2];
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for c in corners {
        match inv.apply(c.0, c.1) {
            Some((_, sy)) if w(c).signum() == w(corners[0]).signum() => {
                lo = lo.min(sy - 0.5);
                hi = hi.max(sy - 0.5);
            }
            _ => return 0..display_h,
        }
    }
    let last = (display_h - 1) as f64;
    let start = (lo.floor() - 1.0).clamp(0.0, last) as usize;
    let end = (hi.floor() + 3.0).clamp(start as f64 + 1.0, display_h as f64) as usize;
    start..end
}

/// Warps an `out_w`-wide band through `inv` (band pixel → display pixel)
/// into `out`, from `src`: display rows `src_y0..` of a `src_w`-wide,
/// `display_h`-row display. A sample more than a pixel outside the
/// display reads 0 (the dark surround); the rest interpolate bilinearly
/// with the display's replicate border. `src` must hold the rows
/// [`sampled_display_rows`] names, and then the result does not depend
/// on which other rows it holds: the sample coordinate is shifted by the
/// whole-row offset `src_y0`, which is exact in `f64`.
pub(crate) fn warp_rows_into(
    src: &[f32],
    src_w: usize,
    src_y0: usize,
    display_h: usize,
    inv: &Homography,
    out_w: usize,
    out: &mut [f32],
) {
    let src_h = src.len() / src_w;
    let (w, h) = (src_w as f64, display_h as f64);
    let get = |x: isize, y: isize| {
        let x = x.clamp(0, src_w as isize - 1) as usize;
        let y = y.clamp(0, src_h as isize - 1) as usize;
        src[y * src_w + x]
    };
    for (y, row) in out.chunks_exact_mut(out_w).enumerate() {
        for (x, o) in row.iter_mut().enumerate() {
            *o = match inv.apply(x as f64 + 0.5, y as f64 + 0.5) {
                Some((sx, sy)) => {
                    let (sx, sy) = (sx - 0.5, sy - 0.5);
                    if sx < -1.0 || sy < -1.0 || sx > w || sy > h {
                        0.0
                    } else {
                        let sy = sy - src_y0 as f64;
                        let (x0, y0) = (sx.floor(), sy.floor());
                        let (fx, fy) = ((sx - x0) as f32, (sy - y0) as f32);
                        let (xi, yi) = (x0 as isize, y0 as isize);
                        let (v00, v10) = (get(xi, yi), get(xi + 1, yi));
                        let (v01, v11) = (get(xi, yi + 1), get(xi + 1, yi + 1));
                        let top = v00 + fx * (v10 - v00);
                        let bot = v01 + fx * (v11 - v01);
                        top + fy * (bot - top)
                    }
                }
                None => 0.0,
            };
        }
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
    fn band_warps_are_those_rows_of_the_whole_projection() {
        let display = Plane::from_fn(64, 36, |x, y| (x * 3 + y * 7) as f32);
        let geo = CaptureGeometry::handheld(64, 36, 48, 30, 0.05);
        let whole = geo.project(&display, 48, 30);
        for rows in [0..30, 0..4, 11..19, 29..30] {
            let inv = geo.band_to_display(rows.start).unwrap();
            let mut band = vec![0.0; 48 * rows.len()];
            warp_rows_into(display.samples(), 64, 0, 36, &inv, 48, &mut band);
            let want = whole.crop(0, rows.start, 48, rows.len()).unwrap();
            let diff = band
                .iter()
                .zip(want.samples())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            assert!(diff < 1e-3, "rows {rows:?}: differs by {diff}");
        }
    }

    /// Warps a whole `src` plane through `inv` onto an `out_w × out_h` band.
    fn warp(src: &Plane<f32>, inv: &Homography, out_w: usize, out_h: usize) -> Vec<f32> {
        let mut out = vec![f32::NAN; out_w * out_h];
        let (w, h) = src.shape();
        warp_rows_into(src.samples(), w, 0, h, inv, out_w, &mut out);
        out
    }

    #[test]
    fn identity_warp_preserves_image() {
        let p = Plane::from_fn(8, 6, |x, y| (x * 10 + y) as f32);
        assert_eq!(warp(&p, &Homography::identity(), 8, 6), p.samples());
    }

    #[test]
    fn warp_interpolates_bilinearly() {
        let p = Plane::from_vec(2, 2, vec![0.0f32, 10.0, 20.0, 30.0]).unwrap();
        let half = |dx, dy| warp(&p, &Homography::translation(dx, dy), 1, 1)[0];
        assert!((half(0.5, 0.0) - 5.0).abs() < 1e-5);
        assert!((half(0.0, 0.5) - 10.0).abs() < 1e-5);
        assert!((half(0.5, 0.5) - 15.0).abs() < 1e-5);
    }

    #[test]
    fn samples_off_the_display_read_dark() {
        let p = Plane::filled(4, 4, 100.0);
        let out = warp(&p, &Homography::translation(100.0, 100.0), 4, 4);
        assert!(out.iter().all(|&v| v == 0.0));
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
