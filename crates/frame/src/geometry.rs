//! Planar geometry: homographies.
//!
//! The camera simulator views the screen from an arbitrary pose; the mapping
//! from screen plane to sensor plane is a homography. The receiver inverts
//! the (known or estimated) homography to register captured frames before
//! block decoding, mirroring the registration step every screen-camera
//! system performs.

use crate::FrameError;

/// A 3×3 projective transform acting on 2-D points (row-major).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Homography {
    /// Row-major 3×3 matrix entries.
    pub m: [[f64; 3]; 3],
}

impl Homography {
    /// The identity transform.
    pub fn identity() -> Self {
        Self {
            m: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        }
    }

    /// Pure translation.
    pub fn translation(tx: f64, ty: f64) -> Self {
        Self {
            m: [[1.0, 0.0, tx], [0.0, 1.0, ty], [0.0, 0.0, 1.0]],
        }
    }

    /// Uniform or anisotropic scaling about the origin.
    pub fn scale(sx: f64, sy: f64) -> Self {
        Self {
            m: [[sx, 0.0, 0.0], [0.0, sy, 0.0], [0.0, 0.0, 1.0]],
        }
    }

    /// Matrix product `self ∘ other` (apply `other` first).
    pub fn compose(&self, other: &Homography) -> Homography {
        let mut out = [[0.0f64; 3]; 3];
        for (i, row) in out.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = (0..3).map(|k| self.m[i][k] * other.m[k][j]).sum();
            }
        }
        Homography { m: out }
    }

    /// Applies the transform to a point, performing the projective divide.
    ///
    /// Returns `None` if the point maps to infinity (w ≈ 0).
    pub fn apply(&self, x: f64, y: f64) -> Option<(f64, f64)> {
        let xp = self.m[0][0] * x + self.m[0][1] * y + self.m[0][2];
        let yp = self.m[1][0] * x + self.m[1][1] * y + self.m[1][2];
        let w = self.m[2][0] * x + self.m[2][1] * y + self.m[2][2];
        if w.abs() < 1e-12 {
            None
        } else {
            Some((xp / w, yp / w))
        }
    }

    /// Inverse transform via the adjugate matrix.
    ///
    /// # Errors
    /// Returns [`FrameError::DegenerateTransform`] if the matrix is singular.
    pub fn inverse(&self) -> Result<Homography, FrameError> {
        let m = &self.m;
        let det = m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]);
        if det.abs() < 1e-14 {
            return Err(FrameError::DegenerateTransform("singular homography"));
        }
        let inv_det = 1.0 / det;
        let adj = [
            [
                m[1][1] * m[2][2] - m[1][2] * m[2][1],
                m[0][2] * m[2][1] - m[0][1] * m[2][2],
                m[0][1] * m[1][2] - m[0][2] * m[1][1],
            ],
            [
                m[1][2] * m[2][0] - m[1][0] * m[2][2],
                m[0][0] * m[2][2] - m[0][2] * m[2][0],
                m[0][2] * m[1][0] - m[0][0] * m[1][2],
            ],
            [
                m[1][0] * m[2][1] - m[1][1] * m[2][0],
                m[0][1] * m[2][0] - m[0][0] * m[2][1],
                m[0][0] * m[1][1] - m[0][1] * m[1][0],
            ],
        ];
        let mut out = [[0.0f64; 3]; 3];
        for i in 0..3 {
            for j in 0..3 {
                out[i][j] = adj[i][j] * inv_det;
            }
        }
        Ok(Homography { m: out })
    }

    /// Computes the homography mapping the unit square `(0,0) (1,0) (1,1)
    /// (0,1)` to four destination points (in that order).
    ///
    /// This is the classical projective mapping construction; composing two
    /// of these yields a general 4-point correspondence.
    ///
    /// # Errors
    /// Returns [`FrameError::DegenerateTransform`] if the quadrilateral is
    /// degenerate (three collinear points).
    pub fn unit_square_to_quad(q: [(f64, f64); 4]) -> Result<Homography, FrameError> {
        let (x0, y0) = q[0];
        let (x1, y1) = q[1];
        let (x2, y2) = q[2];
        let (x3, y3) = q[3];
        let dx1 = x1 - x2;
        let dx2 = x3 - x2;
        let dy1 = y1 - y2;
        let dy2 = y3 - y2;
        let sx = x0 - x1 + x2 - x3;
        let sy = y0 - y1 + y2 - y3;
        let den = dx1 * dy2 - dx2 * dy1;
        if den.abs() < 1e-12 {
            return Err(FrameError::DegenerateTransform("collinear quad points"));
        }
        let g = (sx * dy2 - sy * dx2) / den;
        let h = (dx1 * sy - dy1 * sx) / den;
        let a = x1 - x0 + g * x1;
        let b = x3 - x0 + h * x3;
        let c = x0;
        let d = y1 - y0 + g * y1;
        let e = y3 - y0 + h * y3;
        let f = y0;
        Ok(Homography {
            m: [[a, b, c], [d, e, f], [g, h, 1.0]],
        })
    }

    /// Computes the homography taking quadrilateral `src` to quadrilateral
    /// `dst` (four corresponding corners each).
    ///
    /// # Errors
    /// Returns [`FrameError::DegenerateTransform`] for degenerate inputs.
    pub fn quad_to_quad(
        src: [(f64, f64); 4],
        dst: [(f64, f64); 4],
    ) -> Result<Homography, FrameError> {
        let to_src = Homography::unit_square_to_quad(src)?;
        let to_dst = Homography::unit_square_to_quad(dst)?;
        Ok(to_dst.compose(&to_src.inverse()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identity_maps_points_to_themselves() {
        let h = Homography::identity();
        assert_eq!(h.apply(3.5, -2.0), Some((3.5, -2.0)));
    }

    #[test]
    fn translation_and_inverse() {
        let h = Homography::translation(5.0, -3.0);
        let (x, y) = h.apply(1.0, 1.0).unwrap();
        assert_eq!((x, y), (6.0, -2.0));
        let hi = h.inverse().unwrap();
        let (x, y) = hi.apply(6.0, -2.0).unwrap();
        assert!((x - 1.0).abs() < 1e-12 && (y - 1.0).abs() < 1e-12);
    }

    #[test]
    fn compose_applies_right_operand_first() {
        let t = Homography::translation(1.0, 0.0);
        let s = Homography::scale(2.0, 2.0);
        // scale ∘ translate: translate first, then scale.
        let st = s.compose(&t);
        assert_eq!(st.apply(0.0, 0.0), Some((2.0, 0.0)));
        // translate ∘ scale: scale first, then translate.
        let ts = t.compose(&s);
        assert_eq!(ts.apply(0.0, 0.0), Some((1.0, 0.0)));
    }

    #[test]
    fn unit_square_to_axis_aligned_rect() {
        let h = Homography::unit_square_to_quad([
            (10.0, 20.0),
            (30.0, 20.0),
            (30.0, 60.0),
            (10.0, 60.0),
        ])
        .unwrap();
        let (x, y) = h.apply(0.5, 0.5).unwrap();
        assert!((x - 20.0).abs() < 1e-9);
        assert!((y - 40.0).abs() < 1e-9);
    }

    #[test]
    fn quad_to_quad_maps_corners_exactly() {
        let src = [(0.0, 0.0), (100.0, 0.0), (100.0, 50.0), (0.0, 50.0)];
        let dst = [(3.0, 7.0), (90.0, 12.0), (95.0, 55.0), (-2.0, 48.0)];
        let h = Homography::quad_to_quad(src, dst).unwrap();
        for i in 0..4 {
            let (x, y) = h.apply(src[i].0, src[i].1).unwrap();
            assert!((x - dst[i].0).abs() < 1e-6, "corner {i} x");
            assert!((y - dst[i].1).abs() < 1e-6, "corner {i} y");
        }
    }

    #[test]
    fn degenerate_quad_is_rejected() {
        // All four points on one line.
        let r = Homography::unit_square_to_quad([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]);
        assert!(r.is_err());
    }

    proptest! {
        #[test]
        fn inverse_roundtrips_points(
            tx in -20.0f64..20.0, ty in -20.0f64..20.0,
            th in -1.0f64..1.0, s in 0.5f64..2.0,
            px in -50.0f64..50.0, py in -50.0f64..50.0,
        ) {
            let (sin, cos) = th.sin_cos();
            let rotation = Homography {
                m: [[cos, -sin, 0.0], [sin, cos, 0.0], [0.0, 0.0, 1.0]],
            };
            let h = Homography::translation(tx, ty)
                .compose(&rotation)
                .compose(&Homography::scale(s, s));
            let hi = h.inverse().unwrap();
            let (qx, qy) = h.apply(px, py).unwrap();
            let (rx, ry) = hi.apply(qx, qy).unwrap();
            prop_assert!((rx - px).abs() < 1e-6);
            prop_assert!((ry - py).abs() < 1e-6);
        }
    }
}
