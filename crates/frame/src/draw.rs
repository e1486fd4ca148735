//! Drawing helpers used by the synthetic video generators and data-frame
//! construction: checkerboards and discs.

use crate::plane::Plane;

/// Writes a chessboard pattern over the rectangle `[x, x+w) × [y, y+h)`:
/// cells of `cell × cell` pixels alternate between `a` (when the cell parity
/// `(cx + cy)` is even) and `b` (odd).
///
/// With `a = 0` and `b = δ` and `cell = p` this is exactly the paper's
/// chessboard Block pattern (§3.3): "setting the Pixel at position (i, j) to
/// δ, if i + j is odd; or 0, otherwise".
#[allow(clippy::too_many_arguments)]
pub fn chessboard(
    p: &mut Plane<f32>,
    x: usize,
    y: usize,
    w: usize,
    h: usize,
    cell: usize,
    a: f32,
    b: f32,
) {
    assert!(cell > 0, "cell size must be nonzero");
    let x1 = (x + w).min(p.width());
    let y1 = (y + h).min(p.height());
    for yy in y.min(p.height())..y1 {
        for xx in x.min(p.width())..x1 {
            let cx = (xx - x) / cell;
            let cy = (yy - y) / cell;
            let v = if (cx + cy).is_multiple_of(2) { a } else { b };
            p.put(xx, yy, v);
        }
    }
}

/// Draws a filled disc centered at `(cx, cy)` with radius `r` (anti-aliased
/// over a one-pixel rim), used by the sunrise clip for the sun.
pub fn filled_disc(p: &mut Plane<f32>, cx: f64, cy: f64, r: f64, value: f32) {
    if r <= 0.0 {
        return;
    }
    let x0 = ((cx - r).floor().max(0.0)) as usize;
    let y0 = ((cy - r).floor().max(0.0)) as usize;
    let x1 = ((cx + r).ceil() as usize + 1).min(p.width());
    let y1 = ((cy + r).ceil() as usize + 1).min(p.height());
    for y in y0..y1 {
        for x in x0..x1 {
            let dx = x as f64 + 0.5 - cx;
            let dy = y as f64 + 0.5 - cy;
            let d = (dx * dx + dy * dy).sqrt();
            if d <= r - 0.5 {
                p.put(x, y, value);
            } else if d < r + 0.5 {
                // One-pixel anti-aliased rim: linear coverage falloff.
                let cover = (r + 0.5 - d) as f32;
                let bg = p.get(x, y);
                p.put(x, y, bg + cover * (value - bg));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chessboard_alternates_cells() {
        let mut p = Plane::filled(8, 8, -1.0);
        chessboard(&mut p, 0, 0, 8, 8, 2, 0.0, 20.0);
        assert_eq!(p.get(0, 0), 0.0);
        assert_eq!(p.get(2, 0), 20.0);
        assert_eq!(p.get(0, 2), 20.0);
        assert_eq!(p.get(2, 2), 0.0);
        // Within a cell the value is constant.
        assert_eq!(p.get(1, 1), 0.0);
        assert_eq!(p.get(3, 1), 20.0);
    }

    #[test]
    fn chessboard_paper_pattern_pixel_cell() {
        // cell=1, a=0, b=δ reproduces "δ if i+j odd else 0".
        let mut p = Plane::filled(4, 4, 0.0);
        chessboard(&mut p, 0, 0, 4, 4, 1, 0.0, 30.0);
        for (x, y, v) in p.iter_xy() {
            let expect = if (x + y) % 2 == 1 { 30.0 } else { 0.0 };
            assert_eq!(v, expect);
        }
    }

    #[test]
    fn disc_covers_center_not_corners() {
        let mut p = Plane::filled(11, 11, 0.0);
        filled_disc(&mut p, 5.5, 5.5, 3.0, 200.0);
        assert_eq!(p.get(5, 5), 200.0);
        assert_eq!(p.get(0, 0), 0.0);
        assert_eq!(p.get(10, 10), 0.0);
    }
}
