//! Resolution conversion: area-average downsampling and bilinear resizing.
//!
//! The paper's sender renders at 1920×1080 while the Lumia 1020 captures at
//! 1280×720 — a 1.5× downsample. Area averaging models how multiple display
//! pixels integrate onto one sensor photosite.

use crate::geometry::sample_bilinear;
use crate::plane::Plane;

/// Resizes with bilinear interpolation. Suitable for mild scale changes and
/// upsampling; prefer [`downsample_area`] for large downscales to avoid
/// aliasing.
pub fn resize_bilinear(src: &Plane<f32>, dst_w: usize, dst_h: usize) -> Plane<f32> {
    assert!(dst_w > 0 && dst_h > 0, "destination must be nonzero");
    let sx = src.width() as f64 / dst_w as f64;
    let sy = src.height() as f64 / dst_h as f64;
    Plane::from_fn(dst_w, dst_h, |x, y| {
        let fx = (x as f64 + 0.5) * sx - 0.5;
        let fy = (y as f64 + 0.5) * sy - 0.5;
        sample_bilinear(src, fx, fy)
    })
}

/// Downsamples by averaging the exact (fractional) source area covered by
/// each destination pixel — a box reconstruction filter. Works for any
/// scale ≥ 1 in each axis and is the physically right model for photosite
/// integration.
pub fn downsample_area(src: &Plane<f32>, dst_w: usize, dst_h: usize) -> Plane<f32> {
    assert!(dst_w > 0 && dst_h > 0, "destination must be nonzero");
    assert!(
        dst_w <= src.width() && dst_h <= src.height(),
        "downsample_area requires dst <= src in both axes"
    );
    let (x, y) = (
        AreaTaps::new(src.width(), dst_w),
        AreaTaps::new(src.height(), dst_h),
    );
    let mut out = vec![0.0f32; dst_w * dst_h];
    downsample_area_into(src.samples(), &x, &y, &mut out);
    Plane::from_vec(dst_w, dst_h, out).expect("nonzero destination")
}

/// [`downsample_area`] of raw row-major samples through prebuilt tap
/// tables, writing into `dst`: a caller that resamples many planes (or
/// row bands) of one shape builds the tables once and allocates nothing.
///
/// # Panics
/// Panics unless `src` holds `x`'s × `y`'s source lengths and `dst` their
/// destination lengths.
pub fn downsample_area_into(src: &[f32], x: &AreaTaps, y: &AreaTaps, dst: &mut [f32]) {
    let w = x.src_len;
    assert_eq!(src.len(), w * y.src_len, "tap tables must match the source");
    assert_eq!(
        dst.len(),
        x.dst_len() * y.dst_len(),
        "tap tables must match the destination"
    );
    let mut out = dst.iter_mut();
    for dy in 0..y.dst_len() {
        let (rows, wys) = y.taps(dy);
        for dx in 0..x.dst_len() {
            let (cols, wxs) = x.taps(dx);
            let mut acc = 0.0f64;
            let mut wsum = 0.0f64;
            for (&yi, &wy) in rows.iter().zip(wys) {
                let row = &src[yi * w..(yi + 1) * w];
                for (&xi, &wx) in cols.iter().zip(wxs) {
                    let w = wx * wy;
                    acc += w * row[xi] as f64;
                    wsum += w;
                }
            }
            *out.next().expect("sized above") = if wsum > 0.0 { (acc / wsum) as f32 } else { 0.0 };
        }
    }
}

/// The area-average taps of one axis: for each destination index `d`,
/// the source indices its interval `[d·s, (d+1)·s)` (with `s = src/dst`)
/// overlaps, in ascending order, and their coverage weights.
#[derive(Debug, Clone, PartialEq)]
pub struct AreaTaps {
    src_len: usize,
    /// Destination `d`'s taps are `starts[d]..starts[d + 1]`.
    starts: Vec<usize>,
    index: Vec<usize>,
    weight: Vec<f64>,
}

impl AreaTaps {
    /// Taps for resampling `src_len` samples down to `dst_len`.
    ///
    /// # Panics
    /// Panics unless `0 < dst_len ≤ src_len`.
    pub fn new(src_len: usize, dst_len: usize) -> Self {
        assert!(
            dst_len > 0 && dst_len <= src_len,
            "area taps need 0 < dst <= src"
        );
        let s = src_len as f64 / dst_len as f64;
        let mut taps = AreaTaps {
            src_len,
            starts: Vec::with_capacity(dst_len + 1),
            index: Vec::new(),
            weight: Vec::new(),
        };
        taps.starts.push(0);
        for d in 0..dst_len {
            let (a0, a1) = (d as f64 * s, (d + 1) as f64 * s);
            let i1 = (a1.ceil() as usize).min(src_len);
            for i in a0.floor() as usize..i1 {
                let w = overlap(a0, a1, i as f64, i as f64 + 1.0);
                if w > 0.0 {
                    taps.index.push(i);
                    taps.weight.push(w);
                }
            }
            taps.starts.push(taps.index.len());
        }
        taps
    }

    /// Number of destination samples.
    fn dst_len(&self) -> usize {
        self.starts.len() - 1
    }

    /// Source indices and weights of destination sample `d`.
    fn taps(&self, d: usize) -> (&[usize], &[f64]) {
        let r = self.starts[d]..self.starts[d + 1];
        (&self.index[r.clone()], &self.weight[r])
    }
}

#[inline]
fn overlap(a0: f64, a1: f64, b0: f64, b1: f64) -> f64 {
    (a1.min(b1) - a0.max(b0)).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constant_plane_survives_both_resamplers() {
        let p = Plane::filled(12, 9, 77.0);
        let a = downsample_area(&p, 8, 6);
        let b = resize_bilinear(&p, 8, 6);
        for &v in a.samples().iter().chain(b.samples()) {
            assert!((v - 77.0).abs() < 1e-4);
        }
    }

    #[test]
    fn integer_factor_downsample_averages_blocks() {
        // 4x4 → 2x2 with 2x2 block averaging.
        let p = Plane::from_vec(
            4,
            4,
            vec![
                0.0f32, 4.0, 8.0, 12.0, //
                2.0, 6.0, 10.0, 14.0, //
                100.0, 104.0, 108.0, 112.0, //
                102.0, 106.0, 110.0, 114.0,
            ],
        )
        .unwrap();
        let d = downsample_area(&p, 2, 2);
        assert!((d.get(0, 0) - 3.0).abs() < 1e-4);
        assert!((d.get(1, 0) - 11.0).abs() < 1e-4);
        assert!((d.get(0, 1) - 103.0).abs() < 1e-4);
        assert!((d.get(1, 1) - 111.0).abs() < 1e-4);
    }

    #[test]
    fn fractional_downsample_1920_to_1280_geometry() {
        // The paper's display-to-camera ratio: each destination pixel covers
        // exactly 1.5 source pixels per axis.
        let p = Plane::from_fn(6, 3, |x, _| x as f32);
        let d = downsample_area(&p, 4, 2);
        // Destination pixel 0 covers source x in [0.0, 1.5):
        // mean = (1.0*0 + 0.5*1) / 1.5 = 1/3.
        assert!((d.get(0, 0) - 1.0 / 3.0).abs() < 1e-5);
        // Destination pixel 3 covers [4.5, 6.0): mean = (0.5*4 + 1.0*5)/1.5 = 14/3...
        assert!((d.get(3, 0) - (0.5 * 4.0 + 5.0) / 1.5).abs() < 1e-5);
    }

    #[test]
    fn downsample_preserves_global_mean() {
        let p = Plane::from_fn(30, 30, |x, y| ((x * 13 + y * 29) % 251) as f32);
        let d = downsample_area(&p, 10, 10);
        assert!((d.mean() - p.mean()).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "downsample_area requires dst <= src")]
    fn downsample_rejects_upscale() {
        let p = Plane::filled(4, 4, 0.0);
        let _ = downsample_area(&p, 8, 8);
    }

    #[test]
    fn bilinear_upscale_interpolates() {
        let p = Plane::from_vec(2, 1, vec![0.0f32, 100.0]).unwrap();
        let u = resize_bilinear(&p, 4, 1);
        // Monotone non-decreasing along the gradient.
        for i in 1..4 {
            assert!(u.get(i, 0) >= u.get(i - 1, 0));
        }
    }

    /// Pseudo-random samples: half are ±2⁴⁵, half fractions in `[0, 1)`.
    /// The huge pairs cancel exactly or swallow the fractions depending on
    /// when they are added, so the f64 sums are sensitive to summation
    /// order even after rounding to f32.
    fn noisy_plane(w: usize, h: usize, seed: u64) -> Plane<f32> {
        Plane::from_fn(w, h, |x, y| {
            let mut v = seed ^ ((x as u64) << 32 | y as u64);
            v = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            v ^= v >> 29;
            match v % 4 {
                0 => 2f32.powi(45),
                1 => -(2f32.powi(45)),
                _ => (v >> 8) as u16 as f32 / 65_536.0,
            }
        })
    }

    /// The per-pixel area average `downsample_area` computed before its
    /// tap tables existed: the bitwise oracle for the table-driven kernel.
    fn naive_downsample_area(src: &Plane<f32>, dst_w: usize, dst_h: usize) -> Plane<f32> {
        let sx = src.width() as f64 / dst_w as f64;
        let sy = src.height() as f64 / dst_h as f64;
        Plane::from_fn(dst_w, dst_h, |dx, dy| {
            let (x0, x1) = (dx as f64 * sx, (dx + 1) as f64 * sx);
            let (y0, y1) = (dy as f64 * sy, (dy + 1) as f64 * sy);
            let ix0 = x0.floor() as isize;
            let ix1 = (x1.ceil() as isize).min(src.width() as isize);
            let iy0 = y0.floor() as isize;
            let iy1 = (y1.ceil() as isize).min(src.height() as isize);
            let mut acc = 0.0f64;
            let mut wsum = 0.0f64;
            for yi in iy0.max(0)..iy1 {
                let wy = overlap(y0, y1, yi as f64, yi as f64 + 1.0);
                if wy <= 0.0 {
                    continue;
                }
                for xi in ix0.max(0)..ix1 {
                    let wx = overlap(x0, x1, xi as f64, xi as f64 + 1.0);
                    if wx <= 0.0 {
                        continue;
                    }
                    let w = wx * wy;
                    acc += w * src.get(xi as usize, yi as usize) as f64;
                    wsum += w;
                }
            }
            if wsum > 0.0 {
                (acc / wsum) as f32
            } else {
                0.0
            }
        })
    }

    fn bits(p: &Plane<f32>) -> Vec<u32> {
        p.samples().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn downsample_matches_oracle_at_paper_ratio_and_one_pixel() {
        for (w, h, dw, dh) in [
            (1, 1, 1, 1),
            (1, 9, 1, 4),
            (9, 1, 6, 1),
            (240, 168, 160, 112),
        ] {
            let p = noisy_plane(w, h, 3);
            let got = downsample_area(&p, dw, dh);
            assert_eq!(got.shape(), (dw, dh));
            assert_eq!(bits(&got), bits(&naive_downsample_area(&p, dw, dh)));
        }
    }

    #[test]
    fn prebuilt_taps_match_one_shot_downsample() {
        let p = noisy_plane(30, 21, 9);
        let (x, y) = (AreaTaps::new(30, 20), AreaTaps::new(21, 7));
        let mut out = vec![f32::NAN; 20 * 7];
        downsample_area_into(p.samples(), &x, &y, &mut out);
        assert_eq!(out, downsample_area(&p, 20, 7).samples());
    }

    #[test]
    #[should_panic(expected = "tap tables must match")]
    fn mismatched_taps_rejected() {
        let mut out = [0.0f32; 16];
        downsample_area_into(
            &[1.0; 36],
            &AreaTaps::new(6, 4),
            &AreaTaps::new(5, 4),
            &mut out,
        );
    }

    proptest! {
        #[test]
        fn downsample_is_bitwise_the_per_pixel_area_average(
            w in 1usize..48, h in 1usize..48,
            dw_raw in 0usize..1000, dh_raw in 0usize..1000,
            seed in any::<u64>(),
        ) {
            // Any 1 <= dst <= src, so most ratios are non-integer.
            let (dw, dh) = (1 + dw_raw % w, 1 + dh_raw % h);
            let p = noisy_plane(w, h, seed);
            let got = downsample_area(&p, dw, dh);
            prop_assert_eq!(bits(&got), bits(&naive_downsample_area(&p, dw, dh)));
        }

        #[test]
        fn area_downsample_within_source_range(
            w in 4usize..20, h in 4usize..20,
        ) {
            let p = Plane::from_fn(w, h, |x, y| ((x * 37 + y * 11) % 256) as f32);
            let dw = (w / 2).max(1);
            let dh = (h / 2).max(1);
            let d = downsample_area(&p, dw, dh);
            let (lo, hi) = (p.min_sample(), p.max_sample());
            for &v in d.samples() {
                prop_assert!(v >= lo - 1e-3 && v <= hi + 1e-3);
            }
        }
    }
}
