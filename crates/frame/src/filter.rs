//! Spatial filtering: box/Gaussian smoothing, separable convolution, median.
//!
//! The InFrame receiver's detector hinges on spatial smoothing: a captured
//! block is smoothed, subtracted from itself, and the residual magnitude
//! indicates whether the chessboard pattern (bit 1) is present (§3.3 of the
//! paper). The box filter here is that smoother; the Gaussian is used by the
//! camera optics model (PSF).
//!
//! These are the **reference** (oracle) implementations: scalar, O(r) per
//! pixel, written for clarity. The performance-sensitive receiver path uses
//! [`crate::integral::box_blur_fast_into`] (f32/f64 backend) or the
//! fixed-point [`crate::qplane::sliding_box_blur_into`] (quantized
//! backend), both property-tested against [`box_blur`] here.

use crate::plane::Plane;

/// Border handling for convolution.
///
/// All InFrame code uses [`Border::Replicate`], which matches what a camera
/// ISP does at frame edges; `Zero` exists for spectral-analysis tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Border {
    /// Clamp coordinates to the nearest valid sample.
    Replicate,
    /// Treat out-of-range samples as zero.
    Zero,
}

/// Convolves a plane with a horizontal kernel then a vertical kernel
/// (separable convolution). Kernel lengths must be odd.
///
/// # Panics
/// Panics if either kernel is empty or has even length.
pub fn separable_convolve(src: &Plane<f32>, kx: &[f32], ky: &[f32], border: Border) -> Plane<f32> {
    assert!(!kx.is_empty() && kx.len() % 2 == 1, "kx must be odd-length");
    assert!(!ky.is_empty() && ky.len() % 2 == 1, "ky must be odd-length");
    let horizontal = convolve_axis(src, kx, true, border);
    convolve_axis(&horizontal, ky, false, border)
}

fn convolve_axis(src: &Plane<f32>, k: &[f32], horizontal: bool, border: Border) -> Plane<f32> {
    if border == Border::Replicate {
        return if horizontal {
            convolve_rows_replicate(src, k)
        } else {
            convolve_cols_replicate(src, k)
        };
    }
    let (w, h) = src.shape();
    let r = (k.len() / 2) as isize;
    Plane::from_fn(w, h, |x, y| {
        let mut acc = 0.0f32;
        for (i, &kv) in k.iter().enumerate() {
            let off = i as isize - r;
            let (sx, sy) = if horizontal {
                (x as isize + off, y as isize)
            } else {
                (x as isize, y as isize + off)
            };
            let v = if sx < 0 || sy < 0 || sx >= w as isize || sy >= h as isize {
                0.0
            } else {
                src.get(sx as usize, sy as usize)
            };
            acc += kv * v;
        }
        acc
    })
}

/// Horizontal replicate-border convolution, one row slice at a time.
fn convolve_rows_replicate(src: &Plane<f32>, k: &[f32]) -> Plane<f32> {
    let (w, h) = src.shape();
    let mut out = vec![0.0f32; w * h];
    convolve_rows_replicate_into(src.samples(), w, k, &mut out);
    Plane::from_vec(w, h, out).expect("shape of the source plane")
}

/// The horizontal pass of a replicate-border separable convolution over
/// whole rows of width `w`: `dst` receives the rows of `src`, each
/// convolved with `k`. Every output sample sums `kv · v` from 0.0 in tap
/// order. Interior samples read a contiguous window and are accumulated
/// one tap at a time across the whole interior; the `r` samples at each
/// edge clamp their source index. Rows are independent, so any row band
/// of a plane gives the same samples as the whole plane.
///
/// # Panics
/// Panics unless `src` and `dst` have the same length, a whole number of
/// rows.
pub fn convolve_rows_replicate_into(src: &[f32], w: usize, k: &[f32], dst: &mut [f32]) {
    assert!(
        src.len() == dst.len() && src.len().is_multiple_of(w),
        "src and dst must hold the same whole rows"
    );
    let r = k.len() / 2;
    // Interior samples `r..w − r`; empty when the kernel is wider than
    // the row.
    let interior = r.min(w)..w.saturating_sub(r).max(r.min(w));
    for (row, dst) in src.chunks_exact(w).zip(dst.chunks_exact_mut(w)) {
        dst.fill(0.0);
        for x in (0..interior.start).chain(interior.end..w) {
            for (i, &kv) in k.iter().enumerate() {
                dst[x] += kv * row[(x + i).saturating_sub(r).min(w - 1)];
            }
        }
        if interior.is_empty() {
            continue;
        }
        let dst = &mut dst[interior.clone()];
        for (i, &kv) in k.iter().enumerate() {
            // Tap `i` of interior sample `x` reads `row[x + i − r]`.
            let taps = &row[interior.start + i - r..][..dst.len()];
            for (acc, &v) in dst.iter_mut().zip(taps) {
                *acc += kv * v;
            }
        }
    }
}

/// Vertical replicate-border convolution.
fn convolve_cols_replicate(src: &Plane<f32>, k: &[f32]) -> Plane<f32> {
    let (w, h) = src.shape();
    let mut out = vec![0.0f32; w * h];
    convolve_cols_replicate_into(src.samples(), w, k, 0..h, &mut out);
    Plane::from_vec(w, h, out).expect("shape of the source plane")
}

/// The vertical pass of a replicate-border separable convolution:
/// `dst` receives output rows `rows` of the row-major plane `src` (width
/// `w`) convolved down its columns with `k`. Each output row accumulates
/// whole (clamped) source rows in tap order, so every sample sums
/// `kv · v` from 0.0 in the same order as a per-pixel loop, whatever
/// band of rows is asked for.
///
/// # Panics
/// Panics unless `src` holds whole rows, `rows` lies inside them and
/// `dst` holds exactly `rows`.
pub fn convolve_cols_replicate_into(
    src: &[f32],
    w: usize,
    k: &[f32],
    rows: std::ops::Range<usize>,
    dst: &mut [f32],
) {
    let h = src.len() / w;
    assert!(
        src.len().is_multiple_of(w) && rows.end <= h && dst.len() == rows.len() * w,
        "dst must hold rows {rows:?} of a {w}-wide source"
    );
    let r = k.len() / 2;
    for (y, dst) in rows.zip(dst.chunks_exact_mut(w)) {
        dst.fill(0.0);
        for (i, &kv) in k.iter().enumerate() {
            let sy = (y + i).saturating_sub(r).min(h - 1);
            for (acc, &v) in dst.iter_mut().zip(&src[sy * w..(sy + 1) * w]) {
                *acc += kv * v;
            }
        }
    }
}

/// Box-blurs a plane with a `(2r+1) × (2r+1)` window.
///
/// `r = 0` returns a copy. This is the receiver's "smoothed version" of a
/// block; the chessboard's alternating ±δ averages to ~0 under it while the
/// underlying video content survives.
pub fn box_blur(src: &Plane<f32>, r: usize) -> Plane<f32> {
    if r == 0 {
        return src.clone();
    }
    let k = vec![1.0 / (2 * r + 1) as f32; 2 * r + 1];
    separable_convolve(src, &k, &k, Border::Replicate)
}

/// Builds a normalized 1-D Gaussian kernel with standard deviation `sigma`,
/// truncated at `±3σ` (minimum radius 1).
pub fn gaussian_kernel(sigma: f32) -> Vec<f32> {
    assert!(sigma > 0.0, "sigma must be positive");
    let r = (3.0 * sigma).ceil().max(1.0) as usize;
    let mut k: Vec<f32> = (0..=2 * r)
        .map(|i| {
            let d = i as f32 - r as f32;
            (-0.5 * (d / sigma) * (d / sigma)).exp()
        })
        .collect();
    let sum: f32 = k.iter().sum();
    for v in &mut k {
        *v /= sum;
    }
    k
}

/// Gaussian-blurs a plane (separable), used for the camera point-spread
/// function and for defocus experiments.
pub fn gaussian_blur(src: &Plane<f32>, sigma: f32) -> Plane<f32> {
    if sigma <= 0.0 {
        return src.clone();
    }
    let k = gaussian_kernel(sigma);
    separable_convolve(src, &k, &k, Border::Replicate)
}

/// 3×3 median filter (replicate border) — used in robustness ablations as an
/// alternative receiver smoother.
pub fn median3x3(src: &Plane<f32>) -> Plane<f32> {
    let (w, h) = src.shape();
    Plane::from_fn(w, h, |x, y| {
        let mut vals = [0.0f32; 9];
        let mut i = 0;
        for dy in -1isize..=1 {
            for dx in -1isize..=1 {
                vals[i] = src.get_clamped(x as isize + dx, y as isize + dy);
                i += 1;
            }
        }
        vals.sort_by(|a, b| a.partial_cmp(b).expect("median input must not be NaN"));
        vals[4]
    })
}

/// Downweights a plane toward its local mean: `out = src + k·(blur − src)`
/// with `k ∈ [0,1]`. `k = 1` is a plain box blur; intermediate values model
/// partial optical low-pass. Used by the channel ablations.
pub fn soften(src: &Plane<f32>, r: usize, k: f32) -> Plane<f32> {
    let blurred = box_blur(src, r);
    Plane::from_fn(src.width(), src.height(), |x, y| {
        let s = src.get(x, y);
        s + k.clamp(0.0, 1.0) * (blurred.get(x, y) - s)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn box_blur_preserves_constant_plane() {
        let p = Plane::filled(8, 8, 42.0);
        let b = box_blur(&p, 2);
        for &v in b.samples() {
            assert!((v - 42.0).abs() < 1e-4);
        }
    }

    #[test]
    fn box_blur_zero_radius_is_identity() {
        let p = Plane::from_fn(5, 5, |x, y| (x * y) as f32);
        assert_eq!(box_blur(&p, 0), p);
    }

    #[test]
    fn box_blur_flattens_checkerboard() {
        // A ±δ checkerboard must smooth toward zero mean: this is the whole
        // premise of the chessboard detector.
        let p = Plane::from_fn(16, 16, |x, y| if (x + y) % 2 == 1 { 20.0 } else { -20.0 });
        let b = box_blur(&p, 1);
        // Interior samples of a 3x3 box over ±20 checkerboard: |mean| ≤ 20/9.
        for y in 2..14 {
            for x in 2..14 {
                assert!(b.get(x, y).abs() <= 20.0 / 9.0 + 1e-3);
            }
        }
    }

    #[test]
    fn gaussian_kernel_is_normalized_and_symmetric() {
        let k = gaussian_kernel(1.5);
        let sum: f32 = k.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        for i in 0..k.len() / 2 {
            assert!((k[i] - k[k.len() - 1 - i]).abs() < 1e-6);
        }
        assert_eq!(k.len() % 2, 1);
    }

    #[test]
    fn gaussian_blur_reduces_variance() {
        let p = Plane::from_fn(32, 32, |x, y| ((x * 31 + y * 17) % 64) as f32);
        let b = gaussian_blur(&p, 2.0);
        assert!(b.variance() < p.variance());
    }

    #[test]
    fn median_removes_salt_noise() {
        let mut p = Plane::filled(9, 9, 10.0);
        p.put(4, 4, 255.0);
        let m = median3x3(&p);
        assert_eq!(m.get(4, 4), 10.0);
    }

    #[test]
    fn zero_border_darkens_edges() {
        let p = Plane::filled(8, 8, 100.0);
        let k = vec![1.0 / 3.0; 3];
        let z = separable_convolve(&p, &k, &k, Border::Zero);
        let r = separable_convolve(&p, &k, &k, Border::Replicate);
        assert!(z.get(0, 0) < r.get(0, 0));
        assert!((r.get(0, 0) - 100.0).abs() < 1e-3);
    }

    #[test]
    fn soften_interpolates_between_identity_and_blur() {
        let p = Plane::from_fn(8, 8, |x, _| (x * 30) as f32);
        let s0 = soften(&p, 1, 0.0);
        let s1 = soften(&p, 1, 1.0);
        let b = box_blur(&p, 1);
        for i in 0..p.len() {
            assert!((s0.samples()[i] - p.samples()[i]).abs() < 1e-4);
            assert!((s1.samples()[i] - b.samples()[i]).abs() < 1e-4);
        }
    }

    /// Pseudo-random fractional samples in roughly `[-64, 192)`.
    fn noisy_plane(w: usize, h: usize, seed: u64) -> Plane<f32> {
        Plane::from_fn(w, h, |x, y| {
            let mut v = seed ^ ((x as u64) << 32 | y as u64);
            v = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            v ^= v >> 29;
            (v % 65_536) as f32 / 256.0 - 64.0
        })
    }

    /// A pseudo-random odd-length kernel of radius `r`, signed taps.
    fn kernel(r: usize, seed: u64) -> Vec<f32> {
        (0..2 * r + 1)
            .map(|i| {
                let v = (seed ^ i as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93) >> 40;
                (v % 2001) as f32 / 1000.0 - 1.0
            })
            .collect()
    }

    /// Per-pixel replicate-border convolution through `get_clamped`, as
    /// `separable_convolve` computed it before the row-slice kernels: the
    /// bitwise oracle for them.
    fn naive_separable_replicate(src: &Plane<f32>, kx: &[f32], ky: &[f32]) -> Plane<f32> {
        let axis = |src: &Plane<f32>, k: &[f32], horizontal: bool| {
            let r = (k.len() / 2) as isize;
            Plane::from_fn(src.width(), src.height(), |x, y| {
                let mut acc = 0.0f32;
                for (i, &kv) in k.iter().enumerate() {
                    let off = i as isize - r;
                    let v = if horizontal {
                        src.get_clamped(x as isize + off, y as isize)
                    } else {
                        src.get_clamped(x as isize, y as isize + off)
                    };
                    acc += kv * v;
                }
                acc
            })
        };
        axis(&axis(src, kx, true), ky, false)
    }

    fn bits(p: &Plane<f32>) -> Vec<u32> {
        p.samples().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn replicate_matches_oracle_on_one_pixel_and_wide_kernels() {
        for (w, h, r) in [
            (1, 1, 0),
            (1, 1, 3),
            (1, 7, 2),
            (7, 1, 5),
            (5, 5, 2),
            (64, 36, 3),
        ] {
            let p = noisy_plane(w, h, 11);
            let k = kernel(r, 5);
            let got = separable_convolve(&p, &k, &k, Border::Replicate);
            assert_eq!(bits(&got), bits(&naive_separable_replicate(&p, &k, &k)));
        }
    }

    proptest! {
        #[test]
        fn replicate_convolution_is_bitwise_the_per_pixel_loop(
            w in 1usize..24, h in 1usize..24,
            rx in 0usize..30, ry in 0usize..30,
            seed in any::<u64>(),
        ) {
            // Radii run past the plane size, so some rows and columns have
            // no interior samples at all.
            let p = noisy_plane(w, h, seed);
            let (kx, ky) = (kernel(rx, seed), kernel(ry, !seed));
            let got = separable_convolve(&p, &kx, &ky, Border::Replicate);
            prop_assert_eq!(bits(&got), bits(&naive_separable_replicate(&p, &kx, &ky)));
        }

        #[test]
        fn blur_output_within_input_range(
            seed in 0u64..1000,
            r in 1usize..4,
        ) {
            let p = Plane::from_fn(12, 12, |x, y| {
                // Simple deterministic hash of (x, y, seed) into [0, 255].
                let v = (x as u64 * 2654435761) ^ (y as u64 * 40503) ^ seed;
                (v % 256) as f32
            });
            let b = box_blur(&p, r);
            let (lo, hi) = (p.min_sample(), p.max_sample());
            for &v in b.samples() {
                prop_assert!(v >= lo - 1e-3 && v <= hi + 1e-3);
            }
        }

        #[test]
        fn blur_preserves_mean_approximately(r in 1usize..4) {
            let p = Plane::from_fn(16, 16, |x, y| ((x * 7 + y * 13) % 200) as f32);
            let b = box_blur(&p, r);
            // Replicate border biases the mean slightly; allow modest slack.
            prop_assert!((b.mean() - p.mean()).abs() < 12.0);
        }
    }
}
