//! Pixelwise arithmetic and image distance metrics.
//!
//! The sender computes `V + D` and `V − D` (complementary multiplexing);
//! the receiver computes per-block absolute differences. Both live here,
//! together with the metrics used by tests and experiments (MAE, MSE, PSNR).

use crate::plane::{Plane, Sample};
use crate::FrameError;

/// Returns `a + b` pixelwise.
///
/// # Errors
/// Returns [`FrameError::ShapeMismatch`] when shapes differ.
pub fn add(a: &Plane<f32>, b: &Plane<f32>) -> Result<Plane<f32>, FrameError> {
    zip_map(a, b, |x, y| x + y)
}

/// Returns `a − b` pixelwise.
///
/// # Errors
/// Returns [`FrameError::ShapeMismatch`] when shapes differ.
pub fn sub(a: &Plane<f32>, b: &Plane<f32>) -> Result<Plane<f32>, FrameError> {
    zip_map(a, b, |x, y| x - y)
}

/// Returns `a + s·b` pixelwise (fused multiply-add over planes).
///
/// # Errors
/// Returns [`FrameError::ShapeMismatch`] when shapes differ.
pub fn add_scaled(a: &Plane<f32>, b: &Plane<f32>, s: f32) -> Result<Plane<f32>, FrameError> {
    zip_map(a, b, |x, y| x + s * y)
}

/// Returns `|a − b|` pixelwise.
///
/// # Errors
/// Returns [`FrameError::ShapeMismatch`] when shapes differ.
pub fn abs_diff(a: &Plane<f32>, b: &Plane<f32>) -> Result<Plane<f32>, FrameError> {
    zip_map(a, b, |x, y| (x - y).abs())
}

/// Applies a binary function over two same-shaped planes.
///
/// # Errors
/// Returns [`FrameError::ShapeMismatch`] when shapes differ.
pub fn zip_map(
    a: &Plane<f32>,
    b: &Plane<f32>,
    mut f: impl FnMut(f32, f32) -> f32,
) -> Result<Plane<f32>, FrameError> {
    if a.shape() != b.shape() {
        return Err(FrameError::ShapeMismatch {
            left: a.shape(),
            right: b.shape(),
        });
    }
    let data = a
        .samples()
        .iter()
        .zip(b.samples())
        .map(|(&x, &y)| f(x, y))
        .collect();
    Plane::from_vec(a.width(), a.height(), data)
}

/// Mean absolute error between two planes.
///
/// # Errors
/// Returns [`FrameError::ShapeMismatch`] when shapes differ.
pub fn mae<T: Sample>(a: &Plane<T>, b: &Plane<T>) -> Result<f64, FrameError> {
    check_shapes(a, b)?;
    let sum: f64 = a
        .samples()
        .iter()
        .zip(b.samples())
        .map(|(&x, &y)| (x.to_f32() as f64 - y.to_f32() as f64).abs())
        .sum();
    Ok(sum / a.len() as f64)
}

/// Mean squared error between two planes.
///
/// # Errors
/// Returns [`FrameError::ShapeMismatch`] when shapes differ.
pub fn mse<T: Sample>(a: &Plane<T>, b: &Plane<T>) -> Result<f64, FrameError> {
    check_shapes(a, b)?;
    let sum: f64 = a
        .samples()
        .iter()
        .zip(b.samples())
        .map(|(&x, &y)| {
            let d = x.to_f32() as f64 - y.to_f32() as f64;
            d * d
        })
        .sum();
    Ok(sum / a.len() as f64)
}

/// Peak signal-to-noise ratio in dB, with the given peak value (255 for
/// 8-bit-scale imagery). Returns `f64::INFINITY` for identical planes.
///
/// # Errors
/// Returns [`FrameError::ShapeMismatch`] when shapes differ.
pub fn psnr<T: Sample>(a: &Plane<T>, b: &Plane<T>, peak: f64) -> Result<f64, FrameError> {
    let m = mse(a, b)?;
    if m == 0.0 {
        Ok(f64::INFINITY)
    } else {
        Ok(10.0 * (peak * peak / m).log10())
    }
}

/// Sum of absolute values of all samples (the receiver's per-block noise
/// aggregate before mean removal).
pub fn sum_abs(p: &Plane<f32>) -> f64 {
    p.samples().iter().map(|&v| v.abs() as f64).sum()
}

fn check_shapes<T: Sample>(a: &Plane<T>, b: &Plane<T>) -> Result<(), FrameError> {
    if a.shape() != b.shape() {
        Err(FrameError::ShapeMismatch {
            left: a.shape(),
            right: b.shape(),
        })
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(v: Vec<f32>) -> Plane<f32> {
        Plane::from_vec(v.len(), 1, v).unwrap()
    }

    #[test]
    fn add_sub_recover_original() {
        let v = p(vec![10.0, 20.0, 30.0]);
        let d = p(vec![1.0, -2.0, 3.0]);
        let plus = add(&v, &d).unwrap();
        let minus = sub(&v, &d).unwrap();
        // (V+D) + (V−D) = 2V: the complementary-frame identity.
        let avg = zip_map(&plus, &minus, |a, b| (a + b) / 2.0).unwrap();
        assert_eq!(avg, v);
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let a = Plane::<f32>::filled(2, 2, 0.0);
        let b = Plane::<f32>::filled(3, 2, 0.0);
        assert!(add(&a, &b).is_err());
        assert!(mae(&a, &b).is_err());
        assert!(psnr(&a, &b, 255.0).is_err());
    }

    #[test]
    fn metrics_on_known_values() {
        let a = p(vec![0.0, 0.0, 0.0, 0.0]);
        let b = p(vec![1.0, -1.0, 2.0, -2.0]);
        assert!((mae(&a, &b).unwrap() - 1.5).abs() < 1e-12);
        assert!((mse(&a, &b).unwrap() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn psnr_of_identical_planes_is_infinite() {
        let a = p(vec![5.0, 6.0]);
        assert_eq!(psnr(&a, &a, 255.0).unwrap(), f64::INFINITY);
    }

    #[test]
    fn psnr_decreases_with_noise() {
        let a = Plane::<f32>::filled(8, 8, 128.0);
        let mut b1 = a.clone();
        let mut b2 = a.clone();
        b1.map_in_place(|v| v + 1.0);
        b2.map_in_place(|v| v + 10.0);
        assert!(psnr(&a, &b1, 255.0).unwrap() > psnr(&a, &b2, 255.0).unwrap());
    }

    #[test]
    fn sum_abs_counts_magnitudes() {
        let a = p(vec![1.0, -2.0, 3.0]);
        assert!((sum_abs(&a) - 6.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn add_scaled_matches_manual(
            vals in proptest::collection::vec(-100.0f32..100.0, 8),
            s in -3.0f32..3.0,
        ) {
            let a = p(vals.clone());
            let b = p(vals.iter().map(|v| v * 0.5).collect());
            let out = add_scaled(&a, &b, s).unwrap();
            for (i, &v) in out.samples().iter().enumerate() {
                let expect = vals[i] + s * (vals[i] * 0.5);
                prop_assert!((v - expect).abs() < 1e-4);
            }
        }

        #[test]
        fn abs_diff_is_symmetric(
            av in proptest::collection::vec(-50.0f32..50.0, 6),
            bv in proptest::collection::vec(-50.0f32..50.0, 6),
        ) {
            let a = p(av);
            let b = p(bv);
            prop_assert_eq!(abs_diff(&a, &b).unwrap(), abs_diff(&b, &a).unwrap());
        }
    }
}
