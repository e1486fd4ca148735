//! Pixelwise arithmetic and image distance metrics.
//!
//! The sender computes `V + D` and `V − D` (complementary multiplexing);
//! the receiver computes per-block absolute differences. Both live here,
//! together with the mean absolute error used by tests and experiments.

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
    }

    #[test]
    fn metrics_on_known_values() {
        let a = p(vec![0.0, 0.0, 0.0, 0.0]);
        let b = p(vec![1.0, -1.0, 2.0, -2.0]);
        assert!((mae(&a, &b).unwrap() - 1.5).abs() < 1e-12);
    }
}
