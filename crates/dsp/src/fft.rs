//! In-place radix-2 complex FFT.
//!
//! Used to verify, spectrally, that InFrame's multiplexed waveforms keep
//! their flicker energy at or above 60 Hz (beyond the CFF), and by the HVS
//! model's frequency-domain sanity tests. Implemented from scratch —
//! iterative Cooley–Tukey with bit-reversal permutation.

use std::ops::{Add, Mul, Neg, Sub};

/// A complex number over `f64`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Constructs `re + i·im`.
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Real number as complex.
    pub const fn from_real(re: f64) -> Self {
        Self { re, im: 0.0 }
    }

    /// `e^{iθ}`.
    pub fn cis(theta: f64) -> Self {
        Self {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Complex conjugate.
    pub fn conj(self) -> Self {
        Self {
            re: self.re,
            im: -self.im,
        }
    }

    /// Magnitude `|z|`.
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude `|z|²` (cheaper than [`Complex::abs`]).
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Scales by a real factor.
    pub fn scale(self, s: f64) -> Self {
        Self {
            re: self.re * s,
            im: self.im * s,
        }
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

/// Forward in-place FFT.
///
/// # Panics
/// Panics unless `data.len()` is a power of two (and nonzero).
pub fn fft(data: &mut [Complex]) {
    transform(data, false);
}

/// Inverse in-place FFT, including the `1/N` normalization.
///
/// # Panics
/// Panics unless `data.len()` is a power of two (and nonzero).
pub fn ifft(data: &mut [Complex]) {
    transform(data, true);
    let n = data.len() as f64;
    for v in data.iter_mut() {
        *v = v.scale(1.0 / n);
    }
}

fn transform(data: &mut [Complex], inverse: bool) {
    let n = data.len();
    assert!(
        n != 0 && n.is_power_of_two(),
        "FFT length must be a power of two"
    );
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i.reverse_bits() >> (usize::BITS - bits)) & (n - 1);
        if j > i {
            data.swap(i, j);
        }
    }
    // Iterative butterflies.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::cis(ang);
        let mut i = 0;
        while i < n {
            let mut w = Complex::from_real(1.0);
            for j in 0..len / 2 {
                let u = data[i + j];
                let v = data[i + j + len / 2] * w;
                data[i + j] = u + v;
                data[i + j + len / 2] = u - v;
                w = w * wlen;
            }
            i += len;
        }
        len <<= 1;
    }
}

/// FFT of a real signal, zero-padding to the next power of two.
/// Returns the full complex spectrum (length = padded size).
pub fn fft_real(signal: &[f64]) -> Vec<Complex> {
    assert!(!signal.is_empty(), "signal must be nonempty");
    let n = signal.len().next_power_of_two();
    let mut data: Vec<Complex> = signal.iter().map(|&v| Complex::from_real(v)).collect();
    data.resize(n, Complex::default());
    fft(&mut data);
    data
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut data = vec![Complex::default(); 8];
        data[0] = Complex::from_real(1.0);
        fft(&mut data);
        for v in &data {
            assert!((v.re - 1.0).abs() < 1e-12);
            assert!(v.im.abs() < 1e-12);
        }
    }

    #[test]
    fn fft_of_constant_concentrates_at_dc() {
        let mut data = vec![Complex::from_real(3.0); 16];
        fft(&mut data);
        assert!((data[0].re - 48.0).abs() < 1e-9);
        for v in &data[1..] {
            assert!(v.abs() < 1e-9);
        }
    }

    #[test]
    fn single_tone_lands_in_right_bin() {
        let n = 64;
        let k = 5;
        let signal: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * k as f64 * i as f64 / n as f64).cos())
            .collect();
        let spec = fft_real(&signal);
        let mags: Vec<f64> = spec.iter().map(|c| c.abs()).collect();
        // Peak at bins k and n-k (conjugate symmetry of real signals).
        let peak = mags
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!(peak == k || peak == n - k);
        assert!((mags[k] - n as f64 / 2.0).abs() < 1e-6);
    }

    #[test]
    fn parseval_energy_identity() {
        let signal: Vec<f64> = (0..32).map(|i| ((i * 7 + 3) % 13) as f64 - 6.0).collect();
        let time_energy: f64 = signal.iter().map(|v| v * v).sum();
        let spec = fft_real(&signal);
        let freq_energy: f64 = spec.iter().map(|c| c.norm_sqr()).sum::<f64>() / spec.len() as f64;
        assert!((time_energy - freq_energy).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        let mut data = vec![Complex::default(); 12];
        fft(&mut data);
    }

    #[test]
    fn complex_arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        assert_eq!(a + b, Complex::new(4.0, 1.0));
        assert_eq!(a - b, Complex::new(-2.0, 3.0));
        assert_eq!(a * b, Complex::new(5.0, 5.0));
        assert_eq!(-a, Complex::new(-1.0, -2.0));
        assert_eq!(a.conj(), Complex::new(1.0, -2.0));
        assert!((Complex::new(3.0, 4.0).abs() - 5.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn fft_ifft_roundtrip(vals in proptest::collection::vec(-100.0f64..100.0, 16)) {
            let mut data: Vec<Complex> = vals.iter().map(|&v| Complex::from_real(v)).collect();
            fft(&mut data);
            ifft(&mut data);
            for (orig, rt) in vals.iter().zip(&data) {
                prop_assert!((orig - rt.re).abs() < 1e-9);
                prop_assert!(rt.im.abs() < 1e-9);
            }
        }

        #[test]
        fn fft_is_linear(
            a in proptest::collection::vec(-10.0f64..10.0, 8),
            b in proptest::collection::vec(-10.0f64..10.0, 8),
        ) {
            let sum: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
            let fa = fft_real(&a);
            let fb = fft_real(&b);
            let fs = fft_real(&sum);
            for i in 0..8 {
                let lin = fa[i] + fb[i];
                prop_assert!((lin.re - fs[i].re).abs() < 1e-9);
                prop_assert!((lin.im - fs[i].im).abs() < 1e-9);
            }
        }
    }
}
