//! Pseudo-random bit sources.
//!
//! The paper's evaluation "used a pseudo-random data generator with a
//! pre-set seed to generate the original data frames" (§4). Reproducing
//! that requires a deterministic, seedable bit generator shared by sender
//! and receiver so the receiver can score bit errors against ground truth.
//!
//! The generator is xoshiro256**, a word generator for bulk payloads.

/// xoshiro256** — a small, fast, high-quality PRNG for bulk payload bytes.
/// Deterministic across platforms; used wherever the reproduction needs
/// repeatable randomness without pulling `rand` into a core crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Seeds the generator from a single 64-bit value via SplitMix64.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next_sm = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let s = [next_sm(), next_sm(), next_sm(), next_sm()];
        Self { s }
    }

    /// Next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Standard normal deviate via Box–Muller (one value per call; the
    /// partner value is discarded for simplicity).
    pub fn next_gaussian(&mut self) -> f64 {
        // Avoid log(0).
        let u1 = (self.next_f64()).max(1e-300);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Next payload byte.
    pub fn next_byte(&mut self) -> u8 {
        (self.next_u64() >> 56) as u8
    }

    /// Next bit (topmost bit of the next word).
    pub fn next_bit(&mut self) -> bool {
        self.next_u64() >> 63 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xoshiro_is_deterministic_and_seed_sensitive() {
        let mut a = Xoshiro256::seed_from_u64(7);
        let mut b = Xoshiro256::seed_from_u64(7);
        let mut c = Xoshiro256::seed_from_u64(8);
        let av: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let bv: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let cv: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(av, bv);
        assert_ne!(av, cv);
    }

    #[test]
    fn f64_is_in_unit_interval() {
        let mut g = Xoshiro256::seed_from_u64(99);
        for _ in 0..1000 {
            let v = g.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn gaussian_has_roughly_unit_moments() {
        let mut g = Xoshiro256::seed_from_u64(3);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| g.next_gaussian()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
