//! Pseudo-random bit sources.
//!
//! The paper's evaluation "used a pseudo-random data generator with a
//! pre-set seed to generate the original data frames" (§4). Reproducing
//! that requires a deterministic, seedable bit generator shared by sender
//! and receiver so the receiver can score bit errors against ground truth.
//!
//! Two generators are provided: a classical LFSR PRBS (PRBS-15/23 style,
//! standard in link testing) and a xoshiro256** word generator for bulk
//! payloads.

/// A Fibonacci LFSR producing a standard PRBS sequence.
///
/// `PRBS-k` uses the characteristic polynomial of the ITU-T O.150 family;
/// supported orders: 7 (x⁷+x⁶+1), 15 (x¹⁵+x¹⁴+1), 23 (x²³+x¹⁸+1),
/// 31 (x³¹+x²⁸+1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrbsGenerator {
    state: u32,
    order: u32,
    taps: (u32, u32),
}

impl PrbsGenerator {
    /// Creates a PRBS generator of the given order with a nonzero seed.
    ///
    /// # Panics
    /// Panics for unsupported orders. A zero seed is replaced by 1 (the
    /// all-zero LFSR state is absorbing).
    pub fn new(order: u32, seed: u32) -> Self {
        let taps = match order {
            7 => (7, 6),
            15 => (15, 14),
            23 => (23, 18),
            31 => (31, 28),
            _ => panic!("unsupported PRBS order {order} (use 7, 15, 23 or 31)"),
        };
        let mask = if order == 31 {
            u32::MAX >> 1
        } else {
            (1u32 << order) - 1
        };
        let state = seed & mask;
        Self {
            state: if state == 0 { 1 } else { state },
            order,
            taps,
        }
    }

    /// PRBS order (sequence period is `2^order − 1`).
    pub fn order(&self) -> u32 {
        self.order
    }

    /// Produces the next bit.
    pub fn next_bit(&mut self) -> bool {
        let (a, b) = self.taps;
        let new = ((self.state >> (a - 1)) ^ (self.state >> (b - 1))) & 1;
        let mask = if self.order == 31 {
            u32::MAX >> 1
        } else {
            (1u32 << self.order) - 1
        };
        self.state = ((self.state << 1) | new) & mask;
        new == 1
    }

    /// Fills a `Vec` with the next `n` bits.
    pub fn bits(&mut self, n: usize) -> Vec<bool> {
        (0..n).map(|_| self.next_bit()).collect()
    }
}

impl Iterator for PrbsGenerator {
    type Item = bool;
    fn next(&mut self) -> Option<bool> {
        Some(self.next_bit())
    }
}

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

    /// Fills a buffer with payload bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        for b in buf {
            *b = self.next_byte();
        }
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
    fn prbs_is_deterministic_per_seed() {
        let a: Vec<bool> = PrbsGenerator::new(15, 0x1234).bits(256);
        let b: Vec<bool> = PrbsGenerator::new(15, 0x1234).bits(256);
        let c: Vec<bool> = PrbsGenerator::new(15, 0x9999).bits(256);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn prbs7_has_full_period() {
        let mut g = PrbsGenerator::new(7, 1);
        // Period of PRBS-7 is 127: the state must return to the seed after
        // exactly 127 steps and not before.
        let initial = g.clone();
        let mut period = 0;
        for i in 1..=127 {
            g.next_bit();
            if g == initial {
                period = i;
                break;
            }
        }
        assert_eq!(period, 127);
    }

    #[test]
    fn prbs_is_balanced() {
        let bits = PrbsGenerator::new(15, 42).bits(1 << 15);
        let ones = bits.iter().filter(|&&b| b).count();
        let ratio = ones as f64 / bits.len() as f64;
        assert!((ratio - 0.5).abs() < 0.01, "ones ratio {ratio}");
    }

    #[test]
    fn zero_seed_is_fixed_up() {
        let mut g = PrbsGenerator::new(15, 0);
        // Must not get stuck emitting zeros forever.
        let bits = g.bits(64);
        assert!(bits.iter().any(|&b| b));
    }

    #[test]
    #[should_panic(expected = "unsupported PRBS order")]
    fn bad_order_panics() {
        let _ = PrbsGenerator::new(9, 1);
    }

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

    #[test]
    fn fill_bytes_covers_range() {
        let mut g = Xoshiro256::seed_from_u64(1);
        let mut buf = [0u8; 4096];
        g.fill_bytes(&mut buf);
        let mut seen = [false; 256];
        for &b in &buf {
            seen[b as usize] = true;
        }
        let coverage = seen.iter().filter(|&&s| s).count();
        assert!(coverage > 240, "byte coverage {coverage}");
    }
}
