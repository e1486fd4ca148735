//! Reed–Solomon codes over GF(2⁸).
//!
//! The paper applies "common error correction code such as RS code" within
//! GOBs and defers "more sophisticated error correction codes … for larger
//! GOB" to future work. This module implements the full classical pipeline
//! from scratch: systematic encoding against the generator polynomial,
//! syndrome computation, Berlekamp–Massey for the error locator, Chien
//! search for the error positions, and Forney's algorithm for the error
//! magnitudes. Erasure-aware decoding is included because the InFrame
//! receiver naturally produces erasures (undecodable Blocks).

use crate::gf256 as gf;

/// Errors returned by the Reed–Solomon codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsError {
    /// Codeword parameters are invalid (e.g. `n > 255` or `k >= n`).
    BadParameters(String),
    /// Input length does not match the configured `k` or `n`.
    LengthMismatch {
        /// Expected number of symbols.
        expected: usize,
        /// Supplied number of symbols.
        actual: usize,
    },
    /// More errors/erasures than the code can correct.
    TooManyErrors,
}

impl std::fmt::Display for RsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RsError::BadParameters(msg) => write!(f, "bad RS parameters: {msg}"),
            RsError::LengthMismatch { expected, actual } => {
                write!(f, "length mismatch: expected {expected}, got {actual}")
            }
            RsError::TooManyErrors => write!(f, "too many errors to correct"),
        }
    }
}

impl std::error::Error for RsError {}

/// A systematic Reed–Solomon code RS(n, k) over GF(2⁸).
///
/// Corrects up to `(n − k) / 2` symbol errors, or any mix satisfying
/// `2·errors + erasures ≤ n − k`.
#[derive(Debug, Clone, PartialEq)]
pub struct ReedSolomon {
    n: usize,
    k: usize,
    /// Generator polynomial, high-to-low degree, length `n − k + 1`.
    generator: Vec<u8>,
}

impl ReedSolomon {
    /// Creates an RS(n, k) codec.
    ///
    /// # Errors
    /// Returns [`RsError::BadParameters`] unless `0 < k < n ≤ 255`.
    pub fn new(n: usize, k: usize) -> Result<Self, RsError> {
        if n > 255 || k == 0 || k >= n {
            return Err(RsError::BadParameters(format!(
                "need 0 < k < n <= 255, got n={n} k={k}"
            )));
        }
        // g(x) = Π_{i=0}^{n-k-1} (x − α^i); roots at α^0 … α^{n-k-1}.
        let mut generator = vec![1u8];
        for i in 0..(n - k) {
            generator = gf::poly_mul(&generator, &[1, gf::pow_alpha(i as i32)]);
        }
        Ok(Self { n, k, generator })
    }

    /// Codeword length `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Message length `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of parity symbols `n − k`.
    pub fn parity_len(&self) -> usize {
        self.n - self.k
    }

    /// Maximum number of correctable symbol errors `⌊(n−k)/2⌋`.
    pub fn t(&self) -> usize {
        (self.n - self.k) / 2
    }

    /// Systematically encodes `msg` (length `k`) into a codeword (length
    /// `n`): message symbols first, parity appended.
    ///
    /// # Errors
    /// Returns [`RsError::LengthMismatch`] for wrong message length.
    pub fn encode(&self, msg: &[u8]) -> Result<Vec<u8>, RsError> {
        if msg.len() != self.k {
            return Err(RsError::LengthMismatch {
                expected: self.k,
                actual: msg.len(),
            });
        }
        // Polynomial long division of msg·x^{n−k} by g(x); remainder is the
        // parity block.
        let mut rem = vec![0u8; self.parity_len()];
        for &m in msg {
            let coef = gf::add(m, rem[0]);
            rem.rotate_left(1);
            *rem.last_mut().expect("parity_len >= 1") = 0;
            if coef != 0 {
                // generator[0] == 1 (monic), skip it.
                gf::mul_add_row(&mut rem, &self.generator[1..], coef);
            }
        }
        let mut out = msg.to_vec();
        out.extend_from_slice(&rem);
        Ok(out)
    }

    /// Decodes a possibly corrupted codeword, optionally with known erasure
    /// positions (indices into the codeword). Returns the corrected
    /// **message** (length `k`).
    ///
    /// # Errors
    /// Returns [`RsError::TooManyErrors`] when correction fails, or
    /// [`RsError::LengthMismatch`] for wrong codeword length.
    pub fn decode(&self, received: &[u8], erasures: &[usize]) -> Result<Vec<u8>, RsError> {
        let corrected = self.correct(received, erasures)?;
        Ok(corrected[..self.k].to_vec())
    }

    /// Like [`ReedSolomon::decode`] but returns the full corrected codeword.
    ///
    /// # Errors
    /// Same as [`ReedSolomon::decode`].
    pub fn correct(&self, received: &[u8], erasures: &[usize]) -> Result<Vec<u8>, RsError> {
        if received.len() != self.n {
            return Err(RsError::LengthMismatch {
                expected: self.n,
                actual: received.len(),
            });
        }
        if erasures.len() > self.parity_len() {
            return Err(RsError::TooManyErrors);
        }
        if erasures.iter().any(|&e| e >= self.n) {
            return Err(RsError::BadParameters("erasure index out of range".into()));
        }

        let syndromes = self.syndromes(received);
        if syndromes.iter().all(|&s| s == 0) {
            return Ok(received.to_vec());
        }

        // Erasure locator Γ(x) = Π (1 − x·α^{j_i}) where j_i is the power
        // associated with the erased position.
        let mut gamma = vec![1u8]; // low-to-high degree here
        for &e in erasures {
            // Position i in the codeword corresponds to locator α^{n-1-i}.
            let xi = gf::pow_alpha((self.n - 1 - e) as i32);
            gamma = gf::poly_mul(&gamma, &[1, xi]);
        }

        // Modified syndromes: Ξ(x) = Γ(x)·S(x) mod x^{n−k}.
        let s_poly: Vec<u8> = syndromes.clone(); // low-to-high: S1 at index 0
        let xi_poly = poly_mul_mod(&gamma, &s_poly, self.parity_len());

        // Berlekamp–Massey on the modified syndromes for the error locator.
        let lambda = berlekamp_massey(&xi_poly, erasures.len(), self.parity_len());
        let nu = poly_degree(&lambda);
        if 2 * nu + erasures.len() > self.parity_len() {
            return Err(RsError::TooManyErrors);
        }

        // Combined locator Ψ(x) = Λ(x)·Γ(x) covers errors and erasures.
        let psi = gf::poly_mul(&lambda, &gamma);

        // Chien search: roots of Ψ give error locations.
        let mut positions = Vec::new();
        for i in 0..self.n {
            // Candidate locator X = α^{n-1-i}; root test at X^{-1}.
            let x_inv = gf::pow_alpha(-((self.n - 1 - i) as i32));
            if poly_eval_lh(&psi, x_inv) == 0 {
                positions.push(i);
            }
        }
        if positions.len() != poly_degree(&psi) {
            return Err(RsError::TooManyErrors);
        }

        // Forney: error magnitude at each located position.
        // Ω(x) = S(x)·Ψ(x) mod x^{n−k}.
        let omega = poly_mul_mod(&psi, &s_poly, self.parity_len());
        let psi_deriv = poly_formal_derivative(&psi);
        let mut corrected = received.to_vec();
        for &pos in &positions {
            let x = gf::pow_alpha((self.n - 1 - pos) as i32);
            let x_inv = gf::inv(x);
            let num = poly_eval_lh(&omega, x_inv);
            let den = poly_eval_lh(&psi_deriv, x_inv);
            if den == 0 {
                return Err(RsError::TooManyErrors);
            }
            // Standard Forney with b=0 (first consecutive root α^0):
            // e = X^1 · Ω(X^{-1}) / Ψ'(X^{-1}) — the X factor compensates
            // the b=0 convention.
            let magnitude = gf::mul(x, gf::div(num, den));
            corrected[pos] = gf::add(corrected[pos], magnitude);
        }

        // Verify: all syndromes of the corrected word must vanish.
        if self.syndromes(&corrected).iter().any(|&s| s != 0) {
            return Err(RsError::TooManyErrors);
        }
        Ok(corrected)
    }

    /// Computes the `n − k` syndromes `S_j = r(α^j)` for `j = 0 …
    /// n−k−1` (low-to-high in the returned vector).
    fn syndromes(&self, received: &[u8]) -> Vec<u8> {
        (0..self.parity_len())
            .map(|j| gf::poly_eval(received, gf::pow_alpha(j as i32)))
            .collect()
    }
}

/// Polynomial helpers in **low-to-high** degree order (index = power).
/// A product is the same convolution in either order, so multiplication
/// reuses [`gf::poly_mul`].
fn poly_mul_mod(a: &[u8], b: &[u8], modulus_degree: usize) -> Vec<u8> {
    let full = gf::poly_mul(a, b);
    full.into_iter().take(modulus_degree).collect()
}

fn poly_eval_lh(p: &[u8], x: u8) -> u8 {
    let mut acc = 0u8;
    for &c in p.iter().rev() {
        acc = gf::add(gf::mul(acc, x), c);
    }
    acc
}

fn poly_degree(p: &[u8]) -> usize {
    p.iter().rposition(|&c| c != 0).unwrap_or(0)
}

/// Formal derivative over GF(2⁸): odd-power terms survive once, even-power
/// terms vanish (characteristic 2).
fn poly_formal_derivative(p: &[u8]) -> Vec<u8> {
    if p.len() <= 1 {
        return vec![0];
    }
    let mut out = vec![0u8; p.len() - 1];
    for (i, out_c) in out.iter_mut().enumerate() {
        let power = i + 1;
        if power % 2 == 1 {
            *out_c = p[power];
        }
    }
    out
}

/// Berlekamp–Massey over the (modified) syndrome sequence. `e0` erasures
/// are already accounted for; iteration starts at index `e0`.
fn berlekamp_massey(syndromes: &[u8], e0: usize, n_syn: usize) -> Vec<u8> {
    let mut lambda = vec![1u8];
    let mut b = vec![1u8];
    let mut l = 0usize;
    let mut m = 1usize;
    let mut bb = 1u8;
    for n in e0..n_syn {
        // Discrepancy δ = Σ λ_i · S_{n−i}.
        let mut delta = 0u8;
        for (i, &li) in lambda.iter().enumerate() {
            if i <= n {
                delta = gf::add(delta, gf::mul(li, syndromes[n - i]));
            }
        }
        if delta == 0 {
            m += 1;
        } else if 2 * l <= n - e0 {
            let t = lambda.clone();
            let coef = gf::div(delta, bb);
            lambda = poly_sub_scaled_shifted(&lambda, &b, coef, m);
            l = n - e0 + 1 - l;
            b = t;
            bb = delta;
            m = 1;
        } else {
            let coef = gf::div(delta, bb);
            lambda = poly_sub_scaled_shifted(&lambda, &b, coef, m);
            m += 1;
        }
    }
    lambda
}

/// `lambda − coef·x^shift·b` in characteristic 2 (subtraction = XOR).
fn poly_sub_scaled_shifted(lambda: &[u8], b: &[u8], coef: u8, shift: usize) -> Vec<u8> {
    let mut out = lambda.to_vec();
    if out.len() < b.len() + shift {
        out.resize(b.len() + shift, 0);
    }
    gf::mul_add_row(&mut out[shift..shift + b.len()], b, coef);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn msg(k: usize, seed: u8) -> Vec<u8> {
        (0..k)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
            .collect()
    }

    #[test]
    fn parameters_are_validated() {
        assert!(ReedSolomon::new(256, 4).is_err());
        assert!(ReedSolomon::new(10, 0).is_err());
        assert!(ReedSolomon::new(10, 10).is_err());
        assert!(ReedSolomon::new(10, 11).is_err());
        let rs = ReedSolomon::new(15, 11).unwrap();
        assert_eq!(rs.t(), 2);
        assert_eq!(rs.parity_len(), 4);
    }

    #[test]
    fn encode_is_systematic() {
        let rs = ReedSolomon::new(15, 11).unwrap();
        let m = msg(11, 7);
        let cw = rs.encode(&m).unwrap();
        assert_eq!(cw.len(), 15);
        assert_eq!(&cw[..11], &m[..]);
    }

    #[test]
    fn encoded_word_has_zero_syndromes() {
        let rs = ReedSolomon::new(255, 223).unwrap();
        let cw = rs.encode(&msg(223, 3)).unwrap();
        assert!(rs.syndromes(&cw).iter().all(|&s| s == 0));
    }

    #[test]
    fn clean_word_decodes_unchanged() {
        let rs = ReedSolomon::new(15, 11).unwrap();
        let m = msg(11, 1);
        let cw = rs.encode(&m).unwrap();
        assert_eq!(rs.decode(&cw, &[]).unwrap(), m);
    }

    #[test]
    fn corrects_up_to_t_errors() {
        let rs = ReedSolomon::new(15, 7).unwrap(); // t = 4
        let m = msg(7, 9);
        let cw = rs.encode(&m).unwrap();
        for n_err in 1..=4 {
            let mut rx = cw.clone();
            for e in 0..n_err {
                rx[e * 3] ^= 0x5A + e as u8;
            }
            assert_eq!(rs.decode(&rx, &[]).unwrap(), m, "{n_err} errors");
        }
    }

    #[test]
    fn t_plus_one_errors_fail_or_miscorrect_detectably() {
        let rs = ReedSolomon::new(15, 11).unwrap(); // t = 2
        let m = msg(11, 4);
        let cw = rs.encode(&m).unwrap();
        let mut rx = cw.clone();
        rx[0] ^= 1;
        rx[5] ^= 2;
        rx[10] ^= 3;
        // With 3 errors the decoder must not silently return the original.
        match rs.decode(&rx, &[]) {
            Err(RsError::TooManyErrors) => {}
            Ok(decoded) => assert_ne!(decoded, m, "must not pretend to fix 3 errors"),
            Err(e) => panic!("unexpected error {e:?}"),
        }
    }

    #[test]
    fn corrects_pure_erasures_up_to_parity_len() {
        let rs = ReedSolomon::new(15, 11).unwrap(); // 4 parity symbols
        let m = msg(11, 5);
        let cw = rs.encode(&m).unwrap();
        let mut rx = cw.clone();
        let erasures = [1usize, 4, 8, 13];
        for &e in &erasures {
            rx[e] = 0;
        }
        assert_eq!(rs.decode(&rx, &erasures).unwrap(), m);
    }

    #[test]
    fn corrects_mixed_errors_and_erasures() {
        let rs = ReedSolomon::new(15, 9).unwrap(); // 6 parity: 2e + f <= 6
        let m = msg(9, 6);
        let cw = rs.encode(&m).unwrap();
        let mut rx = cw.clone();
        rx[2] ^= 0x11; // one unknown error
        rx[7] = 0; // two erasures
        rx[12] = 0;
        assert_eq!(rs.decode(&rx, &[7, 12]).unwrap(), m);
    }

    #[test]
    fn too_many_erasures_rejected() {
        let rs = ReedSolomon::new(15, 11).unwrap();
        let cw = rs.encode(&msg(11, 2)).unwrap();
        let r = rs.decode(&cw, &[0, 1, 2, 3, 4]);
        assert_eq!(r, Err(RsError::TooManyErrors));
    }

    #[test]
    fn wrong_lengths_rejected() {
        let rs = ReedSolomon::new(15, 11).unwrap();
        assert!(matches!(
            rs.encode(&[0u8; 10]),
            Err(RsError::LengthMismatch { .. })
        ));
        assert!(matches!(
            rs.decode(&[0u8; 14], &[]),
            Err(RsError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn gob_scale_code_works() {
        // A "larger GOB" as the paper suggests: 4x4 Blocks = 16 bits = 2
        // bytes payload; RS(6, 2) over bytes protects it against 2 symbol
        // errors.
        let rs = ReedSolomon::new(6, 2).unwrap();
        let m = vec![0xAB, 0xCD];
        let cw = rs.encode(&m).unwrap();
        let mut rx = cw.clone();
        rx[0] ^= 0xFF;
        rx[3] ^= 0x0F;
        assert_eq!(rs.decode(&rx, &[]).unwrap(), m);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn random_roundtrip_with_random_errors(
            seed in any::<u64>(),
            n_err in 0usize..5,
        ) {
            let rs = ReedSolomon::new(31, 21).unwrap(); // t = 5
            let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
            let mut next = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let m: Vec<u8> = (0..21).map(|_| (next() & 0xFF) as u8).collect();
            let cw = rs.encode(&m).unwrap();
            let mut rx = cw.clone();
            let mut positions = std::collections::BTreeSet::new();
            while positions.len() < n_err {
                positions.insert((next() % 31) as usize);
            }
            for &p in &positions {
                let flip = ((next() & 0xFF) as u8) | 1; // nonzero
                rx[p] ^= flip;
            }
            prop_assert_eq!(rs.decode(&rx, &[]).unwrap(), m);
        }

        #[test]
        fn erasure_capacity_boundary(seed in any::<u8>()) {
            let rs = ReedSolomon::new(12, 8).unwrap(); // 4 parity
            let m = msg(8, seed);
            let cw = rs.encode(&m).unwrap();
            let mut rx = cw.clone();
            for &e in &[0usize, 3, 6, 9] {
                rx[e] = rx[e].wrapping_add(1);
            }
            prop_assert_eq!(rs.decode(&rx, &[0, 3, 6, 9]).unwrap(), m);
        }
    }
}
