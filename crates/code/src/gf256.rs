//! Arithmetic in GF(2⁸) with the primitive polynomial
//! `x⁸ + x⁴ + x³ + x² + 1` (0x11D), the conventional field for
//! Reed–Solomon codes (QR codes use the same one — fitting, given the
//! paper's data frames are QR-like).
//!
//! Every table is built at compile time: exp/log tables for the scalar
//! operations, and per-factor split-nibble product tables for the row
//! kernels [`mul_add_row`] and [`scale_row`]. Those two are the scalar
//! oracle of the vector row kernels in `inframe_frame::simd`, which
//! look up the same 16-entry tables with a byte shuffle.

/// The primitive polynomial 0x11D reduced modulo x⁸ (low 8 bits + carry).
const PRIM: u16 = 0x11D;

/// `α^i` for the generator α = 2, duplicated past 255 so a sum of two
/// logs (< 510) indexes without a modulo.
static EXP: [u8; 512] = build_exp();

/// `log_α(x)` for nonzero `x` (entry 0 is unused).
static LOG: [u8; 256] = build_log();

/// Split-nibble product tables: `NIBBLE_MUL[c][0][x] = c·x` and
/// `NIBBLE_MUL[c][1][x] = c·(x << 4)` for `x < 16`, so
/// `c·b = NIBBLE_MUL[c][0][b & 15] ⊕ NIBBLE_MUL[c][1][b >> 4]`.
static NIBBLE_MUL: [[[u8; 16]; 2]; 256] = build_nibble_mul();

const fn build_exp() -> [u8; 512] {
    let mut exp = [0u8; 512];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= PRIM;
        }
        i += 1;
    }
    while i < 512 {
        exp[i] = exp[i - 255];
        i += 1;
    }
    exp
}

const fn build_log() -> [u8; 256] {
    let exp = build_exp();
    let mut log = [0u8; 256];
    let mut i = 0;
    while i < 255 {
        log[exp[i] as usize] = i as u8;
        i += 1;
    }
    log
}

/// Shift-and-add product, for building the nibble tables at compile time.
const fn mul_slow(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    while b != 0 {
        if b & 1 != 0 {
            p ^= a;
        }
        let carry = a & 0x80 != 0;
        a <<= 1;
        if carry {
            a ^= PRIM as u8;
        }
        b >>= 1;
    }
    p
}

const fn build_nibble_mul() -> [[[u8; 16]; 2]; 256] {
    let mut t = [[[0u8; 16]; 2]; 256];
    let mut c = 0;
    while c < 256 {
        let mut x = 0;
        while x < 16 {
            t[c][0][x] = mul_slow(c as u8, x as u8);
            t[c][1][x] = mul_slow(c as u8, (x as u8) << 4);
            x += 1;
        }
        c += 1;
    }
    t
}

/// The split-nibble product tables of factor `c`: `[low, high]`, where
/// `low[x] = c·x` and `high[x] = c·(x << 4)` for `x < 16`.
#[inline]
pub fn nibble_tables(c: u8) -> &'static [[u8; 16]; 2] {
    &NIBBLE_MUL[c as usize]
}

/// Addition in GF(2⁸): XOR.
#[inline]
pub fn add(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Multiplication in GF(2⁸).
#[inline]
pub fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        return 0;
    }
    EXP[LOG[a as usize] as usize + LOG[b as usize] as usize]
}

/// Multiplicative inverse in GF(2⁸).
///
/// # Panics
/// Panics on `a == 0` (zero has no inverse).
#[inline]
pub fn inv(a: u8) -> u8 {
    assert!(a != 0, "zero has no multiplicative inverse in GF(256)");
    EXP[255 - LOG[a as usize] as usize]
}

/// Division `a / b` in GF(2⁸).
///
/// # Panics
/// Panics on division by zero.
#[inline]
pub fn div(a: u8, b: u8) -> u8 {
    assert!(b != 0, "division by zero in GF(256)");
    if a == 0 {
        return 0;
    }
    let diff = LOG[a as usize] as i32 - LOG[b as usize] as i32;
    let idx = if diff < 0 { diff + 255 } else { diff } as usize;
    EXP[idx]
}

/// `α^p` for the generator α = 2 (p taken modulo 255, negatives allowed).
#[inline]
pub fn pow_alpha(p: i32) -> u8 {
    EXP[p.rem_euclid(255) as usize]
}

/// Row multiply-accumulate `dst[i] ⊕= c·src[i]`, one nibble-table pair
/// lookup per byte.
///
/// # Panics
/// Panics if the rows differ in length.
pub fn mul_add_row(dst: &mut [u8], src: &[u8], c: u8) {
    assert_eq!(dst.len(), src.len(), "GF(256) rows must match");
    let [lo, hi] = nibble_tables(c);
    for (d, &s) in dst.iter_mut().zip(src) {
        *d ^= lo[(s & 15) as usize] ^ hi[(s >> 4) as usize];
    }
}

/// Row scaling `row[i] = c·row[i]`, one nibble-table pair lookup per
/// byte.
pub fn scale_row(row: &mut [u8], c: u8) {
    let [lo, hi] = nibble_tables(c);
    for b in row.iter_mut() {
        *b = lo[(*b & 15) as usize] ^ hi[(*b >> 4) as usize];
    }
}

/// Evaluates the polynomial `poly` (coefficients high-to-low degree) at `x`
/// by Horner's rule.
pub fn poly_eval(poly: &[u8], x: u8) -> u8 {
    let mut y = 0u8;
    for &c in poly {
        y = add(mul(y, x), c);
    }
    y
}

/// Multiplies two polynomials over GF(2⁸) (coefficients high-to-low).
pub fn poly_mul(a: &[u8], b: &[u8]) -> Vec<u8> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = vec![0u8; a.len() + b.len() - 1];
    for (i, &ai) in a.iter().enumerate() {
        if ai != 0 {
            mul_add_row(&mut out[i..i + b.len()], b, ai);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn addition_is_xor_and_self_inverse() {
        assert_eq!(add(0x57, 0x83), 0xD4);
        for a in 0..=255u8 {
            assert_eq!(add(a, a), 0);
        }
    }

    #[test]
    fn multiplication_identities() {
        for a in 0..=255u8 {
            assert_eq!(mul(a, 1), a);
            assert_eq!(mul(a, 0), 0);
            assert_eq!(mul(1, a), a);
        }
    }

    #[test]
    fn known_product() {
        // 0x57 * 0x83 = 0x31 under 0x11D (the AES example value 0xC1 holds
        // only for the AES polynomial 0x11B).
        assert_eq!(mul(0x57, 0x83), 0x31);
    }

    #[test]
    fn inverse_roundtrip_all_nonzero() {
        for a in 1..=255u8 {
            assert_eq!(mul(a, inv(a)), 1, "a={a}");
        }
    }

    #[test]
    #[should_panic(expected = "no multiplicative inverse")]
    fn inverse_of_zero_panics() {
        let _ = inv(0);
    }

    #[test]
    fn generator_has_full_order() {
        // α = 2 must generate all 255 nonzero elements.
        let mut seen = [false; 256];
        for p in 0..255 {
            let v = pow_alpha(p);
            assert!(!seen[v as usize], "repeat at α^{p}");
            seen[v as usize] = true;
        }
        assert_eq!(pow_alpha(0), 1);
        assert_eq!(pow_alpha(255), 1);
        assert_eq!(pow_alpha(-1), pow_alpha(254));
    }

    #[test]
    fn poly_eval_horner() {
        // p(x) = 2x² + 3x + 5 at x = 4: 2*16 ⊕ 3*4 ⊕ 5 in GF arithmetic.
        let expect = add(add(mul(2, mul(4, 4)), mul(3, 4)), 5);
        assert_eq!(poly_eval(&[2, 3, 5], 4), expect);
    }

    #[test]
    fn nibble_tables_match_mul_for_every_pair() {
        for c in 0..=255u8 {
            let [lo, hi] = nibble_tables(c);
            for b in 0..=255u8 {
                assert_eq!(lo[(b & 15) as usize] ^ hi[(b >> 4) as usize], mul(c, b));
            }
        }
    }

    #[test]
    fn row_kernels_match_mul_for_every_factor_and_length() {
        let src: Vec<u8> = (0..131u32).map(|i| (i * 151 + 7) as u8).collect();
        let base: Vec<u8> = (0..131u32).map(|i| (i * 89 + 3) as u8).collect();
        for c in 0..=255u8 {
            for len in 0..=130 {
                let mut dst = base[..len].to_vec();
                mul_add_row(&mut dst, &src[..len], c);
                let mut row = src[..len].to_vec();
                scale_row(&mut row, c);
                for i in 0..len {
                    assert_eq!(dst[i], base[i] ^ mul(c, src[i]), "c={c} len={len} i={i}");
                    assert_eq!(row[i], mul(c, src[i]), "c={c} len={len} i={i}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "rows must match")]
    fn mul_add_row_rejects_mismatched_rows() {
        mul_add_row(&mut [0u8; 3], &[0u8; 4], 7);
    }

    #[test]
    fn poly_mul_by_unit_is_identity() {
        let p = [7u8, 0, 3, 1];
        assert_eq!(poly_mul(&p, &[1]), p.to_vec());
    }

    proptest! {
        #[test]
        fn field_axioms(a in 0u8..=255, b in 0u8..=255, c in 0u8..=255) {
            // Commutativity and associativity of multiplication.
            prop_assert_eq!(mul(a, b), mul(b, a));
            prop_assert_eq!(mul(mul(a, b), c), mul(a, mul(b, c)));
            // Distributivity over addition.
            prop_assert_eq!(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
        }

        #[test]
        fn division_inverts_multiplication(a in 0u8..=255, b in 1u8..=255) {
            prop_assert_eq!(div(mul(a, b), b), a);
        }

        #[test]
        fn poly_eval_distributes_over_mul(
            a in proptest::collection::vec(0u8..=255, 1..5),
            b in proptest::collection::vec(0u8..=255, 1..5),
            x in 0u8..=255,
        ) {
            let prod = poly_mul(&a, &b);
            prop_assert_eq!(poly_eval(&prod, x), mul(poly_eval(&a, x), poly_eval(&b, x)));
        }
    }
}
