//! Arithmetic in GF(2⁸) with the primitive polynomial
//! `x⁸ + x⁴ + x³ + x² + 1` (0x11D), the conventional field for
//! Reed–Solomon codes (QR codes use the same one — fitting, given the
//! paper's data frames are QR-like).
//!
//! Implementation uses exp/log tables built at first use.

/// The primitive polynomial 0x11D reduced modulo x⁸ (low 8 bits + carry).
const PRIM: u16 = 0x11D;

/// Exponent/log tables for GF(2⁸) under generator α = 2.
struct Tables {
    exp: [u8; 512],
    log: [u8; 256],
}

fn tables() -> &'static Tables {
    use std::sync::OnceLock;
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut exp = [0u8; 512];
        let mut log = [0u8; 256];
        let mut x: u16 = 1;
        for (i, e) in exp.iter_mut().enumerate().take(255) {
            *e = x as u8;
            log[x as usize] = i as u8;
            x <<= 1;
            if x & 0x100 != 0 {
                x ^= PRIM;
            }
        }
        // Duplicate so products of logs (< 510) index without a modulo.
        for i in 255..512 {
            exp[i] = exp[i - 255];
        }
        Tables { exp, log }
    })
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
    let t = tables();
    t.exp[t.log[a as usize] as usize + t.log[b as usize] as usize]
}

/// Multiplicative inverse in GF(2⁸).
///
/// # Panics
/// Panics on `a == 0` (zero has no inverse).
#[inline]
pub fn inv(a: u8) -> u8 {
    assert!(a != 0, "zero has no multiplicative inverse in GF(256)");
    let t = tables();
    t.exp[255 - t.log[a as usize] as usize]
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
    let t = tables();
    let diff = t.log[a as usize] as i32 - t.log[b as usize] as i32;
    let idx = if diff < 0 { diff + 255 } else { diff } as usize;
    t.exp[idx]
}

/// `α^p` for the generator α = 2 (p taken modulo 255, negatives allowed).
#[inline]
pub fn pow_alpha(p: i32) -> u8 {
    let t = tables();
    let p = p.rem_euclid(255) as usize;
    t.exp[p]
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
        if ai == 0 {
            continue;
        }
        for (j, &bj) in b.iter().enumerate() {
            out[i + j] ^= mul(ai, bj);
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
