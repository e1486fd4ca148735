//! Color primitives: the sRGB transfer functions.
//!
//! The display simulator converts code values to emitted light through the
//! sRGB electro-optical transfer function (EOTF); the HVS model operates in
//! linear light.

/// sRGB EOTF: code value in `[0, 1]` → linear light in `[0, 1]`.
///
/// This is the piecewise IEC 61966-2-1 curve, not the pure 2.2 power law.
#[inline]
pub fn srgb_to_linear(c: f32) -> f32 {
    let c = c.clamp(0.0, 1.0);
    if c <= 0.040_45 {
        c / 12.92
    } else {
        ((c + 0.055) / 1.055).powf(2.4)
    }
}

/// sRGB OETF (inverse EOTF): linear light in `[0, 1]` → code value.
#[inline]
pub fn linear_to_srgb(l: f32) -> f32 {
    let l = l.clamp(0.0, 1.0);
    if l <= 0.003_130_8 {
        l * 12.92
    } else {
        1.055 * l.powf(1.0 / 2.4) - 0.055
    }
}

/// Converts an 8-bit-scale code value `[0, 255]` to linear light `[0, 1]`.
#[inline]
pub fn code_to_linear(code: f32) -> f32 {
    srgb_to_linear(code / 255.0)
}

/// Converts linear light `[0, 1]` to an 8-bit-scale code value `[0, 255]`.
#[inline]
pub fn linear_to_code(l: f32) -> f32 {
    linear_to_srgb(l) * 255.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn srgb_curve_endpoints() {
        assert_eq!(srgb_to_linear(0.0), 0.0);
        assert!((srgb_to_linear(1.0) - 1.0).abs() < 1e-6);
        assert_eq!(linear_to_srgb(0.0), 0.0);
        assert!((linear_to_srgb(1.0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn srgb_is_monotone_and_below_identity_midrange() {
        // Gamma expansion makes mid-gray darker in linear light.
        let mid = srgb_to_linear(0.5);
        assert!(mid < 0.5);
        assert!(mid > 0.15);
        let mut prev = -1.0;
        for i in 0..=100 {
            let v = srgb_to_linear(i as f32 / 100.0);
            assert!(v >= prev);
            prev = v;
        }
    }

    proptest! {
        #[test]
        fn srgb_roundtrip(c in 0.0f32..=1.0) {
            let rt = linear_to_srgb(srgb_to_linear(c));
            prop_assert!((rt - c).abs() < 1e-5);
        }
    }
}
