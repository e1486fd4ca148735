//! Per-receiver photometric perturbation: the auto-exposure gain ladder
//! the fleet simulator assigns receivers, in the integer-domain Q4.12
//! gain of [`inframe_frame::perturb::CaptureTransform`].

use inframe_frame::perturb::GAIN_ONE_Q12;

/// Discrete auto-exposure gain ladder: step `k` is the Q4.12 gain
/// `(1 + step/4096)^k`, rounded — receivers whose AE settled a few
/// steps apart snap onto a shared transform, which is what keeps the
/// fleet's distinct-variant count small.
pub fn ae_gain_q12(step_q12: i32, k: i32) -> i32 {
    let ratio = 1.0 + step_q12 as f64 / GAIN_ONE_Q12 as f64;
    (GAIN_ONE_Q12 as f64 * ratio.powi(k)).round().max(0.0) as i32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ae_ladder_is_monotone_and_snaps_to_unity() {
        let step = 256; // 1/16 per step
        assert_eq!(ae_gain_q12(step, 0), GAIN_ONE_Q12);
        let mut prev = 0;
        for k in -4..=4 {
            let g = ae_gain_q12(step, k);
            assert!(g > prev, "ladder must be strictly increasing");
            prev = g;
        }
    }
}
