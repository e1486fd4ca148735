//! Payload scrambling (whitening).
//!
//! Application payloads are rarely random: a run of zero bytes produces a
//! data frame with no chessboard at all (nothing for the receiver's
//! synchronizer to lock onto), and long constant runs bias the per-GOB
//! bit statistics. XOR-ing the payload with a seeded PRBS before encoding
//! — and again after decoding — makes every data frame look
//! pseudo-random regardless of content, the standard link-layer whitening
//! trick. The paper's evaluation sidesteps this by *testing with* random
//! data; real payloads want the scrambler.

use crate::prbs::Xoshiro256;

/// A self-synchronizing-free (additive) scrambler: XOR with a seeded
/// keystream. Scrambling and descrambling are the same operation with the
/// same seed and offset.
#[derive(Debug, Clone)]
pub struct Scrambler {
    seed: u64,
}

impl Scrambler {
    /// Creates a scrambler; both ends must share the seed.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Scrambles (or descrambles) `bits` as the `frame_index`-th data
    /// frame. Using the frame index in the keystream derivation keeps
    /// consecutive identical payloads from producing identical frames.
    pub fn apply(&self, bits: &[bool], frame_index: u64) -> Vec<bool> {
        let mut rng =
            Xoshiro256::seed_from_u64(self.seed ^ frame_index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        bits.iter().map(|&b| b ^ rng.next_bit()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn scramble_is_involutive() {
        let s = Scrambler::new(7);
        let payload: Vec<bool> = (0..256).map(|i| i % 5 == 0).collect();
        let scrambled = s.apply(&payload, 3);
        assert_ne!(scrambled, payload);
        let back = s.apply(&scrambled, 3);
        assert_eq!(back, payload);
    }

    #[test]
    fn different_frames_get_different_keystreams() {
        let s = Scrambler::new(7);
        let zeros = vec![false; 128];
        assert_ne!(s.apply(&zeros, 0), s.apply(&zeros, 1));
    }

    #[test]
    fn all_zero_payload_becomes_balanced() {
        let s = Scrambler::new(42);
        let n = 1 << 14;
        let out = s.apply(&vec![false; n], 0);
        let balance = out.iter().filter(|&&b| b).count() as f64 / n as f64;
        assert!((balance - 0.5).abs() < 0.02, "balance {balance}");
    }

    #[test]
    fn wrong_seed_fails_to_descramble() {
        let a = Scrambler::new(1);
        let b = Scrambler::new(2);
        let payload: Vec<bool> = (0..128).map(|i| i % 3 == 0).collect();
        let scrambled = a.apply(&payload, 0);
        assert_ne!(b.apply(&scrambled, 0), payload);
    }

    proptest! {
        #[test]
        fn involution_for_any_payload(
            payload in proptest::collection::vec(any::<bool>(), 1..512),
            seed in any::<u64>(),
            frame in any::<u64>(),
        ) {
            let s = Scrambler::new(seed);
            prop_assert_eq!(s.apply(&s.apply(&payload, frame), frame), payload);
        }
    }
}
