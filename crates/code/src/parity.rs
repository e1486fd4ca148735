//! The paper's GOB parity scheme.
//!
//! §3.3: "we form GOB from 2 ∗ 2 neighboring Blocks, and apply XOR-based
//! parity checking, where the fourth Block bit is a parity bit generated by
//! performing xor on the other three Blocks in the same GOB." A GOB is
//! *available* when all component Blocks are decoded; an available GOB that
//! fails the parity check is *erroneous*.

/// Decode outcome of one GOB after demultiplexing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GobStatus {
    /// All component Blocks decoded and parity holds: 3 payload bits usable.
    Ok,
    /// All component Blocks decoded but parity fails.
    Erroneous,
    /// At least one component Block could not be decoded.
    Unavailable,
}

/// Encodes `m*m − 1` payload bits into a full GOB by appending the XOR
/// parity bit.
///
/// For the paper's 2×2 GOB pass 3 payload bits; the general form supports
/// the "larger GOB" discussion.
///
/// # Panics
/// Panics if `payload` is empty.
pub fn gob_encode(payload: &[bool]) -> Vec<bool> {
    assert!(!payload.is_empty(), "payload must be nonempty");
    let mut out = payload.to_vec();
    out.push(gob_parity(payload));
    out
}

/// The XOR parity bit [`gob_encode`] appends to a GOB's payload bits.
pub fn gob_parity(payload: &[bool]) -> bool {
    payload.iter().fold(false, |acc, &b| acc ^ b)
}

/// Aggregate statistics over many GOBs — exactly the quantities Figure 7
/// reports (available GOB ratio and error rate).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GobStats {
    /// GOBs whose Blocks all decoded.
    pub available: u64,
    /// Available GOBs that failed parity.
    pub erroneous: u64,
    /// GOBs with at least one undecodable Block.
    pub unavailable: u64,
}

impl GobStats {
    /// Records one GOB outcome.
    pub fn record(&mut self, status: GobStatus) {
        match status {
            GobStatus::Ok => self.available += 1,
            GobStatus::Erroneous => {
                self.available += 1;
                self.erroneous += 1;
            }
            GobStatus::Unavailable => self.unavailable += 1,
        }
    }

    /// Total GOBs observed.
    pub fn total(&self) -> u64 {
        self.available + self.unavailable
    }

    /// The paper's "available GOB ratio" (Figure 7 top annotation).
    pub fn available_ratio(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.available as f64 / self.total() as f64
        }
    }

    /// The paper's "error rate" — erroneous GOBs among available ones
    /// (Figure 7 parenthesized annotation).
    pub fn error_rate(&self) -> f64 {
        if self.available == 0 {
            0.0
        } else {
            self.erroneous as f64 / self.available as f64
        }
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &GobStats) {
        self.available += other.available;
        self.erroneous += other.erroneous;
        self.unavailable += other.unavailable;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::LossyBits;
    use proptest::prelude::*;

    #[test]
    fn encode_appends_xor_parity() {
        assert_eq!(
            gob_encode(&[true, false, true]),
            vec![true, false, true, false]
        );
        assert_eq!(
            gob_encode(&[true, true, true]),
            vec![true, true, true, true]
        );
        assert_eq!(gob_encode(&[false, false, false]), vec![false; 4]);
    }

    /// A received GOB as the decoder sees it: every bit decoded.
    fn received(bits: &[bool]) -> LossyBits {
        bits.iter().map(|&b| Some(b)).collect()
    }

    #[test]
    fn clean_gob_has_even_parity() {
        let rx = received(&gob_encode(&[true, false, true]));
        assert!(rx.is_intact(0..4));
        assert!(!rx.parity(0..4));
    }

    #[test]
    fn double_flip_escapes_parity() {
        // Parity is only single-error-detecting — the paper's stated
        // limitation that motivates RS for larger GOBs.
        let mut enc = gob_encode(&[true, false, true]);
        enc[0] = !enc[0];
        enc[1] = !enc[1];
        assert!(!received(&enc).parity(0..4));
    }

    #[test]
    fn stats_match_figure7_semantics() {
        let mut s = GobStats::default();
        for _ in 0..90 {
            s.record(GobStatus::Ok);
        }
        for _ in 0..5 {
            s.record(GobStatus::Erroneous);
        }
        for _ in 0..5 {
            s.record(GobStatus::Unavailable);
        }
        assert_eq!(s.total(), 100);
        assert!((s.available_ratio() - 0.95).abs() < 1e-12);
        assert!((s.error_rate() - 5.0 / 95.0).abs() < 1e-12);
    }

    #[test]
    fn stats_merge_adds_counts() {
        let mut a = GobStats::default();
        a.record(GobStatus::Ok);
        let mut b = GobStats::default();
        b.record(GobStatus::Unavailable);
        b.record(GobStatus::Erroneous);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.erroneous, 1);
    }

    #[test]
    fn empty_stats_have_zero_rates() {
        let s = GobStats::default();
        assert_eq!(s.available_ratio(), 0.0);
        assert_eq!(s.error_rate(), 0.0);
    }

    proptest! {
        #[test]
        fn any_single_error_is_detected(
            payload in proptest::collection::vec(any::<bool>(), 1..16),
            flip in 0usize..16,
        ) {
            let mut enc = gob_encode(&payload);
            let flip = flip % enc.len();
            enc[flip] = !enc[flip];
            prop_assert!(received(&enc).parity(0..enc.len()));
        }
    }
}
