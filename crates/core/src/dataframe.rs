//! Data frames: payload bits → per-Block bits and back.
//!
//! Encoding (paper §3.3): payload bits fill the first `m²−1` Block slots of
//! each GOB; the last slot carries the XOR parity. The alternative
//! Reed–Solomon mode packs the whole Block grid into bytes protected by
//! RS(n, k) with undecodable Blocks as erasures — the paper's "more
//! sophisticated error correction codes … for larger GOB" future work.

use crate::config::CodingMode;
use crate::layout::DataLayout;
use inframe_code::framing::{bytes_to_bits, LossyBits, PackedBits};
use inframe_code::parity::{gob_encode, GobStats, GobStatus};
use inframe_code::rs::ReedSolomon;

/// One data frame: a bit per Block, in grid coordinates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataFrame {
    blocks_x: usize,
    blocks_y: usize,
    /// Row-major Block bits.
    bits: Vec<bool>,
}

impl DataFrame {
    /// An all-zero data frame (no pattern anywhere).
    pub fn zero(layout: &DataLayout) -> Self {
        Self {
            blocks_x: layout.blocks_x,
            blocks_y: layout.blocks_y,
            bits: vec![false; layout.num_blocks()],
        }
    }

    /// Encodes payload bits into a data frame under the given coding mode.
    ///
    /// * `Parity` — `payload.len()` must equal
    ///   [`DataLayout::payload_bits_parity`].
    /// * `ReedSolomon` — payload must be `payload_bytes_rs(layout) * 8`
    ///   bits.
    ///
    /// # Panics
    /// Panics on payload length mismatch.
    pub fn encode(layout: &DataLayout, payload: &[bool], coding: CodingMode) -> Self {
        match coding {
            CodingMode::Parity => Self::encode_parity(layout, payload),
            CodingMode::ReedSolomon { parity_bytes } => {
                Self::encode_rs(layout, payload, parity_bytes)
            }
        }
    }

    fn encode_parity(layout: &DataLayout, payload: &[bool]) -> Self {
        assert_eq!(
            payload.len(),
            layout.payload_bits_parity(),
            "payload must carry exactly the parity-mode capacity"
        );
        let per_gob = layout.blocks_per_gob() - 1;
        let channel_bits: Vec<bool> = payload.chunks(per_gob).flat_map(gob_encode).collect();
        Self::from_channel_bits(layout, &channel_bits)
    }

    fn encode_rs(layout: &DataLayout, payload: &[bool], parity_bytes: usize) -> Self {
        let (k, codewords) = rs_geometry(layout, parity_bytes);
        assert_eq!(
            payload.len(),
            k * codewords * 8,
            "payload must carry exactly the RS-mode capacity"
        );
        let msg = PackedBits::from_bools(payload);
        let n = k + parity_bytes;
        let rs = ReedSolomon::new(n, k).expect("validated RS parameters");
        let mut coded = Vec::with_capacity(n * codewords);
        for chunk in msg.as_bytes().chunks(k) {
            coded.extend(rs.encode(chunk).expect("length checked"));
        }
        let mut channel_bits = bytes_to_bits(&coded);
        // Fit the grid, padding any leftover blocks (grid bits not
        // covered by whole codewords) with zeros.
        channel_bits.resize(layout.num_blocks(), false);
        Self::from_channel_bits(layout, &channel_bits)
    }

    fn from_channel_bits(layout: &DataLayout, channel_bits: &[bool]) -> Self {
        assert_eq!(channel_bits.len(), layout.num_blocks());
        let mut bits = vec![false; layout.num_blocks()];
        let rows = (0..layout.num_gobs()).flat_map(|g| layout.gob_rows(g));
        for (row, run) in rows.zip(channel_bits.chunks(layout.gob_size)) {
            bits[row].copy_from_slice(run);
        }
        Self {
            blocks_x: layout.blocks_x,
            blocks_y: layout.blocks_y,
            bits,
        }
    }

    /// The bit of Block `(bx, by)`.
    ///
    /// # Panics
    /// Panics for out-of-range coordinates.
    pub fn bit(&self, bx: usize, by: usize) -> bool {
        assert!(
            bx < self.blocks_x && by < self.blocks_y,
            "block out of range"
        );
        self.bits[by * self.blocks_x + bx]
    }
}

/// RS-mode geometry: bytes per codeword message (`k`) and number of whole
/// codewords fitting in the Block grid.
pub fn rs_geometry(layout: &DataLayout, parity_bytes: usize) -> (usize, usize) {
    let total_bytes = layout.num_blocks() / 8;
    let n = (parity_bytes + 2).clamp(16, 255).min(total_bytes);
    let k = n - parity_bytes;
    assert!(k >= 1, "parity bytes leave no payload");
    let codewords = total_bytes / n;
    assert!(codewords >= 1, "grid too small for one RS codeword");
    (k, codewords)
}

/// RS-mode payload capacity in bits.
pub fn payload_bits_rs(layout: &DataLayout, parity_bytes: usize) -> usize {
    let (k, codewords) = rs_geometry(layout, parity_bytes);
    k * codewords * 8
}

/// Decodes received per-Block verdicts back into payload bits.
///
/// `received` holds one verdict per Block, row-major over the grid: the
/// decoded bit, or an erasure for an undecodable Block.
///
/// Returns the recovered payload (only bits from clean GOBs / corrected
/// codewords; failed units contribute erasures) and the GOB statistics
/// that Figure 7 reports.
pub fn decode(
    layout: &DataLayout,
    received: &LossyBits,
    coding: CodingMode,
) -> (LossyBits, GobStats) {
    assert_eq!(
        received.len(),
        layout.num_blocks(),
        "verdict length mismatch"
    );
    match coding {
        CodingMode::Parity => decode_parity(layout, received),
        CodingMode::ReedSolomon { parity_bytes } => decode_rs(layout, received, parity_bytes),
    }
}

/// A GOB is available when none of its Blocks is erased, and erroneous
/// when its Blocks (payload plus parity) XOR to 1.
fn decode_parity(layout: &DataLayout, received: &LossyBits) -> (LossyBits, GobStats) {
    let per_gob = layout.blocks_per_gob() - 1;
    let mut stats = GobStats::default();
    let mut payload = LossyBits::with_capacity(layout.payload_bits_parity());
    for g in 0..layout.num_gobs() {
        let rows = || layout.gob_rows(g);
        let status = if !rows().all(|row| received.is_intact(row)) {
            GobStatus::Unavailable
        } else if rows().fold(false, |odd, row| odd ^ received.parity(row)) {
            GobStatus::Erroneous
        } else {
            GobStatus::Ok
        };
        stats.record(status);
        if status == GobStatus::Ok {
            // Channel order, less the trailing parity Block.
            let end = payload.len() + per_gob;
            for row in rows() {
                let take = row.len().min(end - payload.len());
                payload.extend_from(received, row.start..row.start + take);
            }
        } else {
            (0..per_gob).for_each(|_| payload.push(None));
        }
    }
    (payload, stats)
}

fn decode_rs(
    layout: &DataLayout,
    received: &LossyBits,
    parity_bytes: usize,
) -> (LossyBits, GobStats) {
    let (k, codewords) = rs_geometry(layout, parity_bytes);
    let n = k + parity_bytes;
    let rs = ReedSolomon::new(n, k).expect("validated RS parameters");
    // Channel-order bits → bytes with erasure tracking: a byte is an
    // erasure if any of its bits is undecodable.
    let mut channel = LossyBits::with_capacity(layout.num_blocks());
    for row in (0..layout.num_gobs()).flat_map(|g| layout.gob_rows(g)) {
        channel.extend_from(received, row);
    }
    let bytes = channel.values().as_bytes();
    let erased = |byte: usize| !channel.is_intact(8 * byte..8 * byte + 8);
    // GobStats reinterpretation for RS mode: one "GOB" = one codeword;
    // available = corrected successfully, erroneous = correction failed.
    let mut stats = GobStats::default();
    let mut payload = LossyBits::with_capacity(k * codewords * 8);
    for c in 0..codewords {
        let cw = &bytes[c * n..(c + 1) * n];
        let erasures: Vec<usize> = (0..n).filter(|&i| erased(c * n + i)).collect();
        match rs.decode(cw, &erasures) {
            Ok(msg) => {
                stats.record(GobStatus::Ok);
                bytes_to_bits(&msg)
                    .into_iter()
                    .for_each(|b| payload.push(Some(b)));
            }
            Err(_) => {
                stats.record(GobStatus::Erroneous);
                (0..k * 8).for_each(|_| payload.push(None));
            }
        }
    }
    (payload, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InFrameConfig;
    use inframe_code::prbs::Xoshiro256;
    use proptest::prelude::*;

    fn layout() -> DataLayout {
        DataLayout::from_config(&InFrameConfig::small_test())
    }

    fn random_payload(n: usize, seed: u64) -> Vec<bool> {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        (0..n).map(|_| rng.next_bit()).collect()
    }

    #[test]
    fn zero_frame_has_no_ones() {
        let l = layout();
        let f = DataFrame::zero(&l);
        assert!(f.bits.iter().all(|&b| !b));
        assert_eq!(f.blocks_x, l.blocks_x);
    }

    #[test]
    fn parity_roundtrip_clean_channel() {
        let l = layout();
        let payload = random_payload(l.payload_bits_parity(), 1);
        let frame = DataFrame::encode(&l, &payload, CodingMode::Parity);
        // Perfect reception: read every block bit back.
        let received: Vec<Option<bool>> = (0..l.num_blocks())
            .map(|i| {
                let (bx, by) = (i % l.blocks_x, i / l.blocks_x);
                Some(frame.bit(bx, by))
            })
            .collect();
        let (decoded, stats) = decode(&l, &received.iter().copied().collect(), CodingMode::Parity);
        assert_eq!(stats.available_ratio(), 1.0);
        assert_eq!(stats.error_rate(), 0.0);
        let bits: Vec<bool> = decoded.iter().map(|b| b.unwrap()).collect();
        assert_eq!(bits, payload);
    }

    #[test]
    fn parity_flags_flipped_block() {
        let l = layout();
        let payload = random_payload(l.payload_bits_parity(), 2);
        let frame = DataFrame::encode(&l, &payload, CodingMode::Parity);
        let mut received: Vec<Option<bool>> = (0..l.num_blocks())
            .map(|i| Some(frame.bit(i % l.blocks_x, i / l.blocks_x)))
            .collect();
        received[0] = Some(!received[0].unwrap());
        let (_, stats) = decode(&l, &received.iter().copied().collect(), CodingMode::Parity);
        assert_eq!(stats.erroneous, 1);
        assert_eq!(stats.available_ratio(), 1.0);
    }

    #[test]
    fn parity_marks_missing_block_unavailable() {
        let l = layout();
        let payload = random_payload(l.payload_bits_parity(), 3);
        let frame = DataFrame::encode(&l, &payload, CodingMode::Parity);
        let mut received: Vec<Option<bool>> = (0..l.num_blocks())
            .map(|i| Some(frame.bit(i % l.blocks_x, i / l.blocks_x)))
            .collect();
        received[5] = None;
        let (decoded, stats) = decode(&l, &received.iter().copied().collect(), CodingMode::Parity);
        assert_eq!(stats.unavailable, 1);
        assert!(decoded.iter().any(|b| b.is_none()));
    }

    #[test]
    fn rs_roundtrip_clean_channel() {
        let l = layout();
        let parity_bytes = 4;
        let cap = payload_bits_rs(&l, parity_bytes);
        assert!(cap > 0);
        let payload = random_payload(cap, 4);
        let coding = CodingMode::ReedSolomon { parity_bytes };
        let frame = DataFrame::encode(&l, &payload, coding);
        let received: Vec<Option<bool>> = (0..l.num_blocks())
            .map(|i| Some(frame.bit(i % l.blocks_x, i / l.blocks_x)))
            .collect();
        let (decoded, stats) = decode(&l, &received.iter().copied().collect(), coding);
        assert_eq!(stats.error_rate(), 0.0);
        let bits: Vec<bool> = decoded.iter().map(|b| b.unwrap()).collect();
        assert_eq!(bits, payload);
    }

    #[test]
    fn rs_corrects_missing_blocks() {
        let l = layout();
        let parity_bytes = 6;
        let coding = CodingMode::ReedSolomon { parity_bytes };
        let payload = random_payload(payload_bits_rs(&l, parity_bytes), 5);
        let frame = DataFrame::encode(&l, &payload, coding);
        let mut received: Vec<Option<bool>> = (0..l.num_blocks())
            .map(|i| Some(frame.bit(i % l.blocks_x, i / l.blocks_x)))
            .collect();
        // Knock out a contiguous run of blocks: within RS erasure budget
        // (6 parity bytes → up to 6 erased bytes per codeword).
        for r in received.iter_mut().take(16) {
            *r = None;
        }
        let (decoded, _) = decode(&l, &received.iter().copied().collect(), coding);
        let bits: Vec<bool> = decoded.iter().map(|b| b.unwrap()).collect();
        assert_eq!(bits, payload, "RS must heal the erased run");
    }

    #[test]
    fn rs_capacity_is_below_parity_grid_but_corrects_more() {
        let l = layout();
        // Sanity: capacities are positive and RS trades capacity for
        // correction.
        let parity_cap = l.payload_bits_parity();
        let rs_cap = payload_bits_rs(&l, 4);
        assert!(parity_cap > 0 && rs_cap > 0);
    }

    #[test]
    fn bit_packing_roundtrip_exact_bytes() {
        let bits = bytes_to_bits(&[0xA5, 0x3C]);
        assert_eq!(PackedBits::from_bools(&bits).as_bytes(), [0xA5, 0x3C]);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn wrong_payload_length_panics() {
        let l = layout();
        let _ = DataFrame::encode(&l, &[true; 3], CodingMode::Parity);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn parity_roundtrip_random(seed in any::<u64>()) {
            let l = layout();
            let payload = random_payload(l.payload_bits_parity(), seed);
            let frame = DataFrame::encode(&l, &payload, CodingMode::Parity);
            let received: Vec<Option<bool>> = (0..l.num_blocks())
                .map(|i| Some(frame.bit(i % l.blocks_x, i / l.blocks_x)))
                .collect();
            let (decoded, stats) = decode(&l, &received.iter().copied().collect(), CodingMode::Parity);
            prop_assert_eq!(stats.total(), l.num_gobs() as u64);
            let bits: Vec<bool> = decoded.iter().map(|b| b.unwrap()).collect();
            prop_assert_eq!(bits, payload);
        }

        #[test]
        fn pack_unpack_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 1..32)) {
            let packed = PackedBits::from_bools(&bytes_to_bits(&bytes));
            prop_assert_eq!(packed.as_bytes(), &bytes[..]);
        }
    }
}
