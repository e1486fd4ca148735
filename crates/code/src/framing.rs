//! Message framing over the InFrame bit pipe.
//!
//! The channel delivers a stream of payload bits with occasional losses
//! and no alignment guarantees. Applications need messages: this module
//! frames byte payloads as
//!
//! ```text
//! magic (1) | length (1) | payload (length) | crc16 (2)
//! ```
//!
//! and recovers them by scanning the received bitstream at every bit
//! offset, validating with CRC-16 — the standard treatment for a lossy,
//! alignment-free pipe (and what the `ad_coupons` / `sports_ticker`
//! examples do by hand with their own record shapes).
//!
//! The scan hot path works on [`PackedBits`] — bits packed into `u8`
//! words with bit-addressed byte extraction — so candidate offsets are
//! checked by shifting two adjacent words and folding bytes into a
//! streaming CRC register ([`crate::crc::crc16_ccitt_update`]); nothing
//! is allocated per offset. The historical `&[bool]` API is kept as a
//! thin wrapper that packs once. Receivers carry decoded bits with their
//! erasures as [`LossyBits`].

use crate::crc::{crc16_ccitt, crc16_ccitt_update, CRC16_CCITT_INIT};
use std::fmt;
use std::ops::Range;

/// Frame delimiter byte.
pub const MAGIC: u8 = 0xA7;

/// Maximum payload bytes per frame.
pub const MAX_PAYLOAD: usize = 255;

/// Non-payload bytes per frame: magic, length and CRC-16.
pub const OVERHEAD_BYTES: usize = 4;

/// A bitstream packed MSB-first into `u8` words.
///
/// Supports batch construction (from bools or bytes) and streaming use
/// (push bits at the tail, discard consumed bits at the head) so a
/// receiver can scan an unbounded stream with a bounded rolling buffer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PackedBits {
    words: Vec<u8>,
    bit_len: usize,
}

impl PackedBits {
    /// Packs a bool slice.
    pub fn from_bools(bits: &[bool]) -> Self {
        let word = |c: &[bool]| c.iter().fold(0u8, |w, &b| w << 1 | b as u8) << (8 - c.len());
        Self {
            words: bits.chunks(8).map(word).collect(),
            bit_len: bits.len(),
        }
    }

    /// Number of bits held.
    pub fn bit_len(&self) -> usize {
        self.bit_len
    }

    /// Appends one bit.
    pub fn push_bit(&mut self, bit: bool) {
        if self.bit_len.is_multiple_of(8) {
            self.words.push(0);
        }
        if bit {
            self.words[self.bit_len / 8] |= 1 << (7 - self.bit_len % 8);
        }
        self.bit_len += 1;
    }

    /// Appends the bits `range` of `src`, a word's worth per step.
    #[inline]
    pub fn extend_from(&mut self, src: &PackedBits, range: Range<usize>) {
        assert!(range.end <= src.bit_len, "bit range out of bounds");
        for i in range.clone().step_by(8) {
            let n = (range.end - i).min(8);
            let byte = src.bits8(i) & (0xFF << (8 - n));
            let fill = self.bit_len % 8;
            if fill == 0 {
                self.words.push(byte);
            } else {
                *self.words.last_mut().expect("a partial word") |= byte >> fill;
                if fill + n > 8 {
                    self.words.push(byte << (8 - fill));
                }
            }
            self.bit_len += n;
        }
    }

    /// Sets every bit of `range` to `bit`.
    fn fill(&mut self, range: Range<usize>, bit: bool) {
        for (w, mask) in self.word_masks(range) {
            let keep = self.words[w] & !mask;
            self.words[w] = if bit { keep | mask } else { keep };
        }
    }

    /// Number of set bits in `range`.
    fn count_ones(&self, range: Range<usize>) -> u32 {
        let ones = |(w, mask): (usize, u8)| (self.words[w] & mask).count_ones();
        self.word_masks(range).map(ones).sum()
    }

    /// Each word `range` touches, with the mask of its bits in the range.
    fn word_masks(&self, range: Range<usize>) -> impl Iterator<Item = (usize, u8)> {
        assert!(range.end <= self.bit_len, "bit range out of bounds");
        (range.start / 8..range.end.div_ceil(8)).map(move |w| {
            let lo = range.start.max(8 * w) - 8 * w;
            let hi = range.end.min(8 * w + 8) - 8 * w;
            (w, (0xFF >> lo) & (0xFF << (8 - hi)))
        })
    }

    /// The packed words, MSB-first, the last one zero-padded.
    pub fn as_bytes(&self) -> &[u8] {
        &self.words
    }

    /// The bit at `index`.
    ///
    /// # Panics
    /// Panics when out of range.
    pub fn bit(&self, index: usize) -> bool {
        assert!(index < self.bit_len, "bit index out of range");
        self.words[index / 8] & (1 << (7 - index % 8)) != 0
    }

    /// The 8 bits from `bit_offset` (which must lie in a held word), zero
    /// past the last word: two word reads and a shift.
    #[inline]
    fn bits8(&self, bit_offset: usize) -> u8 {
        let w = bit_offset / 8;
        let pair = u16::from_be_bytes([self.words[w], *self.words.get(w + 1).unwrap_or(&0)]);
        (pair << (bit_offset % 8) >> 8) as u8
    }

    /// Drops the first `n` bits (clamped to the length), shifting the
    /// remainder down. Whole bytes are drained; a sub-byte residue is
    /// shifted through the buffer once.
    pub fn discard_front(&mut self, n: usize) {
        let n = n.min(self.bit_len);
        self.words.drain(..n / 8);
        self.bit_len -= n;
        if !n.is_multiple_of(8) {
            for i in 0..self.words.len() {
                self.words[i] = self.bits8(8 * i + n % 8);
            }
            self.words.truncate(self.bit_len.div_ceil(8));
        }
    }
}

/// Decoded bits with erasures: packed values plus a same-length erasure
/// mask. An erased position keeps its value bit at 0, so equality means
/// equality of the `Option<bool>` verdicts (`None` = erased), and
/// [`fmt::Debug`] prints them as that list.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct LossyBits {
    values: PackedBits,
    erased: PackedBits,
}

impl LossyBits {
    /// An empty sequence with room for `bits` verdicts.
    pub fn with_capacity(bits: usize) -> Self {
        let mut out = Self::default();
        out.values.words.reserve_exact(bits.div_ceil(8));
        out.erased.words.reserve_exact(bits.div_ceil(8));
        out
    }

    /// Every bit of `bits`, decoded.
    pub fn from_bools(bits: &[bool]) -> Self {
        let values = PackedBits::from_bools(bits);
        let mut erased = values.clone();
        erased.words.fill(0);
        Self { values, erased }
    }

    /// Number of verdicts held.
    pub fn len(&self) -> usize {
        self.values.bit_len
    }

    /// Whether no verdicts are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Empties the sequence, keeping its capacity.
    pub fn clear(&mut self) {
        self.values.discard_front(usize::MAX);
        self.erased.discard_front(usize::MAX);
    }

    /// Appends one verdict: a decoded bit, or `None` for an erasure.
    pub fn push(&mut self, verdict: Option<bool>) {
        self.values.push_bit(verdict == Some(true));
        self.erased.push_bit(verdict.is_none());
    }

    /// Appends the verdicts `range` of `src` (which must hold them).
    #[inline]
    pub fn extend_from(&mut self, src: &LossyBits, range: Range<usize>) {
        self.values.extend_from(&src.values, range.clone());
        self.erased.extend_from(&src.erased, range);
    }

    /// Erases every verdict in `range`.
    pub fn erase(&mut self, range: Range<usize>) {
        self.values.fill(range.clone(), false);
        self.erased.fill(range, true);
    }

    /// Whether no verdict in `range` is erased.
    pub fn is_intact(&self, range: Range<usize>) -> bool {
        self.erased.count_ones(range) == 0
    }

    /// XOR of the decoded bits in `range` (erasures count as 0).
    pub fn parity(&self, range: Range<usize>) -> bool {
        self.values.count_ones(range) % 2 == 1
    }

    /// The verdicts in order.
    pub fn iter(&self) -> impl Iterator<Item = Option<bool>> + '_ {
        (0..self.len()).map(|i| (!self.erased.bit(i)).then(|| self.values.bit(i)))
    }

    /// The value bits, with every erasure read as 0.
    pub fn values(&self) -> &PackedBits {
        &self.values
    }
}

impl FromIterator<Option<bool>> for LossyBits {
    fn from_iter<I: IntoIterator<Item = Option<bool>>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut out = Self::with_capacity(iter.size_hint().0);
        iter.for_each(|v| out.push(v));
        out
    }
}

impl fmt::Debug for LossyBits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Encodes one message into frame bits (MSB-first).
///
/// # Panics
/// Panics if `payload` exceeds [`MAX_PAYLOAD`].
pub fn encode_frame(payload: &[u8]) -> Vec<bool> {
    assert!(
        payload.len() <= MAX_PAYLOAD,
        "payload exceeds one frame ({} > {MAX_PAYLOAD})",
        payload.len()
    );
    let mut bytes = Vec::with_capacity(payload.len() + OVERHEAD_BYTES);
    bytes.push(MAGIC);
    bytes.push(payload.len() as u8);
    bytes.extend_from_slice(payload);
    let crc = crc16_ccitt(&bytes);
    bytes.extend_from_slice(&crc.to_be_bytes());
    bytes_to_bits(&bytes)
}

/// A recovered message with its bit offset in the scanned stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredFrame {
    /// Bit offset at which the frame started.
    pub bit_offset: usize,
    /// The payload bytes.
    pub payload: Vec<u8>,
}

/// Scans a (possibly corrupted, arbitrarily aligned) bitstream for valid
/// frames. Runs in O(n) expected time: offsets are only examined further
/// when the magic byte matches, and matched frames skip their whole span.
pub fn scan(bits: &[bool]) -> Vec<RecoveredFrame> {
    scan_packed(&PackedBits::from_bools(bits), false).0
}

/// Packed-word frame scan.
///
/// With `streaming == false` the whole buffer is scanned (identical
/// results to [`scan`]). With `streaming == true` the scan stops at the
/// first offset where a frame *could* start but not all of its bits have
/// arrived yet; the returned resume offset is the number of leading bits
/// the caller may discard ([`PackedBits::discard_front`]) before
/// appending more bits and scanning again — recovered-frame offsets are
/// relative to the start of the scanned buffer.
///
/// Candidate offsets cost two shifted word reads for the magic test and
/// a streaming CRC fold over the candidate span; no allocation happens
/// until a frame validates.
pub fn scan_packed(bits: &PackedBits, streaming: bool) -> (Vec<RecoveredFrame>, usize) {
    let mut out = Vec::new();
    let n = bits.bit_len();
    let mut i = 0;
    while i + 8 * OVERHEAD_BYTES <= n {
        if bits.bits8(i) != MAGIC {
            i += 1;
            continue;
        }
        let len = bits.bits8(i + 8) as usize;
        let total_bits = 8 * (OVERHEAD_BYTES + len);
        if i + total_bits > n {
            if streaming {
                // The tail may complete this frame; wait for more bits.
                break;
            }
            i += 1;
            continue;
        }
        // Byte `k` of the candidate frame; the whole span is held.
        let byte = |k: usize| bits.bits8(i + 8 * k);
        let body_bytes = 2 + len;
        let crc = (0..body_bytes).fold(CRC16_CCITT_INIT, |crc, k| crc16_ccitt_update(crc, byte(k)));
        if crc == u16::from_be_bytes([byte(body_bytes), byte(body_bytes + 1)]) {
            let payload = (2..2 + len).map(byte).collect();
            out.push(RecoveredFrame {
                bit_offset: i,
                payload,
            });
            i += total_bits;
        } else {
            i += 1;
        }
    }
    if streaming && i + 8 * OVERHEAD_BYTES > n {
        // Nothing before the last OVERHEAD-1 bytes can start a frame, but
        // those tail bits still can once more arrive.
        i = n.saturating_sub(8 * OVERHEAD_BYTES - 1).max(i.min(n));
    }
    (out, i)
}

/// Packs bytes into MSB-first bits.
pub fn bytes_to_bits(bytes: &[u8]) -> Vec<bool> {
    bytes
        .iter()
        .flat_map(|&b| (0..8).map(move |i| (b >> (7 - i)) & 1 == 1))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Encodes a sequence of messages back to back.
    fn encode_stream(messages: &[&[u8]]) -> Vec<bool> {
        messages.iter().flat_map(|m| encode_frame(m)).collect()
    }

    /// Reads one byte from an unpacked bitstream at an arbitrary bit
    /// offset: the oracle for `PackedBits::bits8`.
    fn byte_at(bits: &[bool], bit_offset: usize) -> u8 {
        let byte = &bits[bit_offset..bit_offset + 8];
        byte.iter().fold(0u8, |acc, &b| acc << 1 | b as u8)
    }

    fn unpack(p: &PackedBits) -> Vec<bool> {
        (0..p.bit_len()).map(|i| p.bit(i)).collect()
    }

    #[test]
    fn roundtrip_single_frame() {
        let bits = encode_frame(b"hello inframe");
        let frames = scan(&bits);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].payload, b"hello inframe");
        assert_eq!(frames[0].bit_offset, 0);
    }

    #[test]
    fn roundtrip_stream_of_frames() {
        let bits = encode_stream(&[b"alpha", b"bravo", b"charlie"]);
        let frames = scan(&bits);
        let payloads: Vec<&[u8]> = frames.iter().map(|f| f.payload.as_slice()).collect();
        assert_eq!(payloads, vec![&b"alpha"[..], b"bravo", b"charlie"]);
    }

    #[test]
    fn survives_misalignment() {
        let mut bits = vec![true, false, true]; // 3 junk bits
        bits.extend(encode_frame(b"offset"));
        let frames = scan(&bits);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].payload, b"offset");
        assert_eq!(frames[0].bit_offset, 3);
    }

    #[test]
    fn corrupted_frame_is_dropped_others_survive() {
        let mut bits = encode_stream(&[b"first", b"second", b"third"]);
        // Corrupt a bit inside the second frame's payload.
        let second_start = encode_frame(b"first").len();
        bits[second_start + 30] = !bits[second_start + 30];
        let frames = scan(&bits);
        let payloads: Vec<&[u8]> = frames.iter().map(|f| f.payload.as_slice()).collect();
        assert_eq!(payloads, vec![&b"first"[..], b"third"]);
    }

    #[test]
    fn empty_payload_roundtrips() {
        let bits = encode_frame(b"");
        let frames = scan(&bits);
        assert_eq!(frames.len(), 1);
        assert!(frames[0].payload.is_empty());
    }

    #[test]
    #[should_panic(expected = "exceeds one frame")]
    fn oversized_payload_rejected() {
        let _ = encode_frame(&[0u8; 300]);
    }

    #[test]
    fn random_noise_rarely_fakes_frames() {
        // CRC-16 gives ~2^-16 false-positive rate per candidate offset.
        let mut state = 0x12345678u64;
        let bits: Vec<bool> = (0..20_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) & 1 == 1
            })
            .collect();
        let frames = scan(&bits);
        assert!(frames.len() <= 1, "noise produced {} frames", frames.len());
    }

    /// The theoretical false-positive budget: per bit offset a spurious
    /// frame needs the magic byte (2⁻⁸) *and* a matching CRC-16 (2⁻¹⁶).
    /// Over a long seeded soup the observed count must stay within a
    /// generous multiple of that 2⁻²⁴-per-offset rate — this is the
    /// deterministic statistical guard the transport layer's symbol
    /// scanner relies on.
    #[test]
    fn false_positive_rate_within_theoretical_bound() {
        const TRIALS: u64 = 8;
        const BITS_PER_TRIAL: usize = 1 << 18; // 256 Ki bits
        let mut spurious = 0usize;
        for trial in 0..TRIALS {
            let mut state = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(trial + 1);
            let mut packed = PackedBits::default();
            for _ in 0..BITS_PER_TRIAL / 64 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                let word = z ^ (z >> 31);
                for byte in word.to_be_bytes() {
                    for b in bytes_to_bits(&[byte]) {
                        packed.push_bit(b);
                    }
                }
            }
            spurious += scan_packed(&packed, false).0.len();
        }
        let offsets = (TRIALS as usize) * BITS_PER_TRIAL;
        let expected = offsets as f64 / f64::from(1u32 << 24);
        // expected ≈ 0.125 over 2 Mi offsets; 4 spurious frames would be
        // > 10 σ above the Poisson mean.
        assert!(
            spurious as f64 <= expected.max(1.0) * 4.0,
            "{spurious} spurious frames over {offsets} offsets (expected ~{expected:.3})"
        );
    }

    #[test]
    fn packed_byte_at_matches_unpacked() {
        let bytes = [0xA7u8, 0x31, 0xFF, 0x00, 0x55];
        let bits = bytes_to_bits(&bytes);
        let packed = PackedBits::from_bools(&bits);
        assert_eq!(packed.bit_len(), bits.len());
        for off in 0..=bits.len() - 8 {
            assert_eq!(packed.bits8(off), byte_at(&bits, off), "offset {off}");
        }
        assert_eq!(unpack(&packed), bits);
    }

    #[test]
    fn discard_front_preserves_remaining_bits() {
        let bytes = [0x12u8, 0x34, 0x56, 0x78, 0x9A];
        let bits = bytes_to_bits(&bytes);
        for cut in [0usize, 1, 3, 8, 11, 16, 21, 40, 45] {
            let mut packed = PackedBits::from_bools(&bits);
            packed.discard_front(cut);
            let cut = cut.min(bits.len());
            assert_eq!(packed.bit_len(), bits.len() - cut, "cut {cut}");
            assert_eq!(unpack(&packed), &bits[cut..], "cut {cut}");
        }
    }

    #[test]
    fn streaming_scan_waits_for_partial_tail_frame() {
        let whole = encode_frame(b"first");
        let second: Vec<bool> = encode_frame(b"second-very-long-payload");
        let mut packed = PackedBits::from_bools(&whole);
        // Append only half of the second frame.
        for &b in &second[..second.len() / 2] {
            packed.push_bit(b);
        }
        let (frames, resume) = scan_packed(&packed, true);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].payload, b"first");
        // The scanner must not have consumed past the second frame's start.
        assert!(resume <= whole.len(), "resume {resume}");
        packed.discard_front(resume);
        for &b in &second[second.len() / 2..] {
            packed.push_bit(b);
        }
        let (frames, _) = scan_packed(&packed, true);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].payload, b"second-very-long-payload");
    }

    #[test]
    fn streaming_scan_across_many_small_appends() {
        let messages: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; 3 + i as usize]).collect();
        let stream: Vec<bool> = messages.iter().flat_map(|m| encode_frame(m)).collect();
        let mut packed = PackedBits::default();
        let mut got = Vec::new();
        for chunk in stream.chunks(17) {
            for &b in chunk {
                packed.push_bit(b);
            }
            let (frames, resume) = scan_packed(&packed, true);
            got.extend(frames.into_iter().map(|f| f.payload));
            packed.discard_front(resume);
            // The rolling buffer stays bounded by one maximal frame.
            assert!(packed.bit_len() <= 8 * (OVERHEAD_BYTES + MAX_PAYLOAD));
        }
        assert_eq!(got, messages);
    }

    proptest! {
        #[test]
        fn any_payload_roundtrips(payload in proptest::collection::vec(any::<u8>(), 0..64)) {
            let bits = encode_frame(&payload);
            let frames = scan(&bits);
            prop_assert_eq!(frames.len(), 1);
            prop_assert_eq!(&frames[0].payload, &payload);
        }

        #[test]
        fn roundtrips_at_any_bit_offset(
            payload in proptest::collection::vec(any::<u8>(), 1..32),
            junk in proptest::collection::vec(any::<bool>(), 0..17),
        ) {
            let mut bits = junk.clone();
            bits.extend(encode_frame(&payload));
            let frames = scan(&bits);
            // The junk could accidentally contain MAGIC and swallow bits,
            // but the true frame must be among the results.
            prop_assert!(frames.iter().any(|f| f.payload == payload));
        }

        #[test]
        fn packed_scan_matches_bool_scan_on_noise(
            bytes in proptest::collection::vec(any::<u8>(), 0..128),
            junk in proptest::collection::vec(any::<bool>(), 0..9),
        ) {
            // Same stream viewed packed and unpacked — identical frames.
            let mut bits = junk.clone();
            bits.extend(bytes_to_bits(&bytes));
            let via_bools = scan(&bits);
            let (via_packed, _) = scan_packed(&PackedBits::from_bools(&bits), false);
            prop_assert_eq!(via_bools, via_packed);
        }

        #[test]
        fn packed_range_ops_match_the_bool_oracle(
            a in proptest::collection::vec(any::<bool>(), 0..80),
            b in proptest::collection::vec(any::<bool>(), 0..80),
            lo in 0usize..80,
            len in 0usize..80,
            bit in any::<bool>(),
        ) {
            let (lo, hi) = (lo.min(b.len()), (lo + len).min(b.len()));
            let mut packed = PackedBits::from_bools(&a);
            packed.extend_from(&PackedBits::from_bools(&b), lo..hi);
            let mut want = a.clone();
            want.extend_from_slice(&b[lo..hi]);
            // Derived equality compares whole words: the bits past the
            // end must stay zero.
            prop_assert_eq!(&packed, &PackedBits::from_bools(&want));
            let r = lo.min(want.len())..hi.min(want.len());
            let ones = want[r.clone()].iter().filter(|&&x| x).count();
            prop_assert_eq!(packed.count_ones(r.clone()) as usize, ones);
            packed.fill(r.clone(), bit);
            want[r].fill(bit);
            prop_assert_eq!(packed, PackedBits::from_bools(&want));
        }

        #[test]
        fn lossy_bits_match_the_option_oracle(
            a in proptest::collection::vec(0u8..3, 0..60),
            b in proptest::collection::vec(0u8..3, 0..60),
            lo in 0usize..60,
            len in 0usize..60,
        ) {
            let verdict = |&x: &u8| [Some(false), Some(true), None][x as usize];
            let a: Vec<Option<bool>> = a.iter().map(verdict).collect();
            let b: Vec<Option<bool>> = b.iter().map(verdict).collect();
            let (lo, hi) = (lo.min(b.len()), (lo + len).min(b.len()));
            let mut got: LossyBits = a.iter().copied().collect();
            got.extend_from(&b.iter().copied().collect(), lo..hi);
            let mut want = a.clone();
            want.extend_from_slice(&b[lo..hi]);
            prop_assert_eq!(got.iter().collect::<Vec<_>>(), want.clone());
            prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
            let r = lo.min(want.len())..hi.min(want.len());
            let intact = want[r.clone()].iter().all(Option::is_some);
            let odd = want[r.clone()].iter().filter(|&&x| x == Some(true)).count() % 2 == 1;
            prop_assert_eq!(got.is_intact(r.clone()), intact);
            prop_assert_eq!(got.parity(r.clone()), odd);
            got.erase(r.clone());
            want[r].fill(None);
            prop_assert_eq!(got, want.into_iter().collect::<LossyBits>());
        }

        #[test]
        fn random_soup_stays_under_false_positive_budget(
            bytes in proptest::collection::vec(any::<u8>(), 256..2048),
        ) {
            // Per-offset spurious-validation probability is 2⁻²⁴; any
            // single ≤16 Kibit sample yielding ≥ 2 frames would be a
            // ~10⁻¹⁴ event.
            let frames = scan(&bytes_to_bits(&bytes));
            prop_assert!(frames.len() <= 1, "{} spurious frames", frames.len());
        }
    }
}
