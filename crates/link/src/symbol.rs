//! Wire format of transport symbols.
//!
//! A symbol is the transport's unit of loss: either one source chunk of
//! an object (systematic, `seq < K`) or a random linear combination of
//! all chunks over GF(256) (repair, `seq ≥ K`). Every symbol is
//! self-describing — object id, object length and sequence number ride
//! in a small header inside a CRC-guarded [`inframe_code::framing`]
//! frame — so a receiver joining the carousel at any point can start a
//! decoder from the first symbol it sees, with no side channel or
//! directory object.
//!
//! Repair coefficients are never transmitted: both ends regenerate them
//! from `(object_id, seq, K)` with a deterministic mixer, so a repair
//! symbol costs exactly the same channel bytes as a source symbol.

use inframe_code::framing;

/// Header bytes inside the frame payload: id (2) + length (4) + seq (4).
pub const HEADER_BYTES: usize = 10;

/// Total framed overhead per symbol: framing magic/length/CRC plus the
/// symbol header.
pub const SYMBOL_OVERHEAD_BYTES: usize = framing::OVERHEAD_BYTES + HEADER_BYTES;

/// Address-hint bits of an object id: the network layer partitions the
/// u16 id space into a high 6-bit destination hint (a hash of the MAC
/// destination, `63` reserved for broadcast) and a low 10-bit rolling
/// object number. A receiver with an admission mask drops symbols whose
/// hint it does not admit *before* buying a decoder — hint collisions are
/// harmless (the MAC filter above re-checks the exact address), missed
/// admissions are impossible (the hint is a pure function of the id).
pub fn object_hint(object_id: u16) -> u8 {
    (object_id >> 10) as u8
}

/// The self-describing part of a symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SymbolHeader {
    /// Carousel-unique object identifier.
    pub object_id: u16,
    /// Object length in bytes (receivers derive K from it).
    pub object_len: u32,
    /// Sequence number: `< K` systematic, `≥ K` repair.
    pub seq: u32,
}

impl SymbolHeader {
    /// Number of source symbols for an object of this length split into
    /// `symbol_bytes`-byte chunks.
    pub fn source_symbols(&self, symbol_bytes: usize) -> usize {
        assert!(symbol_bytes > 0, "symbol size must be positive");
        (self.object_len as usize).div_ceil(symbol_bytes).max(1)
    }
}

/// One transport symbol: header plus `symbol_bytes` of data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Symbol {
    /// The self-describing header.
    pub header: SymbolHeader,
    /// Chunk bytes (source) or combination bytes (repair). Source chunks
    /// past the object end are zero-padded to the common symbol size.
    pub data: Vec<u8>,
}

impl Symbol {
    /// Serializes header + data as a frame payload.
    pub fn to_frame_payload(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_BYTES + self.data.len());
        out.extend_from_slice(&self.header.object_id.to_be_bytes());
        out.extend_from_slice(&self.header.object_len.to_be_bytes());
        out.extend_from_slice(&self.header.seq.to_be_bytes());
        out.extend_from_slice(&self.data);
        out
    }

    /// Parses a recovered frame payload back into a symbol. Returns
    /// `None` for payloads too short to hold a header plus one data byte
    /// or describing an empty object.
    pub fn from_frame_payload(bytes: &[u8]) -> Option<Self> {
        if bytes.len() <= HEADER_BYTES {
            return None;
        }
        let header = SymbolHeader {
            object_id: u16::from_be_bytes([bytes[0], bytes[1]]),
            object_len: u32::from_be_bytes([bytes[2], bytes[3], bytes[4], bytes[5]]),
            seq: u32::from_be_bytes([bytes[6], bytes[7], bytes[8], bytes[9]]),
        };
        if header.object_len == 0 {
            return None;
        }
        Some(Self {
            header,
            data: bytes[HEADER_BYTES..].to_vec(),
        })
    }

    /// The framed symbol as channel bits (MSB-first).
    pub fn encode_frame_bits(&self) -> Vec<bool> {
        framing::encode_frame(&self.to_frame_payload())
    }

    /// Framed size in bits for a given symbol data size.
    pub fn frame_bits(symbol_bytes: usize) -> usize {
        8 * (SYMBOL_OVERHEAD_BYTES + symbol_bytes)
    }
}

/// Writes the repair-symbol coefficient vector for `(object_id, seq)`
/// over a `k = out.len()`-symbol object into `out`: `k` GF(256)
/// coefficients from a SplitMix64 stream seeded by the identifying
/// triple. Deterministic on both ends; never the all-zero vector.
/// Allocation-free.
///
/// # Panics
/// Panics on an empty `out`, or when `seq` addresses a systematic
/// symbol (`seq < k`) — those use unit vectors, not generated
/// coefficients.
pub fn repair_coefficients(object_id: u16, seq: u32, out: &mut [u8]) {
    let k = out.len();
    assert!(seq as usize >= k, "seq {seq} is systematic for k={k}");
    assert!(k > 0, "an object has at least one source symbol");
    let mut state =
        (object_id as u64) << 48 ^ (seq as u64) << 16 ^ (k as u64) ^ 0x9E37_79B9_7F4A_7C15u64;
    for chunk in out.chunks_mut(8) {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        chunk.copy_from_slice(&z.to_be_bytes()[..chunk.len()]);
    }
    if out.iter().all(|&c| c == 0) {
        out[seq as usize % k] = 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(seq: u32) -> Symbol {
        Symbol {
            header: SymbolHeader {
                object_id: 0xBEEF,
                object_len: 1000,
                seq,
            },
            data: vec![1, 2, 3, 4, 5, 6, 7, 8],
        }
    }

    #[test]
    fn frame_payload_roundtrips() {
        let s = sym(17);
        let parsed = Symbol::from_frame_payload(&s.to_frame_payload()).expect("valid");
        assert_eq!(parsed, s);
    }

    #[test]
    fn truncated_or_empty_payloads_rejected() {
        assert!(Symbol::from_frame_payload(&[0u8; HEADER_BYTES]).is_none());
        assert!(Symbol::from_frame_payload(&[]).is_none());
        let zero_len = Symbol {
            header: SymbolHeader {
                object_id: 1,
                object_len: 0,
                seq: 0,
            },
            data: vec![9],
        };
        assert!(Symbol::from_frame_payload(&zero_len.to_frame_payload()).is_none());
    }

    #[test]
    fn frame_bits_counts_overhead() {
        let s = sym(0);
        assert_eq!(s.encode_frame_bits().len(), Symbol::frame_bits(8));
    }

    #[test]
    fn source_symbol_count_rounds_up() {
        let h = SymbolHeader {
            object_id: 1,
            object_len: 100,
            seq: 12,
        };
        assert_eq!(h.source_symbols(8), 13); // ceil(100 / 8)
    }

    fn coefficients(object_id: u16, seq: u32, k: usize) -> Vec<u8> {
        let mut out = vec![0xA5; k];
        repair_coefficients(object_id, seq, &mut out);
        out
    }

    #[test]
    fn coefficients_deterministic_and_distinct() {
        let a = coefficients(7, 100, 20);
        let b = coefficients(7, 100, 20);
        let c = coefficients(7, 101, 20);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().any(|&x| x != 0));
    }

    #[test]
    fn coefficients_are_the_big_endian_splitmix_stream() {
        // Pinned values: both ends of a link regenerate these, so any
        // change to the stream breaks interoperability.
        assert_eq!(
            coefficients(7, 100, 11),
            [0x9E, 0x9D, 0x93, 0x4A, 0x0B, 0x15, 0xC3, 0xEE, 0x80, 0x1F, 0x5A]
        );
    }

    #[test]
    #[should_panic(expected = "systematic")]
    fn systematic_seq_has_no_generated_coefficients() {
        repair_coefficients(1, 3, &mut [0; 10]);
    }
}
