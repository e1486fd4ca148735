//! Random linear coding over GF(256): the rateless encoder and the
//! incremental Gaussian-elimination decoder.
//!
//! The encoder splits an object into K source chunks and can emit an
//! unbounded symbol stream: a systematic prefix (the chunks themselves,
//! so a loss-free receiver pays zero decode overhead) followed by repair
//! symbols — random linear combinations with coefficients regenerated
//! from the sequence number ([`crate::symbol::repair_coefficients`]).
//! Any K received symbols whose coefficient vectors are linearly
//! independent reconstruct the object; with uniform random coefficients
//! over GF(256) the expected overhead beyond K is Σ 256⁻ʲ ≈ 0.4 % of a
//! symbol, which is why the decode-overhead ε stays far below the 0.15
//! acceptance bound.
//!
//! The decoder eliminates incrementally: each arriving symbol is reduced
//! against the pivot rows found so far (one O(K·(K+S)) sweep), so decode
//! cost is amortized per symbol and completion triggers the moment rank
//! reaches K — no batch solve at the end.

use crate::symbol::{repair_coefficients, Symbol, SymbolHeader};
use inframe_code::gf256;

/// Rateless encoder for one object.
#[derive(Debug, Clone)]
pub struct RlcEncoder {
    object_id: u16,
    object_len: u32,
    symbol_bytes: usize,
    /// Source chunks, each padded to `symbol_bytes`.
    chunks: Vec<Vec<u8>>,
}

impl RlcEncoder {
    /// Creates an encoder for `data` split into `symbol_bytes` chunks.
    ///
    /// # Panics
    /// Panics on an empty object, a zero symbol size, or an object over
    /// `u32::MAX` bytes.
    pub fn new(object_id: u16, data: &[u8], symbol_bytes: usize) -> Self {
        assert!(!data.is_empty(), "object must be nonempty");
        assert!(symbol_bytes > 0, "symbol size must be positive");
        assert!(
            u32::try_from(data.len()).is_ok(),
            "object exceeds u32 length"
        );
        let chunks = data
            .chunks(symbol_bytes)
            .map(|c| {
                let mut chunk = c.to_vec();
                chunk.resize(symbol_bytes, 0);
                chunk
            })
            .collect();
        Self {
            object_id,
            object_len: data.len() as u32,
            symbol_bytes,
            chunks,
        }
    }

    /// Number of source symbols K.
    pub fn k(&self) -> usize {
        self.chunks.len()
    }

    /// Symbol size in bytes.
    pub fn symbol_bytes(&self) -> usize {
        self.symbol_bytes
    }

    /// The object id.
    pub fn object_id(&self) -> u16 {
        self.object_id
    }

    /// Emits symbol `seq`: the source chunk for `seq < K`, otherwise the
    /// GF(256) combination with regenerated coefficients. Stateless per
    /// `seq`, so a carousel can revisit any position.
    pub fn symbol(&self, seq: u32) -> Symbol {
        let k = self.k();
        let header = SymbolHeader {
            object_id: self.object_id,
            object_len: self.object_len,
            seq,
        };
        let data = if (seq as usize) < k {
            self.chunks[seq as usize].clone()
        } else {
            let coeffs = repair_coefficients(self.object_id, seq, k);
            let mut acc = vec![0u8; self.symbol_bytes];
            for (chunk, &c) in self.chunks.iter().zip(&coeffs) {
                if c == 0 {
                    continue;
                }
                for (a, &b) in acc.iter_mut().zip(chunk) {
                    *a ^= gf256::mul(c, b);
                }
            }
            acc
        };
        Symbol { header, data }
    }
}

/// Outcome of absorbing one symbol into a decoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Absorb {
    /// The symbol increased the decoder's rank.
    Innovative,
    /// The symbol was a linear combination of what was already held.
    Redundant,
    /// The symbol's header or size disagrees with this decoder's object.
    Mismatch,
}

/// One pivot row of the echelon system: coefficients normalized so
/// `coeffs[pivot] == 1` and zero left of the pivot.
#[derive(Debug, Clone)]
struct PivotRow {
    coeffs: Vec<u8>,
    data: Vec<u8>,
}

/// Incremental GF(256) Gaussian-elimination decoder for one object.
#[derive(Debug, Clone)]
pub struct ObjectDecoder {
    object_id: u16,
    object_len: u32,
    symbol_bytes: usize,
    k: usize,
    /// `rows[j]` holds the row whose pivot is column `j`.
    rows: Vec<Option<PivotRow>>,
    rank: usize,
    received: u64,
    redundant: u64,
    decoded: Option<Vec<u8>>,
    received_at_completion: Option<u64>,
}

impl ObjectDecoder {
    /// Starts a decoder from the first symbol seen for an object — the
    /// header carries everything needed (length, and K via symbol size).
    pub fn for_symbol(symbol: &Symbol) -> Self {
        let symbol_bytes = symbol.data.len();
        let k = symbol.header.source_symbols(symbol_bytes);
        Self {
            object_id: symbol.header.object_id,
            object_len: symbol.header.object_len,
            symbol_bytes,
            k,
            rows: vec![None; k],
            rank: 0,
            received: 0,
            redundant: 0,
            decoded: None,
            received_at_completion: None,
        }
    }

    /// Number of source symbols K.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Current rank (independent symbols held).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Valid symbols absorbed for this object (including redundant ones).
    pub fn received(&self) -> u64 {
        self.received
    }

    /// Symbols that brought no new rank.
    pub fn redundant(&self) -> u64 {
        self.redundant
    }

    /// Whether the object has been reconstructed.
    pub fn is_complete(&self) -> bool {
        self.decoded.is_some()
    }

    /// The reconstructed object bytes, once complete.
    pub fn object(&self) -> Option<&[u8]> {
        self.decoded.as_deref()
    }

    /// Decode overhead ε = received/K − 1, measured at the completion
    /// instant. `None` until complete.
    pub fn epsilon(&self) -> Option<f64> {
        self.received_at_completion
            .map(|r| r as f64 / self.k as f64 - 1.0)
    }

    /// Writes the systematic-gap bitmap into `out`: bit `j` of the map
    /// is set when source column `j` has no pivot row yet — the holes a
    /// selective-repeat sender can fill with a direct retransmission.
    /// Columns beyond `64 × out.len()` are ignored (callers size `out`
    /// for their K ceiling); surplus words are cleared. Returns the
    /// number of holes reported. Allocation-free.
    pub fn missing_systematic_into(&self, out: &mut [u64]) -> u32 {
        let mut holes = 0u32;
        for w in out.iter_mut() {
            *w = 0;
        }
        if self.decoded.is_some() {
            return 0;
        }
        for j in 0..self.k.min(out.len() * 64) {
            if self.rows[j].is_none() {
                out[j / 64] |= 1u64 << (j % 64);
                holes += 1;
            }
        }
        holes
    }

    /// Absorbs one symbol, reducing it against the pivot rows held so
    /// far. O(K·(K+S)) worst case per symbol; completion triggers
    /// automatically when rank reaches K.
    pub fn absorb(&mut self, symbol: &Symbol) -> Absorb {
        if symbol.header.object_id != self.object_id
            || symbol.header.object_len != self.object_len
            || symbol.data.len() != self.symbol_bytes
        {
            return Absorb::Mismatch;
        }
        self.received += 1;
        if self.decoded.is_some() {
            // Anything after completion is redundant by definition.
            self.redundant += 1;
            return Absorb::Redundant;
        }
        let seq = symbol.header.seq as usize;
        let (mut coeffs, mut data) = if seq < self.k {
            let mut unit = vec![0u8; self.k];
            unit[seq] = 1;
            (unit, symbol.data.clone())
        } else {
            (
                repair_coefficients(self.object_id, symbol.header.seq, self.k),
                symbol.data.clone(),
            )
        };
        // Forward elimination against existing pivots.
        for j in 0..self.k {
            if coeffs[j] == 0 {
                continue;
            }
            match &self.rows[j] {
                Some(row) => {
                    let factor = coeffs[j];
                    for (c, &r) in coeffs[j..].iter_mut().zip(&row.coeffs[j..]) {
                        *c ^= gf256::mul(factor, r);
                    }
                    for (d, &r) in data.iter_mut().zip(&row.data) {
                        *d ^= gf256::mul(factor, r);
                    }
                }
                None => {
                    // New pivot: normalize and store.
                    let inv = gf256::inv(coeffs[j]);
                    for c in coeffs[j..].iter_mut() {
                        *c = gf256::mul(inv, *c);
                    }
                    for d in data.iter_mut() {
                        *d = gf256::mul(inv, *d);
                    }
                    self.rows[j] = Some(PivotRow { coeffs, data });
                    self.rank += 1;
                    if self.rank == self.k {
                        self.back_substitute();
                    }
                    return Absorb::Innovative;
                }
            }
        }
        self.redundant += 1;
        Absorb::Redundant
    }

    fn back_substitute(&mut self) {
        for j in (0..self.k).rev() {
            let pivot_data = self.rows[j]
                .as_ref()
                .expect("full rank implies every pivot")
                .data
                .clone();
            for i in 0..j {
                let row = self.rows[i].as_mut().expect("full rank");
                let factor = row.coeffs[j];
                if factor == 0 {
                    continue;
                }
                row.coeffs[j] = 0;
                for (d, &p) in row.data.iter_mut().zip(&pivot_data) {
                    *d ^= gf256::mul(factor, p);
                }
            }
        }
        let mut object = Vec::with_capacity(self.k * self.symbol_bytes);
        for row in &self.rows {
            object.extend_from_slice(&row.as_ref().expect("full rank").data);
        }
        object.truncate(self.object_len as usize);
        self.decoded = Some(object);
        self.received_at_completion = Some(self.received);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn object(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed ^ 0xD1B5_4A32_D192_ED03;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect()
    }

    #[test]
    fn systematic_prefix_decodes_with_zero_overhead() {
        let data = object(100, 1);
        let enc = RlcEncoder::new(3, &data, 8);
        assert_eq!(enc.k(), 13);
        let mut dec = ObjectDecoder::for_symbol(&enc.symbol(0));
        for seq in 0..enc.k() as u32 {
            assert_eq!(dec.absorb(&enc.symbol(seq)), Absorb::Innovative);
        }
        assert!(dec.is_complete());
        assert_eq!(dec.object().unwrap(), &data[..]);
        assert_eq!(dec.epsilon(), Some(0.0));
    }

    #[test]
    fn repair_only_decode_recovers_object() {
        // A receiver that missed the whole systematic pass still decodes
        // from repair symbols alone.
        let data = object(200, 2);
        let enc = RlcEncoder::new(9, &data, 16);
        let k = enc.k() as u32;
        let mut dec = ObjectDecoder::for_symbol(&enc.symbol(k));
        let mut seq = k;
        while !dec.is_complete() {
            dec.absorb(&enc.symbol(seq));
            seq += 1;
            assert!(seq < k + 100, "decode did not converge");
        }
        assert_eq!(dec.object().unwrap(), &data[..]);
        // GF(256) random combinations are almost always independent.
        assert!(dec.epsilon().unwrap() <= 0.15);
    }

    #[test]
    fn duplicate_symbols_are_redundant_not_harmful() {
        let data = object(64, 3);
        let enc = RlcEncoder::new(1, &data, 8);
        let mut dec = ObjectDecoder::for_symbol(&enc.symbol(0));
        assert_eq!(dec.absorb(&enc.symbol(2)), Absorb::Innovative);
        assert_eq!(dec.absorb(&enc.symbol(2)), Absorb::Redundant);
        assert_eq!(dec.redundant(), 1);
        assert_eq!(dec.rank(), 1);
    }

    #[test]
    fn mismatched_symbols_rejected() {
        let enc_a = RlcEncoder::new(1, &object(64, 4), 8);
        let enc_b = RlcEncoder::new(2, &object(64, 5), 8);
        let mut dec = ObjectDecoder::for_symbol(&enc_a.symbol(0));
        assert_eq!(dec.absorb(&enc_b.symbol(0)), Absorb::Mismatch);
        let enc_c = RlcEncoder::new(1, &object(64, 4), 16);
        assert_eq!(dec.absorb(&enc_c.symbol(0)), Absorb::Mismatch);
    }

    #[test]
    fn single_chunk_object() {
        let data = object(5, 6);
        let enc = RlcEncoder::new(7, &data, 16);
        assert_eq!(enc.k(), 1);
        let mut dec = ObjectDecoder::for_symbol(&enc.symbol(0));
        assert_eq!(dec.absorb(&enc.symbol(0)), Absorb::Innovative);
        assert_eq!(dec.object().unwrap(), &data[..]);
    }

    proptest! {
        #[test]
        fn any_k_independent_symbols_decode(
            len in 1usize..300,
            symbol_bytes in 1usize..24,
            drop_mask in any::<u64>(),
            seed in any::<u64>(),
        ) {
            let data = object(len, seed);
            let enc = RlcEncoder::new(11, &data, symbol_bytes);
            let k = enc.k() as u32;
            // Drop up to half the systematic pass, then top up with
            // repair symbols: the object must always come back.
            let mut dec = ObjectDecoder::for_symbol(&enc.symbol(0));
            for seq in 0..k {
                if drop_mask >> (seq % 64) & 1 == 0 {
                    dec.absorb(&enc.symbol(seq));
                }
            }
            let mut seq = k;
            while !dec.is_complete() {
                dec.absorb(&enc.symbol(seq));
                seq += 1;
                prop_assert!(seq < k + 200, "decode did not converge");
            }
            prop_assert_eq!(dec.object().unwrap(), &data[..]);
        }
    }
}
