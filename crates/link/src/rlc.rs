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
//!
//! Every row operation goes through one pair of GF(2⁸) row kernels,
//! `mul_add_row` and `scale_row`: the AVX2 body in
//! `inframe_frame::simd` where the dispatch level allows, the scalar
//! nibble-table form in `inframe_code::gf256` for the rest. Two layout
//! rules keep the decoder's work and memory near the minimum:
//!
//! * A pivot row keeps its coefficients (from its pivot column on) and
//!   its data in one contiguous run of one arena, so a single kernel
//!   call reduces both.
//! * A pivot row that came from a systematic symbol is the unit vector
//!   `e_j`, and stays one: forward elimination never changes a pivot
//!   row, and back-substitution only touches coefficients right of the
//!   pivot, which a unit row does not have. Such a row stores only its
//!   S data bytes, and eliminating against it updates only the S data
//!   bytes of the incoming row, not its K − j coefficients.

use crate::symbol::{repair_coefficients, Symbol, SymbolHeader, MAX_SOURCE_SYMBOLS};
use inframe_code::gf256;
use inframe_frame::simd;

/// GF(2⁸) row multiply-accumulate `dst[i] ⊕= c·src[i]`.
///
/// # Panics
/// Panics if the rows differ in length.
fn mul_add_row(dst: &mut [u8], src: &[u8], c: u8) {
    let n = simd::gf256_mul_add_prefix(simd::active_level(), gf256::nibble_tables(c), dst, src);
    gf256::mul_add_row(&mut dst[n..], &src[n..], c);
}

/// GF(2⁸) row scaling `row[i] = c·row[i]`.
fn scale_row(row: &mut [u8], c: u8) {
    let n = simd::gf256_scale_prefix(simd::active_level(), gf256::nibble_tables(c), row);
    gf256::scale_row(&mut row[n..], c);
}

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
    /// `u32::MAX` bytes or [`MAX_SOURCE_SYMBOLS`] symbols.
    pub fn new(object_id: u16, data: &[u8], symbol_bytes: usize) -> Self {
        assert!(!data.is_empty(), "object must be nonempty");
        assert!(symbol_bytes > 0, "symbol size must be positive");
        assert!(
            u32::try_from(data.len()).is_ok(),
            "object exceeds u32 length"
        );
        let k = data.len().div_ceil(symbol_bytes);
        assert!(k <= MAX_SOURCE_SYMBOLS, "{k} source symbols exceed the cap");
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
            let mut coeffs = vec![0u8; k];
            repair_coefficients(self.object_id, seq, &mut coeffs);
            let mut acc = vec![0u8; self.symbol_bytes];
            for (chunk, &c) in self.chunks.iter().zip(&coeffs) {
                if c != 0 {
                    mul_add_row(&mut acc, chunk, c);
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

/// How the pivot row of one column is held in the decoder's arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pivot {
    /// No row has its leading coefficient in this column yet.
    Empty,
    /// A systematic symbol: the unit vector of this column. Its
    /// coefficients are implicit; the arena holds its S data bytes from
    /// the given offset.
    Unit(usize),
    /// A reduced row: from the given offset, coefficients of columns
    /// `j..K` (normalized so column `j` is 1), then S data bytes.
    Dense(usize),
}

/// Incremental GF(256) Gaussian-elimination decoder for one object.
#[derive(Debug, Clone)]
pub struct ObjectDecoder {
    object_id: u16,
    object_len: u32,
    symbol_bytes: usize,
    k: usize,
    /// `pivots[j]` locates the row whose pivot is column `j`.
    pivots: Vec<Pivot>,
    /// The pivot rows in arrival order. Its capacity is reserved up
    /// front for the largest echelon system (row `j` of a dense system
    /// takes `K − j + S` bytes, a unit row `S`), so absorbing never
    /// reallocates it.
    rows: Vec<u8>,
    /// The symbol being reduced: K coefficients, then S data bytes.
    work: Vec<u8>,
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
        // The reservation is virtual until rows land. A K the allocator
        // refuses (only a corrupt header can claim one) leaves the arena
        // to grow on demand instead of aborting.
        let mut rows = Vec::new();
        let _ = rows.try_reserve_exact(k * (k + 1) / 2 + k * symbol_bytes);
        Self {
            object_id: symbol.header.object_id,
            object_len: symbol.header.object_len,
            symbol_bytes,
            k,
            pivots: vec![Pivot::Empty; k],
            rows,
            work: vec![0; k + symbol_bytes],
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
            if self.pivots[j] == Pivot::Empty {
                out[j / 64] |= 1u64 << (j % 64);
                holes += 1;
            }
        }
        holes
    }

    /// Absorbs one symbol, reducing it against the pivot rows held so
    /// far. O(K·(K+S)) worst case per symbol; completion triggers
    /// automatically when rank reaches K. Allocation-free except for
    /// the completing symbol, which allocates the object.
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
        let k = self.k;
        let seq = symbol.header.seq as usize;
        let from = if seq < k {
            match self.pivots[seq] {
                Pivot::Empty => {
                    self.pivots[seq] = Pivot::Unit(self.rows.len());
                    self.rows.extend_from_slice(&symbol.data);
                    return self.innovative();
                }
                Pivot::Unit(_) => {
                    self.redundant += 1;
                    return Absorb::Redundant;
                }
                // A repair row already took this column: reduce the unit
                // vector like any other row. Columns left of `seq` are
                // zero and never read.
                Pivot::Dense(_) => {
                    self.work[seq..k].fill(0);
                    self.work[seq] = 1;
                    seq
                }
            }
        } else {
            repair_coefficients(self.object_id, symbol.header.seq, &mut self.work[..k]);
            0
        };
        self.work[k..].copy_from_slice(&symbol.data);
        // Forward elimination against existing pivots.
        for j in from..k {
            let factor = self.work[j];
            if factor == 0 {
                continue;
            }
            match self.pivots[j] {
                Pivot::Unit(at) => {
                    self.work[j] = 0;
                    mul_add_row(
                        &mut self.work[k..],
                        &self.rows[at..at + self.symbol_bytes],
                        factor,
                    );
                }
                Pivot::Dense(at) => {
                    let len = k - j + self.symbol_bytes;
                    mul_add_row(&mut self.work[j..], &self.rows[at..at + len], factor);
                }
                Pivot::Empty => {
                    // New pivot: normalize and store.
                    scale_row(&mut self.work[j..], gf256::inv(factor));
                    self.pivots[j] = Pivot::Dense(self.rows.len());
                    self.rows.extend_from_slice(&self.work[j..]);
                    return self.innovative();
                }
            }
        }
        self.redundant += 1;
        Absorb::Redundant
    }

    /// Books one new pivot row and completes the object at full rank.
    fn innovative(&mut self) -> Absorb {
        self.rank += 1;
        if self.rank == self.k {
            self.back_substitute();
        }
        Absorb::Innovative
    }

    /// Clears every coefficient right of the diagonal, last row first so
    /// each row reduces against final rows only, then assembles the
    /// object and frees the elimination state.
    fn back_substitute(&mut self) {
        let (k, s) = (self.k, self.symbol_bytes);
        let (pivots, rows) = (&self.pivots, &mut self.rows);
        let acc = &mut self.work[k..];
        for i in (0..k).rev() {
            let Pivot::Dense(at) = pivots[i] else {
                continue;
            };
            let data = at + k - i;
            acc.copy_from_slice(&rows[data..data + s]);
            for j in i + 1..k {
                let factor = rows[at + j - i];
                if factor != 0 {
                    let src = data_at(pivots, k, j);
                    mul_add_row(acc, &rows[src..src + s], factor);
                }
            }
            rows[data..data + s].copy_from_slice(acc);
        }
        let mut object = Vec::with_capacity(k * s);
        for j in 0..k {
            let at = data_at(pivots, k, j);
            object.extend_from_slice(&rows[at..at + s]);
        }
        object.truncate(self.object_len as usize);
        self.decoded = Some(object);
        self.received_at_completion = Some(self.received);
        self.pivots = Vec::new();
        self.rows = Vec::new();
        self.work = Vec::new();
    }
}

/// Arena offset of column `j`'s data bytes in a `k`-column system.
fn data_at(pivots: &[Pivot], k: usize, j: usize) -> usize {
    match pivots[j] {
        Pivot::Unit(at) => at,
        Pivot::Dense(at) => at + k - j,
        Pivot::Empty => unreachable!("full rank implies every pivot"),
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

    use inframe_frame::simd::{force_level, SimdLevel};

    /// Checks both row kernels on `dst`/`src` against per-byte products.
    fn check_row_kernels(dst: &mut [u8], src: &[u8], c: u8) {
        let before = dst.to_vec();
        mul_add_row(dst, src, c);
        let mut scaled = src.to_vec();
        scale_row(&mut scaled, c);
        for i in 0..src.len() {
            assert_eq!(dst[i], before[i] ^ gf256::mul(c, src[i]), "c={c} i={i}");
            assert_eq!(scaled[i], gf256::mul(c, src[i]), "c={c} i={i}");
        }
    }

    #[test]
    fn row_kernels_match_per_byte_products_for_every_factor() {
        let src = object(130, 41);
        for level in SimdLevel::supported() {
            force_level(Some(level));
            for c in 0..=255u8 {
                for len in [
                    0, 1, 15, 16, 17, 31, 32, 33, 47, 48, 52, 63, 64, 65, 97, 130,
                ] {
                    let mut dst = object(len, u64::from(c));
                    check_row_kernels(&mut dst, &src[..len], c);
                }
            }
        }
        force_level(None);
    }

    proptest! {
        #[test]
        fn row_kernels_match_per_byte_products_on_unaligned_rows(
            len in 0usize..131,
            dst_off in 0usize..32,
            src_off in 0usize..32,
            c in 0u8..=255,
            seed in any::<u64>(),
        ) {
            let src = object(src_off + len, seed);
            for level in SimdLevel::supported() {
                force_level(Some(level));
                for factor in [0, 1, c] {
                    let mut dst = object(dst_off + len, seed ^ u64::from(factor));
                    check_row_kernels(&mut dst[dst_off..], &src[src_off..], factor);
                }
            }
            force_level(None);
        }
    }

    /// Decodes a lossy stream of a K = 512 object: a systematic pass
    /// with a quarter of it lost, then repair symbols interleaved with
    /// duplicates and late copies of lost systematic symbols (some of
    /// whose columns a repair row has taken by then).
    fn decode_lossy_stream(data: &[u8], symbol_bytes: usize) -> ObjectDecoder {
        let enc = RlcEncoder::new(21, data, symbol_bytes);
        let k = enc.k() as u32;
        let mut dec = ObjectDecoder::for_symbol(&enc.symbol(k));
        let lost = |seq: u32| seq.wrapping_mul(2_654_435_761) >> 30 == 0;
        for seq in (0..k).filter(|&seq| !lost(seq)) {
            dec.absorb(&enc.symbol(seq));
        }
        let mut late = (0..k).filter(|&seq| lost(seq));
        let mut seq = k;
        while !dec.is_complete() {
            dec.absorb(&enc.symbol(seq));
            match seq % 3 {
                0 => dec.absorb(&enc.symbol(seq)),
                1 => late
                    .next()
                    .map_or(Absorb::Redundant, |s| dec.absorb(&enc.symbol(s))),
                _ => dec.absorb(&enc.symbol(seq % k)),
            };
            seq += 1;
            assert!(seq < 2 * k, "decode did not converge");
        }
        dec
    }

    #[test]
    fn lossy_decode_is_identical_at_every_level() {
        let data = object(512 * 6 - 5, 17);
        let mut outcomes = Vec::new();
        for level in SimdLevel::supported() {
            force_level(Some(level));
            let dec = decode_lossy_stream(&data, 6);
            assert_eq!(dec.k(), 512);
            assert_eq!(dec.object(), Some(&data[..]), "{level:?}");
            assert!(dec.redundant() > 0, "the stream must exercise redundancy");
            outcomes.push((dec.rank(), dec.received(), dec.redundant(), dec.epsilon()));
        }
        force_level(None);
        assert!(outcomes.windows(2).all(|w| w[0] == w[1]), "{outcomes:?}");
    }

    #[test]
    fn completion_keeps_only_the_object() {
        let data = object(700, 8);
        let enc = RlcEncoder::new(4, &data, 7);
        let mut dec = ObjectDecoder::for_symbol(&enc.symbol(0));
        assert!(dec.rows.capacity() >= 100 * 101 / 2 + 100 * 7);
        let mut seq = 0;
        while !dec.is_complete() {
            if seq % 10 != 3 {
                dec.absorb(&enc.symbol(seq));
            }
            seq += 1;
            assert!(seq < 200, "decode did not converge");
        }
        assert_eq!(dec.object(), Some(&data[..]));
        assert_eq!(
            (
                dec.rows.capacity(),
                dec.pivots.capacity(),
                dec.work.capacity()
            ),
            (0, 0, 0)
        );
        let mut holes = [u64::MAX; 2];
        assert_eq!(dec.missing_systematic_into(&mut holes), 0);
        assert_eq!(holes, [0, 0]);
        assert_eq!(dec.absorb(&enc.symbol(3)), Absorb::Redundant);
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
