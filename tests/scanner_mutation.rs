//! Mutation harness for the receiver's trust boundary: the symbol
//! scanner that turns decoded cycle payloads into transport symbols.
//!
//! Each case feeds one `SymbolScanner` a seeded stream of cycle payloads
//! built from random noise under random erasure masks, valid symbol
//! frames (verbatim, with flipped bits, with erased runs), frames with a
//! valid CRC but a forged header or a foreign symbol size, and runs of
//! magic bytes that claim maximal frames. The scanner must never panic,
//! and:
//!
//! * every symbol it returns has the scanner's symbol size, a nonzero
//!   object length and K ≤ `MAX_SOURCE_SYMBOLS`;
//! * its symbols are, in order, a prefix of what a whole-stream
//!   `framing::scan` finds in the same bits with each erasure read as 0
//!   (so every one sits in a frame with a valid CRC, and the streaming
//!   scan neither invents nor reorders frames);
//! * each cycle yields exactly the symbols, and leaves buffered exactly
//!   the bits, of the scanner it replaced, which pushed verdicts bit by
//!   bit with each erasure as a 0;
//! * the bits it buffers stay within one cycle plus one maximal frame.
//!
//! The default case runs a few dozen streams; the ignored sweep runs
//! thousands (`cargo test --release --test scanner_mutation -- --ignored`).

use inframe::code::framing::LossyBits;
use inframe::code::framing::{self, PackedBits, RecoveredFrame, MAX_PAYLOAD, OVERHEAD_BYTES};
use inframe::link::symbol::MAX_SOURCE_SYMBOLS;
use inframe::link::{Symbol, SymbolHeader, SymbolScanner};

/// SplitMix64: a small seeded stream for building cases.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, p: f64) -> bool {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64 <= p
    }
}

/// A symbol frame's bits, as verdicts.
fn frame(header: SymbolHeader, data_bytes: usize, rng: &mut Rng) -> Vec<Option<bool>> {
    let data = (0..data_bytes).map(|_| rng.next() as u8).collect();
    let symbol = Symbol { header, data };
    symbol.encode_frame_bits().into_iter().map(Some).collect()
}

/// One mutated segment of the received bitstream.
fn segment(rng: &mut Rng, symbol_bytes: usize) -> Vec<Option<bool>> {
    let max_len = (MAX_SOURCE_SYMBOLS * symbol_bytes) as u64;
    let honest = |rng: &mut Rng| SymbolHeader {
        object_id: rng.next() as u16,
        object_len: 1 + (rng.next() % max_len) as u32,
        seq: rng.next() as u32,
    };
    match rng.below(6) {
        // Noise under a random erasure rate.
        0 => {
            let p = rng.below(40) as f64 / 100.0;
            (0..1 + rng.below(600))
                .map(|_| (!rng.chance(p)).then(|| rng.next() & 1 == 1))
                .collect()
        }
        // A valid frame, verbatim.
        1 => frame(honest(rng), symbol_bytes, rng),
        // A valid frame with a few flipped bits.
        2 => {
            let mut bits = frame(honest(rng), symbol_bytes, rng);
            for _ in 0..1 + rng.below(3) {
                let i = rng.below(bits.len());
                bits[i] = bits[i].map(|b| !b);
            }
            bits
        }
        // A valid frame with an erased run.
        3 => {
            let mut bits = frame(honest(rng), symbol_bytes, rng);
            let start = rng.below(bits.len());
            let end = (start + 1 + rng.below(40)).min(bits.len());
            bits[start..end].fill(None);
            bits
        }
        // A valid CRC around a forged header or a foreign symbol size.
        4 => {
            let object_len = match rng.below(4) {
                0 => u32::MAX,
                1 => 0,
                2 => (MAX_SOURCE_SYMBOLS * symbol_bytes + 1) as u32,
                _ => rng.next() as u32,
            };
            let header = SymbolHeader {
                object_len,
                ..honest(rng)
            };
            let foreign = 1 + rng.below(MAX_PAYLOAD - 10);
            let data_bytes = if rng.chance(0.5) {
                symbol_bytes
            } else {
                foreign
            };
            frame(header, data_bytes, rng)
        }
        // Magic bytes each claiming a maximal frame.
        _ => {
            let bytes: Vec<u8> = (0..1 + rng.below(8))
                .flat_map(|_| [framing::MAGIC, 0xFF])
                .collect();
            framing::bytes_to_bits(&bytes)
                .into_iter()
                .map(Some)
                .collect()
        }
    }
}

/// The symbols of `symbol_bytes` data bytes among recovered frames.
fn of_size(frames: &[RecoveredFrame], symbol_bytes: usize) -> Vec<Symbol> {
    frames
        .iter()
        .filter_map(|f| Symbol::from_frame_payload(&f.payload))
        .filter(|s| s.data.len() == symbol_bytes)
        .collect()
}

/// Runs one seeded stream through a scanner and checks every invariant.
/// Returns (symbols recovered, frames rejected).
fn check_case(seed: u64) -> (u64, u64) {
    let mut rng = Rng(seed);
    let symbol_bytes = [4, 14, 52, 200][rng.below(4)];
    let cycle_bits = [75, 225, 528, 1125][rng.below(4)];
    let mut stream = Vec::new();
    while stream.len() < 12 * cycle_bits {
        stream.extend(segment(&mut rng, symbol_bytes));
    }
    let mut scanner = SymbolScanner::new(symbol_bytes);
    // The scanner as it was before payloads carried their erasures:
    // verdicts pushed bit by bit, each erasure as a 0.
    let mut oracle_buf = PackedBits::default();
    let mut got = Vec::new();
    let mut fed = Vec::new();
    for cycle in stream.chunks_exact(cycle_bits) {
        let payload: LossyBits = cycle.iter().copied().collect();
        let symbols = scanner.push_payload(&payload);
        for b in cycle {
            oracle_buf.push_bit(b.unwrap_or(false));
        }
        let (frames, resume) = framing::scan_packed(&oracle_buf, true);
        oracle_buf.discard_front(resume);
        assert_eq!(
            symbols,
            of_size(&frames, symbol_bytes),
            "seed {seed}: cycle output"
        );
        assert_eq!(scanner.buffered_bits(), oracle_buf.bit_len(), "seed {seed}");
        got.extend(symbols);
        fed.extend(cycle.iter().map(|b| b.unwrap_or(false)));
        assert!(
            scanner.buffered_bits() <= cycle_bits + 8 * (OVERHEAD_BYTES + MAX_PAYLOAD),
            "seed {seed}: scanner buffers {} bits",
            scanner.buffered_bits()
        );
    }
    for s in &got {
        assert_eq!(s.data.len(), symbol_bytes, "seed {seed}: foreign size");
        assert!(s.header.object_len > 0, "seed {seed}: empty object");
        assert!(
            s.header.source_symbols(symbol_bytes) <= MAX_SOURCE_SYMBOLS,
            "seed {seed}: K over the cap in {:?}",
            s.header
        );
    }
    let oracle = of_size(&framing::scan(&fed), symbol_bytes);
    assert!(got.len() <= oracle.len(), "seed {seed}: invented symbols");
    assert_eq!(got, oracle[..got.len()], "seed {seed}: symbols differ");
    assert_eq!(scanner.recovered(), got.len() as u64);
    (scanner.recovered(), scanner.rejected())
}

fn sweep(seeds: std::ops::Range<u64>) {
    let (mut recovered, mut rejected) = (0, 0);
    for seed in seeds {
        let (a, b) = check_case(seed);
        recovered += a;
        rejected += b;
    }
    // The streams must exercise both outcomes, or the sweep proves little.
    assert!(
        recovered > 0 && rejected > 0,
        "{recovered} recovered, {rejected} rejected"
    );
}

#[test]
fn scanner_survives_mutated_streams() {
    sweep(0..48);
}

#[test]
#[ignore = "thousands of streams; run in release"]
fn scanner_survives_a_long_mutation_sweep() {
    sweep(0..20_000);
}
