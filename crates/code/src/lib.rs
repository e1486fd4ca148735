//! # inframe-code
//!
//! Channel coding for the InFrame reproduction.
//!
//! The paper's prototype protects each 2×2 Group of Blocks (GOB) with a
//! single XOR parity bit and notes that "common error correction code such
//! as RS code are applied" per GOB and that "more sophisticated error
//! correction codes can be applied for larger GOB" is future work. This
//! crate implements the whole ladder from scratch:
//!
//! * [`parity`] — the paper's XOR parity over GOBs.
//! * [`crc`] — CRC-8/16/32 for frame-level integrity checks.
//! * [`rs`] — a complete Reed–Solomon codec over GF(2⁸) (systematic
//!   encoder, syndrome computation, Berlekamp–Massey, Chien search, Forney
//!   algorithm), used by the coding ablation bench.
//! * [`gf256`] — the underlying finite-field arithmetic.
//! * [`prbs`] — the "pseudo-random data generator with a pre-set seed" the
//!   paper uses to produce data frames (§4): a fast xoshiro-based bit
//!   source.
//! * [`scramble`] — additive payload whitening so real (non-random)
//!   payloads still produce balanced, synchronizable data frames.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crc;
pub mod framing;
pub mod gf256;
pub mod parity;
pub mod prbs;
pub mod rs;
pub mod scramble;

pub use parity::{gob_encode, GobStatus};
pub use rs::ReedSolomon;
