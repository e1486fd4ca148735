//! # inframe-dsp
//!
//! One-dimensional signal processing for the InFrame reproduction.
//!
//! InFrame's temporal design is fundamentally a DSP problem: the luminance
//! of every screen pixel is a waveform in time, the human visual system is
//! a low-pass filter over that waveform (§2 of the paper), and the paper
//! verifies its block-smoothing envelope "by passing the waveform to an
//! electronic low-pass filter" (§3.2, Figure 5). This crate provides:
//!
//! * [`envelope`] — the three candidate amplitude envelopes the paper
//!   compares for data-frame transitions: half square-root raised cosine
//!   (the one InFrame adopts), linear, and stair.
//! * [`biquad`] — second-order IIR sections with a Butterworth low-pass
//!   design, the "electronic low-pass filter" of Figure 5.
//! * [`fft`] — an in-place radix-2 complex FFT, for spectral
//!   verification that multiplexed waveforms keep their energy above the
//!   critical flicker frequency.
//! * [`spectrum`] — magnitude spectra, band energy, and dominant-frequency
//!   helpers built on the FFT.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod biquad;
pub mod envelope;
pub mod fft;
pub mod spectrum;

pub use biquad::Biquad;
pub use envelope::{Envelope, TransitionShape};
pub use fft::Complex;
