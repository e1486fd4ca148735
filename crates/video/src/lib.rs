//! # inframe-video
//!
//! Video sources and synthetic clip generation for the InFrame
//! reproduction.
//!
//! The paper evaluates against three inputs: "a pure gray video, a pure
//! dark gray video, and a normal sun-rising video clip" (§4). The physical
//! clips are unavailable, so this crate synthesizes equivalents whose
//! *channel-relevant* properties — spatial texture, local contrast, motion
//! — are controlled and documented (see DESIGN.md, substitution table):
//!
//! * [`source`] — the [`VideoSource`] trait: a pull-based stream of luma
//!   frames at a fixed rate, plus adapters (clip looping, length
//!   limiting).
//! * [`synth`] — generators: solid color, moving bars, value noise, and
//!   the procedural [`synth::SunriseClip`] standing in for the
//!   paper's sun-rising clip.
//! * [`container`] — a minimal raw planar container ("IFV") for encoding
//!   clips to bytes and decoding them back, so experiments can be re-run
//!   on identical inputs.
//! * [`stats`] — spatial-texture and motion metrics used
//!   by experiments to characterize inputs (and explain why textured clips
//!   decode worse, Figure 7).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod container;
pub mod source;
pub mod stats;
pub mod synth;
pub mod transform;

pub use source::{FrameRate, VideoSource};
