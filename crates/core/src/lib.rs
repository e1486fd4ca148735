//! # inframe-core
//!
//! The InFrame system (HotNets 2014): dual-mode, full-frame visible
//! communication. A data channel for cameras is multiplexed onto ordinary
//! video so that human viewers see the unmodified content while devices
//! decode embedded bits.
//!
//! ## How it works
//!
//! * Every 30 FPS video frame is shown four times on a 120 Hz display.
//! * A data frame is a grid of *Blocks* (one bit each); a `1` Block carries
//!   a chessboard of super-*Pixels* at amplitude δ, a `0` Block leaves the
//!   video untouched ([`pattern`], [`layout`]).
//! * Displayed frames alternate `V + D, V − D, …` — complementary pairs
//!   whose average is exactly `V`, so flicker fusion hides the data from
//!   the eye ([`multiplex`]).
//! * Data-frame transitions are amplitude-shaped over the cycle τ with a
//!   square-root raised-cosine envelope to suppress phantom-array flicker
//!   ([`inframe_dsp::envelope`]).
//! * 2×2 Blocks form a GOB with an XOR parity bit; Reed–Solomon coding is
//!   available for larger GOBs ([`dataframe`]).
//! * The receiver smooths each captured Block, differences it against the
//!   smoothed version, removes the frame-wide mean difference, and
//!   thresholds the residual to detect the chessboard ([`demux`]).
//!
//! The [`sender`] and [`demux`] modules expose the end-to-end API used by
//! examples and the `inframe-sim` experiment harness; [`naive`] implements
//! the paper's Figure 3 strawmen for comparison.
//!
//! Both hot paths — chessboard rendering and per-Block scoring — run on a
//! band-sliced worker pool ([`parallel`], re-exported from
//! [`inframe_frame::parallel`]) over pooled frame buffers
//! ([`inframe_frame::pool`]), with output guaranteed bit-identical at any
//! worker count; [`metrics::ThroughputMeter`] reports the achieved
//! frames/s and worker utilization.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod config;
pub mod dataframe;
pub mod demux;
pub mod layout;
pub mod metrics;
pub mod multiplex;
pub mod naive;
pub mod pattern;
pub mod region;
pub mod sender;
pub mod sync;

pub use batch::{BatchScorer, ScoreClass};
pub use config::{CodingMode, InFrameConfig, KernelBackend};
pub use dataframe::DataFrame;
pub use demux::{BlockScore, DecodedDataFrame, Demultiplexer};
pub use inframe_frame::parallel;
pub use layout::DataLayout;
pub use metrics::{ThroughputMeter, ThroughputReport};
pub use parallel::ParallelEngine;
pub use region::RegionMap;
pub use sender::Sender;
