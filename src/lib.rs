//! # InFrame
//!
//! A full reproduction of **InFrame: Multiflexing Full-Frame Visible
//! Communication Channel for Humans and Devices** (HotNets-XIII, 2014) in
//! Rust — the dual-mode screen–camera channel that hides device-readable
//! data inside ordinary video using complementary frames and the flicker
//! fusion of human vision.
//!
//! This crate is a facade: it re-exports the workspace's subsystem crates
//! under one roof so applications can depend on a single `inframe`.
//!
//! ```
//! use inframe::core::sender::{PrbsPayload, Sender};
//! use inframe::core::InFrameConfig;
//! use inframe::video::synth::SolidClip;
//! use inframe::video::FrameRate;
//!
//! // A small configuration (the full paper setup is
//! // `InFrameConfig::paper()`).
//! let config = InFrameConfig::small_test();
//! let video = SolidClip::new(
//!     config.display_w,
//!     config.display_h,
//!     127.0,
//!     FrameRate(config.refresh_hz / 4.0),
//! );
//! let mut sender = Sender::new(config, video, PrbsPayload::new(42));
//! let frame = sender.next_frame().expect("solid clips never end");
//! assert_eq!(frame.plane.shape(), (config.display_w, config.display_h));
//! ```
//!
//! ## Crate map
//!
//! | Module | Crate | Role |
//! |---|---|---|
//! | [`core`] | `inframe-core` | the InFrame system: multiplexer, chessboard coding, receiver |
//! | [`frame`] | `inframe-frame` | planes, sRGB, filters, homographies, fixed-point/SIMD kernels, PGM I/O |
//! | [`dsp`] | `inframe-dsp` | envelopes, Butterworth biquads, FFT, spectra |
//! | [`video`] | `inframe-video` | video sources, synthetic clips, raw container |
//! | [`display`] | `inframe-display` | 120 Hz panel model (LCD response, strobed backlight) |
//! | [`camera`] | `inframe-camera` | rolling-shutter camera model |
//! | [`hvs`] | `inframe-hvs` | flicker fusion / phantom array perception model |
//! | [`code`] | `inframe-code` | parity, CRC, Reed–Solomon, scrambling, framing, seeded PRNG |
//! | [`link`] | `inframe-link` | rateless transport: fountain-coded carousel, receiver sessions, δ/τ control |
//! | [`net`] | `inframe-net` | network layer: addressed MAC frames, multi-stream QoS, spatial sub-channels |
//! | [`obs`] | `inframe-obs` | telemetry spine: counters, histograms, events, flight recorder, exporters |
//! | [`sim`] | `inframe-sim` | end-to-end channel simulation and every paper experiment |
//!
//! ## Reproduced experiments
//!
//! Every figure of the paper has a runner in [`sim`] and a Criterion bench
//! in `inframe-bench`; see `EXPERIMENTS.md` at the repository root for the
//! paper-vs-measured record.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use inframe_camera as camera;
pub use inframe_code as code;
pub use inframe_core as core;
pub use inframe_display as display;
pub use inframe_dsp as dsp;
pub use inframe_frame as frame;
pub use inframe_hvs as hvs;
pub use inframe_link as link;
pub use inframe_net as net;
pub use inframe_obs as obs;
pub use inframe_sim as sim;
pub use inframe_video as video;
