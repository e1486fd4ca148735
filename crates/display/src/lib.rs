//! # inframe-display
//!
//! Display (monitor) simulation for the InFrame reproduction.
//!
//! The paper drives an Eizo FG2421 — a 120 Hz LCD — at 1920×1080 and 100%
//! brightness (§4). The reproduction replaces the physical panel with a
//! model of what a panel actually does to a frame sequence:
//!
//! 1. **Refresh schedule** — frames are presented at a fixed cadence
//!    (`refresh_hz`); each frame's code values hold until the next refresh
//!    (sample-and-hold, as on LCDs).
//! 2. **Transfer function** — code values map to emitted linear light via
//!    the sRGB EOTF scaled by the brightness setting.
//! 3. **Pixel response** — LCD pixels approach their target exponentially
//!    with a time constant; fast panels like the FG2421 are ~2 ms. This is
//!    what blurs the ±δ alternation at 120 Hz and is therefore a first-order
//!    effect for both the eye (less perceived flicker) and the camera
//!    (reduced captured amplitude).
//!
//! The emitted light field is exposed analytically: [`FrameEmission`]
//! carries the closed-form exponential for one refresh interval, so camera
//! exposure integrals are exact rather than time-stepped.
//!
//! Light is represented in **normalized linear units**: 1.0 = panel peak
//! luminance. [`DisplayConfig::peak_nits`] converts to absolute cd/m² where
//! the HVS model needs it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod config;
pub mod emission;
pub mod stream;

pub use config::DisplayConfig;
pub use emission::{EmissionWindow, FrameEmission};
pub use stream::DisplayStream;
