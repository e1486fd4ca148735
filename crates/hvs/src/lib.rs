//! # inframe-hvs
//!
//! A computational model of the human visual system's temporal response,
//! standing in for the paper's 8-participant user study (§4, Figure 6).
//!
//! The paper's design leans on two vision-science facts (§2):
//!
//! 1. **Flicker fusion** — above the critical flicker frequency (CFF,
//!    40–50 Hz in typical conditions) modulation is invisible and only the
//!    mean luminance is perceived; below it, visibility follows the
//!    temporal contrast-sensitivity function (de Lange / Kelly curves).
//!    CFF grows with luminance (Ferry–Porter law).
//! 2. **Phantom array** — during eye motion, even above-CFF flicker can
//!    become visible; smaller flicker amplitude, larger duty cycle and
//!    larger beam size reduce it.
//!
//! The model pipeline: a pixel's **linear-light waveform** → spectrum →
//! per-frequency-component visibility against a luminance-dependent
//! threshold surface → a scalar visibility `v` (`v < 1` = below threshold)
//! → combined with a phantom-array term → mapped onto the paper's 0–4
//! flicker-perception scale by a panel of simulated observers with
//! individual sensitivities.
//!
//! Everything visible in Figure 6 — scores growing with δ and brightness,
//! shrinking with τ — emerges from this model plus the display physics; no
//! curve is hard-coded.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cff;
pub mod csf;
pub mod flicker;
pub mod observer;
pub mod phantom;
pub mod spatial;

pub use flicker::{FlickerAssessment, FlickerMeter};
pub use observer::{Observer, ObserverPanel, StudyResult};
