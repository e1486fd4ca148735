//! # inframe-camera
//!
//! Camera simulation for the InFrame reproduction.
//!
//! The paper captures the display with a Lumia 1020 at 1280×720, 30 FPS,
//! from 50 cm (§4), and the receiver design explicitly targets camera
//! impairments: "frame rate mismatch, rolling shutter effect, poor capture
//! quality" (§1). This crate models each of them:
//!
//! * **Exposure integration** — each photosite averages the display's
//!   emitted light over the exposure window, computed in closed form from
//!   [`inframe_display::FrameEmission`]s (no time stepping).
//! * **Rolling shutter** — sensor rows start their exposure sequentially
//!   across the readout time, so different image bands sample different
//!   display intervals. Global shutter is available for ablations.
//! * **Rate mismatch and phase drift** — the camera clock runs at
//!   `30 × (1 + skew)` with an arbitrary phase offset against the display.
//! * **Optics** — Gaussian point-spread blur and the display→sensor
//!   geometry (fronto-parallel scale by default, arbitrary homography for
//!   off-axis capture).
//! * **Sensor noise** — signal-dependent shot noise plus Gaussian read
//!   noise in linear light, then gamma encoding and 8-bit quantization.
//!
//! The output of [`Camera::capture`] is what application code would get
//! from a phone camera API: an 8-bit-scale luma frame.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod autoexposure;
pub mod capture;
pub mod config;
mod gamma;
pub mod geometry;
pub mod isp;
pub mod noise;
pub mod perturb;
pub mod tap;

pub use autoexposure::AutoExposure;
pub use capture::{Camera, CapturedFrame};
pub use config::{CameraConfig, Shutter};
pub use geometry::CaptureGeometry;
pub use isp::IspConfig;
pub use tap::{CaptureTap, TappedCapture};
