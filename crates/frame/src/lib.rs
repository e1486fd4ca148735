//! # inframe-frame
//!
//! Frame and image primitives for the InFrame reproduction.
//!
//! The InFrame pipeline ([HotNets 2014]) manipulates video frames at three
//! places: the sender multiplexes data onto frames, the display/camera
//! simulators integrate and resample them, and the receiver smooths and
//! differences captured frames. This crate supplies the shared substrate:
//!
//! * [`Plane`] — a 2-D buffer of scalar samples, generic over the sample
//!   type (`u8` for storage, `f32` for linear-light math).
//! * [`RgbFrame`] — a planar RGB frame built from three [`Plane<f32>`]s.
//! * [`color`] — sRGB transfer functions, BT.601 RGB↔YCbCr, luma extraction.
//! * [`arith`] — saturating pixel arithmetic and image distance metrics
//!   (MAE, MSE, PSNR); [`metrics`] adds SSIM and a combined quality report.
//! * [`filter`] — box/Gaussian smoothing and separable convolution (the
//!   receiver's "smoothed version" of a block comes from here).
//! * [`geometry`] — homographies and bilinear warps used by the camera
//!   simulator for perspective capture and by the receiver for registration.
//! * [`resample`] — area-average downsampling and bilinear resizing
//!   (display resolution → capture resolution).
//! * [`pool`] — a fixed-geometry frame arena ([`FramePool`]) whose
//!   checkout/return handles give the streaming pipeline zero steady-state
//!   heap allocations.
//! * [`parallel`] — the band-sliced worker engine ([`ParallelEngine`])
//!   every pixel stage runs its rows on, bit-identical at any worker
//!   count.
//! * [`qplane`] — Q8.7 fixed-point planes and the O(1) sliding-window
//!   blur behind the quantized kernel backend; [`integral`] adds the
//!   paired integer summed-area tables it scores Blocks with.
//! * [`simd`] — explicit SSE2/AVX2 paths for the quantized hot kernels
//!   with one-time runtime dispatch (`INFRAME_SIMD` override), each
//!   bit-identical to the scalar oracle.
//! * [`draw`] — rectangle/checkerboard/gradient drawing helpers used by the
//!   synthetic video generators.
//! * [`io`] — binary PGM/PPM reading and writing so examples can emit
//!   viewable artifacts (e.g. the Figure 4 complementary pairs).
//!
//! All floating-point imagery uses the convention that sample values live in
//! **display code units** `[0.0, 255.0]`, matching the paper's 8-bit pixel
//! discussion; conversion to linear light is explicit via [`color`].
//!
//! [HotNets 2014]: https://doi.org/10.1145/2670518.2673862

// `deny` (not `forbid`) so the one module holding the SIMD intrinsic
// bodies — [`simd`], which confines every `unsafe` in the workspace
// behind safe, bounds-checked dispatchers — can opt back in locally.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod arith;
pub mod color;
pub mod draw;
pub mod error;
pub mod filter;
pub mod geometry;
pub mod integral;
pub mod io;
pub mod metrics;
pub mod parallel;
pub mod perturb;
pub mod plane;
pub mod pool;
pub mod qplane;
pub mod resample;
pub mod rgb;
pub mod simd;

pub use error::FrameError;
pub use parallel::ParallelEngine;
pub use plane::Plane;
pub use pool::{FramePool, PooledPlane};
pub use rgb::RgbFrame;

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, FrameError>;
