//! Capture-boundary taps: hooks between the camera and the receiver.
//!
//! A tap sits where a real deployment's capture driver sits — after the
//! sensor produced a frame, before the receiver consumes it. Fault
//! injectors (frame drops, duplicates, clock perturbations, photometric
//! drift) implement [`CaptureTap`] and rewrite the stream.

use inframe_frame::Plane;

/// One capture as the receiver will see it: the encoded luma plane plus
/// the timestamp the *receiver's clock* assigns to its exposure midpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct TappedCapture {
    /// Captured luma, code values 0–255.
    pub plane: Plane<f32>,
    /// Exposure midpoint in receiver seconds.
    pub t_mid: f64,
}

/// A transformation of the captured-frame stream.
///
/// Each sensor frame maps to zero (dropped), one, or several (duplicated)
/// frames delivered downstream; implementations may also perturb the
/// plane or the timestamp. Taps must be deterministic for a fixed seed —
/// the fault-matrix suite relies on byte-identical replays.
pub trait CaptureTap {
    /// Rewrites one capture into the frames actually delivered.
    fn tap(&mut self, cap: TappedCapture) -> Vec<TappedCapture>;
}
