//! # inframe-link
//!
//! A rateless broadcast transport over the InFrame GOB channel.
//!
//! The PHY layers below this crate deliver lossy, cyclic payload bits: a
//! receiver sees some fraction of each data-frame cycle, with per-GOB
//! erasures, and may tune in at any time. This crate turns that into
//! reliable object delivery with no return channel:
//!
//! * [`symbol`] — the self-describing wire format: object id, length and
//!   sequence number in a CRC-framed header; repair coefficients
//!   regenerated deterministically, never transmitted.
//! * [`rlc`] — random linear fountain coding over GF(256): a systematic
//!   prefix plus unbounded repair symbols, decoded by incremental
//!   Gaussian elimination; any K independent symbols reconstruct the
//!   object with ≈ 0.4 % expected overhead.
//! * [`carousel`] — the sender schedule: symbol geometry fitted to the
//!   cycle capacity, and a priority-interleaved object carousel that
//!   implements [`inframe_core::sender::PayloadSource`].
//! * [`session`] — the receiver state machine
//!   (`ACQUIRE → SYNCED → COLLECTING → COMPLETE`, with a `RESYNC` detour
//!   when cycle lock is lost mid-stream), joining mid-stream via blind
//!   cycle sync, accumulating symbols across cycles, and evicting stale
//!   or deadline-blown objects.
//! * [`control`] — adaptive modulation: δ/τ commands from windowed GOB
//!   statistics, bounded by the HVS imperceptibility ceiling, backing
//!   off while the receiver reports the channel SUSPECT.
//! * [`feedback`] — the back-channel vocabulary: compact per-region
//!   decode-quality reports with per-object NACK bitmaps, a checksummed
//!   wire codec, and the sender-side multi-receiver aggregator that
//!   closes the control loop (and ages out, triggering graceful
//!   degradation back to open-loop fountain operation).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod carousel;
pub mod control;
pub mod feedback;
pub mod rlc;
pub mod session;
pub mod symbol;

pub use carousel::{Carousel, GeometryMode, SymbolGeometry};
pub use control::{ChannelHealth, ControllerPolicy, ModulationCommand, ModulationController};
pub use feedback::{FeedbackAggregator, FeedbackReport, ObjectNack, RegionQuality};
pub use rlc::{Absorb, ObjectDecoder, RlcEncoder};
pub use session::{
    absorb_cycle_bulk, CompletionTarget, CycleReport, ReceiverSession, SessionState, SymbolScanner,
    SyncMode,
};
pub use symbol::{object_hint, Symbol, SymbolHeader};
