//! # inframe-sim
//!
//! End-to-end simulation of the InFrame screen–camera channel and the
//! experiment runners that regenerate every figure of the paper.
//!
//! The physical chain of §4 — C# sender → DirectX playback on an Eizo
//! FG2421 → Lumia 1020 capture → decoder — becomes:
//!
//! ```text
//! Sender (inframe-core)          multiplexed 120 Hz code frames
//!   → DisplayStream (inframe-display)   emitted-light timeline
//!     → Camera (inframe-camera)         rolling-shutter captures at 30 FPS
//!       → Demultiplexer (inframe-core)  decoded data frames + GOB stats
//! ```
//!
//! [`link::CapturePump`] is the one display → camera pump, over a
//! bounded window of display emissions; [`pipeline`], [`link`],
//! [`faults`] and [`fleet`] all drive the pixel chain through it, while
//! the GOB-level drivers ([`linksim`], [`netsim`]) keep their own loops.
//! [`scenarios`] provides the paper's three inputs (gray, dark
//! gray, sunrise clip) at both paper scale and a fast test scale; the
//! `fig*` modules run each experiment:
//!
//! * [`fig3`] — naive-design flicker comparison (Figure 3 motivation),
//! * [`fig5`] — smoothing waveform and its low-pass response (Figure 5),
//! * [`fig6`] — the simulated 8-user flicker study (Figure 6),
//! * [`fig7`] — throughput / available GOBs / error rates (Figure 7),
//! * [`ablation`] — parameter studies the paper calls out as future knobs.
//!
//! [`linksim`] simulates the `inframe-link` transport at GOB granularity
//! (real PHY coding, abstracted optics): erasure sweeps, late joins,
//! scene-cut bursts and the adaptive δ/τ control loop. [`faults`]
//! injects seeded capture-path faults — drops, duplicates, clock skew,
//! exposure drift, occlusion, desync — and measures how the hardened
//! receiver re-locks and recovers. [`netsim`] drives the `inframe-net`
//! stack (addressed MAC frames, QoS streams, spatial sub-channels)
//! through per-receiver region channels with occlusion windows.
//! [`backchannel`] models the lossy receiver→sender return path
//! (delay, jitter, loss windows, duplicate storms, stale replays) that
//! carries feedback reports for the closed δ/τ + ARQ control loop.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod backchannel;
pub mod faults;
pub mod fig3;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fleet;
pub mod link;
pub mod linksim;
pub mod netsim;
pub mod pipeline;
pub mod report;
pub mod scenarios;

pub use backchannel::{Backchannel, BackchannelConfig, FeedbackFaultKind, FeedbackFaultWindow};
pub use faults::{
    run_fault_scenario, FaultInjector, FaultKind, FaultOutcome, FaultScenarioConfig, FaultWindow,
};
pub use fleet::{run_fleet, FleetConfig, FleetReport};
pub use link::Link;
pub use linksim::{
    run_link_scenario, LinkScenarioConfig, LinkScenarioOutcome, RegionChannel, RegionOcclusion,
};
pub use netsim::{
    run_net_scenario, run_net_scenario_with_telemetry, NetScenarioConfig, NetScenarioOutcome,
};
pub use pipeline::{SimOutcome, Simulation, SimulationConfig};
pub use scenarios::{Scale, Scenario};
