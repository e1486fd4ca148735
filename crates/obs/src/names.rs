//! Well-known instrument names.
//!
//! The spine's registry is name-keyed and get-or-create, so two
//! components that register the same constant share one cell. These
//! constants are the contract between the instrumented crates and the
//! exporters: the channel roll-up in
//! [`crate::export::ObsSummary::channel`] reads exactly the
//! [`chan`] names, and `inframe_core`'s `ThroughputReport` is rebuilt
//! from that roll-up.

/// Channel accounting — the Figure 7 inputs.
pub mod chan {
    /// Counter: modulation cycles decoded.
    pub const CYCLES: &str = "chan.cycles";
    /// Counter: GOBs recovered intact.
    pub const GOB_OK: &str = "chan.gob.ok";
    /// Counter: GOBs decoded but failing parity.
    pub const GOB_ERRONEOUS: &str = "chan.gob.erroneous";
    /// Counter: GOBs below the readability threshold.
    pub const GOB_UNAVAILABLE: &str = "chan.gob.unavailable";
    /// Counter: payload bits decoded correctly (vs ground truth).
    pub const BITS_CORRECT: &str = "chan.bits.correct";
    /// Counter: payload bits compared against ground truth.
    pub const BITS_COMPARED: &str = "chan.bits.compared";
    /// Gauge: payload bits carried per cycle.
    pub const PAYLOAD_BITS: &str = "chan.payload_bits";
    /// Gauge (f64 bits): data-frame rate in Hz.
    pub const DATA_FRAME_RATE: &str = "chan.data_frame_rate";
}

/// Sender-side instruments (`core::sender`).
pub mod sender {
    /// Counter: display frames rendered.
    pub const FRAMES: &str = "core.sender.frames";
    /// Counter: modulation cycles started.
    pub const CYCLES: &str = "core.sender.cycles";
    /// Histogram (ns): wall-clock render time per frame.
    pub const RENDER_NS: &str = "core.sender.render_ns";
    /// Gauge: pool buffers currently checked out.
    pub const POOL_LIVE: &str = "core.sender.pool_live";
    /// Gauge: pool buffers parked on the free list.
    pub const POOL_FREE: &str = "core.sender.pool_free";
    /// Gauge: planes ever allocated by the pool (flat in steady state).
    pub const POOL_ALLOCATED: &str = "core.sender.pool_allocated";
}

/// Receiver-side demultiplexer instruments (`core::demux`).
pub mod demux {
    /// Counter: captures scored.
    pub const CAPTURES: &str = "core.demux.captures";
    /// Counter: cycles aborted before decode.
    pub const ABORTED: &str = "core.demux.aborted";
    /// Histogram (ns): wall-clock scoring time per capture.
    pub const SCORE_NS: &str = "core.demux.score_ns";
    /// Histogram (milli-units): |score − threshold| distance of each
    /// readable block at decode time — the margin the thresholding
    /// decision had to spare.
    pub const MARGIN_MILLI: &str = "core.demux.margin_milli";
    /// Sharded counter: rows processed by quantized front-end band
    /// workers, keyed by band index.
    pub const BAND_ROWS: &str = "core.demux.band_rows";
}

/// Per-stage kernel throughput (`core::sender` / `core::demux`).
///
/// Both histograms record **milli-nanoseconds per pixel** (ns/px ×
/// 1000): at 1080p the hot kernels run at ~1–3 ns/px, below the
/// resolution of an integer ns histogram. Divide by 1000 to read
/// ns/px. Every instrumented sender and demultiplexer records through
/// these two instruments, so telemetry snapshots from different runs
/// are directly comparable.
pub mod kern {
    /// Histogram (milli-ns per pixel): sender render chain, per frame.
    pub const RENDER_NS_PER_PX: &str = "kern.render.ns_per_px";
    /// Histogram (milli-ns per pixel): receiver capture scoring, per
    /// capture.
    pub const DEMUX_NS_PER_PX: &str = "kern.demux.ns_per_px";
}

/// Phase-tracker instruments (`core::sync`).
pub mod sync {
    /// Counter: state transitions.
    pub const TRANSITIONS: &str = "core.sync.transitions";
    /// Counter: LOCKED entries after a loss (re-locks).
    pub const RELOCKS: &str = "core.sync.relocks";
    /// Counter: lock losses declared.
    pub const LOCK_LOSSES: &str = "core.sync.lock_losses";
    /// Histogram (µs of channel time): time spent in a state before
    /// transitioning out of it.
    pub const IN_STATE_US: &str = "core.sync.in_state_us";
}

/// Receiver-session instruments (`link::session`).
pub mod session {
    /// Counter: fountain symbols absorbed into the decoder.
    pub const SYMBOLS_RECOVERED: &str = "link.session.symbols_recovered";
    /// Counter: candidate symbols rejected by framing/validation.
    pub const SYMBOLS_REJECTED: &str = "link.session.symbols_rejected";
    /// Counter: cycles absorbed.
    pub const CYCLES_ABSORBED: &str = "link.session.cycles_absorbed";
    /// Counter: lock losses declared by decode-quality supervision.
    pub const RESYNCS: &str = "link.session.resyncs";
    /// Counter: objects fully decoded.
    pub const OBJECTS_COMPLETED: &str = "link.session.objects_completed";
    /// Histogram (milli-units): decode overhead ε per completed object.
    pub const DECODE_EPS_MILLI: &str = "link.session.decode_eps_milli";
    /// Counter: valid symbols dropped by the admission mask (objects not
    /// addressed to this receiver).
    pub const SYMBOLS_FILTERED: &str = "link.session.symbols_filtered";
}

/// Modulation-controller instruments (`link::control`).
pub mod control {
    /// Counter: health-triggered backoff commands.
    pub const BACKOFFS: &str = "link.control.backoffs";
    /// Counter: health-triggered restore commands.
    pub const RESTORES: &str = "link.control.restores";
    /// Counter: windowed error-rate adaptations.
    pub const ADAPTS: &str = "link.control.adapts";
    /// Gauge (f32): current modulation amplitude δ.
    pub const DELTA: &str = "link.control.delta";
    /// Gauge: current cycle length τ in frames.
    pub const TAU: &str = "link.control.tau";
}

/// Capture-tap instruments (`camera::tap`).
pub mod tap {
    /// Counter: captures entering the tap from the sensor.
    pub const CAPTURES_IN: &str = "camera.tap.captures_in";
    /// Counter: captures delivered downstream (duplicates counted).
    pub const CAPTURES_OUT: &str = "camera.tap.captures_out";
    /// Counter: sensor captures the tap swallowed entirely.
    pub const SWALLOWED: &str = "camera.tap.swallowed";
}

/// Fault-injection instruments (`sim::faults` via `camera::tap`).
pub mod faults {
    /// Counter: captures delivered through the tap.
    pub const DELIVERED: &str = "sim.faults.delivered";
    /// Counter: captures dropped by an active window.
    pub const DROPPED: &str = "sim.faults.dropped";
    /// Counter: captures duplicated by an active window.
    pub const DUPLICATED: &str = "sim.faults.duplicated";
    /// Counter: fault windows that became active.
    pub const WINDOWS: &str = "sim.faults.windows";
}

/// Receiver-fleet-simulator aggregates (`sim::fleet`).
pub mod fleet {
    /// Counter: receiver sessions in the fleet.
    pub const RECEIVERS: &str = "sim.fleet.receivers";
    /// Counter: displayed cycles fanned out to the fleet.
    pub const CYCLES: &str = "sim.fleet.cycles";
    /// Counter: capture scorings performed across the fleet (batched).
    pub const CAPTURES_SCORED: &str = "sim.fleet.captures_scored";
    /// Counter: captures lost to per-receiver drop faults.
    pub const DROPPED: &str = "sim.fleet.dropped";
    /// Counter: receivers that completed their target object set.
    pub const COMPLETIONS: &str = "sim.fleet.completions";
    /// Histogram (cycles since join): completion time per completed
    /// receiver — the fleet completion CDF.
    pub const COMPLETION_CYCLE: &str = "sim.fleet.completion_cycle";
    /// Histogram (milli-ratio): per-receiver mean GOB availability.
    pub const AVAILABILITY_MILLI: &str = "sim.fleet.availability_milli";
    /// Histogram (milli-units): decode overhead ε merged from the
    /// per-shard session spines (see `link.session.decode_eps_milli`).
    pub const EPS_MILLI: &str = "sim.fleet.eps_milli";
    /// Gauge: most recent displayed cycle flushed to the fleet — the
    /// live progress marker the operator console keys its tick off.
    pub const CYCLE: &str = "sim.fleet.cycle";
}

/// Batched fleet-scorer instruments (`core::batch`).
pub mod batch {
    /// Histogram (ns): one `score_classes` fan-out over all receiver
    /// classes of a capture batch.
    pub const SCORE_NS: &str = "core.batch.score_ns";
    /// Counter: per-receiver scorings fanned out (classes × assignments).
    pub const FANOUT: &str = "core.batch.fanout";
}

/// Self-instruments of the observability plane itself (`inframe-obs`).
pub mod obs {
    /// Counter: events dropped by the flight recorder's non-blocking
    /// hot path (ring contended) — nonzero means forensics dumps are
    /// truncated.
    pub const RECORDER_DROPPED: &str = "obs.recorder.dropped";
    /// Counter: events dropped by the binary ring sink (writer
    /// contended).
    pub const RING_DROPPED: &str = "obs.ring.dropped";
    /// Counter: events lost to ring-file I/O errors.
    pub const RING_IO_ERRORS: &str = "obs.ring.io_errors";
    /// Histogram (ns): one `FleetAggregator` absorb+rollup pass.
    pub const AGG_MERGE_NS: &str = "obs.aggregate.merge_ns";
    /// Counter: session summaries absorbed by the aggregator.
    pub const AGG_SESSIONS: &str = "obs.aggregate.sessions";
}

/// Closed-loop control-plane instruments (`net::sender` /
/// `sim::backchannel`): receiver feedback reports driving in-flight
/// re-modulation of the live sender.
pub mod ctrl_loop {
    /// Counter: feedback reports accepted by the sender aggregator.
    pub const REPORTS_RX: &str = "ctrl.loop.reports_rx";
    /// Counter: reports rejected as stale (older than the freshest seen
    /// from the same receiver) or duplicated.
    pub const REPORTS_STALE: &str = "ctrl.loop.reports_stale";
    /// Counter: reports lost, delayed past usefulness, or dropped by the
    /// modeled feedback channel.
    pub const REPORTS_LOST: &str = "ctrl.loop.reports_lost";
    /// Counter: δ/τ commands applied to the in-flight sender at a cycle
    /// boundary (as opposed to merely recorded).
    pub const COMMANDS_APPLIED: &str = "ctrl.loop.commands_applied";
    /// Counter: transitions into open-loop fallback (feedback silent).
    pub const FALLBACKS: &str = "ctrl.loop.fallbacks";
    /// Counter: transitions back to closed loop (feedback returned).
    pub const RECOVERIES: &str = "ctrl.loop.recoveries";
    /// Gauge: 1 while the loop is closed (fresh feedback), 0 while the
    /// controller is running the open-loop backoff policy.
    pub const CLOSED: &str = "ctrl.loop.closed";
    /// Gauge: cycles since the last fresh feedback report.
    pub const FEEDBACK_AGE: &str = "ctrl.loop.feedback_age";
}

/// Selective-repeat ARQ instruments (`net::arq`).
pub mod arq {
    /// Counter: NACK bitmap entries received for live objects.
    pub const NACKS_RX: &str = "arq.nacks_rx";
    /// Counter: symbols queued for retransmission.
    pub const RETRANSMITS: &str = "arq.retransmits";
    /// Counter: retransmissions suppressed by the per-object retry
    /// budget.
    pub const BUDGET_EXHAUSTED: &str = "arq.budget_exhausted";
    /// Counter: per-destination timeouts expired without feedback.
    pub const TIMEOUTS: &str = "arq.timeouts";
    /// Counter: flows degraded to pure fountain repair.
    pub const DEGRADED: &str = "arq.degraded";
    /// Counter: flows restored to ARQ after feedback returned.
    pub const RESTORED: &str = "arq.restored";
    /// Gauge: current retransmission backoff in cycles (post-jitter).
    pub const BACKOFF_CYCLES: &str = "arq.backoff_cycles";
}

/// Network-layer instruments (`inframe-net`): MAC framing, stream
/// delivery, and spatial sub-channels.
pub mod net {
    /// Counter: MAC frames encoded onto the carousel.
    pub const FRAMES_TX: &str = "net.frames_tx";
    /// Counter: MAC frames scanned out of completed objects.
    pub const FRAMES_RX: &str = "net.frames_rx";
    /// Counter: MAC frames dropped by the address filter.
    pub const FRAMES_FILTERED: &str = "net.frames_filtered";
    /// Counter: MAC frames rejected (bad CRC, malformed header, unknown
    /// stream).
    pub const FRAMES_REJECTED: &str = "net.frames_rejected";
    /// Counter: datagrams submitted for transmission.
    pub const DATAGRAMS_TX: &str = "net.datagrams_tx";
    /// Counter: datagrams delivered in order to stream consumers.
    pub const DATAGRAMS_RX: &str = "net.datagrams_rx";
    /// Counter: datagram payload bytes delivered in order.
    pub const BYTES_RX: &str = "net.bytes_rx";
    /// Counter: transport objects completed and ingested by the net layer.
    pub const OBJECTS_INGESTED: &str = "net.objects_ingested";
    /// Gauge: spatial sub-channel regions in the active tiling.
    pub const REGIONS: &str = "net.regions";

    /// Per-stream delivered-bytes counter name (resolved at stream
    /// registration, never on the per-cycle path).
    pub fn stream_bytes(stream: u8) -> String {
        format!("net.stream.{stream}.bytes_rx")
    }

    /// Per-region δ-scale gauge name (resolved at controller-bank
    /// construction, never on the per-cycle path).
    pub fn region_scale(region: usize) -> String {
        format!("net.region.{region}.delta_scale")
    }
}
