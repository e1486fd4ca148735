//! The receiver side of the transport: symbol scanning and the session
//! state machine.
//!
//! A receiver may join the carousel at any moment — mid-cycle, mid-frame,
//! mid-object. The session models that as a small state machine:
//!
//! ```text
//! ACQUIRE ──(cycle phase locked)──▶ SYNCED ──(first symbol)──▶ COLLECTING
//!                                     │ ▲                        │    │
//!                        (lock lost)  ▼ │  (re-locked)           │    │
//!                                    RESYNC ◀───(lock lost)──────┘    │
//!                                              (completion target met) ▼
//!                                                                  COMPLETE
//! ```
//!
//! In [`SyncMode::Blind`] the session recovers the sender's cycle phase
//! from capture crispness before decoding anything; with
//! [`SyncMode::Known`] it starts out synced. Either way, a capture-level
//! session keeps a [`PhaseTracker`] watching the lock: when the tracker
//! drops it (desync, accumulated clock skew), the session aborts the
//! in-flight demux cycle, discards any partially-scanned symbol, and
//! moves to [`SessionState::Resync`] until the tracker re-locks — it
//! never silently decodes against a dead phase. Decoded cycle payloads
//! (with per-GOB losses erased) feed a bounded [`SymbolScanner`], and
//! every recovered symbol flows into the per-object incremental
//! [`ObjectDecoder`]s. Because the carousel is rateless, a late joiner
//! needs no retransmission protocol: it simply keeps absorbing whatever
//! symbols it sees until rank K is reached.

use crate::carousel::SymbolGeometry;
use crate::rlc::ObjectDecoder;
use crate::symbol::Symbol;
use inframe_code::framing::{scan_packed, LossyBits, PackedBits};
use inframe_code::parity::GobStats;
use inframe_core::sync::{CycleSynchronizer, LockState, PhaseTracker, TrackerEvent, TrackerPolicy};
use inframe_core::{
    dataframe, CodingMode, DataLayout, DecodedDataFrame, Demultiplexer, InFrameConfig,
    ParallelEngine,
};
use inframe_frame::geometry::Homography;
use inframe_frame::Plane;
use inframe_obs::{names, Counter, Event, Histogram, Telemetry};
use std::collections::BTreeMap;

/// How the session learns the sender's cycle phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SyncMode {
    /// Phase known out of band (shared clock / receiver started with the
    /// sender). The session begins in [`SessionState::Synced`].
    Known {
        /// Cycle origin in receiver seconds.
        phase: f64,
    },
    /// Estimate the phase blindly from capture crispness before decoding.
    Blind {
        /// Captures to observe before attempting an estimate.
        min_captures: usize,
        /// Minimum folded-profile contrast to accept an estimate.
        min_confidence: f64,
    },
}

/// When the session declares itself done.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompletionTarget {
    /// All of the listed object ids recovered.
    AllOf(Vec<u16>),
    /// Any `n` distinct objects recovered.
    Objects(usize),
    /// Run forever (continuous listeners, delegated pumps).
    Never,
}

/// The receiver session's lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Observing captures to recover the cycle phase.
    Acquire,
    /// Phase locked; no symbol recovered yet.
    Synced,
    /// At least one symbol absorbed; objects decoding.
    Collecting,
    /// Cycle lock was lost mid-stream; re-acquiring before decoding more.
    Resync,
    /// The completion target has been met.
    Complete,
}

/// Streaming frame-to-symbol scanner with a bounded rolling buffer.
///
/// Cycle payloads append word by word; valid frames parse into
/// [`Symbol`]s of the session's geometry. The buffer never grows past one
/// maximal frame beyond what the streaming scan holds back. An erased bit
/// reads as `0`, so a frame overlapping one is caught only by its CRC-16,
/// which passes a damaged frame with probability about 2⁻¹⁶ (see
/// ROADMAP, "No corrupt delivery").
#[derive(Debug, Clone)]
pub struct SymbolScanner {
    buf: PackedBits,
    symbol_bytes: usize,
    recovered: u64,
    rejected: u64,
}

impl SymbolScanner {
    /// A scanner for symbols of `symbol_bytes` data bytes.
    pub fn new(symbol_bytes: usize) -> Self {
        Self {
            buf: PackedBits::default(),
            symbol_bytes,
            recovered: 0,
            rejected: 0,
        }
    }

    /// Appends one cycle's payload and returns every symbol completed by
    /// it.
    pub fn push_payload(&mut self, payload: &LossyBits) -> Vec<Symbol> {
        self.buf.extend_from(payload.values(), 0..payload.len());
        let (frames, resume) = scan_packed(&self.buf, true);
        self.buf.discard_front(resume);
        let mut out = Vec::with_capacity(frames.len());
        for f in frames {
            match Symbol::from_frame_payload(&f.payload) {
                Some(s) if s.data.len() == self.symbol_bytes => {
                    self.recovered += 1;
                    out.push(s);
                }
                _ => self.rejected += 1,
            }
        }
        out
    }

    /// Valid symbols recovered so far.
    pub fn recovered(&self) -> u64 {
        self.recovered
    }

    /// Frames that validated but were not symbols of this geometry
    /// (spurious CRC matches, foreign traffic, forged headers).
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Bits held back for a frame that may still complete.
    pub fn buffered_bits(&self) -> usize {
        self.buf.bit_len()
    }

    /// Discards any partially-scanned symbol. Called on desync: bits
    /// buffered before a gap in the cycle stream must not be spliced with
    /// the bits that arrive after it — a CRC would usually catch the
    /// chimera, but "usually" is not a property to lean on at scale.
    pub fn reset(&mut self) {
        self.buf = PackedBits::default();
    }
}

/// What one absorbed cycle produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleReport {
    /// Cycle index (receiver-relative).
    pub cycle: u64,
    /// Valid symbols recovered from this cycle.
    pub symbols: usize,
    /// Objects whose decoders completed during this cycle.
    pub completed: Vec<u16>,
}

/// The session's telemetry instruments, resolved once at construction so
/// the per-cycle path touches only atomic handles (or a single `None`
/// branch when telemetry is disabled).
struct SessionObs {
    telemetry: Telemetry,
    symbols_recovered: Counter,
    symbols_rejected: Counter,
    cycles_absorbed: Counter,
    resyncs: Counter,
    objects_completed: Counter,
    decode_eps_milli: Histogram,
}

impl SessionObs {
    fn new(telemetry: &Telemetry) -> Self {
        Self {
            telemetry: telemetry.clone(),
            symbols_recovered: telemetry.counter(names::session::SYMBOLS_RECOVERED),
            symbols_rejected: telemetry.counter(names::session::SYMBOLS_REJECTED),
            cycles_absorbed: telemetry.counter(names::session::CYCLES_ABSORBED),
            resyncs: telemetry.counter(names::session::RESYNCS),
            objects_completed: telemetry.counter(names::session::OBJECTS_COMPLETED),
            decode_eps_milli: telemetry.histogram(names::session::DECODE_EPS_MILLI),
        }
    }
}

/// A receiver transport session.
pub struct ReceiverSession {
    geometry: SymbolGeometry,
    state: SessionState,
    phase: Option<f64>,
    /// Lock supervision (capture-level sessions only; cycle-level input
    /// is synchronized by construction).
    tracker: Option<PhaseTracker>,
    demux: Option<Demultiplexer>,
    scanner: SymbolScanner,
    decoders: BTreeMap<u16, ObjectDecoder>,
    completed: Vec<u16>,
    completion_cycle: BTreeMap<u16, u64>,
    target: CompletionTarget,
    stats: GobStats,
    cycles_processed: u64,
    first_symbol_cycle: Option<u64>,
    /// Last absorbed cycle index, for gap detection.
    last_cycle: Option<u64>,
    resyncs: u64,
    /// Consecutive decoded cycles below the availability floor.
    bad_cycles: u32,
    /// `Some(n)` while a fresh estimator relock is on probation: `n`
    /// consecutive healthy cycles seen so far. A relock that decodes
    /// garbage gets a short fuse back to re-acquisition.
    relock_probe: Option<u32>,
    /// Decoded cycles, retained for capture-level callers that also
    /// consume the raw bit stream (ticker-style side channels).
    decoded_log: Vec<DecodedDataFrame>,
    /// Per-capture score scratch, reused so steady-state capture
    /// processing stays allocation-free.
    score_scratch: Vec<f32>,
    obs: SessionObs,
}

/// Per-cycle GOB availability below which the cycle is catastrophic —
/// evidence of a wrong phase, not of content-induced erasures (a clean
/// Quick-scale channel sits above 0.85; hard content costs tens of
/// percent, a mis-phased demultiplexer loses nearly half).
const QUALITY_FLOOR: f64 = 0.75;
/// Consecutive catastrophic cycles before the lock is marked SUSPECT.
const QUALITY_SUSPECT_AFTER: u32 = 2;
/// Consecutive catastrophic cycles before the lock is dropped.
const QUALITY_LOST_AFTER: u32 = 3;
/// Healthy cycles required to validate a fresh relock.
const RELOCK_PROBE_CYCLES: u32 = 2;

impl ReceiverSession {
    /// A cycle-level session: the caller supplies decoded cycle payloads
    /// directly ([`ReceiverSession::push_cycle`]). Starts synced.
    pub fn new(config: &InFrameConfig, geometry: SymbolGeometry, target: CompletionTarget) -> Self {
        Self::build(
            config,
            geometry,
            SyncMode::Known { phase: 0.0 },
            target,
            None,
        )
    }

    /// A capture-level session: camera planes go in
    /// ([`ReceiverSession::push_capture`]), the embedded demultiplexer
    /// turns them into cycles. `cap_w × cap_h` is the capture size and
    /// `registration` maps display to sensor coordinates.
    pub fn capture_level(
        config: &InFrameConfig,
        geometry: SymbolGeometry,
        registration: &Homography,
        cap_w: usize,
        cap_h: usize,
        sync_mode: SyncMode,
        target: CompletionTarget,
    ) -> Self {
        let demux = Demultiplexer::new(*config, registration, cap_w, cap_h);
        Self::with_demux(config, geometry, demux, sync_mode, target)
    }

    /// A capture-level session over a caller-built demultiplexer — for
    /// callers that pin the kernel engine or reuse a region cache (e.g.
    /// worker-count determinism tests).
    pub fn with_demux(
        config: &InFrameConfig,
        geometry: SymbolGeometry,
        demux: Demultiplexer,
        sync_mode: SyncMode,
        target: CompletionTarget,
    ) -> Self {
        Self::build(config, geometry, sync_mode, target, Some(demux))
    }

    fn build(
        config: &InFrameConfig,
        geometry: SymbolGeometry,
        sync_mode: SyncMode,
        target: CompletionTarget,
        demux: Option<Demultiplexer>,
    ) -> Self {
        let (state, phase) = match sync_mode {
            SyncMode::Known { phase } => (SessionState::Synced, Some(phase)),
            SyncMode::Blind { .. } => (SessionState::Acquire, None),
        };
        let tracker = demux.as_ref().map(|_| match sync_mode {
            SyncMode::Known { phase } => {
                PhaseTracker::locked_at(config, TrackerPolicy::default(), phase)
            }
            SyncMode::Blind {
                min_captures,
                min_confidence,
            } => PhaseTracker::acquiring(
                config,
                TrackerPolicy {
                    min_captures,
                    min_confidence,
                    window: TrackerPolicy::default().window.max(min_captures),
                    ..TrackerPolicy::default()
                },
            ),
        });
        Self {
            geometry,
            state,
            phase,
            tracker,
            demux,
            scanner: SymbolScanner::new(geometry.symbol_bytes),
            decoders: BTreeMap::new(),
            completed: Vec::new(),
            completion_cycle: BTreeMap::new(),
            target,
            stats: GobStats::default(),
            cycles_processed: 0,
            first_symbol_cycle: None,
            last_cycle: None,
            resyncs: 0,
            bad_cycles: 0,
            relock_probe: None,
            decoded_log: Vec::new(),
            score_scratch: Vec::new(),
            obs: SessionObs::new(&Telemetry::disabled()),
        }
    }

    /// Attaches a telemetry spine: session counters (symbol progress,
    /// resyncs, object completions with decode ε) report to it, health
    /// transitions become [`Event::SessionHealth`] events, and the handle
    /// is propagated into the embedded demultiplexer and phase tracker of
    /// capture-level sessions.
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.obs = SessionObs::new(telemetry);
        self.demux = self.demux.map(|d| d.with_telemetry(telemetry));
        self.tracker = self.tracker.map(|t| t.with_telemetry(telemetry));
        self
    }

    /// Maps the session lifecycle onto telemetry's lock vocabulary:
    /// decoding states count as locked, RESYNC as re-acquiring.
    fn obs_health(state: SessionState) -> inframe_obs::PhaseState {
        match state {
            SessionState::Acquire => inframe_obs::PhaseState::Acquiring,
            SessionState::Resync => inframe_obs::PhaseState::Reacquiring,
            SessionState::Synced | SessionState::Collecting | SessionState::Complete => {
                inframe_obs::PhaseState::Locked
            }
        }
    }

    /// Moves to `next`, emitting a [`Event::SessionHealth`] event when the
    /// telemetry-visible health actually changes (e.g. SYNCED→COLLECTING
    /// is invisible; COLLECTING→RESYNC is a lock-loss and triggers a
    /// flight-recorder dump).
    fn transition(&mut self, next: SessionState) {
        let before = Self::obs_health(self.state);
        self.state = next;
        let after = Self::obs_health(next);
        if before != after {
            self.obs.telemetry.event(Event::SessionHealth {
                cycle: self.last_cycle.unwrap_or(0),
                state: after,
            });
        }
    }

    /// Feeds one decoded cycle payload (losses erased) plus its GOB
    /// statistics.
    pub fn push_cycle(&mut self, payload: &LossyBits, stats: &GobStats) -> CycleReport {
        let cycle = self.last_cycle.map_or(0, |c| c + 1);
        self.push_cycle_indexed(payload, stats, cycle)
    }

    /// Like [`ReceiverSession::push_cycle`] with an explicit cycle index —
    /// for callers whose channel can skip cycles (a gap discards any
    /// partially-scanned symbol, see [`SymbolScanner::reset`]).
    pub fn push_cycle_indexed(
        &mut self,
        payload: &LossyBits,
        stats: &GobStats,
        cycle: u64,
    ) -> CycleReport {
        assert!(
            !matches!(self.state, SessionState::Acquire | SessionState::Resync),
            "cycle-level input requires a synced session"
        );
        self.stats.merge(stats);
        self.absorb(payload, cycle)
    }

    /// Feeds one camera capture (capture-level sessions only). Returns a
    /// report whenever the capture closed out a data cycle.
    ///
    /// # Panics
    /// Panics on a cycle-level session.
    pub fn push_capture(&mut self, plane: &Plane<f32>, t_mid: f64) -> Option<CycleReport> {
        assert!(
            self.demux.is_some(),
            "push_capture requires a capture-level session"
        );
        let tracker = self.tracker.as_mut().expect("capture sessions track");
        if !tracker.is_decodable() {
            // (Re-)acquiring: captures feed the estimator, nothing decodes.
            self.demux
                .as_mut()
                .expect("checked above")
                .score_capture_into(plane, &mut self.score_scratch);
            let crisp = CycleSynchronizer::crispness_of_scores(&self.score_scratch);
            if let Some(TrackerEvent::Locked { phase }) = tracker.observe(t_mid, crisp) {
                self.phase = Some(phase);
                // An estimator phase is provisional until it decodes.
                self.relock_probe = Some(0);
                self.bad_cycles = 0;
                if matches!(self.state, SessionState::Acquire | SessionState::Resync) {
                    let next = if self.first_symbol_cycle.is_some() {
                        SessionState::Collecting
                    } else {
                        SessionState::Synced
                    };
                    self.transition(next);
                }
            }
            return None;
        }
        let phase = self.phase.unwrap_or(0.0);
        if t_mid < phase {
            return None;
        }
        let demux = self.demux.as_mut().expect("checked above");
        let decoded = demux.push_capture(plane, t_mid - phase);
        // Let the tracker judge the lock from the same scores the demux
        // just used (stable-half captures only; transition-half ones are
        // expected to be faded and say nothing about lock health).
        if ((t_mid - phase) / demux.cycle_duration()).fract() < 0.45 {
            self.score_scratch.clear();
            self.score_scratch
                .extend(demux.last_scores().iter().map(|s| s.value().unwrap_or(0.0)));
            let crisp = CycleSynchronizer::crispness_of_scores(&self.score_scratch);
            if let Some(TrackerEvent::LockLost) = tracker.observe(t_mid, crisp) {
                self.lose_lock();
                // The cycle this capture flushed accumulated during the
                // collapse — decoding it would be exactly the silent
                // garbage decode the tracker exists to prevent.
                return None;
            }
        }
        let report = decoded.map(|d| self.absorb_decoded(d));
        if report.is_some() && self.supervise_quality() {
            return None;
        }
        report
    }

    /// Shared lock-loss cleanup: whatever the demultiplexer accumulated
    /// under the dead phase is garbage, and so is the scanner's partial
    /// symbol.
    fn lose_lock(&mut self) {
        if let Some(demux) = self.demux.as_mut() {
            demux.abort_cycle();
        }
        self.scanner.reset();
        self.resyncs += 1;
        self.obs.resyncs.incr();
        self.bad_cycles = 0;
        self.relock_probe = None;
        if self.state != SessionState::Complete {
            self.transition(SessionState::Resync);
        }
    }

    /// Decode-quality lock supervision, run after each absorbed cycle.
    ///
    /// Magnitude crispness cannot see every desync: a half-cycle clock
    /// step lands captures on the *complementary* pattern half, which
    /// looks exactly as crisp while the demultiplexer assembles bits from
    /// two different data frames. What does collapse is per-cycle GOB
    /// availability — so a streak of catastrophic cycles forces the
    /// tracker to SUSPECT and then drops the lock. Returns `true` when
    /// the lock was dropped (the caller's report is garbage).
    fn supervise_quality(&mut self) -> bool {
        let ratio = self
            .decoded_log
            .last()
            .expect("called after absorbing a decoded cycle")
            .stats
            .available_ratio();
        if ratio >= QUALITY_FLOOR {
            self.bad_cycles = 0;
            if let Some(healthy) = self.relock_probe.as_mut() {
                *healthy += 1;
                if *healthy >= RELOCK_PROBE_CYCLES {
                    self.relock_probe = None;
                }
            }
            return false;
        }
        self.bad_cycles += 1;
        let tracker = self.tracker.as_mut().expect("capture sessions track");
        if self.bad_cycles == QUALITY_SUSPECT_AFTER {
            tracker.force_suspect();
        }
        // A relock on probation that decodes garbage is a wrong phase
        // (e.g. the complementary half-cycle): give it a short fuse.
        let fuse = if self.relock_probe.is_some() {
            QUALITY_SUSPECT_AFTER
        } else {
            QUALITY_LOST_AFTER
        };
        if self.bad_cycles >= fuse {
            tracker.force_lock_lost();
            self.lose_lock();
            return true;
        }
        false
    }

    /// Flushes the demultiplexer's in-flight cycle (capture-level
    /// sessions; no-op otherwise).
    pub fn finish(&mut self) -> Option<CycleReport> {
        let decoded = self.demux.as_mut()?.finish()?;
        Some(self.absorb_decoded(decoded))
    }

    fn absorb_decoded(&mut self, d: DecodedDataFrame) -> CycleReport {
        self.stats.merge(&d.stats);
        let report = self.absorb(&d.payload, d.cycle);
        self.decoded_log.push(d);
        report
    }

    fn absorb(&mut self, payload: &LossyBits, cycle: u64) -> CycleReport {
        // A hole in the cycle sequence means the scanner's partial symbol
        // lost its middle: discard it rather than splice across the gap.
        if self.last_cycle.is_some_and(|last| cycle > last + 1) {
            self.scanner.reset();
        }
        self.last_cycle = Some(cycle);
        self.cycles_processed += 1;
        self.obs.cycles_absorbed.incr();
        let rejected_before = self.scanner.rejected();
        let symbols = self.scanner.push_payload(payload);
        self.obs.symbols_recovered.add(symbols.len() as u64);
        self.obs
            .symbols_rejected
            .add(self.scanner.rejected() - rejected_before);
        let mut report = CycleReport {
            cycle,
            symbols: symbols.len(),
            completed: Vec::new(),
        };
        for s in &symbols {
            if self.first_symbol_cycle.is_none() {
                self.first_symbol_cycle = Some(cycle);
            }
            let id = s.header.object_id;
            let dec = self
                .decoders
                .entry(id)
                .or_insert_with(|| ObjectDecoder::for_symbol(s));
            let was_complete = dec.is_complete();
            dec.absorb(s);
            if dec.is_complete() && !was_complete {
                self.completed.push(id);
                self.completion_cycle.insert(id, cycle);
                report.completed.push(id);
                self.obs.objects_completed.incr();
                let eps_milli = dec
                    .epsilon()
                    .map_or(0u64, |e| (e * 1000.0).round().max(0.0) as u64);
                self.obs.decode_eps_milli.record(eps_milli);
                self.obs.telemetry.event(Event::ObjectComplete {
                    object: id as u64,
                    cycle,
                    eps_milli: eps_milli.min(u32::MAX as u64) as u32,
                });
            }
        }
        if self.state == SessionState::Synced && !symbols.is_empty() {
            self.transition(SessionState::Collecting);
        }
        if self.state == SessionState::Collecting && self.target_met() {
            self.transition(SessionState::Complete);
        }
        report
    }

    fn target_met(&self) -> bool {
        match &self.target {
            CompletionTarget::AllOf(ids) => {
                ids.iter().all(|id| self.completion_cycle.contains_key(id))
            }
            CompletionTarget::Objects(n) => self.completed.len() >= *n,
            CompletionTarget::Never => false,
        }
    }

    /// Current lifecycle state.
    pub fn state(&self) -> SessionState {
        self.state
    }

    /// Whether the completion target has been met.
    pub fn is_complete(&self) -> bool {
        self.state == SessionState::Complete
    }

    /// The recovered bytes of object `id`, once its decoder completed.
    pub fn object(&self, id: u16) -> Option<&[u8]> {
        self.decoders.get(&id).and_then(|d| d.object())
    }

    /// Object ids recovered so far, in completion order.
    pub fn completed_objects(&self) -> &[u16] {
        &self.completed
    }

    /// Decode overhead ε of object `id` (`received/K − 1` at completion).
    pub fn epsilon(&self, id: u16) -> Option<f64> {
        self.decoders.get(&id).and_then(|d| d.epsilon())
    }

    /// The decoder of object `id` (rank, received counts, …).
    pub fn decoder(&self, id: u16) -> Option<&ObjectDecoder> {
        self.decoders.get(&id)
    }

    /// Aggregate GOB statistics over every absorbed cycle.
    pub fn stats(&self) -> &GobStats {
        &self.stats
    }

    /// The phase tracker's lock state. Cycle-level sessions are
    /// synchronized by construction and always report `Locked`.
    pub fn health(&self) -> LockState {
        self.tracker
            .as_ref()
            .map_or(LockState::Locked, |t| t.state())
    }

    /// Times the session lost cycle lock and entered RESYNC.
    pub fn resyncs(&self) -> u64 {
        self.resyncs
    }

    /// Replaces the phase tracker's tuning (e.g. with
    /// [`TrackerPolicy::fast_recovery`] when fast re-lock after channel
    /// faults matters more than transient tolerance). No-op for
    /// cycle-level sessions, which have no tracker.
    pub fn set_tracker_policy(&mut self, policy: TrackerPolicy) {
        if let Some(t) = self.tracker.as_mut() {
            t.set_policy(policy);
        }
    }

    /// Cycles absorbed so far.
    pub fn cycles_processed(&self) -> u64 {
        self.cycles_processed
    }

    /// Receiver-relative cycle at which object `id` completed.
    pub fn completion_cycle(&self, id: u16) -> Option<u64> {
        self.completion_cycle.get(&id).copied()
    }

    /// Cycle of the first recovered symbol (join latency measure).
    pub fn first_symbol_cycle(&self) -> Option<u64> {
        self.first_symbol_cycle
    }

    /// The estimated (or configured) cycle phase, seconds.
    pub fn phase(&self) -> Option<f64> {
        self.phase
    }

    /// The symbol scanner's counters.
    pub fn scanner(&self) -> &SymbolScanner {
        &self.scanner
    }

    /// The symbol geometry in force.
    pub fn geometry(&self) -> SymbolGeometry {
        self.geometry
    }

    /// Decoded cycles absorbed so far (capture-level sessions only;
    /// cycle-level input is not logged).
    pub fn decoded(&self) -> &[DecodedDataFrame] {
        &self.decoded_log
    }
}

/// Steps a whole fleet of cycle-level sessions through one decoded cycle.
///
/// `verdicts` holds one per-Block verdict row per receiver, as produced
/// by [`inframe_core::BatchScorer::verdicts_into`]. Receivers whose `active`
/// flag is `false` (not yet joined, or dropped this cycle) are skipped
/// and keep their cycle numbering gap, which the session's scanner
/// interprets as a lost cycle exactly like the streaming path would.
///
/// Each receiver runs the *real* PHY decode ([`dataframe::decode`]) and
/// the real session state machine ([`ReceiverSession::push_cycle_indexed`]);
/// the only batching is that receivers are band-sliced across the
/// engine's workers. Sessions are independent, so the result is
/// bit-identical to calling `push_cycle_indexed` in a loop.
pub fn absorb_cycle_bulk(
    engine: &ParallelEngine,
    layout: &DataLayout,
    coding: CodingMode,
    sessions: &mut [ReceiverSession],
    verdicts: &[LossyBits],
    active: &[bool],
    cycle: u64,
) {
    assert_eq!(verdicts.len(), sessions.len(), "one row per session");
    assert_eq!(active.len(), sessions.len(), "one active flag per session");
    engine.for_each_row_band(sessions.len(), 1, sessions, |rows, band| {
        for (session, r) in band.iter_mut().zip(rows) {
            if !active[r] {
                continue;
            }
            let (bits, stats) = dataframe::decode(layout, &verdicts[r], coding);
            session.push_cycle_indexed(&bits, &stats, cycle);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::carousel::Carousel;
    use inframe_core::layout::DataLayout;

    fn channel() -> (InFrameConfig, DataLayout) {
        let c = InFrameConfig::paper();
        (c, DataLayout::from_config(&c))
    }

    fn clean(payload: &[bool]) -> LossyBits {
        payload.iter().map(|&b| Some(b)).collect()
    }

    #[test]
    fn clean_channel_completes_all_objects() {
        let (cfg, layout) = channel();
        let mut car = Carousel::for_channel(&layout, cfg.coding);
        let a: Vec<u8> = (0..400u32).map(|i| i as u8).collect();
        let b: Vec<u8> = (0..150u32).map(|i| (i * 3) as u8).collect();
        car.add_object(1, 2, &a);
        car.add_object(2, 1, &b);
        let mut rx =
            ReceiverSession::new(&cfg, car.geometry(), CompletionTarget::AllOf(vec![1, 2]));
        assert_eq!(rx.state(), SessionState::Synced);
        let stats = GobStats::default();
        for _ in 0..60 {
            let p = car.next_cycle_payload();
            rx.push_cycle(&clean(&p), &stats);
            if rx.is_complete() {
                break;
            }
        }
        assert_eq!(rx.state(), SessionState::Complete);
        assert_eq!(rx.object(1).unwrap(), &a[..]);
        assert_eq!(rx.object(2).unwrap(), &b[..]);
        // Clean systematic delivery: zero decode overhead.
        assert_eq!(rx.epsilon(1), Some(0.0));
        assert_eq!(rx.epsilon(2), Some(0.0));
    }

    #[test]
    fn state_machine_walks_synced_collecting_complete() {
        let (cfg, layout) = channel();
        let mut car = Carousel::for_channel(&layout, cfg.coding);
        car.add_object(7, 1, &[0x5A; 200]);
        let mut rx = ReceiverSession::new(&cfg, car.geometry(), CompletionTarget::Objects(1));
        let stats = GobStats::default();
        // An all-lost cycle keeps the session merely synced.
        let lost: LossyBits =
            std::iter::repeat_n(None, car.geometry().payload_bits_per_cycle).collect();
        let r = rx.push_cycle(&lost, &stats);
        assert_eq!(r.symbols, 0);
        assert_eq!(rx.state(), SessionState::Synced);
        // A clean cycle starts collection.
        let p = car.next_cycle_payload();
        rx.push_cycle(&clean(&p), &stats);
        assert_eq!(rx.state(), SessionState::Collecting);
        while !rx.is_complete() {
            let p = car.next_cycle_payload();
            rx.push_cycle(&clean(&p), &stats);
        }
        assert_eq!(rx.state(), SessionState::Complete);
        assert_eq!(rx.completed_objects(), &[7]);
        assert!(rx.completion_cycle(7).is_some());
        assert!(rx.first_symbol_cycle().unwrap() >= 1);
    }

    #[test]
    fn late_joiner_completes_from_repair_symbols() {
        let (cfg, layout) = channel();
        let mut car = Carousel::for_channel(&layout, cfg.coding);
        let data: Vec<u8> = (0..600u32).map(|i| (i ^ 0x33) as u8).collect();
        car.add_object(4, 1, &data);
        let k = car.k_of(4).unwrap() as u64;
        // Sender runs well past the systematic pass before the receiver
        // appears: everything it sees from the start is repair traffic.
        let warmup = 2 * k.div_ceil(2); // ≥ K symbols
        for _ in 0..warmup {
            let _ = car.next_cycle_payload();
        }
        let mut rx = ReceiverSession::new(&cfg, car.geometry(), CompletionTarget::AllOf(vec![4]));
        let stats = GobStats::default();
        for _ in 0..200 {
            let p = car.next_cycle_payload();
            rx.push_cycle(&clean(&p), &stats);
            if rx.is_complete() {
                break;
            }
        }
        assert!(rx.is_complete(), "late joiner stuck at {:?}", rx.state());
        assert_eq!(rx.object(4).unwrap(), &data[..]);
        assert!(rx.epsilon(4).unwrap() <= 0.15);
    }

    #[test]
    fn instrumented_session_reports_symbol_progress() {
        let (cfg, layout) = channel();
        let mut car = Carousel::for_channel(&layout, cfg.coding);
        let data: Vec<u8> = (0..200u32).map(|i| i as u8).collect();
        car.add_object(6, 1, &data);
        let tele = Telemetry::new();
        let mut rx = ReceiverSession::new(&cfg, car.geometry(), CompletionTarget::AllOf(vec![6]))
            .with_telemetry(&tele);
        let stats = GobStats::default();
        for _ in 0..60 {
            let p = car.next_cycle_payload();
            rx.push_cycle(&clean(&p), &stats);
            if rx.is_complete() {
                break;
            }
        }
        assert!(rx.is_complete());
        let s = tele.summary();
        assert_eq!(
            s.counter(names::session::CYCLES_ABSORBED),
            rx.cycles_processed()
        );
        assert_eq!(
            s.counter(names::session::SYMBOLS_RECOVERED),
            rx.scanner().recovered()
        );
        assert_eq!(s.counter(names::session::OBJECTS_COMPLETED), 1);
        assert_eq!(
            s.histogram(names::session::DECODE_EPS_MILLI).unwrap().count,
            1
        );
        // The completion landed on the event timeline.
        assert!(tele
            .recorder_dump()
            .iter()
            .any(|r| matches!(r.event, Event::ObjectComplete { object: 6, .. })));
    }

    #[test]
    fn never_target_keeps_collecting() {
        let (cfg, layout) = channel();
        let mut car = Carousel::for_channel(&layout, cfg.coding);
        car.add_object(1, 1, &[9; 50]);
        let mut rx = ReceiverSession::new(&cfg, car.geometry(), CompletionTarget::Never);
        let stats = GobStats::default();
        for _ in 0..20 {
            let p = car.next_cycle_payload();
            rx.push_cycle(&clean(&p), &stats);
        }
        assert_eq!(rx.state(), SessionState::Collecting);
        assert_eq!(rx.completed_objects(), &[1], "object still recovered");
        assert!(rx.object(1).is_some());
    }

    #[test]
    fn scanner_rejects_foreign_frame_sizes() {
        let mut sc = SymbolScanner::new(8);
        // A valid frame whose payload is not header+8 bytes.
        let sym = Symbol {
            header: crate::symbol::SymbolHeader {
                object_id: 1,
                object_len: 100,
                seq: 0,
            },
            data: vec![1, 2, 3], // 3 ≠ 8
        };
        let got = sc.push_payload(&clean(&sym.encode_frame_bits()));
        assert!(got.is_empty());
        assert_eq!(sc.rejected(), 1);
        assert_eq!(sc.recovered(), 0);
    }

    #[test]
    fn forged_object_length_is_rejected_before_a_decoder_exists() {
        let (cfg, layout) = channel();
        let g = SymbolGeometry::for_channel(&layout, cfg.coding);
        let sym = Symbol {
            header: crate::symbol::SymbolHeader {
                object_id: 5,
                object_len: u32::MAX,
                seq: 0,
            },
            data: vec![0x5A; g.symbol_bytes],
        };
        let mut rx = ReceiverSession::new(&cfg, g, CompletionTarget::Never);
        let r = rx.push_cycle(&clean(&sym.encode_frame_bits()), &GobStats::default());
        assert_eq!(r.symbols, 0);
        assert_eq!((rx.scanner().recovered(), rx.scanner().rejected()), (0, 1));
        assert!(rx.decoder(5).is_none(), "no decoder for a forged K");
    }

    #[test]
    fn scanner_buffer_stays_bounded_on_noise() {
        let mut sc = SymbolScanner::new(16);
        let mut state = 0xDEADBEEFu64;
        for _ in 0..50 {
            let noise: LossyBits = (0..1125)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    Some((state >> 33) & 1 == 1)
                })
                .collect();
            let _ = sc.push_payload(&noise);
            assert!(
                sc.buf.bit_len()
                    <= 8 * (inframe_code::framing::OVERHEAD_BYTES
                        + inframe_code::framing::MAX_PAYLOAD)
                        + 1125,
                "buffer grew to {}",
                sc.buf.bit_len()
            );
        }
    }

    #[test]
    #[should_panic(expected = "capture-level session")]
    fn cycle_level_session_rejects_captures() {
        let (cfg, layout) = channel();
        let g = SymbolGeometry::for_channel(&layout, cfg.coding);
        let mut rx = ReceiverSession::new(&cfg, g, CompletionTarget::Never);
        let plane = Plane::filled(8, 8, 0.0f32);
        let _ = rx.push_capture(&plane, 0.0);
    }

    #[test]
    fn gap_discards_partial_symbol_instead_of_splicing() {
        // Streamed geometry: symbol frames flow across cycle boundaries,
        // so a dropped cycle can cut a frame in half. Feeding the two
        // halves around a gap must NOT recover the symbol — in a real
        // channel the gap carried (lost) bits, and splicing across it
        // fabricates data the channel never delivered in sequence.
        let cfg = InFrameConfig::paper();
        let g = SymbolGeometry::for_payload_bits(72);
        assert!(matches!(g.mode, crate::carousel::GeometryMode::Streamed));
        let sym = Symbol {
            header: crate::symbol::SymbolHeader {
                object_id: 3,
                object_len: 64,
                seq: 0,
            },
            data: vec![0xAB; g.symbol_bytes],
        };
        let bits = sym.encode_frame_bits();
        let (head, tail) = bits.split_at(bits.len() / 2);
        let (head, tail) = (clean(head), clean(tail));

        // Contiguous cycles: the split frame is recovered.
        let mut rx = ReceiverSession::new(&cfg, g, CompletionTarget::Never);
        let stats = GobStats::default();
        rx.push_cycle_indexed(&head, &stats, 0);
        let r = rx.push_cycle_indexed(&tail, &stats, 1);
        assert_eq!(r.symbols, 1, "contiguous halves must reassemble");

        // Same halves around a dropped cycle: discarded, not spliced.
        let mut rx = ReceiverSession::new(&cfg, g, CompletionTarget::Never);
        rx.push_cycle_indexed(&head, &stats, 0);
        let r = rx.push_cycle_indexed(&tail, &stats, 2);
        assert_eq!(r.symbols, 0, "gap must discard the partial symbol");
        assert_eq!(rx.scanner().recovered(), 0);
    }

    #[test]
    fn bulk_absorb_matches_sequential_push() {
        let (cfg, layout) = channel();
        let mut car = Carousel::for_channel(&layout, cfg.coding);
        let data: Vec<u8> = (0..300u32).map(|i| (i * 7) as u8).collect();
        car.add_object(9, 1, &data);
        let geometry = car.geometry();
        let n = 5usize;
        let build = || {
            (0..n)
                .map(|_| ReceiverSession::new(&cfg, geometry, CompletionTarget::AllOf(vec![9])))
                .collect::<Vec<_>>()
        };
        let mut bulk = build();
        let mut seq = build();
        let engine = ParallelEngine::new(4);
        for cycle in 0..30u64 {
            let payload = car.next_cycle_payload();
            let frame = inframe_core::DataFrame::encode(&layout, &payload, cfg.coding);
            // Heterogeneous fleet view: receiver r loses every (r + cycle)-th
            // GOB's blocks; receiver 3 joins late; receiver 4 drops one cycle.
            let mut active = vec![true; n];
            active[3] = cycle >= 7;
            active[4] = cycle != 11;
            let verdicts: Vec<LossyBits> = (0..n)
                .map(|r| {
                    (0..layout.num_blocks())
                        .map(|i| {
                            let (bx, by) = (i % layout.blocks_x, i / layout.blocks_x);
                            let gob = (by / 2) * layout.gob_grid().0 + bx / 2;
                            let lost = r > 0 && (gob + r + cycle as usize).is_multiple_of(r + 3);
                            (!lost).then(|| frame.bit(bx, by))
                        })
                        .collect()
                })
                .collect();
            absorb_cycle_bulk(
                &engine, &layout, cfg.coding, &mut bulk, &verdicts, &active, cycle,
            );
            for (r, session) in seq.iter_mut().enumerate() {
                if !active[r] {
                    continue;
                }
                let (bits, stats) = dataframe::decode(&layout, &verdicts[r], cfg.coding);
                session.push_cycle_indexed(&bits, &stats, cycle);
            }
        }
        for (b, s) in bulk.iter().zip(&seq) {
            assert_eq!(b.state(), s.state());
            assert_eq!(b.cycles_processed(), s.cycles_processed());
            assert_eq!(b.stats().available_ratio(), s.stats().available_ratio());
            assert_eq!(b.completed_objects(), s.completed_objects());
            assert_eq!(b.object(9), s.object(9));
            assert_eq!(b.completion_cycle(9), s.completion_cycle(9));
        }
        assert!(
            bulk.iter().any(|s| s.is_complete()),
            "clean receivers should finish inside the run"
        );
    }
}
