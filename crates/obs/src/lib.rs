//! `inframe-obs` — the telemetry spine of the InFrame pipeline.
//!
//! Every layer of the channel (render, demux, sync, session, control,
//! fault injection) reports into one [`Telemetry`] handle:
//!
//! - **Metrics** — lock-free typed [`Counter`]s, [`Gauge`]s,
//!   sketch-bucketed [`Histogram`]s (a mergeable log-linear quantile
//!   sketch, [`sketch`]), and band-sharded counters that
//!   aggregate compatibly with `ParallelEngine` workers. Updates are
//!   relaxed atomics; the hot paths stay allocation-free.
//! - **Events** — a `Copy` vocabulary ([`Event`]) fed to a
//!   [`FlightRecorder`] ring that snapshots itself on lock loss, and
//!   optionally streamed as JSONL for offline analysis.
//! - **Exporters** — [`ObsSummary`] (a point-in-time copy of every
//!   instrument, subsuming the channel's `ThroughputReport`) and the
//!   JSONL event log with a schema checker ([`export::validate_jsonl`]).
//! - **Live operations plane** — a compact binary wire format
//!   ([`wire`]) written into a file-backed ring that an out-of-process
//!   tailer ([`tail::TailReader`]) follows live; fleet-wide aggregation
//!   ([`aggregate::FleetAggregator`]) folding many session spines into
//!   one operator rollup; and mergeable quantile sketches ([`sketch`])
//!   behind every [`Histogram`], accurate to ≈1.6% relative error.
//!
//! The handle is `Clone` and cheap: a disabled handle is `None` inside,
//! so every instrumented call site costs one well-predicted branch —
//! measured ≤ 2% wall-clock on the 1080p render and demux paths by the
//! `obs` bench. Constructors default to [`Telemetry::disabled`]; opt in
//! per component with `with_telemetry`, or process-wide by setting
//! `INFRAME_OBS=1` and using [`Telemetry::from_env`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod event;
pub mod export;
pub mod metrics;
pub mod names;
pub mod recorder;
pub mod sketch;
pub mod tail;
pub mod wire;

use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

pub use aggregate::{FleetAggregator, FleetRollup, QuantileRollup};
pub use event::{CommandCause, Event, EventRecord, FaultClass, PhaseState};
pub use export::{ChannelSummary, ObsSummary};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, ShardedCounter, SpanGuard};
pub use recorder::FlightRecorder;
pub use tail::{TailReader, TailStats};
pub use wire::{RingConfig, RingWriter};

use metrics::{HistogramCore, PaddedCell, COUNTER_SHARDS};

/// Spine configuration.
#[derive(Debug, Clone, Copy)]
pub struct ObsConfig {
    /// Flight-recorder ring capacity (events).
    pub recorder_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self {
            recorder_capacity: recorder::DEFAULT_RECORDER_CAPACITY,
        }
    }
}

struct JsonlSink {
    out: Box<dyn Write + Send>,
    /// Reused encode buffer; grows once to steady-state size.
    buf: String,
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink").finish_non_exhaustive()
    }
}

/// The shared state behind an enabled [`Telemetry`] handle.
#[derive(Debug)]
struct Spine {
    epoch: Instant,
    seq: AtomicU64,
    recorder: FlightRecorder,
    counters: Mutex<HashMap<&'static str, Arc<AtomicU64>>>,
    gauges: Mutex<HashMap<&'static str, Arc<AtomicU64>>>,
    histograms: Mutex<HashMap<&'static str, Arc<HistogramCore>>>,
    sharded: Mutex<HashMap<&'static str, Arc<[PaddedCell; COUNTER_SHARDS]>>>,
    jsonl: Mutex<Option<JsonlSink>>,
    /// Binary ring sink (live operations plane). `ring_attached`
    /// mirrors `ring.is_some()` so the hot path skips the `try_lock`
    /// entirely when no ring was ever attached.
    ring: Mutex<Option<RingWriter>>,
    ring_attached: AtomicBool,
    /// Events the non-blocking flight recorder dropped (contended).
    recorder_dropped: AtomicU64,
    /// Events the ring sink dropped (writer contended).
    ring_dropped: AtomicU64,
    /// Events lost to ring-file I/O errors.
    ring_io_errors: AtomicU64,
}

/// Handle to the telemetry spine. Cloning shares the spine; a
/// [`Telemetry::disabled`] handle makes every operation a no-op costing
/// one branch.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Spine>>,
}

impl Telemetry {
    /// The no-op handle — what every constructor defaults to.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// An enabled spine with default configuration.
    pub fn new() -> Self {
        Self::with_config(ObsConfig::default())
    }

    /// An enabled spine with the given configuration.
    pub fn with_config(cfg: ObsConfig) -> Self {
        Self {
            inner: Some(Arc::new(Spine {
                epoch: Instant::now(),
                seq: AtomicU64::new(0),
                recorder: FlightRecorder::new(cfg.recorder_capacity),
                counters: Mutex::new(HashMap::new()),
                gauges: Mutex::new(HashMap::new()),
                histograms: Mutex::new(HashMap::new()),
                sharded: Mutex::new(HashMap::new()),
                jsonl: Mutex::new(None),
                ring: Mutex::new(None),
                ring_attached: AtomicBool::new(false),
                recorder_dropped: AtomicU64::new(0),
                ring_dropped: AtomicU64::new(0),
                ring_io_errors: AtomicU64::new(0),
            })),
        }
    }

    /// The process-wide spine gated by the environment: when
    /// `INFRAME_OBS=1` every call returns a handle to one shared global
    /// spine; otherwise the disabled handle. This is how the test suites
    /// run instrumented in CI without threading a handle through every
    /// call site.
    pub fn from_env() -> Self {
        static GLOBAL: OnceLock<Telemetry> = OnceLock::new();
        match std::env::var("INFRAME_OBS") {
            Ok(v) if v.trim() == "1" => GLOBAL.get_or_init(Telemetry::new).clone(),
            _ => Self::disabled(),
        }
    }

    /// Whether this handle carries a live spine.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Gets or creates the counter registered under `name`. On a
    /// disabled handle, returns a no-op instrument.
    pub fn counter(&self, name: &'static str) -> Counter {
        match &self.inner {
            None => Counter::noop(),
            Some(s) => {
                let mut reg = s.counters.lock().expect("counter registry poisoned");
                Counter(Some(Arc::clone(
                    reg.entry(name)
                        .or_insert_with(|| Arc::new(AtomicU64::new(0))),
                )))
            }
        }
    }

    /// Gets or creates the gauge registered under `name`.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        match &self.inner {
            None => Gauge::noop(),
            Some(s) => {
                let mut reg = s.gauges.lock().expect("gauge registry poisoned");
                Gauge(Some(Arc::clone(
                    reg.entry(name)
                        .or_insert_with(|| Arc::new(AtomicU64::new(0))),
                )))
            }
        }
    }

    /// Gets or creates the histogram registered under `name`.
    pub fn histogram(&self, name: &'static str) -> Histogram {
        match &self.inner {
            None => Histogram::noop(),
            Some(s) => {
                let mut reg = s.histograms.lock().expect("histogram registry poisoned");
                Histogram(Some(Arc::clone(
                    reg.entry(name)
                        .or_insert_with(|| Arc::new(HistogramCore::new())),
                )))
            }
        }
    }

    /// Gets or creates the band-sharded counter registered under `name`.
    pub fn sharded_counter(&self, name: &'static str) -> ShardedCounter {
        match &self.inner {
            None => ShardedCounter::noop(),
            Some(s) => {
                let mut reg = s.sharded.lock().expect("sharded registry poisoned");
                ShardedCounter(Some(Arc::clone(reg.entry(name).or_insert_with(|| {
                    Arc::new(std::array::from_fn(|_| PaddedCell::default()))
                }))))
            }
        }
    }

    /// Records one event: stamps it with the next sequence number and
    /// the spine clock, pushes it into the flight recorder (snapshotting
    /// on lock loss), and streams it to the JSONL sink if one is
    /// attached. No-op (one branch) on a disabled handle.
    pub fn event(&self, event: Event) {
        let Some(s) = &self.inner else { return };
        let rec = EventRecord {
            seq: s.seq.fetch_add(1, Ordering::Relaxed),
            t_us: s.epoch.elapsed().as_micros() as u64,
            event,
        };
        if !s.recorder.record(rec) {
            s.recorder_dropped.fetch_add(1, Ordering::Relaxed);
        }
        if s.ring_attached.load(Ordering::Relaxed) {
            // Never block the hot path on the ring: a contended writer
            // means the event is dropped and counted, not waited for.
            match s.ring.try_lock() {
                Ok(mut ring) => {
                    if let Some(w) = ring.as_mut() {
                        if w.append(&rec).is_err() {
                            s.ring_io_errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                Err(_) => {
                    s.ring_dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let mut sink = s.jsonl.lock().expect("jsonl sink poisoned");
        if let Some(sink) = sink.as_mut() {
            sink.buf.clear();
            event::encode_event(&mut sink.buf, &rec);
            sink.buf.push('\n');
            let _ = sink.out.write_all(sink.buf.as_bytes());
        }
    }

    /// Attaches a streaming JSONL sink; every subsequent event is
    /// written as one line. Replaces any previous sink.
    pub fn attach_jsonl(&self, out: Box<dyn Write + Send>) {
        if let Some(s) = &self.inner {
            *s.jsonl.lock().expect("jsonl sink poisoned") = Some(JsonlSink {
                out,
                buf: String::with_capacity(256),
            });
        }
    }

    /// Flushes and detaches the JSONL sink, if any.
    pub fn detach_jsonl(&self) {
        if let Some(s) = &self.inner {
            if let Some(mut sink) = s.jsonl.lock().expect("jsonl sink poisoned").take() {
                let _ = sink.out.flush();
            }
        }
    }

    /// Attaches a binary ring sink ([`RingWriter`]); every subsequent
    /// event is appended to the ring for out-of-process tailing.
    /// Replaces any previous ring.
    pub fn attach_ring(&self, writer: RingWriter) {
        if let Some(s) = &self.inner {
            *s.ring.lock().expect("ring sink poisoned") = Some(writer);
            s.ring_attached.store(true, Ordering::Relaxed);
        }
    }

    /// Commits any events buffered in the ring sink's open frame so the
    /// tailer can see them — call at a natural boundary (cycle end,
    /// scenario end).
    pub fn flush_ring(&self) {
        if let Some(s) = &self.inner {
            if let Some(w) = s.ring.lock().expect("ring sink poisoned").as_mut() {
                if w.flush().is_err() {
                    s.ring_io_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Writes a point-in-time registry snapshot ([`ObsSummary`]) into
    /// the ring stream, so a tailer gets metrics as well as events.
    pub fn publish_snapshot(&self) {
        let Some(s) = &self.inner else { return };
        let summary = self.summary();
        if let Some(w) = s.ring.lock().expect("ring sink poisoned").as_mut() {
            if w.write_snapshot(&summary).is_err() {
                s.ring_io_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Flushes and detaches the ring sink, returning the writer (so a
    /// caller can inspect its frame/event counts). `None` when no ring
    /// was attached.
    pub fn detach_ring(&self) -> Option<RingWriter> {
        let s = self.inner.as_ref()?;
        let mut ring = s.ring.lock().expect("ring sink poisoned");
        let mut w = ring.take();
        s.ring_attached.store(false, Ordering::Relaxed);
        if let Some(w) = w.as_mut() {
            if w.flush().is_err() {
                s.ring_io_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        w
    }

    /// The live flight-recorder contents, oldest first (empty for a
    /// disabled handle).
    pub fn recorder_dump(&self) -> Vec<EventRecord> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |s| s.recorder.dump())
    }

    /// The ring snapshot taken at the most recent lock loss (empty if
    /// none occurred or the handle is disabled).
    pub fn lock_loss_dump(&self) -> Vec<EventRecord> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |s| s.recorder.last_lock_loss_dump())
    }

    /// Point-in-time summary of every registered instrument, sorted by
    /// name (empty for a disabled handle).
    pub fn summary(&self) -> ObsSummary {
        let Some(s) = &self.inner else {
            return ObsSummary::default();
        };
        let mut counters: Vec<(String, u64)> = s
            .counters
            .lock()
            .expect("counter registry poisoned")
            .iter()
            .map(|(name, cell)| (name.to_string(), cell.load(Ordering::Relaxed)))
            .collect();
        // The spine's own drop accounting is surfaced as counters even
        // though it lives in dedicated cells — a truncated forensics
        // dump must be visible in every export path.
        let recorder_dropped = s.recorder_dropped.load(Ordering::Relaxed);
        let ring_dropped = s.ring_dropped.load(Ordering::Relaxed);
        let ring_io_errors = s.ring_io_errors.load(Ordering::Relaxed);
        counters.push((names::obs::RECORDER_DROPPED.to_string(), recorder_dropped));
        if ring_dropped > 0 || s.ring_attached.load(Ordering::Relaxed) {
            counters.push((names::obs::RING_DROPPED.to_string(), ring_dropped));
            counters.push((names::obs::RING_IO_ERRORS.to_string(), ring_io_errors));
        }
        counters.sort();
        let mut gauges: Vec<(String, u64)> = s
            .gauges
            .lock()
            .expect("gauge registry poisoned")
            .iter()
            .map(|(name, cell)| (name.to_string(), cell.load(Ordering::Relaxed)))
            .collect();
        gauges.sort();
        let mut histograms: Vec<(String, HistogramSnapshot)> = s
            .histograms
            .lock()
            .expect("histogram registry poisoned")
            .iter()
            .map(|(name, core)| {
                (
                    name.to_string(),
                    Histogram(Some(Arc::clone(core))).snapshot(),
                )
            })
            .collect();
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        let mut sharded: Vec<(String, u64)> = s
            .sharded
            .lock()
            .expect("sharded registry poisoned")
            .iter()
            .map(|(name, shards)| {
                (
                    name.to_string(),
                    ShardedCounter(Some(Arc::clone(shards))).sum(),
                )
            })
            .collect();
        sharded.sort();
        ObsSummary {
            counters,
            gauges,
            histograms,
            sharded,
            events_recorded: s.seq.load(Ordering::Relaxed),
            events_dropped: recorder_dropped + ring_dropped + ring_io_errors,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.counter("x").incr();
        t.event(Event::CycleRendered { cycle: 0 });
        assert!(t.recorder_dump().is_empty());
        assert_eq!(t.summary().counter("x"), 0);
    }

    #[test]
    fn registry_is_get_or_create_shared() {
        let t = Telemetry::new();
        let a = t.counter(names::chan::CYCLES);
        let b = t.counter(names::chan::CYCLES);
        a.add(2);
        b.add(3);
        assert_eq!(t.summary().counter(names::chan::CYCLES), 5);
        // Clones of the handle share the spine.
        let t2 = t.clone();
        t2.counter(names::chan::CYCLES).incr();
        assert_eq!(t.summary().counter(names::chan::CYCLES), 6);
    }

    #[test]
    fn events_stream_to_jsonl_and_validate() {
        let t = Telemetry::new();
        let sink = Arc::new(Mutex::new(Vec::<u8>::new()));
        struct SharedSink(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedSink {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        t.attach_jsonl(Box::new(SharedSink(Arc::clone(&sink))));
        t.event(Event::CycleRendered { cycle: 0 });
        t.event(Event::SessionHealth {
            cycle: 1,
            state: PhaseState::Suspect,
        });
        t.detach_jsonl();
        let log = String::from_utf8(sink.lock().unwrap().clone()).unwrap();
        assert_eq!(export::validate_jsonl(&log), Ok(2));
    }

    #[test]
    fn lock_loss_dump_survives_later_events() {
        let t = Telemetry::with_config(ObsConfig {
            recorder_capacity: 8,
        });
        t.event(Event::CycleRendered { cycle: 1 });
        t.event(Event::SessionHealth {
            cycle: 1,
            state: PhaseState::Reacquiring,
        });
        for c in 2..20 {
            t.event(Event::CycleRendered { cycle: c });
        }
        let dump = t.lock_loss_dump();
        assert_eq!(dump.len(), 2);
        assert!(dump[1].event.is_lock_loss());
    }

    #[test]
    fn ring_sink_streams_events_to_a_tailer() {
        let mut path = std::env::temp_dir();
        path.push(format!("inframe-spine-ring-{}", std::process::id()));
        let t = Telemetry::new();
        t.attach_ring(RingWriter::create(&path, wire::RingConfig::default()).unwrap());
        for c in 0..20 {
            t.event(Event::CycleRendered { cycle: c });
        }
        t.publish_snapshot();
        let w = t.detach_ring().expect("ring was attached");
        assert_eq!(w.events_appended(), 20);
        let mut tail = TailReader::open(&path).unwrap();
        let (mut events, mut snapshots) = (Vec::new(), Vec::new());
        tail.poll(&mut events, &mut snapshots).unwrap();
        assert_eq!(events, t.recorder_dump());
        assert_eq!(snapshots.len(), 1);
        // Drop accounting is surfaced in both the live summary and the
        // streamed snapshot.
        let s = t.summary();
        assert_eq!(s.counter(names::obs::RECORDER_DROPPED), 0);
        assert_eq!(s.events_dropped, 0);
        assert_eq!(snapshots[0].counter(names::obs::RING_DROPPED), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn summary_channel_rolls_up_well_known_names() {
        let t = Telemetry::new();
        t.counter(names::chan::CYCLES).add(4);
        t.counter(names::chan::GOB_OK).add(30);
        t.counter(names::chan::GOB_ERRONEOUS).add(5);
        t.counter(names::chan::GOB_UNAVAILABLE).add(5);
        t.gauge(names::chan::PAYLOAD_BITS).set(96);
        t.gauge(names::chan::DATA_FRAME_RATE).set_f64(120.0 / 14.0);
        let ch = t.summary().channel();
        assert_eq!(ch.cycles, 4);
        assert_eq!(ch.total_gobs(), 40);
        assert!((ch.available_ratio() - 0.875).abs() < 1e-9);
        assert_eq!(ch.payload_bits, 96);
        // Bit-exact round trip — no f32 truncation of 120/τ.
        assert_eq!(ch.data_frame_rate, 120.0 / 14.0);
    }
}
