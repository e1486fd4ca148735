//! Outside-in span recorder.
//!
//! The drivers wrap every call into a layer in [`span`]. While tracing is
//! on, each span records its layer, start, end, parent span and request
//! id into an in-memory buffer sized at set-up, and folds its *self*
//! time (duration minus the time its child spans cover) and self
//! allocations into per-layer totals. While tracing is off, [`span`] is a
//! thread-local flag test around the call.
//!
//! The recorder is thread-local: the pump thread makes every layer call,
//! and the render engine's workers only run inside those calls.

use crate::alloc;
use std::cell::RefCell;
use std::io::Write;
use std::time::Instant;

/// The layers the benchmark times, named after the crate and call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `VideoSource::next_frame_into` (through the timing adapter).
    VideoFrame,
    /// `Sender::next_frame` minus its video and payload children.
    SenderRender,
    /// `PayloadSource::next_payload` adapter / `NetSender::next_cycle_payload`.
    NetSenderPayload,
    /// `Carousel::next_cycle_payload`.
    CarouselPayload,
    /// `DataFrame::encode`.
    DataframeEncode,
    /// `dataframe::decode`.
    DataframeDecode,
    /// `DisplayStream::present`.
    DisplayPresent,
    /// `Camera::capture`.
    CameraCapture,
    /// `Demultiplexer::push_capture`.
    Demux,
    /// `NetReceiver::push_cycle` + `pop_datagram`.
    NetReceiver,
    /// `build_feedback`, `ingest_feedback`, `observe_feedback_window`.
    NetFeedback,
    /// `ReceiverSession::push_cycle`.
    LinkSession,
    /// `ModulationController::observe_cycle`.
    LinkControl,
    /// `RegionChannel::transmit_payload`, `GobChannel::transmit`.
    SimChannel,
    /// `Backchannel::send` / `poll`.
    SimBackchannel,
}

/// Number of layers.
pub const LAYERS: usize = 15;

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; LAYERS] = [
        Layer::VideoFrame,
        Layer::SenderRender,
        Layer::NetSenderPayload,
        Layer::CarouselPayload,
        Layer::DataframeEncode,
        Layer::DataframeDecode,
        Layer::DisplayPresent,
        Layer::CameraCapture,
        Layer::Demux,
        Layer::NetReceiver,
        Layer::NetFeedback,
        Layer::LinkSession,
        Layer::LinkControl,
        Layer::SimChannel,
        Layer::SimBackchannel,
    ];

    /// Metric-name prefix.
    pub fn name(self) -> &'static str {
        match self {
            Layer::VideoFrame => "video.frame",
            Layer::SenderRender => "core.sender.render",
            Layer::NetSenderPayload => "net.sender.payload",
            Layer::CarouselPayload => "link.carousel.payload",
            Layer::DataframeEncode => "core.dataframe.encode",
            Layer::DataframeDecode => "core.dataframe.decode",
            Layer::DisplayPresent => "display.present",
            Layer::CameraCapture => "camera.capture",
            Layer::Demux => "core.demux",
            Layer::NetReceiver => "net.receiver",
            Layer::NetFeedback => "net.feedback",
            Layer::LinkSession => "link.session",
            Layer::LinkControl => "link.control",
            Layer::SimChannel => "sim.channel",
            Layer::SimBackchannel => "sim.backchannel",
        }
    }
}

/// Self-time and allocation totals of one layer over the traced blocks.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    /// Spans closed.
    pub calls: u64,
    /// Duration minus child-span time, ns.
    pub self_ns: u64,
    /// Allocation events not inside a child span.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
}

/// One recorded span. Times are ns since the tracer was installed;
/// `parent` indexes the span buffer (`u32::MAX` for a top-level span).
#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    request: u64,
}

struct Open {
    layer: Layer,
    start: Instant,
    index: u32,
    child_ns: u64,
    allocs0: (u64, u64),
    child_allocs: (u64, u64),
}

struct Tracer {
    on: bool,
    epoch: Instant,
    request: u64,
    stack: Vec<Open>,
    spans: Vec<Span>,
    dropped: u64,
    totals: [LayerTotals; LAYERS],
    top_ns: u64,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Installs a recorder on this thread with room for `capacity` spans
/// (allocated now, so recording never allocates inside a layer). Spans
/// past the capacity still feed the totals but are not kept.
pub fn install(capacity: usize) {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            on: false,
            epoch: Instant::now(),
            request: 0,
            stack: Vec::with_capacity(16),
            spans: Vec::with_capacity(capacity),
            dropped: 0,
            totals: [LayerTotals::default(); LAYERS],
            top_ns: 0,
        })
    });
}

/// Turns recording on or off. Only call between blocks, outside spans.
///
/// # Panics
/// Panics when no recorder is installed or a span is open.
pub fn set_enabled(on: bool) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let t = t.as_mut().expect("trace::install first");
        assert!(t.stack.is_empty(), "tracing toggled inside a span");
        t.on = on;
    });
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    TRACER.with(|t| t.borrow().as_ref().is_some_and(|t| t.on))
}

/// Sets the request id stamped on spans opened from now on.
pub fn set_request(id: u64) {
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            t.request = id;
        }
    });
}

/// Runs `f` inside a span of `layer`.
#[inline]
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    let open = enter(layer);
    let r = f();
    if open {
        exit();
    }
    r
}

fn enter(layer: Layer) -> bool {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let Some(t) = t.as_mut().filter(|t| t.on) else {
            return false;
        };
        let start = Instant::now();
        let index = if t.spans.len() < t.spans.capacity() {
            let parent = t.stack.last().map_or(u32::MAX, |o| o.index);
            t.spans.push(Span {
                layer,
                start_ns: start.duration_since(t.epoch).as_nanos() as u64,
                end_ns: 0,
                parent,
                request: t.request,
            });
            (t.spans.len() - 1) as u32
        } else {
            t.dropped += 1;
            u32::MAX
        };
        t.stack.push(Open {
            layer,
            start,
            index,
            child_ns: 0,
            allocs0: alloc::snapshot(),
            child_allocs: (0, 0),
        });
        true
    })
}

fn exit() {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let t = t.as_mut().expect("span entered with a recorder");
        let (a1, b1) = alloc::snapshot();
        let end = Instant::now();
        let open = t.stack.pop().expect("span stack underflow");
        let dur = end.duration_since(open.start).as_nanos() as u64;
        let allocs = a1 - open.allocs0.0;
        let bytes = b1 - open.allocs0.1;
        let tot = &mut t.totals[open.layer as usize];
        tot.calls += 1;
        tot.self_ns += dur.saturating_sub(open.child_ns);
        tot.allocs += allocs.saturating_sub(open.child_allocs.0);
        tot.alloc_bytes += bytes.saturating_sub(open.child_allocs.1);
        match t.stack.last_mut() {
            Some(parent) => {
                parent.child_ns += dur;
                parent.child_allocs.0 += allocs;
                parent.child_allocs.1 += bytes;
            }
            None => t.top_ns += dur,
        }
        if let Some(s) = t.spans.get_mut(open.index as usize) {
            s.end_ns = end.duration_since(t.epoch).as_nanos() as u64;
        }
    });
}

/// What the recorder accumulated.
#[derive(Debug, Clone, Copy)]
pub struct Ledger {
    /// Per-layer totals, indexed like [`Layer::ALL`].
    pub totals: [LayerTotals; LAYERS],
    /// Time covered by top-level spans, ns.
    pub covered_ns: u64,
    /// Spans recorded into the buffer.
    pub spans: usize,
    /// Spans past the buffer capacity (totals only).
    pub dropped: u64,
}

/// The accumulated ledger (all zeros when no recorder is installed).
pub fn ledger() -> Ledger {
    TRACER.with(|t| match t.borrow().as_ref() {
        Some(t) => Ledger {
            totals: t.totals,
            covered_ns: t.top_ns,
            spans: t.spans.len(),
            dropped: t.dropped,
        },
        None => Ledger {
            totals: [LayerTotals::default(); LAYERS],
            covered_ns: 0,
            spans: 0,
            dropped: 0,
        },
    })
}

/// Writes the recorded spans as CSV (`name,start_ns,end_ns,parent,request`;
/// `parent` is a row index, empty for top-level spans).
pub fn write_spans(path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name,start_ns,end_ns,parent,request")?;
    TRACER.with(|t| -> std::io::Result<()> {
        if let Some(t) = t.borrow().as_ref() {
            for s in &t.spans {
                let parent = if s.parent == u32::MAX {
                    String::new()
                } else {
                    s.parent.to_string()
                };
                writeln!(
                    out,
                    "{},{},{},{},{}",
                    s.layer.name(),
                    s.start_ns,
                    s.end_ns,
                    parent,
                    s.request
                )?;
            }
        }
        Ok(())
    })?;
    out.flush()
}
