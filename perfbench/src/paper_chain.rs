//! `paper_chain`: the full pixel chain at paper scale.
//!
//! A 1920×1080 display shows the Sunrise clip multiplexed with a
//! [`NetSender`] payload (5×3 tiles, one bulk unicast file at a time plus
//! one short ticker datagram per data cycle); a 1280×720 rolling-shutter
//! camera captures it at 30 fps; the demultiplexer's decoded cycles feed a
//! [`NetReceiver`]. The pump makes the calls [`inframe_sim::Link`]'s
//! capture pump makes, except that it hands the camera the emission window
//! in place instead of cloning it.

use crate::net_fleet::Popped;
use crate::trace::{self, span, Layer};
use crate::{arrival_lead, mix, Counter, Measure, Report, SimLedger, Window};
use inframe_camera::{Camera, Shutter};
use inframe_code::parity::GobStats;
use inframe_core::layout::DataLayout;
use inframe_core::region::RegionMap;
use inframe_core::sender::{PayloadSource, Sender};
use inframe_core::{DecodedDataFrame, Demultiplexer};
use inframe_display::{DisplayStream, FrameEmission};
use inframe_frame::Plane;
use inframe_net::{AddressFilter, DeadlineClass, MacAddr, NetReceiver, NetSender, StreamQos};
use inframe_sim::{Scale, Scenario, SimulationConfig};
use inframe_video::{FrameRate, VideoSource};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::Instant;

/// Bulk stream id.
pub const BULK: u8 = 0;
/// Ticker stream id.
pub const TICKER: u8 = 1;
/// The receiving phone's address.
pub const RX_ADDR: u16 = 0x0101;

/// Host time spent inside the adapters, read by the pump to split the
/// sender's time into video, payload and render.
#[derive(Debug, Default)]
struct Probe {
    video_ns: Cell<u64>,
}

/// `VideoSource` adapter: times each frame fetch and forwards
/// `next_frame_into`, so the sender keeps its allocation-free path.
struct TimedVideo<V> {
    inner: V,
    probe: Rc<Probe>,
}

impl<V: VideoSource> TimedVideo<V> {
    fn timed<R>(&mut self, f: impl FnOnce(&mut V) -> R) -> R {
        let t = Instant::now();
        let r = span(Layer::VideoFrame, || f(&mut self.inner));
        let ns = t.elapsed().as_nanos() as u64;
        self.probe.video_ns.set(self.probe.video_ns.get() + ns);
        r
    }
}

impl<V: VideoSource> VideoSource for TimedVideo<V> {
    fn width(&self) -> usize {
        self.inner.width()
    }
    fn height(&self) -> usize {
        self.inner.height()
    }
    fn frame_rate(&self) -> FrameRate {
        self.inner.frame_rate()
    }
    fn next_frame(&mut self) -> Option<Plane<f32>> {
        self.timed(|v| v.next_frame())
    }
    fn next_frame_into(&mut self, out: &mut Plane<f32>) -> bool {
        self.timed(|v| v.next_frame_into(out))
    }
}

/// `PayloadSource` adapter over a shared [`NetSender`], so the pump can
/// queue and retire traffic between cycles while the sender owns the
/// adapter.
struct TimedPayload {
    net: Rc<RefCell<NetSender>>,
}

impl PayloadSource for TimedPayload {
    fn next_payload(&mut self, bits: usize) -> Vec<bool> {
        span(Layer::NetSenderPayload, || {
            PayloadSource::next_payload(&mut *self.net.borrow_mut(), bits)
        })
    }
}

/// Opens the workload's two streams on a sender over `map`.
pub fn net_sender(map: RegionMap) -> NetSender {
    let mut tx = NetSender::new(map, MacAddr::new(0x0001));
    tx.open_stream(BULK, StreamQos::bulk(), 64);
    tx.open_stream(TICKER, ticker_qos(), 32);
    tx
}

fn ticker_qos() -> StreamQos {
    StreamQos {
        priority: 1,
        weight: 1,
        deadline: DeadlineClass::Interactive,
    }
}

/// The phone's network receiver over `map`.
fn net_receiver(map: RegionMap) -> NetReceiver {
    let mut rx = NetReceiver::new(map, AddressFilter::new(MacAddr::new(RX_ADDR)));
    rx.open_stream(BULK, 256, 64, 1 << 16);
    rx.open_stream(TICKER, 256, 32, 1 << 16);
    rx
}

/// The pixel chain: sender → display → camera → demultiplexer.
pub struct Chain {
    sender: Sender<TimedVideo<Box<dyn VideoSource>>, TimedPayload>,
    display: DisplayStream,
    camera: Camera,
    demux: Demultiplexer,
    window: VecDeque<FrameEmission>,
    exposure_mid: f64,
    probe: Rc<Probe>,
    /// The payload source, shared with the sender's adapter.
    pub net: Rc<RefCell<NetSender>>,
    /// Captures that failed (window not covered).
    pub captures_failed: u64,
    /// Successful captures.
    pub captures: u64,
    /// Emissions held, summed over captures.
    pub emissions_held: u64,
}

impl Chain {
    /// Builds the chain the way `Link::run_session` does.
    pub fn new(
        c: &SimulationConfig,
        video: Box<dyn VideoSource>,
        net: NetSender,
        camera_seed: u64,
    ) -> Self {
        let probe = Rc::new(Probe::default());
        let net = Rc::new(RefCell::new(net));
        let sender = Sender::new(
            c.inframe,
            TimedVideo {
                inner: video,
                probe: probe.clone(),
            },
            TimedPayload { net: net.clone() },
        );
        let registration = c.geometry.display_to_sensor(
            c.inframe.display_w,
            c.inframe.display_h,
            c.camera.width,
            c.camera.height,
        );
        let readout = match c.camera.shutter {
            Shutter::Global => 0.0,
            Shutter::Rolling { readout_s } => readout_s,
        };
        Self {
            sender,
            display: DisplayStream::new(c.display),
            camera: Camera::new(c.camera, c.geometry, camera_seed),
            demux: Demultiplexer::new(c.inframe, &registration, c.camera.width, c.camera.height),
            window: VecDeque::new(),
            exposure_mid: readout / 2.0 + c.camera.exposure_s / 2.0,
            probe,
            net,
            captures_failed: 0,
            captures: 0,
            emissions_held: 0,
        }
    }

    /// Pumps one displayed frame and the capture it completes, if any. A
    /// decoded cycle goes to `sink` with its capture's mid-exposure time;
    /// the receiver operation (demultiplexer plus sink) is timed into `m`.
    /// Returns `false` when the video ended.
    pub fn step_frame(
        &mut self,
        m: &mut Measure,
        sink: &mut impl FnMut(DecodedDataFrame, f64),
    ) -> bool {
        let t = Instant::now();
        let video_before = self.probe.video_ns.get();
        let frame = span(Layer::SenderRender, || self.sender.next_frame());
        let ns = t.elapsed().as_nanos() as u64;
        m.sender_ns += ns.saturating_sub(self.probe.video_ns.get() - video_before);
        m.sender_ops += 1;
        let Some(frame) = frame else {
            return false;
        };
        let emission = span(Layer::DisplayPresent, || self.display.present(&frame.plane));
        drop(frame);
        let end = emission.t_start + emission.duration;
        self.window.push_back(emission);
        loop {
            let (need_start, need_end) = self.camera.required_window();
            if need_end > end {
                break;
            }
            while self
                .window
                .front()
                .is_some_and(|e| e.t_start + e.duration <= need_start + 1e-12)
            {
                self.window.pop_front();
            }
            let t_mid =
                self.camera.config().frame_start(self.camera.next_index()) + self.exposure_mid;
            let held = self.window.len() as u64;
            let camera = &mut self.camera;
            let emissions = self.window.make_contiguous();
            match span(Layer::CameraCapture, || camera.capture(emissions)) {
                Ok(cap) => {
                    self.captures += 1;
                    self.emissions_held += held;
                    let t = Instant::now();
                    let decoded = span(Layer::Demux, || self.demux.push_capture(&cap.plane, t_mid));
                    if let Some(d) = decoded {
                        sink(d, t_mid);
                    }
                    m.rx(t.elapsed().as_nanos() as u64);
                }
                Err(_) => {
                    self.captures_failed += 1;
                    self.camera.skip_frame();
                }
            }
        }
        true
    }

    /// Closes the demultiplexer's last partial cycle.
    pub fn finish(&mut self) -> Option<DecodedDataFrame> {
        self.demux.finish()
    }
}

/// Data cycles before the timed window (display power-on transient,
/// first-use pools and lazy tables).
const WARMUP_CYCLES: u64 = 2;
/// Traffic queued before this cycle counts as expected.
const ENQUEUE_CYCLES: u64 = 17;
/// The simulated slice: deliveries and GOB stats up to the end of this
/// cycle count. The timed window runs at least to here, then on until
/// its deadline.
const SIM_CYCLES: u64 = 27;
/// Chain constructions timed for `setup_s`.
const SETUPS: usize = 7;
/// A ticker event happens once every this many data cycles.
const TICKER_EVERY: u64 = 4;
/// A new unicast object is queued once every this many data cycles.
const BULK_EVERY: u64 = 8;
/// The clip on the display.
const SCENARIO: Scenario = Scenario::Gray;

/// The workload's scale and camera for `seed`.
fn config(seed: u64) -> SimulationConfig {
    let s = Scale::Paper;
    SimulationConfig {
        inframe: s.inframe(),
        display: s.display(),
        camera: s.camera(),
        geometry: s.geometry(),
        cycles: SIM_CYCLES as u32,
        seed,
    }
}

/// One datagram in flight.
struct Item {
    stream: u8,
    bytes: Vec<u8>,
    enqueued_s: f64,
}

/// Traffic generator and delivery ledger.
struct Traffic {
    seed: u64,
    next_index: u64,
    items: Vec<Item>,
    sim: SimLedger,
    stats: GobStats,
    sim_end_s: f64,
    enqueue_end_s: f64,
    open_decoders_max: usize,
    popped: Popped,
    /// Capture time of a receive not yet settled.
    received_at: Option<f64>,
}

impl Traffic {
    fn queue(&mut self, tx: &mut NetSender, stream: u8, t: f64) {
        let r = mix(self.seed ^ self.next_index);
        let (dst, len) = match stream {
            BULK => (RX_ADDR, 44 + (r % 8) as usize),
            _ => (0xFFFF, 10 + (r % 4) as usize),
        };
        let bytes: Vec<u8> = (0..len as u64)
            .map(|i| mix(r ^ i.wrapping_mul(0xA24B_AED4_963E_E407)) as u8)
            .collect();
        self.next_index += 1;
        tx.send_datagram(stream, MacAddr::new(dst), &bytes);
        if t < self.enqueue_end_s {
            self.sim.expected += 1;
        }
        self.items.push(Item {
            stream,
            bytes,
            enqueued_s: t,
        });
    }

    /// The phone's side of one decoded cycle: the network receiver.
    fn receive(&mut self, d: DecodedDataFrame, t_mid: f64, rx: &mut NetReceiver) {
        assert!(self.received_at.is_none(), "two cycles closed in one frame");
        if t_mid < self.sim_end_s {
            self.stats.merge(&d.stats);
            self.sim.fold(d.cycle);
            self.sim.fold(d.stats.available);
            self.sim.fold(d.stats.erroneous);
        }
        let popped = &mut self.popped;
        span(Layer::NetReceiver, || {
            rx.push_cycle(&d.payload);
            popped.pop_all(rx, [BULK, TICKER].into_iter());
        });
        self.received_at = Some(t_mid);
    }

    /// After a receive: byte check of every delivery, and retirement of
    /// completed objects (an ideal acknowledgement).
    fn settle(&mut self, rx: &mut NetReceiver, tx: &mut NetSender) {
        let Some(t_mid) = self.received_at.take() else {
            return;
        };
        let in_slice = t_mid < self.sim_end_s;
        for (stream, bytes) in self.popped.iter() {
            let Some(i) = self
                .items
                .iter()
                .position(|it| it.stream == stream && it.bytes == bytes)
            else {
                self.sim.corrupt += 1;
                continue;
            };
            let it = self.items.remove(i);
            if in_slice && it.enqueued_s < self.enqueue_end_s {
                self.sim.deliver(it.bytes.len(), it.enqueued_s, t_mid);
            }
        }
        if in_slice {
            self.open_decoders_max = self.open_decoders_max.max(rx.open_decoders());
        }
        let done: Vec<u16> = rx.completed_objects().to_vec();
        for id in done {
            if tx.retire_object(id) {
                rx.forget_object(id);
            }
        }
    }
}

/// Runs the workload: set-up, warm-up, then timed data cycles until the
/// simulated slice is done and `seconds` have passed.
pub fn run(seed: u64, seconds: f64, trace_mode: bool) -> Report {
    let cfg = config(seed);
    let layout = DataLayout::from_config(&cfg.inframe);
    let cycle_s = cfg.inframe.tau as f64 / cfg.inframe.refresh_hz;
    let new_traffic = || Traffic {
        seed,
        next_index: 0,
        items: Vec::new(),
        sim: SimLedger::new(),
        stats: GobStats::default(),
        sim_end_s: SIM_CYCLES as f64 * cycle_s,
        enqueue_end_s: ENQUEUE_CYCLES as f64 * cycle_s,
        open_decoders_max: 0,
        popped: Popped::default(),
        received_at: None,
    };

    // Set-up: the chain is built SETUPS times; the last one runs.
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let mut traffic = new_traffic();
        let t = Instant::now();
        let map = RegionMap::new(&layout, 5, 3);
        let mut tx = net_sender(map.clone());
        traffic.queue(&mut tx, BULK, -cycle_s * arrival_lead(seed, 0));
        let video = SCENARIO.source(cfg.inframe.display_w, cfg.inframe.display_h, seed);
        let chain = Chain::new(&cfg, video, tx, seed ^ 0xCA_3E1A);
        let rx = net_receiver(map);
        setup_s.push(t.elapsed().as_secs_f64());
        built = Some((chain, rx, traffic));
    }
    let (mut chain, mut rx, mut traffic) = built.expect("built above");
    if trace_mode {
        trace::install(1 << 20);
    }
    let net = chain.net.clone();
    let tau = cfg.inframe.tau as u64;
    let mut warm = Measure::default();
    let mut window: Option<Window> = None;
    let mut counters = Vec::new();
    let mut cycle = 0u64;
    loop {
        if cycle == SIM_CYCLES {
            counters = paper_counters(&chain, &rx, &traffic);
        }
        if cycle >= SIM_CYCLES && window.as_ref().is_some_and(|w| w.expired()) {
            break;
        }
        if cycle == WARMUP_CYCLES {
            window = Some(Window::new(seconds, trace_mode));
        }
        // Cycle boundary: queue this cycle's traffic. Each item arrived at
        // a seeded instant during the previous cycle and waited for this
        // boundary.
        let now_s = cycle as f64 * cycle_s;
        {
            let mut tx = net.borrow_mut();
            let lead = cycle_s * arrival_lead(seed, cycle);
            if cycle % TICKER_EVERY == 1 {
                traffic.queue(&mut tx, TICKER, now_s - lead);
            }
            if cycle > 0 && cycle.is_multiple_of(BULK_EVERY) {
                traffic.queue(&mut tx, BULK, now_s - lead);
            }
        }
        let m = match window.as_mut() {
            Some(w) => {
                w.begin();
                trace::set_request(cycle);
                w.current()
            }
            None => &mut warm,
        };
        for _ in 0..tau {
            let mut sink = |d: DecodedDataFrame, t_mid: f64| traffic.receive(d, t_mid, &mut rx);
            assert!(chain.step_frame(m, &mut sink), "the clip never ends");
            traffic.settle(&mut rx, &mut net.borrow_mut());
        }
        if let Some(w) = window.as_mut() {
            w.end(cycle_s);
            w.end_segment();
        }
        cycle += 1;
    }
    let mut w = window.expect("warm-up is shorter than the slice");
    w.close();
    let mut notes = vec![format!(
        "paper_chain: {}x{} display, {}x{} camera, tau {}, {} warm-up cycles, slice {} cycles ({} enqueue), {} timed cycles",
        cfg.inframe.display_w,
        cfg.inframe.display_h,
        cfg.camera.width,
        cfg.camera.height,
        tau,
        WARMUP_CYCLES,
        SIM_CYCLES,
        ENQUEUE_CYCLES,
        cycle - WARMUP_CYCLES
    )];
    notes.push(format!(
        "paper_chain: warm-up {} frames, {} captures",
        warm.sender_ops,
        warm.rx_ns.len()
    ));
    Report {
        setup_s,
        untraced: w.untraced,
        traced: w.traced,
        calibration_ns: w.calibration_ns,
        sim: traffic.sim,
        counters,
        notes,
    }
}

fn paper_counters(chain: &Chain, rx: &NetReceiver, traffic: &Traffic) -> Vec<Counter> {
    let s = &traffic.stats;
    let total = (s.available + s.unavailable).max(1) as f64;
    vec![
        ("core.demux.gob_available_ratio", s.available as f64 / total),
        (
            "core.demux.gob_error_ratio",
            s.erroneous as f64 / s.available.max(1) as f64,
        ),
        ("camera.capture.failed", chain.captures_failed as f64),
        (
            "camera.window_emissions",
            chain.emissions_held as f64 / chain.captures.max(1) as f64,
        ),
        ("net.receiver.frames_rx", rx.frames_rx() as f64),
        ("net.receiver.frames_filtered", rx.frames_filtered() as f64),
        (
            "net.receiver.symbols_filtered",
            rx.symbols_filtered() as f64,
        ),
        ("net.receiver.frames_rejected", rx.frames_rejected() as f64),
        (
            "net.receiver.open_decoders_max",
            traffic.open_decoders_max as f64,
        ),
    ]
}
