//! End-to-end benchmark of the InFrame chain.
//!
//! Three workloads drive the layers' public functions the way the `sim`
//! drivers do, with every layer call wrapped in a [`trace::span`] from the
//! outside:
//!
//! * [`paper_chain`] — the full pixel chain at paper scale,
//! * [`net_fleet`] — the addressed network stack at GOB level, many
//!   receivers, closed-loop ARQ,
//! * [`link_bulk`] — the fountain carousel at GOB level with large objects.
//!
//! Each workload returns a [`Report`]: host timings from the timed blocks,
//! simulated outcomes from a fixed, seed-determined slice of the run (so
//! they repeat exactly per seed), counters, and the trace ledger.

pub mod alloc;
pub mod calib;
pub mod link_bulk;
pub mod net_fleet;
pub mod paper_chain;
pub mod trace;

use std::time::{Duration, Instant};

/// Host-side timings of one class of blocks (traced or untraced).
#[derive(Debug, Clone, Default)]
pub struct Measure {
    /// Blocks run.
    pub blocks: u64,
    /// Host time of those blocks, ns.
    pub host_ns: u64,
    /// Simulated seconds those blocks advanced.
    pub sim_s: f64,
    /// Sender operations (displayed frames, or cycle payloads).
    pub sender_ops: u64,
    /// Sender self time, ns.
    pub sender_ns: u64,
    /// Latency of every receiver operation, ns.
    pub rx_ns: Vec<u32>,
    /// Running total of `rx_ns`.
    pub rx_total_ns: u64,
    /// Running totals at each segment boundary (see [`Window::end_segment`]).
    pub marks: Vec<Mark>,
}

/// Running totals of a [`Measure`] at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mark {
    host_ns: u64,
    sim_s: f64,
    sender_ops: u64,
    sender_ns: u64,
    rx_ops: u64,
    rx_ns: u64,
    /// Host-time scale of the segment this mark closes (see [`calib`]).
    scale: f64,
}

impl Measure {
    /// An empty measure with room for [`RX_RESERVE`] receiver operations.
    /// The room is reserved, not touched, so the sample buffer adds to
    /// the peak RSS only what it holds, without the spikes of doubling.
    fn reserved() -> Self {
        Self {
            rx_ns: Vec::with_capacity(RX_RESERVE),
            ..Self::default()
        }
    }

    /// Records one receiver operation.
    pub fn rx(&mut self, ns: u64) {
        self.rx_ns.push(ns.min(u32::MAX as u64) as u32);
        self.rx_total_ns += ns;
    }

    fn mark(&self) -> Mark {
        Mark {
            host_ns: self.host_ns,
            sim_s: self.sim_s,
            sender_ops: self.sender_ops,
            sender_ns: self.sender_ns,
            rx_ops: self.rx_ns.len() as u64,
            rx_ns: self.rx_total_ns,
            scale: f64::NAN,
        }
    }

    /// Simulated seconds per host second, over all blocks.
    pub fn realtime_x(&self) -> f64 {
        self.sim_s / (self.host_ns as f64 * 1e-9)
    }

    /// Per-segment rates `(realtime_x, sender ops/s, receiver ops/s)`,
    /// with host times scaled by the segment's calibration when `scaled`.
    /// Medians of these shrug off the odd segment a busy host stretched.
    pub fn segment_rates(&self, scaled: bool) -> Vec<(f64, f64, f64)> {
        let mut prev = Mark::default();
        self.marks
            .iter()
            .map(|m| {
                let k = if scaled { m.scale } else { 1.0 };
                let d = |a: u64, b: u64| (a - b) as f64 * k * 1e-9;
                let r = (
                    (m.sim_s - prev.sim_s) / d(m.host_ns, prev.host_ns),
                    (m.sender_ops - prev.sender_ops) as f64 / d(m.sender_ns, prev.sender_ns),
                    (m.rx_ops - prev.rx_ops) as f64 / d(m.rx_ns, prev.rx_ns),
                );
                prev = *m;
                r
            })
            .collect()
    }

    /// Latency of every receiver operation in a segment, ms, scaled by
    /// its segment's calibration, sorted.
    pub fn scaled_rx_ms(&self) -> Vec<f64> {
        let mut prev = 0;
        let mut v = Vec::with_capacity(self.rx_ns.len());
        for m in &self.marks {
            let ops = &self.rx_ns[prev..m.rx_ops as usize];
            v.extend(ops.iter().map(|&ns| ns as f64 * m.scale * 1e-6));
            prev = m.rx_ops as usize;
        }
        v.sort_by(f64::total_cmp);
        v
    }
}

/// The timed window: blocks run until the deadline. In trace mode every
/// other block is traced, so one run yields both the traced and the
/// untraced rate on interleaved blocks.
pub struct Window {
    deadline: Instant,
    trace_mode: bool,
    started: Option<Instant>,
    last_calibration: Instant,
    /// Number of `untraced` marks at each calibration.
    calibrated_marks: Vec<usize>,
    /// Every timed calibration kernel run, ns.
    pub calibration_ns: Vec<f64>,
    /// Untraced blocks.
    pub untraced: Measure,
    /// Traced blocks.
    pub traced: Measure,
}

impl Window {
    /// A window of `seconds` from now (after one untimed calibration run
    /// that warms the kernel up).
    pub fn new(seconds: f64, trace_mode: bool) -> Self {
        calib::measure();
        let now = Instant::now();
        Self {
            deadline: now + Duration::from_secs_f64(seconds),
            trace_mode,
            started: None,
            last_calibration: now,
            calibrated_marks: Vec::new(),
            calibration_ns: Vec::new(),
            untraced: Measure::reserved(),
            traced: Measure::reserved(),
        }
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        Instant::now() >= self.deadline
    }

    /// Pushes the deadline back by `d` (time spent outside the timed
    /// window, such as per-episode construction, does not use it up).
    pub fn extend(&mut self, d: Duration) {
        self.deadline += d;
    }

    fn tracing_next(&self) -> bool {
        self.trace_mode && (self.untraced.blocks + self.traced.blocks) % 2 == 1
    }

    /// Starts a block (and turns tracing on or off for it).
    pub fn begin(&mut self) {
        if self.trace_mode {
            trace::set_enabled(self.tracing_next());
        }
        self.started = Some(Instant::now());
    }

    /// The measure the current block records into.
    pub fn current(&mut self) -> &mut Measure {
        if self.trace_mode && trace::enabled() {
            &mut self.traced
        } else {
            &mut self.untraced
        }
    }

    /// Closes a segment of the untraced blocks: a unit of work whose rate
    /// the end-to-end metrics take the median of (a data cycle of the
    /// pixel chain, an episode at GOB level). Calibrates when a second has
    /// passed since the last calibration.
    pub fn end_segment(&mut self) {
        let m = self.untraced.mark();
        if self
            .untraced
            .marks
            .last()
            .is_none_or(|p| p.host_ns < m.host_ns)
        {
            self.untraced.marks.push(m);
        }
        if self.last_calibration.elapsed() >= CALIBRATE_EVERY {
            self.calibrate();
        }
    }

    /// Times the calibration kernel. Its time does not use up the window.
    fn calibrate(&mut self) {
        let ns = calib::measure();
        self.calibration_ns.push(ns);
        self.calibrated_marks.push(self.untraced.marks.len());
        self.extend(Duration::from_nanos(ns as u64));
        self.last_calibration = Instant::now();
    }

    /// Ends the window: calibrates once more if segments closed since the
    /// last calibration, then scales the segments before each calibration
    /// by the median of it and its two neighbours. One kernel run jitters;
    /// a slow phase of the host lasts tens of seconds.
    pub fn close(&mut self) {
        if self.calibrated_marks.last().copied().unwrap_or(0) < self.untraced.marks.len() {
            self.calibrate();
        }
        let cal = &self.calibration_ns;
        let mut from = 0;
        for (i, &to) in self.calibrated_marks.iter().enumerate() {
            let near = &cal[i.saturating_sub(1)..(i + 2).min(cal.len())];
            let scale = calib::NOMINAL_NS / median(near);
            for m in &mut self.untraced.marks[from..to] {
                m.scale = scale;
            }
            from = to;
        }
    }

    /// Ends the block that advanced `sim_s` simulated seconds.
    pub fn end(&mut self, sim_s: f64) {
        let started = self.started.take().expect("begin before end");
        let ns = started.elapsed().as_nanos() as u64;
        let m = self.current();
        m.blocks += 1;
        m.host_ns += ns;
        m.sim_s += sim_s;
        if self.trace_mode {
            trace::set_enabled(false);
        }
    }
}

/// Receiver operations a timed window has room for before its sample
/// buffer grows (`net_fleet` records about 50 000 a second).
const RX_RESERVE: usize = 1 << 23;

/// How often the window pauses to calibrate (see [`calib`]).
const CALIBRATE_EVERY: Duration = Duration::from_secs(1);

/// Simulated outcomes over the run's fixed slice.
#[derive(Debug, Clone, Default)]
pub struct SimLedger {
    /// Expected (item, receiver) deliveries.
    pub expected: u64,
    /// Deliveries that arrived intact.
    pub delivered: u64,
    /// Deliveries whose bytes differed from what was sent.
    pub corrupt: u64,
    /// Bytes delivered intact.
    pub delivered_bytes: u64,
    /// Simulated seconds from the first enqueue to the last delivery, in
    /// the current episode.
    pub span_s: f64,
    /// The same, summed over closed episodes.
    pub closed_s: f64,
    /// Enqueue-to-delivery time of every intact delivery, s.
    pub delivery_s: Vec<f64>,
    /// FNV-1a fold of every simulated outcome, in order.
    pub digest: u64,
}

impl SimLedger {
    /// An empty ledger with the digest at its offset basis.
    pub fn new() -> Self {
        Self {
            digest: FNV_OFFSET,
            ..Self::default()
        }
    }

    /// Folds `v` into the digest.
    pub fn fold(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.digest = (self.digest ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    }

    /// Ends an episode: its span joins the closed total.
    pub fn close_episode(&mut self) {
        self.closed_s += self.span_s;
        self.span_s = 0.0;
    }

    /// Delivered bits per simulated second of the episodes so far.
    pub fn goodput_bps(&self) -> f64 {
        self.delivered_bytes as f64 * 8.0 / (self.closed_s + self.span_s)
    }

    /// Records one intact delivery.
    pub fn deliver(&mut self, bytes: usize, enqueued_s: f64, delivered_s: f64) {
        self.delivered += 1;
        self.delivered_bytes += bytes as u64;
        self.delivery_s.push(delivered_s - enqueued_s);
        self.span_s = self.span_s.max(delivered_s);
        self.fold(bytes as u64);
        self.fold(delivered_s.to_bits());
    }
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01B3;

/// A named counter read from the layers' public getters.
pub type Counter = (&'static str, f64);

/// Everything one workload run produced.
#[derive(Debug, Clone)]
pub struct Report {
    /// Construction times, s (one per set-up).
    pub setup_s: Vec<f64>,
    /// The timed window.
    pub untraced: Measure,
    /// Traced blocks (trace mode only).
    pub traced: Measure,
    /// Calibration kernel runs in the timed window, ns.
    pub calibration_ns: Vec<f64>,
    /// Simulated outcomes.
    pub sim: SimLedger,
    /// Counters, exact per seed.
    pub counters: Vec<Counter>,
    /// Free-form provenance lines for the human-readable report.
    pub notes: Vec<String>,
}

/// A GOB-level scenario the episode runner steps a cycle at a time.
pub trait Episode {
    /// Whether the scenario is over.
    fn finished(&self) -> bool;
    /// Runs one cycle, recording host timings into `m` and deliveries into
    /// `sim`; returns the simulated seconds the cycle took.
    fn step(&mut self, m: &mut Measure, sim: &mut SimLedger) -> f64;
    /// Deliveries the scenario expects.
    fn expected(&self) -> u64;
    /// Cycles run so far.
    fn cycles(&self) -> u64;
    /// Layer counters read from the public getters.
    fn counters(&self) -> Vec<Counter>;
}

/// Runs episodes `build(0)`, `build(1)`, … until the first `slice` have run
/// and `seconds` of timed cycles have passed. Episode 0 is the warm-up;
/// each construction is a set-up, outside the timed window, and each
/// episode is a segment. Simulated outcomes and counters come from the
/// first `slice` episodes; later episodes still count corrupt deliveries.
/// Returns the report and the number of episodes run.
pub fn run_episodes<E: Episode>(
    seconds: f64,
    trace_mode: bool,
    slice: u64,
    mut build: impl FnMut(u64) -> E,
) -> (Report, u64) {
    if trace_mode {
        trace::install(1 << 20);
    }
    let mut sim = SimLedger::new();
    let mut setup_s = Vec::new();
    let mut counters: Vec<Counter> = Vec::new();
    let mut warm = Measure::default();
    let mut window: Option<Window> = None;
    let mut episode = 0u64;
    while episode < slice || !window.as_ref().is_some_and(|w| w.expired()) {
        let t = Instant::now();
        let mut e = build(episode);
        let built = t.elapsed();
        setup_s.push(built.as_secs_f64());
        if let Some(w) = window.as_mut() {
            w.extend(built);
        }
        let mut spare = SimLedger::new();
        let in_slice = episode < slice;
        let ledger = if in_slice { &mut sim } else { &mut spare };
        ledger.expected += e.expected();
        while !e.finished() {
            match window.as_mut() {
                Some(w) => {
                    w.begin();
                    let dt = e.step(w.current(), ledger);
                    w.end(dt);
                }
                None => {
                    e.step(&mut warm, ledger);
                }
            }
        }
        if in_slice {
            sim.fold(e.cycles());
            sim.close_episode();
            let c = e.counters();
            if counters.is_empty() {
                counters = c;
            } else {
                for ((name, acc), (_, v)) in counters.iter_mut().zip(c) {
                    *acc = if name.ends_with("_max") {
                        acc.max(v)
                    } else {
                        *acc + v
                    };
                }
            }
        } else {
            sim.corrupt += spare.corrupt;
        }
        episode += 1;
        match window.as_mut() {
            Some(w) => w.end_segment(),
            None => window = Some(Window::new(seconds, trace_mode)),
        }
    }
    let mut w = window.expect("at least one episode ran");
    w.close();
    let report = Report {
        setup_s,
        untraced: w.untraced,
        traced: w.traced,
        calibration_ns: w.calibration_ns,
        sim,
        counters,
        notes: Vec::new(),
    };
    (report, episode)
}

/// Deterministic 64-bit mixing (SplitMix64 finalizer).
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The value at percentile `p` (0–100) of `sorted`, nearest-rank.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of nothing");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail of `sorted`: the highest of p50, p75, p90, p95 and p99 with
/// at least ten samples beyond it, or the maximum when there are fewer
/// than twenty samples. Returns `(percentile, value)`. (Past p99, the
/// receiver-latency tail of a run measures host preemption, not the
/// program.)
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len() as f64;
    [99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|p| n * (1.0 - p / 100.0) >= 10.0)
        .map_or((100.0, *sorted.last().expect("tail of nothing")), |p| {
            (p, percentile(sorted, p))
        })
}

/// A seeded arrival lead in `[0, 1)`: how far before the cycle boundary
/// an item arrived at the sender (it waits for the boundary to be sent).
pub fn arrival_lead(seed: u64, item: u64) -> f64 {
    (mix(seed ^ item.wrapping_mul(0x9FB2_1C65_1E98_DF25) ^ 0xA771) >> 11) as f64
        / (1u64 << 53) as f64
}

/// Median of `v` (sorted copy).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}
