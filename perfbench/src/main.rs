//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--rev <id>]`
//!
//! Runs one workload and prints a human-readable report followed, as the
//! last line, by one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` they are the per-layer ledger, the counters and the
//! tracing overhead, and the spans are written to
//! `.bench_out/<workload>.spans.csv`.
//!
//! Exits with 2 on bad arguments or when an `INFRAME_*` override is set
//! (both commits must be measured on the shipped defaults), and with 1
//! after printing the result when any delivery was corrupt or missing.

use inframe_perfbench::alloc::CountingAlloc;
use inframe_perfbench::trace::{self, Layer};
use inframe_perfbench::{
    calib, link_bulk, median, net_fleet, paper_chain, percentile, tail, Report,
};
use std::fmt::Write as _;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const WORKLOADS: [&str; 3] = ["paper_chain", "net_fleet", "link_bulk"];
const PINNED: [&str; 4] = [
    "INFRAME_KERNEL",
    "INFRAME_SIMD",
    "INFRAME_WORKERS",
    "INFRAME_OBS",
];

/// Counters every trace report carries (0 where the workload has none).
const COUNTERS: [(&str, &str); 16] = [
    ("core.demux.gob_available_ratio", "share"),
    ("core.demux.gob_error_ratio", "share"),
    ("link.session.epsilon_max", "share"),
    ("camera.capture.failed", "count"),
    ("net.receiver.frames_rejected", "count"),
    ("net.arq.retransmits", "count"),
    ("net.arq.suppressed", "count"),
    ("net.arq.mode_changes", "count"),
    ("sim.backchannel.reports_lost", "count"),
    ("net.receiver.frames_rx", "count"),
    ("net.receiver.frames_filtered", "count"),
    ("net.receiver.symbols_filtered", "count"),
    ("link.control.commands", "count"),
    ("camera.window_emissions", "count"),
    ("net.receiver.open_decoders_max", "count"),
    ("net.sender.retransmit_backlog_max", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    rev: String,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut rev) = (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--rev" => rev = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
        rev: rev.unwrap_or_else(|| "unknown".into()),
    })
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

struct Metrics(String);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &str) {
        println!("  {name:<40} {value:>16.6} {unit}");
        if !self.0.is_empty() {
            self.0.push_str(", ");
        }
        // JSON has no NaN or infinity; a metric that cannot be computed
        // is reported as 0 and the run is marked incorrect by the caller.
        let v = if value.is_finite() { value } else { 0.0 };
        let _ = write!(
            self.0,
            "\"{name}\": {{\"value\": {v:e}, \"unit\": \"{unit}\"}}"
        );
    }
}

fn sorted(v: impl Iterator<Item = f64>) -> Vec<f64> {
    let mut s: Vec<f64> = v.collect();
    s.sort_by(f64::total_cmp);
    s
}

fn end_to_end(r: &Report, peak_rss_mb: f64, out: &mut Metrics) -> bool {
    let u = &r.untraced;
    let rx_ms = u.scaled_rx_ms();
    let delivery = sorted(r.sim.delivery_s.iter().copied());
    if rx_ms.is_empty() || delivery.is_empty() || u.marks.is_empty() {
        println!("  no receiver operations or no deliveries in the run");
        return false;
    }
    let (rx_p, rx_tail) = tail(&rx_ms);
    let (d_p, d_tail) = tail(&delivery);
    println!(
        "  rx tail is p{rx_p:.1} of {} ops; delivery tail is p{d_p:.1} of {} deliveries",
        rx_ms.len(),
        delivery.len()
    );
    let medians = |scaled: bool| {
        let rates = u.segment_rates(scaled);
        let rate =
            |f: fn(&(f64, f64, f64)) -> f64| median(&rates.iter().map(f).collect::<Vec<_>>());
        [rate(|r| r.0), rate(|r| r.1), rate(|r| r.2)]
    };
    let [realtime_x, sender_fps, receiver_ops] = medians(true);
    let raw = medians(false);
    println!(
        "  rates are medians over {} segments; host times scaled by {} calibrations (median {:.3} ms, nominal {:.3} ms)",
        u.marks.len(),
        r.calibration_ns.len(),
        median(&r.calibration_ns) * 1e-6,
        calib::NOMINAL_NS * 1e-6
    );
    let raw_rx = sorted(u.rx_ns.iter().map(|&ns| ns as f64 * 1e-6));
    println!(
        "  unscaled: realtime_x {:.4}, sender_fps {:.2}, receiver_ops_per_s {:.2}, rx_ms_p50 {:.6}, rx_ms_tail {:.6}",
        raw[0],
        raw[1],
        raw[2],
        percentile(&raw_rx, 50.0),
        tail(&raw_rx).1
    );
    out.put("realtime_x", realtime_x, "x");
    out.put("sender_fps", sender_fps, "1/s");
    out.put("receiver_ops_per_s", receiver_ops, "1/s");
    out.put("rx_ms_p50", percentile(&rx_ms, 50.0), "ms");
    out.put("rx_ms_tail", rx_tail, "ms");
    out.put("goodput_bps", r.sim.goodput_bps(), "bit/s");
    out.put("delivery_s_p50", percentile(&delivery, 50.0), "s");
    out.put("delivery_s_tail", d_tail, "s");
    out.put(
        "delivered_ratio",
        r.sim.delivered as f64 / r.sim.expected.max(1) as f64,
        "share",
    );
    out.put("setup_s", median(&r.setup_s), "s");
    out.put("peak_rss_mb", peak_rss_mb, "MiB");
    true
}

fn per_layer(r: &Report, workload: &str, out: &mut Metrics) {
    let ledger = trace::ledger();
    let wall_ns = r.traced.host_ns.max(1) as f64;
    for layer in Layer::ALL {
        let t = ledger.totals[layer as usize];
        let per = |x: f64| {
            if t.calls == 0 {
                0.0
            } else {
                x / t.calls as f64
            }
        };
        let name = layer.name();
        out.put(&format!("{name}.calls"), t.calls as f64, "count");
        out.put(
            &format!("{name}.ms_per_call"),
            per(t.self_ns as f64 * 1e-6),
            "ms",
        );
        out.put(
            &format!("{name}.share"),
            t.self_ns as f64 / wall_ns,
            "share",
        );
        out.put(
            &format!("{name}.allocs_per_call"),
            per(t.allocs as f64),
            "count",
        );
        out.put(
            &format!("{name}.alloc_bytes_per_call"),
            per(t.alloc_bytes as f64),
            "B",
        );
    }
    for (name, unit) in COUNTERS {
        let v = r
            .counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |c| c.1);
        out.put(name, v, unit);
    }
    let traced = r.traced.realtime_x();
    let untraced = r.untraced.realtime_x();
    out.put("trace.realtime_x_traced", traced, "x");
    out.put("trace.realtime_x_untraced", untraced, "x");
    out.put("trace.overhead", 1.0 - traced / untraced, "share");
    out.put(
        "trace.uncovered_share",
        1.0 - ledger.covered_ns as f64 / wall_ns,
        "share",
    );
    let path = std::path::PathBuf::from(format!(".bench_out/{workload}.spans.csv"));
    match trace::write_spans(&path) {
        Ok(()) => println!(
            "  {} spans written to {} ({} past the buffer, totals only)",
            ledger.spans,
            path.display(),
            ledger.dropped
        ),
        Err(e) => println!("  could not write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let set: Vec<&str> = PINNED
        .iter()
        .copied()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if !set.is_empty() {
        eprintln!("perfbench: refusing to run with {set:?} set; it measures the shipped defaults");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = inframe_core::ParallelEngine::from_env().workers();
    println!(
        "perfbench {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "provenance: kernel {:?}, simd {}, workers {}, nproc {}, rev {}",
        inframe_core::InFrameConfig::paper().kernel,
        inframe_frame::simd::active_level().name(),
        workers,
        nproc,
        args.rev
    );
    let report = match args.workload.as_str() {
        "paper_chain" => paper_chain::run(args.seed, args.seconds, args.trace),
        "net_fleet" => net_fleet::run(args.seed, args.seconds, args.trace),
        _ => link_bulk::run(args.seed, args.seconds, args.trace),
    };
    // Read before the report's own sorting and copying adds to it.
    let peak_rss_mb = peak_rss_mib();
    for n in &report.notes {
        println!("{n}");
    }
    let sim = &report.sim;
    println!(
        "simulated: {} of {} deliveries intact, {} corrupt, {} bytes, digest {:016x}",
        sim.delivered, sim.expected, sim.corrupt, sim.delivered_bytes, sim.digest
    );
    println!(
        "setup: {} constructions, median {:.6} s",
        report.setup_s.len(),
        median(&report.setup_s)
    );
    let mut metrics = Metrics(String::new());
    let computable = if args.trace {
        per_layer(&report, &args.workload, &mut metrics);
        true
    } else {
        end_to_end(&report, peak_rss_mb, &mut metrics)
    };
    let failed = sim.expected.saturating_sub(sim.delivered) + sim.corrupt;
    let correct = computable && failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        sim.expected.max(1),
        metrics.0
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
