//! Figure 7: throughput, available-GOB ratio and error rate for every
//! input and parameter setting.
//!
//! ```sh
//! # quick geometry (seconds):
//! cargo run --release --example throughput_report
//! # full paper geometry, 1920x1080 → 1280x720 (minutes):
//! cargo run --release --example throughput_report -- --paper
//! ```
//!
//! Prints the Figure 7 table including the paper's headline numbers
//! (≈12.8 kbps on pure gray at δ=20, τ=10; ≈7 kbps over real video).
//! Exits non-zero when the table breaks the paper's shape (pure colors
//! beat video; throughput falls with τ).

use inframe::core::demux::{Demultiplexer, RegionCache};
use inframe::core::metrics::ThroughputReport;
use inframe::core::parallel::ParallelEngine;
use inframe::core::sender::{PrbsPayload, Sender};
use inframe::core::InFrameConfig;
use inframe::frame::geometry::Homography;
use inframe::frame::Plane;
use inframe::obs::Telemetry;
use inframe::sim::pipeline::{Simulation, SimulationConfig};
use inframe::sim::{fig7, Scale, Scenario};
use inframe::video::synth::MovingBarsClip;
use inframe::video::FrameRate;
use std::process::ExitCode;
use std::sync::Arc;

/// Renders and scores a handful of frames at the given scale and prints
/// the live pipeline meters (frames/s, worker utilization, pool stats).
fn pipeline_section(cfg: InFrameConfig) {
    let engine = Arc::new(ParallelEngine::from_env());
    let clip = MovingBarsClip::new(
        cfg.display_w,
        cfg.display_h,
        23,
        1.5,
        70.0,
        210.0,
        FrameRate(cfg.refresh_hz / 4.0),
    );
    let mut sender = Sender::with_engine(cfg, clip, PrbsPayload::new(7), Arc::clone(&engine));
    for _ in 0..(2 * cfg.tau) {
        drop(sender.next_frame().expect("endless clip"));
    }
    let (sw, sh) = (cfg.display_w * 2 / 3, cfg.display_h * 2 / 3);
    let reg = Homography::scale(
        sw as f64 / cfg.display_w as f64,
        sh as f64 / cfg.display_h as f64,
    );
    let cache = RegionCache::build(&cfg, &reg, sw, sh);
    let mut demux = Demultiplexer::with_cache(cfg, cache, engine);
    let capture = Plane::from_fn(sw, sh, |x, y| {
        127.0 + if (x / 3 + y / 3) % 2 == 0 { 8.0 } else { -8.0 }
    });
    let d = demux.cycle_duration();
    for i in 0..12u32 {
        demux.push_capture(&capture, i as f64 * d + 0.01);
    }
    println!(
        "pipeline ({}x{}, INFRAME_WORKERS to change the worker count):",
        cfg.display_w, cfg.display_h
    );
    println!("  render: {}", sender.meter().summary());
    println!("  demux:  {}", demux.meter().summary());
    let pool = sender.pool().stats();
    println!(
        "  pool:   {} plane(s) allocated for {} checkouts ({} reused)",
        pool.allocated, pool.checkouts, pool.reused
    );
}

/// One gray run under an explicit spine: the Figure 7 report is rebuilt
/// purely from the spine's `chan.*` instruments and must agree with the
/// outcome's own report — the single-source-of-truth accounting the
/// telemetry layer guarantees.
fn telemetry_section(scale: Scale, cycles: u32) {
    let tele = Telemetry::new();
    let cfg = scale.inframe();
    let sim = Simulation::new(SimulationConfig {
        inframe: cfg,
        display: scale.display(),
        camera: scale.camera(),
        geometry: scale.geometry(),
        cycles,
        seed: 2014,
    });
    let out = sim.run_with_telemetry(
        Scenario::Gray.source(cfg.display_w, cfg.display_h, 2014),
        &tele,
    );
    let from_spine = ThroughputReport::from_channel_summary(&tele.summary().channel());
    println!(
        "telemetry: gray δ={} τ={} rebuilt from chan.* counters → {:.2} kbps \
         (outcome report: {:.2} kbps, {} event(s) recorded)",
        cfg.delta,
        cfg.tau,
        from_spine.goodput_kbps(),
        out.report().goodput_kbps(),
        tele.summary().events_recorded
    );
}

fn main() -> ExitCode {
    let paper_scale = std::env::args().any(|a| a == "--paper");
    let (scale, cycles) = if paper_scale {
        (Scale::Paper, 12)
    } else {
        (Scale::Quick, 8)
    };
    println!(
        "Figure 7 — link performance ({})",
        if paper_scale {
            "paper geometry 1920x1080 → 1280x720, 50x30 Blocks"
        } else {
            "quick geometry 240x168 → 160x112, 12x8 Blocks (pass --paper for full scale)"
        }
    );
    println!();
    let fig = fig7::run(scale, cycles, 2014);
    print!("{}", fig.render());
    println!();
    pipeline_section(scale.inframe());
    println!();
    telemetry_section(scale, cycles);
    println!();
    let violations = fig.check_shape();
    let shape_holds = violations.is_empty();
    if shape_holds {
        println!("shape check vs paper: PASS (pure colors beat video; throughput falls with τ)");
    } else {
        println!("shape check vs paper: {} violation(s)", violations.len());
        for v in violations {
            println!("  ! {v}");
        }
    }
    if paper_scale {
        if let Some(bar) = fig.bar(inframe::sim::Scenario::Gray, 20.0, 10) {
            println!();
            println!(
                "headline: gray δ=20 τ=10 → {:.1} kbps (paper: ≈12.6–12.8 kbps)",
                bar.report.goodput_kbps()
            );
        }
        if let Some(bar) = fig.bar(inframe::sim::Scenario::Video, 30.0, 12) {
            println!(
                "headline: video δ=30 τ=12 → {:.1} kbps (paper: ≈7.0 kbps)",
                bar.report.goodput_kbps()
            );
        }
    }
    if shape_holds {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
