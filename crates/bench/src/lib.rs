//! # inframe-bench
//!
//! The Criterion benchmark harness that regenerates every figure of the
//! InFrame paper and times the computational kernels behind them.
//!
//! One bench target per figure (run with
//! `cargo bench -p inframe-bench --bench <name>`):
//!
//! | Bench | Regenerates |
//! |---|---|
//! | `fig3_naive_designs` | Figure 3 — naive schemes vs InFrame flicker table |
//! | `fig5_smoothing_waveform` | Figure 5 — smoothing waveform + low-pass response |
//! | `fig6_flicker_perception` | Figure 6 — simulated 8-user study, both panels |
//! | `fig7_throughput` | Figure 7 — throughput / availability / error table |
//! | `ablations` | §5 parameter studies (δ, τ, envelope, coding, shutter, threshold) |
//! | `ablation_cost` | §5 practical issue 3 — encode/decode compute cost per frame |
//!
//! Each bench **prints the regenerated figure** before timing, so
//! `cargo bench` doubles as the experiment reproduction run; the measured
//! numbers land in `EXPERIMENTS.md`.
//!
//! No bench here gates performance. End-to-end speed is measured by the
//! standalone `perfbench/` package (`python3 perfbench/run.py`, workloads
//! declared in `BENCHMARK.json`), which reports run-to-run spread and
//! fails on any corrupt delivery; functional floors live in tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use inframe_sim::pipeline::{Simulation, SimulationConfig};
use inframe_sim::{Scale, Scenario};

/// Standard quick-scale simulation config shared by the benches.
pub fn quick_config(cycles: u32, seed: u64) -> SimulationConfig {
    let s = Scale::Quick;
    SimulationConfig {
        inframe: s.inframe(),
        display: s.display(),
        camera: s.camera(),
        geometry: s.geometry(),
        cycles,
        seed,
    }
}

/// Runs one quick-scale simulation and returns its goodput (used as a
/// compact benchmark body).
pub fn quick_goodput(scenario: Scenario, cycles: u32, seed: u64) -> f64 {
    let config = quick_config(cycles, seed);
    let sim = Simulation::new(config);
    sim.run(scenario.source(config.inframe.display_w, config.inframe.display_h, seed))
        .report()
        .goodput_kbps()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_goodput_is_positive() {
        assert!(quick_goodput(Scenario::Gray, 3, 1) > 0.0);
    }
}
