//! Figure 7: throughput, available-GOB ratio and GOB error rate for each
//! input under the paper's four (δ, τ) settings.

use crate::pipeline::{Simulation, SimulationConfig};
use crate::report::Table;
use crate::scenarios::{Scale, Scenario};
use inframe_core::metrics::ThroughputReport;

/// The paper's four parameter settings, in Figure 7's legend order.
pub const SETTINGS: [(f32, u32); 4] = [(20.0, 10), (20.0, 12), (20.0, 14), (30.0, 12)];

/// One bar of Figure 7.
#[derive(Debug, Clone)]
pub struct Fig7Bar {
    /// Input video.
    pub scenario: Scenario,
    /// Chessboard amplitude δ.
    pub delta: f32,
    /// Data cycle τ (displayed frames).
    pub tau: u32,
    /// The measured report.
    pub report: ThroughputReport,
}

/// The complete figure: one bar per (input, setting).
#[derive(Debug, Clone)]
pub struct Fig7 {
    /// All bars, grouped by input then setting.
    pub bars: Vec<Fig7Bar>,
}

/// Runs the Figure 7 experiment.
///
/// * `scale` — [`Scale::Paper`] for the full 1920×1080 geometry (slow;
///   used by the bench) or [`Scale::Quick`] for CI-speed runs.
/// * `cycles` — data cycles per bar (more cycles, tighter statistics).
pub fn run(scale: Scale, cycles: u32, seed: u64) -> Fig7 {
    let mut bars = Vec::new();
    for scenario in Scenario::figure7() {
        for (delta, tau) in SETTINGS {
            let mut inframe = scale.inframe();
            inframe.delta = delta;
            inframe.tau = tau;
            let sim = Simulation::new(SimulationConfig {
                inframe,
                display: scale.display(),
                camera: scale.camera(),
                geometry: scale.geometry(),
                cycles,
                seed,
            });
            let outcome = sim.run(scenario.source(inframe.display_w, inframe.display_h, seed));
            bars.push(Fig7Bar {
                scenario,
                delta,
                tau,
                report: outcome.report(),
            });
        }
    }
    Fig7 { bars }
}

impl Fig7 {
    /// Renders the figure as a table matching the paper's annotations.
    pub fn render(&self) -> String {
        let mut t = Table::new(&[
            "input",
            "delta",
            "tau",
            "raw kbps",
            "goodput kbps",
            "avail %",
            "err %",
            "bit acc %",
        ]);
        for b in &self.bars {
            t.push_row(vec![
                b.scenario.label().to_string(),
                format!("{:.0}", b.delta),
                format!("{}", b.tau),
                format!("{:.2}", b.report.raw_kbps()),
                format!("{:.2}", b.report.goodput_kbps()),
                format!("{:.1}", b.report.available_ratio * 100.0),
                format!("{:.2}", b.report.error_rate * 100.0),
                format!("{:.1}", b.report.bit_accuracy * 100.0),
            ]);
        }
        t.render()
    }

    /// The bar for a given input and setting.
    pub fn bar(&self, scenario: Scenario, delta: f32, tau: u32) -> Option<&Fig7Bar> {
        self.bars
            .iter()
            .find(|b| b.scenario == scenario && b.delta == delta && b.tau == tau)
    }

    /// Checks the paper's qualitative findings on this run; returns a list
    /// of violated expectations (empty = full agreement in shape).
    pub fn check_shape(&self) -> Vec<String> {
        let mut violations = Vec::new();
        let g = |s: Scenario, d: f32, t: u32| self.bar(s, d, t).map(|b| &b.report);
        // 1. Pure-color inputs beat the real video clip.
        for (d, t) in SETTINGS {
            if let (Some(gray), Some(video)) = (g(Scenario::Gray, d, t), g(Scenario::Video, d, t)) {
                if gray.goodput_kbps() <= video.goodput_kbps() {
                    violations.push(format!(
                        "gray ({:.2}) should outperform video ({:.2}) at d={d} t={t}",
                        gray.goodput_kbps(),
                        video.goodput_kbps()
                    ));
                }
                if gray.available_ratio <= video.available_ratio {
                    violations.push(format!(
                        "gray availability should exceed video at d={d} t={t}"
                    ));
                }
            }
        }
        // 2. Throughput decreases with tau for pure inputs (raw rate
        //    dominates the mild availability changes).
        for s in [Scenario::Gray, Scenario::DarkGray] {
            if let (Some(t10), Some(t14)) = (g(s, 20.0, 10), g(s, 20.0, 14)) {
                if t10.goodput_kbps() <= t14.goodput_kbps() {
                    violations.push(format!(
                        "{}: goodput at tau=10 should exceed tau=14",
                        s.label()
                    ));
                }
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_fig7_reproduces_paper_shape() {
        let fig = run(Scale::Quick, 6, 42);
        assert_eq!(fig.bars.len(), 12);
        let violations = fig.check_shape();
        assert!(violations.is_empty(), "shape violations: {violations:?}");
    }

    #[test]
    fn render_contains_all_inputs() {
        let fig = run(Scale::Quick, 2, 1);
        let table = fig.render();
        for s in Scenario::figure7() {
            assert!(table.contains(s.label()));
        }
    }

    #[test]
    fn bar_lookup_finds_settings() {
        let fig = run(Scale::Quick, 2, 2);
        assert!(fig.bar(Scenario::Gray, 20.0, 10).is_some());
        assert!(fig.bar(Scenario::Gray, 99.0, 10).is_none());
    }
}
