//! Parameter ablations — the design-choice studies the paper's §5 invites
//! ("Block size, amplitude and smoothing cycle each introduce a dimension
//! for tradeoff").
//!
//! Each ablation sweeps one axis of the quick-scale end-to-end simulation
//! while holding the rest at paper defaults, and reports goodput /
//! availability / error rate per point. Sweeps run conditions in parallel
//! with scoped threads.

use crate::pipeline::{Simulation, SimulationConfig};
use crate::report::Table;
use crate::scenarios::{Scale, Scenario};
use inframe_core::metrics::ThroughputReport;
use inframe_core::CodingMode;
use inframe_display::DisplayConfig;
use inframe_dsp::envelope::TransitionShape;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// One swept condition.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationPoint {
    /// Human-readable condition label (e.g. "p = 4").
    pub label: String,
    /// Measured link report.
    pub report: ThroughputReport,
}

/// A completed sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Ablation {
    /// Sweep name.
    pub name: String,
    /// Points in sweep order.
    pub points: Vec<AblationPoint>,
}

impl Ablation {
    /// Renders the sweep as a table.
    pub fn render(&self) -> String {
        let mut t = Table::new(&["condition", "goodput kbps", "avail %", "err %"]);
        for p in &self.points {
            t.push_row(vec![
                p.label.clone(),
                format!("{:.2}", p.report.goodput_kbps()),
                format!("{:.1}", p.report.available_ratio * 100.0),
                format!("{:.2}", p.report.error_rate * 100.0),
            ]);
        }
        t.render()
    }

    /// Point by label.
    pub fn point(&self, label: &str) -> Option<&AblationPoint> {
        self.points.iter().find(|p| p.label == label)
    }
}

/// Runs a set of labelled simulation configs in parallel and collects the
/// reports in input order.
fn sweep(name: &str, scenario: Scenario, conditions: Vec<(String, SimulationConfig)>) -> Ablation {
    let results: Mutex<Vec<Option<AblationPoint>>> = Mutex::new(vec![None; conditions.len()]);
    std::thread::scope(|scope| {
        for (i, (label, config)) in conditions.iter().enumerate() {
            let results = &results;
            scope.spawn(move || {
                let sim = Simulation::new(*config);
                let out = sim.run(scenario.source(
                    config.inframe.display_w,
                    config.inframe.display_h,
                    config.seed,
                ));
                results.lock()[i] = Some(AblationPoint {
                    label: label.clone(),
                    report: out.report(),
                });
            });
        }
    });
    Ablation {
        name: name.to_string(),
        points: results
            .into_inner()
            .into_iter()
            .map(|p| p.expect("every condition completes"))
            .collect(),
    }
}

fn base_config(cycles: u32, seed: u64) -> SimulationConfig {
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

/// Envelope-shape ablation: SRRC vs linear vs stair (§3.2's comparison).
pub fn envelope_shapes(cycles: u32, seed: u64) -> Ablation {
    let conditions = [
        ("srrc", TransitionShape::SrrCosine),
        ("linear", TransitionShape::Linear),
        ("stair", TransitionShape::Stair { steps: 2 }),
    ]
    .into_iter()
    .map(|(label, shape)| {
        let mut c = base_config(cycles, seed);
        c.inframe.envelope = shape;
        (label.to_string(), c)
    })
    .collect();
    sweep("envelope shape", Scenario::Gray, conditions)
}

/// Amplitude ablation: δ sweep (larger δ = stronger pattern but more
/// clipping and flicker risk).
pub fn delta_sweep(cycles: u32, seed: u64) -> Ablation {
    let conditions = [10.0f32, 15.0, 20.0, 30.0, 40.0]
        .into_iter()
        .map(|delta| {
            let mut c = base_config(cycles, seed);
            c.inframe.delta = delta;
            (format!("δ = {delta:.0}"), c)
        })
        .collect();
    sweep("amplitude delta", Scenario::Gray, conditions)
}

/// Cycle ablation: τ sweep (longer τ = fewer data frames per second but
/// more captures per frame).
pub fn tau_sweep(cycles: u32, seed: u64) -> Ablation {
    let conditions = [8u32, 10, 12, 14, 16, 20]
        .into_iter()
        .map(|tau| {
            let mut c = base_config(cycles, seed);
            c.inframe.tau = tau;
            (format!("τ = {tau}"), c)
        })
        .collect();
    sweep("cycle tau", Scenario::Gray, conditions)
}

/// Detection-threshold ablation: receiver operating point.
pub fn threshold_sweep(cycles: u32, seed: u64) -> Ablation {
    let conditions = [1.0f32, 1.5, 2.0, 2.5, 3.0, 4.0]
        .into_iter()
        .map(|t| {
            let mut c = base_config(cycles, seed);
            c.inframe.threshold = t;
            c.inframe.margin = (t * 0.5).min(t - 0.1);
            (format!("T = {t:.1}"), c)
        })
        .collect();
    sweep("detection threshold", Scenario::Video, conditions)
}

/// Coding ablation: the paper's XOR parity vs Reed–Solomon over the frame.
pub fn coding_modes(cycles: u32, seed: u64) -> Ablation {
    let conditions = vec![
        ("parity (paper)".to_string(), {
            let mut c = base_config(cycles, seed);
            c.inframe.coding = CodingMode::Parity;
            c
        }),
        ("RS 4 parity bytes".to_string(), {
            let mut c = base_config(cycles, seed);
            c.inframe.coding = CodingMode::ReedSolomon { parity_bytes: 4 };
            c
        }),
        ("RS 8 parity bytes".to_string(), {
            let mut c = base_config(cycles, seed);
            c.inframe.coding = CodingMode::ReedSolomon { parity_bytes: 8 };
            c
        }),
    ];
    sweep("GOB coding", Scenario::Video, conditions)
}

/// Shutter/backlight ablation: strobed vs sample-and-hold panel, rolling
/// vs global shutter.
pub fn shutter_study(cycles: u32, seed: u64) -> Ablation {
    let strobed = base_config(cycles, seed);
    let mut hold = base_config(cycles, seed);
    hold.display = DisplayConfig {
        refresh_hz: hold.display.refresh_hz,
        ..DisplayConfig::eizo_fg2421_no_strobe()
    };
    let mut global = base_config(cycles, seed);
    global.camera.shutter = inframe_camera::Shutter::Global;
    global.camera.shutter_bands = 1;
    let conditions = vec![
        ("strobed + rolling (paper)".to_string(), strobed),
        ("sample-and-hold + rolling".to_string(), hold),
        ("strobed + global".to_string(), global),
    ];
    sweep("shutter & backlight", Scenario::Gray, conditions)
}

/// Super-Pixel size ablation (the paper's p, §3.3): hold the Block size in
/// display pixels fixed at 20 and vary the chessboard cell. Small cells
/// are destroyed by the camera's optics/downsampling; large cells weaken
/// the high-pass detection and worsen phantom visibility (the paper picked
/// p = 4 "approximating the human eye resolution").
pub fn pixel_size_sweep(cycles: u32, seed: u64) -> Ablation {
    let conditions = [(2usize, 10usize), (4, 5), (5, 4), (10, 2)]
        .into_iter()
        .map(|(p, s)| {
            let mut c = base_config(cycles, seed);
            c.inframe.pixel_size = p;
            c.inframe.block_size = s;
            (format!("p = {p} (s = {s})"), c)
        })
        .collect();
    sweep("pixel size p", Scenario::Gray, conditions)
}

/// Block size ablation (the paper's s, §5): bigger Blocks are more robust
/// but carry fewer bits per frame. The grid is resized to keep it on the
/// display, so raw capacity changes with the condition — exactly the
/// tradeoff the paper describes.
pub fn block_size_sweep(cycles: u32, seed: u64) -> Ablation {
    // (block_size s, blocks_x, blocks_y) at pixel_size 4 on 240×168.
    let conditions = [(3usize, 16usize, 12usize), (5, 12, 8), (7, 8, 6)]
        .into_iter()
        .map(|(s, bx, by)| {
            let mut c = base_config(cycles, seed);
            c.inframe.block_size = s;
            c.inframe.blocks_x = bx;
            c.inframe.blocks_y = by;
            (format!("{}px blocks ({bx}x{by})", 4 * s), c)
        })
        .collect();
    sweep("block size s", Scenario::Video, conditions)
}

/// ISP ablation: raw sensor vs phone-default vs heavy denoise — how much
/// in-camera processing moves the link.
pub fn isp_study(cycles: u32, seed: u64) -> Ablation {
    use inframe_camera::IspConfig;
    let conditions = [
        ("isp off (raw)", IspConfig::off()),
        ("phone default", IspConfig::phone_default()),
        ("heavy denoise", IspConfig::aggressive_denoise()),
    ]
    .into_iter()
    .map(|(label, isp)| {
        let mut c = base_config(cycles, seed);
        c.camera.isp = isp;
        (label.to_string(), c)
    })
    .collect();
    sweep("camera ISP", Scenario::Gray, conditions)
}

/// Capture-geometry ablation: fronto-parallel vs increasingly off-axis
/// handheld poses (the paper's fixed desk setup vs a casual viewer).
pub fn geometry_study(cycles: u32, seed: u64) -> Ablation {
    use inframe_camera::CaptureGeometry;
    let base = base_config(cycles, seed);
    let (dw, dh) = (base.inframe.display_w, base.inframe.display_h);
    let (sw, sh) = (base.camera.width, base.camera.height);
    let mut conditions = vec![("fronto (paper)".to_string(), base)];
    for wobble in [0.02f64, 0.06] {
        let mut c = base_config(cycles, seed);
        c.geometry = CaptureGeometry::handheld(dw, dh, sw, sh, wobble);
        conditions.push((format!("handheld wobble {wobble:.2}"), c));
    }
    sweep("capture geometry", Scenario::Gray, conditions)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_sweep_monotone_at_low_end() {
        let ab = delta_sweep(4, 3);
        assert_eq!(ab.points.len(), 5);
        // Tiny δ cannot be detected; paper-level δ can.
        let lo = &ab.points[0].report;
        let hi = &ab.points[2].report; // δ = 20
        assert!(
            hi.available_ratio > lo.available_ratio,
            "δ=20 ({}) must beat δ=10 ({})",
            hi.available_ratio,
            lo.available_ratio
        );
    }

    #[test]
    fn strobed_panel_beats_sample_and_hold() {
        let ab = shutter_study(4, 5);
        let strobed = &ab.point("strobed + rolling (paper)").unwrap().report;
        let hold = &ab.point("sample-and-hold + rolling").unwrap().report;
        assert!(
            strobed.goodput_kbps() > hold.goodput_kbps(),
            "strobe {} vs hold {}",
            strobed.goodput_kbps(),
            hold.goodput_kbps()
        );
    }

    #[test]
    fn paper_pixel_size_is_never_worse_than_tiny_cells() {
        // On clean gray at δ=20 the matched filter still pulls 2px cells
        // through the optics; the paper's p=4 must at minimum not lose to
        // them (on textured/noisy content the gap widens — see the bench).
        let ab = pixel_size_sweep(4, 13);
        let tiny = ab.point("p = 2 (s = 10)").unwrap().report.available_ratio;
        let paper = ab.point("p = 4 (s = 5)").unwrap().report.available_ratio;
        assert!(
            paper + 1e-9 >= tiny,
            "p=4 ({paper}) must not lose to p=2 ({tiny})"
        );
        assert_eq!(ab.points.len(), 4);
    }

    #[test]
    fn heavy_denoise_hurts_the_link() {
        let ab = isp_study(4, 9);
        let raw = ab.point("isp off (raw)").unwrap().report.available_ratio;
        let heavy = ab.point("heavy denoise").unwrap().report.available_ratio;
        assert!(
            heavy < raw,
            "denoise must attenuate the pattern: {heavy} vs {raw}"
        );
    }

    #[test]
    fn fronto_beats_strong_wobble() {
        let ab = geometry_study(4, 11);
        let fronto = ab.point("fronto (paper)").unwrap().report.goodput_kbps();
        let wobbly = ab
            .point("handheld wobble 0.06")
            .unwrap()
            .report
            .goodput_kbps();
        assert!(
            fronto >= wobbly,
            "off-axis capture should not beat fronto: {fronto} vs {wobbly}"
        );
    }

    #[test]
    fn renders_table() {
        let ab = envelope_shapes(2, 1);
        let t = ab.render();
        assert!(t.contains("srrc"));
        assert!(t.contains("stair"));
    }
}
