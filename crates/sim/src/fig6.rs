//! Figure 6: the flicker-perception user study, simulated.
//!
//! The paper showed 8 participants the original and multiplexed videos
//! side by side and asked for a 0–4 rating of the *difference* (§4). The
//! simulation does exactly that: it renders both frame sequences on the
//! display model, extracts the emitted-light waveform of a worst-case
//! pixel (inside a Block whose bit flips every cycle), and assesses the
//! **difference waveform** with the HVS model — so the strobe flicker the
//! panel itself produces cancels out, as it does for a human comparing two
//! identical panels.
//!
//! Everything Figure 6 shows emerges from physics modelled elsewhere:
//! scores grow with brightness because complementary frames cancel in
//! *code* space while the eye averages *light*, and the sRGB curve's
//! convexity grows with level; scores grow with δ quadratically for the
//! same reason; larger τ helps because transitions are slower and rarer.

use crate::report::Series;
use inframe_core::dataframe::DataFrame;
use inframe_core::layout::DataLayout;
use inframe_core::multiplex::{slot, Multiplexer};
use inframe_core::InFrameConfig;
use inframe_display::analysis::per_frame_means;
use inframe_display::{DisplayConfig, DisplayStream};
use inframe_frame::color;
use inframe_frame::Plane;
use inframe_hvs::{FlickerMeter, ObserverPanel, StudyResult};

/// One rated condition.
#[derive(Debug, Clone, Copy)]
pub struct Fig6Point {
    /// Solid-video brightness (code value).
    pub brightness: f32,
    /// Chessboard amplitude δ.
    pub delta: f32,
    /// Data cycle τ.
    pub tau: u32,
    /// Panel rating (mean ± std over the 8 simulated observers).
    pub rating: StudyResult,
}

/// The full figure: the brightness sweep (left panel) and the δ×τ sweep
/// (right panel).
#[derive(Debug, Clone)]
pub struct Fig6 {
    /// Left panel: flicker vs brightness for δ ∈ {20, 50}, τ = 12.
    pub left: Vec<Fig6Point>,
    /// Right panel: flicker vs δ ∈ {20, 30, 50} for τ ∈ {10, 12, 14}.
    pub right: Vec<Fig6Point>,
}

/// A tiny 2×2-Block layout — one worst-case Block is all the waveform
/// analysis needs, and it keeps the study fast.
fn study_config(delta: f32, tau: u32) -> InFrameConfig {
    InFrameConfig {
        display_w: 48,
        display_h: 48,
        pixel_size: 4,
        block_size: 5,
        blocks_x: 2,
        blocks_y: 2,
        delta,
        tau,
        ..InFrameConfig::paper()
    }
}

/// Rates one condition with a fresh observer panel (deterministic per
/// seed).
pub fn rate_condition(
    brightness: f32,
    delta: f32,
    tau: u32,
    display: &DisplayConfig,
    seed: u64,
) -> Fig6Point {
    let cfg = study_config(delta, tau);
    let layout = DataLayout::from_config(&cfg);
    let video = Plane::filled(cfg.display_w, cfg.display_h, brightness);

    // Worst case: every Block flips every cycle (1 → 0 → 1 → …), so the
    // probe pixel sees a transition envelope in every cycle.
    let ones = DataFrame::encode(
        &layout,
        &vec![true; layout.payload_bits_parity()],
        cfg.coding,
    );
    let zero = DataFrame::zero(&layout);

    let cycles = 12u64;
    let frames = cycles * cfg.tau as u64;
    let mut mux = Multiplexer::new(cfg);
    let mut mux_display = DisplayStream::new(*display);
    let mut ref_display = DisplayStream::new(*display);
    let mut mux_emissions = Vec::with_capacity(frames as usize);
    let mut ref_emissions = Vec::with_capacity(frames as usize);
    for f in 0..frames {
        let s = slot(&cfg, f);
        let odd_cycle = s.cycle_index % 2 == 1;
        let (cur, next) = if odd_cycle {
            (&zero, &ones)
        } else {
            (&ones, &zero)
        };
        let frame = mux.render(&s, &video, cur, next);
        mux_emissions.push(mux_display.present(&frame));
        ref_emissions.push(ref_display.present(&video));
    }

    // Probe pixel: an odd-parity Pixel of Block (0, 0) — carries the full
    // chessboard amplitude.
    // Per-refresh mean emitted light (exact closed-form integrals): the
    // flicker-fusion band ends well below the refresh rate, so per-frame
    // means carry every sub-60 Hz component faithfully while the strobe
    // fine structure (way above CFF) is handled by the phantom term.
    let rect = layout.block_rect(0, 0);
    let (px, py) = (rect.x + layout.pixel_size, rect.y);
    let fs = display.refresh_hz;
    let mux_wave = per_frame_means(&mux_emissions, px, py);
    let ref_wave = per_frame_means(&ref_emissions, px, py);

    // Differential stimulus: the difference riding on the reference mean
    // (what a side-by-side comparison isolates).
    let ref_mean = ref_wave.iter().sum::<f64>() / ref_wave.len() as f64;
    let diff_wave: Vec<f64> = mux_wave
        .iter()
        .zip(&ref_wave)
        .map(|(m, r)| ref_mean + (m - r))
        .collect();

    // Envelope step contrast for the phantom term: largest per-pair
    // envelope step times the luminance contrast of ±δ at this level.
    let l_hi = color::code_to_linear(brightness + delta) as f64;
    let l_lo = color::code_to_linear((brightness - delta).max(0.0)) as f64;
    let l_mid = color::code_to_linear(brightness).max(1e-6) as f64;
    let mod_contrast = ((l_hi - l_lo) / (2.0 * l_mid)).abs();
    let step_contrast = mux.max_envelope_step() * mod_contrast;

    let meter = FlickerMeter {
        peak_nits: display.peak_nits,
        pattern_cell_px: cfg.pixel_size as f64,
        ..FlickerMeter::default()
    };
    let assessment = meter.assess(&diff_wave, fs, step_contrast);
    let mut panel = ObserverPanel::paper_panel(seed);
    let rating = panel.rate(&assessment);
    Fig6Point {
        brightness,
        delta,
        tau,
        rating,
    }
}

/// Runs the complete Figure 6 study.
pub fn run(display: &DisplayConfig, seed: u64) -> Fig6 {
    let mut left = Vec::new();
    for delta in [20.0f32, 50.0] {
        for b in (60..=200).step_by(20) {
            left.push(rate_condition(b as f32, delta, 12, display, seed));
        }
    }
    let mut right = Vec::new();
    for tau in [10u32, 12, 14] {
        for delta in [20.0f32, 30.0, 50.0] {
            right.push(rate_condition(127.0, delta, tau, display, seed));
        }
    }
    Fig6 { left, right }
}

impl Fig6 {
    /// The left panel as plottable series (x = brightness, one series per
    /// δ).
    pub fn left_series(&self) -> Vec<Series> {
        let mut out = Vec::new();
        for delta in [20.0f32, 50.0] {
            let pts: Vec<(f64, f64)> = self
                .left
                .iter()
                .filter(|p| p.delta == delta)
                .map(|p| (p.brightness as f64, p.rating.mean))
                .collect();
            let errs: Vec<f64> = self
                .left
                .iter()
                .filter(|p| p.delta == delta)
                .map(|p| p.rating.std)
                .collect();
            out.push(Series::with_errors(format!("δ = {delta}"), pts, errs));
        }
        out
    }

    /// The right panel as plottable series (x = δ, one series per τ).
    pub fn right_series(&self) -> Vec<Series> {
        let mut out = Vec::new();
        for tau in [10u32, 12, 14] {
            let pts: Vec<(f64, f64)> = self
                .right
                .iter()
                .filter(|p| p.tau == tau)
                .map(|p| (p.delta as f64, p.rating.mean))
                .collect();
            let errs: Vec<f64> = self
                .right
                .iter()
                .filter(|p| p.tau == tau)
                .map(|p| p.rating.std)
                .collect();
            out.push(Series::with_errors(format!("τ = {tau}"), pts, errs));
        }
        out
    }

    /// Checks the paper's qualitative findings; returns violated
    /// expectations (empty = agreement).
    pub fn check_shape(&self) -> Vec<String> {
        let mut v = Vec::new();
        // 1. δ = 20 stays in the satisfactory band (mean ≤ 1) everywhere.
        for p in self.left.iter().chain(&self.right) {
            if p.delta == 20.0 && p.rating.mean > 1.0 {
                v.push(format!(
                    "δ=20 must be satisfactory, got {:.2} at b={} τ={}",
                    p.rating.mean, p.brightness, p.tau
                ));
            }
        }
        // 2. Larger δ never scores lower on average (right panel, per τ).
        for tau in [10u32, 12, 14] {
            let series: Vec<&Fig6Point> = self.right.iter().filter(|p| p.tau == tau).collect();
            for pair in series.windows(2) {
                if pair[1].rating.mean + 1e-9 < pair[0].rating.mean - 0.35 {
                    v.push(format!(
                        "τ={tau}: rating should not drop sharply from δ={} to δ={}",
                        pair[0].delta, pair[1].delta
                    ));
                }
            }
        }
        // 3. At δ = 50, brighter content flickers at least as much as the
        //    dimmest level (left panel trend).
        let d50: Vec<&Fig6Point> = self.left.iter().filter(|p| p.delta == 50.0).collect();
        if let (Some(first), Some(last)) = (d50.first(), d50.last()) {
            if last.rating.mean + 0.35 < first.rating.mean {
                v.push("δ=50: flicker should grow with brightness".into());
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn display() -> DisplayConfig {
        DisplayConfig::eizo_fg2421()
    }

    #[test]
    fn delta20_is_satisfactory() {
        let p = rate_condition(127.0, 20.0, 12, &display(), 3);
        assert!(
            p.rating.mean <= 1.0,
            "δ=20 must rate satisfactory, got {}",
            p.rating.mean
        );
    }

    #[test]
    fn delta50_flickers_more_than_delta20() {
        let lo = rate_condition(180.0, 20.0, 12, &display(), 3);
        let hi = rate_condition(180.0, 50.0, 12, &display(), 3);
        assert!(
            hi.rating.mean >= lo.rating.mean,
            "δ=50 ({}) must rate >= δ=20 ({})",
            hi.rating.mean,
            lo.rating.mean
        );
    }

    #[test]
    fn longer_tau_does_not_increase_flicker() {
        let short = rate_condition(127.0, 50.0, 10, &display(), 5);
        let long = rate_condition(127.0, 50.0, 14, &display(), 5);
        assert!(
            long.rating.mean <= short.rating.mean + 0.5,
            "τ=14 ({}) should not flicker much more than τ=10 ({})",
            long.rating.mean,
            short.rating.mean
        );
    }

    #[test]
    fn ratings_are_deterministic_per_seed() {
        let a = rate_condition(100.0, 30.0, 12, &display(), 9);
        let b = rate_condition(100.0, 30.0, 12, &display(), 9);
        assert_eq!(a.rating, b.rating);
    }

    #[test]
    fn full_run_has_expected_point_counts() {
        let fig = run(&display(), 1);
        assert_eq!(fig.left.len(), 2 * 8); // 2 deltas × 8 brightness steps
        assert_eq!(fig.right.len(), 3 * 3); // 3 taus × 3 deltas
        assert_eq!(fig.left_series().len(), 2);
        assert_eq!(fig.right_series().len(), 3);
    }

    #[test]
    fn shape_matches_paper() {
        let fig = run(&display(), 42);
        let violations = fig.check_shape();
        assert!(violations.is_empty(), "violations: {violations:?}");
    }
}
