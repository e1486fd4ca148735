//! Figure 3: why the naive designs fail.
//!
//! The paper inserted data frames naively (§3.1) and observed "severe
//! flickers … dynamic semi-transparent data blocks". This module renders
//! each naive schedule on the display model, extracts the worst-case pixel
//! waveform, and rates it with the same HVS pipeline as Figure 6 — showing
//! quantitatively that every naive scheme lands well above the
//! satisfactory band while the complementary design stays at ~0.

use crate::report::Table;
use inframe_core::dataframe::DataFrame;
use inframe_core::layout::DataLayout;
use inframe_core::naive::NaiveScheme;
use inframe_core::InFrameConfig;
use inframe_display::analysis::per_frame_means;
use inframe_display::{DisplayConfig, DisplayStream};
use inframe_frame::Plane;
use inframe_hvs::{FlickerMeter, ObserverPanel, StudyResult};

/// Rating of one naive scheme.
#[derive(Debug, Clone)]
pub struct Fig3Row {
    /// Scheme label.
    pub label: String,
    /// Disturbance fundamental on the 120 Hz panel, Hz.
    pub disturbance_hz: f64,
    /// Whether the scheme biases mean luminance.
    pub shifts_mean: bool,
    /// Panel rating.
    pub rating: StudyResult,
}

/// The figure: one row per scheme.
#[derive(Debug, Clone)]
pub struct Fig3 {
    /// Rows in [`NaiveScheme::all`] order.
    pub rows: Vec<Fig3Row>,
}

fn study_config(delta: f32) -> InFrameConfig {
    InFrameConfig {
        display_w: 48,
        display_h: 48,
        pixel_size: 4,
        block_size: 5,
        blocks_x: 2,
        blocks_y: 2,
        delta,
        ..InFrameConfig::paper()
    }
}

/// Rates every scheme at amplitude `delta` on `display`.
pub fn run(delta: f32, display: &DisplayConfig, seed: u64) -> Fig3 {
    let cfg = study_config(delta);
    let layout = DataLayout::from_config(&cfg);
    let video = Plane::filled(cfg.display_w, cfg.display_h, 127.0);
    // A data frame with every Block lit (worst case for naive insertion).
    let data = DataFrame::encode(
        &layout,
        &vec![true; layout.payload_bits_parity()],
        cfg.coding,
    );
    let rect = layout.block_rect(0, 0);
    let (px, py) = (rect.x + layout.pixel_size, rect.y);
    let fs = display.refresh_hz;

    let rows = NaiveScheme::all()
        .iter()
        .map(|scheme| {
            // 30 video frames ≈ one second of playback.
            let mut stream = DisplayStream::new(*display);
            let mut emissions = Vec::new();
            for _ in 0..30 {
                for frame in scheme.render_group(&layout, &video, &data, delta) {
                    emissions.push(stream.present(&frame));
                }
            }
            let wave = per_frame_means(&emissions, px, py);
            let meter = FlickerMeter {
                peak_nits: display.peak_nits,
                pattern_cell_px: cfg.pixel_size as f64,
                // Naive insertion flickers the whole data area coherently:
                // a full-field stimulus, no small-target elevation.
                small_target_factor: 1.0,
                ..FlickerMeter::default()
            };
            // Naive schemes switch abruptly: the full per-frame step is the
            // envelope step (no smoothing); complementary/control have
            // none within a cycle.
            let step = match scheme {
                NaiveScheme::VideoOnly => 0.0,
                NaiveScheme::Complementary => 0.0,
                _ => {
                    let hi = inframe_frame::color::code_to_linear(127.0 + delta) as f64;
                    let mid = inframe_frame::color::code_to_linear(127.0) as f64;
                    (hi - mid) / mid
                }
            };
            let assessment = meter.assess(&wave, fs, step);
            let mut panel = ObserverPanel::paper_panel(seed);
            Fig3Row {
                label: scheme.label().to_string(),
                disturbance_hz: scheme.disturbance_frequency(display.refresh_hz),
                shifts_mean: scheme.shifts_mean_luminance(),
                rating: panel.rate(&assessment),
            }
        })
        .collect();
    Fig3 { rows }
}

impl Fig3 {
    /// Renders the comparison table.
    pub fn render(&self) -> String {
        let mut t = Table::new(&["scheme", "disturb Hz", "mean shift", "rating", "±"]);
        for r in &self.rows {
            t.push_row(vec![
                r.label.clone(),
                format!("{:.0}", r.disturbance_hz),
                if r.shifts_mean { "yes" } else { "no" }.into(),
                format!("{:.2}", r.rating.mean),
                format!("{:.2}", r.rating.std),
            ]);
        }
        t.render()
    }

    /// Row by label substring.
    pub fn row(&self, label_part: &str) -> Option<&Fig3Row> {
        self.rows.iter().find(|r| r.label.contains(label_part))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig() -> Fig3 {
        run(20.0, &DisplayConfig::eizo_fg2421(), 7)
    }

    #[test]
    fn control_and_inframe_are_clean() {
        let f = fig();
        let control = f.row("control").unwrap();
        let inframe = f.row("InFrame").unwrap();
        assert!(control.rating.mean < 0.5, "control {}", control.rating.mean);
        assert!(
            inframe.rating.mean <= 1.0,
            "InFrame {}",
            inframe.rating.mean
        );
    }

    #[test]
    fn naive_schemes_flicker_badly() {
        let f = fig();
        for part in ["V,D1,D2,D3", "V,V,D,D", "V,V,V,D"] {
            let row = f.row(part).unwrap();
            assert!(
                row.rating.mean > 1.5,
                "{part} must flicker, got {}",
                row.rating.mean
            );
        }
    }

    #[test]
    fn inframe_beats_every_naive_scheme() {
        let f = fig();
        let inframe = f.row("InFrame").unwrap().rating.mean;
        for r in &f.rows {
            if r.label.contains("naive") {
                assert!(
                    r.rating.mean > inframe,
                    "{} ({}) must exceed InFrame ({inframe})",
                    r.label,
                    r.rating.mean
                );
            }
        }
    }

    #[test]
    fn table_lists_all_schemes() {
        let f = fig();
        assert_eq!(f.rows.len(), 6);
        let table = f.render();
        assert!(table.contains("InFrame"));
        assert!(table.contains("control"));
    }
}
