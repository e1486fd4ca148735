//! The batched fleet seam must be invisible: scoring N perturbed views
//! of one capture through [`BatchScorer`] — one blur per variant,
//! per-class demodulation, assignment fan-out — must produce
//! **bit-identical** decode decisions to the reference fleet, which
//! materializes each receiver's perturbed capture as a real plane and
//! runs it through its own streaming [`Demultiplexer`]. Proven for the
//! perturbation corpus (identity, pure AWB shift, AE gain step,
//! occlusion, the combination) at every supported SIMD dispatch level
//! and at worker counts 1–4.

use inframe::code::framing::LossyBits;
use inframe::core::batch::{BatchScorer, ScoreClass, SKIP, UNREADABLE};
use inframe::core::dataframe::{self, DataFrame};
use inframe::core::demux::{Demultiplexer, RegionCache};
use inframe::core::parallel::ParallelEngine;
use inframe::core::pattern::{self, Complementation};
use inframe::core::{DataLayout, InFrameConfig};
use inframe::frame::geometry::Homography;
use inframe::frame::perturb::{materialized, CaptureTransform, OcclusionRect};
use inframe::frame::simd;
use inframe::frame::Plane;
use std::sync::Arc;

/// Restores SIMD dispatch when the test exits (including on panic).
struct SimdGuard;

impl Drop for SimdGuard {
    fn drop(&mut self) {
        simd::force_level(None);
    }
}

fn textured_video(cfg: &InFrameConfig, seed: u64) -> Plane<f32> {
    Plane::from_fn(cfg.display_w, cfg.display_h, |x, y| {
        let h = (x as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((y as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(seed.wrapping_mul(0x94D0_49BB_1331_11EB));
        40.0 + ((h >> 7) % 176) as f32
    })
}

/// Two in-cycle captures (the complementary pair of one textured data
/// frame) — enough to exercise the per-cycle max-merge.
fn captures(cfg: &InFrameConfig) -> Vec<Plane<f32>> {
    let layout = DataLayout::from_config(cfg);
    let payload: Vec<bool> = (0..layout.payload_bits_parity())
        .map(|i| i % 3 == 0)
        .collect();
    let frame = DataFrame::encode(&layout, &payload, cfg.coding);
    let video = textured_video(cfg, 23);
    let (plus, minus) = pattern::complementary_pair(
        &layout,
        &video,
        &frame,
        cfg.delta,
        Complementation::Code,
        |bx, by| if frame.bit(bx, by) { 1.0 } else { 0.0 },
    );
    vec![plus, minus]
}

/// The receiver-perturbation corpus: every axis alone plus the combined
/// case. All classes are noise-free — the streaming reference has no
/// noise-class notion, and bit-identity is only claimed for the shared
/// part of the algebra.
fn corpus(cfg: &InFrameConfig) -> Vec<(&'static str, CaptureTransform)> {
    let occ = OcclusionRect {
        x0: cfg.display_w / 4,
        y0: cfg.display_h / 3,
        w: cfg.display_w / 3,
        h: cfg.display_h / 4,
        level_raw: 128 * 128,
    };
    vec![
        ("identity", CaptureTransform::IDENTITY),
        (
            "awb-shift",
            CaptureTransform {
                awb_raw: 96,
                ..CaptureTransform::IDENTITY
            },
        ),
        (
            "gain-step",
            CaptureTransform {
                gain_q12: 4352, // ×1.0625
                ..CaptureTransform::IDENTITY
            },
        ),
        (
            "occlusion",
            CaptureTransform {
                occlusion: Some(occ),
                ..CaptureTransform::IDENTITY
            },
        ),
        (
            "combo",
            CaptureTransform {
                gain_q12: 3840, // ×0.9375
                awb_raw: -64,
                occlusion: Some(occ),
            },
        ),
    ]
}

/// Runs one worker count and asserts batch == sequential for every
/// receiver in the corpus.
fn assert_fleet_equivalence(workers: usize, label: &str) {
    let cfg = InFrameConfig::small_test();
    let corpus = corpus(&cfg);
    let caps = captures(&cfg);
    let layout = DataLayout::from_config(&cfg);
    let cache = RegionCache::build(&cfg, &Homography::identity(), cfg.display_w, cfg.display_h);
    let engine = Arc::new(ParallelEngine::new(workers));
    let mut scorer = BatchScorer::new(cfg, Arc::clone(&cache), Arc::clone(&engine));
    let nb = scorer.num_blocks();

    let transforms: Vec<CaptureTransform> = corpus.iter().map(|(_, t)| *t).collect();
    let classes: Vec<ScoreClass> = (0..transforms.len() as u32)
        .map(ScoreClass::clean)
        .collect();
    // One receiver per corpus entry, plus one SKIP receiver that must
    // stay untouched through every merge.
    let receivers = transforms.len() + 1;
    let assign: Vec<u32> = (0..transforms.len() as u32)
        .map(Some)
        .chain([None])
        .map(|c| c.unwrap_or(SKIP))
        .collect();
    let mut best = vec![UNREADABLE; receivers * nb];
    for capture in &caps {
        scorer.score_classes(capture, &transforms, &classes);
        scorer.merge_assigned(&assign, &mut best);
    }

    let mut verdicts = LossyBits::default();
    for (r, (name, transform)) in corpus.iter().enumerate() {
        // Reference: materialize this receiver's perturbed planes and run
        // them through a fresh streaming demultiplexer.
        let mut demux = Demultiplexer::with_cache(cfg, Arc::clone(&cache), Arc::clone(&engine));
        let d = demux.cycle_duration();
        let mut seq_best = vec![UNREADABLE; nb];
        for (i, capture) in caps.iter().enumerate() {
            let perturbed = materialized(capture, transform);
            demux.push_capture(&perturbed, (0.05 + 0.1 * i as f64) * d);
            for (slot, score) in seq_best.iter_mut().zip(demux.last_scores()) {
                if let Some(v) = score.value() {
                    *slot = slot.max(v);
                }
            }
        }
        let decoded = demux.finish().expect("one cycle accumulated");

        // Merged scores must agree bit-for-bit.
        let batch_row = &best[r * nb..(r + 1) * nb];
        assert_eq!(
            batch_row,
            &seq_best[..],
            "{label}: merged scores differ for {name}"
        );

        // And so must the decode decisions end to end: verdict rows fed
        // through the real PHY decode reproduce the streaming payload.
        scorer.verdicts_into(batch_row, &mut verdicts);
        let (bits, stats) = dataframe::decode(&layout, &verdicts, cfg.coding);
        assert_eq!(bits, decoded.payload, "{label}: payload differs for {name}");
        assert_eq!(stats, decoded.stats, "{label}: stats differ for {name}");
    }
    // The unassigned receiver's row never left the UNREADABLE floor.
    let idle = &best[transforms.len() * nb..];
    assert!(
        idle.iter().all(|&v| v == UNREADABLE),
        "{label}: SKIP receiver row was written"
    );
}

/// Acceptance: batched fleet scoring is bit-identical to the looping
/// single-receiver reference at every supported SIMD level, workers 1–4.
#[test]
fn batched_fleet_scoring_matches_sequential_reference() {
    let _restore = SimdGuard;
    for level in simd::SimdLevel::supported() {
        simd::force_level(Some(level));
        for workers in 1..=4 {
            assert_fleet_equivalence(workers, &format!("{}/{workers}w", level.name()));
        }
    }
}
