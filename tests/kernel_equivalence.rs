//! The LUT render must be invisible to the link: on the whole test
//! corpus a receiver decodes **exactly the same bits** from the chessboard
//! LUT render ([`KernelBackend::Quantized`]) as from the f32 reference
//! render, at every SIMD level, and — like the reference — the LUT
//! render's frames are bit-identical for every worker count and SIMD
//! level. The receiver has one scorer, so only the render differs.

use inframe::core::config::KernelBackend;
use inframe::core::dataframe::DataFrame;
use inframe::core::demux::{DecodedDataFrame, Demultiplexer, RegionCache};
use inframe::core::multiplex::{self, Multiplexer};
use inframe::core::parallel::ParallelEngine;
use inframe::core::pattern::Complementation;
use inframe::core::sender::{PrbsPayload, Sender};
use inframe::core::{DataLayout, InFrameConfig};
use inframe::frame::geometry::Homography;
use inframe::frame::resample::downsample_area;
use inframe::frame::simd;
use inframe::frame::Plane;
use inframe::video::synth::MovingBarsClip;
use inframe::video::FrameRate;
use std::sync::Arc;

fn textured_video(cfg: &InFrameConfig, seed: u64) -> Plane<f32> {
    Plane::from_fn(cfg.display_w, cfg.display_h, |x, y| {
        let h = (x as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((y as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(seed.wrapping_mul(0x94D0_49BB_1331_11EB));
        40.0 + ((h >> 7) % 176) as f32
    })
}

fn bars(cfg: &InFrameConfig) -> MovingBarsClip {
    MovingBarsClip::new(
        cfg.display_w,
        cfg.display_h,
        17,
        1.5,
        70.0,
        210.0,
        FrameRate(cfg.refresh_hz / 4.0),
    )
}

/// One corpus entry: what the display shows during data cycle 0, which
/// of its frames the camera captures, and the registration/sensor
/// geometry they are captured under.
struct Scenario {
    name: &'static str,
    video: Plane<f32>,
    complementation: Complementation,
    /// Payload bit `i` is set when `i % key == 0`.
    key: usize,
    /// Amplitude scale applied to every Block (1.0 = full δ).
    amp_scale: f32,
    /// Displayed-frame indices of cycle 0 to capture (even = `V + P`,
    /// odd = `V − P`).
    frames: &'static [u64],
    /// Whether a washed-out capture (the plain video) follows.
    washed_out: bool,
    registration: Homography,
    sensor_w: usize,
    sensor_h: usize,
}

/// The equivalence corpus: clean solid-video pairs, textured video with
/// a washed-out capture, fractional Block amplitudes, and a
/// 2/3-resolution sensor (non-integer capture values through the area
/// downsample).
fn corpus(cfg: &InFrameConfig) -> Vec<Scenario> {
    let solid = Plane::filled(cfg.display_w, cfg.display_h, 127.0);
    let textured = textured_video(cfg, 11);
    let full = |name, video, complementation, key, amp_scale, frames, washed_out| Scenario {
        name,
        video,
        complementation,
        key,
        amp_scale,
        frames,
        washed_out,
        registration: Homography::identity(),
        sensor_w: cfg.display_w,
        sensor_h: cfg.display_h,
    };
    let (sw, sh) = (cfg.display_w * 2 / 3, cfg.display_h * 2 / 3);
    vec![
        full(
            "solid-code-pair",
            solid.clone(),
            Complementation::Code,
            3,
            1.0,
            &[0, 1],
            false,
        ),
        full(
            "textured-luminance",
            textured.clone(),
            Complementation::Luminance,
            2,
            1.0,
            &[0],
            true,
        ),
        full(
            "fractional-amplitude",
            solid,
            Complementation::Code,
            4,
            0.6,
            &[0],
            false,
        ),
        Scenario {
            registration: Homography::scale(
                sw as f64 / cfg.display_w as f64,
                sh as f64 / cfg.display_h as f64,
            ),
            sensor_w: sw,
            sensor_h: sh,
            ..full(
                "downscaled-sensor",
                textured,
                Complementation::Code,
                3,
                1.0,
                &[0],
                false,
            )
        },
    ]
}

/// Renders a scenario's captures with the given render backend.
fn render(cfg: &InFrameConfig, scenario: &Scenario, backend: KernelBackend) -> Vec<Plane<f32>> {
    let cfg = InFrameConfig {
        kernel: backend,
        complementation: scenario.complementation,
        ..*cfg
    };
    let layout = DataLayout::from_config(&cfg);
    let payload: Vec<bool> = (0..layout.payload_bits_parity())
        .map(|i| i % scenario.key == 0)
        .collect();
    let frame = DataFrame::encode(&layout, &payload, cfg.coding);
    let mut mux = Multiplexer::new(cfg);
    if scenario.amp_scale != 1.0 {
        mux.set_block_amp_scales(&vec![scenario.amp_scale; layout.num_blocks()]);
    }
    let mut captures: Vec<Plane<f32>> = scenario
        .frames
        .iter()
        .map(|&f| {
            let mut out = Plane::filled(cfg.display_w, cfg.display_h, 0.0);
            let slot = multiplex::slot(&cfg, f);
            mux.render_into(&slot, &scenario.video, &frame, &frame, &mut out);
            out
        })
        .collect();
    if scenario.washed_out {
        captures.push(scenario.video.clone());
    }
    if (scenario.sensor_w, scenario.sensor_h) != (cfg.display_w, cfg.display_h) {
        for c in &mut captures {
            *c = downsample_area(c, scenario.sensor_w, scenario.sensor_h);
        }
    }
    captures
}

/// Decodes one cycle of captures.
fn decode(cfg: &InFrameConfig, scenario: &Scenario, captures: &[Plane<f32>]) -> DecodedDataFrame {
    let cache = RegionCache::build(
        cfg,
        &scenario.registration,
        scenario.sensor_w,
        scenario.sensor_h,
    );
    let mut demux = Demultiplexer::with_cache(*cfg, cache, Arc::new(ParallelEngine::new(1)));
    let d = demux.cycle_duration();
    for (i, capture) in captures.iter().enumerate() {
        // All captures land in the scored first half of cycle 0.
        demux.push_capture(capture, (0.05 + 0.1 * i as f64) * d);
    }
    demux.finish().expect("one cycle accumulated")
}

/// Acceptance: on the entire corpus a receiver decodes identical bits
/// (stats and all) from the reference render and from the LUT render at
/// every supported SIMD level.
#[test]
fn decoded_bits_identical_across_backends_on_corpus() {
    let _restore = SimdGuard;
    let cfg = InFrameConfig::small_test();
    for scenario in corpus(&cfg) {
        let reference = decode(
            &cfg,
            &scenario,
            &render(&cfg, &scenario, KernelBackend::Reference),
        );
        assert!(
            reference.stats.available > 0,
            "{}: the reference render must decode",
            scenario.name
        );
        for level in simd::SimdLevel::supported() {
            simd::force_level(Some(level));
            let lut = decode(
                &cfg,
                &scenario,
                &render(&cfg, &scenario, KernelBackend::Quantized),
            );
            assert_eq!(
                lut,
                reference,
                "decode differs on scenario {} at {}",
                scenario.name,
                level.name()
            );
        }
    }
}

/// The LUT-render sender is bit-identical for every worker count on
/// moving video.
#[test]
fn quantized_sender_bit_identical_across_worker_counts() {
    let cfg = InFrameConfig {
        kernel: KernelBackend::Quantized,
        ..InFrameConfig::small_test()
    };
    let frames = 2 * cfg.tau as usize + 3;
    let mut reference = Sender::with_engine(
        cfg,
        bars(&cfg),
        PrbsPayload::new(9),
        Arc::new(ParallelEngine::new(1)),
    );
    let reference_frames: Vec<_> = (0..frames)
        .map(|_| reference.next_frame().expect("endless clip"))
        .collect();
    for workers in 2..=6usize {
        let engine = Arc::new(ParallelEngine::new(workers));
        let mut sender = Sender::with_engine(cfg, bars(&cfg), PrbsPayload::new(9), engine);
        for (i, want) in reference_frames.iter().enumerate() {
            let got = sender.next_frame().expect("endless clip");
            assert_eq!(got.slot, want.slot);
            assert_eq!(
                got.plane.samples(),
                want.plane.samples(),
                "frame {i} differs at {workers} workers"
            );
        }
    }
}

/// End-to-end: a receiver recovers the same payload from a LUT-render
/// sender as from a reference-render sender.
#[test]
fn quantized_link_decodes_same_payload_as_reference_link() {
    let run = |backend: KernelBackend| {
        let cfg = InFrameConfig {
            kernel: backend,
            ..InFrameConfig::small_test()
        };
        let mut sender = Sender::with_engine(
            cfg,
            bars(&cfg),
            PrbsPayload::new(21),
            Arc::new(ParallelEngine::new(2)),
        );
        let mut demux = Demultiplexer::with_cache(
            cfg,
            RegionCache::build(&cfg, &Homography::identity(), cfg.display_w, cfg.display_h),
            Arc::new(ParallelEngine::new(2)),
        );
        let mut decoded = Vec::new();
        // Camera at 30 FPS over 120 Hz display: every 4th displayed frame.
        for _ in 0..(4 * cfg.tau as usize) {
            let f = sender.next_frame().expect("endless clip");
            if f.slot.display_index.is_multiple_of(4) {
                let t_mid = f.slot.t_start + 0.5 / cfg.refresh_hz;
                if let Some(d) = demux.push_capture(&f.plane, t_mid) {
                    decoded.push(d);
                }
            }
        }
        decoded.extend(demux.finish());
        assert!(!decoded.is_empty(), "{backend:?}: no cycles decoded");
        decoded
    };
    let reference = run(KernelBackend::Reference);
    let quantized = run(KernelBackend::Quantized);
    assert_eq!(reference.len(), quantized.len());
    for (r, q) in reference.iter().zip(&quantized) {
        assert_eq!(q.cycle, r.cycle);
        assert_eq!(q.payload, r.payload, "cycle {}", r.cycle);
    }
}

/// Restores environment/CPU SIMD dispatch when a forced-level test exits
/// (including on panic), so test order cannot leak a pinned level.
struct SimdGuard;

impl Drop for SimdGuard {
    fn drop(&mut self) {
        simd::force_level(None);
    }
}

/// The LUT-render sender renders bit-identical display frames at every
/// supported SIMD level (the LUT-apply kernel is part of the oracle
/// contract).
#[test]
fn quantized_sender_bit_identical_across_simd_levels() {
    let _restore = SimdGuard;
    let cfg = InFrameConfig {
        kernel: KernelBackend::Quantized,
        ..InFrameConfig::small_test()
    };
    let frames = 2 * cfg.tau as usize + 3;
    simd::force_level(Some(simd::SimdLevel::Scalar));
    let mut oracle = Sender::with_engine(
        cfg,
        bars(&cfg),
        PrbsPayload::new(9),
        Arc::new(ParallelEngine::new(1)),
    );
    let oracle_frames: Vec<_> = (0..frames)
        .map(|_| oracle.next_frame().expect("endless clip"))
        .collect();
    for level in simd::SimdLevel::supported() {
        simd::force_level(Some(level));
        let mut sender = Sender::with_engine(
            cfg,
            bars(&cfg),
            PrbsPayload::new(9),
            Arc::new(ParallelEngine::new(1)),
        );
        for (i, want) in oracle_frames.iter().enumerate() {
            let got = sender.next_frame().expect("endless clip");
            assert_eq!(got.slot, want.slot);
            assert_eq!(
                got.plane.samples(),
                want.plane.samples(),
                "frame {i} differs at {}",
                level.name()
            );
        }
    }
}
