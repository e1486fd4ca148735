//! The parallel zero-copy pipeline must be invisible: band-sliced rendering
//! and fanned-out block scoring produce **bit-identical** results for every
//! worker count, and the steady-state sender performs zero heap
//! allocations once its frame pool is warm.

use inframe::camera::{Camera, CameraConfig, CaptureGeometry};
use inframe::core::dataframe::DataFrame;
use inframe::core::demux::{Demultiplexer, RegionCache};
use inframe::core::parallel::ParallelEngine;
use inframe::core::pattern::{self, Complementation};
use inframe::core::sender::{PrbsPayload, Sender};
use inframe::core::{DataLayout, InFrameConfig};
use inframe::display::{DisplayConfig, DisplayStream, FrameEmission};
use inframe::frame::geometry::Homography;
use inframe::frame::Plane;
use inframe::video::synth::MovingBarsClip;
use inframe::video::FrameRate;
use proptest::prelude::*;
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

/// Sender frames over two full data cycles are bit-identical for worker
/// counts 1, 2, 3 and 5 (including the sequential engine itself).
#[test]
fn sender_frames_bit_identical_across_worker_counts() {
    let cfg = InFrameConfig::small_test();
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
    for workers in [2usize, 3, 5] {
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

/// Decoded data frames (and the sequential score path) agree for every
/// worker count, sharing one RegionCache across all receivers.
#[test]
fn demux_decodes_identically_across_worker_counts() {
    let cfg = InFrameConfig::small_test();
    let layout = DataLayout::from_config(&cfg);
    let video = textured_video(&cfg, 3);
    let payload: Vec<bool> = (0..layout.payload_bits_parity())
        .map(|i| i % 3 != 0)
        .collect();
    let frame = DataFrame::encode(&layout, &payload, cfg.coding);
    let (plus, minus) = pattern::complementary_pair(
        &layout,
        &video,
        &frame,
        cfg.delta,
        Complementation::Code,
        |bx, by| if frame.bit(bx, by) { 1.0 } else { 0.0 },
    );

    let cache = RegionCache::build(&cfg, &Homography::identity(), cfg.display_w, cfg.display_h);
    let run = |workers: usize| {
        let engine = Arc::new(ParallelEngine::new(workers));
        let mut demux = Demultiplexer::with_cache(cfg, Arc::clone(&cache), engine);
        let d = demux.cycle_duration();
        demux.push_capture(&plus, 0.2 * d);
        demux.push_capture(&minus, 0.4 * d);
        let scores = demux.score_capture(&plus);
        (demux.finish().expect("one cycle accumulated"), scores)
    };

    let (reference, reference_scores) = run(1);
    assert_eq!(reference.captures_used, 2);
    for workers in [2usize, 3, 5] {
        let (decoded, scores) = run(workers);
        assert_eq!(decoded, reference, "decode differs at {workers} workers");
        assert_eq!(
            scores, reference_scores,
            "scores differ at {workers} workers"
        );
    }
}

/// After the first frame warms the pool, the sender's render loop performs
/// zero heap allocations in the frame path: every subsequent checkout is
/// served from the free list as long as emitted frames are dropped.
#[test]
fn sender_steady_state_allocates_no_frames() {
    let cfg = InFrameConfig::small_test();
    let mut sender = Sender::new(cfg, bars(&cfg), PrbsPayload::new(4));
    drop(sender.next_frame().expect("endless clip")); // warm-up
    let warm = sender.pool().stats();
    assert_eq!(warm.allocated, 1);
    let frames = 3 * cfg.tau as u64;
    for _ in 0..frames {
        drop(sender.next_frame().expect("endless clip"));
    }
    let steady = sender.pool().stats();
    assert_eq!(
        steady.allocated, warm.allocated,
        "steady-state render must not allocate: {steady:?}"
    );
    assert_eq!(steady.reused, warm.reused + frames);
    assert_eq!(steady.live, 0);
    assert_eq!(sender.meter().frames(), frames + 1);
}

/// Holding several frames at once grows the pool to the high-water mark,
/// then reuse takes over again.
#[test]
fn pool_grows_to_high_water_mark_then_reuses() {
    let cfg = InFrameConfig::small_test();
    let mut sender = Sender::new(cfg, bars(&cfg), PrbsPayload::new(4));
    let held: Vec<_> = (0..3)
        .map(|_| sender.next_frame().expect("endless clip"))
        .collect();
    assert_eq!(sender.pool().stats().allocated, 3);
    assert_eq!(sender.pool().stats().live, 3);
    drop(held);
    assert_eq!(sender.pool().stats().live, 0);
    for _ in 0..6 {
        drop(sender.next_frame().expect("endless clip"));
    }
    let stats = sender.pool().stats();
    assert_eq!(
        stats.allocated, 3,
        "high-water pool must satisfy steady state"
    );
    assert_eq!(stats.returned, 9);
}

/// Incremental 64-bit FNV-1a over the f32 bits of whole planes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Hashes each sample's four little-endian bytes in order.
    fn plane(&mut self, p: &Plane<f32>) {
        let mut h = self.0;
        for v in p.samples() {
            let bits = v.to_bits();
            h = (h ^ (bits & 0xff) as u64).wrapping_mul(0x0000_0100_0000_01b3);
            h = (h ^ (bits >> 8 & 0xff) as u64).wrapping_mul(0x0000_0100_0000_01b3);
            h = (h ^ (bits >> 16 & 0xff) as u64).wrapping_mul(0x0000_0100_0000_01b3);
            h = (h ^ (bits >> 24) as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }
}

/// Display code frame `i` at 1920×1080: a flat ±20 chessboard third (long
/// runs of equal codes), a drifting fractional ramp and a pseudo-random
/// texture, so every band of the present sees a different mix.
fn paper_code_frame(i: usize) -> Plane<f32> {
    let (w, h) = (1920, 1080);
    Plane::from_fn(w, h, |x, y| {
        if y < h / 3 {
            let sign = if (x / 8 + y / 8 + i).is_multiple_of(2) {
                1.0
            } else {
                -1.0
            };
            127.0 + sign * 20.0
        } else if y < 2 * h / 3 {
            (x as f32 * 0.1328125 + i as f32 * 3.5) % 256.0
        } else {
            ((x * 31 + y * 17 + i * 13) % 256) as f32 * 0.75 + 10.0
        }
    })
}

/// Presents 8 frames on the strobed 120 Hz panel at 1920×1080 and captures
/// the 2 frames they cover with the 24-band Lumia camera at 1280×720,
/// noise on, hashing every emission plane and every capture plane.
fn paper_scale_digest(
    frames: &[Plane<f32>],
    mut display: DisplayStream,
    mut camera: Camera,
) -> u64 {
    let mut h = Fnv::new();
    let mut window: Vec<FrameEmission> = Vec::new();
    for frame in frames {
        let e = display.present(frame);
        h.plane(&e.target);
        h.plane(&e.initial);
        let end = e.t_start + e.duration;
        window.push(e);
        while camera.required_window().1 <= end {
            let need_start = camera.required_window().0;
            window.retain(|e| e.t_start + e.duration > need_start + 1e-12);
            let cap = camera.capture(&window).expect("window is covered");
            h.plane(&cap.plane);
        }
    }
    assert_eq!(camera.next_index(), 2, "8 frames cover 2 captures");
    h.0
}

/// The paper-scale camera: Lumia 1020 at 1280×720, 24 shutter bands.
fn paper_camera() -> CameraConfig {
    CameraConfig {
        shutter_bands: 24,
        ..CameraConfig::lumia_1020()
    }
}

/// Recorded before the display and camera ran on the engine.
const PAPER_SCALE_DIGEST: u64 = 0x0ad4_f67d_81a2_9cea;

/// Paper-scale frames are the only ones whose bands reach the engine's
/// default spawn threshold, so this is the test that runs the display and
/// camera through their parallel paths as shipped: the default engine,
/// then pinned worker counts 1, 2, 3 and 5, all to the digest recorded
/// from the single-threaded display and camera.
#[test]
fn paper_scale_display_and_camera_bit_identical() {
    let frames: Vec<Plane<f32>> = (0..8).map(paper_code_frame).collect();
    let got = paper_scale_digest(
        &frames,
        DisplayStream::new(DisplayConfig::eizo_fg2421()),
        Camera::new(paper_camera(), CaptureGeometry::Fronto, 2),
    );
    assert_eq!(got, PAPER_SCALE_DIGEST, "default engine: got {got:#018x}");
    for workers in [1usize, 2, 3, 5] {
        let engine = Arc::new(ParallelEngine::new(workers));
        let got = paper_scale_digest(
            &frames,
            DisplayStream::with_engine(DisplayConfig::eizo_fg2421(), Arc::clone(&engine)),
            Camera::with_engine(paper_camera(), CaptureGeometry::Fronto, 2, engine),
        );
        assert_eq!(
            got, PAPER_SCALE_DIGEST,
            "{workers} workers: got {got:#018x}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property: banded parallel offset rendering is bit-identical to the
    /// sequential renderer for random videos, amplitudes, deltas, both
    /// complementation rules and worker counts 1–6.
    #[test]
    fn pair_offsets_parallel_matches_sequential(
        seed in 0u64..1_000_000,
        delta in 1.0f32..45.0,
        luminance in any::<bool>(),
        workers in 1usize..7,
    ) {
        let cfg = InFrameConfig::small_test();
        let layout = DataLayout::from_config(&cfg);
        let video = textured_video(&cfg, seed);
        let payload: Vec<bool> =
            (0..layout.payload_bits_parity()).map(|i| (i as u64 ^ seed).is_multiple_of(2)).collect();
        let frame = DataFrame::encode(&layout, &payload, cfg.coding);
        let comp = if luminance { Complementation::Luminance } else { Complementation::Code };
        // Per-block fractional amplitudes exercise the envelope path.
        let amp = |bx: usize, by: usize| {
            if frame.bit(bx, by) {
                1.0 - ((bx * 31 + by * 17 + seed as usize) % 10) as f32 / 20.0
            } else {
                0.0
            }
        };
        let (want_plus, want_minus) =
            pattern::pair_offsets(&layout, &video, &frame, delta, comp, amp);
        let engine = ParallelEngine::new(workers);
        let mut got_plus = Plane::filled(cfg.display_w, cfg.display_h, f32::NAN);
        let mut got_minus = Plane::filled(cfg.display_w, cfg.display_h, f32::NAN);
        pattern::pair_offsets_into(
            &layout, &video, &frame, delta, comp, amp, &engine,
            &mut got_plus, &mut got_minus,
        );
        prop_assert!(got_plus.samples() == want_plus.samples(), "plus differs at {} workers", workers);
        prop_assert!(got_minus.samples() == want_minus.samples(), "minus differs at {} workers", workers);
    }
}
