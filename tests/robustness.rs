//! Robustness integration tests: scene cuts, blind synchronization and
//! ISP processing through the full channel.

use inframe::core::sync::CycleSynchronizer;
use inframe::sim::pipeline::{Simulation, SimulationConfig};
use inframe::sim::{Link, Scale, Scenario};
use inframe::video::source::Limited;
use inframe::video::synth::SolidClip;
use inframe::video::transform::Concat;
use inframe::video::FrameRate;

fn base(cycles: u32) -> SimulationConfig {
    let s = Scale::Quick;
    SimulationConfig {
        inframe: s.inframe(),
        display: s.display(),
        camera: s.camera(),
        geometry: s.geometry(),
        cycles,
        seed: 31,
    }
}

#[test]
fn scene_cut_does_not_corrupt_in_flight_cycles() {
    // A hard cut from dark to bright mid-stream: because both frames of a
    // complementary pair use the same video frame, the cut cannot break
    // pair cancellation, and decoding continues across it.
    let c = base(6);
    let (w, h) = (c.inframe.display_w, c.inframe.display_h);
    let cut = Concat::new(
        Limited::new(SolidClip::new(w, h, 90.0, FrameRate::VIDEO_30), 9),
        SolidClip::new(w, h, 170.0, FrameRate::VIDEO_30),
    );
    let out = Simulation::new(c).run(cut);
    let r = out.report();
    assert!(
        r.available_ratio > 0.85,
        "availability across the cut: {}",
        r.available_ratio
    );
    assert!(out.bit_accuracy() > 0.98, "accuracy {}", out.bit_accuracy());
}

#[test]
fn blind_sync_recovers_unknown_camera_phase() {
    // Run the channel with a camera whose phase the receiver does NOT
    // know; recover the cycle phase from block scores alone and check it
    // against the truth.
    use inframe::camera::Camera;
    use inframe::core::sender::{PrbsPayload, Sender};
    use inframe::core::Demultiplexer;
    use inframe::sim::link::CapturePump;
    use std::ops::ControlFlow;

    let mut c = base(16);
    // τ = 10: the 33.3 ms capture period is not an integer fraction of the
    // 83.3 ms cycle, so capture times fold onto five distinct positions
    // per cycle — enough coverage for the phase estimator. (At τ = 12 the
    // ratio is exactly 3 and some camera phases never sample the
    // transition window.)
    c.inframe.tau = 10;
    let true_phase = 0.0137; // unknown to the receiver
    c.camera.phase_s = true_phase;
    let (w, h) = (c.inframe.display_w, c.inframe.display_h);

    let sender = Sender::new(
        c.inframe,
        SolidClip::new(w, h, 127.0, FrameRate::VIDEO_30),
        PrbsPayload::new(3),
    );
    let mut pump = CapturePump::new(&c, sender);
    let mut camera = [Camera::new(c.camera, c.geometry, 3)];
    let mut demux = Demultiplexer::new(
        c.inframe,
        &c.registration(),
        c.camera.width,
        c.camera.height,
    );
    let mut sync = CycleSynchronizer::new(&c.inframe);
    pump.run(&mut camera, |_, capture, _, _| {
        if let Ok(cap) = capture {
            // The receiver only knows its own capture count, not display
            // time: use camera-local timestamps.
            let local_t = cap.index as f64 / c.camera.fps;
            let scores = demux.score_capture(&cap.plane);
            sync.observe(
                local_t,
                CycleSynchronizer::decisiveness_of_scores(
                    &scores,
                    c.inframe.threshold,
                    c.inframe.margin,
                ),
            );
        }
        ControlFlow::Continue(())
    });

    let est = sync.estimate().expect("enough captures");
    // The SRRC smoothing deliberately minimizes the very signature blind
    // sync keys on, so the contrast is modest — but it must exist.
    assert!(est.confidence > 1.05, "confidence {}", est.confidence);
    // The estimate is in camera-local time; the true cycle origin in that
    // frame of reference is −(first capture's midpoint) (mod cycle).
    let d = sync.cycle_duration();
    let expected = ((-c.camera.frame_mid(0)) % d + d) % d;
    // Accept a circular error of up to a third of a cycle: the 30 FPS
    // camera folds to only three positions per cycle, bounding resolution.
    let err = {
        let e = (est.phase - expected).abs() % d;
        e.min(d - e)
    };
    assert!(
        err < d / 3.0,
        "phase estimate {} vs expected {expected} (err {err}, cycle {d})",
        est.phase
    );
}

#[test]
fn phone_isp_default_still_decodes() {
    use inframe::camera::IspConfig;
    use inframe::link::session::CompletionTarget;
    let mut c = base(5);
    c.camera.isp = IspConfig::phone_default();
    let link = Link::new(c);
    let session = link.run_session(
        Scenario::Gray.source(c.inframe.display_w, c.inframe.display_h, 31),
        inframe::core::sender::PrbsPayload::new(31),
        5,
        link.session(CompletionTarget::Never),
    );
    assert!(
        session.stats().available_ratio() > 0.8,
        "availability with phone ISP: {}",
        session.stats().available_ratio()
    );
}

#[test]
fn letterboxing_costs_bar_blocks_but_not_correctness() {
    // A letterboxed clip: the data grid extends over the dark bars, where
    // shadow noise swamps the (clamped) pattern — those GOBs drop out,
    // but every bit that IS recovered stays correct. Dark content costs
    // capacity, never integrity.
    use inframe::video::transform::Letterbox;
    let c = base(5);
    let (w, h) = (c.inframe.display_w, c.inframe.display_h);
    let inner = SolidClip::new(w - 40, h - 40, 127.0, FrameRate::VIDEO_30);
    let boxed = Letterbox::new(inner, w, h, 30.0);
    let out = Simulation::new(c).run(boxed);
    let avail = out.report().available_ratio;
    assert!(
        (0.3..0.95).contains(&avail),
        "bars must cost some availability: {avail}"
    );
    assert!(out.bit_accuracy() > 0.97, "accuracy {}", out.bit_accuracy());
    // Brighter bars restore the lost blocks.
    let bright = Letterbox::new(
        SolidClip::new(w - 40, h - 40, 127.0, FrameRate::VIDEO_30),
        w,
        h,
        110.0,
    );
    let out2 = Simulation::new(base(5)).run(bright);
    assert!(
        out2.report().available_ratio > avail,
        "brighter bars must recover blocks: {} vs {avail}",
        out2.report().available_ratio
    );
}
