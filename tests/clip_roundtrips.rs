//! Persistence and determinism across crates: clips written to the IFV
//! container replay into identical experiment outcomes.

use inframe::sim::pipeline::{Simulation, SimulationConfig};
use inframe::sim::{Scale, Scenario};
use inframe::video::container::IfvClip;
use inframe::video::source::Looped;
use inframe::video::{FrameRate, VideoSource};

#[test]
fn ifv_clip_replays_into_identical_outcome() {
    let scale = Scale::Quick;
    let config = SimulationConfig {
        inframe: scale.inframe(),
        display: scale.display(),
        camera: scale.camera(),
        geometry: scale.geometry(),
        cycles: 4,
        seed: 77,
    };
    let (w, h) = (config.inframe.display_w, config.inframe.display_h);

    // Materialize two seconds of the sunrise clip and persist it.
    // NOTE: the pipeline quantizes nothing on the sender side, so an 8-bit
    // persisted clip is only *approximately* the procedural one; what must
    // match exactly is the run on the SAME decoded clip.
    let mut live = Scenario::Video.source(w, h, 77);
    let frames = live.take_frames(60);
    let clip = IfvClip::from_f32_frames(&frames, FrameRate::VIDEO_30);
    let bytes = clip.encode();
    let reloaded = IfvClip::decode(&bytes).expect("container roundtrip");
    assert_eq!(clip, reloaded);

    let out_a = Simulation::new(config).run(Looped::from_source(reloaded.to_source()));
    let out_b = Simulation::new(config).run(Looped::from_source(clip.to_source()));
    assert_eq!(out_a.stats, out_b.stats, "same clip, same outcome");
    assert_eq!(out_a.bits_correct, out_b.bits_correct);
}

#[test]
fn image_io_roundtrips_multiplexed_frame() {
    use inframe::core::sender::{PrbsPayload, Sender};
    use inframe::frame::io;
    use inframe::video::synth::SolidClip;

    let cfg = inframe::core::InFrameConfig::small_test();
    let clip = SolidClip::new(cfg.display_w, cfg.display_h, 127.0, FrameRate(30.0));
    let mut sender = Sender::new(cfg, clip, PrbsPayload::new(5));
    let frame = sender.next_frame().expect("endless clip");
    // Round to integers first: PGM is 8-bit.
    let mut plane = frame.plane.clone();
    plane.map_in_place(|v| v.round());

    let mut buf = Vec::new();
    io::write_pgm_to(&mut buf, &plane).expect("in-memory write");
    let back = io::read_pgm_from(&mut std::io::Cursor::new(buf)).expect("parse");
    assert_eq!(plane, back);
}
