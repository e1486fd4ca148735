//! End-to-end application messaging: the framing layer + scrambler from
//! `inframe-code` riding the full simulated channel.

use inframe::code::framing;
use inframe::code::scramble::Scrambler;
use inframe::core::sender::PayloadSource;
use inframe::core::DecodedDataFrame;
use inframe::link::session::CompletionTarget;
use inframe::sim::pipeline::SimulationConfig;
use inframe::sim::{Link, Scale, Scenario};

/// Fraction of payload bits recovered across decoded cycles.
fn recovery_ratio(decoded: &[DecodedDataFrame]) -> f64 {
    let (mut known, mut total) = (0usize, 0usize);
    for d in decoded {
        total += d.payload.len();
        known += d.payload.iter().filter(|b| b.is_some()).count();
    }
    if total == 0 {
        return 0.0;
    }
    known as f64 / total as f64
}

/// Streams framed messages, scrambled per data cycle.
struct FramedSource {
    scrambler: Scrambler,
    queue: Vec<bool>,
    cycle: u64,
}

impl FramedSource {
    fn new(messages: &[&[u8]], seed: u64) -> Self {
        // Repeat the message block enough times to outlast the run.
        let one_pass: Vec<bool> = messages
            .iter()
            .flat_map(|m| framing::encode_frame(m))
            .collect();
        let mut queue = Vec::new();
        while queue.len() < 50_000 {
            queue.extend_from_slice(&one_pass);
        }
        Self {
            scrambler: Scrambler::new(seed),
            queue,
            cycle: 0,
        }
    }
}

impl PayloadSource for FramedSource {
    fn next_payload(&mut self, bits: usize) -> Vec<bool> {
        let take: Vec<bool> = self.queue.drain(..bits.min(self.queue.len())).collect();
        let mut padded = take;
        padded.resize(bits, false);
        let out = self.scrambler.apply(&padded, self.cycle);
        self.cycle += 1;
        out
    }
}

#[test]
fn framed_messages_survive_the_gray_channel() {
    let s = Scale::Quick;
    let config = SimulationConfig {
        inframe: s.inframe(),
        display: s.display(),
        camera: s.camera(),
        geometry: s.geometry(),
        cycles: 12,
        seed: 17,
    };
    let messages: Vec<&[u8]> = vec![b"status:nominal", b"temp:23.4C", b"seq:0042"];
    let scramble_seed = 0xBEEF;
    let link = Link::new(config);
    let session = link.run_session(
        Scenario::Gray.source(config.inframe.display_w, config.inframe.display_h, 17),
        FramedSource::new(&messages, scramble_seed),
        4,
        link.session(CompletionTarget::Never),
    );
    let ratio = recovery_ratio(session.decoded());
    assert!(ratio > 0.9, "{ratio}");

    // Receiver: descramble per decoded cycle, concatenate, scan for frames.
    let descrambler = Scrambler::new(scramble_seed);
    let mut bits = Vec::new();
    for d in session.decoded() {
        let cycle_bits: Vec<bool> = d.payload.iter().map(|b| b.unwrap_or(false)).collect();
        bits.extend(descrambler.apply(&cycle_bits, d.cycle));
    }
    let frames = framing::scan(&bits);
    let recovered: std::collections::BTreeSet<Vec<u8>> =
        frames.into_iter().map(|f| f.payload).collect();
    for msg in &messages {
        assert!(
            recovered.contains(*msg),
            "message {:?} must be recovered; got {} distinct frames",
            std::str::from_utf8(msg).unwrap(),
            recovered.len()
        );
    }
}

#[test]
fn scrambling_keeps_idle_frames_decodable() {
    // An all-zero application payload without scrambling produces empty
    // data frames (score 0 everywhere — fine but carries no sync energy);
    // with scrambling the frames stay balanced and availability matches
    // random data.
    let s = Scale::Quick;
    let config = SimulationConfig {
        inframe: s.inframe(),
        display: s.display(),
        camera: s.camera(),
        geometry: s.geometry(),
        cycles: 6,
        seed: 23,
    };
    struct Zeros;
    impl PayloadSource for Zeros {
        fn next_payload(&mut self, bits: usize) -> Vec<bool> {
            vec![false; bits]
        }
    }
    let link = Link::new(config);
    let idle = link.run_session(
        Scenario::Gray.source(config.inframe.display_w, config.inframe.display_h, 23),
        Zeros,
        8,
        link.session(CompletionTarget::Never),
    );
    let scrambled = link.run_session(
        Scenario::Gray.source(config.inframe.display_w, config.inframe.display_h, 23),
        FramedSource::new(&[b""], 0x5EED),
        8,
        link.session(CompletionTarget::Never),
    );
    // Both decode fine; the scrambled stream has ~50% ones in its sent
    // frames (verified at the source), the idle one none.
    assert!(idle.stats().available_ratio() > 0.9);
    assert!(scrambled.stats().available_ratio() > 0.9);
    let ones = |src: &mut dyn PayloadSource| {
        let bits = src.next_payload(1024);
        bits.iter().filter(|&&b| b).count()
    };
    assert_eq!(ones(&mut Zeros), 0);
    let mut fs = FramedSource::new(&[b""], 0x5EED);
    let n = ones(&mut fs);
    assert!((380..=640).contains(&n), "scrambled ones {n}");
}
