//! Live-sports side channel — the paper's §5 application: "comments and
//! highlights in live sports streaming".
//!
//! ```sh
//! cargo run --release --example sports_ticker
//! ```
//!
//! A high-motion clip (moving bars standing in for sports footage) carries
//! a text ticker: length-prefixed UTF-8 lines protected by CRC-8, healed
//! by Reed–Solomon GOB coding, reassembled on the receiver. The run also
//! reports how high-motion content degrades the channel relative to the
//! gray baseline — Figure 7's effect in an application setting.

use inframe::code::crc::crc8;
use inframe::code::framing::LossyBits;
use inframe::core::sender::PayloadSource;
use inframe::core::CodingMode;
use inframe::link::session::CompletionTarget;
use inframe::sim::pipeline::{Simulation, SimulationConfig};
use inframe::sim::{Link, Scale, Scenario};
use inframe::video::synth::MovingBarsClip;
use inframe::video::FrameRate;

/// One ticker token per data cycle: `[len, 4 text bytes, crc8]` — exactly
/// the 6-byte RS payload of a cycle, so every decoded cycle yields a
/// standalone update (how real score tickers chunk their feed).
struct TickerPayload {
    tokens: Vec<&'static str>,
    next: usize,
}

const TOKEN_BYTES: usize = 6;

impl TickerPayload {
    fn frame_token(token: &str) -> Vec<u8> {
        let body = token.as_bytes();
        assert!(body.len() <= 4, "tokens are at most 4 bytes");
        let mut bytes = vec![body.len() as u8];
        bytes.extend_from_slice(body);
        bytes.resize(1 + 4, b' ');
        bytes.push(crc8(&bytes[..5]));
        bytes
    }

    fn parse_token(bytes: &[u8]) -> Option<String> {
        if bytes.len() != TOKEN_BYTES {
            return None;
        }
        if crc8(&bytes[..5]) != bytes[5] {
            return None;
        }
        let len = bytes[0] as usize;
        if len == 0 || len > 4 {
            return None;
        }
        std::str::from_utf8(&bytes[1..1 + len])
            .ok()
            .map(str::to_string)
    }
}

impl PayloadSource for TickerPayload {
    fn next_payload(&mut self, bits: usize) -> Vec<bool> {
        // One token per cycle, padded/truncated to the cycle capacity.
        let token = self.tokens[self.next % self.tokens.len()];
        self.next += 1;
        let bytes = Self::frame_token(token);
        let mut out: Vec<bool> = bytes
            .iter()
            .flat_map(|&b| (0..8).map(move |i| (b >> (7 - i)) & 1 == 1))
            .collect();
        out.resize(bits, false);
        out
    }
}

/// Decodes one cycle's payload into a token.
fn decode_cycle(payload: &LossyBits) -> Option<String> {
    if payload.len() < TOKEN_BYTES * 8 {
        return None;
    }
    let mut bytes = vec![0u8; TOKEN_BYTES];
    for (i, bit) in payload.iter().take(TOKEN_BYTES * 8).enumerate() {
        bytes[i / 8] |= (bit? as u8) << (7 - i % 8);
    }
    TickerPayload::parse_token(&bytes)
}

fn main() {
    let tokens = vec!["GOAL", "2-1", "87'", "YC#7", "CRNR", "54k"];
    println!("Ticker tokens on air: {}", tokens.len());

    // Baseline channel quality on this content vs gray.
    let scale = Scale::Quick;
    let baseline = |scenario: Scenario| {
        let config = SimulationConfig {
            inframe: scale.inframe(),
            display: scale.display(),
            camera: scale.camera(),
            geometry: scale.geometry(),
            cycles: 8,
            seed: 5,
        };
        Simulation::new(config)
            .run(scenario.source(config.inframe.display_w, config.inframe.display_h, 5))
            .report()
    };
    let gray = baseline(Scenario::Gray);
    let sports = baseline(Scenario::Bars);
    println!(
        "channel on gray baseline : {:>5.2} kbps (avail {:>5.1}%)",
        gray.goodput_kbps(),
        gray.available_ratio * 100.0
    );
    println!(
        "channel on sports footage: {:>5.2} kbps (avail {:>5.1}%)",
        sports.goodput_kbps(),
        sports.available_ratio * 100.0
    );

    // Stream the ticker with RS coding over milder sports footage.
    let mut inframe = scale.inframe();
    inframe.coding = CodingMode::ReedSolomon { parity_bytes: 6 };
    let config = SimulationConfig {
        inframe,
        display: scale.display(),
        camera: scale.camera(),
        geometry: scale.geometry(),
        cycles: 64,
        seed: 5,
    };
    // Broadcast-style footage: soft, wide features (the hard `Bars`
    // stress clip above is deliberately brutal; real sports feeds are
    // closer to this).
    let clip = MovingBarsClip::new(
        config.inframe.display_w,
        config.inframe.display_h,
        60,
        0.5,
        110.0,
        155.0,
        FrameRate(30.0),
    );
    // The ticker is a raw-bit side channel with no completion target: a
    // perpetual synced session, tokens read straight off the cycle log.
    let link = Link::new(config);
    let session = link.run_session(
        clip,
        TickerPayload {
            tokens: tokens.clone(),
            next: 0,
        },
        55,
        link.session(CompletionTarget::Never),
    );
    let (known, total) = session.decoded().iter().fold((0usize, 0usize), |acc, d| {
        (
            acc.0 + d.payload.iter().filter(|b| b.is_some()).count(),
            acc.1 + d.payload.len(),
        )
    });
    println!(
        "\nlink: {} cycles, {:.0}% of payload recovered",
        session.decoded().len(),
        100.0 * known as f64 / total.max(1) as f64
    );
    let recovered: Vec<String> = session
        .decoded()
        .iter()
        .filter_map(|d| decode_cycle(&d.payload))
        .collect();
    let unique: std::collections::BTreeSet<_> = recovered.iter().collect();
    println!(
        "Recovered ticker tokens ({} total, {} unique):",
        recovered.len(),
        unique.len()
    );
    for t in &unique {
        println!("  - {t}");
    }
    let all: std::collections::BTreeSet<_> = tokens.iter().map(|t| t.to_string()).collect();
    let got: std::collections::BTreeSet<String> = recovered.into_iter().collect();
    println!(
        "{} of {} distinct tokens received",
        all.intersection(&got).count(),
        all.len()
    );
}
