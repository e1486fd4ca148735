//! Each benchmark driver must reproduce its `sim` counterpart on a short
//! seeded run, so the benchmark measures the chain the simulator defines.
//!
//! Run with `cargo test --release` from this package (the GOB-level
//! scenarios take seconds in an optimized build).

use inframe_code::parity::GobStats;
use inframe_core::layout::DataLayout;
use inframe_core::region::RegionMap;
use inframe_link::session::CompletionTarget;
use inframe_net::MacAddr;
use inframe_perfbench::link_bulk::{self, Bulk};
use inframe_perfbench::net_fleet::{self, Fleet};
use inframe_perfbench::paper_chain::{self, Chain};
use inframe_perfbench::{Episode, Measure, SimLedger};
use inframe_sim::netsim::ClosedLoopSpec;
use inframe_sim::{
    run_link_scenario, run_net_scenario, Link, LinkScenarioConfig, NetScenarioConfig, Scale,
    Scenario, SimulationConfig,
};

fn quick(cycles: u32, seed: u64) -> SimulationConfig {
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

/// A sender with the workload's streams and some queued traffic.
fn loaded_sender(c: &SimulationConfig) -> inframe_net::NetSender {
    let layout = DataLayout::from_config(&c.inframe);
    let mut tx = paper_chain::net_sender(RegionMap::new(&layout, 1, 1));
    tx.send_datagram(
        paper_chain::BULK,
        MacAddr::new(paper_chain::RX_ADDR),
        &[0x5A; 90],
    );
    tx.send_datagram(paper_chain::TICKER, MacAddr::BROADCAST, b"ticker");
    tx
}

#[test]
fn paper_chain_matches_link_run_session() {
    let c = quick(5, 0x5EED);
    let camera_seed = 0xCA_3E1A;
    let link = Link::new(c);
    let session = link.run_session(
        Scenario::Gray.source(c.inframe.display_w, c.inframe.display_h, 3),
        loaded_sender(&c),
        camera_seed,
        link.session(CompletionTarget::Never),
    );
    let want: Vec<GobStats> = session.decoded().iter().map(|d| d.stats).collect();

    let mut chain = Chain::new(
        &c,
        Scenario::Gray.source(c.inframe.display_w, c.inframe.display_h, 3),
        loaded_sender(&c),
        camera_seed,
    );
    let mut got = Vec::new();
    let mut m = Measure::default();
    for _ in 0..c.cycles * c.inframe.tau {
        assert!(chain.step_frame(&mut m, &mut |d, _| got.push(d.stats)));
    }
    got.extend(chain.finish().map(|d| d.stats));
    assert!(want.len() >= 3, "too few cycles decoded: {}", want.len());
    assert_eq!(got, want);
}

fn assert_fleet_matches(cfg: &NetScenarioConfig) {
    let want = run_net_scenario(cfg);
    let mut fleet = Fleet::new(cfg);
    let mut sim = SimLedger::new();
    let mut m = Measure::default();
    while !fleet.finished() {
        fleet.step(&mut m, &mut sim);
    }
    assert_eq!(sim.corrupt, 0);
    let got = fleet.outcome();
    assert!(want.all_complete());
    assert_eq!(format!("{got:?}"), format!("{want:?}"));
}

#[test]
fn net_fleet_matches_run_net_scenario() {
    assert_fleet_matches(&net_fleet::episode_config(7, 0));
}

#[test]
fn net_fleet_matches_run_net_scenario_open_loop() {
    let mut cfg = NetScenarioConfig::smoke(0xA11CE);
    cfg.receivers[0].base_erasure = 0.01;
    assert_fleet_matches(&cfg);
    cfg.closed_loop = Some(ClosedLoopSpec::healthy());
    assert_fleet_matches(&cfg);
}

fn assert_bulk_matches(cfg: &LinkScenarioConfig) {
    let want = run_link_scenario(cfg);
    let mut bulk = Bulk::new(cfg);
    let mut sim = SimLedger::new();
    let mut m = Measure::default();
    while !bulk.finished() {
        bulk.step(&mut m, &mut sim);
    }
    let got = bulk.outcome();
    assert_eq!(got.cycles_to_complete, want.cycles_to_complete);
    assert_eq!(got.epsilon_max, want.epsilon_max);
    assert_eq!(got.commands, want.commands);
    assert_eq!(got.stats, want.stats);
    assert_eq!(got.completed, want.completed);
    assert_eq!(sim.corrupt, 0);
}

#[test]
fn link_bulk_matches_run_link_scenario() {
    let mut cfg = LinkScenarioConfig::baseline(0.35, 23);
    cfg.adaptive = true;
    assert_bulk_matches(&cfg);
    assert_bulk_matches(&link_bulk::episode_config(5, 0));
}
