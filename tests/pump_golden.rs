//! Golden digests of every driver that runs the display → camera capture
//! pump, pinned per seed at Quick scale.
//!
//! Each test hashes the `Debug` rendering of a driver's outcome with
//! FNV-1a and compares it against a recorded constant, so any change to
//! which emissions a capture sees, when it is timestamped, or how the
//! pump stops shows up as a digest mismatch. The kernel backend is
//! pinned to the f32 reference and every run reports into its own
//! telemetry spine, so the digests hold under any `INFRAME_KERNEL`,
//! `INFRAME_SIMD` or `INFRAME_OBS` setting.

use inframe::core::config::KernelBackend;
use inframe::core::sender::PrbsPayload;
use inframe::link::carousel::Carousel;
use inframe::link::session::{CompletionTarget, SessionState};
use inframe::obs::Telemetry;
use inframe::sim::faults::{
    run_fault_scenario_with_telemetry, FaultKind, FaultScenarioConfig, FaultWindow,
};
use inframe::sim::fleet::{run_fleet_with_telemetry, FleetConfig};
use inframe::sim::pipeline::{Simulation, SimulationConfig};
use inframe::sim::{Link, Scale, Scenario};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(value: &impl std::fmt::Debug) -> u64 {
    fnv1a(format!("{value:?}").as_bytes())
}

fn quick(cycles: u32, seed: u64) -> SimulationConfig {
    let s = Scale::Quick;
    let mut inframe = s.inframe();
    inframe.kernel = KernelBackend::Reference;
    SimulationConfig {
        inframe,
        display: s.display(),
        camera: s.camera(),
        geometry: s.geometry(),
        cycles,
        seed,
    }
}

fn check(label: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{label}: digest {got:#018x}, pinned {want:#018x}"
    );
}

#[test]
fn simulation_run_digest() {
    let c = quick(6, 7);
    let out = Simulation::new(c).run_with_telemetry(
        Scenario::Video.source(c.inframe.display_w, c.inframe.display_h, 7),
        &Telemetry::new(),
    );
    check(
        "Simulation::run",
        digest(&(out.stats, out.bits_correct, &out.decoded)),
        0x6c24e8a2759f8043,
    );
}

#[test]
fn link_run_session_digest() {
    let c = quick(5, 1);
    let link = Link::new(c);
    let session = link.run_session(
        Scenario::Gray.source(c.inframe.display_w, c.inframe.display_h, 1),
        PrbsPayload::new(1),
        9,
        link.session(CompletionTarget::Never),
    );
    let stats: Vec<_> = session.decoded().iter().map(|d| d.stats).collect();
    check("Link::run_session", digest(&stats), 0xaae2c7bea128e647);

    // A completing session stops the pump early.
    let c = quick(40, 3);
    let link = Link::new(c);
    let layout = inframe::core::layout::DataLayout::from_config(&c.inframe);
    let mut carousel = Carousel::for_channel(&layout, c.inframe.coding);
    carousel.add_object(2, 1, &[0x3C; 48]);
    let session = link.run_session(
        Scenario::Gray.source(c.inframe.display_w, c.inframe.display_h, 3),
        carousel,
        5,
        link.session(CompletionTarget::AllOf(vec![2])),
    );
    assert_eq!(session.state(), SessionState::Complete);
    let stats: Vec<_> = session.decoded().iter().map(|d| d.stats).collect();
    check(
        "Link::run_session (completing)",
        digest(&(session.state(), session.cycles_processed(), stats)),
        0x14c45bc60a7b2deb,
    );
}

fn fault_cfg(faults: Vec<FaultWindow>, cycles: u32) -> FaultScenarioConfig {
    let mut cfg = FaultScenarioConfig::baseline(quick(cycles, 11), 96);
    cfg.object_id = 7;
    cfg.faults = faults;
    cfg
}

#[test]
fn fault_scenario_drop_and_drift_digest() {
    let window = |kind| FaultWindow {
        kind,
        from_cycle: 6,
        until_cycle: 12,
    };
    let cfg = fault_cfg(
        vec![
            window(FaultKind::Drop { rate: 0.4 }),
            window(FaultKind::ExposureDrift {
                gain_amplitude: 0.2,
                awb_shift: 6.0,
                period_s: 0.35,
            }),
        ],
        80,
    );
    let out = run_fault_scenario_with_telemetry(&cfg, &Telemetry::new());
    assert!(out.completed && out.object_ok, "{out:?}");
    check(
        "run_fault_scenario (drop+drift)",
        digest(&out),
        0xf3c0d921b2f459ac,
    );
}

#[test]
fn fault_scenario_closed_loop_watchdog_digest() {
    let mut cfg = fault_cfg(
        vec![
            FaultWindow {
                kind: FaultKind::Drop { rate: 1.0 },
                from_cycle: 6,
                until_cycle: 18,
            },
            FaultWindow {
                kind: FaultKind::ExposureDrift {
                    gain_amplitude: 0.35,
                    awb_shift: 0.0,
                    period_s: 0.9,
                },
                from_cycle: 6,
                until_cycle: 100_000,
            },
        ],
        120,
    );
    cfg.adaptive = true;
    cfg.closed_loop = true;
    cfg.watchdog_cycles = Some(8);
    let out = run_fault_scenario_with_telemetry(&cfg, &Telemetry::new());
    assert!(
        out.watchdog_fires >= 1 && !out.commands.is_empty(),
        "{out:?}"
    );
    check(
        "run_fault_scenario (closed loop)",
        digest(&out),
        0xc525d5dc26628e17,
    );
}

#[test]
fn fleet_digest() {
    let mut cfg = FleetConfig::quick(64, 12, 9);
    cfg.sim.inframe.kernel = KernelBackend::Reference;
    cfg.workers = 2;
    assert_eq!(cfg.phase_bins, 3);
    let report = run_fleet_with_telemetry(&cfg, &Telemetry::new());
    assert!(report.completed > 0, "{report:?}");
    check("run_fleet", digest(&report), 0xebf25b517abc605d);
}
