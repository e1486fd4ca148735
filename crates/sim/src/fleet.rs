//! Receiver-fleet simulation: one display, thousands of receivers.
//!
//! The broadcast channel is asymmetric in a way the streaming pipeline
//! cannot exploit: every receiver watches the *same* emitted-light
//! timeline, so almost all demultiplexing work is shared. This module
//! fans one sender → display → camera chain out to `N` heterogeneous
//! receiver sessions:
//!
//! * Cameras are grouped into a small number of **phase bins** — one
//!   [`Camera`] per bin, offset by a fraction of the capture period, so
//!   the fleet samples the cycle at several phases while rendering and
//!   capturing each frame once per bin instead of once per receiver.
//! * Per-receiver photometric differences (auto-exposure gain step,
//!   white-balance shift, occlusion, sensor-noise power) are drawn from
//!   log-normal population spreads (the [`inframe_hvs`] panel idiom) and
//!   **snapped to small grids**, so the fleet collapses onto a handful of
//!   distinct [`ScoreClass`]es that [`BatchScorer`] scores once each —
//!   cost per capture is `O(distinct classes)`, not `O(N)`.
//! * Per-receiver decode state stays exact: every receiver runs a real
//!   [`ReceiverSession`] over the real PHY decode, stepped in bulk via
//!   [`absorb_cycle_bulk`], with its own join cycle and seeded capture
//!   drops.
//!
//! The run reports through the obs spine (`sim.fleet.*` instruments;
//! per-worker session shards are folded with [`Histogram::merge`]) and
//! returns a [`FleetReport`] with the completion CDF, availability
//! percentiles, and decode-ε tails.
//!
//! [`Histogram::merge`]: inframe_obs::Histogram::merge

use crate::faults::occlusion_rect;
use crate::link::CapturePump;
use crate::pipeline::SimulationConfig;
use crate::scenarios::Scenario;
use inframe_camera::perturb::ae_gain_q12;
use inframe_camera::Camera;
use inframe_code::framing::LossyBits;
use inframe_code::prbs::Xoshiro256;
use inframe_core::batch::{SKIP, UNREADABLE};
use inframe_core::demux::RegionCache;
use inframe_core::sender::Sender;
use inframe_core::{BatchScorer, CodingMode, DataLayout, ParallelEngine, ScoreClass};
use inframe_frame::perturb::{CaptureTransform, OcclusionRect};
use inframe_frame::qplane;
use inframe_link::{absorb_cycle_bulk, Carousel, CompletionTarget, ReceiverSession};
use inframe_obs::{names, HistogramSnapshot, Telemetry};
use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::sync::Arc;

/// Stable-half phase gate: captures whose cycle phase is past this are
/// transition-faded and not scored — the same gate the streaming
/// [`Demultiplexer`](inframe_core::Demultiplexer) applies.
const PHASE_GATE: f64 = 0.45;

/// One fleet experiment.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The shared sender → display → camera chain (the camera config is
    /// the per-bin template; each bin offsets its `phase_s`).
    pub sim: SimulationConfig,
    /// Video content under the data channel.
    pub scenario: Scenario,
    /// Receiver population size.
    pub receivers: usize,
    /// Capture-phase bins (cameras actually simulated).
    pub phase_bins: usize,
    /// Worker threads for batched scoring and bulk session stepping.
    pub workers: usize,
    /// Transport object carried on the carousel.
    pub object_id: u16,
    /// Object payload length in bytes.
    pub object_len: usize,
    /// Auto-exposure ladder step (Q4.12; 256 ≈ 1/16 per step).
    pub ae_step_q12: i32,
    /// Largest |AE ladder index| in the population.
    pub max_gain_steps: i32,
    /// White-balance grid pitch in Q8.7 raw units (32 = ¼ code value).
    pub awb_step_raw: i16,
    /// Largest |white-balance steps| in the population.
    pub max_awb_steps: i32,
    /// Median per-receiver sensor-noise σ in code values (0 disables the
    /// noise classes entirely).
    pub noise_sigma_code: f64,
    /// Fraction of receivers that suffer an occlusion window mid-run.
    pub occluded_frac: f64,
    /// Occluded area fraction for affected receivers.
    pub occlusion_area: f64,
    /// Per-capture drop probability per receiver.
    pub drop_rate: f64,
    /// Receivers join uniformly in `[0, max_join_cycle]`.
    pub max_join_cycle: u64,
}

impl FleetConfig {
    /// A Quick-scale fleet: fast enough for tests and CI smoke runs,
    /// heterogeneous enough to exercise every perturbation axis.
    pub fn quick(receivers: usize, cycles: u32, seed: u64) -> Self {
        let s = crate::scenarios::Scale::Quick;
        Self {
            sim: SimulationConfig {
                inframe: s.inframe(),
                display: s.display(),
                camera: s.camera(),
                geometry: s.geometry(),
                cycles,
                seed,
            },
            scenario: Scenario::Gray,
            receivers,
            phase_bins: 3,
            workers: 4,
            object_id: 1,
            object_len: 24,
            ae_step_q12: 256,
            max_gain_steps: 2,
            awb_step_raw: 32,
            max_awb_steps: 2,
            noise_sigma_code: 0.25,
            occluded_frac: 0.15,
            occlusion_area: 0.2,
            drop_rate: 0.05,
            max_join_cycle: (cycles as u64 / 3).min(8),
        }
    }
}

/// One receiver's fixed draw from the population.
#[derive(Debug, Clone)]
struct ReceiverProfile {
    /// Which phase-bin camera this receiver watches through.
    bin: usize,
    /// First cycle the receiver is tuned in.
    join_cycle: u64,
    /// Score class while unoccluded.
    class_clean: u32,
    /// Score class during the occlusion window, if any.
    class_occluded: Option<u32>,
    /// Occlusion window `[from, until)` in cycles.
    occlusion_cycles: Option<(u64, u64)>,
    /// Seeded per-receiver capture-drop stream.
    drop_rng: Xoshiro256,
}

impl ReceiverProfile {
    fn class_at(&self, cycle: u64) -> u32 {
        match (self.class_occluded, self.occlusion_cycles) {
            (Some(c), Some((from, until))) if cycle >= from && cycle < until => c,
            _ => self.class_clean,
        }
    }
}

/// The deduplicated population: every receiver maps onto one of a small
/// number of score classes.
struct Population {
    profiles: Vec<ReceiverProfile>,
    transforms: Vec<CaptureTransform>,
    classes: Vec<ScoreClass>,
}

/// Ordered interning key for a [`CaptureTransform`]: gain, AWB offset,
/// and the occlusion rectangle flattened to a tuple.
type TransformKey = (i32, i16, Option<(usize, usize, usize, usize, i16)>);

fn intern_transform(
    transforms: &mut Vec<CaptureTransform>,
    seen: &mut BTreeMap<TransformKey, u32>,
    t: CaptureTransform,
) -> u32 {
    let key = (
        t.gain_q12,
        t.awb_raw,
        t.occlusion
            .as_ref()
            .map(|o| (o.x0, o.y0, o.w, o.h, o.level_raw)),
    );
    *seen.entry(key).or_insert_with(|| {
        transforms.push(t);
        (transforms.len() - 1) as u32
    })
}

fn intern_class(
    classes: &mut Vec<ScoreClass>,
    seen: &mut BTreeMap<(u32, i64), u32>,
    transform: u32,
    noise_raw_sq: i64,
) -> u32 {
    *seen.entry((transform, noise_raw_sq)).or_insert_with(|| {
        classes.push(ScoreClass {
            transform,
            noise_raw_sq,
        });
        (classes.len() - 1) as u32
    })
}

/// Draws the receiver population. Deterministic in the fleet seed; the
/// continuous log-normal spreads are snapped to the configured grids so
/// the class count stays bounded regardless of `N`.
fn draw_population(cfg: &FleetConfig, sensor_w: usize, sensor_h: usize) -> Population {
    let mut rng = Xoshiro256::seed_from_u64(cfg.sim.seed ^ 0xD1CE);
    let mut transforms = Vec::new();
    let mut tmap = BTreeMap::new();
    let mut classes = Vec::new();
    let mut cmap = BTreeMap::new();
    let occ = {
        let (x0, y0, w, h) = occlusion_rect(sensor_w, sensor_h, cfg.occlusion_area);
        OcclusionRect {
            x0,
            y0,
            w,
            h,
            // Occluders read as mid-gray: 128 code values.
            level_raw: 128 * qplane::ONE,
        }
    };
    let cycles = cfg.sim.cycles as u64;
    let profiles = (0..cfg.receivers)
        .map(|r| {
            // AE settles a few ladder steps apart across the fleet.
            let k = ((1.1 * rng.next_gaussian()).round() as i32)
                .clamp(-cfg.max_gain_steps, cfg.max_gain_steps);
            let gain_q12 = ae_gain_q12(cfg.ae_step_q12, k);
            // White balance: small shift, snapped to the raw grid.
            let steps = ((1.2 * rng.next_gaussian()).round() as i32)
                .clamp(-cfg.max_awb_steps, cfg.max_awb_steps);
            let awb_raw = (steps as i16) * cfg.awb_step_raw;
            // Sensor noise: log-normal spread (σ ≈ 0.3 in log-space, the
            // observer-panel idiom), snapped to a half-octave grid.
            let noise_raw_sq = if cfg.noise_sigma_code > 0.0 {
                let sigma = cfg.noise_sigma_code * (0.3 * rng.next_gaussian()).exp();
                let octaves = (sigma / cfg.noise_sigma_code).log2().round();
                ScoreClass::noise_raw_sq_from_sigma(cfg.noise_sigma_code * octaves.exp2())
            } else {
                0
            };
            let clean = CaptureTransform {
                gain_q12,
                awb_raw,
                occlusion: None,
            };
            let tc = intern_transform(&mut transforms, &mut tmap, clean);
            let class_clean = intern_class(&mut classes, &mut cmap, tc, noise_raw_sq);
            let occluded = rng.next_f64() < cfg.occluded_frac && !occ.is_empty();
            let (class_occluded, occlusion_cycles) = if occluded {
                let from = cycles / 4 + (rng.next_f64() * (cycles as f64 / 4.0)) as u64;
                let until = (from + cycles.div_ceil(4).max(1)).min(cycles);
                let to = intern_transform(
                    &mut transforms,
                    &mut tmap,
                    CaptureTransform {
                        occlusion: Some(occ),
                        ..clean
                    },
                );
                (
                    Some(intern_class(&mut classes, &mut cmap, to, noise_raw_sq)),
                    Some((from, until)),
                )
            } else {
                (None, None)
            };
            let join_cycle = if cfg.max_join_cycle == 0 {
                0
            } else {
                (rng.next_f64() * (cfg.max_join_cycle + 1) as f64) as u64
            };
            ReceiverProfile {
                bin: r % cfg.phase_bins.max(1),
                join_cycle: join_cycle.min(cfg.max_join_cycle),
                class_clean,
                class_occluded,
                occlusion_cycles,
                drop_rng: Xoshiro256::seed_from_u64(
                    cfg.sim.seed ^ (r as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD60B,
                ),
            }
        })
        .collect();
    Population {
        profiles,
        transforms,
        classes,
    }
}

/// Result of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Population size.
    pub receivers: usize,
    /// Cycles displayed.
    pub cycles: u64,
    /// Phase-bin cameras simulated.
    pub phase_bins: usize,
    /// Distinct photometric transforms across the population.
    pub distinct_transforms: usize,
    /// Distinct (transform, noise) score classes.
    pub distinct_classes: usize,
    /// Batched capture scorings performed (one per bin capture in the
    /// stable half-cycle — **not** per receiver).
    pub captures_scored: u64,
    /// Receiver-capture assignments lost to seeded drops.
    pub dropped: u64,
    /// Receivers that completed the target object.
    pub completed: usize,
    /// Cycles-from-join until completion, one entry per completed
    /// receiver, sorted ascending (the completion CDF).
    pub completion_cycles: Vec<u64>,
    /// Per-receiver mean GOB availability, sorted ascending.
    pub availability: Vec<f64>,
    /// Decode-overhead ε distribution (milli-units), folded across the
    /// per-worker session telemetry shards.
    pub eps_p50_milli: u64,
    /// ε tail: 90th percentile bound (milli-units).
    pub eps_p90_milli: u64,
    /// ε tail: 99th percentile bound (milli-units).
    pub eps_p99_milli: u64,
}

impl FleetReport {
    /// Fraction of the fleet complete within `cycles` of joining.
    pub fn completion_cdf(&self, cycles: u64) -> f64 {
        let done = self.completion_cycles.partition_point(|&c| c <= cycles);
        done as f64 / self.receivers.max(1) as f64
    }

    /// Per-receiver mean availability at quantile `q` (exact, from the
    /// sorted per-receiver means).
    pub fn availability_percentile(&self, q: f64) -> f64 {
        percentile(&self.availability, q).copied().unwrap_or(0.0)
    }
}

fn percentile<T>(sorted: &[T], q: f64) -> Option<&T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted.get(rank)
}

/// Best-score tables for the cycle being accumulated and (because the
/// phase bins cross cycle boundaries a capture apart) the next one, plus
/// the scratch that turns a finished table into per-receiver verdicts.
struct CycleTables {
    current: u64,
    best: Vec<f32>,
    next_best: Vec<f32>,
    verdicts: Vec<LossyBits>,
    active: Vec<bool>,
}

impl CycleTables {
    fn new(receivers: usize, num_blocks: usize) -> Self {
        Self {
            current: 0,
            best: vec![UNREADABLE; receivers * num_blocks],
            next_best: vec![UNREADABLE; receivers * num_blocks],
            verdicts: vec![LossyBits::with_capacity(num_blocks); receivers],
            active: vec![false; receivers],
        }
    }

    /// The table a capture from `cycle` merges into.
    fn table(&mut self, cycle: u64) -> &mut [f32] {
        if cycle == self.current {
            &mut self.best
        } else {
            &mut self.next_best
        }
    }

    /// Converts each receiver's best-score row into verdicts, steps every
    /// joined session through the current cycle in bulk, and rolls the
    /// tables to the next cycle.
    fn flush(
        &mut self,
        scorer: &BatchScorer,
        engine: &ParallelEngine,
        layout: &DataLayout,
        coding: CodingMode,
        profiles: &[ReceiverProfile],
        sessions: &mut [ReceiverSession],
    ) {
        let nb = scorer.num_blocks();
        for (r, profile) in profiles.iter().enumerate() {
            self.active[r] = self.current >= profile.join_cycle;
            scorer.verdicts_into(&self.best[r * nb..(r + 1) * nb], &mut self.verdicts[r]);
        }
        absorb_cycle_bulk(
            engine,
            layout,
            coding,
            sessions,
            &self.verdicts,
            &self.active,
            self.current,
        );
        std::mem::swap(&mut self.best, &mut self.next_best);
        self.next_best.fill(UNREADABLE);
        self.current += 1;
    }
}

/// Runs the fleet, reporting into the `INFRAME_OBS` spine when enabled.
pub fn run_fleet(cfg: &FleetConfig) -> FleetReport {
    run_fleet_with_telemetry(cfg, &Telemetry::from_env())
}

/// [`run_fleet`] reporting into an explicit telemetry spine.
pub fn run_fleet_with_telemetry(cfg: &FleetConfig, telemetry: &Telemetry) -> FleetReport {
    // Per-worker telemetry shards for the sessions; folded into the main
    // spine at the end via `Histogram::merge`.
    let shards: Vec<Telemetry> = (0..cfg.workers.max(1)).map(|_| Telemetry::new()).collect();
    run_fleet_inner(cfg, telemetry, &shards, true)
}

/// [`run_fleet`] with the per-receiver session spines supplied by the
/// caller — the live-operations entry point: an operator console hands
/// in long-lived spines (receiver `r` reports into
/// `session_spines[r % len]`) and aggregates their summaries *while the
/// run is in flight*, keyed off the `sim.fleet.cycle` gauge on
/// `telemetry`. Unlike [`run_fleet_with_telemetry`], ε is **not**
/// folded into `telemetry` at the end: the caller aggregates the
/// session spines directly, and folding both would double-count.
pub fn run_fleet_with_spines(
    cfg: &FleetConfig,
    telemetry: &Telemetry,
    session_spines: &[Telemetry],
) -> FleetReport {
    assert!(
        !session_spines.is_empty(),
        "need at least one session spine"
    );
    run_fleet_inner(cfg, telemetry, session_spines, false)
}

fn run_fleet_inner(
    cfg: &FleetConfig,
    telemetry: &Telemetry,
    session_spines: &[Telemetry],
    fold_eps: bool,
) -> FleetReport {
    let c = &cfg.sim;
    c.validate();
    assert!(cfg.receivers >= 1, "fleet needs at least one receiver");
    assert!(cfg.phase_bins >= 1, "need at least one phase bin");

    // Shared channel: one sender, one display, one carousel object.
    let layout = DataLayout::from_config(&c.inframe);
    let mut carousel = Carousel::for_channel(&layout, c.inframe.coding);
    let data: Vec<u8> = {
        let mut rng = Xoshiro256::seed_from_u64(c.seed ^ 0x0B1E);
        (0..cfg.object_len).map(|_| rng.next_byte()).collect()
    };
    carousel.add_object(cfg.object_id, 1, &data);
    let geometry = carousel.geometry();
    let video = cfg
        .scenario
        .source(c.inframe.display_w, c.inframe.display_h, c.seed);
    let sender = Sender::new(c.inframe, video, carousel).with_telemetry(telemetry);
    let mut pump = CapturePump::new(c, sender);

    // One camera per phase bin, each offset by a whole number of display
    // frames. The offset must be frame-aligned: a fractional-frame shift
    // makes every exposure straddle two complementary frames (V+D then
    // V−D), whose average is exactly V — the pattern cancels and that
    // bin's cohort goes permanently dark. Whole-frame offsets keep every
    // bin crisp while sampling different frames of the cycle.
    let frame_period = 1.0 / c.inframe.refresh_hz;
    let frames_per_capture = (1.0 / (c.camera.fps * frame_period)).round().max(1.0) as usize;
    let mut cameras: Vec<Camera> = (0..cfg.phase_bins)
        .map(|k| {
            let mut cam_cfg = c.camera;
            cam_cfg.phase_s += frame_period * (k % frames_per_capture) as f64;
            Camera::new(cam_cfg, c.geometry, c.seed ^ 0xCA_3E1A ^ (k as u64) << 17)
        })
        .collect();

    // The shared scorer over the shared registration.
    let engine = Arc::new(ParallelEngine::new(cfg.workers));
    let cache = RegionCache::build(
        &c.inframe,
        &c.registration(),
        c.camera.width,
        c.camera.height,
    );
    let mut scorer =
        BatchScorer::new(c.inframe, cache, Arc::clone(&engine)).with_telemetry(telemetry);
    let nb = scorer.num_blocks();

    let pop = draw_population(cfg, c.camera.width, c.camera.height);

    let mut sessions: Vec<ReceiverSession> = (0..cfg.receivers)
        .map(|r| {
            ReceiverSession::new(
                &c.inframe,
                geometry,
                CompletionTarget::AllOf(vec![cfg.object_id]),
            )
            .with_telemetry(&session_spines[r % session_spines.len()])
        })
        .collect();

    let cycle_duration = c.inframe.tau as f64 / c.inframe.refresh_hz;
    let cycles = c.cycles as u64;
    let mut tables = CycleTables::new(cfg.receivers, nb);
    let mut assign: Vec<u32> = vec![SKIP; cfg.receivers];
    let mut profiles = pop.profiles;

    let mut bin_cycle: Vec<i64> = vec![-1; cfg.phase_bins];
    let mut captures_scored: u64 = 0;
    let mut dropped: u64 = 0;
    // Live progress marker for a concurrently-polling operator console.
    let fleet_cycle = telemetry.gauge(names::fleet::CYCLE);

    loop {
        let flow = pump.step(&mut cameras, |k, capture, t_mid, _| {
            let Ok(cap) = capture else {
                return ControlFlow::Continue(());
            };
            if t_mid < 0.0 {
                return ControlFlow::Continue(());
            }
            let cycle = (t_mid / cycle_duration).floor() as u64;
            bin_cycle[k] = bin_cycle[k].max(cycle as i64);
            let phase = (t_mid / cycle_duration).fract();
            if phase >= PHASE_GATE || cycle >= cycles {
                return ControlFlow::Continue(());
            }
            // Score every class once against this bin's capture…
            scorer.score_classes(&cap.plane, &pop.transforms, &pop.classes);
            captures_scored += 1;
            // …then fan the class rows out to this bin's receivers.
            for (r, profile) in profiles.iter_mut().enumerate() {
                assign[r] = SKIP;
                if profile.bin != k {
                    continue;
                }
                // Draw the drop stream for every bin capture (joined or
                // not) so late joiners stay deterministic.
                let dropped_now = profile.drop_rng.next_f64() < cfg.drop_rate;
                if cycle < profile.join_cycle {
                    continue;
                }
                if dropped_now {
                    dropped += 1;
                    continue;
                }
                assign[r] = profile.class_at(cycle);
            }
            scorer.merge_assigned(&assign, tables.table(cycle));
            ControlFlow::Continue(())
        });
        // A cycle is complete once every bin's capture stream moved past
        // it (or, at the end of the run, once it is still in flight).
        let done = flow.is_break();
        while (done || bin_cycle.iter().all(|&bc| bc > tables.current as i64))
            && tables.current < cycles
        {
            tables.flush(
                &scorer,
                &engine,
                &layout,
                c.inframe.coding,
                &profiles,
                &mut sessions,
            );
            fleet_cycle.set(tables.current);
        }
        if done {
            break;
        }
    }

    // Fleet aggregation through the obs spine.
    let fleet_completion = telemetry.histogram(names::fleet::COMPLETION_CYCLE);
    let fleet_avail = telemetry.histogram(names::fleet::AVAILABILITY_MILLI);
    let mut completion_cycles = Vec::new();
    let mut availability = Vec::with_capacity(cfg.receivers);
    let mut completed = 0usize;
    for (session, profile) in sessions.iter().zip(&profiles) {
        if let Some(done) = session.completion_cycle(cfg.object_id) {
            let since_join = done.saturating_sub(profile.join_cycle);
            completion_cycles.push(since_join);
            fleet_completion.record(since_join);
            completed += 1;
        }
        let stats = session.stats();
        let total = stats.available + stats.unavailable;
        let ratio = if total == 0 {
            0.0
        } else {
            stats.available_ratio()
        };
        availability.push(ratio);
        fleet_avail.record((ratio * 1000.0).round() as u64);
    }
    completion_cycles.sort_unstable();
    availability.sort_unstable_by(f64::total_cmp);

    let mut eps = HistogramSnapshot::default();
    for shard in session_spines {
        eps.merge(&shard.histogram(names::session::DECODE_EPS_MILLI).snapshot());
    }
    if fold_eps {
        telemetry.histogram(names::fleet::EPS_MILLI).merge(&eps);
    }
    telemetry
        .counter(names::fleet::RECEIVERS)
        .add(cfg.receivers as u64);
    telemetry.counter(names::fleet::CYCLES).add(c.cycles as u64);
    telemetry
        .counter(names::fleet::CAPTURES_SCORED)
        .add(captures_scored);
    telemetry.counter(names::fleet::DROPPED).add(dropped);
    telemetry
        .counter(names::fleet::COMPLETIONS)
        .add(completed as u64);

    FleetReport {
        receivers: cfg.receivers,
        cycles: c.cycles as u64,
        phase_bins: cfg.phase_bins,
        distinct_transforms: pop.transforms.len(),
        distinct_classes: pop.classes.len(),
        captures_scored,
        dropped,
        completed,
        completion_cycles,
        availability,
        eps_p50_milli: eps.quantile_bound(0.5),
        eps_p90_milli: eps.quantile_bound(0.9),
        eps_p99_milli: eps.quantile_bound(0.99),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_is_deterministic_and_bounded() {
        let cfg = FleetConfig::quick(64, 12, 9);
        let a = draw_population(&cfg, 160, 112);
        let b = draw_population(&cfg, 160, 112);
        assert_eq!(a.profiles.len(), 64);
        assert_eq!(a.transforms.len(), b.transforms.len());
        assert_eq!(a.classes.len(), b.classes.len());
        for (x, y) in a.profiles.iter().zip(&b.profiles) {
            assert_eq!(x.bin, y.bin);
            assert_eq!(x.join_cycle, y.join_cycle);
            assert_eq!(x.class_clean, y.class_clean);
            assert_eq!(x.class_occluded, y.class_occluded);
        }
        // Grid snapping saturates the class count: a population 8× the
        // size lands on nearly the same set of classes, so batched
        // scoring cost stays O(grid), not O(N).
        let big = draw_population(&FleetConfig::quick(512, 12, 9), 160, 112);
        assert!(
            big.classes.len() < 512 / 4,
            "class explosion: {} classes for 512 receivers",
            big.classes.len()
        );
        assert!(big.classes.len() >= a.classes.len());
        assert!(a.profiles.iter().any(|p| p.class_occluded.is_some()));
        assert!(a.profiles.iter().any(|p| p.join_cycle > 0));
    }

    #[test]
    fn quick_fleet_mostly_completes() {
        let mut cfg = FleetConfig::quick(24, 14, 5);
        cfg.workers = 2;
        let tele = Telemetry::new();
        let report = run_fleet_with_telemetry(&cfg, &tele);
        assert_eq!(report.receivers, 24);
        assert!(report.captures_scored > 0);
        assert!(
            report.completed * 2 > report.receivers,
            "only {}/{} receivers completed",
            report.completed,
            report.receivers
        );
        // Completion CDF is monotone and ends at the completion ratio.
        let end = report.completion_cdf(report.cycles);
        assert!((end - report.completed as f64 / report.receivers as f64).abs() < 1e-12);
        assert!(report.completion_cdf(0) <= end);
        // Clean majority keeps median availability high.
        assert!(
            report.availability_percentile(0.5) > 0.6,
            "median availability {}",
            report.availability_percentile(0.5)
        );
        // The spine saw the same aggregates.
        let summary = tele.summary();
        assert_eq!(summary.counter(names::fleet::RECEIVERS), 24);
        assert_eq!(
            summary.counter(names::fleet::COMPLETIONS),
            report.completed as u64
        );
        assert_eq!(
            summary
                .histogram(names::fleet::COMPLETION_CYCLE)
                .map_or(0, |h| h.count),
            report.completed as u64
        );
    }

    #[test]
    fn external_session_spines_see_the_fleet() {
        let mut cfg = FleetConfig::quick(16, 12, 7);
        cfg.workers = 2;
        let tele = Telemetry::new();
        let spines: Vec<Telemetry> = (0..2).map(|_| Telemetry::new()).collect();
        let report = run_fleet_with_spines(&cfg, &tele, &spines);
        // The fleet spine tracked live progress and the scorer.
        let s = tele.summary();
        assert_eq!(s.gauge(names::fleet::CYCLE), Some(report.cycles));
        assert!(s.histogram(names::batch::SCORE_NS).unwrap().count > 0);
        assert!(s.counter(names::batch::FANOUT) > 0);
        // ε lives on the session spines, NOT folded into the fleet spine
        // (the aggregator reads the session spines directly).
        assert!(s.histogram(names::fleet::EPS_MILLI).is_none());
        let mut agg = inframe_obs::FleetAggregator::new();
        agg.absorb(&s);
        for spine in &spines {
            agg.absorb(&spine.summary());
        }
        let rollup = agg.rollup();
        assert_eq!(rollup.sessions, 3);
        assert_eq!(rollup.receivers, 16);
        assert_eq!(rollup.availability_milli.count, 16);
        assert_eq!(rollup.completions, report.completed as u64);
        if report.completed > 0 {
            assert!(
                rollup.eps_milli.count > 0,
                "session ε must reach the rollup"
            );
        }
    }

    #[test]
    fn fleet_run_is_deterministic() {
        let cfg = FleetConfig::quick(12, 10, 11);
        let a = run_fleet(&cfg);
        let b = run_fleet(&cfg);
        assert_eq!(a.completion_cycles, b.completion_cycles);
        assert_eq!(a.availability, b.availability);
        assert_eq!(a.captures_scored, b.captures_scored);
        assert_eq!(a.dropped, b.dropped);
    }
}
