//! Acceptance tests for the `inframe-net` subsystem over the real PHY:
//! addressed datagrams pushed through the full pixel chain — net sender
//! as the multiplexed payload source, rendered complementary frames,
//! 30 FPS captures, demultiplexer — must deliver **bit-identically** on
//! both kernel backends, at every supported SIMD dispatch level, and at
//! worker counts 1–4. Plus payload-level checks that streams are
//! isolated from each other's corruption, that a spatially occluded
//! receiver still completes in comparable time, and the two floors of a
//! tiled channel with one dirty patch: ≥ 2× single-channel goodput, and
//! an interactive ticker that lands before the bulk transfer.

use inframe::core::config::KernelBackend;
use inframe::core::demux::{Demultiplexer, RegionCache};
use inframe::core::parallel::ParallelEngine;
use inframe::core::region::RegionMap;
use inframe::core::sender::Sender;
use inframe::core::{DataLayout, InFrameConfig};
use inframe::frame::geometry::Homography;
use inframe::frame::simd;
use inframe::net::stream::DeadlineClass;
use inframe::net::{AddressFilter, MacAddr, NetReceiver, NetSender, StreamQos};
use inframe::video::synth::SolidClip;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;

/// Restores SIMD dispatch when the test exits (including on panic).
struct SimdGuard;

impl Drop for SimdGuard {
    fn drop(&mut self) {
        simd::force_level(None);
    }
}

/// Everything delivery-order-and-content dependent that one run
/// produces; two runs agree iff the stacks behaved bit-identically.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Ledger {
    unicast_digest: u64,
    broadcast_digest: u64,
    unicast_bytes: u64,
    broadcast_bytes: u64,
    unicast_cycle: Option<u32>,
    broadcast_cycle: Option<u32>,
    frames_rx: u64,
}

/// Runs the full pixel chain — net sender as the multiplexed payload
/// source, rendered complementary data frames over a gray clip, camera
/// captures every 4th displayed frame (30 FPS over the 120 Hz display),
/// demultiplexer (given backend/workers) → net receiver — and returns
/// the delivery ledger.
fn run_stack(backend: KernelBackend, workers: usize, max_cycles: u32) -> Ledger {
    let cfg = InFrameConfig {
        kernel: backend,
        ..InFrameConfig::small_test()
    };
    let layout = DataLayout::from_config(&cfg);
    // 2×2 tiling of the small-test 8×6 GOB grid: four spatial
    // sub-channels, the acceptance floor.
    let map = RegionMap::new(&layout, 2, 2);

    let mut tx = NetSender::new(map.clone(), MacAddr::new(0x0001));
    tx.open_stream(0, StreamQos::bulk(), 32);
    tx.open_stream(
        1,
        StreamQos {
            priority: 2,
            weight: 1,
            deadline: DeadlineClass::Interactive,
        },
        16,
    );
    let unicast: Vec<u8> = (0..48u32).map(|i| (i * 13 + 1) as u8).collect();
    tx.send_datagram(0, MacAddr::new(0x0042), &unicast);
    tx.send_datagram(1, MacAddr::BROADCAST, b"tick 1");

    let mut rx = NetReceiver::new(map.clone(), AddressFilter::new(MacAddr::new(0x0042)));
    rx.open_stream(0, 64, 32, 4096);
    rx.open_stream(1, 64, 16, 4096);

    let video = SolidClip::paper_gray(cfg.display_w, cfg.display_h);
    let engine = Arc::new(ParallelEngine::new(workers));
    // `NetSender` is a `PayloadSource`: the sender pulls one multiplexed
    // cycle payload from the network stack per data cycle.
    let mut sender = Sender::with_engine(cfg, video, tx, Arc::clone(&engine));
    let cache = RegionCache::build(&cfg, &Homography::identity(), cfg.display_w, cfg.display_h);
    let mut demux = Demultiplexer::with_cache(cfg, cache, engine);

    let mut out = Vec::new();
    let (mut uni_cycle, mut bc_cycle) = (None, None);
    let mut cycle: u32 = 0;
    'chain: for _ in 0..max_cycles as u64 * cfg.tau as u64 {
        let f = sender.next_frame().expect("endless clip");
        if !f.slot.display_index.is_multiple_of(4) {
            continue;
        }
        let t_mid = f.slot.t_start + 0.5 / cfg.refresh_hz;
        let Some(decoded) = demux.push_capture(&f.plane, t_mid) else {
            continue;
        };
        rx.push_cycle(&decoded.payload);
        if uni_cycle.is_none() && rx.pop_datagram(0, &mut out) {
            assert_eq!(out, unicast, "unicast corrupted in flight");
            uni_cycle = Some(cycle);
        }
        if bc_cycle.is_none() && rx.pop_datagram(1, &mut out) {
            assert_eq!(out, b"tick 1", "broadcast corrupted in flight");
            bc_cycle = Some(cycle);
        }
        if uni_cycle.is_some() && bc_cycle.is_some() {
            break 'chain;
        }
        cycle += 1;
    }

    let lane = |stream: u8, dst: MacAddr| rx.stream_lane(stream, dst).expect("lane open");
    Ledger {
        unicast_digest: lane(0, MacAddr::new(0x0042)).digest(),
        broadcast_digest: lane(1, MacAddr::BROADCAST).digest(),
        unicast_bytes: lane(0, MacAddr::new(0x0042)).delivered_bytes(),
        broadcast_bytes: lane(1, MacAddr::BROADCAST).delivered_bytes(),
        unicast_cycle: uni_cycle,
        broadcast_cycle: bc_cycle,
        frames_rx: rx.frames_rx(),
    }
}

/// Acceptance: addressed delivery through the real PHY is bit-identical
/// on both kernel backends × every supported SIMD level × workers 1–4.
#[test]
fn addressed_delivery_bit_identical_across_backends_simd_and_workers() {
    let _restore = SimdGuard;
    let mut reference: Option<Ledger> = None;
    for level in simd::SimdLevel::supported() {
        simd::force_level(Some(level));
        for backend in [KernelBackend::Reference, KernelBackend::Quantized] {
            for workers in 1..=4 {
                let ledger = run_stack(backend, workers, 200);
                assert!(
                    ledger.unicast_cycle.is_some() && ledger.broadcast_cycle.is_some(),
                    "{backend:?}/{}/{workers}w: delivery incomplete: {ledger:?}",
                    level.name(),
                );
                match &reference {
                    None => reference = Some(ledger),
                    Some(r) => assert_eq!(
                        r,
                        &ledger,
                        "{backend:?}/{}/{workers}w diverged",
                        level.name(),
                    ),
                }
            }
        }
    }
}

/// Corruption inside one stream's frames must not perturb another
/// stream sharing the same object bundles: the intact stream delivers,
/// the damaged frame is dropped by CRC, and the damaged stream recovers
/// at its next intact datagram.
#[test]
fn stream_corruption_is_isolated() {
    use inframe::net::mac::{encode_frame_into, FLAG_LAST, HEADER_BYTES};
    let layout = DataLayout::from_config(&InFrameConfig::paper());
    let map = RegionMap::new(&layout, 5, 3);
    let mut rx = NetReceiver::new(map, AddressFilter::new(MacAddr::new(0x0042)));
    rx.open_stream(0, 64, 64, 4096);
    rx.open_stream(1, 64, 64, 4096);

    let dst = MacAddr::new(0x0042);
    let src = MacAddr::new(0x0001);
    let mut bundle = Vec::new();
    encode_frame_into(dst, src, 0, FLAG_LAST, 0, &[0xAA; 40], &mut bundle);
    let corrupt_at = bundle.len() + HEADER_BYTES + 5;
    encode_frame_into(dst, src, 1, FLAG_LAST, 0, &[0xBB; 40], &mut bundle);
    encode_frame_into(dst, src, 0, FLAG_LAST, 1, &[0xCC; 40], &mut bundle);
    bundle[corrupt_at] ^= 0x40; // flip a bit inside stream 1's frame

    rx.ingest_bytes(&bundle);
    let mut out = Vec::new();
    // Stream 0 delivers both datagrams despite its neighbour's damage.
    assert!(rx.pop_datagram(0, &mut out));
    assert_eq!(out, [0xAA; 40]);
    assert!(rx.pop_datagram(0, &mut out));
    assert_eq!(out, [0xCC; 40]);
    // Stream 1's corrupted datagram is gone, not wrong.
    assert!(!rx.pop_datagram(1, &mut out));
    assert!(rx.frames_rejected() > 0, "corruption must be counted");

    // Stream 1 recovers at its next datagram: seq 1 follows the lost
    // seq 0... which never releases, so the sender's next datagram must
    // reuse the window. Re-sending seq 0 intact heals the lane.
    let mut repair = Vec::new();
    encode_frame_into(dst, src, 1, FLAG_LAST, 0, &[0xBB; 40], &mut repair);
    encode_frame_into(dst, src, 1, FLAG_LAST, 1, b"next", &mut repair);
    rx.ingest_bytes(&repair);
    assert!(rx.pop_datagram(1, &mut out));
    assert_eq!(out, [0xBB; 40]);
    assert!(rx.pop_datagram(1, &mut out));
    assert_eq!(out, b"next");
}

/// A receiver with one of 15 spatial tiles occluded for the whole run
/// still completes, within 2× the clean receiver's cycle count — the
/// carousel shards are striped so any 14 tiles carry a full repair set.
#[test]
fn occluded_receiver_completes_within_twice_clean() {
    let layout = DataLayout::from_config(&InFrameConfig::paper());
    let map = RegionMap::new(&layout, 5, 3);
    let mut tx = NetSender::new(map.clone(), MacAddr::new(0x0001));
    tx.open_stream(0, StreamQos::bulk(), 64);
    let data: Vec<u8> = (0..800u32).map(|i| (i * 31 + 7) as u8).collect();
    tx.send_datagram(0, MacAddr::new(0x0042), &data);

    let station = || {
        let mut rx = NetReceiver::new(map.clone(), AddressFilter::new(MacAddr::new(0x0042)));
        rx.open_stream(0, 64, 64, 4096);
        rx
    };
    let (mut clean, mut occluded) = (station(), station());

    let occluded_region = 7usize;
    let bits = map.region_payload_bits() / map.gobs_per_region();
    let (mut clean_cycle, mut occ_cycle) = (None, None);
    let mut out = Vec::new();
    for cycle in 0..1200u32 {
        let payload = tx.next_cycle_payload();
        let seen: Vec<Option<bool>> = payload.iter().map(|&b| Some(b)).collect();
        let mut masked = seen.clone();
        for &g in map.region_gobs(occluded_region) {
            let lo = g as usize * bits;
            masked[lo..lo + bits].fill(None);
        }
        if clean_cycle.is_none() {
            clean.push_cycle(&seen);
            if clean.pop_datagram(0, &mut out) {
                assert_eq!(out, data);
                clean_cycle = Some(cycle);
            }
        }
        if occ_cycle.is_none() {
            occluded.push_cycle(&masked);
            if occluded.pop_datagram(0, &mut out) {
                assert_eq!(out, data);
                occ_cycle = Some(cycle);
            }
        }
        if clean_cycle.is_some() && occ_cycle.is_some() {
            break;
        }
    }
    let clean_cycle = clean_cycle.expect("clean receiver completed");
    let occ_cycle = occ_cycle.expect("occluded receiver completed");
    assert!(
        occ_cycle < 2 * (clean_cycle + 1),
        "occlusion overhead too high: occluded {occ_cycle} vs clean {clean_cycle}"
    );
}

/// A GOB-level channel over the paper layout with one dirty patch:
/// every GOB of tile 7 of the 5×3 grid is erased with probability
/// `patch_p`, every other GOB with 1% background noise. The patch is a
/// frame property, the same GOB set however the sender tiles the frame,
/// and one draw per GOB keeps runs comparable across tilings.
struct DirtyPatch {
    patch: Vec<bool>,
    patch_p: f64,
    rng: StdRng,
}

impl DirtyPatch {
    fn new(layout: &DataLayout, patch_p: f64, seed: u64) -> Self {
        let grid = RegionMap::new(layout, 5, 3);
        let mut patch = vec![false; grid.num_regions() * grid.gobs_per_region()];
        for &g in grid.region_gobs(7) {
            patch[g as usize] = true;
        }
        Self {
            patch,
            patch_p,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn transmit(&mut self, payload: &[bool], bits_per_gob: usize) -> Vec<Option<bool>> {
        let mut seen: Vec<Option<bool>> = payload.iter().map(|&b| Some(b)).collect();
        for (g, &in_patch) in self.patch.iter().enumerate() {
            if self.rng.random::<f64>() < if in_patch { self.patch_p } else { 0.01 } {
                seen[g * bits_per_gob..(g + 1) * bits_per_gob].fill(None);
            }
        }
        seen
    }
}

const BULK_DST: u16 = 0x0042;
const TICKER: &[u8] = b"HOME 3 : 1 AWAY";

fn bulk_payload() -> Vec<u8> {
    (0..4096u32).map(|i| (i * 17 + 5) as u8).collect()
}

/// Cycles until a 4 KiB bulk datagram completes through the dirty patch
/// (30% patch erasure) under the given tiling, or `None` within 12 000.
fn bulk_cycles(layout: &DataLayout, tiles: (usize, usize)) -> Option<u32> {
    let map = RegionMap::new(layout, tiles.0, tiles.1);
    let bits_per_gob = map.region_payload_bits() / map.gobs_per_region();
    let mut tx = NetSender::new(map.clone(), MacAddr::new(0x0001));
    tx.open_stream(0, StreamQos::bulk(), 64);
    let data = bulk_payload();
    tx.send_datagram(0, MacAddr::new(BULK_DST), &data);
    let mut rx = NetReceiver::new(map, AddressFilter::new(MacAddr::new(BULK_DST)));
    rx.open_stream(0, 128, 64, 1 << 16);

    let mut channel = DirtyPatch::new(layout, 0.3, 0xA11CE);
    let mut out = Vec::new();
    for cycle in 0..12_000 {
        rx.push_cycle(&channel.transmit(&tx.next_cycle_payload(), bits_per_gob));
        if rx.pop_datagram(0, &mut out) {
            assert_eq!(out, data, "{tiles:?}: transfer corrupted");
            return Some(cycle);
        }
    }
    None
}

/// Whole-frame streamed symbols interleave across the dirty patch, so a
/// single channel pays its erasure on every symbol; the 5×3 tiling
/// confines the damage to one sub-channel that the striped carousel
/// repairs from the other fourteen. Same bytes over the same cycle
/// length, so the goodput ratio is the inverse ratio of cycle counts.
#[test]
fn spatial_tiling_at_least_doubles_goodput_on_a_dirty_patch() {
    let layout = DataLayout::from_config(&InFrameConfig::paper());
    let single = bulk_cycles(&layout, (1, 1)).expect("single channel completes");
    let tiled = bulk_cycles(&layout, (5, 3)).expect("tiled channel completes");
    assert!(
        single + 1 >= 2 * (tiled + 1),
        "spatial tiling must deliver >= 2x single-channel goodput: \
         {} vs {} cycles",
        tiled + 1,
        single + 1
    );
}

/// Bulk plus a ticker with the given QoS multiplexed on one tiled
/// channel whose dirty patch is fully erased; returns the cycles at which
/// (ticker, bulk) complete.
fn ticker_and_bulk_cycles(ticker_qos: StreamQos) -> (u32, u32) {
    let layout = DataLayout::from_config(&InFrameConfig::paper());
    let map = RegionMap::new(&layout, 5, 3);
    let bits_per_gob = map.region_payload_bits() / map.gobs_per_region();
    let mut tx = NetSender::new(map.clone(), MacAddr::new(0x0001));
    tx.open_stream(0, StreamQos::bulk(), 64);
    tx.open_stream(1, ticker_qos, 32);
    let data = bulk_payload();
    tx.send_datagram(0, MacAddr::new(BULK_DST), &data);
    tx.send_datagram(1, MacAddr::BROADCAST, TICKER);
    let mut rx = NetReceiver::new(map, AddressFilter::new(MacAddr::new(BULK_DST)));
    rx.open_stream(0, 128, 64, 1 << 16);
    rx.open_stream(1, 128, 32, 1 << 12);

    let mut channel = DirtyPatch::new(&layout, 1.0, 0xBEEF5);
    let mut out = Vec::new();
    let (mut bulk_done, mut tick_done) = (None, None);
    for cycle in 0..12_000u32 {
        rx.push_cycle(&channel.transmit(&tx.next_cycle_payload(), bits_per_gob));
        if bulk_done.is_none() && rx.pop_datagram(0, &mut out) {
            assert_eq!(out, data, "bulk corrupted");
            bulk_done = Some(cycle);
        }
        if tick_done.is_none() && rx.pop_datagram(1, &mut out) {
            assert_eq!(out, TICKER, "ticker corrupted");
            tick_done = Some(cycle);
        }
        if bulk_done.is_some() && tick_done.is_some() {
            break;
        }
    }
    (
        tick_done.expect("ticker delivered"),
        bulk_done.expect("bulk delivered"),
    )
}

/// The QoS scheduler lands an interactive ticker no later than the bulk
/// transfer sharing its channel, and sooner than the same ticker sent at
/// bulk QoS: a 15-byte ticker beats 4 KiB even at an equal share, so only
/// the second comparison shows that the class boost takes effect.
#[test]
fn interactive_ticker_lands_before_bulk_on_a_dirty_patch() {
    let (tick, bulk) = ticker_and_bulk_cycles(StreamQos {
        priority: 2,
        weight: 1,
        deadline: DeadlineClass::Interactive,
    });
    assert!(
        tick <= bulk,
        "QoS inversion: ticker at cycle {tick}, bulk at {bulk}"
    );
    let (tick_at_bulk_qos, _) = ticker_and_bulk_cycles(StreamQos::bulk());
    assert!(
        tick < tick_at_bulk_qos,
        "interactive ticker at cycle {tick} is no sooner than at bulk QoS ({tick_at_bulk_qos})"
    );
}
