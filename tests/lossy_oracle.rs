//! Differential tests of every receive-side hop that carries decoded
//! bits as `LossyBits`, against the `Vec<Option<bool>>` code it replaced
//! (copied below as the oracle, one byte per verdict). Inputs are random
//! verdicts with random erasures at Quick and paper layouts; each hop
//! must give the oracle's output verdict for verdict, and the seeded
//! channels must make the same RNG draws and erase the same positions.

use inframe::code::framing::bytes_to_bits;
use inframe::code::framing::LossyBits;
use inframe::code::parity::{GobStats, GobStatus};
use inframe::code::prbs::Xoshiro256;
use inframe::code::rs::ReedSolomon;
use inframe::core::dataframe::{self, rs_geometry, DataFrame};
use inframe::core::region::RegionMap;
use inframe::core::{CodingMode, DataLayout, InFrameConfig};
use inframe::link::ModulationCommand;
use inframe::sim::linksim::{BurstModel, GobChannel, RegionChannel, RegionOcclusion};
use inframe::sim::Scale;

type Verdicts = Vec<Option<bool>>;

fn layouts() -> [(&'static str, DataLayout); 2] {
    [
        ("quick", DataLayout::from_config(&Scale::Quick.inframe())),
        ("paper", DataLayout::from_config(&InFrameConfig::paper())),
    ]
}

/// `n` verdicts, each erased with probability `p`.
fn random_verdicts(rng: &mut Xoshiro256, n: usize, p: f64) -> Verdicts {
    (0..n)
        .map(|_| {
            let erased = rng.next_f64() < p;
            let bit = rng.next_bit();
            (!erased).then_some(bit)
        })
        .collect()
}

fn lossy(v: &[Option<bool>]) -> LossyBits {
    v.iter().copied().collect()
}

fn verdicts(bits: &LossyBits) -> Verdicts {
    bits.iter().collect()
}

// ---- The oracle: the `Option<bool>` receive path, verbatim in substance.

/// Channel index of Block `(bx, by)`: GOBs row-major over the GOB grid,
/// Blocks row-major within each GOB.
fn channel_index(layout: &DataLayout, bx: usize, by: usize) -> usize {
    let m = layout.gob_size;
    ((by / m) * layout.gob_grid().0 + bx / m) * m * m + (by % m) * m + bx % m
}

fn oracle_gob_check(received: &[Option<bool>]) -> (GobStatus, Option<Vec<bool>>) {
    if received.iter().any(|b| b.is_none()) {
        return (GobStatus::Unavailable, None);
    }
    let bits: Vec<bool> = received.iter().map(|b| b.expect("checked above")).collect();
    let (payload, parity) = bits.split_at(bits.len() - 1);
    let expect = payload.iter().fold(false, |acc, &b| acc ^ b);
    if expect == parity[0] {
        (GobStatus::Ok, Some(payload.to_vec()))
    } else {
        (GobStatus::Erroneous, None)
    }
}

fn oracle_decode(
    layout: &DataLayout,
    received: &[Option<bool>],
    coding: CodingMode,
) -> (Verdicts, GobStats) {
    let mut channel: Verdicts = vec![None; layout.num_blocks()];
    for (i, &v) in received.iter().enumerate() {
        channel[channel_index(layout, i % layout.blocks_x, i / layout.blocks_x)] = v;
    }
    let mut stats = GobStats::default();
    let mut payload = Vec::new();
    match coding {
        CodingMode::Parity => {
            let per_gob = layout.blocks_per_gob();
            for gob in channel.chunks(per_gob) {
                let (status, bits) = oracle_gob_check(gob);
                stats.record(status);
                match (status, bits) {
                    (GobStatus::Ok, Some(bits)) => payload.extend(bits.into_iter().map(Some)),
                    _ => payload.extend(std::iter::repeat_n(None, per_gob - 1)),
                }
            }
        }
        CodingMode::ReedSolomon { parity_bytes } => {
            let (k, codewords) = rs_geometry(layout, parity_bytes);
            let n = k + parity_bytes;
            let rs = ReedSolomon::new(n, k).expect("validated RS parameters");
            let total_bytes = layout.num_blocks() / 8;
            let mut bytes = vec![0u8; total_bytes];
            let mut erased = vec![false; total_bytes];
            for (i, byte) in bytes.iter_mut().enumerate() {
                for j in 0..8 {
                    match channel[i * 8 + j] {
                        Some(true) => *byte |= 1 << (7 - j),
                        Some(false) => {}
                        None => erased[i] = true,
                    }
                }
            }
            for c in 0..codewords {
                let cw = &bytes[c * n..(c + 1) * n];
                let erasures: Vec<usize> = (0..n).filter(|&i| erased[c * n + i]).collect();
                match rs.decode(cw, &erasures) {
                    Ok(msg) => {
                        stats.record(GobStatus::Ok);
                        payload.extend(bytes_to_bits(&msg).into_iter().map(Some));
                    }
                    Err(_) => {
                        stats.record(GobStatus::Erroneous);
                        payload.extend(std::iter::repeat_n(None, k * 8));
                    }
                }
            }
        }
    }
    (payload, stats)
}

fn oracle_region_availability(
    map: &RegionMap,
    bits_per_gob: usize,
    full: &[Option<bool>],
    region: usize,
) -> (u64, u64) {
    let (mut ok, mut lost) = (0u64, 0u64);
    for &g in map.region_gobs(region) {
        let lo = g as usize * bits_per_gob;
        if full[lo..lo + bits_per_gob].iter().all(Option::is_some) {
            ok += 1;
        } else {
            lost += 1;
        }
    }
    (ok, lost)
}

fn oracle_gather(
    map: &RegionMap,
    bits_per_gob: usize,
    full: &[Option<bool>],
    region: usize,
) -> Verdicts {
    let mut out = Vec::new();
    for &g in map.region_gobs(region) {
        let lo = g as usize * bits_per_gob;
        out.extend_from_slice(&full[lo..lo + bits_per_gob]);
    }
    out
}

/// `GobChannel::transmit` over its own copy of the channel's RNG stream.
fn oracle_transmit(
    rng: &mut Xoshiro256,
    p: f64,
    layout: &DataLayout,
    frame: &DataFrame,
) -> Verdicts {
    let erased: Vec<bool> = (0..layout.num_gobs()).map(|_| rng.next_f64() < p).collect();
    (0..layout.num_blocks())
        .map(|i| {
            let (bx, by) = (i % layout.blocks_x, i / layout.blocks_x);
            if erased[channel_index(layout, bx, by) / layout.blocks_per_gob()] {
                None
            } else {
                Some(frame.bit(bx, by))
            }
        })
        .collect()
}

/// `RegionChannel::transmit_payload` over its own copy of the channel's
/// RNG stream.
fn oracle_transmit_payload(
    rng: &mut Xoshiro256,
    chan: &RegionChannel,
    payload: &[bool],
    cycle: u64,
) -> Verdicts {
    let map = chan.region_map();
    let bits_per_gob = map.region_payload_bits() / map.gobs_per_region();
    let num_gobs = map.num_regions() * map.gobs_per_region();
    let mut out: Verdicts = payload.iter().map(|&b| Some(b)).collect();
    for g in 0..num_gobs {
        let p = chan.erasure_at(map.region_of_gob(g), cycle);
        if rng.next_f64() < p {
            out[g * bits_per_gob..(g + 1) * bits_per_gob].fill(None);
        }
    }
    out
}

// ---- The hops against the oracle.

#[test]
fn decode_matches_the_option_oracle() {
    let mut rng = Xoshiro256::seed_from_u64(0xDEC0);
    for (name, layout) in layouts() {
        for coding in [
            CodingMode::Parity,
            CodingMode::ReedSolomon { parity_bytes: 4 },
            CodingMode::ReedSolomon { parity_bytes: 10 },
        ] {
            for p in [0.0, 0.003, 0.02, 0.1, 0.5, 1.0] {
                for _ in 0..4 {
                    let received = random_verdicts(&mut rng, layout.num_blocks(), p);
                    let (want, want_stats) = oracle_decode(&layout, &received, coding);
                    let (got, stats) = dataframe::decode(&layout, &lossy(&received), coding);
                    assert_eq!(verdicts(&got), want, "{name} {coding:?} p={p}: payload");
                    assert_eq!(stats, want_stats, "{name} {coding:?} p={p}: stats");
                }
            }
        }
    }
}

#[test]
fn region_split_matches_the_option_oracle() {
    let mut rng = Xoshiro256::seed_from_u64(0x2E61);
    for (name, layout) in layouts() {
        let (gx, gy) = layout.gob_grid();
        let bits_per_gob = layout.blocks_per_gob() - 1;
        for (tx, ty) in [(1, 1), (gx, 1), (1, gy), (gx, gy)] {
            let map = RegionMap::new(&layout, tx, ty);
            let mut region = LossyBits::default();
            for p in [0.0, 0.01, 0.2, 1.0] {
                let full = random_verdicts(&mut rng, layout.payload_bits_parity(), p);
                let got_full = lossy(&full);
                for r in 0..map.num_regions() {
                    assert_eq!(
                        map.region_availability(&got_full, r),
                        oracle_region_availability(&map, bits_per_gob, &full, r),
                        "{name} {tx}x{ty} p={p} region {r}: availability"
                    );
                    map.gather(&got_full, r, &mut region);
                    assert_eq!(
                        verdicts(&region),
                        oracle_gather(&map, bits_per_gob, &full, r),
                        "{name} {tx}x{ty} p={p} region {r}: gather"
                    );
                }
            }
        }
    }
}

#[test]
fn gob_channel_matches_the_option_oracle() {
    for (name, layout) in layouts() {
        let seed = 0x60B;
        let burst = BurstModel {
            period: 7,
            len: 2,
            erasure: 0.6,
        };
        let mut chan = GobChannel::new(0.05, Some(burst), seed);
        // The channel seeds its stream from `seed ^ "link"`.
        let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x6C69_6E6B);
        let mut payload_rng = Xoshiro256::seed_from_u64(1);
        for cycle in 0..24u64 {
            if cycle == 12 {
                chan.set_modulation(ModulationCommand {
                    delta: 14.0,
                    tau: 10,
                });
            }
            let payload: Vec<bool> = (0..layout.payload_bits_parity())
                .map(|_| payload_rng.next_bit())
                .collect();
            let frame = DataFrame::encode(&layout, &payload, CodingMode::Parity);
            let want = oracle_transmit(&mut rng, chan.erasure_at(cycle), &layout, &frame);
            let got = chan.transmit(&layout, &frame, cycle);
            assert_eq!(verdicts(&got), want, "{name} cycle {cycle}");
        }
    }
}

#[test]
fn region_channel_matches_the_option_oracle() {
    for (name, layout) in layouts() {
        // One region per GOB column.
        let map = RegionMap::new(&layout, layout.gob_grid().0, 1);
        let seed = 0x2E6;
        let base: Vec<f64> = (0..map.num_regions())
            .map(|r| 0.02 * (r % 5) as f64)
            .collect();
        let mut chan = RegionChannel::new(map.clone(), &base, seed);
        chan.add_occlusion(RegionOcclusion {
            region: map.num_regions() / 2,
            from_cycle: 3,
            until_cycle: 9,
        });
        // The channel seeds its stream from `seed ^ "REGION"`.
        let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x5245_4749_4F4E);
        let mut payload_rng = Xoshiro256::seed_from_u64(2);
        for cycle in 0..16u64 {
            let payload: Vec<bool> = (0..layout.payload_bits_parity())
                .map(|_| payload_rng.next_bit())
                .collect();
            let want = oracle_transmit_payload(&mut rng, &chan, &payload, cycle);
            let got = chan.transmit_payload(&payload, cycle);
            assert_eq!(verdicts(&got), want, "{name} cycle {cycle}");
        }
    }
}
