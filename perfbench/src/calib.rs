//! Host-speed calibration.
//!
//! On a shared host, co-tenant load slows this code by up to 1.8× for tens
//! of seconds at a time; a median over one run cannot hide a slow phase
//! that covers the whole run. So the timed window pauses about once a
//! second to time [`kernel`], a fixed piece of work that uses no program
//! code, and every host time in the segments before a pause is scaled by
//! `NOMINAL_NS / measured` (the median of that pause and its neighbours):
//! host time as it would read with the kernel at its nominal speed. The kernel mixes what the workloads do
//! most — branchy sorting, hashing and small allocations and copies — so
//! it slows in step with them.

use crate::mix;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Kernel time on an idle core of the host the benchmark was tuned on
/// (2-vCPU Intel Xeon VM at 2.0 GHz), ns. Any constant serves: it cancels
/// when two commits are compared; this one keeps scaled times near wall
/// times on that host.
pub const NOMINAL_NS: f64 = 30e6;

fn sort(seed: u64) -> u64 {
    let mut v: Vec<u64> = (0..100_000u64).map(|i| mix(i ^ seed)).collect();
    v.sort_unstable();
    v[50_000]
}

fn hash(seed: u64) -> u64 {
    let mut h = HashMap::new();
    for i in 0..60_000u64 {
        h.insert(mix(i ^ seed) % 40_000, i);
    }
    (0..60_000u64)
        .map(|i| h.get(&(mix(i) % 40_000)).copied().unwrap_or(1))
        .fold(0, u64::wrapping_add)
}

fn copies(seed: u64) -> u64 {
    let mut pool: Vec<Vec<u8>> = Vec::new();
    let mut same = 0u64;
    for i in 0..40_000u64 {
        let n = 64 + (mix(i ^ seed) % 256) as usize;
        let v: Vec<u8> = (0..n).map(|j| (j as u64 ^ i) as u8).collect();
        if pool.len() < 64 {
            pool.push(v);
        } else {
            let k = (i % 64) as usize;
            same += (pool[k] == v) as u64;
            pool[k] = v;
        }
    }
    same
}

/// The calibration work: the same inputs every time.
pub fn kernel() -> u64 {
    let mut z = 0u64;
    for j in 0..6 {
        z ^= sort(black_box(j));
    }
    for j in 0..3 {
        z ^= hash(black_box(j));
    }
    z ^ copies(black_box(0)) ^ copies(black_box(1))
}

/// Times one [`kernel`] run, ns.
pub fn measure() -> f64 {
    let t = Instant::now();
    black_box(kernel());
    t.elapsed().as_nanos() as f64
}
