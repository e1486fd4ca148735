//! Lock-free metric instruments: counters, gauges, sketch-bucketed
//! histograms, and band-sharded counters.
//!
//! Every instrument is a thin handle around an `Option<Arc<…>>`: a handle
//! minted from a disabled [`crate::Telemetry`] carries `None` and every
//! operation is a single well-predicted branch. Enabled handles share
//! their cells through the spine registry, so two components registering
//! the same name observe one value. All updates are relaxed atomics — no
//! locks, no allocation — which is what lets the instrumented render and
//! demux hot paths keep their zero-steady-state-allocation guarantee
//! (enforced by `tests/alloc_steady_state.rs` in the workspace root).
//!
//! Histograms bucket samples on the [`crate::sketch`] log-linear grid:
//! quantile queries are accurate to [`crate::sketch::RELATIVE_ERROR`]
//! (≈1.6%), and merging snapshots is element-wise bucket addition —
//! associative, commutative, and independent of shard order.

use crate::sketch;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Number of sketch buckets in a [`Histogram`] (see [`crate::sketch`]:
/// one zero bucket, exact buckets below `sketch::LINEAR_MAX`, then 32
/// linear sub-buckets per octave over the full `u64` range).
pub const HISTOGRAM_BUCKETS: usize = sketch::SKETCH_BUCKETS;

/// Number of shards in a [`ShardedCounter`] — comfortably above the
/// engine's 8-worker cap so band indices never collide after the modulo.
pub const COUNTER_SHARDS: usize = 16;

/// A monotone event counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(pub(crate) Option<Arc<AtomicU64>>);

impl Counter {
    /// A permanently-zero counter that ignores every update.
    pub fn noop() -> Self {
        Self(None)
    }

    /// Adds `v` to the counter.
    #[inline]
    pub fn add(&self, v: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Increments the counter by one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value (0 for a no-op handle).
    pub fn get(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

/// A last-value-wins gauge. Values are raw `u64`; use
/// [`Gauge::set_f32`]/[`Gauge::set_f64`] for float payloads (stored as
/// IEEE-754 bits).
#[derive(Debug, Clone, Default)]
pub struct Gauge(pub(crate) Option<Arc<AtomicU64>>);

impl Gauge {
    /// A gauge that ignores every update.
    pub fn noop() -> Self {
        Self(None)
    }

    /// Stores `v`.
    #[inline]
    pub fn set(&self, v: u64) {
        if let Some(cell) = &self.0 {
            cell.store(v, Ordering::Relaxed);
        }
    }

    /// Stores an `f32` as its bit pattern.
    #[inline]
    pub fn set_f32(&self, v: f32) {
        self.set(u64::from(v.to_bits()));
    }

    /// Stores an `f64` as its bit pattern (the full 64-bit cell — a
    /// gauge holds either raw integers, `f32` bits, or `f64` bits; the
    /// instrument name's documented convention says which).
    #[inline]
    pub fn set_f64(&self, v: f64) {
        self.set(v.to_bits());
    }

    /// Current raw value (0 for a no-op handle).
    pub fn get(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
pub(crate) struct HistogramCore {
    pub(crate) buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    pub(crate) count: AtomicU64,
    pub(crate) sum: AtomicU64,
    pub(crate) min: AtomicU64,
    pub(crate) max: AtomicU64,
}

impl HistogramCore {
    pub(crate) fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// Index of the sketch bucket holding `v` (re-exported from
/// [`crate::sketch::bucket_index`]).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    sketch::bucket_index(v)
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the last bucket;
/// re-exported from [`crate::sketch::bucket_upper_bound`]).
pub fn bucket_upper_bound(i: usize) -> u64 {
    sketch::bucket_upper_bound(i)
}

/// A sketch-bucketed histogram for timings (nanoseconds) and score
/// margins (milli-units). Recording is four relaxed atomic ops; there is
/// no per-recording allocation or lock. Quantiles are accurate to
/// [`sketch::RELATIVE_ERROR`].
#[derive(Debug, Clone, Default)]
pub struct Histogram(pub(crate) Option<Arc<HistogramCore>>);

impl Histogram {
    /// A histogram that ignores every recording.
    pub fn noop() -> Self {
        Self(None)
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(core) = &self.0 {
            core.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
            core.count.fetch_add(1, Ordering::Relaxed);
            core.sum.fetch_add(v, Ordering::Relaxed);
            core.min.fetch_min(v, Ordering::Relaxed);
            core.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Records a duration in nanoseconds.
    #[inline]
    pub fn record_ns(&self, d: Duration) {
        self.record(d.as_nanos() as u64);
    }

    /// Starts a span whose drop records its elapsed time into this
    /// histogram, in nanoseconds. When the handle is a no-op the guard
    /// still reads the clock once; the recording itself is skipped.
    #[inline]
    pub fn span(&self) -> SpanGuard<'_> {
        SpanGuard {
            hist: self,
            start: Instant::now(),
        }
    }

    /// Immutable snapshot of the histogram state (empty for a no-op
    /// handle).
    pub fn snapshot(&self) -> HistogramSnapshot {
        match &self.0 {
            None => HistogramSnapshot::default(),
            Some(core) => HistogramSnapshot::of(core),
        }
    }

    /// Absorbs a snapshot taken from *another* registry into this live
    /// histogram — the aggregation half of a sharded-spine setup (e.g.
    /// `sim::fleet` merging per-shard session spines into one fleet
    /// spine). Bucket counts, count, and sum add; min/max fold. A no-op
    /// handle or an empty snapshot leaves everything unchanged.
    pub fn merge(&self, other: &HistogramSnapshot) {
        let Some(core) = &self.0 else { return };
        if other.count == 0 {
            return;
        }
        for (cell, &b) in core.buckets.iter().zip(other.buckets.iter()) {
            if b > 0 {
                cell.fetch_add(b, Ordering::Relaxed);
            }
        }
        core.count.fetch_add(other.count, Ordering::Relaxed);
        core.sum.fetch_add(other.sum, Ordering::Relaxed);
        core.min.fetch_min(other.min, Ordering::Relaxed);
        core.max.fetch_max(other.max, Ordering::Relaxed);
    }
}

/// Times a scope and records the elapsed nanoseconds into a [`Histogram`]
/// on drop — the span half of the span/event API.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    hist: &'a Histogram,
    start: Instant,
}

impl SpanGuard<'_> {
    /// Elapsed time since the span started.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.hist.record_ns(self.start.elapsed());
    }
}

/// A counter split across [`COUNTER_SHARDS`] cache-line-padded cells so
/// `ParallelEngine` band workers can increment without bouncing one cache
/// line between cores. Shard by the band index the engine hands every
/// band closure; readers sum the shards.
#[derive(Debug, Clone, Default)]
pub struct ShardedCounter(pub(crate) Option<Arc<[PaddedCell; COUNTER_SHARDS]>>);

/// One cache line worth of counter, so adjacent shards never share a
/// line.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct PaddedCell(AtomicU64);

impl ShardedCounter {
    /// A sharded counter that ignores every update.
    pub fn noop() -> Self {
        Self(None)
    }

    /// Adds `v` to the shard for `band` (band indices beyond the shard
    /// count wrap).
    #[inline]
    pub fn add(&self, band: usize, v: u64) {
        if let Some(shards) = &self.0 {
            shards[band % COUNTER_SHARDS]
                .0
                .fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Sum over all shards (0 for a no-op handle).
    pub fn sum(&self) -> u64 {
        self.0.as_ref().map_or(0, |shards| {
            shards.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
        })
    }
}

/// Point-in-time copy of one histogram, used by the summary exporter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (`u64::MAX` when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Per-bucket sample counts (sketch buckets, see [`bucket_index`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    fn of(core: &HistogramCore) -> Self {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (b, cell) in buckets.iter_mut().zip(core.buckets.iter()) {
            *b = cell.load(Ordering::Relaxed);
        }
        Self {
            count: core.count.load(Ordering::Relaxed),
            sum: core.sum.load(Ordering::Relaxed),
            min: core.min.load(Ordering::Relaxed),
            max: core.max.load(Ordering::Relaxed),
            buckets,
        }
    }

    /// Merges another snapshot into this one (pure-value sibling of
    /// [`Histogram::merge`], for aggregating already-exported spines).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        for (a, &b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Arithmetic mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Index of the bucket containing quantile `q` (0 ≤ q ≤ 1), or
    /// `None` when the snapshot is empty.
    fn quantile_bucket(&self, q: f64) -> Option<usize> {
        if self.count == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return Some(i);
            }
        }
        Some(HISTOGRAM_BUCKETS - 1)
    }

    /// Estimate of quantile `q` (0 ≤ q ≤ 1): the midpoint of the
    /// quantile's sketch bucket, within [`sketch::RELATIVE_ERROR`]
    /// (≈1.6%) of the true order statistic. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        self.quantile_bucket(q)
            .map_or(0, |i| sketch::bucket_value(i).clamp(self.min, self.max))
    }

    /// Upper bound of the bucket containing quantile `q` — a guaranteed
    /// bound on the order statistic, at most [`sketch::RELATIVE_ERROR`]
    /// ×2 above it. Returns 0 when empty.
    pub fn quantile_bound(&self, q: f64) -> u64 {
        self.quantile_bucket(q)
            .map_or(0, |i| sketch::bucket_upper_bound(i).min(self.max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_instruments_stay_zero() {
        let c = Counter::noop();
        c.add(5);
        assert_eq!(c.get(), 0);
        let g = Gauge::noop();
        g.set(9);
        assert_eq!(g.get(), 0);
        let h = Histogram::noop();
        h.record(3);
        assert_eq!(h.snapshot().count, 0);
        let s = ShardedCounter::noop();
        s.add(0, 7);
        assert_eq!(s.sum(), 0);
    }

    #[test]
    fn bucket_index_follows_the_sketch_grid() {
        // Small values are exact buckets...
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(3), 3);
        assert_eq!(bucket_index(63), 63);
        for v in 0..64u64 {
            assert_eq!(bucket_upper_bound(bucket_index(v)), v);
        }
        // ...then log-linear sub-buckets up to the top of the range.
        assert!(bucket_index(u64::MAX) < HISTOGRAM_BUCKETS);
        assert_eq!(bucket_upper_bound(HISTOGRAM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn histogram_tracks_count_sum_min_max() {
        let h = Histogram(Some(Arc::new(HistogramCore::new())));
        for v in [1u64, 10, 100, 1000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 4);
        assert_eq!(snap.sum, 1111);
        assert_eq!(snap.min, 1);
        assert_eq!(snap.max, 1000);
        assert_eq!(snap.buckets.iter().sum::<u64>(), 4);
        assert!(snap.quantile_bound(0.5) >= 10);
        assert!(snap.quantile_bound(1.0) >= 1000);
    }

    #[test]
    fn merged_histograms_match_single_recording() {
        // Recording into shards then merging must equal recording
        // everything into one histogram — the property fleet aggregation
        // relies on.
        let whole = Histogram(Some(Arc::new(HistogramCore::new())));
        let shard_a = Histogram(Some(Arc::new(HistogramCore::new())));
        let shard_b = Histogram(Some(Arc::new(HistogramCore::new())));
        for v in [3u64, 17, 900] {
            whole.record(v);
            shard_a.record(v);
        }
        for v in [1u64, 250_000] {
            whole.record(v);
            shard_b.record(v);
        }
        let merged_live = Histogram(Some(Arc::new(HistogramCore::new())));
        merged_live.merge(&shard_a.snapshot());
        merged_live.merge(&shard_b.snapshot());
        assert_eq!(merged_live.snapshot(), whole.snapshot());

        let mut merged_snap = shard_a.snapshot();
        merged_snap.merge(&shard_b.snapshot());
        assert_eq!(merged_snap, whole.snapshot());
        assert_eq!(
            merged_snap.quantile_bound(0.5),
            whole.snapshot().quantile_bound(0.5)
        );
    }

    #[test]
    fn merging_empty_snapshot_is_identity() {
        let h = Histogram(Some(Arc::new(HistogramCore::new())));
        h.record(42);
        let before = h.snapshot();
        h.merge(&HistogramSnapshot::default());
        assert_eq!(h.snapshot(), before);
        // Min must survive (an empty snapshot's u64::MAX min must not
        // clobber a real one on the value-side merge either).
        let mut snap = before.clone();
        snap.merge(&HistogramSnapshot::default());
        assert_eq!(snap, before);
        // No-op handles ignore merges entirely.
        Histogram::noop().merge(&before);
    }

    #[test]
    fn gauge_round_trips_f32() {
        let g = Gauge(Some(Arc::new(AtomicU64::new(0))));
        g.set_f32(0.15);
        assert_eq!(f32::from_bits(g.get() as u32), 0.15);
    }

    #[test]
    fn sharded_counter_sums_across_bands() {
        let s = ShardedCounter(Some(Arc::new(std::array::from_fn(|_| {
            PaddedCell::default()
        }))));
        for band in 0..20 {
            s.add(band, 2);
        }
        assert_eq!(s.sum(), 40);
    }
}
