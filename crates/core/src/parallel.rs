//! The band-sliced worker engine behind the streaming pipeline.
//!
//! Both hot paths of the system are embarrassingly parallel over rows:
//! sender-side chessboard rendering writes each display row exactly once,
//! and receiver-side block scoring reads disjoint sensor regions. A
//! [`ParallelEngine`] partitions that work across scoped worker threads
//! using the canonical band partition of
//! [`inframe_frame::plane::band_rows`], with two guarantees:
//!
//! 1. **Bit-identical output at any worker count.** Work items are pure
//!    per-row / per-region functions and results are merged in a fixed
//!    deterministic order, so `workers = 1` and `workers = N` produce the
//!    same bytes. The equivalence is enforced by property tests in the
//!    workspace root.
//! 2. **No persistent threads.** Workers are scoped
//!    (`std::thread::scope`), so the engine is `Sync`, has no shutdown
//!    protocol, and `workers = 1` runs inline with zero thread overhead.
//!
//! The engine also accumulates per-worker busy time, which
//! [`crate::metrics::ThroughputMeter`] turns into a utilization figure.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use inframe_frame::plane::band_rows;
use inframe_frame::Plane;

/// Cached machine parallelism. On a single-core box (or one the
/// scheduler has confined to one CPU) spawned band workers only time-
/// slice against each other, so the engine runs its bands inline there.
fn machine_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Minimum per-band element count that amortizes a scoped thread spawn.
/// A spawn+join costs tens of µs; at the ~1 ns/element the band kernels
/// run at, bands below this are faster inline (the measured 4-worker
/// quantized render regression at 1080p came from exactly this).
const SPAWN_GRAIN: usize = 64 * 1024;

/// Minimum per-chunk item count for [`ParallelEngine::map`] /
/// [`ParallelEngine::map_into`] (items are Block demodulations — far
/// heavier than one band element).
const SPAWN_ITEMS: usize = 8;

/// A fixed-width pool of band workers (see module docs).
#[derive(Debug)]
pub struct ParallelEngine {
    workers: usize,
    busy_nanos: AtomicU64,
}

impl ParallelEngine {
    /// Creates an engine with the given worker count (clamped to ≥ 1).
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
            busy_nanos: AtomicU64::new(0),
        }
    }

    /// A single-worker engine: all work runs inline on the calling thread.
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// Worker count from the environment: `INFRAME_WORKERS` if set to a
    /// positive integer, otherwise the machine's available parallelism
    /// (capped at 8 — the pipeline's row bands stop paying off beyond
    /// that at paper-scale frame heights).
    pub fn from_env() -> Self {
        let from_var = std::env::var("INFRAME_WORKERS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&w| w >= 1);
        let workers = from_var.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(8)
        });
        Self::new(workers)
    }

    /// The worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Total busy time accumulated across all workers since creation.
    pub fn busy(&self) -> Duration {
        Duration::from_nanos(self.busy_nanos.load(Ordering::Relaxed))
    }

    fn note(&self, elapsed: Duration) {
        self.busy_nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Whether band work of `per_band_elems` elements justifies spawning
    /// worker threads. Where banding is semantically visible (the indexed
    /// [`ParallelEngine::for_each_row_band2`], whose callers key per-band
    /// scratch off the band index), the non-spawn path still applies the
    /// exact same band partition sequentially. The plane-band methods'
    /// callbacks are pure per-row, so their non-spawn path makes one
    /// full-range call instead — bit-identical output, and it skips the
    /// band bookkeeping that cost the 1080p 4-worker render ~9% against
    /// 1-worker on a single-core machine (where spawning never engages).
    fn spawn_bands(&self, per_band_elems: usize) -> bool {
        self.workers > 1 && machine_cores() > 1 && per_band_elems >= SPAWN_GRAIN
    }

    /// [`ParallelEngine::spawn_bands`] for item-chunked work.
    fn spawn_chunks(&self, items: usize) -> bool {
        self.workers > 1 && machine_cores() > 1 && items / self.workers >= SPAWN_ITEMS
    }

    /// Runs `f` over matching horizontal bands of two same-shaped planes
    /// (the sender's `P⁺`/`P⁻` offset pair). Each invocation receives the
    /// band's row range and the two mutable band slices; bands are
    /// disjoint, so the closure may write freely.
    ///
    /// # Panics
    /// Panics if the planes' shapes differ or a worker panics.
    pub fn for_each_band_pair<F>(&self, a: &mut Plane<f32>, b: &mut Plane<f32>, f: F)
    where
        F: Fn(Range<usize>, &mut [f32], &mut [f32]) + Sync,
    {
        assert_eq!(a.shape(), b.shape(), "band pair must be same-shaped");
        let height = a.height();
        let width = a.width();
        if self.workers == 1
            || height <= 1
            || !self.spawn_bands(height.div_ceil(self.workers) * width * 2)
        {
            let t = Instant::now();
            f(0..height, a.samples_mut(), b.samples_mut());
            self.note(t.elapsed());
            return;
        }
        let bands_a = a.bands_mut(self.workers);
        let bands_b = b.bands_mut(self.workers);
        let f = &f;
        std::thread::scope(|s| {
            for ((range, slice_a), (range_b, slice_b)) in bands_a.into_iter().zip(bands_b) {
                debug_assert_eq!(range, range_b);
                s.spawn(move || {
                    let t = Instant::now();
                    f(range, slice_a, slice_b);
                    self.note(t.elapsed());
                });
            }
        });
    }

    /// Runs `f` over horizontal bands of a single plane — the one-plane
    /// sibling of [`ParallelEngine::for_each_band_pair`], used by the
    /// quantized fused render (video copy + LUT add in one pass).
    ///
    /// # Panics
    /// Panics if a worker panics.
    pub fn for_each_band<F>(&self, plane: &mut Plane<f32>, f: F)
    where
        F: Fn(Range<usize>, &mut [f32]) + Sync,
    {
        let height = plane.height();
        let width = plane.width();
        if self.workers == 1
            || height <= 1
            || !self.spawn_bands(height.div_ceil(self.workers) * width)
        {
            let t = Instant::now();
            f(0..height, plane.samples_mut());
            self.note(t.elapsed());
            return;
        }
        let bands = plane.bands_mut(self.workers);
        let f = &f;
        std::thread::scope(|s| {
            for (range, slice) in bands {
                s.spawn(move || {
                    let t = Instant::now();
                    f(range, slice);
                    self.note(t.elapsed());
                });
            }
        });
    }

    /// Runs `f` over matching row bands of two row-major buffers with
    /// independent element types and strides — the raw-buffer sibling of
    /// [`ParallelEngine::for_each_band_pair`], used by the quantized
    /// receiver front end (capture plane + window sums, then the paired
    /// prefix tables). The closure receives the band's index (stable for
    /// a given height and worker count, so callers can key per-band
    /// scratch off it), its row range, and the two mutable band slices.
    ///
    /// # Panics
    /// Panics if a buffer's length is not `height` times its stride, or a
    /// worker panics.
    pub fn for_each_row_band2<A, B, F>(
        &self,
        height: usize,
        stride_a: usize,
        a: &mut [A],
        stride_b: usize,
        b: &mut [B],
        f: F,
    ) where
        A: Send,
        B: Send,
        F: Fn(usize, Range<usize>, &mut [A], &mut [B]) + Sync,
    {
        assert_eq!(a.len(), height * stride_a, "buffer a must be h × stride");
        assert_eq!(b.len(), height * stride_b, "buffer b must be h × stride");
        if self.workers == 1 || height <= 1 {
            let t = Instant::now();
            f(0, 0..height, a, b);
            self.note(t.elapsed());
            return;
        }
        if !self.spawn_bands(height.div_ceil(self.workers) * (stride_a + stride_b)) {
            let t = Instant::now();
            let mut rest_a = a;
            let mut rest_b = b;
            for (band, range) in band_rows(height, self.workers).into_iter().enumerate() {
                let (band_a, tail_a) = rest_a.split_at_mut(range.len() * stride_a);
                let (band_b, tail_b) = rest_b.split_at_mut(range.len() * stride_b);
                rest_a = tail_a;
                rest_b = tail_b;
                f(band, range, band_a, band_b);
            }
            self.note(t.elapsed());
            return;
        }
        let f = &f;
        std::thread::scope(|s| {
            let mut rest_a = a;
            let mut rest_b = b;
            for (band, range) in band_rows(height, self.workers).into_iter().enumerate() {
                let (band_a, tail_a) = rest_a.split_at_mut(range.len() * stride_a);
                let (band_b, tail_b) = rest_b.split_at_mut(range.len() * stride_b);
                rest_a = tail_a;
                rest_b = tail_b;
                s.spawn(move || {
                    let t = Instant::now();
                    f(band, range, band_a, band_b);
                    self.note(t.elapsed());
                });
            }
        });
    }

    /// Runs `f` over row bands of a single row-major buffer — the
    /// one-buffer sibling of [`ParallelEngine::for_each_row_band2`], used
    /// by the fleet simulator to band-slice over *receivers* rather than
    /// pixel rows (each receiver owns `stride` consecutive elements: its
    /// per-block score row, or a single session slot at stride 1). The
    /// closure receives the band's row range and its mutable band slice;
    /// callbacks must be pure per-row, as the non-spawn path makes one
    /// full-range call.
    ///
    /// # Panics
    /// Panics if `buf.len()` is not `height * stride`, or a worker
    /// panics.
    pub fn for_each_row_band<T, F>(&self, height: usize, stride: usize, buf: &mut [T], f: F)
    where
        T: Send,
        F: Fn(Range<usize>, &mut [T]) + Sync,
    {
        assert_eq!(buf.len(), height * stride, "buffer must be h × stride");
        if self.workers == 1
            || height <= 1
            || !self.spawn_bands(height.div_ceil(self.workers) * stride)
        {
            let t = Instant::now();
            f(0..height, buf);
            self.note(t.elapsed());
            return;
        }
        let f = &f;
        std::thread::scope(|s| {
            let mut rest = buf;
            for range in band_rows(height, self.workers) {
                let (band, tail) = rest.split_at_mut(range.len() * stride);
                rest = tail;
                s.spawn(move || {
                    let t = Instant::now();
                    f(range, band);
                    self.note(t.elapsed());
                });
            }
        });
    }

    /// Zero-allocation sibling of [`ParallelEngine::map`]: maps `f` over
    /// `items` **into** a caller-provided slice, chunked with the same
    /// deterministic band partition (results land at their item's index,
    /// so output is identical for every worker count). The streaming
    /// demultiplexer keeps one score buffer alive across captures and
    /// refills it through this method — the last per-frame allocation of
    /// the demux hot path.
    ///
    /// # Panics
    /// Panics if `out.len() != items.len()` or a worker panics.
    pub fn map_into<I, O, F>(&self, items: &[I], out: &mut [O], f: F)
    where
        I: Sync,
        O: Send,
        F: Fn(usize, &I) -> O + Sync,
    {
        assert_eq!(
            items.len(),
            out.len(),
            "map_into output must match item count"
        );
        if !self.spawn_chunks(items.len()) {
            let t = Instant::now();
            for (i, (o, it)) in out.iter_mut().zip(items).enumerate() {
                *o = f(i, it);
            }
            self.note(t.elapsed());
            return;
        }
        let chunks = band_rows(items.len(), self.workers);
        let f = &f;
        std::thread::scope(|s| {
            let mut rest = out;
            for range in chunks {
                let (chunk, tail) = rest.split_at_mut(range.len());
                rest = tail;
                s.spawn(move || {
                    let t = Instant::now();
                    for (o, i) in chunk.iter_mut().zip(range) {
                        *o = f(i, &items[i]);
                    }
                    self.note(t.elapsed());
                });
            }
        });
    }

    /// Maps `f` over `items` and returns the results **in input order**
    /// regardless of worker scheduling (each worker owns one contiguous
    /// chunk; chunks are concatenated in index order).
    ///
    /// # Panics
    /// Panics if a worker panics.
    pub fn map<I, O, F>(&self, items: &[I], f: F) -> Vec<O>
    where
        I: Sync,
        O: Send,
        F: Fn(usize, &I) -> O + Sync,
    {
        if !self.spawn_chunks(items.len()) {
            let t = Instant::now();
            let out = items.iter().enumerate().map(|(i, it)| f(i, it)).collect();
            self.note(t.elapsed());
            return out;
        }
        let chunks = band_rows(items.len(), self.workers);
        let f = &f;
        std::thread::scope(|s| {
            let handles: Vec<_> = chunks
                .into_iter()
                .map(|r| {
                    s.spawn(move || {
                        let t = Instant::now();
                        let out: Vec<O> = r.map(|i| f(i, &items[i])).collect();
                        self.note(t.elapsed());
                        out
                    })
                })
                .collect();
            let mut out = Vec::with_capacity(items.len());
            for h in handles {
                out.extend(h.join().expect("map worker must not panic"));
            }
            out
        })
    }
}

impl Default for ParallelEngine {
    fn default() -> Self {
        Self::from_env()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_count_is_clamped() {
        assert_eq!(ParallelEngine::new(0).workers(), 1);
        assert_eq!(ParallelEngine::new(3).workers(), 3);
        assert_eq!(ParallelEngine::sequential().workers(), 1);
    }

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<u32> = (0..103).collect();
        for workers in [1usize, 2, 3, 7] {
            let engine = ParallelEngine::new(workers);
            let out = engine.map(&items, |i, &v| {
                assert_eq!(i as u32, v);
                v * 2
            });
            let expect: Vec<u32> = items.iter().map(|v| v * 2).collect();
            assert_eq!(out, expect, "workers = {workers}");
        }
    }

    #[test]
    fn map_handles_fewer_items_than_workers() {
        let engine = ParallelEngine::new(8);
        assert_eq!(engine.map(&[10, 20], |_, &v| v + 1), vec![11, 21]);
        assert_eq!(engine.map(&[] as &[i32], |_, &v| v), Vec::<i32>::new());
    }

    #[test]
    fn map_into_matches_map_for_every_worker_count() {
        let items: Vec<u32> = (0..97).collect();
        let reference = ParallelEngine::new(1).map(&items, |i, &v| v * 3 + i as u32);
        for workers in [1usize, 2, 3, 5, 8] {
            let engine = ParallelEngine::new(workers);
            let mut out = vec![0u32; items.len()];
            engine.map_into(&items, &mut out, |i, &v| v * 3 + i as u32);
            assert_eq!(out, reference, "workers = {workers}");
        }
    }

    #[test]
    #[should_panic(expected = "map_into output must match item count")]
    fn map_into_rejects_mismatched_output() {
        let engine = ParallelEngine::new(2);
        let mut out = vec![0u32; 3];
        engine.map_into(&[1u32, 2], &mut out, |_, &v| v);
    }

    #[test]
    fn single_band_writes_are_identical_across_worker_counts() {
        let render = |workers: usize| {
            let engine = ParallelEngine::new(workers);
            let mut p = Plane::filled(5, 19, 0.0);
            engine.for_each_band(&mut p, |rows, slice| {
                for (i, v) in slice.iter_mut().enumerate() {
                    let y = rows.start + i / 5;
                    let x = i % 5;
                    *v = (y * 13 + x * 7) as f32;
                }
            });
            p
        };
        let reference = render(1);
        for workers in [2usize, 3, 6] {
            assert_eq!(render(workers), reference, "workers = {workers}");
        }
    }

    #[test]
    fn band_pair_writes_are_identical_across_worker_counts() {
        let render = |workers: usize| {
            let engine = ParallelEngine::new(workers);
            let mut a = Plane::filled(7, 23, 0.0);
            let mut b = Plane::filled(7, 23, 0.0);
            engine.for_each_band_pair(&mut a, &mut b, |rows, sa, sb| {
                for (i, (va, vb)) in sa.iter_mut().zip(sb.iter_mut()).enumerate() {
                    let y = rows.start + i / 7;
                    let x = i % 7;
                    *va = (y * 31 + x) as f32;
                    *vb = (y * 7 + x * 3) as f32;
                }
            });
            (a, b)
        };
        let (a1, b1) = render(1);
        for workers in [2usize, 3, 5] {
            let (a, b) = render(workers);
            assert_eq!(a, a1, "plus plane, workers = {workers}");
            assert_eq!(b, b1, "minus plane, workers = {workers}");
        }
    }

    #[test]
    fn row_band_writes_are_identical_across_worker_counts() {
        let run = |workers: usize| {
            let engine = ParallelEngine::new(workers);
            let mut buf = vec![0u64; 29 * 3];
            engine.for_each_row_band(29, 3, &mut buf, |rows, band| {
                for (i, v) in band.iter_mut().enumerate() {
                    let row = rows.start + i / 3;
                    *v = (row * 100 + i % 3) as u64;
                }
            });
            buf
        };
        let reference = run(1);
        for workers in [2usize, 4, 7] {
            assert_eq!(run(workers), reference, "workers = {workers}");
        }
    }

    #[test]
    #[should_panic(expected = "buffer must be h × stride")]
    fn row_band_rejects_mismatched_buffer() {
        let engine = ParallelEngine::new(2);
        let mut buf = vec![0u8; 10];
        engine.for_each_row_band(3, 4, &mut buf, |_, _| {});
    }

    #[test]
    fn busy_time_accumulates() {
        let engine = ParallelEngine::new(2);
        let items: Vec<u64> = (0..64).collect();
        let _ = engine.map(&items, |_, &v| {
            // Some actual work so the timer registers.
            (0..200u64).fold(v, |acc, i| acc.wrapping_mul(31).wrapping_add(i))
        });
        assert!(engine.busy() > Duration::ZERO);
    }
}
