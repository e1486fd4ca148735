//! The band-sliced worker engine behind the streaming pipeline.
//!
//! Every pixel stage of the system is parallel over rows: the sender's
//! chessboard render and the display's emission write each row once,
//! the camera's rolling-shutter bands write disjoint sensor rows, and
//! the receiver's block scoring reads disjoint sensor regions. A
//! [`ParallelEngine`] partitions that work across scoped worker threads
//! using the canonical band partition of [`crate::plane::band_rows`],
//! with three guarantees:
//!
//! 1. **Bit-identical output at any worker count.** Work items are pure
//!    per-row / per-region functions and results are merged in a fixed
//!    deterministic order, so `workers = 1` and `workers = N` produce the
//!    same bytes. The equivalence is enforced by property tests in the
//!    workspace root.
//! 2. **No persistent threads.** Workers are scoped
//!    (`std::thread::scope`), so the engine is `Sync`, has no shutdown
//!    protocol, and `workers = 1` runs inline with zero thread overhead.
//! 3. **The caller works too.** A spawning call starts `workers − 1`
//!    scoped threads for the leading bands and runs the last band on the
//!    calling thread, so no core idles in a join while a band waits for
//!    one. Bands are pure, so who runs which band changes no output.
//!
//! The engine also accumulates per-worker busy time, which the core
//! crate's `ThroughputMeter` turns into a utilization figure.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::plane::band_rows;
use crate::Plane;

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

/// Minimum per-band element count that amortizes a scoped thread
/// spawn. A spawn+join costs tens of µs; at the ~1 ns/element the band
/// kernels run at, bands below this are faster inline (the measured
/// 4-worker quantized render regression at 1080p came from exactly this).
const SPAWN_GRAIN: usize = 64 * 1024;

/// Minimum per-chunk item count for [`ParallelEngine::map_into`] (items
/// are Block demodulations — far heavier than one band element).
const SPAWN_ITEMS: usize = 8;

/// Splits a row-major buffer of `stride`-wide rows into the given
/// consecutive row ranges, pairing each range with its slice.
fn split_rows<T>(
    buf: &mut [T],
    stride: usize,
    ranges: impl Iterator<Item = Range<usize>>,
) -> impl Iterator<Item = (Range<usize>, &mut [T])> {
    let mut rest = buf;
    ranges.map(move |range| {
        let (band, tail) = std::mem::take(&mut rest).split_at_mut(range.len() * stride);
        rest = tail;
        (range, band)
    })
}

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

    /// Runs `f` and adds its wall time to the busy total.
    fn timed<R>(&self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = f();
        self.busy_nanos
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }

    /// Runs `job` on every element of `jobs`: all but the last on scoped
    /// worker threads, the last on the calling thread, which then joins
    /// the rest.
    ///
    /// # Panics
    /// Panics if a job panics.
    fn scatter<J: Send>(&self, jobs: impl Iterator<Item = J>, job: impl Fn(J) + Sync) {
        let job = &job;
        std::thread::scope(|s| {
            let mut jobs = jobs.peekable();
            while let Some(j) = jobs.next() {
                if jobs.peek().is_some() {
                    s.spawn(move || self.timed(|| job(j)));
                } else {
                    self.timed(|| job(j));
                }
            }
        });
    }

    /// Whether `height` rows of `per_row_elems` elements each, split into
    /// one band per worker, justify spawning worker threads. Where banding
    /// is semantically visible (the indexed
    /// [`ParallelEngine::for_each_row_band2`], whose callers key per-band
    /// scratch off the band index), the non-spawn path still applies the
    /// exact same band partition sequentially. The other band methods'
    /// callbacks are pure per-row, so their non-spawn path makes one
    /// full-range call instead — bit-identical output, and it skips the
    /// band bookkeeping that cost the 1080p 4-worker render ~9% against
    /// 1-worker on a single-core machine (where spawning never engages).
    fn spawn_bands(&self, height: usize, per_row_elems: usize) -> bool {
        self.workers > 1
            && height > 1
            && machine_cores() > 1
            && height.div_ceil(self.workers) * per_row_elems >= SPAWN_GRAIN
    }

    /// Runs `f` over matching horizontal bands of two same-shaped planes
    /// (the sender's `P⁺`/`P⁻` offset pair, the display's target and
    /// attained planes). Each invocation receives the band's row range
    /// and the two mutable band slices; bands are disjoint, so the closure
    /// may write freely. The closure must be pure per row: without
    /// spawning it is called once over all rows.
    ///
    /// # Panics
    /// Panics if the planes' shapes differ or a worker panics.
    pub fn for_each_band_pair<F>(&self, a: &mut Plane<f32>, b: &mut Plane<f32>, f: F)
    where
        F: Fn(Range<usize>, &mut [f32], &mut [f32]) + Sync,
    {
        assert_eq!(a.shape(), b.shape(), "band pair must be same-shaped");
        let (width, height) = a.shape();
        if !self.spawn_bands(height, width * 2) {
            self.timed(|| f(0..height, a.samples_mut(), b.samples_mut()));
            return;
        }
        let ranges = band_rows(height, self.workers);
        let bands_a = split_rows(a.samples_mut(), width, ranges.clone());
        let bands_b = split_rows(b.samples_mut(), width, ranges);
        self.scatter(bands_a.zip(bands_b), |((rows, sa), (_, sb))| {
            f(rows, sa, sb)
        });
    }

    /// Runs `f` over horizontal bands of a single plane — the one-plane
    /// sibling of [`ParallelEngine::for_each_band_pair`], used by the
    /// quantized fused render and the camera's blur and noise passes.
    ///
    /// # Panics
    /// Panics if a worker panics.
    pub fn for_each_band<F>(&self, plane: &mut Plane<f32>, f: F)
    where
        F: Fn(Range<usize>, &mut [f32]) + Sync,
    {
        let (width, height) = plane.shape();
        self.for_each_row_band(height, width, plane.samples_mut(), f);
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
            self.timed(|| f(0, 0..height, a, b));
            return;
        }
        let ranges = band_rows(height, self.workers);
        let bands_a = split_rows(a, stride_a, ranges.clone());
        let bands = bands_a.zip(split_rows(b, stride_b, ranges)).enumerate();
        let job = |(band, ((rows, band_a), (_, band_b)))| f(band, rows, band_a, band_b);
        if self.spawn_bands(height, stride_a + stride_b) {
            self.scatter(bands, job);
        } else {
            self.timed(|| bands.for_each(job));
        }
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
        if !self.spawn_bands(height, stride) {
            self.timed(|| f(0..height, buf));
            return;
        }
        let bands = split_rows(buf, stride, band_rows(height, self.workers));
        self.scatter(bands, |(rows, band)| f(rows, band));
    }

    /// Runs `f` over `items` work items that each own a run of rows of a
    /// row-major buffer: item `i` owns rows `row_of(i)..row_of(i + 1)`,
    /// where `row_of(0) = 0`, `row_of` is non-decreasing and
    /// `row_of(items)` is the buffer's row count. The items are split into
    /// one contiguous chunk per worker (the canonical partition of
    /// `items`); each call receives its item range, the rows those items
    /// own, and exclusive use of one `scratch` element. The camera runs
    /// its rolling-shutter bands through this, with a per-worker
    /// integration buffer as the scratch. The closure must be pure per
    /// item: without spawning it is called once over all items with
    /// `scratch[0]`.
    ///
    /// # Panics
    /// Panics if `row_of(0)` is not 0, `buf.len()` is not
    /// `row_of(items) * stride`, `scratch` is empty or shorter than the
    /// number of chunks, or a worker panics.
    pub fn for_each_item_rows<T, S, F>(
        &self,
        items: usize,
        row_of: impl Fn(usize) -> usize,
        stride: usize,
        buf: &mut [T],
        scratch: &mut [S],
        f: F,
    ) where
        T: Send,
        S: Send,
        F: Fn(Range<usize>, &mut [T], &mut S) + Sync,
    {
        let height = row_of(items);
        assert_eq!(row_of(0), 0, "item 0 must start at row 0");
        assert_eq!(buf.len(), height * stride, "buffer must be h × stride");
        assert!(!scratch.is_empty(), "need scratch for at least one worker");
        if items <= 1 || !self.spawn_bands(height, stride) {
            self.timed(|| f(0..items, buf, &mut scratch[0]));
            return;
        }
        let chunks = band_rows(items, self.workers);
        assert!(
            scratch.len() >= chunks.len(),
            "need scratch for every worker"
        );
        let rows = chunks.clone().map(|c| row_of(c.start)..row_of(c.end));
        let bands = chunks.zip(split_rows(buf, stride, rows));
        self.scatter(bands.zip(scratch), |((chunk, (_, band)), s)| {
            f(chunk, band, s)
        });
    }

    /// Maps `f` over `items` **into** a caller-provided slice, chunked
    /// with the same deterministic band partition (results land at their
    /// item's index, so output is identical for every worker count). The
    /// streaming demultiplexer keeps one score buffer alive across
    /// captures and refills it through this method, so scoring a capture
    /// allocates nothing.
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
        let fill = |range: Range<usize>, chunk: &mut [O]| {
            for (o, i) in chunk.iter_mut().zip(range) {
                *o = f(i, &items[i]);
            }
        };
        if !(self.workers > 1 && machine_cores() > 1 && items.len() / self.workers >= SPAWN_ITEMS) {
            self.timed(|| fill(0..items.len(), out));
            return;
        }
        let chunks = split_rows(out, 1, band_rows(items.len(), self.workers));
        self.scatter(chunks, |(range, chunk)| fill(range, chunk));
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
    use std::sync::Mutex;
    use std::thread::ThreadId;

    /// A row width at which `height` rows split into `workers` bands reach
    /// the spawn grain, so the band methods really spawn (fewer workers
    /// make taller bands, which spawn too).
    fn spawning_width(height: usize, workers: usize) -> usize {
        SPAWN_GRAIN.div_ceil(height.div_ceil(workers))
    }

    #[test]
    fn worker_count_is_clamped() {
        assert_eq!(ParallelEngine::new(0).workers(), 1);
        assert_eq!(ParallelEngine::new(3).workers(), 3);
        assert_eq!(ParallelEngine::sequential().workers(), 1);
    }

    #[test]
    fn map_into_is_identical_for_every_worker_count() {
        let items: Vec<u32> = (0..97).collect();
        let reference: Vec<u32> = items
            .iter()
            .enumerate()
            .map(|(i, &v)| v * 3 + i as u32)
            .collect();
        for workers in [1usize, 2, 3, 5, 8] {
            let engine = ParallelEngine::new(workers);
            let mut out = vec![0u32; items.len()];
            engine.map_into(&items, &mut out, |i, &v| v * 3 + i as u32);
            assert_eq!(out, reference, "workers = {workers}");
        }
    }

    #[test]
    fn map_into_handles_fewer_items_than_workers() {
        let engine = ParallelEngine::new(8);
        let mut out = [0; 2];
        engine.map_into(&[10, 20], &mut out, |_, &v| v + 1);
        assert_eq!(out, [11, 21]);
        engine.map_into(&[] as &[i32], &mut [], |_, &v| v);
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
        let width = spawning_width(19, 6);
        let render = |engine: ParallelEngine| {
            let mut p = Plane::filled(width, 19, 0.0);
            engine.for_each_band(&mut p, |rows, slice| {
                for (i, v) in slice.iter_mut().enumerate() {
                    let y = rows.start + i / width;
                    let x = i % width;
                    *v = (y * 13 + x * 7) as f32;
                }
            });
            p
        };
        let reference = render(ParallelEngine::new(1));
        for workers in [2usize, 3, 6] {
            let got = render(ParallelEngine::new(workers));
            assert!(got == reference, "workers = {workers}");
        }
    }

    #[test]
    fn band_pair_writes_are_identical_across_worker_counts() {
        let width = spawning_width(23, 5);
        let render = |engine: ParallelEngine| {
            let mut a = Plane::filled(width, 23, 0.0);
            let mut b = Plane::filled(width, 23, 0.0);
            engine.for_each_band_pair(&mut a, &mut b, |rows, sa, sb| {
                for (i, (va, vb)) in sa.iter_mut().zip(sb.iter_mut()).enumerate() {
                    let y = rows.start + i / width;
                    let x = i % width;
                    *va = (y * 31 + x) as f32;
                    *vb = (y * 7 + x * 3) as f32;
                }
            });
            (a, b)
        };
        let (a1, b1) = render(ParallelEngine::new(1));
        for workers in [2usize, 3, 5] {
            let (a, b) = render(ParallelEngine::new(workers));
            assert!(a == a1, "plus plane, workers = {workers}");
            assert!(b == b1, "minus plane, workers = {workers}");
        }
    }

    #[test]
    fn row_band_writes_are_identical_across_worker_counts() {
        let stride = spawning_width(29, 7);
        let run = |engine: ParallelEngine| {
            let mut buf = vec![0u32; 29 * stride];
            engine.for_each_row_band(29, stride, &mut buf, |rows, band| {
                for (i, v) in band.iter_mut().enumerate() {
                    let row = rows.start + i / stride;
                    *v = (row * 100_000 + i % stride) as u32;
                }
            });
            buf
        };
        let reference = run(ParallelEngine::new(1));
        for workers in [2usize, 4, 7] {
            let got = run(ParallelEngine::new(workers));
            assert!(got == reference, "workers = {workers}");
        }
    }

    #[test]
    fn indexed_row_bands_see_the_same_partition_spawned_or_not() {
        // Each band fills its rows with its index and first row; a narrow
        // buffer runs the bands inline, a wide one spawns them.
        let want: Vec<usize> = band_rows(11, 3)
            .enumerate()
            .flat_map(|(band, rows)| rows.clone().map(move |_| band * 100 + rows.start))
            .collect();
        let engine = ParallelEngine::new(3);
        for stride in [2, spawning_width(11, 3)] {
            let mut a = vec![0usize; 11 * stride];
            let mut b = vec![0usize; 11];
            engine.for_each_row_band2(11, stride, &mut a, 1, &mut b, |band, rows, sa, sb| {
                sa.fill(band * 100 + rows.start);
                sb.fill(band * 100 + rows.start);
            });
            assert_eq!(b, want, "stride {stride}");
            let rows: Vec<usize> = a.chunks(stride).map(|row| row[0]).collect();
            assert_eq!(rows, want, "stride {stride}");
            assert!(a.chunks(stride).all(|row| row.iter().all(|&v| v == row[0])));
        }
    }

    #[test]
    fn item_rows_give_each_chunk_its_rows_and_scratch() {
        // Item i owns i % 3 rows (some own none).
        let row_of = |i: usize| (0..i).map(|j| j % 3).sum::<usize>();
        let items = 10;
        let stride = spawning_width(row_of(items), 4);
        let run = |engine: ParallelEngine| {
            let mut buf = vec![0u8; row_of(items) * stride];
            let mut scratch = vec![Vec::new(); engine.workers()];
            engine.for_each_item_rows(
                items,
                row_of,
                stride,
                &mut buf,
                &mut scratch,
                |chunk, band, s| {
                    let mut rest = band;
                    for i in chunk {
                        s.push(i);
                        let (own, tail) = std::mem::take(&mut rest).split_at_mut((i % 3) * stride);
                        own.fill(i as u8);
                        rest = tail;
                    }
                    assert!(rest.is_empty(), "band holds exactly its items' rows");
                },
            );
            (buf, scratch.concat())
        };
        let (want, order) = run(ParallelEngine::new(1));
        assert_eq!(order, (0..10).collect::<Vec<_>>());
        for workers in [2usize, 3, 4] {
            let (got, order) = run(ParallelEngine::new(workers));
            assert!(got == want, "workers = {workers}");
            assert_eq!(order, (0..10).collect::<Vec<_>>(), "one chunk per scratch");
        }
    }

    #[test]
    fn caller_runs_the_last_band() {
        if machine_cores() < 2 {
            return; // the engine never spawns on one core
        }
        let engine = ParallelEngine::new(3);
        let seen = Mutex::new(Vec::<(usize, ThreadId)>::new());
        let stride = spawning_width(9, 3);
        let mut buf = vec![0u8; 9 * stride];
        engine.for_each_row_band(9, stride, &mut buf, |rows, _| {
            let me = std::thread::current().id();
            seen.lock().unwrap().push((rows.start, me));
        });
        let mut seen = seen.into_inner().unwrap();
        seen.sort_by_key(|&(row, _)| row);
        assert_eq!(seen.len(), 3);
        let caller = std::thread::current().id();
        assert_eq!(seen[2].1, caller, "last band runs on the caller");
        assert!(seen[..2].iter().all(|&(_, id)| id != caller));
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
        let mut out = vec![0u64; items.len()];
        engine.map_into(&items, &mut out, |_, &v| {
            // Some actual work so the timer registers.
            (0..200u64).fold(v, |acc, i| acc.wrapping_mul(31).wrapping_add(i))
        });
        assert!(engine.busy() > Duration::ZERO);
    }
}
