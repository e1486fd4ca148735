//! A fixed-geometry frame arena: checkout/return of `Plane<f32>` buffers
//! with zero steady-state heap allocations.
//!
//! The sender emits one display-sized plane per frame (120 per second at
//! paper scale — each 1920×1080×4 bytes). Allocating and freeing those on
//! the general heap costs page faults and allocator traffic that dwarf the
//! actual pixel math once rendering is banded across workers. A
//! [`FramePool`] keeps returned buffers on a free list keyed to one fixed
//! geometry, so after warm-up every checkout is a pop and every drop is a
//! push — no allocator involvement at all.
//!
//! Handles are *generation-checked*: [`FramePool::reset`] bumps the pool
//! generation, after which buffers still held by stale [`PooledPlane`]
//! handles are quietly dropped on return instead of re-entering the free
//! list. This makes reconfiguration (e.g. switching display geometry)
//! safe without tracking outstanding handles.

use crate::plane::Plane;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

/// Counters describing pool behaviour — the basis of the pipeline's
/// zero-allocation assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Planes ever allocated by this pool (monotone; constant once the
    /// pipeline reaches steady state).
    pub allocated: u64,
    /// Total checkouts served.
    pub checkouts: u64,
    /// Checkouts served from the free list (no allocation).
    pub reused: u64,
    /// Buffers returned to the free list by dropped handles.
    pub returned: u64,
    /// Handles currently outstanding.
    pub live: u64,
    /// Buffers currently parked on the free list.
    pub free: u64,
}

#[derive(Debug)]
struct PoolInner {
    width: usize,
    height: usize,
    generation: AtomicU64,
    free: Mutex<Vec<Plane<f32>>>,
    allocated: AtomicU64,
    checkouts: AtomicU64,
    reused: AtomicU64,
    returned: AtomicU64,
    live: AtomicU64,
}

/// A pool of same-shaped `Plane<f32>` buffers.
///
/// Cloning the pool clones the *handle*: both clones share one free list.
#[derive(Debug, Clone)]
pub struct FramePool {
    inner: Arc<PoolInner>,
}

impl FramePool {
    /// Creates an empty pool for `width × height` planes.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "pool dimensions must be nonzero");
        Self {
            inner: Arc::new(PoolInner {
                width,
                height,
                generation: AtomicU64::new(0),
                free: Mutex::new(Vec::new()),
                allocated: AtomicU64::new(0),
                checkouts: AtomicU64::new(0),
                reused: AtomicU64::new(0),
                returned: AtomicU64::new(0),
                live: AtomicU64::new(0),
            }),
        }
    }

    /// The plane geometry this pool serves.
    pub fn shape(&self) -> (usize, usize) {
        (self.inner.width, self.inner.height)
    }

    /// Checks out a zero-filled plane, reusing a returned buffer when one
    /// is available.
    pub fn checkout(&self) -> PooledPlane {
        let mut plane = self.checkout_for_overwrite();
        plane.samples_mut().fill(0.0);
        plane
    }

    /// Checks out a plane whose samples are unspecified: a reused buffer
    /// keeps whatever its last holder wrote. For callers that overwrite
    /// every sample, this skips [`FramePool::checkout`]'s zero fill.
    pub fn checkout_for_overwrite(&self) -> PooledPlane {
        let recycled = self
            .inner
            .free
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop();
        let plane = match recycled {
            Some(p) => {
                self.inner.reused.fetch_add(1, Ordering::Relaxed);
                p
            }
            None => {
                self.inner.allocated.fetch_add(1, Ordering::Relaxed);
                Plane::filled(self.inner.width, self.inner.height, 0.0)
            }
        };
        self.inner.checkouts.fetch_add(1, Ordering::Relaxed);
        self.inner.live.fetch_add(1, Ordering::Relaxed);
        PooledPlane {
            plane: Some(plane),
            pool: Arc::downgrade(&self.inner),
            generation: self.inner.generation.load(Ordering::Acquire),
        }
    }

    /// Invalidates all outstanding handles and empties the free list.
    /// Stale handles keep working as plain planes; they just no longer
    /// return their buffer here.
    pub fn reset(&self) {
        self.inner.generation.fetch_add(1, Ordering::AcqRel);
        self.inner
            .free
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
    }

    /// Current counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            allocated: self.inner.allocated.load(Ordering::Relaxed),
            checkouts: self.inner.checkouts.load(Ordering::Relaxed),
            reused: self.inner.reused.load(Ordering::Relaxed),
            returned: self.inner.returned.load(Ordering::Relaxed),
            live: self.inner.live.load(Ordering::Relaxed),
            free: self
                .inner
                .free
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .len() as u64,
        }
    }
}

/// A checkout handle: derefs to `Plane<f32>` and returns the buffer to its
/// pool on drop (when the pool is alive and the generation still matches).
#[derive(Debug)]
pub struct PooledPlane {
    plane: Option<Plane<f32>>,
    pool: Weak<PoolInner>,
    generation: u64,
}

impl PooledPlane {
    /// Wraps a free-standing plane in a detached handle (never returns to
    /// any pool). Useful for code paths that must produce a `PooledPlane`
    /// without a pool in scope.
    pub fn detached(plane: Plane<f32>) -> Self {
        Self {
            plane: Some(plane),
            pool: Weak::new(),
            generation: 0,
        }
    }
}

impl std::ops::Deref for PooledPlane {
    type Target = Plane<f32>;
    fn deref(&self) -> &Plane<f32> {
        self.plane.as_ref().expect("plane present until drop")
    }
}

impl std::ops::DerefMut for PooledPlane {
    fn deref_mut(&mut self) -> &mut Plane<f32> {
        self.plane.as_mut().expect("plane present until drop")
    }
}

/// Cloning copies the pixels into a *detached* handle: the clone never
/// returns to the pool, so a buffer can never be double-returned.
impl Clone for PooledPlane {
    fn clone(&self) -> Self {
        Self::detached((**self).clone())
    }
}

impl PartialEq for PooledPlane {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl PartialEq<Plane<f32>> for PooledPlane {
    fn eq(&self, other: &Plane<f32>) -> bool {
        **self == *other
    }
}

impl PartialEq<PooledPlane> for Plane<f32> {
    fn eq(&self, other: &PooledPlane) -> bool {
        *self == **other
    }
}

impl Drop for PooledPlane {
    fn drop(&mut self) {
        let Some(plane) = self.plane.take() else {
            return;
        };
        let Some(inner) = self.pool.upgrade() else {
            return;
        };
        inner.live.fetch_sub(1, Ordering::Relaxed);
        if self.generation != inner.generation.load(Ordering::Acquire)
            || plane.shape() != (inner.width, inner.height)
        {
            return; // stale handle: buffer is simply freed
        }
        inner
            .free
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(plane);
        inner.returned.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_allocates_then_reuses() {
        let pool = FramePool::new(8, 4);
        let a = pool.checkout();
        assert_eq!(a.shape(), (8, 4));
        drop(a);
        let stats = pool.stats();
        assert_eq!(stats.allocated, 1);
        assert_eq!(stats.returned, 1);
        let b = pool.checkout();
        let stats = pool.stats();
        assert_eq!(stats.allocated, 1, "second checkout must reuse");
        assert_eq!(stats.reused, 1);
        assert_eq!(stats.live, 1);
        drop(b);
    }

    #[test]
    fn concurrent_checkouts_get_distinct_buffers() {
        let pool = FramePool::new(4, 4);
        let mut a = pool.checkout();
        let mut b = pool.checkout();
        a.put(0, 0, 1.0);
        b.put(0, 0, 2.0);
        assert_eq!(a.get(0, 0), 1.0);
        assert_eq!(b.get(0, 0), 2.0);
        assert_eq!(pool.stats().live, 2);
        assert_eq!(pool.stats().allocated, 2);
    }

    #[test]
    fn reused_buffers_come_back_zeroed() {
        let pool = FramePool::new(4, 4);
        let mut a = pool.checkout();
        a.put(2, 2, 9.0);
        drop(a);
        let b = pool.checkout();
        assert_eq!(b.get(2, 2), 0.0);
    }

    #[test]
    fn overwrite_checkout_skips_the_zero_fill() {
        let pool = FramePool::new(4, 4);
        assert_eq!(
            pool.checkout_for_overwrite().get(1, 1),
            0.0,
            "fresh is zeroed"
        );
        let mut a = pool.checkout();
        a.put(1, 1, 9.0);
        drop(a);
        let b = pool.checkout_for_overwrite();
        assert_eq!(b.get(1, 1), 9.0);
        assert_eq!(pool.stats().allocated, 1);
        assert_eq!(pool.stats().reused, 2);
    }

    #[test]
    fn reset_invalidates_outstanding_handles() {
        let pool = FramePool::new(4, 4);
        let a = pool.checkout();
        pool.reset();
        drop(a); // stale generation: must NOT re-enter the free list
        assert_eq!(pool.stats().free, 0);
        let b = pool.checkout();
        assert_eq!(pool.stats().allocated, 2, "post-reset checkout allocates");
        drop(b);
        assert_eq!(pool.stats().free, 1, "current-generation return works");
    }

    #[test]
    fn clone_is_detached() {
        let pool = FramePool::new(4, 4);
        let a = pool.checkout();
        let c = a.clone();
        drop(c);
        assert_eq!(pool.stats().returned, 0, "clone must not return to pool");
        drop(a);
        assert_eq!(pool.stats().returned, 1);
    }

    #[test]
    fn pool_drop_orphans_handles_safely() {
        let pool = FramePool::new(4, 4);
        let a = pool.checkout();
        drop(pool);
        assert_eq!(a.shape(), (4, 4)); // handle still usable
        drop(a); // no pool to return to — must not panic
    }
}
