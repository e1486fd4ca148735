//! The flight recorder: a fixed-capacity ring of the most recent events,
//! snapshotted automatically at the moment a lock loss is recorded.
//!
//! Post-mortem debugging of a screen–camera link needs the events
//! *leading up to* a failure, not the failure alone: which fault window
//! was open, how the phase tracker degraded through SUSPECT, what the
//! controller commanded. The recorder keeps the last N events in a
//! pre-allocated ring (no allocation per event) and, whenever an event
//! with [`crate::Event::is_lock_loss`] lands, copies the ring into a
//! `last_dump` buffer — so the context of the **first** failure survives
//! even if the ring keeps rolling afterwards. [`FlightRecorder::dump`]
//! reads the live ring at any time.

use std::sync::Mutex;

use crate::event::EventRecord;

/// Default ring capacity — at the paper's 12-frames-per-cycle rate and a
/// handful of events per cycle this holds several dozen cycles of
/// history.
pub const DEFAULT_RECORDER_CAPACITY: usize = 256;

#[derive(Debug)]
struct Ring {
    slots: Vec<EventRecord>,
    capacity: usize,
    /// Next write position.
    head: usize,
    /// Number of valid slots (≤ capacity).
    len: usize,
}

impl Ring {
    fn push(&mut self, rec: EventRecord) {
        if self.len < self.capacity {
            self.slots.push(rec);
            self.len += 1;
        } else {
            self.slots[self.head] = rec;
        }
        self.head = (self.head + 1) % self.capacity;
    }

    /// Copies the ring contents into `out` in recording order.
    fn snapshot_into(&self, out: &mut Vec<EventRecord>) {
        out.clear();
        if self.len < self.capacity {
            out.extend_from_slice(&self.slots);
        } else {
            out.extend_from_slice(&self.slots[self.head..]);
            out.extend_from_slice(&self.slots[..self.head]);
        }
    }
}

/// Ring buffer of recent [`EventRecord`]s with automatic dump-on-lock-loss.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: Mutex<Ring>,
    last_dump: Mutex<Vec<EventRecord>>,
}

impl FlightRecorder {
    /// Creates a recorder holding the last `capacity` events (clamped to
    /// ≥ 1). All storage is allocated up front.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            ring: Mutex::new(Ring {
                slots: Vec::with_capacity(capacity),
                capacity,
                head: 0,
                len: 0,
            }),
            last_dump: Mutex::new(Vec::with_capacity(capacity)),
        }
    }

    /// Appends one event; if it marks a dump trigger (lock loss or a
    /// decode-watchdog expiry), snapshots the ring (including this
    /// event) into the last-dump buffer.
    ///
    /// The hot path never blocks: when another thread holds the ring
    /// (a concurrent `dump` or recording), the event is **dropped** and
    /// `false` returned so the caller can count it — a truncated
    /// forensics dump must be detectable (`obs.recorder.dropped` in the
    /// summary), not silent.
    pub fn record(&self, rec: EventRecord) -> bool {
        let is_loss = rec.event.is_dump_trigger();
        let Ok(mut ring) = self.ring.try_lock() else {
            return false;
        };
        ring.push(rec);
        if is_loss {
            let mut dump = self.last_dump.lock().expect("recorder dump poisoned");
            ring.snapshot_into(&mut dump);
        }
        true
    }

    /// The current ring contents, oldest first.
    pub fn dump(&self) -> Vec<EventRecord> {
        let ring = self.ring.lock().expect("recorder ring poisoned");
        let mut out = Vec::with_capacity(ring.len);
        ring.snapshot_into(&mut out);
        out
    }

    /// The snapshot taken at the most recent lock loss (empty if none
    /// has occurred).
    pub fn last_lock_loss_dump(&self) -> Vec<EventRecord> {
        self.last_dump
            .lock()
            .expect("recorder dump poisoned")
            .clone()
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.ring.lock().expect("recorder ring poisoned").capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, PhaseState};

    fn rec(seq: u64, event: Event) -> EventRecord {
        EventRecord {
            seq,
            t_us: seq * 10,
            event,
        }
    }

    #[test]
    fn ring_keeps_only_last_n_in_order() {
        let r = FlightRecorder::new(4);
        for i in 0..7 {
            r.record(rec(i, Event::CycleRendered { cycle: i }));
        }
        let dump = r.dump();
        let seqs: Vec<u64> = dump.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![3, 4, 5, 6]);
    }

    #[test]
    fn lock_loss_snapshots_context() {
        let r = FlightRecorder::new(8);
        for i in 0..3 {
            r.record(rec(i, Event::CycleRendered { cycle: i }));
        }
        r.record(rec(
            3,
            Event::SessionHealth {
                cycle: 3,
                state: PhaseState::Reacquiring,
            },
        ));
        // Ring keeps rolling after the loss…
        for i in 4..10 {
            r.record(rec(i, Event::CycleRendered { cycle: i }));
        }
        // …but the dump still shows the pre-loss context.
        let dump = r.last_lock_loss_dump();
        assert_eq!(dump.len(), 4);
        assert_eq!(dump[0].seq, 0);
        assert!(dump[3].event.is_lock_loss());
    }

    #[test]
    fn empty_recorder_dumps_nothing() {
        let r = FlightRecorder::new(4);
        assert!(r.dump().is_empty());
        assert!(r.last_lock_loss_dump().is_empty());
    }
}
