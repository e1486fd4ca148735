//! Logical streams: per-stream QoS on the send side, zero-allocation
//! reassembly and in-order delivery on the receive side.
//!
//! A datagram submitted to a [`StreamTx`] is fragmented into MAC frames
//! (consecutive per-stream sequence numbers, [`crate::mac::FLAG_LAST`] on
//! the final fragment) and batched into object-sized bundles for the
//! carousel. A [`StreamRx`] holds a fixed reorder window — objects
//! complete in any order, so fragments arrive out of order across
//! objects — and releases fragments in sequence into an assembly arena,
//! cutting a datagram loose at each `LAST` flag. All receive-side
//! buffers are preallocated at stream-open time; the steady-state push/
//! deliver path performs no heap allocation (proven in
//! `tests/alloc_steady_state.rs`).

use crate::addr::MacAddr;
use crate::mac::{self, FLAG_LAST};
use std::collections::VecDeque;

/// Delivery-urgency class of a stream, boosting its carousel share and
/// driving the receiver's stale-object eviction policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadlineClass {
    /// Elastic background transfer.
    Bulk,
    /// Human-facing; prefers low latency.
    Interactive,
    /// Hard cadence; late data is worthless.
    Realtime,
}

impl DeadlineClass {
    /// Multiplicative carousel-share boost of the class.
    pub fn boost(self) -> u32 {
        match self {
            DeadlineClass::Bulk => 1,
            DeadlineClass::Interactive => 2,
            DeadlineClass::Realtime => 4,
        }
    }
}

/// Per-stream quality of service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamQos {
    /// Strict importance tier (multiplies into the carousel share).
    pub priority: u8,
    /// Min-goodput weight: the stream's share of the symbol schedule is
    /// proportional to `weight × priority × class boost` under the
    /// smooth-WRR carousel, which is work-conserving — an idle stream's
    /// share redistributes instead of going dark.
    pub weight: u32,
    /// Deadline class.
    pub deadline: DeadlineClass,
}

impl StreamQos {
    /// A neutral bulk QoS.
    pub fn bulk() -> Self {
        Self {
            priority: 1,
            weight: 1,
            deadline: DeadlineClass::Bulk,
        }
    }

    /// The carousel priority this QoS maps to.
    ///
    /// # Panics
    /// Panics on a zero weight or priority (the WRR carousel requires a
    /// positive share).
    pub fn carousel_priority(&self) -> u32 {
        assert!(
            self.weight > 0 && self.priority > 0,
            "QoS weight and priority must be positive"
        );
        self.weight * self.priority as u32 * self.deadline.boost()
    }
}

/// The send side of one logical stream: fragments datagrams into MAC
/// frames and batches them into per-destination object bundles.
#[derive(Debug)]
pub struct StreamTx {
    id: u8,
    qos: StreamQos,
    src: MacAddr,
    /// Largest fragment payload, bytes.
    max_fragment: usize,
    /// One fragment sequence space per destination: a receiver only sees
    /// the fragments addressed to it, so a seq space shared across
    /// destinations would leave permanent gaps at every receiver that
    /// filters a subset and stall its in-order release forever.
    seqs: Vec<(u16, u16)>,
    /// Encoded frames awaiting bundling, one batch per destination (a
    /// bundle's object id carries a single destination hint, so bundles
    /// never mix destinations).
    pending: Vec<(MacAddr, Vec<u8>)>,
    datagrams_sent: u64,
    frames_sent: u64,
}

impl StreamTx {
    /// A stream sender with the given fragment cap.
    ///
    /// # Panics
    /// Panics on a zero or over-[`mac::MAX_PAYLOAD_BYTES`] fragment size.
    pub fn new(id: u8, qos: StreamQos, src: MacAddr, max_fragment: usize) -> Self {
        assert!(
            (1..=mac::MAX_PAYLOAD_BYTES).contains(&max_fragment),
            "fragment size out of range"
        );
        let _ = qos.carousel_priority(); // validate eagerly
        Self {
            id,
            qos,
            src,
            max_fragment,
            seqs: Vec::new(),
            pending: Vec::new(),
            datagrams_sent: 0,
            frames_sent: 0,
        }
    }

    /// The stream id.
    pub fn id(&self) -> u8 {
        self.id
    }

    /// The stream's QoS.
    pub fn qos(&self) -> StreamQos {
        self.qos
    }

    /// Fragments `datagram` to `dst` into pending MAC frames.
    ///
    /// # Panics
    /// Panics on an empty datagram.
    pub fn send_datagram(&mut self, dst: MacAddr, datagram: &[u8]) {
        assert!(!datagram.is_empty(), "empty datagram");
        let seq = match self.seqs.iter_mut().find(|(d, _)| *d == dst.0) {
            Some((_, s)) => s,
            None => {
                self.seqs.push((dst.0, 0));
                &mut self.seqs.last_mut().expect("just pushed").1
            }
        };
        let batch = match self.pending.iter_mut().find(|(d, _)| *d == dst) {
            Some((_, b)) => b,
            None => {
                self.pending.push((dst, Vec::new()));
                &mut self.pending.last_mut().expect("just pushed").1
            }
        };
        let chunks = datagram.chunks(self.max_fragment);
        let n = chunks.len();
        for (i, chunk) in chunks.enumerate() {
            let flags = if i + 1 == n { FLAG_LAST } else { 0 };
            mac::encode_frame_into(dst, self.src, self.id, flags, *seq, chunk, batch);
            *seq = seq.wrapping_add(1);
            self.frames_sent += 1;
        }
        self.datagrams_sent += 1;
    }

    /// Drains the pending per-destination bundles (for object creation).
    pub fn take_pending(&mut self) -> Vec<(MacAddr, Vec<u8>)> {
        std::mem::take(&mut self.pending)
    }

    /// Whether any frames await bundling.
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Datagrams accepted so far.
    pub fn datagrams_sent(&self) -> u64 {
        self.datagrams_sent
    }

    /// MAC frames encoded so far.
    pub fn frames_sent(&self) -> u64 {
        self.frames_sent
    }
}

/// One reorder slot of a [`StreamRx`] window.
#[derive(Debug)]
struct Slot {
    present: bool,
    last: bool,
    buf: Vec<u8>,
}

/// The receive side of one delivery lane — one (stream, destination)
/// pair, matching the sender's per-destination sequence spaces: a fixed
/// reorder window, an assembly arena, and an in-order datagram queue.
/// Every buffer is preallocated; the steady-state path allocates nothing
/// while the arena and queue capacities hold (they are sized at open
/// time and recycled whenever the consumer drains the queue).
#[derive(Debug)]
pub struct StreamRx {
    /// Window size (power of two).
    window: usize,
    slots: Vec<Slot>,
    next_seq: u16,
    /// Datagram under assembly (fragments released in order, last not
    /// yet seen).
    partial: Vec<u8>,
    /// Completed datagrams, contiguous in the arena.
    arena: Vec<u8>,
    /// `(offset, len)` of each undelivered datagram in `arena`.
    ready: VecDeque<(usize, usize)>,
    /// Read cursor into `ready`/arena.
    delivered_bytes: u64,
    delivered_datagrams: u64,
    /// FNV-1a over every delivered payload byte, in delivery order —
    /// the bit-identity witness used by the determinism tests.
    digest: u64,
    /// Fragments dropped as stale/duplicate (behind the window).
    stale: u64,
    /// Fragments dropped because they landed beyond the window.
    overflow: u64,
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01B3;

impl StreamRx {
    /// A receiver with a `window`-fragment reorder window (rounded up to
    /// a power of two), fragments up to `max_fragment` bytes, and an
    /// arena sized for `arena_bytes` of undelivered datagram payload.
    pub fn new(window: usize, max_fragment: usize, arena_bytes: usize) -> Self {
        let window = window.max(2).next_power_of_two();
        Self {
            window,
            slots: (0..window)
                .map(|_| Slot {
                    present: false,
                    last: false,
                    buf: Vec::with_capacity(max_fragment),
                })
                .collect(),
            next_seq: 0,
            partial: Vec::with_capacity(arena_bytes),
            arena: Vec::with_capacity(arena_bytes),
            ready: VecDeque::with_capacity(64),
            delivered_bytes: 0,
            delivered_datagrams: 0,
            digest: FNV_OFFSET,
            stale: 0,
            overflow: 0,
        }
    }

    /// Accepts one fragment. Stale and out-of-window fragments are
    /// dropped (the transport below retransmits nothing — carousel
    /// repair symbols make losses transient, so the window only has to
    /// ride out object-completion reordering).
    pub fn push_fragment(&mut self, seq: u16, last: bool, payload: &[u8]) {
        let ahead = seq.wrapping_sub(self.next_seq);
        if ahead as usize >= self.window {
            if ahead >= 0x8000 {
                self.stale += 1; // behind the window: duplicate or ancient
            } else {
                self.overflow += 1; // too far ahead to hold
            }
            return;
        }
        let slot = &mut self.slots[seq as usize % self.window];
        if slot.present {
            self.stale += 1; // duplicate inside the window
            return;
        }
        slot.present = true;
        slot.last = last;
        slot.buf.clear();
        slot.buf.extend_from_slice(payload);
        self.release_in_order();
    }

    /// Releases every in-order fragment at the window head into the
    /// assembly arena, cutting datagrams at `LAST` flags.
    fn release_in_order(&mut self) {
        loop {
            let idx = self.next_seq as usize % self.window;
            if !self.slots[idx].present {
                return;
            }
            let last = self.slots[idx].last;
            self.partial.extend_from_slice(&self.slots[idx].buf);
            self.slots[idx].present = false;
            self.next_seq = self.next_seq.wrapping_add(1);
            if last {
                let start = self.arena.len();
                self.arena.extend_from_slice(&self.partial);
                self.ready.push_back((start, self.partial.len()));
                self.partial.clear();
            }
        }
    }

    /// Copies the next in-order datagram into `out` (cleared first) and
    /// folds it into the delivery digest. Returns whether a datagram was
    /// delivered. When the queue empties the arena is recycled, so a
    /// consumer that keeps up pins the arena at its warm capacity.
    pub fn pop_datagram_into(&mut self, out: &mut Vec<u8>) -> bool {
        let Some((start, len)) = self.ready.pop_front() else {
            return false;
        };
        out.clear();
        out.extend_from_slice(&self.arena[start..start + len]);
        for &b in out.iter() {
            self.digest = (self.digest ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        self.delivered_bytes += len as u64;
        self.delivered_datagrams += 1;
        if self.ready.is_empty() {
            self.arena.clear();
        }
        true
    }

    /// Undelivered datagrams currently queued.
    pub fn ready_datagrams(&self) -> usize {
        self.ready.len()
    }

    /// Bytes delivered in order so far.
    pub fn delivered_bytes(&self) -> u64 {
        self.delivered_bytes
    }

    /// Datagrams delivered in order so far.
    pub fn delivered_datagrams(&self) -> u64 {
        self.delivered_datagrams
    }

    /// FNV-1a digest over every delivered byte, in order.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Fragments dropped as stale or duplicate.
    pub fn stale_fragments(&self) -> u64 {
        self.stale
    }

    /// Fragments dropped beyond the reorder window.
    pub fn overflow_fragments(&self) -> u64 {
        self.overflow
    }

    /// The next expected fragment sequence number.
    pub fn next_seq(&self) -> u16 {
        self.next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mac::MacScanner;

    fn rx() -> StreamRx {
        StreamRx::new(16, 64, 4096)
    }

    #[test]
    fn tx_fragments_and_rx_reassembles_through_mac() {
        let mut tx = StreamTx::new(5, StreamQos::bulk(), MacAddr::new(1), 10);
        let data: Vec<u8> = (0..33u8).collect();
        tx.send_datagram(MacAddr::new(0x42), &data);
        let pending = tx.take_pending();
        assert_eq!(pending.len(), 1);
        let mut rx = rx();
        for f in MacScanner::new(&pending[0].1) {
            assert_eq!(f.stream, 5);
            rx.push_fragment(f.seq, f.is_last(), f.payload);
        }
        let mut out = Vec::new();
        assert!(rx.pop_datagram_into(&mut out));
        assert_eq!(out, data);
        assert!(!rx.pop_datagram_into(&mut out));
        assert_eq!(rx.delivered_bytes(), 33);
        assert_eq!(rx.delivered_datagrams(), 1);
    }

    #[test]
    fn out_of_order_fragments_deliver_in_order() {
        let mut rx = rx();
        // Datagram A = seq 0 (last), B = seq 1,2 (last at 2).
        rx.push_fragment(2, true, b"tail");
        rx.push_fragment(0, true, b"first");
        rx.push_fragment(1, false, b"head-");
        let mut out = Vec::new();
        assert!(rx.pop_datagram_into(&mut out));
        assert_eq!(out, b"first");
        assert!(rx.pop_datagram_into(&mut out));
        assert_eq!(out, b"head-tail");
    }

    #[test]
    fn duplicates_and_window_overflow_are_dropped() {
        let mut rx = rx();
        rx.push_fragment(1, false, b"x");
        rx.push_fragment(1, false, b"x");
        assert_eq!(rx.stale_fragments(), 1);
        rx.push_fragment(400, true, b"far");
        assert_eq!(rx.overflow_fragments(), 1);
        rx.push_fragment(0, false, b"w");
        rx.push_fragment(2, true, b"yz");
        let mut out = Vec::new();
        assert!(rx.pop_datagram_into(&mut out));
        assert_eq!(out, b"wxyz");
    }

    #[test]
    fn seq_wraparound_is_seamless() {
        let mut rx = rx();
        // Fast-forward the window to just before wrap.
        let mut expect = Vec::new();
        for seq in 0u16..=u16::MAX {
            rx.push_fragment(seq, true, &seq.to_be_bytes());
            expect.push(seq);
            if rx.ready_datagrams() > 8 {
                let mut out = Vec::new();
                while rx.pop_datagram_into(&mut out) {}
            }
        }
        // Cross the wrap boundary.
        for seq in [0u16, 1, 2] {
            rx.push_fragment(seq, true, &seq.to_be_bytes());
        }
        let mut out = Vec::new();
        while rx.pop_datagram_into(&mut out) {}
        assert_eq!(rx.next_seq(), 3);
        assert_eq!(rx.delivered_datagrams(), 65536 + 3);
        assert_eq!(rx.stale_fragments(), 0);
        assert_eq!(rx.overflow_fragments(), 0);
    }

    #[test]
    fn digest_witnesses_delivery_order_and_content() {
        let deliver = |order: &[(u16, bool, &[u8])]| {
            let mut rx = rx();
            for &(seq, last, p) in order {
                rx.push_fragment(seq, last, p);
            }
            let mut out = Vec::new();
            while rx.pop_datagram_into(&mut out) {}
            rx.digest()
        };
        let a = deliver(&[(0, true, b"ab"), (1, true, b"cd")]);
        // Same bytes pushed out of order: delivery is reordered back, so
        // the digest matches.
        let b = deliver(&[(1, true, b"cd"), (0, true, b"ab")]);
        assert_eq!(a, b);
        // Different content differs.
        let c = deliver(&[(0, true, b"ab"), (1, true, b"ce")]);
        assert_ne!(a, c);
    }

    #[test]
    fn qos_maps_to_carousel_priority() {
        let q = StreamQos {
            priority: 3,
            weight: 5,
            deadline: DeadlineClass::Realtime,
        };
        assert_eq!(q.carousel_priority(), 60);
        assert_eq!(StreamQos::bulk().carousel_priority(), 1);
    }

    #[test]
    fn tx_batches_per_destination() {
        let mut tx = StreamTx::new(1, StreamQos::bulk(), MacAddr::new(1), 32);
        tx.send_datagram(MacAddr::new(2), b"to-two");
        tx.send_datagram(MacAddr::new(3), b"to-three");
        tx.send_datagram(MacAddr::new(2), b"more-two");
        let pending = tx.take_pending();
        assert_eq!(pending.len(), 2);
        assert_eq!(MacScanner::new(&pending[0].1).count(), 2);
        assert_eq!(MacScanner::new(&pending[1].1).count(), 1);
        assert!(!tx.has_pending());
        // Each destination runs its own sequence space, so a receiver
        // seeing only its own frames sees no gaps.
        let seqs: Vec<u16> = MacScanner::new(&pending[0].1).map(|f| f.seq).collect();
        assert_eq!(seqs, vec![0, 1]);
        let seqs: Vec<u16> = MacScanner::new(&pending[1].1).map(|f| f.seq).collect();
        assert_eq!(seqs, vec![0]);
    }
}
