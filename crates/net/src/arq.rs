//! Selective-repeat ARQ for unicast streams, with graceful degradation
//! to pure fountain repair.
//!
//! The carousel is rateless, so retransmission is never *required* for
//! correctness — any K independent symbols complete an object. What a
//! back-channel buys is latency: a NACK names the exact systematic
//! columns a receiver is missing, and retransmitting those (instead of
//! waiting for the carousel to cycle back around or for enough repair
//! combinations to accumulate) closes the tail in a handful of cycles.
//!
//! The [`ArqEngine`] therefore treats feedback as an *accelerator*, not
//! a dependency:
//!
//! * **Closed mode** — fresh [`FeedbackReport`](inframe_link::feedback::FeedbackReport)s arrive within the
//!   policy timeout. NACKed systematic symbols are queued onto the
//!   spatial carousel's retransmit ring (which preempts the WRR schedule
//!   without perturbing credit), under a per-object retry budget, a
//!   per-report cap (no retry storms), and an exponential backoff with
//!   seeded jitter that opens only when a round shows no progress.
//! * **Fountain mode** — the back-channel has gone silent (dead link,
//!   stale reports beyond the timeout, or never any feedback at all).
//!   All pending retransmits are cancelled and the flow degrades to the
//!   open-loop rateless schedule, which still completes every object.
//!   The engine re-enters closed mode automatically on the next fresh
//!   report.
//!
//! Everything is deterministic per seed and allocation-free in steady
//! state: per-object records live in a preallocated pool reused across
//! object lifetimes, and jitter comes from a SplitMix64 stream.

use crate::spatial::SpatialMux;
use inframe_link::feedback::{FeedbackAggregator, ObjectNack};
use inframe_obs::{names, Counter, Gauge, Telemetry};

/// Tuning knobs for the selective-repeat engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArqPolicy {
    /// Total retransmit credits per object = `retry_budget × K`.
    pub retry_budget: u32,
    /// Feedback older than this many cycles (or absent) degrades the
    /// engine to fountain mode.
    pub feedback_timeout_cycles: u64,
    /// Minimum cycles between retransmit rounds for one object, even
    /// with progress — roughly the feedback round-trip, so a repair in
    /// flight is not re-queued by the next report that predates it.
    pub min_round_spacing_cycles: u64,
    /// First no-progress backoff, in cycles.
    pub backoff_base_cycles: u64,
    /// Backoff ceiling, in cycles.
    pub backoff_max_cycles: u64,
    /// Retransmits queued per NACK report, at most (storm damping).
    pub max_retransmits_per_report: u32,
    /// Cycles a repeated symbol is immune to re-repeating — covers the
    /// emit → scan → report → return pipeline, during which the hole
    /// still shows in fresh NACKs even though its repair is in flight.
    pub repeat_holdoff_cycles: u64,
    /// Jitter seed (deterministic per seed).
    pub seed: u64,
}

impl Default for ArqPolicy {
    fn default() -> Self {
        Self {
            retry_budget: 3,
            feedback_timeout_cycles: 24,
            min_round_spacing_cycles: 4,
            backoff_base_cycles: 2,
            backoff_max_cycles: 32,
            max_retransmits_per_report: 16,
            repeat_holdoff_cycles: 8,
            seed: 0x4152_5131,
        }
    }
}

/// Whether the engine currently trusts the back-channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArqMode {
    /// Fresh feedback: NACKs drive selective retransmission.
    Closed,
    /// Back-channel silent or stale: pure rateless repair.
    Fountain,
}

/// Per-object retransmission record.
#[derive(Debug, Clone, Copy)]
struct ObjectArq {
    id: u16,
    /// Remaining retransmit credits (0 ⇒ budget exhausted, fountain
    /// repair finishes the object).
    budget: u32,
    /// Hole count in the last processed NACK — progress detector.
    last_holes: u32,
    /// Consecutive no-progress rounds.
    round: u32,
    /// Earliest cycle the next retransmit round may run.
    next_allowed: u64,
    exhausted_noted: bool,
    /// Ring of recently repeated symbols: `(seq, queued_at_cycle)`.
    /// Sized for two full rounds at the per-report cap.
    recent: [(u32, u64); RECENT_REPEATS],
    recent_head: usize,
}

/// Capacity of the per-object recently-repeated ring.
const RECENT_REPEATS: usize = 32;

struct ArqObs {
    nacks_rx: Counter,
    retransmits: Counter,
    budget_exhausted: Counter,
    timeouts: Counter,
    degraded: Counter,
    restored: Counter,
    backoff_cycles: Gauge,
}

impl ArqObs {
    fn new(telemetry: &Telemetry) -> Self {
        Self {
            nacks_rx: telemetry.counter(names::arq::NACKS_RX),
            retransmits: telemetry.counter(names::arq::RETRANSMITS),
            budget_exhausted: telemetry.counter(names::arq::BUDGET_EXHAUSTED),
            timeouts: telemetry.counter(names::arq::TIMEOUTS),
            degraded: telemetry.counter(names::arq::DEGRADED),
            restored: telemetry.counter(names::arq::RESTORED),
            backoff_cycles: telemetry.gauge(names::arq::BACKOFF_CYCLES),
        }
    }
}

/// The sender-side selective-repeat state machine.
pub struct ArqEngine {
    policy: ArqPolicy,
    mode: ArqMode,
    objects: Vec<ObjectArq>,
    rng: u64,
    retransmits: u64,
    suppressed: u64,
    mode_changes: u64,
    obs: ArqObs,
}

impl ArqEngine {
    /// An engine under `policy`, starting in fountain mode (no feedback
    /// has been seen yet).
    pub fn new(policy: ArqPolicy) -> Self {
        assert!(policy.retry_budget > 0, "retry budget must be positive");
        assert!(
            policy.backoff_base_cycles > 0,
            "backoff base must be positive"
        );
        Self {
            policy,
            mode: ArqMode::Fountain,
            objects: Vec::with_capacity(64),
            rng: policy.seed ^ 0x9E37_79B9_7F4A_7C15,
            retransmits: 0,
            suppressed: 0,
            mode_changes: 0,
            obs: ArqObs::new(&Telemetry::disabled()),
        }
    }

    /// Attaches a telemetry spine (`arq.*`).
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.obs = ArqObs::new(telemetry);
        self
    }

    /// The policy in force.
    pub fn policy(&self) -> &ArqPolicy {
        &self.policy
    }

    /// Current mode.
    pub fn mode(&self) -> ArqMode {
        self.mode
    }

    /// Total retransmits queued over the engine's lifetime.
    pub fn retransmits(&self) -> u64 {
        self.retransmits
    }

    /// NACK rounds suppressed by backoff or fountain mode.
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }

    /// Closed↔fountain transitions (degradations + recoveries).
    pub fn mode_changes(&self) -> u64 {
        self.mode_changes
    }

    /// Deterministic jitter in `[0, span]`.
    fn jitter(&mut self, span: u64) -> u64 {
        // SplitMix64 step: deterministic per seed, no wall clock.
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        if span == 0 {
            0
        } else {
            z % (span + 1)
        }
    }

    /// Re-evaluates the back-channel each cycle: degrades to fountain
    /// when feedback ages past the policy timeout (cancelling every
    /// pending retransmit — a silent receiver must not be sprayed with
    /// stale repairs), restores to closed mode when fresh reports
    /// return. Returns the mode now in force.
    pub fn on_cycle(
        &mut self,
        now_cycle: u64,
        agg: &FeedbackAggregator,
        mux: &mut SpatialMux,
    ) -> ArqMode {
        let fresh = matches!(
            agg.feedback_age(now_cycle),
            Some(age) if age <= self.policy.feedback_timeout_cycles
        );
        match (self.mode, fresh) {
            (ArqMode::Closed, false) => {
                self.mode = ArqMode::Fountain;
                self.mode_changes += 1;
                self.obs.timeouts.incr();
                self.obs.degraded.incr();
                for o in &self.objects {
                    mux.cancel_retransmits(o.id);
                }
                // A later recovery starts from a clean slate: no stale
                // backoff gates, no stale progress watermarks.
                for o in &mut self.objects {
                    o.round = 0;
                    o.next_allowed = 0;
                    o.last_holes = u32::MAX;
                }
                self.obs.backoff_cycles.set(0);
            }
            (ArqMode::Fountain, true) => {
                self.mode = ArqMode::Closed;
                self.mode_changes += 1;
                self.obs.restored.incr();
            }
            _ => {}
        }
        self.mode
    }

    /// Processes one NACK: queues the missing systematic symbols onto
    /// the carousel's retransmit ring, bounded by the per-object budget,
    /// the per-report cap, and the no-progress backoff gate. Returns the
    /// number of retransmits queued.
    pub fn on_nack(&mut self, nack: &ObjectNack, now_cycle: u64, mux: &mut SpatialMux) -> u32 {
        self.obs.nacks_rx.incr();
        if self.mode == ArqMode::Fountain {
            self.suppressed += 1;
            return 0;
        }
        let holes = nack.holes();
        if holes == 0 {
            return 0;
        }
        let idx = match self.objects.iter().position(|o| o.id == nack.object_id) {
            Some(i) => i,
            None => {
                let budget = self
                    .policy
                    .retry_budget
                    .saturating_mul(nack.k.max(1) as u32);
                self.objects.push(ObjectArq {
                    id: nack.object_id,
                    budget,
                    last_holes: u32::MAX,
                    round: 0,
                    next_allowed: 0,
                    exhausted_noted: false,
                    recent: [(u32::MAX, 0); RECENT_REPEATS],
                    recent_head: 0,
                });
                self.objects.len() - 1
            }
        };
        let o = &mut self.objects[idx];
        if now_cycle < o.next_allowed {
            self.suppressed += 1;
            return 0;
        }
        if o.budget == 0 {
            if !o.exhausted_noted {
                o.exhausted_noted = true;
                self.obs.budget_exhausted.incr();
            }
            self.suppressed += 1;
            return 0;
        }
        // Progress detector: a shrinking hole count re-arms fast
        // retries; a stagnant one opens the exponential backoff.
        if holes < o.last_holes {
            o.round = 0;
        } else {
            o.round = o.round.saturating_add(1);
        }
        o.last_holes = holes;
        if !mux.has_object(nack.object_id) {
            // Object already retired from the carousel: the NACK is
            // from a receiver behind the retire — nothing to repeat.
            return 0;
        }
        // The NACK bitmap localizes the fault: stride classes holding
        // two or more holes mark tiles this receiver cannot see well,
        // and repeats routed back through them would mostly die there.
        let classes = mux.num_regions().min(64);
        let mut per_class = [0u8; 64];
        for seq in nack.missing() {
            let c = (seq as usize) % classes;
            per_class[c] = per_class[c].saturating_add(1);
        }
        let mut avoid = 0u64;
        for (c, &n) in per_class.iter().enumerate().take(classes) {
            if n >= 2 {
                avoid |= 1u64 << c;
            }
        }
        let cap = self.policy.max_retransmits_per_report.min(o.budget);
        let holdoff = self.policy.repeat_holdoff_cycles;
        let mut queued = 0u32;
        for seq in nack.missing() {
            if queued >= cap {
                break;
            }
            // A hole the schedule has not reached yet is not a loss —
            // the regular pass will carry it; repeating it now would
            // only duplicate that emission.
            if !mux.seq_emitted(nack.object_id, seq) {
                continue;
            }
            // A repeat emitted within the holdoff is still traversing
            // the scan → report pipeline; the hole it fixes shows in
            // this NACK even though the fix is already in flight.
            let o = &self.objects[idx];
            if o.recent
                .iter()
                .any(|&(s, t)| s == seq && now_cycle.saturating_sub(t) < holdoff)
            {
                continue;
            }
            // `false` here means the symbol is already pending on some
            // shard — skip it without spending budget.
            if mux.queue_retransmit_avoiding(nack.object_id, seq, avoid) {
                let o = &mut self.objects[idx];
                o.recent[o.recent_head] = (seq, now_cycle);
                o.recent_head = (o.recent_head + 1) % RECENT_REPEATS;
                queued += 1;
            }
        }
        let round = {
            let o = &mut self.objects[idx];
            o.budget -= queued;
            if o.budget == 0 && !o.exhausted_noted {
                o.exhausted_noted = true;
                self.obs.budget_exhausted.incr();
            }
            o.round
        };
        // Round 0 (progress) paces at the feedback round-trip; stalled
        // rounds open the exponential backoff on top of that floor.
        let delay = if round == 0 {
            self.policy.min_round_spacing_cycles
        } else {
            let shift = round.min(16);
            (self.policy.backoff_base_cycles << shift)
                .min(self.policy.backoff_max_cycles)
                .max(self.policy.min_round_spacing_cycles)
        };
        let jitter = self.jitter(delay / 2);
        self.objects[idx].next_allowed = now_cycle + delay + jitter;
        self.obs.backoff_cycles.set(delay + jitter);
        self.retransmits += queued as u64;
        self.obs.retransmits.add(queued as u64);
        queued
    }

    /// Drops the record of a retired object and cancels its pending
    /// retransmits.
    pub fn object_retired(&mut self, id: u16, mux: &mut SpatialMux) {
        mux.cancel_retransmits(id);
        self.objects.retain(|o| o.id != id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spatial::SpatialMux;
    use inframe_core::layout::DataLayout;
    use inframe_core::region::RegionMap;
    use inframe_core::InFrameConfig;
    use inframe_link::feedback::{FeedbackReport, RegionQuality};

    fn mux_with_object(id: u16) -> SpatialMux {
        let layout = DataLayout::from_config(&InFrameConfig::paper());
        let mut mux = SpatialMux::new(RegionMap::new(&layout, 5, 3));
        let data: Vec<u8> = (0..400u32).map(|i| i as u8).collect();
        mux.add_object(id, 1, &data);
        // One emitted cycle: every shard passes its first strided seqs,
        // so low-numbered columns count as lost (not merely unsent).
        mux.next_cycle_payload();
        mux
    }

    fn nack(id: u16, k: u16, missing: &[u32]) -> ObjectNack {
        let mut words = [0u64; 4];
        for &m in missing {
            words[m as usize / 64] |= 1 << (m % 64);
        }
        ObjectNack {
            object_id: id,
            k,
            rank: k - missing.len() as u16,
            words,
        }
    }

    fn fresh_agg(now: u64) -> FeedbackAggregator {
        let mut agg = FeedbackAggregator::new(1);
        let mut rep = FeedbackReport::new(7, now);
        rep.push_region(RegionQuality::quantize(1.0, 0.0));
        agg.ingest(&rep, now);
        agg
    }

    #[test]
    fn nacks_queue_retransmits_in_closed_mode() {
        let mut mux = mux_with_object(42);
        let mut arq = ArqEngine::new(ArqPolicy::default());
        let agg = fresh_agg(10);
        assert_eq!(arq.on_cycle(10, &agg, &mut mux), ArqMode::Closed);
        let queued = arq.on_nack(&nack(42, 7, &[1, 3, 5]), 10, &mut mux);
        assert_eq!(queued, 3);
        assert_eq!(mux.retransmit_backlog(), 3);
    }

    #[test]
    fn fountain_mode_suppresses_and_cancels() {
        let mut mux = mux_with_object(42);
        let mut arq = ArqEngine::new(ArqPolicy::default());
        let agg = fresh_agg(0);
        arq.on_cycle(0, &agg, &mut mux);
        arq.on_nack(&nack(42, 7, &[0, 1]), 0, &mut mux);
        assert_eq!(mux.retransmit_backlog(), 2);
        // Feedback ages out: degrade, cancel pending retransmits.
        let stale = arq.policy.feedback_timeout_cycles + 1;
        assert_eq!(arq.on_cycle(stale, &agg, &mut mux), ArqMode::Fountain);
        assert_eq!(mux.retransmit_backlog(), 0);
        assert_eq!(arq.on_nack(&nack(42, 7, &[0]), stale, &mut mux), 0);
        // Fresh feedback restores closed mode.
        let mut agg2 = fresh_agg(stale + 1);
        let mut rep = FeedbackReport::new(7, stale + 1);
        rep.push_region(RegionQuality::quantize(1.0, 0.0));
        agg2.ingest(&rep, stale + 1);
        assert_eq!(arq.on_cycle(stale + 1, &agg2, &mut mux), ArqMode::Closed);
        assert_eq!(arq.mode_changes(), 3);
    }

    #[test]
    fn budget_exhaustion_stops_retransmits() {
        let mut mux = mux_with_object(9);
        let policy = ArqPolicy {
            retry_budget: 1,
            backoff_base_cycles: 1,
            backoff_max_cycles: 1,
            ..ArqPolicy::default()
        };
        let mut arq = ArqEngine::new(policy);
        let agg = fresh_agg(0);
        arq.on_cycle(0, &agg, &mut mux);
        // k=2 ⇒ budget 2 total credits.
        assert_eq!(arq.on_nack(&nack(9, 2, &[0, 1]), 0, &mut mux), 2);
        let later = 100;
        assert_eq!(arq.on_nack(&nack(9, 2, &[0, 1]), later, &mut mux), 0);
        assert!(arq.suppressed() > 0);
    }

    #[test]
    fn no_progress_opens_backoff() {
        let mut mux = mux_with_object(5);
        let policy = ArqPolicy {
            backoff_base_cycles: 4,
            backoff_max_cycles: 64,
            max_retransmits_per_report: 1,
            ..ArqPolicy::default()
        };
        let mut arq = ArqEngine::new(policy);
        let agg = fresh_agg(0);
        arq.on_cycle(0, &agg, &mut mux);
        // Same hole set twice: second round counts as no progress, and
        // the gate after it must exceed the base delay.
        assert_eq!(arq.on_nack(&nack(5, 7, &[2]), 0, &mut mux), 1);
        // Gate from round 0 is at most spacing + jitter ≤ 6. The repeat
        // of seq 2 is still pending on the ring, so the second round
        // queues nothing (dedup) but still opens the backoff.
        assert_eq!(arq.on_nack(&nack(5, 7, &[2]), 7, &mut mux), 0);
        let gate = arq.objects[0].next_allowed;
        assert!(gate >= 7 + 8, "no-progress round must back off: {gate}");
        // Progress (fewer holes) re-arms the fast path.
        assert_eq!(arq.on_nack(&nack(5, 7, &[]), gate, &mut mux), 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed: u64| {
            let mut mux = mux_with_object(3);
            let policy = ArqPolicy {
                seed,
                ..ArqPolicy::default()
            };
            let mut arq = ArqEngine::new(policy);
            let agg = fresh_agg(0);
            arq.on_cycle(0, &agg, &mut mux);
            let mut gates = Vec::new();
            for i in 0..10u64 {
                arq.on_nack(&nack(3, 7, &[1, 2]), i * 40, &mut mux);
                gates.push(arq.objects[0].next_allowed);
            }
            gates
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2), "jitter must depend on the seed");
    }

    #[test]
    fn retired_objects_are_forgotten() {
        let mut mux = mux_with_object(11);
        let mut arq = ArqEngine::new(ArqPolicy::default());
        let agg = fresh_agg(0);
        arq.on_cycle(0, &agg, &mut mux);
        arq.on_nack(&nack(11, 7, &[0]), 0, &mut mux);
        assert_eq!(arq.objects.len(), 1);
        arq.object_retired(11, &mut mux);
        assert_eq!(arq.objects.len(), 0);
        assert_eq!(mux.retransmit_backlog(), 0);
    }
}
