//! Blind cycle synchronization.
//!
//! The streaming [`crate::Demultiplexer`] assigns captures to data cycles
//! by timestamp, which assumes the receiver knows the sender's cycle
//! phase. Real deployments don't get that for free — the paper cites
//! LightSync for the general unsynchronized-link problem. This module
//! recovers the cycle phase *from the captures themselves*:
//!
//! Captures taken in the first (stable) half of a cycle show crisp
//! chessboards (high block scores); captures during the transition half
//! show faded ones. Score a window of captures, fold capture times by the
//! known cycle duration, and the phase that maximizes mean score over the
//! "stable" half-window is the sender's cycle origin. The cycle duration
//! itself is known from the (public) configuration — only the origin is
//! blind.

use crate::config::InFrameConfig;
use inframe_obs::{names, Telemetry};

/// One observation for the estimator: a capture's time and a scalar
/// "pattern crispness" (e.g. the mean of the top-quartile block scores).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyncObservation {
    /// Capture midpoint in receiver time, seconds.
    pub t_mid: f64,
    /// Aggregate pattern score of the capture.
    pub crispness: f64,
}

/// Result of a phase estimation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyncEstimate {
    /// Estimated cycle origin in `[0, cycle_duration)` — subtract from
    /// capture times before cycle assignment.
    pub phase: f64,
    /// Contrast of the folded score profile (peak mean / trough mean);
    /// values near 1 mean the estimate is unreliable (e.g. an idle
    /// channel).
    pub confidence: f64,
}

/// Estimates the sender's cycle phase from scored captures.
///
/// Needs observations spanning at least a few cycles; 8–10 captures are
/// plenty in practice (the camera sees 2.5–3 captures per cycle).
#[derive(Debug, Clone)]
pub struct CycleSynchronizer {
    cycle_duration: f64,
    observations: Vec<SyncObservation>,
    /// Number of trial phases evaluated over one cycle.
    resolution: usize,
    /// Optional bound on the observation history (rolling window).
    window: Option<usize>,
}

impl CycleSynchronizer {
    /// Creates a synchronizer for the configuration.
    pub fn new(config: &InFrameConfig) -> Self {
        Self {
            cycle_duration: config.tau as f64 / config.refresh_hz,
            observations: Vec::new(),
            resolution: 48,
            window: None,
        }
    }

    /// The cycle duration being assumed, seconds.
    pub fn cycle_duration(&self) -> f64 {
        self.cycle_duration
    }

    /// Bounds the observation history to the `window` most recent
    /// captures. Long-running receivers need this: stale observations
    /// from before a clock disturbance would otherwise outvote the
    /// current channel forever.
    pub fn set_window(&mut self, window: usize) {
        assert!(window >= 4, "estimation needs at least 4 observations");
        self.window = Some(window);
        let excess = self.observations.len().saturating_sub(window);
        self.observations.drain(..excess);
    }

    /// Discards every observation (re-acquisition from scratch).
    pub fn clear(&mut self) {
        self.observations.clear();
    }

    /// Records one scored capture.
    pub fn observe(&mut self, t_mid: f64, crispness: f64) {
        self.observations.push(SyncObservation { t_mid, crispness });
        if let Some(w) = self.window {
            let excess = self.observations.len().saturating_sub(w);
            self.observations.drain(..excess);
        }
    }

    /// Number of recorded observations.
    pub fn len(&self) -> usize {
        self.observations.len()
    }

    /// Whether no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.observations.is_empty()
    }

    /// Estimates the phase, or `None` with fewer than 4 observations.
    ///
    /// For each trial phase the observations are folded into the cycle and
    /// split into the stable half (`[0, 0.45)` of the cycle, where the
    /// demultiplexer scores captures) and the transition half; the trial
    /// maximizing the stable-half mean is returned.
    pub fn estimate(&self) -> Option<SyncEstimate> {
        if self.observations.len() < 4 {
            return None;
        }
        let d = self.cycle_duration;
        // Evaluate the folded stable-half mean at each trial phase.
        let mut means = vec![f64::NEG_INFINITY; self.resolution];
        let mut worst_mean = f64::INFINITY;
        let mut best_mean = f64::NEG_INFINITY;
        for (i, mean_slot) in means.iter_mut().enumerate() {
            let trial = d * i as f64 / self.resolution as f64;
            let mut stable_sum = 0.0;
            let mut stable_n = 0u32;
            for obs in &self.observations {
                let folded = ((obs.t_mid - trial) % d + d) % d;
                if folded / d < 0.45 {
                    stable_sum += obs.crispness;
                    stable_n += 1;
                }
            }
            if stable_n == 0 {
                continue;
            }
            let mean = stable_sum / stable_n as f64;
            *mean_slot = mean;
            best_mean = best_mean.max(mean);
            worst_mean = worst_mean.min(mean);
        }
        if !best_mean.is_finite() {
            return None;
        }
        // A 30 FPS camera folds to only a few positions per cycle, so the
        // optimum is a plateau, not a point: take the circular centre of
        // the longest near-best run.
        let near: Vec<bool> = means
            .iter()
            .map(|&m| m >= best_mean - (best_mean - worst_mean).abs() * 0.02 - 1e-12)
            .collect();
        let n = self.resolution;
        let mut best_run = (0usize, 0usize); // (start, len)
        let mut i = 0;
        while i < n {
            if near[i] {
                // Walk the run circularly (but at most n steps).
                let mut len = 0;
                while len < n && near[(i + len) % n] {
                    len += 1;
                }
                if len > best_run.1 {
                    best_run = (i, len);
                }
                i += len.max(1);
            } else {
                i += 1;
            }
        }
        let centre = (best_run.0 + best_run.1 / 2) % n;
        let best_phase = d * centre as f64 / n as f64;
        let confidence = if worst_mean > 1e-12 {
            best_mean / worst_mean
        } else {
            f64::INFINITY
        };
        Some(SyncEstimate {
            phase: best_phase,
            confidence,
        })
    }

    /// Convenience: aggregate block scores into a crispness value — the
    /// mean of the top quartile (robust to frames where most blocks carry
    /// bit 0).
    pub fn crispness_of_scores(scores: &[f32]) -> f64 {
        if scores.is_empty() {
            return 0.0;
        }
        let mut sorted: Vec<f32> = scores.to_vec();
        sorted.sort_by(|a, b| b.partial_cmp(a).expect("scores must not be NaN"));
        let quartile = (sorted.len() / 4).max(1);
        sorted[..quartile].iter().map(|&v| v as f64).sum::<f64>() / quartile as f64
    }

    /// The sharper sync signal for real channels: the mean normalized
    /// distance of Block scores from the decision threshold.
    ///
    /// Stable-half captures are bimodal (scores near 0 or near the clean
    /// amplitude, both far from `T`); transition-half captures put the
    /// Blocks that flip next cycle at intermediate amplitudes near `T` —
    /// so this statistic dips in the transition half even when plenty of
    /// crisp stable bits remain. Distances are capped at `T + m` so one
    /// very strong block cannot mask many ambiguous ones.
    pub fn decisiveness_of_scores(scores: &[f32], threshold: f32, margin: f32) -> f64 {
        if scores.is_empty() {
            return 0.0;
        }
        let _ = margin;
        let cap = threshold as f64;
        scores
            .iter()
            .map(|&s| ((s - threshold).abs() as f64).min(cap) / cap)
            .sum::<f64>()
            / scores.len() as f64
    }
}

/// Lock state of a [`PhaseTracker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockState {
    /// No phase yet: observing captures for a first estimate.
    Acquiring,
    /// Phase locked and the stable-half crispness looks healthy.
    Locked,
    /// Stable-half crispness collapsed: the lock is doubted but still
    /// used (the disturbance may be transient).
    Suspect,
    /// The lock was dropped; re-estimating from a fresh window.
    Reacquiring,
}

/// Tuning of the tracker's confidence scoring and re-acquisition.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackerPolicy {
    /// Rolling observation window used for (re-)estimates.
    pub window: usize,
    /// Observations required before attempting a (re-)lock.
    pub min_captures: usize,
    /// Folded-profile contrast required to accept a (re-)lock.
    pub min_confidence: f64,
    /// `recent/baseline` crispness ratio below which a stable-half
    /// capture counts as suspect.
    pub suspect_ratio: f64,
    /// Consecutive suspect captures before entering [`LockState::Suspect`].
    pub suspect_after: u32,
    /// Further consecutive suspect captures before the lock is dropped.
    pub reacquire_after: u32,
    /// EWMA factor of the short-horizon crispness estimate.
    pub recent_alpha: f64,
    /// EWMA factor of the healthy-channel baseline.
    pub baseline_alpha: f64,
}

impl Default for TrackerPolicy {
    fn default() -> Self {
        Self {
            window: 24,
            min_captures: 12,
            min_confidence: 1.3,
            suspect_ratio: 0.62,
            suspect_after: 3,
            reacquire_after: 6,
            recent_alpha: 0.45,
            baseline_alpha: 0.05,
        }
    }
}

impl TrackerPolicy {
    /// A low-latency recovery profile for receivers that must re-lock
    /// within a few cycles of a fault clearing (the default profile is
    /// conservative — it tolerates long transients before giving up a
    /// lock, at the cost of slow re-acquisition).
    ///
    /// The worst case drives the numbers: a half-cycle desync leaves
    /// only ~1 receiver-stable capture per cycle as evidence, so at
    /// 30 FPS / τ = 12 this profile drops a dead lock within ~4 cycles
    /// and re-estimates from 9 captures (3 full cycles) — bounding
    /// loss-to-relock at roughly 7 cycles.
    pub fn fast_recovery() -> Self {
        Self {
            min_captures: 9,
            min_confidence: 1.08,
            suspect_after: 2,
            reacquire_after: 2,
            ..Self::default()
        }
    }
}

/// A state transition reported by [`PhaseTracker::observe`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrackerEvent {
    /// A phase was (re-)acquired.
    Locked {
        /// The accepted cycle origin, seconds.
        phase: f64,
    },
    /// Stable-half crispness collapsed; the lock is now doubted.
    Suspect,
    /// A suspect lock recovered without re-acquisition.
    Recovered,
    /// The lock was dropped; re-acquisition begins.
    LockLost,
}

impl LockState {
    /// This state in the telemetry vocabulary (the obs crate cannot
    /// depend on core, so the mapping lives here; `link` and `sim` reuse
    /// it when they report session health).
    pub fn obs_state(self) -> inframe_obs::PhaseState {
        match self {
            LockState::Acquiring => inframe_obs::PhaseState::Acquiring,
            LockState::Locked => inframe_obs::PhaseState::Locked,
            LockState::Suspect => inframe_obs::PhaseState::Suspect,
            LockState::Reacquiring => inframe_obs::PhaseState::Reacquiring,
        }
    }
}

/// Tracker-side telemetry instruments, registered once per tracker.
#[derive(Debug, Clone, Default)]
struct TrackerObs {
    telemetry: Telemetry,
    transitions: inframe_obs::Counter,
    relocks: inframe_obs::Counter,
    lock_losses: inframe_obs::Counter,
    in_state_us: inframe_obs::Histogram,
}

impl TrackerObs {
    fn new(telemetry: &Telemetry) -> Self {
        Self {
            transitions: telemetry.counter(names::sync::TRANSITIONS),
            relocks: telemetry.counter(names::sync::RELOCKS),
            lock_losses: telemetry.counter(names::sync::LOCK_LOSSES),
            in_state_us: telemetry.histogram(names::sync::IN_STATE_US),
            telemetry: telemetry.clone(),
        }
    }
}

/// Confidence-scored phase tracking over a capture stream.
///
/// [`CycleSynchronizer`] answers "what is the phase, given a window of
/// observations"; this wrapper answers the operational question — *is the
/// phase we are decoding with still right?* It watches the crispness of
/// the captures the current lock classifies as stable-half. A healthy
/// lock keeps those crisp; a desync, accumulated clock skew, or a capture
/// path gone bad collapses them. The state machine is
///
/// ```text
/// ACQUIRING ──(confident estimate)──▶ LOCKED ◀──(recovered)── SUSPECT
///      ▲                                │  ─(crispness collapse)──▲
///      └──────── REACQUIRING ◀──(collapse persists: lock dropped)─┘
/// ```
///
/// Re-acquisition is *bounded*: the observation window is cleared on lock
/// loss (and re-cleared if it fills twice without a confident estimate),
/// so a relock needs only `min_captures` healthy captures — it can never
/// be outvoted by an unbounded tail of pre-fault history, and it never
/// silently decodes garbage in the meantime.
#[derive(Debug, Clone)]
pub struct PhaseTracker {
    sync: CycleSynchronizer,
    policy: TrackerPolicy,
    state: LockState,
    phase: Option<f64>,
    baseline: Option<f64>,
    recent: Option<f64>,
    low_streak: u32,
    obs_since_clear: usize,
    relocks: u64,
    lock_losses: u64,
    obs: TrackerObs,
    /// Channel time the current state was entered (time-in-state base).
    state_entered_t: f64,
    /// Most recent observation time, used to stamp forced transitions.
    last_t: f64,
}

impl PhaseTracker {
    fn build(config: &InFrameConfig, policy: TrackerPolicy, phase: Option<f64>) -> Self {
        assert!(
            policy.min_captures <= policy.window,
            "min_captures cannot exceed the window"
        );
        assert!(policy.suspect_after >= 1 && policy.reacquire_after >= 1);
        let mut sync = CycleSynchronizer::new(config);
        sync.set_window(policy.window);
        Self {
            sync,
            policy,
            state: if phase.is_some() {
                LockState::Locked
            } else {
                LockState::Acquiring
            },
            phase,
            baseline: None,
            recent: None,
            low_streak: 0,
            obs_since_clear: 0,
            relocks: 0,
            lock_losses: 0,
            obs: TrackerObs::default(),
            state_entered_t: 0.0,
            last_t: 0.0,
        }
    }

    /// Attaches telemetry: every state transition becomes a
    /// [`inframe_obs::Event::SyncTransition`] (with time-in-state) and
    /// the transition/relock/loss counters go live. Constructors default
    /// to the disabled handle.
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.obs = TrackerObs::new(telemetry);
        self
    }

    /// Records a state transition into telemetry and resets the
    /// time-in-state base. `t` is channel time, seconds.
    fn note_transition(&mut self, from: LockState, to: LockState, t: f64) {
        let in_state_us = ((t - self.state_entered_t).max(0.0) * 1e6) as u64;
        self.state_entered_t = t;
        self.obs.transitions.incr();
        self.obs.in_state_us.record(in_state_us);
        if to == LockState::Reacquiring {
            self.obs.lock_losses.incr();
        }
        self.obs
            .telemetry
            .event(inframe_obs::Event::SyncTransition {
                from: from.obs_state(),
                to: to.obs_state(),
                in_state_us,
            });
    }

    /// A tracker that must acquire the phase blindly.
    pub fn acquiring(config: &InFrameConfig, policy: TrackerPolicy) -> Self {
        Self::build(config, policy, None)
    }

    /// A tracker starting locked at a known phase (shared clock).
    pub fn locked_at(config: &InFrameConfig, policy: TrackerPolicy, phase: f64) -> Self {
        Self::build(config, policy, Some(phase))
    }

    /// Replaces the tuning policy (e.g. with
    /// [`TrackerPolicy::fast_recovery`]). Takes effect from the next
    /// observation; the rolling window is resized immediately.
    pub fn set_policy(&mut self, policy: TrackerPolicy) {
        assert!(
            policy.min_captures <= policy.window,
            "min_captures cannot exceed the window"
        );
        assert!(policy.suspect_after >= 1 && policy.reacquire_after >= 1);
        self.sync.set_window(policy.window);
        self.policy = policy;
    }

    /// Current lock state.
    pub fn state(&self) -> LockState {
        self.state
    }

    /// The phase currently in force (kept through SUSPECT, dropped only
    /// by a relock).
    pub fn phase(&self) -> Option<f64> {
        self.phase
    }

    /// Whether the current phase should be trusted for decoding.
    pub fn is_decodable(&self) -> bool {
        matches!(self.state, LockState::Locked | LockState::Suspect)
    }

    /// Successful (re-)locks so far.
    pub fn relocks(&self) -> u64 {
        self.relocks
    }

    /// Locks dropped so far.
    pub fn lock_losses(&self) -> u64 {
        self.lock_losses
    }

    /// Feeds one scored capture; returns a state transition if one fired.
    pub fn observe(&mut self, t_mid: f64, crispness: f64) -> Option<TrackerEvent> {
        self.last_t = t_mid;
        match self.state {
            LockState::Acquiring | LockState::Reacquiring => {
                self.observe_unlocked(t_mid, crispness)
            }
            LockState::Locked | LockState::Suspect => self.observe_locked(t_mid, crispness),
        }
    }

    /// Registers externally detected degradation — evidence the tracker's
    /// own crispness metric cannot see. The canonical case is a
    /// half-cycle desync: captures land on the *complementary* pattern
    /// half, whose magnitude crispness is just as high as the stable
    /// half's, while decode quality collapses. Moves a healthy lock to
    /// [`LockState::Suspect`].
    pub fn force_suspect(&mut self) -> Option<TrackerEvent> {
        if self.state == LockState::Locked {
            self.state = LockState::Suspect;
            self.low_streak = self.low_streak.max(self.policy.suspect_after);
            self.note_transition(LockState::Locked, LockState::Suspect, self.last_t);
            return Some(TrackerEvent::Suspect);
        }
        None
    }

    /// Registers an externally detected lock loss: drops the phase and
    /// starts bounded re-acquisition, exactly as a crispness collapse
    /// would (see [`PhaseTracker::force_suspect`] for why the caller may
    /// know better than the crispness metric).
    pub fn force_lock_lost(&mut self) -> Option<TrackerEvent> {
        match self.state {
            from @ (LockState::Locked | LockState::Suspect) => {
                self.state = LockState::Reacquiring;
                self.lock_losses += 1;
                self.low_streak = 0;
                self.recent = None;
                self.baseline = None;
                self.sync.clear();
                self.obs_since_clear = 0;
                self.note_transition(from, LockState::Reacquiring, self.last_t);
                Some(TrackerEvent::LockLost)
            }
            LockState::Acquiring | LockState::Reacquiring => None,
        }
    }

    fn observe_unlocked(&mut self, t_mid: f64, crispness: f64) -> Option<TrackerEvent> {
        self.sync.observe(t_mid, crispness);
        self.obs_since_clear += 1;
        if self.sync.len() >= self.policy.min_captures {
            if let Some(est) = self.sync.estimate() {
                if est.confidence >= self.policy.min_confidence {
                    let from = self.state;
                    self.phase = Some(est.phase);
                    self.state = LockState::Locked;
                    self.relocks += 1;
                    self.low_streak = 0;
                    self.recent = None;
                    self.baseline = None;
                    self.obs_since_clear = 0;
                    self.obs.relocks.incr();
                    self.note_transition(from, LockState::Locked, t_mid);
                    return Some(TrackerEvent::Locked { phase: est.phase });
                }
            }
        }
        // Keep re-acquisition bounded: if a full double-window of captures
        // never produced a confident estimate, the window is polluted
        // (mid-fault garbage) — start over rather than averaging it in.
        if self.obs_since_clear >= 2 * self.policy.min_captures.max(1) {
            self.sync.clear();
            self.obs_since_clear = 0;
        }
        None
    }

    fn observe_locked(&mut self, t_mid: f64, crispness: f64) -> Option<TrackerEvent> {
        let d = self.sync.cycle_duration();
        let phase = self.phase.expect("locked states carry a phase");
        let folded = ((t_mid - phase) % d + d) % d;
        if folded / d >= 0.45 {
            // Transition-half capture: carries no verdict on the lock.
            return None;
        }
        let a = self.policy.recent_alpha;
        let recent = match self.recent {
            Some(r) => r * (1.0 - a) + crispness * a,
            None => crispness,
        };
        self.recent = Some(recent);
        let baseline = *self.baseline.get_or_insert(crispness);
        let healthy = recent >= self.policy.suspect_ratio * baseline;
        if healthy {
            // Only a healthy channel may move the baseline — a fault must
            // not drag the reference down to its own level.
            let b = self.policy.baseline_alpha;
            self.baseline = Some(baseline * (1.0 - b) + crispness * b);
            self.low_streak = 0;
            if self.state == LockState::Suspect {
                self.state = LockState::Locked;
                self.note_transition(LockState::Suspect, LockState::Locked, t_mid);
                return Some(TrackerEvent::Recovered);
            }
            return None;
        }
        self.low_streak += 1;
        if self.state == LockState::Locked && self.low_streak >= self.policy.suspect_after {
            self.state = LockState::Suspect;
            self.note_transition(LockState::Locked, LockState::Suspect, t_mid);
            return Some(TrackerEvent::Suspect);
        }
        if self.state == LockState::Suspect
            && self.low_streak >= self.policy.suspect_after + self.policy.reacquire_after
        {
            self.state = LockState::Reacquiring;
            self.lock_losses += 1;
            self.low_streak = 0;
            self.recent = None;
            self.sync.clear();
            self.obs_since_clear = 0;
            self.note_transition(LockState::Suspect, LockState::Reacquiring, t_mid);
            return Some(TrackerEvent::LockLost);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InFrameConfig;

    fn synchronizer() -> CycleSynchronizer {
        CycleSynchronizer::new(&InFrameConfig::small_test()) // τ=12 → 0.1 s
    }

    /// Synthetic channel: crispness is high in the first half of the true
    /// cycle, low in the second.
    fn observe_synthetic(sync: &mut CycleSynchronizer, true_phase: f64, captures: usize) {
        let d = sync.cycle_duration();
        for j in 0..captures {
            let t = j as f64 * (1.0 / 30.0); // 30 FPS camera
            let folded = ((t - true_phase) % d + d) % d;
            let crisp = if folded / d < 0.5 { 6.0 } else { 1.5 };
            sync.observe(t, crisp);
        }
    }

    #[test]
    fn recovers_known_phase() {
        for true_phase in [0.0, 0.02, 0.05, 0.083] {
            let mut sync = synchronizer();
            observe_synthetic(&mut sync, true_phase, 40);
            let est = sync.estimate().expect("enough observations");
            let d = sync.cycle_duration();
            // Phase error measured circularly.
            let err = {
                let e = (est.phase - true_phase).abs() % d;
                e.min(d - e)
            };
            assert!(
                err < d * 0.15,
                "phase {true_phase}: estimated {} (err {err})",
                est.phase
            );
            assert!(est.confidence > 1.5, "confidence {}", est.confidence);
        }
    }

    #[test]
    fn too_few_observations_is_none() {
        let mut sync = synchronizer();
        sync.observe(0.0, 5.0);
        sync.observe(0.03, 5.0);
        assert!(sync.estimate().is_none());
        assert_eq!(sync.len(), 2);
        assert!(!sync.is_empty());
    }

    #[test]
    fn flat_scores_report_low_confidence() {
        let mut sync = synchronizer();
        for j in 0..30 {
            sync.observe(j as f64 / 30.0, 3.0); // idle channel: flat
        }
        let est = sync.estimate().expect("enough observations");
        assert!(
            est.confidence < 1.2,
            "flat profile must not look confident: {}",
            est.confidence
        );
    }

    #[test]
    fn crispness_uses_top_quartile() {
        // Mostly 0-blocks with a few strong 1-blocks: crispness tracks the
        // strong ones.
        let mut scores = vec![0.2f32; 12];
        scores.extend([6.0, 6.2, 5.8, 6.1]);
        let c = CycleSynchronizer::crispness_of_scores(&scores);
        assert!(c > 5.5, "crispness {c}");
        assert_eq!(CycleSynchronizer::crispness_of_scores(&[]), 0.0);
    }

    #[test]
    fn decisiveness_separates_stable_from_transition() {
        // Bimodal (stable) scores sit far from the threshold on both
        // sides; mid-transition scores hug it.
        let stable = vec![0.2f32, 0.3, 6.1, 6.3, 0.1, 5.9];
        let d1 = CycleSynchronizer::decisiveness_of_scores(&stable, 2.0, 1.0);
        let transition = vec![0.2f32, 2.1, 2.5, 6.3, 1.8, 2.9];
        let d2 = CycleSynchronizer::decisiveness_of_scores(&transition, 2.0, 1.0);
        assert!(d1 > d2 * 1.5, "stable {d1} vs transition {d2}");
        assert_eq!(
            CycleSynchronizer::decisiveness_of_scores(&[], 2.0, 1.0),
            0.0
        );
    }

    #[test]
    fn end_to_end_with_real_scores() {
        // Score real captures rendered with a known (nonzero) phase and
        // recover it.
        use crate::dataframe::DataFrame;
        use crate::demux::Demultiplexer;
        use crate::layout::DataLayout;
        use crate::pattern::{complementary_pair, Complementation};
        use inframe_frame::geometry::Homography;
        use inframe_frame::Plane;

        let cfg = InFrameConfig::small_test();
        let layout = DataLayout::from_config(&cfg);
        let payload: Vec<bool> = (0..layout.payload_bits_parity())
            .map(|i| i % 2 == 0)
            .collect();
        let data = DataFrame::encode(&layout, &payload, cfg.coding);
        let video = Plane::filled(cfg.display_w, cfg.display_h, 127.0);
        let (crisp_frame, _) = complementary_pair(
            &layout,
            &video,
            &data,
            cfg.delta,
            Complementation::Code,
            |bx, by| {
                if data.bit(bx, by) {
                    1.0
                } else {
                    0.0
                }
            },
        );
        let faded = video.clone(); // transition-half capture: washed out

        let mut demux =
            Demultiplexer::new(cfg, &Homography::identity(), cfg.display_w, cfg.display_h);
        let mut sync = CycleSynchronizer::new(&cfg);
        let d = sync.cycle_duration();
        let true_phase = 0.04;
        for j in 0..36 {
            let t = j as f64 / 30.0;
            let folded = ((t - true_phase) % d + d) % d;
            let capture = if folded / d < 0.5 {
                &crisp_frame
            } else {
                &faded
            };
            let scores = demux.score_capture(capture);
            sync.observe(t, CycleSynchronizer::crispness_of_scores(&scores));
        }
        let est = sync.estimate().unwrap();
        let err = {
            let e = (est.phase - true_phase).abs() % d;
            e.min(d - e)
        };
        assert!(err < d * 0.15, "estimated {} err {err}", est.phase);
    }

    #[test]
    fn forced_degradation_walks_the_state_machine() {
        // External evidence (decode-quality collapse) must drive the same
        // LOCKED → SUSPECT → REACQUIRING path as a crispness collapse.
        let cfg = InFrameConfig::small_test();
        let mut tracker = PhaseTracker::locked_at(&cfg, TrackerPolicy::default(), 0.0);
        assert_eq!(tracker.force_suspect(), Some(TrackerEvent::Suspect));
        assert_eq!(tracker.force_suspect(), None, "already suspect");
        assert_eq!(tracker.state(), LockState::Suspect);
        assert_eq!(tracker.force_lock_lost(), Some(TrackerEvent::LockLost));
        assert_eq!(tracker.state(), LockState::Reacquiring);
        assert_eq!(tracker.lock_losses(), 1);
        assert_eq!(tracker.force_lock_lost(), None, "nothing left to lose");
        assert!(tracker.phase().is_some(), "stale phase kept for telemetry");
    }

    #[test]
    fn instrumented_tracker_reports_transitions_and_dumps_on_loss() {
        let cfg = InFrameConfig::small_test();
        let tele = Telemetry::new();
        let mut tracker =
            PhaseTracker::locked_at(&cfg, TrackerPolicy::default(), 0.0).with_telemetry(&tele);
        let d = cfg.tau as f64 / cfg.refresh_hz;
        let _ = feed(&mut tracker, 0.0, 0, 12, d);
        tracker.force_suspect();
        tracker.force_lock_lost();
        let summary = tele.summary();
        assert_eq!(summary.counter(names::sync::LOCK_LOSSES), 1);
        assert_eq!(summary.counter(names::sync::TRANSITIONS), 2);
        assert_eq!(
            summary
                .histogram(names::sync::IN_STATE_US)
                .expect("in-state histogram registered")
                .count,
            2
        );
        let dump = tele.lock_loss_dump();
        assert!(
            dump.iter().any(|r| matches!(
                r.event,
                inframe_obs::Event::SyncTransition {
                    from: inframe_obs::PhaseState::Suspect,
                    to: inframe_obs::PhaseState::Reacquiring,
                    ..
                }
            )),
            "recorder must capture the SUSPECT→REACQUIRING loss: {dump:?}"
        );
    }

    #[test]
    fn window_bounds_history() {
        let mut sync = synchronizer();
        sync.set_window(10);
        for j in 0..50 {
            sync.observe(j as f64 / 30.0, 3.0);
        }
        assert_eq!(sync.len(), 10);
        sync.clear();
        assert!(sync.is_empty());
    }

    #[test]
    fn set_window_trims_existing_history() {
        let mut sync = synchronizer();
        for j in 0..20 {
            sync.observe(j as f64 / 30.0, 3.0);
        }
        sync.set_window(6);
        assert_eq!(sync.len(), 6);
    }

    /// Synthetic stream for tracker tests: crisp in the true stable half,
    /// faded otherwise, starting at capture index `j0`.
    fn feed(
        tracker: &mut PhaseTracker,
        true_phase: f64,
        j0: usize,
        captures: usize,
        d: f64,
    ) -> Vec<TrackerEvent> {
        let mut events = Vec::new();
        for j in j0..j0 + captures {
            let t = j as f64 / 30.0;
            let folded = ((t - true_phase) % d + d) % d;
            let crisp = if folded / d < 0.5 { 6.0 } else { 1.2 };
            if let Some(e) = tracker.observe(t, crisp) {
                events.push(e);
            }
        }
        events
    }

    #[test]
    fn tracker_acquires_then_stays_locked_on_a_clean_channel() {
        let cfg = InFrameConfig::small_test();
        let mut tracker = PhaseTracker::acquiring(&cfg, TrackerPolicy::default());
        assert_eq!(tracker.state(), LockState::Acquiring);
        assert!(!tracker.is_decodable());
        let d = cfg.tau as f64 / cfg.refresh_hz;
        let events = feed(&mut tracker, 0.04, 0, 40, d);
        assert!(matches!(events.first(), Some(TrackerEvent::Locked { .. })));
        assert_eq!(tracker.state(), LockState::Locked);
        assert_eq!(events.len(), 1, "no spurious transitions: {events:?}");
        let err = {
            let p = tracker.phase().unwrap();
            let e = (p - 0.04).abs() % d;
            e.min(d - e)
        };
        assert!(err < d * 0.15);
    }

    #[test]
    fn tracker_suspects_then_drops_then_relocks_after_a_desync() {
        let cfg = InFrameConfig::small_test();
        let d = cfg.tau as f64 / cfg.refresh_hz;
        let mut tracker = PhaseTracker::locked_at(&cfg, TrackerPolicy::default(), 0.0);
        let mut events = feed(&mut tracker, 0.0, 0, 30, d);
        assert!(events.is_empty(), "healthy lock must hold: {events:?}");
        // The sender's cycle origin jumps by half a cycle: everything the
        // old lock calls stable-half is now faded.
        let shifted = 0.5 * d;
        events = feed(&mut tracker, shifted, 30, 60, d);
        let kinds: Vec<&TrackerEvent> = events.iter().collect();
        assert!(
            matches!(kinds[0], TrackerEvent::Suspect),
            "first SUSPECT: {events:?}"
        );
        assert!(
            events.iter().any(|e| matches!(e, TrackerEvent::LockLost)),
            "lock must drop: {events:?}"
        );
        let relock = events
            .iter()
            .find_map(|e| match e {
                TrackerEvent::Locked { phase } => Some(*phase),
                _ => None,
            })
            .expect("must relock");
        let err = {
            let e = (relock - shifted).abs() % d;
            e.min(d - e)
        };
        assert!(err < d * 0.2, "relocked at {relock}, want {shifted}");
        assert_eq!(tracker.lock_losses(), 1);
        assert_eq!(tracker.relocks(), 1);
    }

    #[test]
    fn transient_dip_recovers_without_losing_the_lock() {
        let cfg = InFrameConfig::small_test();
        let d = cfg.tau as f64 / cfg.refresh_hz;
        let mut tracker = PhaseTracker::locked_at(&cfg, TrackerPolicy::default(), 0.0);
        let _ = feed(&mut tracker, 0.0, 0, 24, d);
        // A short occluded burst: crisp collapses everywhere for a few
        // captures, then the channel comes back at the same phase.
        let mut events = Vec::new();
        for j in 24..33 {
            let t = j as f64 / 30.0;
            if let Some(e) = tracker.observe(t, 0.3) {
                events.push(e);
            }
        }
        for j in 33..60 {
            let t = j as f64 / 30.0;
            let folded = (t % d + d) % d;
            let crisp = if folded / d < 0.5 { 6.0 } else { 1.2 };
            if let Some(e) = tracker.observe(t, crisp) {
                events.push(e);
            }
        }
        assert!(
            events.contains(&TrackerEvent::Suspect),
            "dip must be noticed: {events:?}"
        );
        assert!(
            events.contains(&TrackerEvent::Recovered),
            "must recover in place: {events:?}"
        );
        assert_eq!(tracker.lock_losses(), 0, "no re-acquisition needed");
        assert_eq!(tracker.state(), LockState::Locked);
    }

    #[test]
    fn reacquisition_is_bounded_after_fault_clearance() {
        let cfg = InFrameConfig::small_test();
        let d = cfg.tau as f64 / cfg.refresh_hz;
        let policy = TrackerPolicy::default();
        let mut tracker = PhaseTracker::locked_at(&cfg, policy.clone(), 0.0);
        let _ = feed(&mut tracker, 0.0, 0, 24, d);
        // A long flat-channel fault: the tracker drops the lock mid-fault
        // and keeps re-clearing its polluted window.
        for j in 24..120 {
            let _ = tracker.observe(j as f64 / 30.0, 0.2);
        }
        assert_eq!(tracker.state(), LockState::Reacquiring);
        // Once the channel clears, the relock needs at most
        // 2×min_captures + min_captures observations (worst-case window
        // pollution + a fresh fill) — 8 cycles at ~3 captures/cycle.
        let mut relock_obs = None;
        for (n, j) in (120..120 + 3 * policy.min_captures + 1).enumerate() {
            let t = j as f64 / 30.0;
            let folded = (t % d + d) % d;
            let crisp = if folded / d < 0.5 { 6.0 } else { 1.2 };
            if let Some(TrackerEvent::Locked { .. }) = tracker.observe(t, crisp) {
                relock_obs = Some(n + 1);
                break;
            }
        }
        let n = relock_obs.expect("must relock after clearance");
        assert!(n <= 3 * policy.min_captures, "relock took {n} captures");
    }
}
