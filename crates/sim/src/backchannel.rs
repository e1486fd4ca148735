//! A modeled lossy back-channel carrying receiver feedback to the
//! sender.
//!
//! InFrame's forward channel is the display; the return path — WiFi,
//! BLE, anything the receiving device has — is outside the paper's
//! scope but decisive for the closed control loop built on it. This
//! module models that path pessimistically: every
//! [`inframe_link::FeedbackReport`] is carried as its *encoded wire
//! bytes* (the real codec runs on both ends, so a corrupted report dies
//! at the checksum exactly as it would in the field), subject to
//!
//! * i.i.d. loss at a base rate,
//! * a fixed propagation delay in sender cycles, plus seeded jitter,
//! * reordering (jitter makes delivery order diverge from send order),
//! * scheduled fault windows: loss bursts (blackouts), delay spikes,
//!   duplicate storms, stale replays and byte corruption.
//!
//! Everything is seeded and cycle-clocked — no wall time — so a
//! scenario replays bit-for-bit. Buffers are pooled: steady-state
//! operation reuses in-flight slots instead of allocating.

use inframe_code::prbs::Xoshiro256;
use inframe_link::feedback::{FeedbackReport, MAX_REPORT_BYTES};

/// One class of back-channel fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FeedbackFaultKind {
    /// Reports are lost with probability `rate` (1.0 = blackout).
    Loss {
        /// Per-report loss probability.
        rate: f64,
    },
    /// Delivery delay grows by `extra_cycles` (queue buildup, roaming).
    DelaySpike {
        /// Additional delay, sender cycles.
        extra_cycles: u64,
    },
    /// Each report is delivered `copies + 1` times (retry storms in the
    /// return path; the aggregator must dedup).
    Duplicate {
        /// Extra copies per report.
        copies: u32,
    },
    /// Reports are replayed with their cycle stamp rewound by
    /// `age_cycles` — stale feedback that the aggregator must reject.
    Stale {
        /// How far the replayed stamp is rewound.
        age_cycles: u64,
    },
    /// One byte of each report is flipped in flight; the Fletcher-16
    /// checksum catches it and the report dies at decode.
    Corrupt,
}

/// A fault active over `[from_cycle, until_cycle)` in sender cycles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeedbackFaultWindow {
    /// The fault class and parameters.
    pub kind: FeedbackFaultKind,
    /// First cycle the fault is active in (inclusive).
    pub from_cycle: u64,
    /// First cycle past the fault (exclusive).
    pub until_cycle: u64,
}

impl FeedbackFaultWindow {
    /// Whether the window covers `cycle`.
    pub fn active(&self, cycle: u64) -> bool {
        (self.from_cycle..self.until_cycle).contains(&cycle)
    }
}

/// Back-channel shape: base delay, loss and jitter.
#[derive(Debug, Clone, PartialEq)]
pub struct BackchannelConfig {
    /// Propagation delay, sender cycles.
    pub delay_cycles: u64,
    /// Uniform extra delay in `[0, jitter_cycles]` per report (drives
    /// reordering).
    pub jitter_cycles: u64,
    /// Base i.i.d. report loss probability.
    pub loss: f64,
    /// Scheduled fault windows.
    pub faults: Vec<FeedbackFaultWindow>,
}

impl BackchannelConfig {
    /// A well-behaved return path: one cycle of delay, no jitter, no
    /// loss.
    pub fn clean() -> Self {
        Self {
            delay_cycles: 1,
            jitter_cycles: 0,
            loss: 0.0,
            faults: Vec::new(),
        }
    }

    /// A dead return path: every report is lost.
    pub fn dead() -> Self {
        Self {
            loss: 1.0,
            ..Self::clean()
        }
    }
}

/// One report in flight: its wire bytes and delivery cycle.
struct InFlight {
    deliver_at: u64,
    bytes: Vec<u8>,
}

/// The seeded lossy/delayed/reordering feedback channel.
pub struct Backchannel {
    config: BackchannelConfig,
    rng: Xoshiro256,
    in_flight: Vec<InFlight>,
    /// Spare buffers recycled from delivered/lost slots.
    pool: Vec<Vec<u8>>,
    scratch: Vec<u8>,
    sent: u64,
    lost: u64,
    delivered: u64,
    duplicated: u64,
    corrupted: u64,
}

impl Backchannel {
    /// A channel under `config`, seeded deterministically.
    pub fn new(config: BackchannelConfig, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&config.loss), "loss out of range");
        for w in &config.faults {
            assert!(w.from_cycle < w.until_cycle, "empty fault window");
        }
        Self {
            config,
            rng: Xoshiro256::seed_from_u64(seed ^ 0xBAC_C4A7),
            in_flight: Vec::with_capacity(16),
            pool: Vec::with_capacity(16),
            scratch: Vec::with_capacity(MAX_REPORT_BYTES),
            sent: 0,
            lost: 0,
            delivered: 0,
            duplicated: 0,
            corrupted: 0,
        }
    }

    fn fault<T>(
        &self,
        cycle: u64,
        mut pick: impl FnMut(&FeedbackFaultKind) -> Option<T>,
    ) -> Option<T> {
        self.config
            .faults
            .iter()
            .filter(|w| w.active(cycle))
            .find_map(|w| pick(&w.kind))
    }

    /// Offers one report to the channel at `now_cycle`. It may be lost,
    /// delayed, duplicated, stale-replayed or corrupted according to the
    /// base rates and the fault windows active at `now_cycle`.
    pub fn send(&mut self, report: &FeedbackReport, now_cycle: u64) {
        self.sent += 1;
        let loss = self
            .fault(now_cycle, |k| match *k {
                FeedbackFaultKind::Loss { rate } => Some(rate),
                _ => None,
            })
            .map_or(self.config.loss, |r| r.max(self.config.loss));
        if self.rng.next_f64() < loss {
            self.lost += 1;
            return;
        }
        let mut report = *report;
        if let Some(age) = self.fault(now_cycle, |k| match *k {
            FeedbackFaultKind::Stale { age_cycles } => Some(age_cycles),
            _ => None,
        }) {
            report.cycle = report.cycle.saturating_sub(age);
        }
        let spike = self
            .fault(now_cycle, |k| match *k {
                FeedbackFaultKind::DelaySpike { extra_cycles } => Some(extra_cycles),
                _ => None,
            })
            .unwrap_or(0);
        let copies = self
            .fault(now_cycle, |k| match *k {
                FeedbackFaultKind::Duplicate { copies } => Some(copies),
                _ => None,
            })
            .unwrap_or(0);
        let corrupt = self
            .fault(now_cycle, |k| match *k {
                FeedbackFaultKind::Corrupt => Some(()),
                _ => None,
            })
            .is_some();
        report.encode_into(&mut self.scratch);
        if corrupt {
            self.corrupted += 1;
            let i = (self.rng.next_u64() as usize) % self.scratch.len();
            self.scratch[i] ^= 0x40;
        }
        for copy in 0..=copies {
            if copy > 0 {
                self.duplicated += 1;
            }
            let jitter = if self.config.jitter_cycles == 0 {
                0
            } else {
                self.rng.next_u64() % (self.config.jitter_cycles + 1)
            };
            let deliver_at = now_cycle + self.config.delay_cycles + spike + jitter;
            let mut bytes = self.pool.pop().unwrap_or_default();
            bytes.clear();
            bytes.extend_from_slice(&self.scratch);
            self.in_flight.push(InFlight { deliver_at, bytes });
        }
    }

    /// Delivers every report due at `now_cycle`, invoking `sink` per
    /// decoded report. Corrupted reports fail the checksum here and are
    /// counted lost. Delivery order among due reports follows send
    /// order, but jitter lets later sends overtake earlier ones across
    /// polls — genuine reordering.
    pub fn poll(&mut self, now_cycle: u64, mut sink: impl FnMut(&FeedbackReport)) {
        let mut i = 0;
        while i < self.in_flight.len() {
            if self.in_flight[i].deliver_at <= now_cycle {
                let slot = self.in_flight.swap_remove(i);
                match FeedbackReport::decode(&slot.bytes) {
                    Some(report) => {
                        self.delivered += 1;
                        sink(&report);
                    }
                    None => self.lost += 1,
                }
                self.pool.push(slot.bytes);
            } else {
                i += 1;
            }
        }
    }

    /// Reports offered to the channel.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Reports lost (dropped in flight or killed by the checksum).
    pub fn lost(&self) -> u64 {
        self.lost
    }

    /// Reports delivered intact.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Extra copies injected by duplicate storms.
    pub fn duplicated(&self) -> u64 {
        self.duplicated
    }

    /// Reports whose bytes were flipped in flight.
    pub fn corrupted(&self) -> u64 {
        self.corrupted
    }

    /// Reports still in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inframe_link::feedback::RegionQuality;

    fn report(cycle: u64) -> FeedbackReport {
        let mut r = FeedbackReport::new(0x42, cycle);
        r.push_region(RegionQuality::quantize(0.9, 0.05));
        r
    }

    #[test]
    fn clean_channel_delivers_after_the_base_delay() {
        let mut bc = Backchannel::new(BackchannelConfig::clean(), 7);
        bc.send(&report(10), 10);
        let mut got = Vec::new();
        bc.poll(10, |r| got.push(r.cycle));
        assert!(got.is_empty(), "not due yet");
        bc.poll(11, |r| got.push(r.cycle));
        assert_eq!(got, vec![10]);
        assert_eq!(bc.delivered(), 1);
    }

    #[test]
    fn dead_channel_loses_everything() {
        let mut bc = Backchannel::new(BackchannelConfig::dead(), 7);
        for c in 0..50 {
            bc.send(&report(c), c);
        }
        let mut n = 0;
        bc.poll(u64::MAX - 1, |_| n += 1);
        assert_eq!(n, 0);
        assert_eq!(bc.lost(), 50);
    }

    #[test]
    fn corruption_dies_at_the_checksum() {
        let cfg = BackchannelConfig {
            faults: vec![FeedbackFaultWindow {
                kind: FeedbackFaultKind::Corrupt,
                from_cycle: 0,
                until_cycle: u64::MAX,
            }],
            ..BackchannelConfig::clean()
        };
        let mut bc = Backchannel::new(cfg, 7);
        bc.send(&report(0), 0);
        let mut n = 0;
        bc.poll(100, |_| n += 1);
        assert_eq!(n, 0, "corrupted report must fail decode");
        assert_eq!(bc.corrupted(), 1);
        assert_eq!(bc.lost(), 1);
    }

    #[test]
    fn duplicate_storms_replay_reports() {
        let cfg = BackchannelConfig {
            faults: vec![FeedbackFaultWindow {
                kind: FeedbackFaultKind::Duplicate { copies: 3 },
                from_cycle: 0,
                until_cycle: u64::MAX,
            }],
            ..BackchannelConfig::clean()
        };
        let mut bc = Backchannel::new(cfg, 7);
        bc.send(&report(5), 5);
        let mut n = 0;
        bc.poll(100, |_| n += 1);
        assert_eq!(n, 4, "original + 3 copies");
        assert_eq!(bc.duplicated(), 3);
    }

    #[test]
    fn stale_replay_rewinds_the_stamp() {
        let cfg = BackchannelConfig {
            faults: vec![FeedbackFaultWindow {
                kind: FeedbackFaultKind::Stale { age_cycles: 30 },
                from_cycle: 0,
                until_cycle: u64::MAX,
            }],
            ..BackchannelConfig::clean()
        };
        let mut bc = Backchannel::new(cfg, 7);
        bc.send(&report(40), 40);
        let mut stamps = Vec::new();
        bc.poll(100, |r| stamps.push(r.cycle));
        assert_eq!(stamps, vec![10]);
    }

    #[test]
    fn jitter_reorders_but_loses_nothing() {
        let cfg = BackchannelConfig {
            delay_cycles: 2,
            jitter_cycles: 6,
            loss: 0.0,
            faults: Vec::new(),
        };
        let mut bc = Backchannel::new(cfg, 3);
        for c in 0..40 {
            bc.send(&report(c), c);
        }
        let mut stamps = Vec::new();
        for now in 0..60 {
            bc.poll(now, |r| stamps.push(r.cycle));
        }
        assert_eq!(stamps.len(), 40, "nothing lost");
        let mut sorted = stamps.clone();
        sorted.sort_unstable();
        assert_ne!(stamps, sorted, "jitter must reorder delivery");
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let cfg = BackchannelConfig {
                delay_cycles: 1,
                jitter_cycles: 4,
                loss: 0.3,
                faults: Vec::new(),
            };
            let mut bc = Backchannel::new(cfg, seed);
            for c in 0..100 {
                bc.send(&report(c), c);
            }
            let mut stamps = Vec::new();
            for now in 0..120 {
                bc.poll(now, |r| stamps.push(r.cycle));
            }
            stamps
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn pool_recycles_buffers() {
        let mut bc = Backchannel::new(BackchannelConfig::clean(), 7);
        for c in 0..200u64 {
            bc.send(&report(c), c);
            bc.poll(c, |_| {});
        }
        bc.poll(u64::MAX - 1, |_| {});
        assert!(bc.pool.len() <= 4, "buffers must recycle, not accumulate");
        assert_eq!(bc.delivered(), 200);
    }
}
