//! Timekeeping prefetcher (Hu, Kaxiras & Martonosi, ISCA 2002) — Table 2's
//! `TK`.
//!
//! "Determines when a cache line will no longer be used, records
//! replacement sequences, and uses both information for a timely prefetch
//! of the replacement line." Per-line idle counters (refreshed every 512
//! cycles, death threshold 1023 cycles — Table 3) detect dead blocks; an
//! 8 KB 8-way address-correlation table remembers, for each line, which
//! line historically replaced it; when a resident line is declared dead its
//! recorded replacement is prefetched into the L1.

use crate::table::AssocTable;
use microlib_model::{
    AccessEvent, AccessOutcome, Addr, AttachPoint, Cycle, EvictEvent, HardwareBudget, Mechanism,
    MechanismStats, PrefetchDestination, PrefetchQueue, PrefetchRequest, RefillEvent, SramTable,
    VictimAction,
};
use std::collections::HashMap;

/// Table 3: TK refresh interval (cycles).
pub const REFRESH_INTERVAL: u64 = 512;
/// Table 3: TK death threshold (cycles).
pub const DEATH_THRESHOLD: u64 = 1023;

#[derive(Clone, Copy, Debug)]
struct Residence {
    last_access: Cycle,
    death_handled: bool,
}

/// The timekeeping prefetcher.
///
/// # Examples
///
/// ```
/// use microlib_mech::TimekeepingPrefetcher;
/// use microlib_model::Mechanism;
///
/// let tk = TimekeepingPrefetcher::new();
/// assert_eq!(tk.name(), "TK");
/// assert_eq!(tk.request_queue_capacity(), 128);
/// ```
#[derive(Clone, Copy, Debug)]
struct Correlation {
    successor: u64,
    confidence: u8,
}

/// The timekeeping prefetcher (see module docs; Table 3 parameters).
#[derive(Clone, Debug)]
pub struct TimekeepingPrefetcher {
    resident: HashMap<u64, Residence>,
    correlation: AssocTable<Correlation>,
    corr_entries: usize,
    last_evicted: Option<u64>,
    pending_predictions: Vec<u64>,
    stats: MechanismStats,
}

impl Default for TimekeepingPrefetcher {
    fn default() -> Self {
        Self::new()
    }
}

impl TimekeepingPrefetcher {
    /// Table 3 configuration: 8 KB 8-way correlation table.
    pub fn new() -> Self {
        // 8 KB at ~8 bytes/entry = 1024 entries, 8-way.
        TimekeepingPrefetcher {
            resident: HashMap::new(),
            correlation: AssocTable::new(128, 8),
            corr_entries: 1024,
            last_evicted: None,
            pending_predictions: Vec::new(),
            stats: MechanismStats::default(),
        }
    }
}

impl Mechanism for TimekeepingPrefetcher {
    fn name(&self) -> &str {
        "TK"
    }

    fn attach_point(&self) -> AttachPoint {
        AttachPoint::L1Data
    }

    fn warm_events_only(&self) -> bool {
        // eviction observer + prefetcher: never captures or spills.
        true
    }

    fn request_queue_capacity(&self) -> usize {
        128 // Table 3: Timekeeping prefetcher request queue
    }

    fn on_access(&mut self, event: &AccessEvent, prefetch: &mut PrefetchQueue) {
        if event.first_touch_of_prefetch {
            self.stats.prefetches_useful += 1;
        }
        if event.outcome == AccessOutcome::Miss {
            return; // residence begins at the refill
        }
        if let Some(r) = self.resident.get_mut(&event.line.raw()) {
            r.last_access = event.now;
            r.death_handled = false;
        } else {
            self.resident.insert(
                event.line.raw(),
                Residence {
                    last_access: event.now,
                    death_handled: false,
                },
            );
        }
        // Drain predictions deferred from the refresh scan.
        for target in self.pending_predictions.drain(..) {
            self.stats.prefetches_requested += 1;
            prefetch.push(PrefetchRequest {
                line: Addr::new(target),
                destination: PrefetchDestination::Cache,
            });
        }
    }

    fn on_evict(&mut self, event: &EvictEvent) -> VictimAction {
        self.resident.remove(&event.line.raw());
        self.last_evicted = Some(event.line.raw());
        VictimAction::Dropped
    }

    fn on_refill(&mut self, event: &RefillEvent, _prefetch: &mut PrefetchQueue) {
        let line = event.line.raw();
        self.resident.insert(
            line,
            Residence {
                last_access: event.now,
                death_handled: false,
            },
        );
        // Learn the replacement sequence: the victim evicted this cycle was
        // replaced by this line. Only same-set pairs are true replacements
        // (baseline L1 geometry: 1024 sets of 32-byte lines), and a 2-bit
        // confidence counter suppresses one-off (noisy) pairs.
        let same_set = |a: u64, b: u64| ((a >> 5) & 1023) == ((b >> 5) & 1023);
        if let Some(victim) = self.last_evicted.take() {
            if victim != line && same_set(victim, line) {
                self.stats.table_writes += 1;
                match self.correlation.get_mut(&victim) {
                    Some(c) if c.successor == line => {
                        c.confidence = (c.confidence + 1).min(3);
                    }
                    Some(c) => {
                        if c.confidence > 0 {
                            c.confidence -= 1;
                        } else {
                            c.successor = line;
                            c.confidence = 1;
                        }
                    }
                    None => {
                        self.correlation.insert(
                            victim,
                            Correlation {
                                successor: line,
                                confidence: 1,
                            },
                        );
                    }
                }
            }
        }
    }

    fn tick(&mut self, now: Cycle) {
        // Refresh scan: every REFRESH_INTERVAL cycles, look for lines whose
        // idle time crossed the death threshold and schedule the prefetch
        // of their recorded replacement.
        if !now.raw().is_multiple_of(REFRESH_INTERVAL) || now.raw() == 0 {
            return;
        }
        let mut dead_lines = Vec::new();
        for (line, r) in self.resident.iter_mut() {
            if !r.death_handled && now.since(r.last_access) > DEATH_THRESHOLD {
                r.death_handled = true;
                dead_lines.push(*line);
            }
        }
        // The residency map iterates in hash order, which varies from
        // process to process; predictions must enqueue in a reproducible
        // order or the whole simulation stops being run-to-run
        // deterministic.
        dead_lines.sort_unstable();
        for line in dead_lines {
            self.stats.table_reads += 1;
            if let Some(c) = self.correlation.peek(&line).copied() {
                if c.confidence >= 3 {
                    self.pending_predictions.push(c.successor);
                }
            }
        }
    }

    fn next_tick(&self, now: Cycle) -> Cycle {
        // `tick` only acts on refresh boundaries (and never at cycle 0).
        Cycle::new((now.raw() / REFRESH_INTERVAL + 1) * REFRESH_INTERVAL)
    }

    fn hardware(&self) -> HardwareBudget {
        HardwareBudget::with_tables(
            "TK",
            vec![
                SramTable {
                    name: "address correlation table".to_owned(),
                    entries: self.corr_entries as u64,
                    entry_bits: 27 + 32, // tag + successor line
                    assoc: 8,
                    ports: 1,
                },
                SramTable {
                    name: "per-line timekeeping counters".to_owned(),
                    entries: 1024, // one per L1 line
                    entry_bits: 8, // coarse 2-bit decay + state, padded
                    assoc: 1,
                    ports: 1,
                },
            ],
        )
    }

    fn stats(&self) -> MechanismStats {
        self.stats
    }

    fn reset(&mut self) {
        self.resident.clear();
        self.correlation.clear();
        self.last_evicted = None;
        self.pending_predictions.clear();
        self.stats = MechanismStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microlib_model::{AccessKind, LineData, RefillCause};

    fn refill(line: u64, now: u64) -> RefillEvent {
        RefillEvent {
            now: Cycle::new(now),
            line: Addr::new(line),
            data: LineData::zeroed(4),
            cause: RefillCause::Demand,
        }
    }

    fn evict(line: u64, now: u64) -> EvictEvent {
        EvictEvent {
            now: Cycle::new(now),
            line: Addr::new(line),
            dirty: false,
            data: LineData::zeroed(4),
            untouched_prefetch: false,
        }
    }

    fn hit(line: u64, now: u64) -> AccessEvent {
        AccessEvent {
            now: Cycle::new(now),
            pc: Addr::new(0x40_0000),
            addr: Addr::new(line),
            line: Addr::new(line),
            kind: AccessKind::Load,
            outcome: AccessOutcome::Hit,
            first_touch_of_prefetch: false,
            value: Some(0),
        }
    }

    /// Replays "A evicted, B fills" so the confidence counter reaches the
    /// prediction threshold.
    fn train_replacement(tk: &mut TimekeepingPrefetcher, q: &mut PrefetchQueue, t0: u64) {
        // 0x1000 and 0x9000 map to the same L1 set (sets repeat per 32 KB).
        tk.on_evict(&evict(0x1000, t0));
        tk.on_refill(&refill(0x9000, t0), q);
        tk.on_evict(&evict(0x9000, t0 + 5));
        tk.on_refill(&refill(0x1000, t0 + 5), q);
    }

    #[test]
    fn learns_replacement_and_prefetches_on_death() {
        let mut tk = TimekeepingPrefetcher::new();
        let mut q = PrefetchQueue::new(128);
        tk.on_refill(&refill(0x1000, 0), &mut q);
        // Three observations of "B replaces A" reach full confidence.
        train_replacement(&mut tk, &mut q, 10);
        train_replacement(&mut tk, &mut q, 30);
        train_replacement(&mut tk, &mut q, 50);
        tk.on_access(&hit(0x1000, 60), &mut q);
        // Idle scan after threshold: next refresh boundary past 40+1023.
        tk.tick(Cycle::new(1536));
        // Prediction drains on the next access event.
        tk.on_access(&hit(0x3000, 1537), &mut q);
        let targets: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|r| r.line.raw())
            .collect();
        assert!(targets.contains(&0x9000), "targets {targets:x?}");
    }

    #[test]
    fn single_observation_lacks_confidence() {
        let mut tk = TimekeepingPrefetcher::new();
        let mut q = PrefetchQueue::new(128);
        tk.on_refill(&refill(0x1000, 0), &mut q);
        train_replacement(&mut tk, &mut q, 10);
        tk.on_access(&hit(0x1000, 20), &mut q);
        tk.tick(Cycle::new(1536));
        tk.on_access(&hit(0x3000, 1537), &mut q);
        assert!(q.is_empty(), "one observation must not predict");
    }

    #[test]
    fn live_lines_are_not_declared_dead() {
        let mut tk = TimekeepingPrefetcher::new();
        let mut q = PrefetchQueue::new(128);
        tk.on_refill(&refill(0x1000, 0), &mut q);
        tk.on_evict(&evict(0x1000, 5));
        tk.on_refill(&refill(0x2000, 5), &mut q);
        tk.on_evict(&evict(0x2000, 9));
        tk.on_refill(&refill(0x1000, 9), &mut q);
        // Keep touching the line: never idle long enough.
        for t in (0..4096u64).step_by(100) {
            tk.on_access(&hit(0x1000, t.max(10)), &mut q);
            tk.tick(Cycle::new((t / 512) * 512));
        }
        assert!(q.is_empty(), "live line must not trigger prefetch");
    }

    #[test]
    fn death_prediction_fires_once_per_residence() {
        let mut tk = TimekeepingPrefetcher::new();
        let mut q = PrefetchQueue::new(128);
        tk.on_refill(&refill(0x1000, 0), &mut q);
        train_replacement(&mut tk, &mut q, 1);
        train_replacement(&mut tk, &mut q, 10);
        train_replacement(&mut tk, &mut q, 15);
        tk.on_access(&hit(0x1000, 20), &mut q);
        tk.tick(Cycle::new(1536));
        tk.on_access(&hit(0x9000, 1537), &mut q);
        let first: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|r| r.line.raw())
            .collect();
        tk.tick(Cycle::new(2048));
        tk.on_access(&hit(0x9000, 2049), &mut q);
        assert!(q.is_empty(), "no duplicate death prediction");
        assert!(first.contains(&0x9000));
    }

    /// `next_tick` names exactly the refresh boundaries: ticking only at
    /// the cycles it returns leaves the same predictions and counters as
    /// ticking every cycle.
    #[test]
    fn next_tick_visits_every_refresh_boundary() {
        assert_eq!(
            TimekeepingPrefetcher::new().next_tick(Cycle::ZERO),
            Cycle::new(512)
        );
        assert_eq!(
            TimekeepingPrefetcher::new().next_tick(Cycle::new(511)),
            Cycle::new(512)
        );
        assert_eq!(
            TimekeepingPrefetcher::new().next_tick(Cycle::new(512)),
            Cycle::new(1024)
        );
        let trained = || {
            let mut tk = TimekeepingPrefetcher::new();
            let mut q = PrefetchQueue::new(128);
            tk.on_refill(&refill(0x1000, 0), &mut q);
            for t0 in [10, 30, 50] {
                train_replacement(&mut tk, &mut q, t0);
            }
            tk.on_access(&hit(0x1000, 60), &mut q);
            tk
        };
        let (mut every, mut jumping) = (trained(), trained());
        let mut next = jumping.next_tick(Cycle::new(60));
        for t in 61..5_000 {
            every.tick(Cycle::new(t));
            if t == next.raw() {
                jumping.tick(Cycle::new(t));
                next = jumping.next_tick(Cycle::new(t));
            }
        }
        let drain = |tk: &mut TimekeepingPrefetcher| {
            let mut q = PrefetchQueue::new(128);
            tk.on_access(&hit(0x3000, 5_000), &mut q);
            std::iter::from_fn(move || q.pop().map(|r| r.line.raw())).collect::<Vec<_>>()
        };
        let predicted = drain(&mut every);
        assert!(predicted.contains(&0x9000), "{predicted:x?}");
        assert_eq!(drain(&mut jumping), predicted);
        assert_eq!(jumping.stats(), every.stats());
    }
}
