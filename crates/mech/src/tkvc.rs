//! Timekeeping Victim Cache (Hu, Kaxiras & Martonosi, ISCA 2002) — Table
//! 2's `TKVC`.
//!
//! "Determines if a (victim) cache line will again be used, and if so,
//! decides to store it in the victim cache." The timekeeping insight: a
//! block whose *dead time* (gap between eviction and the next miss to it)
//! was short in the past is worth keeping; one whose dead time was long
//! only pollutes the small victim cache. Table 3: 512-byte fully
//! associative victim store.

use crate::table::AssocTable;
use microlib_model::{
    AccessEvent, AccessOutcome, Addr, AttachPoint, Cycle, EvictEvent, HardwareBudget, LineData,
    Mechanism, MechanismStats, PrefetchQueue, ProbeResult, Spill, SramTable, VictimAction,
};

/// Dead-time threshold below which a block is predicted "will be reused"
/// (scaled to the reproduction's trace lengths).
pub const REUSE_THRESHOLD: u64 = 16 * 1024;

#[derive(Clone, Debug)]
struct VictimLine {
    data: LineData,
    dirty: bool,
}

/// The timekeeping-filtered victim cache.
///
/// # Examples
///
/// ```
/// use microlib_mech::TimekeepingVictimCache;
/// use microlib_model::Mechanism;
///
/// let tkvc = TimekeepingVictimCache::new();
/// assert_eq!(tkvc.name(), "TKVC");
/// ```
#[derive(Clone, Debug)]
pub struct TimekeepingVictimCache {
    lines: AssocTable<VictimLine>,
    entries: usize,
    /// line -> cycle of its last eviction (bounded history).
    evicted_at: AssocTable<Cycle>,
    /// line -> whether its last observed dead time was short.
    reuse_predictor: AssocTable<bool>,
    spills: Vec<Spill>,
    stats: MechanismStats,
    admissions: u64,
    rejections: u64,
}

impl Default for TimekeepingVictimCache {
    fn default() -> Self {
        Self::new()
    }
}

impl TimekeepingVictimCache {
    /// Table 3 configuration: 512 B fully associative (16 × 32 B lines).
    pub fn new() -> Self {
        TimekeepingVictimCache {
            lines: AssocTable::new(16, 0),
            entries: 16,
            evicted_at: AssocTable::new(1024, 4),
            reuse_predictor: AssocTable::new(1024, 4),
            spills: Vec::new(),
            stats: MechanismStats::default(),
            admissions: 0,
            rejections: 0,
        }
    }

    /// Victims admitted / rejected by the reuse filter so far.
    pub fn admission_counts(&self) -> (u64, u64) {
        (self.admissions, self.rejections)
    }
}

impl Mechanism for TimekeepingVictimCache {
    fn name(&self) -> &str {
        "TKVC"
    }

    fn attach_point(&self) -> AttachPoint {
        AttachPoint::L1Data
    }

    fn on_access(&mut self, event: &AccessEvent, _prefetch: &mut PrefetchQueue) {
        if event.outcome != AccessOutcome::Miss {
            return;
        }
        // A miss to a previously evicted line reveals its dead time.
        let line = event.line.raw();
        if let Some(evicted) = self.evicted_at.remove(&line) {
            let dead_time = event.now.since(evicted);
            self.stats.table_writes += 1;
            self.reuse_predictor
                .insert(line, dead_time <= REUSE_THRESHOLD);
        }
    }

    fn on_evict(&mut self, event: &EvictEvent) -> VictimAction {
        let line = event.line.raw();
        self.evicted_at.insert(line, event.now);
        self.stats.table_reads += 1;
        let admit = self.reuse_predictor.peek(&line).copied().unwrap_or(false);
        if !admit {
            self.rejections += 1;
            return VictimAction::Dropped;
        }
        self.admissions += 1;
        self.stats.victims_captured += 1;
        if let Some((old_line, old)) = self.lines.insert(
            line,
            VictimLine {
                data: event.data,
                dirty: event.dirty,
            },
        ) {
            if old.dirty {
                self.spills.push(Spill {
                    line: Addr::new(old_line),
                    data: old.data,
                });
            }
        }
        VictimAction::Captured
    }

    fn holds(&self, line: Addr) -> bool {
        self.lines.contains(&line.raw())
    }

    fn probe(&mut self, line: Addr, _now: Cycle) -> Option<ProbeResult> {
        self.stats.table_reads += 1;
        match self.lines.remove(&line.raw()) {
            Some(v) => {
                self.stats.sidecar_hits += 1;
                Some(ProbeResult {
                    data: v.data,
                    dirty: v.dirty,
                    extra_latency: 1,
                })
            }
            None => {
                self.stats.sidecar_misses += 1;
                None
            }
        }
    }

    fn drain_spills(&mut self) -> Vec<Spill> {
        std::mem::take(&mut self.spills)
    }

    fn next_tick(&self, now: Cycle) -> Cycle {
        // No time-based state: only a pending spill needs a cycle.
        if self.spills.is_empty() {
            Cycle::NEVER
        } else {
            now + 1
        }
    }

    fn hardware(&self) -> HardwareBudget {
        HardwareBudget::with_tables(
            "TKVC",
            vec![
                SramTable {
                    name: "victim lines".to_owned(),
                    entries: self.entries as u64,
                    entry_bits: 32 * 8 + 29,
                    assoc: 0,
                    ports: 1,
                },
                SramTable {
                    name: "dead-time predictor".to_owned(),
                    entries: 4096,
                    entry_bits: 27 + 2,
                    assoc: 4,
                    ports: 1,
                },
            ],
        )
    }

    fn stats(&self) -> MechanismStats {
        self.stats
    }

    fn reset(&mut self) {
        self.lines.clear();
        self.evicted_at.clear();
        self.reuse_predictor.clear();
        self.spills.clear();
        self.stats = MechanismStats::default();
        self.admissions = 0;
        self.rejections = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microlib_model::AccessKind;

    fn evict(line: u64, now: u64) -> EvictEvent {
        EvictEvent {
            now: Cycle::new(now),
            line: Addr::new(line),
            dirty: false,
            data: LineData::zeroed(4),
            untouched_prefetch: false,
        }
    }

    fn miss(line: u64, now: u64) -> AccessEvent {
        AccessEvent {
            now: Cycle::new(now),
            pc: Addr::new(0x40_0000),
            addr: Addr::new(line),
            line: Addr::new(line),
            kind: AccessKind::Load,
            outcome: AccessOutcome::Miss,
            first_touch_of_prefetch: false,
            value: Some(0),
        }
    }

    #[test]
    fn first_eviction_is_rejected() {
        let mut tkvc = TimekeepingVictimCache::new();
        assert_eq!(tkvc.on_evict(&evict(0x1000, 10)), VictimAction::Dropped);
        assert_eq!(tkvc.admission_counts(), (0, 1));
    }

    #[test]
    fn short_dead_time_earns_admission() {
        let mut tkvc = TimekeepingVictimCache::new();
        let mut q = PrefetchQueue::new(4);
        // Evict, then re-miss quickly: short dead time observed.
        tkvc.on_evict(&evict(0x1000, 10));
        tkvc.on_access(&miss(0x1000, 500), &mut q);
        // Next eviction of the same line is admitted.
        assert_eq!(tkvc.on_evict(&evict(0x1000, 900)), VictimAction::Captured);
        assert!(tkvc.probe(Addr::new(0x1000), Cycle::new(901)).is_some());
    }

    #[test]
    fn long_dead_time_keeps_rejecting() {
        let mut tkvc = TimekeepingVictimCache::new();
        let mut q = PrefetchQueue::new(4);
        tkvc.on_evict(&evict(0x2000, 10));
        tkvc.on_access(&miss(0x2000, 10 + REUSE_THRESHOLD + 100), &mut q);
        assert_eq!(
            tkvc.on_evict(&evict(0x2000, 200_000)),
            VictimAction::Dropped
        );
    }

    #[test]
    fn probe_miss_counts() {
        let mut tkvc = TimekeepingVictimCache::new();
        assert!(tkvc.probe(Addr::new(0x3000), Cycle::ZERO).is_none());
        assert_eq!(tkvc.stats().sidecar_misses, 1);
    }
}
