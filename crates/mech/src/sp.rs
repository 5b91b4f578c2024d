//! Stride Prefetching (Chen & Baer, MICRO 1992; evaluated at the L2 as in
//! Nesbit & Smith's baseline) — Table 2's `SP`.
//!
//! A per-PC reference-prediction table runs the classic
//! initial → transient → steady finite-state machine; once a load's stride
//! is steady, the next line at `addr + stride` is prefetched. Table 3:
//! 512 PC entries, request queue size 1.

use crate::table::AssocTable;
use microlib_model::{
    AccessEvent, AccessOutcome, AttachPoint, Cycle, HardwareBudget, Mechanism, MechanismStats,
    PrefetchDestination, PrefetchQueue, PrefetchRequest, SramTable,
};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum StrideState {
    Initial,
    Transient,
    Steady,
}

#[derive(Clone, Copy, Debug)]
struct StrideEntry {
    last_addr: u64,
    stride: i64,
    state: StrideState,
}

/// Per-PC stride prefetcher.
///
/// # Examples
///
/// ```
/// use microlib_mech::StridePrefetcher;
/// use microlib_model::Mechanism;
///
/// let sp = StridePrefetcher::new();
/// assert_eq!(sp.name(), "SP");
/// assert_eq!(sp.request_queue_capacity(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct StridePrefetcher {
    table: AssocTable<StrideEntry>,
    pc_entries: usize,
    line_bytes: u64,
    degree: u32,
    stats: MechanismStats,
}

impl Default for StridePrefetcher {
    fn default() -> Self {
        Self::new()
    }
}

impl StridePrefetcher {
    /// Table 3 configuration: 512 PC entries.
    pub fn new() -> Self {
        Self::with_entries(512)
    }

    /// Custom table size (sensitivity studies).
    pub fn with_entries(pc_entries: usize) -> Self {
        StridePrefetcher {
            table: AssocTable::new(pc_entries.next_power_of_two(), 1),
            pc_entries,
            line_bytes: 64,
            degree: 1,
            stats: MechanismStats::default(),
        }
    }
}

impl Mechanism for StridePrefetcher {
    fn name(&self) -> &str {
        "SP"
    }

    fn attach_point(&self) -> AttachPoint {
        AttachPoint::L2Unified
    }

    fn warm_events_only(&self) -> bool {
        // pure prefetcher: no sidecar, no captures, no spills.
        true
    }

    fn request_queue_capacity(&self) -> usize {
        1 // Table 3: Stride Prefetching, request queue size 1
    }

    fn on_access(&mut self, event: &AccessEvent, prefetch: &mut PrefetchQueue) {
        if event.first_touch_of_prefetch {
            self.stats.prefetches_useful += 1;
        }
        // The reference prediction table observes the load's full reference
        // stream as seen by this cache level (hits included) — Chen &
        // Baer's RPT semantics.
        if event.pc.is_null() {
            return;
        }
        let _ = AccessOutcome::Miss;
        self.stats.table_reads += 1;
        let addr = event.addr.raw();
        let key = event.pc.raw();
        let entry = match self.table.get_mut(&key) {
            Some(e) => e,
            None => {
                self.stats.table_writes += 1;
                self.table.insert(
                    key,
                    StrideEntry {
                        last_addr: addr,
                        stride: 0,
                        state: StrideState::Initial,
                    },
                );
                return;
            }
        };
        let observed = addr as i64 - entry.last_addr as i64;
        entry.last_addr = addr;
        self.stats.table_writes += 1;
        match entry.state {
            StrideState::Initial => {
                entry.stride = observed;
                entry.state = StrideState::Transient;
            }
            StrideState::Transient => {
                if observed == entry.stride && observed != 0 {
                    entry.state = StrideState::Steady;
                } else {
                    entry.stride = observed;
                }
            }
            StrideState::Steady => {
                if observed != entry.stride {
                    entry.stride = observed;
                    entry.state = StrideState::Transient;
                }
            }
        }
        if entry.state == StrideState::Steady {
            // Prefetch along the stride with enough lookahead to land in
            // the *next* cache line even for sub-line strides (the L2
            // adaptation of the reference prediction table).
            let stride = entry.stride;
            let line = self.line_bytes as i64;
            let effective = if stride.abs() < line {
                line * stride.signum()
            } else {
                stride
            };
            for k in 1..=self.degree as i64 {
                let target = addr as i64 + effective * k;
                if target <= 0 {
                    break;
                }
                self.stats.prefetches_requested += 1;
                prefetch.push(PrefetchRequest {
                    line: microlib_model::Addr::new(target as u64 & !(self.line_bytes - 1)),
                    destination: PrefetchDestination::Cache,
                });
            }
        }
    }

    fn next_tick(&self, _now: Cycle) -> Cycle {
        Cycle::NEVER // no time-based state, no sidecar to spill
    }

    fn hardware(&self) -> HardwareBudget {
        // PC tag + last address (32b truncated) + stride (16b) + state (2b).
        HardwareBudget::with_tables(
            "SP",
            vec![SramTable {
                name: "reference prediction table".to_owned(),
                entries: self.pc_entries as u64,
                entry_bits: 20 + 32 + 16 + 2,
                assoc: 1,
                ports: 1,
            }],
        )
    }

    fn stats(&self) -> MechanismStats {
        self.stats
    }

    fn reset(&mut self) {
        self.table.clear();
        self.stats = MechanismStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microlib_model::{AccessKind, Addr, Cycle};

    fn miss(pc: u64, addr: u64) -> AccessEvent {
        AccessEvent {
            now: Cycle::ZERO,
            pc: Addr::new(pc),
            addr: Addr::new(addr),
            line: Addr::new(addr & !63),
            kind: AccessKind::Load,
            outcome: AccessOutcome::Miss,
            first_touch_of_prefetch: false,
            value: Some(0),
        }
    }

    #[test]
    fn steady_stride_prefetches() {
        let mut sp = StridePrefetcher::new();
        let mut q = PrefetchQueue::new(4);
        // Three accesses with stride 256 train the FSM...
        sp.on_access(&miss(0x400, 0x10_000), &mut q);
        sp.on_access(&miss(0x400, 0x10_100), &mut q);
        sp.on_access(&miss(0x400, 0x10_200), &mut q);
        // ...initial -> transient -> steady: the third access prefetches.
        let req = q.pop().expect("steady stride must prefetch");
        assert_eq!(req.line, Addr::new(0x10_300));
    }

    #[test]
    fn irregular_addresses_stay_quiet() {
        let mut sp = StridePrefetcher::new();
        let mut q = PrefetchQueue::new(4);
        for addr in [0x1000, 0x9340, 0x2468, 0x7771 & !7] {
            sp.on_access(&miss(0x500, addr), &mut q);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn stride_change_retrains() {
        let mut sp = StridePrefetcher::new();
        let mut q = PrefetchQueue::new(16);
        for i in 0..3u64 {
            sp.on_access(&miss(0x600, 0x2_0000 + i * 64), &mut q);
        }
        q.clear();
        // Break the pattern; no prefetch until retrained.
        sp.on_access(&miss(0x600, 0x8_0000), &mut q);
        assert!(q.is_empty());
        sp.on_access(&miss(0x600, 0x8_0400), &mut q);
        assert!(q.is_empty(), "transient again");
        sp.on_access(&miss(0x600, 0x8_0800), &mut q);
        assert_eq!(q.pop().unwrap().line, Addr::new(0x8_0C00));
    }

    #[test]
    fn distinct_pcs_track_independently() {
        let mut sp = StridePrefetcher::new();
        let mut q = PrefetchQueue::new(16);
        for i in 0..4u64 {
            sp.on_access(&miss(0x700, 0x3_0000 + i * 128), &mut q);
            sp.on_access(&miss(0x704, 0x9_0000 + i * 512), &mut q);
        }
        let lines: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|r| r.line.raw())
            .collect();
        assert!(lines.contains(&((0x3_0000 + 4 * 128) & !63)));
        assert!(lines.contains(&((0x9_0000 + 4 * 512) & !63)));
    }

    #[test]
    fn hits_also_train_the_rpt() {
        // The reference prediction table observes the full reference
        // stream of this cache level, hits included.
        let mut sp = StridePrefetcher::new();
        let mut q = PrefetchQueue::new(4);
        let mut ev = miss(0x800, 0x4_0000);
        ev.outcome = AccessOutcome::Hit;
        sp.on_access(&ev, &mut q);
        assert_eq!(sp.stats().table_reads, 1);
        assert!(q.is_empty(), "a single access never prefetches");
    }

    #[test]
    fn hardware_is_small() {
        let hw = StridePrefetcher::new().hardware();
        assert!(hw.total_bytes() < 8 * 1024, "SP is a lightweight table");
    }
}
