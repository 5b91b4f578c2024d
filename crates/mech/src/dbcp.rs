//! Dead-Block Correlating Prefetcher (Lai, Fide & Falsafi, ISCA 2001) —
//! Table 2's `DBCP`.
//!
//! "Records access patterns finishing with a miss and prefetches whenever
//! the pattern occurs again." Each resident line accumulates a *signature*
//! (a truncated hash of the load/store PCs that touch it); when the
//! signature matches a correlation-table entry that historically preceded
//! the block's death, the block is predicted dead and the line that
//! historically replaced it is prefetched. Table 3: 1 K-entry history,
//! 2 MB 8-way correlation table, 128-entry request queue.
//!
//! Two build variants reproduce the paper's Fig 3 reverse-engineering
//! study. [`DbcpVariant::Initial`] re-creates the four documented bugs of
//! the authors' first implementation attempt:
//!
//! 1. PC addresses are **not prehashed** before being folded into the
//!    signature ("the correlation mechanism had to prehash the ld/st
//!    instruction addresses"), causing aliasing;
//! 2. the correlation table has **half the entries** ("the number of
//!    entries … was wrong (half the correct value)");
//! 3. confidence counters are **never decremented** ("the confidence
//!    counters … are decreased if the signature no longer induces misses"
//!    was omitted), polluting the table;
//! 4. signatures are truncated more aggressively (the pisa-vs-alpha
//!    signature-over-generation issue).

use crate::table::AssocTable;
use microlib_model::{
    AccessEvent, AccessOutcome, Addr, AttachPoint, Cycle, EvictEvent, HardwareBudget, Mechanism,
    MechanismStats, PrefetchDestination, PrefetchQueue, PrefetchRequest, RefillEvent, SramTable,
    VictimAction,
};
use std::collections::HashMap;

/// Which DBCP implementation to build (Fig 3).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DbcpVariant {
    /// The corrected implementation (after author feedback).
    Fixed,
    /// The first reverse-engineered implementation with its four bugs.
    Initial,
}

#[derive(Clone, Copy, Debug)]
struct CorrEntry {
    predicted_next: u64,
    confidence: u8,
}

/// The dead-block correlating prefetcher.
///
/// # Examples
///
/// ```
/// use microlib_mech::{DbcpVariant, DeadBlockPrefetcher};
/// use microlib_model::Mechanism;
///
/// let fixed = DeadBlockPrefetcher::new(DbcpVariant::Fixed);
/// let initial = DeadBlockPrefetcher::new(DbcpVariant::Initial);
/// assert_eq!(fixed.name(), "DBCP");
/// assert_eq!(initial.name(), "DBCP-initial");
/// // Bug #2: the initial variant's table is half-sized.
/// assert!(initial.hardware().total_bits() < fixed.hardware().total_bits());
/// ```
#[derive(Clone, Debug)]
pub struct DeadBlockPrefetcher {
    variant: DbcpVariant,
    /// Per-resident-line signature (the "history": 1 K lines in the L1).
    live_sigs: HashMap<u64, u32>,
    correlation: AssocTable<CorrEntry>,
    corr_entries: usize,
    /// Victim of the in-progress replacement (paired with the next refill).
    last_death: Option<(u64, u32)>,
    confidence_threshold: u8,
    stats: MechanismStats,
}

impl DeadBlockPrefetcher {
    /// Builds the chosen variant with Table 3 sizes.
    pub fn new(variant: DbcpVariant) -> Self {
        // Fixed: 2 MB / 8-way at ~16 B per entry = 131072 entries.
        // Initial bug #2: half of that.
        let corr_entries = match variant {
            DbcpVariant::Fixed => 131_072,
            DbcpVariant::Initial => 65_536,
        };
        DeadBlockPrefetcher {
            variant,
            live_sigs: HashMap::new(),
            correlation: AssocTable::new(corr_entries / 8, 8),
            corr_entries,
            last_death: None,
            confidence_threshold: 2,
            stats: MechanismStats::default(),
        }
    }

    /// The variant this instance implements.
    pub fn variant(&self) -> DbcpVariant {
        self.variant
    }

    fn pc_hash(&self, pc: u64) -> u32 {
        match self.variant {
            // Bug #1 (initial): raw low PC bits alias heavily (PCs are
            // 4-byte aligned and clustered).
            DbcpVariant::Initial => (pc & 0xFFF) as u32,
            DbcpVariant::Fixed => (pc.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as u32,
        }
    }

    fn truncate_sig(&self, sig: u32) -> u32 {
        match self.variant {
            // Bug #4 (initial): narrower signatures over-alias.
            DbcpVariant::Initial => sig & 0xFF,
            DbcpVariant::Fixed => sig & 0xFFFF,
        }
    }

    fn corr_key(&self, sig: u32, line: u64) -> u64 {
        ((sig as u64) << 32) ^ (line >> 5)
    }
}

impl Mechanism for DeadBlockPrefetcher {
    fn name(&self) -> &str {
        match self.variant {
            DbcpVariant::Fixed => "DBCP",
            DbcpVariant::Initial => "DBCP-initial",
        }
    }

    fn attach_point(&self) -> AttachPoint {
        AttachPoint::L1Data
    }

    fn warm_events_only(&self) -> bool {
        // eviction observer + prefetcher: never captures or spills.
        true
    }

    fn request_queue_capacity(&self) -> usize {
        128 // Table 3: DBCP request queue
    }

    fn on_access(&mut self, event: &AccessEvent, prefetch: &mut PrefetchQueue) {
        if event.first_touch_of_prefetch {
            self.stats.prefetches_useful += 1;
        }
        if event.pc.is_null() {
            return;
        }
        let line = event.line.raw();
        let h = self.pc_hash(event.pc.raw());
        let prev_sig = self.live_sigs.get(&line).copied().unwrap_or(0);
        let sig_now = self.truncate_sig(prev_sig.wrapping_add(h).rotate_left(3));
        self.live_sigs.insert(line, sig_now);
        if event.outcome != AccessOutcome::Hit {
            return;
        }
        // Does the current signature historically precede this block's
        // death?
        self.stats.table_reads += 1;
        let key = self.corr_key(sig_now, line);
        if let Some(e) = self.correlation.peek(&key) {
            if e.confidence >= self.confidence_threshold {
                self.stats.prefetches_requested += 1;
                prefetch.push(PrefetchRequest {
                    line: Addr::new(e.predicted_next),
                    destination: PrefetchDestination::Cache,
                });
            }
        }
    }

    fn on_evict(&mut self, event: &EvictEvent) -> VictimAction {
        let line = event.line.raw();
        let sig = self.live_sigs.remove(&line).unwrap_or(0);
        self.last_death = Some((line, sig));
        VictimAction::Dropped
    }

    fn on_refill(&mut self, event: &RefillEvent, _prefetch: &mut PrefetchQueue) {
        let new_line = event.line.raw();
        let Some((victim, sig)) = self.last_death.take() else {
            return;
        };
        // Only a same-set fill is the victim's true replacement (baseline
        // L1 geometry: 1024 sets of 32-byte lines).
        if victim == new_line || ((victim >> 5) & 1023) != ((new_line >> 5) & 1023) {
            return;
        }
        let key = self.corr_key(sig, victim);
        self.stats.table_writes += 1;
        match self.correlation.get_mut(&key) {
            Some(e) if e.predicted_next == new_line => {
                e.confidence = (e.confidence + 1).min(3);
            }
            Some(e) => {
                if self.variant == DbcpVariant::Fixed {
                    // The fixed implementation decrements stale entries
                    // (bug #3 in the initial one never does, polluting the
                    // table with useless signatures).
                    if e.confidence > 0 {
                        e.confidence -= 1;
                    } else {
                        e.predicted_next = new_line;
                        e.confidence = 2;
                    }
                }
            }
            None => {
                self.correlation.insert(
                    key,
                    CorrEntry {
                        predicted_next: new_line,
                        confidence: 2,
                    },
                );
            }
        }
    }

    fn next_tick(&self, _now: Cycle) -> Cycle {
        Cycle::NEVER // no time-based state, no sidecar to spill
    }

    fn hardware(&self) -> HardwareBudget {
        HardwareBudget::with_tables(
            self.name(),
            vec![
                SramTable {
                    name: "correlation table".to_owned(),
                    entries: self.corr_entries as u64,
                    entry_bits: 128, // signature tag + address + confidence
                    assoc: 8,
                    ports: 1,
                },
                SramTable {
                    name: "history (per-line signatures)".to_owned(),
                    entries: 1024,
                    entry_bits: 16,
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
        self.live_sigs.clear();
        self.correlation.clear();
        self.last_death = None;
        self.stats = MechanismStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microlib_model::{AccessKind, Cycle, LineData, RefillCause};

    fn access(pc: u64, line: u64, outcome: AccessOutcome) -> AccessEvent {
        AccessEvent {
            now: Cycle::ZERO,
            pc: Addr::new(pc),
            addr: Addr::new(line),
            line: Addr::new(line),
            kind: AccessKind::Load,
            outcome,
            first_touch_of_prefetch: false,
            value: Some(0),
        }
    }

    fn evict(line: u64) -> EvictEvent {
        EvictEvent {
            now: Cycle::ZERO,
            line: Addr::new(line),
            dirty: false,
            data: LineData::zeroed(4),
            untouched_prefetch: false,
        }
    }

    fn refill(line: u64) -> RefillEvent {
        RefillEvent {
            now: Cycle::ZERO,
            line: Addr::new(line),
            data: LineData::zeroed(4),
            cause: RefillCause::Demand,
        }
    }

    /// Replays a block generation: PC sequence touching `line`, then death
    /// (evicted, replaced by `next`).
    fn generation(d: &mut DeadBlockPrefetcher, q: &mut PrefetchQueue, line: u64, next: u64) {
        d.on_access(&access(0x400, line, AccessOutcome::Miss), q);
        d.on_access(&access(0x404, line, AccessOutcome::Hit), q);
        d.on_access(&access(0x408, line, AccessOutcome::Hit), q);
        d.on_evict(&evict(line));
        d.on_refill(&refill(next), q);
    }

    #[test]
    fn repeated_pattern_predicts_replacement() {
        let mut d = DeadBlockPrefetcher::new(DbcpVariant::Fixed);
        let mut q = PrefetchQueue::new(128);
        // Two generations establish the correlation with confidence.
        generation(&mut d, &mut q, 0x1000, 0x9000);
        generation(&mut d, &mut q, 0x1000, 0x9000);
        q.clear();
        // Third generation: after the same PC trace, the death is
        // predicted and 0x2000 prefetched.
        d.on_access(&access(0x400, 0x1000, AccessOutcome::Miss), &mut q);
        d.on_access(&access(0x404, 0x1000, AccessOutcome::Hit), &mut q);
        d.on_access(&access(0x408, 0x1000, AccessOutcome::Hit), &mut q);
        let targets: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|r| r.line.raw())
            .collect();
        assert!(targets.contains(&0x9000), "targets {targets:x?}");
    }

    #[test]
    fn different_pc_trace_does_not_predict() {
        let mut d = DeadBlockPrefetcher::new(DbcpVariant::Fixed);
        let mut q = PrefetchQueue::new(128);
        generation(&mut d, &mut q, 0x1000, 0x9000);
        generation(&mut d, &mut q, 0x1000, 0x9000);
        q.clear();
        // A different PC sequence yields a different signature: no
        // prediction.
        d.on_access(&access(0x900, 0x1000, AccessOutcome::Miss), &mut q);
        d.on_access(&access(0x904, 0x1000, AccessOutcome::Hit), &mut q);
        assert!(q.is_empty());
    }

    #[test]
    fn fixed_decrements_stale_confidence() {
        let mut d = DeadBlockPrefetcher::new(DbcpVariant::Fixed);
        let mut q = PrefetchQueue::new(128);
        generation(&mut d, &mut q, 0x1000, 0x9000);
        generation(&mut d, &mut q, 0x1000, 0x9000);
        // Pattern changes: now replaced by 0x3000 twice -> confidence
        // drains and flips.
        generation(&mut d, &mut q, 0x1000, 0x11000);
        generation(&mut d, &mut q, 0x1000, 0x11000);
        generation(&mut d, &mut q, 0x1000, 0x11000);
        q.clear();
        d.on_access(&access(0x400, 0x1000, AccessOutcome::Miss), &mut q);
        d.on_access(&access(0x404, 0x1000, AccessOutcome::Hit), &mut q);
        d.on_access(&access(0x408, 0x1000, AccessOutcome::Hit), &mut q);
        let targets: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|r| r.line.raw())
            .collect();
        assert!(
            !targets.contains(&0x9000),
            "stale target must fade: {targets:x?}"
        );
    }

    #[test]
    fn initial_variant_never_adapts() {
        let mut d = DeadBlockPrefetcher::new(DbcpVariant::Initial);
        let mut q = PrefetchQueue::new(128);
        generation(&mut d, &mut q, 0x1000, 0x9000);
        generation(&mut d, &mut q, 0x1000, 0x9000);
        for _ in 0..5 {
            generation(&mut d, &mut q, 0x1000, 0x11000);
        }
        q.clear();
        d.on_access(&access(0x400, 0x1000, AccessOutcome::Miss), &mut q);
        d.on_access(&access(0x404, 0x1000, AccessOutcome::Hit), &mut q);
        d.on_access(&access(0x408, 0x1000, AccessOutcome::Hit), &mut q);
        let targets: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|r| r.line.raw())
            .collect();
        assert!(
            targets.contains(&0x9000),
            "bug #3: stale prediction survives forever: {targets:x?}"
        );
    }

    #[test]
    fn variants_have_distinct_names_and_sizes() {
        let f = DeadBlockPrefetcher::new(DbcpVariant::Fixed);
        let i = DeadBlockPrefetcher::new(DbcpVariant::Initial);
        assert_ne!(f.name(), i.name());
        assert_eq!(
            f.hardware().total_bits(),
            2 * i.hardware().total_bits() - 1024 * 16
        );
    }
}
