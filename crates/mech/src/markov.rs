//! Markov Prefetching (Joseph & Grunwald, ISCA 1997) — Table 2's `Markov`.
//!
//! "Records the most probable sequence of addresses and uses that
//! information for target address prediction." On every L1 miss the
//! predictor records `previous miss → current miss` in a 1 MB correlation
//! table holding up to 4 successors per entry (LRU-ordered), then prefetches
//! the recorded successors of the current miss into a 128-line prefetch
//! buffer probed on later misses. Table 3: 1 MB table, 4 predictions per
//! entry, 16-entry request queue, 128-line buffer.

use crate::table::AssocTable;
use microlib_model::{
    AccessEvent, AccessOutcome, Addr, AttachPoint, Cycle, HardwareBudget, LineData, Mechanism,
    MechanismStats, PrefetchDestination, PrefetchQueue, PrefetchRequest, ProbeResult, RefillCause,
    RefillEvent, SramTable,
};

#[derive(Clone, Debug, Default)]
struct Successors {
    /// Most-recent-first successor miss lines (up to 4).
    lines: Vec<u64>,
}

/// The Markov prefetcher.
///
/// # Examples
///
/// ```
/// use microlib_mech::MarkovPrefetcher;
/// use microlib_model::Mechanism;
///
/// let markov = MarkovPrefetcher::new();
/// assert_eq!(markov.name(), "Markov");
/// // 1 MB prediction table dominates its cost (Fig 5).
/// assert!(markov.hardware().total_bytes() >= 1024 * 1024);
/// ```
#[derive(Clone, Debug)]
pub struct MarkovPrefetcher {
    table: AssocTable<Successors>,
    table_entries: usize,
    predictions_per_entry: usize,
    buffer: AssocTable<LineData>,
    buffer_lines: usize,
    last_miss: Option<u64>,
    stats: MechanismStats,
}

impl Default for MarkovPrefetcher {
    fn default() -> Self {
        Self::new()
    }
}

impl MarkovPrefetcher {
    /// Table 3 configuration: 1 MB table (≈32 K entries of 4 predictions),
    /// 128-line prefetch buffer.
    pub fn new() -> Self {
        Self::with_geometry(32_768, 4, 128)
    }

    /// Custom geometry (sensitivity studies).
    pub fn with_geometry(
        table_entries: usize,
        predictions_per_entry: usize,
        buffer_lines: usize,
    ) -> Self {
        MarkovPrefetcher {
            table: AssocTable::new(table_entries.next_power_of_two(), 1),
            table_entries,
            predictions_per_entry,
            buffer: AssocTable::new(buffer_lines.next_power_of_two(), 0),
            buffer_lines,
            last_miss: None,
            stats: MechanismStats::default(),
        }
    }

    /// Lines currently held in the prefetch buffer.
    pub fn buffer_occupancy(&self) -> usize {
        self.buffer.len()
    }
}

impl Mechanism for MarkovPrefetcher {
    fn name(&self) -> &str {
        "Markov"
    }

    fn attach_point(&self) -> AttachPoint {
        AttachPoint::L1Data
    }

    fn warm_events_only(&self) -> bool {
        // the prefetch buffer only fills from prefetch-cause refills,
        // which never occur during functional warmup — warm probes always
        // miss.
        true
    }

    fn request_queue_capacity(&self) -> usize {
        16 // Table 3: Markov request queue size 16
    }

    fn on_access(&mut self, event: &AccessEvent, prefetch: &mut PrefetchQueue) {
        if event.outcome == AccessOutcome::Hit {
            return;
        }
        let line = event.line.raw();
        // Learn prev -> current.
        if let Some(prev) = self.last_miss {
            if prev != line {
                self.stats.table_writes += 1;
                let preds = self.predictions_per_entry;
                match self.table.get_mut(&prev) {
                    Some(s) => {
                        s.lines.retain(|l| *l != line);
                        s.lines.insert(0, line);
                        s.lines.truncate(preds);
                    }
                    None => {
                        self.table.insert(prev, Successors { lines: vec![line] });
                    }
                }
            }
        }
        self.last_miss = Some(line);
        // Predict the most probable *sequence* from the current miss:
        // follow first-choice successors transitively. The first hops are
        // skipped — their demand accesses arrive before any prefetch could
        // complete — and the next `predictions_per_entry` steps are issued
        // (prefetch distance), plus this entry's alternative successors as
        // width.
        const SKIP_AHEAD: usize = 3;
        let depth = SKIP_AHEAD + self.predictions_per_entry;
        let mut walk = Vec::with_capacity(depth);
        self.stats.table_reads += 1;
        let mut alternatives = Vec::new();
        if let Some(s) = self.table.get(&line) {
            walk.push(s.lines[0]);
            alternatives.extend(s.lines.iter().skip(1).copied());
        }
        while walk.len() < depth {
            self.stats.table_reads += 1;
            let Some(&cur) = walk.last() else { break };
            let Some(next) = self.table.peek(&cur).and_then(|s| s.lines.first()).copied() else {
                break;
            };
            if next == line || walk.contains(&next) {
                break;
            }
            walk.push(next);
        }
        // If the chain is shorter than the skip distance, fall back to the
        // shallow predictions rather than staying silent.
        let skip = if walk.len() > SKIP_AHEAD {
            SKIP_AHEAD
        } else {
            0
        };
        let mut targets: Vec<u64> = walk
            .into_iter()
            .skip(skip)
            .take(self.predictions_per_entry)
            .collect();
        for alt in alternatives {
            if targets.len() >= self.predictions_per_entry {
                break;
            }
            if !targets.contains(&alt) {
                targets.push(alt);
            }
        }
        for target in targets {
            self.stats.prefetches_requested += 1;
            prefetch.push(PrefetchRequest {
                line: Addr::new(target),
                destination: PrefetchDestination::Buffer,
            });
        }
    }

    fn on_refill(&mut self, event: &RefillEvent, _prefetch: &mut PrefetchQueue) {
        if event.cause == RefillCause::Prefetch {
            // Buffer-destination fills land here.
            self.buffer.insert(event.line.raw(), event.data);
        }
    }

    fn holds(&self, line: Addr) -> bool {
        self.buffer.contains(&line.raw())
    }

    fn probe(&mut self, line: Addr, _now: Cycle) -> Option<ProbeResult> {
        self.stats.table_reads += 1;
        match self.buffer.remove(&line.raw()) {
            Some(data) => {
                self.stats.sidecar_hits += 1;
                self.stats.prefetches_useful += 1;
                Some(ProbeResult {
                    data,
                    dirty: false,
                    extra_latency: 1,
                })
            }
            None => {
                self.stats.sidecar_misses += 1;
                None
            }
        }
    }

    fn next_tick(&self, _now: Cycle) -> Cycle {
        Cycle::NEVER // no time-based state, no sidecar to spill
    }

    fn hardware(&self) -> HardwareBudget {
        // Entry: tag (26b) + 4 successor addresses × 56b + LRU state —
        // 32 K entries × 256 bits = the 1 MB of Table 3.
        HardwareBudget::with_tables(
            "Markov",
            vec![
                SramTable {
                    name: "prediction table".to_owned(),
                    entries: self.table_entries as u64,
                    entry_bits: 26 + (self.predictions_per_entry as u64) * 56 + 6,
                    assoc: 1,
                    ports: 1,
                },
                SramTable {
                    name: "prefetch buffer".to_owned(),
                    entries: self.buffer_lines as u64,
                    entry_bits: 32 * 8 + 28,
                    assoc: 0,
                    ports: 1,
                },
            ],
        )
    }

    fn stats(&self) -> MechanismStats {
        self.stats
    }

    fn reset(&mut self) {
        self.table.clear();
        self.buffer.clear();
        self.last_miss = None;
        self.stats = MechanismStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microlib_model::AccessKind;

    fn miss(line: u64) -> AccessEvent {
        AccessEvent {
            now: Cycle::ZERO,
            pc: Addr::new(0x40_0000),
            addr: Addr::new(line),
            line: Addr::new(line),
            kind: AccessKind::Load,
            outcome: AccessOutcome::Miss,
            first_touch_of_prefetch: false,
            value: Some(0),
        }
    }

    fn drive_sequence(m: &mut MarkovPrefetcher, q: &mut PrefetchQueue, seq: &[u64]) {
        for &l in seq {
            m.on_access(&miss(l), q);
        }
    }

    #[test]
    fn learns_repeating_sequence() {
        let mut m = MarkovPrefetcher::new();
        let mut q = PrefetchQueue::new(16);
        let seq = [0x1000, 0x2000, 0x3000, 0x4000];
        drive_sequence(&mut m, &mut q, &seq);
        q.clear();
        // Second pass: after re-missing 0x1000, successor 0x2000 predicted.
        m.on_access(&miss(0x1000), &mut q);
        let targets: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|r| r.line.raw())
            .collect();
        assert!(targets.contains(&0x2000), "targets: {targets:x?}");
    }

    #[test]
    fn keeps_up_to_four_successors() {
        let mut m = MarkovPrefetcher::new();
        let mut q = PrefetchQueue::new(16);
        // A followed by five different lines across five passes.
        for succ in [0x2000u64, 0x3000, 0x4000, 0x5000, 0x6000] {
            drive_sequence(&mut m, &mut q, &[0x1000, succ]);
            q.clear();
        }
        m.on_access(&miss(0x9000), &mut q); // decouple last_miss
        q.clear();
        m.on_access(&miss(0x1000), &mut q);
        let targets: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|r| r.line.raw())
            .collect();
        assert_eq!(targets.len(), 4, "at most 4 predictions: {targets:x?}");
        assert!(!targets.contains(&0x2000), "oldest successor dropped");
    }

    #[test]
    fn prefetches_land_in_buffer_and_serve_probes() {
        let mut m = MarkovPrefetcher::new();
        let mut q = PrefetchQueue::new(16);
        let mut data = LineData::zeroed(4);
        data.set_word(1, 42);
        m.on_refill(
            &RefillEvent {
                now: Cycle::ZERO,
                line: Addr::new(0x2000),
                data,
                cause: RefillCause::Prefetch,
            },
            &mut q,
        );
        assert_eq!(m.buffer_occupancy(), 1);
        let hit = m.probe(Addr::new(0x2000), Cycle::ZERO).unwrap();
        assert_eq!(hit.data.word(1), 42);
        assert_eq!(m.buffer_occupancy(), 0, "swap semantics");
    }

    #[test]
    fn demand_refills_do_not_pollute_buffer() {
        let mut m = MarkovPrefetcher::new();
        let mut q = PrefetchQueue::new(16);
        m.on_refill(
            &RefillEvent {
                now: Cycle::ZERO,
                line: Addr::new(0x3000),
                data: LineData::zeroed(4),
                cause: RefillCause::Demand,
            },
            &mut q,
        );
        assert_eq!(m.buffer_occupancy(), 0);
    }

    #[test]
    fn predictions_target_the_buffer() {
        let mut m = MarkovPrefetcher::new();
        let mut q = PrefetchQueue::new(16);
        drive_sequence(&mut m, &mut q, &[0x1000, 0x2000, 0x1000]);
        if let Some(req) = q.pop() {
            assert_eq!(req.destination, PrefetchDestination::Buffer);
        }
    }
}
