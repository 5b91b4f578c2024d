//! Global History Buffer prefetching (Nesbit & Smith, HPCA 2004) — Table
//! 2's `GHB`, the paper's best-performing mechanism.
//!
//! "Records stride patterns in a load address stream and prefetches if
//! patterns recur." An index table (IT, 256 entries, PC-indexed) points at
//! the most recent entry of a 256-entry circular global history buffer;
//! entries of the same PC are chained by link pointers. On each L2 miss
//! the chain is walked to extract recent deltas; a constant stride (or a
//! recurring delta pair) triggers prefetches of degree 4.
//!
//! The walk touches the small tables repeatedly — the activity that makes
//! GHB "power greedy" in Fig 5 despite its tiny area: "each miss can induce
//! up to 4 requests, and a table is scanned repeatedly".

use crate::table::AssocTable;
use microlib_model::{
    AccessEvent, AccessOutcome, Addr, AttachPoint, Cycle, HardwareBudget, Mechanism,
    MechanismStats, PrefetchDestination, PrefetchQueue, PrefetchRequest, SramTable,
};

#[derive(Clone, Copy, Debug)]
struct GhbEntry {
    addr: u64,
    /// Global sequence number of the previous entry with the same PC.
    prev: Option<u64>,
}

/// The global history buffer prefetcher.
///
/// # Examples
///
/// ```
/// use microlib_mech::GlobalHistoryBuffer;
/// use microlib_model::Mechanism;
///
/// let ghb = GlobalHistoryBuffer::new();
/// assert_eq!(ghb.name(), "GHB");
/// assert_eq!(ghb.request_queue_capacity(), 4);
/// ```
#[derive(Clone, Debug)]
pub struct GlobalHistoryBuffer {
    index: AssocTable<u64>,
    it_entries: usize,
    buffer: Vec<Option<GhbEntry>>,
    buffer_entries: usize,
    head: u64,
    degree: u32,
    line_bytes: u64,
    stats: MechanismStats,
}

impl Default for GlobalHistoryBuffer {
    fn default() -> Self {
        Self::new()
    }
}

impl GlobalHistoryBuffer {
    /// Table 3 configuration: 256 IT entries, 256 GHB entries, queue 4,
    /// degree 4.
    pub fn new() -> Self {
        Self::with_geometry(256, 256, 4)
    }

    /// Custom geometry (sensitivity studies).
    pub fn with_geometry(it_entries: usize, ghb_entries: usize, degree: u32) -> Self {
        GlobalHistoryBuffer {
            index: AssocTable::new(it_entries.next_power_of_two(), 1),
            it_entries,
            buffer: vec![None; ghb_entries],
            buffer_entries: ghb_entries,
            head: 0,
            degree,
            line_bytes: 64,
            stats: MechanismStats::default(),
        }
    }

    fn entry(&self, seq: u64) -> Option<GhbEntry> {
        // Valid while not overwritten: within the last `buffer_entries`
        // insertions.
        if self.head.checked_sub(seq)? > self.buffer_entries as u64 {
            return None;
        }
        self.buffer[(seq % self.buffer_entries as u64) as usize]
    }

    /// Walks the PC chain, most recent first, returning up to `max` miss
    /// addresses.
    fn chain(&mut self, pc: u64, max: usize) -> Vec<u64> {
        let mut out = Vec::with_capacity(max);
        let mut cursor = self.index.peek(&pc).copied();
        while let Some(seq) = cursor {
            self.stats.table_reads += 1; // every hop is a buffer read
            let Some(e) = self.entry(seq) else { break };
            out.push(e.addr);
            if out.len() >= max {
                break;
            }
            cursor = e.prev.filter(|p| *p < seq);
        }
        out
    }
}

impl Mechanism for GlobalHistoryBuffer {
    fn name(&self) -> &str {
        "GHB"
    }

    fn attach_point(&self) -> AttachPoint {
        AttachPoint::L2Unified
    }

    fn warm_events_only(&self) -> bool {
        // pure prefetcher: no sidecar, no captures, no spills.
        true
    }

    fn request_queue_capacity(&self) -> usize {
        4 // Table 3: GHB request queue
    }

    fn on_access(&mut self, event: &AccessEvent, prefetch: &mut PrefetchQueue) {
        if event.first_touch_of_prefetch {
            self.stats.prefetches_useful += 1;
        }
        // Like the stride prefetcher, the GHB observes the full L2 access
        // stream (the L1 miss stream), hits included — training only on L2
        // misses would silence the predictor exactly when its prefetches
        // start working.
        if event.pc.is_null() {
            return;
        }
        let _ = AccessOutcome::Miss;
        let pc = event.pc.raw();
        let addr = event.addr.raw();
        // Append to the buffer and relink the IT.
        let prev = self.index.peek(&pc).copied();
        let seq = self.head;
        self.buffer[(seq % self.buffer_entries as u64) as usize] = Some(GhbEntry { addr, prev });
        self.head += 1;
        self.index.insert(pc, seq);
        self.stats.table_writes += 2;

        // Extract the recent delta history for this PC.
        let history = self.chain(pc, 8);
        if history.len() < 3 {
            return;
        }
        let d1 = history[0] as i64 - history[1] as i64;
        let d2 = history[1] as i64 - history[2] as i64;
        if d1 == 0 {
            return;
        }
        let stride = if d1 == d2 {
            Some(d1)
        } else {
            // Delta correlation: find the last earlier occurrence of the
            // pair (d2, d1) and predict the delta that followed it.
            let mut found = None;
            for w in 1..history.len().saturating_sub(2) {
                let e1 = history[w] as i64 - history[w + 1] as i64;
                let e2 = history[w + 1] as i64 - history[w + 2] as i64;
                self.stats.table_reads += 1;
                if e1 == d1 && e2 == d2 && w >= 1 {
                    found = Some(history[w - 1] as i64 - history[w] as i64);
                    break;
                }
            }
            found
        };
        if let Some(stride) = stride {
            if stride == 0 {
                return;
            }
            // Degree-4 issue with line-granular lookahead: sub-line strides
            // are widened to one cache line so the four prefetches cover
            // four *distinct* lines ahead of the stream.
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
                    line: Addr::new(target as u64 & !(self.line_bytes - 1)),
                    destination: PrefetchDestination::Cache,
                });
            }
        }
    }

    fn next_tick(&self, _now: Cycle) -> Cycle {
        Cycle::NEVER // no time-based state, no sidecar to spill
    }

    fn hardware(&self) -> HardwareBudget {
        HardwareBudget::with_tables(
            "GHB",
            vec![
                SramTable {
                    name: "index table".to_owned(),
                    entries: self.it_entries as u64,
                    entry_bits: 20 + 8,
                    assoc: 1,
                    ports: 1,
                },
                SramTable {
                    name: "global history buffer".to_owned(),
                    entries: self.buffer_entries as u64,
                    entry_bits: 32 + 8,
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
        self.index.clear();
        self.buffer.iter_mut().for_each(|e| *e = None);
        self.head = 0;
        self.stats = MechanismStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microlib_model::{AccessKind, Cycle};

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
    fn constant_stride_prefetches_degree_4() {
        let mut ghb = GlobalHistoryBuffer::new();
        let mut q = PrefetchQueue::new(16);
        for i in 0..3u64 {
            ghb.on_access(&miss(0x400, 0x10_0000 + i * 0x100), &mut q);
        }
        let targets: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|r| r.line.raw())
            .collect();
        assert_eq!(targets.len(), 4, "degree-4: {targets:x?}");
        assert_eq!(targets[0], 0x10_0300);
        assert_eq!(targets[3], 0x10_0600);
    }

    #[test]
    fn interleaved_pcs_keep_separate_chains() {
        let mut ghb = GlobalHistoryBuffer::new();
        let mut q = PrefetchQueue::new(32);
        // Two PCs with different strides, interleaved in the global buffer.
        for i in 0..3u64 {
            ghb.on_access(&miss(0x400, 0x10_0000 + i * 0x100), &mut q);
            ghb.on_access(&miss(0x408, 0x50_0000 + i * 0x40), &mut q);
        }
        let targets: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|r| r.line.raw())
            .collect();
        assert!(targets.contains(&0x10_0300));
        assert!(targets.contains(&0x50_00C0));
    }

    #[test]
    fn delta_correlation_catches_repeating_pairs() {
        let mut ghb = GlobalHistoryBuffer::new();
        let mut q = PrefetchQueue::new(32);
        // Pattern of deltas: +0x100, +0x40, +0x100, +0x40, ... (not a
        // constant stride).
        let mut addr = 0x20_0000u64;
        let deltas = [0x100u64, 0x40, 0x100, 0x40, 0x100];
        ghb.on_access(&miss(0x500, addr), &mut q);
        for d in deltas {
            addr += d;
            ghb.on_access(&miss(0x500, addr), &mut q);
        }
        let targets: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|r| r.line.raw())
            .collect();
        assert!(
            targets.iter().any(|t| *t == (addr + 0x40) & !63),
            "delta correlation should predict +0x40 next: {targets:x?}"
        );
    }

    #[test]
    fn old_entries_expire_from_the_ring() {
        let mut ghb = GlobalHistoryBuffer::with_geometry(256, 8, 4);
        let mut q = PrefetchQueue::new(32);
        ghb.on_access(&miss(0x600, 0x1000), &mut q);
        // Flood the ring with other PCs.
        for i in 0..20u64 {
            ghb.on_access(&miss(0x700 + i * 4, 0x90_0000 + i * 0x5000), &mut q);
        }
        q.clear();
        // The old chain entry for 0x600 has been overwritten; two more
        // misses are not enough history for a prediction.
        ghb.on_access(&miss(0x600, 0x2000), &mut q);
        ghb.on_access(&miss(0x600, 0x3000), &mut q);
        assert!(q.is_empty());
    }

    #[test]
    fn table_walks_show_up_in_activity() {
        let mut ghb = GlobalHistoryBuffer::new();
        let mut q = PrefetchQueue::new(32);
        for i in 0..10u64 {
            ghb.on_access(&miss(0x400, 0x10_0000 + i * 0x80), &mut q);
        }
        let s = ghb.stats();
        assert!(
            s.table_reads > s.prefetches_requested,
            "chain walks dominate: reads {} vs requests {}",
            s.table_reads,
            s.prefetches_requested
        );
    }

    #[test]
    fn hardware_is_tiny() {
        let hw = GlobalHistoryBuffer::new().hardware();
        assert!(
            hw.total_bytes() < 4 * 1024,
            "GHB tables are small: {}",
            hw.total_bytes()
        );
    }
}
