//! Content-Directed Data Prefetching (Cooksey, Jourdan & Grunwald,
//! ASPLOS 2002) — Table 2's `CDP`.
//!
//! "A prefetch mechanism for pointer-based data structures that attempts to
//! determine if a fetched line contains addresses, and if so, prefetches
//! them immediately." Stateless: every line filled into the L2 is scanned;
//! words whose upper address bits match the fetched line's own region are
//! treated as pointers and prefetched, recursively up to the depth
//! threshold (Table 3: depth 3, request queue 128).
//!
//! The paper's cautionary anecdotes are reproduced by the workloads: `ammp`
//! keeps its next pointer 88 bytes into a 96-byte node — outside the
//! fetched 64-byte line — so CDP "systematically fails to prefetch it,
//! saturating the memory bandwidth with useless prefetch requests"; `mcf`'s
//! pointer-dense nodes trigger floods of depth-3 prefetches (speedup 0.75).

use microlib_model::{
    AccessEvent, Addr, AttachPoint, Cycle, HardwareBudget, Mechanism, MechanismStats,
    PrefetchDestination, PrefetchQueue, PrefetchRequest, RefillEvent, SramTable,
};
use std::collections::HashMap;

/// How many upper bits must match for a word to "look like" a pointer into
/// the line's own region.
const REGION_SHIFT: u32 = 28;

/// The content-directed prefetcher.
///
/// # Examples
///
/// ```
/// use microlib_mech::ContentDirectedPrefetcher;
/// use microlib_model::Mechanism;
///
/// let cdp = ContentDirectedPrefetcher::new();
/// assert_eq!(cdp.name(), "CDP");
/// assert_eq!(cdp.request_queue_capacity(), 128);
/// ```
#[derive(Clone, Debug)]
pub struct ContentDirectedPrefetcher {
    depth_threshold: u32,
    /// Depth of outstanding prefetched lines (for recursion control).
    outstanding: HashMap<u64, u32>,
    line_bytes: u64,
    stats: MechanismStats,
    pointer_candidates: u64,
}

impl Default for ContentDirectedPrefetcher {
    fn default() -> Self {
        Self::new()
    }
}

impl ContentDirectedPrefetcher {
    /// Table 3 configuration: prefetch depth threshold 3.
    pub fn new() -> Self {
        Self::with_depth(3)
    }

    /// Custom recursion depth.
    pub fn with_depth(depth_threshold: u32) -> Self {
        ContentDirectedPrefetcher {
            depth_threshold,
            outstanding: HashMap::new(),
            line_bytes: 64,
            stats: MechanismStats::default(),
            pointer_candidates: 0,
        }
    }

    /// Words the pointer heuristic has accepted so far.
    pub fn pointer_candidates(&self) -> u64 {
        self.pointer_candidates
    }

    fn looks_like_pointer(line: Addr, word: u64) -> bool {
        word != 0 && (word >> REGION_SHIFT) == (line.raw() >> REGION_SHIFT)
    }
}

impl Mechanism for ContentDirectedPrefetcher {
    fn name(&self) -> &str {
        "CDP"
    }

    fn attach_point(&self) -> AttachPoint {
        AttachPoint::L2Unified
    }

    fn warm_events_only(&self) -> bool {
        // pure prefetcher: no sidecar, no captures, no spills.
        true
    }

    fn request_queue_capacity(&self) -> usize {
        128 // Table 3: CDP request queue
    }

    fn on_access(&mut self, event: &AccessEvent, _prefetch: &mut PrefetchQueue) {
        if event.first_touch_of_prefetch {
            self.stats.prefetches_useful += 1;
        }
    }

    fn on_refill(&mut self, event: &RefillEvent, prefetch: &mut PrefetchQueue) {
        let line = event.line;
        let depth = self.outstanding.remove(&line.raw()).unwrap_or(0);
        if depth >= self.depth_threshold {
            return;
        }
        self.stats.table_reads += 1; // the line scan
        for &word in event.data.words() {
            if Self::looks_like_pointer(line, word) {
                self.pointer_candidates += 1;
                let target = Addr::new(word & !(self.line_bytes - 1));
                if target == line {
                    continue;
                }
                self.stats.prefetches_requested += 1;
                if prefetch.push(PrefetchRequest {
                    line: target,
                    destination: PrefetchDestination::Cache,
                }) {
                    self.outstanding.insert(target.raw(), depth + 1);
                }
            }
        }
    }

    fn next_tick(&self, _now: Cycle) -> Cycle {
        Cycle::NEVER // no time-based state, no sidecar to spill
    }

    fn hardware(&self) -> HardwareBudget {
        // Stateless scan logic plus a small depth-tracking buffer.
        HardwareBudget::with_tables(
            "CDP",
            vec![SramTable {
                name: "outstanding prefetch depth buffer".to_owned(),
                entries: 128,
                entry_bits: 34,
                assoc: 0,
                ports: 1,
            }],
        )
    }

    fn stats(&self) -> MechanismStats {
        self.stats
    }

    fn reset(&mut self) {
        self.outstanding.clear();
        self.stats = MechanismStats::default();
        self.pointer_candidates = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microlib_model::{Cycle, LineData, RefillCause};

    const HEAP: u64 = 0x4000_0000;

    fn refill(line: u64, words: &[u64], cause: RefillCause) -> RefillEvent {
        RefillEvent {
            now: Cycle::ZERO,
            line: Addr::new(line),
            data: LineData::from_words(words),
            cause,
        }
    }

    #[test]
    fn heap_pointers_are_prefetched() {
        let mut cdp = ContentDirectedPrefetcher::new();
        let mut q = PrefetchQueue::new(128);
        let words = [0u64, HEAP + 0x2040, 7, 0, HEAP + 0x8000, 0, 0, 0];
        cdp.on_refill(&refill(HEAP + 0x1000, &words, RefillCause::Demand), &mut q);
        let targets: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|r| r.line.raw())
            .collect();
        assert_eq!(targets, vec![HEAP + 0x2040, HEAP + 0x8000]);
        assert_eq!(cdp.pointer_candidates(), 2);
    }

    #[test]
    fn non_pointer_values_ignored() {
        let mut cdp = ContentDirectedPrefetcher::new();
        let mut q = PrefetchQueue::new(128);
        // Random data has the high bit set / different region.
        let words = [0x8000_0000_0000_0001u64, 0xdead_beef_cafe_f00d, 0, 42];
        cdp.on_refill(
            &refill(HEAP + 0x1000, &words[..4], RefillCause::Demand),
            &mut q,
        );
        assert!(q.is_empty());
    }

    #[test]
    fn recursion_stops_at_depth_threshold() {
        let mut cdp = ContentDirectedPrefetcher::with_depth(2);
        let mut q = PrefetchQueue::new(128);
        // Line A points to B; B (prefetched, depth 1) points to C; C
        // (depth 2) points to D — D must NOT be scanned further.
        let a = HEAP;
        let (b, c, d) = (HEAP + 0x100, HEAP + 0x200, HEAP + 0x300);
        cdp.on_refill(&refill(a, &[b, 0, 0, 0], RefillCause::Demand), &mut q);
        assert_eq!(q.pop().unwrap().line.raw(), b & !63);
        cdp.on_refill(
            &refill(b & !63, &[c, 0, 0, 0], RefillCause::Prefetch),
            &mut q,
        );
        assert_eq!(q.pop().unwrap().line.raw(), c & !63);
        cdp.on_refill(
            &refill(c & !63, &[d, 0, 0, 0], RefillCause::Prefetch),
            &mut q,
        );
        assert!(q.is_empty(), "depth threshold must stop the chase");
    }

    #[test]
    fn self_pointers_skipped() {
        let mut cdp = ContentDirectedPrefetcher::new();
        let mut q = PrefetchQueue::new(128);
        let line = HEAP + 0x40;
        cdp.on_refill(
            &refill(line, &[line + 8, 0, 0, 0], RefillCause::Demand),
            &mut q,
        );
        assert!(q.is_empty(), "pointer into the same line is not useful");
    }

    #[test]
    fn pointer_dense_lines_flood_the_queue() {
        // The mcf failure mode: every word looks like a pointer.
        let mut cdp = ContentDirectedPrefetcher::new();
        let mut q = PrefetchQueue::new(128);
        let words: Vec<u64> = (1..=8).map(|i| HEAP + i * 0x1000).collect();
        cdp.on_refill(&refill(HEAP, &words, RefillCause::Demand), &mut q);
        assert_eq!(q.len(), 8);
        assert_eq!(cdp.stats().prefetches_requested, 8);
    }
}
