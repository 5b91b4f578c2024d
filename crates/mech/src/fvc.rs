//! Frequent Value Cache (Zhang, Yang & Gupta, ASPLOS 2000) — Table 2's
//! `FVC`.
//!
//! "A small additional cache that behaves like a victim cache, except that
//! it is just used for storing frequently used values in a compressed form
//! (as indexes to a frequent values table)." Only victim lines *all* of
//! whose words are frequent values (or zero/unknown-coded) are admitted;
//! each word is stored as a 3-bit index, which is why 1024 lines cost far
//! less than 1024 × 32 bytes. Table 3: 1024 lines, 7 frequent values +
//! unknown.

use crate::table::AssocTable;
use microlib_model::{
    AccessEvent, Addr, AttachPoint, Cycle, EvictEvent, HardwareBudget, LineData, Mechanism,
    MechanismStats, PrefetchQueue, ProbeResult, Spill, SramTable, VictimAction,
};

/// Default frequent-value table (mirrors the workload generator's value
/// distribution; the original design profiles these at run time).
pub const DEFAULT_FREQUENT_VALUES: [u64; 7] = [0, 1, u64::MAX, 2, 4, 8, 0xFF];

#[derive(Clone, Debug)]
struct CompressedLine {
    /// 3-bit indices into the frequent-value table, one per word.
    indices: [u8; 4],
    dirty: bool,
}

/// The frequent value cache.
///
/// # Examples
///
/// ```
/// use microlib_mech::FrequentValueCache;
/// use microlib_model::Mechanism;
///
/// let fvc = FrequentValueCache::new();
/// assert_eq!(fvc.name(), "FVC");
/// // Compressed storage: far below 1024 lines x 32 bytes.
/// assert!(fvc.hardware().total_bytes() < 16 * 1024);
/// ```
#[derive(Clone, Debug)]
pub struct FrequentValueCache {
    values: [u64; 7],
    lines: AssocTable<CompressedLine>,
    capacity: usize,
    spills: Vec<Spill>,
    stats: MechanismStats,
    rejected_uncompressible: u64,
}

impl Default for FrequentValueCache {
    fn default() -> Self {
        Self::new()
    }
}

impl FrequentValueCache {
    /// Table 3 configuration: 1024 lines, the default frequent values.
    pub fn new() -> Self {
        Self::with_values(DEFAULT_FREQUENT_VALUES, 1024)
    }

    /// Custom value table and capacity.
    pub fn with_values(values: [u64; 7], capacity: usize) -> Self {
        FrequentValueCache {
            values,
            lines: AssocTable::new(capacity.next_power_of_two(), 0),
            capacity,
            spills: Vec::new(),
            stats: MechanismStats::default(),
            rejected_uncompressible: 0,
        }
    }

    fn compress(&self, data: &LineData) -> Option<[u8; 4]> {
        let mut indices = [0u8; 4];
        for (i, w) in data.words().iter().enumerate() {
            let idx = self.values.iter().position(|v| v == w)?;
            if i < 4 {
                indices[i] = idx as u8;
            } else {
                return None;
            }
        }
        Some(indices)
    }

    fn decompress(&self, c: &CompressedLine) -> LineData {
        let words: Vec<u64> = c.indices.iter().map(|i| self.values[*i as usize]).collect();
        LineData::from_words(&words)
    }

    /// Victim lines rejected because they held non-frequent values.
    pub fn rejected_uncompressible(&self) -> u64 {
        self.rejected_uncompressible
    }

    /// Lines currently held.
    pub fn occupancy(&self) -> usize {
        self.lines.len()
    }
}

impl Mechanism for FrequentValueCache {
    fn name(&self) -> &str {
        "FVC"
    }

    fn attach_point(&self) -> AttachPoint {
        AttachPoint::L1Data
    }

    fn on_access(&mut self, _event: &AccessEvent, _prefetch: &mut PrefetchQueue) {}

    fn on_evict(&mut self, event: &EvictEvent) -> VictimAction {
        match self.compress(&event.data) {
            Some(indices) => {
                self.stats.victims_captured += 1;
                self.stats.table_writes += 1;
                let displaced = self.lines.insert(
                    event.line.raw(),
                    CompressedLine {
                        indices,
                        dirty: event.dirty,
                    },
                );
                if let Some((old_line, old)) = displaced {
                    if old.dirty {
                        // Dirty compressed data must still be written back.
                        self.spills.push(Spill {
                            line: Addr::new(old_line),
                            data: self.decompress(&old),
                        });
                    }
                }
                VictimAction::Captured
            }
            None => {
                self.rejected_uncompressible += 1;
                VictimAction::Dropped
            }
        }
    }

    fn holds(&self, line: Addr) -> bool {
        self.lines.contains(&line.raw())
    }

    fn probe(&mut self, line: Addr, _now: Cycle) -> Option<ProbeResult> {
        self.stats.table_reads += 1;
        match self.lines.remove(&line.raw()) {
            Some(c) => {
                self.stats.sidecar_hits += 1;
                Some(ProbeResult {
                    data: self.decompress(&c),
                    dirty: c.dirty,
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
            "FVC",
            vec![
                SramTable {
                    name: "compressed lines".to_owned(),
                    entries: self.capacity as u64,
                    // 4 words × 3 bits + tag (27b) + dirty/valid. Banked
                    // 8-way set-associative (a 1024-entry CAM would be
                    // implausible).
                    entry_bits: 4 * 3 + 27 + 2,
                    assoc: 8,
                    ports: 1,
                },
                SramTable {
                    name: "frequent value table".to_owned(),
                    entries: 7,
                    entry_bits: 64,
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
        self.lines.clear();
        self.spills.clear();
        self.stats = MechanismStats::default();
        self.rejected_uncompressible = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn evict(line: u64, words: &[u64; 4], dirty: bool) -> EvictEvent {
        EvictEvent {
            now: Cycle::ZERO,
            line: Addr::new(line),
            dirty,
            data: LineData::from_words(words),
            untouched_prefetch: false,
        }
    }

    #[test]
    fn compressible_lines_are_captured_and_restored() {
        let mut fvc = FrequentValueCache::new();
        let action = fvc.on_evict(&evict(0x1000, &[0, 1, 0xFF, 4], false));
        assert_eq!(action, VictimAction::Captured);
        let hit = fvc.probe(Addr::new(0x1000), Cycle::ZERO).unwrap();
        assert_eq!(hit.data.words(), &[0, 1, 0xFF, 4]);
    }

    #[test]
    fn uncompressible_lines_are_rejected() {
        let mut fvc = FrequentValueCache::new();
        let action = fvc.on_evict(&evict(0x2000, &[0, 0xDEADBEEF, 0, 0], false));
        assert_eq!(action, VictimAction::Dropped);
        assert_eq!(fvc.rejected_uncompressible(), 1);
        assert!(fvc.probe(Addr::new(0x2000), Cycle::ZERO).is_none());
    }

    #[test]
    fn dirty_bit_travels_through_compression() {
        let mut fvc = FrequentValueCache::new();
        fvc.on_evict(&evict(0x3000, &[1, 1, 1, 1], true));
        let hit = fvc.probe(Addr::new(0x3000), Cycle::ZERO).unwrap();
        assert!(hit.dirty);
    }

    #[test]
    fn capacity_is_bounded() {
        let mut fvc = FrequentValueCache::with_values(DEFAULT_FREQUENT_VALUES, 4);
        for i in 0..10u64 {
            fvc.on_evict(&evict(0x1000 + i * 32, &[0, 0, 0, 0], false));
        }
        assert!(fvc.occupancy() <= 4);
    }

    #[test]
    fn compressed_hardware_is_small() {
        let hw = FrequentValueCache::new().hardware();
        // 1024 lines of raw data would be 32 KB; compressed is ~5 KB.
        assert!(hw.total_bytes() < 8 * 1024, "got {}", hw.total_bytes());
    }
}
