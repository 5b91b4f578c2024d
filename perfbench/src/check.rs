//! Output checks: every cell's simulated statistics are hashed and
//! compared with the expected digests committed under `digests/`, one
//! file per (window, workload seed).

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use microlib::{ArtifactStore, Campaign, ExperimentConfig, RunResult};
use microlib_model::{CacheStats, MechanismStats, PrefetchQueueStats};
use microlib_trace::{benchmarks, TraceWindow};

use crate::{shuffle, Args, Outcome, THREADS};

/// The standard campaign's memory-bound rows (Base IPC well under 0.3).
pub const MEMBOUND: [&str; 3] = ["mcf", "equake", "gap"];

/// The standard campaign's other 23 benchmarks, in the paper's order.
pub fn compute_benchmarks() -> Vec<&'static str> {
    benchmarks::NAMES
        .iter()
        .copied()
        .filter(|b| !MEMBOUND.contains(b))
        .collect()
}

/// FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn cache_words(c: &CacheStats, out: &mut Vec<u64>) {
    out.extend([
        c.loads,
        c.stores,
        c.misses,
        c.sidecar_hits,
        c.mshr_merges,
        c.mshr_full_stalls,
        c.pipeline_stalls,
        c.port_stalls,
        c.demand_fills,
        c.prefetch_fills,
        c.useful_prefetches,
        c.writebacks,
        c.useless_prefetch_evictions,
    ]);
}

fn mech_words(m: Option<MechanismStats>, out: &mut Vec<u64>) {
    match m {
        None => out.push(0),
        Some(m) => out.extend([
            1,
            m.table_reads,
            m.table_writes,
            m.prefetches_requested,
            m.prefetches_useful,
            m.sidecar_hits,
            m.sidecar_misses,
            m.victims_captured,
        ]),
    }
}

fn queue_words(q: Option<PrefetchQueueStats>, out: &mut Vec<u64>) {
    match q {
        None => out.push(0),
        Some(q) => out.extend([1, q.accepted, q.discarded, q.duplicates]),
    }
}

/// Digest of one cell's simulated statistics: performance, core, cache,
/// memory, mechanism and prefetch-queue counters, field by field (so the
/// digest does not depend on any encoding the program may change).
pub fn digest(r: &RunResult) -> u64 {
    let c = &r.core;
    let mut w = vec![
        r.perf.instructions,
        r.perf.cycles,
        c.committed,
        c.cycles,
        c.fetched,
        c.mispredict_stall_cycles,
        c.icache_stall_cycles,
        c.loads_forwarded,
        c.cache_reject_stalls,
        c.window_full_stalls,
        c.lsq_full_stalls,
        c.store_commit_stalls,
    ];
    for cache in [&r.l1d, &r.l1i, &r.l2] {
        cache_words(cache, &mut w);
    }
    let m = &r.memory;
    w.extend([
        m.requests,
        m.total_latency,
        m.row_hits,
        m.precharges,
        m.bus_busy_cycles,
        m.queue_wait_cycles,
    ]);
    mech_words(r.mech_l1, &mut w);
    mech_words(r.mech_l2, &mut w);
    queue_words(r.queue_l1, &mut w);
    queue_words(r.queue_l2, &mut w);
    fnv1a(&w)
}

fn digest_file(dir: &Path, window: TraceWindow, seed: u64) -> PathBuf {
    dir.join(format!("w{}-{}", window.skip, window.simulate))
        .join(format!("{seed:#x}.txt"))
}

/// Expected digests for one (window, workload seed).
#[derive(Debug)]
pub struct Expected {
    digests: HashMap<(String, String), u64>,
}

impl Expected {
    /// Loads the committed digests for `window` and `seed`.
    pub fn load(dir: &Path, window: TraceWindow, seed: u64) -> Result<Expected, String> {
        let path = digest_file(dir, window, seed);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("no expected digests at {}: {e}", path.display()))?;
        let mut digests = HashMap::new();
        for line in text
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
        {
            let mut fields = line.split('\t');
            let parsed = (|| {
                let bench = fields.next()?;
                let mech = fields.next()?;
                let hex = u64::from_str_radix(fields.next()?, 16).ok()?;
                Some(((bench.to_owned(), mech.to_owned()), hex))
            })();
            let (key, hex) = parsed.ok_or_else(|| format!("bad digest line {line:?}"))?;
            digests.insert(key, hex);
        }
        Ok(Expected { digests })
    }

    /// Whether `r` matches its expected digest (a cell with no expected
    /// digest never matches).
    pub fn matches(&self, r: &RunResult) -> bool {
        let key = (r.benchmark.to_owned(), r.mechanism.to_string());
        self.digests.get(&key) == Some(&digest(r))
    }
}

/// The baseline campaign over `benchmarks` at the run's window and
/// workload seed, with the mechanism columns in an order drawn from
/// `--seed` (rows keep their order, so the same rows run side by side).
pub fn campaign_config(args: &Args, benchmarks: &[&str]) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper_baseline(args.window);
    cfg.benchmarks = benchmarks.iter().map(|b| b.to_string()).collect();
    shuffle(&mut cfg.mechanisms, args.seed);
    cfg.seed = args.workload_seed;
    cfg.threads = THREADS;
    cfg
}

/// Runs the whole standard campaign at the run's window and seed and
/// writes its digests (used once per window and seed; the files are
/// committed).
pub fn write_digests(args: &Args) -> Result<Outcome, String> {
    let cfg = campaign_config(args, &benchmarks::NAMES);
    let report = Campaign::new(cfg)
        .with_store(Arc::new(ArtifactStore::new()))
        .run()
        .map_err(|e| e.to_string())?;
    let mut text = format!(
        "# window {}+{}, workload seed {:#x}: benchmark, mechanism, digest\n",
        args.window.skip, args.window.simulate, args.workload_seed
    );
    let mut outcome = Outcome::default();
    for cell in report.cells() {
        outcome.attempted += 1;
        match &cell.outcome {
            Ok(r) => writeln!(text, "{}\t{}\t{:016x}", r.benchmark, r.mechanism, digest(r))
                .expect("write to string"),
            Err(e) => return Err(format!("{} x {}: {e}", cell.benchmark, cell.mechanism)),
        }
    }
    let path = digest_file(&args.digests, args.window, args.workload_seed);
    std::fs::create_dir_all(path.parent().expect("digest file has a parent"))
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("perfbench: wrote {}", path.display());
    Ok(outcome)
}
