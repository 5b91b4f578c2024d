//! End-to-end tests of the persistent artifact cache: cross-process
//! reuse (simulated with fresh stores over one directory), crash-safe
//! resume, incremental invalidation, and the corruption fallbacks — a
//! truncated entry, a flipped bit, a wrong-version header and a cell
//! killed mid-journal must all recompute cleanly with bit-identical
//! output.

use microlib::{
    execute, ArtifactStore, Campaign, Cell, ExperimentConfig, RunResult, SamplingMode, SimOptions,
};
use microlib_mech::MechanismKind;
use microlib_model::SystemConfig;
use microlib_trace::TraceWindow;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("microlib-cache-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn opts(window: TraceWindow) -> SimOptions {
    SimOptions {
        window,
        ..SimOptions::default()
    }
}

/// A store with a disk tier at `dir` — each call simulates a fresh
/// process attaching to the same cache directory.
fn store_at(dir: &PathBuf) -> ArtifactStore {
    ArtifactStore::new().with_disk_cache(dir)
}

fn assert_same_result(a: &RunResult, b: &RunResult) {
    assert_eq!(a.benchmark, b.benchmark);
    assert_eq!(a.mechanism, b.mechanism);
    assert_eq!(a.perf, b.perf);
    assert_eq!(a.core, b.core);
    assert_eq!(a.l1d, b.l1d);
    assert_eq!(a.l1i, b.l1i);
    assert_eq!(a.l2, b.l2);
    assert_eq!(a.memory, b.memory);
    assert_eq!(a.mech_l1, b.mech_l1);
    assert_eq!(a.mech_l2, b.mech_l2);
    assert_eq!(a.queue_l1, b.queue_l1);
    assert_eq!(a.queue_l2, b.queue_l2);
    assert_eq!(a.sampling, b.sampling);
}

#[test]
fn memo_survives_across_stores() {
    let dir = tmp_dir("memo");
    let config = Arc::new(SystemConfig::baseline_constant_memory());
    let o = opts(TraceWindow::new(1_000, 2_000));
    let cell = Cell::new(Arc::clone(&config), MechanismKind::Ghb, "swim", o);

    let first = store_at(&dir);
    let cold = execute(&first, &cell).unwrap();
    assert_eq!(first.stats().memo_disk_hits, 0);

    // A fresh store (≈ a new process) serves the cell from disk without
    // simulating, bit-identically.
    let second = store_at(&dir);
    let warm = execute(&second, &cell).unwrap();
    let stats = second.stats();
    assert_eq!(stats.memo_disk_hits, 1, "served from disk");
    assert_eq!(stats.cells_recomputed(), 0, "nothing simulated");
    assert_same_result(&cold, &warm);

    // And matches a completely cold, cache-free run.
    let reference = execute(&ArtifactStore::new(), &cell).unwrap();
    assert_same_result(&reference, &warm);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn interrupted_campaign_resumes_only_missing_cells() {
    let dir = tmp_dir("resume");
    let window = TraceWindow::new(1_000, 2_000);
    let full = ExperimentConfig {
        system: SystemConfig::baseline_constant_memory(),
        benchmarks: vec!["swim".into(), "gzip".into(), "mcf".into()],
        mechanisms: vec![MechanismKind::Base, MechanismKind::Tp],
        window,
        seed: 7,
        threads: 2,
        sampling: SamplingMode::Full,
    };
    // "Crash" after a partial run: only two of three benchmarks finished.
    let partial = ExperimentConfig {
        benchmarks: vec!["swim".into(), "gzip".into()],
        ..full.clone()
    };
    Campaign::new(partial)
        .with_store(Arc::new(store_at(&dir)))
        .run()
        .unwrap();

    // Restart (fresh store over the same journal): the four finished
    // cells come from disk, only mcf's two cells simulate.
    let resumed_store = Arc::new(store_at(&dir));
    let resumed = Campaign::new(full.clone())
        .with_store(Arc::clone(&resumed_store))
        .run()
        .unwrap();
    let stats = resumed_store.stats();
    assert_eq!(stats.memo_disk_hits, 4, "journaled cells served from disk");
    assert_eq!(stats.cells_recomputed(), 2, "only the missing cells ran");

    // Byte-identical to a never-interrupted, cache-free campaign.
    let reference = Campaign::new(full).without_artifacts().run().unwrap();
    for (a, b) in reference.cells().iter().zip(resumed.cells()) {
        assert_eq!(a.benchmark, b.benchmark);
        assert_eq!(a.mechanism, b.mechanism);
        assert_same_result(a.outcome.as_ref().unwrap(), b.outcome.as_ref().unwrap());
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn config_tweak_invalidates_only_the_cells_it_touches() {
    let dir = tmp_dir("incremental");
    let config = Arc::new(SystemConfig::baseline_constant_memory());
    let o = opts(TraceWindow::new(500, 1_500));
    let cell = Cell::new(Arc::clone(&config), MechanismKind::Tp, "gzip", o);
    let first = store_at(&dir);
    execute(&first, &cell).unwrap();

    let mut tweaked = SystemConfig::baseline_constant_memory();
    tweaked.l1d.mshr_entries = 4;
    let tweaked = Arc::new(tweaked);

    let second = store_at(&dir);
    // Unchanged config: disk hit. Tweaked config: a different content
    // key, so the cell recomputes — no stale entry can ever be served.
    let unchanged = execute(&second, &cell).unwrap();
    let changed = execute(
        &second,
        &Cell {
            config: tweaked,
            ..cell
        },
    )
    .unwrap();
    let stats = second.stats();
    assert_eq!(stats.memo_disk_hits, 1);
    assert_eq!(stats.cells_recomputed(), 1);
    assert_ne!(
        unchanged.perf, changed.perf,
        "fewer MSHRs must change timing (and hence prove a real recompute)"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Corrupts every cached entry with `mutate`, then asserts a fresh store
/// falls back to recomputation and still produces the reference result.
fn corruption_recovers(tag: &str, mutate: impl Fn(&PathBuf)) {
    let dir = tmp_dir(tag);
    let config = Arc::new(SystemConfig::baseline_constant_memory());
    let o = opts(TraceWindow::new(1_000, 2_000));
    let cell = Cell::new(Arc::clone(&config), MechanismKind::Markov, "mcf", o);
    let reference = execute(&store_at(&dir), &cell).unwrap();

    let mut corrupted = 0usize;
    for entry in walk(&dir) {
        mutate(&entry);
        corrupted += 1;
    }
    assert!(corrupted > 0, "the run must have written cache entries");

    let recovering = store_at(&dir);
    let recomputed = execute(&recovering, &cell).unwrap();
    let stats = recovering.stats();
    assert_eq!(stats.memo_disk_hits, 0, "corrupt entries are never trusted");
    assert_eq!(stats.cells_recomputed(), 1);
    assert_same_result(&reference, &recomputed);

    // The recompute repaired the cache: a third store hits again.
    let repaired = store_at(&dir);
    let again = execute(&repaired, &cell).unwrap();
    assert_eq!(repaired.stats().memo_disk_hits, 1);
    assert_same_result(&reference, &again);
    let _ = fs::remove_dir_all(&dir);
}

fn walk(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else {
                files.push(path);
            }
        }
    }
    files
}

#[test]
fn truncated_entries_recompute_bit_identically() {
    // A cell killed mid-journal: the file holds a valid prefix but stops
    // short (rename makes this near-impossible, but disks lie).
    corruption_recovers("truncated", |path| {
        let bytes = fs::read(path).unwrap();
        fs::write(path, &bytes[..bytes.len() / 2]).unwrap();
    });
}

#[test]
fn bit_flipped_entries_recompute_bit_identically() {
    corruption_recovers("bitflip", |path| {
        let mut bytes = fs::read(path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(path, &bytes).unwrap();
    });
}

#[test]
fn stale_version_headers_recompute_bit_identically() {
    // The format version is the u32 right after the 4-byte magic;
    // rewriting it simulates a cache left behind by a newer build. (The
    // checksum covers the header too, so this also exercises the
    // earlier-in-the-chain version check path via DiskCache unit tests;
    // here the point is end-to-end recovery.)
    corruption_recovers("version", |path| {
        let mut bytes = fs::read(path).unwrap();
        bytes[4] = bytes[4].wrapping_add(1);
        fs::write(path, &bytes).unwrap();
    });
}

#[test]
fn sampled_cells_and_plans_persist() {
    let dir = tmp_dir("sampled");
    let config = Arc::new(SystemConfig::baseline_constant_memory());
    let window = TraceWindow::new(2_000, 40_000);
    let o = SimOptions {
        window,
        sampling: SamplingMode::SimPoints {
            interval: 10_000,
            max_clusters: 3,
            warmup: 0,
        },
        ..SimOptions::default()
    };
    let cell = |kind| Cell::new(Arc::clone(&config), kind, "gcc", o);

    let first = store_at(&dir);
    let cold = execute(&first, &cell(MechanismKind::Ghb)).unwrap();
    assert!(
        cold.sampling.is_some(),
        "a sampled run carries its estimate"
    );

    let second = store_at(&dir);
    let warm = execute(&second, &cell(MechanismKind::Ghb)).unwrap();
    let stats = second.stats();
    assert_eq!(stats.memo_disk_hits, 1);
    assert_same_result(&cold, &warm);

    // A different mechanism in the same (benchmark, window) reuses the
    // persisted sampling plan instead of re-profiling.
    let third = store_at(&dir);
    execute(&third, &cell(MechanismKind::Tp)).unwrap();
    let stats = third.stats();
    assert_eq!(stats.plan_disk_hits, 1, "plan served from disk");
    assert_eq!(stats.plan_misses, 0, "no re-profiling");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn warm_states_persist_across_stores() {
    let dir = tmp_dir("warm");
    let window = TraceWindow::new(4_000, 1_000);
    let cfg = ExperimentConfig {
        system: SystemConfig::baseline_constant_memory(),
        benchmarks: vec!["swim".into()],
        // Three event-replayable mechanisms over one benchmark: the
        // second requester earns the warm capture, which then persists.
        mechanisms: vec![MechanismKind::Base, MechanismKind::Tp, MechanismKind::Ghb],
        window,
        seed: 3,
        threads: 1,
        sampling: SamplingMode::Full,
    };
    let first_store = Arc::new(store_at(&dir));
    let reference = Campaign::new(cfg.clone())
        .with_store(Arc::clone(&first_store))
        .run()
        .unwrap();
    assert!(
        first_store.stats().warm_misses > 0,
        "the sweep must have captured a warm state to persist"
    );

    // Fresh store, fresh process: even the FIRST warm request hits disk
    // (no two-requester gate), and every cell comes from the memo anyway.
    // Drop the memo files to force re-simulation through the warm path.
    for f in walk(&dir.join("memo")) {
        fs::remove_file(f).unwrap();
    }
    let second_store = Arc::new(store_at(&dir));
    let resumed = Campaign::new(cfg)
        .with_store(Arc::clone(&second_store))
        .run()
        .unwrap();
    let stats = second_store.stats();
    assert!(stats.warm_disk_hits >= 1, "warm state served from disk");
    assert_eq!(stats.warm_misses, 0, "no warm phase re-recorded");
    for (a, b) in reference.cells().iter().zip(resumed.cells()) {
        assert_same_result(a.outcome.as_ref().unwrap(), b.outcome.as_ref().unwrap());
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn disabled_and_memory_only_stores_touch_no_disk() {
    let dir = tmp_dir("untouched");
    let config = Arc::new(SystemConfig::baseline_constant_memory());
    let o = opts(TraceWindow::new(0, 1_000));
    let cell = Cell::new(Arc::clone(&config), MechanismKind::Base, "swim", o);
    // Memory-only store: no directory may appear.
    execute(&ArtifactStore::new(), &cell).unwrap();
    // A disabled store ignores with_disk_cache entirely.
    let disabled = ArtifactStore::disabled().with_disk_cache(&dir);
    assert!(disabled.disk_cache().is_none());
    execute(&disabled, &cell).unwrap();
    assert!(!dir.exists(), "no cache directory was created");
}
