//! In-process tests of crash safety: the fault-injection harness's
//! torn-write and panic kinds must recover to identical results, a
//! panicking cell must leave no journal entry behind, and the in-process
//! single-flight must survive a panicking leader. (The abort kind — a
//! killed run resuming from the journal — is exercised end-to-end in
//! `crates/bench/tests/run_all_cli.rs`.)

use microlib::{execute, fault, run_one, ArtifactStore, Cell, RunResult, SimOptions};
use microlib_mech::MechanismKind;
use microlib_model::SystemConfig;
use microlib_trace::TraceWindow;
use std::fs;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError};

/// Serializes tests that arm the (process-global) fault harness, and
/// tests whose disk writes an armed fault would hit.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn fault_guard() -> std::sync::MutexGuard<'static, ()> {
    // A panicking armed test must not poison the rest of the suite.
    FAULT_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("microlib-fault-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn opts(window: TraceWindow) -> SimOptions {
    SimOptions {
        window,
        ..SimOptions::default()
    }
}

fn assert_same_result(a: &RunResult, b: &RunResult) {
    assert_eq!(a.benchmark, b.benchmark);
    assert_eq!(a.mechanism, b.mechanism);
    assert_eq!(a.perf, b.perf);
    assert_eq!(a.l1d, b.l1d);
    assert_eq!(a.memory, b.memory);
}

#[test]
fn torn_memo_write_recovers_byte_identical() {
    let _guard = fault_guard();
    let dir = tmp_dir("torn-memo");
    let config = Arc::new(SystemConfig::baseline_constant_memory());
    let o = opts(TraceWindow::new(1_000, 1_500));
    let cell = |kind| Cell::new(Arc::clone(&config), kind, "gcc", o);

    fault::arm("disk-write@memo:1:torn").unwrap();
    let first = ArtifactStore::new().with_disk_cache(&dir);
    let torn = execute(&first, &cell(MechanismKind::Tcp)).unwrap();
    fault::disarm();
    // The journal write was torn (half the framed entry at the final
    // path); the in-RAM result is still whole.
    let memo_files: Vec<PathBuf> = dir
        .join("memo")
        .read_dir()
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(memo_files.len(), 1, "the torn entry is on disk");

    // A fresh process must reject the torn entry, recompute the identical
    // result, and heal the journal.
    let second = ArtifactStore::new().with_disk_cache(&dir);
    let healed = execute(&second, &cell(MechanismKind::Tcp)).unwrap();
    assert_same_result(&torn, &healed);
    assert_eq!(second.stats().memo_disk_hits, 0, "torn entry never served");
    assert_eq!(second.stats().memo_misses, 1, "recomputed once");

    let third = ArtifactStore::new().with_disk_cache(&dir);
    let served = execute(&third, &cell(MechanismKind::Tcp)).unwrap();
    assert_same_result(&torn, &served);
    assert_eq!(third.stats().memo_disk_hits, 1, "healed entry serves");
    assert_eq!(third.stats().memo_misses, 0);
    let _ = fs::remove_dir_all(&dir);
}

/// A cell that panics mid-computation journals nothing: the journal
/// holds only completed cells, so a fresh store (the rerun after a crash)
/// computes the cell once — bit-identical to `run_one` — and a third
/// store serves it from disk without recomputing.
#[test]
fn panic_leaves_no_journal_entry_and_a_fresh_store_recovers() {
    let _guard = fault_guard();
    let dir = tmp_dir("panic-cell");
    let config = Arc::new(SystemConfig::baseline_constant_memory());
    let o = opts(TraceWindow::new(2_000, 1_000));
    let cell = Cell::new(Arc::clone(&config), MechanismKind::Base, "swim", o);
    let store = || ArtifactStore::new().with_disk_cache(&dir);

    fault::arm("cell@swim+Base:1:panic").unwrap();
    let crashing = store();
    let outcome =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| execute(&crashing, &cell)));
    fault::disarm();
    assert!(outcome.is_err(), "the injected panic unwinds to the caller");
    let journaled = dir
        .join("memo")
        .read_dir()
        .map(|entries| entries.count())
        .unwrap_or(0);
    assert_eq!(journaled, 0, "a panicking cell writes no memo file");

    let fresh = store();
    let recovered = execute(&fresh, &cell).unwrap();
    let reference = run_one(&config, MechanismKind::Base, "swim", &o).unwrap();
    assert_same_result(&recovered, &reference);
    assert_eq!(fresh.stats().memo_misses, 1, "computed once");
    assert_eq!(fresh.stats().memo_disk_hits, 0);

    let warm = store();
    let served = execute(&warm, &cell).unwrap();
    assert_same_result(&served, &reference);
    assert_eq!(warm.stats().memo_misses, 0, "served from the journal");
    assert_eq!(warm.stats().memo_disk_hits, 1);
    let _ = fs::remove_dir_all(&dir);
}

/// In-process single-flight survives a crashing leader: two threads race
/// into one cell on a memory-only store without leases, the injected
/// panic hits whichever computes first, and the other still returns the
/// cell — identical to a fresh `run_one` — and memoizes it.
#[test]
fn in_process_single_flight_survives_a_panicking_leader() {
    let _guard = fault_guard();
    let config = Arc::new(SystemConfig::baseline_constant_memory());
    let o = opts(TraceWindow::new(2_000, 1_000));
    let cell = Cell::new(Arc::clone(&config), MechanismKind::Base, "swim", o);
    let store = ArtifactStore::new();

    fault::arm("cell@swim+Base:1:panic").unwrap();
    let outcomes: Vec<_> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..2).map(|_| s.spawn(|| execute(&store, &cell))).collect();
        threads.into_iter().map(|t| t.join()).collect()
    });
    fault::disarm();
    let (panicked, returned): (Vec<_>, Vec<_>) = outcomes.into_iter().partition(Result::is_err);
    assert_eq!(panicked.len(), 1, "exactly one thread hits the panic");
    let survivor = returned
        .into_iter()
        .next()
        .and_then(Result::ok)
        .expect("the other thread returns")
        .expect("the cell computes");

    let reference = run_one(&config, MechanismKind::Base, "swim", &o).unwrap();
    assert_same_result(&survivor, &reference);
    let hits = store.stats().memo_hits;
    let again = execute(&store, &cell).unwrap();
    assert_same_result(&again, &reference);
    assert_eq!(
        store.stats().memo_hits,
        hits + 1,
        "the survivor memoized it"
    );
}
