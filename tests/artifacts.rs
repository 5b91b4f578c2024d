//! The acceptance property behind the shared-artifact stack: sharing
//! trace buffers, warm-state checkpoints and memoized cells must never
//! change a single result byte. Every study mechanism — the ten that
//! replay their warmup from the recorded event log and the three sidecar
//! mechanisms that keep the exact full warm path — is compared cold vs
//! shared, field for field.

use microlib::report::text_table;
use microlib::{
    execute, run_one, ArtifactStore, Campaign, CampaignReport, Cell, ExperimentConfig, RunResult,
    SamplingMode, SimOptions,
};
use microlib_mech::{MechanismKind, TagCorrelatingPrefetcher};
use microlib_model::SystemConfig;
use microlib_trace::TraceWindow;
use std::sync::Arc;

fn opts(skip: u64, simulate: u64) -> SimOptions {
    SimOptions {
        window: TraceWindow::new(skip, simulate),
        ..SimOptions::default()
    }
}

/// Every observable field of a run, rendered exhaustively: `RunResult`'s
/// `Debug` output covers perf, all cache/memory/core counters, mechanism
/// and queue stats, and the hardware inventory.
fn fingerprint(r: &RunResult) -> String {
    format!("{r:?}")
}

#[test]
fn shared_artifacts_match_cold_runs_for_every_mechanism() {
    let config = SystemConfig::baseline_constant_memory();
    let shared_config = Arc::new(config.clone());
    let store = ArtifactStore::new();
    let opts = opts(3_000, 2_000);
    let mut kinds = MechanismKind::study_set().to_vec();
    kinds.push(MechanismKind::DbcpInitial);
    for bench in ["swim", "mcf"] {
        for kind in &kinds {
            let cold = run_one(&config, *kind, bench, &opts).unwrap();
            let cell = Cell::new(Arc::clone(&shared_config), *kind, bench, opts);
            let shared = execute(&store, &cell).unwrap();
            assert_eq!(
                fingerprint(&cold),
                fingerprint(&shared),
                "{bench} × {kind:?}: shared artifacts changed the result"
            );
        }
    }
    let stats = store.stats();
    assert!(stats.trace_hits > 0, "cells must share the trace buffer");
    assert!(stats.warm_hits > 0, "cells must share the warm checkpoint");
}

#[test]
fn memo_cache_serves_identical_results() {
    let store = ArtifactStore::new();
    let config = Arc::new(SystemConfig::baseline_constant_memory());
    let cell = Cell::new(config, MechanismKind::Sp, "gzip", opts(1_000, 1_000));
    let first = execute(&store, &cell).unwrap();
    let misses = store.stats().memo_misses;
    let second = execute(&store, &cell).unwrap();
    assert_eq!(fingerprint(&first), fingerprint(&second));
    assert_eq!(
        store.stats().memo_misses,
        misses,
        "second run must not simulate"
    );
    assert_eq!(store.stats().memo_hits, 1);
}

/// Fig 10's second-guessed TCP: a 1-entry request queue instead of 128.
fn tcp_queue1_cell(config: Arc<SystemConfig>, bench: &str, opts: SimOptions) -> Cell<'_> {
    Cell::new(config, MechanismKind::Tcp, bench, opts).custom("queue=1", || {
        Box::new(TagCorrelatingPrefetcher::with_queue_capacity(1))
    })
}

#[test]
fn custom_mechanisms_share_artifacts_and_memoize() {
    let store = ArtifactStore::new();
    let cell = tcp_queue1_cell(
        Arc::new(SystemConfig::baseline_constant_memory()),
        "swim",
        opts(2_000, 1_500),
    );
    let cold = execute(&ArtifactStore::new(), &cell).unwrap();
    let shared = execute(&store, &cell).unwrap();
    assert_eq!(fingerprint(&cold), fingerprint(&shared));
    let stats = store.stats();
    assert!(
        stats.trace_misses > 0,
        "the custom cell drew the shared trace"
    );
    assert_eq!((stats.memo_hits, stats.memo_misses), (0, 1), "memoized");
}

#[test]
fn variant_cells_memoize_and_never_alias() {
    let dir = std::env::temp_dir().join(format!("microlib-variant-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = Arc::new(SystemConfig::baseline());
    // A window where the queue size matters (Fig 10's facerec row).
    let o = opts(2_000, 2_000);
    let q1 = tcp_queue1_cell(Arc::clone(&config), "facerec", o);
    let stock = Cell::new(config, MechanismKind::Tcp, "facerec", o);

    let store = ArtifactStore::new().with_disk_cache(&dir);
    let first = execute(&store, &q1).unwrap();
    let second = execute(&store, &q1).unwrap();
    let stats = store.stats();
    assert_eq!((stats.memo_misses, stats.memo_hits), (1, 1));
    assert_eq!(fingerprint(&first), fingerprint(&second));

    // The variant never aliases the stock cell: its own key and result.
    assert_eq!(q1.key(), format!("{}|variant=queue=1", stock.key()));
    let tcp = execute(&store, &stock).unwrap();
    assert_eq!(store.stats().memo_misses, 2, "the stock cell simulates");
    assert_ne!(fingerprint(&first), fingerprint(&tcp));

    // A second store on the same directory (≈ a new process) serves the
    // variant from disk.
    let reopened = ArtifactStore::new().with_disk_cache(&dir);
    let served = execute(&reopened, &q1).unwrap();
    let stats = reopened.stats();
    assert_eq!((stats.memo_disk_hits, stats.memo_misses), (1, 0));
    assert_eq!(fingerprint(&first), fingerprint(&served));
    let _ = std::fs::remove_dir_all(&dir);
}

fn campaign_config() -> ExperimentConfig {
    ExperimentConfig {
        system: SystemConfig::baseline_constant_memory(),
        benchmarks: vec!["swim".into(), "gzip".into(), "mcf".into()],
        mechanisms: vec![
            MechanismKind::Base,
            MechanismKind::Ghb,
            MechanismKind::Vc, // sidecar: exercises the exact-warm fallback
            MechanismKind::Tk, // eviction observer: exercises event replay
        ],
        window: TraceWindow::new(2_000, 1_500),
        seed: 0xC0FFEE,
        threads: 2,
        sampling: SamplingMode::Full,
    }
}

/// Renders a sweep the way the experiment harnesses do, covering every
/// counter that reaches a result table. `result` looks a cell up.
fn result_table(
    cfg: &ExperimentConfig,
    result: impl Fn(&str, MechanismKind) -> RunResult,
) -> String {
    let mut rows = Vec::new();
    for b in &cfg.benchmarks {
        let base = result(b, MechanismKind::Base);
        let mut row = vec![b.clone()];
        for k in &cfg.mechanisms {
            let r = result(b, *k);
            row.push(format!(
                "{:.9}/{}/{}/{}/{}",
                r.perf.speedup_over(&base.perf),
                r.perf.cycles,
                r.l1d.misses,
                r.l2.misses,
                r.mechanism_stats().prefetches_requested,
            ));
        }
        rows.push(row);
    }
    text_table(&["benchmark", "Base", "GHB", "VC", "TK"], &rows)
}

fn report_table(cfg: &ExperimentConfig, report: CampaignReport) -> String {
    let matrix = report.into_matrix().expect("all cells clean");
    result_table(cfg, |b, k| matrix.result(b, k).clone())
}

#[test]
fn campaign_tables_match_with_sharing_on_off_and_memoized() {
    let cfg = campaign_config();
    // Sharing off: every cell alone on a fresh store (the full warm path).
    let opts = SimOptions {
        seed: cfg.seed,
        window: cfg.window,
        sampling: cfg.sampling,
        ..SimOptions::default()
    };
    let cold = result_table(&cfg, |b, k| run_one(&cfg.system, k, b, &opts).unwrap());
    let store = Arc::new(ArtifactStore::new());
    let shared = report_table(
        &cfg,
        Campaign::new(cfg.clone())
            .with_store(Arc::clone(&store))
            .run()
            .unwrap(),
    );
    assert_eq!(
        cold.as_bytes(),
        shared.as_bytes(),
        "artifact sharing changed the table:\n--- cold\n{cold}\n--- shared\n{shared}"
    );
    // Re-sweeping over the same store is served entirely from the memo.
    let before = store.stats().memo_misses;
    let memoized = report_table(
        &cfg,
        Campaign::new(cfg.clone())
            .with_store(store.clone())
            .run()
            .unwrap(),
    );
    assert_eq!(cold.as_bytes(), memoized.as_bytes());
    assert_eq!(
        store.stats().memo_misses,
        before,
        "re-sweep must not simulate any cell"
    );
}

#[test]
fn fresh_store_takes_the_full_warm_path() {
    let store = ArtifactStore::new();
    let config = Arc::new(SystemConfig::baseline_constant_memory());
    // TP replays its warm-up from the event log once a checkpoint exists.
    let cell = Cell::new(config, MechanismKind::Tp, "swim", opts(500, 500));
    execute(&store, &cell).unwrap();
    let stats = store.stats();
    assert_eq!(stats.warm_declined, 1, "first requester warms in full");
    assert_eq!(stats.warm_hits + stats.warm_misses, 0, "no checkpoint");
    assert_eq!((stats.memo_hits, stats.memo_misses), (0, 1));
}
