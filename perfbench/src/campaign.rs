//! The campaign workloads: the standard campaign's rows run through
//! `Campaign` with 2 threads over a fresh store and a fresh on-disk cache,
//! as `run_all` runs them by default.

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use microlib::{ArtifactStore, ArtifactStoreStats, Campaign};
use microlib_mech::MechanismKind;
use microlib_trace::TraceWindow;

use crate::check::{campaign_config, compute_benchmarks, Expected, MEMBOUND};
use crate::procfs::Region;
use crate::{median, percentile, Args, Outcome, Workload};

/// The workload's benchmark rows (each crossed with the 13 mechanisms).
pub fn benchmarks_of(workload: Workload) -> Vec<&'static str> {
    match workload {
        Workload::CampaignCompute => compute_benchmarks(),
        Workload::CampaignMembound => MEMBOUND.to_vec(),
        Workload::ServeWarm => vec!["swim"],
    }
}

/// One campaign, set up and run.
pub struct Pass {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    pub cells: u64,
    /// Cells that failed or whose statistics did not match their digest.
    pub failed: u64,
    /// Each cell's wall time (ms), from the progress callback.
    pub cell_ms: Vec<f64>,
    /// Sum of per-cell wall times (s).
    pub total_cell_s: f64,
    pub stats: ArtifactStoreStats,
}

/// A campaign ready to run over `store`, recording each cell's wall time.
pub struct Prepared {
    campaign: Campaign,
    store: Arc<ArtifactStore>,
    cell_ms: Arc<Mutex<Vec<f64>>>,
}

/// Sets up the campaign over `benchmarks` through `store`.
pub fn prepare(args: &Args, benchmarks: &[&str], store: Arc<ArtifactStore>) -> Prepared {
    let cell_ms = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&cell_ms);
    let campaign = Campaign::new(campaign_config(args, benchmarks))
        .with_store(Arc::clone(&store))
        .with_progress(move |u| {
            sink.lock()
                .expect("cell time lock")
                .push(u.elapsed.as_secs_f64() * 1e3)
        });
    Prepared {
        campaign,
        store,
        cell_ms,
    }
}

/// Runs a prepared campaign (timed) and checks every cell against
/// `expected`.
pub fn run_prepared(prepared: Prepared, expected: &Expected) -> Result<Pass, String> {
    let region = Region::start()?;
    let started = Instant::now();
    let report = prepared.campaign.run().map_err(|e| e.to_string())?;
    let wall_s = started.elapsed().as_secs_f64();
    let (cpu_s, peak_rss_mb) = region.finish()?;

    let failed = report
        .cells()
        .iter()
        .filter(|c| !c.outcome.as_ref().is_ok_and(|r| expected.matches(r)))
        .count() as u64;
    let cell_ms = std::mem::take(&mut *prepared.cell_ms.lock().expect("cell time lock"));
    Ok(Pass {
        wall_s,
        cpu_s,
        peak_rss_mb,
        cells: report.cells().len() as u64,
        failed,
        cell_ms,
        total_cell_s: report.total_cell_time().as_secs_f64(),
        stats: prepared.store.stats(),
    })
}

/// Primes the process before a timed pass: one cell of `benchmark` ×
/// Base at a 2000+2000 window through a throwaway store, so every pass
/// starts with the thread pool, code and allocator equally warm.
fn prime(args: &Args, benchmark: &str) -> Result<(), String> {
    let mut cfg = campaign_config(args, &[benchmark]);
    cfg.mechanisms = vec![MechanismKind::Base];
    cfg.window = TraceWindow::new(2_000, 2_000);
    let report = Campaign::new(cfg)
        .with_store(Arc::new(ArtifactStore::new()))
        .run()
        .map_err(|e| e.to_string())?;
    if report.failure_count() > 0 {
        return Err("the priming cell failed".into());
    }
    Ok(())
}

/// Set-ups per campaign pass; the pass runs the last one.
const SETUPS: usize = 3;

/// One campaign over a fresh store with a fresh disk cache under `dir`,
/// and the median time of its [`SETUPS`] set-ups: prime the process, then
/// create a cache directory, the store and the `Campaign`.
pub fn fresh_pass(
    args: &Args,
    benchmarks: &[&str],
    expected: &Expected,
    dir: &Path,
) -> Result<(f64, Pass), String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut prepared = None;
    for k in 0..SETUPS {
        let started = Instant::now();
        prime(args, benchmarks[0])?;
        let cache = dir.join(k.to_string());
        std::fs::create_dir_all(&cache).map_err(|e| format!("{}: {e}", cache.display()))?;
        let store = Arc::new(ArtifactStore::new().with_disk_cache(cache));
        prepared = Some(prepare(args, benchmarks, store));
        setups.push(started.elapsed().as_secs_f64());
    }
    let pass = run_prepared(prepared.expect("at least one set-up"), expected);
    let _ = std::fs::remove_dir_all(dir);
    Ok((median(&setups), pass?))
}

/// The untraced workload: fresh campaigns back to back, at least two,
/// while another pass is expected to end nearer `--seconds` of measured
/// time than stopping now would. Rates are totals over the passes.
pub fn run(args: &Args, expected: &Expected) -> Result<Outcome, String> {
    let benchmarks = benchmarks_of(args.workload);
    let mut passes: Vec<Pass> = Vec::new();
    let mut setups = Vec::new();
    let mut measured = 0.0;
    while passes.len() < 2
        || measured + median(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>()) / 2.0
            < args.seconds
    {
        let dir = args.work_dir.join(format!("cache-{}", passes.len()));
        let (setup_s, pass) = fresh_pass(args, &benchmarks, expected, &dir)?;
        setups.push(setup_s);
        eprintln!(
            "perfbench: pass {}: {} cells in {:.3} s, {:.2} s CPU, peak {:.1} MiB, {} failed",
            passes.len(),
            pass.cells,
            pass.wall_s,
            pass.cpu_s,
            pass.peak_rss_mb,
            pass.failed
        );
        measured += pass.wall_s;
        passes.push(pass);
    }

    let total = |f: &dyn Fn(&Pass) -> f64| passes.iter().map(f).sum::<f64>();
    let cells = total(&|p| p.cells as f64);
    let cells_per_s = cells / measured;
    let cell_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.cell_ms.iter().copied())
        .collect();
    let mut out = Outcome {
        attempted: cells as u64,
        failed: passes.iter().map(|p| p.failed).sum(),
        latency_samples: cell_ms.len(),
        metrics: Vec::new(),
    };
    let ok_ratio = 1.0 - out.failed as f64 / out.attempted as f64;
    out.metric("setup_s", median(&setups), "s");
    out.metric("cells_per_s", cells_per_s, "1/s");
    out.metric("cpu_ms_per_op", total(&|p| p.cpu_s) * 1e3 / cells, "ms");
    // The first pass's: later passes start from the heap earlier ones
    // left behind.
    out.metric("peak_rss_mb", passes[0].peak_rss_mb, "MiB");
    out.metric("ok_ratio", ok_ratio, "ratio");
    // A campaign's queries are its cells: each is one request into the
    // store, answered in `CellUpdate::elapsed`.
    out.metric("query_p50_ms", percentile(&cell_ms, 50.0), "ms");
    out.metric("queries_per_s", cells_per_s, "1/s");
    Ok(out)
}
