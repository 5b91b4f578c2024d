//! # microlib-bench
//!
//! Experiment harnesses that regenerate every figure and table of the
//! MicroLib paper. Each `fig*`/`tab*` experiment module prints the same
//! rows/series the paper reports; `run_all` executes the battery **in
//! process** (`--only <name>` selects single experiments), sharing one
//! standard campaign across every experiment that needs it.
//! The README's "Figure/table → experiment → results map" is the
//! experiment index.
//!
//! All binaries accept the environment overrides:
//!
//! - `MICROLIB_SKIP` — warmed (functionally simulated) instructions
//!   (default 150 000);
//! - `MICROLIB_SIM` — detailed-simulated instructions (default 100 000);
//! - `MICROLIB_SEED` — workload seed (default `0xC0FFEE`);
//! - `MICROLIB_THREADS` — worker threads (default: all cores);
//! - `MICROLIB_SAMPLED` — `1`/`on` runs sweeps SimPoint-sampled with the
//!   default plan for the window, `interval/clusters[/warmup]` picks an
//!   explicit plan (what `run_all --sampled` sets; see
//!   [`SamplingMode::SimPoints`]).
//!
//! Result tables are written to stdout and are bit-identical for any
//! `MICROLIB_THREADS` value; progress and timing go to stderr.

#![warn(missing_docs)]

use microlib::{ArtifactStore, Campaign, ExperimentConfig, Matrix, SamplingMode, SimOptions};
use microlib_trace::TraceWindow;
use std::io::Write as _;
use std::sync::{Arc, Mutex};

pub mod experiments;

/// Environment-configurable trace window shared by all experiments.
pub fn std_window() -> TraceWindow {
    let skip = env_u64("MICROLIB_SKIP", 150_000);
    let simulate = env_u64("MICROLIB_SIM", 100_000);
    TraceWindow::new(skip, simulate)
}

/// The longer "article setup" window for validation experiments (the
/// paper's "skip 1 billion, simulate 2 billion", scaled).
pub fn article_window() -> TraceWindow {
    let w = std_window();
    TraceWindow::new(w.skip / 2, w.simulate * 2)
}

/// Environment-configurable seed.
pub fn std_seed() -> u64 {
    env_u64("MICROLIB_SEED", 0xC0FFEE)
}

/// Environment-configurable thread count (0 = all cores).
pub fn std_threads() -> usize {
    env_u64("MICROLIB_THREADS", 0) as usize
}

/// Environment-configurable sampling mode (`MICROLIB_SAMPLED`): unset,
/// `0`, `off` or `false` run full simulations; `1`, `on` or `true` use
/// [`SamplingMode::simpoints_for`] the standard window; an
/// `interval/clusters[/warmup]` triple picks an explicit SimPoint plan.
/// Unparseable values warn on stderr and fall back to the default plan.
pub fn std_sampling() -> SamplingMode {
    sampling_from_env(std_window())
}

fn sampling_from_env(window: TraceWindow) -> SamplingMode {
    match std::env::var("MICROLIB_SAMPLED") {
        Ok(value) => parse_sampling_spec(&value, window),
        Err(_) => SamplingMode::Full,
    }
}

fn parse_sampling_spec(spec: &str, window: TraceWindow) -> SamplingMode {
    match spec {
        "" | "0" | "off" | "false" => SamplingMode::Full,
        "1" | "on" | "true" => SamplingMode::simpoints_for(window),
        spec => {
            let parts: Vec<Option<u64>> = spec.split('/').map(|p| p.parse::<u64>().ok()).collect();
            match parts.as_slice() {
                [Some(interval), Some(clusters)] => SamplingMode::SimPoints {
                    interval: *interval,
                    max_clusters: *clusters as usize,
                    warmup: 0,
                },
                [Some(interval), Some(clusters), Some(warmup)] => SamplingMode::SimPoints {
                    interval: *interval,
                    max_clusters: *clusters as usize,
                    warmup: *warmup,
                },
                _ => {
                    eprintln!(
                        "MICROLIB_SAMPLED={spec:?} is not 0/1/on/off or \
                         interval/clusters[/warmup]; using the default plan"
                    );
                    SamplingMode::simpoints_for(window)
                }
            }
        }
    }
}

/// Standard [`SimOptions`] for single runs.
pub fn std_options() -> SimOptions {
    SimOptions {
        seed: std_seed(),
        window: std_window(),
        sampling: std_sampling(),
        ..SimOptions::default()
    }
}

/// The paper's main sweep configuration with environment overrides applied.
pub fn std_experiment() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper_baseline(std_window());
    cfg.seed = std_seed();
    cfg.threads = std_threads();
    cfg.sampling = std_sampling();
    cfg
}

/// A thread pool honouring `MICROLIB_THREADS`, for experiment-local
/// parallelism outside the campaign engine (per-benchmark comparison
/// loops). Collected results are always in input order, so this never
/// perturbs output tables.
pub fn par_pool() -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(std_threads())
        .build()
        .expect("experiment thread pool")
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Runs `cfg` through the campaign engine with progress on stderr.
///
/// Per-cell failures are all reported (coordinates + cause) before the
/// sweep panics — one bad cell no longer masks the rest of a sweep's
/// diagnostics. Direct callers abort on the panic (the historical
/// `.expect("sweep runs")` behavior); `run_all` catches it per
/// experiment so one failing experiment cannot sink the battery.
///
/// # Panics
///
/// Panics if the configuration is rejected or any cell fails.
pub fn sweep(cfg: &ExperimentConfig) -> Matrix {
    sweep_with(None, cfg)
}

/// [`sweep`] over a shared [`ArtifactStore`] (`None` keeps the campaign's
/// own per-sweep store). `run_all` passes its battery-wide store so
/// overlapping cells across experiments are computed once.
///
/// # Panics
///
/// Panics if the configuration is rejected or any cell fails (see
/// [`sweep`]).
pub fn sweep_with(store: Option<Arc<ArtifactStore>>, cfg: &ExperimentConfig) -> Matrix {
    sweep_logged(store, None, cfg)
}

/// [`sweep_with`] with an optional per-cell failure sink: failed cells
/// are recorded as `"benchmark x mechanism: cause"` lines *before* the
/// panic, so a battery driver that catches the panic can still report
/// exactly which cells failed at the end of the run.
fn sweep_logged(
    store: Option<Arc<ArtifactStore>>,
    failure_sink: Option<&Mutex<Vec<String>>>,
    cfg: &ExperimentConfig,
) -> Matrix {
    let mut campaign = Campaign::new(cfg.clone());
    if let Some(store) = store {
        campaign = campaign.with_store(store);
    }
    let campaign = campaign.with_progress(|u| {
        eprint!(
            "\r  [{}/{}] {} x {}        ",
            u.completed, u.total, u.benchmark, u.mechanism
        );
        let _ = std::io::stderr().flush();
    });
    eprintln!(
        "campaign: {} cells on {} threads",
        campaign.cell_count(),
        campaign.effective_threads()
    );
    let report = match campaign.run() {
        Ok(report) => report,
        Err(e) => panic!("campaign configuration rejected: {e}"),
    };
    eprintln!();
    if report.failure_count() > 0 {
        for cell in report.failures() {
            let err = cell.outcome.as_ref().expect_err("failure cell");
            eprintln!("  FAILED {} x {}: {err}", cell.benchmark, cell.mechanism);
            if let Some(sink) = failure_sink {
                // Dedup: a cell of the shared standard campaign that
                // fails re-fails under every later experiment that
                // touches `std_matrix` (the panic aborts assignment, so
                // nothing caches) — one summary line per distinct cell.
                let line = format!("{} x {}: {err}", cell.benchmark, cell.mechanism);
                let mut sink = sink.lock().expect("failure sink lock");
                if !sink.contains(&line) {
                    sink.push(line);
                }
            }
        }
        panic!(
            "{} of {} sweep cells failed (details on stderr)",
            report.failure_count(),
            report.cells().len()
        );
    }
    report.into_matrix().expect("all cells succeeded")
}

/// Shared state across experiments in one process: the standard campaign's
/// matrix is computed once and reused by every experiment that sweeps the
/// paper's main setup (`run_all` runs eight such experiments off a single
/// sweep).
#[derive(Debug)]
pub struct Context {
    std_matrix: Option<Matrix>,
    store: Arc<ArtifactStore>,
    cell_failures: Mutex<Vec<String>>,
}

impl Default for Context {
    fn default() -> Self {
        Self::new()
    }
}

impl Context {
    /// Creates an empty context (no sweeps run yet) with a battery-wide
    /// artifact store with the persistent disk tier `MICROLIB_CACHE_DIR`
    /// asks for.
    pub fn new() -> Self {
        Context {
            std_matrix: None,
            store: Arc::new(ArtifactStore::from_env()),
            cell_failures: Mutex::new(Vec::new()),
        }
    }

    /// The battery-wide artifact store. Experiments route their sweeps
    /// and single runs through it so traces, warm states and duplicated
    /// cells are shared across the whole battery.
    pub fn store(&self) -> &Arc<ArtifactStore> {
        &self.store
    }

    /// Runs `cfg` through the campaign engine over the battery-wide
    /// artifact store (see [`sweep`] for the failure handling). Failed
    /// cells are additionally recorded in the context's failure log
    /// ([`cell_failures`](Context::cell_failures)) before the panic, so
    /// the battery driver can summarize them after catching it.
    pub fn sweep(&self, cfg: &ExperimentConfig) -> Matrix {
        sweep_logged(
            Some(Arc::clone(&self.store)),
            Some(&self.cell_failures),
            cfg,
        )
    }

    /// The matrix of the standard experiment ([`std_experiment`]), swept on
    /// first use through the campaign engine and cached for the rest of
    /// the process.
    pub fn std_matrix(&mut self) -> &Matrix {
        if self.std_matrix.is_none() {
            self.std_matrix = Some(sweep_logged(
                Some(Arc::clone(&self.store)),
                Some(&self.cell_failures),
                &std_experiment(),
            ));
        }
        self.std_matrix.as_ref().expect("just computed")
    }

    /// Every campaign cell that failed under this context, as
    /// `"benchmark x mechanism: cause"` lines in the order the failures
    /// were reported. `run_all` prints these in its end-of-battery
    /// summary so a partially failed battery can never look green.
    pub fn cell_failures(&self) -> Vec<String> {
        self.cell_failures
            .lock()
            .expect("failure sink lock")
            .clone()
    }
}

/// Prints the standard experiment header.
///
/// # Errors
///
/// Propagates write failures on `w`.
pub fn header(
    w: &mut dyn std::io::Write,
    id: &str,
    paper_ref: &str,
    what: &str,
) -> std::io::Result<()> {
    writeln!(
        w,
        "=============================================================="
    )?;
    writeln!(w, "{id} — {paper_ref}")?;
    writeln!(w, "{what}")?;
    writeln!(w, "window: {} (seed {:#x})", std_window(), std_seed())?;
    writeln!(
        w,
        "=============================================================="
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let w = std_window();
        assert!(w.simulate > 0);
        assert!(std_options().window.simulate > 0);
        let cfg = std_experiment();
        assert_eq!(cfg.benchmarks.len(), 26);
        assert_eq!(cfg.mechanisms.len(), 13);
    }

    #[test]
    fn article_window_is_longer() {
        assert!(article_window().simulate > std_window().simulate);
    }

    #[test]
    fn failed_cells_are_recorded_before_the_sweep_panics() {
        use microlib_mech::MechanismKind;
        use microlib_model::SystemConfig;

        let cx = Context::new();
        let cfg = ExperimentConfig {
            system: SystemConfig::baseline_constant_memory(),
            benchmarks: vec!["swim".into(), "quake3".into()],
            mechanisms: vec![MechanismKind::Base],
            window: TraceWindow::new(0, 1_000),
            seed: 1,
            threads: 1,
            sampling: SamplingMode::Full,
        };
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cx.sweep(&cfg)));
        assert!(panicked.is_err(), "a failed cell still panics the sweep");
        let failures = cx.cell_failures();
        assert_eq!(failures.len(), 1, "one cell failed: {failures:?}");
        assert!(failures[0].contains("quake3"));
        assert!(failures[0].contains("Base"));
        assert!(failures[0].contains("unknown benchmark"));
    }

    #[test]
    fn sampling_spec_parses() {
        let w = TraceWindow::new(0, 100_000);
        assert_eq!(parse_sampling_spec("off", w), SamplingMode::Full);
        assert_eq!(parse_sampling_spec("0", w), SamplingMode::Full);
        assert_eq!(parse_sampling_spec("1", w), SamplingMode::simpoints_for(w));
        assert_eq!(
            parse_sampling_spec("5000/3", w),
            SamplingMode::SimPoints {
                interval: 5_000,
                max_clusters: 3,
                warmup: 0
            }
        );
        assert_eq!(
            parse_sampling_spec("5000/3/20000", w),
            SamplingMode::SimPoints {
                interval: 5_000,
                max_clusters: 3,
                warmup: 20_000
            }
        );
        // Garbage falls back to the default plan (with a warning).
        assert_eq!(
            parse_sampling_spec("5000:3", w),
            SamplingMode::simpoints_for(w)
        );
    }

    #[test]
    fn header_is_deterministic() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        header(&mut a, "x", "y", "z").unwrap();
        header(&mut b, "x", "y", "z").unwrap();
        assert_eq!(a, b);
    }
}
