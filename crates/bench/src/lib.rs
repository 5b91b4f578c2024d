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
//! - `MICROLIB_SEED` — workload seed (default `0xC0FFEE`; decimal or
//!   `0x` hex);
//! - `MICROLIB_THREADS` — worker threads (default: all cores);
//! - `MICROLIB_SAMPLED` — `1`/`on` runs sweeps SimPoint-sampled with the
//!   default plan for the window, `interval/clusters[/warmup]` picks an
//!   explicit plan (what `run_all --sampled` sets; see
//!   [`SamplingMode::SimPoints`]).
//!
//! An unset or empty knob takes its default; any other value that does
//! not parse, or a window any experiment would derive past
//! [`MAX_WINDOW_INSTS`], is an error. [`check_env`] reports the first
//! such knob by name — `run_all` calls it before any work and exits 2 on
//! it — and the `std_*` accessors panic on one.
//!
//! Result tables are written to stdout and are bit-identical for any
//! `MICROLIB_THREADS` value; progress and timing go to stderr.

#![warn(missing_docs)]

use microlib::{ArtifactStore, Campaign, ExperimentConfig, Matrix, SamplingMode, SimOptions};
use microlib_trace::{TraceWindow, MAX_WINDOW_INSTS};
use std::io::Write as _;
use std::sync::{Arc, Mutex};

pub mod experiments;

/// The seed every experiment uses unless `MICROLIB_SEED` says otherwise.
pub const DEFAULT_SEED: u64 = 0xC0FFEE;

/// Parses one unsigned knob value: decimal, or hexadecimal after a `0x`
/// (or `0X`) prefix — the form seeds are printed in.
///
/// # Errors
///
/// A message naming `name` when `raw` is not such a number.
pub fn parse_u64_knob(name: &str, raw: &str) -> Result<u64, String> {
    let trimmed = raw.trim();
    match trimmed
        .strip_prefix("0x")
        .or_else(|| trimmed.strip_prefix("0X"))
    {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => trimmed.parse().ok(),
    }
    .ok_or_else(|| format!("{name}={raw:?} is not an unsigned integer (decimal or 0x hex)"))
}

/// The environment knob `name`: `default` when unset or empty, else its
/// [`parse_u64_knob`] value.
///
/// # Errors
///
/// The [`parse_u64_knob`] error (a non-UTF-8 value never parses).
pub fn env_u64(name: &str, default: u64) -> Result<u64, String> {
    match std::env::var_os(name) {
        Some(raw) if !raw.to_string_lossy().trim().is_empty() => {
            parse_u64_knob(name, &raw.to_string_lossy())
        }
        _ => Ok(default),
    }
}

/// Checks a `MICROLIB_SKIP`/`MICROLIB_SIM` pair and returns its window.
/// `simulate` must be positive, and every window derived from the pair
/// must end at or below [`MAX_WINDOW_INSTS`]: the window itself, the
/// [`article_window`] (half the skip, twice the simulate), and the
/// miner's shortest `win` variant (simulate floored at 1 000).
///
/// # Errors
///
/// A message naming both knobs and the bound.
pub fn checked_window(skip: u64, simulate: u64) -> Result<TraceWindow, String> {
    if simulate == 0 {
        return Err("MICROLIB_SIM=0: the window must simulate at least one instruction".to_owned());
    }
    let window = TraceWindow::new(skip, simulate);
    let fits = |w: TraceWindow| w.bounded_end().is_some();
    // The window itself is checked first: it bounds `simulate`, so the
    // article window's doubling cannot overflow.
    if fits(window) && fits(article_of(window)) && fits(TraceWindow::new(skip, simulate.max(1_000)))
    {
        return Ok(window);
    }
    Err(format!(
        "MICROLIB_SKIP={skip} MICROLIB_SIM={simulate}: every window derived from them \
         (skip + simulate, the article window skip/2 + 2*simulate) must end at or below \
         {MAX_WINDOW_INSTS} instructions"
    ))
}

/// `MICROLIB_SKIP`/`MICROLIB_SIM` with the given defaults, checked by
/// [`checked_window`].
///
/// # Errors
///
/// An unparseable knob or an out-of-bounds window.
pub fn env_window(default_skip: u64, default_simulate: u64) -> Result<TraceWindow, String> {
    checked_window(
        env_u64("MICROLIB_SKIP", default_skip)?,
        env_u64("MICROLIB_SIM", default_simulate)?,
    )
}

/// Parses a `MICROLIB_SAMPLED` value for runs over `window`: empty, `0`,
/// `off` or `false` run full simulations; `1`, `on` or `true` use
/// [`SamplingMode::simpoints_for`] the window; anything else must be a
/// [`SamplingMode::parse`] plan.
///
/// # Errors
///
/// A message naming the knob when the value is none of those.
pub fn parse_sampling_knob(raw: &str, window: TraceWindow) -> Result<SamplingMode, String> {
    match raw.trim() {
        "" | "0" | "off" | "false" => Ok(SamplingMode::Full),
        "1" | "on" | "true" => Ok(SamplingMode::simpoints_for(window)),
        spec => SamplingMode::parse(spec)
            .map_err(|e| format!("MICROLIB_SAMPLED={raw:?}: {e}; or use 0/1/on/off")),
    }
}

/// Checks every knob the battery reads (see the crate docs), so a binary
/// can reject bad input before it allocates or simulates anything.
///
/// # Errors
///
/// The first offending knob's message.
pub fn check_env() -> Result<(), String> {
    let window = env_window(150_000, 100_000)?;
    env_u64("MICROLIB_SEED", DEFAULT_SEED)?;
    env_threads()?;
    sampling_from_env(window)?;
    Ok(())
}

/// Unwraps a knob that [`check_env`] would have rejected.
fn knob<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|e| panic!("{e}"))
}

/// `MICROLIB_THREADS` (0 = all cores).
///
/// # Errors
///
/// An unparseable value, or one that does not fit `usize`.
pub fn env_threads() -> Result<usize, String> {
    let threads = env_u64("MICROLIB_THREADS", 0)?;
    usize::try_from(threads).map_err(|_| format!("MICROLIB_THREADS={threads} is too large"))
}

fn sampling_from_env(window: TraceWindow) -> Result<SamplingMode, String> {
    std::env::var_os("MICROLIB_SAMPLED").map_or(Ok(SamplingMode::Full), |raw| {
        parse_sampling_knob(&raw.to_string_lossy(), window)
    })
}

fn article_of(w: TraceWindow) -> TraceWindow {
    TraceWindow::new(w.skip / 2, w.simulate * 2)
}

/// Environment-configurable trace window shared by all experiments.
///
/// # Panics
///
/// On a window knob [`check_env`] rejects.
pub fn std_window() -> TraceWindow {
    knob(env_window(150_000, 100_000))
}

/// The longer "article setup" window for validation experiments (the
/// paper's "skip 1 billion, simulate 2 billion", scaled).
///
/// # Panics
///
/// On a window knob [`check_env`] rejects.
pub fn article_window() -> TraceWindow {
    article_of(std_window())
}

/// Environment-configurable seed.
///
/// # Panics
///
/// On a `MICROLIB_SEED` [`check_env`] rejects.
pub fn std_seed() -> u64 {
    knob(env_u64("MICROLIB_SEED", DEFAULT_SEED))
}

/// Environment-configurable thread count (0 = all cores).
///
/// # Panics
///
/// On a `MICROLIB_THREADS` [`check_env`] rejects.
pub fn std_threads() -> usize {
    knob(env_threads())
}

/// Environment-configurable sampling mode (`MICROLIB_SAMPLED`, see
/// [`parse_sampling_knob`]); unset runs full simulations.
///
/// # Panics
///
/// On a knob [`check_env`] rejects.
pub fn std_sampling() -> SamplingMode {
    knob(sampling_from_env(std_window()))
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
        let parse = |raw| parse_sampling_knob(raw, w);
        assert_eq!(parse("off"), Ok(SamplingMode::Full));
        assert_eq!(parse("0"), Ok(SamplingMode::Full));
        assert_eq!(parse("1"), Ok(SamplingMode::simpoints_for(w)));
        assert_eq!(
            parse("5000/3"),
            Ok(SamplingMode::SimPoints {
                interval: 5_000,
                max_clusters: 3,
                warmup: 0
            })
        );
        assert_eq!(
            parse("5000/3/20000"),
            Ok(SamplingMode::SimPoints {
                interval: 5_000,
                max_clusters: 3,
                warmup: 20_000
            })
        );
        for garbage in ["5000:3", "0/3", "5000/0", "5000/3/x", "5000/3/1/1"] {
            let err = parse(garbage).unwrap_err();
            assert!(err.contains("MICROLIB_SAMPLED"), "{garbage}: {err}");
        }
    }

    #[test]
    fn knobs_parse_decimal_and_hex_and_reject_garbage() {
        assert_eq!(parse_u64_knob("K", "4660"), Ok(4660));
        assert_eq!(parse_u64_knob("K", "0x1234"), Ok(0x1234));
        assert_eq!(parse_u64_knob("K", " 0XC0FFEE "), Ok(0xC0FFEE));
        for garbage in ["2e6", "-1", "0x", "1_000", "18446744073709551616", "ten"] {
            let err = parse_u64_knob("MICROLIB_SIM", garbage).unwrap_err();
            assert!(err.contains("MICROLIB_SIM"), "{garbage}: {err}");
        }
    }

    #[test]
    fn derived_windows_are_bounded() {
        assert_eq!(
            checked_window(150_000, 100_000),
            Ok(TraceWindow::new(150_000, 100_000))
        );
        let half = MAX_WINDOW_INSTS / 2;
        assert!(
            checked_window(0, half).is_ok(),
            "article window ends at the cap"
        );
        assert!(
            checked_window(0, half + 1).is_err(),
            "article window passes the cap"
        );
        assert!(checked_window(MAX_WINDOW_INSTS - 1_000, 1).is_ok());
        assert!(
            checked_window(MAX_WINDOW_INSTS - 999, 1).is_err(),
            "miner win floor"
        );
        assert!(checked_window(u64::MAX, 1).is_err(), "no wrap");
        assert!(checked_window(0, 10_000_000_000_000).is_err());
        assert!(checked_window(0, 0).is_err());
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
