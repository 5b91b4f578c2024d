//! Runs the experiment battery (every figure and table, or a `--only`
//! selection) **in-process** on the campaign engine, capturing each
//! experiment's output under `results/`.
//!
//! All experiments share one [`microlib_bench::Context`]: the standard
//! 26×13 campaign is swept exactly once and reused by the eight
//! experiments that need it, and the context's battery-wide
//! [`ArtifactStore`](microlib::ArtifactStore) shares traces, warm-state
//! checkpoints and duplicated cells across the rest. Captured outputs
//! contain only deterministic content (progress and timing go to stderr),
//! so `results/` is bit-identical for any `MICROLIB_THREADS` value and
//! with the disk cache cold, warm or disabled.
//!
//! # Usage
//!
//! ```text
//! run_all [--sampled] [--only <name>[,<name>...]]
//!         [--cache-dir <dir>] [--no-cache] [--verify-golden <dir>]
//!         [--out-dir <dir>]
//!         [--mine] [--mine-budget <n>] [--mine-bound <f>]
//!         [--mine-export <dir>] [--mine-cell <benchmark>:<delta>]
//! ```
//!
//! `--only` filters the battery by experiment name (exact or unambiguous
//! prefix — `--only fig03` runs `fig03_dbcp_fix`), so a single figure can
//! be (re)produced without the whole battery.
//!
//! `--sampled` runs every sweep SimPoint-sampled (sets `MICROLIB_SAMPLED=1`
//! unless an explicit spec is already in the environment) and writes to
//! `results-sampled/` so the committed full-mode `results/` stay
//! untouched. The `ablation_sampling` experiment — which exists to compare
//! sampled against full simulation — is excluded from the default sampled
//! battery (select it explicitly with `--only` if wanted).
//!
//! # The persistent cache
//!
//! By default the battery runs over a persistent on-disk artifact cache
//! (`.microlib-cache/`, or `$MICROLIB_CACHE_DIR`, or `--cache-dir <dir>`):
//! finished cells, sampling plans and warm-state checkpoints are journaled
//! to disk as they complete, so a killed run resumes where it stopped, a
//! re-run is served from disk (`recomputed 0 cells` on stderr), and a
//! config/window tweak recomputes only the cells it touches. A run killed
//! mid-battery (`SIGKILL`, an abort) reruns only the cells whose journal
//! files are missing. `--no-cache` (or `MICROLIB_CACHE_DIR=off`) runs
//! memory-only. Entries are checksummed and version-stamped; corrupt or
//! stale files are recomputed, never trusted.
//!
//! # Inconsistency mining
//!
//! `--mine` runs the differential inconsistency miner (`microlib-miner`)
//! instead of the experiment battery: a deterministic budgeted walk of
//! config space probing every cell through both model tiers, minimizing
//! each inconsistency to its load-bearing knobs, and writing the
//! byte-reproducible report to `results-mine/mine.txt` (see
//! `ARCHITECTURE.md` § Inconsistency mining). `--mine-budget` and
//! `--mine-bound` override the default 64-cell / 0.25-bound run,
//! `--mine-export <dir>` additionally writes one `cliff-<id>.txt` per
//! confirmed cliff (the `cliffs-golden/` corpus is generated this way),
//! and `--mine-cell benchmark:delta` re-probes a single cell from a
//! cliff record's repro line. Mining honours `MICROLIB_SKIP` /
//! `MICROLIB_SIM` / `MICROLIB_SEED` (defaulting to a small
//! 2000-skip/4000-instruction window, not the battery's full window) and
//! memoizes per-cell outcomes in the `mine` class of the disk cache (a
//! warm re-run recomputes 0 mine cells).
//!
//! # The golden gate
//!
//! `--verify-golden <dir>` re-runs the selected battery and byte-compares
//! every produced results file against the committed snapshot in `<dir>`,
//! exiting nonzero on any drift — CI runs this on every PR so a silent
//! CPI change cannot land unnoticed.
//!
//! # Exit status
//!
//! `0` only if every selected experiment ran cleanly (and, with
//! `--verify-golden`, matched the snapshot). Any failed experiment — or
//! any failed campaign cell inside one — is summarized per cell on stderr
//! and the process exits `1`. Usage errors — including an unparseable or
//! out-of-bounds `MICROLIB_*` knob, rejected before any work — exit `2`.

use microlib::SimOptions;
use microlib_bench::{env_threads, env_u64, env_window, experiments, Context, DEFAULT_SEED};
use microlib_miner::{mine, perturb_from_env, reprobe_cell, CellOutcome, MineConfig};
use microlib_trace::TraceWindow;
use std::fs;
use std::panic::{self, AssertUnwindSafe};
use std::process::exit;
use std::time::Instant;

/// Resolves one `--only` entry against the experiment list (exact name
/// wins, else an unambiguous prefix).
fn resolve(name: &str) -> Result<&'static str, String> {
    if let Some((exact, _)) = experiments::ALL.iter().find(|(n, _)| *n == name) {
        return Ok(exact);
    }
    let matches: Vec<&'static str> = experiments::ALL
        .iter()
        .map(|(n, _)| *n)
        .filter(|n| n.starts_with(name))
        .collect();
    match matches.as_slice() {
        [one] => Ok(one),
        [] => Err(format!(
            "unknown experiment {name:?}; available:\n  {}",
            experiments::ALL
                .iter()
                .map(|(n, _)| *n)
                .collect::<Vec<_>>()
                .join("\n  ")
        )),
        many => Err(format!(
            "ambiguous experiment {name:?}: {}",
            many.join(", ")
        )),
    }
}

/// The parsed command line.
struct Cli {
    selected: Vec<&'static str>,
    sampled: bool,
    /// `None` = memory-only (`--no-cache`); `Some(dir)` = disk tier at
    /// `dir`.
    cache_dir: Option<String>,
    /// Golden snapshot directory to verify against, if requested.
    verify_golden: Option<String>,
    /// Output directory override.
    out_dir: Option<String>,
    /// `--mine`: run the inconsistency miner instead of the battery.
    mine: bool,
    /// `--mine-budget <n>`: cells to sample (default 64).
    mine_budget: Option<usize>,
    /// `--mine-bound <f>`: divergence-shift bound (default 0.25).
    mine_bound: Option<f64>,
    /// `--mine-export <dir>`: also write one file per confirmed cliff.
    mine_export: Option<String>,
    /// `--mine-cell benchmark:delta`: re-probe one cell and exit.
    mine_cell: Option<String>,
}

/// Parses the command line (see the module docs for the grammar).
fn selection() -> Result<Cli, String> {
    let mut args = std::env::args().skip(1);
    let mut selected: Vec<&'static str> = Vec::new();
    let mut explicit = false;
    let mut sampled = false;
    let mut no_cache = false;
    let mut cache_dir: Option<String> = None;
    let mut verify_golden: Option<String> = None;
    let mut out_dir: Option<String> = None;
    let mut mine = false;
    let mut mine_budget: Option<usize> = None;
    let mut mine_bound: Option<f64> = None;
    let mut mine_export: Option<String> = None;
    let mut mine_cell: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--sampled" => sampled = true,
            "--no-cache" => no_cache = true,
            "--cache-dir" => {
                cache_dir = Some(args.next().ok_or("--cache-dir needs a directory")?);
            }
            "--verify-golden" => {
                verify_golden = Some(args.next().ok_or("--verify-golden needs a directory")?);
            }
            "--out-dir" => {
                out_dir = Some(args.next().ok_or("--out-dir needs a directory")?);
            }
            "--mine" => mine = true,
            "--mine-budget" => {
                let n = args.next().ok_or("--mine-budget needs a cell count")?;
                mine_budget = Some(
                    n.parse()
                        .map_err(|_| format!("--mine-budget count {n:?} is not a number"))?,
                );
            }
            "--mine-bound" => {
                let b = args.next().ok_or("--mine-bound needs a bound")?;
                mine_bound = Some(
                    b.parse()
                        .map_err(|_| format!("--mine-bound {b:?} is not a number"))?,
                );
            }
            "--mine-export" => {
                mine_export = Some(args.next().ok_or("--mine-export needs a directory")?);
            }
            "--mine-cell" => {
                mine_cell = Some(args.next().ok_or("--mine-cell needs benchmark:delta")?);
            }
            "--only" => {
                explicit = true;
                let list = args
                    .next()
                    .ok_or_else(|| "--only needs a comma-separated experiment list".to_owned())?;
                for name in list.split(',').filter(|s| !s.is_empty()) {
                    let resolved = resolve(name)?;
                    if !selected.contains(&resolved) {
                        selected.push(resolved);
                    }
                }
            }
            other => {
                return Err(format!(
                    "unknown argument {other:?} (expected --sampled, --only <list>, \
                     --cache-dir <dir>, --no-cache, --verify-golden <dir>, \
                     --out-dir <dir>, --mine, \
                     --mine-budget <n>, --mine-bound <f>, --mine-export <dir> \
                     or --mine-cell <benchmark>:<delta>)"
                ))
            }
        }
    }
    if !explicit {
        selected = experiments::ALL
            .iter()
            .map(|(n, _)| *n)
            // The sampled-vs-full calibration study forces a full-mode
            // standard campaign, defeating the point of a sampled battery.
            .filter(|n| !(sampled && *n == "ablation_sampling"))
            .collect();
    }
    if !mine
        && mine_cell.is_none()
        && (mine_budget.is_some() || mine_bound.is_some() || mine_export.is_some())
    {
        return Err("--mine-budget/--mine-bound/--mine-export need --mine".to_owned());
    }
    if (mine || mine_cell.is_some()) && verify_golden.is_some() {
        return Err(
            "--verify-golden applies to the experiment battery, not --mine \
                    (the cliffs-golden gate lives in the test suite)"
                .to_owned(),
        );
    }
    // Cache resolution: --no-cache wins; then --cache-dir; then the
    // environment (including its own off switch); then the default dir.
    let cache_dir = if no_cache {
        None
    } else if cache_dir.is_some() {
        cache_dir
    } else if std::env::var("MICROLIB_CACHE_DIR").is_err() {
        Some(".microlib-cache".to_owned())
    } else {
        // Set in the environment: let the library's parse (shared with
        // every other binary) decide whether the value means "off".
        microlib::ArtifactStore::cache_dir_from_env().map(|p| p.to_string_lossy().into_owned())
    };
    Ok(Cli {
        selected,
        sampled,
        cache_dir,
        verify_golden,
        out_dir,
        mine: mine || mine_cell.is_some(),
        mine_budget,
        mine_bound,
        mine_export,
        mine_cell,
    })
}

/// Byte-compares every selected results file against the golden snapshot.
/// Returns the number of mismatched (or missing) files.
fn verify_golden(out_dir: &str, golden_dir: &str, selected: &[&str]) -> usize {
    let mut drifted = 0usize;
    println!("\nverifying {out_dir}/ against golden snapshot {golden_dir}/");
    for name in selected {
        let produced = fs::read(format!("{out_dir}/{name}.txt"));
        let golden = fs::read(format!("{golden_dir}/{name}.txt"));
        match (produced, golden) {
            (Ok(p), Ok(g)) if p == g => println!("  ok      {name}"),
            (Ok(_), Ok(_)) => {
                drifted += 1;
                println!(
                    "  DRIFT   {name} (run `diff {golden_dir}/{name}.txt {out_dir}/{name}.txt`)"
                );
            }
            (_, Err(_)) => {
                drifted += 1;
                println!("  MISSING {name} (no golden file — regenerate the snapshot?)");
            }
            (Err(_), _) => {
                drifted += 1;
                println!("  MISSING {name} (experiment produced no output)");
            }
        }
    }
    drifted
}

/// Where results land when `--out-dir` is not given.
fn default_out_dir(cli: &Cli) -> String {
    if cli.mine {
        "results-mine".to_owned()
    } else if cli.sampled {
        "results-sampled".to_owned()
    } else {
        "results".to_owned()
    }
}

/// The window, seed and thread knobs of a mining run (its window defaults
/// to 2 000 + 4 000 instructions).
fn mine_knobs() -> Result<(TraceWindow, u64, usize), String> {
    let window = env_window(2_000, 4_000)?;
    let seed = env_u64("MICROLIB_SEED", DEFAULT_SEED)?;
    Ok((window, seed, env_threads()?))
}

/// The `--mine` mode: runs the differential inconsistency miner (or a
/// single `--mine-cell` re-probe) instead of the experiment battery and
/// returns the process exit code. The report written to
/// `<out-dir>/mine.txt` is fully deterministic — cache and timing
/// counters go to stderr — so a warm re-run produces byte-identical
/// output.
fn run_mine(cli: &Cli) -> i32 {
    // Mining probes dozens of cells x mechanisms x two tiers, so it
    // defaults to a much smaller window than the battery; the usual
    // environment overrides still apply (and the cliff repro lines
    // set them explicitly).
    let (window, seed, threads) = match mine_knobs() {
        Ok(knobs) => knobs,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let base_opts = SimOptions {
        seed,
        window,
        ..SimOptions::default()
    };
    let mut cfg = MineConfig::standard(base_opts);
    if let Some(n) = cli.mine_budget {
        cfg.budget = n;
    }
    if let Some(b) = cli.mine_bound {
        cfg.bound = b;
    }
    cfg.threads = threads;
    let cx = Context::new();
    let store = cx.store();
    // Drop-time flush: even a panicking mine run syncs the journal (the
    // explicit finish() calls below still cover the exit() paths, which
    // skip Drop).
    let _finish = store.finish_guard();
    if let Some(spec) = &cli.mine_cell {
        return match reprobe_cell(store, spec, &cfg) {
            Ok(text) => {
                print!("{text}");
                store.finish();
                0
            }
            Err(e) => {
                eprintln!("{e}");
                2
            }
        };
    }
    let out_dir = cli.out_dir.clone().unwrap_or_else(|| default_out_dir(cli));
    if fs::create_dir_all(&out_dir).is_err() {
        eprintln!("cannot create {out_dir}/");
        return 2;
    }
    let t = Instant::now();
    println!(
        ">>> mining {} cells (bound {:.4}, window skip={} sim={})",
        cfg.budget, cfg.bound, window.skip, window.simulate
    );
    let report = mine(store, &cfg);

    let mut out = String::new();
    out.push_str(&format!(
        "inconsistency mining: seed={:#x} skip={} sim={} budget={} bound={:.4} perturb={:.4}\n",
        cfg.base_opts.seed,
        window.skip,
        window.simulate,
        cfg.budget,
        cfg.bound,
        perturb_from_env(),
    ));
    out.push_str(&format!(
        "mechanisms: {}\n\n",
        cfg.mechanisms
            .iter()
            .map(|m| m.to_string())
            .collect::<Vec<_>>()
            .join(",")
    ));
    let mut failed = 0usize;
    for cell in &report.cells {
        let verdict = match &cell.outcome {
            CellOutcome::Consistent => "consistent".to_owned(),
            CellOutcome::Cliff(r) => format!("cliff {:016x} ({})", r.id(), r.kind.label()),
            CellOutcome::Failed(e) => {
                failed += 1;
                format!("FAILED {e}")
            }
        };
        out.push_str(&format!(
            "cell {:3} {}:{} -> {verdict}\n",
            cell.index,
            cell.benchmark,
            cell.delta.key()
        ));
    }
    let cliffs = report.cliffs();
    for r in &cliffs {
        out.push('\n');
        out.push_str(&r.render());
    }
    out.push_str(&format!(
        "\nmined {} cells: {} cliffs, {} failed\n",
        report.cells.len(),
        cliffs.len(),
        failed
    ));
    let path = format!("{out_dir}/mine.txt");
    if fs::write(&path, &out).is_err() {
        eprintln!("cannot write {path}");
        return 2;
    }
    println!("    -> {path} ({:.1?})", t.elapsed());
    if let Some(export) = &cli.mine_export {
        if fs::create_dir_all(export).is_err() {
            eprintln!("cannot create {export}/");
            return 2;
        }
        for r in &cliffs {
            let p = format!("{export}/cliff-{:016x}.txt", r.id());
            if fs::write(&p, r.render()).is_err() {
                eprintln!("cannot write {p}");
                return 2;
            }
        }
        println!("exported {} cliff record(s) to {export}/", cliffs.len());
    }
    store.finish();
    // The CI smoke markers: cliff yield and incrementality.
    eprintln!(
        "miner: found and minimized {} cliff(s) across {} cells",
        cliffs.len(),
        report.cells.len()
    );
    eprintln!(
        "miner: recomputed {} mine cells, {} served from cache",
        report.computed, report.cached
    );
    if failed > 0 {
        eprintln!("MINING FAILED — {failed} cell(s) could not be probed (see {path})");
        return 1;
    }
    0
}

fn main() {
    let cli = match selection() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            exit(2);
        }
    };
    // `--sampled` must actually sample: override an unset or *disabling*
    // MICROLIB_SAMPLED (a stale `=0` in the shell would otherwise run the
    // whole battery in full mode while labeling the output sampled), but
    // respect an explicit sampling spec.
    if cli.sampled
        && matches!(
            std::env::var("MICROLIB_SAMPLED").as_deref(),
            Err(_) | Ok("" | "0" | "off" | "false")
        )
    {
        std::env::set_var("MICROLIB_SAMPLED", "1");
    }
    // The Context builds its store from the environment; publish the
    // resolved cache decision there (mirrors the --sampled handling).
    match &cli.cache_dir {
        Some(dir) => std::env::set_var("MICROLIB_CACHE_DIR", dir),
        None => std::env::set_var("MICROLIB_CACHE_DIR", "off"),
    }
    if cli.mine {
        exit(run_mine(&cli));
    }
    // Every knob the experiments read is checked before any work: a bad
    // value is a usage error, not a panic (or an abort) mid-battery.
    if let Err(e) = microlib_bench::check_env() {
        eprintln!("{e}");
        exit(2);
    }
    let out_dir = cli.out_dir.clone().unwrap_or_else(|| default_out_dir(&cli));
    fs::create_dir_all(&out_dir).expect("results dir");
    let mut cx = Context::new();
    // Drop-time journal flush for every path that unwinds or returns
    // without reaching the explicit finish() below (exit() skips Drop,
    // but those paths finish() explicitly).
    let _finish = cx.store().finish_guard();
    let battery = Instant::now();
    let mut failed: Vec<&'static str> = Vec::new();
    let mut ran = 0usize;
    for (name, run) in experiments::ALL {
        if !cli.selected.contains(name) {
            continue;
        }
        ran += 1;
        println!(">>> {name}");
        let t = Instant::now();
        let mut captured: Vec<u8> = Vec::new();
        // One failing experiment (a panicking sweep cell, say) must not
        // sink the rest of the battery: catch it, keep the partial
        // capture for diagnosis, move on.
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| run(&mut cx, &mut captured)));
        let path = format!("{out_dir}/{name}.txt");
        fs::write(&path, &captured).expect("write result");
        match outcome {
            Ok(Ok(())) => println!("    -> {path} ({:.1?})", t.elapsed()),
            Ok(Err(e)) => {
                failed.push(name);
                eprintln!("{name} FAILED writing output: {e} (partial capture in {path})");
            }
            Err(payload) => {
                failed.push(name);
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("non-string panic");
                eprintln!("{name} FAILED: {msg} (partial capture in {path})");
            }
        }
        // Warm checkpoints only pay off within one experiment's sweeps
        // (different experiments warm different configurations); traces
        // and the cell memo keep earning across the battery and stay.
        // (The disk tier keeps its copies — a later experiment or process
        // with the same configuration re-hydrates from disk.)
        cx.store().clear_warm_states();
    }
    // Clean-exit flush: fsync the memo journal before any of the exit
    // paths below.
    cx.store().finish();
    let stats = cx.store().stats();
    eprintln!(
        "artifact store: traces {}/{} hits, warm states {}/{} hits, sampling plans {}/{} hits, cell memo {}/{} hits",
        stats.trace_hits,
        stats.trace_hits + stats.trace_misses,
        stats.warm_hits,
        stats.warm_hits + stats.warm_misses,
        stats.plan_hits,
        stats.plan_hits + stats.plan_misses,
        stats.memo_hits,
        stats.memo_hits + stats.memo_misses + stats.memo_disk_hits,
    );
    match cx.store().disk_cache() {
        Some(disk) => eprintln!(
            "disk cache ({}): {} memo hits, {} plan hits, {} warm hits; recomputed {} cells",
            disk.root().display(),
            stats.memo_disk_hits,
            stats.plan_disk_hits,
            stats.warm_disk_hits,
            stats.cells_recomputed(),
        ),
        None => eprintln!("disk cache: off"),
    }

    // A partially failed battery must never look green: summarize every
    // failed experiment — and every failed campaign cell — then exit 1.
    let cell_failures = cx.cell_failures();
    if !failed.is_empty() || !cell_failures.is_empty() {
        eprintln!("\nBATTERY FAILED — {} experiment(s):", failed.len());
        for name in &failed {
            eprintln!("  {name}");
        }
        if !cell_failures.is_empty() {
            eprintln!("failed campaign cells:");
            for line in &cell_failures {
                eprintln!("  {line}");
            }
        }
        println!(
            "\n{ran} experiments attempted in {:.1?} ({} failed); results under {out_dir}/",
            battery.elapsed(),
            failed.len()
        );
        exit(1);
    }
    // The golden gate runs before the success banner: a drifting run
    // must never print "done (0 failed)" and then exit 1.
    if let Some(golden_dir) = &cli.verify_golden {
        let drifted = verify_golden(&out_dir, golden_dir, &cli.selected);
        if drifted > 0 {
            eprintln!("golden verification FAILED: {drifted} file(s) drifted");
            exit(1);
        }
        println!("golden verification passed ({} files)", cli.selected.len());
    }
    println!(
        "\nall {ran} experiments done in {:.1?} (0 failed); results under {out_dir}/",
        battery.elapsed()
    );
}
