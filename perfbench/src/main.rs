//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--window <skip>:<simulate>] [--workload-seed <seed>]
//!           [--digests <dir>] [--write-digests]
//! ```
//!
//! Workloads (see `README.md` for the metric map):
//! - `campaign_compute`: the standard campaign's 23 non-memory-bound
//!   benchmarks × the 13-mechanism study set, 2 threads, fresh disk cache;
//! - `campaign_membound`: its memory-bound rows, {mcf, equake, gap} × 13;
//! - `serve_warm`: an in-process daemon answering single-cell queries
//!   from its memo, closed loop with 2 clients.
//!
//! `--trace 0` repeats the workload for `--seconds` and prints the
//! end-to-end metrics; `--trace 1` runs the traced per-layer pass. The
//! last stdout line is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` (`{"name": {"value": v, "unit": u}}`). Progress goes to
//! stderr.

mod campaign;
mod check;
mod procfs;
mod serve;
mod traced;

use std::path::PathBuf;
use std::process::ExitCode;

use microlib_trace::TraceWindow;

/// The paper window: 150k warmed instructions, then 100k detailed.
const PAPER_WINDOW: TraceWindow = TraceWindow {
    skip: 150_000,
    simulate: 100_000,
};

/// Threads for campaigns, server workers and closed-loop clients.
pub const THREADS: usize = 2;

/// The default workload seed (the repository's standard seed).
pub const DEFAULT_SEED: u64 = 0xC0FFEE;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    CampaignCompute,
    CampaignMembound,
    ServeWarm,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "campaign_compute" => Some(Workload::CampaignCompute),
            "campaign_membound" => Some(Workload::CampaignMembound),
            "serve_warm" => Some(Workload::ServeWarm),
            _ => None,
        }
    }
}

/// Everything a run needs, resolved from the command line.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: Workload,
    pub seconds: f64,
    pub trace: bool,
    pub window: TraceWindow,
    /// `--seed`: orders the campaign rows and the queries.
    pub seed: u64,
    /// `--workload-seed`: the simulated workloads' seed.
    pub workload_seed: u64,
    pub digests: PathBuf,
    pub write_digests: bool,
    /// Scratch space for fresh disk caches (inside the benchmark's
    /// directory; removed on exit).
    pub work_dir: PathBuf,
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut window = PAPER_WINDOW;
    let mut workload_seed = None;
    let here = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut digests = here.join("digests");
    let mut write_digests = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-digests" {
            write_digests = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(parse_u64(&value).ok_or("bad --seed")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("bad --seconds")?,
                )
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--window" => {
                let (skip, sim) = value
                    .split_once(':')
                    .and_then(|(a, b)| Some((parse_u64(a)?, parse_u64(b)?)))
                    .filter(|&(_, sim)| sim > 0)
                    .ok_or("--window takes <skip>:<simulate>")?;
                window = TraceWindow::new(skip, sim);
            }
            "--workload-seed" => {
                workload_seed = Some(parse_u64(&value).ok_or("bad --workload-seed")?)
            }
            "--digests" => digests = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seconds: seconds.unwrap_or(10.0),
        trace,
        window,
        seed: seed.unwrap_or(0),
        workload_seed: workload_seed.unwrap_or(DEFAULT_SEED),
        digests,
        write_digests,
        work_dir: here.join("work").join(std::process::id().to_string()),
    })
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run reports: the checked operation counts, the number of
/// latency samples behind the percentiles, and its metrics.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub latency_samples: usize,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // `{:?}` prints an f64 with every digit needed to round-trip.
                let value = if m.value.is_finite() {
                    format!("{:?}", m.value)
                } else {
                    "null".into()
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Shuffles `items` in an order drawn from `seed` (Fisher-Yates over
/// SplitMix64).
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        items.swap(i, (z % (i as u64 + 1)) as usize);
    }
}

/// Median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Nearest-rank percentile of `values` (NaN when empty).
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn run(args: &Args) -> Result<Outcome, String> {
    eprintln!(
        "perfbench: {:?} trace={} window={}+{} seed {} workload seed {:#x}",
        args.workload,
        args.trace,
        args.window.skip,
        args.window.simulate,
        args.seed,
        args.workload_seed
    );
    if args.write_digests {
        return check::write_digests(args);
    }
    let expected = check::Expected::load(&args.digests, args.window, args.workload_seed)?;
    match (args.workload, args.trace) {
        (Workload::ServeWarm, false) => serve::run(args, &expected),
        (_, false) => campaign::run(args, &expected),
        (_, true) => traced::run_traced(args, &expected),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = run(&args);
    let _ = std::fs::remove_dir_all(&args.work_dir);
    match result {
        Ok(outcome) => {
            println!(
                "perfbench: workload {:?}, trace {}, window {}+{}, seed {}, workload seed {:#x}, latency samples {}",
                args.workload,
                args.trace as u8,
                args.window.skip,
                args.window.simulate,
                args.seed,
                args.workload_seed,
                outcome.latency_samples
            );
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
