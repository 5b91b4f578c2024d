//! Simulator-throughput measurement for the committed perf trajectory.
//!
//! The workspace's recorded benchmark harness: it times the `simulator/*`
//! workloads — plus the memory-side substrate benches the hot loop is
//! built from, and a warm serve query — with a plain best-of-batches
//! harness and writes machine-readable rows, so every PR can commit a
//! `BENCH_<pr>.json` snapshot and CI can fail on throughput regressions
//! the same way the golden gate fails on CPI drift.
//!
//! Usage:
//!
//! ```text
//! bench_json --out BENCH_8.json    # measure, write the trajectory rows
//! bench_json --check [dir]         # measure, compare against the latest
//!                                  # committed BENCH_*.json in dir (default
//!                                  # "."); exit 1 if the headline bench
//!                                  # regresses more than 15% in insts/s, or
//!                                  # any other shared row more than 30%.
//!                                  # Skips (exit 0) when no baseline exists.
//! ```
//!
//! Row format (one JSON object per line, inside a top-level array):
//! `{"bench": ..., "ns_per_iter": ..., "insts_per_s": ...}`. For substrate
//! rows `insts_per_s` is operations per second (lookups, MSHR round trips,
//! SDRAM requests, warm instructions) — same field, same gate arithmetic.

use microlib::{run_one, SimOptions};
use microlib_mech::MechanismKind;
use microlib_mem::{CacheArray, MemToken, MemorySystem, MshrFile, MshrTarget, Sdram};
use microlib_model::{Addr, CacheConfig, Cycle, LineData, SdramConfig, SystemConfig};
use microlib_serve::{CampaignOutcome, Client, Server, ServerConfig};
use microlib_trace::{benchmarks, TraceBuffer, TraceWindow, Workload};
use std::sync::Arc;
use std::time::Instant;

/// Instructions simulated per `simulator/*` iteration.
const INSTS: u64 = 5_000;
/// The bench the CI regression gate tracks most tightly.
const HEADLINE: &str = "simulator/swim_Base_5k_insts";
/// Minimum acceptable fraction of the baseline's rate for the headline.
const FLOOR: f64 = 0.85;
/// Minimum acceptable fraction for every other shared row. Substrate
/// microbenches jitter more than the 100ms-scale simulator rows, so the
/// gate is looser — it exists to catch structural regressions (an
/// accidental re-quadratization), not single-digit noise.
const SUBSTRATE_FLOOR: f64 = 0.70;

/// Every row this binary measures, in emission order.
const BENCHES: &[&str] = &[
    "simulator/swim_Base_5k_insts",
    "simulator/swim_GHB_5k_insts",
    "cache_array/l1_lookup_hit_1k",
    "mshr_insert_complete_x8",
    "sdram/row_hit_stream_32",
    "warmup/warm_inst_10k",
    "serve/cell_query_warm",
];

struct Row {
    bench: String,
    ns_per_iter: u64,
    insts_per_s: u64,
}

/// Best (lowest mean) of `batches` fixed-size batches of `iters` calls —
/// the minimum over batches discards scheduling noise, which only ever
/// adds time. Returns ns per call.
fn best_of(batches: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let mut best_ns = f64::INFINITY;
    for _ in 0..batches {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        best_ns = best_ns.min(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    best_ns
}

fn row(bench: &str, elements: u64, best_ns: f64) -> Row {
    Row {
        bench: bench.to_owned(),
        ns_per_iter: best_ns.round() as u64,
        insts_per_s: (elements as f64 * 1e9 / best_ns).round() as u64,
    }
}

/// Times one simulator config: warmup, then best-of-batches.
fn measure_simulator(kind: MechanismKind) -> Row {
    let cfg = SystemConfig::baseline();
    let opts = SimOptions {
        window: TraceWindow::new(2_000, INSTS),
        ..SimOptions::default()
    };
    for _ in 0..3 {
        std::hint::black_box(run_one(&cfg, kind, "swim", &opts).unwrap());
    }
    let best_ns = best_of(5, 16, || {
        std::hint::black_box(run_one(&cfg, kind, "swim", &opts).unwrap());
    });
    row(&format!("simulator/swim_{kind}_5k_insts"), INSTS, best_ns)
}

/// 1024 resident-line lookups over the flat L1D columns (the per-access
/// inner loop of every simulated load).
fn measure_cache_array() -> Row {
    let mut cache = CacheArray::new(CacheConfig::baseline_l1d()).unwrap();
    for i in 0..1024u64 {
        cache.fill(Addr::new(i * 32), LineData::zeroed(4), false, false);
    }
    let mut pass = || {
        for i in 0..1024u64 {
            std::hint::black_box(cache.lookup(Addr::new(i * 32)));
        }
    };
    for _ in 0..3 {
        pass();
    }
    let best_ns = best_of(5, 500, pass);
    row("cache_array/l1_lookup_hit_1k", 1024, best_ns)
}

/// Eight allocate/complete round trips through the fixed-slot MSHR arena.
fn measure_mshr() -> Row {
    let mut m = MshrFile::new(8, 4);
    m.set_model_busy_cycle(false);
    let t = |a: u64| MshrTarget {
        req: None,
        addr: Addr::new(a),
        is_store: false,
        value: 0,
    };
    let mut targets = Vec::new();
    let mut pass = || {
        for i in 0..8u64 {
            std::hint::black_box(m.try_insert(
                Addr::new(i * 64),
                t(i * 64),
                false,
                false,
                Cycle::ZERO,
            ));
        }
        for i in 0..8u64 {
            std::hint::black_box(m.complete_into(Addr::new(i * 64), &mut targets));
        }
    };
    for _ in 0..3 {
        pass();
    }
    let best_ns = best_of(5, 20_000, pass);
    row("mshr_insert_complete_x8", 8, best_ns)
}

/// A 32-request row-hit stream through the SDRAM bank state machine,
/// including the idle ticks the next-ready fast path skips.
fn measure_sdram() -> Row {
    let mut done_buf = Vec::new();
    let mut pass = || {
        let mut mem = Sdram::new(SdramConfig::baseline());
        for i in 0..32u64 {
            mem.try_push(MemToken(i), Addr::new(i * 64), false, Cycle::new(i));
        }
        let mut done = 0;
        let mut now = 0;
        while done < 32 {
            done_buf.clear();
            mem.tick_into(Cycle::new(now), &mut done_buf);
            done += done_buf.len();
            now += 1;
        }
        std::hint::black_box(now);
    };
    for _ in 0..3 {
        pass();
    }
    let best_ns = best_of(5, 500, pass);
    row("sdram/row_hit_stream_32", 32, best_ns)
}

/// 10k instructions through the functional warm loop (the skip phase every
/// cell pays before detailed simulation starts).
fn measure_warm() -> Row {
    let cfg: Arc<SystemConfig> = Arc::new(SystemConfig::baseline());
    let workload = Workload::new(benchmarks::by_name("swim").unwrap(), 1);
    let buf = Arc::new(TraceBuffer::capture(&workload, 10_000));
    let pass = || {
        let mut mem = MemorySystem::new(Arc::clone(&cfg), Vec::new()).unwrap();
        workload.initialize(mem.functional_mut());
        for inst in TraceBuffer::replay(&buf) {
            mem.warm_inst(inst.pc, inst.warm_mem_ref());
        }
        std::hint::black_box(mem.finish_warmup());
    };
    for _ in 0..2 {
        pass();
    }
    let best_ns = best_of(5, 8, pass);
    row("warmup/warm_inst_10k", 10_000, best_ns)
}

/// One warm-cache single-cell campaign query through the full HTTP path:
/// connect, POST the spec, stream the answer back. The first query
/// computes and memoizes the cell; every timed iteration is a memo hit,
/// so this row tracks the *service* overhead (spec parse, queueing,
/// scheduling, socket round trip), which is what a regression gate over
/// the daemon should watch. `insts_per_s` is queries per second — same
/// field, same gate arithmetic as the substrate rows.
fn measure_serve() -> Row {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        threads: 2,
        queue_cap: 64,
        cache_dir: None,
        resident_cap_bytes: None,
    })
    .expect("bind serve bench daemon");
    let client = Client::new(server.addr().to_string());
    let spec = format!(
        r#"{{"benchmarks":["swim"],"mechanisms":["Base"],"window":{{"skip":2000,"simulate":{INSTS}}}}}"#
    );
    let pass = || {
        match client.campaign(&spec).expect("serve bench query") {
            CampaignOutcome::Completed(lines) => assert_eq!(lines.len(), 1),
            CampaignOutcome::Rejected(r) => panic!("serve bench rejected: {}", r.status),
        };
    };
    for _ in 0..3 {
        pass();
    }
    let best_ns = best_of(5, 50, pass);
    drop(server);
    row("serve/cell_query_warm", 1, best_ns)
}

fn measure_named(bench: &str) -> Row {
    match bench {
        "simulator/swim_Base_5k_insts" => measure_simulator(MechanismKind::Base),
        "simulator/swim_GHB_5k_insts" => measure_simulator(MechanismKind::Ghb),
        "cache_array/l1_lookup_hit_1k" => measure_cache_array(),
        "mshr_insert_complete_x8" => measure_mshr(),
        "sdram/row_hit_stream_32" => measure_sdram(),
        "warmup/warm_inst_10k" => measure_warm(),
        "serve/cell_query_warm" => measure_serve(),
        other => panic!("unknown bench {other}"),
    }
}

fn measure_all() -> Vec<Row> {
    BENCHES
        .iter()
        .map(|bench| {
            let row = measure_named(bench);
            eprintln!(
                "{}: {} ns/iter ({} insts/s)",
                row.bench, row.ns_per_iter, row.insts_per_s
            );
            row
        })
        .collect()
}

fn to_json(rows: &[Row]) -> String {
    let mut s = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "  {{\"bench\": \"{}\", \"ns_per_iter\": {}, \"insts_per_s\": {}}}{}\n",
            r.bench,
            r.ns_per_iter,
            r.insts_per_s,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push_str("]\n");
    s
}

/// Finds the highest-numbered `BENCH_<n>.json` in `dir`.
fn latest_baseline(dir: &str) -> Option<std::path::PathBuf> {
    let mut best: Option<(u64, std::path::PathBuf)> = None;
    for entry in std::fs::read_dir(dir).ok()? {
        let Ok(entry) = entry else { continue };
        let path = entry.path();
        let Some(n) = path
            .file_name()
            .and_then(|f| f.to_str())
            .and_then(|name| name.strip_prefix("BENCH_"))
            .and_then(|rest| rest.strip_suffix(".json"))
            .and_then(|num| num.parse::<u64>().ok())
        else {
            continue;
        };
        if best.as_ref().is_none_or(|(b, _)| n > *b) {
            best = Some((n, path));
        }
    }
    best.map(|(_, p)| p)
}

/// Pulls `insts_per_s` for `bench` out of a trajectory file. The files are
/// written by this binary (one object per line), so a line scan suffices.
fn baseline_insts_per_s(text: &str, bench: &str) -> Option<f64> {
    let line = text
        .lines()
        .find(|l| l.contains(&format!("\"bench\": \"{bench}\"")))?;
    let tail = line.split("\"insts_per_s\":").nth(1)?;
    tail.trim()
        .trim_end_matches(['}', ',', ' '])
        .parse::<f64>()
        .ok()
}

fn check(dir: &str) {
    let Some(baseline_path) = latest_baseline(dir) else {
        eprintln!("no BENCH_*.json baseline under {dir}; skipping check");
        return;
    };
    let text = std::fs::read_to_string(&baseline_path).expect("read baseline");
    let rows = measure_all();
    let mut failed = false;
    for r in &rows {
        // Rows absent from the baseline (older snapshots predate the
        // substrate rows) are skipped: the gate tightens as soon as a
        // snapshot that has them is committed.
        let Some(baseline) = baseline_insts_per_s(&text, &r.bench) else {
            eprintln!("{}: no baseline row; skipped", r.bench);
            continue;
        };
        let tolerance = if r.bench == HEADLINE {
            FLOOR
        } else {
            SUBSTRATE_FLOOR
        };
        let floor = baseline * tolerance;
        let mut current = r.insts_per_s as f64;
        if current < floor {
            // A loaded machine slows every batch at once; one fresh
            // measurement separates sustained contention from a real
            // regression before failing the gate.
            eprintln!(
                "{}: below floor ({current:.0} < {floor:.0}); re-measuring once",
                r.bench
            );
            current = current.max(measure_named(&r.bench).insts_per_s as f64);
        }
        let verdict = if current >= floor { "ok" } else { "FAIL" };
        eprintln!(
            "{verdict}: {} {current:.0} insts/s vs baseline {baseline:.0} (floor {floor:.0})",
            r.bench
        );
        failed |= current < floor;
    }
    if failed {
        eprintln!("FAIL: throughput regressed vs {}", baseline_path.display());
        std::process::exit(1);
    }
    eprintln!(
        "ok: all shared rows within tolerance of {}",
        baseline_path.display()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--out") => {
            let path = args.get(1).expect("--out requires a path");
            let rows = measure_all();
            std::fs::write(path, to_json(&rows)).expect("write trajectory file");
            eprintln!("wrote {path}");
        }
        Some("--check") => {
            let dir = args.get(1).map(String::as_str).unwrap_or(".");
            check(dir);
        }
        _ => {
            eprintln!("usage: bench_json --out <file> | --check [dir]");
            std::process::exit(2);
        }
    }
}
