//! The traced run: a cell runner that makes the same public calls
//! `simulate` makes, with timing spans around each layer's calls, plus a
//! traced campaign pass (store counters, cell times) and the service
//! probe. Every driven cell must reproduce `run_one` exactly.

use std::sync::Arc;
use std::time::Instant;

use microlib::{run_one, ArtifactStoreStats, SimOptions};
use microlib_cpu::{CoreStats, OoOCore};
use microlib_mech::MechanismKind;
use microlib_mem::{capture_warm_state, MemorySystem, WarmState};
use microlib_model::SystemConfig;
use microlib_trace::{benchmarks, TraceBuffer, Workload as TraceWorkload};

use crate::campaign::{benchmarks_of, fresh_pass, Pass};
use crate::check::Expected;
use crate::{median, serve, Args, Outcome, Workload, THREADS};

/// Accumulated span times (s) and cycle counts over the driven cells.
///
/// Every detailed cycle is classified, but only a pseudo-random sample
/// of about one cycle in [`SAMPLE_MEAN_GAP`] is timed: a clock read costs
/// as much as a quiet cycle, so timing every cycle would measure mostly
/// the clock.
#[derive(Default)]
struct Spans {
    warm_s: f64,
    warm_insts: u64,
    restore_s: f64,
    cycles: u64,
    quiet_cycles: u64,
    sampled: u64,
    sampled_quiet: u64,
    pump_s: f64,
    cycle_s: f64,
    quiet_s: f64,
    busy_s: f64,
    rng: u64,
}

/// Mean distance between timed cycles.
const SAMPLE_MEAN_GAP: u64 = 16;

impl Spans {
    /// Cycles until the next timed one: uniform in `1..2 * SAMPLE_MEAN_GAP`
    /// (xorshift64, so sampling cannot alias with periodic behaviour).
    fn next_gap(&mut self) -> u64 {
        let mut x = self.rng.max(1);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        1 + x % (2 * SAMPLE_MEAN_GAP - 1)
    }
}

/// Inputs shared by a benchmark's driven cells.
struct Cell<'a> {
    config: &'a Arc<SystemConfig>,
    opts: &'a SimOptions,
    workload: &'a TraceWorkload,
    buffer: &'a Arc<TraceBuffer>,
}

/// Drives one cell: warm (full over the trace, or restore + replay of
/// `warm`), then the detailed `begin_cycle_into` / `OoOCore::cycle` loop.
/// With `spans`, the warm phase is timed, every detailed cycle is
/// classified as quiet (no completion delivered, nothing committed or
/// fetched) or busy, and sampled cycles time each layer's call.
fn drive(
    cell: &Cell<'_>,
    mech: MechanismKind,
    warm: Option<&WarmState>,
    mut spans: Option<&mut Spans>,
) -> Result<CoreStats, String> {
    let skip = cell.opts.window.skip;
    let mut mem = MemorySystem::new(Arc::clone(cell.config), vec![mech.build()])
        .map_err(|e| e.to_string())?;
    mem.set_check_values(cell.opts.check_values);
    let mut stream = TraceBuffer::replay(cell.buffer);
    let started = Instant::now();
    match warm {
        Some(warm) => {
            mem.restore_warm(&warm.checkpoint);
            mem.replay_warm_events(&warm.log);
            if let Some(s) = spans.as_deref_mut() {
                s.restore_s += started.elapsed().as_secs_f64();
            }
            stream.advance_to(skip);
        }
        None => {
            cell.workload.initialize(mem.functional_mut());
            let started = Instant::now();
            for inst in stream.by_ref().take(skip as usize) {
                mem.warm_inst(inst.pc, inst.warm_mem_ref());
            }
            if let Some(s) = spans.as_deref_mut() {
                s.warm_s += started.elapsed().as_secs_f64();
                s.warm_insts += skip;
            }
        }
    }
    let start = mem.finish_warmup();

    let mut core = OoOCore::new(cell.config.core);
    let mut trace = stream.by_ref().take(cell.opts.window.simulate as usize);
    let budget = cell.opts.cycle_budget() + start.raw();
    let mut now = start;
    let mut completions = Vec::new();
    let mut until_timed = spans.as_deref_mut().map_or(0, Spans::next_gap);
    loop {
        match spans.as_deref_mut() {
            None => {
                mem.begin_cycle_into(now, &mut completions);
                core.cycle(now, &completions, &mut mem, &mut trace);
            }
            Some(s) => {
                until_timed -= 1;
                let timed = until_timed == 0;
                let t0 = timed.then(Instant::now);
                mem.begin_cycle_into(now, &mut completions);
                let t1 = timed.then(Instant::now);
                let before = core.stats();
                core.cycle(now, &completions, &mut mem, &mut trace);
                let t2 = timed.then(Instant::now);
                let after = core.stats();
                let quiet = completions.is_empty()
                    && after.committed == before.committed
                    && after.fetched == before.fetched;
                s.cycles += 1;
                s.quiet_cycles += u64::from(quiet);
                if let Some(((t0, t1), t2)) = t0.zip(t1).zip(t2) {
                    let whole = (t2 - t0).as_secs_f64();
                    s.sampled += 1;
                    s.pump_s += (t1 - t0).as_secs_f64();
                    s.cycle_s += (t2 - t1).as_secs_f64();
                    if quiet {
                        s.sampled_quiet += 1;
                        s.quiet_s += whole;
                    } else {
                        s.busy_s += whole;
                    }
                    until_timed = s.next_gap();
                }
            }
        }
        if let Some(error) = mem.integrity_error() {
            return Err(format!("{mech}: {error}"));
        }
        if core.drained() {
            break;
        }
        if now.raw() >= budget {
            return Err(format!("{mech}: exceeded the {budget}-cycle budget"));
        }
        now += 1;
    }
    Ok(core.stats())
}

/// The benchmark whose Base and GHB cells the traced run drives.
fn traced_benchmark(workload: Workload) -> &'static str {
    match workload {
        Workload::CampaignMembound => "mcf",
        Workload::CampaignCompute | Workload::ServeWarm => "swim",
    }
}

/// Drives `benchmark` × {Base, GHB}: Base warms in full over the captured
/// trace, GHB restores the shared warm checkpoint and replays its event
/// log — the two warm paths campaign cells take. Each cell runs untraced
/// (twice) and traced, and every run must equal `run_one`'s `perf` and
/// `CoreStats`.
fn drive_cells(args: &Args, benchmark: &str, out: &mut Outcome) -> Result<(), String> {
    let profile = benchmarks::by_name(benchmark).ok_or("unknown benchmark")?;
    let config = Arc::new(SystemConfig::baseline());
    let opts = SimOptions {
        seed: args.workload_seed,
        window: args.window,
        ..SimOptions::default()
    };
    let workload = TraceWorkload::new(profile, opts.seed);
    let started = Instant::now();
    let buffer = Arc::new(TraceBuffer::capture(&workload, opts.window.end()));
    let capture_ms = started.elapsed().as_secs_f64() * 1e3;
    let warm = (opts.window.skip > 0)
        .then(|| {
            let insts = TraceBuffer::replay(&buffer)
                .take(opts.window.skip as usize)
                .map(|inst| (inst.pc, inst.warm_mem_ref()));
            capture_warm_state(Arc::clone(&config), |fm| workload.initialize(fm), insts)
        })
        .transpose()
        .map_err(|e| e.to_string())?;
    let cell = Cell {
        config: &config,
        opts: &opts,
        workload: &workload,
        buffer: &buffer,
    };

    let mut spans = Spans {
        rng: opts.seed,
        ..Spans::default()
    };
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    for (mech, warm) in [
        (MechanismKind::Base, None),
        (MechanismKind::Ghb, warm.as_ref()),
    ] {
        let reference = run_one(&config, mech, benchmark, &opts).map_err(|e| e.to_string())?;
        // An untimed first drive takes the cell's first-run costs (page
        // faults, cold caches), so neither timed drive pays them.
        let warm_up = drive(&cell, mech, warm, None)?;
        let started = Instant::now();
        let plain = drive(&cell, mech, warm, None)?;
        plain_s += started.elapsed().as_secs_f64();
        let started = Instant::now();
        let traced = drive(&cell, mech, warm, Some(&mut spans))?;
        traced_s += started.elapsed().as_secs_f64();
        for stats in [warm_up, plain, traced] {
            out.attempted += 1;
            let faithful = stats == reference.core
                && stats.committed == reference.perf.instructions
                && stats.cycles == reference.perf.cycles;
            if !faithful {
                out.failed += 1;
                eprintln!(
                    "perfbench: the cell runner diverges from run_one on {benchmark} x {mech}"
                );
            }
        }
    }

    let sampled = spans.sampled as f64;
    let sampled_quiet = spans.sampled_quiet as f64;
    out.metric("trace.capture_ms", capture_ms, "ms");
    out.metric(
        "mem.warm_ns_per_inst",
        spans.warm_s * 1e9 / spans.warm_insts as f64,
        "ns",
    );
    out.metric("mem.restore_ms", spans.restore_s * 1e3, "ms");
    out.metric("mem.pump_ns", spans.pump_s * 1e9 / sampled, "ns");
    out.metric(
        "mem.pump_share",
        spans.pump_s / (spans.pump_s + spans.cycle_s),
        "ratio",
    );
    out.metric("cpu.cycle_ns", spans.cycle_s * 1e9 / sampled, "ns");
    out.metric("cpu.detailed_cycles", spans.cycles as f64, "count");
    out.metric(
        "cpu.quiet_cycle_share",
        spans.quiet_cycles as f64 / spans.cycles as f64,
        "ratio",
    );
    out.metric(
        "cpu.quiet_cycle_ns",
        spans.quiet_s * 1e9 / sampled_quiet,
        "ns",
    );
    out.metric(
        "cpu.busy_cycle_ns",
        spans.busy_s * 1e9 / (sampled - sampled_quiet),
        "ns",
    );
    out.metric("bench.trace_overhead", traced_s / plain_s, "ratio");
    Ok(())
}

/// Store counters and cell times of one campaign pass.
fn core_metrics(out: &mut Outcome, pass: &Pass, stats: &ArtifactStoreStats) {
    let trace_requests = stats.trace_hits + stats.trace_misses;
    let warm_requests = stats.warm_hits + stats.warm_misses + stats.warm_declined;
    out.metric(
        "core.trace_hit_ratio",
        stats.trace_hits as f64 / trace_requests as f64,
        "ratio",
    );
    out.metric("core.trace_requests", trace_requests as f64, "count");
    out.metric(
        "core.warm_hit_ratio",
        stats.warm_hits as f64 / warm_requests as f64,
        "ratio",
    );
    out.metric("core.warm_requests", warm_requests as f64, "count");
    out.metric(
        "core.cells_recomputed",
        stats.cells_recomputed() as f64,
        "count",
    );
    out.metric("core.cell_p50_ms", median(&pass.cell_ms), "ms");
    let max = pass.cell_ms.iter().copied().fold(f64::NAN, f64::max);
    out.metric("core.cell_max_ms", max, "ms");
    out.metric(
        "core.busy_share",
        pass.total_cell_s / (pass.wall_s * THREADS as f64),
        "ratio",
    );
}

/// The traced run of `args.workload`.
pub fn run_traced(args: &Args, expected: &Expected) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    drive_cells(args, traced_benchmark(args.workload), &mut out)?;
    let daemon = serve::probe(args, expected, &mut out)?;
    match args.workload {
        Workload::ServeWarm => {
            let stats = daemon.server.store().stats();
            core_metrics(&mut out, &daemon.pass, &stats);
        }
        Workload::CampaignCompute | Workload::CampaignMembound => {
            let benchmarks = benchmarks_of(args.workload);
            let (_, pass) = fresh_pass(args, &benchmarks, expected, &args.work_dir.join("traced"))?;
            out.attempted += pass.cells;
            out.failed += pass.failed;
            core_metrics(&mut out, &pass, &pass.stats);
        }
    }
    Ok(out)
}
