//! The canonical driver: workload + out-of-order core + memory hierarchy +
//! one mechanism, run over a trace window.

use crate::artifacts::ArtifactStore;
use crate::sampling::{run_sampled, SamplingMode};
use microlib_cpu::{CoreStats, OoOCore};
use microlib_mech::MechanismKind;
use microlib_mem::{IntegrityError, MemorySystem};
use microlib_model::{
    CacheStats, ConfigError, Cycle, HardwareBudget, Mechanism, MechanismStats, MemoryStats,
    PerfSummary, PrefetchQueueStats, SamplingEstimate, SystemConfig,
};
use microlib_trace::{benchmarks, InstStream, TraceBuffer, TraceInst, TraceWindow};
use std::fmt;
use std::sync::Arc;

/// Everything a simulation run needs besides the system configuration.
#[derive(Clone, Copy, Debug)]
pub struct SimOptions {
    /// Workload layout/stream seed.
    pub seed: u64,
    /// Trace window to simulate.
    pub window: TraceWindow,
    /// Whether to run the per-load value-integrity checker (on by default;
    /// it is cheap and catches protocol bugs).
    pub check_values: bool,
    /// Hard cycle budget per run (guards against configuration-induced
    /// livelock).
    pub max_cycles: u64,
    /// How the window is covered: every instruction
    /// ([`SamplingMode::Full`], the default) or SimPoint-selected
    /// representative intervals recombined by weight
    /// ([`SamplingMode::SimPoints`]).
    pub sampling: SamplingMode,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            seed: 0xC0FFEE,
            window: TraceWindow::new(20_000, 100_000),
            check_values: true,
            max_cycles: 0, // derived from the window
            sampling: SamplingMode::Full,
        }
    }
}

impl SimOptions {
    /// The effective cycle budget.
    pub fn cycle_budget(&self) -> u64 {
        self.cycle_budget_for(self.window.simulate)
    }

    /// The effective cycle budget for a detailed phase of `instructions`
    /// (sampled runs budget each stretch separately; an explicit
    /// `max_cycles` overrides the derived bound in every mode).
    pub fn cycle_budget_for(&self, instructions: u64) -> u64 {
        if self.max_cycles > 0 {
            self.max_cycles
        } else {
            // Generous: even IPC 0.01 fits.
            instructions.max(1_000) * 120 + 200_000
        }
    }
}

/// Complete measurements from one simulation run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Benchmark name (the registry's static name — benchmarks are a
    /// static catalog, so results carry no per-run string allocation).
    pub benchmark: &'static str,
    /// Mechanism configuration simulated.
    pub mechanism: MechanismKind,
    /// Committed instructions / cycles.
    pub perf: PerfSummary,
    /// Core counters.
    pub core: CoreStats,
    /// L1 data cache counters.
    pub l1d: CacheStats,
    /// L1 instruction cache counters.
    pub l1i: CacheStats,
    /// L2 counters.
    pub l2: CacheStats,
    /// Main-memory counters.
    pub memory: MemoryStats,
    /// Mechanism counters (L1 slot).
    pub mech_l1: Option<MechanismStats>,
    /// Mechanism counters (L2 slot).
    pub mech_l2: Option<MechanismStats>,
    /// Prefetch-queue counters (L1 slot).
    pub queue_l1: Option<PrefetchQueueStats>,
    /// Prefetch-queue counters (L2 slot).
    pub queue_l2: Option<PrefetchQueueStats>,
    /// The mechanism's hardware inventory.
    pub hardware: HardwareBudget,
    /// How the result was reconstructed from sampled intervals, when the
    /// run used [`SamplingMode::SimPoints`] (`None` for full runs).
    pub sampling: Option<SamplingEstimate>,
}

impl RunResult {
    /// The mechanism's combined activity counters (whichever slot it used).
    pub fn mechanism_stats(&self) -> MechanismStats {
        self.mech_l1.or(self.mech_l2).unwrap_or_default()
    }

    /// Encodes the result for the artifact store's on-disk memo tier.
    pub fn encode(&self, e: &mut microlib_model::Encoder) {
        use microlib_model::BinCodec as _;
        e.put_str(self.benchmark);
        self.mechanism.encode(e);
        self.perf.encode(e);
        self.core.encode(e);
        self.l1d.encode(e);
        self.l1i.encode(e);
        self.l2.encode(e);
        self.memory.encode(e);
        self.mech_l1.encode(e);
        self.mech_l2.encode(e);
        self.queue_l1.encode(e);
        self.queue_l2.encode(e);
        self.hardware.encode(e);
        self.sampling.encode(e);
    }

    /// Decodes a result written by [`RunResult::encode`]. The benchmark
    /// name is resolved against the static registry (results only exist
    /// for registered benchmarks).
    ///
    /// # Errors
    ///
    /// Any [`microlib_model::CodecError`] on truncated or invalid bytes,
    /// including a benchmark name no longer in the registry.
    pub fn decode(d: &mut microlib_model::Decoder<'_>) -> Result<Self, microlib_model::CodecError> {
        use microlib_model::BinCodec as _;
        let name = d.take_str()?;
        let benchmark = benchmarks::by_name(name)
            .map(|p| p.name)
            .ok_or(microlib_model::CodecError::Invalid("unknown benchmark"))?;
        Ok(RunResult {
            benchmark,
            mechanism: MechanismKind::decode(d)?,
            perf: PerfSummary::decode(d)?,
            core: CoreStats::decode(d)?,
            l1d: CacheStats::decode(d)?,
            l1i: CacheStats::decode(d)?,
            l2: CacheStats::decode(d)?,
            memory: MemoryStats::decode(d)?,
            mech_l1: Option::decode(d)?,
            mech_l2: Option::decode(d)?,
            queue_l1: Option::decode(d)?,
            queue_l2: Option::decode(d)?,
            hardware: HardwareBudget::decode(d)?,
            sampling: Option::decode(d)?,
        })
    }
}

/// Every monotone counter bundle `simulate` reports, captured mid-run at
/// measurement boundaries and differenced.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct StatsSnapshot {
    core: CoreStats,
    pub(crate) l1d: CacheStats,
    pub(crate) l1i: CacheStats,
    pub(crate) l2: CacheStats,
    memory: MemoryStats,
    mech_l1: Option<MechanismStats>,
    mech_l2: Option<MechanismStats>,
    queue_l1: Option<PrefetchQueueStats>,
    queue_l2: Option<PrefetchQueueStats>,
}

impl StatsSnapshot {
    pub(crate) fn capture(core: CoreStats, mem: &MemorySystem) -> Self {
        let (queue_l1, queue_l2) = mem.prefetch_queue_stats();
        StatsSnapshot {
            core,
            l1d: mem.l1d_stats(),
            l1i: mem.l1i_stats(),
            l2: mem.l2_stats(),
            memory: mem.memory_stats(),
            mech_l1: mem.l1_mechanism_stats(),
            mech_l2: mem.l2_mechanism_stats(),
            queue_l1,
            queue_l2,
        }
    }

    /// `end - self`, field by field (all counters are monotone).
    pub(crate) fn delta_from(&self, end: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            core: sub_core(&end.core, &self.core),
            l1d: sub_cache(&end.l1d, &self.l1d),
            l1i: sub_cache(&end.l1i, &self.l1i),
            l2: sub_cache(&end.l2, &self.l2),
            memory: sub_memory(&end.memory, &self.memory),
            mech_l1: sub_opt(end.mech_l1, self.mech_l1, sub_mech),
            mech_l2: sub_opt(end.mech_l2, self.mech_l2, sub_mech),
            queue_l1: sub_opt(end.queue_l1, self.queue_l1, sub_queue),
            queue_l2: sub_opt(end.queue_l2, self.queue_l2, sub_queue),
        }
    }
}

fn sub_opt<T: Copy + Default>(end: Option<T>, start: Option<T>, sub: fn(&T, &T) -> T) -> Option<T> {
    end.map(|e| sub(&e, &start.unwrap_or_default()))
}

fn sub_core(a: &CoreStats, b: &CoreStats) -> CoreStats {
    CoreStats {
        committed: a.committed - b.committed,
        cycles: a.cycles - b.cycles,
        fetched: a.fetched - b.fetched,
        mispredict_stall_cycles: a.mispredict_stall_cycles - b.mispredict_stall_cycles,
        icache_stall_cycles: a.icache_stall_cycles - b.icache_stall_cycles,
        loads_forwarded: a.loads_forwarded - b.loads_forwarded,
        cache_reject_stalls: a.cache_reject_stalls - b.cache_reject_stalls,
        window_full_stalls: a.window_full_stalls - b.window_full_stalls,
        lsq_full_stalls: a.lsq_full_stalls - b.lsq_full_stalls,
        store_commit_stalls: a.store_commit_stalls - b.store_commit_stalls,
    }
}

fn sub_cache(a: &CacheStats, b: &CacheStats) -> CacheStats {
    CacheStats {
        loads: a.loads - b.loads,
        stores: a.stores - b.stores,
        misses: a.misses - b.misses,
        sidecar_hits: a.sidecar_hits - b.sidecar_hits,
        mshr_merges: a.mshr_merges - b.mshr_merges,
        mshr_full_stalls: a.mshr_full_stalls - b.mshr_full_stalls,
        pipeline_stalls: a.pipeline_stalls - b.pipeline_stalls,
        port_stalls: a.port_stalls - b.port_stalls,
        demand_fills: a.demand_fills - b.demand_fills,
        prefetch_fills: a.prefetch_fills - b.prefetch_fills,
        useful_prefetches: a.useful_prefetches - b.useful_prefetches,
        writebacks: a.writebacks - b.writebacks,
        useless_prefetch_evictions: a.useless_prefetch_evictions - b.useless_prefetch_evictions,
    }
}

fn sub_memory(a: &MemoryStats, b: &MemoryStats) -> MemoryStats {
    MemoryStats {
        requests: a.requests - b.requests,
        total_latency: a.total_latency - b.total_latency,
        row_hits: a.row_hits - b.row_hits,
        precharges: a.precharges - b.precharges,
        bus_busy_cycles: a.bus_busy_cycles - b.bus_busy_cycles,
        queue_wait_cycles: a.queue_wait_cycles - b.queue_wait_cycles,
    }
}

fn sub_mech(a: &MechanismStats, b: &MechanismStats) -> MechanismStats {
    MechanismStats {
        table_reads: a.table_reads - b.table_reads,
        table_writes: a.table_writes - b.table_writes,
        prefetches_requested: a.prefetches_requested - b.prefetches_requested,
        prefetches_useful: a.prefetches_useful - b.prefetches_useful,
        sidecar_hits: a.sidecar_hits - b.sidecar_hits,
        sidecar_misses: a.sidecar_misses - b.sidecar_misses,
        victims_captured: a.victims_captured - b.victims_captured,
    }
}

fn sub_queue(a: &PrefetchQueueStats, b: &PrefetchQueueStats) -> PrefetchQueueStats {
    PrefetchQueueStats {
        accepted: a.accepted - b.accepted,
        discarded: a.discarded - b.discarded,
        duplicates: a.duplicates - b.duplicates,
    }
}

/// Why a simulation run failed.
#[derive(Debug)]
pub enum SimError {
    /// The system configuration was rejected.
    Config(ConfigError),
    /// The benchmark name is not in the registry.
    UnknownBenchmark(String),
    /// A loaded value diverged from the architectural memory image.
    Integrity {
        /// Benchmark being simulated.
        benchmark: String,
        /// The divergence.
        error: IntegrityError,
    },
    /// The run exceeded its cycle budget.
    Timeout {
        /// Benchmark being simulated.
        benchmark: String,
        /// Budget that was exhausted.
        cycles: u64,
    },
    /// The cell crashed too many consecutive workers and was quarantined
    /// by the lease layer (see [`crate::LeaseManager`]); it was not
    /// computed, but the rest of the battery still completes.
    Quarantined {
        /// Benchmark of the poisoned cell.
        benchmark: String,
        /// Crashed attempts recorded before quarantine.
        attempts: u32,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config(e) => write!(f, "{e}"),
            SimError::UnknownBenchmark(n) => write!(f, "unknown benchmark {n:?}"),
            SimError::Integrity { benchmark, error } => {
                write!(f, "{benchmark}: {error}")
            }
            SimError::Timeout { benchmark, cycles } => {
                write!(f, "{benchmark}: exceeded {cycles}-cycle budget")
            }
            SimError::Quarantined {
                benchmark,
                attempts,
            } => {
                write!(
                    f,
                    "{benchmark}: quarantined after {attempts} crashed attempts"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

/// A caller-built mechanism for a [`Cell`]: the hook for parameter
/// studies such as Fig 10's prefetch-queue-size sweep.
///
/// `variant` must name **every** construction parameter in which `build`
/// differs from the stock mechanism of the cell's label: the memo key is
/// the stock key plus `|variant=<variant>`, so two builds under one
/// `(label, variant)` pair alias in the memo.
#[derive(Clone, Copy, Debug)]
pub struct CustomMechanism {
    /// Tag covering the construction parameters (e.g. `"queue=1"`).
    pub variant: &'static str,
    /// Builds one fresh instance (called once per detailed pass).
    pub build: fn() -> Box<dyn Mechanism>,
}

/// One simulation cell: a benchmark run on one system configuration with
/// one mechanism attached, under fixed [`SimOptions`]. [`execute`] runs
/// it; [`Cell::key`] is its content key in the [`ArtifactStore`] memo.
#[derive(Clone, Debug)]
pub struct Cell<'a> {
    /// The system configuration (shared, so sweeps never deep-clone it).
    pub config: Arc<SystemConfig>,
    /// Benchmark registry name (an unknown name fails at execution).
    pub benchmark: &'a str,
    /// The mechanism: the stock one built from this kind, or — with
    /// [`custom`](Cell::custom) — the label the result rows carry.
    pub mechanism: MechanismKind,
    /// Window, seed, sampling and the other run options.
    pub opts: SimOptions,
    /// A caller-built mechanism replacing the stock build, if any.
    pub custom: Option<CustomMechanism>,
}

impl<'a> Cell<'a> {
    /// A cell running the stock `mechanism`.
    pub fn new(
        config: Arc<SystemConfig>,
        mechanism: MechanismKind,
        benchmark: &'a str,
        opts: SimOptions,
    ) -> Self {
        Cell {
            config,
            benchmark,
            mechanism,
            opts,
            custom: None,
        }
    }

    /// This cell with `build` replacing the stock mechanism, labelled by
    /// the cell's mechanism kind and keyed by `variant` (see
    /// [`CustomMechanism`] for the contract `variant` must keep).
    pub fn custom(self, variant: &'static str, build: fn() -> Box<dyn Mechanism>) -> Self {
        Cell {
            custom: Some(CustomMechanism { variant, build }),
            ..self
        }
    }

    /// The memo key: every input the result depends on — benchmark,
    /// mechanism label, seed, window, value checking, cycle budget,
    /// sampling mode, the [`config_key`](crate::config_key) of the
    /// configuration and, for custom cells, `|variant=<tag>`.
    pub fn key(&self) -> String {
        let opts = &self.opts;
        let mut key = format!(
            "{}|{:?}|seed={:#x}|window={}+{}|check={}|max={}|sampling={:?}|{}",
            self.benchmark,
            self.mechanism,
            opts.seed,
            opts.window.skip,
            opts.window.simulate,
            opts.check_values,
            opts.max_cycles,
            opts.sampling,
            crate::config_key(&self.config),
        );
        if let Some(custom) = &self.custom {
            key.push_str("|variant=");
            key.push_str(custom.variant);
        }
        key
    }

    /// A fresh instance of the cell's mechanism.
    fn build(&self) -> Box<dyn Mechanism> {
        match &self.custom {
            Some(custom) => (custom.build)(),
            None => self.mechanism.build(),
        }
    }
}

/// Runs one cell — the single simulation entry point.
///
/// The store shares the mechanism-independent artifacts (the trace buffer
/// and, for mechanisms whose warm-up is event-replayable, the warm
/// checkpoint) and serves repeated cells from its memo under
/// [`Cell::key`], custom cells included. A cell's warm key's first
/// requester takes the exact full warm path; later ones restore the
/// checkpoint. Results are bit-identical either way.
///
/// # Errors
///
/// Returns a [`SimError`] for invalid configurations, unknown benchmarks,
/// value-integrity violations, cycle-budget exhaustion, or (under a lease
/// manager) a quarantined cell.
pub fn execute(store: &ArtifactStore, cell: &Cell<'_>) -> Result<RunResult, SimError> {
    let (benchmark, mechanism) = (cell.benchmark, cell.mechanism);
    let describe = || {
        let label = match &cell.custom {
            Some(custom) => format!("{benchmark} x {mechanism} [{}]", custom.variant),
            None => format!("{benchmark} x {mechanism}"),
        };
        (label, repro_hint(&cell.opts))
    };
    let result = store.memo_run(&cell.key(), benchmark, describe, || {
        crate::fault::trigger("cell", &format!("{benchmark}+{mechanism}"));
        if cell.opts.sampling.is_sampled() {
            run_sampled(store, cell)
        } else {
            simulate(store, cell, 0)
        }
    })?;
    Ok((*result).clone())
}

/// Runs one cell on a fresh, memory-only store — shorthand for
/// [`execute`] over [`ArtifactStore::new`]. The cell is its warm key's
/// first requester, so it takes the exact full warm path.
///
/// # Errors
///
/// Same conditions as [`execute`].
///
/// # Examples
///
/// ```
/// use microlib::{run_one, SimOptions};
/// use microlib_mech::MechanismKind;
/// use microlib_model::SystemConfig;
/// use microlib_trace::TraceWindow;
///
/// let opts = SimOptions {
///     window: TraceWindow::new(0, 3_000),
///     ..SimOptions::default()
/// };
/// let result = run_one(
///     &SystemConfig::baseline_constant_memory(),
///     MechanismKind::Base,
///     "swim",
///     &opts,
/// )?;
/// assert_eq!(result.perf.instructions, 3_000);
/// assert!(result.perf.ipc() > 0.0);
/// # Ok::<(), microlib::SimError>(())
/// ```
pub fn run_one(
    config: &SystemConfig,
    mechanism: MechanismKind,
    benchmark: &str,
    opts: &SimOptions,
) -> Result<RunResult, SimError> {
    let cell = Cell::new(Arc::new(config.clone()), mechanism, benchmark, *opts);
    execute(&ArtifactStore::new(), &cell)
}

/// The environment part of a quarantined cell's minimized repro command:
/// enough to replay exactly this window and seed single-process, without
/// the cache (so the repro actually re-executes the crashing cell).
fn repro_hint(opts: &SimOptions) -> String {
    format!(
        "MICROLIB_SKIP={} MICROLIB_SIM={} MICROLIB_SEED={:#x} run_all --no-cache",
        opts.window.skip, opts.window.simulate, opts.seed
    )
}

/// A cell's system after the warm phase, ready for detailed simulation.
pub(crate) struct Warmed {
    /// The benchmark's registry name.
    pub(crate) benchmark: &'static str,
    /// The mechanism's hardware inventory.
    pub(crate) hardware: HardwareBudget,
    pub(crate) mem: MemorySystem,
    /// The instruction stream, positioned at the window start.
    pub(crate) stream: InstStream,
}

/// The prologue both detailed drivers and the analytic tier share:
/// resolves the benchmark, builds the memory system around a fresh
/// mechanism and warms it — functional memory initialized, caches and
/// mechanism tables warmed over `[warm_start, skip)` (`warm_start` is
/// clamped to the window start), the instruction stream positioned at
/// `skip`.
///
/// The trace comes from the store's shared [`TraceBuffer`] (grown to
/// `trace_len`). The warm phase either restores the shared checkpoint and
/// replays the recorded mechanism events (mechanisms that opt in via
/// [`warm_events_only`](microlib_model::Mechanism::warm_events_only)) or
/// runs the exact full warm path over the shared trace (everything else).
pub(crate) fn warmed_system(
    store: &ArtifactStore,
    cell: &Cell<'_>,
    warm_start: u64,
    trace_len: u64,
) -> Result<Warmed, SimError> {
    let profile = benchmarks::by_name(cell.benchmark)
        .ok_or_else(|| SimError::UnknownBenchmark(cell.benchmark.to_owned()))?;
    let benchmark = profile.name;
    let (config, opts) = (&cell.config, &cell.opts);
    let mech = cell.build();
    let hardware = mech.hardware();
    let warm_replayable = mech.warm_events_only();
    let skip = opts.window.skip;
    let warm_start = warm_start.min(skip);

    let mut mem = MemorySystem::new(Arc::clone(config), vec![mech])?;
    mem.set_check_values(opts.check_values);
    let (workload, buffer) = store.trace(benchmark, opts.seed, trace_len)?;
    let mut stream = TraceBuffer::replay(&buffer);
    let warm = if skip > warm_start && warm_replayable {
        // Fast path when the store has (or now earns) the shared
        // checkpoint: restore it and replay only the mechanism-visible
        // events. The key's first requester gets `None` and warms in
        // full — capture only pays off once a state is reused.
        store.warm_state(benchmark, opts.seed, skip, warm_start, config)?
    } else {
        None
    };
    match warm {
        Some(warm) => {
            mem.restore_warm(&warm.checkpoint);
            mem.replay_warm_events(&warm.log);
            stream.advance_to(skip);
        }
        None => {
            // Exact path over the shared trace (sidecar mechanisms, first
            // requesters, or nothing to skip).
            workload.initialize(mem.functional_mut());
            stream.advance_to(warm_start);
            warm_loop(&mut mem, &mut stream, skip - warm_start);
        }
    }
    Ok(Warmed {
        benchmark,
        hardware,
        mem,
        stream,
    })
}

/// The full-window simulation driver behind [`execute`].
///
/// `warm_start` truncates the functional warm phase to the instructions
/// in `[warm_start, skip)` — `0` (every full-mode run) warms the whole
/// prefix. Runs with a bounded warm-up budget pass the window start minus
/// the budget; instructions before `warm_start` are skipped entirely
/// (their stores never reach the functional image, which stays
/// self-consistent for the integrity checker but approximates the true
/// architectural state — the accuracy trade the budget buys).
pub(crate) fn simulate(
    store: &ArtifactStore,
    cell: &Cell<'_>,
    warm_start: u64,
) -> Result<RunResult, SimError> {
    let opts = &cell.opts;
    let Warmed {
        benchmark,
        hardware,
        mut mem,
        mut stream,
    } = warmed_system(store, cell, warm_start, opts.window.end())?;
    let start = mem.finish_warmup();

    let mut core = OoOCore::new(cell.config.core);
    let mut trace = stream.by_ref().take(opts.window.simulate as usize);
    let budget = opts.cycle_budget() + start.raw();
    let mut now = start;
    run_detailed(
        &mut core,
        &mut mem,
        &mut trace,
        &mut now,
        budget,
        benchmark,
        |_, _| {},
    )?;

    let measured = StatsSnapshot::capture(core.stats(), &mem);
    Ok(result_from(benchmark, cell.mechanism, hardware, &measured))
}

/// One measured region of a sampled cell's detailed stretch, in committed
/// instructions relative to the stretch start.
struct Mark {
    begin_at: u64,
    end_at: u64,
}

/// One contiguous detailed-simulation phase of a sampled cell: fed
/// `feed` instructions starting at absolute instruction `start`, with
/// the measured regions (slices) inside it. Stretches are built from the
/// plan's slice windows; a ramp before each measured region and a tail
/// after it keep measurement in steady state, and overlapping extents
/// merge into one stretch.
struct Stretch {
    start: u64,
    feed: u64,
    marks: Vec<Mark>,
}

/// Detailed instructions committed before a measured region (fills the
/// out-of-order window so measurement starts in steady issue).
const SLICE_RAMP: u64 = 1_024;

/// Detailed instructions fed past a measured region so the pipeline stays
/// busy while the last measured instructions commit.
const SLICE_TAIL: u64 = 512;

/// Lays the plan's slice windows out as detailed stretches. `floor` is
/// the first instruction detailed simulation may touch (the window
/// start — everything before it belongs to the warm phase).
fn build_stretches(windows: &[TraceWindow], floor: u64) -> Vec<Stretch> {
    let mut stretches: Vec<Stretch> = Vec::new();
    for w in windows {
        let detail_start = w.skip.saturating_sub(SLICE_RAMP).max(floor);
        let feed_end = w.end() + SLICE_TAIL;
        match stretches.last_mut() {
            // Overlapping or touching extents merge: the previous tail
            // (or measured region) doubles as this slice's ramp.
            Some(cur) if detail_start <= cur.start + cur.feed => {
                cur.feed = cur.feed.max(feed_end - cur.start);
                cur.marks.push(Mark {
                    begin_at: w.skip - cur.start,
                    end_at: w.end() - cur.start,
                });
            }
            _ => stretches.push(Stretch {
                start: detail_start,
                feed: feed_end - detail_start,
                marks: vec![Mark {
                    begin_at: w.skip - detail_start,
                    end_at: w.end() - detail_start,
                }],
            }),
        }
    }
    stretches
}

/// The sampled-cell driver: one warm phase to the window start, then one
/// continuous pass over the trace that alternates **functional
/// fast-forward** through the gaps with **detailed stretches** over the
/// plan's slice windows. Caches, the functional memory and the mechanism
/// evolve across the whole window exactly once (the warm fidelity of the
/// skip phase, everywhere outside the slices), so slice measurements see
/// warm state without re-running a prefix per slice.
///
/// Returns one measured part per plan point, in plan order, each shaped
/// like a [`RunResult`] of its slice.
pub(crate) fn simulate_sampled(
    store: &ArtifactStore,
    cell: &Cell<'_>,
    warm_start: u64,
    windows: &[TraceWindow],
) -> Result<Vec<RunResult>, SimError> {
    let (opts, label) = (&cell.opts, cell.mechanism);
    let stretches = build_stretches(windows, opts.window.skip);
    let trace_len = stretches
        .last()
        .map(|s| s.start + s.feed)
        .unwrap_or(opts.window.end());
    let Warmed {
        benchmark,
        hardware,
        mut mem,
        mut stream,
    } = warmed_system(store, cell, warm_start, trace_len)?;

    let mut parts: Vec<RunResult> = Vec::with_capacity(windows.len());
    let mut now = mem.finish_warmup();
    // Gaps between slices apply prefetches functionally instead of
    // dropping them: a continuous detailed run would have issued them,
    // and slices measured after a prefetch-starved gap systematically
    // overstate prefetcher misses. (The prefix warm above stays in the
    // default drop mode — it must match the shared warm checkpoints.)
    mem.set_warm_prefetch_fill(true);
    for stretch in &stretches {
        // Fast-forward the gap functionally (the same fidelity as the
        // skip phase), with the warm clock resuming from detailed time.
        if stretch.start > stream.stream_position() {
            mem.resume_warmup(now);
            let gap = stretch.start - stream.stream_position();
            warm_loop(&mut mem, &mut stream, gap);
            now = mem.finish_warmup();
        }

        let mut core = OoOCore::new(cell.config.core);
        let mut trace = stream.by_ref().take(stretch.feed as usize);
        let budget = opts.cycle_budget_for(stretch.feed) + now.raw();
        let mut marks = stretch.marks.iter();
        let mut next_mark = marks.next();
        let mut open: Option<StatsSnapshot> = None;
        // Marks are crossed at the first cycle or by commits, and those
        // cycles always step, so `after_cycle` sees every crossing.
        run_detailed(
            &mut core,
            &mut mem,
            &mut trace,
            &mut now,
            budget,
            benchmark,
            |core, mem| {
                // A commit burst can cross a begin and an end boundary in
                // one cycle; settle all crossed boundaries before
                // continuing.
                loop {
                    let committed = core.stats().committed;
                    match (&open, next_mark) {
                        (Some(begin), Some(mark)) if committed >= mark.end_at => {
                            let end = StatsSnapshot::capture(core.stats(), mem);
                            let measured = begin.delta_from(&end);
                            parts.push(result_from(benchmark, label, hardware.clone(), &measured));
                            open = None;
                            next_mark = marks.next();
                        }
                        (None, Some(mark)) if committed >= mark.begin_at => {
                            open = Some(StatsSnapshot::capture(core.stats(), mem));
                            // `next_mark` stays: its end still needs closing.
                        }
                        _ => break,
                    }
                }
            },
        )?;
        // A truncated trace can drain the stretch before the last mark
        // closes; close it at whatever committed (combine weighs parts by
        // their actual instruction counts).
        if let Some(begin) = open {
            let measured = begin.delta_from(&StatsSnapshot::capture(core.stats(), &mem));
            parts.push(result_from(benchmark, label, hardware.clone(), &measured));
        }
        // Quiesce before handing the system back to functional warm-up:
        // a fill still in flight would otherwise complete *after* the gap
        // has moved memory on, installing stale data (and its completion
        // token could collide with the next stretch's fresh core).
        quiesce(&mut mem, &mut now, budget, benchmark)?;
    }
    Ok(parts)
}

fn timeout(benchmark: &str, budget: u64) -> SimError {
    SimError::Timeout {
        benchmark: benchmark.to_owned(),
        cycles: budget,
    }
}

/// The detailed loop shared by full and sampled runs: from `*now`, one
/// [`MemorySystem::begin_cycle_into`] and one [`OoOCore::cycle`] per
/// cycle until the core drains, leaving `*now` at the draining cycle.
/// `after_cycle` sees the system after every stepped cycle. A value
/// integrity violation, or running past cycle `budget`, ends the run
/// with an error.
///
/// After a quiet cycle — no completion delivered, nothing committed or
/// fetched — the loop jumps straight to the next cycle at which anything
/// can happen ([`horizon`]) and credits the per-cycle counters of the
/// cycles in between in bulk ([`skip_quiet`]). Busy cycles pay nothing
/// for this, and nothing the loop reports changes by a single count.
fn run_detailed(
    core: &mut OoOCore,
    mem: &mut MemorySystem,
    trace: &mut dyn Iterator<Item = TraceInst>,
    now: &mut Cycle,
    budget: u64,
    benchmark: &str,
    mut after_cycle: impl FnMut(&OoOCore, &MemorySystem),
) -> Result<(), SimError> {
    let mut completions = Vec::new();
    loop {
        mem.begin_cycle_into(*now, &mut completions);
        let fetched = core.stats().fetched;
        let committed = core.cycle(*now, &completions, mem, trace);
        if let Some(error) = mem.integrity_error() {
            return Err(SimError::Integrity {
                benchmark: benchmark.to_owned(),
                error,
            });
        }
        after_cycle(core, mem);
        if core.drained() {
            return Ok(());
        }
        if now.raw() >= budget {
            return Err(timeout(benchmark, budget));
        }
        let quiet = completions.is_empty() && committed == 0 && core.stats().fetched == fetched;
        let next = if quiet {
            horizon(Some(core), mem, *now, budget)
        } else {
            *now + 1
        };
        skip_quiet(Some((core, trace)), mem, *now, next, budget);
        *now = next;
    }
}

/// Steps the memory system alone from `*now` until nothing is in flight,
/// jumping between its events like [`run_detailed`]. `*now` ends at the
/// last cycle stepped; running past cycle `budget` is an error.
fn quiesce(
    mem: &mut MemorySystem,
    now: &mut Cycle,
    budget: u64,
    benchmark: &str,
) -> Result<(), SimError> {
    let mut completions = Vec::new();
    while !mem.quiescent() {
        let next = horizon(None, mem, *now, budget);
        skip_quiet(None, mem, *now, next, budget);
        *now = next;
        mem.begin_cycle_into(*now, &mut completions);
        if now.raw() >= budget {
            return Err(timeout(benchmark, budget));
        }
    }
    Ok(())
}

/// The next cycle the detailed loop must step after cycle `now`: the
/// earliest of the core's next event (`None` for a memory-only phase),
/// the memory system's, and the cycle `budget` — whose step must still
/// happen, so a run that times out does so at the same cycle.
fn horizon(core: Option<&OoOCore>, mem: &MemorySystem, now: Cycle, budget: u64) -> Cycle {
    let Some(core_bound) = core.map_or(Some(Cycle::NEVER), |core| core.next_event(now)) else {
        return now + 1;
    };
    core_bound
        .min(mem.next_event(now))
        .min(Cycle::new(budget))
        .max(now + 1)
}

/// Accounts for the quiet cycles strictly between `now` and `target` (a
/// [`horizon`]): release builds jump, crediting the per-cycle counters
/// in bulk. Debug builds shadow-check the jump instead: they compute the
/// credit first, then single-step the interval for real and assert that
/// every stepped cycle was quiet and kept the same horizon, and that of
/// every counter the run reports (plus the L1 drain counters) exactly
/// the credited ones moved, by exactly the credit.
fn skip_quiet(
    mut core: Option<(&mut OoOCore, &mut dyn Iterator<Item = TraceInst>)>,
    mem: &mut MemorySystem,
    now: Cycle,
    target: Cycle,
    budget: u64,
) {
    if target <= now + 1 {
        return;
    }
    if !cfg!(debug_assertions) {
        if let Some((core, _)) = core {
            core.skip_to(now, target);
        }
        mem.skip_to(now, target);
        return;
    }
    let core_stats = |core: &Option<(&mut OoOCore, _)>| core.as_ref().map(|(c, _)| c.stats());
    let core_credit = core
        .as_ref()
        .map(|(core, _)| core.quiet_credit(now, target));
    let mem_credit = mem.quiet_credit(now, target);
    let before = StatsSnapshot::capture(core_stats(&core).unwrap_or_default(), mem);
    let drain = mem.l1_drain_counters();
    let mut completions = Vec::new();
    for c in now.raw() + 1..target.raw() {
        let c = Cycle::new(c);
        mem.begin_cycle_into(c, &mut completions);
        assert!(
            completions.is_empty(),
            "cycle {c} predicted quiet delivered a completion"
        );
        if let Some((core, trace)) = &mut core {
            let fetched = core.stats().fetched;
            let committed = core.cycle(c, &completions, mem, *trace);
            assert_eq!(
                (committed, core.stats().fetched),
                (0, fetched),
                "cycle {c} predicted quiet"
            );
        }
        let core = core.as_ref().map(|(core, _)| &**core);
        assert_eq!(
            horizon(core, mem, c, budget),
            target,
            "horizon moved at cycle {c}"
        );
    }
    let after = StatsSnapshot::capture(core_stats(&core).unwrap_or_default(), mem);
    assert_eq!(
        sub_core(&after.core, &before.core),
        core_credit.unwrap_or_default(),
        "core credit over ({now}, {target})"
    );
    assert_eq!(
        after.memory.queue_wait_cycles - before.memory.queue_wait_cycles,
        mem_credit.queue_wait_cycles,
        "SDRAM credit over ({now}, {target})"
    );
    let uncredited = StatsSnapshot {
        core: before.core,
        memory: MemoryStats {
            queue_wait_cycles: before.memory.queue_wait_cycles,
            ..after.memory
        },
        ..after
    };
    assert_eq!(
        uncredited, before,
        "uncredited counters moved over ({now}, {target})"
    );
    let expect_drain =
        drain.map(|(ok, blocked, dropped)| (ok + mem_credit.drain_ok, blocked, dropped));
    assert_eq!(
        mem.l1_drain_counters(),
        expect_drain,
        "drain credit over ({now}, {target})"
    );
}

/// Shapes one measured counter bundle as a [`RunResult`].
fn result_from(
    benchmark: &'static str,
    mechanism: MechanismKind,
    hardware: HardwareBudget,
    measured: &StatsSnapshot,
) -> RunResult {
    RunResult {
        benchmark,
        mechanism,
        perf: PerfSummary {
            instructions: measured.core.committed,
            cycles: measured.core.cycles,
        },
        core: measured.core,
        l1d: measured.l1d,
        l1i: measured.l1i,
        l2: measured.l2,
        memory: measured.memory,
        mech_l1: measured.mech_l1,
        mech_l2: measured.mech_l2,
        queue_l1: measured.queue_l1,
        queue_l2: measured.queue_l2,
        hardware,
        sampling: None,
    }
}

/// The skip region warms caches and mechanism tables functionally (the
/// paper's long SimPoint traces run in steady state; see
/// [`MemorySystem::warm_inst`]) before the window is simulated in detail.
fn warm_loop(mem: &mut MemorySystem, stream: &mut InstStream, skip: u64) {
    for _ in 0..skip {
        let Some(inst) = stream.next() else { break };
        mem.warm_inst(inst.pc, inst.warm_mem_ref());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts(n: u64) -> SimOptions {
        SimOptions {
            window: TraceWindow::new(0, n),
            ..SimOptions::default()
        }
    }

    #[test]
    fn base_run_commits_every_instruction() {
        let r = run_one(
            &SystemConfig::baseline_constant_memory(),
            MechanismKind::Base,
            "crafty",
            &quick_opts(5_000),
        )
        .unwrap();
        assert_eq!(r.perf.instructions, 5_000);
        assert!(r.perf.cycles > 0);
        assert!(r.l1d.accesses() > 500, "crafty has memory traffic");
    }

    #[test]
    fn unknown_benchmark_is_an_error() {
        let e = run_one(
            &SystemConfig::baseline(),
            MechanismKind::Base,
            "quake3",
            &quick_opts(100),
        )
        .unwrap_err();
        assert!(matches!(e, SimError::UnknownBenchmark(_)));
        assert!(e.to_string().contains("quake3"));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_one(
            &SystemConfig::baseline_constant_memory(),
            MechanismKind::Ghb,
            "swim",
            &quick_opts(4_000),
        )
        .unwrap();
        let b = run_one(
            &SystemConfig::baseline_constant_memory(),
            MechanismKind::Ghb,
            "swim",
            &quick_opts(4_000),
        )
        .unwrap();
        assert_eq!(a.perf, b.perf);
        assert_eq!(a.l1d, b.l1d);
        assert_eq!(a.l2, b.l2);
    }

    #[test]
    fn every_mechanism_survives_a_smoke_run() {
        for kind in MechanismKind::study_set() {
            let r = run_one(
                &SystemConfig::baseline_constant_memory(),
                kind,
                "gzip",
                &quick_opts(3_000),
            )
            .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            assert_eq!(r.perf.instructions, 3_000, "{kind:?}");
        }
    }

    #[test]
    fn sdram_memory_model_runs() {
        let r = run_one(
            &SystemConfig::baseline(),
            MechanismKind::Sp,
            "swim",
            &quick_opts(4_000),
        )
        .unwrap();
        assert!(r.memory.requests > 0, "swim must reach DRAM");
        assert!(r.memory.average_latency().unwrap() > 30.0);
    }

    #[test]
    fn window_skip_is_respected() {
        let opts = SimOptions {
            window: TraceWindow::new(5_000, 2_000),
            ..SimOptions::default()
        };
        let r = run_one(
            &SystemConfig::baseline_constant_memory(),
            MechanismKind::Base,
            "gcc",
            &opts,
        )
        .unwrap();
        assert_eq!(r.perf.instructions, 2_000);
    }
}
