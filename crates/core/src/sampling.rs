//! SimPoint-sampled simulation: run a handful of weighted representative
//! intervals instead of the whole trace window, then reconstruct the
//! whole-window measurements.
//!
//! Sampling is a property of [`SimOptions`]: with
//! [`SamplingMode::SimPoints`] every cell [`execute`](crate::execute)
//! runs — stock or custom, and therefore every campaign cell — turns into
//!
//! 1. a **plan** — BBV-profile the window, cluster the interval vectors,
//!    keep a weighted representative (plus, for multi-member clusters, a
//!    centroid-farthest probe) per cluster
//!    ([`microlib_trace::SamplingPlan`]; shared across all mechanisms of a
//!    benchmark through the [`ArtifactStore`]);
//! 2. one **continuous pass** over the trace — the usual warm phase up to
//!    the window start (sharing the same warm-state checkpoints full-mode
//!    cells use), then detailed simulation of each slice in steady state
//!    (ramped in, measured between counter snapshots, quiesced) with
//!    functional fast-forward through the gaps, so caches, memory and the
//!    mechanism evolve over the whole window exactly once;
//! 3. a **reconstruction** — per-slice CPIs and counters recombined into
//!    one weighted whole-window [`RunResult`], carrying a
//!    [`SamplingEstimate`] with the per-interval CPIs and a reported error
//!    bound.
//!
//! The reconstruction is deterministic (slices run in interval order and
//! combine in fixed order), so sampled campaigns keep the engine's
//! bit-identical-across-thread-counts guarantee for any worker count.

use crate::artifacts::ArtifactStore;
use crate::simulator::{simulate, simulate_sampled, Cell, RunResult, SimError, SimOptions};
use microlib_cpu::CoreStats;
use microlib_mech::MechanismKind;
use microlib_model::stats::{SampledPoint, SamplingEstimate};
use microlib_model::{CacheStats, MechanismStats, MemoryStats, PerfSummary, PrefetchQueueStats};
use microlib_trace::{SamplingPlan, TraceWindow};

/// How a run covers its trace window.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum SamplingMode {
    /// Simulate every instruction of the window in detail (the paper's
    /// fixed-trace methodology; the default).
    #[default]
    Full,
    /// Simulate only SimPoint-selected representative intervals and
    /// reconstruct the whole-window result from their weighted
    /// measurements.
    SimPoints {
        /// Instructions per profiling interval (also the length of each
        /// detailed slice). Intervals that do not fit the window are
        /// degraded to a single full-window slice.
        interval: u64,
        /// Cluster-count cap for k-means (the BIC rule usually keeps
        /// fewer).
        max_clusters: usize,
        /// Functional warm-up budget before the window: `0` warms the
        /// entire trace prefix (exact warm state, the default); a
        /// positive value warms only the last `warmup` instructions
        /// before the window start, trading warm-up time for warm-state
        /// accuracy. Gaps *between* slices are always warmed exactly.
        warmup: u64,
    },
}

/// Aggregator over the weighted parts: scales one `u64` counter of each
/// part to whole-window terms and sums.
type CounterAgg<'a> = &'a dyn Fn(&dyn Fn(&RunResult) -> u64) -> u64;

impl SamplingMode {
    /// The default SimPoint configuration for a window: twenty intervals
    /// across the simulated region but never shorter than 10 000
    /// instructions (shorter intervals are dominated by interval-to-
    /// interval noise at this simulation scale), at most three clusters —
    /// each sampled at both its centroid-nearest and centroid-farthest
    /// interval — and the exact full-prefix warm-up.
    ///
    /// Accuracy holds across window sizes (median CPI error ~1.4% on the
    /// standard campaign); wall-clock speedup grows with the window, from
    /// ~1.5× at the standard 100 k window to ~3× at 500 k (the regime
    /// SimPoint exists for — the floor is the minimum detailed coverage a
    /// 2%-accurate estimate needs).
    ///
    /// # Examples
    ///
    /// ```
    /// use microlib::SamplingMode;
    /// use microlib_trace::TraceWindow;
    ///
    /// let mode = SamplingMode::simpoints_for(TraceWindow::new(150_000, 500_000));
    /// assert_eq!(
    ///     mode,
    ///     SamplingMode::SimPoints { interval: 25_000, max_clusters: 3, warmup: 0 }
    /// );
    /// ```
    pub fn simpoints_for(window: TraceWindow) -> Self {
        SamplingMode::SimPoints {
            interval: (window.simulate / 20).max(10_000),
            max_clusters: 3,
            warmup: 0,
        }
    }

    /// Parses the textual form campaign specs and `MICROLIB_SAMPLED` share:
    /// `"full"`, or `"interval/clusters"` / `"interval/clusters/warmup"`
    /// with a positive interval and cluster cap.
    ///
    /// # Errors
    ///
    /// A description of what is malformed.
    pub fn parse(s: &str) -> Result<Self, String> {
        if s == "full" {
            return Ok(SamplingMode::Full);
        }
        let mut parts = s.split('/');
        let parse = |part: Option<&str>| part.and_then(|p| p.parse::<u64>().ok());
        let (interval, max_clusters) = parse(parts.next())
            .zip(parse(parts.next()))
            .filter(|&(i, k)| i > 0 && k > 0)
            .ok_or_else(|| {
                format!("bad sampling spec {s:?} (want \"interval/clusters[/warmup]\")")
            })?;
        let warmup = match parts.next() {
            None => 0,
            Some(w) => w
                .parse::<u64>()
                .map_err(|_| format!("bad sampling warmup in {s:?}"))?,
        };
        if parts.next().is_some() {
            return Err(format!("bad sampling spec {s:?}"));
        }
        Ok(SamplingMode::SimPoints {
            interval,
            max_clusters: usize::try_from(max_clusters)
                .map_err(|_| format!("bad sampling cluster cap in {s:?}"))?,
            warmup,
        })
    }

    /// Whether this mode samples (anything but [`SamplingMode::Full`]).
    pub fn is_sampled(&self) -> bool {
        !matches!(self, SamplingMode::Full)
    }
}

/// Computes (or fetches) the sampling plan and runs one detailed slice per
/// representative interval, recombining the results. Called by
/// [`execute`](crate::execute) when the cell's options sample.
pub(crate) fn run_sampled(store: &ArtifactStore, cell: &Cell<'_>) -> Result<RunResult, SimError> {
    let (benchmark, opts) = (cell.benchmark, &cell.opts);
    let SamplingMode::SimPoints {
        interval,
        max_clusters,
        warmup,
    } = opts.sampling
    else {
        unreachable!("run_sampled requires a sampling mode");
    };
    let interval = interval.max(1);
    let max_clusters = max_clusters.max(1);
    let plan = store.sampling_plan(benchmark, opts.seed, opts.window, interval, max_clusters)?;

    let windows: Vec<TraceWindow> = plan.windows().map(|(w, _)| w).collect();
    let weights: Vec<f64> = plan.windows().map(|(_, weight)| weight).collect();
    // Prefix warm-up budget: 0 warms the whole prefix [0, skip); a
    // positive budget warms only the last `warmup` instructions before
    // the window (the gaps between slices are always warmed exactly).
    let warm_start = if warmup == 0 {
        0
    } else {
        opts.window.skip.saturating_sub(warmup)
    };

    if windows.len() == 1 && windows[0] == opts.window {
        // Degenerate single-slice plan (window too short to cluster):
        // run it exactly as a full simulation would (bit-identical).
        let result = simulate(store, cell, warm_start)?;
        return Ok(combine(cell.mechanism, opts, &plan, vec![(1.0, result)]));
    }

    let parts = simulate_sampled(store, cell, warm_start, &windows)?;
    let parts: Vec<(f64, RunResult)> = weights.into_iter().zip(parts).collect();
    Ok(combine(cell.mechanism, opts, &plan, parts))
}

/// Recombines per-slice measurements into one weighted whole-window
/// [`RunResult`]: every rate (CPI, misses per instruction, …) is the
/// cluster-weighted mean of the slice rates, scaled back to the window's
/// instruction count and rounded.
fn combine(
    label: MechanismKind,
    opts: &SimOptions,
    plan: &SamplingPlan,
    parts: Vec<(f64, RunResult)>,
) -> RunResult {
    debug_assert!(!parts.is_empty(), "a plan always has at least one point");
    let total = opts.window.simulate;
    // Per-part scale: weight × (window length / slice length). Multiplying
    // a slice counter by its scale and summing yields the whole-window
    // estimate of that counter.
    let scales: Vec<f64> = parts
        .iter()
        .map(|(w, r)| w * total as f64 / r.perf.instructions.max(1) as f64)
        .collect();
    let agg_u64 = |get: &dyn Fn(&RunResult) -> u64| -> u64 {
        parts
            .iter()
            .zip(&scales)
            .map(|((_, r), s)| get(r) as f64 * s)
            .sum::<f64>()
            .round() as u64
    };
    macro_rules! agg {
        ($($f:ident).+) => {
            agg_u64(&|r: &RunResult| r.$($f).+)
        };
    }
    macro_rules! agg_opt {
        ($outer:ident, $f:ident) => {
            agg_u64(&|r: &RunResult| r.$outer.map_or(0, |m| m.$f))
        };
    }

    let points: Vec<SampledPoint> = plan
        .points()
        .iter()
        .zip(&parts)
        .map(|(p, (_, r))| SampledPoint {
            interval: p.interval,
            weight: p.weight,
            cpi: r.perf.cycles as f64 / r.perf.instructions.max(1) as f64,
        })
        .collect();
    let estimate = SamplingEstimate::from_points(points);
    // Weighted CPI × instructions — identical to scaling each slice's
    // cycles (the scales factor out), stated once so perf and core agree.
    let cycles = (estimate.cpi * total as f64).round() as u64;

    let first = &parts[0].1;
    let core = CoreStats {
        committed: total,
        cycles,
        fetched: agg!(core.fetched),
        mispredict_stall_cycles: agg!(core.mispredict_stall_cycles),
        icache_stall_cycles: agg!(core.icache_stall_cycles),
        loads_forwarded: agg!(core.loads_forwarded),
        cache_reject_stalls: agg!(core.cache_reject_stalls),
        window_full_stalls: agg!(core.window_full_stalls),
        lsq_full_stalls: agg!(core.lsq_full_stalls),
        store_commit_stalls: agg!(core.store_commit_stalls),
    };
    RunResult {
        benchmark: first.benchmark,
        mechanism: label,
        perf: PerfSummary {
            instructions: total,
            cycles,
        },
        core,
        l1d: combine_cache(&agg_u64, &|r| &r.l1d),
        l1i: combine_cache(&agg_u64, &|r| &r.l1i),
        l2: combine_cache(&agg_u64, &|r| &r.l2),
        memory: MemoryStats {
            requests: agg!(memory.requests),
            total_latency: agg!(memory.total_latency),
            row_hits: agg!(memory.row_hits),
            precharges: agg!(memory.precharges),
            bus_busy_cycles: agg!(memory.bus_busy_cycles),
            queue_wait_cycles: agg!(memory.queue_wait_cycles),
        },
        mech_l1: first.mech_l1.is_some().then(|| MechanismStats {
            table_reads: agg_opt!(mech_l1, table_reads),
            table_writes: agg_opt!(mech_l1, table_writes),
            prefetches_requested: agg_opt!(mech_l1, prefetches_requested),
            prefetches_useful: agg_opt!(mech_l1, prefetches_useful),
            sidecar_hits: agg_opt!(mech_l1, sidecar_hits),
            sidecar_misses: agg_opt!(mech_l1, sidecar_misses),
            victims_captured: agg_opt!(mech_l1, victims_captured),
        }),
        mech_l2: first.mech_l2.is_some().then(|| MechanismStats {
            table_reads: agg_opt!(mech_l2, table_reads),
            table_writes: agg_opt!(mech_l2, table_writes),
            prefetches_requested: agg_opt!(mech_l2, prefetches_requested),
            prefetches_useful: agg_opt!(mech_l2, prefetches_useful),
            sidecar_hits: agg_opt!(mech_l2, sidecar_hits),
            sidecar_misses: agg_opt!(mech_l2, sidecar_misses),
            victims_captured: agg_opt!(mech_l2, victims_captured),
        }),
        queue_l1: first.queue_l1.is_some().then(|| PrefetchQueueStats {
            accepted: agg_opt!(queue_l1, accepted),
            discarded: agg_opt!(queue_l1, discarded),
            duplicates: agg_opt!(queue_l1, duplicates),
        }),
        queue_l2: first.queue_l2.is_some().then(|| PrefetchQueueStats {
            accepted: agg_opt!(queue_l2, accepted),
            discarded: agg_opt!(queue_l2, discarded),
            duplicates: agg_opt!(queue_l2, duplicates),
        }),
        hardware: first.hardware.clone(),
        sampling: Some(estimate),
    }
}

fn combine_cache(agg_u64: CounterAgg<'_>, get: &dyn Fn(&RunResult) -> &CacheStats) -> CacheStats {
    CacheStats {
        loads: agg_u64(&|r| get(r).loads),
        stores: agg_u64(&|r| get(r).stores),
        misses: agg_u64(&|r| get(r).misses),
        sidecar_hits: agg_u64(&|r| get(r).sidecar_hits),
        mshr_merges: agg_u64(&|r| get(r).mshr_merges),
        mshr_full_stalls: agg_u64(&|r| get(r).mshr_full_stalls),
        pipeline_stalls: agg_u64(&|r| get(r).pipeline_stalls),
        port_stalls: agg_u64(&|r| get(r).port_stalls),
        demand_fills: agg_u64(&|r| get(r).demand_fills),
        prefetch_fills: agg_u64(&|r| get(r).prefetch_fills),
        useful_prefetches: agg_u64(&|r| get(r).useful_prefetches),
        writebacks: agg_u64(&|r| get(r).writebacks),
        useless_prefetch_evictions: agg_u64(&|r| get(r).useless_prefetch_evictions),
    }
}
