//! The analytic tier's runner: a functional-warm measurement pass that
//! feeds cache counters into the closed-form [`CpiModel`] — no detailed
//! out-of-order core, no timing simulation.
//!
//! The pass replays the window's instructions through the *storage* model
//! only ([`MemorySystem::warm_inst`]): caches, mechanism tables and the
//! functional memory evolve exactly as a detailed run would leave them,
//! prefetch requests are applied functionally (so prefetchers still
//! differentiate), and the measured miss counters drive the latency stack.
//! The result is deterministic, orders of magnitude cheaper than detailed
//! simulation, and deliberately approximate — the differential
//! inconsistency miner (`crates/miner`) exists to find the configurations
//! where this approximation and the detailed simulator part ways.

use crate::artifacts::ArtifactStore;
use crate::simulator::{warmed_system, Cell, SimError, SimOptions, StatsSnapshot, Warmed};
use microlib_cost::{CpiBreakdown, CpiCounters, CpiModel};
use microlib_cpu::CoreStats;
use microlib_mech::MechanismKind;
use microlib_model::SystemConfig;
use std::sync::Arc;

/// One analytic-tier measurement: the counters observed over the window
/// and the CPI stack predicted from them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AnalyticResult {
    /// Benchmark name (static registry entry).
    pub benchmark: &'static str,
    /// Mechanism whose tables/prefetches shaped the counters.
    pub mechanism: MechanismKind,
    /// Counters measured over the simulated window.
    pub counters: CpiCounters,
    /// The predicted CPI stack.
    pub breakdown: CpiBreakdown,
}

impl AnalyticResult {
    /// The predicted cycles per instruction.
    pub fn cpi(&self) -> f64 {
        self.breakdown.total()
    }
}

/// Runs the analytic tier for one (configuration, mechanism, benchmark)
/// cell: functional warm over the skip prefix, a counter-measured
/// functional pass over the window (with prefetches applied), and the
/// [`CpiModel`] stack over the measured deltas.
///
/// The warm phase is the detailed tier's own prologue: the same shared
/// trace buffer, and for mechanisms whose warm-up is event-replayable the
/// same shared warm checkpoint, so both tiers start the window from
/// identical inputs by construction.
///
/// # Errors
///
/// [`SimError::UnknownBenchmark`] for unknown benchmarks,
/// [`SimError::Config`] for invalid configurations.
///
/// # Examples
///
/// ```
/// use microlib::{run_analytic, ArtifactStore, SimOptions};
/// use microlib_mech::MechanismKind;
/// use microlib_model::SystemConfig;
/// use microlib_trace::TraceWindow;
/// use std::sync::Arc;
///
/// let store = ArtifactStore::new();
/// let config = Arc::new(SystemConfig::baseline_constant_memory());
/// let opts = SimOptions {
///     window: TraceWindow::new(2_000, 4_000),
///     ..SimOptions::default()
/// };
/// let r = run_analytic(&store, &config, MechanismKind::Sp, "swim", &opts)?;
/// assert!(r.cpi() > 0.0);
/// # Ok::<(), microlib::SimError>(())
/// ```
pub fn run_analytic(
    store: &ArtifactStore,
    config: &Arc<SystemConfig>,
    mechanism: MechanismKind,
    benchmark: &str,
    opts: &SimOptions,
) -> Result<AnalyticResult, SimError> {
    // The analytic tier never runs the detailed load path, so the value
    // integrity checker has nothing to verify.
    let opts = SimOptions {
        check_values: false,
        ..*opts
    };
    let cell = Cell::new(Arc::clone(config), mechanism, benchmark, opts);
    let Warmed {
        benchmark,
        mut mem,
        mut stream,
        ..
    } = warmed_system(store, &cell, 0, opts.window.end())?;

    // Measured window: prefetches now apply functionally, so prefetching
    // mechanisms shape the miss counters the way a continuous detailed
    // run would let them.
    mem.set_warm_prefetch_fill(true);
    let before = StatsSnapshot::capture(CoreStats::default(), &mem);
    let mut instructions = 0u64;
    for _ in 0..opts.window.simulate {
        let Some(inst) = stream.next() else { break };
        mem.warm_inst(inst.pc, inst.warm_mem_ref());
        instructions += 1;
    }
    let d = before.delta_from(&StatsSnapshot::capture(CoreStats::default(), &mem));

    let counters = CpiCounters {
        instructions,
        data_accesses: d.l1d.loads + d.l1d.stores,
        l1d_misses: d.l1d.misses,
        sidecar_hits: d.l1d.sidecar_hits,
        l1i_misses: d.l1i.misses,
        l2_misses: d.l2.misses,
    };
    let breakdown = CpiModel::for_config(config).predict(&counters);
    Ok(AnalyticResult {
        benchmark,
        mechanism,
        counters,
        breakdown,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use microlib_trace::TraceWindow;

    fn opts(skip: u64, sim: u64) -> SimOptions {
        SimOptions {
            window: TraceWindow::new(skip, sim),
            ..SimOptions::default()
        }
    }

    #[test]
    fn analytic_run_produces_positive_cpi() {
        let store = ArtifactStore::new();
        let config = Arc::new(SystemConfig::baseline_constant_memory());
        let r = run_analytic(
            &store,
            &config,
            MechanismKind::Base,
            "swim",
            &opts(1_000, 4_000),
        )
        .unwrap();
        assert_eq!(r.counters.instructions, 4_000);
        assert!(r.cpi() > 0.0);
        assert!(r.counters.data_accesses > 0, "swim streams data");
    }

    #[test]
    fn unknown_benchmark_is_an_error() {
        let store = ArtifactStore::new();
        let config = Arc::new(SystemConfig::baseline());
        let e =
            run_analytic(&store, &config, MechanismKind::Base, "doom", &opts(0, 100)).unwrap_err();
        assert!(matches!(e, SimError::UnknownBenchmark(_)));
    }

    #[test]
    fn fresh_and_grown_stores_agree_bit_for_bit() {
        let fresh = ArtifactStore::new();
        // A buffer another request already grew past this window.
        let grown = ArtifactStore::new();
        grown
            .trace("mcf", SimOptions::default().seed, 50_000)
            .unwrap();
        let config = Arc::new(SystemConfig::baseline_constant_memory());
        let a = run_analytic(
            &fresh,
            &config,
            MechanismKind::Ghb,
            "mcf",
            &opts(2_000, 3_000),
        )
        .unwrap();
        let b = run_analytic(
            &grown,
            &config,
            MechanismKind::Ghb,
            "mcf",
            &opts(2_000, 3_000),
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn prefetcher_counters_differ_from_base() {
        let store = ArtifactStore::new();
        let config = Arc::new(SystemConfig::baseline_constant_memory());
        let base = run_analytic(
            &store,
            &config,
            MechanismKind::Base,
            "swim",
            &opts(2_000, 8_000),
        )
        .unwrap();
        let sp = run_analytic(
            &store,
            &config,
            MechanismKind::Sp,
            "swim",
            &opts(2_000, 8_000),
        )
        .unwrap();
        // The stride prefetcher must visibly change swim's miss profile:
        // functionally applied prefetches land in the L2, covering part of
        // the memory traffic.
        assert_ne!(base.counters, sp.counters);
        assert!(
            sp.counters.l2_misses < base.counters.l2_misses,
            "SP should cover strided L2 misses: {} vs {}",
            sp.counters.l2_misses,
            base.counters.l2_misses
        );
        assert!(sp.cpi() < base.cpi());
    }

    #[test]
    fn repeated_runs_are_bit_identical() {
        let store = ArtifactStore::new();
        let config = Arc::new(SystemConfig::baseline());
        let a = run_analytic(
            &store,
            &config,
            MechanismKind::Tkvc,
            "gcc",
            &opts(1_500, 3_000),
        )
        .unwrap();
        let b = run_analytic(
            &store,
            &config,
            MechanismKind::Tkvc,
            "gcc",
            &opts(1_500, 3_000),
        )
        .unwrap();
        assert_eq!(a, b);
        assert_eq!(a.cpi().to_bits(), b.cpi().to_bits());
    }
}
