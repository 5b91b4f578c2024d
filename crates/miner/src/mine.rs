//! The mining driver: walk a budgeted slice of config space, probe every
//! cell through both tiers, minimize the hits, and memoize per-cell
//! outcomes through the shared [`DiskCache`] so re-runs are incremental.

use crate::cliff::CliffRecord;
use crate::minimize::minimize;
use crate::probe::{perturb_from_env, probe, DEFAULT_MECHANISMS};
use crate::space::{sample_cell, ConfigDelta};
use microlib::{ArtifactStore, SimOptions};
use microlib_mech::MechanismKind;
use microlib_model::{CodecError, Decoder, Encoder};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The disk-cache class mined cell outcomes live under.
pub const MINE_CACHE_CLASS: &str = "mine";

/// Parameters of one mining run.
#[derive(Clone, Debug)]
pub struct MineConfig {
    /// Number of cells to sample.
    pub budget: usize,
    /// Relative speedup-divergence bound for
    /// [`CliffKind::Disagreement`](crate::probe::CliffKind::Disagreement).
    pub bound: f64,
    /// Base simulation options (seed, window) every cell starts from.
    pub base_opts: SimOptions,
    /// Mechanism set, Base first.
    pub mechanisms: Vec<MechanismKind>,
    /// Worker threads (0 = one per available core, capped at 8).
    pub threads: usize,
}

impl MineConfig {
    /// The standard mining run: 64 cells at bound 0.25 with the default
    /// mechanism set.
    pub fn standard(base_opts: SimOptions) -> Self {
        MineConfig {
            budget: 64,
            bound: 0.25,
            base_opts,
            mechanisms: DEFAULT_MECHANISMS.to_vec(),
            threads: 0,
        }
    }
}

/// What mining one cell concluded.
#[derive(Clone, Debug, PartialEq)]
pub enum CellOutcome {
    /// The tiers agree here.
    Consistent,
    /// Confirmed and minimized inconsistency.
    Cliff(Box<CliffRecord>),
    /// The cell could not be probed (e.g. a detailed-run timeout on a
    /// degenerate configuration); recorded so the failure is visible and
    /// memoized like any other outcome.
    Failed(String),
}

/// One mined cell.
#[derive(Clone, Debug)]
pub struct MinedCell {
    /// Cell index within the run's budget.
    pub index: usize,
    /// Sampled benchmark.
    pub benchmark: &'static str,
    /// Sampled config delta.
    pub delta: ConfigDelta,
    /// The conclusion.
    pub outcome: CellOutcome,
    /// Whether the outcome came from the disk cache.
    pub cached: bool,
}

/// A full mining run's results, in cell order.
#[derive(Debug)]
pub struct MineReport {
    /// Every cell, indexed by its sample number.
    pub cells: Vec<MinedCell>,
    /// Cells whose outcome was computed this run.
    pub computed: usize,
    /// Cells served from the disk cache.
    pub cached: usize,
}

impl MineReport {
    /// The confirmed cliff records, in cell order.
    pub fn cliffs(&self) -> Vec<&CliffRecord> {
        self.cells
            .iter()
            .filter_map(|c| match &c.outcome {
                CellOutcome::Cliff(r) => Some(r.as_ref()),
                _ => None,
            })
            .collect()
    }
}

/// The memo key for one cell: every input that can change its outcome,
/// including float bounds bit-exactly and any injected perturbation.
fn memo_key(cfg: &MineConfig, benchmark: &str, delta: &ConfigDelta, perturb: f64) -> String {
    let mechs = cfg
        .mechanisms
        .iter()
        .map(|m| m.to_string())
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "mine|{benchmark}|{}|seed={:#x}|skip={}|sim={}|bound={:016x}|mechs={mechs}|perturb={:016x}",
        delta.key(),
        cfg.base_opts.seed,
        cfg.base_opts.window.skip,
        cfg.base_opts.window.simulate,
        cfg.bound.to_bits(),
        perturb.to_bits(),
    )
}

impl CellOutcome {
    /// Encodes the outcome as its disk-cache payload (a cliff as its
    /// rendered record).
    pub fn encode(&self, enc: &mut Encoder) {
        match self {
            CellOutcome::Consistent => enc.put_u8(0),
            CellOutcome::Cliff(record) => {
                enc.put_u8(1);
                enc.put_str(&record.render());
            }
            CellOutcome::Failed(err) => {
                enc.put_u8(2);
                enc.put_str(err);
            }
        }
    }

    /// Decodes a payload written by [`CellOutcome::encode`].
    ///
    /// # Errors
    ///
    /// Truncated bytes, an unknown tag or an unparseable cliff record.
    pub fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match dec.take_u8()? {
            0 => Ok(CellOutcome::Consistent),
            1 => CliffRecord::parse(dec.take_str()?)
                .map(|r| CellOutcome::Cliff(Box::new(r)))
                .ok_or(CodecError::Invalid("cliff record")),
            2 => Ok(CellOutcome::Failed(dec.take_str()?.to_owned())),
            _ => Err(CodecError::Invalid("outcome tag")),
        }
    }
}

/// Probes + minimizes one cell (no caching). Cliffness is judged
/// relative to the benchmark's baseline cell, which is probed first (its
/// detailed runs are memoized, so the cost is shared across the run).
fn compute_cell(
    store: &ArtifactStore,
    cfg: &MineConfig,
    benchmark: &'static str,
    delta: &ConfigDelta,
) -> CellOutcome {
    let baseline = match probe(
        store,
        &ConfigDelta::default(),
        benchmark,
        &cfg.mechanisms,
        &cfg.base_opts,
    ) {
        Ok(outcome) => outcome,
        Err(e) => return CellOutcome::Failed(format!("baseline probe: {e}")),
    };
    let first = match probe(store, delta, benchmark, &cfg.mechanisms, &cfg.base_opts) {
        Ok(outcome) => outcome,
        Err(e) => return CellOutcome::Failed(e.to_string()),
    };
    if first.cliff_kind(&baseline, cfg.bound).is_none() {
        return CellOutcome::Consistent;
    }
    // A probe error during minimization counts as consistent: the
    // reversion is rejected and the knob stays in the delta.
    let minimal = minimize(delta, |candidate| {
        probe(store, candidate, benchmark, &cfg.mechanisms, &cfg.base_opts)
            .map(|o| o.cliff_kind(&baseline, cfg.bound).is_some())
            .unwrap_or(false)
    });
    let last = match probe(store, &minimal, benchmark, &cfg.mechanisms, &cfg.base_opts) {
        Ok(outcome) => outcome,
        Err(e) => return CellOutcome::Failed(e.to_string()),
    };
    let kind = last
        .cliff_kind(&baseline, cfg.bound)
        .expect("minimizer preserves the inconsistency");
    // Record the run's *base* window: a win knob in the delta scales the
    // measured slice on re-probe exactly as it did when mined, so the
    // repro line exports the base values, not the scaled ones.
    CellOutcome::Cliff(Box::new(CliffRecord::from_probe(
        benchmark,
        kind,
        &delta.key(),
        &minimal.key(),
        cfg.base_opts.seed,
        cfg.base_opts.window.skip,
        cfg.base_opts.window.simulate,
        cfg.bound,
        perturb_from_env(),
        baseline.max_rel_err,
        last.divergence_shift(&baseline),
        &last,
    )))
}

/// Mines one cell, going through the disk cache when available.
fn mine_cell(store: &ArtifactStore, cfg: &MineConfig, index: usize) -> MinedCell {
    let (benchmark, delta) = sample_cell(cfg.base_opts.seed, index as u64, &cfg.base_opts);
    let perturb = perturb_from_env();
    let key = memo_key(cfg, benchmark, &delta, perturb);
    if let Some(cache) = store.disk_cache() {
        if let Some(outcome) = cache.load_with(MINE_CACHE_CLASS, &key, CellOutcome::decode) {
            return MinedCell {
                index,
                benchmark,
                delta,
                outcome,
                cached: true,
            };
        }
    }
    let outcome = compute_cell(store, cfg, benchmark, &delta);
    if let Some(cache) = store.disk_cache() {
        cache.store_with(MINE_CACHE_CLASS, &key, usize::MAX, |enc| {
            outcome.encode(enc)
        });
    }
    MinedCell {
        index,
        benchmark,
        delta,
        outcome,
        cached: false,
    }
}

/// Runs a full mining campaign: samples `cfg.budget` cells, probes and
/// minimizes each, and returns the outcomes in cell order.
///
/// Cells are independent, so they fan out over `cfg.threads` workers;
/// result order (and therefore every derived artifact) depends only on
/// the cell index, never on scheduling.
pub fn mine(store: &ArtifactStore, cfg: &MineConfig) -> MineReport {
    let threads = if cfg.threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8)
    } else {
        cfg.threads
    }
    .max(1)
    .min(cfg.budget.max(1));

    let slots: Vec<Mutex<Option<MinedCell>>> = (0..cfg.budget).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let index = cursor.fetch_add(1, Ordering::Relaxed);
                if index >= cfg.budget {
                    break;
                }
                let cell = mine_cell(store, cfg, index);
                *slots[index].lock().expect("slot lock") = Some(cell);
            });
        }
    });

    let cells: Vec<MinedCell> = slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("slot lock").expect("cell mined"))
        .collect();
    let cached = cells.iter().filter(|c| c.cached).count();
    MineReport {
        computed: cells.len() - cached,
        cached,
        cells,
    }
}

/// Re-probes one cell from a `benchmark:delta` repro spec (the
/// `--mine-cell` flag) and returns the rendered evidence, or an error
/// string.
pub fn reprobe_cell(store: &ArtifactStore, spec: &str, cfg: &MineConfig) -> Result<String, String> {
    let (benchmark, delta_key) = spec
        .split_once(':')
        .ok_or_else(|| format!("bad --mine-cell spec {spec:?}: expected benchmark:delta"))?;
    let delta =
        ConfigDelta::parse(delta_key).ok_or_else(|| format!("bad delta key {delta_key:?}"))?;
    let baseline = probe(
        store,
        &ConfigDelta::default(),
        benchmark,
        &cfg.mechanisms,
        &cfg.base_opts,
    )
    .map_err(|e| e.to_string())?;
    let outcome = probe(store, &delta, benchmark, &cfg.mechanisms, &cfg.base_opts)
        .map_err(|e| e.to_string())?;
    let mut s = String::new();
    s.push_str(&format!("cell {benchmark}:{}\n", delta.key()));
    for p in &outcome.pairs {
        s.push_str(&format!(
            "  {:6} detailed cpi {:.4} speedup {:.4} | analytic cpi {:.4} speedup {:.4}\n",
            p.mechanism.to_string(),
            p.detailed_cpi,
            p.detailed_speedup,
            p.analytic_cpi,
            p.analytic_speedup
        ));
    }
    s.push_str(&format!(
        "  max-rel-err {:.4} (baseline {:.4}) verdict {}\n",
        outcome.max_rel_err,
        baseline.max_rel_err,
        match outcome.cliff_kind(&baseline, cfg.bound) {
            Some(kind) => kind.label(),
            None => "consistent",
        }
    ));
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use microlib_trace::TraceWindow;

    fn tiny_cfg() -> MineConfig {
        let base_opts = SimOptions {
            window: TraceWindow::new(1_000, 2_000),
            ..SimOptions::default()
        };
        MineConfig {
            budget: 4,
            threads: 2,
            ..MineConfig::standard(base_opts)
        }
    }

    #[test]
    fn outcomes_round_trip_through_the_codec() {
        let consistent = CellOutcome::Consistent;
        let failed = CellOutcome::Failed("timeout".into());
        for o in [&consistent, &failed] {
            let mut enc = Encoder::new();
            o.encode(&mut enc);
            let decoded = CellOutcome::decode(&mut Decoder::new(enc.as_bytes()));
            assert_eq!(decoded.ok().as_ref(), Some(o));
        }
    }

    #[test]
    fn memo_keys_separate_perturbed_runs() {
        let cfg = tiny_cfg();
        let delta = ConfigDelta::default();
        let a = memo_key(&cfg, "swim", &delta, 0.0);
        let b = memo_key(&cfg, "swim", &delta, 0.07);
        assert_ne!(a, b);
    }

    #[test]
    fn mining_is_deterministic_across_thread_counts() {
        let store = ArtifactStore::new();
        let mut cfg = tiny_cfg();
        cfg.threads = 1;
        let one = mine(&store, &cfg);
        cfg.threads = 4;
        let four = mine(&store, &cfg);
        let render = |r: &MineReport| {
            r.cells
                .iter()
                .map(|c| format!("{} {} {:?}", c.benchmark, c.delta.key(), c.outcome))
                .collect::<Vec<_>>()
        };
        assert_eq!(render(&one), render(&four));
    }

    #[test]
    fn reprobe_reports_a_verdict() {
        let store = ArtifactStore::new();
        let cfg = tiny_cfg();
        let text = reprobe_cell(&store, "swim:baseline", &cfg).unwrap();
        assert!(text.contains("verdict"));
        assert!(reprobe_cell(&store, "nonsense", &cfg).is_err());
    }
}
