//! The shared-artifact store: one home for everything a simulation run
//! needs that does not depend on the mechanism under study.
//!
//! A (benchmark × mechanism) campaign repeats several expensive,
//! mechanism-independent computations for every cell: generating the
//! instruction stream, replaying the functional warmup, choosing the
//! SimPoints of a sampled window, and — across experiments —
//! re-simulating cells another sweep already produced. An
//! [`ArtifactStore`] computes each once and shares it:
//!
//! - **traces** ([`TraceBuffer`]): keyed by (benchmark, seed), grown to
//!   the longest window requested so far, replayed by every cell through
//!   a zero-copy cursor;
//! - **warm states** ([`WarmState`]): keyed by (benchmark, seed, skip,
//!   warm start, configuration), the mechanism-independent cache/memory
//!   checkpoint plus the recorded mechanism-visible event log (see
//!   [`microlib_mem::capture_warm_state`]);
//! - **sampling plans** ([`SamplingPlan`]): keyed by (benchmark, seed,
//!   region, interval, cluster cap) — the BBV profile + clustering of a
//!   sampled window, computed once per benchmark and reused by every
//!   mechanism column;
//! - **cell results** ([`RunResult`]): memoized by full content key
//!   ([`Cell::key`](crate::Cell::key): benchmark, mechanism, seed, window,
//!   options — including the sampling mode — configuration and, for
//!   custom mechanisms, the variant tag), so re-sweeps and overlapping
//!   experiments get identical cells for free.
//!
//! All four classes live in the same keyed tier: one slot per key, whose
//! mutex is the single-flight gate. The first requester of a key computes
//! under the slot lock; a concurrent same-key requester waits on that lock
//! and then reads the result, while requests for other keys proceed in
//! parallel. A cell whose computation fails or panics leaves its slot
//! empty and drops it, so a waiter retries the cell itself.
//!
//! Sharing never changes results: replayed traces are
//! instruction-for-instruction identical to streamed ones, warm replay
//! reproduces the exact per-mechanism warm effects for mechanisms that
//! opt in (others keep the full warm path), and the memo key covers every
//! input a run depends on. `tests/artifacts.rs` asserts equality for all
//! thirteen study mechanisms, cold vs shared.
//!
//! Every simulation runs through a store: a single cell on a fresh one
//! ([`run_one`](crate::run_one)) is its warm key's first requester and
//! takes the exact full warm path over the replayed trace.
//!
//! # The on-disk tier
//!
//! A store can additionally carry a persistent
//! [`DiskCache`](crate::DiskCache) tier
//! ([`with_disk_cache`](ArtifactStore::with_disk_cache), or
//! `MICROLIB_CACHE_DIR` via [`from_env`](ArtifactStore::from_env)).
//! Result memos, sampling plans and warm-state checkpoints are then
//! written through to disk as they are computed and served from disk by
//! later processes; traces stay memory-only (they regenerate faster than
//! they deserialize). Each memo file is written atomically the moment its
//! cell completes, so the memo directory doubles as a **resume journal**:
//! a killed campaign restarts and recomputes only the cells whose files
//! are missing. Corrupt, truncated or version-mismatched entries are
//! detected (checksums + embedded keys) and silently recomputed.

use crate::disk::DiskCache;
use crate::lease::{quarantined_error, Claim, LeaseManager};
use crate::shard::ShardSpec;
use crate::simulator::{RunResult, SimError};
use microlib_mem::{capture_warm_state, FunctionalMemory, WarmState};
use microlib_model::codec::BinCodec;
use microlib_model::SystemConfig;
use microlib_trace::{benchmarks, SamplingPlan, TraceBuffer, TraceWindow, Workload};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, TryLockError};
use std::time::{Duration, Instant};

/// A stable identity string for a [`SystemConfig`]: every field, via the
/// `Debug` rendering (exhaustive by construction — new fields show up
/// automatically). Used as the configuration component of warm-state and
/// memo keys.
pub fn config_key(config: &SystemConfig) -> String {
    format!("{config:?}")
}

/// Largest encoded warm state (bytes) the disk tier persists: 8 MiB.
/// Small-window warm states (the CI regime) fit comfortably; the
/// multi-ten-MB event logs of article-scale warm phases are cheaper to
/// re-record than to store per configuration.
const WARM_DISK_CAP: usize = 8 << 20;

/// Locks `m`, recovering the data of a lock poisoned by a panicking
/// holder: every slot is valid at any point a computation can unwind.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

fn read(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

/// One artifact class: a slot per key — its mutex is the key's
/// single-flight gate — plus the class's hit, miss and disk-hit counters.
#[derive(Default)]
struct Tier<K, S> {
    slots: Mutex<HashMap<K, Arc<Mutex<S>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    disk_hits: AtomicU64,
}

impl<K: Hash + Eq, S: Default> Tier<K, S> {
    /// The slot for `key`, created empty on first request. The key is
    /// only copied when a slot is created.
    fn slot<Q>(&self, key: &Q) -> Arc<Mutex<S>>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ToOwned<Owned = K> + ?Sized,
    {
        let mut slots = lock(&self.slots);
        match slots.get(key) {
            Some(slot) => Arc::clone(slot),
            None => Arc::clone(slots.entry(key.to_owned()).or_default()),
        }
    }
}

/// The trace slot of one (benchmark, seed): its workload and the longest
/// buffer captured so far.
type TraceState = Option<(Arc<Workload>, Arc<TraceBuffer>)>;

/// Capture gate for one warm key: the first requester is told to take
/// the (equally priced) full warm path; the capture — which costs roughly
/// one extra warm phase plus the event log — only happens once a second
/// requester proves the state will actually be reused.
#[derive(Default)]
struct WarmGate {
    requests: u32,
    state: Option<Arc<WarmState>>,
    /// Approximate resident footprint of `state` (0 when empty), counted
    /// against the store-wide resident byte budget.
    bytes: usize,
    /// LRU stamp: the store-wide tick of the most recent request that
    /// touched this gate's state.
    last_used: u64,
}

/// (benchmark, seed, skip, warm start, configuration key) — see
/// [`config_key`].
type WarmKey = (&'static str, u64, u64, u64, String);

/// (benchmark, seed, region skip, region simulate, interval, max clusters).
type PlanKey = (&'static str, u64, u64, u64, u64, usize);

/// Hit/miss counters for the four artifact classes (observability; the
/// numbers are reported by `run_all` on stderr).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArtifactStoreStats {
    /// Trace requests served from a shared buffer.
    pub trace_hits: u64,
    /// Trace requests that had to build (or extend) a buffer.
    pub trace_misses: u64,
    /// Warm-state requests served from a shared checkpoint.
    pub warm_hits: u64,
    /// Warm-state requests that had to run a recording warm phase.
    pub warm_misses: u64,
    /// First-time warm-state requests declined (capture deferred until a
    /// second requester proves reuse).
    pub warm_declined: u64,
    /// Sampling-plan requests served from a shared plan.
    pub plan_hits: u64,
    /// Sampling-plan requests that had to profile and cluster.
    pub plan_misses: u64,
    /// Cell results served from the in-memory memo cache.
    pub memo_hits: u64,
    /// Cell results that had to simulate.
    pub memo_misses: u64,
    /// Cell results served from the on-disk tier (a RAM miss that decoded
    /// a valid disk entry; **not** counted in `memo_misses`).
    pub memo_disk_hits: u64,
    /// Sampling plans served from the on-disk tier.
    pub plan_disk_hits: u64,
    /// Warm states served from the on-disk tier.
    pub warm_disk_hits: u64,
    /// Cells this process claimed (and computed) through the lease layer.
    pub lease_claims: u64,
    /// Cells this process waited out instead of computing: another
    /// worker held the lease (or owned the shard) and the memo arrived.
    pub lease_waits: u64,
    /// Cells refused because they were quarantined (crashed too many
    /// consecutive claimers).
    pub cells_quarantined: u64,
    /// Same-key cell requests that found the cell's memo slot locked —
    /// in practice, by a leader computing the cell in this process — and
    /// waited for the leader's memo instead of re-simulating (in-process
    /// single-flight).
    pub memo_coalesced: u64,
    /// Resident warm states dropped to respect the byte cap set by
    /// [`ArtifactStore::set_warm_resident_cap`].
    pub warm_evictions: u64,
}

impl ArtifactStoreStats {
    /// Cells that had to simulate — zero means every requested cell came
    /// from memory or disk (the resume / warm-cache fast path).
    pub fn cells_recomputed(&self) -> u64 {
        self.memo_misses
    }
}

/// Shared, thread-safe store of mechanism-independent simulation
/// artifacts (see the module docs).
///
/// # Examples
///
/// ```
/// use microlib::{execute, ArtifactStore, Cell, SimOptions};
/// use microlib_mech::MechanismKind;
/// use microlib_model::SystemConfig;
/// use microlib_trace::TraceWindow;
/// use std::sync::Arc;
///
/// let store = ArtifactStore::new();
/// let config = Arc::new(SystemConfig::baseline_constant_memory());
/// let opts = SimOptions {
///     window: TraceWindow::new(2_000, 1_000),
///     ..SimOptions::default()
/// };
/// let cell = Cell::new(config, MechanismKind::Ghb, "swim", opts);
/// let a = execute(&store, &cell)?;
/// // Identical request: served from the memo cache, same result.
/// let b = execute(&store, &cell)?;
/// assert_eq!(a.perf, b.perf);
/// assert_eq!(store.stats().memo_hits, 1);
/// # Ok::<(), microlib::SimError>(())
/// ```
pub struct ArtifactStore {
    disk: Option<DiskCache>,
    lease: Option<LeaseManager>,
    /// This process's shard and its steal grace (see
    /// [`with_shard`](Self::with_shard)).
    shard: Option<(ShardSpec, Duration)>,
    traces: Tier<(&'static str, u64), TraceState>,
    warm: Tier<WarmKey, WarmGate>,
    plans: Tier<PlanKey, Option<Arc<SamplingPlan>>>,
    memo: Tier<String, Option<Arc<RunResult>>>,
    /// Resident warm-state budget in bytes (`u64::MAX` = unbounded).
    warm_cap: AtomicU64,
    /// Approximate bytes currently held by resident warm states.
    warm_bytes: AtomicU64,
    /// Monotone tick stamping warm-state recency for LRU eviction.
    warm_tick: AtomicU64,
    counts: Counts,
}

/// The counters outside the tiers' hit/miss/disk-hit triples (see
/// [`ArtifactStoreStats`]).
#[derive(Default)]
struct Counts {
    warm_declined: AtomicU64,
    warm_evictions: AtomicU64,
    memo_coalesced: AtomicU64,
    lease_claims: AtomicU64,
    lease_waits: AtomicU64,
    cells_quarantined: AtomicU64,
}

impl std::fmt::Debug for ArtifactStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactStore")
            .field("disk", &self.disk.as_ref().map(|d| d.root()))
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl Default for ArtifactStore {
    fn default() -> Self {
        Self::new()
    }
}

impl ArtifactStore {
    /// An empty, memory-only store.
    pub fn new() -> Self {
        ArtifactStore {
            disk: None,
            lease: None,
            shard: None,
            traces: Tier::default(),
            warm: Tier::default(),
            plans: Tier::default(),
            memo: Tier::default(),
            warm_cap: AtomicU64::new(u64::MAX),
            warm_bytes: AtomicU64::default(),
            warm_tick: AtomicU64::default(),
            counts: Counts::default(),
        }
    }

    /// Attaches a persistent on-disk tier rooted at `dir`: result memos,
    /// sampling plans and warm states are written through as they are
    /// computed and served from disk across processes (see the module
    /// docs).
    pub fn with_disk_cache(mut self, dir: impl Into<PathBuf>) -> Self {
        self.disk = Some(DiskCache::new(dir));
        self
    }

    /// The on-disk tier, if one is attached.
    pub fn disk_cache(&self) -> Option<&DiskCache> {
        self.disk.as_ref()
    }

    /// Attaches a [`LeaseManager`]: memoized cells are then claimed
    /// through first-writer-wins lease files before simulation, so
    /// concurrent processes sharing the disk tier each compute a cell at
    /// most once (see the [`crate::LeaseManager`] docs for the protocol,
    /// crash recovery and quarantine). Only meaningful together with a
    /// disk tier rooted at the same directory.
    pub fn with_lease_manager(mut self, lease: LeaseManager) -> Self {
        self.lease = Some(lease);
        self
    }

    /// Sets this process's shard: memo misses on cells *another* shard
    /// owns first wait out a grace period (`MICROLIB_STEAL_GRACE_MS`,
    /// default 1500 ms, read here) for the owner's memo before claiming
    /// the cell themselves — the partition steers work while the lease
    /// layer keeps it correct and live (see [`ShardSpec`]).
    pub fn with_shard(mut self, shard: ShardSpec) -> Self {
        let grace_ms = std::env::var("MICROLIB_STEAL_GRACE_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(1_500);
        self.shard = Some((shard, Duration::from_millis(grace_ms)));
        self
    }

    /// A store with an on-disk tier at `MICROLIB_CACHE_DIR` when that is
    /// set to a path (unset, empty, `off`, `0` and `false` mean
    /// memory-only). When the disk tier is active and multi-process
    /// coordination is requested — `MICROLIB_SHARD` is set, or
    /// `MICROLIB_LEASE` is `on`/`1`/`true` — the store also claims cells
    /// through lease files in the cache dir.
    pub fn from_env() -> Self {
        let mut store = Self::new();
        if let Some(dir) = Self::cache_dir_from_env() {
            store = store.with_disk_cache(dir.clone());
            let shard = ShardSpec::from_env();
            let lease_on = matches!(
                std::env::var("MICROLIB_LEASE").as_deref(),
                Ok("on" | "1" | "true")
            );
            if shard.is_some() || lease_on {
                store = store.with_lease_manager(LeaseManager::new(dir));
                if let Some(shard) = shard {
                    store = store.with_shard(shard);
                }
            }
        }
        store
    }

    /// The disk-cache directory `MICROLIB_CACHE_DIR` requests, if any.
    pub fn cache_dir_from_env() -> Option<PathBuf> {
        match std::env::var("MICROLIB_CACHE_DIR") {
            Ok(dir) if !matches!(dir.as_str(), "" | "off" | "0" | "false") => {
                Some(PathBuf::from(dir))
            }
            _ => None,
        }
    }

    /// Hit/miss counters accumulated so far.
    pub fn stats(&self) -> ArtifactStoreStats {
        let counts = &self.counts;
        ArtifactStoreStats {
            trace_hits: read(&self.traces.hits),
            trace_misses: read(&self.traces.misses),
            warm_hits: read(&self.warm.hits),
            warm_misses: read(&self.warm.misses),
            warm_declined: read(&counts.warm_declined),
            plan_hits: read(&self.plans.hits),
            plan_misses: read(&self.plans.misses),
            memo_hits: read(&self.memo.hits),
            memo_misses: read(&self.memo.misses),
            memo_disk_hits: read(&self.memo.disk_hits),
            plan_disk_hits: read(&self.plans.disk_hits),
            warm_disk_hits: read(&self.warm.disk_hits),
            lease_claims: read(&counts.lease_claims),
            lease_waits: read(&counts.lease_waits),
            cells_quarantined: read(&counts.cells_quarantined),
            memo_coalesced: read(&counts.memo_coalesced),
            warm_evictions: read(&counts.warm_evictions),
        }
    }

    /// The shared workload and trace buffer for `(benchmark, seed)`,
    /// covering at least `min_len` instructions. The buffer is built on
    /// first use and regenerated (longer) when a caller needs more than
    /// any previous one; existing replay cursors keep their `Arc` to the
    /// old buffer and are unaffected. The workload itself comes from
    /// [`Workload::shared`], so its layout is paid once per process, not
    /// once per store.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownBenchmark`] if `benchmark` is not in the
    /// registry.
    pub fn trace(
        &self,
        benchmark: &str,
        seed: u64,
        min_len: u64,
    ) -> Result<(Arc<Workload>, Arc<TraceBuffer>), SimError> {
        let profile = benchmarks::by_name(benchmark)
            .ok_or_else(|| SimError::UnknownBenchmark(benchmark.to_owned()))?;
        let slot = self.traces.slot(&(profile.name, seed));
        let mut state = lock(&slot);
        if let Some((workload, buffer)) = state.as_ref() {
            if buffer.len() >= min_len {
                bump(&self.traces.hits);
                return Ok((Arc::clone(workload), Arc::clone(buffer)));
            }
        }
        bump(&self.traces.misses);
        let workload = match state.take() {
            Some((workload, _short)) => workload,
            None => Workload::shared(profile, seed),
        };
        let buffer = Arc::new(TraceBuffer::capture(&workload, min_len));
        *state = Some((Arc::clone(&workload), Arc::clone(&buffer)));
        Ok((workload, buffer))
    }

    /// The shared warm state for `(benchmark, seed, skip, warm_start)`
    /// under `config`: the mechanism-independent checkpoint plus the
    /// recorded warm event log. `warm_start` is `0` for full-prefix warm
    /// (every full-mode run); sampled runs with a bounded warm-up budget
    /// key their truncated warm phases separately.
    ///
    /// Returns `Ok(None)` for the *first* request of a key — capturing
    /// costs roughly one extra warm phase, so the store only records once
    /// a second requester proves the state is reused; the first caller
    /// runs its (equally priced) full warm phase instead. From the second
    /// request on, the state is captured once and served shared.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownBenchmark`] for unknown benchmarks,
    /// [`SimError::Config`] for invalid configurations.
    pub fn warm_state(
        &self,
        benchmark: &str,
        seed: u64,
        skip: u64,
        warm_start: u64,
        config: &Arc<SystemConfig>,
    ) -> Result<Option<Arc<WarmState>>, SimError> {
        config.validate()?;
        let warm_start = warm_start.min(skip);
        let (workload, buffer) = self.trace(benchmark, seed, skip)?;
        let key = (
            buffer.benchmark(),
            seed,
            skip,
            warm_start,
            config_key(config),
        );
        let slot = self.warm.slot(&key);
        let mut gate = lock(&slot);
        if let Some(state) = gate.state.clone() {
            bump(&self.warm.hits);
            gate.last_used = self.warm_tick.fetch_add(1, Ordering::Relaxed);
            return Ok(Some(state));
        }
        // The disk key is only built when a disk tier exists: most warm
        // requests resolve in memory (hit, or first-requester decline), and
        // the formatting must cost nothing there.
        let disk = self.disk.as_ref().map(|disk| {
            let (benchmark, _, _, _, ckey) = &key;
            let disk_key =
                format!("{benchmark}|seed={seed:#x}|skip={skip}|start={warm_start}|{ckey}");
            (disk, disk_key)
        });
        // Warm entries encode the functional memory as a delta against the
        // workload's initial image, regenerated on demand (cheap: the
        // workload keeps a prebuilt copy-on-write image).
        let base = || {
            let mut base = FunctionalMemory::new();
            workload.initialize(&mut base);
            base
        };
        // A disk hit short-circuits the capture gate entirely: the state
        // was already earned by an earlier process.
        let loaded = disk.as_ref().and_then(|(disk, key)| {
            disk.load_with("warm", key, |d| WarmState::decode(d, config, &base()))
        });
        let state = match loaded {
            Some(state) => {
                bump(&self.warm.disk_hits);
                Arc::new(state)
            }
            None => {
                gate.requests += 1;
                if gate.requests < 2 {
                    bump(&self.counts.warm_declined);
                    return Ok(None);
                }
                bump(&self.warm.misses);
                let insts = TraceBuffer::replay_from(&buffer, warm_start)
                    .take((skip - warm_start) as usize)
                    .map(|inst| (inst.pc, inst.warm_mem_ref()));
                let state = Arc::new(
                    capture_warm_state(Arc::clone(config), |fm| workload.initialize(fm), insts)
                        .expect("configuration validated above"),
                );
                // Long warm phases produce multi-ten-MB event logs whose
                // disk round trip is worth less than the space: persist
                // only entries under the cap (memos and plans — the
                // artifacts that make re-runs incremental — are never
                // capped).
                if let Some((disk, key)) = &disk {
                    let base = base();
                    disk.store_with("warm", key, WARM_DISK_CAP, |e| state.encode(&base, e));
                }
                state
            }
        };
        gate.bytes = state.resident_bytes();
        gate.last_used = self.warm_tick.fetch_add(1, Ordering::Relaxed);
        gate.state = Some(Arc::clone(&state));
        self.warm_bytes
            .fetch_add(gate.bytes as u64, Ordering::Relaxed);
        drop(gate);
        self.enforce_warm_cap();
        Ok(Some(state))
    }

    /// Caps the bytes of warm states kept resident between requests:
    /// least-recently-used states are dropped (their capture gates stay
    /// armed, so a later request re-captures immediately) until the
    /// estimate fits. `u64::MAX` — the default — disables eviction.
    /// Long-lived processes (the `microlib-serve` daemon sets this from
    /// `MICROLIB_SERVE_RESIDENT_MB`) use it to bound steady-state RSS.
    pub fn set_warm_resident_cap(&self, bytes: u64) {
        self.warm_cap.store(bytes, Ordering::Relaxed);
        self.enforce_warm_cap();
    }

    /// Approximate bytes currently held by resident warm states.
    pub fn warm_resident_bytes(&self) -> u64 {
        read(&self.warm_bytes)
    }

    /// Evicts least-recently-used warm states until the resident estimate
    /// fits the cap. Gates locked by a concurrent requester are skipped
    /// via `try_lock` — they are in active use (the opposite of an LRU
    /// victim), and skipping them keeps this free of lock-order cycles
    /// with `warm_state`, which calls in while holding its own gate.
    fn enforce_warm_cap(&self) {
        let cap = read(&self.warm_cap);
        if read(&self.warm_bytes) <= cap {
            return;
        }
        let gates: Vec<Arc<Mutex<WarmGate>>> = lock(&self.warm.slots).values().cloned().collect();
        let mut candidates: Vec<(u64, Arc<Mutex<WarmGate>>)> = Vec::new();
        for gate in gates {
            if let Ok(g) = gate.try_lock() {
                if g.state.is_some() {
                    candidates.push((g.last_used, Arc::clone(&gate)));
                }
            }
        }
        candidates.sort_by_key(|(last_used, _)| *last_used);
        for (_, gate) in candidates {
            if read(&self.warm_bytes) <= cap {
                break;
            }
            if let Ok(mut g) = gate.try_lock() {
                if g.state.take().is_some() {
                    self.warm_bytes.fetch_sub(g.bytes as u64, Ordering::Relaxed);
                    g.bytes = 0;
                    bump(&self.counts.warm_evictions);
                }
            }
        }
    }

    /// The shared sampling plan for a window of `benchmark`: the BBV
    /// profile + clustering of [`SamplingPlan::profile`], computed once
    /// per (benchmark, seed, region, interval, cluster cap) and reused by
    /// every mechanism column of a sampled sweep.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownBenchmark`] if `benchmark` is not in the
    /// registry.
    pub fn sampling_plan(
        &self,
        benchmark: &str,
        seed: u64,
        region: TraceWindow,
        interval: u64,
        max_clusters: usize,
    ) -> Result<Arc<SamplingPlan>, SimError> {
        let (_workload, buffer) = self.trace(benchmark, seed, region.end())?;
        let benchmark = buffer.benchmark();
        let slot = self.plans.slot(&(
            benchmark,
            seed,
            region.skip,
            region.simulate,
            interval,
            max_clusters,
        ));
        let mut state = lock(&slot);
        if let Some(plan) = state.as_ref() {
            bump(&self.plans.hits);
            return Ok(Arc::clone(plan));
        }
        let disk_key = format!(
            "{benchmark}|seed={seed:#x}|region={}+{}|interval={interval}|k={max_clusters}",
            region.skip, region.simulate,
        );
        let loaded = self
            .disk
            .as_ref()
            .and_then(|disk| disk.load_with("plan", &disk_key, SamplingPlan::decode));
        let plan = match loaded {
            Some(plan) => {
                bump(&self.plans.disk_hits);
                plan
            }
            None => {
                bump(&self.plans.misses);
                let plan = SamplingPlan::profile(
                    TraceBuffer::replay(&buffer),
                    region,
                    interval,
                    max_clusters,
                    seed,
                );
                if let Some(disk) = &self.disk {
                    disk.store_with("plan", &disk_key, usize::MAX, |e| plan.encode(e));
                }
                plan
            }
        };
        Ok(Arc::clone(state.insert(Arc::new(plan))))
    }

    /// Drops all cached warm states (the largest artifacts). Long-lived
    /// stores — `run_all` keeps one across the whole battery — call this
    /// between experiments: warm states only pay off *within* a sweep,
    /// while traces and the result memo stay useful across experiments
    /// and are kept.
    pub fn clear_warm_states(&self) {
        lock(&self.warm.slots).clear();
        self.warm_bytes.store(0, Ordering::Relaxed);
    }

    /// Resolves a memoized cell: its memo, else — as the key's leader —
    /// its disk journal entry or a fresh computation, journaled at once.
    /// With a lease manager attached the leader claims the cell's lease
    /// first, so across concurrent processes each cell is computed at
    /// most once.
    ///
    /// The key's slot lock is the in-process single-flight: a same-key
    /// request that finds it held counts `memo_coalesced`, waits, and then
    /// reads the leader's result as a hit, so N concurrent requests cost
    /// one lease claim and one simulation. A leader whose computation
    /// fails or panics drops its empty slot; a waiter that wakes to it
    /// goes back to the map and leads the cell itself. `memo_misses` (the
    /// "cells recomputed" number) counts actual computations only.
    ///
    /// `describe` yields the cell label and repro hint of the lease
    /// layer's quarantine reports; a panic unwinding out of `compute`
    /// abandons the claim (counting toward quarantine) before resuming.
    pub(crate) fn memo_run(
        &self,
        key: &str,
        benchmark: &str,
        describe: impl FnOnce() -> (String, String),
        compute: impl FnOnce() -> Result<RunResult, SimError>,
    ) -> Result<Arc<RunResult>, SimError> {
        loop {
            let slot = self.memo.slot(key);
            let mut memo = match slot.try_lock() {
                Ok(memo) => memo,
                Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
                Err(TryLockError::WouldBlock) => {
                    bump(&self.counts.memo_coalesced);
                    lock(&slot)
                }
            };
            if let Some(hit) = memo.as_ref() {
                bump(&self.memo.hits);
                return Ok(Arc::clone(hit));
            }
            // An empty slot the map no longer holds is a failed leader's:
            // a result stored there would land outside the map.
            let current = lock(&self.memo.slots)
                .get(key)
                .is_some_and(|held| Arc::ptr_eq(held, &slot));
            if !current {
                continue;
            }
            let led = catch_unwind(AssertUnwindSafe(|| {
                self.memo_lead(key, benchmark, describe, compute)
            }));
            return match led {
                Ok(Ok(result)) => Ok(Arc::clone(memo.insert(result))),
                failed => {
                    lock(&self.memo.slots).remove(key);
                    drop(memo);
                    failed.unwrap_or_else(|panic| resume_unwind(panic))
                }
            };
        }
    }

    /// A memo leader's path past the in-memory miss: the disk journal,
    /// else the computation, journaled at once. With a lease manager the
    /// leader first runs the claim loop of the [`LeaseManager`] docs,
    /// waiting out other processes' leases (and, for cells another shard
    /// owns, the steal grace) until the memo appears or the claim is ours.
    fn memo_lead(
        &self,
        key: &str,
        benchmark: &str,
        describe: impl FnOnce() -> (String, String),
        compute: impl FnOnce() -> Result<RunResult, SimError>,
    ) -> Result<Arc<RunResult>, SimError> {
        let journaled = || {
            let result = self
                .disk
                .as_ref()?
                .load_with("memo", key, RunResult::decode)?;
            bump(&self.memo.disk_hits);
            Some(Arc::new(result))
        };
        let mut lease = None;
        if let Some(manager) = &self.lease {
            let (cell, repro) = describe();
            let started = Instant::now();
            let mut waited = false;
            let mut poll = Duration::from_millis(5);
            let poll_cap =
                std::cmp::max(poll, Duration::from_millis(200).min(manager.timeout() / 3));
            lease = loop {
                if let Some(hit) = journaled() {
                    if waited {
                        bump(&self.counts.lease_waits);
                    }
                    return Ok(hit);
                }
                // Shard steering: give the owning shard a grace period to
                // publish its memo before claiming its cell.
                let steering = self
                    .shard
                    .as_ref()
                    .is_some_and(|(shard, grace)| !shard.owns(key) && started.elapsed() < *grace);
                if !steering {
                    match manager.claim(key, &cell, &repro) {
                        Claim::Acquired(guard) => {
                            bump(&self.counts.lease_claims);
                            break Some(guard);
                        }
                        Claim::Busy => {}
                        Claim::Quarantined { attempts } => {
                            bump(&self.counts.cells_quarantined);
                            return Err(quarantined_error(benchmark, attempts));
                        }
                    }
                }
                waited = true;
                std::thread::sleep(poll);
                poll = (poll * 2).min(poll_cap);
            };
        } else if let Some(hit) = journaled() {
            return Ok(hit);
        }
        bump(&self.memo.misses);
        let result = match catch_unwind(AssertUnwindSafe(compute)) {
            // A deterministic failure, not a crash: the lease guard's Drop
            // releases lease + attempts (a retry would fail identically).
            Ok(result) => result?,
            Err(panic) => {
                // Crash-like: keep the attempt on record and expire the
                // lease so the next claimer retries — or quarantines.
                if let Some(guard) = lease {
                    guard.abandon();
                }
                resume_unwind(panic);
            }
        };
        if let Some(disk) = &self.disk {
            disk.store_with("memo", key, usize::MAX, |e| result.encode(e));
        }
        if let Some(guard) = lease {
            guard.complete();
        }
        Ok(Arc::new(result))
    }

    /// Clean-shutdown sweep for multi-process runs: releases every lease
    /// this process still holds and fsyncs the memo journal, so a
    /// follow-up run neither waits out stale-lease timeouts nor loses
    /// journaled cells to a machine crash. A no-op without those tiers.
    pub fn finish(&self) {
        if let Some(lease) = &self.lease {
            lease.release_owned();
        }
        if let Some(disk) = &self.disk {
            disk.sync_class("memo");
        }
    }

    /// An RAII handle over [`finish`](ArtifactStore::finish): the sweep
    /// runs when the guard drops — on clean returns, early `?` exits
    /// *and* unwinding panics alike — so exit paths that forget (or never
    /// reach) an explicit `finish()` cannot leak lease files. `finish` is
    /// idempotent; guarded code may still call it explicitly before a
    /// `std::process::exit` (which skips `Drop`).
    pub fn finish_guard(self: &Arc<Self>) -> FinishGuard {
        FinishGuard {
            store: Arc::clone(self),
        }
    }
}

/// Runs [`ArtifactStore::finish`] on drop (see
/// [`ArtifactStore::finish_guard`]): lease files are released and the
/// memo journal fsynced however the scope exits — including panics —
/// which is what lets the serve daemon's drain path and panicking tests
/// guarantee a lease-free cache directory.
#[must_use = "the sweep runs when the guard drops; an unbound guard drops immediately"]
pub struct FinishGuard {
    store: Arc<ArtifactStore>,
}

impl FinishGuard {
    /// The guarded store.
    pub fn store(&self) -> &Arc<ArtifactStore> {
        &self.store
    }
}

impl std::fmt::Debug for FinishGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FinishGuard").finish_non_exhaustive()
    }
}

impl Drop for FinishGuard {
    fn drop(&mut self) {
        self.store.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_shared_and_grows() {
        let store = ArtifactStore::new();
        let (w1, b1) = store.trace("swim", 7, 1_000).unwrap();
        let (w2, b2) = store.trace("swim", 7, 500).unwrap();
        assert!(Arc::ptr_eq(&w1, &w2), "workload shared");
        assert!(Arc::ptr_eq(&b1, &b2), "shorter request reuses the buffer");
        let (w3, b3) = store.trace("swim", 7, 2_000).unwrap();
        assert!(Arc::ptr_eq(&w1, &w3), "workload survives buffer growth");
        assert_eq!(b3.len(), 2_000);
        // The grown buffer replays the same prefix.
        let old: Vec<_> = TraceBuffer::replay(&b1).collect();
        let new: Vec<_> = TraceBuffer::replay(&b3).take(1_000).collect();
        assert_eq!(old, new);
        let stats = store.stats();
        assert_eq!(stats.trace_hits, 1);
        assert_eq!(stats.trace_misses, 2);
    }

    #[test]
    fn unknown_benchmark_is_an_error() {
        let store = ArtifactStore::new();
        assert!(matches!(
            store.trace("quake3", 1, 10),
            Err(SimError::UnknownBenchmark(_))
        ));
    }

    #[test]
    fn warm_state_captures_on_second_request() {
        let store = ArtifactStore::new();
        let base = Arc::new(SystemConfig::baseline_constant_memory());
        assert!(
            store
                .warm_state("swim", 7, 1_000, 0, &base)
                .unwrap()
                .is_none(),
            "first request is declined (capture deferred until reuse)"
        );
        let b = store
            .warm_state("swim", 7, 1_000, 0, &base)
            .unwrap()
            .unwrap();
        let c = store
            .warm_state("swim", 7, 1_000, 0, &base)
            .unwrap()
            .unwrap();
        assert!(Arc::ptr_eq(&b, &c));
        let mut other = SystemConfig::baseline_constant_memory();
        other.l1d.mshr_entries = 4;
        let other = Arc::new(other);
        assert!(
            store
                .warm_state("swim", 7, 1_000, 0, &other)
                .unwrap()
                .is_none(),
            "different config gates independently"
        );
        assert!(
            store
                .warm_state("swim", 7, 1_000, 500, &base)
                .unwrap()
                .is_none(),
            "different warm start gates independently"
        );
        let stats = store.stats();
        assert_eq!(stats.warm_declined, 3);
        assert_eq!(stats.warm_misses, 1);
        assert_eq!(stats.warm_hits, 1);
        store.clear_warm_states();
        assert!(
            store
                .warm_state("swim", 7, 1_000, 0, &base)
                .unwrap()
                .is_none(),
            "cleared states re-arm the gate"
        );
    }

    #[test]
    fn truncated_warm_state_covers_only_the_tail() {
        let store = ArtifactStore::new();
        let base = Arc::new(SystemConfig::baseline_constant_memory());
        let full_key = store.warm_state("swim", 7, 2_000, 0, &base).unwrap();
        assert!(full_key.is_none());
        let full = store
            .warm_state("swim", 7, 2_000, 0, &base)
            .unwrap()
            .unwrap();
        let trunc_key = store.warm_state("swim", 7, 2_000, 1_500, &base).unwrap();
        assert!(trunc_key.is_none());
        let trunc = store
            .warm_state("swim", 7, 2_000, 1_500, &base)
            .unwrap()
            .unwrap();
        assert_eq!(full.log.insts(), 2_000);
        assert_eq!(trunc.log.insts(), 500, "only the tail is warmed");
    }

    #[test]
    fn sampling_plan_is_shared() {
        let store = ArtifactStore::new();
        let region = TraceWindow::new(5_000, 50_000);
        let a = store.sampling_plan("gcc", 7, region, 10_000, 4).unwrap();
        let b = store.sampling_plan("gcc", 7, region, 10_000, 4).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second request hits the shared plan");
        let c = store.sampling_plan("gcc", 7, region, 25_000, 4).unwrap();
        assert!(!Arc::ptr_eq(&a, &c), "different interval is a new plan");
        let stats = store.stats();
        assert_eq!(stats.plan_hits, 1);
        assert_eq!(stats.plan_misses, 2);
        assert!(matches!(
            store.sampling_plan("quake3", 1, region, 10_000, 4),
            Err(SimError::UnknownBenchmark(_))
        ));
    }

    #[test]
    fn workload_is_shared_across_stores() {
        let (a, _) = ArtifactStore::new().trace("swim", 7, 100).unwrap();
        let (b, _) = ArtifactStore::new().trace("swim", 7, 100).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "layout is paid once per process");
    }

    #[test]
    fn env_knob_parses() {
        // `from_env` attaches a disk tier exactly when the knob names a
        // directory.
        assert_eq!(
            ArtifactStore::from_env().disk_cache().is_some(),
            ArtifactStore::cache_dir_from_env().is_some()
        );
        assert!(ArtifactStore::new().disk_cache().is_none());
    }
}
