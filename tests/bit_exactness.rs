//! Golden stat fingerprints for the detailed core: every study mechanism
//! on several seeds, pinned down to the full counter vectors — cycles,
//! committed/fetched, every core stall counter, cache and mechanism
//! counters — not just final CPI. The flattened SoA core (arena window,
//! bitset wakeup, batched loads) must reproduce these digests exactly;
//! any scheduling or accounting drift shows up as a readable field diff.
//!
//! To re-record after an *intentional* behaviour change, run
//! `cargo test --test bit_exactness -- --nocapture` with
//! `MICROLIB_RECORD_FINGERPRINTS=1` and paste the printed table.

use microlib::{run_one, RunResult, SimOptions};
use microlib_mech::MechanismKind;
use microlib_mem::{capture_warm_state, FunctionalMemory, MemorySystem, WarmLog, WarmState};
use microlib_model::{Encoder, SystemConfig};
use microlib_trace::{benchmarks, TraceWindow, Workload};

const SEEDS: [u64; 3] = [1, 2, 0xC0FFEE];

/// Compact, field-labelled digest of every scheduling-sensitive counter.
fn digest(r: &RunResult) -> String {
    let c = &r.core;
    let d = &r.l1d;
    let i = &r.l1i;
    let l2 = &r.l2;
    let m = &r.memory;
    let mech = r.mech_l1.or(r.mech_l2).unwrap_or_default();
    format!(
        "cyc={} com={} fet={} stalls=[{},{},{},{},{},{},{}] \
         l1d=[{},{},{},{},{},{},{},{},{},{},{},{},{}] l1i=[{},{}] \
         l2=[{},{},{},{}] mem=[{},{}] mech=[{},{},{},{},{},{},{}]",
        c.cycles,
        c.committed,
        c.fetched,
        c.mispredict_stall_cycles,
        c.icache_stall_cycles,
        c.loads_forwarded,
        c.cache_reject_stalls,
        c.window_full_stalls,
        c.lsq_full_stalls,
        c.store_commit_stalls,
        d.loads,
        d.stores,
        d.misses,
        d.sidecar_hits,
        d.mshr_merges,
        d.mshr_full_stalls,
        d.pipeline_stalls,
        d.port_stalls,
        d.demand_fills,
        d.prefetch_fills,
        d.useful_prefetches,
        d.writebacks,
        d.useless_prefetch_evictions,
        i.loads,
        i.misses,
        l2.loads,
        l2.stores,
        l2.misses,
        l2.writebacks,
        m.requests,
        m.total_latency,
        mech.table_reads,
        mech.table_writes,
        mech.prefetches_requested,
        mech.prefetches_useful,
        mech.sidecar_hits,
        mech.sidecar_misses,
        mech.victims_captured,
    )
}

fn run(kind: MechanismKind, seed: u64) -> RunResult {
    let opts = SimOptions {
        seed,
        window: TraceWindow::new(500, 800),
        ..SimOptions::default()
    };
    run_one(&SystemConfig::baseline(), kind, "swim", &opts).expect("run succeeds")
}

/// Recorded digests: (mechanism, seed, digest). Every study mechanism ×
/// every seed in [`SEEDS`].
const GOLDEN: &[(&str, u64, &str)] = &[
    ("Base", 1, "cyc=1744 com=800 fet=800 stalls=[0,1060,17,49,475,0,10] l1d=[224,124,69,0,66,45,13,1,69,0,0,36,0] l1i=[125,24] l2=[82,11,43,36] mem=[45,4341] mech=[0,0,0,0,0,0,0]"),
    ("Base", 2, "cyc=1388 com=800 fet=800 stalls=[0,563,8,76,529,0,3] l1d=[222,120,97,0,70,52,26,1,97,0,0,44,0] l1i=[121,12] l2=[87,22,30,44] mem=[30,2450] mech=[0,0,0,0,0,0,0]"),
    ("Base", 12648430, "cyc=1720 com=800 fet=800 stalls=[0,1284,5,28,150,0,0] l1d=[224,113,52,0,59,10,15,3,51,0,0,28,0] l1i=[123,21] l2=[67,5,40,28] mem=[40,3317] mech=[0,0,0,0,0,0,0]"),
    ("Tp", 1, "cyc=1916 com=800 fet=800 stalls=[0,1173,16,58,554,0,25] l1d=[225,124,69,0,64,65,15,3,68,0,0,35,0] l1i=[125,25] l2=[84,10,32,35] mem=[76,8468] mech=[0,0,102,4,0,0,0]"),
    ("Tp", 2, "cyc=1292 com=800 fet=800 stalls=[0,523,7,73,588,0,3] l1d=[223,120,102,0,71,45,28,3,100,0,0,44,0] l1i=[121,12] l2=[85,28,24,44] mem=[50,4218] mech=[0,0,101,5,0,0,0]"),
    ("Tp", 12648430, "cyc=1636 com=800 fet=800 stalls=[0,1221,5,20,131,0,0] l1d=[224,113,52,0,57,3,15,2,51,0,0,28,0] l1i=[123,21] l2=[67,5,26,28] mem=[64,5920] mech=[0,0,98,6,0,0,0]"),
    ("Vc", 1, "cyc=1734 com=800 fet=800 stalls=[0,1038,16,11,498,0,0] l1d=[225,124,47,28,47,2,8,1,47,0,0,0,0] l1i=[125,24] l2=[68,3,43,21] mem=[45,4301] mech=[180,84,0,0,40,140,84]"),
    ("Vc", 2, "cyc=1303 com=800 fet=800 stalls=[0,495,7,16,501,0,0] l1d=[223,120,42,69,30,1,12,3,42,0,0,0,0] l1i=[121,12] l2=[52,2,30,24] mem=[30,2668] mech=[203,129,0,0,80,123,129]"),
    ("Vc", 12648430, "cyc=1710 com=800 fet=800 stalls=[0,1274,5,16,150,0,0] l1d=[224,113,43,11,51,1,12,3,42,0,0,0,0] l1i=[123,21] l2=[60,3,40,22] mem=[40,3362] mech=[153,54,0,0,15,138,54]"),
    ("Sp", 1, "cyc=1678 com=800 fet=800 stalls=[0,1060,17,49,475,0,10] l1d=[224,124,69,0,66,45,13,1,68,0,0,35,0] l1i=[125,24] l2=[82,11,42,35] mem=[45,4280] mech=[188,188,4,1,0,0,0]"),
    ("Sp", 2, "cyc=1388 com=800 fet=800 stalls=[0,563,8,76,529,0,3] l1d=[222,120,97,0,70,52,26,1,97,0,0,44,0] l1i=[121,12] l2=[87,22,30,44] mem=[31,2540] mech=[220,220,2,0,0,0,0]"),
    ("Sp", 12648430, "cyc=1602 com=800 fet=800 stalls=[0,1189,5,22,187,0,0] l1d=[224,113,52,0,59,4,16,2,51,0,0,28,0] l1i=[123,21] l2=[67,5,38,28] mem=[40,3218] mech=[156,156,2,2,0,0,0]"),
    ("Markov", 1, "cyc=1734 com=800 fet=800 stalls=[0,1062,16,46,468,0,10] l1d=[225,124,63,6,59,41,14,1,63,19,0,36,0] l1i=[125,24] l2=[98,9,43,36] mem=[45,4354] mech=[628,124,137,6,6,219,0]"),
    ("Markov", 2, "cyc=1378 com=800 fet=800 stalls=[0,577,7,48,490,0,0] l1d=[223,120,79,22,60,28,18,2,79,45,0,47,0] l1i=[121,12] l2=[124,16,30,47] mem=[30,2377] mech=[885,161,266,22,22,228,0]"),
    ("Markov", 12648430, "cyc=1721 com=800 fet=800 stalls=[0,1285,5,27,150,0,0] l1d=[224,113,52,0,59,10,15,2,51,4,0,28,0] l1i=[123,21] l2=[71,5,40,28] mem=[40,3307] mech=[429,98,49,0,0,168,0]"),
    ("Fvc", 1, "cyc=1744 com=800 fet=800 stalls=[0,1060,17,49,475,0,10] l1d=[224,124,69,0,66,45,13,1,69,0,0,35,0] l1i=[125,24] l2=[82,11,43,35] mem=[45,4341] mech=[236,1,0,0,0,236,1]"),
    ("Fvc", 2, "cyc=1388 com=800 fet=800 stalls=[0,563,8,75,529,0,3] l1d=[222,120,96,2,70,51,26,1,96,0,0,44,0] l1i=[121,12] l2=[86,22,30,44] mem=[30,2450] mech=[280,4,0,0,2,278,4]"),
    ("Fvc", 12648430, "cyc=1720 com=800 fet=800 stalls=[0,1284,5,26,150,0,0] l1d=[224,113,51,3,57,9,14,3,50,0,0,29,0] l1i=[123,21] l2=[65,6,40,29] mem=[40,3317] mech=[167,3,0,0,3,164,3]"),
    ("Dbcp", 1, "cyc=1744 com=800 fet=800 stalls=[0,1060,17,49,475,0,10] l1d=[224,124,69,0,66,45,13,1,69,0,0,36,0] l1i=[125,24] l2=[82,11,43,36] mem=[45,4341] mech=[376,79,1,0,0,0,0]"),
    ("Dbcp", 2, "cyc=1388 com=800 fet=800 stalls=[0,563,8,76,529,0,3] l1d=[222,120,97,0,70,52,26,1,97,0,0,44,0] l1i=[121,12] l2=[87,22,30,44] mem=[30,2450] mech=[337,115,0,0,0,0,0]"),
    ("Dbcp", 12648430, "cyc=1720 com=800 fet=800 stalls=[0,1284,5,28,150,0,0] l1d=[224,113,52,0,59,10,15,3,51,0,0,28,0] l1i=[123,21] l2=[67,5,40,28] mem=[40,3317] mech=[408,52,0,0,0,0,0]"),
    ("Tkvc", 1, "cyc=1721 com=800 fet=800 stalls=[0,1056,16,15,462,0,0] l1d=[225,124,60,11,55,3,11,1,59,0,0,18,0] l1i=[125,24] l2=[78,6,43,18] mem=[45,4228] mech=[265,24,0,0,15,170,31]"),
    ("Tkvc", 2, "cyc=1311 com=800 fet=800 stalls=[0,520,7,26,485,0,1] l1d=[223,120,61,48,44,5,20,2,61,0,0,6,0] l1i=[121,12] l2=[68,5,30,16] mem=[30,2655] mech=[346,29,0,0,54,165,80]"),
    ("Tkvc", 12648430, "cyc=1710 com=800 fet=800 stalls=[0,1274,5,28,150,0,0] l1d=[224,113,50,2,57,10,15,3,49,0,0,19,0] l1i=[123,21] l2=[66,4,40,19] mem=[40,3358] mech=[218,11,0,0,2,164,12]"),
    ("Tk", 1, "cyc=1744 com=800 fet=800 stalls=[0,1060,17,49,475,0,10] l1d=[224,124,69,0,66,45,13,1,69,0,0,36,0] l1i=[125,24] l2=[82,11,43,36] mem=[45,4341] mech=[15,79,0,0,0,0,0]"),
    ("Tk", 2, "cyc=1388 com=800 fet=800 stalls=[0,563,8,76,529,0,3] l1d=[222,120,97,0,70,52,26,1,97,0,0,44,0] l1i=[121,12] l2=[87,22,30,44] mem=[30,2450] mech=[14,115,0,0,0,0,0]"),
    ("Tk", 12648430, "cyc=1720 com=800 fet=800 stalls=[0,1284,5,28,150,0,0] l1d=[224,113,52,0,59,10,15,3,51,0,0,28,0] l1i=[123,21] l2=[67,5,40,28] mem=[40,3317] mech=[14,52,0,0,0,0,0]"),
    ("Cdp", 1, "cyc=1744 com=800 fet=800 stalls=[0,1060,17,49,475,0,10] l1d=[224,124,69,0,66,45,13,1,69,0,0,36,0] l1i=[125,24] l2=[82,11,43,36] mem=[45,4341] mech=[97,0,0,0,0,0,0]"),
    ("Cdp", 2, "cyc=1388 com=800 fet=800 stalls=[0,563,8,76,529,0,3] l1d=[222,120,97,0,70,52,26,1,97,0,0,44,0] l1i=[121,12] l2=[87,22,30,44] mem=[30,2450] mech=[97,0,0,0,0,0,0]"),
    ("Cdp", 12648430, "cyc=1720 com=800 fet=800 stalls=[0,1284,5,28,150,0,0] l1d=[224,113,52,0,59,10,15,3,51,0,0,28,0] l1i=[123,21] l2=[67,5,40,28] mem=[40,3317] mech=[93,0,0,0,0,0,0]"),
    ("CdpSp", 1, "cyc=1678 com=800 fet=800 stalls=[0,1060,17,49,475,0,10] l1d=[224,124,69,0,66,45,13,1,68,0,0,35,0] l1i=[125,24] l2=[82,11,42,35] mem=[45,4280] mech=[285,188,4,2,0,0,0]"),
    ("CdpSp", 2, "cyc=1388 com=800 fet=800 stalls=[0,563,8,76,529,0,3] l1d=[222,120,97,0,70,52,26,1,97,0,0,44,0] l1i=[121,12] l2=[87,22,30,44] mem=[31,2540] mech=[318,220,2,0,0,0,0]"),
    ("CdpSp", 12648430, "cyc=1602 com=800 fet=800 stalls=[0,1189,5,22,187,0,0] l1d=[224,113,52,0,59,4,16,2,51,0,0,28,0] l1i=[123,21] l2=[67,5,38,28] mem=[40,3218] mech=[249,156,2,4,0,0,0]"),
    ("Tcp", 1, "cyc=1744 com=800 fet=800 stalls=[0,1060,17,49,475,0,10] l1d=[224,124,69,0,66,45,13,1,69,0,0,36,0] l1i=[125,24] l2=[82,11,43,36] mem=[45,4341] mech=[102,31,0,0,0,0,0]"),
    ("Tcp", 2, "cyc=1388 com=800 fet=800 stalls=[0,563,8,76,529,0,3] l1d=[222,120,97,0,70,52,26,1,97,0,0,44,0] l1i=[121,12] l2=[87,22,30,44] mem=[30,2450] mech=[103,33,0,0,0,0,0]"),
    ("Tcp", 12648430, "cyc=1720 com=800 fet=800 stalls=[0,1284,5,28,150,0,0] l1d=[224,113,52,0,59,10,15,3,51,0,0,28,0] l1i=[123,21] l2=[67,5,40,28] mem=[40,3317] mech=[99,29,0,0,0,0,0]"),
    ("Ghb", 1, "cyc=1918 com=800 fet=800 stalls=[0,1060,17,49,475,0,10] l1d=[224,124,69,0,66,45,13,1,68,0,0,35,0] l1i=[125,24] l2=[82,11,42,35] mem=[53,5444] mech=[336,376,16,1,0,0,0]"),
    ("Ghb", 2, "cyc=1388 com=800 fet=800 stalls=[0,563,8,77,529,0,3] l1d=[222,120,97,0,70,53,26,1,97,0,0,44,0] l1i=[121,12] l2=[87,22,30,44] mem=[37,3105] mech=[395,440,8,0,0,0,0]"),
    ("Ghb", 12648430, "cyc=1684 com=800 fet=800 stalls=[0,1180,7,29,214,0,0] l1d=[222,113,55,0,59,11,15,3,53,0,0,28,0] l1i=[123,21] l2=[67,8,35,28] mem=[44,4212] mech=[271,318,12,4,0,0,0]"),
];

/// Memory-side digest: the counters the SoA cache/MSHR/SDRAM arenas are
/// responsible for, down to row-buffer behaviour. A layout change that
/// perturbs MSHR slot reuse, bank scheduling order or writeback timing
/// shows up here even when the core-side digest above stays green.
fn mem_digest(r: &RunResult) -> String {
    let d = &r.l1d;
    let i = &r.l1i;
    let l2 = &r.l2;
    let m = &r.memory;
    format!(
        "l1d=[{},{},{},{},{},{}] l1i=[{},{}] l2=[{},{},{},{},{},{}] \
         sdram=[{},{},{},{},{},{}]",
        d.loads,
        d.stores,
        d.misses,
        d.mshr_merges,
        d.mshr_full_stalls,
        d.writebacks,
        i.loads,
        i.misses,
        l2.loads,
        l2.stores,
        l2.misses,
        l2.writebacks,
        l2.demand_fills,
        l2.prefetch_fills,
        m.requests,
        m.total_latency,
        m.row_hits,
        m.precharges,
        m.bus_busy_cycles,
        m.queue_wait_cycles,
    )
}

/// Recorded memory-hierarchy digests: (mechanism, seed, digest) over a
/// window long enough to exercise SDRAM bank scheduling and writebacks.
const MEM_GOLDEN: &[(&str, u64, &str)] = &[
    ("Base", 1, "l1d=[531,294,131,124,177,87] l1i=[309,8] l2=[118,17,42,87,42,0] sdram=[43,4449,13,26,425,910]"),
    ("Base", 2, "l1d=[554,289,156,135,252,79] l1i=[304,7] l2=[131,31,43,79,42,0] sdram=[42,4422,13,25,425,1028]"),
    ("Base", 12648430, "l1d=[561,290,131,151,144,80] l1i=[302,13] l2=[134,10,59,80,59,0] sdram=[60,5770,18,38,595,968]"),
    ("Ghb", 1, "l1d=[531,294,132,125,132,88] l1i=[309,8] l2=[115,21,33,88,34,24] sdram=[59,6136,32,24,590,1318]"),
    ("Ghb", 2, "l1d=[555,289,156,129,217,81] l1i=[304,7] l2=[130,32,30,81,32,30] sdram=[62,8215,37,21,620,1520]"),
    ("Ghb", 12648430, "l1d=[564,290,131,148,67,80] l1i=[302,13] l2=[134,10,50,80,51,23] sdram=[75,8634,34,37,745,1645]"),
];

#[test]
fn memory_hierarchy_stats_match_recorded_golden() {
    let record = std::env::var("MICROLIB_RECORD_FINGERPRINTS").is_ok();
    let mut missing = Vec::new();
    for kind in [MechanismKind::Base, MechanismKind::Ghb] {
        for seed in SEEDS {
            let opts = SimOptions {
                seed,
                window: TraceWindow::new(1_000, 2_000),
                ..SimOptions::default()
            };
            let r = run_one(&SystemConfig::baseline(), kind, "swim", &opts).expect("run succeeds");
            let got = mem_digest(&r);
            let name = format!("{kind:?}");
            if record {
                println!("    (\"{name}\", {seed}, \"{got}\"),");
                continue;
            }
            match MEM_GOLDEN
                .iter()
                .find(|(k, s, _)| *k == name && *s == seed)
                .map(|(_, _, want)| *want)
            {
                Some(want) => assert_eq!(got, want, "{name} seed {seed} drifted"),
                None => missing.push(format!("{name}/{seed}")),
            }
        }
    }
    assert!(
        record || missing.is_empty(),
        "no recorded digest for: {missing:?}"
    );
}

/// Splitting a warm phase at an arbitrary point — capture a [`WarmState`]
/// mid-warm, restore it into a fresh system, warm the rest — must land on
/// a byte-identical checkpoint to warming straight through. This pins the
/// warm fast path (same-line short-circuit) across the restore boundary:
/// the restored system starts with a cold fast-path slot, the uninterrupted
/// one doesn't, and any divergence in array state, functional images,
/// stats or the warm clock shows up in the encoded bytes.
#[test]
fn warm_capture_restore_is_bit_identical() {
    const WARM: usize = 3_000;
    const SPLIT: u64 = 1_500;
    for (bench, seed) in [("swim", 1u64), ("mcf", 2), ("gzip", 0xC0FFEE)] {
        let cfg = SystemConfig::baseline();
        let workload = Workload::new(benchmarks::by_name(bench).unwrap(), seed);

        // Uninterrupted: one system warms the whole prefix.
        let mut direct = MemorySystem::new(cfg.clone(), Vec::new()).unwrap();
        workload.initialize(direct.functional_mut());
        for inst in workload.stream().take(WARM) {
            direct.warm_inst(inst.pc, inst.warm_mem_ref());
        }
        let direct_ckpt = direct.snapshot_warm();

        // Split: capture at SPLIT, restore into a fresh system, finish.
        let state = capture_warm_state(
            cfg.clone(),
            |f| workload.initialize(f),
            workload
                .stream()
                .take(SPLIT as usize)
                .map(|i| (i.pc, i.warm_mem_ref())),
        )
        .unwrap();
        let mut resumed = MemorySystem::new(cfg, Vec::new()).unwrap();
        resumed.restore_warm(&state.checkpoint);
        resumed.replay_warm_events(&state.log);
        let mut stream = workload.stream();
        stream.advance_to(SPLIT);
        for inst in stream.take(WARM - SPLIT as usize) {
            resumed.warm_inst(inst.pc, inst.warm_mem_ref());
        }
        let resumed_ckpt = resumed.snapshot_warm();

        // Byte-level equality via the checkpoint codec (delta against the
        // same freshly initialized image).
        let mut base = FunctionalMemory::new();
        workload.initialize(&mut base);
        let encode = |ckpt| {
            let mut e = Encoder::new();
            WarmState {
                checkpoint: ckpt,
                log: WarmLog::default(),
            }
            .encode(&base, &mut e);
            e.into_bytes()
        };
        assert_eq!(
            encode(direct_ckpt),
            encode(resumed_ckpt),
            "{bench} seed {seed}: split warm diverged from uninterrupted warm"
        );
    }
}

#[test]
fn study_set_stats_match_recorded_golden() {
    let record = std::env::var("MICROLIB_RECORD_FINGERPRINTS").is_ok();
    let mut missing = Vec::new();
    for kind in MechanismKind::study_set() {
        for seed in SEEDS {
            let got = digest(&run(kind, seed));
            let name = format!("{kind:?}");
            if record {
                println!("    (\"{name}\", {seed}, \"{got}\"),");
                continue;
            }
            match GOLDEN
                .iter()
                .find(|(k, s, _)| *k == name && *s == seed)
                .map(|(_, _, want)| *want)
            {
                Some(want) => assert_eq!(got, want, "{name} seed {seed} drifted"),
                None => missing.push(format!("{name}/{seed}")),
            }
        }
    }
    assert!(
        record || missing.is_empty(),
        "no recorded digest for: {missing:?}"
    );
}

/// TK opts in to quiet-cycle jumps through `Mechanism::next_tick` (its
/// refresh scan runs every 512 cycles), TKVC through its spill check:
/// both must still reproduce their recorded fingerprints, and TK's
/// refresh scan must still have run — a jump past a refresh boundary
/// would lose its table reads.
#[test]
fn timekeeping_cells_reproduce_fingerprints() {
    for kind in [MechanismKind::Tk, MechanismKind::Tkvc] {
        for seed in SEEDS {
            let r = run(kind, seed);
            let name = format!("{kind:?}");
            let want = GOLDEN
                .iter()
                .find(|(k, s, _)| *k == name && *s == seed)
                .map(|(_, _, want)| *want)
                .expect("recorded digest");
            assert_eq!(digest(&r), want, "{name} seed {seed} drifted");
            if kind == MechanismKind::Tk {
                assert!(r.mechanism_stats().table_reads > 0, "no refresh scan ran");
            }
        }
    }
}
