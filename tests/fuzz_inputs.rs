//! Generate-and-check fuzz loops over every input surface a user or a
//! file controls: the HTTP request head and body, `Json::parse` and
//! `CampaignSpec::parse` (and the config-delta and cliff-record text it
//! and the miner cache embed), the disk-cache entry decoders (fed mutated
//! payloads directly, and through framed entries with bit flips and
//! truncations), and the `MICROLIB_*` knob parsers. Every case must end
//! in `Ok` or `Err` — never a panic or an abort.
//!
//! As in `tests/properties.rs`, there is no fuzzing framework: each case
//! is derived from a fixed master seed plus the case index, and a
//! failing case reports its seed and input so it reproduces exactly.
//! Valid inputs are mutated by inserting, deleting and replacing tokens,
//! flipping bits and truncating.

use microlib::model::codec::{fnv1a, Decoder, Encoder};
use microlib::model::BinCodec;
use microlib::{execute, ArtifactStore, Cell, DiskCache, RunResult, SimOptions};
use microlib_bench::{checked_window, parse_sampling_knob, parse_u64_knob};
use microlib_mech::MechanismKind;
use microlib_mem::{FunctionalMemory, WarmState};
use microlib_miner::{CellOutcome, CliffRecord, ConfigDelta};
use microlib_model::SystemConfig;
use microlib_serve::json::Json;
use microlib_serve::{read_request, resident_cap_bytes, CampaignSpec};
use microlib_trace::{SamplingPlan, TraceWindow, MAX_WINDOW_INSTS};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

const MASTER_SEED: u64 = 0xF022_1A7E;

/// The seed of one (surface, case) pair.
fn case_seed(surface: &str, case: u64) -> u64 {
    MASTER_SEED ^ fnv1a(surface.as_bytes()) ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Tokens the mutator splices in: JSON and HTTP punctuation, numbers at
/// the edges of every integer and float range, and the keys and values
/// the parsers look for.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"",
    "\\",
    "\\u0000",
    "\\ud800",
    "/",
    " ",
    "\r\n",
    "\n",
    "\r",
    "\0",
    "0",
    "-0",
    "-1",
    "1e308",
    "1e-400",
    "2e6",
    "0x",
    "0xFFFFFFFFFFFFFFFF",
    "18446744073709551615",
    "18446744073709551616",
    "9007199254740993",
    "NaN",
    "null",
    "true",
    "\"benchmarks\"",
    "\"mechanisms\"",
    "\"window\"",
    "\"skip\"",
    "\"simulate\"",
    "\"seed\"",
    "\"sampling\"",
    "\"config\"",
    "\"class\"",
    "\"swim\"",
    "\"GHB\"",
    "\"10000/4\"",
    "Content-Length: ",
    "content-length:99999999999",
    "GET",
    "POST",
    " /campaign ",
    "HTTP/1.1",
    "é",
    "\u{FFFF}",
    "/0",
    "on",
    "off",
    "*",
];

/// Applies 1–4 random mutations to `input`.
fn mutate(rng: &mut SmallRng, input: &[u8]) -> Vec<u8> {
    let mut out = input.to_vec();
    for _ in 0..rng.gen_range(1..5u32) {
        let at = rng.gen_range(0..=out.len());
        match rng.gen_range(0..5u32) {
            0 => {
                let token = TOKENS[rng.gen_range(0..TOKENS.len())].as_bytes();
                out.splice(at..at, token.iter().copied());
            }
            1 => {
                let end = (at + rng.gen_range(1..16usize)).min(out.len());
                out.drain(at..end);
            }
            2 => {
                let end = (at + rng.gen_range(1..8usize)).min(out.len());
                let token = TOKENS[rng.gen_range(0..TOKENS.len())].as_bytes();
                out.splice(at..end, token.iter().copied());
            }
            3 => {
                if !out.is_empty() {
                    let byte = rng.gen_range(0..out.len());
                    out[byte] ^= 1 << rng.gen_range(0..8u32);
                }
            }
            _ => out.truncate(at),
        }
    }
    out
}

/// Runs `cases` mutated variants of `seeds` through `check`, failing with
/// the case seed and input on the first panic.
fn fuzz(surface: &str, cases: u64, seeds: &[Vec<u8>], check: impl Fn(&[u8])) {
    for case in 0..cases {
        let seed = case_seed(surface, case);
        let mut rng = SmallRng::seed_from_u64(seed);
        let input = mutate(&mut rng, &seeds[case as usize % seeds.len()]);
        if catch_unwind(AssertUnwindSafe(|| check(&input))).is_err() {
            panic!(
                "{surface} case {case} (seed {seed:#x}) panicked on {:?}",
                String::from_utf8_lossy(&input)
            );
        }
    }
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

const SPECS: &[&str] = &[
    r#"{"benchmarks":["swim","gzip"],"mechanisms":["Base","GHB","TP","VC"],"window":{"skip":2000,"simulate":2000}}"#,
    r#"{"benchmarks":["mcf"],"mechanisms":["Base"],"overrides":"l1d_kb=8,ruu=16,mem=const200","seed":"0x1234","sampling":"10000/4/500","class":"batch"}"#,
    r#"{"benchmarks":["swim"],"window":{"skip":0,"simulate":1},"seed":7,"sampling":"full"}"#,
];

#[test]
fn json_and_campaign_specs_never_panic() {
    for spec in SPECS {
        assert!(
            CampaignSpec::parse(spec).is_ok(),
            "seed spec parses: {spec}"
        );
    }
    let seeds: Vec<Vec<u8>> = SPECS.iter().map(|s| s.as_bytes().to_vec()).collect();
    fuzz("campaign_spec", 3_000, &seeds, |input| {
        let body = text(input);
        let _ = Json::parse(&body);
        if let Ok(spec) = CampaignSpec::parse(&body) {
            // A spec that parses must stay inside the window bound, so
            // its cells can never ask for an unbounded trace.
            assert!(spec.opts.window.bounded_end().is_some());
            let _ = spec.cells();
        }
    });
}

/// The two text formats the spec and the miner cache embed: config-delta
/// keys and rendered cliff records.
#[test]
fn config_deltas_and_cliff_records_never_panic() {
    let deltas: Vec<Vec<u8>> = ["baseline", "l1d_mshr=1,ruu=16,mem=const200", "win=quarter"]
        .iter()
        .map(|s| s.as_bytes().to_vec())
        .collect();
    fuzz("config_delta", 2_000, &deltas, |input| {
        let _ = ConfigDelta::parse(&text(input));
    });
    let record = include_str!("../cliffs-golden/cliff-02f5989adb3b1f2f.txt");
    fuzz(
        "cliff_record",
        1_000,
        &[record.as_bytes().to_vec()],
        |input| {
            let _ = CliffRecord::parse(&text(input));
        },
    );
}

#[test]
fn http_requests_never_panic_and_stay_bounded() {
    let seeds: Vec<Vec<u8>> = SPECS
        .iter()
        .map(|body| {
            format!(
                "POST /campaign HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .into_bytes()
        })
        .chain([b"GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n".to_vec()])
        .collect();
    fuzz("http_request", 3_000, &seeds, |input| {
        if let Ok(request) = read_request(&mut &input[..]) {
            assert!(request.body.len() <= input.len());
            let _ = CampaignSpec::parse(&request.body);
        }
    });
}

/// A small memoized cell, sampling plan, warm state and miner outcome,
/// encoded as the payloads the disk tier persists.
struct Payloads {
    config: SystemConfig,
    base: FunctionalMemory,
    run: Vec<u8>,
    plan: Vec<u8>,
    warm: Vec<u8>,
    outcomes: Vec<Vec<u8>>,
}

fn payloads() -> Payloads {
    let store = ArtifactStore::new();
    let config = Arc::new(SystemConfig::baseline_constant_memory());
    let opts = SimOptions {
        window: TraceWindow::new(500, 1_000),
        ..SimOptions::default()
    };
    let result = execute(
        &store,
        &Cell::new(Arc::clone(&config), MechanismKind::Ghb, "swim", opts),
    )
    .expect("cell runs");
    let mut run = Encoder::new();
    result.encode(&mut run);

    let plan = store
        .sampling_plan("gcc", 7, TraceWindow::new(1_000, 40_000), 10_000, 3)
        .expect("plan");
    let mut plan_bytes = Encoder::new();
    plan.encode(&mut plan_bytes);

    // Small caches keep each warm-state decode (which rebuilds every cache
    // array of the configuration) cheap; the digest of the base image it
    // checks first still costs ~0.1 s a case in debug builds, hence the
    // lower case count below.
    let mut small = SystemConfig::baseline_constant_memory();
    small.l1d.size_bytes = 2 << 10;
    small.l1i.size_bytes = 2 << 10;
    small.l2.size_bytes = 8 << 10;
    let small = Arc::new(small);
    let (workload, _) = store.trace("swim", 7, 600).expect("trace");
    let mut base = FunctionalMemory::new();
    workload.initialize(&mut base);
    assert!(store
        .warm_state("swim", 7, 600, 0, &small)
        .unwrap()
        .is_none());
    let warm = store
        .warm_state("swim", 7, 600, 0, &small)
        .unwrap()
        .expect("second request captures");
    let mut warm_bytes = Encoder::new();
    warm.encode(&base, &mut warm_bytes);

    let cliff = include_str!("../cliffs-golden/cliff-02f5989adb3b1f2f.txt");
    let cliff = CliffRecord::parse(cliff).expect("committed cliff record parses");
    let outcomes = [
        CellOutcome::Consistent,
        CellOutcome::Failed("swim: exceeded 10-cycle budget".to_owned()),
        CellOutcome::Cliff(Box::new(cliff)),
    ]
    .into_iter()
    .map(|o| {
        let mut e = Encoder::new();
        o.encode(&mut e);
        e.into_bytes()
    })
    .collect();
    Payloads {
        config: (*small).clone(),
        base,
        run: run.into_bytes(),
        plan: plan_bytes.into_bytes(),
        warm: warm_bytes.into_bytes(),
        outcomes,
    }
}

/// Decodes `payload` the way the disk tier does: the decoder must accept
/// or reject it, and an accepted payload must be consumed whole.
fn decode_all<T>(
    payload: &[u8],
    decode: impl FnOnce(&mut Decoder<'_>) -> Result<T, microlib::model::CodecError>,
) {
    let mut d = Decoder::new(payload);
    if decode(&mut d).is_ok() {
        let _ = d.finish();
    }
}

#[test]
fn disk_payload_decoders_never_panic() {
    let p = payloads();
    // The valid payloads decode (the loops below start from real bytes).
    assert!(RunResult::decode(&mut Decoder::new(&p.run)).is_ok());
    assert!(SamplingPlan::decode(&mut Decoder::new(&p.plan)).is_ok());
    assert!(WarmState::decode(&mut Decoder::new(&p.warm), &p.config, &p.base).is_ok());

    fuzz("run_result", 600, std::slice::from_ref(&p.run), |b| {
        decode_all(b, RunResult::decode)
    });
    fuzz("sampling_plan", 600, std::slice::from_ref(&p.plan), |b| {
        decode_all(b, SamplingPlan::decode)
    });
    fuzz("warm_state", 40, std::slice::from_ref(&p.warm), |b| {
        decode_all(b, |d| WarmState::decode(d, &p.config, &p.base))
    });
    fuzz("mine_outcome", 600, &p.outcomes, |b| {
        decode_all(b, CellOutcome::decode)
    });
}

/// Framed entries on disk: flipped bits and truncations anywhere in the
/// frame (caught by the framing), and the same with the trailing checksum
/// recomputed so the damage reaches the payload decoders.
#[test]
fn framed_disk_entries_never_panic() {
    let p = payloads();
    let dir = std::env::temp_dir().join(format!("microlib-fuzz-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let disk = DiskCache::new(&dir);
    let entries: [(&str, &[u8]); 3] = [
        ("memo", &p.run),
        ("plan", &p.plan),
        ("mine", &p.outcomes[1]),
    ];
    for (class, payload) in entries {
        let key = format!("fuzz|{class}");
        disk.store(class, &key, payload);
        let path = dir
            .join(class)
            .join(format!("{:016x}.bin", fnv1a(key.as_bytes())));
        let frame = std::fs::read(&path).expect("entry written");
        assert!(disk.load(class, &key).is_some(), "the valid frame loads");
        for case in 0..150u64 {
            let seed = case_seed(class, case);
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut bytes = frame.clone();
            let flips = rng.gen_range(1..4u32);
            for _ in 0..flips {
                let byte = rng.gen_range(0..bytes.len());
                bytes[byte] ^= 1 << rng.gen_range(0..8u32);
            }
            if rng.gen_range(0..10u32) < 3 {
                bytes.truncate(rng.gen_range(0..bytes.len()));
            } else if rng.gen_range(0..2u32) == 0 && bytes.len() >= 8 {
                let body = bytes.len() - 8;
                let checksum = fnv1a(&bytes[..body]).to_le_bytes();
                bytes[body..].copy_from_slice(&checksum);
            }
            std::fs::write(&path, &bytes).unwrap();
            let loaded = catch_unwind(AssertUnwindSafe(|| match class {
                "memo" => disk.load_with(class, &key, RunResult::decode).is_some(),
                "plan" => disk.load_with(class, &key, SamplingPlan::decode).is_some(),
                _ => disk.load_with(class, &key, CellOutcome::decode).is_some(),
            }));
            assert!(
                loaded.is_ok(),
                "{class} frame case {case} (seed {seed:#x}) panicked"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn env_knob_parsers_never_panic() {
    let numbers: Vec<Vec<u8>> = ["150000", "0xC0FFEE", "0", "18446744073709551615", "5000000"]
        .iter()
        .map(|s| s.as_bytes().to_vec())
        .collect();
    fuzz("u64_knob", 2_000, &numbers, |input| {
        let raw = text(input);
        if let Ok(n) = parse_u64_knob("MICROLIB_SEED", &raw) {
            // Whatever parses, the window check bounds (and never wraps).
            if let Ok(w) = checked_window(n, n) {
                assert!(w.bounded_end().is_some_and(|end| end <= MAX_WINDOW_INSTS));
            }
            let _ = checked_window(n, 1);
            let _ = checked_window(0, n);
        }
        let _ = resident_cap_bytes(&raw);
    });
    let samplings: Vec<Vec<u8>> = ["1", "off", "10000/3", "10000/3/20000", "true"]
        .iter()
        .map(|s| s.as_bytes().to_vec())
        .collect();
    fuzz("sampling_knob", 2_000, &samplings, |input| {
        let _ = parse_sampling_knob(&text(input), TraceWindow::new(150_000, 100_000));
    });
    // The window check over the edges of the u64 range.
    let edges = [
        0,
        1,
        999,
        1_000,
        MAX_WINDOW_INSTS / 2,
        MAX_WINDOW_INSTS,
        u64::MAX / 2,
        u64::MAX,
    ];
    for skip in edges {
        for simulate in edges {
            if let Ok(w) = checked_window(skip, simulate) {
                assert!(w.simulate > 0 && w.skip / 2 + 2 * w.simulate <= MAX_WINDOW_INSTS);
            }
        }
    }
}
