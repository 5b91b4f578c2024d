//! Fingerprint gate for the detailed loop's event-horizon jumps: quiet
//! cycles are jumped over in release builds and shadow-stepped (with the
//! bulk credit asserted) in debug builds, and either way every counter of
//! every cell must match what the every-cycle loop recorded.
//!
//! The cells cover the memory-bound rows where most cycles are quiet (mcf,
//! equake) and an IPC≈1 row (swim), every study mechanism, a constant
//! 200-cycle memory and the SDRAM model, in full and sampled mode — at a
//! wider window than the golden gate. CI runs this file in release mode,
//! where the jumps are really taken.
//!
//! To re-record after an *intentional* behaviour change, run
//! `cargo test --release --test event_horizon -- --nocapture` with
//! `MICROLIB_RECORD_FINGERPRINTS=1` and paste the printed tables.

use microlib::{run_one, RunResult, SamplingMode, SimError, SimOptions};
use microlib_mech::MechanismKind;
use microlib_model::{Encoder, MemoryModel, SystemConfig};
use microlib_trace::TraceWindow;

const BENCHMARKS: [&str; 3] = ["mcf", "equake", "swim"];

fn memory(label: &str) -> SystemConfig {
    match label {
        "const200" => SystemConfig {
            memory: MemoryModel::Constant { latency: 200 },
            ..SystemConfig::baseline()
        },
        "sdram" => SystemConfig::baseline(),
        other => unreachable!("memory model {other}"),
    }
}

fn options(mode: &str) -> SimOptions {
    match mode {
        "full" => SimOptions {
            window: TraceWindow::new(2_000, 5_000),
            ..SimOptions::default()
        },
        "sampled" => SimOptions {
            window: TraceWindow::new(2_000, 12_000),
            sampling: SamplingMode::SimPoints {
                interval: 2_000,
                max_clusters: 2,
                warmup: 0,
            },
            ..SimOptions::default()
        },
        other => unreachable!("mode {other}"),
    }
}

/// FNV-1a over the result's full binary encoding: every counter of every
/// component, plus the sampled estimate.
fn fingerprint(r: &RunResult) -> u64 {
    let mut e = Encoder::new();
    r.encode(&mut e);
    e.into_bytes().iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Recorded fingerprints: (benchmark, memory, mode, one hex fingerprint
/// per study mechanism in `MechanismKind::study_set` order).
const GOLDEN: &[(&str, &str, &str, &str)] = &[
    ("mcf", "const200", "full", "b38d45ff885f1c59 f3a2951a14f8f120 91e6c0b201297268 b5954b36f9d4a0d5 96b318d4362d25d6 8fcc21cf5958a5d7 b5182762dc4a3d7a c7a79f9f5e5d7156 d3cf965f0ec71860 b55a750454bf5661 b08376333cc3e8e1 a127d35b3ef58e8f c523ae2f230162eb"),
    ("mcf", "const200", "sampled", "b72a90e97e9ebe61 ce7e334523d244a8 159722ae571ad990 05e96d63a2b23e23 ba9b5a9dcd68d117 50605aa62b23b42c a6a72de4e65ff7f2 afa8e7316a7b6da3 1675bfae3467f35f c6bc13818968e760 fcf22f9975f0a7d7 2db56009a03c3494 5d15ac63fa217099"),
    ("mcf", "sdram", "full", "e56e8868813b840d 296ff15274e2466b 10062aa04f8c5b0b 0ca00b4e7543f0e1 1b01f201a8404eb4 4a2cd7bffa8fe536 99c4f63eccb7eb02 6d1cdaeba944e347 15e9182367a2e042 6039fa02a2133d74 74d81dc79ccb0b69 89ae9105575708e3 fb1988ceb91aaa6b"),
    ("mcf", "sdram", "sampled", "593fdb85c2a1022d 4f860d3a50a22d22 fe47d65a19947cfb 3b8c3ae576f1d32a f12dc725b655bc95 8965450fa5b07676 8f0cac55de3daea2 d1e702dff0ee5a10 051d8480fc52414c 7c1e4b0506f38af5 dafeefdc1965e21b 42b83333417700a2 102847bfaf220667"),
    ("equake", "const200", "full", "5a90286003371b7b 88cf76f804ee5813 537d650fb63fd6c1 167ced5d4064f7d7 49041abc1c07a991 c3609b6d7d77642b 070f5f4378c4d732 b9877c5e6ed033f4 1395b7b59e630a00 09a003bc3c817d5b 3f3065c463838a86 6836ea60a4d1906c e9bb7d631c6eb20c"),
    ("equake", "const200", "sampled", "8b3593be0b63e283 f5a7eb4740e26666 7a56321acd64b66d a2327593e96af1ae adf20c11e7d4845f 2fae74c9b62b58e3 74badf2a55278067 e667930966e8ff0d 1c7384da35b13cc2 839fa7b267993593 cde1d04b1ae4e783 7df45fd9c280e1fa cd14fc91d2b8d710"),
    ("equake", "sdram", "full", "1ae7b33a01a6a0a5 81073b3f21ddd539 5edd598d3ff1d9be 3b271af50af3b070 955128aef6184507 bb1e56c0f11082b2 b147cc2951a2c613 5132577259abb97d b91c12e8334f29e5 f63a6a3598ae59c8 230202230f6c51a6 5e29e82befca277e 7dea040c12eeddcf"),
    ("equake", "sdram", "sampled", "973b87b6240aff04 0c431cea4632278a 22bf9db3c904e563 4bdfd40389595de7 1858b3853dae284c e7c9d58f07e70f53 389cb97194e98160 a3a073ab6c421eb5 f718bc44f861e18c 18cb2dc7fd70f168 b91fcef4473e68f7 94a008f3668e4f85 0850ad4b7e49dafa"),
    ("swim", "const200", "full", "80b1a1ac62fabca4 0d2eeec80ac085f6 3dc598e6017a6b69 b0a0ef61685c802d 6d2da97a630a498e 744c870cd226995b e32f571919424483 e891d5a53be75e9b bb478061bb7e855a 7225e04cec56fca9 afb778ad9b538f18 53bdbf92d10c8066 df1d39a14956400a"),
    ("swim", "const200", "sampled", "75beb8e68103acff db8052af466ebaaa 3751c9c5f8462cfc 9be88939b6a783f3 a08f1c25c4b3c057 1a83318c9fbcf63d 8f1fba14edbefea2 950b367d890be53c 5b5b9388451f46a2 3e4133b88ffdde1a 195041099baf785f cea566f91e26b2fa bc5fbeb183764bb1"),
    ("swim", "sdram", "full", "fbf35eae1518abf0 fe97a72c2e08a11b a29a4b20aee1a413 ebcee761932818fa 2e1092a463b1d9ad a3efd4e125511425 93be7edca924d8fa 7abd47e20be11679 c0641afdb681b7e2 a33644138666adc9 7d76d6499ff363e8 85c9e881f5e0ebf0 e2e9bc16e92d1254"),
    ("swim", "sdram", "sampled", "2c92e8509f0fb1db 10b1a1dda1598b4a 5ae5c259e83a1551 767fdb526f29ee38 b1262ea495b274de 52e4c1b6b97cbf30 2710065dd0486d3b 6a68a832caa56553 e8052cb2811cc27b 0b541c0a8b8e220e 8fc8b5624a9e1fc0 8db1e67ed091e787 3a4ec9002c54530e"),
];

#[test]
fn every_cell_matches_the_every_cycle_fingerprint() {
    let record = std::env::var("MICROLIB_RECORD_FINGERPRINTS").is_ok();
    let kinds = MechanismKind::study_set();
    let mut drifted = Vec::new();
    for bench in BENCHMARKS {
        for mem in ["const200", "sdram"] {
            for mode in ["full", "sampled"] {
                let (config, opts) = (memory(mem), options(mode));
                let got: Vec<String> = kinds
                    .iter()
                    .map(|&kind| {
                        let r = run_one(&config, kind, bench, &opts)
                            .unwrap_or_else(|e| panic!("{bench}/{mem}/{mode}/{kind}: {e}"));
                        format!("{:016x}", fingerprint(&r))
                    })
                    .collect();
                if record {
                    println!(
                        "    (\"{bench}\", \"{mem}\", \"{mode}\", \"{}\"),",
                        got.join(" ")
                    );
                    continue;
                }
                let want = GOLDEN
                    .iter()
                    .find(|(b, m, o, _)| (*b, *m, *o) == (bench, mem, mode))
                    .map(|(.., want)| want.split(' ').collect::<Vec<_>>())
                    .unwrap_or_else(|| panic!("no fingerprints for {bench}/{mem}/{mode}"));
                assert_eq!(want.len(), kinds.len(), "{bench}/{mem}/{mode}");
                for ((kind, got), want) in kinds.iter().zip(&got).zip(want) {
                    if got != want {
                        drifted.push(format!("{bench}/{mem}/{mode}/{kind}"));
                    }
                }
            }
        }
    }
    assert!(drifted.is_empty(), "cells drifted: {drifted:?}");
}

/// A budget that runs out mid-run must still time out at the same cycle,
/// with the same reported budget, when that cycle falls inside a jump;
/// one that suffices must still finish with the same cycle count.
#[test]
fn cycle_budget_outcomes_are_unchanged() {
    let record = std::env::var("MICROLIB_RECORD_FINGERPRINTS").is_ok();
    let mut got = Vec::new();
    for mem in ["const200", "sdram"] {
        for mode in ["full", "sampled"] {
            for max_cycles in [150, 333, 4_000, 400_000] {
                let opts = SimOptions {
                    max_cycles,
                    ..options(mode)
                };
                let outcome = match run_one(&memory(mem), MechanismKind::Base, "mcf", &opts) {
                    Ok(r) => format!("ok:{}", r.perf.cycles),
                    Err(SimError::Timeout { cycles, .. }) => format!("timeout:{cycles}"),
                    Err(e) => panic!("{mem}/{mode}/{max_cycles}: {e}"),
                };
                got.push(format!("{mem}/{mode}/{max_cycles}={outcome}"));
            }
        }
    }
    if record {
        for line in &got {
            println!("    \"{line}\",");
        }
        return;
    }
    assert_eq!(got, BUDGET_GOLDEN);
}

/// Recorded budget outcomes, `memory/mode/max_cycles=outcome`.
const BUDGET_GOLDEN: &[&str] = &[
    "const200/full/150=timeout:4150",
    "const200/full/333=timeout:4333",
    "const200/full/4000=timeout:8000",
    "const200/full/400000=ok:222459",
    "const200/sampled/150=timeout:4150",
    "const200/sampled/333=timeout:4333",
    "const200/sampled/4000=timeout:8000",
    "const200/sampled/400000=ok:548808",
    "sdram/full/150=timeout:4150",
    "sdram/full/333=timeout:4333",
    "sdram/full/4000=timeout:8000",
    "sdram/full/400000=ok:106845",
    "sdram/sampled/150=timeout:4150",
    "sdram/sampled/333=timeout:4333",
    "sdram/sampled/4000=timeout:8000",
    "sdram/sampled/400000=ok:262311",
];
