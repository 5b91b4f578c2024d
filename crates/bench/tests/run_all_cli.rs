//! End-to-end tests of the `run_all` command line: a run killed
//! mid-battery resumes from the memo journal and recomputes only the
//! missing cells, a panicking cell fails its experiments while the rest
//! of the battery completes, and bad flags or `MICROLIB_*` knobs are
//! usage errors (exit 2) rejected before any work.
//!
//! Windows are kept tiny (`MICROLIB_SKIP=50 MICROLIB_SIM=100`) because
//! these tests run the *debug* binary; the selected experiments
//! (`fig04_speedup` = the standard campaign, `tab01_config` = no
//! simulation) still cover the journal and the per-experiment isolation.

use std::fs;
use std::os::unix::process::ExitStatusExt;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("microlib-cli-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// A `run_all` invocation with a hermetic MICROLIB_* environment and the
/// tiny test window.
fn run_all() -> Command {
    let mut c = Command::new(env!("CARGO_BIN_EXE_run_all"));
    for stale in [
        "MICROLIB_CACHE_DIR",
        "MICROLIB_SAMPLED",
        "MICROLIB_SEED",
        "MICROLIB_FAULT",
    ] {
        c.env_remove(stale);
    }
    c.env("MICROLIB_SKIP", "50")
        .env("MICROLIB_SIM", "100")
        .env("MICROLIB_THREADS", "2");
    c
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

fn assert_success(out: &Output, what: &str) {
    assert!(
        out.status.success(),
        "{what} failed ({:?}):\n--- stdout ---\n{}\n--- stderr ---\n{}",
        out.status,
        text(&out.stdout),
        text(&out.stderr),
    );
}

/// Byte-compares one produced results file across two output dirs.
fn assert_identical(a: &Path, b: &Path, name: &str) {
    let fa = fs::read(a.join(format!("{name}.txt"))).unwrap_or_else(|e| {
        panic!("missing {name}.txt under {}: {e}", a.display());
    });
    let fb = fs::read(b.join(format!("{name}.txt"))).unwrap_or_else(|e| {
        panic!("missing {name}.txt under {}: {e}", b.display());
    });
    assert!(
        fa == fb,
        "{name}.txt differs between {} and {}",
        a.display(),
        b.display()
    );
}

/// The `(memo disk hits, recomputed cells)` of run_all's disk-cache
/// summary line on stderr.
fn cache_summary(stderr: &str) -> (u64, u64) {
    let line = stderr
        .lines()
        .find(|l| l.starts_with("disk cache (") && l.contains("recomputed"))
        .unwrap_or_else(|| panic!("no disk-cache summary on stderr:\n{stderr}"));
    let number_before = |marker: &str| -> u64 {
        let head = &line[..line.find(marker).expect(marker)];
        head.rsplit(' ').next().unwrap().parse().unwrap()
    };
    let recomputed = line
        .rsplit("recomputed ")
        .next()
        .and_then(|tail| tail.split(' ').next())
        .and_then(|n| n.parse().ok())
        .expect("recomputed count");
    (number_before(" memo hits"), recomputed)
}

const SELECTED: &str = "fig04_speedup,tab01_config";
const FILES: [&str; 2] = ["fig04_speedup", "tab01_config"];

/// The cold reference battery over its own cache: its output dir and the
/// number of cells it computed.
fn reference(root: &Path) -> (PathBuf, u64) {
    let out = root.join("ref-results");
    let run = run_all()
        .args(["--only", SELECTED, "--cache-dir"])
        .arg(root.join("ref-cache"))
        .arg("--out-dir")
        .arg(&out)
        .output()
        .unwrap();
    assert_success(&run, "reference battery");
    let (disk_hits, recomputed) = cache_summary(&text(&run.stderr));
    assert_eq!(disk_hits, 0, "the reference cache starts cold");
    (out, recomputed)
}

#[test]
fn killed_run_resumes_only_missing_cells() {
    const K: u64 = 40;
    let root = tmp_dir("kill-resume");
    let (golden, cells) = reference(&root);
    assert!(cells > K, "the selection computes more than {K} cells");

    // One thread, so exactly K-1 cells are computed and journaled before
    // the K-th computation aborts the process (SIGABRT, no unwinding, no
    // exit handlers — a crash).
    let cache = root.join("cache");
    let out = root.join("results");
    let killed = run_all()
        .args(["--only", SELECTED, "--cache-dir"])
        .arg(&cache)
        .arg("--out-dir")
        .arg(&out)
        .env("MICROLIB_THREADS", "1")
        .env("MICROLIB_FAULT", format!("cell:{K}:abort"))
        .output()
        .unwrap();
    assert_eq!(
        killed.status.signal(),
        Some(6),
        "the injected abort kills the run ({:?}):\n{}",
        killed.status,
        text(&killed.stderr)
    );

    // The rerun serves every journaled cell from disk and computes only
    // the rest; together they are exactly the reference's cells.
    let rerun = run_all()
        .args(["--only", SELECTED, "--cache-dir"])
        .arg(&cache)
        .arg("--out-dir")
        .arg(&out)
        .output()
        .unwrap();
    assert_success(&rerun, "rerun after the kill");
    let (disk_hits, recomputed) = cache_summary(&text(&rerun.stderr));
    assert!(
        disk_hits >= K - 1,
        "the {} cells journaled before the abort are served from disk, got {disk_hits}",
        K - 1
    );
    assert_eq!(
        disk_hits + recomputed,
        cells,
        "journaled + recomputed cells cover the battery exactly once"
    );
    for name in FILES {
        assert_identical(&golden, &out, name);
    }
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn panicking_cell_fails_its_experiments_and_the_rest_completes() {
    let root = tmp_dir("panic");
    let (golden, _) = reference(&root);

    // Every computation of swim x Base panics ('*' = every hit).
    let out = root.join("results");
    let run = run_all()
        .args(["--only", SELECTED, "--cache-dir"])
        .arg(root.join("cache"))
        .arg("--out-dir")
        .arg(&out)
        .env("MICROLIB_FAULT", "cell@swim+Base:*:panic")
        .output()
        .unwrap();
    assert_eq!(
        run.status.code(),
        Some(1),
        "a failed experiment fails the battery:\n{}",
        text(&run.stderr)
    );
    let stderr = text(&run.stderr);
    assert!(
        stderr.contains("BATTERY FAILED — 1 experiment(s):\n  fig04_speedup"),
        "the summary lists the failed experiment:\n{stderr}"
    );
    assert!(
        stderr.contains("panic at cell@swim+Base"),
        "the failure names the panicking cell:\n{stderr}"
    );
    // tab01_config simulates nothing — it must have survived untouched.
    assert_identical(&golden, &out, "tab01_config");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn usage_errors_exit_2() {
    let root = tmp_dir("usage");
    let out = root.join("results");
    // The multi-process flags this build retired are unknown arguments.
    let retired: Vec<[String; 2]> = [("workers", "2"), ("shard", "0/2")]
        .iter()
        .map(|(flag, value)| [format!("--{flag}"), (*value).to_owned()])
        .collect();
    for args in &retired {
        let run = run_all().args(args).output().unwrap();
        let stderr = text(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "run_all {args:?}:\n{stderr}");
        assert!(stderr.contains("unknown argument"), "{args:?}: {stderr}");
    }
    let flag_cases: &[&[&str]] = &[
        &["--mine-budget", "4"],
        &["--mine-export", "x"],
        &["--mine", "--mine-budget", "many"],
        &["--mine", "--verify-golden", "results-golden"],
    ];
    let env_cases: &[(&str, &str)] = &[
        ("MICROLIB_SIM", "10000000000000"),
        ("MICROLIB_SKIP", "18446744073709551615"),
        ("MICROLIB_SIM", "2e6"),
        ("MICROLIB_SIM", "0"),
        ("MICROLIB_SIM", "2500001"),
        ("MICROLIB_SEED", "0xC0FFEEG"),
        ("MICROLIB_THREADS", "-1"),
        ("MICROLIB_SAMPLED", "5000:3"),
    ];
    for args in flag_cases {
        let run = run_all().args(*args).output().unwrap();
        assert_eq!(
            run.status.code(),
            Some(2),
            "run_all {args:?} must be a usage error:\n{}",
            text(&run.stderr)
        );
    }
    for (knob, value) in env_cases {
        // Mining reads the window, seed and thread knobs itself.
        let modes: &[&[&str]] = if *knob == "MICROLIB_SAMPLED" {
            &[&["--only", "fig04"]]
        } else {
            &[&["--only", "fig04"], &["--mine"]]
        };
        for mode in modes {
            let run = run_all()
                .args(["--no-cache", "--out-dir"])
                .arg(&out)
                .args(*mode)
                .env(knob, value)
                .output()
                .unwrap();
            let stderr = text(&run.stderr);
            assert_eq!(
                run.status.code(),
                Some(2),
                "{knob}={value} run_all {mode:?} must be a usage error:\n{stderr}"
            );
            assert!(
                stderr.contains(knob),
                "{knob}={value}: the message names the knob:\n{stderr}"
            );
            assert!(
                !text(&run.stdout).contains(">>>"),
                "{knob}={value} run_all {mode:?} started work before rejecting its input"
            );
        }
    }
    assert!(!out.exists(), "no usage error creates the output directory");

    // A hex seed is honoured, not silently replaced by the default.
    let hex = run_all()
        .args(["--no-cache", "--only", "tab01_config", "--out-dir"])
        .arg(&out)
        .env("MICROLIB_SEED", "0x1234")
        .output()
        .unwrap();
    assert_success(&hex, "hex seed battery");
    let table = fs::read_to_string(out.join("tab01_config.txt")).unwrap();
    assert!(table.contains("(seed 0x1234)"), "{table}");
    let _ = fs::remove_dir_all(&root);
}
