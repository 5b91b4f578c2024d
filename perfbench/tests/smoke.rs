//! Tiny-window smoke runs of every workload: each must emit every metric
//! `BENCHMARK.json` names, with its unit, and check clean; a deliberately
//! wrong expected digest must show up as a failure.

use std::path::{Path, PathBuf};
use std::process::Command;

use microlib_serve::json::Json;

const TINY: &str = "2000:2000";
const WORKLOADS: [&str; 3] = ["campaign_compute", "campaign_membound", "serve_warm"];

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// `(name, unit)` of every metric in the `BENCHMARK.json` section `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(manifest_dir().join("../BENCHMARK.json"))
        .expect("BENCHMARK.json next to the benchmark");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs the benchmark and parses its last stdout line.
fn run(args: &[&str]) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--seed", "0", "--seconds", "0.2", "--window", TINY])
        .args(args)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    Json::parse(stdout.lines().last().expect("a result line")).expect("result is JSON")
}

fn count(result: &Json, key: &str) -> u64 {
    result.get(key).and_then(Json::as_u64).expect("a count")
}

fn assert_clean(result: &Json, metrics: &[(String, String)], what: &str) {
    assert!(count(result, "attempted") > 0, "{what}: nothing attempted");
    assert_eq!(count(result, "failed"), 0, "{what}: failures");
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{what}");
    let emitted = result.get("metrics").expect("metrics");
    for (name, unit) in metrics {
        let metric = emitted
            .get(name)
            .unwrap_or_else(|| panic!("{what}: no {name}"));
        assert_eq!(
            metric.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{what}: {name}"
        );
        assert!(
            matches!(metric.get("value"), Some(Json::Num(_))),
            "{what}: {name} has no value"
        );
    }
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    let metrics = declared("end_to_end");
    for workload in WORKLOADS {
        let result = run(&["--workload", workload, "--trace", "0"]);
        assert_clean(&result, &metrics, workload);
        let ok = result
            .get("metrics")
            .and_then(|m| m.get("ok_ratio"))
            .and_then(|m| m.get("value"));
        assert_eq!(ok, Some(&Json::Num(1.0)), "{workload}: fail_ratio is not 0");
    }
}

#[test]
fn every_traced_run_emits_every_per_layer_metric() {
    let metrics = declared("per_layer");
    for workload in WORKLOADS {
        let result = run(&["--workload", workload, "--trace", "1"]);
        assert_clean(&result, &metrics, workload);
    }
}

#[test]
fn held_out_seed_matches_its_digests() {
    let result = run(&[
        "--workload",
        "campaign_membound",
        "--trace",
        "0",
        "--workload-seed",
        "0xD1CE",
    ]);
    assert_clean(&result, &declared("end_to_end"), "held-out seed");
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create digest copy");
    for entry in std::fs::read_dir(from).expect("digest dir") {
        let path = entry.expect("dir entry").path();
        let target = to.join(path.file_name().expect("file name"));
        if path.is_dir() {
            copy_dir(&path, &target);
        } else {
            std::fs::copy(&path, &target).expect("copy digest file");
        }
    }
}

#[test]
fn a_wrong_expected_digest_is_a_failure() {
    let digests = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("wrong-digests");
    let _ = std::fs::remove_dir_all(&digests);
    copy_dir(&manifest_dir().join("digests"), &digests);
    let file = digests.join("w2000-2000").join("0xc0ffee.txt");
    let text = std::fs::read_to_string(&file).expect("default-seed digests");
    let line = text
        .lines()
        .find(|l| l.starts_with("mcf\tBase\t"))
        .expect("mcf x Base digest");
    let digest = line.rsplit('\t').next().expect("digest field");
    let flipped = format!("{:016x}", u64::from_str_radix(digest, 16).expect("hex") ^ 1);
    std::fs::write(&file, text.replace(line, &line.replace(digest, &flipped))).expect("rewrite");

    let digests_arg = digests.to_str().expect("utf-8 path");
    let result = run(&[
        "--workload",
        "campaign_membound",
        "--trace",
        "0",
        "--digests",
        digests_arg,
    ]);
    assert!(
        count(&result, "failed") > 0,
        "the wrong digest went unnoticed"
    );
    assert_eq!(result.get("correct"), Some(&Json::Bool(false)));
    let ok = result
        .get("metrics")
        .and_then(|m| m.get("ok_ratio"))
        .and_then(|m| m.get("value"));
    assert!(
        matches!(ok, Some(Json::Num(r)) if *r < 1.0),
        "fail_ratio stayed 0"
    );
}
