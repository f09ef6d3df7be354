//! End-to-end smoke test: the real binary runs every workload for a
//! fraction of a second, untraced and traced. Asserts that outputs
//! verified and that every metric `BENCHMARK.json` names is reported —
//! never a speed.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Json;
use std::process::Command;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
        .expect("parse BENCHMARK.json")
}

fn names(doc: &Json, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

/// Run the binary's `one` entry point and return its last stdout line.
fn one(workload: &str, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_bertha-benchmark"))
        .args([
            "one",
            "--smoke",
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("run the benchmark binary");
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) exited {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    json::parse(stdout.lines().last().expect("a result line")).expect("result line is JSON")
}

fn check(workload: &str, trace: bool, wanted: &[String]) {
    let result = one(workload, trace);
    let keys: Vec<&str> = result
        .as_obj()
        .expect("object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{workload}"
    );
    assert!(
        result
            .get("attempted")
            .and_then(Json::as_f64)
            .expect("attempted")
            >= 1.0
    );
    assert_eq!(
        result.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "{workload}: no op may fail"
    );
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics");
    let mut got: Vec<&str> = metrics.keys().map(String::as_str).collect();
    let mut want: Vec<&str> = wanted.iter().map(String::as_str).collect();
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(got, want, "{workload} (trace {trace})");
    for (name, m) in metrics {
        let value = m
            .get("value")
            .and_then(Json::as_f64)
            .expect("numeric value");
        assert!(
            value.is_finite() && value >= 0.0,
            "{workload}: {name} = {value}"
        );
        assert!(m.get("unit").and_then(Json::as_str).is_some());
        if !trace {
            assert!(
                value > 0.0,
                "{workload}: end-to-end metric {name} must never be 0"
            );
        }
    }
}

#[test]
fn every_workload_reports_every_catalogued_metric() {
    let doc = benchmark_json();
    let (end_to_end, per_layer) = (names(&doc, "end_to_end"), names(&doc, "per_layer"));
    // One after another: the workloads measure time and share two cores.
    for workload in names(&doc, "workloads") {
        check(&workload, false, &end_to_end);
        check(&workload, true, &per_layer);
    }
}

#[test]
fn bad_arguments_fail_without_a_result_line() {
    for args in [
        &["one", "--workload", "no_such_workload", "--seconds", "1"][..],
        &["one", "--seconds", "1"],
        &["one", "--workload", "echo_64b", "--trace", "2"],
        &["frobnicate"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_bertha-benchmark"))
            .args(args)
            .output()
            .expect("run the benchmark binary");
        assert!(!out.status.success(), "{args:?} should fail");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
