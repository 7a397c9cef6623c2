//! Minimum-size runs of every workload, checked against the shape of the
//! repository's `BENCHMARK.json`.

use std::path::{Path, PathBuf};
use std::process::Command;

use symbist_dut::Json;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository")
        .to_path_buf()
}

fn benchmark_json() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn keys(doc: &Json) -> Vec<String> {
    match doc {
        Json::Obj(map) => map.keys().cloned().collect(),
        _ => panic!("not an object: {doc}"),
    }
}

fn names(list: &Json) -> Vec<(String, String)> {
    list.as_arr()
        .expect("array")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_has_the_contract_shape() {
    let doc = benchmark_json();
    let mut expected = [
        "command",
        "end_to_end",
        "paths",
        "per_layer",
        "run_seconds",
        "workloads",
    ];
    expected.sort_unstable();
    assert_eq!(keys(&doc), expected);
    let run_seconds = doc
        .get("run_seconds")
        .and_then(Json::as_u64)
        .expect("run_seconds");
    assert!((1..=60).contains(&run_seconds));
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads");
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        assert!(w
            .get("why")
            .and_then(Json::as_str)
            .is_some_and(|s| s.len() <= 200));
    }
    let e2e = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("end_to_end");
    for m in e2e {
        assert_eq!(keys(m), ["better", "bound", "name", "unit"]);
        let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25);
    }
    let setup = e2e
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some("setup_s"))
        .expect("setup_s is an end-to-end metric");
    assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Json::as_str), Some("lower"));
    let largest = e2e
        .iter()
        .filter_map(|m| m.get("bound").and_then(Json::as_f64))
        .fold(0.0, f64::max);
    assert_eq!(setup.get("bound").and_then(Json::as_f64), Some(largest));
    for m in doc
        .get("per_layer")
        .and_then(Json::as_arr)
        .expect("per_layer")
    {
        assert_eq!(keys(m), ["better", "name", "unit"]);
    }
}

/// Runs one workload for one second and returns its closing JSON line.
fn run(workload: &str, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_symbist-perfbench"))
        .args(["--workload", workload, "--seed", "0", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .current_dir(repo_root())
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{workload}: {stdout}");
    let last = stdout.lines().last().expect("output");
    Json::parse(last).unwrap_or_else(|e| panic!("{workload}: last line {last:?}: {e}"))
}

#[test]
fn every_workload_reports_the_listed_metrics_correctly() {
    let doc = benchmark_json();
    let e2e = names(doc.get("end_to_end").expect("end_to_end"));
    let layers = names(doc.get("per_layer").expect("per_layer"));
    for w in doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
    {
        let workload = w.get("name").and_then(Json::as_str).expect("name");
        for (trace, listed) in [(false, &e2e), (true, &layers)] {
            let line = run(workload, trace);
            assert_eq!(keys(&line), ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(
                line.get("correct").and_then(Json::as_bool),
                Some(true),
                "{workload}"
            );
            assert_eq!(
                line.get("failed").and_then(Json::as_u64),
                Some(0),
                "{workload}"
            );
            assert!(line.get("attempted").and_then(Json::as_u64) >= Some(1));
            let metrics = line.get("metrics").expect("metrics");
            let mut got: Vec<(String, String)> = keys(metrics)
                .into_iter()
                .map(|name| {
                    let unit = metrics
                        .get(&name)
                        .and_then(|m| m.get("unit"))
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string();
                    let value = metrics
                        .get(&name)
                        .and_then(|m| m.get("value"))
                        .and_then(Json::as_f64);
                    assert!(value.is_some_and(f64::is_finite), "{workload} {name}");
                    if !trace {
                        assert!(value.is_some_and(|v| v > 0.0), "{workload} {name} reads 0");
                    }
                    (name, unit)
                })
                .collect();
            let mut want = listed.clone();
            got.sort();
            want.sort();
            assert_eq!(got, want, "{workload} trace {trace}");
        }
    }
}
