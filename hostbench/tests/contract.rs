//! The benchmark's own contract, checked against the built binary:
//! every metric `BENCHMARK.json` names is emitted with its unit for every
//! workload, the output checks pass, and every simulated count repeats
//! exactly across two processes with the same seed.

use std::path::Path;
use std::process::Command;

use plexus_trace::json::{self, Value};

/// A seed used only by these tests.
const SEED: &str = "3";

fn manifest() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn metrics(section: &str) -> Vec<(String, String)> {
    manifest()
        .get(section)
        .and_then(Value::as_arr)
        .expect("a metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Value::as_str).expect("name and unit");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

/// Runs one short benchmark process and returns its result line.
fn run(workload: &str, trace: &str) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_hostbench"))
        .args(["--workload", workload, "--seed", SEED])
        .args(["--seconds", "0.2", "--trace", trace])
        .output()
        .expect("the benchmark runs");
    assert!(out.status.success(), "{workload}: exit {}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line");
    let result = json::parse(last).expect("the result line is JSON");
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{stdout}");
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Value::as_u64) >= Some(1));
    result
}

/// The metric values of a result line, checking each named metric is
/// present with its unit and a finite value.
fn values(result: &Value, expected: &[(String, String)]) -> Vec<f64> {
    let Some(Value::Obj(got)) = result.get("metrics") else {
        panic!("no metrics object");
    };
    assert_eq!(got.len(), expected.len(), "exactly the named metrics");
    expected
        .iter()
        .map(|(name, unit)| {
            let m = result
                .get("metrics")
                .and_then(|m| m.get(name))
                .unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()));
            let v = m.get("value").and_then(Value::as_f64).expect("a number");
            assert!(v.is_finite(), "{name} = {v}");
            v
        })
        .collect()
}

/// Units of simulated counts and ratios: these must repeat exactly.
fn is_simulated(unit: &str) -> bool {
    matches!(unit, "count" | "ratio" | "bytes")
}

fn check_workload(workload: &str) {
    let e2e = metrics("end_to_end");
    let untraced = values(&run(workload, "0"), &e2e);
    assert!(
        untraced.iter().all(|v| *v > 0.0),
        "{workload}: {untraced:?}"
    );

    let layers = metrics("per_layer");
    let first = values(&run(workload, "1"), &layers);
    let second = values(&run(workload, "1"), &layers);
    for (((name, unit), a), b) in layers.iter().zip(&first).zip(&second) {
        if is_simulated(unit)
            && name != "bench.accounted_frac"
            && name != "bench.span_overhead_frac"
        {
            assert_eq!(a, b, "{workload}: {name} differs across processes");
        }
    }
    let accounted = layers
        .iter()
        .position(|(n, _)| n == "bench.accounted_frac")
        .expect("accounted share is a per-layer metric");
    assert!(
        (0.98..=1.0).contains(&first[accounted]),
        "{workload}: layer self times cover {} of the traced iteration",
        first[accounted]
    );
}

#[test]
fn udp_flows_emits_every_metric_and_repeats_its_counts() {
    check_workload("udp_flows");
}

#[test]
fn tcp_bulk_emits_every_metric_and_repeats_its_counts() {
    check_workload("tcp_bulk");
}

#[test]
fn traced_fanout_emits_every_metric_and_repeats_its_counts() {
    check_workload("traced_fanout");
}

#[test]
fn the_manifest_lists_every_workload_once() {
    let names: Vec<String> = manifest()
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("a name")
                .to_string()
        })
        .collect();
    assert_eq!(names, ["udp_flows", "tcp_bulk", "traced_fanout"]);
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nonesuch"][..],
        &["--workload", "udp_flows", "--trace", "2"],
        &["--seconds", "1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_hostbench"))
            .args(args)
            .output()
            .expect("the benchmark runs");
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(out.stdout.is_empty(), "{args:?} must print no result");
    }
}
