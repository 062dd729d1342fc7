//! The committed `results/BENCH_*.json` goldens against the bench
//! registry and the regression gate: every golden belongs to a registry
//! bench or a timeline scenario, and the gate flags a perturbation of any
//! single gated field in any of them.

use std::collections::BTreeSet;
use std::path::PathBuf;

use plexus_bench::diff::diff_reports;
use plexus_bench::scenarios::SCENARIOS;
use plexus_bench::suite::{self, BENCHES};
use plexus_trace::json::{self, Value};

/// Fields the gate compares within the metric's `tol_pct`.
const TOL_FIELDS: [&str; 4] = ["mean_us", "p50_us", "p99_us", "value"];
/// Per-metric fields the gate compares exactly.
const EXACT_FIELDS: [&str; 2] = ["samples", "window"];

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Every committed `BENCH_*.json`, by file name, parsed.
fn goldens() -> Vec<(String, Value)> {
    let mut out: Vec<(String, Value)> = std::fs::read_dir(results_dir())
        .expect("results/ exists")
        .map(|e| {
            e.expect("readable entry")
                .file_name()
                .into_string()
                .expect("utf-8")
        })
        .filter(|f| f.starts_with("BENCH_") && f.ends_with(".json"))
        .map(|f| {
            let body = std::fs::read_to_string(results_dir().join(&f)).expect("readable golden");
            let doc = json::parse(&body).unwrap_or_else(|e| panic!("{f}: {e}"));
            (f, doc)
        })
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

fn member<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
    match v {
        Value::Obj(members) => &mut members.iter_mut().find(|(k, _)| k == key).unwrap().1,
        _ => panic!("not an object"),
    }
}

fn num(v: &mut Value) -> &mut f64 {
    match v {
        Value::Num(n) => n,
        _ => panic!("not a number"),
    }
}

/// The single check `diff_reports` fails on `fresh` against `golden`.
fn only_failure(golden: &Value, fresh: &Value) -> String {
    let verdict = diff_reports(golden, fresh).expect("diffable");
    let failures = verdict.failures();
    assert_eq!(failures.len(), 1, "{:?}", failures);
    failures[0].name.clone()
}

#[test]
fn goldens_are_exactly_the_registry_plus_timeline_scenarios() {
    let on_disk: BTreeSet<String> = goldens().into_iter().map(|(f, _)| f).collect();
    for b in BENCHES {
        assert!(
            on_disk.contains(&b.file_name()),
            "no golden for bench {}",
            b.name
        );
    }
    let timelines: BTreeSet<String> = SCENARIOS
        .iter()
        .map(|s| format!("BENCH_timeline_{}.json", s.name))
        .collect();
    for f in &on_disk {
        assert!(
            BENCHES.iter().any(|b| &b.file_name() == f) || timelines.contains(f),
            "{f} belongs to no registry bench and no timeline scenario"
        );
    }
}

#[test]
fn each_golden_names_its_own_bench() {
    for (file, doc) in goldens() {
        let bench = doc
            .get("bench")
            .and_then(Value::as_str)
            .expect("bench name");
        assert_eq!(file, format!("BENCH_{bench}.json"));
    }
}

#[test]
fn the_gate_flags_any_single_perturbed_field_in_every_golden() {
    for (file, golden) in goldens() {
        let checks = diff_reports(&golden, &golden).expect("diffable").checks;
        assert!(checks.iter().all(|c| c.ok), "{file} fails against itself");
        let mut perturbed = 0;

        let metrics = golden.get("metrics").and_then(Value::as_arr).unwrap();
        for (i, m) in metrics.iter().enumerate() {
            let name = m.get("name").and_then(Value::as_str).unwrap();
            let tol = m.get("tol_pct").and_then(Value::as_f64).unwrap();
            for field in TOL_FIELDS.iter().chain(&EXACT_FIELDS) {
                if m.get(field).is_none() {
                    continue;
                }
                let mut fresh = golden.clone();
                let Value::Arr(ms) = member(&mut fresh, "metrics") else {
                    unreachable!()
                };
                let v = num(member(&mut ms[i], field));
                *v = if EXACT_FIELDS.contains(field) {
                    *v + 1.0
                } else if *v == 0.0 {
                    1.0
                } else {
                    *v * (1.0 + 2.0 * tol / 100.0)
                };
                assert_eq!(
                    only_failure(&golden, &fresh),
                    format!("{name}.{field}"),
                    "{file}"
                );
                perturbed += 1;
            }
        }

        let Some(Value::Obj(counts)) = golden.get("counts") else {
            panic!("{file}: no counts");
        };
        for (name, _) in counts {
            let mut fresh = golden.clone();
            *num(member(member(&mut fresh, "counts"), name)) += 1.0;
            assert_eq!(
                only_failure(&golden, &fresh),
                format!("counts.{name}"),
                "{file}"
            );
            perturbed += 1;
        }
        assert_eq!(
            perturbed,
            checks.len(),
            "{file}: a gated field went unperturbed"
        );
    }
}

#[test]
fn a_report_does_not_depend_on_the_benches_run_before_it() {
    let am = suite::find("am_latency").unwrap();
    let first = (am.run)().to_json();
    (suite::find("client_video_cpu").unwrap().run)();
    assert_eq!((am.run)().to_json(), first);
}
