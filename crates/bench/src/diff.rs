//! Bench regression gate: compares a freshly generated `BENCH_*.json`
//! report against a committed golden and produces a verdict.
//!
//! The golden file is authoritative for both the expected values *and*
//! the per-metric tolerance (`tol_pct`, stamped by
//! [`crate::report::BenchReport`]; a golden metric without one is an
//! error, not a default): latency fields (`mean_us`, `p50_us`,
//! `p99_us`) and scalar `value`s may deviate by at most that relative
//! percentage; `samples` and every entry under `counts` must match
//! exactly (the simulation is deterministic — a changed count is a
//! behaviour change, not noise). Metrics present in the golden but
//! missing from the fresh run fail; metrics only in the fresh run are
//! reported as informational and do not fail the gate, so adding a
//! metric does not require touching the golden in the same change.

use plexus_trace::json::Value;

/// One compared quantity.
#[derive(Clone, Debug, PartialEq)]
pub struct Check {
    /// `"<metric>.<field>"` or `"counts.<name>"`.
    pub name: String,
    /// Golden value.
    pub golden: f64,
    /// Fresh value (`None` when the metric/field disappeared).
    pub fresh: Option<f64>,
    /// Relative deviation in percent (infinite when the fresh value is
    /// missing, or when the golden is 0 and the fresh value is not).
    pub dev_pct: f64,
    /// Allowed deviation in percent (0 for exact-match fields).
    pub tol_pct: f64,
    /// Whether the check passed.
    pub ok: bool,
}

/// The verdict for one golden/fresh report pair.
#[derive(Clone, Debug, PartialEq)]
pub struct DiffReport {
    /// Every comparison performed.
    pub checks: Vec<Check>,
    /// Metric names present only in the fresh report (informational).
    pub new_metrics: Vec<String>,
}

impl DiffReport {
    /// True when every check passed.
    pub fn ok(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// Failed checks only.
    pub fn failures(&self) -> Vec<&Check> {
        self.checks.iter().filter(|c| !c.ok).collect()
    }
}

fn metric_name(m: &Value) -> String {
    m.get("name")
        .and_then(Value::as_str)
        .unwrap_or("<unnamed>")
        .to_string()
}

fn rel_dev_pct(golden: f64, fresh: f64) -> f64 {
    if golden == 0.0 {
        if fresh == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        ((fresh - golden) / golden).abs() * 100.0
    }
}

/// Compares one golden number with its fresh counterpart: within
/// `tol_pct` relative deviation, so exactly when `tol_pct` is 0.
fn check(name: String, golden: f64, fresh: Option<f64>, tol_pct: f64) -> Check {
    let dev_pct = fresh.map_or(f64::INFINITY, |f| rel_dev_pct(golden, f));
    Check {
        name,
        golden,
        fresh,
        dev_pct,
        tol_pct,
        ok: dev_pct <= tol_pct,
    }
}

/// Compares two parsed `BENCH_*.json` documents. Errors when either is
/// not a bench report, the bench names differ, or a golden metric has no
/// `tol_pct`.
pub fn diff_reports(golden: &Value, fresh: &Value) -> Result<DiffReport, String> {
    let bench = golden
        .get("bench")
        .and_then(Value::as_str)
        .ok_or("golden: missing \"bench\"")?;
    let fresh_bench = fresh
        .get("bench")
        .and_then(Value::as_str)
        .ok_or("fresh: missing \"bench\"")?;
    if bench != fresh_bench {
        return Err(format!(
            "bench name mismatch: golden \"{bench}\" vs fresh \"{fresh_bench}\""
        ));
    }

    let golden_metrics = golden
        .get("metrics")
        .and_then(Value::as_arr)
        .ok_or("golden: missing \"metrics\"")?;
    let empty: Vec<Value> = Vec::new();
    let fresh_metrics = fresh
        .get("metrics")
        .and_then(Value::as_arr)
        .unwrap_or(&empty);

    let mut checks = Vec::new();
    for gm in golden_metrics {
        let name = metric_name(gm);
        let tol = gm
            .get("tol_pct")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("golden metric {name}: missing \"tol_pct\""))?;
        let fm = fresh_metrics.iter().find(|m| metric_name(m) == name);

        // Sample counts and worst-window indices are exact: the
        // simulation is deterministic, and a transient that moves to a
        // different window is a behaviour change even at equal magnitude.
        let fields = [
            ("mean_us", tol),
            ("p50_us", tol),
            ("p99_us", tol),
            ("value", tol),
            ("samples", 0.0),
            ("window", 0.0),
        ];
        for (field, tol) in fields {
            let Some(gv) = gm.get(field).and_then(Value::as_f64) else {
                continue;
            };
            let fv = fm.and_then(|m| m.get(field)).and_then(Value::as_f64);
            checks.push(check(format!("{name}.{field}"), gv, fv, tol));
        }
    }

    // Event counts: exact.
    if let Some(Value::Obj(golden_counts)) = golden.get("counts") {
        for (name, gv) in golden_counts {
            let Some(gv) = gv.as_f64() else { continue };
            let fv = fresh
                .get("counts")
                .and_then(|c| c.get(name))
                .and_then(Value::as_f64);
            checks.push(check(format!("counts.{name}"), gv, fv, 0.0));
        }
    }

    let new_metrics = fresh_metrics
        .iter()
        .map(metric_name)
        .filter(|n| !golden_metrics.iter().any(|g| &metric_name(g) == n))
        .collect();

    Ok(DiffReport {
        checks,
        new_metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use plexus_trace::json::parse;

    const GOLDEN: &str = r#"{"bench": "fig5", "metrics": [
        {"name": "rtt", "mean_us": 100.0, "p50_us": 100.0, "p99_us": 120.0, "samples": 50, "tol_pct": 2.0},
        {"name": "cpu", "value": 40.0, "unit": "percent", "tol_pct": 5.0}
    ], "counts": {"rounds": 50}}"#;

    #[test]
    fn identical_reports_pass() {
        let g = parse(GOLDEN).unwrap();
        let d = diff_reports(&g, &g).unwrap();
        assert!(d.ok(), "{:?}", d.failures());
        assert!(d.new_metrics.is_empty());
    }

    #[test]
    fn deviation_beyond_tolerance_fails() {
        let g = parse(GOLDEN).unwrap();
        // mean_us drifts 3% (> 2% tol); cpu drifts 4% (< 5% tol).
        let fresh = parse(
            r#"{"bench": "fig5", "metrics": [
            {"name": "rtt", "mean_us": 103.0, "p50_us": 100.0, "p99_us": 120.0, "samples": 50, "tol_pct": 2.0},
            {"name": "cpu", "value": 41.6, "unit": "percent", "tol_pct": 5.0}
        ], "counts": {"rounds": 50}}"#,
        )
        .unwrap();
        let d = diff_reports(&g, &fresh).unwrap();
        assert!(!d.ok());
        let failures = d.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].name, "rtt.mean_us");
        assert!((failures[0].dev_pct - 3.0).abs() < 1e-9);
    }

    #[test]
    fn counts_and_samples_must_match_exactly() {
        let g = parse(GOLDEN).unwrap();
        let fresh = parse(
            r#"{"bench": "fig5", "metrics": [
            {"name": "rtt", "mean_us": 100.0, "p50_us": 100.0, "p99_us": 120.0, "samples": 49, "tol_pct": 2.0},
            {"name": "cpu", "value": 40.0, "unit": "percent", "tol_pct": 5.0}
        ], "counts": {"rounds": 51}}"#,
        )
        .unwrap();
        let d = diff_reports(&g, &fresh).unwrap();
        let names: Vec<&str> = d.failures().iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["rtt.samples", "counts.rounds"]);
    }

    #[test]
    fn missing_metric_fails_and_new_metric_is_informational() {
        let g = parse(GOLDEN).unwrap();
        let fresh = parse(
            r#"{"bench": "fig5", "metrics": [
            {"name": "cpu", "value": 40.0, "unit": "percent", "tol_pct": 5.0},
            {"name": "extra", "value": 1.0, "unit": "x", "tol_pct": 2.0}
        ], "counts": {"rounds": 50}}"#,
        )
        .unwrap();
        let d = diff_reports(&g, &fresh).unwrap();
        assert!(!d.ok());
        assert!(d.failures().iter().all(|c| c.name.starts_with("rtt.")));
        assert_eq!(d.new_metrics, vec!["extra"]);
    }

    #[test]
    fn worst_window_index_is_compared_exactly() {
        let g = parse(
            r#"{"bench": "tl", "metrics": [
            {"name": "worst_p99", "value": 500.0, "unit": "us", "window": 3, "tol_pct": 2.0}
        ], "counts": {}}"#,
        )
        .unwrap();
        // Same magnitude, transient moved two windows later: must fail.
        let moved = parse(
            r#"{"bench": "tl", "metrics": [
            {"name": "worst_p99", "value": 500.0, "unit": "us", "window": 5, "tol_pct": 2.0}
        ], "counts": {}}"#,
        )
        .unwrap();
        let d = diff_reports(&g, &moved).unwrap();
        let names: Vec<&str> = d.failures().iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["worst_p99.window"]);
        let d = diff_reports(&g, &g).unwrap();
        assert!(d.ok());
    }

    #[test]
    fn golden_metric_without_tol_is_an_error() {
        let g = parse(r#"{"bench": "old", "metrics": [{"name": "m", "value": 100.0, "unit": "x"}], "counts": {}}"#).unwrap();
        let err = diff_reports(&g, &g).unwrap_err();
        assert!(err.contains("tol_pct"), "{err}");
    }

    #[test]
    fn mismatched_bench_names_error() {
        let g = parse(r#"{"bench": "a", "metrics": [], "counts": {}}"#).unwrap();
        let f = parse(r#"{"bench": "b", "metrics": [], "counts": {}}"#).unwrap();
        assert!(diff_reports(&g, &f).is_err());
    }
}
