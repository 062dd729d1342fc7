//! The `plexus-replay` command-line contract: the scenario list, the exit
//! statuses CI relies on, and valid JSON on disk. Only `udp_rtt` is
//! replayed, so the test stays fast in debug builds.

use std::path::PathBuf;
use std::process::{Command, Output};

use plexus_bench::scenarios::SCENARIOS;

fn replay(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_plexus-replay"))
        .args(args)
        .output()
        .expect("plexus-replay runs")
}

/// A fresh, not yet created output directory and its path as an argument.
fn scratch_dir(name: &str) -> (PathBuf, String) {
    let dir = std::env::temp_dir().join(format!("plexus-replay-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let arg = dir.to_str().expect("utf-8 temp path").to_string();
    (dir, arg)
}

#[test]
fn list_names_every_registry_scenario() {
    let out = replay(&["list"]);
    assert_eq!(out.status.code(), Some(0));
    let listed: Vec<String> = String::from_utf8(out.stdout)
        .expect("utf-8 listing")
        .lines()
        .filter_map(|l| l.split_whitespace().next().map(String::from))
        .collect();
    let registry: Vec<&str> = SCENARIOS.iter().map(|s| s.name).collect();
    assert_eq!(listed, registry);
}

#[test]
fn usage_errors_and_unknown_scenarios_exit_2() {
    let (dir, out_dir) = scratch_dir("usage");
    for args in [
        &["frobnicate", "udp_rtt"][..],
        &[],
        &["trace"],
        &["trace", "--window", "5", "udp_rtt"],
        &["trace", "-o", &out_dir, "no_such_scenario"],
    ] {
        let out = replay(args);
        assert_eq!(out.status.code(), Some(2), "plexus-replay {args:?}");
    }
    assert!(!dir.exists(), "a usage error wrote output");
}

#[test]
fn health_exits_1_only_on_a_breach() {
    let (dir, out_dir) = scratch_dir("health");
    let pass = replay(&["health", "-o", &out_dir, "udp_rtt"]);
    assert_eq!(pass.status.code(), Some(0), "{pass:?}");
    let breach = replay(&["health", "-o", &out_dir, "--p99-ceiling-ns", "1", "udp_rtt"]);
    assert_eq!(breach.status.code(), Some(1), "{breach:?}");
    assert!(dir.join("HEALTH_udp_rtt.json").exists());
    std::fs::remove_dir_all(&dir).expect("clean up");
}

#[test]
fn trace_writes_two_valid_json_files() {
    let (dir, out_dir) = scratch_dir("trace");
    let out = replay(&["trace", "-o", &out_dir, "udp_rtt"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    for file in ["udp_rtt.trace.json", "udp_rtt.stats.json"] {
        let body = std::fs::read_to_string(dir.join(file)).expect("file written");
        plexus_trace::json::validate(&body).unwrap_or_else(|e| panic!("{file}: {e}"));
    }
    std::fs::remove_dir_all(&dir).expect("clean up");
}
