//! The `plexus-bench` command-line contract: the registry listing, the
//! exit statuses CI relies on, and reports on disk equal to the goldens.
//! Only the cheap `am_latency` and `client_video_cpu` benches run, so the
//! test stays fast in debug builds.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use plexus_bench::suite::BENCHES;

fn bench_in(cwd: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_plexus-bench"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("plexus-bench runs")
}

fn bench(args: &[&str]) -> Output {
    bench_in(&std::env::temp_dir(), args)
}

fn golden(file: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(file);
    std::fs::read_to_string(path).expect("committed golden")
}

/// A fresh, not yet created directory and its path as an argument.
fn scratch_dir(name: &str) -> (PathBuf, String) {
    let dir = std::env::temp_dir().join(format!("plexus-bench-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let arg = dir.to_str().expect("utf-8 temp path").to_string();
    (dir, arg)
}

#[test]
fn list_names_every_registry_bench() {
    let out = bench(&["list"]);
    assert_eq!(out.status.code(), Some(0));
    let listed: Vec<String> = String::from_utf8(out.stdout)
        .expect("utf-8 listing")
        .lines()
        .filter_map(|l| l.split_whitespace().next().map(String::from))
        .collect();
    let registry: Vec<&str> = BENCHES.iter().map(|b| b.name).collect();
    assert_eq!(listed, registry);
}

#[test]
fn run_writes_the_golden_bytes() {
    let (dir, out_dir) = scratch_dir("run");
    let out = bench(&["run", "-o", &out_dir, "client_video_cpu"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let written: Vec<_> = std::fs::read_dir(&dir).expect("output dir").collect();
    assert_eq!(written.len(), 1);
    let body = std::fs::read_to_string(dir.join("BENCH_client_video_cpu.json")).expect("written");
    plexus_trace::json::validate(&body).expect("valid JSON");
    assert_eq!(body, golden("BENCH_client_video_cpu.json"));
    std::fs::remove_dir_all(&dir).expect("clean up");
}

#[test]
fn check_exits_1_on_a_perturbed_or_missing_golden() {
    let (dir, _) = scratch_dir("check");
    std::fs::create_dir_all(dir.join("results")).expect("temp results/");
    let missing = bench_in(&dir, &["check", "am_latency"]);
    assert_eq!(missing.status.code(), Some(1), "{missing:?}");

    let clean = golden("BENCH_am_latency.json");
    std::fs::write(dir.join("results/BENCH_am_latency.json"), &clean).expect("copy");
    let pass = bench_in(&dir, &["check", "am_latency"]);
    assert_eq!(pass.status.code(), Some(0), "{pass:?}");

    // One extra round in the golden: an exact count now differs.
    let perturbed = clean.replace("\"rounds_per_cell\": 100", "\"rounds_per_cell\": 101");
    assert_ne!(perturbed, clean);
    std::fs::write(dir.join("results/BENCH_am_latency.json"), perturbed).expect("perturb");
    let regression = bench_in(&dir, &["check", "am_latency"]);
    assert_eq!(regression.status.code(), Some(1), "{regression:?}");
    std::fs::remove_dir_all(&dir).expect("clean up");
}

#[test]
fn usage_errors_and_unknown_benches_exit_2_and_write_nothing() {
    let (dir, out_dir) = scratch_dir("usage");
    for args in [
        &["frobnicate"][..],
        &[],
        &["run", "-o", &out_dir, "no_such_bench"],
        &["run", "-o", &out_dir, "--tol", "5", "am_latency"],
        &["run", "-o"],
        &["check", "-o", &out_dir, "am_latency"],
        &["check", "no_such_bench"],
    ] {
        let out = bench(args);
        assert_eq!(out.status.code(), Some(2), "plexus-bench {args:?}");
    }
    assert!(!dir.exists(), "a usage error wrote output");
}
