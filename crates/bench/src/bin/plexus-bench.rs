//! `plexus-bench` — run the benches of [`plexus_bench::suite`] and gate
//! them against the committed `results/BENCH_<name>.json` goldens.
//!
//! Each bench prints its human table to stdout. `run` writes its report
//! into `-o DIR` (`run -o results` regenerates the goldens); `check` diffs
//! it in memory against the golden with [`plexus_bench::diff`] and prints
//! one verdict line per bench, with its host wall time, to stderr.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use plexus_bench::diff::diff_reports;
use plexus_bench::suite::{self, Bench};
use plexus_trace::json;

const USAGE: &str = "\
usage: plexus-bench list
       plexus-bench run [-o DIR] [NAME...]
       plexus-bench check [NAME...]

  -o DIR   output directory for BENCH_<name>.json (default: the current directory)

With no NAME, run and check cover every bench. check diffs each fresh
report against results/BENCH_<name>.json under the current directory.

Exit status: 0 on success, 1 on a regression or a missing golden, 2 on a
usage error, an unknown bench, an unreadable golden, or a failed write.";

/// Exit statuses, ordered by severity: a run exits with its worst.
const OK: u8 = 0;
const REGRESSION: u8 = 1;
const FAILED: u8 = 2;

struct Args {
    out_dir: PathBuf,
    benches: Vec<&'static Bench>,
}

fn parse(sub: &str, mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        out_dir: PathBuf::from("."),
        benches: Vec::new(),
    };
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "-o" | "--out" if sub == "run" => {
                args.out_dir = argv.next().ok_or("-o needs a directory")?.into();
            }
            flag if flag.starts_with('-') => {
                return Err(format!("unknown option for {sub}: {flag}"));
            }
            name => args.benches.push(
                suite::find(name)
                    .ok_or_else(|| format!("unknown bench: {name} (try `plexus-bench list`)"))?,
            ),
        }
    }
    if args.benches.is_empty() {
        args.benches = suite::BENCHES.iter().collect();
    }
    Ok(args)
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let sub = argv.next().unwrap_or_default();
    let command: fn(&Args) -> u8 = match sub.as_str() {
        "list" => {
            for b in suite::BENCHES {
                println!("{:<20} {}", b.name, b.help);
            }
            return ExitCode::SUCCESS;
        }
        "-h" | "--help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        "run" => run,
        "check" => check,
        "" => return usage_error("missing subcommand"),
        _ => return usage_error(&format!("unknown subcommand: {sub}")),
    };
    match parse(&sub, argv) {
        Ok(args) => ExitCode::from(command(&args)),
        Err(e) => usage_error(&e),
    }
}

fn usage_error(e: &str) -> ExitCode {
    eprintln!("plexus-bench: {e}\n\n{USAGE}");
    ExitCode::from(FAILED)
}

/// Writes each report into the output directory; stops at the first
/// failed write.
fn run(args: &Args) -> u8 {
    if let Err(e) = fs::create_dir_all(&args.out_dir) {
        eprintln!("cannot create {}: {e}", args.out_dir.display());
        return FAILED;
    }
    for bench in &args.benches {
        let t0 = Instant::now();
        let report = (bench.run)();
        let path = args.out_dir.join(bench.file_name());
        if let Err(e) = fs::write(&path, report.to_json() + "\n") {
            eprintln!("{}: write of {} failed: {e}", bench.name, path.display());
            return FAILED;
        }
        eprintln!(
            "{}: {} ({} ms)",
            bench.name,
            path.display(),
            t0.elapsed().as_millis()
        );
    }
    OK
}

/// Diffs each fresh report against its golden; every bench is checked
/// even after a failure.
fn check(args: &Args) -> u8 {
    let t0 = Instant::now();
    let mut status = OK;
    for bench in &args.benches {
        status = status.max(check_one(bench));
    }
    eprintln!(
        "{} benches checked in {} ms: {}",
        args.benches.len(),
        t0.elapsed().as_millis(),
        if status == OK { "ok" } else { "FAILED" }
    );
    status
}

fn check_one(bench: &Bench) -> u8 {
    let name = bench.name;
    let path = Path::new("results").join(bench.file_name());
    let body = match fs::read_to_string(&path) {
        Ok(body) => body,
        Err(e) => {
            eprintln!("{name}: MISSING golden {}: {e}", path.display());
            return REGRESSION;
        }
    };
    let golden = match json::parse(&body) {
        Ok(golden) => golden,
        Err(e) => {
            eprintln!("{name}: {}: {e}", path.display());
            return FAILED;
        }
    };
    let t0 = Instant::now();
    let fresh = json::parse(&(bench.run)().to_json()).expect("a report is valid JSON");
    let ms = t0.elapsed().as_millis();
    let verdict = match diff_reports(&golden, &fresh) {
        Ok(verdict) => verdict,
        Err(e) => {
            eprintln!("{name}: {}: {e}", path.display());
            return FAILED;
        }
    };
    for c in verdict.failures() {
        match c.fresh {
            Some(f) => eprintln!(
                "{name}: REGRESSION {}: golden {:.3}, fresh {:.3} ({:.2}% > {:.2}% allowed)",
                c.name, c.golden, f, c.dev_pct, c.tol_pct
            ),
            None => eprintln!(
                "{name}: REGRESSION {}: present in golden ({:.3}) but missing from fresh run",
                c.name, c.golden
            ),
        }
    }
    let failed = verdict.failures().len();
    let total = verdict.checks.len();
    let new = match verdict.new_metrics.len() {
        0 => String::new(),
        n => format!(", {n} new metrics not in the golden"),
    };
    if failed == 0 {
        eprintln!("{name}: ok, {total} checks passed ({ms} ms){new}");
        OK
    } else {
        eprintln!("{name}: REGRESSION, {failed} of {total} checks failed ({ms} ms){new}");
        REGRESSION
    }
}
