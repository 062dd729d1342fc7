//! `plexus-replay` — replay a scenario with the flight recorder on and
//! write one view of the run.
//!
//! Scenarios come from the shared registry in [`plexus_bench::scenarios`]
//! (the `examples/` prefix and `.rs` suffix are stripped, so
//! `plexus-replay trace examples/udp_rtt` works). Every timestamp comes
//! from the simulated clock, so every artifact is byte-identical across
//! runs. The subcommands differ only in what they build from the run:
//!
//! * `trace` — `<s>.trace.json` in Chrome `trace_event` format (load it
//!   in `chrome://tracing` or <https://ui.perfetto.dev>) and
//!   `<s>.stats.json` with counters per guard/handler/domain and latency
//!   histograms.
//! * `profile` — `<s>.profile.json` with the truncation report, the
//!   per-triple aggregate (mean/p50/p99 ns), per-packet span trees and
//!   slices, and for the ping-pong scenarios the per-round latency
//!   waterfall whose segments sum to each measured RTT exactly; and
//!   `<s>.folded`, folded stacks (`layer;domain;handler ns`) for
//!   `flamegraph.pl --countname=ns` or <https://www.speedscope.app>.
//! * `timeline` — `<s>.timeline.json`, fixed simulated-time windows with
//!   goodput, drops by reason, rx-ring highwater, interrupt rate and
//!   nearest-rank p50/p99; `<s>.journeys.json`, per-journey hop ledgers
//!   that telescope to the measured end-to-end time exactly; and
//!   `BENCH_timeline_<s>.json`, the worst-window metrics in the bench
//!   report format (the window *index* is gated exactly, so a transient
//!   that merely moves in time still fails).
//! * `health` — runs the live tier, judges every window against the
//!   scenario's SLO at seal time, prints a per-window verdict table, and
//!   writes `HEALTH_<s>.json` (schema `plexus.health.v1`). The four
//!   threshold flags override the declared SLO field by field, which is
//!   how CI proves the gate can fail.
//!
//! `plexus-replay list` names the scenarios and `plexus-replay --help`
//! prints the flags and exit statuses.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use plexus_bench::report::BenchReport;
use plexus_bench::scenarios::{self, Scenario};
use plexus_trace::export::{chrome_trace, stats_json};
use plexus_trace::flame::folded;
use plexus_trace::journey::{self, journeys_json};
use plexus_trace::json;
use plexus_trace::live::{LiveReport, Slo};
use plexus_trace::profile::{pingpong_waterfall, profile_json, Profile};
use plexus_trace::timeline::{self, timeline_json};

const USAGE: &str = "\
usage: plexus-replay trace    [-o DIR] SCENARIO...
       plexus-replay profile  [-o DIR] SCENARIO...
       plexus-replay timeline [-o DIR] [--window NS] SCENARIO...
       plexus-replay health   [-o DIR] [--p99-ceiling-ns N] [--drop-ppm N]
                              [--goodput-floor N] [--skip-head N] SCENARIO...
       plexus-replay list

  -o DIR              output directory (default: the current directory)
  --window NS         override the scenario's window width (simulated ns)
  --p99-ceiling-ns N  fail any window whose p99 exceeds N ns
  --drop-ppm N        fail any window dropping more than N per million arrivals
  --goodput-floor N   fail any online-sealed window completing fewer than N
  --skip-head N       exempt the first N windows from the goodput floor

Exit status: 0 on success, 1 on a health breach, 2 on a usage error,
an unknown scenario, or a failed write or JSON validation.";

/// Exit statuses, ordered by severity: a run exits with its worst.
const OK: u8 = 0;
const BREACH: u8 = 1;
const FAILED: u8 = 2;

/// Health thresholds given on the command line; `None` keeps the
/// scenario's declared value.
#[derive(Default)]
struct SloFlags {
    p99_ceiling_ns: Option<u64>,
    drop_ppm_ceiling: Option<u64>,
    goodput_floor: Option<u64>,
    skip_head: Option<u64>,
}

/// A subcommand: builds its artifacts from one scenario run.
type View = fn(&Scenario, &Args) -> Artifacts;

struct Args {
    view: View,
    out_dir: PathBuf,
    window_ns: Option<u64>,
    slo: SloFlags,
    scenarios: Vec<String>,
}

/// What one subcommand built from one scenario run.
struct Artifacts {
    /// One line printed beside the written paths.
    summary: String,
    /// `(file name, body)` pairs, written byte for byte.
    files: Vec<(String, String)>,
    status: u8,
}

fn number(argv: &mut impl Iterator<Item = String>, flag: &str) -> Result<u64, String> {
    argv.next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{flag} needs a non-negative integer"))
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let sub = argv.next().ok_or("missing subcommand")?;
    let view: View = match sub.as_str() {
        "trace" => trace,
        "profile" => profile,
        "timeline" => timeline,
        "health" => health,
        _ => return Err(format!("unknown subcommand: {sub}")),
    };
    let mut args = Args {
        view,
        out_dir: PathBuf::from("."),
        window_ns: None,
        slo: SloFlags::default(),
        scenarios: Vec::new(),
    };
    while let Some(arg) = argv.next() {
        let flag = arg.as_str();
        match (sub.as_str(), flag) {
            (_, "-o" | "--out") => {
                args.out_dir = argv.next().ok_or("-o needs a directory")?.into();
            }
            ("timeline", "--window") => match number(&mut argv, flag)? {
                0 => return Err(String::from("--window needs a positive nanosecond count")),
                ns => args.window_ns = Some(ns),
            },
            ("health", "--p99-ceiling-ns") => {
                args.slo.p99_ceiling_ns = Some(number(&mut argv, flag)?);
            }
            ("health", "--drop-ppm") => {
                args.slo.drop_ppm_ceiling = Some(number(&mut argv, flag)?);
            }
            ("health", "--goodput-floor") => {
                args.slo.goodput_floor = Some(number(&mut argv, flag)?);
            }
            ("health", "--skip-head") => args.slo.skip_head = Some(number(&mut argv, flag)?),
            (_, _) if flag.starts_with('-') => {
                return Err(format!("unknown option for this subcommand: {flag}"));
            }
            _ => args.scenarios.push(arg),
        }
    }
    if args.scenarios.is_empty() {
        return Err(String::from("no scenario given"));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("list") => {
            for s in scenarios::SCENARIOS {
                println!("{:<18} {}", s.name, s.help);
            }
            return ExitCode::SUCCESS;
        }
        Some("-h" | "--help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let args = match parse(argv.into_iter()) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("plexus-replay: {e}\n\n{USAGE}");
            return ExitCode::from(FAILED);
        }
    };

    let mut status = OK;
    for raw in &args.scenarios {
        let Some(scenario) = scenarios::find(raw) else {
            eprintln!("unknown scenario: {raw} (try `plexus-replay list`)");
            status = FAILED;
            continue;
        };
        let artifacts = (args.view)(scenario, &args);
        status = status
            .max(artifacts.status)
            .max(emit(scenario.name, &args.out_dir, &artifacts));
    }
    ExitCode::from(status)
}

/// Writes each file into `dir`, validating every `.json` body first; stops
/// at the first invalid body or failed write.
fn emit(name: &str, dir: &Path, artifacts: &Artifacts) -> u8 {
    if let Err(e) = fs::create_dir_all(dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return FAILED;
    }
    let mut paths = Vec::new();
    for (file, body) in &artifacts.files {
        if file.ends_with(".json") {
            if let Err(e) = json::validate(body) {
                eprintln!("{name}: internal error: emitted {file} is invalid JSON: {e}");
                return FAILED;
            }
        }
        let path = dir.join(file);
        if let Err(e) = fs::write(&path, body) {
            eprintln!("{name}: write of {} failed: {e}", path.display());
            return FAILED;
        }
        paths.push(path.display().to_string());
    }
    eprintln!("{name}: {} -> {}", artifacts.summary, paths.join(" + "));
    OK
}

fn trace(s: &Scenario, _: &Args) -> Artifacts {
    let name = s.name;
    let recorder = s.run();
    if recorder.overwritten() > 0 {
        eprintln!(
            "{name}: WARNING: ring (capacity {}) wrapped — {} records overwritten; \
             the stats JSON carries a trace.truncated.records counter",
            s.ring,
            recorder.overwritten()
        );
    }
    Artifacts {
        summary: format!("{} events", recorder.recorded()),
        files: vec![
            (format!("{name}.trace.json"), chrome_trace(&recorder) + "\n"),
            (format!("{name}.stats.json"), stats_json(&recorder) + "\n"),
        ],
        status: OK,
    }
}

fn profile(s: &Scenario, _: &Args) -> Artifacts {
    let name = s.name;
    let recorder = s.run();
    let profile = Profile::build(&recorder);
    if !profile.truncation.clean() {
        eprintln!(
            "{name}: WARNING: ring (capacity {}) wrapped — {} records dropped, \
             {} orphan packets; durations for orphans are EXCLUDED from aggregates \
             (rerun with a larger ring for complete attribution)",
            s.ring,
            profile.truncation.dropped_records,
            profile.truncation.orphan_packets.len()
        );
    }
    let waterfall = s
        .app_domain
        .map(|domain| pingpong_waterfall(&profile, domain));
    if let Some(Err(e)) = &waterfall {
        eprintln!("{name}: no waterfall: {e}");
    }
    Artifacts {
        summary: format!(
            "{} packets ({} records)",
            profile.packets.len(),
            recorder.recorded()
        ),
        files: vec![
            (
                format!("{name}.profile.json"),
                profile_json(
                    &profile,
                    waterfall.as_ref().and_then(|w| w.as_ref().ok()),
                    s.detail,
                ),
            ),
            (format!("{name}.folded"), folded(&profile)),
        ],
        status: if matches!(waterfall, Some(Err(_))) {
            FAILED
        } else {
            OK
        },
    }
}

fn timeline(s: &Scenario, args: &Args) -> Artifacts {
    let name = s.name;
    let recorder = s.run();
    let window_ns = args.window_ns.unwrap_or(s.window_ns);
    let tl = timeline::build(&recorder, window_ns);
    let journeys = journey::build(&Profile::build(&recorder));
    if tl.truncated_records > 0 {
        eprintln!(
            "{name}: WARNING: ring (capacity {}) wrapped — {} records overwritten; \
             early windows UNDER-REPORT (rerun with a larger ring for full coverage)",
            s.ring, tl.truncated_records
        );
    }
    if journeys.orphan_packets > 0 {
        eprintln!(
            "{name}: WARNING: {} orphan packets EXCLUDED from journeys — ring \
             wraparound ate their arrival records, so their journey tag is unknown",
            journeys.orphan_packets
        );
    }

    let mut report = BenchReport::new(&format!("timeline_{name}"));
    if let Some(w) = tl.worst_p99_window() {
        report.scalar_windowed("worst_p99_us", w.p99_ns as f64 / 1000.0, "us", w.index);
    }
    if let Some(w) = tl.worst_drop_window() {
        report.scalar_windowed(
            "worst_window_drops",
            w.drop_count() as f64,
            "drops",
            w.index,
        );
    }
    report.count("windows", tl.windows.len() as u64);
    report.count(
        "completions",
        tl.windows.iter().map(|w| w.completions).sum(),
    );
    report.count("drops", tl.windows.iter().map(|w| w.drop_count()).sum());
    report.count("journeys", journeys.journeys.len() as u64);
    report.count("truncated_records", tl.truncated_records);
    report.count("orphan_packets", journeys.orphan_packets);
    report.count("journeys_truncated", journeys.journeys_truncated);

    let worst = tl
        .worst_p99_window()
        .map_or(String::from("no samples"), |w| {
            format!(
                "worst p99 {} ns in window {} (t = {} ms)",
                w.p99_ns,
                w.index,
                w.index * window_ns / 1_000_000
            )
        });
    Artifacts {
        summary: format!(
            "{} windows of {} ms, {} journeys; {worst}",
            tl.windows.len(),
            window_ns / 1_000_000,
            journeys.journeys.len()
        ),
        files: vec![
            (format!("{name}.timeline.json"), timeline_json(&tl)),
            (
                format!("{name}.journeys.json"),
                journeys_json(&journeys, s.detail),
            ),
            (
                format!("BENCH_timeline_{name}.json"),
                report.to_json() + "\n",
            ),
        ],
        status: OK,
    }
}

fn health(s: &Scenario, args: &Args) -> Artifacts {
    let name = s.name;
    let flags = &args.slo;
    let base = s.slo.clone().unwrap_or_else(Slo::none);
    let slo = Slo {
        p99_ceiling_ns: flags.p99_ceiling_ns.or(base.p99_ceiling_ns),
        drop_ppm_ceiling: flags.drop_ppm_ceiling.or(base.drop_ppm_ceiling),
        goodput_floor: flags.goodput_floor.or(base.goodput_floor),
        skip_head: flags.skip_head.unwrap_or(base.skip_head),
    };
    let rep = s
        .run_with_slo(Some(slo.clone()))
        .live_report()
        .expect("scenario runs enable the live tier");
    verdict_table(name, &rep);
    Artifacts {
        summary: format!(
            "{} windows ({} online), {} breached, {} breaches total",
            rep.windows.len(),
            rep.windows_sealed_online,
            windows_breached(&rep),
            rep.breaches.len()
        ),
        files: vec![(format!("HEALTH_{name}.json"), health_json(name, &rep, &slo))],
        status: if rep.breaches.is_empty() { OK } else { BREACH },
    }
}

fn opt(v: Option<u64>) -> String {
    v.map_or(String::from("null"), |n| n.to_string())
}

/// The names of the SLO clauses window `index` breached, in breach order.
fn breach_kinds(rep: &LiveReport, index: u64) -> Vec<&'static str> {
    rep.breaches
        .iter()
        .filter(|b| b.window == index)
        .map(|b| b.kind.name())
        .collect()
}

fn windows_breached(rep: &LiveReport) -> usize {
    rep.breaches
        .iter()
        .map(|b| b.window)
        .collect::<BTreeSet<u64>>()
        .len()
}

/// Renders the health verdict as deterministic JSON (schema
/// `plexus.health.v1`).
fn health_json(scenario: &str, rep: &LiveReport, slo: &Slo) -> String {
    let mut out = String::from("{\n  \"schema\": \"plexus.health.v1\",\n");
    out.push_str(&format!("  \"scenario\": \"{scenario}\",\n"));
    out.push_str(&format!("  \"window_ns\": {},\n", rep.window_ns));
    out.push_str(&format!(
        "  \"slo\": {{\"p99_ceiling_ns\": {}, \"drop_ppm_ceiling\": {}, \
         \"goodput_floor\": {}, \"skip_head\": {}}},\n",
        opt(slo.p99_ceiling_ns),
        opt(slo.drop_ppm_ceiling),
        opt(slo.goodput_floor),
        slo.skip_head
    ));
    out.push_str(&format!("  \"windows_total\": {},\n", rep.windows.len()));
    out.push_str(&format!(
        "  \"windows_sealed_online\": {},\n",
        rep.windows_sealed_online
    ));
    out.push_str(&format!(
        "  \"windows_breached\": {},\n",
        windows_breached(rep)
    ));
    out.push_str(&format!("  \"late_records\": {},\n", rep.late_records));
    out.push_str("  \"breaches\": [");
    for (i, b) in rep.breaches.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"window\": {}, \"kind\": \"{}\", \"value\": {}, \"limit\": {}}}",
            b.window,
            b.kind.name(),
            b.value,
            b.limit
        ));
    }
    out.push_str(if rep.breaches.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });
    out.push_str("  \"verdicts\": [");
    for (i, w) in rep.windows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let kinds = breach_kinds(rep, w.index);
        let verdict = if kinds.is_empty() {
            String::from("\"pass\"")
        } else {
            let quoted: Vec<String> = kinds.iter().map(|k| format!("\"{k}\"")).collect();
            format!("[{}]", quoted.join(", "))
        };
        out.push_str(&format!(
            "\n    {{\"window\": {}, \"arrivals\": {}, \"completions\": {}, \
             \"p99_ns\": {}, \"drops\": {}, \"verdict\": {verdict}}}",
            w.index,
            w.arrivals,
            w.completions,
            w.p99_ns,
            w.drop_count()
        ));
    }
    out.push_str(if rep.windows.is_empty() {
        "]\n}\n"
    } else {
        "\n  ]\n}\n"
    });
    out
}

fn verdict_table(name: &str, rep: &LiveReport) {
    eprintln!(
        "{name}: {:>6} {:>10} {:>12} {:>12} {:>8}  verdict",
        "window", "arrivals", "completions", "p99_ns", "drops"
    );
    for w in &rep.windows {
        let kinds = breach_kinds(rep, w.index);
        let verdict = if kinds.is_empty() {
            String::from("pass")
        } else {
            format!("BREACH {}", kinds.join("+"))
        };
        eprintln!(
            "{name}: {:>6} {:>10} {:>12} {:>12} {:>8}  {verdict}",
            w.index,
            w.arrivals,
            w.completions,
            w.p99_ns,
            w.drop_count()
        );
    }
}
