//! `hostbench` — host-time benchmark of the Plexus simulator.
//!
//! ```text
//! hostbench --workload udp_flows|tcp_bulk|traced_fanout
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Runs one seeded workload in a fresh world per iteration for `S`
//! seconds, single threaded. With `--trace 0` it reports the end-to-end
//! metrics with span recording off; with `--trace 1` it measures an
//! untraced half, then a traced half with the benchmark's span recorder
//! on, and reports the per-layer metrics. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` (output
//! checks and count repeatability, per iteration) and `metrics`. See
//! `README.md` for the workloads and the metric → layer table.

mod check;
mod metrics;
mod spans;
mod wire;
mod workloads;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use plexus_sim::time::{SimDuration, SimTime};
use plexus_sim::Engine;

use metrics::{median, ratio, tail, Def, END_TO_END, PER_LAYER};
use spans::span;
use workloads::{Counts, Workload};

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;
/// Fewest measured iterations per phase: enough for a tail percentile
/// with ten samples beyond the median.
const MIN_SAMPLES: usize = 20;
/// A phase stops at its minimum sample count only while under this.
const PHASE_CAP: Duration = Duration::from_secs(60);
/// Iterations after which `peak_rss_mib` is read: a fixed count, because
/// every iteration leaks its world (the stack's `Rc` graph is cyclic),
/// so a high-water mark read at the end would grow with run speed.
const RSS_AT_ITERATION: u64 = 21;
/// No-op events per engine micro-measurement.
const ENGINE_EVENTS: u64 = 200_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (DEFAULT_SEED, 10.0, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(String::from("--seconds must be in (0, 600]"));
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One measured iteration.
struct Sample {
    total_ns: f64,
    setup_ns: f64,
    run_ns: f64,
    pool_allocated: f64,
    pool_reused: f64,
}

/// Runs iterations and keeps the correctness ledger.
struct Runner {
    workload: Box<dyn Workload>,
    reference: Option<Counts>,
    attempted: u64,
    failed: u64,
    peak_rss_mib: f64,
}

impl Runner {
    fn iterate(&mut self, traced: bool) -> Sample {
        let t = Instant::now();
        let out = span("bench.iter", || self.workload.iterate());
        let total_ns = t.elapsed().as_nanos() as f64;
        if traced {
            spans::end_iteration();
        }
        self.attempted += 1;
        if self.attempted == RSS_AT_ITERATION {
            self.peak_rss_mib = peak_rss_mib();
        }
        let mut error = out.check.err();
        match &self.reference {
            None => self.reference = Some(out.counts.clone()),
            Some(r) if *r != out.counts => {
                let diff: Vec<String> = out
                    .counts
                    .iter()
                    .filter(|(k, v)| r.get(*k) != Some(v))
                    .map(|(k, v)| format!("{k}: {} -> {v}", r.get(k).copied().unwrap_or(0)))
                    .collect();
                error.get_or_insert(format!("simulated counts changed: {}", diff.join(", ")));
            }
            Some(_) => {}
        }
        if let Some(e) = error {
            self.failed += 1;
            if self.failed <= 3 {
                eprintln!("iteration {} failed: {e}", self.attempted);
            }
        }
        Sample {
            total_ns,
            setup_ns: out.setup_ns as f64,
            run_ns: out.run_ns as f64,
            pool_allocated: out.pool.allocated as f64,
            pool_reused: out.pool.reused as f64,
        }
    }

    /// Iterates for `seconds`, and at least [`MIN_SAMPLES`] times unless
    /// that would pass [`PHASE_CAP`].
    fn measure(&mut self, seconds: f64, traced: bool) -> Vec<Sample> {
        spans::set_enabled(traced);
        let budget = Duration::from_secs_f64(seconds);
        let start = Instant::now();
        let mut samples = Vec::new();
        while start.elapsed() < budget
            || (samples.len() < MIN_SAMPLES && start.elapsed() < PHASE_CAP)
        {
            samples.push(self.iterate(traced));
        }
        spans::set_enabled(false);
        samples
    }

    fn counts(&self) -> &Counts {
        self.reference.as_ref().expect("at least one iteration ran")
    }
}

fn col(samples: &[Sample], f: impl Fn(&Sample) -> f64) -> Vec<f64> {
    samples.iter().map(f).collect()
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host ns per no-op event pushed through `Engine::schedule_at` and
/// `Engine::run`, at seeded instants; median of five repetitions.
fn engine_ns_per_event(seed: u64) -> f64 {
    let reps: Vec<f64> = (0..5)
        .map(|_| {
            let mut rng = wire::Rng::new(seed, 4);
            let t = Instant::now();
            let mut engine = Engine::new();
            for _ in 0..ENGINE_EVENTS {
                let at = SimTime::ZERO + SimDuration::from_nanos(rng.below(1_000_000_000));
                engine.schedule_at(at, |_| {});
            }
            engine.run();
            black_box(engine.executed());
            t.elapsed().as_nanos() as f64 / ENGINE_EVENTS as f64
        })
        .collect();
    median(&reps)
}

/// The end-to-end metrics of an untraced phase, and a note with the
/// sample count, median and tail. Times that summarise a run's host
/// speed (`iter_ms.min`, `sim_events_per_s`, `host_ns_per_frame`) come
/// from its fastest iteration: on a shared host whose cores switch speed
/// under other tenants' load, the median moves with the share of the run
/// spent slowed down, while the fastest iteration moves least (see
/// README.md).
fn end_to_end(
    samples: &[Sample],
    counts: &Counts,
    rss_mib: f64,
) -> (BTreeMap<&'static str, f64>, String) {
    let iter_ms = col(samples, |s| s.total_ns / 1e6);
    let (pct, tail_ms) = tail(&iter_ms);
    let fastest_run_ns = col(samples, |s| s.run_ns)
        .into_iter()
        .fold(f64::INFINITY, f64::min);
    let executed = counts["engine.executed"] as f64;
    let frames = counts["nic.rx_frames"] as f64;
    let mut m = BTreeMap::new();
    m.insert(
        "iter_ms.min",
        iter_ms.iter().copied().fold(f64::INFINITY, f64::min),
    );
    m.insert("sim_events_per_s", ratio(executed, fastest_run_ns / 1e9));
    m.insert("host_ns_per_frame", ratio(fastest_run_ns, frames));
    m.insert("setup_s", median(&col(samples, |s| s.setup_ns / 1e9)));
    m.insert("peak_rss_mib", rss_mib);
    let note = format!(
        "{} samples; {executed} engine events and {frames} frames per iteration\n  \
         {:<40} {:>18.6} ms\n  {:<40} {:>18.6} ms (p{pct})",
        samples.len(),
        "iter_ms.p50",
        median(&iter_ms),
        "iter_ms.tail",
        tail_ms
    );
    (m, note)
}

fn per_layer(
    untraced: &[Sample],
    traced: &[Sample],
    counts: &Counts,
    seed: u64,
) -> BTreeMap<&'static str, f64> {
    let totals = spans::totals();
    let iters = traced.len() as f64;
    let t = |name: &str| totals.get(name).copied().unwrap_or_default();
    let per_call_ns = |name: &str| ratio(t(name).total_ns as f64, t(name).calls as f64);
    let per_iter_ms = |name: &str| t(name).total_ns as f64 / iters / 1e6;
    let c = |name: &str| counts.get(name).copied().unwrap_or(0) as f64;
    let frames = c("nic.rx_frames");

    let mut layer_self: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, n) in &totals {
        let layer = if *name == "sim.run" {
            "sim.run"
        } else {
            spans::layer_of(name)
        };
        *layer_self.entry(layer).or_default() += n.self_ns as f64 / iters / 1e6;
    }
    let apps_calls: u64 = totals
        .iter()
        .filter(|(n, _)| spans::layer_of(n) == "apps")
        .map(|(_, t)| t.calls)
        .sum();
    let traced_ms = median(&col(traced, |s| s.total_ns / 1e6));
    let traced_mean_ms = col(traced, |s| s.total_ns / 1e6).iter().sum::<f64>() / iters;
    let untraced_ms = median(&col(untraced, |s| s.total_ns / 1e6));
    let pool_alloc = median(&col(traced, |s| s.pool_allocated));
    let pool_reused = median(&col(traced, |s| s.pool_reused));
    let tracing = counts.contains_key("trace.records");

    let mut m = BTreeMap::new();
    m.insert(
        "sim.engine.events_per_frame",
        ratio(c("engine.executed"), frames),
    );
    m.insert("sim.engine.ns_per_event", engine_ns_per_event(seed));
    m.insert(
        "sim.run.self_ns_per_frame",
        ratio(t("sim.run").self_ns as f64 / iters, frames),
    );
    m.insert("sim.nic.transmit_ns", per_call_ns("sim.nic.transmit"));
    m.insert(
        "sim.nic.frames_per_rx_interrupt",
        ratio(c("stack.rx_frames"), c("stack.rx_interrupts")),
    );
    m.insert(
        "sim.nic.frames_per_doorbell",
        ratio(c("stack.tx_frames"), c("stack.tx_doorbells")),
    );
    m.insert(
        "sim.nic.ring_drop_frac",
        ratio(
            c("nic.ring_drops"),
            c("nic.ring_drops") + frames + c("nic.tx_frames"),
        ),
    );
    m.insert(
        "kernel.dispatch.raises_per_frame",
        ratio(c("dispatch.raises"), c("stack.rx_frames")),
    );
    m.insert(
        "kernel.dispatch.guard_evals_per_raise",
        ratio(c("dispatch.guard_evals"), c("dispatch.raises")),
    );
    m.insert(
        "kernel.dispatch.demux_hit_frac",
        ratio(c("dispatch.demux_hits"), c("dispatch.raises")),
    );
    m.insert("filter.bind_ms", per_call_ns("filter.bind") / 1e6);
    m.insert(
        "filter.compiled_eval_frac",
        ratio(
            c("dispatch.compiled_guard_evals"),
            c("dispatch.verified_guard_evals"),
        ),
    );
    m.insert(
        "core.stack.attach_ms",
        per_call_ns("core.stack.attach") / 1e6,
    );
    m.insert("core.udp.send_ns", per_call_ns("core.udp.send"));
    m.insert("core.tcp.send_in_ms", per_iter_ms("core.tcp.send_in"));
    m.insert(
        "core.tcp.segments_in_per_mb",
        ratio(c("tcp.segments_in"), c("tcp.bytes") / 1e6),
    );
    m.insert("core.tcp.retransmits", c("tcp.retransmits"));
    m.insert(
        "net.mbuf.cluster_allocs_per_frame",
        ratio(pool_alloc, frames),
    );
    m.insert(
        "net.mbuf.cluster_reuse_frac",
        ratio(pool_reused, pool_alloc + pool_reused),
    );
    m.insert(
        "apps.handler_ns",
        ratio(
            layer_self.get("apps").copied().unwrap_or(0.0) * iters * 1e6,
            apps_calls as f64,
        ),
    );
    m.insert("trace.records_per_frame", ratio(c("trace.records"), frames));
    m.insert(
        "trace.simulate_ms",
        if tracing { per_iter_ms("sim.run") } else { 0.0 },
    );
    m.insert("trace.profile_build_ms", per_iter_ms("trace.profile_build"));
    m.insert(
        "trace.timeline_build_ms",
        per_iter_ms("trace.timeline_build"),
    );
    m.insert("trace.journey_build_ms", per_iter_ms("trace.journey_build"));
    m.insert("trace.live_report_ms", per_iter_ms("trace.live_report"));
    m.insert("trace.export_ms", per_iter_ms("trace.export"));
    m.insert("trace.export_bytes", c("trace.export_bytes"));
    let layers = [
        ("sim", "sim.self_ms"),
        ("sim.run", "sim.run.self_ms"),
        ("kernel", "kernel.self_ms"),
        ("filter", "filter.self_ms"),
        ("net", "net.self_ms"),
        ("core", "core.self_ms"),
        ("apps", "apps.self_ms"),
        ("trace", "trace.self_ms"),
        ("bench", "bench.self_ms"),
    ];
    let mut accounted = 0.0;
    for (layer, metric) in layers {
        let v = layer_self.get(layer).copied().unwrap_or(0.0);
        accounted += v;
        m.insert(metric, v);
    }
    m.insert("bench.accounted_frac", ratio(accounted, traced_mean_ms));
    m.insert(
        "bench.span_overhead_frac",
        ratio(traced_ms, untraced_ms) - 1.0,
    );
    m
}

fn render(defs: &[Def], values: &BTreeMap<&'static str, f64>) -> (String, String) {
    let mut table = String::new();
    let mut json = String::new();
    for (i, d) in defs.iter().enumerate() {
        let v = values[d.name];
        let v = if v.is_finite() { v } else { 0.0 };
        table.push_str(&format!("  {:<40} {:>18.6} {}\n", d.name, v, d.unit));
        if i > 0 {
            json.push_str(", ");
        }
        json.push_str(&format!(
            "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            d.name, d.unit
        ));
    }
    (table, json)
}

fn spans_path(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{workload}-seed{seed}.tsv"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            eprintln!(
                "usage: hostbench --workload {} [--seed N] [--seconds S] [--trace 0|1]",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(workload) = workloads::build(&args.workload, args.seed) else {
        eprintln!(
            "hostbench: unknown workload {} (one of {})",
            args.workload,
            workloads::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let mut runner = Runner {
        workload,
        reference: None,
        attempted: 0,
        failed: 0,
        peak_rss_mib: 0.0,
    };
    // One untimed iteration first: the first in a fresh process pays
    // page faults on rings and fold buffers that later ones do not.
    runner.iterate(false);

    let (defs, values, note) = if args.trace {
        let untraced = runner.measure(args.seconds / 2.0, false);
        let traced = runner.measure(args.seconds / 2.0, true);
        let m = per_layer(&untraced, &traced, runner.counts(), args.seed);
        let path = spans_path(&args.workload, args.seed);
        let note = match spans::write_tsv(&path) {
            Ok(()) => format!(
                "{} untraced and {} traced samples; spans in {}",
                untraced.len(),
                traced.len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("hostbench: writing {}: {e}", path.display());
                runner.failed += 1;
                String::new()
            }
        };
        (PER_LAYER, m, note)
    } else {
        let samples = runner.measure(args.seconds, false);
        let rss = if runner.peak_rss_mib > 0.0 {
            runner.peak_rss_mib
        } else {
            peak_rss_mib()
        };
        let (m, note) = end_to_end(&samples, runner.counts(), rss);
        (END_TO_END, m, note)
    };

    let (table, json) = render(defs, &values);
    println!(
        "hostbench {} seed {} trace {}: {note}",
        args.workload, args.seed, args.trace as u8
    );
    println!(
        "  {:<40} {:>18} (failed_frac {})",
        "failed / attempted",
        format!("{} / {}", runner.failed, runner.attempted),
        ratio(runner.failed as f64, runner.attempted as f64)
    );
    print!("{table}");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        runner.failed == 0,
        runner.attempted,
        runner.failed
    );
    ExitCode::SUCCESS
}
