//! Metric names and units, and the order statistics the benchmark
//! reports. `BENCHMARK.json` lists the same names; `tests/contract.rs`
//! keeps the two in step.

/// A reported metric.
#[derive(Clone, Copy, Debug)]
pub struct Def {
    /// Dotted name.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit }
}

/// End-to-end metrics, measured with span recording off. The median
/// and tail iteration are printed beside them but not listed: across
/// processes on a shared host they move by more than any bound the
/// benchmark may set (see README.md).
pub const END_TO_END: &[Def] = &[
    def("iter_ms.min", "ms"),
    def("sim_events_per_s", "1/s"),
    def("host_ns_per_frame", "ns"),
    def("setup_s", "s"),
    def("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, from the traced run.
pub const PER_LAYER: &[Def] = &[
    def("sim.engine.events_per_frame", "count"),
    def("sim.engine.ns_per_event", "ns"),
    def("sim.run.self_ns_per_frame", "ns"),
    def("sim.nic.transmit_ns", "ns"),
    def("sim.nic.frames_per_rx_interrupt", "count"),
    def("sim.nic.frames_per_doorbell", "count"),
    def("sim.nic.ring_drop_frac", "ratio"),
    def("kernel.dispatch.raises_per_frame", "count"),
    def("kernel.dispatch.guard_evals_per_raise", "count"),
    def("kernel.dispatch.demux_hit_frac", "ratio"),
    def("filter.bind_ms", "ms"),
    def("filter.compiled_eval_frac", "ratio"),
    def("core.stack.attach_ms", "ms"),
    def("core.udp.send_ns", "ns"),
    def("core.tcp.send_in_ms", "ms"),
    def("core.tcp.segments_in_per_mb", "count"),
    def("core.tcp.retransmits", "count"),
    def("net.mbuf.cluster_allocs_per_frame", "count"),
    def("net.mbuf.cluster_reuse_frac", "ratio"),
    def("apps.handler_ns", "ns"),
    def("trace.records_per_frame", "count"),
    def("trace.simulate_ms", "ms"),
    def("trace.profile_build_ms", "ms"),
    def("trace.timeline_build_ms", "ms"),
    def("trace.journey_build_ms", "ms"),
    def("trace.live_report_ms", "ms"),
    def("trace.export_ms", "ms"),
    def("trace.export_bytes", "bytes"),
    def("sim.self_ms", "ms"),
    def("sim.run.self_ms", "ms"),
    def("kernel.self_ms", "ms"),
    def("filter.self_ms", "ms"),
    def("net.self_ms", "ms"),
    def("core.self_ms", "ms"),
    def("apps.self_ms", "ms"),
    def("trace.self_ms", "ms"),
    def("bench.self_ms", "ms"),
    def("bench.accounted_frac", "ratio"),
    def("bench.span_overhead_frac", "ratio"),
];

/// Median (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest whole percentile (50 to 99) whose nearest-rank sample has
/// at least ten samples beyond it, and that sample. With fewer than 20
/// samples no percentile qualifies and the median's rank is used.
pub fn tail(values: &[f64]) -> (u32, f64) {
    if values.is_empty() {
        return (50, 0.0);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = |p: usize| (p * n).div_ceil(100).max(1);
    let p = (50..=99).rev().find(|&p| n - rank(p) >= 10).unwrap_or(50);
    (p as u32, v[rank(p) - 1])
}

/// `num / den`, or 0 when `den` is 0 (a layer the workload never uses).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail_follow_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90's rank is 90, leaving exactly ten samples beyond it.
        assert_eq!(tail(&v), (90, 90.0));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (99, 990.0));
        let v: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(tail(&v).0, 50);
    }

    #[test]
    fn names_are_unique_and_within_the_naming_rules() {
        let all: Vec<&Def> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, d) in all.iter().enumerate() {
            assert!(d.name.len() <= 64 && d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
            assert!(all[i + 1..].iter().all(|o| o.name != d.name), "{}", d.name);
        }
    }
}
