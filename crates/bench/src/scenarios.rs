//! The scenario registry `plexus-replay` replays.
//!
//! Every `plexus-replay` subcommand (`trace`, `profile`, `timeline`,
//! `health`) replays these deterministic worlds. A [`Scenario`] bundles
//! everything any subcommand needs: the run function, the
//! flight-recorder ring capacity that captures the run without
//! overwrites, the profile detail cap, the app domain that delimits
//! ping-pong rounds, the timeline window width, and the health SLO.

use std::rc::Rc;

use plexus_apps::video::VideoConfig;
use plexus_trace::live::{LiveConfig, Slo};
use plexus_trace::timeline::DEFAULT_WINDOW_NS;
use plexus_trace::Recorder;

use crate::fwd_latency::plexus_fwd_traced;
use crate::overload::{run_point_traced, run_point_tx_traced, RxMode, TxMode, Workload};
use crate::udp_rtt::{udp_rtt_traced, Link};
use crate::video_cpu::{video_server_utilization_traced, VideoSystem};

/// One replayable scenario. Every run derives all timestamps from the
/// simulated clock, so any exporter over the recorder is byte-identical
/// across runs.
pub struct Scenario {
    /// Registry key (what `plexus-replay` takes on the command line).
    pub name: &'static str,
    /// One line of help shown by `plexus-replay list`.
    pub help: &'static str,
    /// Flight-recorder ring capacity: large enough that the scenario is
    /// captured without overwrites.
    pub ring: usize,
    /// How many packets keep full span/slice detail in profile JSON (the
    /// cap is stated in the output, never silent).
    pub detail: usize,
    /// The app domain that delimits ping-pong rounds (`None`: no
    /// round-trip waterfall for this scenario).
    pub app_domain: Option<&'static str>,
    /// Timeline window width in simulated nanoseconds — sized so each
    /// scenario folds into tens of windows, not thousands.
    pub window_ns: u64,
    /// The scenario's service-level objectives, evaluated per sealed live
    /// window by `plexus-replay health` (`None`: the scenario has no declared
    /// health envelope — every window passes). Thresholds are calibrated
    /// against the committed goldens with headroom; a deliberately
    /// *breaching* envelope documents a known-bad configuration (the
    /// per-packet `overload` scenario livelocks by design).
    pub slo: Option<Slo>,
    run: fn(&Rc<Recorder>),
}

impl Scenario {
    /// Replays the scenario with a fresh recorder installed across the
    /// whole world and returns the recorder. The live tier runs alongside
    /// with the scenario's window width and declared SLO, and its summary
    /// counters are flushed into the registry, so every exporter built on
    /// `run()` sees `trace.live.*` health.
    pub fn run(&self) -> Rc<Recorder> {
        self.run_with_slo(self.slo.clone())
    }

    /// [`Scenario::run`] with the SLO replaced (`plexus-replay health`
    /// threshold overrides).
    pub fn run_with_slo(&self, slo: Option<Slo>) -> Rc<Recorder> {
        let recorder = Recorder::new(self.ring);
        let mut cfg = LiveConfig::new(self.window_ns);
        cfg.slo = slo;
        recorder.enable_live(cfg);
        (self.run)(&recorder);
        // Seal the trailing windows now so `trace.live.*` counters are
        // complete in the registry; `live_report` stays idempotent for
        // callers that want the full report.
        recorder.live_report();
        recorder
    }
}

fn run_udp_rtt(rec: &Rc<Recorder>) {
    udp_rtt_traced(true, &Link::ethernet(), 8, 20, rec);
}

fn run_udp_rtt_thread(rec: &Rc<Recorder>) {
    udp_rtt_traced(false, &Link::ethernet(), 8, 20, rec);
}

fn run_fig6_video(rec: &Rc<Recorder>) {
    video_server_utilization_traced(VideoSystem::Spin, 15, VideoConfig::default(), 1, Some(rec));
}

fn run_fig7_forwarding(rec: &Rc<Recorder>) {
    plexus_fwd_traced(&Link::ethernet(), 64, 5, Some(rec));
}

fn run_overload(rec: &Rc<Recorder>) {
    run_point_traced(
        Workload::UdpEcho,
        RxMode::PerPacket,
        &Link::t3(),
        (1, 4),
        Some(rec),
    );
}

fn run_overload_coalesced(rec: &Rc<Recorder>) {
    run_point_traced(
        Workload::UdpEcho,
        RxMode::Coalesced,
        &Link::t3(),
        (1, 4),
        Some(rec),
    );
}

fn run_tx_overload(rec: &Rc<Recorder>) {
    run_point_tx_traced(
        Workload::UdpEcho,
        RxMode::Coalesced,
        TxMode::Doorbell,
        &Link::gigabit(),
        (4, 1),
        Some(rec),
    );
}

fn run_tx_fanout(rec: &Rc<Recorder>) {
    run_point_tx_traced(
        Workload::UdpFanout,
        RxMode::Coalesced,
        TxMode::Doorbell,
        &Link::gigabit(),
        (1, 1),
        Some(rec),
    );
}

/// Every scenario `plexus-replay` can replay.
pub const SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "udp_rtt",
        help: "UDP echo ping-pong, interrupt-level handlers, Ethernet, 20 rounds (Figure 5)",
        ring: 1 << 16,
        detail: 64,
        app_domain: Some("rtt-bench"),
        window_ns: 1_000_000,
        slo: Some(Slo {
            p99_ceiling_ns: Some(700_000),
            drop_ppm_ceiling: Some(0),
            goodput_floor: None,
            skip_head: 0,
        }),
        run: run_udp_rtt,
    },
    Scenario {
        name: "udp_rtt_thread",
        help: "the same ping-pong with thread-mode delivery (Figure 5's other Plexus bar)",
        ring: 1 << 16,
        detail: 64,
        app_domain: Some("rtt-bench"),
        window_ns: 1_000_000,
        slo: Some(Slo {
            p99_ceiling_ns: Some(1_100_000),
            drop_ppm_ceiling: Some(0),
            goodput_floor: None,
            skip_head: 0,
        }),
        run: run_udp_rtt_thread,
    },
    Scenario {
        name: "fig6_video",
        help: "video server at 15 streams over the T3 for 1 simulated second (Figure 6)",
        ring: 1 << 18,
        detail: 8,
        app_domain: None,
        window_ns: 100_000_000,
        slo: Some(Slo {
            p99_ceiling_ns: None,
            drop_ppm_ceiling: Some(0),
            goodput_floor: None,
            skip_head: 0,
        }),
        run: run_fig6_video,
    },
    Scenario {
        name: "fig7_forwarding",
        help: "TCP echo through the in-kernel forwarder, 5 rounds (Figure 7)",
        ring: 1 << 16,
        detail: 16,
        app_domain: None,
        window_ns: 1_000_000,
        slo: Some(Slo {
            p99_ceiling_ns: Some(1_600_000),
            drop_ppm_ceiling: Some(900_000),
            goodput_floor: None,
            skip_head: 0,
        }),
        run: run_fig7_forwarding,
    },
    Scenario {
        name: "overload",
        help: "UDP echo at 1/4 line rate on the per-packet rx path (the saturating one)",
        ring: 1 << 18,
        detail: 8,
        app_domain: None,
        window_ns: DEFAULT_WINDOW_NS,
        slo: Some(Slo {
            p99_ceiling_ns: Some(15_000_000),
            drop_ppm_ceiling: Some(350_000),
            goodput_floor: Some(90),
            skip_head: 0,
        }),
        run: run_overload,
    },
    Scenario {
        name: "overload_coalesced",
        help: "the same offered load on the coalesced rx path (sheds instead of saturating)",
        ring: 1 << 18,
        detail: 8,
        app_domain: None,
        window_ns: DEFAULT_WINDOW_NS,
        slo: Some(Slo {
            p99_ceiling_ns: Some(15_000_000),
            drop_ppm_ceiling: Some(350_000),
            goodput_floor: Some(90),
            skip_head: 0,
        }),
        run: run_overload_coalesced,
    },
    Scenario {
        name: "tx_overload",
        help: "UDP echo storm at 4x line rate on the gigabit doorbell-batched tx path",
        ring: 1 << 21,
        detail: 8,
        app_domain: None,
        window_ns: DEFAULT_WINDOW_NS,
        slo: Some(Slo {
            p99_ceiling_ns: Some(25_000_000),
            drop_ppm_ceiling: Some(4_200_000),
            goodput_floor: Some(250),
            skip_head: 0,
        }),
        run: run_tx_overload,
    },
    Scenario {
        name: "tx_fanout",
        help: "fig6-style 4-way fan-out at line rate, transmit-bound, doorbell-batched",
        ring: 1 << 20,
        detail: 8,
        app_domain: None,
        window_ns: DEFAULT_WINDOW_NS,
        slo: Some(Slo {
            p99_ceiling_ns: Some(65_000_000),
            drop_ppm_ceiling: Some(980_000),
            goodput_floor: Some(400),
            skip_head: 0,
        }),
        run: run_tx_fanout,
    },
];

/// Looks up a scenario by name, accepting `examples/<name>` and
/// `<name>.rs` spellings.
pub fn find(raw: &str) -> Option<&'static Scenario> {
    let name = raw.trim_start_matches("examples/").trim_end_matches(".rs");
    SCENARIOS.iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_lookup_strips_prefixes() {
        for (i, s) in SCENARIOS.iter().enumerate() {
            assert!(
                SCENARIOS[i + 1..].iter().all(|o| o.name != s.name),
                "duplicate scenario name {}",
                s.name
            );
        }
        assert_eq!(find("udp_rtt").unwrap().name, "udp_rtt");
        assert_eq!(find("examples/udp_rtt").unwrap().name, "udp_rtt");
        assert_eq!(find("examples/udp_rtt.rs").unwrap().name, "udp_rtt");
        assert!(find("nonsense").is_none());
    }

    #[test]
    fn every_scenario_has_a_positive_window() {
        for s in SCENARIOS {
            assert!(s.window_ns > 0, "{}: zero window", s.name);
            assert!(s.ring > 0, "{}: zero ring", s.name);
        }
    }
}
