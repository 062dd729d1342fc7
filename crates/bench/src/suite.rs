//! The bench registry `plexus-bench` runs.
//!
//! One [`Bench`] per committed golden `results/BENCH_<name>.json`: the
//! paper's Figures 5–7 and §4.2 table, the §1.1, §3.3, §5.1 and §7
//! claims, and the sweeps beyond the paper. Each entry prints its human
//! table to stdout and returns its [`BenchReport`]; the binary writes the
//! report (`run`) or diffs it against the golden (`check`). Every value
//! comes from the simulated clock, so a report's bytes are identical
//! across runs.

use std::cell::{Cell, RefCell};
use std::net::Ipv4Addr;
use std::rc::Rc;

use plexus_apps::active_messages::{am_extension_spec, ActiveMessages};
use plexus_apps::video::VideoConfig;
use plexus_core::{PlexusStack, StackConfig};
use plexus_net::ether::MacAddr;
use plexus_sim::cpu::CostModel;
use plexus_sim::time::SimDuration;
use plexus_sim::World;

use crate::client_video::{video_client_utilization, ClientSystem};
use crate::fwd_latency::{forwarding_rtt_us, FwdSystem};
use crate::http_latency::{http_get_latency_us, HttpSystem};
use crate::overload::{
    sweep, sweep_tx, LoadPoint, RxMode, TxMode, Workload, FANOUT, MEASURE, PAYLOAD,
};
use crate::report::{percentile, BenchReport};
use crate::table;
use crate::tcp_tput::{raw_driver_mbps, tcp_throughput_mbps, TputSystem};
use crate::txn_latency::{txn_latency_us, TxnSystem};
use crate::udp_rtt::{udp_rtt_samples_ns, udp_rtt_us, udp_rtt_us_with_model, Link, System};
use crate::video_cpu::{video_server_utilization, VideoSystem};
use crate::{guard_eval, guard_state, sweeps};

/// One committed benchmark.
pub struct Bench {
    /// Registry key: the report's `bench` field and the stem of its
    /// golden, `results/BENCH_<name>.json`.
    pub name: &'static str,
    /// One line of help shown by `plexus-bench list`.
    pub help: &'static str,
    /// Runs the bench: prints the human table, returns the report.
    pub run: fn() -> BenchReport,
}

impl Bench {
    /// The file name of this bench's report, `BENCH_<name>.json`.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.name)
    }
}

/// Every bench `plexus-bench` can run, one per golden.
pub const BENCHES: &[Bench] = &[
    Bench {
        name: "fig5_udp_latency",
        help: "Figure 5: 8-byte UDP RTT on Ethernet, ATM and T3, plus the §4.1 fast drivers",
        run: fig5_udp_latency,
    },
    Bench {
        name: "tab_tcp_throughput",
        help: "§4.2 table: TCP bulk throughput, plus the gigabit TSO/offload ablation",
        run: tab_tcp_throughput,
    },
    Bench {
        name: "fig6_video_cpu",
        help: "Figure 6: video-server CPU vs. client streams over the T3",
        run: fig6_video_cpu,
    },
    Bench {
        name: "fig7_forwarding",
        help: "Figure 7: TCP redirection latency, in-kernel forwarder vs. user-level splice",
        run: fig7_forwarding,
    },
    Bench {
        name: "am_latency",
        help: "§3.3: interrupt-level active messages vs. the UDP path",
        run: am_latency,
    },
    Bench {
        name: "ablation",
        help: "the Figure 5 gap with one structural cost zeroed at a time",
        run: ablation,
    },
    Bench {
        name: "client_video_cpu",
        help: "§5.1 client side: viewer CPU for one stream, framebuffer-bound",
        run: client_video_cpu,
    },
    Bench {
        name: "http_latency",
        help: "§7: HTTP GET latency, in-kernel server vs. user process",
        run: http_latency,
    },
    Bench {
        name: "txn_latency",
        help: "§1.1: small-exchange latency, TCP vs. TCP-special vs. UDP",
        run: txn_latency,
    },
    Bench {
        name: "sweeps",
        help: "UDP RTT vs. payload size, and vs. guards bound (linear walk vs. hash demux)",
        run: sweeps::run,
    },
    Bench {
        name: "guard_state",
        help: "per-flow rate limiting: verified guard map vs. handler-kept table",
        run: guard_state::run,
    },
    Bench {
        name: "guard_eval",
        help: "guard evaluation: closure vs. interpreted IR vs. compiled tier",
        run: guard_eval::run,
    },
    Bench {
        name: "overload",
        help: "open-loop UDP load 0.1x-4x of T3: per-packet vs. coalesced receive",
        run: overload,
    },
    Bench {
        name: "tx_overload",
        help: "gigabit transmit path: flattened vs. scatter-gather doorbell batching",
        run: tx_overload,
    },
];

/// Looks up a bench by name.
pub fn find(name: &str) -> Option<&'static Bench> {
    BENCHES.iter().find(|b| b.name == name)
}

/// Figure 5: UDP round-trip time for small (8-byte) packets — Plexus
/// (interrupt), Plexus (thread), DIGITAL UNIX, and the raw driver-to-driver
/// floor — for Ethernet, Fore ATM, and DEC T3, plus the §4.1 fast-driver
/// variants.
fn fig5_udp_latency() -> BenchReport {
    const PAYLOAD: usize = 8;
    const ROUNDS: u32 = 100;

    fn metric_key(device: &str, system: System) -> String {
        let sys = match system {
            System::RawDriver => "raw_driver",
            System::PlexusInterrupt => "plexus_interrupt",
            System::PlexusThread => "plexus_thread",
            System::Dunix => "dunix",
        };
        format!("{}/{sys}", device.to_lowercase().replace(' ', "_"))
    }

    println!("Figure 5: UDP round-trip latency, {PAYLOAD}-byte payload ({ROUNDS} round trips)");
    println!();

    let links = [
        ("Ethernet", Link::ethernet()),
        ("Fore ATM", Link::atm()),
        ("DEC T3", Link::t3()),
    ];
    let systems = [
        System::RawDriver,
        System::PlexusInterrupt,
        System::PlexusThread,
        System::Dunix,
    ];

    let mut report = BenchReport::new("fig5_udp_latency");
    let mut rows = Vec::new();
    for (name, link) in &links {
        for sys in &systems {
            let samples = udp_rtt_samples_ns(*sys, link, PAYLOAD, ROUNDS);
            let us = samples.iter().sum::<u64>() as f64 / samples.len() as f64 / 1000.0;
            report.latency_from_ns(&metric_key(name, *sys), &samples);
            rows.push(vec![
                name.to_string(),
                sys.label().to_string(),
                format!("{us:.0}"),
            ]);
        }
    }
    report.count("rounds_per_cell", u64::from(ROUNDS));
    report.count("payload_bytes", PAYLOAD as u64);
    println!(
        "{}",
        table::render(&["device", "system", "RTT (us)"], &rows)
    );

    println!("Section 4.1: with the faster device drivers");
    println!();
    let fast = [
        ("Ethernet (fast driver)", Link::ethernet_fast()),
        ("Fore ATM (fast driver)", Link::atm_fast()),
    ];
    let mut rows = Vec::new();
    for (name, link) in &fast {
        let us = udp_rtt_us(System::PlexusInterrupt, link, PAYLOAD, ROUNDS);
        report.latency_us(&metric_key(name, System::PlexusInterrupt), us);
        rows.push(vec![
            name.to_string(),
            System::PlexusInterrupt.label().to_string(),
            format!("{us:.0}"),
        ]);
    }
    println!(
        "{}",
        table::render(&["device", "system", "RTT (us)"], &rows)
    );

    println!("Paper reference points: Plexus (interrupt) <600 us Ethernet,");
    println!("~350 us ATM, ~300 us T3; fast drivers 337 us Ethernet / 241 us ATM;");
    println!("DIGITAL UNIX substantially slower on every device.");
    report
}

/// §4.2's throughput comparison: TCP bulk transfer on Ethernet and ATM.
///
/// Paper numbers: Ethernet 8.9 Mb/s for both systems (wire-limited);
/// ATM 27.9 Mb/s (DIGITAL UNIX) vs 33 Mb/s (Plexus) under a ~53 Mb/s
/// driver-to-driver PIO ceiling. T3 has no paper value (a DMA bug blocked
/// the measurement); we report our number for completeness.
fn tab_tcp_throughput() -> BenchReport {
    const BYTES: usize = 4_000_000;

    println!(
        "Section 4.2: TCP throughput, {} MB transfer",
        BYTES / 1_000_000
    );
    println!();

    let links = [
        ("Ethernet", Link::ethernet(), "8.9 / 8.9"),
        ("Fore ATM", Link::atm(), "33 / 27.9"),
        ("DEC T3", Link::t3(), "n/a (DMA bug)"),
    ];

    let mut report = BenchReport::new("tab_tcp_throughput");
    let mut rows = Vec::new();
    for (name, link, paper) in &links {
        let plexus = tcp_throughput_mbps(TputSystem::Plexus, link, BYTES);
        let dunix = tcp_throughput_mbps(TputSystem::Dunix, link, BYTES);
        let dev = name.to_lowercase().replace(' ', "_");
        report.scalar(&format!("{dev}/plexus"), plexus, "mbit_s");
        report.scalar(&format!("{dev}/dunix"), dunix, "mbit_s");
        rows.push(vec![
            name.to_string(),
            format!("{plexus:.1}"),
            format!("{dunix:.1}"),
            paper.to_string(),
        ]);
    }
    println!(
        "{}",
        table::render(
            &[
                "device",
                "Plexus (Mb/s)",
                "DIGITAL UNIX (Mb/s)",
                "paper P/D"
            ],
            &rows
        )
    );

    let atm_raw = raw_driver_mbps(&Link::atm(), BYTES);
    println!("ATM driver-to-driver ceiling (PIO-limited): {atm_raw:.1} Mb/s (paper: ~53 Mb/s)");

    // Beyond the paper: segmentation + checksum offload on the gigabit
    // profile. With TSO the transport hands the driver super-segments
    // (tso_segs * MSS) and the adapter checksums during the DMA gather;
    // without, every wire segment pays its own tcp_proc + software
    // checksum pass and the sending CPU becomes the bottleneck.
    const GIGA_BYTES: usize = 16_000_000;
    let giga = Link::gigabit();
    let mut no_offload = Link::gigabit();
    no_offload.profile.tso_segs = 1;
    no_offload.profile.checksum_offload = false;
    let tso = tcp_throughput_mbps(TputSystem::Plexus, &giga, GIGA_BYTES);
    let plain = tcp_throughput_mbps(TputSystem::Plexus, &no_offload, GIGA_BYTES);
    println!();
    println!(
        "Gigabit Ethernet, {} MB transfer (Plexus only):",
        GIGA_BYTES / 1_000_000
    );
    println!(
        "{}",
        table::render(
            &["configuration", "Plexus (Mb/s)"],
            &[
                vec!["TSO + checksum offload".to_string(), format!("{tso:.1}")],
                vec!["no offload".to_string(), format!("{plain:.1}")],
            ]
        )
    );
    report.scalar("gigabit/plexus_tso", tso, "mbit_s");
    report.scalar("gigabit/plexus_no_offload", plain, "mbit_s");

    report.scalar("fore_atm/raw_driver_ceiling", atm_raw, "mbit_s");
    report.count("transfer_bytes", BYTES as u64);
    report
}

/// Figure 6: video-server CPU utilization vs. number of client streams.
///
/// 30 frame/s streams over the T3; both systems saturate the 45 Mb/s link
/// at 15 streams, and at that point SPIN consumes about half the processor
/// DIGITAL UNIX does.
fn fig6_video_cpu() -> BenchReport {
    let cfg = VideoConfig::default();
    const SECONDS: u64 = 1;

    println!(
        "Figure 6: server CPU utilization vs. client streams ({} fps, {} B frames, DEC T3)",
        cfg.fps, cfg.frame_bytes
    );
    println!();

    let mut report = BenchReport::new("fig6_video_cpu");
    let mut rows = Vec::new();
    for streams in [1usize, 2, 4, 6, 8, 10, 12, 15, 18, 21, 24, 27, 30] {
        let spin = video_server_utilization(VideoSystem::Spin, streams, cfg, SECONDS);
        let dunix = video_server_utilization(VideoSystem::Dunix, streams, cfg, SECONDS);
        report.scalar(
            &format!("streams_{streams:02}/spin_cpu"),
            spin.utilization * 100.0,
            "percent",
        );
        report.scalar(
            &format!("streams_{streams:02}/dunix_cpu"),
            dunix.utilization * 100.0,
            "percent",
        );
        rows.push(vec![
            streams.to_string(),
            format!("{:.1}", spin.offered_load * 100.0),
            format!("{:.1}", spin.utilization * 100.0),
            format!("{:.1}", dunix.utilization * 100.0),
            format!("{:.2}", dunix.utilization / spin.utilization),
            format!("{:.0}", spin.delivered_fraction * 100.0),
        ]);
    }
    println!(
        "{}",
        table::render(
            &[
                "streams",
                "offered load (% of T3)",
                "SPIN CPU (%)",
                "DUNIX CPU (%)",
                "DUNIX/SPIN",
                "delivered (%)"
            ],
            &rows
        )
    );
    println!("Paper: both saturate the network at 15 streams; SPIN uses ~half the CPU.");
    println!("Beyond 15 streams the link is oversubscribed: the adapter sheds frames");
    println!("(delivered < 100%), i.e. the server can no longer meet every deadline.");

    report.count("seconds_simulated", SECONDS);
    report
}

/// Figure 7: TCP redirection latency.
///
/// Request/response round trips through a port forwarder: the Plexus
/// in-kernel redirector vs. the DIGITAL UNIX user-level socket splice
/// (which cannot forward control packets and therefore breaks end-to-end
/// TCP semantics), with the direct no-forwarder path as the floor.
fn fig7_forwarding() -> BenchReport {
    const ROUNDS: u32 = 50;

    println!("Figure 7: TCP redirection latency (Ethernet, {ROUNDS} request/response rounds)");
    println!();

    let systems = [
        (FwdSystem::Direct, "direct"),
        (FwdSystem::Plexus, "plexus_redirect"),
        (FwdSystem::DunixSplice, "dunix_splice"),
    ];
    let link = Link::ethernet();
    let mut report = BenchReport::new("fig7_forwarding");
    let mut rows = Vec::new();
    for payload in [8usize, 64, 256, 1024] {
        let [direct, plexus, splice] = systems.map(|(sys, key)| {
            let us = forwarding_rtt_us(sys, &link, payload, ROUNDS);
            report.latency_us(&format!("payload_{payload:04}/{key}"), us);
            us
        });
        rows.push(vec![
            payload.to_string(),
            format!("{direct:.0}"),
            format!("{plexus:.0}"),
            format!("{splice:.0}"),
            format!("{:.0}", plexus - direct),
            format!("{:.0}", splice - direct),
        ]);
    }
    println!(
        "{}",
        table::render(
            &[
                "request (B)",
                "direct (us)",
                "Plexus (us)",
                "splice (us)",
                "Plexus added",
                "splice added"
            ],
            &rows
        )
    );
    println!("Paper: the in-kernel redirector adds far less latency than the user-level");
    println!("splice, and it alone preserves end-to-end TCP semantics (the splice");
    println!("terminates the client's connection at the forwarder).");

    report.count("rounds_per_cell", u64::from(ROUNDS));
    report
}

/// Mean round trip of an 8-byte active message over Ethernet: raw frames,
/// an ephemeral handler in each receive interrupt bouncing it back.
fn am_rtt_us(rounds: u32) -> f64 {
    let link = Link::ethernet();
    let mut world = World::new();
    let a = world.add_machine("a");
    let b = world.add_machine("b");
    let (_m, nics) = world.connect(
        &[&a, &b],
        link.profile.clone(),
        link.propagation,
        link.half_duplex,
    );
    let sa = PlexusStack::attach(
        &a,
        &nics[0],
        StackConfig::interrupt(Ipv4Addr::new(10, 0, 0, 1), MacAddr::local(1)),
    );
    let sb = PlexusStack::attach(
        &b,
        &nics[1],
        StackConfig::interrupt(Ipv4Addr::new(10, 0, 0, 2), MacAddr::local(2)),
    );
    let links = "the active-message spec links";
    let ea = sa.link_extension(&am_extension_spec("am-a")).expect(links);
    let eb = sb.link_extension(&am_extension_spec("am-b")).expect(links);
    let installs = "active messages install";
    let am_a = Rc::new(ActiveMessages::install(&sa, &ea).expect(installs));
    let am_b = Rc::new(ActiveMessages::install(&sb, &eb).expect(installs));

    // B: bounce every message back on handler 2.
    let am_b2 = am_b.clone();
    am_b.register(1, move |ctx, msg| {
        am_b2.reply_in(ctx, msg.src, 2, msg.argument, &msg.payload);
    });

    // A: score the round trip and fire the next.
    let remaining = Rc::new(Cell::new(rounds));
    let sent_at = Rc::new(Cell::new(0u64));
    let rtts: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
    let (rem, sa_at, rt, am_a2) = (
        remaining.clone(),
        sent_at.clone(),
        rtts.clone(),
        am_a.clone(),
    );
    am_a.register(2, move |ctx, msg| {
        let now = ctx.lease.now().as_nanos();
        rt.borrow_mut().push(now - sa_at.get());
        let left = rem.get() - 1;
        rem.set(left);
        if left > 0 {
            sa_at.set(ctx.lease.now().as_nanos());
            am_a2.reply_in(ctx, msg.src, 1, msg.argument, &msg.payload);
        }
    });

    sent_at.set(world.engine().now().as_nanos());
    am_a.send(world.engine_mut(), MacAddr::local(2), 1, 7, &[0u8; 8])
        .expect("the first message sends");
    world.run();
    let v = rtts.borrow();
    v.iter().sum::<u64>() as f64 / v.len() as f64 / 1000.0
}

/// §3.3's claim: active-message handlers at interrupt level minimize
/// latency. Compares the round trip of an 8-byte active message (raw
/// Ethernet, ephemeral handler in the receive interrupt) against the full
/// UDP path at interrupt level and at thread level.
fn am_latency() -> BenchReport {
    const ROUNDS: u32 = 100;
    println!("Section 3.3: interrupt-level active messages vs. the UDP path (Ethernet, 8 B)");
    println!();

    let am = am_rtt_us(ROUNDS);
    let udp_int = udp_rtt_us(System::PlexusInterrupt, &Link::ethernet(), 8, ROUNDS);
    let udp_thr = udp_rtt_us(System::PlexusThread, &Link::ethernet(), 8, ROUNDS);

    let rows = vec![
        vec![
            "active messages (interrupt)".to_string(),
            format!("{am:.0}"),
        ],
        vec!["UDP (interrupt)".to_string(), format!("{udp_int:.0}")],
        vec!["UDP (thread)".to_string(), format!("{udp_thr:.0}")],
    ];
    println!("{}", table::render(&["protocol", "RTT (us)"], &rows));
    println!("Claim: protocols needing little per-packet work run fastest at");
    println!("interrupt level; skipping IP/UDP processing shaves the rest.");

    let mut report = BenchReport::new("am_latency");
    report.latency_us("ethernet/active_messages", am);
    report.latency_us("ethernet/udp_interrupt", udp_int);
    report.latency_us("ethernet/udp_thread", udp_thr);
    report.count("rounds_per_cell", u64::from(ROUNDS));
    report
}

/// Ablation study: which structural cost explains the DIGITAL UNIX gap?
///
/// Figure 5's gap between Plexus and the monolithic baseline is the sum of
/// the boundary-crossing machinery Plexus eliminates. This bench zeroes
/// one cost-model constant at a time and re-measures the Ethernet UDP RTT
/// of both systems, attributing the gap to its components — the analysis
/// DESIGN.md promises for the calibration constants.
fn ablation() -> BenchReport {
    const ROUNDS: u32 = 50;
    let link = Link::ethernet();
    let base = CostModel::alpha_3000_400();

    let base_plexus = udp_rtt_us_with_model(System::PlexusInterrupt, &link, 8, ROUNDS, &base);
    let base_dunix = udp_rtt_us_with_model(System::Dunix, &link, 8, ROUNDS, &base);

    println!("Ablation: Ethernet UDP RTT with one structural cost zeroed at a time");
    println!();
    println!("baseline: Plexus (interrupt) {base_plexus:.0} us, DIGITAL UNIX {base_dunix:.0} us, gap {:.0} us", base_dunix - base_plexus);
    println!();

    type Knob = (&'static str, fn(&mut CostModel));
    let knobs: [Knob; 8] = [
        ("process_wakeup", |m| m.process_wakeup = SimDuration::ZERO),
        ("context_switch", |m| m.context_switch = SimDuration::ZERO),
        ("socket_layer", |m| m.socket_layer = SimDuration::ZERO),
        ("syscall (trap)", |m| m.syscall = SimDuration::ZERO),
        ("softirq hop", |m| m.softirq = SimDuration::ZERO),
        ("copy per byte", |m| {
            m.copy_per_byte = SimDuration::ZERO;
            m.copy_fixed = SimDuration::ZERO;
        }),
        ("dispatch+guards", |m| {
            m.dispatch_raise = SimDuration::ZERO;
            m.dispatch_handler = SimDuration::ZERO;
            m.guard_eval = SimDuration::ZERO;
        }),
        ("thread_spawn", |m| m.thread_spawn = SimDuration::ZERO),
    ];

    let mut report = BenchReport::new("ablation");
    report.latency_us("baseline/plexus_interrupt", base_plexus);
    report.latency_us("baseline/dunix", base_dunix);
    let mut rows = Vec::new();
    for (name, zero) in knobs {
        let mut m = base.clone();
        zero(&mut m);
        let p = udp_rtt_us_with_model(System::PlexusInterrupt, &link, 8, ROUNDS, &m);
        let d = udp_rtt_us_with_model(System::Dunix, &link, 8, ROUNDS, &m);
        let key = name.replace([' ', '(', ')'], "_");
        report.latency_us(&format!("zeroed_{key}/plexus_interrupt"), p);
        report.latency_us(&format!("zeroed_{key}/dunix"), d);
        rows.push(vec![
            name.to_string(),
            format!("{p:.0}"),
            format!("{d:.0}"),
            format!("{:+.0}", p - base_plexus),
            format!("{:+.0}", d - base_dunix),
            format!("{:.0}", d - p),
        ]);
    }
    println!(
        "{}",
        table::render(
            &[
                "cost zeroed",
                "Plexus (us)",
                "DUNIX (us)",
                "dPlexus",
                "dDUNIX",
                "remaining gap"
            ],
            &rows
        )
    );
    println!("Reading: zeroing a cost shrinks only the system that pays it. The");
    println!("DUNIX gap decomposes into wakeups + context switches + socket layer +");
    println!("traps + softirq (+copies at larger payloads); the dispatcher costs");
    println!("Plexus adds are an order of magnitude smaller — the paper's argument");
    println!("that graph dispatch is 'roughly one procedure call' per layer.");

    report.count("rounds_per_cell", u64::from(ROUNDS));
    report
}

/// §5.1's client-side claim: the video viewer is framebuffer-bound, so
/// SPIN and DIGITAL UNIX client CPU utilizations are *similar* — unlike
/// the server, where the structure gap is ~2×.
fn client_video_cpu() -> BenchReport {
    const SECONDS: u64 = 1;
    println!("Section 5.1 (client): viewer CPU for one 30 fps stream over T3");
    println!();
    let spin = video_client_utilization(ClientSystem::Spin, SECONDS);
    let dunix = video_client_utilization(ClientSystem::Dunix, SECONDS);
    let rows: Vec<Vec<String>> = [(ClientSystem::Spin, &spin), (ClientSystem::Dunix, &dunix)]
        .iter()
        .map(|(sys, s)| {
            vec![
                sys.label().to_string(),
                s.frames.to_string(),
                format!("{:.1}", s.utilization * 100.0),
                format!("{:.0}", s.display_share * 100.0),
            ]
        })
        .collect();
    println!(
        "{}",
        table::render(
            &["system", "frames", "client CPU (%)", "display share (%)"],
            &rows
        )
    );
    println!("Paper: \"the CPU utilization between the two operating systems was");
    println!("similar\" because the framebuffer (10x slower than RAM) dominates —");
    println!("the benefits of a customized protocol are masked when application");
    println!("processing dwarfs protocol processing.");

    let mut report = BenchReport::new("client_video_cpu");
    report.scalar("spin/client_cpu", spin.utilization * 100.0, "percent");
    report.scalar("dunix/client_cpu", dunix.utilization * 100.0, "percent");
    report.scalar("spin/display_share", spin.display_share * 100.0, "percent");
    report.scalar(
        "dunix/display_share",
        dunix.display_share * 100.0,
        "percent",
    );
    report.count("spin/frames", spin.frames);
    report.count("dunix/frames", dunix.frames);
    report
}

/// §7's HTTP demonstration as an experiment: full GET latency against an
/// in-kernel Plexus HTTP server vs. a DIGITAL UNIX user-process server.
fn http_latency() -> BenchReport {
    println!("Section 7: HTTP GET latency (handshake + request + response + close)");
    println!("over Ethernet, server in-kernel vs. user process");
    println!();
    let sizes = [128usize, 1024, 8192, 65536];
    let mut report = BenchReport::new("http_latency");
    let mut rows = Vec::new();
    for size in sizes {
        let p = http_get_latency_us(HttpSystem::Plexus, &Link::ethernet(), size);
        let d = http_get_latency_us(HttpSystem::Dunix, &Link::ethernet(), size);
        report.latency_us(&format!("body_{size:05}/plexus"), p);
        report.latency_us(&format!("body_{size:05}/dunix"), d);
        rows.push(vec![
            size.to_string(),
            format!("{p:.0}"),
            format!("{d:.0}"),
            format!("{:.0}", d - p),
        ]);
    }
    println!(
        "{}",
        table::render(
            &[
                "body (B)",
                "Plexus (us)",
                "DUNIX (us)",
                "structure cost (us)"
            ],
            &rows
        )
    );
    println!("The structure cost is per-request boundary crossing work; it is");
    println!("roughly constant until the response is large enough that wire time");
    println!("and per-byte copies dominate.");
    report
}

/// §1.1 quantified: small request/response latency under three
/// disciplines — full TCP connections, the TCP-special transaction
/// protocol (§3.1's second implementation), and raw UDP.
fn txn_latency() -> BenchReport {
    const ROUNDS: u32 = 20;
    println!("Section 1.1: small-exchange latency by transport discipline (Ethernet)");
    println!();
    let systems = [
        (TxnSystem::Udp, "udp"),
        (TxnSystem::TcpSpecial, "tcp_special"),
        (TxnSystem::TcpStandard, "tcp_standard"),
    ];
    let mut report = BenchReport::new("txn_latency");
    let mut rows = Vec::new();
    for (sys, key) in systems {
        let mut row = vec![sys.label().to_string()];
        for p in [8usize, 64, 256] {
            let us = txn_latency_us(sys, &Link::ethernet(), p, ROUNDS);
            report.latency_us(&format!("payload_{p:03}/{key}"), us);
            row.push(format!("{us:.0}"));
        }
        rows.push(row);
    }
    println!(
        "{}",
        table::render(
            &["discipline", "8 B (us)", "64 B (us)", "256 B (us)"],
            &rows
        )
    );
    println!("The transaction implementation \"minimizes connection lifetime\": one");
    println!("round trip where TCP-standard pays the handshake, the transfer, and");
    println!("the teardown — while UDP remains the unreliable floor. Both TCP");
    println!("implementations coexist on the same machines; guards split the port");
    println!("space between them (the paper's TCP-standard/TCP-special example).");

    report.count("rounds_per_cell", u64::from(ROUNDS));
    report
}

fn percentile_us(samples_ns: &[u64], q: f64) -> f64 {
    let mut v = samples_ns.to_vec();
    v.sort_unstable();
    percentile(&v, q) as f64 / 1000.0
}

fn add_point(report: &mut BenchReport, key: &str, p: &LoadPoint) {
    report.latency_from_ns(&format!("{key}/latency"), &p.latency_ns);
    report.scalar(&format!("{key}/goodput"), p.goodput_pps, "pps");
    report.count(&format!("{key}/sent"), p.sent);
    report.count(&format!("{key}/completed"), p.completed);
    report.count(&format!("{key}/gen_tx_ring_drops"), p.gen_tx_ring_drops);
    report.count(&format!("{key}/rx_ring_drops"), p.rx_ring_drops);
    report.count(&format!("{key}/rx_no_handler"), p.rx_no_handler);
    report.count(&format!("{key}/rx_interrupts"), p.rx_interrupts);
    report.count(&format!("{key}/rx_frames"), p.rx_frames);
    report.count(&format!("{key}/rx_ring_highwater"), p.rx_ring_highwater);
    report.count(&format!("{key}/dut_tx_frames"), p.dut_tx_frames);
    report.count(&format!("{key}/dut_tx_ring_drops"), p.dut_tx_ring_drops);
    report.count(&format!("{key}/tx_doorbells"), p.tx_doorbells);
}

/// One sweep table: a row per load point with its goodput and latency,
/// then the receive-side columns, or with `tx` the transmit-side ones.
fn render(points: &[LoadPoint], tx: bool) -> String {
    let mut headers = vec!["load", "offered", "goodput/s", "p50 (us)", "p99 (us)"];
    if tx {
        headers.extend(["dut tx", "doorbells", "rx shed"]);
    } else {
        headers.extend(["tx shed", "rx shed", "frm/irq", "ring hi"]);
    }
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            let mut row = vec![
                p.label(),
                p.sent.to_string(),
                format!("{:.0}", p.goodput_pps),
                format!("{:.0}", percentile_us(&p.latency_ns, 50.0)),
                format!("{:.0}", percentile_us(&p.latency_ns, 99.0)),
            ];
            if tx {
                row.extend([
                    p.dut_tx_frames.to_string(),
                    p.tx_doorbells.to_string(),
                    p.rx_ring_drops.to_string(),
                ]);
            } else {
                row.extend([
                    p.gen_tx_ring_drops.to_string(),
                    p.rx_ring_drops.to_string(),
                    format!("{:.1}", p.frames_per_interrupt()),
                    p.rx_ring_highwater.to_string(),
                ]);
            }
            row
        })
        .collect();
    table::render(&headers, &rows)
}

/// Overload/throughput sweep: open-loop UDP load from 0.1x to 4x of line
/// rate against the per-packet and coalesced receive paths, for a UDP
/// echo server and the §5.2 in-kernel UDP forwarder. Per load point:
/// goodput, latency percentiles, and a drop-cause breakdown (generator
/// tx-ring shed, DUT rx-ring shed, no-handler).
fn overload() -> BenchReport {
    let link = Link::t3();
    println!(
        "Overload sweep: {} B UDP payload over {}, {} ms window per point",
        PAYLOAD,
        link.profile.name,
        MEASURE.as_micros() / 1000
    );
    println!();

    let mut report = BenchReport::new("overload");
    for (workload, what) in [
        (Workload::UdpEcho, "UDP echo (round trip at generator)"),
        (Workload::UdpForward, "UDP forwarder (one-way at backend)"),
    ] {
        for (mode, how) in [
            (RxMode::PerPacket, "per-packet interrupts"),
            (RxMode::Coalesced, "rx ring + coalescing"),
        ] {
            println!("{what} — {how}:");
            let points = sweep(workload, mode, &link);
            println!("{}", render(&points, false));
            for p in &points {
                let key = format!("{}.{}.{}", workload.key(), mode.key(), p.label());
                add_point(&mut report, &key, p);
            }
        }
    }
    println!("The per-packet path pays the full driver fixed cost and interrupt");
    println!("entry/exit per frame and queues its backlog on the CPU without bound:");
    println!("past saturation the p99 stretches toward the whole measurement window.");
    println!("The coalesced path amortizes those costs across each drained batch and");
    println!("sheds overload at the bounded rx ring, so goodput rises and the p99");
    println!("stays within ring-depth service times.");

    report.count("payload_bytes", PAYLOAD as u64);
    report.count("measure_window_us", MEASURE.as_micros());
    report
}

/// Transmit-path sweep on gigabit Ethernet: a UDP echo storm and a
/// fig6-style fan-out, each with the flattened per-frame transmit path and
/// the scatter-gather doorbell-batched one, from 0.1x to 4x of line rate.
fn tx_overload() -> BenchReport {
    let link = Link::gigabit();
    println!(
        "Transmit-path sweep: {} B UDP payload over {}, {} ms window per point",
        PAYLOAD,
        link.profile.name,
        MEASURE.as_micros() / 1000
    );
    println!();

    let mut report = BenchReport::new("tx_overload");
    for (workload, what) in [
        (
            Workload::UdpEcho,
            "UDP echo storm (round trip at generator)".to_string(),
        ),
        (
            Workload::UdpFanout,
            format!("UDP fan-out x{FANOUT} (each copy scored)"),
        ),
    ] {
        for (tx, how) in [
            (TxMode::Flattened, "flatten + per-frame submit"),
            (TxMode::Doorbell, "scatter-gather, doorbell-batched"),
        ] {
            println!("{what} — {how}:");
            let points = sweep_tx(workload, RxMode::Coalesced, tx, &link);
            println!("{}", render(&points, true));
            for p in &points {
                let key = format!("{}.{}.{}", workload.key(), tx.key(), p.label());
                add_point(&mut report, &key, p);
            }
        }
    }
    println!("Both configurations put identical bytes on the wire; the difference is");
    println!("where the transmit CPU goes. The flattened path copies every chain into");
    println!("a contiguous buffer and pays the full driver fixed cost per frame. The");
    println!("doorbell path serializes the chain in place and, while the adapter is");
    println!("draining, queues follow-up frames for the cost of a descriptor write —");
    println!("one fixed charge per doorbell instead of per frame — so the saturated");
    println!("goodput ceiling sits well above the per-frame path's.");

    report.count("payload_bytes", PAYLOAD as u64);
    report.count("measure_window_us", MEASURE.as_micros());
    report.count("fanout_copies", FANOUT as u64);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_found() {
        for (i, b) in BENCHES.iter().enumerate() {
            assert!(
                BENCHES[i + 1..].iter().all(|o| o.name != b.name),
                "duplicate bench name {}",
                b.name
            );
            assert_eq!(find(b.name).map(|f| f.name), Some(b.name));
        }
        assert!(find("nonsense").is_none());
    }
}
