//! Supplementary sweeps beyond the paper's figures:
//!
//! 1. **Payload sweep** — UDP RTT vs. payload size on each device,
//!    extending Figure 5 along the size axis (the paper reports only
//!    8-byte packets). Shows where wire time overtakes OS structure.
//! 2. **Guard scaling** — UDP RTT vs. number of endpoints bound on the
//!    receiving host, with the dispatcher's demux index on and off. Each
//!    endpoint is a guard on `Udp.PacketRecv`, so this is the
//!    packet-filter scaling question (Mogul/Rashid/Accetta, the paper's
//!    \[MRA87\]) asked of the Plexus dispatcher in simulated time — and
//!    the hash index's answer: a flat line.

use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

use plexus_core::{AppHandler, PlexusStack, StackConfig, UdpRecv};
use plexus_kernel::domain::ExtensionSpec;
use plexus_net::ether::MacAddr;
use plexus_net::udp::UdpConfig;
use plexus_sim::World;

use crate::report::BenchReport;
use crate::table;
use crate::udp_rtt::{udp_rtt_us, Link, System};

/// Runs both sweeps into one report, `sweeps`.
pub fn run() -> BenchReport {
    let mut report = BenchReport::new("sweeps");
    payload_sweep(&mut report);
    println!();
    guard_scaling(&mut report);
    report
}

fn payload_sweep(report: &mut BenchReport) {
    const ROUNDS: u32 = 20;
    println!("Payload sweep: Plexus (interrupt) UDP RTT vs. payload size");
    println!();
    let links = [
        ("Ethernet", Link::ethernet()),
        ("Fore ATM", Link::atm()),
        ("DEC T3", Link::t3()),
    ];
    let sizes = [8usize, 64, 256, 1024, 1400];
    let mut rows = Vec::new();
    for (name, link) in &links {
        let mut row = vec![name.to_string()];
        for size in sizes {
            let us = udp_rtt_us(System::PlexusInterrupt, link, size, ROUNDS);
            let dev = name.to_lowercase().replace(' ', "_");
            report.latency_us(&format!("payload_sweep/{dev}/{size:04}"), us);
            row.push(format!("{us:.0}"));
        }
        rows.push(row);
    }
    println!(
        "{}",
        table::render(
            &["device", "8 B", "64 B", "256 B", "1024 B", "1400 B"],
            &rows
        )
    );
    println!("Ethernet grows fastest (10 Mb/s wire dominates); ATM pays PIO per byte;");
    println!("T3 DMA is nearly flat until serialization shows.");
}

/// RTT with `extra` additional endpoints bound on the echo server: each is
/// one more guard on `Udp.PacketRecv`. With `demux` off the dispatcher
/// walks every guard per datagram; with it on, the hash index probes once
/// and evaluates only the matching endpoint's guard.
fn rtt_with_endpoints(extra: usize, demux: bool) -> f64 {
    let ip = |last: u8| Ipv4Addr::new(10, 0, 0, last);
    let link = Link::ethernet();
    let mut world = World::new();
    let a = world.add_machine("client");
    let b = world.add_machine("server");
    let (_m, nics) = world.connect(
        &[&a, &b],
        link.profile.clone(),
        link.propagation,
        link.half_duplex,
    );
    let client = PlexusStack::attach(
        &a,
        &nics[0],
        StackConfig::interrupt(ip(1), MacAddr::local(1)),
    );
    let server = PlexusStack::attach(
        &b,
        &nics[1],
        StackConfig::interrupt(ip(2), MacAddr::local(2)),
    );
    client.dispatcher().set_demux_enabled(demux);
    server.dispatcher().set_demux_enabled(demux);
    client.seed_arp(ip(2), MacAddr::local(2));
    server.seed_arp(ip(1), MacAddr::local(1));
    let spec = ExtensionSpec::typesafe("sweep", &["UDP.Bind", "UDP.Send"]);
    let cext = client.link_extension(&spec).unwrap();
    let sext = server.link_extension(&spec).unwrap();

    // The bystander endpoints: installed first, so the echo endpoint's
    // guard is evaluated last — worst case for the filter walk.
    for i in 0..extra {
        server
            .udp()
            .bind(
                &sext,
                10_000 + i as u16,
                UdpConfig::default(),
                AppHandler::interrupt(|_, _| {}),
            )
            .unwrap();
    }

    let echo_slot: Rc<RefCell<Option<Rc<plexus_core::UdpEndpoint>>>> = Rc::new(RefCell::new(None));
    let es = echo_slot.clone();
    let sep = server
        .udp()
        .bind(
            &sext,
            7,
            UdpConfig::default(),
            AppHandler::interrupt(move |ctx, ev: &UdpRecv| {
                let ep = es.borrow().clone().unwrap();
                let _ = ep.send_mbuf_in(ctx, ev.src, ev.src_port, ev.payload.share());
            }),
        )
        .unwrap();
    *echo_slot.borrow_mut() = Some(sep);

    let done: Rc<std::cell::Cell<Option<u64>>> = Rc::new(std::cell::Cell::new(None));
    let d = done.clone();
    let cep = client
        .udp()
        .bind(
            &cext,
            2000,
            UdpConfig::default(),
            AppHandler::interrupt(move |ctx, _: &UdpRecv| {
                d.set(Some(ctx.lease.now().as_nanos()));
            }),
        )
        .unwrap();
    let t0 = world.engine().now().as_nanos();
    cep.send(world.engine_mut(), ip(2), 7, &[0u8; 8]).unwrap();
    world.run();
    (done.get().expect("reply") - t0) as f64 / 1000.0
}

fn guard_scaling(report: &mut BenchReport) {
    println!("Guard scaling: Ethernet UDP RTT vs. guards on the server's Udp.PacketRecv");
    println!("(MRA87's packet-filter scaling question, linear walk vs. hash demux)");
    println!();
    let mut rows = Vec::new();
    let mut base_linear = 0.0;
    let mut base_indexed = 0.0;
    for (i, extra) in [0usize, 3, 15, 63, 255].into_iter().enumerate() {
        let guards = extra + 1; // bystanders + the echo endpoint itself
        let linear = rtt_with_endpoints(extra, false);
        let indexed = rtt_with_endpoints(extra, true);
        if i == 0 {
            base_linear = linear;
            base_indexed = indexed;
        }
        for (mode, us) in [("linear", linear), ("indexed", indexed)] {
            report.latency_us(&format!("guard_scaling/{mode}/guards_{guards:03}"), us);
        }
        rows.push(vec![
            guards.to_string(),
            format!("{linear:.1}"),
            format!("{:+.1}", linear - base_linear),
            format!("{indexed:.1}"),
            format!("{:+.1}", indexed - base_indexed),
        ]);
    }
    println!(
        "{}",
        table::render(
            &[
                "guards",
                "linear RTT (us)",
                "delta",
                "indexed RTT (us)",
                "delta"
            ],
            &rows
        )
    );
    println!("The linear walk grows at ~0.3 us per guard; the hash index probes");
    println!("once per raise and stays flat no matter how many endpoints bind");
    println!("(DESIGN.md §11).");
}
