//! Figure 5's experiment: UDP round-trip latency for small packets.
//!
//! A client application function sends a payload to a server application
//! function, which sends it straight back; the round trip repeats serially
//! and the mean is reported. Four system configurations, as in the figure:
//! Plexus with interrupt-level handlers, Plexus with thread handlers,
//! DIGITAL UNIX, and the raw driver-to-driver floor.

use std::cell::{Cell, RefCell};
use std::net::Ipv4Addr;
use std::rc::Rc;

use plexus_baseline::MonolithicStack;
use plexus_core::{AppHandler, PlexusStack, StackConfig, UdpRecv};
use plexus_kernel::domain::ExtensionSpec;
use plexus_kernel::vm::AddressSpace;
use plexus_net::ether::MacAddr;
use plexus_net::udp::UdpConfig;
use plexus_sim::cpu::CostModel;
use plexus_sim::nic::{DriverConfig, NicProfile};
use plexus_sim::time::SimDuration;
use plexus_sim::World;

/// The system under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum System {
    /// Plexus, application handler at interrupt level (ephemeral).
    PlexusInterrupt,
    /// Plexus, a kernel thread per event raise.
    PlexusThread,
    /// The monolithic baseline (user processes + sockets).
    Dunix,
    /// Driver-to-driver floor: reply directly from the receive interrupt.
    RawDriver,
}

impl System {
    /// Label used in tables.
    pub fn label(&self) -> &'static str {
        match self {
            System::PlexusInterrupt => "Plexus (interrupt)",
            System::PlexusThread => "Plexus (thread)",
            System::Dunix => "DIGITAL UNIX",
            System::RawDriver => "raw driver floor",
        }
    }
}

/// A device configuration for the experiment.
#[derive(Clone, Debug)]
pub struct Link {
    /// Device model.
    pub profile: NicProfile,
    /// One-way propagation (includes any switch hop).
    pub propagation: SimDuration,
    /// Shared-segment (half-duplex) medium.
    pub half_duplex: bool,
}

impl Link {
    /// The paper's private Ethernet segment.
    pub fn ethernet() -> Link {
        Link {
            profile: NicProfile::ethernet_lance(),
            propagation: SimDuration::from_micros(1),
            half_duplex: true,
        }
    }

    /// The paper's Fore ATM through a ForeRunner switch.
    pub fn atm() -> Link {
        Link {
            profile: NicProfile::fore_atm_tca100(),
            propagation: SimDuration::from_micros(10),
            half_duplex: false,
        }
    }

    /// The paper's T3 adapters connected back-to-back.
    pub fn t3() -> Link {
        Link {
            profile: NicProfile::dec_t3(),
            propagation: SimDuration::from_micros(2),
            half_duplex: false,
        }
    }

    /// Ethernet with the "faster device driver" of §4.1.
    pub fn ethernet_fast() -> Link {
        Link {
            profile: NicProfile::ethernet_fast_driver(),
            ..Link::ethernet()
        }
    }

    /// ATM with the "faster device driver" of §4.1.
    pub fn atm_fast() -> Link {
        Link {
            profile: NicProfile::fore_atm_fast_driver(),
            ..Link::atm()
        }
    }

    /// 100 Mb/s switched Fast Ethernet (full duplex, no offloads).
    pub fn fast_100() -> Link {
        Link {
            profile: NicProfile::fast_ethernet(),
            propagation: SimDuration::from_micros(1),
            half_duplex: false,
        }
    }

    /// 1 Gb/s switched Ethernet with checksum and segmentation offload.
    pub fn gigabit() -> Link {
        Link {
            profile: NicProfile::gigabit(),
            propagation: SimDuration::from_micros(1),
            half_duplex: false,
        }
    }
}

fn client_ip() -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, 1)
}

fn server_ip() -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, 2)
}

/// Serial ping-pong state shared by the driver closures.
struct PingState {
    remaining: Cell<u32>,
    sent_at: Cell<u64>,
    rtts_ns: RefCell<Vec<u64>>,
}

impl PingState {
    fn new(rounds: u32) -> Rc<PingState> {
        Rc::new(PingState {
            remaining: Cell::new(rounds),
            sent_at: Cell::new(0),
            rtts_ns: RefCell::new(Vec::new()),
        })
    }

    fn samples(&self) -> Vec<u64> {
        let rtts = self.rtts_ns.borrow();
        assert!(!rtts.is_empty(), "no round trips completed");
        rtts.clone()
    }

    /// Records a completed round trip; returns the round-trip time and
    /// whether another round should be started.
    fn complete(&self, now_ns: u64) -> (u64, bool) {
        let rtt = now_ns - self.sent_at.get();
        self.rtts_ns.borrow_mut().push(rtt);
        let left = self.remaining.get() - 1;
        self.remaining.set(left);
        (rtt, left > 0)
    }
}

fn mean_us(samples_ns: &[u64]) -> f64 {
    samples_ns.iter().sum::<u64>() as f64 / samples_ns.len() as f64 / 1000.0
}

/// Measures the mean UDP round-trip time in microseconds.
pub fn udp_rtt_us(system: System, link: &Link, payload: usize, rounds: u32) -> f64 {
    udp_rtt_us_with_model(system, link, payload, rounds, &CostModel::alpha_3000_400())
}

/// [`udp_rtt_us`] with an explicit cost model — the ablation harness uses
/// this to zero one structural cost at a time.
pub fn udp_rtt_us_with_model(
    system: System,
    link: &Link,
    payload: usize,
    rounds: u32,
    model: &CostModel,
) -> f64 {
    mean_us(&udp_rtt_samples_ns_with_model(
        system, link, payload, rounds, model,
    ))
}

/// Per-round round-trip times in nanoseconds (for p50/p99 reporting).
pub fn udp_rtt_samples_ns(system: System, link: &Link, payload: usize, rounds: u32) -> Vec<u64> {
    udp_rtt_samples_ns_with_model(system, link, payload, rounds, &CostModel::alpha_3000_400())
}

/// [`udp_rtt_samples_ns`] with an explicit cost model.
pub fn udp_rtt_samples_ns_with_model(
    system: System,
    link: &Link,
    payload: usize,
    rounds: u32,
    model: &CostModel,
) -> Vec<u64> {
    assert!(rounds > 0);
    match system {
        System::PlexusInterrupt => plexus_rtt(link, payload, rounds, true, model, None),
        System::PlexusThread => plexus_rtt(link, payload, rounds, false, model, None),
        System::Dunix => dunix_rtt(link, payload, rounds, model),
        System::RawDriver => raw_rtt(link, payload, rounds, model),
    }
}

/// Runs the Plexus ping-pong with a flight recorder installed across the
/// whole world (both machines' CPUs, NICs, and the engine). Each completed
/// round trip also lands in the recorder's `udp.rtt_ns` histogram. Used by
/// the scenario registry (`plexus-replay`) and the determinism tests.
pub fn udp_rtt_traced(
    interrupt: bool,
    link: &Link,
    payload: usize,
    rounds: u32,
    recorder: &Rc<plexus_trace::Recorder>,
) -> Vec<u64> {
    assert!(rounds > 0);
    plexus_rtt(
        link,
        payload,
        rounds,
        interrupt,
        &CostModel::alpha_3000_400(),
        Some(recorder),
    )
}

fn plexus_rtt(
    link: &Link,
    payload: usize,
    rounds: u32,
    interrupt: bool,
    model: &CostModel,
    recorder: Option<&Rc<plexus_trace::Recorder>>,
) -> Vec<u64> {
    let mut world = World::new();
    let a = world.add_machine_with_model("client", model.clone());
    let b = world.add_machine_with_model("server", model.clone());
    let (_m, nics) = world.connect(
        &[&a, &b],
        link.profile.clone(),
        link.propagation,
        link.half_duplex,
    );
    if let Some(rec) = recorder {
        world.install_recorder(rec);
    }
    let cfg = |ipa, mac| {
        if interrupt {
            StackConfig::interrupt(ipa, mac)
        } else {
            StackConfig::thread(ipa, mac)
        }
    };
    let client = PlexusStack::attach(&a, &nics[0], cfg(client_ip(), MacAddr::local(1)));
    let server = PlexusStack::attach(&b, &nics[1], cfg(server_ip(), MacAddr::local(2)));
    client.seed_arp(server_ip(), MacAddr::local(2));
    server.seed_arp(client_ip(), MacAddr::local(1));

    let spec = ExtensionSpec::typesafe("rtt-bench", &["UDP.Bind", "UDP.Send"]);
    let cext = client.link_extension(&spec).unwrap();
    let sext = server.link_extension(&spec).unwrap();

    // Server: echo.
    let echo_slot: Rc<RefCell<Option<Rc<plexus_core::UdpEndpoint>>>> = Rc::new(RefCell::new(None));
    let es = echo_slot.clone();
    let echo = move |ctx: &mut plexus_kernel::RaiseCtx<'_>, ev: &UdpRecv| {
        let ep = es.borrow().clone().expect("endpoint installed");
        let _ = ep.send_mbuf_in(ctx, ev.src, ev.src_port, ev.payload.share());
    };
    let handler = if interrupt {
        AppHandler::interrupt(echo)
    } else {
        AppHandler::thread(echo)
    };
    let sep = server
        .udp()
        .bind(&sext, 7, UdpConfig::default(), handler)
        .unwrap();
    *echo_slot.borrow_mut() = Some(sep);

    // Client: record RTT, fire the next round.
    let state = PingState::new(rounds);
    let cep_slot: Rc<RefCell<Option<Rc<plexus_core::UdpEndpoint>>>> = Rc::new(RefCell::new(None));
    let (st, cs) = (state.clone(), cep_slot.clone());
    let data = vec![0x55u8; payload];
    let data2 = data.clone();
    let pong = move |ctx: &mut plexus_kernel::RaiseCtx<'_>, _ev: &UdpRecv| {
        let now = ctx.lease.now().as_nanos();
        let (rtt, more) = st.complete(now);
        if let Some(rec) = ctx.lease.recorder() {
            let hist = rec.intern("udp.rtt_ns");
            // A completion sample (ring record + histogram) so the
            // windowed timeline sees per-round RTTs, and a journey break
            // so the next round's request starts a fresh ledger instead
            // of chaining onto the reply's.
            rec.sample(now, hist, rtt);
            rec.journey_break();
        }
        if more {
            st.sent_at.set(ctx.lease.now().as_nanos());
            let ep = cs.borrow().clone().expect("endpoint installed");
            let _ = ep.send_in(ctx, server_ip(), 7, &data2);
        }
    };
    let handler = if interrupt {
        AppHandler::interrupt(pong)
    } else {
        AppHandler::thread(pong)
    };
    let cep = client
        .udp()
        .bind(&cext, 2000, UdpConfig::default(), handler)
        .unwrap();
    *cep_slot.borrow_mut() = Some(cep.clone());

    state.sent_at.set(world.engine().now().as_nanos());
    cep.send(world.engine_mut(), server_ip(), 7, &data).unwrap();
    world.run();
    assert_eq!(state.remaining.get(), 0, "all rounds completed");
    state.samples()
}

fn dunix_rtt(link: &Link, payload: usize, rounds: u32, model: &CostModel) -> Vec<u64> {
    let mut world = World::new();
    let a = world.add_machine_with_model("client", model.clone());
    let b = world.add_machine_with_model("server", model.clone());
    let (_m, nics) = world.connect(
        &[&a, &b],
        link.profile.clone(),
        link.propagation,
        link.half_duplex,
    );
    let client = MonolithicStack::attach(&a, &nics[0], client_ip(), MacAddr::local(1));
    let server = MonolithicStack::attach(&b, &nics[1], server_ip(), MacAddr::local(2));
    client.seed_arp(server_ip(), MacAddr::local(2));
    server.seed_arp(client_ip(), MacAddr::local(1));

    let cproc = AddressSpace::new("client");
    let sproc = AddressSpace::new("server");
    let ssock = Rc::new(server.udp_socket(&sproc, 7, true).unwrap());
    let s2 = ssock.clone();
    ssock.recv_loop(world.engine_mut(), move |eng, user, msg| {
        s2.sendto_in(eng, user, msg.src, msg.src_port, &msg.data);
    });

    let state = PingState::new(rounds);
    let csock = Rc::new(client.udp_socket(&cproc, 2000, true).unwrap());
    let (st, c2) = (state.clone(), csock.clone());
    let data = vec![0x55u8; payload];
    let data2 = data.clone();
    csock.recv_loop(world.engine_mut(), move |eng, user, _msg| {
        let now = user.now().as_nanos();
        if st.complete(now).1 {
            st.sent_at.set(user.now().as_nanos());
            c2.sendto_in(eng, user, server_ip(), 7, &data2);
        }
    });

    state.sent_at.set(world.engine().now().as_nanos());
    csock.sendto(world.engine_mut(), server_ip(), 7, &data);
    world.run();
    assert_eq!(state.remaining.get(), 0, "all rounds completed");
    state.samples()
}

/// Driver-to-driver floor: the server's receive interrupt immediately
/// hands the frame back to its transmitter; the client's receive interrupt
/// starts the next round. Only interrupt + driver costs are charged.
fn raw_rtt(link: &Link, payload: usize, rounds: u32, model: &CostModel) -> Vec<u64> {
    let mut world = World::new();
    let a = world.add_machine_with_model("client", model.clone());
    let b = world.add_machine_with_model("server", model.clone());
    let (_m, nics) = world.connect(
        &[&a, &b],
        link.profile.clone(),
        link.propagation,
        link.half_duplex,
    );
    // Frame length mimics the UDP case: eth + ip + udp headers + payload.
    let frame_len = 14 + 20 + 8 + payload;

    let server_nic = nics[1].clone();
    let server_cpu = b.cpu().clone();
    let sn = server_nic.clone();
    server_nic.attach(DriverConfig::per_frame(move |engine, frame| {
        let mut lease = server_cpu.begin(engine.now());
        let model = lease.model().clone();
        lease.charge(model.interrupt_entry);
        lease.charge(sn.profile().rx_cpu_cost(frame.len()));
        lease.charge(sn.profile().tx_cpu_cost(frame.len()));
        let at = lease.now();
        sn.transmit_frame(engine, at, frame);
        lease.charge(model.interrupt_exit);
    }));

    let state = PingState::new(rounds);
    let client_nic = nics[0].clone();
    let client_cpu = a.cpu().clone();
    let cn = client_nic.clone();
    let st = state.clone();
    client_nic.attach(DriverConfig::per_frame(move |engine, frame| {
        let mut lease = client_cpu.begin(engine.now());
        let model = lease.model().clone();
        lease.charge(model.interrupt_entry);
        lease.charge(cn.profile().rx_cpu_cost(frame.len()));
        let now = lease.now().as_nanos();
        if st.complete(now).1 {
            st.sent_at.set(lease.now().as_nanos());
            lease.charge(cn.profile().tx_cpu_cost(frame.len()));
            let at = lease.now();
            cn.transmit_frame(engine, at, frame);
        }
        lease.charge(model.interrupt_exit);
    }));

    state.sent_at.set(world.engine().now().as_nanos());
    {
        let mut lease = a.cpu().begin(world.engine().now());
        lease.charge(nics[0].profile().tx_cpu_cost(frame_len));
        let at = lease.now();
        drop(lease);
        nics[0].transmit_frame(world.engine_mut(), at, vec![0u8; frame_len]);
    }
    world.run();
    assert_eq!(state.remaining.get(), 0, "all rounds completed");
    state.samples()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orderings_match_figure_5() {
        for link in [Link::ethernet(), Link::atm(), Link::t3()] {
            let raw = udp_rtt_us(System::RawDriver, &link, 8, 5);
            let pi = udp_rtt_us(System::PlexusInterrupt, &link, 8, 5);
            let pt = udp_rtt_us(System::PlexusThread, &link, 8, 5);
            let du = udp_rtt_us(System::Dunix, &link, 8, 5);
            assert!(
                raw < pi && pi < pt && pt < du,
                "{}: raw={raw:.0} interrupt={pi:.0} thread={pt:.0} dunix={du:.0}",
                link.profile.name
            );
        }
    }

    #[test]
    fn plexus_interrupt_hits_the_paper_bands() {
        let eth = udp_rtt_us(System::PlexusInterrupt, &Link::ethernet(), 8, 10);
        let atm = udp_rtt_us(System::PlexusInterrupt, &Link::atm(), 8, 10);
        let t3 = udp_rtt_us(System::PlexusInterrupt, &Link::t3(), 8, 10);
        // Paper: <600 us Ethernet, ~350 us ATM, ~300 us T3 (±30%).
        assert!((420.0..660.0).contains(&eth), "ethernet {eth:.0} us");
        assert!((250.0..460.0).contains(&atm), "atm {atm:.0} us");
        assert!((210.0..390.0).contains(&t3), "t3 {t3:.0} us");
    }

    #[test]
    fn fast_drivers_hit_the_section_41_numbers() {
        let eth = udp_rtt_us(System::PlexusInterrupt, &Link::ethernet_fast(), 8, 10);
        let atm = udp_rtt_us(System::PlexusInterrupt, &Link::atm_fast(), 8, 10);
        // Paper: 337 us Ethernet, 241 us ATM (±30%).
        assert!((240.0..440.0).contains(&eth), "fast ethernet {eth:.0} us");
        assert!((170.0..320.0).contains(&atm), "fast atm {atm:.0} us");
    }
}
