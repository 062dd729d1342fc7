//! End-to-end tests of the Plexus protocol graph over the simulated
//! network: two (or three) machines, full Ethernet/ARP/IP/UDP/TCP paths,
//! protection properties, and runtime adaptation.

use std::cell::{Cell, RefCell};
use std::net::Ipv4Addr;
use std::rc::Rc;

use plexus_core::{AppHandler, PlexusError, PlexusStack, SourcePolicy, StackConfig, TcpCallbacks};
use plexus_kernel::domain::{ExtensionSpec, LinkError};
use plexus_net::ether::{EtherType, MacAddr};
use plexus_net::udp::UdpConfig;
use plexus_sim::nic::NicProfile;
use plexus_sim::time::SimDuration;
use plexus_sim::World;
use plexus_trace::{CounterKey, Recorder, Scope, TraceEvent};

fn ip(last: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, last)
}

fn ext_spec(name: &str) -> ExtensionSpec {
    ExtensionSpec::typesafe(name, &["UDP.Bind", "UDP.Send", "Mbuf.Alloc"])
}

/// Two machines on a private Ethernet segment, Plexus on both.
fn two_plexus(mode_interrupt: bool) -> (World, Rc<PlexusStack>, Rc<PlexusStack>) {
    let mut world = World::new();
    let a = world.add_machine("alpha-a");
    let b = world.add_machine("alpha-b");
    let (_m, nics) = world.connect(
        &[&a, &b],
        NicProfile::ethernet_lance(),
        SimDuration::from_micros(1),
        true,
    );
    let cfg = |ipa, maca| {
        if mode_interrupt {
            StackConfig::interrupt(ipa, maca)
        } else {
            StackConfig::thread(ipa, maca)
        }
    };
    let sa = PlexusStack::attach(&a, &nics[0], cfg(ip(1), MacAddr::local(1)));
    let sb = PlexusStack::attach(&b, &nics[1], cfg(ip(2), MacAddr::local(2)));
    (world, sa, sb)
}

fn seed_arp_both(sa: &PlexusStack, sb: &PlexusStack) {
    sa.seed_arp(sb.ip(), sb.mac());
    sb.seed_arp(sa.ip(), sa.mac());
}

#[test]
fn udp_ping_pong_round_trip() {
    let (mut world, client, server) = two_plexus(true);
    seed_arp_both(&client, &server);

    let cext = client.link_extension(&ext_spec("PingClient")).unwrap();
    let sext = server.link_extension(&ext_spec("PingServer")).unwrap();

    // Server: echo every datagram back to its sender.
    let echo_ep: Rc<RefCell<Option<Rc<plexus_core::UdpEndpoint>>>> = Rc::new(RefCell::new(None));
    let echo_for_handler = echo_ep.clone();
    let ep = server
        .udp()
        .bind(
            &sext,
            7,
            UdpConfig::default(),
            AppHandler::interrupt(move |ctx, ev: &plexus_core::UdpRecv| {
                let ep = echo_for_handler.borrow().clone().expect("endpoint set");
                ep.send_in(ctx, ev.src, ev.src_port, &ev.payload.to_vec())
                    .expect("echo send");
            }),
        )
        .expect("server bind");
    *echo_ep.borrow_mut() = Some(ep);

    // Client: record the reply arrival time.
    let reply_at: Rc<Cell<Option<u64>>> = Rc::new(Cell::new(None));
    let reply_data: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
    let (ra, rd) = (reply_at.clone(), reply_data.clone());
    let cep = client
        .udp()
        .bind(
            &cext,
            2000,
            UdpConfig::default(),
            AppHandler::interrupt(move |ctx, ev: &plexus_core::UdpRecv| {
                ra.set(Some(ctx.lease.now().as_nanos()));
                *rd.borrow_mut() = ev.payload.to_vec();
            }),
        )
        .expect("client bind");

    let t0 = world.engine().now();
    cep.send(world.engine_mut(), ip(2), 7, b"12345678").unwrap();
    world.run();

    let arrived = reply_at.get().expect("reply came back");
    assert_eq!(*reply_data.borrow(), b"12345678");
    let rtt_us = (arrived - t0.as_nanos()) as f64 / 1000.0;
    // Paper, Figure 5: <600 us on Ethernet for Plexus at interrupt level.
    assert!(
        (300.0..900.0).contains(&rtt_us),
        "Ethernet UDP RTT out of plausible range: {rtt_us} us"
    );
}

#[test]
fn thread_mode_is_slower_than_interrupt_mode() {
    let rtt = |interrupt: bool| -> u64 {
        let (mut world, client, server) = two_plexus(interrupt);
        seed_arp_both(&client, &server);
        let cext = client.link_extension(&ext_spec("C")).unwrap();
        let sext = server.link_extension(&ext_spec("S")).unwrap();
        let ep_slot: Rc<RefCell<Option<Rc<plexus_core::UdpEndpoint>>>> =
            Rc::new(RefCell::new(None));
        let eh = ep_slot.clone();
        let mk_handler = move |ctx: &mut plexus_kernel::RaiseCtx<'_>, ev: &plexus_core::UdpRecv| {
            let ep = eh.borrow().clone().unwrap();
            ep.send_in(ctx, ev.src, ev.src_port, &ev.payload.to_vec())
                .unwrap();
        };
        let handler = if interrupt {
            AppHandler::interrupt(mk_handler)
        } else {
            AppHandler::thread(mk_handler)
        };
        let sep = server
            .udp()
            .bind(&sext, 7, UdpConfig::default(), handler)
            .unwrap();
        *ep_slot.borrow_mut() = Some(sep);
        let done: Rc<Cell<Option<u64>>> = Rc::new(Cell::new(None));
        let d = done.clone();
        let recv = move |ctx: &mut plexus_kernel::RaiseCtx<'_>, _ev: &plexus_core::UdpRecv| {
            d.set(Some(ctx.lease.now().as_nanos()));
        };
        let handler = if interrupt {
            AppHandler::interrupt(recv)
        } else {
            AppHandler::thread(recv)
        };
        let cep = client
            .udp()
            .bind(&cext, 2000, UdpConfig::default(), handler)
            .unwrap();
        cep.send(world.engine_mut(), ip(2), 7, b"x").unwrap();
        world.run();
        done.get().expect("reply")
    };
    let fast = rtt(true);
    let slow = rtt(false);
    assert!(
        slow > fast + 100_000,
        "thread mode ({slow} ns) should cost well over interrupt mode ({fast} ns)"
    );
}

#[test]
fn endpoints_cannot_snoop_each_other() {
    let (mut world, client, server) = two_plexus(true);
    seed_arp_both(&client, &server);
    let sext = server.link_extension(&ext_spec("S")).unwrap();
    let cext = client.link_extension(&ext_spec("C")).unwrap();

    let a_hits = Rc::new(Cell::new(0u32));
    let b_hits = Rc::new(Cell::new(0u32));
    let (ah, bh) = (a_hits.clone(), b_hits.clone());
    server
        .udp()
        .bind(
            &sext,
            5000,
            UdpConfig::default(),
            AppHandler::interrupt(move |_, _| {
                ah.set(ah.get() + 1);
            }),
        )
        .unwrap();
    server
        .udp()
        .bind(
            &sext,
            5001,
            UdpConfig::default(),
            AppHandler::interrupt(move |_, _| {
                bh.set(bh.get() + 1);
            }),
        )
        .unwrap();

    let cep = client
        .udp()
        .bind(
            &cext,
            2000,
            UdpConfig::default(),
            AppHandler::interrupt(|_, _| {}),
        )
        .unwrap();
    for _ in 0..3 {
        cep.send(world.engine_mut(), ip(2), 5000, b"for A only")
            .unwrap();
        world.run();
    }
    assert_eq!(a_hits.get(), 3);
    assert_eq!(b_hits.get(), 0, "B must never see A's datagrams");
    // The dispatcher positively filtered B: with the demux index its
    // guard is proven non-matching and skipped without running; with the
    // index off it is evaluated and rejected. Either way the reject is
    // accounted.
    let stats = server.dispatcher().stats();
    assert!(stats.guard_rejects + stats.demux_skipped > 0);
    assert!(stats.demux_hits > 0, "UDP delivery went through the index");
}

#[test]
fn port_collisions_are_refused() {
    let (_world, _client, server) = two_plexus(true);
    let ext = server.link_extension(&ext_spec("S")).unwrap();
    server
        .udp()
        .bind(
            &ext,
            9000,
            UdpConfig::default(),
            AppHandler::interrupt(|_, _| {}),
        )
        .unwrap();
    let err = server
        .udp()
        .bind(
            &ext,
            9000,
            UdpConfig::default(),
            AppHandler::interrupt(|_, _| {}),
        )
        .unwrap_err();
    assert_eq!(err, PlexusError::PortInUse(9000));
}

#[test]
fn spoofed_source_is_rejected_under_verify_policy() {
    let (mut world, client, server) = two_plexus(true);
    seed_arp_both(&client, &server);
    let ext = client.link_extension(&ext_spec("C")).unwrap();
    let ep = client
        .udp()
        .bind(
            &ext,
            2000,
            UdpConfig::default(),
            AppHandler::interrupt(|_, _| {}),
        )
        .unwrap();
    // Claiming someone else's address fails...
    let err = ep
        .send_verified(
            world.engine_mut(),
            ip(99),
            ip(2),
            7,
            b"x",
            SourcePolicy::Verify,
        )
        .unwrap_err();
    assert_eq!(err, PlexusError::SpoofDetected);
    assert_eq!(client.udp().spoofs_blocked(), 1);
    // ...claiming our own succeeds.
    ep.send_verified(
        world.engine_mut(),
        ip(1),
        ip(2),
        7,
        b"x",
        SourcePolicy::Verify,
    )
    .unwrap();
}

#[test]
fn linking_rejects_out_of_domain_imports() {
    let (_world, _client, server) = two_plexus(true);
    let rogue = ExtensionSpec::typesafe("Rogue", &["UDP.Bind", "VM.MapKernelMemory"]);
    match server.link_extension(&rogue) {
        Err(PlexusError::Link(LinkError::Unresolved(syms))) => {
            assert_eq!(syms, vec!["VM.MapKernelMemory"]);
        }
        other => panic!("expected link failure, got {other:?}"),
    }
}

#[test]
fn raw_ether_attach_cannot_claim_system_protocols() {
    let (_world, _client, server) = two_plexus(true);
    let ext = server.link_extension(&ext_spec("AM")).unwrap();
    for taken in [EtherType::IPV4, EtherType::ARP] {
        let err = server
            .attach_ether(&ext, taken, AppHandler::interrupt(|_, _| {}))
            .unwrap_err();
        assert!(matches!(err, PlexusError::SnoopDenied(_)));
    }
    // And the experimental type is fine.
    server
        .attach_ether(
            &ext,
            EtherType::ACTIVE_MESSAGE,
            AppHandler::interrupt(|_, _| {}),
        )
        .expect("experimental EtherType allowed");
}

#[test]
fn icmp_echo_round_trip() {
    let (mut world, client, server) = two_plexus(true);
    seed_arp_both(&client, &server);
    client.ping(world.engine_mut(), ip(2), 77, 1, b"ping!");
    world.run();
    assert_eq!(server.stats().icmp_echoes, 1);
    // The reply made it back up our IP layer.
    assert!(client.stats().ip_rx >= 1);
}

#[test]
fn arp_resolves_on_demand_and_queued_sends_drain() {
    let (mut world, client, server) = two_plexus(true);
    // No ARP seeding: the first datagram must trigger a request/reply.
    let cext = client.link_extension(&ext_spec("C")).unwrap();
    let sext = server.link_extension(&ext_spec("S")).unwrap();
    let got = Rc::new(Cell::new(0u32));
    let g = got.clone();
    server
        .udp()
        .bind(
            &sext,
            7,
            UdpConfig::default(),
            AppHandler::interrupt(move |_, _| {
                g.set(g.get() + 1);
            }),
        )
        .unwrap();
    let cep = client
        .udp()
        .bind(
            &cext,
            2000,
            UdpConfig::default(),
            AppHandler::interrupt(|_, _| {}),
        )
        .unwrap();
    cep.send(world.engine_mut(), ip(2), 7, b"needs arp")
        .unwrap();
    world.run();
    assert_eq!(got.get(), 1, "datagram parked on ARP then delivered");
    assert_eq!(server.stats().arp_replies, 1);
    assert!(client.stats().arp_queued >= 1);
}

#[test]
fn large_udp_datagrams_fragment_and_reassemble() {
    let (mut world, client, server) = two_plexus(true);
    seed_arp_both(&client, &server);
    let cext = client.link_extension(&ext_spec("C")).unwrap();
    let sext = server.link_extension(&ext_spec("S")).unwrap();
    let data: Vec<u8> = (0u32..4000).map(|x| (x % 241) as u8).collect();
    let got: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
    let g = got.clone();
    server
        .udp()
        .bind(
            &sext,
            7,
            UdpConfig::default(),
            AppHandler::interrupt(move |_, ev: &plexus_core::UdpRecv| {
                *g.borrow_mut() = ev.payload.to_vec();
            }),
        )
        .unwrap();
    let cep = client
        .udp()
        .bind(
            &cext,
            2000,
            UdpConfig::default(),
            AppHandler::interrupt(|_, _| {}),
        )
        .unwrap();
    cep.send(world.engine_mut(), ip(2), 7, &data).unwrap();
    world.run();
    assert_eq!(*got.borrow(), data, "4000 B > Ethernet MTU must reassemble");
}

#[test]
fn closed_endpoint_stops_receiving_and_frees_port() {
    let (mut world, client, server) = two_plexus(true);
    seed_arp_both(&client, &server);
    let cext = client.link_extension(&ext_spec("C")).unwrap();
    let sext = server.link_extension(&ext_spec("S")).unwrap();
    let hits = Rc::new(Cell::new(0u32));
    let h = hits.clone();
    let sep = server
        .udp()
        .bind(
            &sext,
            7,
            UdpConfig::default(),
            AppHandler::interrupt(move |_, _| {
                h.set(h.get() + 1);
            }),
        )
        .unwrap();
    let cep = client
        .udp()
        .bind(
            &cext,
            2000,
            UdpConfig::default(),
            AppHandler::interrupt(|_, _| {}),
        )
        .unwrap();
    cep.send(world.engine_mut(), ip(2), 7, b"one").unwrap();
    world.run();
    sep.close();
    cep.send(world.engine_mut(), ip(2), 7, b"two").unwrap();
    world.run();
    assert_eq!(hits.get(), 1, "no delivery after close");
    assert!(sep.send(world.engine_mut(), ip(1), 2000, b"x").is_err());
    // The port is free again (runtime adaptation).
    server
        .udp()
        .bind(
            &sext,
            7,
            UdpConfig::default(),
            AppHandler::interrupt(|_, _| {}),
        )
        .expect("port reusable after close");
}

#[test]
fn checksum_disabled_udp_is_a_special_implementation() {
    let (mut world, client, server) = two_plexus(true);
    seed_arp_both(&client, &server);
    let cext = client.link_extension(&ext_spec("C")).unwrap();
    let sext = server.link_extension(&ext_spec("S")).unwrap();
    let nocheck = UdpConfig { checksum: false };
    let got = Rc::new(Cell::new(0u32));
    let g = got.clone();
    server
        .udp()
        .bind(
            &sext,
            7001,
            nocheck,
            AppHandler::interrupt(move |_, _| {
                g.set(g.get() + 1);
            }),
        )
        .unwrap();
    let standard_before = server.udp().delivered();
    let cep = client
        .udp()
        .bind(&cext, 2000, nocheck, AppHandler::interrupt(|_, _| {}))
        .unwrap();
    cep.send(world.engine_mut(), ip(2), 7001, b"video-ish")
        .unwrap();
    world.run();
    assert_eq!(got.get(), 1);
    assert_eq!(
        server.udp().delivered(),
        standard_before,
        "special implementation bypasses the standard UDP node"
    );
}

#[test]
fn tcp_connect_transfer_close_end_to_end() {
    let (mut world, client, server) = two_plexus(true);
    seed_arp_both(&client, &server);
    let cext = client.link_extension(&ext_spec("C")).unwrap();
    let sext = server.link_extension(&ext_spec("S")).unwrap();

    // Server: echo-with-prefix service on port 80.
    server
        .tcp()
        .listen(&sext, 80, |_, conn| {
            conn.set_callbacks(TcpCallbacks {
                on_data: Some(Rc::new(|ctx, conn, data| {
                    let mut reply = b"echo:".to_vec();
                    reply.extend_from_slice(data);
                    conn.send_in(ctx, &reply);
                })),
                // Orderly server: when the client half-closes, close too.
                on_peer_close: Some(Rc::new(|ctx, conn| conn.close_in(ctx))),
                ..Default::default()
            });
        })
        .unwrap();

    let got: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
    let connected = Rc::new(Cell::new(false));
    let closed = Rc::new(Cell::new(false));
    let conn = client
        .tcp()
        .connect(&cext, world.engine_mut(), (ip(2), 80))
        .unwrap();
    let (g, c0, cl) = (got.clone(), connected.clone(), closed.clone());
    conn.set_callbacks(TcpCallbacks {
        on_connected: Some(Rc::new(move |ctx, conn| {
            c0.set(true);
            conn.send_in(ctx, b"hello plexus");
        })),
        on_data: Some(Rc::new(move |_, _, data| {
            g.borrow_mut().extend_from_slice(data);
        })),
        on_closed: Some(Rc::new(move |_, _| cl.set(true))),
        ..Default::default()
    });
    world.run_for(SimDuration::from_millis(500));
    assert!(connected.get(), "handshake completed");
    assert_eq!(*got.borrow(), b"echo:hello plexus");

    conn.close(world.engine_mut());
    world.run_for(SimDuration::from_secs(5));
    assert_eq!(conn.state(), plexus_net::tcp::TcpState::Closed);
}

#[test]
fn tcp_bulk_transfer_is_intact() {
    let (mut world, client, server) = two_plexus(true);
    seed_arp_both(&client, &server);
    let cext = client.link_extension(&ext_spec("C")).unwrap();
    let sext = server.link_extension(&ext_spec("S")).unwrap();
    let received: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
    let r = received.clone();
    server
        .tcp()
        .listen(&sext, 5001, move |_, conn| {
            let r = r.clone();
            conn.set_callbacks(TcpCallbacks {
                on_data: Some(Rc::new(move |_, _, data| {
                    r.borrow_mut().extend_from_slice(data);
                })),
                ..Default::default()
            });
        })
        .unwrap();
    let data: Vec<u8> = (0u32..100_000).map(|x| (x % 253) as u8).collect();
    let conn = client
        .tcp()
        .connect(&cext, world.engine_mut(), (ip(2), 5001))
        .unwrap();
    let payload = data.clone();
    conn.set_callbacks(TcpCallbacks {
        on_connected: Some(Rc::new(move |ctx, conn| {
            conn.send_in(ctx, &payload);
        })),
        ..Default::default()
    });
    world.run_for(SimDuration::from_secs(30));
    assert_eq!(received.borrow().len(), data.len());
    assert_eq!(*received.borrow(), data);
}

#[test]
fn udp_redirect_forwards_to_secondary_host() {
    // client -> forwarder (redirects port 7777) -> server.
    let mut world = World::new();
    let mc = world.add_machine("client");
    let mf = world.add_machine("forwarder");
    let ms = world.add_machine("server");
    let (_m, nics) = world.connect(
        &[&mc, &mf, &ms],
        NicProfile::ethernet_lance(),
        SimDuration::from_micros(1),
        true,
    );
    let client = PlexusStack::attach(
        &mc,
        &nics[0],
        StackConfig::interrupt(ip(1), MacAddr::local(1)),
    );
    let fwd = PlexusStack::attach(
        &mf,
        &nics[1],
        StackConfig::interrupt(ip(2), MacAddr::local(2)),
    );
    let server = PlexusStack::attach(
        &ms,
        &nics[2],
        StackConfig::interrupt(ip(3), MacAddr::local(3)),
    );
    for (a, b) in [(&client, &fwd), (&client, &server), (&fwd, &server)] {
        a.seed_arp(b.ip(), b.mac());
        b.seed_arp(a.ip(), a.mac());
    }
    let fext = fwd.link_extension(&ext_spec("Fwd")).unwrap();
    let sext = server.link_extension(&ext_spec("S")).unwrap();
    let cext = client.link_extension(&ext_spec("C")).unwrap();

    fwd.udp().redirect(&fext, 7777, ip(3)).unwrap();
    type Received = Vec<(Ipv4Addr, Vec<u8>)>;
    let got: Rc<RefCell<Received>> = Rc::new(RefCell::new(Vec::new()));
    let g = got.clone();
    server
        .udp()
        .bind(
            &sext,
            7777,
            UdpConfig::default(),
            AppHandler::interrupt(move |_, ev: &plexus_core::UdpRecv| {
                g.borrow_mut().push((ev.src, ev.payload.to_vec()));
            }),
        )
        .unwrap();
    let cep = client
        .udp()
        .bind(
            &cext,
            2000,
            UdpConfig::default(),
            AppHandler::interrupt(|_, _| {}),
        )
        .unwrap();
    // Client sends to the FORWARDER's address.
    cep.send(world.engine_mut(), ip(2), 7777, b"balance me")
        .unwrap();
    world.run();
    let got = got.borrow();
    assert_eq!(got.len(), 1, "datagram reached the secondary host");
    assert_eq!(got[0].0, ip(1), "original source preserved end-to-end");
    assert_eq!(got[0].1, b"balance me");
}

#[test]
fn tcp_redirect_preserves_end_to_end_semantics() {
    // The paper's §5.2 argument: the in-kernel forwarder redirects
    // *control* packets too, so connection establishment and teardown work
    // end-to-end between client and server.
    let mut world = World::new();
    let mc = world.add_machine("client");
    let mf = world.add_machine("forwarder");
    let ms = world.add_machine("server");
    let (_m, nics) = world.connect(
        &[&mc, &mf, &ms],
        NicProfile::ethernet_lance(),
        SimDuration::from_micros(1),
        true,
    );
    let client = PlexusStack::attach(
        &mc,
        &nics[0],
        StackConfig::interrupt(ip(1), MacAddr::local(1)),
    );
    let fwd = PlexusStack::attach(
        &mf,
        &nics[1],
        StackConfig::interrupt(ip(2), MacAddr::local(2)),
    );
    let server = PlexusStack::attach(
        &ms,
        &nics[2],
        StackConfig::interrupt(ip(3), MacAddr::local(3)),
    );
    for (a, b) in [(&client, &fwd), (&client, &server), (&fwd, &server)] {
        a.seed_arp(b.ip(), b.mac());
        b.seed_arp(a.ip(), a.mac());
    }
    let fext = fwd.link_extension(&ext_spec("Fwd")).unwrap();
    let sext = server.link_extension(&ext_spec("S")).unwrap();
    let cext = client.link_extension(&ext_spec("C")).unwrap();

    // DSR-style: the server answers on the forwarder's address.
    fwd.tcp().redirect(&fext, 8080, ip(3)).unwrap();
    server.add_ip_alias(ip(2));
    server
        .tcp()
        .listen(&sext, 8080, |_, conn| {
            conn.set_callbacks(TcpCallbacks {
                on_data: Some(Rc::new(|ctx, conn, data| {
                    let mut out = b"from-backend:".to_vec();
                    out.extend_from_slice(data);
                    conn.send_in(ctx, &out);
                })),
                ..Default::default()
            });
        })
        .unwrap();

    let got: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
    // Client connects to the FORWARDER.
    let conn = client
        .tcp()
        .connect(&cext, world.engine_mut(), (ip(2), 8080))
        .unwrap();
    let g = got.clone();
    conn.set_callbacks(TcpCallbacks {
        on_connected: Some(Rc::new(|ctx, conn| conn.send_in(ctx, b"GET /"))),
        on_data: Some(Rc::new(move |_, _, data| {
            g.borrow_mut().extend_from_slice(data);
        })),
        ..Default::default()
    });
    world.run_for(SimDuration::from_secs(5));
    assert_eq!(
        *got.borrow(),
        b"from-backend:GET /",
        "three-way handshake and data crossed the in-kernel redirector"
    );
    assert_eq!(conn.state(), plexus_net::tcp::TcpState::Established);
}

#[test]
fn special_tcp_implementation_coexists_with_standard() {
    let (mut world, client, server) = two_plexus(true);
    seed_arp_both(&client, &server);
    let cext = client.link_extension(&ext_spec("C")).unwrap();
    let sext = server.link_extension(&ext_spec("S")).unwrap();

    // TCP-special: claims port 9999 and counts raw segments itself.
    let raw_segments = Rc::new(Cell::new(0u32));
    let rs = raw_segments.clone();
    server
        .tcp()
        .claim_special(&sext, &[9999], move |_, _ev| {
            rs.set(rs.get() + 1);
        })
        .unwrap();

    // TCP-standard: normal service on port 80.
    let standard_data = Rc::new(RefCell::new(Vec::new()));
    let sd = standard_data.clone();
    server
        .tcp()
        .listen(&sext, 80, move |_, conn| {
            let sd = sd.clone();
            conn.set_callbacks(TcpCallbacks {
                on_data: Some(Rc::new(move |_, _, data| {
                    sd.borrow_mut().extend_from_slice(data);
                })),
                ..Default::default()
            });
        })
        .unwrap();

    let before = server.tcp().segments_in();
    // A standard connection works.
    let conn = client
        .tcp()
        .connect(&cext, world.engine_mut(), (ip(2), 80))
        .unwrap();
    conn.set_callbacks(TcpCallbacks {
        on_connected: Some(Rc::new(|ctx, conn| conn.send_in(ctx, b"std"))),
        ..Default::default()
    });
    world.run_for(SimDuration::from_secs(2));
    assert_eq!(*standard_data.borrow(), b"std");
    assert!(server.tcp().segments_in() > before);

    // Segments to the special port go to the special implementation, not
    // the standard node.
    let mid = server.tcp().segments_in();
    let conn2 = client
        .tcp()
        .connect(&cext, world.engine_mut(), (ip(2), 9999))
        .unwrap();
    world.run_for(SimDuration::from_secs(2));
    assert!(raw_segments.get() > 0, "special implementation saw the SYN");
    assert_eq!(
        server.tcp().segments_in(),
        mid,
        "standard node must not see special-port segments"
    );
    let _ = conn2;
}

#[test]
fn ephemeral_time_limit_terminates_runaway_extension() {
    let mut world = World::new();
    let a = world.add_machine("a");
    let b = world.add_machine("b");
    let (_m, nics) = world.connect(
        &[&a, &b],
        NicProfile::ethernet_lance(),
        SimDuration::from_micros(1),
        true,
    );
    let mut cfg = StackConfig::interrupt(ip(1), MacAddr::local(1));
    cfg.ext_time_limit = Some(SimDuration::from_micros(50));
    let sa = PlexusStack::attach(&a, &nics[0], cfg);
    let sb = PlexusStack::attach(
        &b,
        &nics[1],
        StackConfig::interrupt(ip(2), MacAddr::local(2)),
    );
    sa.seed_arp(sb.ip(), sb.mac());
    sb.seed_arp(sa.ip(), sa.mac());
    let aext = sa.link_extension(&ext_spec("Runaway")).unwrap();
    let bext = sb.link_extension(&ext_spec("C")).unwrap();

    sa.udp()
        .bind(
            &aext,
            7,
            UdpConfig::default(),
            AppHandler::interrupt(|ctx, _ev: &plexus_core::UdpRecv| {
                // A runaway handler trying to burn 10 ms at interrupt level.
                ctx.lease.charge(SimDuration::from_millis(10));
            }),
        )
        .unwrap();
    let cep = sb
        .udp()
        .bind(
            &bext,
            2000,
            UdpConfig::default(),
            AppHandler::interrupt(|_, _| {}),
        )
        .unwrap();
    cep.send(world.engine_mut(), ip(1), 7, b"trigger").unwrap();
    world.run();
    assert_eq!(
        sa.dispatcher().stats().terminations,
        1,
        "over-budget ephemeral handler must be terminated"
    );
    // The CPU only lost the 50 us allotment, not 10 ms.
    assert!(a.cpu().busy() < SimDuration::from_millis(1));
}

#[test]
fn mac_filter_discards_foreign_frames_unless_promiscuous() {
    // Three machines on one segment; A sends to B; C must filter the frame
    // at the driver (no promiscuous snooping), and the filter is a
    // privileged stack operation, not an extension API.
    let mut world = World::new();
    let a = world.add_machine("a");
    let b = world.add_machine("b");
    let c = world.add_machine("c");
    let (_m, nics) = world.connect(
        &[&a, &b, &c],
        NicProfile::ethernet_lance(),
        SimDuration::from_micros(1),
        true,
    );
    let sa = PlexusStack::attach(
        &a,
        &nics[0],
        StackConfig::interrupt(ip(1), MacAddr::local(1)),
    );
    let sb = PlexusStack::attach(
        &b,
        &nics[1],
        StackConfig::interrupt(ip(2), MacAddr::local(2)),
    );
    let sc = PlexusStack::attach(
        &c,
        &nics[2],
        StackConfig::interrupt(ip(3), MacAddr::local(3)),
    );
    sa.seed_arp(ip(2), MacAddr::local(2));
    sb.seed_arp(ip(1), MacAddr::local(1));

    let aext = sa.link_extension(&ext_spec("A")).unwrap();
    let bext = sb.link_extension(&ext_spec("B")).unwrap();
    let bep_slot: Rc<RefCell<Option<Rc<plexus_core::UdpEndpoint>>>> = Rc::new(RefCell::new(None));
    let bs = bep_slot.clone();
    let bep = sb
        .udp()
        .bind(
            &bext,
            7,
            UdpConfig::default(),
            AppHandler::interrupt(move |ctx, ev: &plexus_core::UdpRecv| {
                let ep = bs.borrow().clone().unwrap();
                ep.send_in(ctx, ev.src, ev.src_port, b"ok").unwrap();
            }),
        )
        .unwrap();
    *bep_slot.borrow_mut() = Some(bep);
    let aep = sa
        .udp()
        .bind(
            &aext,
            2000,
            UdpConfig::default(),
            AppHandler::interrupt(|_, _| {}),
        )
        .unwrap();
    aep.send(world.engine_mut(), ip(2), 7, b"unicast").unwrap();
    world.run();
    // C heard the frames on the shared wire but filtered them all.
    assert_eq!(sc.stats().eth_rx, 0);
    assert!(
        sc.stats().eth_filtered >= 2,
        "request + reply filtered at C"
    );

    // With the (privileged) promiscuous switch, C's driver accepts them —
    // but they die at C's IP layer, which is not their destination.
    sc.set_promiscuous(true);
    aep.send(world.engine_mut(), ip(2), 7, b"unicast2").unwrap();
    world.run();
    assert!(sc.stats().eth_rx > 0, "promiscuous driver accepts");
    assert!(sc.stats().ip_dropped > 0, "but IP drops foreign datagrams");
}

#[test]
fn detach_ether_stops_delivery_at_runtime() {
    let (mut world, client, server) = two_plexus(true);
    let ext = server.link_extension(&ext_spec("AM")).unwrap();
    let hits = Rc::new(Cell::new(0u32));
    let h = hits.clone();
    let id = server
        .attach_ether(
            &ext,
            EtherType::ACTIVE_MESSAGE,
            AppHandler::interrupt(move |_, _| {
                h.set(h.get() + 1);
            }),
        )
        .unwrap();
    client
        .send_ether(
            world.engine_mut(),
            server.mac(),
            EtherType::ACTIVE_MESSAGE,
            b"one",
        )
        .unwrap();
    world.run();
    assert_eq!(hits.get(), 1);
    assert!(server.detach_ether(id));
    assert!(!server.detach_ether(id), "double detach fails");
    client
        .send_ether(
            world.engine_mut(),
            server.mac(),
            EtherType::ACTIVE_MESSAGE,
            b"two",
        )
        .unwrap();
    world.run();
    assert_eq!(hits.get(), 1, "no delivery after detach");
}

#[test]
fn tcp_listen_conflicts_are_refused_and_unlisten_frees() {
    let (world, client, server) = two_plexus(true);
    seed_arp_both(&client, &server);
    let ext = server.link_extension(&ext_spec("S")).unwrap();
    server.tcp().listen(&ext, 80, |_, _| {}).unwrap();
    let err = server.tcp().listen(&ext, 80, |_, _| {}).unwrap_err();
    assert_eq!(err, PlexusError::PortInUse(80));
    // claim_special and redirect also respect the reservation.
    assert!(server.tcp().claim_special(&ext, &[80], |_, _| {}).is_err());
    assert!(server.tcp().redirect(&ext, 80, ip(1)).is_err());
    assert!(server.tcp().unlisten(80));
    assert!(!server.tcp().unlisten(80));
    server
        .tcp()
        .listen(&ext, 80, |_, _| {})
        .expect("port freed");
    let _ = world;
}

#[test]
fn udp_redirect_conflicts_with_existing_binding() {
    let (_world, _client, server) = two_plexus(true);
    let ext = server.link_extension(&ext_spec("S")).unwrap();
    server
        .udp()
        .bind(
            &ext,
            9000,
            UdpConfig::default(),
            AppHandler::interrupt(|_, _| {}),
        )
        .unwrap();
    let err = server.udp().redirect(&ext, 9000, ip(1)).unwrap_err();
    assert_eq!(err, PlexusError::PortInUse(9000));
}

#[test]
fn dispatcher_trace_shows_the_packet_walk() {
    let (mut world, client, server) = two_plexus(true);
    seed_arp_both(&client, &server);
    let cext = client.link_extension(&ext_spec("C")).unwrap();
    let sext = server.link_extension(&ext_spec("S")).unwrap();
    server
        .udp()
        .bind(
            &sext,
            7,
            UdpConfig::default(),
            AppHandler::interrupt(|_, _| {}),
        )
        .unwrap();
    let cep = client
        .udp()
        .bind(
            &cext,
            2000,
            UdpConfig::default(),
            AppHandler::interrupt(|_, _| {}),
        )
        .unwrap();
    let rec = Recorder::new(1024);
    server.machine().cpu().set_recorder(Some(rec.clone()));
    cep.send(world.engine_mut(), ip(2), 7, b"traced").unwrap();
    world.run();
    let exits: Vec<String> = rec
        .events()
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::HandlerExit { event, .. } => Some(rec.name(event)),
            _ => None,
        })
        .collect();
    // Handlers exit in completion order, so the nested raises (upper
    // layers) appear before the layer that raised them: the packet's walk
    // through Figure 1's graph, read bottom-up.
    assert_eq!(
        exits,
        vec!["Udp.PacketRecv", "Ip.PacketRecv", "Ethernet.PacketRecv"]
    );
    // The Ip raise saw the ICMP and TCP guards reject; Ethernet saw ARP's.
    // A reject is either a guard run that failed or a guard the demux
    // index skipped.
    let rejects = |event: &str| {
        let label = rec.intern(event);
        let get = |scope, metric| {
            rec.registry().get(CounterKey {
                scope,
                label,
                metric,
            })
        };
        get(Scope::Guard, "verified.rejects") + get(Scope::Event, "demux.avoided")
    };
    assert_eq!(rejects("Ip.PacketRecv"), 2);
    assert_eq!(rejects("Ethernet.PacketRecv"), 1);
}

#[test]
fn udp_to_unbound_port_elicits_port_unreachable() {
    let (mut world, client, server) = two_plexus(true);
    seed_arp_both(&client, &server);
    let cext = client.link_extension(&ext_spec("C")).unwrap();
    let cep = client
        .udp()
        .bind(
            &cext,
            2000,
            UdpConfig::default(),
            AppHandler::interrupt(|_, _| {}),
        )
        .unwrap();
    cep.send(world.engine_mut(), ip(2), 4444, b"anyone?")
        .unwrap();
    world.run();
    assert_eq!(server.udp().unreachable_sent(), 1);
    // The ICMP error datagram came back to the client's IP layer.
    assert!(client.stats().ip_rx >= 1);
}

#[test]
fn unanswered_arp_is_retried_then_abandoned() {
    // A lossy segment that eats every frame: ARP can never resolve.
    let mut world = World::new();
    let a = world.add_machine("a");
    let b = world.add_machine("b");
    let (medium, nics) = world.connect(
        &[&a, &b],
        NicProfile::ethernet_lance(),
        SimDuration::from_micros(1),
        true,
    );
    medium.set_faults(plexus_sim::nic::FaultInjector::new(1.0, 0.0, 5));
    let sa = PlexusStack::attach(
        &a,
        &nics[0],
        StackConfig::interrupt(ip(1), MacAddr::local(1)),
    );
    let _sb = PlexusStack::attach(
        &b,
        &nics[1],
        StackConfig::interrupt(ip(2), MacAddr::local(2)),
    );
    let ext = sa.link_extension(&ext_spec("C")).unwrap();
    let ep = sa
        .udp()
        .bind(
            &ext,
            2000,
            UdpConfig::default(),
            AppHandler::interrupt(|_, _| {}),
        )
        .unwrap();
    ep.send(world.engine_mut(), ip(2), 7, b"stranded").unwrap();
    world.run();
    assert_eq!(
        sa.stats().arp_failures,
        1,
        "parked packets dropped after retries"
    );
    // The original request plus two retries were broadcast (the medium
    // counts them as transmitted before eating them).
    assert_eq!(nics[0].stats().tx_frames, 3);
}

#[test]
fn graph_description_reflects_installed_extensions() {
    let (_world, _client, server) = two_plexus(true);
    let ext = server.link_extension(&ext_spec("S")).unwrap();
    let before = server.graph_description();
    assert!(before.contains("Ethernet.PacketRecv"));
    assert!(before.contains("Udp.PacketRecv"));
    // Bind two endpoints: two more guarded handler nodes under UDP.
    server
        .udp()
        .bind(
            &ext,
            7,
            UdpConfig::default(),
            AppHandler::interrupt(|_, _| {}),
        )
        .unwrap();
    server
        .udp()
        .bind(
            &ext,
            8,
            UdpConfig::default(),
            AppHandler::interrupt(|_, _| {}),
        )
        .unwrap();
    let after = server.graph_description();
    let udp_line = after
        .lines()
        .find(|l| l.contains("Udp.PacketRecv"))
        .expect("UDP event listed");
    assert!(
        udp_line.contains("2 handler(s), 2 guarded"),
        "got: {udp_line}"
    );
}

#[test]
fn fifty_concurrent_tcp_connections_multiplex_cleanly() {
    // One server port, fifty simultaneous client connections: the
    // per-connection guards must demultiplex every segment to its own
    // connection, and all transfers must complete intact.
    let (mut world, client, server) = two_plexus(true);
    seed_arp_both(&client, &server);
    let cext = client.link_extension(&ext_spec("C")).unwrap();
    let sext = server.link_extension(&ext_spec("S")).unwrap();

    server
        .tcp()
        .listen(&sext, 80, |_, conn| {
            conn.set_callbacks(TcpCallbacks {
                on_data: Some(Rc::new(|ctx, conn, data| {
                    // Echo, tagged with the connection's remote port so
                    // cross-delivery would be caught.
                    let mut out = conn.remote().1.to_be_bytes().to_vec();
                    out.extend_from_slice(data);
                    conn.send_in(ctx, &out);
                })),
                on_peer_close: Some(Rc::new(|ctx, conn| conn.close_in(ctx))),
                ..Default::default()
            });
        })
        .unwrap();

    const N: usize = 50;
    let mut conns = Vec::new();
    let results: Rc<RefCell<Vec<Option<Vec<u8>>>>> = Rc::new(RefCell::new(vec![None; N]));
    for i in 0..N {
        let conn = client
            .tcp()
            .connect(&cext, world.engine_mut(), (ip(2), 80))
            .unwrap();
        let payload = vec![i as u8; 32];
        let res = results.clone();
        let p2 = payload.clone();
        conn.set_callbacks(TcpCallbacks {
            on_connected: Some(Rc::new(move |ctx, conn| conn.send_in(ctx, &p2))),
            on_data: Some(Rc::new(move |_, _, data| {
                res.borrow_mut()[i] = Some(data.to_vec());
            })),
            ..Default::default()
        });
        conns.push((conn, payload));
    }
    world.run_for(SimDuration::from_secs(30));

    for (i, (conn, payload)) in conns.iter().enumerate() {
        let got = results.borrow()[i]
            .clone()
            .unwrap_or_else(|| panic!("connection {i} got no echo (state {:?})", conn.state()));
        let (tag, body) = got.split_at(2);
        assert_eq!(
            u16::from_be_bytes([tag[0], tag[1]]),
            conn.local_port(),
            "echo tagged with the wrong connection's port"
        );
        assert_eq!(body, &payload[..], "connection {i} payload intact");
    }
}

#[test]
fn wire_capture_shows_the_whole_exchange() {
    // The simulated tcpdump: a cold-cache UDP ping-pong must appear on the
    // wire as ARP request, ARP reply, UDP request, UDP reply.
    use plexus_kernel::view::view;
    use plexus_net::ether::EtherView;

    let mut world = World::new();
    let a = world.add_machine("a");
    let b = world.add_machine("b");
    let (medium, nics) = world.connect(
        &[&a, &b],
        NicProfile::ethernet_lance(),
        SimDuration::from_micros(1),
        true,
    );
    let sa = PlexusStack::attach(
        &a,
        &nics[0],
        StackConfig::interrupt(ip(1), MacAddr::local(1)),
    );
    let sb = PlexusStack::attach(
        &b,
        &nics[1],
        StackConfig::interrupt(ip(2), MacAddr::local(2)),
    );
    let aext = sa.link_extension(&ext_spec("C")).unwrap();
    let bext = sb.link_extension(&ext_spec("S")).unwrap();
    let slot: Rc<RefCell<Option<Rc<plexus_core::UdpEndpoint>>>> = Rc::new(RefCell::new(None));
    let es = slot.clone();
    let bep = sb
        .udp()
        .bind(
            &bext,
            7,
            UdpConfig::default(),
            AppHandler::interrupt(move |ctx, ev: &plexus_core::UdpRecv| {
                let ep = es.borrow().clone().unwrap();
                ep.send_in(ctx, ev.src, ev.src_port, b"pong").unwrap();
            }),
        )
        .unwrap();
    *slot.borrow_mut() = Some(bep);
    let aep = sa
        .udp()
        .bind(
            &aext,
            2000,
            UdpConfig::default(),
            AppHandler::interrupt(|_, _| {}),
        )
        .unwrap();

    medium.start_capture();
    aep.send(world.engine_mut(), ip(2), 7, b"ping").unwrap();
    world.run();
    let cap = medium.stop_capture();

    let kinds: Vec<u16> = cap
        .iter()
        .map(|f| view::<EtherView>(&f.bytes).unwrap().ethertype().0)
        .collect();
    // ARP request (broadcast), ARP reply, then two IP datagrams. B's reply
    // needs its own ARP resolution? No: B learned A's binding from the
    // request's sender fields.
    assert_eq!(
        kinds,
        vec![0x0806, 0x0806, 0x0800, 0x0800],
        "capture: {cap:?}"
    );
    // Timestamps are strictly increasing along the shared wire.
    for w in cap.windows(2) {
        assert!(w[0].at < w[1].at);
    }
}

#[test]
fn unloading_an_extension_tears_down_everything_it_installed() {
    let (mut world, client, server) = two_plexus(true);
    seed_arp_both(&client, &server);
    let cext = client.link_extension(&ext_spec("C")).unwrap();
    // One extension installs a UDP endpoint, a TCP listener, and a raw
    // Ethernet handler.
    let spec = ExtensionSpec::typesafe(
        "KitchenSink",
        &["UDP.Bind", "TCP.Listen", "Ethernet.Attach"],
    );
    let sext = server.link_extension(&spec).unwrap();
    let udp_hits = Rc::new(Cell::new(0u32));
    let eth_hits = Rc::new(Cell::new(0u32));
    let (uh, eh) = (udp_hits.clone(), eth_hits.clone());
    server
        .udp()
        .bind(
            &sext,
            7,
            UdpConfig::default(),
            AppHandler::interrupt(move |_, _| {
                uh.set(uh.get() + 1);
            }),
        )
        .unwrap();
    server.tcp().listen(&sext, 80, |_, _| {}).unwrap();
    server
        .attach_ether(
            &sext,
            EtherType::ACTIVE_MESSAGE,
            AppHandler::interrupt(move |_, _| {
                eh.set(eh.get() + 1);
            }),
        )
        .unwrap();

    // Traffic reaches all of it.
    let cep = client
        .udp()
        .bind(
            &cext,
            2000,
            UdpConfig::default(),
            AppHandler::interrupt(|_, _| {}),
        )
        .unwrap();
    cep.send(world.engine_mut(), ip(2), 7, b"one").unwrap();
    client
        .send_ether(
            world.engine_mut(),
            server.mac(),
            EtherType::ACTIVE_MESSAGE,
            b"am",
        )
        .unwrap();
    world.run();
    assert_eq!(udp_hits.get(), 1);
    assert_eq!(eth_hits.get(), 1);

    // Unload: every installation disappears, the symbols unlink, and the
    // resources are reusable by the next application.
    assert!(server.unload_extension("KitchenSink"));
    assert!(!server.unload_extension("KitchenSink"), "idempotent");
    cep.send(world.engine_mut(), ip(2), 7, b"two").unwrap();
    client
        .send_ether(
            world.engine_mut(),
            server.mac(),
            EtherType::ACTIVE_MESSAGE,
            b"am2",
        )
        .unwrap();
    world.run();
    assert_eq!(udp_hits.get(), 1, "UDP endpoint gone");
    assert_eq!(eth_hits.get(), 1, "raw handler gone");

    let next = server.link_extension(&spec).unwrap();
    server
        .udp()
        .bind(
            &next,
            7,
            UdpConfig::default(),
            AppHandler::interrupt(|_, _| {}),
        )
        .expect("port 7 reusable");
    server
        .tcp()
        .listen(&next, 80, |_, _| {})
        .expect("port 80 reusable");
}
