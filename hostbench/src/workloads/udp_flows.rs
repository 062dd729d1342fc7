//! `udp_flows`: open-loop UDP echo on the paper's interrupt-level
//! configuration (per-frame receive interrupts, DEC T3 link).
//!
//! [`FLOWS`] endpoints each bind their own seeded port through a
//! verified, compiled guard, so the dispatcher's demux index is in play
//! and set-up pays for guard verification and compilation. Payloads run
//! from 8 bytes (the send timestamp) to [`MAX_PAYLOAD`] bytes. The offered
//! rate ([`GAP_NS`] between sends) stays below the DUT's simulated
//! capacity, so every frame takes the full rx → dispatch → guard → UDP →
//! handler → tx path and nothing is shed.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::net::Ipv4Addr;
use std::rc::Rc;

use plexus_core::{AppHandler, PlexusStack, StackConfig, UdpEndpoint, UdpRecv};
use plexus_kernel::domain::ExtensionSpec;
use plexus_kernel::RaiseCtx;
use plexus_net::ether::MacAddr;
use plexus_net::udp::UdpConfig;
use plexus_sim::nic::{DriverConfig, NicProfile};
use plexus_sim::time::SimDuration;
use plexus_sim::World;

use super::{teardown, world_counts, Counts, Generator, Outcome, Phases, Workload};
use crate::check::EchoChecker;
use crate::spans::span;
use crate::wire::{parse_udp, udp_frame, Endpoint, Rng};

/// Bound endpoints on the DUT.
pub const FLOWS: usize = 32;
/// Datagrams offered per iteration.
pub const DATAGRAMS: usize = 8192;
/// Largest payload offered.
pub const MAX_PAYLOAD: usize = 1024;
/// Smallest payload: the 8-byte send timestamp.
pub const MIN_PAYLOAD: usize = 8;
/// Simulated ns between sends: above both the DUT's per-datagram CPU
/// cost and the wire time of the largest frame.
pub const GAP_NS: u64 = 300_000;
/// Simulated time after the last send for its echo to land.
const DRAIN: SimDuration = SimDuration::from_micros(20_000);

const GEN_PORT: u16 = 2000;

fn gen_side() -> Endpoint {
    Endpoint {
        mac: MacAddr::local(1),
        ip: Ipv4Addr::new(10, 0, 7, 1),
        port: GEN_PORT,
    }
}

fn dut_side(port: u16) -> Endpoint {
    Endpoint {
        mac: MacAddr::local(2),
        ip: Ipv4Addr::new(10, 0, 7, 2),
        port,
    }
}

/// The workload's seeded inputs.
pub struct UdpFlows {
    ports: Vec<u16>,
    frames: Rc<Vec<Vec<u8>>>,
}

impl UdpFlows {
    /// Generates ports, sizes, flow order and payload bytes from `seed`.
    /// The set of payload sizes and the datagrams per flow are the same
    /// for every seed; only their order and content change.
    pub fn new(seed: u64) -> UdpFlows {
        let mut rng = Rng::new(seed, 1);
        let mut ports = BTreeSet::new();
        while ports.len() < FLOWS {
            ports.insert(1024 + rng.below(60_000) as u16);
        }
        let mut ports: Vec<u16> = ports.into_iter().collect();
        rng.shuffle(&mut ports);

        let mut sizes: Vec<usize> = (0..DATAGRAMS)
            .map(|i| MIN_PAYLOAD + i * (MAX_PAYLOAD - MIN_PAYLOAD) / (DATAGRAMS - 1))
            .collect();
        rng.shuffle(&mut sizes);
        let mut flows: Vec<usize> = (0..DATAGRAMS).map(|i| i % FLOWS).collect();
        rng.shuffle(&mut flows);

        let frames = sizes
            .iter()
            .zip(&flows)
            .enumerate()
            .map(|(k, (&size, &flow))| {
                let mut payload = vec![0u8; size];
                payload[..8].copy_from_slice(&(k as u64 * GAP_NS).to_be_bytes());
                rng.fill(&mut payload[8..]);
                udp_frame(gen_side(), dut_side(ports[flow]), &payload)
            })
            .collect();
        UdpFlows {
            ports,
            frames: Rc::new(frames),
        }
    }
}

impl Workload for UdpFlows {
    fn iterate(&self) -> Outcome {
        let mut phases = Phases::start();
        let (mut world, nics, dut_machine) = span("sim.world.build", || {
            let mut world = World::new();
            let g = world.add_machine("generator");
            let d = world.add_machine("dut");
            let (_medium, nics) = world.connect(
                &[&g, &d],
                NicProfile::dec_t3(),
                SimDuration::from_micros(2),
                false,
            );
            (world, nics, d)
        });
        let (gen, dut) = (gen_side(), dut_side(0));
        let stack = span("core.stack.attach", || {
            PlexusStack::attach(
                &dut_machine,
                &nics[1],
                StackConfig::interrupt(dut.ip, dut.mac),
            )
        });
        span("core.stack.seed_arp", || stack.seed_arp(gen.ip, gen.mac));
        let ext = span("kernel.link_extension", || {
            stack.link_extension(&ExtensionSpec::typesafe(
                "udp-flows",
                &["UDP.Bind", "UDP.Send"],
            ))
        })
        .expect("the UDP interface links");

        let send_errors = Rc::new(RefCell::new(0u64));
        let mut slots = Vec::with_capacity(FLOWS);
        for &port in &self.ports {
            let slot: Rc<RefCell<Option<Rc<UdpEndpoint>>>> = Rc::new(RefCell::new(None));
            let (s, errors) = (slot.clone(), send_errors.clone());
            let echo = move |ctx: &mut RaiseCtx<'_>, ev: &UdpRecv| {
                span("apps.handler", || {
                    let ep = s.borrow().clone().expect("endpoint installed");
                    let sent = span("core.udp.send", || {
                        ep.send_mbuf_in(ctx, ev.src, ev.src_port, ev.payload.share())
                    });
                    if sent.is_err() {
                        *errors.borrow_mut() += 1;
                    }
                })
            };
            let ep = span("filter.bind", || {
                stack.udp().bind(
                    &ext,
                    port,
                    UdpConfig::default(),
                    AppHandler::interrupt(echo),
                )
            })
            .expect("seeded ports are distinct");
            *slot.borrow_mut() = Some(ep);
            slots.push(slot);
        }

        let checker = Rc::new(RefCell::new(EchoChecker::new(self.frames.clone(), GAP_NS)));
        let c = checker.clone();
        span("sim.nic.attach", || {
            nics[0].attach(DriverConfig::per_frame(move |_, frame| {
                span("apps.sink", || match parse_udp(&frame) {
                    Some(v) if v.dst_mac == gen.mac.0 => {
                        c.borrow_mut().on_echo(v.src_port, v.payload)
                    }
                    _ => c.borrow_mut().on_stray(),
                })
            }))
        });
        let generator = Rc::new(Generator {
            nic: nics[0].clone(),
            frames: self.frames.clone(),
            gap_ns: GAP_NS,
        });
        let sim_span = generator.last_send() + DRAIN;
        generator.start(world.engine_mut());

        phases.run(&mut world, sim_span);

        let mut counts = Counts::new();
        world_counts(&world, &[&stack], &mut counts);
        counts.insert(
            "udp.delivered",
            span("core.stats", || stack.udp().delivered()),
        );
        let errors = *send_errors.borrow();
        counts.insert("udp.send_errors", errors);
        let check = checker.borrow().finish().and_then(|()| {
            if errors > 0 {
                Err(format!("{errors} echo sends failed"))
            } else if counts["nic.ring_drops"] > 0 {
                Err(String::from("frames were shed at a NIC ring"))
            } else {
                Ok(())
            }
        });
        for slot in &slots {
            slot.borrow_mut().take();
        }
        stack.unload_extension("udp-flows");
        teardown(&mut world);
        phases.finish(counts, check)
    }
}
