//! `traced_fanout`: the `tx_fanout` shape of the observability
//! scenarios, with everything a `plexus-profile`/`plexus-timeline` user
//! waits for. A generator offers 32-byte datagrams at gigabit line rate
//! to a DUT on the coalesced receive and doorbell transmit paths, which
//! answers each with [`FANOUT`] copies, so both rings shed. A flight
//! recorder with the live tier is installed across the world; after the
//! run the iteration builds the live report, the profile, the timeline
//! and the journeys, and renders every JSON exporter.

use std::cell::{Cell, RefCell};
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
use plexus_trace::export::stats_json;
use plexus_trace::journey::{self, journeys_json};
use plexus_trace::live::{live_json, LiveConfig};
use plexus_trace::profile::{profile_json, Profile};
use plexus_trace::timeline::{self, timeline_json};
use plexus_trace::Recorder;

use super::{teardown, world_counts, Counts, Generator, Outcome, Phases, Workload};
use crate::check::{documents_parse, journeys_telescope, timelines_identical};
use crate::spans::span;
use crate::wire::{parse_udp, udp_frame, Endpoint, Rng};

/// Copies the DUT sends per datagram received.
pub const FANOUT: usize = 4;
/// UDP payload: the 8-byte send timestamp plus seeded bytes.
pub const PAYLOAD: usize = 32;
/// Simulated time the generator offers traffic for.
pub const OFFER: SimDuration = SimDuration::from_micros(8_000);
/// Simulated time after the last send for queues to drain.
const DRAIN: SimDuration = SimDuration::from_micros(2_000);
/// Timeline and live-tier window width (simulated ns).
pub const WINDOW_NS: u64 = 1_000_000;
/// Flight-recorder ring capacity: holds the whole run without overwrites.
const RING: usize = 1 << 18;
/// Per-packet detail kept in the profile, journey and live documents.
const DETAIL: usize = 8;
const PORT: u16 = 7;

fn gen_side() -> Endpoint {
    Endpoint {
        mac: MacAddr::local(1),
        ip: Ipv4Addr::new(10, 0, 9, 1),
        port: 2000,
    }
}

fn dut_side() -> Endpoint {
    Endpoint {
        mac: MacAddr::local(2),
        ip: Ipv4Addr::new(10, 0, 9, 2),
        port: PORT,
    }
}

/// The workload's seeded inputs.
pub struct TracedFanout {
    frames: Rc<Vec<Vec<u8>>>,
    gap_ns: u64,
}

impl TracedFanout {
    /// Generates the datagrams' content from `seed`; their number and
    /// send times depend only on the line rate.
    pub fn new(seed: u64) -> TracedFanout {
        let mut rng = Rng::new(seed, 3);
        let probe = udp_frame(gen_side(), dut_side(), &[0; PAYLOAD]);
        let gap_ns = NicProfile::gigabit().serialize(probe.len()).as_nanos();
        let n = OFFER.as_nanos() / gap_ns;
        let frames = (0..n)
            .map(|k| {
                let mut payload = [0u8; PAYLOAD];
                payload[..8].copy_from_slice(&(k * gap_ns).to_be_bytes());
                rng.fill(&mut payload[8..]);
                udp_frame(gen_side(), dut_side(), &payload)
            })
            .collect();
        TracedFanout {
            frames: Rc::new(frames),
            gap_ns,
        }
    }
}

impl Workload for TracedFanout {
    fn iterate(&self) -> Outcome {
        let mut phases = Phases::start();
        let recorder = span("trace.recorder.new", || {
            let rec = Recorder::new(RING);
            rec.enable_live(LiveConfig::new(WINDOW_NS));
            rec
        });
        let (mut world, nics, dut_machine) = span("sim.world.build", || {
            let mut world = World::new();
            let g = world.add_machine("generator");
            let d = world.add_machine("dut");
            let (_medium, nics) = world.connect(
                &[&g, &d],
                NicProfile::gigabit(),
                SimDuration::from_micros(1),
                false,
            );
            world.install_recorder(&recorder);
            (world, nics, d)
        });
        let (gen, dut) = (gen_side(), dut_side());
        let stack = span("core.stack.attach", || {
            let cfg = StackConfig::interrupt(dut.ip, dut.mac)
                .coalesced()
                .doorbell_tx();
            PlexusStack::attach(&dut_machine, &nics[1], cfg)
        });
        span("core.stack.seed_arp", || stack.seed_arp(gen.ip, gen.mac));
        let ext = span("kernel.link_extension", || {
            stack.link_extension(&ExtensionSpec::typesafe(
                "fanout",
                &["UDP.Bind", "UDP.Send"],
            ))
        })
        .expect("the UDP interface links");

        let slot: Rc<RefCell<Option<Rc<UdpEndpoint>>>> = Rc::new(RefCell::new(None));
        let s = slot.clone();
        let fan = move |ctx: &mut RaiseCtx<'_>, ev: &UdpRecv| {
            span("apps.handler", || {
                let ep = s.borrow().clone().expect("endpoint installed");
                for _ in 0..FANOUT {
                    // A full transmit ring refuses the copy; shedding is
                    // this workload's point, so refusals are not errors.
                    let _ = span("core.udp.send", || {
                        ep.send_mbuf_in(ctx, ev.src, ev.src_port, ev.payload.share())
                    });
                }
            })
        };
        let ep = span("filter.bind", || {
            stack
                .udp()
                .bind(&ext, PORT, UdpConfig::default(), AppHandler::interrupt(fan))
        })
        .expect("the port is free");
        *slot.borrow_mut() = Some(ep);

        let completions = Rc::new(Cell::new(0u64));
        let done = completions.clone();
        span("sim.nic.attach", || {
            nics[0].attach(DriverConfig::per_frame(move |_, frame| {
                span("apps.sink", || {
                    if parse_udp(&frame).is_some_and(|v| v.dst_mac == gen.mac.0) {
                        done.set(done.get() + 1);
                    }
                })
            }))
        });
        let generator = Rc::new(Generator {
            nic: nics[0].clone(),
            frames: self.frames.clone(),
            gap_ns: self.gap_ns,
        });
        let sim_span = generator.last_send() + DRAIN;
        generator.start(world.engine_mut());

        phases.run(&mut world, sim_span);

        let live =
            span("trace.live_report", || recorder.live_report()).expect("the live tier is enabled");
        let profile = span("trace.profile_build", || Profile::build(&recorder));
        let tl = span("trace.timeline_build", || {
            timeline::build(&recorder, WINDOW_NS)
        });
        let journeys = span("trace.journey_build", || journey::build(&profile));
        let docs = span("trace.export", || {
            [
                ("stats", stats_json(&recorder)),
                ("timeline", timeline_json(&tl)),
                ("live_timeline", timeline_json(&live.timeline())),
                ("journeys", journeys_json(&journeys, DETAIL)),
                ("live", live_json(&live, DETAIL)),
                ("profile", profile_json(&profile, None, DETAIL)),
            ]
        });

        let mut counts = Counts::new();
        world_counts(&world, &[&stack], &mut counts);
        counts.insert("fanout.offered", self.frames.len() as u64);
        counts.insert("fanout.completions", completions.get());
        counts.insert("trace.records", recorder.recorded());
        counts.insert(
            "trace.export_bytes",
            docs.iter().map(|(_, d)| d.len() as u64).sum(),
        );
        counts.insert("trace.journeys", journeys.journeys.len() as u64);
        counts.insert("trace.windows", tl.windows.len() as u64);

        let overwritten = recorder.overwritten();
        let check = (if overwritten > 0 {
            Err(format!(
                "the flight-recorder ring overwrote {overwritten} records"
            ))
        } else {
            Ok(())
        })
        .and_then(|()| timelines_identical(&docs[2].1, &docs[1].1))
        .and_then(|()| journeys_telescope(&journeys))
        .and_then(|()| {
            let named: Vec<(&str, &str)> = docs.iter().map(|(n, d)| (*n, d.as_str())).collect();
            span("trace.json_parse", || documents_parse(&named))
        });
        slot.borrow_mut().take();
        teardown(&mut world);
        // The folds are the bulk of the iteration's memory; free them
        // under the trace layer's name, not as benchmark time.
        span("trace.drop", || {
            drop((docs, journeys, tl, profile, live, recorder))
        });
        phases.finish(counts, check)
    }
}
