//! `tcp_bulk`: one Plexus TCP bulk transfer of [`BYTES`] on the gigabit
//! profile (checksum offload and TSO), queued by the sender in seeded
//! `send_in` chunks as soon as the connection is up, then closed. The
//! receiver checks every byte against the seeded pattern. This is the byte-moving,
//! write-heavy use of the stack: send-buffer appends and ACK drains,
//! segment copies and checksums dominate, with few dispatcher raises per
//! byte.

use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

use plexus_core::{PlexusStack, StackConfig, TcpCallbacks, TcpConn};
use plexus_kernel::domain::ExtensionSpec;
use plexus_net::ether::MacAddr;
use plexus_sim::nic::NicProfile;
use plexus_sim::time::SimDuration;
use plexus_sim::World;

use super::{teardown, world_counts, Counts, Outcome, Phases, Workload};
use crate::check::StreamChecker;
use crate::spans::span;
use crate::wire::Rng;

/// Bytes transferred per iteration.
pub const BYTES: usize = 4 << 20;
/// Largest single `send_in` write; chunk sizes are uniform in
/// `1..=MAX_CHUNK`.
pub const MAX_CHUNK: usize = 64 << 10;
/// Upper bound on the simulated transfer and close; the engine drains
/// long before.
const SIM_LIMIT: SimDuration = SimDuration::from_secs(30);
const PORT: u16 = 5001;

fn ip(last: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 8, last)
}

/// The workload's seeded inputs: the byte stream and how it is chunked.
pub struct TcpBulk {
    pattern: Rc<Vec<u8>>,
    chunks: Rc<Vec<usize>>,
}

impl TcpBulk {
    /// Generates the stream content and the write chunking from `seed`.
    pub fn new(seed: u64) -> TcpBulk {
        let mut rng = Rng::new(seed, 2);
        let mut pattern = vec![0u8; BYTES];
        rng.fill(&mut pattern);
        let mut chunks = Vec::new();
        let mut left = BYTES;
        while left > 0 {
            let n = (1 + rng.below(MAX_CHUNK as u64) as usize).min(left);
            chunks.push(n);
            left -= n;
        }
        TcpBulk {
            pattern: Rc::new(pattern),
            chunks: Rc::new(chunks),
        }
    }
}

impl Workload for TcpBulk {
    fn iterate(&self) -> Outcome {
        let mut phases = Phases::start();
        let (mut world, nics, a, b) = span("sim.world.build", || {
            let mut world = World::new();
            let a = world.add_machine("sender");
            let b = world.add_machine("receiver");
            let (_medium, nics) = world.connect(
                &[&a, &b],
                NicProfile::gigabit(),
                SimDuration::from_micros(1),
                false,
            );
            (world, nics, a, b)
        });
        let sender = span("core.stack.attach", || {
            PlexusStack::attach(
                &a,
                &nics[0],
                StackConfig::interrupt(ip(1), MacAddr::local(1)),
            )
        });
        let receiver = span("core.stack.attach", || {
            PlexusStack::attach(
                &b,
                &nics[1],
                StackConfig::interrupt(ip(2), MacAddr::local(2)),
            )
        });
        span("core.stack.seed_arp", || {
            sender.seed_arp(ip(2), MacAddr::local(2));
            receiver.seed_arp(ip(1), MacAddr::local(1));
        });
        let spec = ExtensionSpec::typesafe("bulk", &["TCP.Listen", "TCP.Connect", "TCP.Send"]);
        let (sext, rext) = span("kernel.link_extension", || {
            (sender.link_extension(&spec), receiver.link_extension(&spec))
        });
        let (sext, rext) = (
            sext.expect("the TCP interface links"),
            rext.expect("the TCP interface links"),
        );

        let checker = Rc::new(RefCell::new(StreamChecker::new(self.pattern.clone())));
        let accepted: Rc<RefCell<Option<Rc<TcpConn>>>> = Rc::new(RefCell::new(None));
        let (c, acc) = (checker.clone(), accepted.clone());
        span("core.tcp.listen", || {
            receiver.tcp().listen(&rext, PORT, move |_, conn| {
                let c = c.clone();
                *acc.borrow_mut() = Some(conn.clone());
                conn.set_callbacks(TcpCallbacks {
                    on_data: Some(Rc::new(move |_, _, data| {
                        span("apps.on_data", || c.borrow_mut().on_data(data))
                    })),
                    on_peer_close: Some(Rc::new(|ctx, conn| {
                        span("core.tcp.close_in", || conn.close_in(ctx))
                    })),
                    ..Default::default()
                });
            })
        })
        .expect("the port is free");

        let conn = span("core.tcp.connect", || {
            sender
                .tcp()
                .connect(&sext, world.engine_mut(), (ip(2), PORT))
        })
        .expect("connect queues a SYN");
        let (pattern, chunks) = (self.pattern.clone(), self.chunks.clone());
        conn.set_callbacks(TcpCallbacks {
            on_connected: Some(Rc::new(move |ctx, conn| {
                span("apps.on_connected", || {
                    let mut at = 0;
                    for &n in chunks.iter() {
                        span("core.tcp.send_in", || {
                            conn.send_in(ctx, &pattern[at..at + n])
                        });
                        at += n;
                    }
                    // Closing after the last write lets both ends reach
                    // CLOSED and leave their managers within the run.
                    span("core.tcp.close_in", || conn.close_in(ctx));
                })
            })),
            ..Default::default()
        });

        phases.run(&mut world, SIM_LIMIT);

        let mut counts = Counts::new();
        world_counts(&world, &[&sender, &receiver], &mut counts);
        let retransmits = span("core.stats", || {
            conn.retransmits() + accepted.borrow().as_ref().map_or(0, |c| c.retransmits())
        });
        counts.insert("tcp.retransmits", retransmits);
        counts.insert(
            "tcp.segments_in",
            span("core.stats", || {
                sender.tcp().segments_in() + receiver.tcp().segments_in()
            }),
        );
        counts.insert("tcp.bytes", checker.borrow().received() as u64);
        let check = checker.borrow().finish().and_then(|()| {
            if retransmits > 0 {
                Err(format!("{retransmits} segments retransmitted"))
            } else {
                Ok(())
            }
        });
        accepted.borrow_mut().take();
        teardown(&mut world);
        phases.finish(counts, check)
    }
}
