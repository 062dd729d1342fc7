//! The three seeded workloads and what they share: the open-loop frame
//! generator, the world-wide counter snapshot and one iteration's
//! outcome.

pub mod tcp_bulk;
pub mod traced_fanout;
pub mod udp_flows;

use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use plexus_core::PlexusStack;
use plexus_net::mbuf::{cluster_pool_stats, PoolStats};
use plexus_sim::engine::Engine;
use plexus_sim::nic::{DriverConfig, Nic};
use plexus_sim::time::{SimDuration, SimTime};
use plexus_sim::World;

use crate::spans::span;

/// Simulated counts of one iteration, by name. Every entry must repeat
/// exactly across iterations of one seed.
pub type Counts = BTreeMap<&'static str, u64>;

/// What one iteration produced.
pub struct Outcome {
    /// Host ns from world construction to the first engine event.
    pub setup_ns: u64,
    /// Host ns inside `World::run_for`.
    pub run_ns: u64,
    /// Simulated counts (see [`Counts`]).
    pub counts: Counts,
    /// Mbuf cluster pool activity during the iteration. Host state, not
    /// simulated: the thread's pool is cold in the first iteration only.
    pub pool: PoolStats,
    /// The iteration's output checks.
    pub check: Result<(), String>,
}

/// A seeded workload: inputs are generated once in `new`, and every
/// iteration replays them into a fresh world.
pub trait Workload {
    /// Builds, runs and checks one world.
    fn iterate(&self) -> Outcome;
}

/// Builds the named workload from `seed`.
pub fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "udp_flows" => Box::new(udp_flows::UdpFlows::new(seed)),
        "tcp_bulk" => Box::new(tcp_bulk::TcpBulk::new(seed)),
        "traced_fanout" => Box::new(traced_fanout::TracedFanout::new(seed)),
        _ => return None,
    })
}

/// Every workload name, in the order the benchmark lists them.
pub const NAMES: &[&str] = &["udp_flows", "tcp_bulk", "traced_fanout"];

/// Host-time phases of an iteration and the pool snapshot they started
/// from.
pub struct Phases {
    start: Instant,
    pool_at_start: PoolStats,
    setup_ns: u64,
    run_ns: u64,
}

impl Phases {
    /// Starts the set-up clock (call before constructing the world).
    pub fn start() -> Phases {
        let pool_at_start = span("net.mbuf.pool_stats", cluster_pool_stats);
        Phases {
            start: Instant::now(),
            pool_at_start,
            setup_ns: 0,
            run_ns: 0,
        }
    }

    /// Ends set-up and runs the world for `span_sim` of simulated time.
    pub fn run(&mut self, world: &mut World, span_sim: SimDuration) {
        self.setup_ns = self.start.elapsed().as_nanos() as u64;
        let t = Instant::now();
        span("sim.run", || world.run_for(span_sim));
        self.run_ns = t.elapsed().as_nanos() as u64;
    }

    /// The outcome, with the pool's activity since [`Phases::start`].
    pub fn finish(self, counts: Counts, check: Result<(), String>) -> Outcome {
        let now = span("net.mbuf.pool_stats", cluster_pool_stats);
        let was = self.pool_at_start;
        Outcome {
            setup_ns: self.setup_ns,
            run_ns: self.run_ns,
            counts,
            pool: PoolStats {
                allocated: now.allocated - was.allocated,
                reused: now.reused - was.reused,
                recycled: now.recycled - was.recycled,
                shared_at_drop: now.shared_at_drop - was.shared_at_drop,
                unpooled: now.unpooled - was.unpooled,
            },
            check,
        }
    }
}

/// Pre-built frames offered open loop: frame `k` at `k * gap_ns`.
pub struct Generator {
    /// The generator machine's NIC.
    pub nic: Rc<Nic>,
    /// The frames, in send order.
    pub frames: Rc<Vec<Vec<u8>>>,
    /// Simulated ns between consecutive sends.
    pub gap_ns: u64,
}

impl Generator {
    /// Schedules the first send; each send schedules the next.
    pub fn start(self: Rc<Self>, engine: &mut Engine) {
        send_from(engine, self, 0);
    }

    /// Simulated time at which the last frame is offered.
    pub fn last_send(&self) -> SimDuration {
        SimDuration::from_nanos(self.gap_ns * (self.frames.len() as u64).saturating_sub(1))
    }
}

fn send_from(engine: &mut Engine, gen: Rc<Generator>, k: usize) {
    if k >= gen.frames.len() {
        return;
    }
    let at = SimTime::ZERO + SimDuration::from_nanos(k as u64 * gen.gap_ns);
    span("sim.engine.schedule", || {
        engine.schedule_at(at, move |engine| {
            span("apps.generator", || {
                let frame = gen.frames[k].clone();
                let now = engine.now();
                span("sim.nic.transmit", || {
                    gen.nic.transmit_frame(engine, now, frame)
                });
                send_from(engine, gen, k + 1);
            })
        })
    });
}

/// Adds the world-wide simulated counters every workload reports: engine
/// events, frames at every NIC, ring drops, and the stacks' NIC and
/// dispatcher counters.
pub fn world_counts(world: &World, stacks: &[&Rc<PlexusStack>], counts: &mut Counts) {
    counts.insert("engine.executed", world.engine().executed());
    span("sim.nic.stats", || {
        let (mut rx, mut tx, mut drops) = (0, 0, 0);
        for m in world.machines() {
            for i in 0..m.nic_count() {
                let s = m.nic(i).stats();
                rx += s.rx_frames;
                tx += s.tx_frames;
                drops += s.rx_ring_drops + s.tx_ring_drops;
            }
        }
        counts.insert("nic.rx_frames", rx);
        counts.insert("nic.tx_frames", tx);
        counts.insert("nic.ring_drops", drops);
        let (mut srx, mut irq, mut stx, mut bells) = (0, 0, 0, 0);
        for st in stacks {
            let s = st.machine().nic(0).stats();
            srx += s.rx_frames;
            irq += s.rx_interrupts;
            stx += s.tx_frames;
            bells += s.tx_doorbells;
        }
        counts.insert("stack.rx_frames", srx);
        counts.insert("stack.rx_interrupts", irq);
        counts.insert("stack.tx_frames", stx);
        counts.insert("stack.tx_doorbells", bells);
    });
    span("kernel.dispatch.stats", || {
        let (mut raises, mut evals, mut hits, mut verified, mut compiled) = (0, 0, 0, 0, 0);
        for st in stacks {
            let d = st.dispatcher().stats();
            raises += d.raises;
            evals += d.guard_evals;
            hits += d.demux_hits;
            verified += d.verified_guard_evals;
            compiled += d.compiled_guard_evals;
        }
        counts.insert("dispatch.raises", raises);
        counts.insert("dispatch.guard_evals", evals);
        counts.insert("dispatch.demux_hits", hits);
        counts.insert("dispatch.verified_guard_evals", verified);
        counts.insert("dispatch.compiled_guard_evals", compiled);
    });
}

/// Unhooks what the world's `Rc` cycles would otherwise keep alive past
/// the iteration: every NIC's receive handler (it holds the stack that
/// holds the NIC) and every flight-recorder reference. The stacks' own
/// internal cycles still leak a little per iteration; `peak_rss_mib` is
/// read at a fixed iteration count for that reason.
pub fn teardown(world: &mut World) {
    span("sim.world.teardown", || {
        world.engine_mut().set_recorder(None);
        for m in world.machines() {
            m.cpu().set_recorder(None);
            for i in 0..m.nic_count() {
                let nic = m.nic(i);
                nic.set_recorder(None);
                nic.attach(DriverConfig::tx_only());
            }
        }
    });
}
