//! Overload/throughput experiment: open-loop UDP load against the
//! per-packet and coalesced receive paths.
//!
//! A load generator machine clocks pre-built UDP frames at a fixed
//! fraction of line rate — open loop, so it never slows down when the
//! device under test falls behind — and the DUT runs a Plexus stack in
//! one of two receive configurations:
//!
//! * **per-packet** (the paper's): one interrupt per frame, full driver
//!   fixed cost every time, no admission control — backlog queues on the
//!   CPU without bound;
//! * **coalesced**: the bounded NIC rx ring + interrupt coalescing path
//!   ([`plexus_sim::nic::NicProfile::rx_ring_frames`] /
//!   `rx_batch`), which amortizes interrupt entry/exit and the driver
//!   fixed cost across a drained batch and sheds overload at the ring.
//!
//! Two workloads: a UDP echo server (round-trip measured at the
//! generator) and the §5.2 in-kernel UDP forwarder (one-way latency
//! measured at a raw backend sink). Offered load sweeps 0.1x to 4x of
//! line rate; each point reports goodput, latency percentiles, and a
//! drop-cause breakdown taken from the NIC counters.

use std::cell::{Cell, RefCell};
use std::net::Ipv4Addr;
use std::rc::Rc;

use plexus_apps::forward::{forwarder_extension_spec, InKernelForwarder};
use plexus_core::{AppHandler, PlexusStack, StackConfig, UdpRecv};
use plexus_kernel::domain::ExtensionSpec;
use plexus_net::ether::MacAddr;
use plexus_net::ip::{encapsulate as ip_encapsulate, proto, IpHeader};
use plexus_net::mbuf::Mbuf;
use plexus_net::udp::UdpConfig;
use plexus_sim::engine::Engine;
use plexus_sim::nic::{DriverConfig, Nic, NicStats};
use plexus_sim::time::{SimDuration, SimTime};
use plexus_sim::World;

use crate::udp_rtt::Link;

/// Which receive path the device under test runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RxMode {
    /// One interrupt per frame (the paper's configuration).
    PerPacket,
    /// Bounded rx ring + interrupt coalescing.
    Coalesced,
}

impl RxMode {
    /// Key used in metric names.
    pub fn key(&self) -> &'static str {
        match self {
            RxMode::PerPacket => "perpkt",
            RxMode::Coalesced => "coalesced",
        }
    }
}

/// Which transmit submission path the device under test runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TxMode {
    /// Scatter-gather chains handed to the adapter one frame at a time
    /// (the stack's default).
    #[default]
    PerFrame,
    /// Flatten every chain to a contiguous buffer before a per-frame
    /// submit — the legacy path, kept as the comparison baseline.
    Flattened,
    /// Scatter-gather with doorbell-batched submission: queued frames
    /// share one driver fixed charge per doorbell.
    Doorbell,
}

impl TxMode {
    /// Key used in metric names.
    pub fn key(&self) -> &'static str {
        match self {
            TxMode::PerFrame => "sgpf",
            TxMode::Flattened => "flat",
            TxMode::Doorbell => "sgdb",
        }
    }
}

/// Copies the fan-out workload sends per received datagram.
pub const FANOUT: usize = 4;

/// The traffic pattern offered to the device under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// DUT echoes each datagram back; latency is the round trip at the
    /// generator.
    UdpEcho,
    /// DUT redirects each datagram to a backend sink (§5.2 forwarding);
    /// latency is one-way generator→backend.
    UdpForward,
    /// DUT answers each datagram with [`FANOUT`] copies — the fig6-style
    /// fan-out, transmit-bound, which is what doorbell batching helps.
    UdpFanout,
}

impl Workload {
    /// Key used in metric names.
    pub fn key(&self) -> &'static str {
        match self {
            Workload::UdpEcho => "echo",
            Workload::UdpForward => "fwd",
            Workload::UdpFanout => "fanout",
        }
    }
}

/// The standard sweep: offered load as a fraction `num/den` of line rate.
pub const FACTORS: &[(u64, u64)] = &[(1, 10), (1, 4), (1, 2), (1, 1), (2, 1), (4, 1)];

/// Results for one offered-load point.
#[derive(Clone, Debug)]
pub struct LoadPoint {
    /// Offered load as a fraction of line rate (`num/den`).
    pub offered: (u64, u64),
    /// Frames offered during the measurement window.
    pub sent: u64,
    /// Workload completions (echo replies / forwarded frames) landing
    /// inside the measurement window.
    pub completed: u64,
    /// Completions per second of simulated time.
    pub goodput_pps: f64,
    /// Per-completion latency samples in ns (send → completion).
    pub latency_ns: Vec<u64>,
    /// Frames shed at the generator's transmit ring (offered above wire
    /// capacity never reaches the DUT).
    pub gen_tx_ring_drops: u64,
    /// Frames shed at the DUT's receive ring (coalesced mode only).
    pub rx_ring_drops: u64,
    /// Frames delivered with no receive handler installed.
    pub rx_no_handler: u64,
    /// Receive interrupts the DUT took.
    pub rx_interrupts: u64,
    /// Frames the DUT's driver actually received.
    pub rx_frames: u64,
    /// Peak rx-ring occupancy observed.
    pub rx_ring_highwater: u64,
    /// Frames the DUT transmitted (echo replies / fan-out copies).
    pub dut_tx_frames: u64,
    /// Frames shed at the DUT's transmit ring.
    pub dut_tx_ring_drops: u64,
    /// Doorbells the DUT's driver rang (doorbell tx mode only: per-frame
    /// submission reports zero).
    pub tx_doorbells: u64,
}

impl LoadPoint {
    /// Offered load as a float multiple of line rate.
    pub fn factor(&self) -> f64 {
        self.offered.0 as f64 / self.offered.1 as f64
    }

    /// Label like `x0.10` / `x2.00`, stable for metric names.
    pub fn label(&self) -> String {
        format!("x{:.2}", self.factor())
    }

    /// Mean frames drained per receive interrupt.
    pub fn frames_per_interrupt(&self) -> f64 {
        if self.rx_interrupts == 0 {
            0.0
        } else {
            self.rx_frames as f64 / self.rx_interrupts as f64
        }
    }
}

const GEN: u8 = 1;
const DUT: u8 = 2;
const BACKEND: u8 = 3;
const PORT: u16 = 7;
const GEN_PORT: u16 = 2000;
/// Offset of the UDP payload inside the frame (eth + ip + udp headers).
const PAYLOAD_OFF: usize = 14 + 20 + 8;
/// Default payload: small frames keep per-frame CPU cost dominant over
/// wire time, which is what makes receive overload visible.
pub const PAYLOAD: usize = 32;
/// Settling time before the measurement window opens.
pub const WARMUP: SimDuration = SimDuration::from_micros(20_000);
/// Length of the measurement window.
pub const MEASURE: SimDuration = SimDuration::from_micros(200_000);

fn ip(last: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 9, last)
}

/// Builds a complete wire frame: Ethernet + IPv4 + UDP (checksum
/// disabled so the payload can carry a varying timestamp without a
/// per-frame checksum pass), `payload` zero bytes. Public so integration
/// tests can offer raw line-rate bursts to a stack.
pub fn build_frame(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    payload: usize,
) -> Vec<u8> {
    assert!(payload >= 8, "payload must hold a send timestamp");
    let mut udp = Mbuf::from_payload(64, &vec![0u8; payload]);
    let hdr = udp.prepend(8);
    let udp_len = (8 + payload) as u16;
    hdr[0..2].copy_from_slice(&GEN_PORT.to_be_bytes());
    hdr[2..4].copy_from_slice(&PORT.to_be_bytes());
    hdr[4..6].copy_from_slice(&udp_len.to_be_bytes());
    hdr[6..8].copy_from_slice(&0u16.to_be_bytes()); // Checksum disabled.
    let dgram = ip_encapsulate(&IpHeader::simple(src_ip, dst_ip, proto::UDP, 1), udp);
    let mut frame = dgram;
    let eth = frame.prepend(14);
    eth[0..6].copy_from_slice(&dst_mac.0);
    eth[6..12].copy_from_slice(&src_mac.0);
    eth[12..14].copy_from_slice(&0x0800u16.to_be_bytes());
    frame.to_vec()
}

/// Shared measurement state between the generator and the sink handler.
struct Meter {
    window: (u64, u64),
    sent: Cell<u64>,
    completed: Cell<u64>,
    latency_ns: RefCell<Vec<u64>>,
}

impl Meter {
    fn new(window: (u64, u64)) -> Rc<Meter> {
        Rc::new(Meter {
            window,
            sent: Cell::new(0),
            completed: Cell::new(0),
            latency_ns: RefCell::new(Vec::new()),
        })
    }

    fn in_window(&self, now_ns: u64) -> bool {
        self.window.0 <= now_ns && now_ns < self.window.1
    }

    fn complete(&self, now_ns: u64, sent_ns: u64) {
        if self.in_window(now_ns) {
            self.completed.set(self.completed.get() + 1);
            self.latency_ns.borrow_mut().push(now_ns - sent_ns);
        }
    }
}

/// Open-loop generator state shared by the self-rescheduling send events.
struct Gen {
    nic: Rc<Nic>,
    template: Vec<u8>,
    meter: Rc<Meter>,
    /// Nanoseconds to serialize one template frame at line rate.
    ser_ns: u64,
    /// Offered load `num/den` as a multiple of line rate.
    num: u64,
    den: u64,
    end_ns: u64,
}

/// Schedules send `k` at `k * ser * den / num` ns (computed from `k`, not
/// accumulated, so rounding never drifts) until the window closes.
fn schedule_send(engine: &mut Engine, gen: Rc<Gen>, k: u64) {
    let t = (k as u128 * gen.ser_ns as u128 * gen.den as u128 / gen.num as u128) as u64;
    if t >= gen.end_ns {
        return;
    }
    engine.schedule_at(SimTime::ZERO + SimDuration::from_nanos(t), move |engine| {
        let now = engine.now();
        let mut frame = gen.template.clone();
        frame[PAYLOAD_OFF..PAYLOAD_OFF + 8].copy_from_slice(&now.as_nanos().to_be_bytes());
        if gen.meter.in_window(now.as_nanos()) {
            gen.meter.sent.set(gen.meter.sent.get() + 1);
        }
        gen.nic.transmit_frame(engine, now, frame);
        schedule_send(engine, gen, k + 1);
    });
}

/// Starts the open-loop generator: frame `k` is offered at
/// `k * serialize(frame) * den / num`, with its send time stamped into
/// the payload, until the measurement window closes.
fn start_generator(
    world: &mut World,
    nic: &Rc<Nic>,
    template: Vec<u8>,
    offered: (u64, u64),
    meter: &Rc<Meter>,
) {
    let ser_ns = nic.profile().serialize(template.len()).as_nanos();
    let (num, den) = offered;
    let gen = Rc::new(Gen {
        nic: nic.clone(),
        template,
        meter: meter.clone(),
        ser_ns,
        num,
        den,
        end_ns: meter.window.1,
    });
    schedule_send(world.engine_mut(), gen, 0);
}

/// Installs a raw sink on `nic`: frames addressed to `mac` score a
/// completion against the timestamp embedded in their payload. Charges no
/// CPU — the sink machine is not under test. With a recorder, every
/// completion lands as an `overload.latency_ns` sample (feeding the
/// windowed timeline) and frames for other hosts are recorded as
/// `not_for_me` drops so journey reconstruction classifies the broadcast
/// copies as filtered dead ends instead of live hops.
fn install_sink(
    nic: &Rc<Nic>,
    mac: MacAddr,
    meter: &Rc<Meter>,
    recorder: Option<&Rc<plexus_trace::Recorder>>,
) {
    let meter = meter.clone();
    let rec = recorder.cloned();
    let hist = rec.as_ref().map(|r| r.intern("overload.latency_ns"));
    nic.attach(DriverConfig::per_frame(move |engine, frame| {
        let now_ns = engine.now().as_nanos();
        if frame.len() < PAYLOAD_OFF + 8 || frame[0..6] != mac.0 {
            if let Some(rec) = &rec {
                rec.packet_drop(now_ns, "sink", "not_for_me");
            }
            return;
        }
        let sent_ns = u64::from_be_bytes(frame[PAYLOAD_OFF..PAYLOAD_OFF + 8].try_into().unwrap());
        if let (Some(rec), Some(hist)) = (&rec, hist) {
            rec.sample(now_ns, hist, now_ns - sent_ns);
        }
        meter.complete(now_ns, sent_ns);
    }));
}

fn stats_delta(at_end: NicStats, at_warmup: NicStats) -> NicStats {
    NicStats {
        tx_frames: at_end.tx_frames - at_warmup.tx_frames,
        tx_wire_bytes: at_end.tx_wire_bytes - at_warmup.tx_wire_bytes,
        rx_frames: at_end.rx_frames - at_warmup.rx_frames,
        rx_bytes: at_end.rx_bytes - at_warmup.rx_bytes,
        tx_oversize: at_end.tx_oversize - at_warmup.tx_oversize,
        tx_ring_drops: at_end.tx_ring_drops - at_warmup.tx_ring_drops,
        rx_no_handler: at_end.rx_no_handler - at_warmup.rx_no_handler,
        rx_ring_drops: at_end.rx_ring_drops - at_warmup.rx_ring_drops,
        rx_interrupts: at_end.rx_interrupts - at_warmup.rx_interrupts,
        tx_doorbells: at_end.tx_doorbells - at_warmup.tx_doorbells,
        tx_csum_offloads: at_end.tx_csum_offloads - at_warmup.tx_csum_offloads,
        // High-water is a peak, not a flow: report the end-of-run value.
        rx_ring_highwater: at_end.rx_ring_highwater,
    }
}

/// Runs one load point. Deterministic: everything derives from the
/// simulated clock.
pub fn run_point(workload: Workload, mode: RxMode, link: &Link, offered: (u64, u64)) -> LoadPoint {
    run_point_traced(workload, mode, link, offered, None)
}

/// [`run_point`] with a flight recorder installed across the whole world,
/// so `plexus-replay profile` can attribute the DUT's cycles under overload and
/// the determinism tests can compare event streams.
pub fn run_point_traced(
    workload: Workload,
    mode: RxMode,
    link: &Link,
    offered: (u64, u64),
    recorder: Option<&Rc<plexus_trace::Recorder>>,
) -> LoadPoint {
    run_point_tx_traced(workload, mode, TxMode::default(), link, offered, recorder)
}

/// [`run_point`] selecting the DUT's transmit path too.
pub fn run_point_tx(
    workload: Workload,
    mode: RxMode,
    tx: TxMode,
    link: &Link,
    offered: (u64, u64),
) -> LoadPoint {
    run_point_tx_traced(workload, mode, tx, link, offered, None)
}

/// The full matrix: workload x rx path x tx path, optionally traced.
pub fn run_point_tx_traced(
    workload: Workload,
    mode: RxMode,
    tx: TxMode,
    link: &Link,
    offered: (u64, u64),
    recorder: Option<&Rc<plexus_trace::Recorder>>,
) -> LoadPoint {
    let mut world = World::new();
    let gen_machine = world.add_machine("generator");
    let dut_machine = world.add_machine("dut");
    let mut machines = vec![&gen_machine, &dut_machine];
    let backend_machine = world.add_machine("backend");
    if workload == Workload::UdpForward {
        machines.push(&backend_machine);
    }
    let (_m, nics) = world.connect(
        &machines,
        link.profile.clone(),
        link.propagation,
        link.half_duplex,
    );
    let gen_nic = nics[0].clone();
    let dut_nic = nics[1].clone();
    if let Some(rec) = recorder {
        world.install_recorder(rec);
    }

    let cfg = StackConfig::interrupt(ip(DUT), MacAddr::local(DUT));
    let cfg = match mode {
        RxMode::PerPacket => cfg,
        RxMode::Coalesced => cfg.coalesced(),
    };
    let cfg = match tx {
        TxMode::PerFrame => cfg,
        TxMode::Flattened => cfg.flattened_tx(),
        TxMode::Doorbell => cfg.doorbell_tx(),
    };
    let dut = PlexusStack::attach(&dut_machine, &dut_nic, cfg);
    dut.seed_arp(ip(GEN), MacAddr::local(GEN));

    let warmup_ns = WARMUP.as_nanos();
    let end_ns = (WARMUP + MEASURE).as_nanos();
    let meter = Meter::new((warmup_ns, end_ns));

    match workload {
        Workload::UdpEcho | Workload::UdpFanout => {
            let spec = ExtensionSpec::typesafe("overload-echo", &["UDP.Bind", "UDP.Send"]);
            let ext = dut.link_extension(&spec).unwrap();
            let slot: Rc<RefCell<Option<Rc<plexus_core::UdpEndpoint>>>> =
                Rc::new(RefCell::new(None));
            let s = slot.clone();
            let copies = if workload == Workload::UdpFanout {
                FANOUT
            } else {
                1
            };
            let echo = move |ctx: &mut plexus_kernel::RaiseCtx<'_>, ev: &UdpRecv| {
                let ep = s.borrow().clone().expect("endpoint installed");
                for _ in 0..copies {
                    let _ = ep.send_mbuf_in(ctx, ev.src, ev.src_port, ev.payload.share());
                }
            };
            let ep = dut
                .udp()
                .bind(
                    &ext,
                    PORT,
                    UdpConfig::default(),
                    AppHandler::interrupt(echo),
                )
                .unwrap();
            *slot.borrow_mut() = Some(ep);
            install_sink(&gen_nic, MacAddr::local(GEN), &meter, recorder);
        }
        Workload::UdpForward => {
            let ext = dut
                .link_extension(&forwarder_extension_spec("overload-fwd"))
                .unwrap();
            InKernelForwarder::udp(&dut, &ext, PORT, ip(BACKEND)).unwrap();
            dut.seed_arp(ip(BACKEND), MacAddr::local(BACKEND));
            install_sink(&nics[2], MacAddr::local(BACKEND), &meter, recorder);
        }
    }

    let template = build_frame(
        MacAddr::local(GEN),
        MacAddr::local(DUT),
        ip(GEN),
        ip(DUT),
        PAYLOAD,
    );
    start_generator(&mut world, &gen_nic, template, offered, &meter);

    // Snapshot NIC counters when the window opens so warmup traffic does
    // not pollute the drop breakdown.
    let warmup_gen: Rc<Cell<NicStats>> = Rc::new(Cell::new(NicStats::default()));
    let warmup_dut: Rc<Cell<NicStats>> = Rc::new(Cell::new(NicStats::default()));
    {
        let (g, d) = (warmup_gen.clone(), warmup_dut.clone());
        let (gn, dn) = (gen_nic.clone(), dut_nic.clone());
        world
            .engine_mut()
            .schedule_at(SimTime::ZERO + WARMUP, move |_| {
                g.set(gn.stats());
                d.set(dn.stats());
            });
    }

    world.run_for(WARMUP + MEASURE);

    let gen_stats = stats_delta(gen_nic.stats(), warmup_gen.get());
    let dut_stats = stats_delta(dut_nic.stats(), warmup_dut.get());
    let latency_ns = meter.latency_ns.borrow().clone();
    let completed = meter.completed.get();
    LoadPoint {
        offered,
        sent: meter.sent.get(),
        completed,
        goodput_pps: completed as f64 / (MEASURE.as_nanos() as f64 / 1e9),
        latency_ns,
        gen_tx_ring_drops: gen_stats.tx_ring_drops,
        rx_ring_drops: dut_stats.rx_ring_drops,
        rx_no_handler: dut_stats.rx_no_handler,
        rx_interrupts: dut_stats.rx_interrupts,
        rx_frames: dut_stats.rx_frames,
        rx_ring_highwater: dut_stats.rx_ring_highwater,
        dut_tx_frames: dut_stats.tx_frames,
        dut_tx_ring_drops: dut_stats.tx_ring_drops,
        tx_doorbells: dut_stats.tx_doorbells,
    }
}

/// Runs the standard [`FACTORS`] sweep for one workload/mode pair.
pub fn sweep(workload: Workload, mode: RxMode, link: &Link) -> Vec<LoadPoint> {
    FACTORS
        .iter()
        .map(|&f| run_point(workload, mode, link, f))
        .collect()
}

/// [`sweep`] over a chosen transmit path.
pub fn sweep_tx(workload: Workload, mode: RxMode, tx: TxMode, link: &Link) -> Vec<LoadPoint> {
    FACTORS
        .iter()
        .map(|&f| run_point_tx(workload, mode, tx, link, f))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p99(ns: &[u64]) -> u64 {
        let mut v = ns.to_vec();
        v.sort_unstable();
        v[(v.len() * 99 / 100).min(v.len() - 1)]
    }

    #[test]
    fn coalescing_beats_per_packet_under_overload() {
        // The ISSUE's acceptance bar: at 2x line rate the coalesced path
        // must push more goodput at lower p99 than the per-packet path,
        // and neither may collapse between 1x and 4x (receive livelock).
        let link = Link::t3();
        let load = (2u64, 1u64);
        let pp = run_point(Workload::UdpEcho, RxMode::PerPacket, &link, load);
        let co = run_point(Workload::UdpEcho, RxMode::Coalesced, &link, load);
        assert!(
            co.goodput_pps > pp.goodput_pps,
            "coalesced goodput {:.0} <= per-packet {:.0} at 2x",
            co.goodput_pps,
            pp.goodput_pps
        );
        assert!(
            p99(&co.latency_ns) < p99(&pp.latency_ns),
            "coalesced p99 {} >= per-packet {} at 2x",
            p99(&co.latency_ns),
            p99(&pp.latency_ns)
        );
    }

    #[test]
    fn goodput_does_not_collapse_at_4x() {
        let link = Link::t3();
        for mode in [RxMode::PerPacket, RxMode::Coalesced] {
            let g1 = run_point(Workload::UdpEcho, mode, &link, (1, 1));
            let g4 = run_point(Workload::UdpEcho, mode, &link, (4, 1));
            assert!(
                g4.goodput_pps >= g1.goodput_pps * 0.95,
                "{mode:?}: goodput 4x {:.0} collapsed below 1x {:.0}",
                g4.goodput_pps,
                g1.goodput_pps
            );
        }
    }

    #[test]
    fn coalesced_overload_sheds_at_the_ring_and_batches_interrupts() {
        let link = Link::t3();
        let p = run_point(Workload::UdpEcho, RxMode::Coalesced, &link, (2, 1));
        assert!(p.rx_ring_drops > 0, "overload must shed at the rx ring");
        assert!(
            p.frames_per_interrupt() > 1.5,
            "expected coalescing, got {:.2} frames/interrupt",
            p.frames_per_interrupt()
        );
        assert!(p.rx_ring_highwater > 0);
        // The ring bounds the backlog, so worst-case sojourn is bounded
        // by ring-depth service times, far below the measure window.
        assert!(p99(&p.latency_ns) < MEASURE.as_nanos() / 4);
    }

    #[test]
    fn forwarder_workload_completes_and_orders_like_echo() {
        let link = Link::t3();
        let pp = run_point(Workload::UdpForward, RxMode::PerPacket, &link, (2, 1));
        let co = run_point(Workload::UdpForward, RxMode::Coalesced, &link, (2, 1));
        assert!(pp.completed > 0 && co.completed > 0);
        assert!(co.goodput_pps > pp.goodput_pps);
        assert!(p99(&co.latency_ns) < p99(&pp.latency_ns));
    }

    #[test]
    fn light_load_completes_everything_offered() {
        let link = Link::t3();
        let p = run_point(Workload::UdpEcho, RxMode::Coalesced, &link, (1, 20));
        // At a tenth of line rate nothing should shed anywhere.
        assert_eq!(p.gen_tx_ring_drops, 0);
        assert_eq!(p.rx_ring_drops, 0);
        // Allow edge effects: frames in flight at the window boundary.
        assert!(
            p.completed as f64 >= p.sent as f64 * 0.98,
            "completed {} of {} sent",
            p.completed,
            p.sent
        );
    }
}
