//! Criterion microbenchmarks of the Plexus mechanisms themselves — host
//! wall-clock time of the *implementation*, complementing the simulated
//! quantities the figure harnesses report.
//!
//! Groups:
//! * `dispatch` — event raise/guard costs, including packet-filter scaling
//!   with the number of installed guarded handlers (MRA87's concern).
//! * `guard_eval` — one predicate three ways: a native closure vs. the
//!   same test as verified filter IR, interpreted and install-time
//!   compiled.
//! * `view` — zero-copy `VIEW` casting vs. parse-by-copy.
//! * `mbuf` — allocation, prepend, share, pullup, range.
//! * `checksum` — Internet checksum at packet sizes.
//! * `tcp_wire` — segment serialize/parse.
//! * `sim` — full simulated UDP round trips per host-second.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::rc::Rc;

use plexus_kernel::dispatcher::{Dispatcher, Guard, HandlerSpec, RaiseCtx};
use plexus_kernel::ephemeral::Ephemeral;
use plexus_kernel::filter::{
    conjunction, verify, EventKind, Field, Operand, Packet, Test, VerifiedProgram,
};
use plexus_kernel::view::view;
use plexus_net::checksum::checksum;
use plexus_net::ether::{EtherView, MacAddr};
use plexus_net::ip::IpView;
use plexus_net::mbuf::Mbuf;
use plexus_net::tcp::{TcpFlags, TcpSegment};
use plexus_sim::cpu::{CostModel, Cpu};
use plexus_sim::time::SimTime;
use plexus_sim::Engine;

use plexus_bench::udp_rtt::{udp_rtt_us, Link, System};

/// A minimal `UdpRecv`-shaped event, enough to exercise verified guards
/// without building a whole stack.
struct Dgram {
    dst_port: u16,
}

impl Packet for Dgram {
    fn kind(&self) -> EventKind {
        EventKind::UdpRecv
    }

    fn field(&self, field: Field) -> Option<u64> {
        match field {
            Field::UdpDstPort => Some(u64::from(self.dst_port)),
            _ => None,
        }
    }

    fn head(&self) -> &[u8] {
        &[]
    }
}

fn port_program(port: u16) -> Rc<VerifiedProgram> {
    let prog = conjunction(
        EventKind::UdpRecv,
        &[Test::eq(Operand::Field(Field::UdpDstPort), u64::from(port))],
        vec![],
    );
    Rc::new(verify(&prog).expect("a one-test port guard verifies"))
}

fn bench_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch");

    // One unguarded handler.
    {
        let d = Dispatcher::new();
        let ev = d.define_event::<u32>("bare");
        d.install(
            ev,
            HandlerSpec::ephemeral(Ephemeral::certify(|_: &mut RaiseCtx, _: &u32| {})).interrupt(),
        );
        let cpu = Cpu::new(CostModel::alpha_3000_400());
        let mut engine = Engine::new();
        group.bench_function("raise_one_handler", |b| {
            b.iter(|| {
                let mut lease = cpu.begin(SimTime::ZERO);
                let mut ctx = RaiseCtx {
                    engine: &mut engine,
                    lease: &mut lease,
                };
                d.raise(&mut ctx, ev, black_box(&7))
            });
        });
    }

    // Packet-filter scaling: N guarded handlers, exactly one matches.
    // Interrupt-level installs require verified guard programs, so this is
    // the verified-IR dispatch path end to end.
    for n in [1usize, 4, 16, 64] {
        let d = Dispatcher::new();
        let ev = d.define_event::<Dgram>("filters");
        for port in 0..n as u16 {
            d.install(
                ev,
                HandlerSpec::ephemeral(Ephemeral::certify(|_: &mut RaiseCtx, _: &Dgram| {}))
                    .interrupt()
                    .guard(Guard::verified(port_program(port))),
            );
        }
        let cpu = Cpu::new(CostModel::alpha_3000_400());
        let mut engine = Engine::new();
        // Worst case: the last guard matches.
        let target = Dgram {
            dst_port: (n - 1) as u16,
        };
        group.bench_with_input(BenchmarkId::new("guard_scaling", n), &n, |b, _| {
            b.iter(|| {
                let mut lease = cpu.begin(SimTime::ZERO);
                let mut ctx = RaiseCtx {
                    engine: &mut engine,
                    lease: &mut lease,
                };
                d.raise(&mut ctx, ev, black_box(&target))
            });
        });
    }
    group.finish();
}

/// The same one-port predicate as an opaque closure and as verified IR:
/// what statically checkable guards cost over native code.
fn bench_guard_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("guard_eval");
    let closure: Box<dyn Fn(&Dgram) -> bool> = Box::new(|ev: &Dgram| ev.dst_port == 4000);
    let program = port_program(4000);
    let hit = Dgram { dst_port: 4000 };
    let miss = Dgram { dst_port: 4001 };
    group.bench_function("closure_hit", |b| {
        b.iter(|| closure(black_box(&hit)));
    });
    group.bench_function("closure_miss", |b| {
        b.iter(|| closure(black_box(&miss)));
    });
    group.bench_function("verified_ir_hit", |b| {
        b.iter(|| plexus_kernel::filter::eval(black_box(&program), black_box(&hit)));
    });
    group.bench_function("verified_ir_miss", |b| {
        b.iter(|| plexus_kernel::filter::eval(black_box(&program), black_box(&miss)));
    });
    // The install-time compiled tier over the same verified program.
    group.bench_function("compiled_hit", |b| {
        b.iter(|| program.compiled().eval(black_box(&hit), 0));
    });
    group.bench_function("compiled_miss", |b| {
        b.iter(|| program.compiled().eval(black_box(&miss), 0));
    });
    group.finish();
}

fn bench_view(c: &mut Criterion) {
    let mut group = c.benchmark_group("view");
    // An Ethernet+IP frame image.
    let mut frame = vec![0u8; 60];
    plexus_net::ether::write_header(
        &mut frame,
        MacAddr::local(2),
        MacAddr::local(1),
        plexus_net::ether::EtherType::IPV4,
    );
    group.bench_function("view_eth_header", |b| {
        b.iter(|| {
            let v: EtherView = view(black_box(&frame)).unwrap();
            black_box((v.dst(), v.ethertype()))
        });
    });
    group.bench_function("view_ip_header", |b| {
        let hdr = plexus_net::ip::IpHeader::simple(
            std::net::Ipv4Addr::new(10, 0, 0, 1),
            std::net::Ipv4Addr::new(10, 0, 0, 2),
            17,
            1,
        );
        let dgram = plexus_net::ip::encapsulate(&hdr, Mbuf::from_payload(64, &[0u8; 8]));
        let bytes = dgram.to_vec();
        b.iter(|| {
            let v: IpView = view(black_box(&bytes)).unwrap();
            black_box((v.src(), v.dst(), v.protocol(), v.checksum_ok()))
        });
    });
    // The copying alternative VIEW exists to avoid.
    group.bench_function("copy_parse_eth_header", |b| {
        b.iter(|| {
            let copied = black_box(&frame)[..14].to_vec();
            let mut dst = [0u8; 6];
            dst.copy_from_slice(&copied[0..6]);
            black_box((MacAddr(dst), u16::from_be_bytes([copied[12], copied[13]])))
        });
    });
    group.finish();
}

fn bench_mbuf(c: &mut Criterion) {
    let mut group = c.benchmark_group("mbuf");
    let payload = vec![0xABu8; 1460];
    group.throughput(Throughput::Bytes(1460));
    group.bench_function("from_payload_1460", |b| {
        b.iter(|| Mbuf::from_payload(64, black_box(&payload)));
    });
    group.bench_function("prepend_headers", |b| {
        b.iter_batched(
            || Mbuf::from_payload(64, &payload),
            |mut m| {
                m.prepend(8);
                m.prepend(20);
                m.prepend(14);
                m
            },
            criterion::BatchSize::SmallInput,
        );
    });
    let m = Mbuf::from_payload(64, &payload);
    group.bench_function("share", |b| {
        b.iter(|| black_box(&m).share());
    });
    group.bench_function("range_mid", |b| {
        b.iter(|| black_box(&m).range(100, 1000));
    });
    let big = Mbuf::from_payload(0, &vec![1u8; 8000]);
    group.bench_function("to_vec_8000", |b| {
        b.iter(|| black_box(&big).to_vec());
    });
    group.finish();
}

fn bench_checksum(c: &mut Criterion) {
    let mut group = c.benchmark_group("checksum");
    for size in [64usize, 1460, 8192] {
        let data = vec![0x5Au8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
            b.iter(|| checksum(black_box(&data)));
        });
    }
    group.finish();
}

fn bench_tcp_wire(c: &mut Criterion) {
    let mut group = c.benchmark_group("tcp_wire");
    let a = std::net::Ipv4Addr::new(10, 0, 0, 1);
    let bip = std::net::Ipv4Addr::new(10, 0, 0, 2);
    let seg = TcpSegment {
        src_port: 4000,
        dst_port: 80,
        seq: 1,
        ack: 2,
        flags: TcpFlags::ACK,
        window: 65535,
        mss: None,
        payload: vec![7u8; 1460],
    };
    group.throughput(Throughput::Bytes(1480));
    group.bench_function("serialize_1460", |b| {
        b.iter(|| black_box(&seg).to_bytes(a, bip));
    });
    let m = seg.to_mbuf(a, bip, false);
    group.bench_function("parse_1460", |b| {
        b.iter(|| TcpSegment::parse(a, bip, black_box(&m)).unwrap());
    });
    group.finish();
}

fn bench_sim(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim");
    group.sample_size(10);
    // Host cost of simulating one full UDP round trip through two complete
    // Plexus stacks (10 round trips per iteration).
    group.bench_function("plexus_udp_rtt_x10", |b| {
        b.iter(|| udp_rtt_us(System::PlexusInterrupt, &Link::ethernet(), 8, 10));
    });
    group.bench_function("dunix_udp_rtt_x10", |b| {
        b.iter(|| udp_rtt_us(System::Dunix, &Link::ethernet(), 8, 10));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_dispatch,
    bench_guard_eval,
    bench_view,
    bench_mbuf,
    bench_checksum,
    bench_tcp_wire,
    bench_sim
);
criterion_main!(benches);
