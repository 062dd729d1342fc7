//! Per-flow rate limiting: verified guard state vs. handler state.
//!
//! Two implementations of the same token-bucket policy (8 tokens per
//! flow, +2/ms) over a burst of 16 datagrams per flow, at 1, 64, and
//! 4096 flows:
//!
//! * **guard** — the bucket lives in a verified bounded map inside the
//!   guard program ([`Test::TakeToken`]): over-rate packets are rejected
//!   *before* any handler is invoked, the map's size is proven against
//!   its declared budget at verification time, and the whole program's
//!   static worst-case cycle bound is checked by the dispatcher's
//!   interrupt admission control (`try_install`).
//! * **handler** — the classic shape: an unguarded handler is invoked
//!   for every packet and maintains its own bucket table in the heap.
//!   Over-rate packets still pay handler dispatch plus the table work,
//!   and nothing bounds the table but programmer discipline.
//!
//! Both implement byte-identical refill semantics, so they accept and
//! drop exactly the same packets; the difference is purely *where* the
//! decision runs and what the kernel can prove about it.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use plexus_kernel::dispatcher::{Dispatcher, Guard, HandlerSpec, RaiseCtx};
use plexus_kernel::filter::{
    conjunction_stateful, verify, EventKind, Field, MapKind, Operand, Packet, StateMap, Test,
};
use plexus_kernel::Ephemeral;
use plexus_sim::{CostModel, Cpu, Engine};

use crate::report::BenchReport;
use crate::table;

/// Datagrams per flow, arriving back-to-back (faster than refill).
const BURST: u64 = 16;
/// Bucket capacity in tokens (also the initial fill).
const TOKENS: u32 = 8;
/// Refill rate in tokens per simulated millisecond.
const REFILL_PER_MS: u32 = 2;
/// The one destination port the endpoint owns.
const PORT: u64 = 9000;

/// A minimal UDP-shaped event argument for the dispatcher.
struct Dgram {
    src_port: u16,
}

impl Packet for Dgram {
    fn kind(&self) -> EventKind {
        EventKind::UdpRecv
    }

    fn field(&self, field: Field) -> Option<u64> {
        match field {
            Field::UdpSrcPort => Some(u64::from(self.src_port)),
            Field::UdpDstPort => Some(PORT),
            _ => None,
        }
    }

    fn head(&self) -> &[u8] {
        &[]
    }
}

struct RunResult {
    accepted: u64,
    dropped: u64,
    mean_ns: f64,
}

/// Raises `BURST` datagrams for each of `flows` flows (consecutively per
/// flow, back-to-back in simulated time) and returns the accept/drop
/// split plus the mean per-packet CPU cost.
fn run_flows(flows: u32, guard_based: bool) -> RunResult {
    let mut engine = Engine::new();
    let cpu = Cpu::new(CostModel::alpha_3000_400());
    let d = Dispatcher::new();
    // One handler either way — measure the state mechanism, not demux.
    d.set_demux_enabled(false);
    let ev = d.define_event::<Dgram>("Udp.PacketRecv");

    let accepted = Rc::new(Cell::new(0u64));
    let dropped = Rc::new(Cell::new(0u64));

    if guard_based {
        let map = StateMap::new(
            "flows",
            MapKind::TokenBucket {
                tokens: TOKENS,
                refill_per_ms: REFILL_PER_MS,
            },
            flows,
        );
        let budget = map.state_bytes();
        let program = conjunction_stateful(
            EventKind::UdpRecv,
            &[
                Test::eq(Operand::Field(Field::UdpDstPort), PORT),
                Test::TakeToken {
                    op: Operand::Field(Field::UdpSrcPort),
                    mask: u64::from(flows - 1),
                    map: 0,
                },
            ],
            Vec::new(),
            vec![map],
            budget,
        );
        let vp = Rc::new(verify(&program).expect("rate-limit guard verifies"));
        let a = accepted.clone();
        // Interrupt admission control is live here: the install would be
        // refused if the guard's static bound exceeded the cycle budget.
        d.try_install(
            ev,
            HandlerSpec::ephemeral(Ephemeral::certify(
                move |_: &mut RaiseCtx<'_>, _: &Dgram| {
                    a.set(a.get() + 1);
                },
            ))
            .guard(Guard::verified(vp))
            .interrupt(),
        )
        .expect("static bound admits at interrupt level");
    } else {
        // Heap-backed buckets with the exact refill arithmetic of
        // `StateMap::take`, so both modes accept the same packets.
        let buckets: Rc<RefCell<HashMap<u64, (u64, u64)>>> = Rc::new(RefCell::new(HashMap::new()));
        let a = accepted.clone();
        let dr = dropped.clone();
        d.try_install(
            ev,
            HandlerSpec::ephemeral(Ephemeral::certify(
                move |ctx: &mut RaiseCtx<'_>, dg: &Dgram| {
                    let model = ctx.lease.model().clone();
                    // Table lookup + bucket update: one procedure call each.
                    ctx.lease.charge(model.proc_call);
                    ctx.lease.charge(model.proc_call);
                    let now_ns = ctx.lease.now().as_nanos();
                    let key = u64::from(dg.src_port) & u64::from(flows - 1);
                    let mut buckets = buckets.borrow_mut();
                    let (tokens, refilled_to) =
                        buckets.entry(key).or_insert((u64::from(TOKENS), 0));
                    let elapsed_ms = now_ns.saturating_sub(*refilled_to) / 1_000_000;
                    if elapsed_ms > 0 {
                        *tokens = tokens
                            .saturating_add(elapsed_ms * u64::from(REFILL_PER_MS))
                            .min(u64::from(TOKENS));
                        *refilled_to += elapsed_ms * 1_000_000;
                    }
                    if *tokens > 0 {
                        *tokens -= 1;
                        a.set(a.get() + 1);
                    } else {
                        dr.set(dr.get() + 1);
                    }
                },
            ))
            .interrupt(),
        )
        .expect("unguarded ephemeral handler admits");
    }

    let busy_before = cpu.busy().as_nanos();
    let packets = u64::from(flows) * BURST;
    for flow in 0..flows {
        for _ in 0..BURST {
            let mut lease = cpu.begin(cpu.free_at());
            let mut ctx = RaiseCtx {
                engine: &mut engine,
                lease: &mut lease,
            };
            d.raise(
                &mut ctx,
                ev,
                &Dgram {
                    src_port: flow as u16,
                },
            );
            lease.finish();
        }
    }
    let busy = cpu.busy().as_nanos() - busy_before;

    if guard_based {
        // The guard rejected what the handler never saw.
        dropped.set(packets - accepted.get());
        assert_eq!(d.stats().guard_rejects, dropped.get());
    }
    RunResult {
        accepted: accepted.get(),
        dropped: dropped.get(),
        mean_ns: busy as f64 / packets as f64,
    }
}

/// Runs both implementations at 1, 64 and 4096 flows: `guard_state`.
pub fn run() -> BenchReport {
    println!("Per-flow rate limiting: verified guard map vs. handler-kept table");
    println!(
        "({BURST}-packet bursts per flow, {TOKENS}-token buckets, +{REFILL_PER_MS}/ms refill)"
    );
    println!();

    let mut report = BenchReport::new("guard_state");
    let mut rows = Vec::new();
    for flows in [1u32, 64, 4096] {
        let guard = run_flows(flows, true);
        let handler = run_flows(flows, false);
        // Same arithmetic, but not bit-identical accept sets: guard-mode
        // drops are cheaper, so the clock advances differently and a few
        // refill millisecond boundaries land on different packets. The
        // enforced *rate* must agree to well under a percent.
        let packets = (u64::from(flows) * BURST) as f64;
        assert!(
            (guard.accepted as f64 - handler.accepted as f64).abs() / packets < 0.005,
            "both implementations enforce the same policy (guard {} vs handler {})",
            guard.accepted,
            handler.accepted
        );
        let key = format!("flows_{flows:04}");
        report.latency_us(&format!("guard/{key}/per_packet"), guard.mean_ns / 1000.0);
        report.latency_us(
            &format!("handler/{key}/per_packet"),
            handler.mean_ns / 1000.0,
        );
        report.count(&format!("{key}/packets"), u64::from(flows) * BURST);
        report.count(&format!("{key}/accepted"), guard.accepted);
        report.count(&format!("{key}/dropped"), guard.dropped);
        rows.push(vec![
            flows.to_string(),
            (u64::from(flows) * BURST).to_string(),
            guard.accepted.to_string(),
            guard.dropped.to_string(),
            format!("{:.0}", guard.mean_ns),
            format!("{:.0}", handler.mean_ns),
            format!(
                "{:+.0}%",
                (guard.mean_ns - handler.mean_ns) / handler.mean_ns * 100.0
            ),
        ]);
    }
    println!(
        "{}",
        table::render(
            &[
                "flows",
                "packets",
                "accepted",
                "dropped",
                "guard ns/pkt",
                "handler ns/pkt",
                "delta"
            ],
            &rows
        )
    );
    println!("Over-rate packets die in the guard, never paying handler dispatch or the");
    println!("table work — and the guard's state is a verified bounded map the kernel");
    println!("admitted against a static cycle bound, not an unbounded heap table");
    println!("(DESIGN.md §14).");
    report
}
