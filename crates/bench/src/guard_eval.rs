//! Guard evaluation three ways: native closure, verified-IR interpreter,
//! and the install-time compiled tier.
//!
//! One 16-instruction predicate (dst port + six payload fields) is
//! evaluated by:
//!
//! * **closure** — the predicate hand-written in Rust: the floor an
//!   in-kernel guard could ever reach, and exactly what SPIN-style
//!   type-safe extensions get for free (but without a static cycle
//!   bound);
//! * **interpreted** — the reference [`eval_metered`] interpreter over
//!   the verified IR;
//! * **compiled** — the fused-closure tier [`verify()`] builds at install
//!   time ([`VerifiedProgram::compiled`]): constants folded, loads
//!   pre-bounds-checked, load/branch pairs fused.
//!
//! Two kinds of output:
//!
//! * **wall-clock** ns/eval on the host (printed, *not* committed — host
//!   speed is not deterministic). The bench asserts the compiled tier
//!   is at least 2x the interpreter on the full 16-instruction walk.
//! * **deterministic** verdict counts, metered cycles, and compile-shape
//!   stats over a fixed 512-packet stream — identical across tiers by
//!   construction, gated against `results/BENCH_guard_eval.json`.

use std::hint::black_box;
use std::time::Instant;

use plexus_kernel::filter::{
    conjunction, eval_metered, verify, EventKind, Field, Operand, Packet, Test, VerifiedProgram,
    Width,
};

use crate::report::BenchReport;
use crate::table;

/// A UDP-shaped event with a payload head, enough to exercise field and
/// payload loads without building a stack.
struct Dgram {
    src_port: u16,
    dst_port: u16,
    head: Vec<u8>,
}

impl Packet for Dgram {
    fn kind(&self) -> EventKind {
        EventKind::UdpRecv
    }

    fn field(&self, field: Field) -> Option<u64> {
        match field {
            Field::UdpSrcPort => Some(u64::from(self.src_port)),
            Field::UdpDstPort => Some(u64::from(self.dst_port)),
            _ => None,
        }
    }

    fn head(&self) -> &[u8] {
        &self.head
    }
}

/// The payload image the hit packet carries; the six payload tests below
/// check fields of it at three widths — a protocol-fingerprint guard.
const HIT_HEAD: [u8; 12] = [
    0xAA, 0x55, 0x01, 0x00, 0xDE, 0xAD, 0xBE, 0xEF, 0x12, 0x34, 0x56, 0x00,
];

/// The 16-instruction program: 7 conjoined equality tests (2 insns each:
/// load + branch-to-reject) plus the accept/reject tail. One port test
/// plus six payload-fingerprint tests — the deep-inspection shape where
/// the interpreter pays a virtual `head()` call per payload load while
/// the compiled tier fetches the head once per evaluation.
fn sixteen_insn_program() -> VerifiedProgram {
    let pay = |off: u16, width: Width| Operand::Pay { off, width };
    let prog = conjunction(
        EventKind::UdpRecv,
        &[
            Test::eq(Operand::Field(Field::UdpDstPort), 7),
            Test::eq(pay(0, Width::W16), 0xAA55),
            Test::eq(pay(2, Width::W8), 0x01),
            Test::eq(pay(4, Width::W32), 0xDEAD_BEEF),
            Test::eq(pay(6, Width::W16), 0xBEEF),
            Test::eq(pay(8, Width::W16), 0x1234),
            Test::eq(pay(10, Width::W8), 0x56),
        ],
        vec![],
    );
    let vp = verify(&prog).expect("the 16-insn benchmark guard verifies");
    assert_eq!(
        vp.program().insns.len(),
        16,
        "the benchmark is defined at the 16-instruction size"
    );
    vp
}

/// The same predicate hand-written: big-endian payload loads with the
/// bounds checks the verifier proves away.
fn closure_predicate(d: &Dgram) -> bool {
    let be = |off: usize, len: usize| -> Option<u64> {
        let bytes = d.head.get(off..off + len)?;
        Some(bytes.iter().fold(0u64, |acc, b| (acc << 8) | u64::from(*b)))
    };
    d.dst_port == 7
        && be(0, 2) == Some(0xAA55)
        && be(2, 1) == Some(0x01)
        && be(4, 4) == Some(0xDEAD_BEEF)
        && be(6, 2) == Some(0xBEEF)
        && be(8, 2) == Some(0x1234)
        && be(10, 1) == Some(0x56)
}

/// Best-of-5 mean ns per call over `iters` calls of `f`.
fn wall_ns_per_eval<F: FnMut() -> bool>(iters: u32, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        let mut acc = 0u32;
        for _ in 0..iters {
            acc ^= u32::from(f());
        }
        black_box(acc);
        best = best.min(t0.elapsed().as_nanos() as f64 / f64::from(iters));
    }
    best
}

/// A deterministic 512-packet stream exercising hits, port misses, payload
/// misses, and short heads (failed payload loads).
fn stream() -> Vec<Dgram> {
    (0u32..512)
        .map(|i| {
            let mut head = HIT_HEAD.to_vec();
            match i % 4 {
                // Hit candidate (ports may still miss below).
                0 => {}
                // Payload miss: corrupt one checked byte.
                1 => head[(i as usize / 4) % HIT_HEAD.len()] ^= 0xFF,
                // Short head: the W32 load at offset 4 cannot complete.
                2 => head.truncate((i as usize / 4) % 8),
                // Extra tail bytes must not change any verdict.
                _ => head.extend_from_slice(&[0u8; 32]),
            }
            Dgram {
                src_port: if i % 3 == 0 {
                    2000
                } else {
                    1000 + (i % 7) as u16
                },
                dst_port: if i % 2 == 0 { 7 } else { 8 },
                head,
            }
        })
        .collect()
}

/// Times the three tiers, asserts the compiled one is >= 2x the
/// interpreter, and reports the deterministic stream: `guard_eval`.
pub fn run() -> BenchReport {
    let vp = sixteen_insn_program();
    let compiled = vp.compiled();
    let cs = compiled.stats();
    let hit = Dgram {
        src_port: 2000,
        dst_port: 7,
        head: HIT_HEAD.to_vec(),
    };
    let miss = Dgram {
        src_port: 2000,
        dst_port: 8,
        head: HIT_HEAD.to_vec(),
    };
    assert!(closure_predicate(&hit) && eval_metered(&vp, &hit, 0).0 && compiled.eval(&hit, 0).0);
    assert!(
        !closure_predicate(&miss) && !eval_metered(&vp, &miss, 0).0 && !compiled.eval(&miss, 0).0
    );

    println!("Guard evaluation: closure vs. interpreted IR vs. compiled tier");
    println!(
        "(16-insn program: {} thunks, {} folded consts, {} fused loads, {} dispatched ops; bound {} cycles)",
        cs.thunks,
        cs.folded_consts,
        cs.fused_loads,
        compiled.ops(),
        vp.static_bound()
    );
    println!();

    // Wall-clock section (host time; printed, never committed).
    const ITERS: u32 = 200_000;
    let mut rows = Vec::new();
    let mut measured = Vec::new();
    for (label, pkt) in [("hit", &hit), ("miss", &miss)] {
        let w_closure = wall_ns_per_eval(ITERS, || closure_predicate(black_box(pkt)));
        let w_interp = wall_ns_per_eval(ITERS, || eval_metered(&vp, black_box(pkt), 0).0);
        let w_compiled = wall_ns_per_eval(ITERS, || compiled.eval(black_box(pkt), 0).0);
        rows.push(vec![
            label.to_string(),
            format!("{w_closure:.1}"),
            format!("{w_interp:.1}"),
            format!("{w_compiled:.1}"),
            format!("{:.1}x", w_interp / w_compiled),
        ]);
        measured.push((label, w_interp, w_compiled));
    }
    println!(
        "{}",
        table::render(
            &[
                "packet",
                "closure ns",
                "interpreted ns",
                "compiled ns",
                "speedup"
            ],
            &rows
        )
    );
    println!("The compiled tier folds dispatch, bounds checks, and constants at");
    println!("install time; what remains per instruction is the branch itself");
    println!("(DESIGN.md §18).");

    // The compiled tier's bar: >= 2x on the full 16-instruction walk.
    let (_, w_interp_hit, w_compiled_hit) = measured[0];
    assert!(
        w_compiled_hit * 2.0 <= w_interp_hit,
        "compiled tier must be >= 2x the interpreter at 16 insns \
         (interpreted {w_interp_hit:.1} ns, compiled {w_compiled_hit:.1} ns)"
    );

    // Deterministic section: the committed golden. Verdicts and metered
    // cycles over the fixed stream are identical across tiers by the
    // equivalence contract; the compile-shape stats pin the fusion level.
    let mut report = BenchReport::new("guard_eval");
    let (mut accepts, mut cycles_i, mut cycles_c, mut closure_accepts) = (0u64, 0u64, 0u64, 0u64);
    for pkt in stream() {
        let (ok_i, spent_i) = eval_metered(&vp, &pkt, 0);
        let (ok_c, spent_c) = compiled.eval(&pkt, 0);
        let ok_n = closure_predicate(&pkt);
        assert_eq!((ok_i, spent_i), (ok_c, spent_c), "tiers diverge");
        assert_eq!(ok_i, ok_n, "native predicate diverges");
        assert!(spent_c <= vp.static_bound(), "over static bound");
        accepts += u64::from(ok_i);
        closure_accepts += u64::from(ok_n);
        cycles_i += u64::from(spent_i);
        cycles_c += u64::from(spent_c);
    }
    report.count("program/insns", vp.program().insns.len() as u64);
    report.count("program/static_bound", u64::from(vp.static_bound()));
    report.count("compiled/thunks", u64::from(cs.thunks));
    report.count("compiled/folded_consts", u64::from(cs.folded_consts));
    report.count("compiled/fused_loads", u64::from(cs.fused_loads));
    report.count("compiled/fused_state_ops", u64::from(cs.fused_state_ops));
    report.count("compiled/ops", compiled.ops() as u64);
    report.count("stream/packets", 512);
    report.count("stream/accepts/closure", closure_accepts);
    report.count("stream/accepts/interpreted", accepts);
    report.count("stream/accepts/compiled", accepts);
    report.count("stream/cycles/interpreted", cycles_i);
    report.count("stream/cycles/compiled", cycles_c);
    report
}
