//! Post-hoc cycle accounting over the flight-recorder ring.
//!
//! [`Profile::build`] folds the raw [`TraceRecord`] stream into per-packet
//! **span trees** (handler enter/exit pairs, correlated by span ID) and
//! **attribution slices**: every simulated nanosecond between a packet's
//! arrival and its last record is assigned to exactly one
//! `(layer, domain, handler)` triple. The slice model is a *gap
//! attribution*: the interval between two consecutive records belonging to
//! the same packet is charged to the structural step that produced the
//! **later** record — the guard evaluation that just finished, the
//! dispatch work that led to a top-level handler entry (a *nested*
//! entry's gap is charged to the enclosing handler, whose body ran up to
//! the point of re-raising), the handler body that just exited, the
//! driver work that readied a frame for transmission. Slices tile the
//! packet's window exactly by construction, which is the invariant the
//! determinism and waterfall tests pin:
//!
//! > sum of slice durations == last record timestamp − arrival timestamp
//!
//! Ring wraparound is handled explicitly, never silently: a packet whose
//! arrival record was overwritten becomes an *orphan* (reported in the
//! [`TruncationReport`], excluded from aggregates), and enter/exit records
//! whose partner is missing are counted instead of producing negative or
//! unbounded durations.
//!
//! On top of the per-packet profiles sit [`Profile::aggregate`]
//! (mean/p50/p99 per attribution triple across packets) and
//! [`pingpong_waterfall`], which stitches request/reply packet pairs plus
//! the [`TraceEvent::PacketTx`] wire phases into per-round latency
//! waterfalls whose segments sum to the measured RTT exactly.

use std::collections::BTreeMap;

use crate::json::escape;
use crate::{Recorder, TraceEvent, TraceRecord};

/// An attribution target: which layer, protection domain, and handler
/// (or structural step) owns a slice of simulated time.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Triple {
    /// Protocol layer, derived from the event-name prefix (`Ethernet.*`
    /// → `ethernet`), or a structural pseudo-layer (`driver`, `boundary`,
    /// `engine`).
    pub layer: String,
    /// Owning protection domain (`kernel` for dispatch/guard work).
    pub domain: String,
    /// Handler (event name) or step (`guard`, `dispatch`, `tx`, ...).
    pub handler: String,
}

/// One attributed interval of a packet's processing window.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Slice {
    /// Interval start (exclusive bound of the previous slice).
    pub start_ns: u64,
    /// Interval end — the timestamp of the record that closed it.
    pub end_ns: u64,
    /// Who the interval is charged to.
    pub at: Triple,
}

impl Slice {
    /// Duration of the slice.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A handler execution span, with nested child spans (handlers invoked by
/// re-raises from inside this handler's body).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Span-correlation ID from the enter/exit records.
    pub span: u64,
    /// Event (table) name the handler was installed on.
    pub event: String,
    /// Owning protection domain.
    pub domain: String,
    /// Layer derived from the event name.
    pub layer: String,
    /// Handler entry timestamp.
    pub enter_ns: u64,
    /// Handler exit timestamp (synthesized at the packet's last record
    /// when the exit was lost; see [`Span::complete`]).
    pub exit_ns: u64,
    /// `exit_ns - enter_ns`.
    pub total_ns: u64,
    /// Time spent in direct child spans.
    pub child_ns: u64,
    /// `total_ns - child_ns`: time charged to this handler itself.
    pub self_ns: u64,
    /// False when the matching exit record was missing and the span was
    /// closed synthetically.
    pub complete: bool,
    /// Handlers invoked from inside this one.
    pub children: Vec<Span>,
}

impl Span {
    fn finalize(mut self, exit_ns: u64, complete: bool) -> Span {
        self.exit_ns = exit_ns;
        self.complete = complete;
        self.total_ns = exit_ns.saturating_sub(self.enter_ns);
        self.child_ns = self.children.iter().map(|c| c.total_ns).sum();
        self.self_ns = self.total_ns.saturating_sub(self.child_ns);
        self
    }

    fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Span)) {
        f(self);
        for c in &self.children {
            c.visit(f);
        }
    }
}

/// A resolved [`TraceEvent::PacketTx`] record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TxRecord {
    /// Instant the driver finished its CPU work and handed the frame over.
    pub at_ns: u64,
    /// Transmitting NIC name.
    pub nic: String,
    /// Name of the machine that owns the transmitting NIC (`None` for NICs
    /// built outside a `World`).
    pub host: Option<String>,
    /// Frame length.
    pub bytes: u32,
    /// The share of `wait_ns` spent behind this NIC's own tx backlog
    /// (ring/doorbell queue); the journey pass shows it as `tx_queue`.
    pub queue_ns: u64,
    /// Queueing delay before serialization started.
    pub wait_ns: u64,
    /// Serialization time.
    pub ser_ns: u64,
    /// One-way propagation.
    pub prop_ns: u64,
    /// The journey the transmitted frame carries across the wire. Inside a
    /// receive chain this is the chain's own journey unless the sender
    /// called `journey_break` first, in which case it is the fresh journey
    /// the delivery will start.
    pub journey: Option<u64>,
}

/// The profile of one packet's processing window.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PacketProfile {
    /// Per-packet ID assigned at arrival.
    pub packet: u64,
    /// World-global journey this hop belongs to. For orphans this is
    /// recovered from the envelope of the surviving records, so the journey
    /// pass can count truncated journeys instead of silently folding them
    /// into an opaque orphan total — but orphans never join a journey's hop
    /// chain (their durations are untrustworthy).
    pub journey: Option<u64>,
    /// Machine that received the frame (None for orphans or NICs built
    /// outside a `World`).
    pub host: Option<String>,
    /// Arriving NIC (None for orphans whose arrival record was lost).
    pub nic: Option<String>,
    /// Frame length at arrival (0 for orphans).
    pub bytes: u32,
    /// First retained record timestamp (the arrival, unless orphaned).
    pub first_ns: u64,
    /// Last retained record timestamp.
    pub last_ns: u64,
    /// Root handler spans.
    pub spans: Vec<Span>,
    /// Attribution slices tiling `[first_ns, last_ns]`.
    pub slices: Vec<Slice>,
    /// Frames this packet's chain handed to a transmitter.
    pub txs: Vec<TxRecord>,
    /// Drops recorded during the window, as `(layer, reason)`.
    pub drops: Vec<(String, String)>,
    /// True when ring wraparound ate the packet's arrival — durations for
    /// this packet are untrustworthy and it is excluded from aggregates.
    pub orphan: bool,
}

impl PacketProfile {
    /// Total attributed time; equals `last_ns - first_ns` by construction.
    pub fn attributed_ns(&self) -> u64 {
        self.slices.iter().map(Slice::ns).sum()
    }

    /// Entry timestamps of spans owned by `domain`, in record order.
    pub fn enters_of_domain(&self, domain: &str) -> Vec<u64> {
        let mut out = Vec::new();
        for s in &self.spans {
            s.visit(&mut |sp| {
                if sp.domain == domain {
                    out.push(sp.enter_ns);
                }
            });
        }
        out
    }
}

/// What ring wraparound cost this profile, reported instead of silently
/// producing negative or orphaned durations.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TruncationReport {
    /// Records overwritten before the snapshot was taken.
    pub dropped_records: u64,
    /// Sequence number of the oldest retained record (non-zero means the
    /// stream has a dropped prefix).
    pub first_retained_seq: u64,
    /// Packets whose arrival record was lost; excluded from aggregates.
    pub orphan_packets: Vec<u64>,
    /// Enter records whose exit never appeared (span closed synthetically).
    pub unmatched_enters: u64,
    /// Exit records whose enter was lost to the wraparound.
    pub unmatched_exits: u64,
}

impl TruncationReport {
    /// True when the ring kept the whole stream.
    pub fn clean(&self) -> bool {
        self.dropped_records == 0
            && self.first_retained_seq == 0
            && self.orphan_packets.is_empty()
            && self.unmatched_enters == 0
            && self.unmatched_exits == 0
    }
}

/// Aggregate statistics for one attribution triple across packets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TripleStat {
    /// The attribution target.
    pub at: Triple,
    /// Total nanoseconds across all non-orphan packets.
    pub total_ns: u64,
    /// Number of slices contributing.
    pub slices: u64,
    /// Number of packets with at least one slice for this triple.
    pub packets: u64,
    /// Mean of the per-packet sums.
    pub mean_ns: u64,
    /// Median (nearest-rank) of the per-packet sums.
    pub p50_ns: u64,
    /// 99th percentile (nearest-rank) of the per-packet sums.
    pub p99_ns: u64,
}

/// The full cycle-accounting profile of a recorded run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Profile {
    /// Per-packet profiles, in packet-ID order.
    pub packets: Vec<PacketProfile>,
    /// What wraparound cost, if anything.
    pub truncation: TruncationReport,
    /// Transmissions recorded outside any packet window (e.g. a send
    /// initiated from engine or timer context rather than a receive
    /// chain — the video server's frame pushes are all of this kind).
    pub unattributed_txs: Vec<TxRecord>,
    /// Drops recorded outside any packet window, as
    /// `(layer, reason, count)` sorted by layer then reason.
    pub unattributed_drops: Vec<(String, String, u64)>,
}

/// Lowercased event-name prefix: `"Ethernet.PacketRecv"` → `"ethernet"`.
pub fn layer_of(event_name: &str) -> String {
    event_name
        .split('.')
        .next()
        .unwrap_or(event_name)
        .to_ascii_lowercase()
}

/// Nearest-rank percentile over a sorted slice (`q` in percent).
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len();
    let rank = ((q / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

fn resolve_tx(rec: &Recorder, r: &TraceRecord) -> Option<TxRecord> {
    if let TraceEvent::PacketTx {
        nic,
        host,
        bytes,
        queue_ns,
        wait_ns,
        ser_ns,
        prop_ns,
    } = r.event
    {
        let host = rec.name(host);
        Some(TxRecord {
            at_ns: r.at_ns,
            nic: rec.name(nic),
            host: if host.is_empty() { None } else { Some(host) },
            bytes,
            queue_ns,
            wait_ns,
            ser_ns,
            prop_ns,
            journey: r.journey,
        })
    } else {
        None
    }
}

impl Profile {
    /// Folds the recorder's retained ring into a profile.
    pub fn build(rec: &Recorder) -> Profile {
        let records = rec.events();
        let mut truncation = TruncationReport {
            dropped_records: rec.overwritten(),
            first_retained_seq: records.first().map_or(0, |r| r.seq),
            ..TruncationReport::default()
        };

        let mut by_packet: BTreeMap<u64, Vec<TraceRecord>> = BTreeMap::new();
        let mut unattributed_txs = Vec::new();
        let mut drops: BTreeMap<(String, String), u64> = BTreeMap::new();
        for r in &records {
            match r.packet {
                Some(p) => by_packet.entry(p).or_default().push(*r),
                None => match r.event {
                    TraceEvent::PacketTx { .. } => {
                        unattributed_txs.push(resolve_tx(rec, r).expect("matched PacketTx"));
                    }
                    TraceEvent::Drop { layer, reason } => {
                        *drops
                            .entry((rec.name(layer), rec.name(reason)))
                            .or_insert(0) += 1;
                    }
                    _ => {}
                },
            }
        }

        let mut packets = Vec::with_capacity(by_packet.len());
        for (id, recs) in by_packet {
            let p = build_packet(rec, id, &recs, &mut truncation);
            if p.orphan {
                truncation.orphan_packets.push(id);
            }
            packets.push(p);
        }
        Profile {
            packets,
            truncation,
            unattributed_txs,
            unattributed_drops: drops
                .into_iter()
                .map(|((layer, reason), n)| (layer, reason, n))
                .collect(),
        }
    }

    /// Per-triple statistics over the non-orphan packets, in triple order.
    pub fn aggregate(&self) -> Vec<TripleStat> {
        // Per-packet sums first, so the percentiles describe "ns this
        // triple cost *a packet*", matching Figure 5's per-RTT bars.
        let mut sums: BTreeMap<Triple, Vec<u64>> = BTreeMap::new();
        let mut counts: BTreeMap<Triple, u64> = BTreeMap::new();
        for p in self.packets.iter().filter(|p| !p.orphan) {
            let mut per_packet: BTreeMap<&Triple, u64> = BTreeMap::new();
            for s in &p.slices {
                *per_packet.entry(&s.at).or_insert(0) += s.ns();
                *counts.entry(s.at.clone()).or_insert(0) += 1;
            }
            for (t, ns) in per_packet {
                sums.entry(t.clone()).or_default().push(ns);
            }
        }
        sums.into_iter()
            .map(|(at, mut per_packet)| {
                per_packet.sort_unstable();
                let total: u64 = per_packet.iter().sum();
                let n = per_packet.len() as u64;
                TripleStat {
                    slices: counts.get(&at).copied().unwrap_or(0),
                    total_ns: total,
                    packets: n,
                    mean_ns: total / n.max(1),
                    p50_ns: percentile(&per_packet, 50.0),
                    p99_ns: percentile(&per_packet, 99.0),
                    at,
                }
            })
            .collect()
    }
}

/// Builds one packet's profile from its record stream (already in
/// sequence order).
fn build_packet(
    rec: &Recorder,
    id: u64,
    recs: &[TraceRecord],
    truncation: &mut TruncationReport,
) -> PacketProfile {
    let first = &recs[0];
    let (nic, host, bytes, orphan) = match first.event {
        TraceEvent::PacketArrival { nic, host, bytes } => {
            let host = rec.name(host);
            let host = if host.is_empty() { None } else { Some(host) };
            (Some(rec.name(nic)), host, bytes, false)
        }
        // Wraparound ate the arrival: keep what we can see, but flag it.
        _ => (None, None, 0, true),
    };
    // Orphans recover their journey tag from whichever record survived —
    // every record of a hop carries the same journey in its envelope.
    let journey = if orphan {
        recs.iter().find_map(|r| r.journey)
    } else {
        first.journey
    };

    let mut spans: Vec<Span> = Vec::new(); // finished roots
    let mut stack: Vec<Span> = Vec::new(); // open spans, innermost last
    let mut slices: Vec<Slice> = Vec::new();
    let mut txs: Vec<TxRecord> = Vec::new();
    let mut drops: Vec<(String, String)> = Vec::new();
    let mut prev_ns = first.at_ns;
    let last_ns = recs.last().expect("non-empty packet stream").at_ns;

    fn close_span(stack: &mut [Span], spans: &mut Vec<Span>, sp: Span) {
        match stack.last_mut() {
            Some(parent) => parent.children.push(sp),
            None => spans.push(sp),
        }
    }

    for r in recs.iter().skip(if orphan { 0 } else { 1 }) {
        let cur_domain = || {
            stack
                .last()
                .map_or_else(|| String::from("kernel"), |s| s.domain.clone())
        };
        let at = match r.event {
            TraceEvent::GuardEval { event, .. } => Some(Triple {
                layer: layer_of(&rec.name(event)),
                domain: String::from("kernel"),
                handler: String::from("guard"),
            }),
            TraceEvent::HandlerEnter {
                event,
                domain,
                span,
            } => {
                let event_name = rec.name(event);
                // A top-level entry follows pure kernel dispatch work
                // (thread spawn, context switch, handler lookup). A
                // *nested* entry's gap is dominated by the enclosing
                // handler's own body — it ran up to the point of calling
                // raise() — so the parent is charged, keeping extension
                // time attributed to the extension's domain.
                let triple = match stack.last() {
                    Some(parent) => Triple {
                        layer: parent.layer.clone(),
                        domain: parent.domain.clone(),
                        handler: parent.event.clone(),
                    },
                    None => Triple {
                        layer: layer_of(&event_name),
                        domain: String::from("kernel"),
                        handler: String::from("dispatch"),
                    },
                };
                stack.push(Span {
                    span,
                    layer: layer_of(&event_name),
                    event: event_name,
                    domain: rec.name(domain),
                    enter_ns: r.at_ns,
                    exit_ns: r.at_ns,
                    total_ns: 0,
                    child_ns: 0,
                    self_ns: 0,
                    complete: false,
                    children: Vec::new(),
                });
                Some(triple)
            }
            TraceEvent::HandlerExit {
                event,
                domain,
                span,
            } => {
                let event_name = rec.name(event);
                let triple = Triple {
                    layer: layer_of(&event_name),
                    domain: rec.name(domain),
                    handler: event_name,
                };
                match stack.iter().rposition(|s| s.span == span) {
                    Some(pos) => {
                        // Anything still open above the match lost its own
                        // exit — close it here rather than leak or nest
                        // wrongly.
                        while stack.len() > pos + 1 {
                            let sp = stack.pop().expect("len checked");
                            truncation.unmatched_enters += 1;
                            let sp = sp.finalize(r.at_ns, false);
                            close_span(&mut stack, &mut spans, sp);
                        }
                        let sp = stack.pop().expect("pos in range");
                        let sp = sp.finalize(r.at_ns, true);
                        close_span(&mut stack, &mut spans, sp);
                    }
                    None => truncation.unmatched_exits += 1,
                }
                Some(triple)
            }
            TraceEvent::Drop { layer, reason } => {
                let l = rec.name(layer);
                let re = rec.name(reason);
                drops.push((l.clone(), re.clone()));
                Some(Triple {
                    layer: l,
                    domain: cur_domain(),
                    handler: re,
                })
            }
            TraceEvent::Crossing { dir, .. } => Some(Triple {
                layer: String::from("boundary"),
                domain: cur_domain(),
                handler: String::from(dir.name()),
            }),
            TraceEvent::PacketTx { .. } => {
                txs.push(resolve_tx(rec, r).expect("matched PacketTx"));
                Some(Triple {
                    layer: String::from("driver"),
                    domain: cur_domain(),
                    handler: String::from("tx"),
                })
            }
            TraceEvent::TimerFire => Some(Triple {
                layer: String::from("engine"),
                domain: cur_domain(),
                handler: String::from("timer"),
            }),
            // Observability events are attribution-neutral: they carry no
            // CPU work of their own (samples share their neighbor's
            // timestamp; interrupts are charged by the driver glue), so
            // they produce no slice and leave the gap to the next
            // structural record.
            TraceEvent::RxInterrupt { .. } | TraceEvent::LatencySample { .. } => None,
            // A second arrival can't appear mid-packet (arrivals assign a
            // fresh ID); if the stream is orphaned it may *start* with
            // arbitrary records, attributed to the driver.
            TraceEvent::PacketArrival { .. } => Some(Triple {
                layer: String::from("driver"),
                domain: String::from("kernel"),
                handler: String::from("arrival"),
            }),
        };
        if let Some(at) = at {
            slices.push(Slice {
                start_ns: prev_ns,
                end_ns: r.at_ns,
                at,
            });
            prev_ns = r.at_ns;
        }
    }

    // A trailing attribution-neutral record (latency sample, rx
    // interrupt) can leave the gap to the window's end uncharged; close
    // it against the innermost open domain so slices still tile
    // `[first_ns, last_ns]`.
    if prev_ns < last_ns {
        slices.push(Slice {
            start_ns: prev_ns,
            end_ns: last_ns,
            at: Triple {
                layer: String::from("engine"),
                domain: stack
                    .last()
                    .map_or_else(|| String::from("kernel"), |s| s.domain.clone()),
                handler: String::from("tail"),
            },
        });
    }

    // Enters whose exits never made the ring: close at the window's end.
    while let Some(sp) = stack.pop() {
        truncation.unmatched_enters += 1;
        let sp = sp.finalize(last_ns, false);
        match stack.last_mut() {
            Some(parent) => parent.children.push(sp),
            None => spans.push(sp),
        }
    }

    PacketProfile {
        packet: id,
        journey,
        host,
        nic,
        bytes,
        first_ns: first.at_ns,
        last_ns,
        spans,
        slices,
        txs,
        drops,
        orphan,
    }
}

// --- ping-pong waterfall ------------------------------------------------

/// One named segment of a round-trip waterfall.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Segment {
    /// Segment name (`client.send`, `server.udp`, `reply.wire.serialize`,
    /// ...).
    pub name: String,
    /// Simulated nanoseconds.
    pub ns: u64,
}

/// The waterfall of one round trip. Segments sum to `rtt_ns` exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoundProfile {
    /// 1-based round number.
    pub round: u32,
    /// Round-trip time: app-handler entry minus the instant the request
    /// send began.
    pub rtt_ns: u64,
    /// Ordered waterfall segments.
    pub segments: Vec<Segment>,
    /// CPU time spent unwinding handler stacks *after* the frame was on
    /// the wire — real work, but off the latency-critical path (it
    /// overlaps wire time), so it is reported separately rather than
    /// inside the waterfall.
    pub overlap_ns: u64,
}

/// Aggregate stats for one segment name across rounds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentStat {
    /// Segment name.
    pub name: String,
    /// Sum over rounds.
    pub total_ns: u64,
    /// Mean over rounds.
    pub mean_ns: u64,
    /// Nearest-rank median over rounds.
    pub p50_ns: u64,
    /// Nearest-rank 99th percentile over rounds.
    pub p99_ns: u64,
}

/// Per-round latency waterfalls for a serial request/reply ping-pong.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Waterfall {
    /// The application domain whose handler entries delimit rounds.
    pub app_domain: String,
    /// One waterfall per completed round.
    pub rounds: Vec<RoundProfile>,
    /// Per-segment aggregates (mean/p50/p99 over rounds), in first-seen
    /// segment order.
    pub segment_stats: Vec<SegmentStat>,
}

/// Sums `slices[0..=idx]` grouped by layer, in first-seen order.
fn layer_sums(slices: &[Slice], upto: usize, prefix: &str) -> Vec<Segment> {
    let mut out: Vec<Segment> = Vec::new();
    for s in &slices[..=upto] {
        let name = format!("{prefix}.{}", s.at.layer);
        match out.iter_mut().find(|seg| seg.name == name) {
            Some(seg) => seg.ns += s.ns(),
            None => out.push(Segment { name, ns: s.ns() }),
        }
    }
    out
}

/// Index of the first slice produced by a `PacketTx` record.
fn tx_slice_idx(p: &PacketProfile) -> Option<usize> {
    p.slices
        .iter()
        .position(|s| s.at.layer == "driver" && s.at.handler == "tx")
}

/// Index of the last slice ending at the app handler's entry timestamp.
/// Slices tile contiguously, so everything up to this index covers
/// exactly `[first_ns, enter_ns]` (later zero-length slices at the same
/// timestamp contribute nothing).
fn app_enter_slice_idx(p: &PacketProfile, enter_ns: u64) -> Option<usize> {
    p.slices.iter().rposition(|s| s.end_ns == enter_ns)
}

/// Builds per-round waterfalls for a serial ping-pong scenario
/// (`udp_rtt`-shaped): packets alternate request (even IDs, processed by
/// the responder) and reply (odd IDs, processed by the initiator), and a
/// handler owned by `app_domain` runs at both endpoints. Round `k`'s RTT
/// is the time from the initiator starting send `k` to its app handler
/// observing reply `k` — with serial rounds and a send that begins at the
/// app handler's entry timestamp, that is exactly the gap between
/// consecutive app-handler entries on the initiator.
///
/// Fails (with a reason) when the trace does not look like a completed
/// ping-pong: odd packet count, truncated packets, missing transmissions
/// or app-handler entries.
pub fn pingpong_waterfall(profile: &Profile, app_domain: &str) -> Result<Waterfall, String> {
    let packets = &profile.packets;
    if packets.is_empty() {
        return Err(String::from("no packets in profile"));
    }
    if !packets.len().is_multiple_of(2) {
        return Err(format!(
            "expected request/reply packet pairs, got {} packets",
            packets.len()
        ));
    }
    if let Some(p) = packets.iter().find(|p| p.orphan) {
        return Err(format!(
            "packet {} is truncated (ring wraparound); profile with a larger ring",
            p.packet
        ));
    }

    let rounds_n = packets.len() / 2;
    let mut rounds = Vec::with_capacity(rounds_n);
    for k in 0..rounds_n {
        let req = &packets[2 * k];
        let rep = &packets[2 * k + 1];

        // Where the initiator's send began, and the tx record that frame
        // produced. Round 1's send comes from engine context (recorded
        // outside any packet window); later sends happen inside the
        // previous reply's handler chain.
        let (send_start, client_tx) = if k == 0 {
            let tx = profile
                .unattributed_txs
                .first()
                .ok_or("no unattributed tx for the initial send")?;
            (0u64, tx.clone())
        } else {
            let prev = &packets[2 * k - 1];
            let enter = *prev
                .enters_of_domain(app_domain)
                .first()
                .ok_or_else(|| format!("packet {}: no {app_domain} handler", prev.packet))?;
            let tx = prev
                .txs
                .first()
                .ok_or_else(|| format!("packet {}: no tx record", prev.packet))?;
            (enter, tx.clone())
        };

        let server_tx = req
            .txs
            .first()
            .ok_or_else(|| format!("packet {}: no reply tx record", req.packet))?;
        let reply_enter = *rep
            .enters_of_domain(app_domain)
            .first()
            .ok_or_else(|| format!("packet {}: no {app_domain} handler", rep.packet))?;

        let mut segments = vec![
            Segment {
                name: String::from("client.send"),
                ns: client_tx.at_ns - send_start,
            },
            Segment {
                name: String::from("request.wire.wait"),
                ns: client_tx.wait_ns,
            },
            Segment {
                name: String::from("request.wire.serialize"),
                ns: client_tx.ser_ns,
            },
            Segment {
                name: String::from("request.wire.propagate"),
                ns: client_tx.prop_ns,
            },
        ];
        let srv_upto =
            tx_slice_idx(req).ok_or_else(|| format!("packet {}: no tx slice", req.packet))?;
        segments.extend(layer_sums(&req.slices, srv_upto, "server"));
        segments.extend([
            Segment {
                name: String::from("reply.wire.wait"),
                ns: server_tx.wait_ns,
            },
            Segment {
                name: String::from("reply.wire.serialize"),
                ns: server_tx.ser_ns,
            },
            Segment {
                name: String::from("reply.wire.propagate"),
                ns: server_tx.prop_ns,
            },
        ]);
        let cli_upto = app_enter_slice_idx(rep, reply_enter)
            .ok_or_else(|| format!("packet {}: no app dispatch slice", rep.packet))?;
        segments.extend(layer_sums(&rep.slices, cli_upto, "client"));

        let overlap = (req.last_ns - server_tx.at_ns)
            + if k == 0 {
                0
            } else {
                packets[2 * k - 1].last_ns - client_tx.at_ns
            };

        rounds.push(RoundProfile {
            round: (k + 1) as u32,
            rtt_ns: reply_enter - send_start,
            segments,
            overlap_ns: overlap,
        });
    }

    // Per-segment aggregates, in first-seen order; a segment absent from a
    // round contributes zero (layer mixes can differ between rounds).
    let mut names: Vec<String> = Vec::new();
    for r in &rounds {
        for s in &r.segments {
            if !names.contains(&s.name) {
                names.push(s.name.clone());
            }
        }
    }
    let segment_stats = names
        .into_iter()
        .map(|name| {
            let mut per_round: Vec<u64> = rounds
                .iter()
                .map(|r| {
                    r.segments
                        .iter()
                        .filter(|s| s.name == name)
                        .map(|s| s.ns)
                        .sum()
                })
                .collect();
            per_round.sort_unstable();
            let total: u64 = per_round.iter().sum();
            SegmentStat {
                name,
                total_ns: total,
                mean_ns: total / (per_round.len() as u64).max(1),
                p50_ns: percentile(&per_round, 50.0),
                p99_ns: percentile(&per_round, 99.0),
            }
        })
        .collect();

    Ok(Waterfall {
        app_domain: app_domain.to_string(),
        rounds,
        segment_stats,
    })
}

// --- JSON export --------------------------------------------------------

fn span_json(s: &Span, out: &mut String) {
    out.push_str(&format!(
        "{{\"span\": {}, \"event\": \"{}\", \"domain\": \"{}\", \"layer\": \"{}\", \
         \"enter_ns\": {}, \"exit_ns\": {}, \"total_ns\": {}, \"self_ns\": {}, \
         \"child_ns\": {}, \"complete\": {}, \"children\": [",
        s.span,
        escape(&s.event),
        escape(&s.domain),
        escape(&s.layer),
        s.enter_ns,
        s.exit_ns,
        s.total_ns,
        s.self_ns,
        s.child_ns,
        s.complete
    ));
    for (i, c) in s.children.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        span_json(c, out);
    }
    out.push_str("]}");
}

fn waterfall_json(w: &Waterfall, out: &mut String) {
    out.push_str(&format!(
        "{{\"app_domain\": \"{}\", \"rounds\": [",
        escape(&w.app_domain)
    ));
    for (i, r) in w.rounds.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "\n    {{\"round\": {}, \"rtt_ns\": {}, \"overlap_ns\": {}, \"segments\": [",
            r.round, r.rtt_ns, r.overlap_ns
        ));
        for (j, s) in r.segments.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"ns\": {}}}",
                escape(&s.name),
                s.ns
            ));
        }
        out.push_str("]}");
    }
    out.push_str("], \"segments\": [");
    for (i, s) in w.segment_stats.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "\n    {{\"name\": \"{}\", \"total_ns\": {}, \"mean_ns\": {}, \
             \"p50_ns\": {}, \"p99_ns\": {}}}",
            escape(&s.name),
            s.total_ns,
            s.mean_ns,
            s.p50_ns,
            s.p99_ns
        ));
    }
    out.push_str("]}");
}

/// Renders the profile as deterministic JSON.
///
/// Per-packet detail (span trees and slices) is included for the first
/// `max_packet_detail` packets only — large scenarios produce hundreds of
/// thousands of slices — and the cap is stated in the output
/// (`packets_total` vs `packets_detailed`) rather than applied silently.
/// Aggregates always cover every non-orphan packet.
pub fn profile_json(
    p: &Profile,
    waterfall: Option<&Waterfall>,
    max_packet_detail: usize,
) -> String {
    let t = &p.truncation;
    let mut out = String::from("{\n  \"schema\": \"plexus.profile.v1\",\n");
    out.push_str(&format!(
        "  \"truncation\": {{\"dropped_records\": {}, \"first_retained_seq\": {}, \
         \"orphan_packets\": [{}], \"unmatched_enters\": {}, \"unmatched_exits\": {}}},\n",
        t.dropped_records,
        t.first_retained_seq,
        t.orphan_packets
            .iter()
            .map(|p| p.to_string())
            .collect::<Vec<_>>()
            .join(", "),
        t.unmatched_enters,
        t.unmatched_exits
    ));
    out.push_str(&format!("  \"packets_total\": {},\n", p.packets.len()));
    let detailed = p.packets.len().min(max_packet_detail);
    out.push_str(&format!("  \"packets_detailed\": {detailed},\n"));

    // Work that ran outside any packet window (timer- or engine-driven
    // sends and sheds) — for push-style scenarios like the video server
    // this is where nearly everything lands.
    let (frames, bytes, wait, ser, prop) =
        p.unattributed_txs
            .iter()
            .fold((0u64, 0u64, 0u64, 0u64, 0u64), |(f, b, w, s, pr), tx| {
                (
                    f + 1,
                    b + u64::from(tx.bytes),
                    w + tx.wait_ns,
                    s + tx.ser_ns,
                    pr + tx.prop_ns,
                )
            });
    out.push_str(&format!(
        "  \"unattributed_tx\": {{\"frames\": {frames}, \"bytes\": {bytes}, \
         \"wait_ns\": {wait}, \"ser_ns\": {ser}, \"prop_ns\": {prop}}},\n"
    ));
    out.push_str("  \"unattributed_drops\": [");
    for (i, (layer, reason, n)) in p.unattributed_drops.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{{\"layer\": \"{}\", \"reason\": \"{}\", \"count\": {n}}}",
            escape(layer),
            escape(reason)
        ));
    }
    out.push_str("],\n");

    out.push_str("  \"aggregate\": [");
    for (i, s) in p.aggregate().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"layer\": \"{}\", \"domain\": \"{}\", \"handler\": \"{}\", \
             \"total_ns\": {}, \"slices\": {}, \"packets\": {}, \"mean_ns\": {}, \
             \"p50_ns\": {}, \"p99_ns\": {}}}",
            escape(&s.at.layer),
            escape(&s.at.domain),
            escape(&s.at.handler),
            s.total_ns,
            s.slices,
            s.packets,
            s.mean_ns,
            s.p50_ns,
            s.p99_ns
        ));
    }
    out.push_str("\n  ],\n");

    if let Some(w) = waterfall {
        out.push_str("  \"waterfall\": ");
        waterfall_json(w, &mut out);
        out.push_str(",\n");
    }

    out.push_str("  \"packets\": [");
    for (i, pkt) in p.packets.iter().take(detailed).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"packet\": {}, \"nic\": {}, \"bytes\": {}, \"first_ns\": {}, \
             \"last_ns\": {}, \"attributed_ns\": {}, \"orphan\": {}, \"drops\": [{}], \
             \"spans\": [",
            pkt.packet,
            match &pkt.nic {
                Some(n) => format!("\"{}\"", escape(n)),
                None => String::from("null"),
            },
            pkt.bytes,
            pkt.first_ns,
            pkt.last_ns,
            pkt.attributed_ns(),
            pkt.orphan,
            pkt.drops
                .iter()
                .map(|(l, r)| format!("[\"{}\", \"{}\"]", escape(l), escape(r)))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        for (j, s) in pkt.spans.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            span_json(s, &mut out);
        }
        out.push_str("], \"slices\": [");
        for (j, s) in pkt.slices.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"start_ns\": {}, \"end_ns\": {}, \"layer\": \"{}\", \
                 \"domain\": \"{}\", \"handler\": \"{}\"}}",
                s.start_ns,
                s.end_ns,
                escape(&s.at.layer),
                escape(&s.at.domain),
                escape(&s.at.handler)
            ));
        }
        out.push_str("]}");
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate;
    use crate::Recorder;

    /// Two nested handlers with a guard eval between arrival and entry.
    fn nested() -> std::rc::Rc<Recorder> {
        let rec = Recorder::new(64);
        rec.packet_arrival(1_000, "Ethernet", 60);
        let eth = rec.intern("Ethernet.PacketRecv");
        let udp = rec.intern("Udp.PacketRecv");
        let kernel = rec.intern("ip");
        let app = rec.intern("echo-ext");
        rec.guard_eval(1_300, eth, true);
        let outer = rec.handler_enter(1_500, eth, kernel);
        let inner = rec.handler_enter(2_000, udp, app);
        rec.packet_tx(4_000, "Ethernet", 60, 100, 500, 1_000);
        rec.handler_exit(5_000, udp, app, inner);
        rec.handler_exit(6_000, eth, kernel, outer);
        rec.packet_done();
        rec
    }

    #[test]
    fn slices_tile_the_packet_window_exactly() {
        let rec = nested();
        let p = Profile::build(&rec);
        assert!(p.truncation.clean());
        assert_eq!(p.packets.len(), 1);
        let pkt = &p.packets[0];
        assert_eq!(pkt.first_ns, 1_000);
        assert_eq!(pkt.last_ns, 6_000);
        assert_eq!(pkt.attributed_ns(), 5_000, "every ns attributed");
        let total: u64 = pkt.slices.iter().map(Slice::ns).sum();
        assert_eq!(total, pkt.last_ns - pkt.first_ns);
    }

    #[test]
    fn span_tree_separates_self_and_child_time() {
        let rec = nested();
        let p = Profile::build(&rec);
        let pkt = &p.packets[0];
        assert_eq!(pkt.spans.len(), 1, "one root span");
        let root = &pkt.spans[0];
        assert_eq!(root.event, "Ethernet.PacketRecv");
        assert_eq!(root.layer, "ethernet");
        assert_eq!(root.total_ns, 4_500);
        assert_eq!(root.children.len(), 1);
        let child = &root.children[0];
        assert_eq!(child.domain, "echo-ext");
        assert_eq!(child.total_ns, 3_000);
        assert_eq!(root.child_ns, 3_000);
        assert_eq!(root.self_ns, 1_500);
        assert!(root.complete && child.complete);
    }

    #[test]
    fn attribution_follows_the_gap_rule() {
        let rec = nested();
        let p = Profile::build(&rec);
        let s = &p.packets[0].slices;
        // arrival -> guard eval: guard work at ethernet.
        assert_eq!(s[0].at.handler, "guard");
        assert_eq!(s[0].at.layer, "ethernet");
        assert_eq!(s[0].ns(), 300);
        // guard -> enter: dispatch.
        assert_eq!(s[1].at.handler, "dispatch");
        // tx gap runs under the innermost open domain.
        let tx = s.iter().find(|s| s.at.handler == "tx").unwrap();
        assert_eq!(tx.at.layer, "driver");
        assert_eq!(tx.at.domain, "echo-ext");
        // exits charge the handler's own (tail) time to its domain.
        let udp_exit = s.iter().find(|s| s.at.handler == "Udp.PacketRecv").unwrap();
        assert_eq!(udp_exit.at.domain, "echo-ext");
        assert_eq!(udp_exit.at.layer, "udp");
    }

    #[test]
    fn wraparound_produces_orphans_not_negative_durations() {
        // Ring of 5 over a stream of 7 records: the first packet's
        // arrival and enter are overwritten, but its exit survives.
        let rec = Recorder::new(5);
        let ev = rec.intern("Udp.PacketRecv");
        let dom = rec.intern("udp");
        rec.packet_arrival(100, "Ethernet", 60);
        let s0 = rec.handler_enter(200, ev, dom);
        rec.handler_exit(900, ev, dom, s0);
        rec.packet_done();
        rec.packet_arrival(1_000, "Ethernet", 60);
        let s1 = rec.handler_enter(1_100, ev, dom);
        rec.handler_exit(1_900, ev, dom, s1);
        rec.packet_done();
        rec.packet_drop(2_500, "ip", "no_route");

        let p = Profile::build(&rec);
        assert_eq!(p.truncation.dropped_records, 2);
        assert_eq!(p.truncation.first_retained_seq, 2);
        assert_eq!(p.truncation.orphan_packets, vec![0]);
        assert_eq!(p.truncation.unmatched_exits, 1, "packet 0's exit");
        let orphan = p.packets.iter().find(|p| p.packet == 0).unwrap();
        assert!(orphan.orphan);
        let whole = p.packets.iter().find(|p| p.packet == 1).unwrap();
        assert!(!whole.orphan);
        assert_eq!(whole.attributed_ns(), 900);
        // Aggregates exclude the orphan.
        for stat in p.aggregate() {
            assert!(stat.packets <= 1);
        }
    }

    #[test]
    fn lost_exit_is_closed_at_window_end_and_counted() {
        let rec = Recorder::new(64);
        let ev = rec.intern("Udp.PacketRecv");
        let dom = rec.intern("udp");
        rec.packet_arrival(100, "Ethernet", 60);
        rec.handler_enter(200, ev, dom);
        rec.packet_drop(700, "udp", "no_port");
        rec.packet_done();
        let p = Profile::build(&rec);
        assert_eq!(p.truncation.unmatched_enters, 1);
        let pkt = &p.packets[0];
        assert_eq!(pkt.spans.len(), 1);
        assert!(!pkt.spans[0].complete);
        assert_eq!(pkt.spans[0].exit_ns, 700, "closed at the last record");
        assert_eq!(pkt.attributed_ns(), pkt.last_ns - pkt.first_ns);
    }

    #[test]
    fn profile_json_is_valid_and_deterministic() {
        let rec = nested();
        let p = Profile::build(&rec);
        let a = profile_json(&p, None, 16);
        let b = profile_json(&Profile::build(&rec), None, 16);
        assert_eq!(a, b);
        validate(&a).expect("profile JSON well-formed");
        assert!(a.contains("\"schema\": \"plexus.profile.v1\""));
        assert!(a.contains("\"packets_total\": 1"));
    }

    #[test]
    fn detail_cap_is_stated_not_silent() {
        let rec = Recorder::new(64);
        let ev = rec.intern("Udp.PacketRecv");
        let dom = rec.intern("udp");
        for i in 0..3 {
            rec.packet_arrival(i * 1_000, "Ethernet", 60);
            let s = rec.handler_enter(i * 1_000 + 100, ev, dom);
            rec.handler_exit(i * 1_000 + 200, ev, dom, s);
            rec.packet_done();
        }
        let p = Profile::build(&rec);
        let out = profile_json(&p, None, 1);
        validate(&out).expect("valid");
        assert!(out.contains("\"packets_total\": 3"));
        assert!(out.contains("\"packets_detailed\": 1"));
    }
}
