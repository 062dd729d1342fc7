//! The recorder: interner + ring + registry + packet-ID generator.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use crate::live::{LiveAgg, LiveConfig, LiveReport, SealHook};
use crate::registry::{CounterKey, Registry, Scope};
use crate::ring::Ring;
use crate::{CrossDir, TraceEvent, TraceRecord};

/// A handle to an interned string. `Copy`, so trace records carrying names
/// stay allocation-free; resolve back with [`Recorder::name`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Label(pub(crate) u32);

#[derive(Debug, Default)]
pub(crate) struct Interner {
    names: Vec<String>,
    index: HashMap<String, u32>,
}

impl Interner {
    pub(crate) fn intern(&mut self, s: &str) -> Label {
        if let Some(&i) = self.index.get(s) {
            return Label(i);
        }
        let i = u32::try_from(self.names.len()).expect("interner overflow");
        self.names.push(s.to_owned());
        self.index.insert(s.to_owned(), i);
        Label(i)
    }

    pub(crate) fn get(&self, label: Label) -> &str {
        &self.names[label.0 as usize]
    }
}

/// The flight recorder: a bounded event ring plus a metrics [`Registry`],
/// stamped entirely from the simulated clock.
///
/// Install one per simulation (`World::install_recorder` wires it to every
/// CPU, NIC, and the engine). Instrumented code receives it as an
/// `Option<&Recorder>` / `Option<Rc<Recorder>>`; with no recorder
/// installed the hot path pays a single `Option` test.
#[derive(Debug)]
pub struct Recorder {
    ring: RefCell<Ring>,
    registry: Registry,
    interner: RefCell<Interner>,
    next_seq: Cell<u64>,
    next_packet: Cell<u64>,
    next_span: Cell<u64>,
    next_journey: Cell<u64>,
    current_packet: Cell<Option<u64>>,
    current_journey: Cell<Option<u64>>,
    live: RefCell<Option<LiveAgg>>,
}

impl Recorder {
    /// Creates a recorder whose ring retains `capacity` records.
    pub fn new(capacity: usize) -> Rc<Recorder> {
        Rc::new(Recorder {
            ring: RefCell::new(Ring::new(capacity)),
            registry: Registry::default(),
            interner: RefCell::new(Interner::default()),
            next_seq: Cell::new(0),
            next_packet: Cell::new(0),
            next_span: Cell::new(0),
            next_journey: Cell::new(0),
            current_packet: Cell::new(None),
            current_journey: Cell::new(None),
            live: RefCell::new(None),
        })
    }

    /// Switches on the streaming telemetry tier ([`crate::live`]): every
    /// subsequent ring push is also fed to the online windowed
    /// aggregators, per-machine scopes, and tail sampler, and sealed
    /// windows are evaluated against `config.slo`. Enable *before* the
    /// run; records pushed earlier are not replayed.
    pub fn enable_live(&self, config: LiveConfig) {
        let empty = self.intern("");
        let live_label = self.intern("live");
        *self.live.borrow_mut() = Some(LiveAgg::new(config, empty, live_label));
    }

    /// Whether [`Recorder::enable_live`] was called.
    pub fn live_enabled(&self) -> bool {
        self.live.borrow().is_some()
    }

    /// Installs a callback invoked once per sealed window (watermark
    /// seals during the run, then the rest at [`Recorder::live_report`]).
    /// The callback must not record into this recorder — the live tier is
    /// borrowed for the duration of the call.
    pub fn on_live_seal(&self, hook: SealHook) {
        if let Some(live) = self.live.borrow_mut().as_mut() {
            live.on_seal(hook);
        }
    }

    /// Seals every remaining window and returns the live tier's report
    /// (`None` when live telemetry was never enabled). Idempotent: calling
    /// it again re-derives the same report without double-counting.
    pub fn live_report(&self) -> Option<LiveReport> {
        let mut guard = self.live.borrow_mut();
        let agg = guard.as_mut()?;
        agg.finish(&self.registry);
        Some(agg.report(&self.interner))
    }

    /// Interns a name; cheap (one hash lookup) after first sight.
    pub fn intern(&self, s: &str) -> Label {
        self.interner.borrow_mut().intern(s)
    }

    /// Resolves an interned label back to its string.
    ///
    /// # Panics
    ///
    /// Panics if `label` did not come from this recorder.
    pub fn name(&self, label: Label) -> String {
        self.interner.borrow().names[label.0 as usize].clone()
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Snapshot of retained trace records, oldest first.
    pub fn events(&self) -> Vec<TraceRecord> {
        self.ring.borrow().snapshot()
    }

    /// Records overwritten because the ring filled.
    pub fn overwritten(&self) -> u64 {
        self.ring.borrow().overwritten()
    }

    /// Total records ever pushed.
    pub fn recorded(&self) -> u64 {
        self.next_seq.get()
    }

    fn push(&self, at_ns: u64, event: TraceEvent) {
        self.push_with_journey(at_ns, event, self.current_journey.get());
    }

    fn push_with_journey(&self, at_ns: u64, event: TraceEvent, journey: Option<u64>) {
        let seq = self.next_seq.get();
        self.next_seq.set(seq + 1);
        let record = TraceRecord {
            at_ns,
            seq,
            packet: self.current_packet.get(),
            journey,
            event,
        };
        self.ring.borrow_mut().push(record);
        // The live tier rides the same push: online aggregation at record
        // time, so its view survives ring wraparound.
        if let Some(live) = self.live.borrow_mut().as_mut() {
            live.feed(&record, &self.registry, &self.interner);
        }
    }

    /// Bumps a counter by `delta`.
    pub fn count(&self, scope: Scope, label: Label, metric: &'static str, delta: u64) {
        self.registry.add(
            CounterKey {
                scope,
                label,
                metric,
            },
            delta,
        );
    }

    /// Records a latency observation into the named histogram.
    pub fn record_latency(&self, hist: Label, ns: u64) {
        self.registry.record_hist(hist, ns);
    }

    /// Records a latency observation into the named histogram *and* the
    /// ring, so the timeline can recover per-window percentiles that the
    /// whole-run histogram flattens away.
    pub fn sample(&self, at_ns: u64, hist: Label, ns: u64) {
        self.registry.record_hist(hist, ns);
        self.push(at_ns, TraceEvent::LatencySample { hist, ns });
    }

    // --- instrumentation entry points -----------------------------------

    /// A frame arrived at a NIC: assigns the next per-packet ID, marks it
    /// current (subsequent records are attributed to it until
    /// [`Recorder::packet_done`]), and records the arrival.
    pub fn packet_arrival(&self, at_ns: u64, nic: &str, bytes: usize) -> u64 {
        self.packet_arrival_hop(at_ns, nic, "", bytes, None).0
    }

    /// Like [`Recorder::packet_arrival`], but with the receiving machine's
    /// name and the journey tag the frame carried across the wire (`None`
    /// for a frame whose transmit predates the recorder — a fresh journey
    /// is allocated). Returns `(packet_id, journey_id)`. Subsequent
    /// records are tagged with both until [`Recorder::packet_done`].
    pub fn packet_arrival_hop(
        &self,
        at_ns: u64,
        nic: &str,
        host: &str,
        bytes: usize,
        journey: Option<u64>,
    ) -> (u64, u64) {
        let id = self.next_packet.get();
        self.next_packet.set(id + 1);
        self.current_packet.set(Some(id));
        let journey = journey.unwrap_or_else(|| self.alloc_journey());
        self.current_journey.set(Some(journey));
        let nic = self.intern(nic);
        let host = self.intern(host);
        self.push(
            at_ns,
            TraceEvent::PacketArrival {
                nic,
                host,
                bytes: bytes as u32,
            },
        );
        self.count(Scope::Packet, nic, "arrivals", 1);
        self.count(Scope::Packet, nic, "bytes", bytes as u64);
        (id, journey)
    }

    /// The current packet's processing chain has left the instrumented
    /// path; later records are no longer attributed to it.
    pub fn packet_done(&self) {
        self.current_packet.set(None);
        self.current_journey.set(None);
        if let Some(live) = self.live.borrow_mut().as_mut() {
            live.packet_done();
        }
    }

    /// The packet ID currently in flight, if any.
    pub fn current_packet(&self) -> Option<u64> {
        self.current_packet.get()
    }

    /// The journey currently in flight, if any.
    pub fn current_journey(&self) -> Option<u64> {
        self.current_journey.get()
    }

    /// Severs the causal chain: frames transmitted after this point (but
    /// still within the current packet's processing) start a *new*
    /// journey. Ping-pong benchmarks call this before sending round
    /// `k + 1` from round `k`'s receive handler, so every round is its own
    /// journey rather than one endless chain.
    pub fn journey_break(&self) {
        self.current_journey.set(None);
    }

    fn alloc_journey(&self) -> u64 {
        let id = self.next_journey.get();
        self.next_journey.set(id + 1);
        id
    }

    /// The journey a transmit belongs to: the one in flight if the frame
    /// is sent from inside a packet's processing chain, otherwise a fresh
    /// one (an origin send from timer/engine context). Does *not* make the
    /// fresh journey current — it lives only on the wire until delivery.
    pub fn tx_journey(&self) -> u64 {
        match self.current_journey.get() {
            Some(j) => j,
            None => self.alloc_journey(),
        }
    }

    /// A verified guard was evaluated during an event raise.
    pub fn guard_eval(&self, at_ns: u64, event: Label, matched: bool) {
        self.push(at_ns, TraceEvent::GuardEval { event, matched });
        let metric = if matched {
            "verified.accepts"
        } else {
            "verified.rejects"
        };
        self.count(Scope::Guard, event, metric, 1);
    }

    /// The static-bound cross-check for one verified-guard evaluation:
    /// `measured` abstract cycles actually spent against the program's
    /// static worst-case `bound`. Counters only (no ring record), so the
    /// check adds nothing to ring pressure and its absence changes
    /// nothing. A non-zero `cycles.exceeded` means the verifier's bound
    /// was wrong — the invariant the profile suite asserts never happens.
    pub fn guard_cost(&self, event: Label, measured: u64, bound: u64) {
        self.count(Scope::Guard, event, "cycles.measured", measured);
        self.count(Scope::Guard, event, "cycles.bound", bound);
        if measured > bound {
            self.count(Scope::Guard, event, "cycles.exceeded", 1);
        }
    }

    /// A handler began executing. Returns the span-correlation ID the
    /// caller must hand back to [`Recorder::handler_exit`] so the profiler
    /// can pair the records even across ring wraparound.
    pub fn handler_enter(&self, at_ns: u64, event: Label, domain: Label) -> u64 {
        let span = self.next_span.get();
        self.next_span.set(span + 1);
        self.push(
            at_ns,
            TraceEvent::HandlerEnter {
                event,
                domain,
                span,
            },
        );
        self.count(Scope::Handler, event, "invocations", 1);
        self.count(Scope::Domain, domain, "invocations", 1);
        span
    }

    /// A handler finished executing; `span` is the ID its enter returned.
    pub fn handler_exit(&self, at_ns: u64, event: Label, domain: Label, span: u64) {
        self.push(
            at_ns,
            TraceEvent::HandlerExit {
                event,
                domain,
                span,
            },
        );
    }

    /// An over-budget ephemeral handler was terminated (§3.3).
    pub fn handler_terminated(&self, at_ns: u64, event: Label, domain: Label) {
        let reason = self.intern("handler_terminated");
        self.push(
            at_ns,
            TraceEvent::Drop {
                layer: event,
                reason,
            },
        );
        self.count(Scope::Domain, domain, "terminations", 1);
        self.count(Scope::Drop, reason, "count", 1);
    }

    /// A packet was dropped at `layer` for `reason`.
    pub fn packet_drop(&self, at_ns: u64, layer: &str, reason: &str) {
        let layer = self.intern(layer);
        let reason = self.intern(reason);
        self.push(at_ns, TraceEvent::Drop { layer, reason });
        self.count(Scope::Drop, reason, "count", 1);
    }

    /// A frame was handed to a NIC's transmitter at `at_ns` (the instant
    /// the driver's CPU work finished); the wire costs follow as explicit
    /// durations. Attributed to the packet currently in flight, if any —
    /// for a forwarded or echoed frame that is the packet being answered.
    #[allow(clippy::too_many_arguments)]
    pub fn packet_tx(
        &self,
        at_ns: u64,
        nic: &str,
        bytes: usize,
        wait_ns: u64,
        ser_ns: u64,
        prop_ns: u64,
    ) {
        let journey = self.current_journey.get();
        self.packet_tx_journey(at_ns, nic, bytes, wait_ns, ser_ns, prop_ns, journey);
    }

    /// [`Recorder::packet_tx`] with an explicit journey tag, used by the
    /// NIC so an origin send (no journey in flight) records the freshly
    /// allocated journey its delivery will inherit.
    #[allow(clippy::too_many_arguments)]
    pub fn packet_tx_journey(
        &self,
        at_ns: u64,
        nic: &str,
        bytes: usize,
        wait_ns: u64,
        ser_ns: u64,
        prop_ns: u64,
        journey: Option<u64>,
    ) {
        self.packet_tx_queued(at_ns, nic, bytes, 0, wait_ns, ser_ns, prop_ns, journey);
    }

    /// [`Recorder::packet_tx_journey`] with the transmit-queue share of
    /// the wait made explicit: `queue_ns <= wait_ns` is the time the frame
    /// sat behind the NIC's own tx backlog (ring/doorbell queue) before
    /// the wire was even contended. The journey pass attributes it to a
    /// `tx_queue` segment instead of folding it into medium wait.
    #[allow(clippy::too_many_arguments)]
    pub fn packet_tx_queued(
        &self,
        at_ns: u64,
        nic: &str,
        bytes: usize,
        queue_ns: u64,
        wait_ns: u64,
        ser_ns: u64,
        prop_ns: u64,
        journey: Option<u64>,
    ) {
        self.packet_tx_hop(
            at_ns, nic, "", bytes, queue_ns, wait_ns, ser_ns, prop_ns, journey,
        );
    }

    /// [`Recorder::packet_tx_queued`] with the transmitting machine's name
    /// — what `sim::nic` calls. NIC names repeat across machines, so the
    /// host is what lets the live tier's per-machine scopes attribute a
    /// transmit to the right endpoint.
    #[allow(clippy::too_many_arguments)]
    pub fn packet_tx_hop(
        &self,
        at_ns: u64,
        nic: &str,
        host: &str,
        bytes: usize,
        queue_ns: u64,
        wait_ns: u64,
        ser_ns: u64,
        prop_ns: u64,
        journey: Option<u64>,
    ) {
        debug_assert!(queue_ns <= wait_ns, "queue wait is a share of the wait");
        let nic = self.intern(nic);
        let host = self.intern(host);
        self.push_with_journey(
            at_ns,
            TraceEvent::PacketTx {
                nic,
                host,
                bytes: bytes as u32,
                queue_ns,
                wait_ns,
                ser_ns,
                prop_ns,
            },
            journey,
        );
        self.count(Scope::Packet, nic, "tx_frames", 1);
        self.count(Scope::Packet, nic, "tx_bytes", bytes as u64);
        self.count(Scope::Packet, nic, "tx_wait_ns", wait_ns);
        if queue_ns > 0 {
            self.count(Scope::Packet, nic, "tx_queue_ns", queue_ns);
        }
    }

    /// A receive interrupt delivered `frames` frames, leaving `ring_after`
    /// queued. Ring record only — the coalescing counters are kept by the
    /// NIC; the per-frame path records `frames == 1, ring_after == 0`.
    pub fn rx_interrupt(&self, at_ns: u64, nic: &str, frames: usize, ring_after: usize) {
        self.rx_interrupt_hop(at_ns, nic, "", frames, ring_after);
    }

    /// [`Recorder::rx_interrupt`] with the interrupted machine's name, so
    /// the live tier can attribute interrupt load per machine.
    pub fn rx_interrupt_hop(
        &self,
        at_ns: u64,
        nic: &str,
        host: &str,
        frames: usize,
        ring_after: usize,
    ) {
        let nic = self.intern(nic);
        let host = self.intern(host);
        self.push(
            at_ns,
            TraceEvent::RxInterrupt {
                nic,
                host,
                frames: frames as u32,
                ring_after: ring_after as u32,
            },
        );
    }

    /// A cancelable engine timer fired.
    pub fn timer_fire(&self, at_ns: u64) {
        self.push(at_ns, TraceEvent::TimerFire);
        let label = self.intern("engine");
        self.count(Scope::Timer, label, "fires", 1);
    }

    /// A user/kernel boundary crossing (trap, copyin, copyout).
    pub fn crossing(&self, at_ns: u64, dir: CrossDir, bytes: usize) {
        self.push(
            at_ns,
            TraceEvent::Crossing {
                dir,
                bytes: bytes as u32,
            },
        );
        let label = self.intern(dir.name());
        self.count(Scope::Crossing, label, "count", 1);
        self.count(Scope::Crossing, label, "bytes", bytes as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable_and_reversible() {
        let rec = Recorder::new(8);
        let a = rec.intern("udp_recv");
        let b = rec.intern("ip_recv");
        assert_ne!(a, b);
        assert_eq!(rec.intern("udp_recv"), a);
        assert_eq!(rec.name(a), "udp_recv");
        assert_eq!(rec.name(b), "ip_recv");
    }

    #[test]
    fn packet_ids_are_sequential_and_attributed() {
        let rec = Recorder::new(32);
        let p0 = rec.packet_arrival(100, "Ethernet", 60);
        let ev = rec.intern("eth_recv");
        let dom = rec.intern("kernel");
        let span = rec.handler_enter(150, ev, dom);
        assert_eq!(span, 0, "span IDs start at zero");
        assert_eq!(rec.handler_enter(160, ev, dom), 1, "span IDs are dense");
        rec.handler_exit(170, ev, dom, 1);
        rec.handler_exit(180, ev, dom, span);
        rec.packet_done();
        let p1 = rec.packet_arrival(900, "Ethernet", 61);
        rec.packet_done();
        assert_eq!((p0, p1), (0, 1));
        let evs = rec.events();
        assert_eq!(evs.len(), 6);
        assert_eq!(evs[0].packet, Some(0));
        assert_eq!(evs[1].packet, Some(0), "handler attributed to packet 0");
        assert_eq!(evs[5].packet, Some(1));
        assert_eq!(evs[1].at_ns, 150);
        // Counters landed.
        let key = CounterKey {
            scope: Scope::Packet,
            label: rec.intern("Ethernet"),
            metric: "arrivals",
        };
        assert_eq!(rec.registry().get(key), 2);
    }

    #[test]
    fn guard_counters_split_by_verdict() {
        let rec = Recorder::new(8);
        let ev = rec.intern("udp_recv");
        rec.guard_eval(1, ev, true);
        rec.guard_eval(2, ev, false);
        rec.guard_eval(3, ev, true);
        let get = |metric| {
            rec.registry().get(CounterKey {
                scope: Scope::Guard,
                label: ev,
                metric,
            })
        };
        assert_eq!(get("verified.accepts"), 2);
        assert_eq!(get("verified.rejects"), 1);
    }
}
