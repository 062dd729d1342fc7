//! Streaming telemetry: online windowed aggregation, per-machine scopes,
//! tail sampling, and SLO health — computed at *record* time.
//!
//! Every other exporter is a post-hoc fold over the bounded flight-recorder
//! ring, so a run longer than the ring loses telemetry to truncation. This
//! tier is fed from `Recorder::push` itself (see
//! [`crate::Recorder::enable_live`]): its memory is bounded by *metric
//! cardinality* — `O(windows × labels)` plus the open window's latency
//! samples and the bounded sampling buffers — never by event count, which
//! is the shape production monitoring pipelines need and the ROADMAP's
//! thousand-host worlds require. The ring and its folds remain the ground
//! truth: on truncation-free runs the live windows are **value-identical**
//! to [`crate::timeline::build`] (property-tested), and `live_json` reuses
//! the timeline's per-window serializer so equal values are equal bytes.
//!
//! Four pieces:
//!
//! * **Windowed aggregators** — the same per-window arrivals/tx/goodput,
//!   drops by `(layer, reason)`, interrupt rate, and nearest-rank p50/p99
//!   the timeline computes, but sealed online: a window closes once the
//!   watermark (max non-transmit timestamp seen) is a full lag window past
//!   its end, at which point its percentiles are fixed, its latency-sample
//!   buffer is freed, its SLO verdict is evaluated, and the seal callback
//!   fires. Transmit records are future-stamped, so they never advance the
//!   watermark; the one-window lag absorbs the bounded timestamp skew of
//!   cross-machine CPU leases. Records that still land behind a sealed
//!   window are folded into the counts and counted as `late_records`
//!   (percentiles stay as sealed).
//! * **Per-machine scopes** — a world → machine → layer roll-up replacing
//!   the flat registry view: arrivals, transmits, completions, interrupts,
//!   and drops per machine, handler/guard/drop counts per layer under each
//!   machine. Records outside any machine attribution land in an explicit
//!   `unattributed` scope, so `world == Σ machines + unattributed` holds
//!   exactly. The aggregator state is `Send` (owned maps, `Copy` keys, a
//!   `Send` callback), ready for the parallel-engine refactor.
//! * **Tail sampling** — journey record chains are retained for a
//!   deterministic 1-in-N of journey IDs plus the running worst latency
//!   sample per window, with bounded scratch buffers for undecided
//!   journeys. Retained journeys survive ring wraparound.
//! * **SLO health** — a declarative [`Slo`] (p99 ceiling, drop-rate
//!   ceiling, goodput floor) evaluated per sealed window; breaches
//!   accumulate in the report and in `trace.live.slo_breaches`, which is
//!   what `plexus-replay health` turns into a CI exit code.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::json::escape;
use crate::recorder::{Interner, Label};
use crate::registry::{CounterKey, Registry, Scope};
use crate::timeline::{percentile, window_json, Timeline, Window};
use crate::{TraceEvent, TraceRecord};

/// Windows are sealed this many full windows behind the watermark, so a
/// record whose timestamp lags the maximum seen (cross-machine CPU-lease
/// skew) still lands in an open window.
const SEAL_LAG_WINDOWS: u64 = 1;

/// Declarative per-scenario service-level objectives, evaluated against
/// every sealed window.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Slo {
    /// Ceiling on a window's nearest-rank p99 latency (windows with no
    /// completions are exempt — there is no percentile to judge).
    pub p99_ceiling_ns: Option<u64>,
    /// Ceiling on a window's drops per million arrivals. A window with
    /// drops but no arrivals counts as 1,000,000 ppm.
    pub drop_ppm_ceiling: Option<u64>,
    /// Floor on a window's completions (the goodput series). Applied only
    /// to windows sealed *online* — the trailing windows sealed at finish
    /// are partial by construction — and only from `skip_head` onward.
    pub goodput_floor: Option<u64>,
    /// Number of leading windows exempt from the goodput floor (warmup).
    pub skip_head: u64,
}

impl Slo {
    /// An SLO with no thresholds (every window passes).
    pub const fn none() -> Slo {
        Slo {
            p99_ceiling_ns: None,
            drop_ppm_ceiling: None,
            goodput_floor: None,
            skip_head: 0,
        }
    }
}

/// Configuration for the live tier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LiveConfig {
    /// Window width in simulated nanoseconds.
    pub window_ns: u64,
    /// Retain every journey whose ID is `0 mod sample_every` (0 disables
    /// the 1-in-N sample; the per-window worst is kept regardless).
    pub sample_every: u64,
    /// Cap on retained records per sampled journey; overflow is counted,
    /// never silent.
    pub max_journey_records: usize,
    /// Cap on concurrently buffered *undecided* journeys (scratch space
    /// for promoting a journey to "worst in window" after the fact); the
    /// least recently touched is evicted.
    pub max_active_journeys: usize,
    /// Thresholds evaluated per sealed window (`None`: no health layer).
    pub slo: Option<Slo>,
}

impl LiveConfig {
    /// Defaults: 1-in-64 journey sampling, 128 records per journey, 64
    /// active scratch buffers, no SLO.
    pub fn new(window_ns: u64) -> LiveConfig {
        assert!(window_ns > 0, "window width must be positive");
        LiveConfig {
            window_ns,
            sample_every: 64,
            max_journey_records: 128,
            max_active_journeys: 64,
            slo: None,
        }
    }
}

/// Which SLO threshold a window violated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreachKind {
    /// Window p99 exceeded [`Slo::p99_ceiling_ns`].
    P99Ceiling,
    /// Window drops-per-million-arrivals exceeded [`Slo::drop_ppm_ceiling`].
    DropRate,
    /// Window completions fell below [`Slo::goodput_floor`].
    GoodputFloor,
}

impl BreachKind {
    /// Stable lowercase name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            BreachKind::P99Ceiling => "p99_ceiling",
            BreachKind::DropRate => "drop_rate",
            BreachKind::GoodputFloor => "goodput_floor",
        }
    }
}

/// One SLO violation: which window, which threshold, observed vs limit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Breach {
    /// Index of the sealed window that violated the threshold.
    pub window: u64,
    /// Which threshold.
    pub kind: BreachKind,
    /// The observed value (ns, ppm, or completions).
    pub value: u64,
    /// The configured limit it was checked against.
    pub limit: u64,
}

/// What the seal callback sees for one freshly sealed window.
pub struct SealedWindow<'a> {
    /// The window's index.
    pub index: u64,
    /// `true` when sealed by the advancing watermark during the run,
    /// `false` when sealed at [`crate::Recorder::live_report`] (trailing
    /// windows are partial).
    pub online: bool,
    /// The sealed aggregates. The `drops` map is resolved only at report
    /// time; use `drop_count` here.
    pub window: &'a Window,
    /// Total drops in this window.
    pub drop_count: u64,
    /// SLO breaches this window triggered (empty without an SLO).
    pub breaches: &'a [Breach],
}

/// Sealed-window callback. `Send` so aggregator state stays shippable to a
/// worker thread; must not re-enter the owning recorder.
pub type SealHook = Box<dyn FnMut(&SealedWindow<'_>) + Send>;

/// Flat counters kept at every scope level (world, machine, unattributed).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScopeCounters {
    /// Frames that arrived at any NIC in this scope.
    pub arrivals: u64,
    /// Bytes across those arrivals.
    pub arrival_bytes: u64,
    /// Frames handed to any transmitter in this scope.
    pub tx_frames: u64,
    /// Bytes across those transmits.
    pub tx_bytes: u64,
    /// Latency samples completed in this scope.
    pub completions: u64,
    /// Receive interrupts taken in this scope.
    pub interrupts: u64,
    /// Drops recorded in this scope.
    pub drops: u64,
}

impl ScopeCounters {
    /// Field-wise accumulation — the roll-up primitive a parallel engine
    /// will use to merge per-worker aggregates.
    pub fn add(&mut self, other: &ScopeCounters) {
        self.arrivals += other.arrivals;
        self.arrival_bytes += other.arrival_bytes;
        self.tx_frames += other.tx_frames;
        self.tx_bytes += other.tx_bytes;
        self.completions += other.completions;
        self.interrupts += other.interrupts;
        self.drops += other.drops;
    }
}

/// Per-layer counters under one machine scope. Layers are the lowercased
/// dot-prefix of event names ([`crate::profile::layer_of`]), the same
/// vocabulary the profiler charges.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerCounters {
    /// Handler invocations in this layer.
    pub handlers: u64,
    /// Guard evaluations in this layer.
    pub guard_evals: u64,
    /// Drops attributed to this layer.
    pub drops: u64,
}

#[derive(Debug, Default)]
struct ScopeAgg {
    c: ScopeCounters,
    layers: BTreeMap<Label, LayerCounters>,
}

struct LiveWin {
    w: Window,
    /// Drops keyed by interned labels; resolved to strings at report time
    /// (the hot path never touches the interner for a drop).
    drops: BTreeMap<(Label, Label), u64>,
    /// Latency samples of the still-open window; freed at seal.
    samples: Vec<u64>,
    sealed: bool,
    online: bool,
}

impl LiveWin {
    fn new(index: u64) -> LiveWin {
        LiveWin {
            w: Window {
                index,
                ..Window::default()
            },
            drops: BTreeMap::new(),
            samples: Vec::new(),
            sealed: false,
            online: false,
        }
    }
}

/// Scratch buffer for a journey not (yet) selected for retention.
#[derive(Debug, Default)]
struct JourneyBuf {
    records: Vec<TraceRecord>,
    dropped: u64,
    last_seq: u64,
}

/// A journey retained by the tail sampler.
#[derive(Debug)]
struct Retained {
    records: Vec<TraceRecord>,
    dropped: u64,
    /// Selected by the deterministic 1-in-N rule.
    nth: bool,
    /// Windows where this journey holds the worst latency sample.
    worst: BTreeSet<u64>,
    max_sample_ns: u64,
}

/// The live tier's aggregator state. Owned by the recorder; all state is
/// `Send`-capable (owned maps, `Copy` keys) so a future parallel engine
/// can run one per worker and merge.
pub struct LiveAgg {
    cfg: LiveConfig,
    empty: Label,
    live_label: Label,
    wins: Vec<LiveWin>,
    /// Max non-transmit timestamp seen (transmits are future-stamped).
    watermark: u64,
    /// Index of the first unsealed window.
    sealed_upto: usize,
    windows_sealed_online: u64,
    late_records: u64,
    current_machine: Option<Label>,
    world: ScopeAgg,
    machines: BTreeMap<Label, ScopeAgg>,
    unattributed: ScopeAgg,
    /// Event label → layer label, so layer derivation does string work
    /// once per distinct event name, not once per record.
    layer_cache: BTreeMap<Label, Label>,
    scratch: BTreeMap<u64, JourneyBuf>,
    retained: BTreeMap<u64, Retained>,
    /// window index → (worst sample ns, journey holding it).
    worst_by_window: BTreeMap<u64, (u64, u64)>,
    scratch_evicted: u64,
    sampled_records_dropped: u64,
    breaches: Vec<Breach>,
    on_seal: Option<SealHook>,
}

impl fmt::Debug for LiveAgg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LiveAgg")
            .field("cfg", &self.cfg)
            .field("windows", &self.wins.len())
            .field("watermark", &self.watermark)
            .field("sealed_upto", &self.sealed_upto)
            .field("machines", &self.machines.len())
            .field("retained", &self.retained.len())
            .finish_non_exhaustive()
    }
}

impl LiveAgg {
    /// Fresh aggregator state. `empty`/`live_label` are the pre-interned
    /// `""` and `"live"` labels (the feed path never interns).
    pub(crate) fn new(cfg: LiveConfig, empty: Label, live_label: Label) -> LiveAgg {
        assert!(cfg.window_ns > 0, "window width must be positive");
        LiveAgg {
            cfg,
            empty,
            live_label,
            wins: Vec::new(),
            watermark: 0,
            sealed_upto: 0,
            windows_sealed_online: 0,
            late_records: 0,
            current_machine: None,
            world: ScopeAgg::default(),
            machines: BTreeMap::new(),
            unattributed: ScopeAgg::default(),
            layer_cache: BTreeMap::new(),
            scratch: BTreeMap::new(),
            retained: BTreeMap::new(),
            worst_by_window: BTreeMap::new(),
            scratch_evicted: 0,
            sampled_records_dropped: 0,
            breaches: Vec::new(),
            on_seal: None,
        }
    }

    pub(crate) fn on_seal(&mut self, hook: SealHook) {
        self.on_seal = Some(hook);
    }

    /// The packet attribution window closed; subsequent records are
    /// machine-unattributed until the next arrival.
    pub(crate) fn packet_done(&mut self) {
        self.current_machine = None;
    }

    fn bump_scope(&mut self, machine: Option<Label>, f: impl Fn(&mut ScopeCounters)) {
        f(&mut self.world.c);
        match machine {
            Some(m) => f(&mut self.machines.entry(m).or_default().c),
            None => f(&mut self.unattributed.c),
        }
    }

    fn bump_layer(&mut self, machine: Option<Label>, layer: Label, f: impl Fn(&mut LayerCounters)) {
        f(self.world.layers.entry(layer).or_default());
        let scope = match machine {
            Some(m) => self.machines.entry(m).or_default(),
            None => &mut self.unattributed,
        };
        f(scope.layers.entry(layer).or_default());
    }

    /// Layer label of an event label, via the cache (string work happens
    /// once per distinct event name).
    fn layer_label(&mut self, raw: Label, interner: &RefCell<Interner>) -> Label {
        if let Some(&l) = self.layer_cache.get(&raw) {
            return l;
        }
        let layer = {
            let names = interner.borrow();
            crate::profile::layer_of(names.get(raw))
        };
        let l = interner.borrow_mut().intern(&layer);
        self.layer_cache.insert(raw, l);
        l
    }

    fn machine_or_current(&self, host: Label) -> Option<Label> {
        if host == self.empty {
            self.current_machine
        } else {
            Some(host)
        }
    }

    fn ensure_windows(&mut self, idx: usize) {
        while self.wins.len() <= idx {
            self.wins.push(LiveWin::new(self.wins.len() as u64));
        }
    }

    fn live_count(&self, reg: &Registry, metric: &'static str, delta: u64) {
        reg.add(
            CounterKey {
                scope: Scope::Trace,
                label: self.live_label,
                metric,
            },
            delta,
        );
    }

    /// Folds one just-pushed record into the aggregators. Called from the
    /// recorder's push path; never interns, never touches the ring.
    pub(crate) fn feed(&mut self, r: &TraceRecord, reg: &Registry, interner: &RefCell<Interner>) {
        let idx = (r.at_ns / self.cfg.window_ns) as usize;
        self.ensure_windows(idx);
        if self.wins[idx].sealed {
            // Counts still fold (the window struct is retained); the
            // percentiles are already fixed. The lag makes this a
            // shouldn't-happen — the counter is the tripwire.
            self.late_records += 1;
            self.live_count(reg, "late_records", 1);
        }

        match r.event {
            TraceEvent::PacketArrival { host, bytes, .. } => {
                let w = &mut self.wins[idx].w;
                w.arrivals += 1;
                w.arrival_bytes += u64::from(bytes);
                self.current_machine = (host != self.empty).then_some(host);
                self.bump_scope(self.current_machine, |c| {
                    c.arrivals += 1;
                    c.arrival_bytes += u64::from(bytes);
                });
            }
            TraceEvent::PacketTx {
                host,
                bytes,
                queue_ns,
                wait_ns,
                ..
            } => {
                let w = &mut self.wins[idx].w;
                w.tx_frames += 1;
                w.tx_bytes += u64::from(bytes);
                w.tx_wait_max_ns = w.tx_wait_max_ns.max(wait_ns);
                w.tx_queue_max_ns = w.tx_queue_max_ns.max(queue_ns);
                let machine = self.machine_or_current(host);
                self.bump_scope(machine, |c| {
                    c.tx_frames += 1;
                    c.tx_bytes += u64::from(bytes);
                });
            }
            TraceEvent::LatencySample { ns, .. } => {
                let win = &mut self.wins[idx];
                win.w.completions += 1;
                if !win.sealed {
                    win.samples.push(ns);
                }
                self.bump_scope(self.current_machine, |c| c.completions += 1);
                if let Some(j) = r.journey {
                    self.note_worst(idx as u64, j, ns, reg);
                }
            }
            TraceEvent::RxInterrupt {
                host,
                frames,
                ring_after,
                ..
            } => {
                let w = &mut self.wins[idx].w;
                w.interrupts += 1;
                w.interrupt_frames += u64::from(frames);
                w.rx_ring_highwater = w
                    .rx_ring_highwater
                    .max(u64::from(frames) + u64::from(ring_after));
                let machine = self.machine_or_current(host);
                self.bump_scope(machine, |c| c.interrupts += 1);
            }
            TraceEvent::Drop { layer, reason } => {
                *self.wins[idx].drops.entry((layer, reason)).or_insert(0) += 1;
                let machine = self.current_machine;
                let layer = self.layer_label(layer, interner);
                self.bump_scope(machine, |c| c.drops += 1);
                self.bump_layer(machine, layer, |l| l.drops += 1);
            }
            TraceEvent::HandlerEnter { event, .. } => {
                let machine = self.current_machine;
                let layer = self.layer_label(event, interner);
                self.bump_layer(machine, layer, |l| l.handlers += 1);
            }
            TraceEvent::GuardEval { event, .. } => {
                let machine = self.current_machine;
                let layer = self.layer_label(event, interner);
                self.bump_layer(machine, layer, |l| l.guard_evals += 1);
            }
            TraceEvent::HandlerExit { .. }
            | TraceEvent::TimerFire
            | TraceEvent::Crossing { .. } => {}
        }

        self.sample_journey(r, reg);

        // Watermark sealing: transmits are stamped at their (possibly
        // future) handover instant and must not close windows early.
        if !matches!(r.event, TraceEvent::PacketTx { .. }) && r.at_ns > self.watermark {
            self.watermark = r.at_ns;
            let boundary = self.watermark / self.cfg.window_ns;
            while (self.sealed_upto as u64) + SEAL_LAG_WINDOWS < boundary {
                self.seal(self.sealed_upto, true, reg);
                self.sealed_upto += 1;
            }
        }
    }

    /// Appends a journey-tagged record to its retained entry, its
    /// nth-sample entry (created on first sight), or its scratch buffer.
    fn sample_journey(&mut self, r: &TraceRecord, reg: &Registry) {
        let Some(j) = r.journey else { return };
        if let Some(e) = self.retained.get_mut(&j) {
            if e.records.len() < self.cfg.max_journey_records {
                e.records.push(*r);
            } else {
                e.dropped += 1;
                self.sampled_records_dropped += 1;
            }
            return;
        }
        if self.cfg.sample_every > 0 && j % self.cfg.sample_every == 0 {
            self.retain(j, true, reg);
            self.sample_journey(r, reg);
            return;
        }
        let buf = self.scratch.entry(j).or_default();
        if buf.records.len() < self.cfg.max_journey_records {
            buf.records.push(*r);
        } else {
            buf.dropped += 1;
        }
        buf.last_seq = r.seq;
        if self.scratch.len() > self.cfg.max_active_journeys {
            // Evict the least recently touched buffer, deterministically.
            if let Some((&victim, _)) = self.scratch.iter().min_by_key(|(id, b)| (b.last_seq, **id))
            {
                self.scratch.remove(&victim);
                self.scratch_evicted += 1;
            }
        }
    }

    /// Moves journey `j` from scratch to the retained store.
    fn retain(&mut self, j: u64, nth: bool, reg: &Registry) {
        if self.retained.contains_key(&j) {
            return;
        }
        let (records, dropped) = match self.scratch.remove(&j) {
            Some(b) => (b.records, b.dropped),
            None => (Vec::new(), 0),
        };
        self.retained.insert(
            j,
            Retained {
                records,
                dropped,
                nth,
                worst: BTreeSet::new(),
                max_sample_ns: 0,
            },
        );
        self.live_count(reg, "journeys_sampled", 1);
    }

    /// A latency sample completed for journey `j`: keep it if it is the
    /// window's new worst, demoting the previous holder.
    fn note_worst(&mut self, window: u64, j: u64, ns: u64, reg: &Registry) {
        let prev = self.worst_by_window.get(&window).copied();
        if let Some((best, _)) = prev {
            if ns <= best {
                return;
            }
        }
        if let Some((_, prev_j)) = prev {
            if prev_j != j {
                let remove = match self.retained.get_mut(&prev_j) {
                    Some(e) => {
                        e.worst.remove(&window);
                        e.worst.is_empty() && !e.nth
                    }
                    None => false,
                };
                if remove {
                    self.retained.remove(&prev_j);
                }
            }
        }
        self.worst_by_window.insert(window, (ns, j));
        self.retain(j, false, reg);
        let e = self.retained.get_mut(&j).expect("just retained");
        e.worst.insert(window);
        e.max_sample_ns = e.max_sample_ns.max(ns);
    }

    fn seal(&mut self, idx: usize, online: bool, reg: &Registry) {
        let slo = self.cfg.slo.clone();
        let live_label = self.live_label;
        let count = |metric: &'static str, delta: u64| {
            reg.add(
                CounterKey {
                    scope: Scope::Trace,
                    label: live_label,
                    metric,
                },
                delta,
            );
        };
        let win = &mut self.wins[idx];
        debug_assert!(!win.sealed, "window sealed twice");
        win.sealed = true;
        win.online = online;
        win.samples.sort_unstable();
        win.w.p50_ns = percentile(&win.samples, 50.0);
        win.w.p99_ns = percentile(&win.samples, 99.0);
        win.samples = Vec::new();
        if online {
            self.windows_sealed_online += 1;
        }
        count("windows_sealed", 1);

        let drop_count: u64 = win.drops.values().sum();
        let mut breaches = Vec::new();
        if let Some(slo) = &slo {
            let w = &win.w;
            if let Some(ceil) = slo.p99_ceiling_ns {
                if w.completions > 0 && w.p99_ns > ceil {
                    breaches.push(Breach {
                        window: w.index,
                        kind: BreachKind::P99Ceiling,
                        value: w.p99_ns,
                        limit: ceil,
                    });
                }
            }
            if let Some(ceil) = slo.drop_ppm_ceiling {
                // A dropping window with zero arrivals pins the rate at
                // 1M ppm rather than dividing by zero.
                let ppm = drop_count
                    .saturating_mul(1_000_000)
                    .checked_div(w.arrivals)
                    .unwrap_or(if drop_count > 0 { 1_000_000 } else { 0 });
                if ppm > ceil {
                    breaches.push(Breach {
                        window: w.index,
                        kind: BreachKind::DropRate,
                        value: ppm,
                        limit: ceil,
                    });
                }
            }
            if let Some(floor) = slo.goodput_floor {
                if online && w.index >= slo.skip_head && w.completions < floor {
                    breaches.push(Breach {
                        window: w.index,
                        kind: BreachKind::GoodputFloor,
                        value: w.completions,
                        limit: floor,
                    });
                }
            }
        }
        if !breaches.is_empty() {
            count("slo_breaches", breaches.len() as u64);
        }
        if let Some(hook) = self.on_seal.as_mut() {
            hook(&SealedWindow {
                index: win.w.index,
                online,
                window: &win.w,
                drop_count,
                breaches: &breaches,
            });
        }
        self.breaches.extend(breaches);
    }

    /// Seals every remaining window (trailing windows are partial: they
    /// never got a watermark a lag past their end). Idempotent.
    pub(crate) fn finish(&mut self, reg: &Registry) {
        while self.sealed_upto < self.wins.len() {
            self.seal(self.sealed_upto, false, reg);
            self.sealed_upto += 1;
        }
    }

    /// Resolves labels and snapshots the aggregators into a report.
    pub(crate) fn report(&self, interner: &RefCell<Interner>) -> LiveReport {
        let names = interner.borrow();
        let windows: Vec<Window> = self
            .wins
            .iter()
            .map(|lw| {
                let mut w = lw.w.clone();
                w.drops = lw
                    .drops
                    .iter()
                    .map(|(&(l, r), &n)| ((names.get(l).to_owned(), names.get(r).to_owned()), n))
                    .collect();
                w
            })
            .collect();
        let view = |agg: &ScopeAgg| ScopeView {
            counters: agg.c,
            layers: agg
                .layers
                .iter()
                .map(|(&l, &c)| (names.get(l).to_owned(), c))
                .collect(),
        };
        let mut machines: Vec<(String, ScopeView)> = self
            .machines
            .iter()
            .map(|(&m, agg)| (names.get(m).to_owned(), view(agg)))
            .collect();
        machines.sort_by(|a, b| a.0.cmp(&b.0));
        let sampled = self
            .retained
            .iter()
            .map(|(&j, e)| SampledJourney {
                journey: j,
                nth: e.nth,
                worst_windows: e.worst.iter().copied().collect(),
                max_sample_ns: e.max_sample_ns,
                records_dropped: e.dropped,
                records: e
                    .records
                    .iter()
                    .map(|r| sampled_record(r, &names))
                    .collect(),
            })
            .collect();
        LiveReport {
            window_ns: self.cfg.window_ns,
            windows,
            windows_sealed_online: self.windows_sealed_online,
            late_records: self.late_records,
            world: view(&self.world),
            machines,
            unattributed: view(&self.unattributed),
            sampled,
            scratch_evicted: self.scratch_evicted,
            sampled_records_dropped: self.sampled_records_dropped,
            slo: self.cfg.slo.clone(),
            breaches: self.breaches.clone(),
        }
    }
}

fn sampled_record(r: &TraceRecord, names: &Interner) -> SampledRecord {
    let (kind, label, detail) = match r.event {
        TraceEvent::PacketArrival { nic, bytes, .. } => {
            ("arrival", names.get(nic).to_owned(), u64::from(bytes))
        }
        TraceEvent::GuardEval { event, matched, .. } => {
            ("guard", names.get(event).to_owned(), u64::from(matched))
        }
        TraceEvent::HandlerEnter { event, .. } => ("handler_enter", names.get(event).to_owned(), 0),
        TraceEvent::HandlerExit { event, .. } => ("handler_exit", names.get(event).to_owned(), 0),
        TraceEvent::Drop { layer, reason } => (
            "drop",
            format!("{}:{}", names.get(layer), names.get(reason)),
            0,
        ),
        TraceEvent::PacketTx { nic, bytes, .. } => {
            ("tx", names.get(nic).to_owned(), u64::from(bytes))
        }
        TraceEvent::RxInterrupt { nic, frames, .. } => {
            ("rx_interrupt", names.get(nic).to_owned(), u64::from(frames))
        }
        TraceEvent::LatencySample { hist, ns } => ("sample", names.get(hist).to_owned(), ns),
        TraceEvent::TimerFire => ("timer", String::new(), 0),
        TraceEvent::Crossing { dir, bytes } => {
            ("crossing", dir.name().to_owned(), u64::from(bytes))
        }
    };
    SampledRecord {
        at_ns: r.at_ns,
        packet: r.packet,
        kind,
        label,
        detail,
    }
}

/// One record of a sampled journey, with labels resolved.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SampledRecord {
    /// Simulated timestamp.
    pub at_ns: u64,
    /// Per-machine packet ID in flight when recorded.
    pub packet: Option<u64>,
    /// Stable event-kind name.
    pub kind: &'static str,
    /// The event's subject (NIC, event table, `layer:reason`, histogram).
    pub label: String,
    /// Kind-specific magnitude (bytes, frames, sample ns; 0 otherwise).
    pub detail: u64,
}

/// One journey retained by the tail sampler, with labels resolved.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SampledJourney {
    /// The world-global journey ID.
    pub journey: u64,
    /// Kept by the deterministic 1-in-N rule.
    pub nth: bool,
    /// Windows in which this journey holds the worst latency sample.
    pub worst_windows: Vec<u64>,
    /// The largest latency sample this journey completed (0 when kept by
    /// the 1-in-N rule without a sample).
    pub max_sample_ns: u64,
    /// Records dropped beyond the per-journey cap — stated, never silent.
    pub records_dropped: u64,
    /// The retained record chain, oldest first.
    pub records: Vec<SampledRecord>,
}

/// One scope level's counters plus its per-layer breakdown.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScopeView {
    /// The flat counters at this level.
    pub counters: ScopeCounters,
    /// Per-layer counters, sorted by layer name.
    pub layers: Vec<(String, LayerCounters)>,
}

/// Snapshot of the live tier after [`crate::Recorder::live_report`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LiveReport {
    /// Window width in simulated nanoseconds.
    pub window_ns: u64,
    /// Dense sealed windows from time zero — value-identical to
    /// [`crate::timeline::build`]'s on a truncation-free run.
    pub windows: Vec<Window>,
    /// Windows sealed by the advancing watermark during the run (the rest
    /// were sealed at report time and are partial by construction).
    pub windows_sealed_online: u64,
    /// Records that landed behind an already-sealed window (counts were
    /// folded; that window's percentiles predate them).
    pub late_records: u64,
    /// World-level roll-up (everything).
    pub world: ScopeView,
    /// Per-machine scopes, sorted by machine name.
    pub machines: Vec<(String, ScopeView)>,
    /// Records attributable to no machine (engine/timer context).
    /// `world == Σ machines + unattributed`, field for field.
    pub unattributed: ScopeView,
    /// Journeys retained by the tail sampler, in journey order.
    pub sampled: Vec<SampledJourney>,
    /// Undecided journey buffers evicted before any retention decision.
    pub scratch_evicted: u64,
    /// Records dropped beyond the per-journey cap, across all journeys.
    pub sampled_records_dropped: u64,
    /// The SLO the windows were judged against, if any.
    pub slo: Option<Slo>,
    /// Every breach, in seal order.
    pub breaches: Vec<Breach>,
}

impl LiveReport {
    /// The windows as a [`Timeline`] (no truncation by construction), for
    /// the worst-window accessors.
    pub fn timeline(&self) -> Timeline {
        Timeline {
            window_ns: self.window_ns,
            windows: self.windows.clone(),
            truncated_records: 0,
        }
    }
}

fn scope_json(out: &mut String, name: &str, view: &ScopeView) {
    let c = &view.counters;
    out.push_str(&format!(
        "{{\"name\": \"{}\", \"arrivals\": {}, \"arrival_bytes\": {}, \
         \"tx_frames\": {}, \"tx_bytes\": {}, \"completions\": {}, \
         \"interrupts\": {}, \"drops\": {}, \"layers\": [",
        escape(name),
        c.arrivals,
        c.arrival_bytes,
        c.tx_frames,
        c.tx_bytes,
        c.completions,
        c.interrupts,
        c.drops
    ));
    for (i, (layer, l)) in view.layers.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{{\"layer\": \"{}\", \"handlers\": {}, \"guard_evals\": {}, \"drops\": {}}}",
            escape(layer),
            l.handlers,
            l.guard_evals,
            l.drops
        ));
    }
    out.push_str("]}");
}

/// Renders the live report as deterministic JSON (schema
/// `plexus.live.v1`). The `windows` array is byte-identical to the
/// timeline's on a truncation-free run; sampled-journey detail is emitted
/// for the first `max_detail` journeys only (the cap is stated).
pub fn live_json(rep: &LiveReport, max_detail: usize) -> String {
    let t = rep.timeline();
    let mut out = String::from("{\n  \"schema\": \"plexus.live.v1\",\n");
    out.push_str(&format!("  \"window_ns\": {},\n", rep.window_ns));
    out.push_str(&format!(
        "  \"windows_sealed_online\": {},\n",
        rep.windows_sealed_online
    ));
    out.push_str(&format!("  \"late_records\": {},\n", rep.late_records));
    out.push_str(&format!(
        "  \"worst_p99_window\": {},\n",
        t.worst_p99_window()
            .map_or(String::from("null"), |w| w.index.to_string())
    ));
    out.push_str(&format!(
        "  \"worst_drop_window\": {},\n",
        t.worst_drop_window()
            .map_or(String::from("null"), |w| w.index.to_string())
    ));

    out.push_str("  \"scopes\": {\"world\": ");
    scope_json(&mut out, "world", &rep.world);
    out.push_str(", \"machines\": [");
    for (i, (name, view)) in rep.machines.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        scope_json(&mut out, name, view);
    }
    out.push_str("], \"unattributed\": ");
    scope_json(&mut out, "", &rep.unattributed);
    out.push_str("},\n");

    let detailed = rep.sampled.len().min(max_detail);
    out.push_str(&format!(
        "  \"sampled_journeys_total\": {},\n",
        rep.sampled.len()
    ));
    out.push_str(&format!("  \"sampled_journeys_detailed\": {detailed},\n"));
    out.push_str(&format!(
        "  \"scratch_evicted\": {},\n  \"sampled_records_dropped\": {},\n",
        rep.scratch_evicted, rep.sampled_records_dropped
    ));
    out.push_str("  \"sampled_journeys\": [");
    for (i, j) in rep.sampled.iter().take(detailed).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"journey\": {}, \"nth\": {}, \"worst_windows\": [{}], \
             \"max_sample_ns\": {}, \"records_dropped\": {}, \"records\": [",
            j.journey,
            j.nth,
            j.worst_windows
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(", "),
            j.max_sample_ns,
            j.records_dropped
        ));
        for (k, r) in j.records.iter().enumerate() {
            if k > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"at_ns\": {}, \"packet\": {}, \"kind\": \"{}\", \"label\": \"{}\", \
                 \"detail\": {}}}",
                r.at_ns,
                r.packet.map_or(String::from("null"), |p| p.to_string()),
                r.kind,
                escape(&r.label),
                r.detail
            ));
        }
        out.push_str("]}");
    }
    out.push_str(if detailed == 0 { "],\n" } else { "\n  ],\n" });

    match &rep.slo {
        Some(slo) => {
            let opt = |v: Option<u64>| v.map_or(String::from("null"), |n| n.to_string());
            out.push_str(&format!(
                "  \"slo\": {{\"p99_ceiling_ns\": {}, \"drop_ppm_ceiling\": {}, \
                 \"goodput_floor\": {}, \"skip_head\": {}}},\n",
                opt(slo.p99_ceiling_ns),
                opt(slo.drop_ppm_ceiling),
                opt(slo.goodput_floor),
                slo.skip_head
            ));
        }
        None => out.push_str("  \"slo\": null,\n"),
    }
    out.push_str("  \"breaches\": [");
    for (i, b) in rep.breaches.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{{\"window\": {}, \"kind\": \"{}\", \"value\": {}, \"limit\": {}}}",
            b.window,
            b.kind.name(),
            b.value,
            b.limit
        ));
    }
    out.push_str("],\n");

    out.push_str("  \"windows\": [");
    for (i, w) in rep.windows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        out.push_str(&window_json(w, rep.window_ns));
    }
    out.push_str(if rep.windows.is_empty() {
        "]\n}\n"
    } else {
        "\n  ]\n}\n"
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate;
    use crate::timeline;
    use crate::Recorder;

    fn assert_send<T: Send>() {}

    #[test]
    fn aggregator_state_is_send_ready() {
        assert_send::<LiveAgg>();
        assert_send::<LiveReport>();
    }

    #[test]
    fn live_windows_match_the_posthoc_timeline_fold() {
        let rec = Recorder::new(256);
        rec.enable_live(LiveConfig::new(1_000));
        rec.packet_arrival_hop(500, "eth0", "client", 60, None);
        rec.packet_drop(600, "ip", "no_route");
        rec.packet_done();
        let hist = rec.intern("rtt");
        rec.sample(1_500, hist, 42);
        rec.sample(3_500, hist, 100);
        rec.rx_interrupt_hop(3_700, "eth0", "client", 4, 2);
        rec.packet_tx_hop(5_200, "eth0", "client", 60, 10, 20, 30, 40, None);
        rec.sample(9_999, hist, 7);

        let live = rec.live_report().expect("live enabled");
        let tl = timeline::build(&rec, 1_000);
        assert_eq!(live.windows, tl.windows);
        assert_eq!(live.late_records, 0);
        // Early windows sealed online (watermark reached window 9), the
        // lagging tail sealed at report time.
        assert!(live.windows_sealed_online >= 8);
        assert_eq!(live.windows.len(), 10);
    }

    #[test]
    fn seal_callback_fires_in_window_order_with_final_percentiles() {
        let rec = Recorder::new(256);
        rec.enable_live(LiveConfig::new(1_000));
        let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = seen.clone();
        rec.on_live_seal(Box::new(move |sw| {
            sink.lock()
                .unwrap()
                .push((sw.index, sw.online, sw.window.p99_ns));
        }));
        let hist = rec.intern("rtt");
        rec.sample(100, hist, 55);
        rec.sample(4_500, hist, 99); // watermark in window 4: seals 0..=2
        let early: Vec<_> = seen.lock().unwrap().clone();
        assert_eq!(early, vec![(0, true, 55), (1, true, 0), (2, true, 0)]);
        rec.live_report();
        let all: Vec<_> = seen.lock().unwrap().clone();
        assert_eq!(all.len(), 5, "finish seals the lagging tail");
        assert_eq!(all[3], (3, false, 0));
        assert_eq!(all[4], (4, false, 99));
    }

    #[test]
    fn scopes_roll_up_world_equals_machines_plus_unattributed() {
        let rec = Recorder::new(256);
        rec.enable_live(LiveConfig::new(10_000));
        // Origin tx from engine context: unattributed.
        rec.packet_tx(100, "eth0", 60, 0, 10, 10);
        // Two machines with distinct traffic.
        for (host, n) in [("client", 2u64), ("server", 3u64)] {
            for i in 0..n {
                rec.packet_arrival_hop(200 + i, "eth0", host, 60, None);
                let ev = rec.intern("Udp.PacketRecv");
                let dom = rec.intern("kernel");
                let span = rec.handler_enter(300 + i, ev, dom);
                rec.handler_exit(400 + i, ev, dom, span);
                rec.packet_drop(450 + i, "udp", "no_port");
                rec.packet_done();
            }
        }
        let rep = rec.live_report().unwrap();
        assert_eq!(rep.world.counters.arrivals, 5);
        assert_eq!(rep.machines.len(), 2);
        assert_eq!(rep.machines[0].0, "client");
        assert_eq!(rep.machines[0].1.counters.arrivals, 2);
        assert_eq!(rep.machines[1].1.counters.arrivals, 3);
        assert_eq!(rep.unattributed.counters.tx_frames, 1);
        // Field-for-field roll-up.
        let mut sum = ScopeCounters::default();
        for (_, m) in &rep.machines {
            sum.add(&m.counters);
        }
        sum.add(&rep.unattributed.counters);
        assert_eq!(sum, rep.world.counters);
        // Layer breakdown under a machine.
        let client = &rep.machines[0].1;
        let udp = client.layers.iter().find(|(l, _)| l == "udp").unwrap();
        assert_eq!(udp.1.handlers, 2);
        assert_eq!(udp.1.drops, 2);
    }

    #[test]
    fn nth_and_worst_journeys_are_retained() {
        let rec = Recorder::new(512);
        let mut cfg = LiveConfig::new(1_000);
        cfg.sample_every = 4;
        rec.enable_live(cfg);
        let hist = rec.intern("rtt");
        for i in 0..6u64 {
            let (_, j) = rec.packet_arrival_hop(100 + i * 10, "eth0", "m", 60, None);
            assert_eq!(j, i);
            // Journey 5 completes the slowest sample in window 0.
            rec.sample(200 + i * 10, hist, if i == 5 { 900 } else { 10 + i });
            rec.packet_done();
        }
        let rep = rec.live_report().unwrap();
        let ids: Vec<u64> = rep.sampled.iter().map(|s| s.journey).collect();
        assert!(
            ids.contains(&0) && ids.contains(&4),
            "1-in-4 sample: {ids:?}"
        );
        let worst = rep
            .sampled
            .iter()
            .find(|s| s.journey == 5)
            .expect("worst kept");
        assert!(!worst.nth);
        assert_eq!(worst.worst_windows, vec![0]);
        assert_eq!(worst.max_sample_ns, 900);
        assert!(worst.records.iter().any(|r| r.kind == "arrival"));
        // Journeys 1..=3 were neither nth nor worst: not retained.
        assert!(!ids.contains(&1));
    }

    #[test]
    fn slo_breaches_are_evaluated_per_sealed_window() {
        let rec = Recorder::new(256);
        let mut cfg = LiveConfig::new(1_000);
        cfg.slo = Some(Slo {
            p99_ceiling_ns: Some(100),
            drop_ppm_ceiling: Some(500_000),
            goodput_floor: Some(1),
            skip_head: 1,
        });
        rec.enable_live(cfg);
        let hist = rec.intern("rtt");
        // Window 0: p99 breach (200 > 100). Window 1: drop-rate breach
        // (1 drop / 1 arrival = 1M ppm). Window 2: goodput breach (no
        // completions, past skip_head). Advance watermark to seal them.
        rec.sample(500, hist, 200);
        rec.packet_arrival(1_200, "eth0", 60);
        rec.packet_drop(1_300, "ip", "no_route");
        rec.packet_done();
        rec.sample(5_000, hist, 50);
        let rep = rec.live_report().unwrap();
        let kinds: Vec<(u64, BreachKind)> =
            rep.breaches.iter().map(|b| (b.window, b.kind)).collect();
        assert!(kinds.contains(&(0, BreachKind::P99Ceiling)), "{kinds:?}");
        assert!(kinds.contains(&(1, BreachKind::DropRate)), "{kinds:?}");
        assert!(kinds.contains(&(2, BreachKind::GoodputFloor)), "{kinds:?}");
        // Window 0 is exempt from the goodput floor (skip_head), and the
        // tail windows sealed at report time are exempt too.
        assert!(!kinds.contains(&(0, BreachKind::GoodputFloor)));
        assert!(!kinds.contains(&(4, BreachKind::GoodputFloor)));
    }

    #[test]
    fn live_json_is_valid_and_byte_identical_across_runs() {
        let make = || {
            let rec = Recorder::new(256);
            let mut cfg = LiveConfig::new(1_000);
            cfg.sample_every = 2;
            cfg.slo = Some(Slo {
                p99_ceiling_ns: Some(10),
                ..Slo::none()
            });
            rec.enable_live(cfg);
            rec.packet_arrival_hop(500, "eth0", "client", 60, None);
            rec.packet_drop(600, "weird \"layer\"", "no_route");
            rec.packet_done();
            let hist = rec.intern("rtt");
            rec.sample(1_500, hist, 42);
            rec.packet_tx_hop(2_000, "eth0", "client", 60, 0, 0, 10, 10, None);
            rec.sample(5_500, hist, 7);
            live_json(&rec.live_report().unwrap(), 8)
        };
        let a = make();
        assert_eq!(a, make());
        validate(&a).expect("live JSON well-formed");
        assert!(a.contains("\"schema\": \"plexus.live.v1\""));
        assert!(a.contains("\"name\": \"client\""));
        assert!(a.contains("\"kind\": \"p99_ceiling\""));
    }

    #[test]
    fn live_window_bytes_match_timeline_window_bytes() {
        let rec = Recorder::new(256);
        rec.enable_live(LiveConfig::new(1_000));
        rec.packet_arrival_hop(100, "eth0", "m", 60, None);
        rec.packet_drop(200, "ip", "no_route");
        rec.packet_done();
        let hist = rec.intern("rtt");
        rec.sample(2_500, hist, 77);
        let rep = rec.live_report().unwrap();
        let tl = timeline::build(&rec, 1_000);
        let live_windows: Vec<String> = rep.windows.iter().map(|w| window_json(w, 1_000)).collect();
        let tl_windows: Vec<String> = tl.windows.iter().map(|w| window_json(w, 1_000)).collect();
        assert_eq!(live_windows, tl_windows);
    }

    #[test]
    fn empty_run_yields_an_empty_report() {
        let rec = Recorder::new(8);
        rec.enable_live(LiveConfig::new(1_000));
        let rep = rec.live_report().unwrap();
        assert!(rep.windows.is_empty());
        assert_eq!(rep.world.counters, ScopeCounters::default());
        validate(&live_json(&rep, 4)).expect("empty live JSON");
    }
}
