//! The SPIN dynamic event dispatcher (§2).
//!
//! Kernel services and extensions *raise* events; extensions *install*
//! handlers on them. A handler may carry a **guard** — a statically
//! verified packet filter the dispatcher evaluates, on its install-time
//! compiled tier, before the handler is invoked — and Plexus uses guards
//! to demultiplex packets through the protocol graph. More than one
//! handler may be installed on an event; the overhead of invoking each is
//! roughly one procedure call, which the dispatcher charges to the
//! caller's [`CpuLease`].
//!
//! Handlers are installed in one of two modes, matching Figure 5's bars:
//!
//! * [`HandlerMode::Interrupt`] — the handler runs directly in the raising
//!   context (for receive events, the network interrupt). Only certified
//!   [`Ephemeral`] handlers may be installed this way, and the installer may
//!   attach a time limit; an over-budget handler is *terminated* (its CPU
//!   charge is capped and the termination reported).
//! * [`HandlerMode::Thread`] — each raise spawns a fresh kernel thread for
//!   the handler, paying thread-creation and context-switch costs.
//!
//! Possession of an [`Event`] handle is the authority to raise and to
//! install on it — the capability discipline protocol managers rely on to
//! keep untrusted extensions from touching protocol events directly (§3.1).

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::marker::PhantomData;
use std::rc::Rc;

use plexus_filter::{key_schema, DemuxKey, FieldKey, FieldSpec, KeySpec, Packet, VerifiedProgram};
use plexus_sim::engine::Engine;
use plexus_sim::time::SimDuration;
use plexus_sim::CpuLease;
use plexus_trace::Scope;

use crate::ephemeral::Ephemeral;

/// A guard attached to a handler: a statically verified packet filter
/// bound to its event argument type.
///
/// Holds the [`VerifiedProgram`] (so managers and tooling can still
/// inspect the installed filter) plus monomorphized entry points into its
/// compiled tier and the demux field reader; the `T: Packet` obligation
/// is discharged at construction, so the dispatcher's raise path needs no
/// bound on `T`. Every guard passes the verifier, so every guard has a
/// static worst-case cycle bound that interrupt admission can check.
pub struct Guard<T> {
    program: Rc<VerifiedProgram>,
    /// The compiled-tier evaluator: the fused closure chain the verifier
    /// built at install time.
    eval: fn(&VerifiedProgram, &T, u64) -> (bool, u32),
    /// Extracted demux key, when the program's acceptance is statically
    /// bounded over its event kind's key schema (see
    /// [`plexus_filter::DemuxKey`]).
    key: Option<KeySpec>,
    /// Monomorphized schema-field reader for the demux probe; mirrors
    /// `eval`'s load semantics.
    read: fn(&T, FieldKey) -> Option<u64>,
}

impl<T: Packet + 'static> Guard<T> {
    /// Binds a verified program to the event argument type `T`.
    pub fn verified(program: Rc<VerifiedProgram>) -> Guard<T> {
        let key = DemuxKey::extract(&program);
        Guard {
            program,
            eval: |p, arg, now| p.compiled().eval(arg, now),
            key,
            read: |arg, k| plexus_filter::read_field_key(arg, k),
        }
    }
}

impl<T> Guard<T> {
    /// Evaluates the guard against an event argument at simulated time
    /// `now_ns` (which drives token-bucket refill in stateful guards),
    /// returning the verdict and the abstract cycles the evaluation spent
    /// — never more than [`VerifiedProgram::static_bound`].
    pub fn matches(&self, arg: &T, now_ns: u64) -> (bool, u32) {
        (self.eval)(&self.program, arg, now_ns)
    }

    /// The verified program this guard runs.
    pub fn program(&self) -> &Rc<VerifiedProgram> {
        &self.program
    }

    /// The extracted demux key, if the guard is indexable.
    pub fn key(&self) -> Option<&KeySpec> {
        self.key.as_ref()
    }
}

/// An event handler body.
pub type HandlerFn<T> = Box<dyn Fn(&mut RaiseCtx<'_>, &T)>;

/// Everything [`Dispatcher::install`] needs to install one handler, built
/// fluently:
///
/// ```ignore
/// dispatcher.install(event, HandlerSpec::new(f).guard(g).owner("udp"));
/// dispatcher.install(
///     event,
///     HandlerSpec::ephemeral(Ephemeral::certify(f))
///         .guard(g)
///         .owner("udp")
///         .interrupt(),
/// );
/// ```
///
/// This replaces the four `install_thread{,_owned}` /
/// `install_interrupt{,_owned}` entry points. Defaults: thread mode,
/// no guard, owner `"kernel"`. Interrupt delivery requires construction
/// via [`HandlerSpec::ephemeral`] — the certification discipline the old
/// `install_interrupt` signature enforced with its `Ephemeral<F>`
/// parameter.
pub struct HandlerSpec<T> {
    guard: Option<Guard<T>>,
    handler: HandlerFn<T>,
    ephemeral: bool,
    interrupt: bool,
    time_limit: Option<SimDuration>,
    owner: String,
}

impl<T> HandlerSpec<T> {
    /// A thread-mode handler spec with no guard, owned by `"kernel"`.
    pub fn new(handler: impl Fn(&mut RaiseCtx<'_>, &T) + 'static) -> HandlerSpec<T> {
        HandlerSpec {
            guard: None,
            handler: Box::new(handler),
            ephemeral: false,
            interrupt: false,
            time_limit: None,
            owner: "kernel".to_string(),
        }
    }

    /// A spec around a certified [`Ephemeral`] handler — the only
    /// construction path that [`HandlerSpec::interrupt`] accepts.
    pub fn ephemeral<F>(handler: Ephemeral<F>) -> HandlerSpec<T>
    where
        F: Fn(&mut RaiseCtx<'_>, &T) + 'static,
    {
        let f = handler.into_inner();
        HandlerSpec {
            guard: None,
            handler: Box::new(f),
            ephemeral: true,
            interrupt: false,
            time_limit: None,
            owner: "kernel".to_string(),
        }
    }

    /// Attaches a guard.
    pub fn guard(mut self, guard: Guard<T>) -> HandlerSpec<T> {
        self.guard = Some(guard);
        self
    }

    /// Attaches an optional guard (convenience for call sites that already
    /// hold an `Option<Guard<T>>`).
    pub fn guard_opt(mut self, guard: Option<Guard<T>>) -> HandlerSpec<T> {
        self.guard = guard;
        self
    }

    /// Sets the owning domain for flight-recorder attribution.
    pub fn owner(mut self, owner: &str) -> HandlerSpec<T> {
        self.owner = owner.to_string();
        self
    }

    /// Requests interrupt-mode delivery (run in the raiser's context).
    pub fn interrupt(mut self) -> HandlerSpec<T> {
        self.interrupt = true;
        self
    }

    /// Sets the interrupt-mode termination allotment; implies
    /// [`HandlerSpec::interrupt`]. Accepts a bare [`SimDuration`] or an
    /// `Option` (for call sites with a configured-but-maybe-absent limit).
    pub fn time_limit(mut self, limit: impl Into<Option<SimDuration>>) -> HandlerSpec<T> {
        self.time_limit = limit.into();
        self.interrupt = true;
        self
    }
}

/// Context passed to handlers: the engine (to schedule follow-up work) and
/// the open CPU lease (to charge processing costs).
pub struct RaiseCtx<'a> {
    /// The discrete-event engine.
    pub engine: &'a mut Engine,
    /// The CPU lease of the activity that raised the event.
    pub lease: &'a mut CpuLease,
}

/// How a handler is delivered when its event is raised.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HandlerMode {
    /// Run directly in the raiser's (interrupt) context; optionally
    /// terminated if it exceeds the time limit.
    Interrupt {
        /// Allotment after which the dispatcher terminates the handler.
        time_limit: Option<SimDuration>,
    },
    /// Spawn a new kernel thread per raise (Figure 5's "thread" bars).
    Thread,
}

/// Identifies an installed handler, for later uninstall.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct HandlerId(u64);

/// Default per-event cycle budget for interrupt-mode installs, in the
/// abstract guard cycles of [`plexus_filter::insn_cycles`]. A verified
/// guard whose static worst-case bound exceeds the budget is rejected at
/// install time — admission control, not runtime policing.
pub const DEFAULT_INTERRUPT_CYCLE_BUDGET: u32 = 64;

/// Why [`Dispatcher::try_install`] refused a handler.
///
/// [`Dispatcher::install`] panics with the same messages; callers that
/// want to surface the diagnostic (protocol managers admitting extension
/// filters) use `try_install` and keep the error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InstallError {
    /// An interrupt-mode spec whose handler was not certified via
    /// [`HandlerSpec::ephemeral`].
    UncertifiedInterrupt,
    /// An interrupt-mode spec whose verified guard's static worst-case
    /// cycle bound exceeds the dispatcher's per-event interrupt budget.
    GuardOverBudget {
        /// The guard program's static worst-case bound, in cycles.
        bound: u32,
        /// The dispatcher's per-event interrupt cycle budget.
        budget: u32,
    },
}

impl fmt::Display for InstallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstallError::UncertifiedInterrupt => {
                write!(
                    f,
                    "interrupt-mode installs require a certified ephemeral handler"
                )
            }
            InstallError::GuardOverBudget { bound, budget } => write!(
                f,
                "interrupt-mode install rejected: guard worst-case bound is {bound} cycles \
                 but the per-event interrupt budget is {budget}; simplify the filter or \
                 install in thread mode"
            ),
        }
    }
}

/// A typed, copyable capability to one event.
///
/// Holding an `Event<T>` is the authority to raise it and install handlers
/// on it. Protocol managers keep their events private and install handlers
/// on behalf of applications.
pub struct Event<T> {
    dispatcher: u64,
    index: usize,
    _arg: PhantomData<fn(&T)>,
}

impl<T> Clone for Event<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Event<T> {}

/// Counters the dispatcher keeps about its own operation.
///
/// All counters are `u64` and increment saturating — a flooded dispatcher
/// pins at `u64::MAX` rather than wrapping. When a
/// [`plexus_trace::Recorder`] is installed on the raising CPU, the
/// recorder's [`plexus_trace::Registry`] holds the superset (per-event,
/// per-guard-verdict, per-domain splits); this struct remains the cheap
/// aggregate view.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DispatchStats {
    /// Events raised.
    pub raises: u64,
    /// Handlers invoked.
    pub invocations: u64,
    /// Guards evaluated. Every guard is a verified filter program run on
    /// its compiled tier.
    pub guard_evals: u64,
    /// Guards that rejected the argument.
    pub guard_rejects: u64,
    /// Guards that ran a verified filter program: always `guard_evals`,
    /// kept as its own counter for consumers that report the share.
    pub verified_guard_evals: u64,
    /// Guards that ran on the compiled tier (fused closure chain): always
    /// `guard_evals`, kept as its own counter for consumers that report
    /// the share.
    pub compiled_guard_evals: u64,
    /// Ephemeral handlers terminated for exceeding their allotment.
    pub terminations: u64,
    /// Demux-index hash probes charged (`CostModel::demux_probe`). Once
    /// lumped into the guard-eval charge; split out so profiles can tell
    /// a keyed lookup from a real guard evaluation. In a batch only the
    /// first raise pays (and counts) the probe.
    pub demux_probes: u64,
    /// Raises served through the demux index (one hash probe instead of a
    /// guard evaluation per indexed handler).
    pub demux_hits: u64,
    /// Raises of guarded events that had no indexed handlers and fell back
    /// to the pure linear scan.
    pub demux_fallbacks: u64,
    /// Guard evaluations avoided because the index proved the guard would
    /// reject (counted into `RaiseOutcome::rejected`, but never into
    /// `guard_evals`).
    pub demux_skipped: u64,
}

impl fmt::Display for DispatchStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "raises={} invocations={} guard_evals={} (verified {}, compiled {}) \
             guard_rejects={} terminations={} \
             demux_probes={} demux_hits={} demux_fallbacks={} \
             demux_skipped={}",
            self.raises,
            self.invocations,
            self.guard_evals,
            self.verified_guard_evals,
            self.compiled_guard_evals,
            self.guard_rejects,
            self.terminations,
            self.demux_probes,
            self.demux_hits,
            self.demux_fallbacks,
            self.demux_skipped
        )
    }
}

/// Result of a single raise.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RaiseOutcome {
    /// Handlers whose guards matched and which were invoked.
    pub invoked: u32,
    /// Handlers skipped because their guard rejected the argument.
    pub rejected: u32,
    /// Invoked handlers that were terminated over-budget.
    pub terminated: u32,
}

struct Entry<T> {
    id: HandlerId,
    guard: Option<Guard<T>>,
    handler: HandlerFn<T>,
    mode: HandlerMode,
    ephemeral: bool,
    /// Owning domain (extension or kernel subsystem) for per-domain
    /// accounting in the flight recorder.
    owner: Rc<str>,
    /// The guard's demux key — `Some` iff this entry occupies hash buckets
    /// in the table's index (so the raise path may skip it when the index
    /// does not select it).
    key: Option<KeySpec>,
    removed: Cell<bool>,
}

/// Hash key of one demux bucket: which schema fields are bound (`mask`,
/// bit `i` = schema field `i`) and their values, in schema order.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct BucketKey {
    mask: u8,
    vals: Vec<u64>,
}

/// Per-table demultiplexing index over the installed verified guards whose
/// acceptance is statically bounded ([`DemuxKey::extract`]).
///
/// Soundness: a bucket only ever *narrows* the candidate set. An indexed
/// entry appears under every key its guard may accept (the enumerated
/// cross product of its `In` sets), so an entry absent from the probed
/// buckets has a guard that provably rejects the packet; candidates still
/// run their full guard. Entries whose guards are not indexable carry no
/// key and are always evaluated.
struct DemuxState<T> {
    /// Monomorphized schema-field reader, taken from the first indexed
    /// guard (all guards of one event kind share `read_field_key`).
    read: Option<fn(&T, FieldKey) -> Option<u64>>,
    /// The event kind's key schema, fixed by the first indexed guard.
    schema: Option<&'static [FieldKey]>,
    /// Live indexed entries per field mask — the masks the probe must
    /// try. `BTreeMap` so probe order is deterministic.
    mask_counts: BTreeMap<u8, usize>,
    /// `(mask, values) -> handler ids`, in install order per bucket.
    buckets: HashMap<BucketKey, Vec<HandlerId>>,
    /// Total live indexed entries.
    indexed: usize,
}

impl<T> Default for DemuxState<T> {
    fn default() -> DemuxState<T> {
        DemuxState {
            read: None,
            schema: None,
            mask_counts: BTreeMap::new(),
            buckets: HashMap::new(),
            indexed: 0,
        }
    }
}

/// Enumerates the bucket keys a key spec occupies: the bound-field mask
/// and the cross product of its `In` sets, in schema order. Bounded by
/// [`plexus_filter::MAX_ENUMERATED_KEYS`] at extraction time.
fn enumerate_keys(spec: &KeySpec) -> (u8, Vec<Vec<u64>>) {
    let mut mask = 0u8;
    let mut combos: Vec<Vec<u64>> = vec![Vec::new()];
    for (i, field) in spec.fields().iter().enumerate() {
        if let FieldSpec::In(vals) = field {
            mask |= 1 << i;
            let mut next = Vec::with_capacity(combos.len() * vals.len());
            for combo in &combos {
                for v in vals {
                    let mut c = combo.clone();
                    c.push(*v);
                    next.push(c);
                }
            }
            combos = next;
        }
    }
    (mask, combos)
}

struct Table<T> {
    name: String,
    entries: RefCell<Vec<Rc<Entry<T>>>>,
    demux: RefCell<DemuxState<T>>,
}

/// Type-erased view of a [`Table`] for graph introspection.
trait TableInfo {
    fn event_name(&self) -> &str;
    /// `(live handlers, of which guarded)`.
    fn live_counts(&self) -> (usize, usize);
}

impl<T> TableInfo for Table<T> {
    fn event_name(&self) -> &str {
        &self.name
    }

    fn live_counts(&self) -> (usize, usize) {
        let entries = self.entries.borrow();
        let live = entries.iter().filter(|e| !e.removed.get()).count();
        let guarded = entries
            .iter()
            .filter(|e| !e.removed.get() && e.guard.is_some())
            .count();
        (live, guarded)
    }
}

/// One row of [`Dispatcher::event_summary`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EventSummary {
    /// The event's name.
    pub name: String,
    /// Live handlers installed.
    pub handlers: usize,
    /// Of those, how many carry guards (packet filters).
    pub guarded: usize,
}

/// Both facets of a stored table: the typed side (downcast on access) and
/// the type-erased introspection side.
type TableSlot = (Rc<dyn Any>, Rc<dyn TableInfo>);

/// The dynamic event dispatcher. One per simulated kernel.
pub struct Dispatcher {
    id: u64,
    tables: RefCell<Vec<TableSlot>>,
    names: RefCell<HashMap<String, usize>>,
    next_handler: Cell<u64>,
    stats: Cell<DispatchStats>,
    demux_enabled: Cell<bool>,
    interrupt_cycle_budget: Cell<u32>,
}

thread_local! {
    static NEXT_DISPATCHER: Cell<u64> = const { Cell::new(1) };
}

impl Dispatcher {
    /// Creates an empty dispatcher.
    pub fn new() -> Rc<Dispatcher> {
        let id = NEXT_DISPATCHER.with(|n| {
            let v = n.get();
            n.set(v + 1);
            v
        });
        Rc::new(Dispatcher {
            id,
            tables: RefCell::new(Vec::new()),
            names: RefCell::new(HashMap::new()),
            next_handler: Cell::new(1),
            stats: Cell::new(DispatchStats::default()),
            demux_enabled: Cell::new(true),
            interrupt_cycle_budget: Cell::new(DEFAULT_INTERRUPT_CYCLE_BUDGET),
        })
    }

    /// Operation counters.
    pub fn stats(&self) -> DispatchStats {
        self.stats.get()
    }

    /// Sets the per-event cycle budget interrupt-mode installs must fit
    /// (default [`DEFAULT_INTERRUPT_CYCLE_BUDGET`]). Applies to installs
    /// from this point on; already-admitted handlers are unaffected.
    pub fn set_interrupt_cycle_budget(&self, cycles: u32) {
        self.interrupt_cycle_budget.set(cycles);
    }

    /// The current per-event interrupt cycle budget.
    pub fn interrupt_cycle_budget(&self) -> u32 {
        self.interrupt_cycle_budget.get()
    }

    /// Enables or disables the hash-demultiplexing fast path (on by
    /// default). With it off every raise walks the linear scan — handler
    /// selection is identical either way; only the charged probe/guard
    /// costs and the demux counters differ. Benchmarks use this to compare
    /// the two regimes.
    pub fn set_demux_enabled(&self, enabled: bool) {
        self.demux_enabled.set(enabled);
    }

    /// Whether the demux fast path is enabled.
    pub fn demux_enabled(&self) -> bool {
        self.demux_enabled.get()
    }

    /// Defines a new event with argument type `T` and returns its handle.
    ///
    /// # Panics
    ///
    /// Panics if an event with this name already exists — events are
    /// declared once, by the interface that owns them.
    pub fn define_event<T: 'static>(&self, name: &str) -> Event<T> {
        let mut names = self.names.borrow_mut();
        assert!(
            !names.contains_key(name),
            "event {name:?} is already defined"
        );
        let mut tables = self.tables.borrow_mut();
        let index = tables.len();
        let table = Rc::new(Table::<T> {
            name: name.to_string(),
            entries: RefCell::new(Vec::new()),
            demux: RefCell::new(DemuxState::default()),
        });
        tables.push((table.clone() as Rc<dyn Any>, table as Rc<dyn TableInfo>));
        names.insert(name.to_string(), index);
        Event {
            dispatcher: self.id,
            index,
            _arg: PhantomData,
        }
    }

    /// The name an event was defined with.
    pub fn event_name<T: 'static>(&self, event: Event<T>) -> String {
        self.table(event).name.clone()
    }

    fn table<T: 'static>(&self, event: Event<T>) -> Rc<Table<T>> {
        assert_eq!(
            event.dispatcher, self.id,
            "event handle belongs to a different dispatcher"
        );
        let any = self.tables.borrow()[event.index].0.clone();
        any.downcast::<Table<T>>()
            .expect("event argument type mismatch")
    }

    /// Lists every defined event with its live handler and guard counts —
    /// the raw material for rendering the protocol graph (Figure 1) from a
    /// running kernel.
    pub fn event_summary(&self) -> Vec<EventSummary> {
        self.tables
            .borrow()
            .iter()
            .map(|(_, info)| {
                let (handlers, guarded) = info.live_counts();
                EventSummary {
                    name: info.event_name().to_string(),
                    handlers,
                    guarded,
                }
            })
            .collect()
    }

    /// Installs a handler described by a [`HandlerSpec`] — the single
    /// installation entry point.
    ///
    /// When the spec's guard has an extractable demux key, the handler is
    /// also entered into the event's hash index, so raises can skip its
    /// guard whenever the packet's key provably mismatches.
    ///
    /// # Panics
    ///
    /// Panics with the [`InstallError`] message when
    /// [`Dispatcher::try_install`] would refuse the spec: an interrupt-mode
    /// handler not certified via [`HandlerSpec::ephemeral`] (§3.3's
    /// evidence requirement), or an interrupt-mode guard whose static
    /// worst-case bound exceeds the per-event interrupt cycle budget.
    pub fn install<T: 'static>(&self, event: Event<T>, spec: HandlerSpec<T>) -> HandlerId {
        self.try_install(event, spec)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Dispatcher::install`] that reports refusal instead of panicking —
    /// the admission-control entry point for specs built from untrusted
    /// extension input.
    ///
    /// Interrupt-mode admission requires, beyond certification, that the
    /// guard program's [`VerifiedProgram::static_bound`] fits the
    /// dispatcher's per-event interrupt cycle budget: the raising context
    /// is the network interrupt, and the static bound is the proof the
    /// filter cannot stall it.
    pub fn try_install<T: 'static>(
        &self,
        event: Event<T>,
        spec: HandlerSpec<T>,
    ) -> Result<HandlerId, InstallError> {
        let mode = if spec.interrupt {
            if !spec.ephemeral {
                return Err(InstallError::UncertifiedInterrupt);
            }
            if let Some(guard) = &spec.guard {
                let bound = guard.program().static_bound();
                let budget = self.interrupt_cycle_budget.get();
                if bound > budget {
                    return Err(InstallError::GuardOverBudget { bound, budget });
                }
            }
            HandlerMode::Interrupt {
                time_limit: spec.time_limit,
            }
        } else {
            HandlerMode::Thread
        };
        Ok(self.push_entry(
            event,
            spec.guard,
            spec.handler,
            mode,
            spec.ephemeral,
            &spec.owner,
        ))
    }

    fn push_entry<T: 'static>(
        &self,
        event: Event<T>,
        guard: Option<Guard<T>>,
        handler: HandlerFn<T>,
        mode: HandlerMode,
        ephemeral: bool,
        owner: &str,
    ) -> HandlerId {
        let id = HandlerId(self.next_handler.get());
        self.next_handler.set(id.0 + 1);
        let table = self.table(event);

        // Index the entry if its guard carries an extractable key. The
        // entry's stored `key` stays `None` unless the index actually
        // accepted it — the raise path's skip test relies on "has a key"
        // implying "is in the buckets".
        let (key, read) = match &guard {
            Some(g) => (g.key().cloned(), Some(g.read)),
            None => (None, None),
        };
        let key = key.and_then(|spec| {
            let mut demux = table.demux.borrow_mut();
            let schema = key_schema(spec.kind());
            if demux.schema.get_or_insert(schema) != &schema {
                // A guard of a different event kind on the same table
                // (possible only with an exotic `Packet` impl): leave it
                // on the linear path rather than mix schemas.
                return None;
            }
            let (mask, combos) = enumerate_keys(&spec);
            if mask == 0 {
                return None;
            }
            if demux.read.is_none() {
                demux.read = read;
            }
            *demux.mask_counts.entry(mask).or_insert(0) += 1;
            for vals in combos {
                demux
                    .buckets
                    .entry(BucketKey { mask, vals })
                    .or_default()
                    .push(id);
            }
            demux.indexed += 1;
            Some(spec)
        });

        table.entries.borrow_mut().push(Rc::new(Entry {
            id,
            guard,
            handler,
            mode,
            ephemeral,
            owner: Rc::from(owner),
            key,
            removed: Cell::new(false),
        }));
        id
    }

    /// Removes a handler (and its demux-index buckets). Returns `false` if
    /// it was not installed (or was already removed). Safe to call from
    /// inside a handler.
    pub fn uninstall<T: 'static>(&self, event: Event<T>, id: HandlerId) -> bool {
        let table = self.table(event);
        let mut found: Option<Option<KeySpec>> = None;
        {
            let entries = table.entries.borrow();
            for e in entries.iter() {
                if e.id == id && !e.removed.get() {
                    e.removed.set(true);
                    found = Some(e.key.clone());
                    break;
                }
            }
        }
        let Some(key) = found else {
            return false;
        };
        if let Some(spec) = key {
            let mut demux = table.demux.borrow_mut();
            let (mask, combos) = enumerate_keys(&spec);
            for vals in combos {
                let bk = BucketKey { mask, vals };
                if let Some(ids) = demux.buckets.get_mut(&bk) {
                    ids.retain(|x| *x != id);
                    if ids.is_empty() {
                        demux.buckets.remove(&bk);
                    }
                }
            }
            if let Some(count) = demux.mask_counts.get_mut(&mask) {
                *count -= 1;
                if *count == 0 {
                    demux.mask_counts.remove(&mask);
                }
            }
            demux.indexed -= 1;
        }
        true
    }

    /// Number of live handlers installed on `event`.
    pub fn handler_count<T: 'static>(&self, event: Event<T>) -> usize {
        self.table(event)
            .entries
            .borrow()
            .iter()
            .filter(|e| !e.removed.get())
            .count()
    }

    /// Whether the installed handler is certified ephemeral.
    pub fn is_ephemeral<T: 'static>(&self, event: Event<T>, id: HandlerId) -> Option<bool> {
        self.table(event)
            .entries
            .borrow()
            .iter()
            .find(|e| e.id == id && !e.removed.get())
            .map(|e| e.ephemeral)
    }

    /// Raises `event` with `arg`: evaluates each live handler's guard and
    /// invokes the matches, charging dispatch/guard/thread costs to
    /// `ctx.lease` per the machine's [`plexus_sim::CostModel`].
    pub fn raise<T: 'static>(
        &self,
        ctx: &mut RaiseCtx<'_>,
        event: Event<T>,
        arg: &T,
    ) -> RaiseOutcome {
        let table = self.table(event);
        self.raise_on_table(ctx, &table, arg, true)
    }

    /// Opens a batched raise session on `event` — the coalesced receive
    /// path's entry point. The event table is resolved once here, and only
    /// the batch's first [`EventBatch::raise`] pays the fixed
    /// `dispatch_raise` (and demux-probe) charge; later raises in the same
    /// batch ride the warm lookup. Everything *observable per packet* —
    /// guard verdicts, handler order, per-handler charges, trace records —
    /// is identical to N independent [`Dispatcher::raise`] calls.
    pub fn batch<T: 'static>(&self, event: Event<T>) -> EventBatch<'_, T> {
        EventBatch {
            dispatcher: self,
            table: self.table(event),
            amortized: false,
        }
    }

    fn raise_on_table<T: 'static>(
        &self,
        ctx: &mut RaiseCtx<'_>,
        table: &Rc<Table<T>>,
        arg: &T,
        charge_fixed: bool,
    ) -> RaiseOutcome {
        let model = ctx.lease.model().clone();
        if charge_fixed {
            ctx.lease.charge(model.dispatch_raise);
        }

        // Flight recorder, if the raising CPU carries one. Held as an
        // owned handle because the handler call below reborrows `ctx`.
        let rec = ctx.lease.recorder_handle();
        let ev_label = rec.as_ref().map(|r| r.intern(&table.name));
        if let (Some(r), Some(lbl)) = (&rec, ev_label) {
            r.count(Scope::Event, lbl, "raises", 1);
        }

        // Snapshot the entry list so handlers can install/uninstall without
        // aliasing the `RefCell` borrow; entries removed mid-raise are
        // skipped via their `removed` flag.
        let entries: Vec<Rc<Entry<T>>> = table.entries.borrow().iter().cloned().collect();

        let mut outcome = RaiseOutcome::default();
        let mut stats = self.stats.get();
        stats.raises = stats.raises.saturating_add(1);

        // Demux fast path: one hash probe selects the indexed candidates.
        // The borrow is dropped before the walk — handlers may install
        // mid-raise, which needs `demux` mutably.
        let mut candidates: Option<HashSet<HandlerId>> = None;
        let mut read_fn: Option<fn(&T, FieldKey) -> Option<u64>> = None;
        if self.demux_enabled.get() {
            let demux = table.demux.borrow();
            if demux.indexed > 0 {
                // The probe costs one keyed lookup — the index replaces N
                // guard runs with it. Charged and counted as its own
                // `demux_probe`, not a guard evaluation. In a batch only
                // the first raise pays it: the bucket walk stays warm in
                // cache for the rest.
                if charge_fixed {
                    ctx.lease.charge(model.demux_probe);
                    stats.demux_probes = stats.demux_probes.saturating_add(1);
                    if let (Some(r), Some(lbl)) = (&rec, ev_label) {
                        r.count(Scope::Event, lbl, "demux.probes", 1);
                    }
                }
                read_fn = demux.read;
                let read = demux.read.expect("indexed entries carry a reader");
                let schema = demux.schema.expect("indexed entries carry a schema");
                let mut selected = HashSet::new();
                for (&mask, _) in demux.mask_counts.iter() {
                    let mut vals = Vec::new();
                    let mut readable = true;
                    for (i, key) in schema.iter().enumerate() {
                        if mask & (1 << i) != 0 {
                            match read(arg, *key) {
                                Some(v) => vals.push(v),
                                None => {
                                    // Guards under this mask load this
                                    // field; a failed load rejects in
                                    // eval, so none can match.
                                    readable = false;
                                    break;
                                }
                            }
                        }
                    }
                    if !readable {
                        continue;
                    }
                    if let Some(ids) = demux.buckets.get(&BucketKey { mask, vals }) {
                        selected.extend(ids.iter().copied());
                    }
                }
                candidates = Some(selected);
            }
        }
        let probed = candidates.is_some();
        let mut avoided: u64 = 0;
        let mut saw_guard = false;

        for entry in entries {
            if entry.removed.get() {
                continue;
            }
            if entry.guard.is_some() {
                saw_guard = true;
            }
            // Indexed entries the probe did not select (or whose live
            // `NotIn` port sets exclude the packet) are skipped without
            // evaluating the guard: the index proves the guard rejects, so
            // the outcome is identical to the linear scan — minus the
            // eval, its charge, and its trace record.
            if let (Some(selected), Some(spec)) = (&candidates, &entry.key) {
                let mut skip = !selected.contains(&entry.id);
                if !skip {
                    if let Some(read) = read_fn {
                        let schema = key_schema(spec.kind());
                        for (i, field) in spec.fields().iter().enumerate() {
                            if let FieldSpec::NotIn(sets) = field {
                                // Live membership, mirroring JInSet's
                                // u16-truncated semantics: a member (or an
                                // unreadable field) cannot reach accept.
                                let member = match read(arg, schema[i]) {
                                    None => true,
                                    Some(v) => u16::try_from(v)
                                        .map(|p| sets.iter().any(|s| s.contains(p)))
                                        .unwrap_or(false),
                                };
                                if member {
                                    skip = true;
                                    break;
                                }
                            }
                        }
                    }
                }
                if skip {
                    outcome.rejected += 1;
                    avoided += 1;
                    continue;
                }
            }
            if let Some(guard) = &entry.guard {
                stats.guard_evals = stats.guard_evals.saturating_add(1);
                stats.verified_guard_evals = stats.verified_guard_evals.saturating_add(1);
                stats.compiled_guard_evals = stats.compiled_guard_evals.saturating_add(1);
                ctx.lease.charge(model.guard_eval);
                let now_ns = ctx.lease.now().as_nanos();
                let (matched, measured) = guard.matches(arg, now_ns);
                if let (Some(r), Some(lbl)) = (&rec, ev_label) {
                    // Static-bound cross-check: counters only, so recorder
                    // presence never changes behavior.
                    r.guard_cost(
                        lbl,
                        u64::from(measured),
                        u64::from(guard.program().static_bound()),
                    );
                    r.guard_eval(now_ns, lbl, matched);
                }
                if !matched {
                    stats.guard_rejects = stats.guard_rejects.saturating_add(1);
                    outcome.rejected += 1;
                    continue;
                }
            }
            if entry.mode == HandlerMode::Thread {
                ctx.lease.charge(model.thread_spawn + model.context_switch);
            }
            ctx.lease.charge(model.dispatch_handler);
            stats.invocations = stats.invocations.saturating_add(1);
            outcome.invoked += 1;

            let owner_label = rec.as_ref().map(|r| r.intern(&entry.owner));
            let mut span = 0u64;
            if let (Some(r), Some(lbl), Some(owner)) = (&rec, ev_label, owner_label) {
                span = r.handler_enter(ctx.lease.now().as_nanos(), lbl, owner);
            }

            let mark = ctx.lease.mark();
            // Persist stats before calling out: the handler may re-raise.
            self.stats.set(stats);
            (entry.handler)(ctx, arg);
            stats = self.stats.get();

            let mut terminated = false;
            if let HandlerMode::Interrupt {
                time_limit: Some(limit),
            } = entry.mode
            {
                let used = ctx.lease.mark() - mark;
                if used > limit {
                    ctx.lease.rollback_to(mark, limit);
                    stats.terminations = stats.terminations.saturating_add(1);
                    outcome.terminated += 1;
                    terminated = true;
                }
            }
            if let (Some(r), Some(lbl), Some(owner)) = (&rec, ev_label, owner_label) {
                // Exit is stamped after any termination rollback, so the
                // span's duration reflects what was actually charged.
                r.handler_exit(ctx.lease.now().as_nanos(), lbl, owner, span);
                if terminated {
                    r.handler_terminated(ctx.lease.now().as_nanos(), lbl, owner);
                }
            }
        }
        if probed {
            stats.demux_hits = stats.demux_hits.saturating_add(1);
            stats.demux_skipped = stats.demux_skipped.saturating_add(avoided);
            if let (Some(r), Some(lbl)) = (&rec, ev_label) {
                r.count(Scope::Event, lbl, "demux.hits", 1);
                r.count(Scope::Event, lbl, "demux.avoided", avoided);
                // Per-raise distribution of guard evals the index saved.
                r.record_latency(r.intern("demux.avoided"), avoided);
            }
        } else if saw_guard && self.demux_enabled.get() {
            stats.demux_fallbacks = stats.demux_fallbacks.saturating_add(1);
            if let (Some(r), Some(lbl)) = (&rec, ev_label) {
                r.count(Scope::Event, lbl, "demux.fallbacks", 1);
            }
        }
        self.stats.set(stats);
        outcome
    }
}

/// A batched raise session opened by [`Dispatcher::batch`].
///
/// Holds the resolved event table for the batch's lifetime. The first
/// [`raise`](EventBatch::raise) charges the fixed `dispatch_raise` (and,
/// on demux-indexed events, the single `demux_probe`) exactly like
/// [`Dispatcher::raise`]; subsequent raises skip only those fixed
/// charges. Per-packet guard verdicts, handler invocation order,
/// per-handler costs, and trace records are bit-identical to issuing the
/// same raises individually — batching amortizes lookup cost, it never
/// changes dispatch semantics.
pub struct EventBatch<'d, T> {
    dispatcher: &'d Dispatcher,
    table: Rc<Table<T>>,
    amortized: bool,
}

impl<T: 'static> EventBatch<'_, T> {
    /// Raises the batch's event with `arg`.
    pub fn raise(&mut self, ctx: &mut RaiseCtx<'_>, arg: &T) -> RaiseOutcome {
        let charge_fixed = !self.amortized;
        self.amortized = true;
        self.dispatcher
            .raise_on_table(ctx, &self.table, arg, charge_fixed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plexus_sim::cpu::{CostModel, Cpu};
    use plexus_sim::time::SimTime;

    fn ctx_parts() -> (Engine, Rc<Cpu>) {
        (Engine::new(), Cpu::new(CostModel::alpha_3000_400()))
    }

    #[test]
    fn raise_invokes_matching_handlers_in_install_order() {
        let (mut engine, cpu) = ctx_parts();
        let d = Dispatcher::new();
        let ev = d.define_event::<u32>("Test.Event");
        let log = Rc::new(RefCell::new(Vec::new()));
        for tag in ["a", "b"] {
            let log = log.clone();
            d.install(
                ev,
                HandlerSpec::new(move |_, arg: &u32| {
                    log.borrow_mut().push(format!("{tag}:{arg}"));
                }),
            );
        }
        let mut lease = cpu.begin(SimTime::ZERO);
        let mut ctx = RaiseCtx {
            engine: &mut engine,
            lease: &mut lease,
        };
        let out = d.raise(&mut ctx, ev, &7);
        assert_eq!(out.invoked, 2);
        assert_eq!(*log.borrow(), vec!["a:7", "b:7"]);
    }

    #[test]
    fn guards_filter_delivery() {
        let (mut engine, cpu) = ctx_parts();
        let d = Dispatcher::new();
        let ev = d.define_event::<UdpArg>("Guarded");
        let hits = Rc::new(Cell::new(0u32));
        let h = hits.clone();
        d.install(
            ev,
            HandlerSpec::new(move |_, _| h.set(h.get() + 1))
                .guard(Guard::verified(accept_unless(&[5]))),
        );
        let mut lease = cpu.begin(SimTime::ZERO);
        let mut ctx = RaiseCtx {
            engine: &mut engine,
            lease: &mut lease,
        };
        assert_eq!(d.raise(&mut ctx, ev, &UdpArg { dst_port: 4 }).invoked, 1);
        let out = d.raise(&mut ctx, ev, &UdpArg { dst_port: 5 });
        assert_eq!(out.invoked, 0);
        assert_eq!(out.rejected, 1);
        assert_eq!(hits.get(), 1);
        assert_eq!(d.stats().guard_rejects, 1);
    }

    #[test]
    fn dispatch_costs_are_charged() {
        let (mut engine, cpu) = ctx_parts();
        let model = cpu.model().clone();
        let d = Dispatcher::new();
        let ev = d.define_event::<UdpArg>("Costed");
        d.install(
            ev,
            HandlerSpec::new(|_, _| {}).guard(Guard::verified(accept_unless(&[]))),
        );
        let mut lease = cpu.begin(SimTime::ZERO);
        let mut ctx = RaiseCtx {
            engine: &mut engine,
            lease: &mut lease,
        };
        d.raise(&mut ctx, ev, &UdpArg { dst_port: 0 });
        let expected = model.dispatch_raise
            + model.guard_eval
            + model.thread_spawn
            + model.context_switch
            + model.dispatch_handler;
        assert_eq!(lease.elapsed(), expected);
    }

    #[test]
    fn interrupt_mode_skips_thread_costs() {
        let (mut engine, cpu) = ctx_parts();
        let model = cpu.model().clone();
        let d = Dispatcher::new();
        let ev = d.define_event::<u32>("Fast");
        d.install(
            ev,
            HandlerSpec::ephemeral(Ephemeral::certify(|_: &mut RaiseCtx, _: &u32| {})).interrupt(),
        );
        let mut lease = cpu.begin(SimTime::ZERO);
        let mut ctx = RaiseCtx {
            engine: &mut engine,
            lease: &mut lease,
        };
        d.raise(&mut ctx, ev, &0);
        assert_eq!(
            lease.elapsed(),
            model.dispatch_raise + model.dispatch_handler
        );
    }

    #[test]
    fn batched_raise_charges_the_fixed_cost_once() {
        let (mut engine, cpu) = ctx_parts();
        let model = cpu.model().clone();
        let d = Dispatcher::new();
        let ev = d.define_event::<UdpArg>("Batched");
        d.install(
            ev,
            HandlerSpec::new(|_, _| {}).guard(Guard::verified(accept_unless(&[]))),
        );
        let per_item =
            model.guard_eval + model.thread_spawn + model.context_switch + model.dispatch_handler;
        let mut lease = cpu.begin(SimTime::ZERO);
        {
            let mut ctx = RaiseCtx {
                engine: &mut engine,
                lease: &mut lease,
            };
            let mut batch = d.batch(ev);
            batch.raise(&mut ctx, &UdpArg { dst_port: 0 });
            // A batch of one costs exactly what a single raise costs.
            assert_eq!(ctx.lease.elapsed(), model.dispatch_raise + per_item);
            batch.raise(&mut ctx, &UdpArg { dst_port: 1 });
            batch.raise(&mut ctx, &UdpArg { dst_port: 2 });
        }
        // Later items skip only the fixed dispatch_raise charge.
        assert_eq!(lease.elapsed(), model.dispatch_raise + per_item.times(3));
        assert_eq!(d.stats().raises, 3, "each item still counts as a raise");
        assert_eq!(d.stats().invocations, 3);
    }

    #[test]
    fn over_budget_ephemeral_handler_is_terminated() {
        let (mut engine, cpu) = ctx_parts();
        let d = Dispatcher::new();
        let ev = d.define_event::<u32>("Limited");
        let limit = SimDuration::from_micros(10);
        d.install(
            ev,
            HandlerSpec::ephemeral(Ephemeral::certify(|ctx: &mut RaiseCtx, _: &u32| {
                // A runaway handler: tries to burn 1 ms of interrupt time.
                ctx.lease.charge(SimDuration::from_millis(1));
            }))
            .time_limit(limit),
        );
        let mut lease = cpu.begin(SimTime::ZERO);
        let before = lease.mark();
        let mut ctx = RaiseCtx {
            engine: &mut engine,
            lease: &mut lease,
        };
        let out = d.raise(&mut ctx, ev, &0);
        assert_eq!(out.terminated, 1);
        assert_eq!(d.stats().terminations, 1);
        // The charge is capped at the allotment, not the attempted 1 ms.
        let model = cpu.model().clone();
        assert_eq!(
            lease.mark() - before,
            model.dispatch_raise + model.dispatch_handler + limit
        );
    }

    #[test]
    fn well_behaved_ephemeral_handler_is_not_terminated() {
        let (mut engine, cpu) = ctx_parts();
        let d = Dispatcher::new();
        let ev = d.define_event::<u32>("WithinBudget");
        d.install(
            ev,
            HandlerSpec::ephemeral(Ephemeral::certify(|ctx: &mut RaiseCtx, _: &u32| {
                ctx.lease.charge(SimDuration::from_micros(3));
            }))
            .time_limit(SimDuration::from_micros(10)),
        );
        let mut lease = cpu.begin(SimTime::ZERO);
        let mut ctx = RaiseCtx {
            engine: &mut engine,
            lease: &mut lease,
        };
        let out = d.raise(&mut ctx, ev, &0);
        assert_eq!(out.terminated, 0);
        assert_eq!(out.invoked, 1);
    }

    #[test]
    fn uninstalled_handler_stops_firing() {
        let (mut engine, cpu) = ctx_parts();
        let d = Dispatcher::new();
        let ev = d.define_event::<u32>("Removable");
        let hits = Rc::new(Cell::new(0u32));
        let h = hits.clone();
        let id = d.install(ev, HandlerSpec::new(move |_, _| h.set(h.get() + 1)));
        assert_eq!(d.handler_count(ev), 1);
        let mut lease = cpu.begin(SimTime::ZERO);
        let mut ctx = RaiseCtx {
            engine: &mut engine,
            lease: &mut lease,
        };
        d.raise(&mut ctx, ev, &0);
        assert!(d.uninstall(ev, id));
        assert!(!d.uninstall(ev, id), "double uninstall must fail");
        assert_eq!(d.handler_count(ev), 0);
        d.raise(&mut ctx, ev, &0);
        assert_eq!(hits.get(), 1);
    }

    #[test]
    fn handlers_can_uninstall_themselves_during_raise() {
        let (mut engine, cpu) = ctx_parts();
        let d = Dispatcher::new();
        let ev = d.define_event::<u32>("SelfRemoving");
        let hits = Rc::new(Cell::new(0u32));
        let h = hits.clone();
        let d2 = d.clone();
        let id_cell: Rc<Cell<Option<HandlerId>>> = Rc::new(Cell::new(None));
        let idc = id_cell.clone();
        let id = d.install(
            ev,
            HandlerSpec::new(move |_, _| {
                h.set(h.get() + 1);
                d2.uninstall(ev, idc.get().expect("id set before raise"));
            }),
        );
        id_cell.set(Some(id));
        let mut lease = cpu.begin(SimTime::ZERO);
        let mut ctx = RaiseCtx {
            engine: &mut engine,
            lease: &mut lease,
        };
        d.raise(&mut ctx, ev, &0);
        d.raise(&mut ctx, ev, &0);
        assert_eq!(hits.get(), 1);
    }

    #[test]
    fn handlers_can_raise_other_events_reentrantly() {
        let (mut engine, cpu) = ctx_parts();
        let d = Dispatcher::new();
        let outer = d.define_event::<u32>("Outer");
        let inner = d.define_event::<u32>("Inner");
        let log = Rc::new(RefCell::new(Vec::new()));
        let l1 = log.clone();
        let d2 = d.clone();
        d.install(
            outer,
            HandlerSpec::new(move |ctx: &mut RaiseCtx, arg: &u32| {
                l1.borrow_mut().push(format!("outer:{arg}"));
                d2.raise(ctx, inner, &(arg + 1));
            }),
        );
        let l2 = log.clone();
        d.install(
            inner,
            HandlerSpec::new(move |_, arg: &u32| {
                l2.borrow_mut().push(format!("inner:{arg}"));
            }),
        );
        let mut lease = cpu.begin(SimTime::ZERO);
        let mut ctx = RaiseCtx {
            engine: &mut engine,
            lease: &mut lease,
        };
        d.raise(&mut ctx, outer, &1);
        assert_eq!(*log.borrow(), vec!["outer:1", "inner:2"]);
    }

    #[test]
    fn ephemerality_is_queryable_by_managers() {
        let d = Dispatcher::new();
        let ev = d.define_event::<u32>("Queried");
        let eph = d.install(
            ev,
            HandlerSpec::ephemeral(Ephemeral::certify(|_: &mut RaiseCtx, _: &u32| {})).interrupt(),
        );
        let thr = d.install(ev, HandlerSpec::new(|_, _: &u32| {}));
        assert_eq!(d.is_ephemeral(ev, eph), Some(true));
        assert_eq!(d.is_ephemeral(ev, thr), Some(false));
        d.uninstall(ev, eph);
        assert_eq!(d.is_ephemeral(ev, eph), None);
    }

    /// A UdpRecv-shaped event argument for verified-guard tests.
    #[derive(Debug)]
    pub(super) struct UdpArg {
        pub(super) dst_port: u64,
    }

    impl plexus_filter::Packet for UdpArg {
        fn kind(&self) -> plexus_filter::EventKind {
            plexus_filter::EventKind::UdpRecv
        }
        fn field(&self, field: plexus_filter::Field) -> Option<u64> {
            match field {
                plexus_filter::Field::UdpDstPort => Some(self.dst_port),
                _ => None,
            }
        }
        fn head(&self) -> &[u8] {
            &[]
        }
    }

    pub(super) fn port_program(port: u64) -> Rc<VerifiedProgram> {
        let prog = plexus_filter::conjunction(
            plexus_filter::EventKind::UdpRecv,
            &[plexus_filter::Test::eq(
                plexus_filter::Operand::Field(plexus_filter::Field::UdpDstPort),
                port,
            )],
            Vec::new(),
        );
        Rc::new(plexus_filter::verify(&prog).expect("builder output verifies"))
    }

    /// An unindexable guard that accepts every destination port outside
    /// `ports`: a bare `NotInSet` binds no key-schema field to a value, so
    /// the demux index cannot hold it and every raise evaluates it.
    pub(super) fn accept_unless(ports: &[u16]) -> Rc<VerifiedProgram> {
        let set = plexus_filter::PortSet::new();
        for &p in ports {
            set.insert(p);
        }
        let prog = plexus_filter::conjunction(
            plexus_filter::EventKind::UdpRecv,
            &[plexus_filter::Test::NotInSet {
                op: plexus_filter::Operand::Field(plexus_filter::Field::UdpDstPort),
                set: 0,
            }],
            vec![set],
        );
        Rc::new(plexus_filter::verify(&prog).expect("builder output verifies"))
    }

    #[test]
    fn verified_guards_filter_interrupt_delivery() {
        let (mut engine, cpu) = ctx_parts();
        let d = Dispatcher::new();
        let ev = d.define_event::<UdpArg>("Udp.PacketRecv");
        let hits = Rc::new(Cell::new(0u32));
        let h = hits.clone();
        d.install(
            ev,
            HandlerSpec::ephemeral(Ephemeral::certify(move |_: &mut RaiseCtx, _: &UdpArg| {
                h.set(h.get() + 1)
            }))
            .guard(Guard::verified(port_program(53)))
            .interrupt(),
        );
        let mut lease = cpu.begin(SimTime::ZERO);
        let mut ctx = RaiseCtx {
            engine: &mut engine,
            lease: &mut lease,
        };
        assert_eq!(d.raise(&mut ctx, ev, &UdpArg { dst_port: 53 }).invoked, 1);
        let out = d.raise(&mut ctx, ev, &UdpArg { dst_port: 80 });
        assert_eq!(out.invoked, 0);
        assert_eq!(out.rejected, 1);
        assert_eq!(hits.get(), 1);
    }

    #[test]
    fn verified_guards_count_as_guarded_in_summaries() {
        let d = Dispatcher::new();
        let ev = d.define_event::<UdpArg>("Udp.Summarized");
        d.install(
            ev,
            HandlerSpec::ephemeral(Ephemeral::certify(|_: &mut RaiseCtx, _: &UdpArg| {}))
                .guard(Guard::verified(port_program(7)))
                .interrupt(),
        );
        let summary = d.event_summary();
        assert_eq!(summary[0].handlers, 1);
        assert_eq!(summary[0].guarded, 1);
    }

    #[test]
    #[should_panic(expected = "certified ephemeral handler")]
    fn interrupt_installs_require_certification() {
        let d = Dispatcher::new();
        let ev = d.define_event::<u32>("Uncertified");
        d.install(ev, HandlerSpec::new(|_, _: &u32| {}).interrupt());
    }

    /// A straight-line stateful guard whose worst-case bound (9 Count
    /// tests × 8 cycles + Accept = 73) exceeds the default 64-cycle
    /// interrupt budget while staying under the verifier's 96-cycle cap.
    fn expensive_program() -> Rc<VerifiedProgram> {
        let map = plexus_filter::StateMap::new("hits", plexus_filter::MapKind::Counter, 1);
        let tests: Vec<plexus_filter::Test> = (0..9)
            .map(|_| plexus_filter::Test::Count {
                op: plexus_filter::Operand::Field(plexus_filter::Field::UdpDstPort),
                mask: 0,
                map: 0,
            })
            .collect();
        let prog = plexus_filter::conjunction_stateful(
            plexus_filter::EventKind::UdpRecv,
            &tests,
            Vec::new(),
            vec![map],
            8,
        );
        Rc::new(plexus_filter::verify(&prog).expect("verifies"))
    }

    #[test]
    fn interrupt_admission_rejects_over_budget_guards() {
        let d = Dispatcher::new();
        let ev = d.define_event::<UdpArg>("Udp.Admitted");
        let vp = expensive_program();
        let bound = vp.static_bound();
        assert!(bound > DEFAULT_INTERRUPT_CYCLE_BUDGET);
        let err = d
            .try_install(
                ev,
                HandlerSpec::ephemeral(Ephemeral::certify(|_: &mut RaiseCtx, _: &UdpArg| {}))
                    .guard(Guard::verified(vp.clone()))
                    .interrupt(),
            )
            .unwrap_err();
        assert_eq!(
            err,
            InstallError::GuardOverBudget {
                bound,
                budget: DEFAULT_INTERRUPT_CYCLE_BUDGET
            }
        );
        assert!(err.to_string().contains("interrupt budget"));
        assert_eq!(d.handler_count(ev), 0, "a refused spec installs nothing");
        // The same guard is fine in thread mode (no interrupt budget)...
        d.install(
            ev,
            HandlerSpec::new(|_, _: &UdpArg| {}).guard(Guard::verified(vp.clone())),
        );
        // ...and admits at interrupt level once the budget covers it.
        d.set_interrupt_cycle_budget(bound);
        d.install(
            ev,
            HandlerSpec::ephemeral(Ephemeral::certify(|_: &mut RaiseCtx, _: &UdpArg| {}))
                .guard(Guard::verified(vp))
                .interrupt(),
        );
        assert_eq!(d.handler_count(ev), 2);
    }

    #[test]
    #[should_panic(expected = "per-event interrupt budget")]
    fn install_panics_on_over_budget_guard() {
        let d = Dispatcher::new();
        let ev = d.define_event::<UdpArg>("Udp.Strict.Budget");
        d.set_interrupt_cycle_budget(2);
        d.install(
            ev,
            HandlerSpec::ephemeral(Ephemeral::certify(|_: &mut RaiseCtx, _: &UdpArg| {}))
                .guard(Guard::verified(port_program(53)))
                .interrupt(),
        );
    }

    #[test]
    fn try_install_reports_refusals_without_panicking() {
        let d = Dispatcher::new();
        let ev = d.define_event::<UdpArg>("Udp.Tried");
        assert_eq!(
            d.try_install(ev, HandlerSpec::new(|_, _: &UdpArg| {}).interrupt())
                .unwrap_err(),
            InstallError::UncertifiedInterrupt
        );
        assert!(matches!(
            d.try_install(
                ev,
                HandlerSpec::ephemeral(Ephemeral::certify(|_: &mut RaiseCtx, _: &UdpArg| {}))
                    .guard(Guard::verified(expensive_program()))
                    .interrupt(),
            ),
            Err(InstallError::GuardOverBudget { .. })
        ));
        assert_eq!(d.handler_count(ev), 0);
        // Unindexable and indexable guards alike admit at interrupt level
        // once they fit the budget.
        let unindexed = d
            .try_install(
                ev,
                HandlerSpec::ephemeral(Ephemeral::certify(|_: &mut RaiseCtx, _: &UdpArg| {}))
                    .guard(Guard::verified(accept_unless(&[53])))
                    .interrupt(),
            )
            .expect("within budget");
        assert!(d.uninstall(ev, unindexed));
        let id = d
            .try_install(
                ev,
                HandlerSpec::ephemeral(Ephemeral::certify(|_: &mut RaiseCtx, _: &UdpArg| {}))
                    .guard(Guard::verified(port_program(53)))
                    .interrupt(),
            )
            .expect("within budget");
        assert!(d.uninstall(ev, id));
    }

    #[test]
    fn demux_probes_are_counted_once_per_paid_probe() {
        let (mut engine, cpu) = ctx_parts();
        let d = Dispatcher::new();
        let ev = d.define_event::<UdpArg>("Udp.Probed");
        d.install(
            ev,
            HandlerSpec::new(|_, _: &UdpArg| {}).guard(Guard::verified(port_program(53))),
        );
        let mut lease = cpu.begin(SimTime::ZERO);
        let mut ctx = RaiseCtx {
            engine: &mut engine,
            lease: &mut lease,
        };
        d.raise(&mut ctx, ev, &UdpArg { dst_port: 53 });
        d.raise(&mut ctx, ev, &UdpArg { dst_port: 80 });
        assert_eq!(d.stats().demux_probes, 2, "each lone raise pays a probe");
        let mut batch = d.batch(ev);
        batch.raise(&mut ctx, &UdpArg { dst_port: 53 });
        batch.raise(&mut ctx, &UdpArg { dst_port: 53 });
        batch.raise(&mut ctx, &UdpArg { dst_port: 53 });
        let stats = d.stats();
        assert_eq!(stats.demux_probes, 3, "a batch pays the probe once");
        assert_eq!(stats.demux_hits, 5, "every raise still walks the buckets");
    }

    /// Every combination the old shim quartet covered (thread/interrupt ×
    /// default/explicit owner, with guards and time limits) goes through
    /// the one `install` entry point.
    #[test]
    fn unified_install_covers_every_former_shim_shape() {
        let (mut engine, cpu) = ctx_parts();
        let d = Dispatcher::new();
        let ev = d.define_event::<UdpArg>("Udp.Shimmed");
        let hits = Rc::new(Cell::new(0u32));
        let h = hits.clone();
        d.install(
            ev,
            HandlerSpec::new(move |_, _: &UdpArg| h.set(h.get() + 1)),
        );
        let h = hits.clone();
        d.install(
            ev,
            HandlerSpec::new(move |_, _: &UdpArg| h.set(h.get() + 1)).owner("ext-a"),
        );
        let h = hits.clone();
        d.install(
            ev,
            HandlerSpec::ephemeral(Ephemeral::certify(move |_: &mut RaiseCtx, _: &UdpArg| {
                h.set(h.get() + 1)
            }))
            .guard(Guard::verified(port_program(53)))
            .interrupt(),
        );
        let h = hits.clone();
        d.install(
            ev,
            HandlerSpec::ephemeral(Ephemeral::certify(move |_: &mut RaiseCtx, _: &UdpArg| {
                h.set(h.get() + 1)
            }))
            .interrupt()
            .time_limit(Some(SimDuration::from_micros(10)))
            .owner("ext-b"),
        );
        let mut lease = cpu.begin(SimTime::ZERO);
        let mut ctx = RaiseCtx {
            engine: &mut engine,
            lease: &mut lease,
        };
        let out = d.raise(&mut ctx, ev, &UdpArg { dst_port: 53 });
        assert_eq!(out.invoked, 4, "all four install shapes are live");
        assert_eq!(hits.get(), 4);
    }

    #[test]
    fn demux_skips_provably_rejecting_guards_without_evaluating() {
        let (mut engine, cpu) = ctx_parts();
        let d = Dispatcher::new();
        let ev = d.define_event::<UdpArg>("Udp.Indexed");
        let hits = Rc::new(RefCell::new(Vec::new()));
        for port in [53u64, 80, 443] {
            let h = hits.clone();
            d.install(
                ev,
                HandlerSpec::new(move |_, _: &UdpArg| h.borrow_mut().push(port))
                    .guard(Guard::verified(port_program(port))),
            );
        }
        let mut lease = cpu.begin(SimTime::ZERO);
        let mut ctx = RaiseCtx {
            engine: &mut engine,
            lease: &mut lease,
        };
        let out = d.raise(&mut ctx, ev, &UdpArg { dst_port: 80 });
        assert_eq!(out.invoked, 1);
        assert_eq!(out.rejected, 2, "skipped entries still count as rejected");
        assert_eq!(*hits.borrow(), vec![80]);
        let stats = d.stats();
        assert_eq!(stats.guard_evals, 1, "only the candidate's guard ran");
        assert_eq!(stats.guard_rejects, 0);
        assert_eq!(stats.demux_hits, 1);
        assert_eq!(stats.demux_skipped, 2);
        assert_eq!(stats.demux_fallbacks, 0);
    }

    #[test]
    fn demux_outcome_matches_linear_scan_exactly() {
        let run = |demux: bool| {
            let (mut engine, cpu) = ctx_parts();
            let d = Dispatcher::new();
            d.set_demux_enabled(demux);
            let ev = d.define_event::<UdpArg>("Udp.Compared");
            let order = Rc::new(RefCell::new(Vec::new()));
            for (tag, port) in [("a", 53u64), ("b", 80), ("c", 53)] {
                let o = order.clone();
                d.install(
                    ev,
                    HandlerSpec::new(move |_, _: &UdpArg| o.borrow_mut().push(tag))
                        .guard(Guard::verified(port_program(port))),
                );
            }
            // One unindexable guard mixed in.
            let o = order.clone();
            d.install(
                ev,
                HandlerSpec::new(move |_, _: &UdpArg| o.borrow_mut().push("z"))
                    .guard(Guard::verified(accept_unless(&[80]))),
            );
            let mut lease = cpu.begin(SimTime::ZERO);
            let mut ctx = RaiseCtx {
                engine: &mut engine,
                lease: &mut lease,
            };
            let out53 = d.raise(&mut ctx, ev, &UdpArg { dst_port: 53 });
            let out80 = d.raise(&mut ctx, ev, &UdpArg { dst_port: 80 });
            let seen = order.borrow().clone();
            (out53, out80, seen)
        };
        assert_eq!(run(true), run(false), "same outcomes, same handler order");
    }

    #[test]
    fn demux_probe_replaces_linear_guard_charges() {
        let run = |demux: bool| {
            let (mut engine, cpu) = ctx_parts();
            let d = Dispatcher::new();
            d.set_demux_enabled(demux);
            let ev = d.define_event::<UdpArg>("Udp.Charged");
            for port in 1..=8u64 {
                d.install(
                    ev,
                    HandlerSpec::new(|_, _: &UdpArg| {}).guard(Guard::verified(port_program(port))),
                );
            }
            let mut lease = cpu.begin(SimTime::ZERO);
            let mut ctx = RaiseCtx {
                engine: &mut engine,
                lease: &mut lease,
            };
            d.raise(&mut ctx, ev, &UdpArg { dst_port: 3 });
            lease.elapsed()
        };
        let (_, cpu) = ctx_parts();
        let model = cpu.model().clone();
        let handler = model.thread_spawn + model.context_switch + model.dispatch_handler;
        // Indexed: raise + one probe + one real eval + handler.
        assert_eq!(
            run(true),
            model.dispatch_raise + model.demux_probe + model.guard_eval + handler
        );
        // Linear: raise + eight evals + handler.
        assert_eq!(
            run(false),
            model.dispatch_raise + model.guard_eval * 8 + handler
        );
    }

    #[test]
    fn demux_index_follows_uninstall() {
        let (mut engine, cpu) = ctx_parts();
        let d = Dispatcher::new();
        let ev = d.define_event::<UdpArg>("Udp.Unindexed");
        let id53 = d.install(
            ev,
            HandlerSpec::new(|_, _: &UdpArg| {}).guard(Guard::verified(port_program(53))),
        );
        d.install(
            ev,
            HandlerSpec::new(|_, _: &UdpArg| {}).guard(Guard::verified(port_program(80))),
        );
        let mut lease = cpu.begin(SimTime::ZERO);
        let mut ctx = RaiseCtx {
            engine: &mut engine,
            lease: &mut lease,
        };
        assert_eq!(d.raise(&mut ctx, ev, &UdpArg { dst_port: 53 }).invoked, 1);
        assert!(d.uninstall(ev, id53));
        let out = d.raise(&mut ctx, ev, &UdpArg { dst_port: 53 });
        assert_eq!(out.invoked, 0);
        assert_eq!(out.rejected, 1, "only the live port-80 entry is skipped");
        assert_eq!(d.stats().demux_hits, 2, "index still probes for port 80");
    }

    #[test]
    fn demux_falls_back_when_nothing_is_indexable() {
        let (mut engine, cpu) = ctx_parts();
        let d = Dispatcher::new();
        let ev = d.define_event::<UdpArg>("Udp.Fallback");
        d.install(
            ev,
            HandlerSpec::new(|_, _: &UdpArg| {}).guard(Guard::verified(accept_unless(&[80]))),
        );
        let mut lease = cpu.begin(SimTime::ZERO);
        let mut ctx = RaiseCtx {
            engine: &mut engine,
            lease: &mut lease,
        };
        d.raise(&mut ctx, ev, &UdpArg { dst_port: 53 });
        let stats = d.stats();
        assert_eq!(stats.demux_hits, 0);
        assert_eq!(stats.demux_fallbacks, 1);
        assert_eq!(stats.guard_evals, 1);
    }

    /// An IpRecv-shaped argument whose transport dst port sits at payload
    /// bytes 2..4, as the real IP receive argument exposes it.
    struct IpArg {
        proto: u64,
        payload: Vec<u8>,
    }

    impl plexus_filter::Packet for IpArg {
        fn kind(&self) -> plexus_filter::EventKind {
            plexus_filter::EventKind::IpRecv
        }
        fn field(&self, field: plexus_filter::Field) -> Option<u64> {
            match field {
                plexus_filter::Field::IpProto => Some(self.proto),
                plexus_filter::Field::IpSrc | plexus_filter::Field::IpDst => Some(0),
                plexus_filter::Field::IpPayloadLen => Some(self.payload.len() as u64),
                _ => None,
            }
        }
        fn head(&self) -> &[u8] {
            &self.payload
        }
    }

    #[test]
    fn demux_checks_not_in_port_sets_live() {
        // The UDP-standard node's guard shape: proto == 17 AND dst port
        // not in the claimed set. Claims must take effect without
        // reinstalling — the index checks the shared set at visit time.
        let (mut engine, cpu) = ctx_parts();
        let d = Dispatcher::new();
        let ev = d.define_event::<IpArg>("Ip.PacketRecv");
        let special = plexus_filter::PortSet::new();
        let prog = plexus_filter::conjunction(
            plexus_filter::EventKind::IpRecv,
            &[
                plexus_filter::Test::eq(
                    plexus_filter::Operand::Field(plexus_filter::Field::IpProto),
                    17,
                ),
                plexus_filter::Test::NotInSet {
                    op: plexus_filter::Operand::Pay {
                        off: 2,
                        width: plexus_filter::Width::W16,
                    },
                    set: 0,
                },
            ],
            vec![special.clone()],
        );
        let vp = Rc::new(plexus_filter::verify(&prog).expect("verifies"));
        let hits = Rc::new(Cell::new(0u32));
        let h = hits.clone();
        d.install(
            ev,
            HandlerSpec::new(move |_, _: &IpArg| h.set(h.get() + 1)).guard(Guard::verified(vp)),
        );
        let pkt = IpArg {
            proto: 17,
            payload: vec![0, 0, 0, 53, 0, 0, 0, 0], // dst port 53
        };
        let mut lease = cpu.begin(SimTime::ZERO);
        let mut ctx = RaiseCtx {
            engine: &mut engine,
            lease: &mut lease,
        };
        assert_eq!(d.raise(&mut ctx, ev, &pkt).invoked, 1);
        special.insert(53);
        let out = d.raise(&mut ctx, ev, &pkt);
        assert_eq!(out.invoked, 0);
        assert_eq!(out.rejected, 1, "claimed port skipped at visit time");
        assert_eq!(
            d.stats().guard_evals,
            1,
            "the claimed-port rejection never ran the guard"
        );
        special.remove(53);
        assert_eq!(d.raise(&mut ctx, ev, &pkt).invoked, 1);
    }

    #[test]
    fn mid_raise_installs_do_not_poison_the_index() {
        // A handler that installs another indexed handler while the raise
        // is walking the snapshot: the install mutates the demux state,
        // which must not alias the probe's borrow.
        let (mut engine, cpu) = ctx_parts();
        let d = Dispatcher::new();
        let ev = d.define_event::<UdpArg>("Udp.MidRaise");
        let d2 = d.clone();
        let installed = Rc::new(Cell::new(false));
        let flag = installed.clone();
        d.install(
            ev,
            HandlerSpec::new(move |_, _: &UdpArg| {
                if !flag.get() {
                    flag.set(true);
                    d2.install(
                        ev,
                        HandlerSpec::new(|_, _: &UdpArg| {})
                            .guard(Guard::verified(port_program(53))),
                    );
                }
            })
            .guard(Guard::verified(port_program(53))),
        );
        let mut lease = cpu.begin(SimTime::ZERO);
        let mut ctx = RaiseCtx {
            engine: &mut engine,
            lease: &mut lease,
        };
        assert_eq!(d.raise(&mut ctx, ev, &UdpArg { dst_port: 53 }).invoked, 1);
        assert_eq!(d.raise(&mut ctx, ev, &UdpArg { dst_port: 53 }).invoked, 2);
    }

    #[test]
    #[should_panic(expected = "already defined")]
    fn duplicate_event_names_are_rejected() {
        let d = Dispatcher::new();
        d.define_event::<u32>("Dup");
        d.define_event::<u64>("Dup");
    }

    #[test]
    #[should_panic(expected = "different dispatcher")]
    fn foreign_event_handles_are_rejected() {
        let d1 = Dispatcher::new();
        let d2 = Dispatcher::new();
        let ev = d1.define_event::<u32>("Foreign");
        d2.handler_count(ev);
    }
}

#[cfg(test)]
mod recorder_tests {
    use super::tests::{accept_unless, port_program, UdpArg};
    use super::*;
    use plexus_sim::cpu::{CostModel, Cpu};
    use plexus_sim::time::SimTime;
    use plexus_trace::{CounterKey, Recorder, TraceEvent};

    #[test]
    fn raise_records_guard_and_handler_events_with_owner() {
        let mut engine = Engine::new();
        let cpu = Cpu::new(CostModel::alpha_3000_400());
        let rec = Recorder::new(64);
        cpu.set_recorder(Some(rec.clone()));

        let d = Dispatcher::new();
        // Force the linear scan so the rejecting raise runs the guard.
        d.set_demux_enabled(false);
        let ev = d.define_event::<UdpArg>("Udp.PacketRecv");
        d.install(
            ev,
            HandlerSpec::new(|_, _| {})
                .guard(Guard::verified(port_program(42)))
                .owner("rtt-extension"),
        );
        let mut lease = cpu.begin(SimTime::ZERO);
        let mut ctx = RaiseCtx {
            engine: &mut engine,
            lease: &mut lease,
        };
        d.raise(&mut ctx, ev, &UdpArg { dst_port: 42 });
        d.raise(&mut ctx, ev, &UdpArg { dst_port: 3 });
        drop(lease);

        let lbl = rec.intern("Udp.PacketRecv");
        let dom = rec.intern("rtt-extension");
        let get = |scope, label, metric| {
            rec.registry().get(CounterKey {
                scope,
                label,
                metric,
            })
        };
        assert_eq!(get(Scope::Event, lbl, "raises"), 2);
        assert_eq!(get(Scope::Guard, lbl, "verified.accepts"), 1);
        assert_eq!(get(Scope::Guard, lbl, "verified.rejects"), 1);
        assert_eq!(get(Scope::Handler, lbl, "invocations"), 1);
        assert_eq!(get(Scope::Domain, dom, "invocations"), 1);

        let events = rec.events();
        let enters: Vec<_> = events
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::HandlerEnter { .. }))
            .collect();
        let exits: Vec<_> = events
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::HandlerExit { .. }))
            .collect();
        assert_eq!(enters.len(), 1);
        assert_eq!(exits.len(), 1);
        assert!(exits[0].at_ns >= enters[0].at_ns);
    }

    #[test]
    fn termination_is_attributed_to_the_owning_domain() {
        let mut engine = Engine::new();
        let cpu = Cpu::new(CostModel::alpha_3000_400());
        let rec = Recorder::new(64);
        cpu.set_recorder(Some(rec.clone()));

        let d = Dispatcher::new();
        let ev = d.define_event::<u32>("Limited");
        d.install(
            ev,
            HandlerSpec::ephemeral(Ephemeral::certify(|ctx: &mut RaiseCtx, _: &u32| {
                ctx.lease.charge(SimDuration::from_millis(1));
            }))
            .time_limit(SimDuration::from_micros(10))
            .owner("runaway-ext"),
        );
        let mut lease = cpu.begin(SimTime::ZERO);
        let mut ctx = RaiseCtx {
            engine: &mut engine,
            lease: &mut lease,
        };
        let out = d.raise(&mut ctx, ev, &0);
        assert_eq!(out.terminated, 1);
        let dom = rec.intern("runaway-ext");
        assert_eq!(
            rec.registry().get(CounterKey {
                scope: Scope::Domain,
                label: dom,
                metric: "terminations",
            }),
            1
        );
    }

    #[test]
    fn verified_guard_evals_record_the_static_bound_cross_check() {
        let mut engine = Engine::new();
        let cpu = Cpu::new(CostModel::alpha_3000_400());
        let rec = Recorder::new(64);
        cpu.set_recorder(Some(rec.clone()));

        let d = Dispatcher::new();
        // Force the linear scan so both raises run the guard for real.
        d.set_demux_enabled(false);
        let ev = d.define_event::<UdpArg>("Udp.CrossChecked");
        let vp = port_program(53);
        let bound = u64::from(vp.static_bound());
        d.install(
            ev,
            HandlerSpec::ephemeral(Ephemeral::certify(|_: &mut RaiseCtx, _: &UdpArg| {}))
                .guard(Guard::verified(vp))
                .interrupt(),
        );
        let mut lease = cpu.begin(SimTime::ZERO);
        let mut ctx = RaiseCtx {
            engine: &mut engine,
            lease: &mut lease,
        };
        d.raise(&mut ctx, ev, &UdpArg { dst_port: 53 });
        d.raise(&mut ctx, ev, &UdpArg { dst_port: 80 });
        drop(lease);

        let lbl = rec.intern("Udp.CrossChecked");
        let get = |metric| {
            rec.registry().get(CounterKey {
                scope: Scope::Guard,
                label: lbl,
                metric,
            })
        };
        assert_eq!(get("cycles.bound"), 2 * bound);
        let measured = get("cycles.measured");
        assert!(
            measured >= 2 && measured <= 2 * bound,
            "measured {measured} outside (0, 2×bound]"
        );
        assert_eq!(get("cycles.exceeded"), 0, "the static bound holds");
    }

    #[test]
    fn without_a_recorder_raise_behaves_identically() {
        // Costs and stats must not depend on whether tracing is on.
        let run = |with_recorder: bool| {
            let mut engine = Engine::new();
            let cpu = Cpu::new(CostModel::alpha_3000_400());
            if with_recorder {
                cpu.set_recorder(Some(Recorder::new(16)));
            }
            let d = Dispatcher::new();
            let ev = d.define_event::<UdpArg>("Same");
            d.install(
                ev,
                HandlerSpec::new(|_, _| {}).guard(Guard::verified(port_program(0))),
            );
            let mut lease = cpu.begin(SimTime::ZERO);
            let mut ctx = RaiseCtx {
                engine: &mut engine,
                lease: &mut lease,
            };
            d.raise(&mut ctx, ev, &UdpArg { dst_port: 0 });
            (lease.elapsed(), d.stats())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn display_formats_all_counters() {
        let stats = DispatchStats {
            raises: 10,
            invocations: 8,
            guard_evals: 6,
            guard_rejects: 2,
            verified_guard_evals: 4,
            compiled_guard_evals: 4,
            terminations: 3,
            demux_probes: 5,
            demux_hits: 5,
            demux_fallbacks: 2,
            demux_skipped: 9,
        };
        let s = stats.to_string();
        assert_eq!(
            s,
            "raises=10 invocations=8 guard_evals=6 (verified 4, compiled 4) \
             guard_rejects=2 terminations=3 \
             demux_probes=5 demux_hits=5 demux_fallbacks=2 \
             demux_skipped=9"
        );
        // Regression: the leading counters keep their exact wording, so
        // anything parsing the old prefix keeps working.
        assert!(s.starts_with("raises=10 invocations=8 guard_evals=6 (verified 4"));

        // What a live dispatcher reports: every guard is verified and runs
        // on the compiled tier, so the per-tier counters (which the host
        // benchmark turns into shares) equal the total — over accepts,
        // rejects, and both dispatch regimes.
        let mut engine = Engine::new();
        let cpu = Cpu::new(CostModel::alpha_3000_400());
        let d = Dispatcher::new();
        let indexed = d.define_event::<UdpArg>("Udp.Indexed");
        let linear = d.define_event::<UdpArg>("Udp.Linear");
        d.install(
            indexed,
            HandlerSpec::new(|_, _: &UdpArg| {}).guard(Guard::verified(port_program(9))),
        );
        d.install(
            linear,
            HandlerSpec::new(|_, _: &UdpArg| {}).guard(Guard::verified(accept_unless(&[7]))),
        );
        let mut lease = cpu.begin(SimTime::ZERO);
        let mut ctx = RaiseCtx {
            engine: &mut engine,
            lease: &mut lease,
        };
        for port in [9u64, 9, 7] {
            d.raise(&mut ctx, indexed, &UdpArg { dst_port: port });
            d.raise(&mut ctx, linear, &UdpArg { dst_port: port });
        }
        let stats = d.stats();
        assert_eq!(stats.invocations, 4);
        assert_eq!(stats.guard_rejects, 1, "the linear guard rejects port 7");
        assert_eq!(stats.guard_evals, 5, "the index skips the port-7 eval");
        assert_eq!(stats.verified_guard_evals, stats.guard_evals);
        assert_eq!(stats.compiled_guard_evals, stats.guard_evals);
    }
}
