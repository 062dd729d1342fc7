//! The benchmark's own span recorder.
//!
//! Every call the benchmark makes into a layer's public API goes through
//! [`span`], which records a name, start, end, parent and iteration id
//! when tracing is on and is a single thread-local flag test when it is
//! off. Spans live in memory; [`end_iteration`] folds each iteration's
//! spans into per-name totals (calls, wall time, self time), and the
//! spans of the first [`KEEP_ITERATIONS`] traced iterations are kept
//! whole for [`write_tsv`]. A span's self time is its duration minus the
//! time its direct children cover; the self time of `sim.run` (the
//! `World::run_for` span) is the residual that calls from outside cannot
//! reach: the engine, NIC receive, dispatch, guards and decapsulation.
//!
//! The simulator is single threaded (`Rc` everywhere), so one
//! thread-local stack of open spans is the whole parent relation.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Whole iterations of raw spans kept for the span file; the rest are
/// folded into totals and dropped so memory stays flat over long runs.
pub const KEEP_ITERATIONS: u32 = 2;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.what`, e.g. `core.udp.send`.
    pub name: &'static str,
    /// Host ns since the recorder's epoch.
    pub start_ns: u64,
    /// Host ns since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span within the same iteration.
    pub parent: Option<u32>,
    /// Iteration the span belongs to.
    pub iter: u32,
}

/// Per-name totals over every folded iteration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times (duration minus direct children).
    pub self_ns: u64,
}

struct State {
    epoch: Instant,
    iter: u32,
    open: Vec<u32>,
    spans: Vec<Span>,
    kept: Vec<Span>,
    totals: BTreeMap<&'static str, NameTotals>,
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static STATE: RefCell<State> = RefCell::new(State {
        epoch: Instant::now(),
        iter: 0,
        open: Vec::new(),
        spans: Vec::new(),
        kept: Vec::new(),
        totals: BTreeMap::new(),
    });
}

/// Switches recording on or off. Off is the state end-to-end numbers
/// are measured in.
pub fn set_enabled(on: bool) {
    ON.with(|f| f.set(on));
}

/// Runs `f` inside a span named `name` (when recording is on).
#[inline]
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !ON.with(Cell::get) {
        return f();
    }
    let idx = STATE.with(|s| {
        let mut s = s.borrow_mut();
        let idx = s.spans.len() as u32;
        let span = Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: s.open.last().copied(),
            iter: s.iter,
        };
        s.spans.push(span);
        s.open.push(idx);
        let start = s.epoch.elapsed().as_nanos() as u64;
        s.spans[idx as usize].start_ns = start;
        idx
    });
    let out = f();
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        let end = s.epoch.elapsed().as_nanos() as u64;
        s.spans[idx as usize].end_ns = end;
        let top = s.open.pop();
        debug_assert_eq!(top, Some(idx), "spans close in LIFO order");
    });
    out
}

/// Self time of every span in `spans` (one iteration, in open order).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p as usize] += s.end_ns - s.start_ns;
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
        .collect()
}

/// Folds the current iteration's spans into the totals and starts the
/// next iteration.
pub fn end_iteration() {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        assert!(s.open.is_empty(), "iteration ended inside an open span");
        let spans = std::mem::take(&mut s.spans);
        for (span, self_ns) in spans.iter().zip(self_times(&spans)) {
            let t = s.totals.entry(span.name).or_default();
            t.calls += 1;
            t.total_ns += span.end_ns - span.start_ns;
            t.self_ns += self_ns;
        }
        if s.iter < KEEP_ITERATIONS {
            s.kept.extend(spans.iter().cloned());
        }
        s.iter += 1;
        let mut spans = spans;
        spans.clear();
        s.spans = spans;
    });
}

/// Per-name totals folded so far.
pub fn totals() -> BTreeMap<&'static str, NameTotals> {
    STATE.with(|s| s.borrow().totals.clone())
}

/// The layer a span name belongs to: the part before the first dot.
pub fn layer_of(name: &str) -> &str {
    name.split_once('.').map_or(name, |(layer, _)| layer)
}

/// Writes the kept spans as tab-separated lines
/// (`iter index parent name start_ns end_ns self_ns`).
pub fn write_tsv(path: &Path) -> io::Result<()> {
    STATE.with(|s| {
        let s = s.borrow();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "iter\tindex\tparent\tname\tstart_ns\tend_ns\tself_ns")?;
        let mut first = 0;
        while first < s.kept.len() {
            let iter = s.kept[first].iter;
            let len = s.kept[first..]
                .iter()
                .take_while(|sp| sp.iter == iter)
                .count();
            let spans = &s.kept[first..first + len];
            for (i, (sp, self_ns)) in spans.iter().zip(self_times(spans)).enumerate() {
                let parent = sp.parent.map_or(String::from("-"), |p| p.to_string());
                writeln!(
                    out,
                    "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                    sp.iter, i, parent, sp.name, sp.start_ns, sp.end_ns, self_ns
                )?;
            }
            first += len;
        }
        out.flush()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            iter: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            sp("bench.iter", 0, 100, None),
            sp("sim.run", 10, 90, Some(0)),
            sp("apps.handler", 20, 50, Some(1)),
            sp("core.udp.send", 30, 45, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![20, 50, 15, 15]);
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 100, "self times telescope to the root's duration");
    }

    #[test]
    fn recording_nests_and_folds() {
        set_enabled(true);
        span("bench.iter", || {
            span("sim.run", || {
                span("apps.handler", || {});
            });
        });
        end_iteration();
        set_enabled(false);
        span("sim.run", || {});
        let t = totals();
        assert_eq!(t["bench.iter"].calls, 1);
        assert_eq!(t["sim.run"].calls, 1, "disabled spans are not recorded");
        assert_eq!(t["apps.handler"].calls, 1);
        let root = t["bench.iter"];
        let sum: u64 = t.values().map(|n| n.self_ns).sum();
        assert_eq!(sum, root.total_ns);
        assert_eq!(layer_of("core.udp.send"), "core");
    }
}
