//! The global sink: lock-free per-thread event collection with a
//! deterministic logical clock.
//!
//! # Architecture
//!
//! Every instrumented thread owns a private `LocalSink` (a
//! `thread_local!` cell): counters, histograms, and span aggregates are
//! recorded there with no locks and no allocation on the
//! counter/histogram hot path. The only synchronization on a record is
//! a `Relaxed` load of the global enabled flag (and, while a session is
//! open, of the session id) — when the sink is disabled (the default),
//! every record call is that load plus a predictable branch, and with
//! the `collect` feature off the calls compile to nothing at all.
//!
//! Local state drains into the global aggregate on [`flush`] and on
//! thread exit (the `thread_local` destructor). The destructor alone is
//! not enough for scoped workers: `std::thread::scope` unblocks the
//! spawner when the worker *closure* returns, which can be a hair before
//! the worker's TLS destructors run — so instrumented worker closures
//! (e.g. `monte_carlo_par`'s) end with an explicit [`flush`], making
//! their events deterministically visible to any later snapshot. The
//! global merge is a cold path behind a `Mutex`.
//!
//! # Determinism
//!
//! Traces must be byte-stable across runs *and thread counts*, so:
//!
//! - No wall time anywhere. Spans carry energy and item counts, not
//!   latency; the one logical latency metric is interpreter fuel, the
//!   `core.interp.fuel_per_eval` histogram.
//! - All aggregation is integer addition / min / max — order-free.
//! - Spans carry **event-sequence numbers** from a per-thread logical
//!   clock that ticks once per span opened. Serial code gets a
//!   reproducible sequence for free. Work farmed to threads must use
//!   [`span_indexed`] with a deterministic logical index (e.g. the
//!   Monte-Carlo chunk index) instead of the clock; indices merge via
//!   min/max, so the aggregate is identical no matter which worker ran
//!   which chunk.
//! - Spans aggregate by their *path* (`kind:name` segments joined by
//!   `/`), not by arrival order, and exports sort by path.
//!
//! # Sessions
//!
//! The aggregate is process-global, so concurrent test threads would bleed
//! events into each other's traces. A [`Session`] serializes access: it
//! holds a global session lock, resets all state (bumping an epoch that
//! invalidates every thread's stale local data), enables collection, and
//! disables it again on drop. Tests and `repro_all` both collect through
//! sessions.
//!
//! Collection is also scoped to the session's own threads. Each session's
//! epoch doubles as its id, and a thread records only while its
//! thread-local tag equals the live id. [`session`] tags the opening
//! thread; workers that the session's code spawns are handed the tag
//! explicitly ([`session_tag`] on the spawner, [`adopt`] on the worker).
//! Any other thread sees [`enabled`] as `false` and records nothing, so
//! an unrelated thread that happens to run (and flush) while a session
//! is open cannot leak into its snapshot.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::hist::{Histogram, HistogramSpec};
use crate::snapshot::{Snapshot, SpanSnap};

/// What a span describes; its first path-segment component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Interface composition (`link`/`link_closure`).
    Link,
    /// A concrete energy query (batch evaluation, exact enumeration).
    EnergyQuery,
    /// A Monte-Carlo evaluation driver.
    Mc,
    /// One Monte-Carlo sample chunk (indexed; may run on any worker).
    McChunk,
    /// A memoized cache lookup.
    CacheLookup,
    /// A microbenchmark fitting campaign.
    Fit,
    /// One service request.
    Request,
    /// One LLM generation run.
    Generate,
    /// A scheduling run.
    Schedule,
    /// A cluster placement run.
    Placement,
    /// A top-level experiment (Table 1, Fig. 1/2, E1–E7).
    Experiment,
}

impl SpanKind {
    /// Stable lowercase name used in span paths.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Link => "link",
            SpanKind::EnergyQuery => "energy_query",
            SpanKind::Mc => "mc",
            SpanKind::McChunk => "mc_chunk",
            SpanKind::CacheLookup => "cache_lookup",
            SpanKind::Fit => "fit",
            SpanKind::Request => "request",
            SpanKind::Generate => "generate",
            SpanKind::Schedule => "schedule",
            SpanKind::Placement => "placement",
            SpanKind::Experiment => "experiment",
        }
    }
}

/// Order-free aggregate of every span recorded at one path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SpanAgg {
    count: u64,
    first_seq: u64,
    last_seq: u64,
    energy_nj: u64,
    items: u64,
}

impl SpanAgg {
    fn merge(&mut self, other: &SpanAgg) {
        self.count += other.count;
        self.first_seq = self.first_seq.min(other.first_seq);
        self.last_seq = self.last_seq.max(other.last_seq);
        self.energy_nj = self.energy_nj.wrapping_add(other.energy_nj);
        self.items = self.items.wrapping_add(other.items);
    }
}

/// The global aggregate all thread sinks drain into.
struct Agg {
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, Histogram>,
    spans: BTreeMap<String, SpanAgg>,
}

impl Agg {
    const fn new() -> Agg {
        Agg {
            counters: BTreeMap::new(),
            hists: BTreeMap::new(),
            spans: BTreeMap::new(),
        }
    }

    fn clear(&mut self) {
        self.counters.clear();
        self.hists.clear();
        self.spans.clear();
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: AtomicU64 = AtomicU64::new(0);
static GLOBAL: Mutex<Agg> = Mutex::new(Agg::new());
static SESSION: Mutex<()> = Mutex::new(());

fn global() -> MutexGuard<'static, Agg> {
    GLOBAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// True when the sink is collecting for this thread: a session is open
/// and this thread belongs to it. One `Relaxed` load while no session is
/// open; every record call bails immediately on `false`.
#[inline(always)]
pub fn enabled() -> bool {
    #[cfg(feature = "collect")]
    {
        ENABLED.load(Ordering::Relaxed)
            && TAG
                .try_with(Cell::get)
                .is_ok_and(|tag| tag == EPOCH.load(Ordering::Relaxed))
    }
    #[cfg(not(feature = "collect"))]
    {
        false
    }
}

/// One thread's private event buffer.
struct LocalSink {
    epoch: u64,
    /// Logical clock: ticks once per (non-indexed) span opened.
    clock: u64,
    /// Current span path ("kind:name/kind:name").
    path: String,
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, Histogram>,
    spans: BTreeMap<String, SpanAgg>,
}

impl LocalSink {
    const fn new() -> LocalSink {
        LocalSink {
            epoch: 0,
            clock: 0,
            path: String::new(),
            counters: BTreeMap::new(),
            hists: BTreeMap::new(),
            spans: BTreeMap::new(),
        }
    }

    /// Discards state recorded before the last [`Session`] reset.
    fn ensure_epoch(&mut self) {
        let e = EPOCH.load(Ordering::Relaxed);
        if self.epoch != e {
            self.counters.clear();
            self.hists.clear();
            self.spans.clear();
            self.path.clear();
            self.clock = 0;
            self.epoch = e;
        }
    }

    fn flush_into_global(&mut self) {
        if self.counters.is_empty() && self.hists.is_empty() && self.spans.is_empty() {
            return;
        }
        if self.epoch != EPOCH.load(Ordering::Relaxed) {
            // A reset happened since this data was recorded: drop it.
            self.counters.clear();
            self.hists.clear();
            self.spans.clear();
            return;
        }
        let mut g = global();
        for (name, n) in std::mem::take(&mut self.counters) {
            *g.counters.entry(name).or_insert(0) += n;
        }
        for (name, h) in std::mem::take(&mut self.hists) {
            match g.hists.entry(name) {
                std::collections::btree_map::Entry::Occupied(mut e) => e.get_mut().merge(&h),
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(h);
                }
            }
        }
        for (path, agg) in std::mem::take(&mut self.spans) {
            match g.spans.entry(path) {
                std::collections::btree_map::Entry::Occupied(mut e) => e.get_mut().merge(&agg),
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(agg);
                }
            }
        }
    }
}

impl Drop for LocalSink {
    fn drop(&mut self) {
        self.flush_into_global();
    }
}

thread_local! {
    static SINK: RefCell<LocalSink> = const { RefCell::new(LocalSink::new()) };
    /// Id (epoch) of the session this thread records for; 0 for none.
    static TAG: Cell<u64> = const { Cell::new(0) };
}

/// The session a thread records for, handed from a session's thread to
/// the workers it spawns (see [`adopt`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionTag(u64);

/// This thread's session tag, for handing to worker threads.
pub fn session_tag() -> SessionTag {
    SessionTag(TAG.try_with(Cell::get).unwrap_or(0))
}

/// Makes this thread record for the session `tag` came from. Worker
/// threads spawned under a session call this first; a tag from a session
/// that has since ended enables nothing.
pub fn adopt(tag: SessionTag) {
    let _ = TAG.try_with(|t| t.set(tag.0));
}

/// Runs `f` on this thread's sink (no-op during thread teardown races).
#[inline]
fn with_sink<R>(f: impl FnOnce(&mut LocalSink) -> R) -> Option<R> {
    SINK.try_with(|cell| {
        let mut s = cell.borrow_mut();
        s.ensure_epoch();
        f(&mut s)
    })
    .ok()
}

/// Adds `n` to the monotonic counter `name`.
#[inline]
pub fn counter_add(name: &'static str, n: u64) {
    if !enabled() {
        return;
    }
    with_sink(|s| *s.counters.entry(name).or_insert(0) += n);
}

/// Records one observation (in the spec's natural unit, e.g. Joules)
/// into the histogram `name`.
#[inline]
pub fn observe(name: &'static str, spec: &'static HistogramSpec, value: f64) {
    if !enabled() {
        return;
    }
    observe_ticks(name, spec, spec.ticks(value));
}

/// Records one already-quantized observation into the histogram `name`.
#[inline]
pub fn observe_ticks(name: &'static str, spec: &'static HistogramSpec, ticks: u64) {
    if !enabled() {
        return;
    }
    with_sink(|s| {
        s.hists
            .entry(name)
            .or_insert_with(|| Histogram::new(spec))
            .observe_ticks(ticks)
    });
}

/// An open span. Closed (and recorded) on drop.
///
/// Inert when the sink is disabled: construction and drop then touch no
/// thread-local state.
#[must_use = "a span records on drop; binding it to _ closes it immediately"]
pub struct Span {
    active: bool,
    epoch: u64,
    prev_len: usize,
    seq: u64,
    energy_nj: u64,
    items: u64,
}

impl Span {
    const fn inert() -> Span {
        Span {
            active: false,
            epoch: 0,
            prev_len: 0,
            seq: 0,
            energy_nj: 0,
            items: 0,
        }
    }

    /// Adds energy (Joules, quantized to nJ) attributed to this span.
    #[inline]
    pub fn record_energy(&mut self, joules: f64) {
        if self.active {
            self.energy_nj = self
                .energy_nj
                .wrapping_add(crate::hist::ENERGY_J.ticks(joules));
        }
    }

    /// Adds processed items (samples, requests, tokens) to this span.
    #[inline]
    pub fn add_items(&mut self, n: u64) {
        if self.active {
            self.items = self.items.wrapping_add(n);
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.active || !enabled() {
            return;
        }
        with_sink(|s| {
            if s.epoch != self.epoch {
                // The session was reset while this span was open; its
                // path was already cleared — discard the record.
                return;
            }
            let agg = SpanAgg {
                count: 1,
                first_seq: self.seq,
                last_seq: self.seq,
                energy_nj: self.energy_nj,
                items: self.items,
            };
            match s.spans.entry(s.path.clone()) {
                std::collections::btree_map::Entry::Occupied(mut e) => e.get_mut().merge(&agg),
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(agg);
                }
            }
            s.path.truncate(self.prev_len);
        });
    }
}

fn push_segment(path: &mut String, kind: SpanKind, name: &str) {
    if !path.is_empty() {
        path.push('/');
    }
    path.push_str(kind.as_str());
    path.push(':');
    path.push_str(name);
}

/// Opens a span under the current thread's span stack, stamped with the
/// next logical-clock sequence number.
#[inline]
pub fn span(kind: SpanKind, name: &str) -> Span {
    if !enabled() {
        return Span::inert();
    }
    with_sink(|s| {
        let seq = s.clock;
        s.clock += 1;
        let prev_len = s.path.len();
        push_segment(&mut s.path, kind, name);
        Span {
            active: true,
            epoch: s.epoch,
            prev_len,
            seq,
            energy_nj: 0,
            items: 0,
        }
    })
    .unwrap_or(Span::inert())
}

/// Opens a span with an explicit deterministic logical `index` instead
/// of the thread clock — for work items farmed out to arbitrary worker
/// threads (e.g. Monte-Carlo chunks keyed by chunk index).
///
/// `parent` (captured on the orchestrating thread via [`current_path`])
/// roots the span when this thread's own stack is empty, so a chunk
/// records the same path whether it ran inline or on a worker. The
/// thread clock is deliberately untouched: the surrounding serial code
/// sees identical sequence numbers at any thread count.
#[inline]
pub fn span_indexed(parent: &str, kind: SpanKind, name: &str, index: u64) -> Span {
    if !enabled() {
        return Span::inert();
    }
    with_sink(|s| {
        let prev_len = s.path.len();
        if s.path.is_empty() {
            s.path.push_str(parent);
        }
        push_segment(&mut s.path, kind, name);
        Span {
            active: true,
            epoch: s.epoch,
            prev_len,
            seq: index,
            energy_nj: 0,
            items: 0,
        }
    })
    .unwrap_or(Span::inert())
}

/// The current thread's span path, for handing to [`span_indexed`] on
/// worker threads. Empty (no allocation) when the sink is disabled.
pub fn current_path() -> String {
    if !enabled() {
        return String::new();
    }
    with_sink(|s| s.path.clone()).unwrap_or_default()
}

/// Drains this thread's local buffer into the global aggregate.
///
/// Threads also flush automatically on exit, but that runs in the TLS
/// destructor, which `std::thread::scope` does **not** wait for — a
/// scoped worker's destructor can still be running after the spawner
/// resumed. Worker closures that record telemetry must therefore call
/// `flush()` as their last statement; elsewhere an explicit flush is
/// only needed on a live thread that wants its events visible to a
/// snapshot.
pub fn flush() {
    // Skip ensure_epoch: flush_into_global re-checks and discards stale
    // data itself.
    let _ = SINK.try_with(|cell| cell.borrow_mut().flush_into_global());
}

/// A collection session: holds the global session lock, with all state
/// reset and the sink enabled until dropped.
pub struct Session {
    _guard: MutexGuard<'static, ()>,
}

/// Invalidates all recorded state and returns the new epoch.
fn reset() -> u64 {
    let epoch = EPOCH.fetch_add(1, Ordering::SeqCst) + 1;
    global().clear();
    epoch
}

/// Starts a collecting session (resets state, enables the sink for the
/// calling thread).
///
/// Concurrent sessions serialize on a global lock; threads that neither
/// opened the session nor [`adopt`]ed its tag record nothing.
pub fn session() -> Session {
    let guard = SESSION.lock().unwrap_or_else(PoisonError::into_inner);
    adopt(SessionTag(reset()));
    #[cfg(feature = "collect")]
    ENABLED.store(true, Ordering::SeqCst);
    Session { _guard: guard }
}

/// Holds the session lock *without* enabling collection — for tests
/// that must run with telemetry off while excluding concurrent sessions.
pub fn disabled_session() -> Session {
    let guard = SESSION.lock().unwrap_or_else(PoisonError::into_inner);
    let _ = reset();
    Session { _guard: guard }
}

impl Session {
    /// Snapshots everything collected so far (flushing this thread).
    ///
    /// Worker threads spawned and joined during the session have already
    /// flushed on exit; only still-live threads' unflushed tails are
    /// invisible.
    pub fn snapshot(&self) -> Snapshot {
        flush();
        let g = global();
        Snapshot {
            version: 1,
            counters: g
                .counters
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            histograms: g.hists.iter().map(|(k, h)| h.snapshot(k)).collect(),
            spans: g
                .spans
                .iter()
                .map(|(path, a)| SpanSnap {
                    path: path.clone(),
                    count: a.count,
                    first_seq: a.first_seq,
                    last_seq: a.last_seq,
                    energy_nj: a.energy_nj,
                    items: a.items,
                })
                .collect(),
        }
    }

    /// Snapshots and ends the session (the sink is disabled on drop).
    pub fn finish(self) -> Snapshot {
        self.snapshot()
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        #[cfg(feature = "collect")]
        ENABLED.store(false, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::FUEL;

    #[test]
    fn disabled_sink_records_nothing() {
        let s = disabled_session();
        counter_add("t.c", 5);
        observe_ticks("t.h", &FUEL, 3);
        let mut sp = span(SpanKind::Experiment, "x");
        sp.record_energy(1.0);
        drop(sp);
        let snap = s.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(snap.spans.is_empty());
    }

    #[cfg(feature = "collect")]
    #[test]
    fn session_collects_counters_spans_hists() {
        let s = session();
        counter_add("t.c", 2);
        counter_add("t.c", 3);
        observe_ticks("t.h", &FUEL, 7);
        {
            let mut sp = span(SpanKind::Experiment, "outer");
            sp.add_items(4);
            let mut inner = span(SpanKind::EnergyQuery, "f");
            inner.record_energy(2.0);
            drop(inner);
            sp.record_energy(1.5);
        }
        let snap = s.finish();
        assert_eq!(snap.counters.get("t.c"), Some(&5));
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.histograms[0].count, 1);
        let paths: Vec<&str> = snap.spans.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(
            paths,
            ["experiment:outer", "experiment:outer/energy_query:f"]
        );
        let outer = &snap.spans[0];
        assert_eq!((outer.first_seq, outer.items), (0, 4));
        assert_eq!(outer.energy_nj, 1_500_000_000);
        let inner = &snap.spans[1];
        assert_eq!((inner.first_seq, inner.energy_nj), (1, 2_000_000_000));
    }

    #[cfg(feature = "collect")]
    #[test]
    fn worker_threads_flush_on_exit_and_indexed_spans_merge() {
        let s = session();
        let parent = {
            let _sp = span(SpanKind::Mc, "f");
            let parent = current_path();
            let tag = session_tag();
            std::thread::scope(|scope| {
                for chunk in 0..4u64 {
                    let parent = &parent;
                    scope.spawn(move || {
                        adopt(tag);
                        {
                            let mut sp = span_indexed(parent, SpanKind::McChunk, "f", chunk);
                            sp.add_items(chunk + 1);
                            counter_add("t.worker", 1);
                        }
                        // Scope join does not wait for TLS destructors;
                        // worker closures flush explicitly (module docs).
                        flush();
                    });
                }
            });
            parent
        };
        assert_eq!(parent, "mc:f");
        let snap = s.finish();
        assert_eq!(snap.counters.get("t.worker"), Some(&4));
        let chunk = snap
            .spans
            .iter()
            .find(|sp| sp.path == "mc:f/mc_chunk:f")
            .expect("chunk span");
        assert_eq!(chunk.count, 4);
        assert_eq!((chunk.first_seq, chunk.last_seq), (0, 3));
        assert_eq!(chunk.items, 1 + 2 + 3 + 4);
    }

    #[cfg(feature = "collect")]
    #[test]
    fn strangers_do_not_leak_into_a_session() {
        let s = session();
        counter_add("t.own", 1);
        // A thread that did not adopt the session's tag records and
        // flushes (explicitly and on exit) while the session is open.
        std::thread::spawn(|| {
            assert!(!enabled());
            counter_add("t.stranger", 1);
            observe_ticks("t.stranger_h", &FUEL, 3);
            drop(span(SpanKind::Experiment, "stranger"));
            flush();
        })
        .join()
        .unwrap();
        // A tag from an ended session enables nothing either.
        let stale = SessionTag(session_tag().0 - 1);
        std::thread::spawn(move || {
            adopt(stale);
            counter_add("t.stale", 1);
        })
        .join()
        .unwrap();
        let snap = s.finish();
        assert_eq!(snap.counters.len(), 1);
        assert_eq!(snap.counters.get("t.own"), Some(&1));
        assert!(snap.histograms.is_empty());
        assert!(snap.spans.is_empty());
    }

    #[cfg(feature = "collect")]
    #[test]
    fn sessions_reset_state() {
        {
            let s = session();
            counter_add("t.old", 1);
            let _ = s.finish();
        }
        let s = session();
        counter_add("t.new", 1);
        let snap = s.finish();
        assert!(!snap.counters.contains_key("t.old"));
        assert_eq!(snap.counters.get("t.new"), Some(&1));
    }
}
