//! # ei-telemetry: deterministic energy telemetry for the workspace
//!
//! The paper's thesis is that energy interfaces only earn trust when
//! their predictions can be checked against what the running system
//! actually does — which requires first-class observability of every
//! energy query, cache lookup, meter read, and scheduler decision. This
//! crate is that observability layer: structured **spans**, monotonic
//! **counters**, and fixed-bucket **histograms**, collected through
//! lock-free per-thread sinks.
//!
//! Two properties distinguish it from an off-the-shelf metrics crate:
//!
//! 1. **Determinism.** Monitoring a deterministic system must itself be
//!    deterministic, or the trace cannot be diffed, snapshot, or used in
//!    regression tests. There is no wall time anywhere: latency is
//!    measured in interpreter fuel (evaluation steps), span ordering
//!    comes from a logical clock (per-thread event-sequence numbers,
//!    explicit indices for farmed-out work), and every aggregate is
//!    integer arithmetic. The same workload produces **byte-identical
//!    traces across runs and across thread counts** — the differential
//!    and golden test suites enforce this.
//!
//! 2. **Bounded overhead.** Measurement costs energy and time (the RAPL
//!    overhead literature is blunt about this), so instrumentation must
//!    be free when idle and cheap when active. Disabled (the default),
//!    a record call is one relaxed atomic load; with the `collect`
//!    feature off it compiles away entirely. Enabled, records touch only
//!    thread-local state. The `telemetry_overhead` bench gates the
//!    enabled-mode slowdown on the Table 1 sweep at < 5 %.
//!
//! # Quickstart
//!
//! ```
//! use ei_telemetry as telemetry;
//! use telemetry::{SpanKind, ENERGY_J};
//!
//! let session = telemetry::session();
//! let collecting = telemetry::enabled(); // false if built without `collect`
//! {
//!     let mut span = telemetry::span(SpanKind::EnergyQuery, "handle");
//!     telemetry::counter_add("service.requests", 1);
//!     telemetry::observe("service.request_energy_j", &ENERGY_J, 0.192);
//!     span.record_energy(0.192);
//! }
//! let snapshot = session.finish();
//! if collecting {
//!     assert_eq!(snapshot.counters["service.requests"], 1);
//! }
//! println!("{}", snapshot.to_prometheus());   // text exposition dump
//! let _json = snapshot.to_json_pretty();      // byte-stable JSON trace
//! ```

pub mod hist;
pub mod sink;
pub mod snapshot;

pub use hist::{Histogram, HistogramSnap, HistogramSpec, BYTES, ENERGY_J, FUEL};
pub use sink::{
    adopt, counter_add, current_path, disabled_session, enabled, flush, observe, observe_ticks,
    session, session_tag, span, span_indexed, Session, SessionTag, Span, SpanKind,
};
pub use snapshot::{Snapshot, SpanSnap};
