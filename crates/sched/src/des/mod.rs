//! `ei_sched::des` — a deterministic discrete-event cluster simulator.
//!
//! This is the E10 engine: thousands of in-flight requests interleaving
//! with batch queues, autoscaler ticks, and [`ei_hw::faults`] windows on
//! one logical clock, with an energy-interface-driven load balancer
//! routed entirely through published EIL interfaces.
//!
//! # Determinism contract
//!
//! A run is a pure function of `(ClusterSpec, SimConfig, FaultPlan,
//! policy)`:
//!
//! - **Event ordering.** [`EventQueue`] dequeues in lexicographic
//!   `(time, seq)` order on an integer-nanosecond [`SimTime`] clock;
//!   same-instant events fire in push order. Scheduling into the past
//!   panics, so dequeue times are monotone by construction.
//! - **Seeded stochastics.** Arrival gaps and request classes come from
//!   [`SplitMix64`] streams keyed by `(seed, stream id)` — the same
//!   finalizer the Monte-Carlo engine uses for chunk seeding.
//! - **No ambient state.** No wall clock, no thread identity, no hash
//!   iteration order reaches the event loop; floating-point accumulation
//!   is sequential in a fixed order. Replays are bit-identical, including
//!   every `f64` in [`RunStats`].
//!
//! # Policy plug-in
//!
//! [`LbPolicy`] is the extension point: `route` picks a node per request
//! from [`NodeView`]s, `target_active` names a powered-on node count per
//! autoscale tick, `activation_order` fixes which nodes power on first.
//! [`UtilizationLb`] is the energy-blind baseline; [`EnergyLb`] evaluates
//! each node class's published interface (through `EvalCache` on the
//! production engine, so the bytecode VM carries the hot path) into
//! marginal-energy tables and routes cheapest-Joules-within-SLO.

mod node;
mod policy;
mod queue;
mod rng;
mod sim;

pub use node::{NodeClass, NodeState, SimRequest, N_REQ_CLASSES};
pub use policy::{DriftSwapLb, EnergyLb, LbPolicy, NodeView, UtilizationLb};
pub use queue::{EventQueue, SimTime};
pub use rng::SplitMix64;
pub use sim::{run_cluster_sim, ClusterSpec, Phase, RunOutcome, RunStats, SimConfig};
