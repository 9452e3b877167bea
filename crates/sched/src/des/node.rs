//! Simulated serving nodes: batch queues with published energy interfaces.
//!
//! A node belongs to a [`NodeClass`] — a hardware shape with batch-affine
//! service time and energy, a static (idle) power draw while powered on,
//! and a maximum batch size. Each class **publishes an energy interface**
//! (the paper's §1 resource-manager vision): `e_batch` is the dynamic
//! energy of serving one batch, `e_marginal` the expected cost of routing
//! one more request here given the current queue depth, and `p_active_w`
//! the static power burned per second while the node is kept powered on.
//! The energy-aware load balancer evaluates these interfaces — it never
//! peeks at the ground-truth model — and the simulator's ground truth is
//! checked against the interface in `interface_matches_ground_truth`.

use ei_core::interface::Interface;
use ei_core::parser::parse;
use ei_core::pretty::fmt_eil_num;
use ei_core::units::{Energy, Power};
use serde::{Deserialize, Serialize};

use super::queue::SimTime;

/// Number of request size classes (0 = small, 1 = large).
pub const N_REQ_CLASSES: usize = 2;

/// A hardware shape: batch-affine timing and energy plus static power.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeClass {
    /// Stable class name (used in interface names and reports).
    pub name: String,
    /// Fixed service time per batch, nanoseconds.
    pub t_fixed_ns: u64,
    /// Per-request service time by request class, nanoseconds.
    pub t_req_ns: [u64; N_REQ_CLASSES],
    /// Fixed dynamic energy per batch.
    pub e_fixed_j: f64,
    /// Per-request dynamic energy by request class, Joules.
    pub e_req_j: [f64; N_REQ_CLASSES],
    /// Static power while the node is powered on, Watts.
    pub p_active_w: f64,
    /// Maximum requests served in one batch.
    pub max_batch: usize,
}

impl NodeClass {
    /// A latency-optimized node: fast, energy-hungry, high idle draw.
    pub fn perf() -> NodeClass {
        NodeClass {
            name: "perf".into(),
            t_fixed_ns: 2_000_000, // 2 ms
            t_req_ns: [1_000_000, 4_000_000],
            e_fixed_j: 0.80,
            e_req_j: [0.60, 2.40],
            p_active_w: 110.0,
            max_batch: 8,
        }
    }

    /// An efficiency-optimized node: slower, much cheaper per request.
    pub fn eff() -> NodeClass {
        NodeClass {
            name: "eff".into(),
            t_fixed_ns: 6_000_000, // 6 ms
            t_req_ns: [3_000_000, 12_000_000],
            e_fixed_j: 0.30,
            e_req_j: [0.25, 1.00],
            p_active_w: 30.0,
            max_batch: 8,
        }
    }

    /// Ground-truth service time of a batch with `n[c]` requests of each
    /// class, under a GPU `derate` (1.0 = healthy) and with `nic_ns` of
    /// added network latency on the dispatch path.
    pub fn service_ns(&self, n: &[u64; N_REQ_CLASSES], derate: f64, nic_ns: u64) -> u64 {
        let base = self.t_fixed_ns
            + n[0].saturating_mul(self.t_req_ns[0])
            + n[1].saturating_mul(self.t_req_ns[1]);
        let derated = (base as f64 / derate.clamp(1e-3, 1.0)).round() as u64;
        derated.saturating_add(nic_ns).max(1)
    }

    /// Ground-truth dynamic energy of a batch. Mirrors `e_batch` in the
    /// published interface term for term, so prediction and measurement
    /// agree to float rounding.
    pub fn batch_energy(&self, n: &[u64; N_REQ_CLASSES]) -> Energy {
        Energy::joules(
            self.e_fixed_j + self.e_req_j[0] * n[0] as f64 + self.e_req_j[1] * n[1] as f64,
        )
    }

    /// Static power while powered on.
    pub fn active_power(&self) -> Power {
        Power::watts(self.p_active_w)
    }

    /// Requests per second at full batches under a request mix with
    /// `p_large` large requests: the capacity figure policies use for
    /// feasibility (timing is observable without any energy knowledge).
    pub fn capacity_rps_mix(&self, p_large: f64) -> f64 {
        let per_req = self.t_req_ns[0] as f64 * (1.0 - p_large) + self.t_req_ns[1] as f64 * p_large;
        let batch_ns = self.t_fixed_ns as f64 + self.max_batch as f64 * per_req;
        self.max_batch as f64 / (batch_ns * 1e-9)
    }

    /// The class's published energy interface.
    ///
    /// ```text
    /// e_batch(n_small, n_large)    dynamic energy of one batch
    /// e_marginal(queue_len, large) cost of routing one more request here
    /// p_active_w()                 static Joules per powered-on second
    /// ```
    pub fn interface(&self) -> Interface {
        let src = format!(
            r#"
            interface node_{name} "energy interface of a {name} serving node" {{
                fn e_batch(n_small, n_large) "dynamic energy of one batch" {{
                    return {efix} J + {es} J * n_small + {el} J * n_large;
                }}
                fn e_marginal(queue_len, large)
                    "expected energy of routing one more request here; large is 0 or 1" {{
                    let batch = min(queue_len + 1, {maxb});
                    return {efix} J / batch
                         + {es} J * (1 - large) + {el} J * large;
                }}
                fn p_active_w() "static power while powered on, J per second" {{
                    return {pw} J;
                }}
            }}
            "#,
            name = self.name,
            efix = fmt_eil_num(self.e_fixed_j),
            es = fmt_eil_num(self.e_req_j[0]),
            el = fmt_eil_num(self.e_req_j[1]),
            maxb = self.max_batch,
            pw = fmt_eil_num(self.p_active_w),
        );
        parse(&src).expect("node class interface must parse")
    }
}

/// A request in flight through the cluster.
#[derive(Debug, Clone, Copy)]
pub struct SimRequest {
    /// Unique, dense id (`0..n_requests`).
    pub id: u64,
    /// Size class (`0` small, `1` large).
    pub class: usize,
    /// Arrival instant.
    pub arrival: SimTime,
    /// Times this request was re-dispatched after a node death.
    pub retries: u32,
}

/// Mutable per-node simulation state.
#[derive(Debug)]
pub struct NodeState {
    /// Index into the cluster's class table.
    pub class_idx: usize,
    /// Powered on by the autoscaler.
    pub active: bool,
    /// Not inside a `NodeDown` fault window.
    pub alive: bool,
    /// Waiting requests (FIFO).
    pub queue: std::collections::VecDeque<SimRequest>,
    /// The batch currently being served, if any.
    pub in_flight: Vec<SimRequest>,
    /// Guards scheduled departures: a stale epoch means the batch was
    /// cancelled by a node death before its departure event fired.
    pub epoch: u64,
    /// When the in-flight batch completes.
    pub busy_until: SimTime,
    /// Start of the current powered-on stretch.
    pub active_since: SimTime,
    /// Completed powered-on nanoseconds (closed stretches).
    pub active_ns: u64,
    /// Requests completed on this node.
    pub completed: u64,
    /// Batches served.
    pub batches: u64,
    /// Dynamic energy spent.
    pub dyn_energy: Energy,
}

impl NodeState {
    /// A powered-off, healthy node of class `class_idx`.
    pub fn new(class_idx: usize) -> NodeState {
        NodeState {
            class_idx,
            active: false,
            alive: true,
            queue: std::collections::VecDeque::new(),
            in_flight: Vec::new(),
            epoch: 0,
            busy_until: SimTime::ZERO,
            active_since: SimTime::ZERO,
            active_ns: 0,
            completed: 0,
            batches: 0,
            dyn_energy: Energy::ZERO,
        }
    }

    /// True while a batch is being served.
    pub fn busy(&self) -> bool {
        !self.in_flight.is_empty()
    }

    /// Outstanding work (queued + in flight).
    pub fn outstanding(&self) -> usize {
        self.queue.len() + self.in_flight.len()
    }

    /// Opens a powered-on stretch at `now`.
    pub fn power_on(&mut self, now: SimTime) {
        if !self.active {
            self.active = true;
            self.active_since = now;
        }
    }

    /// Closes the powered-on stretch at `now` (the node must be drained).
    pub fn power_off(&mut self, now: SimTime) {
        if self.active {
            self.active = false;
            self.active_ns += now.0.saturating_sub(self.active_since.0);
        }
    }

    /// Total powered-on nanoseconds including a still-open stretch at `now`.
    pub fn total_active_ns(&self, now: SimTime) -> u64 {
        let open = if self.active {
            now.0.saturating_sub(self.active_since.0)
        } else {
            0
        };
        self.active_ns + open
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ei_core::ecv::EcvEnv;
    use ei_core::interp::{evaluate_energy, EvalConfig};
    use ei_core::value::Value;

    #[test]
    fn interface_matches_ground_truth() {
        for class in [NodeClass::perf(), NodeClass::eff()] {
            let iface = class.interface();
            let env = EcvEnv::new();
            let cfg = EvalConfig::default();
            for (ns, nl) in [(0u64, 0u64), (3, 1), (8, 0), (2, 6)] {
                let pred = evaluate_energy(
                    &iface,
                    "e_batch",
                    &[Value::Num(ns as f64), Value::Num(nl as f64)],
                    &env,
                    0,
                    &cfg,
                )
                .unwrap();
                let truth = class.batch_energy(&[ns, nl]);
                assert!(
                    (pred.as_joules() - truth.as_joules()).abs() < 1e-12,
                    "{} batch ({ns},{nl}): {pred} vs {truth}",
                    class.name
                );
            }
            let pw = evaluate_energy(&iface, "p_active_w", &[], &env, 0, &cfg).unwrap();
            assert!((pw.as_joules() - class.p_active_w).abs() < 1e-12);
        }
    }

    #[test]
    fn marginal_amortizes_the_fixed_cost() {
        let class = NodeClass::eff();
        let iface = class.interface();
        let env = EcvEnv::new();
        let cfg = EvalConfig::default();
        let marg = |q: f64| {
            evaluate_energy(
                &iface,
                "e_marginal",
                &[Value::Num(q), Value::Num(0.0)],
                &env,
                0,
                &cfg,
            )
            .unwrap()
            .as_joules()
        };
        // Deeper queues amortize the fixed batch energy, down to the
        // full-batch floor.
        assert!(marg(0.0) > marg(3.0));
        assert!(
            (marg(7.0) - marg(20.0)).abs() < 1e-12,
            "clamped at max_batch"
        );
        let floor = class.e_req_j[0] + class.e_fixed_j / class.max_batch as f64;
        assert!((marg(20.0) - floor).abs() < 1e-12);
    }

    #[test]
    fn derate_and_nic_latency_stretch_service() {
        let class = NodeClass::perf();
        let n = [4u64, 1];
        let healthy = class.service_ns(&n, 1.0, 0);
        assert_eq!(healthy, 2_000_000 + 4_000_000 + 4_000_000);
        assert_eq!(class.service_ns(&n, 0.5, 0), healthy * 2);
        assert_eq!(class.service_ns(&n, 1.0, 1_000), healthy + 1_000);
    }

    #[test]
    fn active_time_integrates_across_stretches() {
        let mut node = NodeState::new(0);
        node.power_on(SimTime(100));
        node.power_off(SimTime(300));
        assert_eq!(node.total_active_ns(SimTime(1_000)), 200);
        node.power_on(SimTime(500));
        assert_eq!(node.total_active_ns(SimTime(1_000)), 700);
        node.power_off(SimTime(1_000));
        assert_eq!(node.active_ns, 700);
    }
}
