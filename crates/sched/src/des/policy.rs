//! Load-balancing and autoscaling policies for the cluster simulator.
//!
//! [`LbPolicy`] is the plug-in trait: a policy routes each arriving
//! request among the currently routable nodes and periodically names a
//! target powered-on node count for the observed arrival rate. Two
//! implementations ship:
//!
//! - [`UtilizationLb`] — the status-quo baseline: join the node with the
//!   least predicted wait, keep cluster utilization inside a band by
//!   powering nodes on and off **in index order**. It sees timing and
//!   queue depths (observable without any energy knowledge) and nothing
//!   else.
//! - [`EnergyLb`] — the paper's §1 resource manager: before the run it
//!   evaluates every node class's **published energy interface** (through
//!   [`EvalCache`] on the production engine, so the bytecode VM carries
//!   the evaluations) into marginal-energy tables, routes each request to the
//!   candidate whose interface predicts the cheapest marginal Joules
//!   within the latency SLO, and activates nodes cheapest-per-request
//!   first. It sees the same timing the baseline sees **plus** the
//!   interfaces — never the simulator's ground-truth energy model.

use ei_core::cache::EvalCache;
use ei_core::ecv::EcvEnv;
use ei_core::interface::Interface;
use ei_core::interp::{evaluate_batch, EvalConfig};
use ei_core::value::Value;
use ei_telemetry as telemetry;

use super::node::{NodeClass, N_REQ_CLASSES};

/// What a policy may see about one routable node.
#[derive(Debug, Clone, Copy)]
pub struct NodeView {
    /// Node index in the cluster.
    pub node: usize,
    /// Index into the cluster's class table.
    pub class_idx: usize,
    /// Queued requests (not counting the in-flight batch).
    pub queue_len: usize,
    /// Predicted nanoseconds until a request routed now would complete.
    pub wait_ns: u64,
}

/// A routing + autoscaling policy.
pub trait LbPolicy {
    /// Stable policy name (reports, telemetry span paths).
    fn name(&self) -> &'static str;

    /// Picks a node for a request of `class` among `views` (active,
    /// alive, non-full nodes). `None` means "nowhere to route".
    fn route(&mut self, class: usize, views: &[NodeView]) -> Option<usize>;

    /// Target powered-on node count for the estimated arrival rate.
    fn target_active(&mut self, rate_rps: f64, p_large: f64, n_nodes: usize) -> usize;

    /// Preference order for powering nodes on (first `target` entries of
    /// this order form the active set).
    fn activation_order(&self) -> &[usize];
}

// ---------------------------------------------------------------------------
// Utilization baseline
// ---------------------------------------------------------------------------

/// Join-least-wait routing plus a utilization-band autoscaler, blind to
/// energy (what you get from requests/limits and CPU gauges).
#[derive(Debug)]
pub struct UtilizationLb {
    classes: Vec<NodeClass>,
    assignment: Vec<usize>,
    order: Vec<usize>,
    target: usize,
}

impl UtilizationLb {
    /// Builds the baseline over the cluster's class table and per-node
    /// class assignment.
    pub fn new(classes: Vec<NodeClass>, assignment: Vec<usize>, initial_active: usize) -> Self {
        let order: Vec<usize> = (0..assignment.len()).collect();
        UtilizationLb {
            classes,
            assignment,
            order,
            target: initial_active.max(1),
        }
    }

    fn capacity_of(&self, k: usize, p_large: f64) -> f64 {
        self.order[..k.min(self.order.len())]
            .iter()
            .map(|&i| self.classes[self.assignment[i]].capacity_rps_mix(p_large))
            .sum()
    }
}

impl LbPolicy for UtilizationLb {
    fn name(&self) -> &'static str {
        "utilization"
    }

    fn route(&mut self, _class: usize, views: &[NodeView]) -> Option<usize> {
        views
            .iter()
            .min_by_key(|v| (v.wait_ns, v.node))
            .map(|v| v.node)
    }

    fn target_active(&mut self, rate_rps: f64, p_large: f64, n_nodes: usize) -> usize {
        let n = n_nodes.max(1);
        let mut k = self.target.clamp(1, n);
        let util = |rate: f64, cap: f64| {
            if cap <= 0.0 {
                f64::INFINITY
            } else {
                rate / cap
            }
        };
        // Classic band controller with hysteresis: expand above 75% until
        // back under 60%, shrink below 30% while staying under 55%.
        if util(rate_rps, self.capacity_of(k, p_large)) > 0.75 {
            while k < n && util(rate_rps, self.capacity_of(k, p_large)) > 0.60 {
                k += 1;
            }
        } else if util(rate_rps, self.capacity_of(k, p_large)) < 0.30 {
            while k > 1 && util(rate_rps, self.capacity_of(k - 1, p_large)) < 0.55 {
                k -= 1;
            }
        }
        self.target = k;
        k
    }

    fn activation_order(&self) -> &[usize] {
        &self.order
    }
}

// ---------------------------------------------------------------------------
// Energy-interface policy
// ---------------------------------------------------------------------------

/// Queue depths deeper than this index into the marginal table are
/// clamped to its last row (the amortization has flattened out by then).
const MARGINAL_TABLE_DEPTH: usize = 64;

/// Routes and scales by evaluating each node class's published energy
/// interface.
pub struct EnergyLb {
    classes: Vec<NodeClass>,
    assignment: Vec<usize>,
    /// `marginal[class_idx][queue_len][req_class]`, Joules — evaluated
    /// from `e_marginal` through the compiled engine before the run.
    marginal: Vec<Vec<[f64; N_REQ_CLASSES]>>,
    /// `p_active_w()` per class, Watts — from the interface.
    p_active: Vec<f64>,
    order: Vec<usize>,
    slo_ns: u64,
    target: usize,
    swaps: u64,
}

/// Evaluates one marginal-energy table and `p_active_w` per interface,
/// through `cache` (the production engine, the bytecode VM, carries the
/// sweeps). Shared by construction and live swaps so both paths produce
/// bit-identical tables for identical interfaces.
fn evaluate_tables(
    interfaces: &[Interface],
    cache: &EvalCache,
) -> (Vec<Vec<[f64; N_REQ_CLASSES]>>, Vec<f64>) {
    let cfg = EvalConfig::default();
    let env = EcvEnv::new();
    let mut marginal = Vec::with_capacity(interfaces.len());
    let mut p_active = Vec::with_capacity(interfaces.len());
    for iface in interfaces {
        let mut argsets = Vec::with_capacity(MARGINAL_TABLE_DEPTH * N_REQ_CLASSES);
        for q in 0..MARGINAL_TABLE_DEPTH {
            for c in 0..N_REQ_CLASSES {
                argsets.push(vec![Value::Num(q as f64), Value::Num(c as f64)]);
            }
        }
        let energies = evaluate_batch(iface, "e_marginal", &argsets, &env, 0, &cfg)
            .expect("e_marginal evaluates over the table grid");
        let mut table = vec![[0.0; N_REQ_CLASSES]; MARGINAL_TABLE_DEPTH];
        for (slot, e) in energies.iter().enumerate() {
            table[slot / N_REQ_CLASSES][slot % N_REQ_CLASSES] = e.as_joules();
        }
        marginal.push(table);
        let pw = cache
            .expected_energy_cached(iface, "p_active_w", &[], &cfg)
            .expect("p_active_w evaluates");
        p_active.push(pw.as_joules());
    }
    (marginal, p_active)
}

/// Activation order: cheapest predicted Joules per request at full
/// utilization first — static share (interface `p_active_w` over the
/// class's capacity) plus the full-batch marginal (interface
/// `e_marginal` at the table floor). Ties break on index.
fn activation_order_for(
    classes: &[NodeClass],
    assignment: &[usize],
    marginal: &[Vec<[f64; N_REQ_CLASSES]>],
    p_active: &[f64],
) -> Vec<usize> {
    let score = |i: &usize| {
        let c = assignment[*i];
        let cap = classes[c].capacity_rps_mix(0.25).max(1e-9);
        let static_share = p_active[c] / cap;
        let marg = marginal[c][MARGINAL_TABLE_DEPTH - 1][0];
        static_share + marg
    };
    let mut order: Vec<usize> = (0..assignment.len()).collect();
    order.sort_by(|a, b| score(a).total_cmp(&score(b)).then(a.cmp(b)));
    order
}

impl EnergyLb {
    /// Evaluates every class interface into routing tables.
    ///
    /// All evaluation goes through `cache` on the production engine:
    /// `evaluate_batch` compiles each interface once to bytecode and the
    /// VM sweeps the queue-depth × request-class grid; `p_active_w` is a
    /// memoized single query. The hot routing path is then pure table
    /// lookups — the interface stays the single source of energy truth
    /// without an interpreter call per arrival.
    pub fn new(
        classes: Vec<NodeClass>,
        assignment: Vec<usize>,
        initial_active: usize,
        slo_ns: u64,
        cache: &EvalCache,
    ) -> Self {
        let interfaces: Vec<Interface> = classes.iter().map(|c| c.interface()).collect();
        let (marginal, p_active) = evaluate_tables(&interfaces, cache);
        let order = activation_order_for(&classes, &assignment, &marginal, &p_active);
        EnergyLb {
            classes,
            assignment,
            marginal,
            p_active,
            order,
            slo_ns,
            target: initial_active.max(1),
            swaps: 0,
        }
    }

    /// Atomically replaces the routing tables with ones evaluated from
    /// `interfaces` (one per node class, same order as construction) —
    /// the hot-swap seam for a live recalibration. The rebuild happens
    /// entirely between requests: every already-routed request keeps
    /// the node it was assigned under the old tables, and the next
    /// `route` call simply reads the new ones, so a swap can never drop
    /// or reroute in-flight work. The activation-order preference is
    /// re-scored too; note the simulator snapshots activation order
    /// once per run, so mid-run swaps steer `route`/`target_active`
    /// only — exactly the atomic-between-requests contract.
    pub fn swap_interfaces(&mut self, interfaces: &[Interface], cache: &EvalCache) {
        assert_eq!(
            interfaces.len(),
            self.classes.len(),
            "one interface per node class"
        );
        let (marginal, p_active) = evaluate_tables(interfaces, cache);
        self.marginal = marginal;
        self.p_active = p_active;
        self.order = activation_order_for(
            &self.classes,
            &self.assignment,
            &self.marginal,
            &self.p_active,
        );
        self.swaps += 1;
        telemetry::counter_add("sched.energy_lb.swaps", 1);
    }

    /// Interface swaps performed on this policy.
    pub fn swaps(&self) -> u64 {
        self.swaps
    }

    fn marginal_j(&self, class_idx: usize, queue_len: usize, req_class: usize) -> f64 {
        let q = queue_len.min(MARGINAL_TABLE_DEPTH - 1);
        self.marginal[class_idx][q][req_class]
    }

    /// The static power (`p_active_w()`) a class's interface reported,
    /// in Watts — what the activation order was scored with.
    pub fn interface_active_w(&self, class_idx: usize) -> f64 {
        self.p_active[class_idx]
    }
}

impl LbPolicy for EnergyLb {
    fn name(&self) -> &'static str {
        "energy_interface"
    }

    fn route(&mut self, class: usize, views: &[NodeView]) -> Option<usize> {
        // Cheapest marginal Joules among nodes that can still meet the
        // SLO; when nothing can, fall back to least predicted wait so the
        // tail degrades instead of collapsing.
        let within: Option<&NodeView> =
            views
                .iter()
                .filter(|v| v.wait_ns <= self.slo_ns)
                .min_by(|a, b| {
                    self.marginal_j(a.class_idx, a.queue_len, class)
                        .total_cmp(&self.marginal_j(b.class_idx, b.queue_len, class))
                        .then(a.node.cmp(&b.node))
                });
        within
            .or_else(|| views.iter().min_by_key(|v| (v.wait_ns, v.node)))
            .map(|v| v.node)
    }

    fn target_active(&mut self, rate_rps: f64, p_large: f64, n_nodes: usize) -> usize {
        let n = n_nodes.max(1);
        // Smallest prefix of the cheapest-first order whose capacity
        // covers the rate with 40% headroom (slack for fault derates the
        // policy cannot see): since the order is sorted by
        // interface-predicted Joules per request, the minimal feasible
        // prefix is also the cheapest feasible active set.
        let need = rate_rps * 1.40;
        let mut cap = 0.0;
        let mut k = 0;
        while k < n && (cap < need || k == 0) {
            let c = self.assignment[self.order[k]];
            cap += self.classes[c].capacity_rps_mix(p_large);
            k += 1;
        }
        self.target = k.max(1);
        self.target
    }

    fn activation_order(&self) -> &[usize] {
        &self.order
    }
}

// ---------------------------------------------------------------------------
// Scheduled hot-swap wrapper
// ---------------------------------------------------------------------------

/// An [`EnergyLb`] that hot-swaps a staged set of recalibrated
/// interfaces at a scheduled autoscale tick — the DES-side harness for
/// E11's atomicity claim.
///
/// The simulator calls [`LbPolicy::target_active`] exactly once per
/// autoscale tick, strictly between request events on the logical
/// clock; the wrapper counts ticks and performs the table rebuild there.
/// Requests in queues and in-flight batches are untouched (the policy
/// never owns them), so the run's conservation invariant — arrivals ==
/// completed + shed + unserved — holds across the swap by construction,
/// and a replay performs the identical swap at the identical tick.
pub struct DriftSwapLb {
    inner: EnergyLb,
    cache: EvalCache,
    swap_at_tick: u64,
    ticks: u64,
    staged: Option<Vec<Interface>>,
}

impl DriftSwapLb {
    /// Wraps `inner`, staging `recalibrated` (one interface per node
    /// class) to go live at autoscale tick `swap_at_tick` (1-based).
    pub fn new(inner: EnergyLb, recalibrated: Vec<Interface>, swap_at_tick: u64) -> Self {
        DriftSwapLb {
            inner,
            cache: EvalCache::new(),
            swap_at_tick: swap_at_tick.max(1),
            ticks: 0,
            staged: Some(recalibrated),
        }
    }

    /// Whether the staged swap has happened yet.
    pub fn swapped(&self) -> bool {
        self.staged.is_none()
    }

    /// Autoscale ticks observed so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// The wrapped policy (swap count, activation scores).
    pub fn inner(&self) -> &EnergyLb {
        &self.inner
    }
}

impl LbPolicy for DriftSwapLb {
    fn name(&self) -> &'static str {
        "energy_interface_hotswap"
    }

    fn route(&mut self, class: usize, views: &[NodeView]) -> Option<usize> {
        self.inner.route(class, views)
    }

    fn target_active(&mut self, rate_rps: f64, p_large: f64, n_nodes: usize) -> usize {
        self.ticks += 1;
        if self.ticks >= self.swap_at_tick {
            if let Some(interfaces) = self.staged.take() {
                self.inner.swap_interfaces(&interfaces, &self.cache);
            }
        }
        self.inner.target_active(rate_rps, p_large, n_nodes)
    }

    fn activation_order(&self) -> &[usize] {
        self.inner.activation_order()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_class_setup() -> (Vec<NodeClass>, Vec<usize>) {
        let classes = vec![NodeClass::perf(), NodeClass::eff()];
        // Alternating perf/eff, 8 nodes.
        let assignment = (0..8).map(|i| i % 2).collect();
        (classes, assignment)
    }

    #[test]
    fn energy_policy_prefers_efficient_nodes() {
        let (classes, assignment) = two_class_setup();
        let cache = EvalCache::new();
        let mut lb = EnergyLb::new(classes, assignment.clone(), 4, 250_000_000, &cache);
        // All idle: an eff node (odd indices) must win on marginal energy.
        let views: Vec<NodeView> = (0..8)
            .map(|i| NodeView {
                node: i,
                class_idx: assignment[i],
                queue_len: 0,
                wait_ns: 10_000_000,
            })
            .collect();
        let pick = lb.route(0, &views).unwrap();
        assert_eq!(pick % 2, 1, "expected an eff node, got {pick}");
        // And the activation order leads with eff nodes.
        assert!(lb.activation_order()[..4].iter().all(|i| i % 2 == 1));
        // The interface reported the classes' static draw faithfully.
        assert!((lb.interface_active_w(0) - 110.0).abs() < 1e-9);
        assert!((lb.interface_active_w(1) - 30.0).abs() < 1e-9);
    }

    #[test]
    fn energy_policy_respects_the_slo() {
        let (classes, assignment) = two_class_setup();
        let cache = EvalCache::new();
        let mut lb = EnergyLb::new(classes, assignment, 4, 50_000_000, &cache);
        // The cheap node is hopelessly backed up; the policy must route
        // to the fast node that still meets the SLO.
        let views = vec![
            NodeView {
                node: 1,
                class_idx: 1,
                queue_len: 40,
                wait_ns: 400_000_000,
            },
            NodeView {
                node: 0,
                class_idx: 0,
                queue_len: 1,
                wait_ns: 10_000_000,
            },
        ];
        assert_eq!(lb.route(0, &views), Some(0));
    }

    #[test]
    fn utilization_policy_joins_least_wait_lowest_index() {
        let (classes, assignment) = two_class_setup();
        let mut lb = UtilizationLb::new(classes, assignment, 4);
        let views = vec![
            NodeView {
                node: 2,
                class_idx: 0,
                queue_len: 1,
                wait_ns: 5_000,
            },
            NodeView {
                node: 5,
                class_idx: 1,
                queue_len: 0,
                wait_ns: 5_000,
            },
            NodeView {
                node: 7,
                class_idx: 1,
                queue_len: 3,
                wait_ns: 9_000,
            },
        ];
        assert_eq!(lb.route(1, &views), Some(2), "tie breaks on lowest index");
    }

    #[test]
    fn band_autoscaler_expands_and_contracts_with_hysteresis() {
        let (classes, assignment) = two_class_setup();
        let mut lb = UtilizationLb::new(classes, assignment, 2);
        let high = lb.target_active(3000.0, 0.25, 8);
        assert!(high > 2, "overload must expand, got {high}");
        let same = lb.target_active(3000.0, 0.25, 8);
        assert_eq!(high, same, "inside the band nothing moves");
        let low = lb.target_active(10.0, 0.25, 8);
        assert!(low < high, "idle cluster must contract");
        assert!(low >= 1);
    }

    #[test]
    fn swap_interfaces_flips_routing_preference() {
        let (classes, assignment) = two_class_setup();
        let cache = EvalCache::new();
        let mut lb = EnergyLb::new(classes.clone(), assignment.clone(), 4, 250_000_000, &cache);
        let views: Vec<NodeView> = (0..8)
            .map(|i| NodeView {
                node: i,
                class_idx: assignment[i],
                queue_len: 0,
                wait_ns: 10_000_000,
            })
            .collect();
        assert_eq!(lb.route(0, &views).unwrap() % 2, 1, "eff wins pre-swap");

        // Recalibration discovers the eff class drifted badly: its
        // per-event energies are now 10x. Routing must flip to perf.
        let mut drifted_eff = classes[1].clone();
        drifted_eff.e_fixed_j *= 10.0;
        drifted_eff.e_req_j = [drifted_eff.e_req_j[0] * 10.0, drifted_eff.e_req_j[1] * 10.0];
        drifted_eff.p_active_w *= 10.0;
        let swapped = vec![classes[0].interface(), drifted_eff.interface()];
        lb.swap_interfaces(&swapped, &cache);
        assert_eq!(lb.swaps(), 1);
        assert_eq!(lb.route(0, &views).unwrap() % 2, 0, "perf wins post-swap");
        assert!(
            lb.activation_order()[..4].iter().all(|i| i % 2 == 0),
            "activation preference re-scored"
        );

        // Swapping the nominal interfaces back restores bit-identical
        // routing tables (same content -> same cache keys -> same f64s).
        let nominal: Vec<Interface> = classes.iter().map(|c| c.interface()).collect();
        lb.swap_interfaces(&nominal, &cache);
        let fresh = EnergyLb::new(classes, assignment, 4, 250_000_000, &cache);
        assert_eq!(lb.p_active, fresh.p_active);
        assert_eq!(lb.marginal, fresh.marginal);
    }

    #[test]
    fn drift_swap_wrapper_swaps_exactly_once_at_its_tick() {
        let (classes, assignment) = two_class_setup();
        let cache = EvalCache::new();
        let inner = EnergyLb::new(classes.clone(), assignment, 4, 250_000_000, &cache);
        let mut drifted_eff = classes[1].clone();
        drifted_eff.e_req_j = [1.0, 2.0];
        let staged = vec![classes[0].interface(), drifted_eff.interface()];
        let mut lb = DriftSwapLb::new(inner, staged, 3);
        assert!(!lb.swapped());
        lb.target_active(100.0, 0.25, 8);
        lb.target_active(100.0, 0.25, 8);
        assert!(!lb.swapped(), "before the scheduled tick nothing moves");
        lb.target_active(100.0, 0.25, 8);
        assert!(lb.swapped());
        assert_eq!(lb.inner().swaps(), 1);
        lb.target_active(100.0, 0.25, 8);
        assert_eq!(lb.inner().swaps(), 1, "the staged swap fires once");
        assert_eq!(lb.ticks(), 4);
    }

    #[test]
    fn energy_autoscaler_is_minimal_feasible() {
        let (classes, assignment) = two_class_setup();
        let cache = EvalCache::new();
        let mut lb = EnergyLb::new(classes.clone(), assignment.clone(), 4, 250_000_000, &cache);
        let k = lb.target_active(100.0, 0.25, 8);
        // 100 rps needs 130 with headroom; one eff node covers ~180 rps.
        assert_eq!(k, 1);
        let k_hot = lb.target_active(3000.0, 0.25, 8);
        assert!(k_hot > 4, "heavy load powers most of the cluster");
    }
}
