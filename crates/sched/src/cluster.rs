//! Interface-aware cluster placement (the §1 Kubernetes scenario).
//!
//! "A cluster scheduler like Kubernetes faces similar difficulties: a
//! memory-intensive application might consume less energy on a big-memory
//! node than on a compute node, but Kubernetes wouldn't know ahead of time
//! what the application will do."
//!
//! Nodes publish an energy interface `e_app(cpu_work, mem_accesses)`
//! derived from their hardware; apps publish their resource features. The
//! baseline scheduler packs by CPU request alone (what a requests/limits
//! scheduler sees); the interface-aware scheduler evaluates every
//! candidate node's interface on the app's features and picks the cheapest
//! feasible node.

use ei_core::cache::EvalCache;
use ei_core::ecv::EcvEnv;
use ei_core::interface::Interface;
use ei_core::interp::EvalConfig;
use ei_core::parser::parse;
use ei_core::pretty::fmt_eil_num;
use ei_core::units::Energy;
use ei_core::value::Value;

/// A node type with its energy characteristics.
#[derive(Debug, Clone)]
pub struct NodeType {
    /// Type name.
    pub name: String,
    /// Energy per unit of CPU work.
    pub e_cpu: Energy,
    /// Energy per memory access when the working set fits local memory.
    pub e_mem_fit: Energy,
    /// Energy per memory access when it does not (remote/swap penalty).
    pub e_mem_spill: Energy,
    /// Local memory capacity, in working-set units.
    pub mem_capacity: f64,
    /// CPU slots per node.
    pub cpu_slots: f64,
}

/// A compute-optimized node: cheap CPU work, small memory.
pub fn compute_node() -> NodeType {
    NodeType {
        name: "compute".into(),
        e_cpu: Energy::millijoules(0.8),
        e_mem_fit: Energy::microjoules(30.0),
        e_mem_spill: Energy::microjoules(400.0),
        mem_capacity: 32.0,
        cpu_slots: 16.0,
    }
}

/// A big-memory node: pricier CPU work, huge memory.
pub fn bigmem_node() -> NodeType {
    NodeType {
        name: "bigmem".into(),
        e_cpu: Energy::millijoules(1.3),
        e_mem_fit: Energy::microjoules(35.0),
        e_mem_spill: Energy::microjoules(400.0),
        mem_capacity: 256.0,
        cpu_slots: 16.0,
    }
}

impl NodeType {
    /// The node's published energy interface:
    /// `e_app(cpu_work, mem_accesses, working_set)`.
    pub fn interface(&self) -> Interface {
        let src = format!(
            r#"
            interface node_{name} "energy interface of a {name} node" {{
                fn e_app(cpu_work, mem_accesses, working_set) {{
                    let mem_unit = if working_set <= {cap} {{ {fit} J }} else {{ {spill} J }};
                    return {cpu} J * cpu_work + mem_unit * mem_accesses;
                }}
            }}
            "#,
            name = self.name,
            cap = fmt_eil_num(self.mem_capacity),
            cpu = fmt_eil_num(self.e_cpu.as_joules()),
            fit = fmt_eil_num(self.e_mem_fit.as_joules()),
            spill = fmt_eil_num(self.e_mem_spill.as_joules()),
        );
        parse(&src).expect("node interface must parse")
    }

    /// Ground-truth energy of running an app on this node.
    pub fn run_energy(&self, app: &AppSpec) -> Energy {
        let mem_unit = if app.working_set <= self.mem_capacity {
            self.e_mem_fit
        } else {
            self.e_mem_spill
        };
        self.e_cpu * app.cpu_work + mem_unit * app.mem_accesses
    }
}

/// An application (pod) with its resource features.
#[derive(Debug, Clone)]
pub struct AppSpec {
    /// App name.
    pub name: String,
    /// CPU work units.
    pub cpu_work: f64,
    /// Memory accesses (thousands).
    pub mem_accesses: f64,
    /// Working-set size, in the same units as node memory capacity.
    pub working_set: f64,
    /// CPU slots requested (what the baseline scheduler sees).
    pub cpu_request: f64,
}

/// The cluster: a fleet of nodes of the two types.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// `(node type, free CPU slots)` per node.
    pub nodes: Vec<(NodeType, f64)>,
}

impl Cluster {
    /// A cluster of `n_compute` compute and `n_bigmem` big-memory nodes.
    pub fn new(n_compute: usize, n_bigmem: usize) -> Self {
        let mut nodes = Vec::new();
        for _ in 0..n_compute {
            let t = compute_node();
            let slots = t.cpu_slots;
            nodes.push((t, slots));
        }
        for _ in 0..n_bigmem {
            let t = bigmem_node();
            let slots = t.cpu_slots;
            nodes.push((t, slots));
        }
        Cluster { nodes }
    }
}

/// The placement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Requests/limits bin packing: first node with free CPU slots
    /// (Kubernetes-without-energy-knowledge).
    CpuRequestsOnly,
    /// Evaluate every candidate node's energy interface; cheapest wins.
    EnergyInterface,
}

impl Policy {
    /// Stable lowercase name, used in telemetry span paths.
    pub fn as_str(self) -> &'static str {
        match self {
            Policy::CpuRequestsOnly => "cpu_requests_only",
            Policy::EnergyInterface => "energy_interface",
        }
    }
}

/// Result of placing a pod set.
#[derive(Debug, Clone)]
pub struct PlacementReport {
    /// Total energy of running all pods where they were placed.
    pub energy: Energy,
    /// `(app, node type)` assignments.
    pub assignments: Vec<(String, String)>,
    /// Pods that could not be placed.
    pub unplaced: usize,
}

/// Places `apps` on `cluster` under `policy` and totals the energy.
///
/// Energy-interface placement evaluates every viable `(app, node type)`
/// pair through an [`EvalCache`]: real pod sets contain few distinct app
/// shapes, so after the first pod of each shape the per-node ranking is
/// answered from the cache instead of re-running the interpreter.
pub fn place(cluster: &Cluster, apps: &[AppSpec], policy: Policy) -> PlacementReport {
    place_impl(cluster, apps, policy, &[])
}

/// Like [`place`], but nodes the fault plan reports dead at `now`
/// (`Fault::NodeDown` windows) are excluded as candidates under either
/// policy — the degraded cluster keeps placing on whatever survives, and
/// pods that fit nowhere else are reported unplaced rather than assigned
/// to a dead node.
pub fn place_with_faults(
    cluster: &Cluster,
    apps: &[AppSpec],
    policy: Policy,
    plan: &ei_hw::faults::FaultPlan,
    now: ei_core::units::TimeSpan,
) -> PlacementReport {
    let down = plan.nodes_down_at(now);
    if !down.is_empty() {
        ei_telemetry::counter_add("sched.nodes_down", down.len() as u64);
    }
    place_impl(cluster, apps, policy, &down)
}

/// Placement order audit: nothing here iterates a hash-ordered
/// container — candidates are scanned in node-index order and
/// equal-energy ties break to the lowest index, so placement is a pure
/// function of `(cluster, apps, policy, down)`. The only order-sensitive
/// input is `down`, which [`FaultPlan::nodes_down_at`] produces sorted
/// and deduplicated; the `debug_assert` and `binary_search` below pin
/// that contract so a future caller can't smuggle in a
/// declaration-ordered list.
///
/// [`FaultPlan::nodes_down_at`]: ei_hw::faults::FaultPlan::nodes_down_at
fn place_impl(
    cluster: &Cluster,
    apps: &[AppSpec],
    policy: Policy,
    down: &[usize],
) -> PlacementReport {
    debug_assert!(
        down.windows(2).all(|w| w[0] < w[1]),
        "down list must be sorted and deduplicated"
    );
    let is_down = |i: usize| down.binary_search(&i).is_ok();
    let mut sp = ei_telemetry::span(ei_telemetry::SpanKind::Placement, policy.as_str());
    sp.add_items(apps.len() as u64);
    ei_telemetry::counter_add("sched.placed_apps", apps.len() as u64);
    let mut free: Vec<f64> = cluster.nodes.iter().map(|(_, s)| *s).collect();
    let mut energy = Energy::ZERO;
    let mut assignments = Vec::new();
    let mut unplaced = 0;
    // Single-shot candidate queries run each node's carried program;
    // repeats across apps are answered by the energy cache.
    let cfg = EvalConfig::default();
    let env = EcvEnv::new();
    let cache = EvalCache::new();

    // Pre-built interfaces per node.
    let ifaces: Vec<Interface> = cluster.nodes.iter().map(|(t, _)| t.interface()).collect();

    for app in apps {
        let candidate = match policy {
            Policy::CpuRequestsOnly => {
                (0..cluster.nodes.len()).find(|&i| !is_down(i) && free[i] >= app.cpu_request)
            }
            Policy::EnergyInterface => {
                let mut best: Option<(usize, Energy)> = None;
                for i in 0..cluster.nodes.len() {
                    if is_down(i) || free[i] < app.cpu_request {
                        continue;
                    }
                    let e = cache
                        .evaluate_energy_cached(
                            &ifaces[i],
                            "e_app",
                            &[
                                Value::Num(app.cpu_work),
                                Value::Num(app.mem_accesses),
                                Value::Num(app.working_set),
                            ],
                            &env,
                            0,
                            &cfg,
                        )
                        .expect("node interface evaluates");
                    if best.as_ref().is_none_or(|(_, be)| e < *be) {
                        best = Some((i, e));
                    }
                }
                best.map(|(i, _)| i)
            }
        };
        match candidate {
            Some(i) => {
                free[i] -= app.cpu_request;
                energy += cluster.nodes[i].0.run_energy(app);
                assignments.push((app.name.clone(), cluster.nodes[i].0.name.clone()));
            }
            None => unplaced += 1,
        }
    }
    sp.record_energy(energy.as_joules());
    PlacementReport {
        energy,
        assignments,
        unplaced,
    }
}

/// A mixed pod set: `n` compute-bound and `n` memory-intensive apps.
pub fn mixed_pods(n: usize) -> Vec<AppSpec> {
    let mut pods = Vec::new();
    for i in 0..n {
        pods.push(AppSpec {
            name: format!("web-{i}"),
            cpu_work: 100.0,
            mem_accesses: 50.0,
            working_set: 8.0,
            cpu_request: 2.0,
        });
        pods.push(AppSpec {
            name: format!("analytics-{i}"),
            cpu_work: 40.0,
            mem_accesses: 900.0,
            working_set: 120.0,
            cpu_request: 2.0,
        });
    }
    pods
}

#[cfg(test)]
mod tests {
    use super::*;
    use ei_core::interp::evaluate_energy;

    #[test]
    fn node_interface_matches_ground_truth() {
        for node in [compute_node(), bigmem_node()] {
            let iface = node.interface();
            for app in mixed_pods(1) {
                let pred = evaluate_energy(
                    &iface,
                    "e_app",
                    &[
                        Value::Num(app.cpu_work),
                        Value::Num(app.mem_accesses),
                        Value::Num(app.working_set),
                    ],
                    &EcvEnv::new(),
                    0,
                    &EvalConfig::default(),
                )
                .unwrap();
                let truth = node.run_energy(&app);
                assert!(
                    (pred.as_joules() - truth.as_joules()).abs() < 1e-12,
                    "{} on {}",
                    app.name,
                    node.name
                );
            }
        }
    }

    #[test]
    fn memory_app_cheaper_on_bigmem() {
        let app = &mixed_pods(1)[1];
        assert!(app.working_set > compute_node().mem_capacity);
        let on_compute = compute_node().run_energy(app);
        let on_bigmem = bigmem_node().run_energy(app);
        assert!(on_bigmem < on_compute);
    }

    #[test]
    fn compute_app_cheaper_on_compute() {
        let app = &mixed_pods(1)[0];
        let on_compute = compute_node().run_energy(app);
        let on_bigmem = bigmem_node().run_energy(app);
        assert!(on_compute < on_bigmem);
    }

    #[test]
    fn interface_policy_beats_requests_only() {
        let cluster = Cluster::new(4, 4);
        let pods = mixed_pods(12);
        let base = place(&cluster, &pods, Policy::CpuRequestsOnly);
        let smart = place(&cluster, &pods, Policy::EnergyInterface);
        assert_eq!(base.unplaced, 0);
        assert_eq!(smart.unplaced, 0);
        assert!(
            smart.energy < base.energy,
            "interface {} must beat requests-only {}",
            smart.energy,
            base.energy
        );
        // The interface policy sends every analytics pod to bigmem.
        for (app, node) in &smart.assignments {
            if app.starts_with("analytics") {
                assert_eq!(node, "bigmem");
            } else {
                assert_eq!(node, "compute");
            }
        }
    }

    #[test]
    fn capacity_limits_respected() {
        // 1 node with 16 slots, pods requesting 2 each: 8 fit.
        let cluster = Cluster::new(1, 0);
        let pods = mixed_pods(6); // 12 pods.
        let r = place(&cluster, &pods, Policy::CpuRequestsOnly);
        assert_eq!(r.assignments.len(), 8);
        assert_eq!(r.unplaced, 4);
    }

    #[test]
    fn faulted_placement_skips_dead_nodes() {
        use ei_core::units::TimeSpan;
        use ei_hw::faults::{Fault, FaultPlan};

        let cluster = Cluster::new(2, 1); // nodes 0,1 compute; node 2 bigmem
        let pods = mixed_pods(4);
        let plan = FaultPlan::healthy(7).window(
            TimeSpan::ZERO,
            TimeSpan::seconds(10.0),
            Fault::NodeDown { node: 2 },
        );
        for policy in [Policy::CpuRequestsOnly, Policy::EnergyInterface] {
            // A healthy plan changes nothing.
            let base = place(&cluster, &pods, policy);
            let healthy = place_with_faults(
                &cluster,
                &pods,
                policy,
                &FaultPlan::healthy(7),
                TimeSpan::seconds(1.0),
            );
            assert_eq!(healthy.assignments, base.assignments);
            assert_eq!(healthy.unplaced, base.unplaced);

            // With bigmem down, nothing lands on it.
            let faulted = place_with_faults(&cluster, &pods, policy, &plan, TimeSpan::seconds(1.0));
            assert!(faulted.assignments.iter().all(|(_, n)| n != "bigmem"));
            assert_eq!(faulted.assignments.len() + faulted.unplaced, pods.len());
            // Outside the window the node is back.
            let recovered =
                place_with_faults(&cluster, &pods, policy, &plan, TimeSpan::seconds(11.0));
            assert_eq!(recovered.assignments, base.assignments);
        }
        // With every node down, everything is unplaced.
        let all_dead = FaultPlan::healthy(7)
            .window(
                TimeSpan::ZERO,
                TimeSpan::seconds(10.0),
                Fault::NodeDown { node: 0 },
            )
            .window(
                TimeSpan::ZERO,
                TimeSpan::seconds(10.0),
                Fault::NodeDown { node: 1 },
            )
            .window(
                TimeSpan::ZERO,
                TimeSpan::seconds(10.0),
                Fault::NodeDown { node: 2 },
            );
        let r = place_with_faults(
            &cluster,
            &pods,
            Policy::EnergyInterface,
            &all_dead,
            TimeSpan::seconds(1.0),
        );
        assert_eq!(r.unplaced, pods.len());
    }

    #[test]
    fn placement_is_independent_of_fault_window_order() {
        use ei_core::units::TimeSpan;
        use ei_hw::faults::{Fault, FaultPlan};

        let cluster = Cluster::new(3, 2);
        let pods = mixed_pods(6);
        let w = |plan: FaultPlan, node| {
            plan.window(
                TimeSpan::ZERO,
                TimeSpan::seconds(10.0),
                Fault::NodeDown { node },
            )
        };
        // Same dead set declared in three different window orders, one of
        // them with a duplicate overlapping window for node 3.
        let forward = w(w(FaultPlan::healthy(7), 0), 3);
        let reversed = w(w(FaultPlan::healthy(7), 3), 0);
        let duplicated = w(w(w(FaultPlan::healthy(7), 3), 0), 3);
        for policy in [Policy::CpuRequestsOnly, Policy::EnergyInterface] {
            let a = place_with_faults(&cluster, &pods, policy, &forward, TimeSpan::seconds(1.0));
            let b = place_with_faults(&cluster, &pods, policy, &reversed, TimeSpan::seconds(1.0));
            let c = place_with_faults(&cluster, &pods, policy, &duplicated, TimeSpan::seconds(1.0));
            assert_eq!(
                a.assignments, b.assignments,
                "{policy:?}: window order leaked"
            );
            assert_eq!(
                a.assignments, c.assignments,
                "{policy:?}: duplicate window leaked"
            );
            assert_eq!(
                (a.energy, a.unplaced),
                (b.energy, b.unplaced),
                "{policy:?}: totals diverge across window orders"
            );
            assert_eq!((a.energy, a.unplaced), (c.energy, c.unplaced));
        }
    }

    #[test]
    fn equal_energy_ties_break_to_the_lowest_index() {
        // Two nodes with byte-identical energy constants but distinct
        // names: every pod's interface evaluation ties exactly, so the
        // deterministic contract (scan in index order, strict `<` keeps
        // the earlier candidate) must fill node 0 before node 1.
        let mut a = compute_node();
        a.name = "tiea".into();
        a.cpu_slots = 4.0;
        let mut b = compute_node();
        b.name = "tieb".into();
        let cluster = Cluster {
            nodes: vec![(a, 4.0), (b, 16.0)],
        };
        let pods: Vec<AppSpec> = mixed_pods(4)
            .into_iter()
            .filter(|p| p.name.starts_with("web"))
            .collect();
        let r = place(&cluster, &pods, Policy::EnergyInterface);
        assert_eq!(r.unplaced, 0);
        let placed: Vec<&str> = r.assignments.iter().map(|(_, n)| n.as_str()).collect();
        assert_eq!(
            placed,
            ["tiea", "tiea", "tieb", "tieb"],
            "ties must fill the lowest-index node first"
        );
    }

    #[test]
    fn full_bigmem_falls_back_gracefully() {
        // Interface policy with bigmem full: analytics pods go to compute
        // (feasible but pricier) rather than staying unplaced.
        let cluster = Cluster::new(4, 1);
        let pods = mixed_pods(10); // 10 analytics pods need 20 slots; 8 fit on 1 bigmem.
        let r = place(&cluster, &pods, Policy::EnergyInterface);
        assert_eq!(r.unplaced, 0);
        let on_compute = r
            .assignments
            .iter()
            .filter(|(a, n)| a.starts_with("analytics") && n == "compute")
            .count();
        assert!(on_compute >= 2);
    }
}
