//! E10: energy-aware load balancing at cluster scale.
//!
//! Drives `ei_sched::des` — the deterministic discrete-event simulator —
//! with a three-phase arrival schedule over a mixed perf/eff cluster
//! under a fault plan derived from the standard matrix (GPU brownout, NIC
//! degradation) plus seeded node-death windows. Two policies serve the
//! identical workload: the utilization-band baseline and the
//! energy-interface-driven balancer, and the report compares throughput,
//! tail latency, and Joules per request.
//!
//! Determinism is part of the report: the energy-policy run is replayed
//! and the two [`RunStats`] compared bit-for-bit, and the MC engine
//! evaluates a noise interface at 1 and 8 threads to confirm the
//! thread-count invariance the rest of the harness relies on.

use ei_core::cache::EvalCache;
use ei_core::ecv::EcvEnv;
use ei_core::interp::{monte_carlo_par, EvalConfig};
use ei_core::parser::parse;
use ei_core::units::TimeSpan;
use ei_hw::faults::{Fault, FaultPlan};
use ei_sched::des::{
    run_cluster_sim, ClusterSpec, EnergyLb, Phase, RunStats, SimConfig, SimTime, SplitMix64,
    UtilizationLb,
};
use serde::Serialize;

/// The E10 experiment shape.
#[derive(Debug, Clone)]
pub struct E10Config {
    /// Latency-optimized nodes.
    pub n_perf: usize,
    /// Efficiency-optimized nodes.
    pub n_eff: usize,
    /// Requests to generate.
    pub n_requests: u64,
    /// Seed for arrivals, classes, and fault derivation.
    pub seed: u64,
    /// The arrival schedule.
    pub phases: Vec<Phase>,
    /// Nodes powered on at the start.
    pub initial_active: usize,
    /// Routing SLO, milliseconds.
    pub slo_ms: f64,
    /// Horizon the fault windows are laid out over, seconds.
    pub fault_horizon_s: f64,
    /// Node-death windows to derive from the seed.
    pub n_node_deaths: usize,
}

impl E10Config {
    /// The full experiment: 1M requests through a 100-node cluster.
    pub fn full() -> E10Config {
        E10Config {
            n_perf: 50,
            n_eff: 50,
            n_requests: 1_000_000,
            seed: 0xE10,
            phases: vec![
                Phase {
                    duration_s: 15.0,
                    rate_rps: 6_000.0,
                    p_large: 0.25,
                },
                Phase {
                    duration_s: 20.0,
                    rate_rps: 12_000.0,
                    p_large: 0.25,
                },
                Phase {
                    duration_s: 30.0,
                    rate_rps: 18_000.0,
                    p_large: 0.25,
                },
                Phase {
                    duration_s: 0.0,
                    rate_rps: 4_000.0,
                    p_large: 0.25,
                },
            ],
            initial_active: 30,
            slo_ms: 250.0,
            fault_horizon_s: 90.0,
            n_node_deaths: 10,
        }
    }

    /// The CI smoke shape: 10 nodes, 10k requests, same structure.
    pub fn smoke() -> E10Config {
        E10Config {
            n_perf: 5,
            n_eff: 5,
            n_requests: 10_000,
            seed: 0xE10,
            phases: vec![
                Phase {
                    duration_s: 2.0,
                    rate_rps: 800.0,
                    p_large: 0.25,
                },
                Phase {
                    duration_s: 3.0,
                    rate_rps: 2_000.0,
                    p_large: 0.25,
                },
                Phase {
                    duration_s: 0.0,
                    rate_rps: 600.0,
                    p_large: 0.25,
                },
            ],
            initial_active: 6,
            slo_ms: 250.0,
            fault_horizon_s: 8.0,
            n_node_deaths: 2,
        }
    }

    fn n_nodes(&self) -> usize {
        self.n_perf + self.n_eff
    }

    fn sim_config(&self) -> SimConfig {
        SimConfig {
            seed: self.seed,
            n_requests: self.n_requests,
            phases: self.phases.clone(),
            autoscale_tick_ms: 250.0,
            slo_ms: self.slo_ms,
            initial_active: self.initial_active,
            max_queue: 128,
            horizon_s: 0.0,
            track_ids: false,
        }
    }
}

/// The E10 fault plan: the standard matrix's brownout and NIC windows
/// scaled to the horizon, plus `n_node_deaths` seeded node-death windows
/// (the last two overlap to form a simultaneous wave).
pub fn cluster_fault_plan(cfg: &E10Config) -> FaultPlan {
    let h = cfg.fault_horizon_s;
    let at = |f: f64| TimeSpan::seconds(h * f);
    let mut plan = FaultPlan::healthy(cfg.seed)
        .window(
            at(0.25),
            at(0.45),
            Fault::GpuBrownout {
                derate: 0.70,
                sm_loss: 0.25,
            },
        )
        .window(
            at(0.35),
            at(0.60),
            Fault::NicDegraded {
                loss: 0.2,
                latency: TimeSpan::millis(2.0),
            },
        );
    // Seeded node deaths, staggered across the middle of the horizon;
    // the final two share a window start so a whole wave dies at once
    // and the displaced herd re-routes in one instant.
    let mut rng = SplitMix64::stream(cfg.seed, 0xD1E);
    let mut killed = Vec::new();
    while killed.len() < cfg.n_node_deaths.min(cfg.n_nodes().saturating_sub(1)) {
        let node = (rng.next_u64() % cfg.n_nodes() as u64) as usize;
        if !killed.contains(&node) {
            killed.push(node);
        }
    }
    for (i, &node) in killed.iter().enumerate() {
        let wave = i.min(killed.len().saturating_sub(2));
        let from = 0.30 + 0.04 * wave as f64;
        let until = from + 0.15;
        plan = plan.window(at(from), at(until), Fault::NodeDown { node });
    }
    plan
}

/// Thread-invariance check of the Monte-Carlo engine: the same noise
/// interface evaluated at 1 and 8 threads.
#[derive(Debug, Clone, Serialize)]
pub struct McValidation {
    /// Mean Joules at 1 thread.
    pub mean_1_thread_j: f64,
    /// Mean Joules at 8 threads.
    pub mean_8_threads_j: f64,
    /// Bitwise equality of the two means.
    pub identical: bool,
}

/// The E10 report (golden-locked as `e10_cluster.json`, and written to
/// `BENCH_cluster.json` by the `cluster_sim` binary).
#[derive(Debug, Clone, Serialize)]
pub struct ClusterReport {
    /// Cluster size.
    pub nodes: usize,
    /// Requests generated per policy run.
    pub requests: u64,
    /// Experiment seed.
    pub seed: u64,
    /// Fault windows in the plan (all kinds).
    pub fault_windows: usize,
    /// Node-death windows among them.
    pub node_death_windows: usize,
    /// The utilization-band baseline.
    pub baseline: RunStats,
    /// The energy-interface policy.
    pub energy: RunStats,
    /// J/request saving of the energy policy over the baseline, percent.
    pub saving_pct: f64,
    /// The energy-policy run replayed and compared bit-for-bit.
    pub replay_identical: bool,
    /// MC engine evaluated at 1 vs 8 threads.
    pub mc: McValidation,
}

/// Runs E10 for one config.
pub fn run_with(cfg: &E10Config) -> ClusterReport {
    let spec = ClusterSpec::mixed(cfg.n_perf, cfg.n_eff);
    let sim_cfg = cfg.sim_config();
    let plan = cluster_fault_plan(cfg);
    let node_death_windows = plan
        .windows
        .iter()
        .filter(|w| matches!(w.fault, Fault::NodeDown { .. }))
        .count();

    let mut base_lb = UtilizationLb::new(
        spec.classes.clone(),
        spec.assignment.clone(),
        cfg.initial_active,
    );
    let baseline = run_cluster_sim(&spec, &sim_cfg, &plan, &mut base_lb).stats;

    let cache = EvalCache::new();
    let slo_ns = SimTime::from_millis(cfg.slo_ms).0;
    let run_energy = || {
        let mut lb = EnergyLb::new(
            spec.classes.clone(),
            spec.assignment.clone(),
            cfg.initial_active,
            slo_ns,
            &cache,
        );
        run_cluster_sim(&spec, &sim_cfg, &plan, &mut lb).stats
    };
    let energy = run_energy();
    let replay = run_energy();
    let replay_identical = energy == replay
        && energy.j_per_request.to_bits() == replay.j_per_request.to_bits()
        && energy.total_energy_j.to_bits() == replay.total_energy_j.to_bits();

    let saving_pct = if baseline.j_per_request > 0.0 {
        (1.0 - energy.j_per_request / baseline.j_per_request) * 100.0
    } else {
        0.0
    };

    ClusterReport {
        nodes: cfg.n_nodes(),
        requests: cfg.n_requests,
        seed: cfg.seed,
        fault_windows: plan.windows.len(),
        node_death_windows,
        baseline,
        energy,
        saving_pct,
        replay_identical,
        mc: mc_thread_validation(cfg.seed),
    }
}

/// Runs E10 at the full 1M-request / 100-node shape.
pub fn run() -> ClusterReport {
    run_with(&E10Config::full())
}

/// Evaluates a throttle-noise interface through the Monte-Carlo engine at
/// 1 and 8 threads with one seed; the chunk-seeded design makes the two
/// means bit-identical, which the report records.
pub fn mc_thread_validation(seed: u64) -> McValidation {
    let iface = parse(
        r#"interface cluster_noise {
            ecv throttled: bernoulli(0.12) "node transiently thermal-throttled";
            fn e_request() "energy of one request under throttle noise" {
                return if throttled { 3.2 J } else { 1.1 J };
            }
        }"#,
    )
    .expect("noise interface parses");
    let env = EcvEnv::from_decls(&iface.ecvs);
    let cfg = EvalConfig::default();
    let run = |threads: usize| {
        monte_carlo_par(&iface, "e_request", &[], &env, 65_536, seed, threads, &cfg)
            .expect("noise interface samples")
            .mean()
            .as_joules()
    };
    let m1 = run(1);
    let m8 = run(8);
    McValidation {
        mean_1_thread_j: m1,
        mean_8_threads_j: m8,
        identical: m1.to_bits() == m8.to_bits(),
    }
}

/// Renders the E10 report as the experiment table.
pub fn render(r: &ClusterReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "E10: energy-aware load balancing — {} requests, {} nodes, {} fault windows \
         ({} node deaths)\n\n",
        r.requests, r.nodes, r.fault_windows, r.node_death_windows
    ));
    out.push_str(
        "policy            done      shed  redisp   thru rps    p50 ms   p99 ms  p999 ms    J/req\n",
    );
    out.push_str(
        "-----------------------------------------------------------------------------------------\n",
    );
    for s in [&r.baseline, &r.energy] {
        out.push_str(&format!(
            "{:<16} {:>8} {:>8} {:>7} {:>10.0} {:>9.2} {:>8.2} {:>8.2} {:>8.4}\n",
            s.policy,
            s.completed,
            s.shed,
            s.redispatched,
            s.throughput_rps,
            s.p50_ms,
            s.p99_ms,
            s.p999_ms,
            s.j_per_request,
        ));
    }
    out.push_str(&format!(
        "\nThe energy-interface policy saves {:.1}% J/request over the utilization baseline.\n",
        r.saving_pct
    ));
    out.push_str(&format!(
        "Replay bit-identical: {}.  MC mean at 1 vs 8 threads: {} (identical: {}).\n",
        r.replay_identical, r.mc.mean_1_thread_j, r.mc.identical
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_config_is_deterministic_and_energy_wins() {
        let report = run_with(&E10Config::smoke());
        assert_eq!(report.baseline.arrivals, 10_000);
        assert_eq!(report.energy.arrivals, 10_000);
        assert!(report.replay_identical, "replays must be bit-identical");
        assert!(report.mc.identical, "MC must be thread-count invariant");
        assert!(
            report.energy.j_per_request < report.baseline.j_per_request,
            "energy policy ({}) must beat baseline ({})",
            report.energy.j_per_request,
            report.baseline.j_per_request
        );
        assert!(report.node_death_windows >= 1);
        assert!(report.baseline.redispatched > 0 || report.energy.redispatched > 0);
    }
}
