//! The §1–§4/§6 experiments (E1–E9 in DESIGN.md): scheduling, placement,
//! capacity planning, marginal energy, side channels, energy bugs,
//! composition error propagation, power provisioning, and serving under
//! injected faults.

use ei_core::analysis::constant_energy::{check_constant_energy, ConstantEnergy};
use ei_core::cache::EvalCache;
use ei_core::ecv::EcvEnv;
use ei_core::interface::InputSpec;
use ei_core::interp::{enumerate_exact, evaluate_energy, EvalConfig};
use ei_core::parser::parse;
use ei_core::units::{Energy, Power, TimeSpan};
use ei_core::value::Value;
use ei_extract::bugs::{detect_energy_bugs, DetectorConfig};
use ei_hw::faults::{standard_matrix, FaultState};
use ei_hw::gpu::rtx4090;
use ei_hw::nic::datacenter_nic;
use ei_sched::cluster::{mixed_pods, place, Cluster, Policy};
use ei_sched::eas::{marginal_energy, run_schedule, Predictor, SchedConfig, TaskSpec};
use ei_sched::fuzz::{default_campaign, plan, simulate_campaign};
use ei_sched::provision::{
    bursty_server_interface, provision, workload_from_interface, ProvisionPolicy,
};
use ei_service::{
    calibrate_with_state, fig1_calibration, fig1_faulted_calibration, fig1_interface,
    fig1_interface_faulted, request_stream, CacheEnergy, FrontendConfig, ServiceFrontend,
};
use serde::Serialize;

use crate::fig1;

// ---------------------------------------------------------------------------
// E1: EAS — utilization proxy vs energy interface
// ---------------------------------------------------------------------------

/// One scheduler's outcome on the bimodal workload.
#[derive(Debug, Clone, Serialize)]
pub struct EasRow {
    /// Predictor name.
    pub predictor: String,
    /// Total energy (J).
    pub energy: f64,
    /// Deadline misses.
    pub missed: u64,
}

/// Runs E1: three predictors on the bimodal transcoding workload.
pub fn run_eas() -> Vec<EasRow> {
    let task = TaskSpec::bimodal("transcode", 30.0, 1.0, 4, 4, 2000);
    let cfg = SchedConfig::default();
    [
        ("utilization-proxy", Predictor::UtilizationProxy),
        ("conservative-proxy", Predictor::ConservativeProxy),
        ("energy-interface", Predictor::EnergyInterface),
    ]
    .into_iter()
    .map(|(name, p)| {
        let r = run_schedule(&task, p, &cfg);
        EasRow {
            predictor: name.to_string(),
            energy: r.energy.as_joules(),
            missed: r.missed_quanta,
        }
    })
    .collect()
}

/// Renders E1.
pub fn render_eas(rows: &[EasRow]) -> String {
    let mut out = String::new();
    out.push_str("E1: big.LITTLE scheduling of a bimodal transcoding task (2000 quanta)\n\n");
    out.push_str("predictor             energy        deadline misses\n");
    out.push_str("----------------------------------------------------\n");
    for r in rows {
        out.push_str(&format!(
            "{:<20}  {:>8.3} J    {:>6}\n",
            r.predictor, r.energy, r.missed
        ));
    }
    let safe = rows.iter().find(|r| r.predictor == "conservative-proxy");
    let iface = rows.iter().find(|r| r.predictor == "energy-interface");
    if let (Some(s), Some(i)) = (safe, iface) {
        out.push_str(&format!(
            "\nAt equal QoS (0 misses), the interface saves {:.1}% vs the padded proxy.\n",
            (1.0 - i.energy / s.energy) * 100.0
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// E2: Kubernetes-like placement
// ---------------------------------------------------------------------------

/// One policy's outcome on the mixed pod set.
#[derive(Debug, Clone, Serialize)]
pub struct ClusterRow {
    /// Policy name.
    pub policy: String,
    /// Total energy (J).
    pub energy: f64,
    /// Analytics pods landing on big-memory nodes.
    pub analytics_on_bigmem: usize,
}

/// Runs E2.
pub fn run_cluster() -> Vec<ClusterRow> {
    let cluster = Cluster::new(4, 4);
    let pods = mixed_pods(12);
    [
        ("cpu-requests-only", Policy::CpuRequestsOnly),
        ("energy-interface", Policy::EnergyInterface),
    ]
    .into_iter()
    .map(|(name, p)| {
        let r = place(&cluster, &pods, p);
        ClusterRow {
            policy: name.to_string(),
            energy: r.energy.as_joules(),
            analytics_on_bigmem: r
                .assignments
                .iter()
                .filter(|(a, n)| a.starts_with("analytics") && n == "bigmem")
                .count(),
        }
    })
    .collect()
}

/// Renders E2.
pub fn render_cluster(rows: &[ClusterRow]) -> String {
    let mut out = String::new();
    out.push_str(
        "E2: cluster placement of 12 web + 12 analytics pods (4 compute + 4 bigmem nodes)\n\n",
    );
    out.push_str("policy                 energy       analytics pods on bigmem\n");
    out.push_str("------------------------------------------------------------\n");
    for r in rows {
        out.push_str(&format!(
            "{:<20}  {:>9.3} J      {:>2}/12\n",
            r.policy, r.energy, r.analytics_on_bigmem
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// E3: ClusterFuzz capacity planning
// ---------------------------------------------------------------------------

/// The planner's answers plus the validation row.
#[derive(Debug, Clone, Serialize)]
pub struct FuzzReport {
    /// `(machines, energy J)` sweep for 95 % coverage.
    pub sweep: Vec<(u32, f64)>,
    /// Energy-optimal machine count.
    pub best_machines: u32,
    /// Marginal energy 90 % → 95 % at the optimum (J).
    pub marginal: f64,
    /// Interface prediction vs campaign simulation at 8 machines (J).
    pub validation: (f64, f64),
}

/// Runs E3.
pub fn run_fuzz() -> FuzzReport {
    let campaign = default_campaign();
    let answer = plan(&campaign, 0.95, 32);
    let iface = campaign.interface();
    let pred = evaluate_energy(
        &iface,
        "e_to_coverage",
        &[Value::Num(8.0), Value::Num(0.9)],
        &EcvEnv::new(),
        0,
        &EvalConfig::default(),
    )
    .unwrap()
    .as_joules();
    let (_, sim) = simulate_campaign(&campaign, 8, 0.9, 0.01).expect("reachable");
    FuzzReport {
        sweep: answer
            .sweep
            .iter()
            .map(|(m, e)| (*m, e.as_joules()))
            .collect(),
        best_machines: answer.best_machines,
        marginal: answer.marginal_90_to_95.as_joules(),
        validation: (pred, sim.as_joules()),
    }
}

/// Renders E3.
pub fn render_fuzz(r: &FuzzReport) -> String {
    let mut out = String::new();
    out.push_str("E3: ClusterFuzz capacity planning, answered from the fleet's interface\n\n");
    out.push_str("Q1: optimal machines for 95% coverage at minimum energy\n");
    for (m, e) in r
        .sweep
        .iter()
        .filter(|(m, _)| [1, 2, 4, 8, 16, 32].contains(m))
    {
        let marker = if *m == r.best_machines {
            "  <-- optimum"
        } else {
            ""
        };
        out.push_str(&format!("    {m:>2} machines: {:.1} MJ{marker}\n", e / 1e6));
    }
    out.push_str(&format!(
        "\nQ2: marginal energy to go from 90% to 95% coverage at {} machine(s): {:.2} MJ\n",
        r.best_machines,
        r.marginal / 1e6
    ));
    out.push_str(&format!(
        "\nValidation (8 machines to 90%): interface {:.2} MJ vs simulated campaign {:.2} MJ ({:.2}% off)\n",
        r.validation.0 / 1e6,
        r.validation.1 / 1e6,
        (r.validation.0 - r.validation.1).abs() / r.validation.1 * 100.0
    ));
    out
}

// ---------------------------------------------------------------------------
// E4: marginal energy of consolidation (§2)
// ---------------------------------------------------------------------------

/// One row of the consolidation-vs-spread sweep.
#[derive(Debug, Clone, Serialize)]
pub struct MarginalRow {
    /// Extra work added to the busy core.
    pub extra_work: f64,
    /// Energy when consolidating (J).
    pub consolidate: f64,
    /// Energy when spreading to a second core (J).
    pub spread: f64,
}

/// Runs E4: a sweep of extra work against a core busy with 10 units.
///
/// Small extras consolidate cheaply onto the busy core (its OPP barely
/// rises and no second core wakes); large extras force a high OPP whose
/// convex power makes waking a second core cheaper — the crossover the
/// paper's §2 alludes to.
pub fn run_marginal() -> Vec<MarginalRow> {
    let cfg = SchedConfig::default();
    (1..=22)
        .step_by(3)
        .map(|w| {
            let (c, s) = marginal_energy(10.0, w as f64, &cfg);
            MarginalRow {
                extra_work: w as f64,
                consolidate: c.as_joules(),
                spread: s.as_joules(),
            }
        })
        .collect()
}

/// Renders E4.
pub fn render_marginal(rows: &[MarginalRow]) -> String {
    let mut out = String::new();
    out.push_str("E4: marginal energy — add work to a busy core or wake another? (§2)\n\n");
    out.push_str("extra work    consolidate      spread       winner\n");
    out.push_str("---------------------------------------------------\n");
    for r in rows {
        let winner = if r.consolidate < r.spread {
            "consolidate"
        } else {
            "spread"
        };
        out.push_str(&format!(
            "{:>8.0}      {:>8.2} mJ   {:>8.2} mJ   {winner}\n",
            r.extra_work,
            r.consolidate * 1e3,
            r.spread * 1e3
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// E5: constant-energy checking (§4.1)
// ---------------------------------------------------------------------------

/// Verdicts for the two crypto kernels.
#[derive(Debug, Clone, Serialize)]
pub struct SideChannelReport {
    /// Verdict text for the constant-time compare.
    pub ct_verdict: String,
    /// Verdict text for the early-exit compare.
    pub leaky_verdict: String,
    /// Witness energies for the leaky kernel `(lo, hi)` in nJ.
    pub leak_witness: Option<(f64, f64)>,
}

/// Runs E5.
pub fn run_sidechannel() -> SideChannelReport {
    let ct = parse(
        r#"interface crypto {
            fn ct_compare(secret_prefix) {
                let acc = 0 J;
                for b in 0..32 { acc = acc + 3 nJ; }
                return acc;
            }
        }"#,
    )
    .unwrap();
    let leaky = parse(
        r#"interface crypto {
            fn cmp(secret_prefix) {
                let acc = 1 nJ;
                for b in 0..secret_prefix { acc = acc + 3 nJ; }
                return acc;
            }
        }"#,
    )
    .unwrap();
    let spec = InputSpec::new().range("secret_prefix", 0.0, 32.0);
    let cal = ei_core::units::Calibration::empty();
    let tol = Energy::picojoules(1.0);

    let v1 = check_constant_energy(&ct, "ct_compare", &spec, &cal, tol).unwrap();
    let v2 = check_constant_energy(&leaky, "cmp", &spec, &cal, tol).unwrap();
    let leak_witness = match &v2 {
        ConstantEnergy::Leaky {
            energy_lo,
            energy_hi,
            ..
        } => Some((energy_lo.as_joules() * 1e9, energy_hi.as_joules() * 1e9)),
        _ => None,
    };
    SideChannelReport {
        ct_verdict: format!("{v1:?}"),
        leaky_verdict: match &v2 {
            ConstantEnergy::Leaky { .. } => "Leaky".to_string(),
            other => format!("{other:?}"),
        },
        leak_witness,
    }
}

/// Renders E5.
pub fn render_sidechannel(r: &SideChannelReport) -> String {
    let mut out = String::new();
    out.push_str("E5: constant-energy verification of crypto kernels (§4.1)\n\n");
    out.push_str(&format!("  fixed-iteration compare: {}\n", r.ct_verdict));
    out.push_str(&format!("  early-exit compare:      {}\n", r.leaky_verdict));
    if let Some((lo, hi)) = r.leak_witness {
        out.push_str(&format!(
            "    energy side channel: {lo:.1} nJ vs {hi:.1} nJ depending on the secret\n"
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// E6: energy-bug detection (§4.2)
// ---------------------------------------------------------------------------

/// Outcome of the detection campaign on the web service.
#[derive(Debug, Clone, Serialize)]
pub struct BugHuntReport {
    /// Deviation of the healthy service (should be small).
    pub healthy_deviation: f64,
    /// Bugs flagged on the healthy service (should be 0).
    pub healthy_bugs: usize,
    /// Bugs flagged with the cache disabled (should be > 0).
    pub broken_bugs: usize,
    /// Measured/predicted ratio with the cache disabled.
    pub broken_ratio: f64,
    /// Static `eil-sema` diagnostics on the hunted interface (should be 0:
    /// the bug is behavioural, not structural, so only the dynamic
    /// detector catches it).
    pub lint_diagnostics: usize,
}

/// Runs E6: the Fig. 1 service, healthy vs with its cache silently
/// disabled (a classic energy bug: functionally correct, energetically
/// broken).
pub fn run_bughunt() -> BugHuntReport {
    // Calibrate and measure hit rates on a healthy service.
    let mut healthy = fig1::service(256, 4096);
    let cal = fig1::calibration();
    let stream = request_stream(1500, 200, 0.6, 16384, 0.25, 99);
    healthy.run(&stream, TimeSpan::millis(5.0));
    let mix = healthy.stats().mixture();
    let (p_hit, p_local) = (mix.p_request_hit, mix.p_local_hit);
    let nic = datacenter_nic();
    let iface = fig1_interface(
        p_hit,
        p_local,
        &cal,
        &CacheEnergy::default(),
        nic.e_byte,
        nic.e_packet,
    );
    let det_cfg = DetectorConfig {
        tolerance: 0.15,
        eval: EvalConfig {
            calibration: fig1_calibration(&cal),
            ..EvalConfig::default()
        },
        mc_samples: 1024,
    };
    let inputs: Vec<Vec<Value>> = vec![vec![Value::num_record([
        ("image_id", 1.0),
        ("image_size", 16384.0),
        ("image_zeros", 4096.0),
    ])]];

    let healthy_mean = healthy.mean_request_energy();
    let healthy_report =
        detect_energy_bugs(&iface, "handle", &inputs, &det_cfg, |_| healthy_mean).unwrap();

    // Energy bug: the cache is "accidentally" disabled (capacity 1/1):
    // every request recomputes the CNN.
    let mut broken = fig1::service(1, 1);
    broken.run(&stream, TimeSpan::millis(5.0));
    let broken_mean = broken.mean_request_energy();
    let broken_report =
        detect_energy_bugs(&iface, "handle", &inputs, &det_cfg, |_| broken_mean).unwrap();

    BugHuntReport {
        healthy_deviation: healthy_report.max_deviation,
        healthy_bugs: healthy_report.bugs.len(),
        broken_bugs: broken_report.bugs.len(),
        broken_ratio: broken_report
            .bugs
            .first()
            .map(|b| b.ratio)
            .unwrap_or(broken_report.max_deviation + 1.0),
        lint_diagnostics: healthy_report.lint.len(),
    }
}

/// Renders E6.
pub fn render_bughunt(r: &BugHuntReport) -> String {
    let mut out = String::new();
    out.push_str("E6: energy-bug detection by prediction/measurement divergence (§4.2)\n\n");
    out.push_str(&format!(
        "  healthy service:       deviation {:.2}% -> {} bug(s) flagged\n",
        r.healthy_deviation * 100.0,
        r.healthy_bugs
    ));
    out.push_str(&format!(
        "  cache silently broken: measured/predicted = {:.2}x -> {} bug(s) flagged\n",
        r.broken_ratio, r.broken_bugs
    ));
    out.push_str(&format!(
        "  static lint (eil-sema): {} diagnostic(s) -- the bug is invisible statically\n",
        r.lint_diagnostics
    ));
    out
}

// ---------------------------------------------------------------------------
// E7: error propagation through composition (§6)
// ---------------------------------------------------------------------------

/// One row of the composition-error study.
#[derive(Debug, Clone, Serialize)]
pub struct CompositionRow {
    /// Stack depth (number of composed layers).
    pub depth: usize,
    /// Per-layer relative error injected into each leaf coefficient.
    pub leaf_error: f64,
    /// Resulting end-to-end relative error.
    pub end_to_end_error: f64,
}

/// Runs E7: build chains of `depth` layers where each layer consumes the
/// layer below twice plus its own overhead; perturb the leaf's coefficient
/// by ±`eps` and measure the end-to-end deviation.
pub fn run_composition() -> Vec<CompositionRow> {
    // One cache for the whole study: the unperturbed chain is re-linked for
    // every eps, and deeper chains share their whole prefix with shallower
    // ones, so most compositions are cache hits.
    let cache = EvalCache::new();
    let mut rows = Vec::new();
    for depth in 1..=5usize {
        for eps in [0.01, 0.05, 0.10] {
            let exact = chain_energy(&cache, depth, 0.0);
            let perturbed = chain_energy(&cache, depth, eps);
            rows.push(CompositionRow {
                depth,
                leaf_error: eps,
                end_to_end_error: (perturbed - exact).abs() / exact,
            });
        }
    }
    rows
}

/// Builds a `depth`-layer chain with the leaf coefficient scaled by
/// `(1 + eps)` and evaluates the top of the stack.
fn chain_energy(cache: &EvalCache, depth: usize, eps: f64) -> f64 {
    let leaf = parse(&format!(
        "interface l0 {{ fn op_0(x) {{ return {} J * x; }} }}",
        1e-6 * (1.0 + eps)
    ))
    .unwrap();
    let mut current = std::sync::Arc::new(leaf);
    for d in 1..depth {
        let upper = parse(&format!(
            r#"interface l{d} {{
                extern fn op_{prev}(x);
                fn op_{d}(x) {{ return 2 * op_{prev}(x) + {overhead} J * x; }}
            }}"#,
            d = d,
            prev = d - 1,
            overhead = 0.2e-6,
        ))
        .unwrap();
        current = cache.link_cached(&upper, &[&current]).expect("chain links");
    }
    let top = format!("op_{}", depth - 1);
    evaluate_energy(
        &current,
        &top,
        &[Value::Num(1000.0)],
        &EcvEnv::new(),
        0,
        &EvalConfig::default(),
    )
    .unwrap()
    .as_joules()
}

/// Renders E7.
pub fn render_composition(rows: &[CompositionRow]) -> String {
    let mut out = String::new();
    out.push_str("E7: how leaf-interface error propagates through composition (§6)\n\n");
    out.push_str("depth    leaf error    end-to-end error\n");
    out.push_str("----------------------------------------\n");
    for r in rows {
        out.push_str(&format!(
            "{:>3}       {:>5.1}%        {:>6.2}%\n",
            r.depth,
            r.leaf_error * 100.0,
            r.end_to_end_error * 100.0
        ));
    }
    out.push_str(
        "\nLeaf errors are *attenuated* up the stack when upper layers add their own\n\
         exactly-known overhead: the leaf's share of total energy shrinks with depth.\n",
    );
    out
}

// ---------------------------------------------------------------------------
// E8: peak-power-aware provisioning from power interfaces (§3 extension)
// ---------------------------------------------------------------------------

/// Rack power cap E8 provisions under, watts.
const RACK_CAP_W: f64 = 1000.0;

/// One provisioning policy's outcome.
#[derive(Debug, Clone, Serialize)]
pub struct ProvisioningRow {
    /// Policy name.
    pub policy: String,
    /// Workload copies admitted under the cap.
    pub admitted: usize,
    /// Peak aggregate power the plan expects (W).
    pub planned_peak_w: f64,
    /// Peak aggregate power of the simulated timeline (W).
    pub simulated_peak_w: f64,
    /// True when the simulated timeline stayed under the cap.
    pub cap_respected: bool,
}

/// Runs E8: admit staggered copies of a bursty workload under a 1 kW rack
/// cap, budgeting by nameplate, by interface peak, and by the interface
/// timeline.
pub fn run_provisioning() -> Vec<ProvisioningRow> {
    let w = workload_from_interface(
        "bursty-inference",
        &bursty_server_interface(),
        &["burst", "idle_phase"],
        0.0,
        Power::watts(400.0),
        0.0,
    )
    .expect("power interface yields a workload");
    [
        ("nameplate", ProvisionPolicy::Nameplate),
        ("interface peak", ProvisionPolicy::InterfacePeak),
        ("interface timeline", ProvisionPolicy::InterfaceTimeline),
    ]
    .into_iter()
    .map(|(name, policy)| {
        let r = provision(&w, Power::watts(RACK_CAP_W), 2.0, 32, policy);
        ProvisioningRow {
            policy: name.to_string(),
            admitted: r.admitted,
            planned_peak_w: r.planned_peak.as_watts(),
            simulated_peak_w: r.simulated_peak.as_watts(),
            cap_respected: r.cap_respected,
        }
    })
    .collect()
}

/// Renders E8.
pub fn render_provisioning(rows: &[ProvisioningRow]) -> String {
    let mut out = format!(
        "E8: rack provisioning under a {} cap (§3's power-interface extension)\n\n",
        Power::watts(RACK_CAP_W)
    );
    out.push_str("workload: 320 W bursts (2 s) / 60 W idle (6 s), nameplate 400 W\n\n");
    out.push_str("policy                 admitted   planned peak   simulated peak   cap ok\n");
    out.push_str("--------------------------------------------------------------------------\n");
    for r in rows {
        out.push_str(&format!(
            "{:<20}   {:>4}       {:>8.0} W      {:>8.0} W      {}\n",
            r.policy, r.admitted, r.planned_peak_w, r.simulated_peak_w, r.cap_respected
        ));
    }
    out.push_str(
        "\nExecuting the power interfaces over the staggered timeline admits several\n\
         times more workloads than nameplate budgeting, without ever breaking the cap.\n",
    );
    out
}

// ---------------------------------------------------------------------------
// E9: fault-matrix sweep — serve the Fig. 1 workload under every standard
// fault scenario and check the fault-conditioned interface's prediction.
// ---------------------------------------------------------------------------

/// One fault scenario of E9.
#[derive(Debug, Clone, Serialize)]
pub struct FaultRow {
    /// Scenario name from the standard fault matrix.
    pub scenario: String,
    /// Requests admitted and completed.
    pub completed: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Remote attempts retried after a timeout.
    pub retried: u64,
    /// Recomputes shed to the half-depth model.
    pub degraded: u64,
    /// Lookups that skipped the dead remote tier.
    pub remote_skipped: u64,
    /// Meter reads taken while the meter was dropped out.
    pub meter_stale: u64,
    /// Mean per-request energy predicted by the fault-conditioned
    /// interface (J).
    pub predicted_mean_j: f64,
    /// Measured ground-truth mean per-request energy (J).
    pub measured_mean_j: f64,
    /// Relative prediction error.
    pub rel_error: f64,
}

/// Runs E9: sweep the standard fault matrix over a 10 s serving window,
/// letting the frontend's degraded modes engage, then predict each
/// scenario's mean request energy with the fault-conditioned Fig. 1
/// interface and report the relative error.
pub fn run_faults() -> Vec<FaultRow> {
    let horizon = TimeSpan::seconds(10.0);
    let stream = request_stream(2000, 200, 0.6, 16384, 0.25, 42);
    let cal = fig1::calibration();
    let nic_cfg = datacenter_nic();
    let req = Value::num_record([
        ("image_id", 1.0),
        ("image_size", 16384.0),
        ("image_zeros", 4096.0),
    ]);

    let mut rows = Vec::new();
    for scenario in standard_matrix(42, horizon) {
        let mut fe = ServiceFrontend::new(
            rtx4090(),
            datacenter_nic(),
            256,
            4096,
            scenario.plan,
            FrontendConfig::default(),
        )
        .expect("model fits");
        fe.run(&stream, TimeSpan::millis(5.0));
        let st = fe.stats();
        let mix = st.mixture();

        // The browned leaf calibration comes from a probe device pinned to
        // the plan's worst brownout (healthy plans reuse the healthy one).
        let (derate, sm_loss) = fe.plan().worst_brownout().unwrap_or((1.0, 0.0));
        let browned = FaultState {
            gpu_derate: derate,
            gpu_sm_loss: sm_loss,
            ..FaultState::healthy()
        };
        let cal_br = calibrate_with_state(&rtx4090(), &browned).expect("model fits");
        let iface = fig1_interface_faulted(
            &mix,
            &cal,
            &cal_br,
            &CacheEnergy::default(),
            nic_cfg.e_byte,
            nic_cfg.e_packet,
        );
        let cfg = EvalConfig {
            calibration: fig1_faulted_calibration(&cal, &cal_br),
            ..EvalConfig::default()
        };
        let dist = enumerate_exact(
            &iface,
            "handle",
            std::slice::from_ref(&req),
            &EcvEnv::from_decls(&iface.ecvs),
            64,
            &cfg,
        )
        .expect("faulted interface enumerates");
        let predicted = dist.mean().as_joules();
        let measured = fe.mean_request_energy().as_joules();
        let rel_error = if measured == 0.0 {
            0.0
        } else {
            (predicted - measured).abs() / measured
        };
        rows.push(FaultRow {
            scenario: scenario.name.to_string(),
            completed: st.completed,
            shed: st.shed,
            retried: st.retries,
            degraded: st.degraded_recomputes,
            remote_skipped: st.remote_skipped,
            meter_stale: st.meter_stale,
            predicted_mean_j: predicted,
            measured_mean_j: measured,
            rel_error,
        });
    }
    rows
}

/// Renders E9.
pub fn render_faults(rows: &[FaultRow]) -> String {
    let mut out = String::new();
    out.push_str("E9: fault-conditioned interfaces under the standard fault matrix (§3)\n\n");
    out.push_str(
        "scenario         done  shed  retry  degr  skip  stale   predicted    measured    err\n",
    );
    out.push_str(
        "------------------------------------------------------------------------------------\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<15} {:>5} {:>5} {:>6} {:>5} {:>5} {:>6}   {:>9.5} J {:>9.5} J {:>5.1}%\n",
            r.scenario,
            r.completed,
            r.shed,
            r.retried,
            r.degraded,
            r.remote_skipped,
            r.meter_stale,
            r.predicted_mean_j,
            r.measured_mean_j,
            r.rel_error * 100.0,
        ));
    }
    out.push_str(
        "\nEvery degraded mode engages somewhere in the matrix, and the fault-conditioned\n\
         interface keeps predicting the measured mean request energy of each scenario.\n",
    );
    out
}
