//! E11: live recalibration under parameter drift.
//!
//! Drives the Fig. 1 service through `ei_service::recal` — the drift →
//! detect → refit → gate → swap → rollback loop — across four fault
//! scenarios on one deterministic clock:
//!
//! - **no_drift** — a healthy run; the detector must stay silent.
//! - **ramp_hold** — accelerator dynamic energy +50% and static power
//!   +30 W, ramping over the middle of the run and holding; run twice,
//!   with recalibration enabled (bounded steady-state error) and as a
//!   frozen-interface control arm (divergence).
//! - **dropout_storm** — repeated meter-dropout windows and *no* drift;
//!   the detector must raise zero alarms (a meter fault is not drift).
//! - **transient_spike** — a hold-shaped drift spike that vanishes
//!   mid-run; the loop swaps inside the spike and the post-swap monitor
//!   must roll the regressed version back once the spike lifts.
//!
//! A fifth row replays the hot-swap at cluster scale: the DES balancer
//! ([`DriftSwapLb`]) rebuilds its routing tables from recalibrated
//! interfaces at a scheduled autoscale tick, with request conservation
//! and bit-identical replay across the swap.

use ei_core::cache::EvalCache;
use ei_core::ecv::EcvEnv;
use ei_core::interface::Interface;
use ei_core::interp::{monte_carlo_par, EvalConfig};
use ei_core::registry::RegistryStats;
use ei_core::units::{Calibration, TimeSpan};
use ei_core::value::Value;
use ei_hw::faults::{DriftParam, DriftShape, Fault, FaultPlan};
use ei_hw::gpu::{rtx4090, GpuConfig};
use ei_hw::nic::{datacenter_nic, NicConfig};
use ei_sched::des::{
    run_cluster_sim, ClusterSpec, DriftSwapLb, EnergyLb, Phase, SimConfig, SimTime,
};
use ei_service::frontend::FrontendConfig;
use ei_service::recal::{pilot_mixture, RecalConfig, RecalFrontend, SampleRow};
use ei_service::service::{request_stream, Request};
use serde::Serialize;

use crate::cluster::McValidation;

/// The E11 experiment shape.
#[derive(Debug, Clone)]
pub struct E11Config {
    /// Requests per scenario run.
    pub n_requests: usize,
    /// Distinct hot keys in the stream.
    pub n_hot: u64,
    /// Fraction of requests drawn from the hot set.
    pub hot_fraction: f64,
    /// Image payload bytes.
    pub image_size: u64,
    /// Zero fraction of each payload.
    pub zero_fraction: f64,
    /// Inter-arrival gap, milliseconds.
    pub gap_ms: f64,
    /// Seed for streams and fault plans.
    pub seed: u64,
    /// Drift ramp start / end, as fractions of the run horizon.
    pub ramp: (f64, f64),
    /// Transient spike window, as fractions of the run horizon.
    pub spike: (f64, f64),
    /// Steady-state phase starts at this fraction of the horizon.
    pub steady_from: f64,
}

impl E11Config {
    /// The full experiment shape.
    pub fn full() -> E11Config {
        E11Config {
            n_requests: 3_000,
            n_hot: 200,
            hot_fraction: 0.6,
            image_size: 16_384,
            zero_fraction: 0.25,
            gap_ms: 5.0,
            seed: 0xE11,
            ramp: (0.30, 0.45),
            spike: (0.25, 0.55),
            steady_from: 0.80,
        }
    }

    /// The CI smoke shape: same structure, shorter stream.
    pub fn smoke() -> E11Config {
        E11Config {
            n_requests: 1_200,
            ..E11Config::full()
        }
    }

    /// Run horizon in seconds (requests × gap).
    pub fn horizon_s(&self) -> f64 {
        self.n_requests as f64 * self.gap_ms / 1000.0
    }

    fn stream(&self) -> Vec<Request> {
        request_stream(
            self.n_requests,
            self.n_hot,
            self.hot_fraction,
            self.image_size,
            self.zero_fraction,
            42,
        )
    }

    fn at(&self, frac: f64) -> TimeSpan {
        TimeSpan::seconds(self.horizon_s() * frac)
    }
}

/// The ramp + hold drift plan: dynamic energy +50% and static power
/// +30 W developing over `ramp` and persisting to the end of the run.
pub fn ramp_hold_plan(cfg: &E11Config) -> FaultPlan {
    let (from, until) = (cfg.at(cfg.ramp.0), cfg.at(cfg.ramp.1));
    FaultPlan::healthy(cfg.seed)
        .window(
            from,
            until,
            Fault::ParamDrift {
                param: DriftParam::GpuEnergyScale,
                shape: DriftShape::Ramp,
                magnitude: 0.5,
            },
        )
        .window(
            from,
            until,
            Fault::ParamDrift {
                param: DriftParam::GpuStaticPower,
                shape: DriftShape::Ramp,
                magnitude: 30.0,
            },
        )
        .window(
            until,
            TimeSpan::seconds(1e9),
            Fault::ParamDrift {
                param: DriftParam::GpuEnergyScale,
                shape: DriftShape::Hold,
                magnitude: 0.5,
            },
        )
        .window(
            until,
            TimeSpan::seconds(1e9),
            Fault::ParamDrift {
                param: DriftParam::GpuStaticPower,
                shape: DriftShape::Hold,
                magnitude: 30.0,
            },
        )
}

/// The meter-fault control plan: six dropout storms, zero drift.
pub fn dropout_storm_plan(cfg: &E11Config) -> FaultPlan {
    let mut plan = FaultPlan::healthy(cfg.seed);
    for k in 0..6 {
        let from = 0.08 + 0.14 * k as f64;
        plan = plan.window(cfg.at(from), cfg.at(from + 0.07), Fault::MeterDropout);
    }
    plan
}

/// The transient-spike plan: a hold-shaped +60% / +40 W drift over
/// `spike` that vanishes afterwards.
pub fn transient_spike_plan(cfg: &E11Config) -> FaultPlan {
    let (from, until) = (cfg.at(cfg.spike.0), cfg.at(cfg.spike.1));
    FaultPlan::healthy(cfg.seed)
        .window(
            from,
            until,
            Fault::ParamDrift {
                param: DriftParam::GpuEnergyScale,
                shape: DriftShape::Hold,
                magnitude: 0.6,
            },
        )
        .window(
            from,
            until,
            Fault::ParamDrift {
                param: DriftParam::GpuStaticPower,
                shape: DriftShape::Hold,
                magnitude: 40.0,
            },
        )
}

/// One scenario's accounting, flattened for the report.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioRow {
    /// Scenario name.
    pub name: String,
    /// Whether alarms were allowed to trigger refits.
    pub recal_enabled: bool,
    /// Requests completed (must equal the stream length: a swap never
    /// drops a request).
    pub completed: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Drift-control counters.
    pub recal: ei_service::recal::RecalStats,
    /// Registry accounting (published / swaps / rollbacks / epoch).
    pub registry: RegistryStats,
    /// Interface versions published by the end of the run.
    pub versions: usize,
    /// Version active at the end of the run.
    pub final_version: u32,
    /// `100·|Σmetered − Σpredicted| / Σmetered` over valid samples
    /// before any drift begins.
    pub pre_bias_pct: f64,
    /// Same, over the steady tail of the run.
    pub steady_bias_pct: f64,
}

/// Result of one scenario run, with enough state for the report's
/// cross-checks (replay, MC validation on the final interface).
struct ScenarioRun {
    row: ScenarioRow,
    samples: Vec<SampleRow>,
    final_interface: Interface,
    final_calibration: Calibration,
}

fn bias_pct(samples: &[SampleRow], from_s: f64, until_s: f64) -> f64 {
    let (mut pred, mut met) = (0.0, 0.0);
    for s in samples
        .iter()
        .filter(|s| s.valid && s.t_s >= from_s && s.t_s < until_s)
    {
        pred += s.predicted_j;
        met += s.metered_j;
    }
    if met <= 0.0 {
        return 0.0;
    }
    100.0 * ((met - pred) / met).abs()
}

fn run_scenario(
    cfg: &E11Config,
    name: &str,
    plan: FaultPlan,
    recal: RecalConfig,
    gpu: &GpuConfig,
    nic: &NicConfig,
    mixture: &ei_service::frontend::FaultMixture,
) -> ScenarioRun {
    let enabled = recal.enabled;
    let mut rf = RecalFrontend::new(
        gpu.clone(),
        nic.clone(),
        256,
        4096,
        plan,
        FrontendConfig::default(),
        recal,
        mixture,
    )
    .expect("model fits the accelerator");
    rf.run(&cfg.stream(), TimeSpan::millis(cfg.gap_ms));

    let h = cfg.horizon_s();
    let samples = rf.samples().to_vec();
    let row = ScenarioRow {
        name: name.to_string(),
        recal_enabled: enabled,
        completed: rf.frontend().stats().completed,
        shed: rf.frontend().stats().shed,
        recal: rf.stats(),
        registry: rf.registry_stats(),
        versions: rf.registry().len(),
        final_version: rf.registry().active_version(),
        pre_bias_pct: bias_pct(&samples, 0.0, h * cfg.ramp.0.min(cfg.spike.0)),
        steady_bias_pct: bias_pct(&samples, h * cfg.steady_from, f64::INFINITY),
    };
    let current = rf.registry().current();
    ScenarioRun {
        row,
        samples,
        final_interface: (*current.interfaces[0]).clone(),
        final_calibration: current.calibration.clone(),
    }
}

/// The DES-side hot-swap row: the cluster balancer rebuilds its routing
/// tables from recalibrated interfaces at a scheduled autoscale tick.
#[derive(Debug, Clone, Serialize)]
pub struct DesSwapReport {
    /// Interface swaps the balancer performed (staged swap fires once).
    pub swaps: u64,
    /// `arrivals == completed + shed + unserved` across the swap.
    pub conservation_ok: bool,
    /// The swapped run replayed bit-for-bit.
    pub replay_identical: bool,
    /// Per-class completions moved away from the drifted class.
    pub routing_shifted: bool,
    /// J/request of the swapped run (ground truth).
    pub j_per_request: f64,
    /// J/request with the stale tables kept all run.
    pub j_per_request_stale: f64,
}

/// Runs the 10-node smoke cluster with a mid-run table swap to
/// interfaces that report the eff class's drifted (8× per-event)
/// energies, against a stale-tables control run.
pub fn des_swap_report(seed: u64) -> DesSwapReport {
    let spec = ClusterSpec::mixed(5, 5);
    let sim_cfg = SimConfig {
        seed,
        n_requests: 10_000,
        phases: vec![
            Phase {
                duration_s: 2.0,
                rate_rps: 800.0,
                p_large: 0.25,
            },
            Phase {
                duration_s: 0.0,
                rate_rps: 1_500.0,
                p_large: 0.25,
            },
        ],
        autoscale_tick_ms: 250.0,
        slo_ms: 250.0,
        initial_active: 6,
        max_queue: 128,
        horizon_s: 0.0,
        track_ids: false,
    };
    let plan = FaultPlan::healthy(seed);
    let cache = EvalCache::new();
    let slo_ns = SimTime::from_millis(sim_cfg.slo_ms).0;

    // The recalibrated truth: the eff class drifted to 8x per-event
    // energy and 3x static draw, so post-swap routing must prefer perf.
    let mut drifted_eff = spec.classes[1].clone();
    drifted_eff.e_fixed_j *= 8.0;
    drifted_eff.e_req_j = [drifted_eff.e_req_j[0] * 8.0, drifted_eff.e_req_j[1] * 8.0];
    drifted_eff.p_active_w *= 3.0;
    let staged: Vec<Interface> = vec![spec.classes[0].interface(), drifted_eff.interface()];

    let run_swapped = || {
        let inner = EnergyLb::new(
            spec.classes.clone(),
            spec.assignment.clone(),
            sim_cfg.initial_active,
            slo_ns,
            &cache,
        );
        let mut lb = DriftSwapLb::new(inner, staged.clone(), 8);
        let stats = run_cluster_sim(&spec, &sim_cfg, &plan, &mut lb).stats;
        (stats, lb.inner().swaps())
    };
    let (swapped, n_swaps) = run_swapped();
    let (replay, replay_swaps) = run_swapped();
    let replay_identical = swapped == replay
        && swapped.j_per_request.to_bits() == replay.j_per_request.to_bits()
        && swapped.total_energy_j.to_bits() == replay.total_energy_j.to_bits()
        && n_swaps == replay_swaps;

    let mut stale_lb = EnergyLb::new(
        spec.classes.clone(),
        spec.assignment.clone(),
        sim_cfg.initial_active,
        slo_ns,
        &cache,
    );
    let stale = run_cluster_sim(&spec, &sim_cfg, &plan, &mut stale_lb).stats;

    DesSwapReport {
        swaps: n_swaps,
        conservation_ok: swapped.arrivals == swapped.completed + swapped.shed + swapped.unserved,
        replay_identical,
        routing_shifted: swapped.completed_by_class != stale.completed_by_class,
        j_per_request: swapped.j_per_request,
        j_per_request_stale: stale.j_per_request,
    }
}

/// The E11 report (golden-locked as `e11_drift.json`, and written to
/// `BENCH_drift.json` by the `drift_recal` binary).
#[derive(Debug, Clone, Serialize)]
pub struct DriftReport {
    /// Requests per scenario.
    pub requests: u64,
    /// Experiment seed.
    pub seed: u64,
    /// Healthy control: zero alarms, zero swaps.
    pub no_drift: ScenarioRow,
    /// Ramp + hold drift with recalibration on.
    pub ramp_hold_on: ScenarioRow,
    /// Ramp + hold drift with the interface frozen.
    pub ramp_hold_off: ScenarioRow,
    /// Meter-dropout storms, no drift: zero false alarms.
    pub dropout_storm: ScenarioRow,
    /// Transient spike: swap inside, rollback after.
    pub transient_spike: ScenarioRow,
    /// Steady-state error with recal on stays within 2x the pre-drift
    /// error (5% absolute floor against a near-zero baseline).
    pub bounded: bool,
    /// The frozen arm diverges in steady state.
    pub diverges_off: bool,
    /// The recal-on ramp run replayed bit-for-bit (every prediction,
    /// meter read, and swap decision).
    pub replay_identical: bool,
    /// MC engine over the *recalibrated* interface at 1 vs 8 threads.
    pub mc: McValidation,
    /// The cluster-scale hot-swap row.
    pub des: DesSwapReport,
}

/// Monte-Carlo thread-invariance over the recalibrated interface: the
/// post-swap `handle` entrypoint sampled at 1 and 8 threads.
pub fn mc_recal_validation(
    iface: &Interface,
    calibration: &Calibration,
    seed: u64,
) -> McValidation {
    let env = EcvEnv::from_decls(&iface.ecvs);
    let cfg = EvalConfig {
        calibration: calibration.clone(),
        ..EvalConfig::default()
    };
    let args = [Value::num_record([
        ("image_id", 7.0),
        ("image_size", 16_384.0),
        ("image_zeros", 4_096.0),
    ])];
    let run = |threads: usize| {
        monte_carlo_par(iface, "handle", &args, &env, 65_536, seed, threads, &cfg)
            .expect("recalibrated interface samples")
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

/// Runs E11 for one config.
pub fn run_with(cfg: &E11Config) -> DriftReport {
    let gpu = rtx4090();
    let nic = datacenter_nic();
    let stream = cfg.stream();
    let mixture = pilot_mixture(
        &gpu,
        &nic,
        256,
        4096,
        &FrontendConfig::default(),
        &stream,
        TimeSpan::millis(cfg.gap_ms),
        cfg.seed,
    )
    .expect("model fits the accelerator");

    let on = RecalConfig::default();
    let off = RecalConfig {
        enabled: false,
        ..RecalConfig::default()
    };
    // The spike scenario keeps its post-swap monitor armed for the whole
    // run, so the watchdog is still watching when the spike lifts and
    // the swapped-in version starts over-predicting.
    let spike_recal = RecalConfig {
        monitor_window: cfg.n_requests as u64,
        ..RecalConfig::default()
    };

    let no_drift = run_scenario(
        cfg,
        "no_drift",
        FaultPlan::healthy(cfg.seed),
        on.clone(),
        &gpu,
        &nic,
        &mixture,
    );
    let ramp_on = run_scenario(
        cfg,
        "ramp_hold_on",
        ramp_hold_plan(cfg),
        on.clone(),
        &gpu,
        &nic,
        &mixture,
    );
    let ramp_replay = run_scenario(
        cfg,
        "ramp_hold_on",
        ramp_hold_plan(cfg),
        on.clone(),
        &gpu,
        &nic,
        &mixture,
    );
    let ramp_off = run_scenario(
        cfg,
        "ramp_hold_off",
        ramp_hold_plan(cfg),
        off,
        &gpu,
        &nic,
        &mixture,
    );
    let dropout = run_scenario(
        cfg,
        "dropout_storm",
        dropout_storm_plan(cfg),
        on.clone(),
        &gpu,
        &nic,
        &mixture,
    );
    let spike = run_scenario(
        cfg,
        "transient_spike",
        transient_spike_plan(cfg),
        spike_recal,
        &gpu,
        &nic,
        &mixture,
    );

    let replay_identical = ramp_on.samples.len() == ramp_replay.samples.len()
        && ramp_on
            .samples
            .iter()
            .zip(&ramp_replay.samples)
            .all(|(a, b)| {
                a.predicted_j.to_bits() == b.predicted_j.to_bits()
                    && a.metered_j.to_bits() == b.metered_j.to_bits()
                    && a.version == b.version
                    && a.valid == b.valid
            })
        && ramp_on.row.registry == ramp_replay.row.registry;

    let pre = ramp_on.row.pre_bias_pct;
    let bounded = ramp_on.row.steady_bias_pct <= (2.0 * pre).max(5.0);
    let diverges_off = ramp_off.row.steady_bias_pct > 15.0;

    let mc = mc_recal_validation(
        &ramp_on.final_interface,
        &ramp_on.final_calibration,
        cfg.seed,
    );

    DriftReport {
        requests: cfg.n_requests as u64,
        seed: cfg.seed,
        no_drift: no_drift.row,
        ramp_hold_on: ramp_on.row,
        ramp_hold_off: ramp_off.row,
        dropout_storm: dropout.row,
        transient_spike: spike.row,
        bounded,
        diverges_off,
        replay_identical,
        mc,
        des: des_swap_report(cfg.seed),
    }
}

/// Runs E11 at the full shape.
pub fn run() -> DriftReport {
    run_with(&E11Config::full())
}

/// Renders the E11 report as the experiment table.
pub fn render(r: &DriftReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "E11: live recalibration under parameter drift — {} requests/scenario, seed {:#x}\n\n",
        r.requests, r.seed
    ));
    out.push_str(
        "scenario          recal   done  alarms  swaps  rollbk  skipped   pre%  steady%\n",
    );
    out.push_str(
        "------------------------------------------------------------------------------\n",
    );
    for row in [
        &r.no_drift,
        &r.ramp_hold_on,
        &r.ramp_hold_off,
        &r.dropout_storm,
        &r.transient_spike,
    ] {
        out.push_str(&format!(
            "{:<17} {:<5} {:>6} {:>7} {:>6} {:>7} {:>8} {:>6.2} {:>8.2}\n",
            row.name,
            if row.recal_enabled { "on" } else { "off" },
            row.completed,
            row.recal.alarms,
            row.recal.swaps,
            row.recal.rollbacks,
            row.recal.skipped_dropout + row.recal.skipped_resync,
            row.pre_bias_pct,
            row.steady_bias_pct,
        ));
    }
    out.push_str(&format!(
        "\nBounded (steady ≤ max(2·pre, 5%)): {}.  Frozen arm diverges: {}.\n",
        r.bounded, r.diverges_off
    ));
    out.push_str(&format!(
        "Replay bit-identical: {}.  MC on recalibrated interface 1 vs 8 threads identical: {}.\n",
        r.replay_identical, r.mc.identical
    ));
    out.push_str(&format!(
        "DES hot-swap: swaps={} conservation={} replay={} routing_shifted={} \
         J/req {:.4} (stale {:.4})\n",
        r.des.swaps,
        r.des.conservation_ok,
        r.des.replay_identical,
        r.des.routing_shifted,
        r.des.j_per_request,
        r.des.j_per_request_stale,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_report_meets_the_acceptance_criteria() {
        let r = run_with(&E11Config::smoke());
        eprintln!("{}", render(&r));
        let n = r.requests;
        for row in [
            &r.no_drift,
            &r.ramp_hold_on,
            &r.ramp_hold_off,
            &r.dropout_storm,
            &r.transient_spike,
        ] {
            assert_eq!(
                row.completed, n,
                "{}: a swap must never drop work",
                row.name
            );
            assert_eq!(row.shed, 0, "{}: nothing shed at this load", row.name);
        }
        assert_eq!(r.no_drift.recal.alarms, 0);
        assert_eq!(r.no_drift.recal.swaps, 0);
        assert_eq!(
            r.dropout_storm.recal.alarms, 0,
            "S2: dropouts are not drift"
        );
        assert_eq!(r.dropout_storm.recal.swaps, 0);
        assert!(r.dropout_storm.recal.skipped_dropout > 0);
        assert!(
            r.ramp_hold_on.recal.swaps >= 1,
            "{:?}",
            r.ramp_hold_on.recal
        );
        assert_eq!(r.ramp_hold_off.recal.swaps, 0);
        assert!(
            r.ramp_hold_off.recal.alarms >= 1,
            "control arm still detects"
        );
        assert!(r.transient_spike.recal.swaps >= 1);
        assert!(
            r.transient_spike.recal.rollbacks >= 1,
            "{:?}",
            r.transient_spike.recal
        );
        assert_eq!(r.transient_spike.final_version, 0);
        assert!(
            r.bounded,
            "steady-state error must stay bounded with recal on"
        );
        assert!(r.diverges_off, "frozen interface must diverge under drift");
        assert!(r.replay_identical);
        assert!(r.mc.identical);
        assert!(r.des.swaps == 1 && r.des.conservation_ok && r.des.replay_identical);
        assert!(r.des.routing_shifted, "post-swap routing must move load");
    }
}
