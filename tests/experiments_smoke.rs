//! Smoke tests that the reproductions in `ei-bench` reach the paper's
//! qualitative conclusions. The numbers themselves are locked by
//! `golden_experiments` (one test per `ei_bench::EXPERIMENTS` entry), and
//! `repro_all` prints the rendered tables.

use ei_bench::experiments;
use ei_bench::fig2;

#[test]
fn fig2_machines_rank_as_expected() {
    let rows = fig2::run();
    assert_eq!(rows.len(), 2);
    let e4090 = rows.iter().find(|r| r.machine == "rtx4090").unwrap();
    let e3070 = rows.iter().find(|r| r.machine == "rtx3070").unwrap();
    assert!(e3070.e_request > e4090.e_request);
    // Phase decomposition sums to the whole.
    for r in &rows {
        let sum: f64 = r.phases.iter().map(|(_, e)| e).sum();
        assert!((sum - r.e_request).abs() < 1e-9 * r.e_request);
    }
}

#[test]
fn eas_reaches_paper_conclusion() {
    let rows = experiments::run_eas();
    let plain = rows
        .iter()
        .find(|r| r.predictor == "utilization-proxy")
        .unwrap();
    let safe = rows
        .iter()
        .find(|r| r.predictor == "conservative-proxy")
        .unwrap();
    let iface = rows
        .iter()
        .find(|r| r.predictor == "energy-interface")
        .unwrap();
    assert!(plain.missed > 0);
    assert_eq!(safe.missed, 0);
    assert_eq!(iface.missed, 0);
    assert!(iface.energy < safe.energy);
}

#[test]
fn cluster_reaches_paper_conclusion() {
    let rows = experiments::run_cluster();
    let base = rows
        .iter()
        .find(|r| r.policy == "cpu-requests-only")
        .unwrap();
    let smart = rows
        .iter()
        .find(|r| r.policy == "energy-interface")
        .unwrap();
    assert!(smart.energy < base.energy);
    assert_eq!(smart.analytics_on_bigmem, 12);
}

#[test]
fn fuzz_planner_answers_both_questions() {
    let r = experiments::run_fuzz();
    assert!(r.best_machines >= 1);
    assert!(r.marginal > 0.0);
    let (pred, sim) = r.validation;
    assert!((pred - sim).abs() / sim < 0.05);
}

#[test]
fn marginal_energy_has_both_regimes() {
    let rows = experiments::run_marginal();
    assert!(rows.iter().any(|r| r.consolidate < r.spread));
    assert!(rows.iter().any(|r| r.spread < r.consolidate));
}

#[test]
fn sidechannel_verdicts() {
    let r = experiments::run_sidechannel();
    assert!(r.ct_verdict.starts_with("Constant"));
    assert_eq!(r.leaky_verdict, "Leaky");
    let (lo, hi) = r.leak_witness.unwrap();
    assert!(hi > lo);
}

#[test]
fn composition_error_is_attenuated_not_amplified() {
    let rows = experiments::run_composition();
    for r in &rows {
        assert!(
            r.end_to_end_error <= r.leaf_error * 1.01,
            "depth {} amplified {} -> {}",
            r.depth,
            r.leaf_error,
            r.end_to_end_error
        );
    }
    // And deeper stacks attenuate strictly more.
    let d1 = rows
        .iter()
        .find(|r| r.depth == 1 && r.leaf_error == 0.10)
        .unwrap();
    let d5 = rows
        .iter()
        .find(|r| r.depth == 5 && r.leaf_error == 0.10)
        .unwrap();
    assert!(d5.end_to_end_error < d1.end_to_end_error);
}

#[test]
fn fault_matrix_reaches_acceptance_bars() {
    let rows = experiments::run_faults();
    assert_eq!(rows.len(), 6, "every standard scenario runs");

    // No scenario panics (we got here), every scenario completes work,
    // and the fault-conditioned interface stays within 10% of truth.
    for r in &rows {
        assert!(r.completed > 0, "{}: nothing completed", r.scenario);
        assert!(
            r.rel_error < 0.10,
            "{}: prediction off by {:.1}%",
            r.scenario,
            r.rel_error * 100.0
        );
    }

    // Each degraded mode engages in its scenario.
    let by_name = |n: &str| rows.iter().find(|r| r.scenario == n).unwrap();
    let healthy = by_name("healthy");
    assert_eq!(healthy.shed, 0);
    assert_eq!(
        (
            healthy.retried,
            healthy.degraded,
            healthy.remote_skipped,
            healthy.meter_stale
        ),
        (0, 0, 0, 0)
    );
    assert!(
        by_name("gpu_brownout").degraded > 0,
        "brownout sheds to the small model"
    );
    assert!(by_name("nic_flaky").retried > 0, "latency spikes retry");
    assert!(
        by_name("remote_down").remote_skipped > 0,
        "dead node is skipped"
    );
    assert!(
        by_name("meter_dropout").meter_stale > 0,
        "dropout is detected"
    );
    let storm = by_name("combined_storm");
    assert!(storm.degraded > 0 && storm.remote_skipped > 0 && storm.meter_stale > 0);
}
