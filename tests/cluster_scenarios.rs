//! Seeded scenario corpus for the cluster simulator.
//!
//! Each JSON fixture under `tests/fixtures/cluster/` describes one
//! adversarial traffic/fault shape — a hot-spot class skew, a thundering
//! herd after mass node death, an autoscaler-flapping square wave. The
//! runner deserializes the fixture into the simulator's own config types,
//! runs both shipped policies, and locks the resulting report against a
//! golden under `tests/golden/cluster/` through `ei_bench::golden`'s
//! tolerant JSON check.
//!
//! To regenerate after an intentional behaviour change:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test --test cluster_scenarios
//! ```
//!
//! then review the golden diff like any other code change.

use ei_bench::golden::assert_json;
use ei_core::cache::EvalCache;
use ei_hw::faults::FaultPlan;
use ei_sched::des::{
    run_cluster_sim, ClusterSpec, EnergyLb, RunStats, SimConfig, SimTime, UtilizationLb,
};
use serde::{Deserialize, Serialize, Value};

/// One fixture: cluster shape, workload, and fault schedule.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Scenario {
    name: String,
    description: String,
    n_perf: usize,
    n_eff: usize,
    config: SimConfig,
    plan: FaultPlan,
}

/// What a scenario run freezes in its golden file.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ScenarioReport {
    name: String,
    baseline: RunStats,
    energy: RunStats,
    saving_pct: f64,
}

fn repo_path(rel: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn load_scenario(name: &str) -> Scenario {
    let path = repo_path(&format!("tests/fixtures/cluster/{name}.json"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
    let value: Value = serde_json::from_str(&text).unwrap();
    let scenario = Scenario::from_value(&value)
        .unwrap_or_else(|e| panic!("{} does not parse: {e:?}", path.display()));
    assert_eq!(scenario.name, name, "fixture name must match its file");
    scenario
}

fn run_scenario(s: &Scenario) -> ScenarioReport {
    let spec = ClusterSpec::mixed(s.n_perf, s.n_eff);

    let mut base_lb = UtilizationLb::new(
        spec.classes.clone(),
        spec.assignment.clone(),
        s.config.initial_active,
    );
    let baseline = run_cluster_sim(&spec, &s.config, &s.plan, &mut base_lb).stats;

    let cache = EvalCache::new();
    let mut energy_lb = EnergyLb::new(
        spec.classes.clone(),
        spec.assignment.clone(),
        s.config.initial_active,
        SimTime::from_millis(s.config.slo_ms).0,
        &cache,
    );
    let energy = run_cluster_sim(&spec, &s.config, &s.plan, &mut energy_lb).stats;

    let saving_pct = if baseline.j_per_request > 0.0 {
        (1.0 - energy.j_per_request / baseline.j_per_request) * 100.0
    } else {
        0.0
    };
    ScenarioReport {
        name: s.name.clone(),
        baseline,
        energy,
        saving_pct,
    }
}

fn check_scenario(name: &str) -> ScenarioReport {
    let scenario = load_scenario(name);
    let report = run_scenario(&scenario);
    assert_eq!(
        report.baseline.arrivals,
        report.baseline.completed + report.baseline.shed + report.baseline.unserved,
        "baseline conservation"
    );
    assert_eq!(
        report.energy.arrivals,
        report.energy.completed + report.energy.shed + report.energy.unserved,
        "energy conservation"
    );
    assert_json(&format!("cluster/{name}.json"), &report.to_value());
    report
}

#[test]
fn hot_spot_skew_matches_golden() {
    let r = check_scenario("hot_spot_skew");
    // The skewed phase must actually dominate the mix: the 0.05/0.85
    // flip pushes the blended large fraction far above the 0.25 steady
    // state.
    assert!(
        r.baseline.frac_large > 0.40,
        "hot spot did not materialize: frac_large = {}",
        r.baseline.frac_large
    );
}

#[test]
fn thundering_herd_matches_golden() {
    let r = check_scenario("thundering_herd");
    assert!(
        r.baseline.redispatched > 0 && r.energy.redispatched > 0,
        "mass node death must force redispatch (got {} / {})",
        r.baseline.redispatched,
        r.energy.redispatched
    );
}

#[test]
fn autoscale_flap_matches_golden() {
    check_scenario("autoscale_flap");
}

/// Every fixture in the corpus parses, round-trips through the
/// serializer byte-stably, and names itself after its file.
#[test]
fn fixture_corpus_is_well_formed() {
    let dir = repo_path("tests/fixtures/cluster");
    let mut count = 0;
    for entry in std::fs::read_dir(&dir).expect("fixture dir exists") {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let value: Value =
            serde_json::from_str(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let scenario =
            Scenario::from_value(&value).unwrap_or_else(|e| panic!("{}: {e:?}", path.display()));
        let stem = path.file_stem().unwrap().to_string_lossy();
        assert_eq!(
            scenario.name,
            stem,
            "{}: name/file mismatch",
            path.display()
        );
        let rendered = serde_json::to_string_pretty(&value).unwrap() + "\n";
        assert_eq!(
            rendered,
            text,
            "{} is not in canonical pretty format",
            path.display()
        );
        count += 1;
    }
    assert!(count >= 3, "expected at least 3 fixtures, found {count}");
}
