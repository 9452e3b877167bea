//! E10: the cluster-scale load-balancing experiment.
//!
//! Runs 1M requests through a 100-node cluster under the E10 fault plan,
//! comparing the energy-interface balancer against the utilization
//! baseline. The 10-node/10k smoke shape runs in `repro_all` and the
//! golden tests.
//!
//! Writes the report as JSON to `BENCH_cluster.json` (override the path
//! with `BENCH_CLUSTER_OUT`; set it empty to skip) so CI can archive it,
//! and exits non-zero if determinism or the policy win is violated.
fn main() {
    let report = ei_bench::cluster::run_with(&ei_bench::cluster::E10Config::full());
    println!("{}", ei_bench::cluster::render(&report));

    assert!(report.replay_identical, "E10 replay must be bit-identical");
    assert!(report.mc.identical, "MC must be thread-count invariant");
    assert!(
        report.energy.j_per_request < report.baseline.j_per_request,
        "energy policy must beat the utilization baseline on J/request"
    );

    let out =
        std::env::var("BENCH_CLUSTER_OUT").unwrap_or_else(|_| "BENCH_cluster.json".to_string());
    if !out.is_empty() {
        let json = serde_json::to_string_pretty(&report).expect("report serializes");
        std::fs::write(&out, json).expect("write cluster report");
        eprintln!("cluster report written to {out}");
    }
}
