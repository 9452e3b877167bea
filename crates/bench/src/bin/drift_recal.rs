//! E11: live recalibration and atomic interface hot-swap under drift.
//!
//! Runs the drift → detect → refit → gate → swap → rollback pipeline
//! over the Fig. 1 service at the full shape, plus the cluster-scale DES
//! hot-swap row. The shorter smoke shape runs in `repro_all` and the
//! golden tests.
//!
//! Writes the report as JSON to `BENCH_drift.json` (override the path
//! with `BENCH_DRIFT_OUT`; set it empty to skip) so CI can archive it,
//! and exits non-zero if any acceptance property is violated: bounded
//! steady-state error with recal on, divergence with it off, zero false
//! swaps under meter dropouts, an exercised rollback, zero dropped
//! requests, and bit-identical replay.
fn main() {
    let report = ei_bench::drift::run_with(&ei_bench::drift::E11Config::full());
    println!("{}", ei_bench::drift::render(&report));

    for row in [
        &report.no_drift,
        &report.ramp_hold_on,
        &report.ramp_hold_off,
        &report.dropout_storm,
        &report.transient_spike,
    ] {
        assert_eq!(
            row.completed, report.requests,
            "{}: a hot-swap must never drop or reroute a request",
            row.name
        );
    }
    assert_eq!(
        report.no_drift.recal.alarms, 0,
        "healthy run must stay silent"
    );
    assert_eq!(
        report.dropout_storm.recal.swaps, 0,
        "meter dropouts must not masquerade as drift"
    );
    assert!(report.dropout_storm.recal.skipped_dropout > 0);
    assert!(
        report.ramp_hold_on.recal.swaps >= 1,
        "drift must produce a swap"
    );
    assert!(
        report.transient_spike.recal.rollbacks >= 1,
        "a lifted spike must exercise the rollback path"
    );
    assert!(
        report.bounded,
        "steady-state error must stay bounded with recal on"
    );
    assert!(report.diverges_off, "the frozen interface must diverge");
    assert!(report.replay_identical, "E11 replay must be bit-identical");
    assert!(report.mc.identical, "MC must be thread-count invariant");
    assert!(
        report.des.conservation_ok && report.des.replay_identical && report.des.swaps == 1,
        "the DES hot-swap must conserve requests and replay bit-identically"
    );

    let out = std::env::var("BENCH_DRIFT_OUT").unwrap_or_else(|_| "BENCH_drift.json".to_string());
    if !out.is_empty() {
        let json = serde_json::to_string_pretty(&report).expect("report serializes");
        std::fs::write(&out, json).expect("write drift report");
        eprintln!("drift report written to {out}");
    }
}
