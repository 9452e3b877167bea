//! E12: the LLM serving energy/latency Pareto frontier.
//!
//! Sweeps batch size × GPU clock × model depth, predicts J/token and
//! p50/p99 token latency for every point from the batch-aware interface
//! (linked against the microbenchmark-fitted DVFS hardware interface,
//! evaluated through the compiled VM), derives the Pareto frontier and the
//! SLO-optimal operating point from the predictions, and validates every
//! swept point against the continuous-batching engine on the simulated
//! GPU. Runs the full sweep; the four-point smoke shape runs in
//! `repro_all` and the golden tests.
//!
//! Writes the report as JSON to `BENCH_llm.json` (override the path with
//! `BENCH_LLM_OUT`; set it empty to skip) so CI can archive it, and exits
//! non-zero if any acceptance property fails: every point within the 5%
//! validation budget, a non-trivial frontier, an SLO choice that meets its
//! bound without losing to the max-throughput default, and bit-identical
//! ground-truth replay.
fn main() {
    let report = ei_bench::llm_pareto::run_with(&ei_bench::llm_pareto::E12Config::full());
    println!("{}", ei_bench::llm_pareto::render(&report));

    assert!(
        report.all_points_within_tol,
        "every swept point must validate within 5%: worst {:.2}% (J/tok), {:.2}% (p99)",
        report.max_j_err_pct, report.max_p99_err_pct
    );
    assert!(
        report.frontier_size >= 2,
        "the sweep must expose a real energy/latency trade-off"
    );
    assert!(
        report.replay_identical,
        "ground truth must replay bit-identically"
    );
    for s in &report.slo {
        assert!(
            s.meets_slo,
            "{}: the chosen operating point must honour its p99 bound",
            s.model
        );
        assert!(
            s.savings_pct >= 0.0,
            "{}: the SLO optimizer must not lose to the max-throughput default",
            s.model
        );
    }

    let out = std::env::var("BENCH_LLM_OUT").unwrap_or_else(|_| "BENCH_llm.json".to_string());
    if !out.is_empty() {
        let json = serde_json::to_string_pretty(&report).expect("report serializes");
        std::fs::write(&out, json).expect("write llm report");
        eprintln!("llm pareto report written to {out}");
    }
}
