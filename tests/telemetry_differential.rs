//! Differential regression: telemetry must be a pure observer.
//!
//! The tentpole claim of the telemetry layer (DESIGN.md §telemetry) is
//! that collection never perturbs what it observes: every experiment
//! produces **bit-identical** results with the sink enabled and
//! disabled, and the trace itself is byte-stable across thread counts.
//! These tests run each paper experiment twice — once inside a
//! collecting session, once with the sink off — and require the
//! serialized reports to match exactly (string equality, no tolerance).
//!
//! Sessions serialize on a global lock, so the paired runs cannot bleed
//! events into each other even when the test harness runs threads
//! concurrently.

use ei_bench::EXPERIMENTS;
use ei_telemetry as telemetry;

/// Runs the `ei_bench::EXPERIMENTS` entry `id` with telemetry collecting
/// and again with it disabled and requires byte-identical serialized
/// reports (the comparison is on bytes, not semantics).
fn assert_unperturbed(id: &str) {
    let experiment = EXPERIMENTS
        .iter()
        .find(|e| e.id == id)
        .unwrap_or_else(|| panic!("no experiment `{id}`"));
    let json = || {
        let (report, _rendered) = (experiment.run)();
        serde_json::to_string_pretty(&report).expect("report serializes")
    };
    let with = {
        let session = telemetry::session();
        let r = json();
        let snap = session.finish();
        // The run must actually have been observed (when compiled in):
        // an empty trace would make this differential test vacuous.
        if telemetry::enabled() {
            assert!(
                !snap.counters.is_empty() || !snap.spans.is_empty(),
                "{id}: enabled session recorded nothing"
            );
        }
        r
    };
    let without = {
        let _session = telemetry::disabled_session();
        json()
    };
    assert_eq!(with, without, "{id}: telemetry perturbed the result");
}

// One test per `EXPERIMENTS` entry, named like its golden test so CI can
// filter on a single exhibit. The A1 ablation is left out: it reruns the
// Table 1 pipeline (fit, link, predict) on RTX 3070 variants, code that
// `table1` already observes here, and two debug-build runs of it take
// ~50 s.

#[test]
fn table1_unperturbed_by_telemetry() {
    assert_unperturbed("table1");
}

#[test]
fn fig1_unperturbed_by_telemetry() {
    assert_unperturbed("fig1");
}

#[test]
fn fig2_unperturbed_by_telemetry() {
    assert_unperturbed("fig2");
}

#[test]
fn e1_eas_unperturbed_by_telemetry() {
    assert_unperturbed("e1_eas");
}

#[test]
fn e2_cluster_unperturbed_by_telemetry() {
    assert_unperturbed("e2_cluster");
}

#[test]
fn e3_fuzz_unperturbed_by_telemetry() {
    assert_unperturbed("e3_fuzz");
}

#[test]
fn e4_marginal_unperturbed_by_telemetry() {
    assert_unperturbed("e4_marginal");
}

#[test]
fn e5_sidechannel_unperturbed_by_telemetry() {
    assert_unperturbed("e5_sidechannel");
}

#[test]
fn e6_bughunt_unperturbed_by_telemetry() {
    assert_unperturbed("e6_bughunt");
}

#[test]
fn e7_composition_unperturbed_by_telemetry() {
    assert_unperturbed("e7_composition");
}

#[test]
fn e8_provisioning_unperturbed_by_telemetry() {
    assert_unperturbed("e8_provisioning");
}

#[test]
fn e9_faults_unperturbed_by_telemetry() {
    assert_unperturbed("e9_faults");
}

#[test]
fn e10_cluster_smoke_unperturbed_by_telemetry() {
    assert_unperturbed("e10_cluster");
}

/// E11 writes counters from inside the recalibration loop itself
/// (`service.recal.*`, `sched.energy_lb.swaps`), so it is the most
/// likely place for an observer effect to creep in: detection, refits,
/// swaps, and rollbacks must all land identically with the sink off.
#[test]
fn e11_drift_smoke_unperturbed_by_telemetry() {
    assert_unperturbed("e11_drift");
}

#[test]
fn e12_llm_smoke_unperturbed_by_telemetry() {
    assert_unperturbed("e12_llm");
}

/// The Monte-Carlo engine is the one place work is farmed out to
/// threads, so it is where a naive trace would diverge: both the sample
/// vector *and the trace* must be identical at 1 and 8 threads.
#[test]
fn mc_results_and_trace_identical_across_thread_counts() {
    use ei_core::interp::{monte_carlo_par, EvalConfig};

    let iface = ei_core::parser::parse(
        r#"interface svc {
            ecv hit: bernoulli(0.7);
            ecv scale: uniform(0.5, 2.0);
            fn handle(n) {
                if ecv(hit) { return 1 mJ * n * ecv(scale); }
                else { return 10 mJ * n * ecv(scale); }
            }
        }"#,
    )
    .expect("test interface parses");
    let env = ei_core::ecv::EcvEnv::from_decls(&iface.ecvs);
    let args = [ei_core::value::Value::Num(3.0)];
    let cfg = EvalConfig::default();

    let run = |threads: usize| {
        let session = telemetry::session();
        let dist = monte_carlo_par(&iface, "handle", &args, &env, 1000, 42, threads, &cfg)
            .expect("mc evaluates");
        (dist, session.finish())
    };

    let (dist_1, trace_1) = run(1);
    let (dist_8, trace_8) = run(8);

    assert_eq!(
        dist_1, dist_8,
        "sample vectors diverge across thread counts"
    );
    assert_eq!(trace_1, trace_8, "traces diverge across thread counts");
    if telemetry::enabled() {
        assert_eq!(
            trace_8.counters.get("core.interp.mc_samples"),
            Some(&1000),
            "trace missing the MC sample counter"
        );
        // 1000 samples in 64-sample chunks -> 16 chunk spans, indexed
        // 0..=15 regardless of which worker ran which chunk.
        let chunk = trace_8
            .spans
            .iter()
            .find(|s| s.path == "mc:handle/mc_chunk:handle")
            .expect("chunk span present");
        assert_eq!((chunk.count, chunk.first_seq, chunk.last_seq), (16, 0, 15));
    }
}
