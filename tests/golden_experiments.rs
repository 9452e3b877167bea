//! Golden-corpus regression over the paper's headline numbers.
//!
//! Every entry of `ei_bench::EXPERIMENTS` (Table 1, Figs. 1–2, experiments
//! E1–E9, the E10–E12 smoke shapes, and the A1 ablation) freezes its report
//! as JSON in `tests/golden/<id>.json`. Each test below re-runs one entry
//! and diffs the serialized tree against its golden file through
//! `ei_bench::golden`, comparing numbers with a relative tolerance so libm
//! differences across platforms don't produce false alarms — everything
//! else must match exactly.
//!
//! To regenerate after an intentional behaviour change:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test --test golden_experiments
//! ```
//!
//! then review the diff of `tests/golden/*.json` like any other code
//! change.

use std::collections::BTreeSet;

use ei_bench::golden::{assert_experiment, blessing, golden_dir};
use ei_bench::EXPERIMENTS;
use serde::Value;

#[test]
fn table1_matches_golden() {
    assert_experiment("table1");
}

#[test]
fn fig1_matches_golden() {
    assert_experiment("fig1");
}

#[test]
fn fig2_full_stack_matches_golden() {
    assert_experiment("fig2");
}

#[test]
fn e1_eas_matches_golden() {
    assert_experiment("e1_eas");
}

#[test]
fn e2_cluster_matches_golden() {
    assert_experiment("e2_cluster");
}

#[test]
fn e3_fuzz_matches_golden() {
    assert_experiment("e3_fuzz");
}

#[test]
fn e4_marginal_matches_golden() {
    assert_experiment("e4_marginal");
}

#[test]
fn e5_sidechannel_matches_golden() {
    assert_experiment("e5_sidechannel");
}

#[test]
fn e6_bughunt_matches_golden() {
    assert_experiment("e6_bughunt");
}

#[test]
fn e7_composition_matches_golden() {
    assert_experiment("e7_composition");
}

#[test]
fn e8_provisioning_matches_golden() {
    assert_experiment("e8_provisioning");
}

#[test]
fn e9_faults_matches_golden() {
    assert_experiment("e9_faults");
}

/// E10 at the CI smoke shape (10 nodes / 10k requests). The full
/// 1M-request shape is locked by the `cluster_sim` binary's own
/// assertions and archived as `BENCH_cluster.json` in CI.
#[test]
fn e10_cluster_smoke_matches_golden() {
    assert_experiment("e10_cluster");
}

/// E11 at the CI smoke shape (1200 requests per scenario). The full
/// shape is locked by the `drift_recal` binary's own acceptance
/// assertions and archived as `BENCH_drift.json` in CI.
#[test]
fn e11_drift_smoke_matches_golden() {
    assert_experiment("e11_drift");
}

/// E12 at the CI smoke shape (one model, four operating points). The
/// full sweep is locked by the `llm_pareto` binary's own acceptance
/// assertions and archived as `BENCH_llm.json` in CI.
#[test]
fn e12_llm_smoke_matches_golden() {
    assert_experiment("e12_llm");
}

#[test]
fn ablation_matches_golden() {
    assert_experiment("ablation");
}

#[test]
fn experiment_ids_are_unique() {
    let mut seen = BTreeSet::new();
    for e in EXPERIMENTS {
        assert!(seen.insert(e.id), "duplicate experiment id `{}`", e.id);
    }
}

/// Every `EXPERIMENTS` entry has an `<id>…_matches_golden` test here and
/// an `<id>…_unperturbed_by_telemetry` test in `telemetry_differential.rs`.
/// Both lists are written out by hand, because CI filters on the test
/// names; this keeps them complete. The A1 ablation's telemetry test is
/// left out on purpose (see `telemetry_differential.rs`).
#[test]
fn every_experiment_has_a_golden_and_a_telemetry_test() {
    let golden = test_names(include_str!("golden_experiments.rs"));
    let telemetry = test_names(include_str!("telemetry_differential.rs"));
    for e in EXPERIMENTS {
        let has = |names: &[String], suffix: &str| {
            let prefix = format!("{}_", e.id);
            names
                .iter()
                .any(|n| n.starts_with(&prefix) && n.ends_with(suffix))
        };
        assert!(
            has(&golden, "_matches_golden"),
            "experiment `{}` has no `{}…_matches_golden` test",
            e.id,
            e.id
        );
        if e.id != "ablation" {
            assert!(
                has(&telemetry, "_unperturbed_by_telemetry"),
                "experiment `{}` has no `{}…_unperturbed_by_telemetry` test",
                e.id,
                e.id
            );
        }
    }
}

/// The names of the `#[test]` functions in a Rust source file.
fn test_names(src: &str) -> Vec<String> {
    let mut names = Vec::new();
    let mut attributed = false;
    for line in src.lines().map(str::trim) {
        if line == "#[test]" {
            attributed = true;
        } else if let Some(rest) = line.strip_prefix("fn ") {
            if attributed {
                names.extend(rest.split('(').next().map(str::to_string));
            }
            attributed = false;
        }
    }
    names
}

/// Every top-level golden file belongs to exactly one experiment, so a
/// golden whose experiment was removed or renamed fails here instead of
/// going stale. The Table 1 telemetry trace is pinned by
/// `telemetry_golden`, not by an experiment.
#[test]
fn every_golden_is_claimed_by_one_experiment() {
    for entry in std::fs::read_dir(golden_dir()).expect("tests/golden exists") {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        let stem = path.file_stem().unwrap().to_string_lossy();
        if stem == "telemetry_table1" {
            continue;
        }
        let owners = EXPERIMENTS.iter().filter(|e| e.id == stem).count();
        assert_eq!(
            owners,
            1,
            "{} is claimed by {owners} experiments",
            path.display()
        );
    }
}

/// The golden corpus itself (the experiment reports and the cluster
/// scenario reports) must be well-formed JSON that round-trips through
/// the serializer (guards against hand-edited corruption).
#[test]
fn golden_corpus_is_well_formed() {
    if blessing() {
        // Files are being rewritten concurrently by the other tests.
        return;
    }
    let mut count = 0;
    for dir in [golden_dir(), golden_dir().join("cluster")] {
        for entry in std::fs::read_dir(&dir).expect("golden directory exists") {
            let path = entry.unwrap().path();
            if path.extension().is_none_or(|e| e != "json") {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            let value: Value =
                serde_json::from_str(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            let rendered = serde_json::to_string_pretty(&value).unwrap() + "\n";
            assert_eq!(
                rendered,
                text,
                "{} is not in canonical pretty format",
                path.display()
            );
            count += 1;
        }
    }
    assert!(
        count >= EXPERIMENTS.len() + 3,
        "expected every experiment and cluster golden, found {count} files"
    );
}
