//! # ei-bench: the reproduction harness
//!
//! One module per paper table/figure and per motivating experiment (see
//! DESIGN.md's experiment index), all listed once in [`EXPERIMENTS`]. The
//! `repro_all` binary runs that table and checks every report against its
//! golden file; `tests/golden_experiments.rs` checks the same entries one
//! test each. The full-shape runs with their own acceptance asserts
//! (`cluster_sim`, `drift_recal`, `llm_pareto`) are separate binaries.
//! Every shipped interface is listed once in [`catalogue()`]; the CI
//! `gate` binary lints every entry and certifies every closed one that
//! declares an input domain. The machinery itself is measured by the
//! separate `perfbench` harness; `benches/telemetry_overhead` gates the
//! cost of telemetry collection.

pub mod ablation;
mod catalogue;
pub mod cluster;
pub mod drift;
pub mod experiments;
pub mod fig1;
pub mod fig2;
pub mod golden;
pub mod llm_pareto;
pub mod table1;

pub use catalogue::{catalogue, Entry};

use std::borrow::Borrow;

use serde::{Serialize, Value};

/// One reproduced exhibit: a paper table or figure, or one of the
/// experiments E1–E12 and the ablation.
pub struct Experiment {
    /// Golden stem: the report is locked in `tests/golden/<id>.json`.
    pub id: &'static str,
    /// Name in `repro_all`'s summary.
    pub label: &'static str,
    /// Runs the experiment; returns the serialized report and the
    /// rendered table.
    pub run: fn() -> (Value, String),
}

fn report<R, T>(report: R, render: fn(&T) -> String) -> (Value, String)
where
    R: Serialize + Borrow<T>,
    T: ?Sized,
{
    let rendered = render(report.borrow());
    (report.to_value(), rendered)
}

/// Every exhibit, in `repro_all` order (Table 1 last; it is the slowest).
/// E10–E12 run their smoke shapes; the full shapes are the `cluster_sim`,
/// `drift_recal` and `llm_pareto` binaries.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "fig2",
        label: "Fig 2 full stack",
        run: || report(fig2::run(), fig2::render),
    },
    Experiment {
        id: "e1_eas",
        label: "E1 EAS",
        run: || report(experiments::run_eas(), experiments::render_eas),
    },
    Experiment {
        id: "e2_cluster",
        label: "E2 cluster",
        run: || report(experiments::run_cluster(), experiments::render_cluster),
    },
    Experiment {
        id: "e3_fuzz",
        label: "E3 fuzz",
        run: || report(experiments::run_fuzz(), experiments::render_fuzz),
    },
    Experiment {
        id: "e4_marginal",
        label: "E4 marginal",
        run: || report(experiments::run_marginal(), experiments::render_marginal),
    },
    Experiment {
        id: "e5_sidechannel",
        label: "E5 side channel",
        run: || {
            report(
                experiments::run_sidechannel(),
                experiments::render_sidechannel,
            )
        },
    },
    Experiment {
        id: "e6_bughunt",
        label: "E6 bug hunt",
        run: || report(experiments::run_bughunt(), experiments::render_bughunt),
    },
    Experiment {
        id: "e7_composition",
        label: "E7 composition",
        run: || {
            report(
                experiments::run_composition(),
                experiments::render_composition,
            )
        },
    },
    Experiment {
        id: "e8_provisioning",
        label: "E8 provisioning",
        run: || {
            report(
                experiments::run_provisioning(),
                experiments::render_provisioning,
            )
        },
    },
    Experiment {
        id: "e9_faults",
        label: "E9 faults",
        run: || report(experiments::run_faults(), experiments::render_faults),
    },
    Experiment {
        id: "e10_cluster",
        label: "E10 cluster DES",
        run: || {
            report(
                cluster::run_with(&cluster::E10Config::smoke()),
                cluster::render,
            )
        },
    },
    Experiment {
        id: "e11_drift",
        label: "E11 drift recal",
        run: || report(drift::run_with(&drift::E11Config::smoke()), drift::render),
    },
    Experiment {
        id: "e12_llm",
        label: "E12 LLM Pareto",
        run: || {
            report(
                llm_pareto::run_with(&llm_pareto::E12Config::smoke()),
                llm_pareto::render,
            )
        },
    },
    Experiment {
        id: "ablation",
        label: "A1 ablation",
        run: || report(ablation::run(), ablation::render),
    },
    Experiment {
        id: "fig1",
        label: "Fig 1 service",
        run: || report(fig1::run(), fig1::render),
    },
    Experiment {
        id: "table1",
        label: "Table 1",
        run: || report(table1::run(), table1::render),
    },
];
