//! # ei-bench: the reproduction harness
//!
//! One module (and one binary) per paper table/figure and per motivating
//! experiment — see DESIGN.md's experiment index. The binaries print the
//! same rows the paper reports. The machinery itself is measured by the
//! separate `perfbench` harness; `benches/telemetry_overhead` gates the
//! cost of telemetry collection.

pub mod ablation;
pub mod cluster;
pub mod drift;
pub mod experiments;
pub mod fig1;
pub mod fig2;
pub mod golden;
pub mod llm_pareto;
pub mod table1;
