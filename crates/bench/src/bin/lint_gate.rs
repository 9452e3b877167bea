//! CI lint gate: `eil-sema` over every interface the workspace bundles.
//!
//! Each bundled interface (vendor hardware, GPT-2 inference, the Fig. 1
//! web service healthy and fault-conditioned, the scheduling examples) and
//! the microbenchmark-extracted interface behind Table 1 is linted with
//! the calibration it actually ships with. Any diagnostic — warning or
//! error — fails the gate: bundled interfaces are the paper's exhibits and
//! must be clean at `--deny warnings` severity.
//!
//! Writes the per-target report as JSON to `lint_report.json` (override
//! with `LINT_REPORT_OUT`; set it empty to skip) so CI can archive it.

use ei_bench::fig1::deployed_interfaces;
use ei_bench::table1::fitted_gpt2_interface;
use ei_core::interface::Interface;
use ei_core::sema::{self, LintOptions};
use ei_core::units::{Calibration, Energy};
use ei_hw::cpu::big_little;
use ei_hw::gpu::{rtx3070, rtx4090};
use ei_hw::interfaces::{cpu_interface, gpu_interface, gpu_interface_dvfs, nic_interface};
use ei_hw::nic::{datacenter_nic, wifi_radio};
use ei_llm::batch_interface::gpt2_batch_interface;
use ei_llm::interface::gpt2_interface;
use ei_llm::model::{gpt2_medium, gpt2_small};
use ei_sched::cluster::{bigmem_node, compute_node};
use ei_sched::fuzz::default_campaign;
use ei_sched::provision::bursty_server_interface;
use serde::Serialize;

/// One gate target: a program (usually a single interface) plus the
/// calibration it is deployed with.
struct Target {
    name: &'static str,
    program: Vec<Interface>,
    options: LintOptions,
}

fn target(name: &'static str, program: Vec<Interface>, cal: Calibration) -> Target {
    Target {
        name,
        program,
        options: LintOptions::with_calibration(cal),
    }
}

fn targets() -> Vec<Target> {
    let mut out = Vec::new();

    // Vendor hardware interfaces (§3): concrete Joules only, no units.
    for gpu in [rtx4090(), rtx3070()] {
        out.push(target(
            "hw: vendor GPU",
            vec![gpu_interface(&gpu)],
            Calibration::empty(),
        ));
    }
    let (big, little) = big_little();
    for core in [big, little] {
        out.push(target(
            "hw: vendor CPU core",
            vec![cpu_interface(&core)],
            Calibration::empty(),
        ));
    }
    out.push(target(
        "hw: vendor NICs",
        vec![
            nic_interface("datacenter", &datacenter_nic()),
            nic_interface("wifi", &wifi_radio()),
        ],
        Calibration::empty(),
    ));

    // GPT-2 inference over the vendor GPU (§5) — linted as one program so
    // the W003 composition checks see the provider.
    out.push(target(
        "llm: GPT-2 small over vendor GPU",
        vec![gpt2_interface(&gpt2_small()), gpu_interface(&rtx4090())],
        Calibration::empty(),
    ));
    out.push(target(
        "llm: GPT-2 medium (open)",
        vec![gpt2_interface(&gpt2_medium())],
        Calibration::empty(),
    ));

    // The DVFS-aware pair behind E12: the batch-serving interface linked
    // against the vendor's DVFS hardware interface. The `t_*` latency twins
    // return abstract `sec`-unit results, deployed with the 1 J/s pricing
    // E12 evaluates them under.
    let sec_cal = || Calibration::from_pairs([("sec", Energy::joules(1.0))]);
    out.push(target(
        "hw: vendor GPU (DVFS)",
        vec![gpu_interface_dvfs(&rtx4090())],
        sec_cal(),
    ));
    for model in [gpt2_small(), gpt2_medium()] {
        out.push(target(
            "llm: GPT-2 batch serving over DVFS GPU",
            vec![gpt2_batch_interface(&model), gpu_interface_dvfs(&rtx4090())],
            sec_cal(),
        ));
    }

    // The microbenchmark-extracted interface behind Table 1 (§5), linked.
    let (linked, _r2) = fitted_gpt2_interface(&rtx4090());
    out.push(target(
        "extract: fitted GPT-2 (linked)",
        vec![linked],
        Calibration::empty(),
    ));

    // The Fig. 1 web service, healthy and fault-conditioned.
    for (name, iface, cal) in deployed_interfaces() {
        out.push(target(name, vec![iface], cal));
    }

    // Scheduling examples (§1, §4.3).
    out.push(target(
        "sched: node interfaces",
        vec![compute_node().interface(), bigmem_node().interface()],
        Calibration::empty(),
    ));
    out.push(target(
        "sched: fuzzing fleet",
        vec![default_campaign().interface()],
        Calibration::empty(),
    ));
    out.push(target(
        "sched: bursty server power interface",
        vec![bursty_server_interface()],
        Calibration::empty(),
    ));

    out
}

/// One row of the JSON artifact.
#[derive(Debug, Clone, Serialize)]
struct TargetReport {
    /// Gate target name.
    target: String,
    /// Interfaces in the linted program.
    interfaces: Vec<String>,
    /// Error-severity diagnostics.
    errors: u64,
    /// Warning-severity diagnostics.
    warnings: u64,
    /// Rendered diagnostic lines (empty when clean).
    diagnostics: Vec<String>,
}

fn main() {
    let mut reports = Vec::new();
    let mut total = 0usize;
    for t in targets() {
        let diags = sema::check_program(&t.program, &t.options);
        total += diags.len();
        let status = if diags.is_empty() {
            "ok".to_string()
        } else {
            format!(
                "{} error(s), {} warning(s)",
                diags.error_count(),
                diags.warning_count()
            )
        };
        println!("lint {:<45} {}", t.name, status);
        for d in diags.iter() {
            println!("  {}", d.text_line());
        }
        reports.push(TargetReport {
            target: t.name.to_string(),
            interfaces: t.program.iter().map(|i| i.name.clone()).collect(),
            errors: diags.error_count() as u64,
            warnings: diags.warning_count() as u64,
            diagnostics: diags.iter().map(|d| d.text_line()).collect(),
        });
    }

    let out = std::env::var("LINT_REPORT_OUT").unwrap_or_else(|_| "lint_report.json".to_string());
    if !out.is_empty() {
        let json = serde_json::to_string_pretty(&reports).expect("reports serialize");
        std::fs::write(&out, json).expect("write lint report");
        eprintln!("lint report written to {out}");
    }

    if total > 0 {
        eprintln!("lint gate FAILED: {total} diagnostic(s) across bundled interfaces");
        std::process::exit(1);
    }
    println!("lint gate passed: all bundled interfaces are clean at --deny warnings");
}
