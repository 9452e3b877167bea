//! CI certification gate: `eic certify`'s engine over every bundled
//! interface that declares an input domain.
//!
//! Each spec-carrying bundled interface (the Fig. 1 web service healthy
//! and fault-conditioned, GPT-2 single-stream and batch serving, the
//! vendor DVFS hardware interface, and the microbenchmark-fitted
//! interface behind Table 1) is certified with the calibration it ships
//! with. The gate asserts two things:
//!
//! 1. every target certifies — finite, ordered `[lower, upper]` Joule
//!    bounds for every function with a declared domain;
//! 2. the certificates are *sound in practice*: a deterministic grid of
//!    concrete executions sampled from each declared domain (corners,
//!    midpoints, per-axis extremes, three ECV seeds each) always lands
//!    inside the certified bound, and every `constant`, `non_decreasing`
//!    or `non_increasing` verdict holds on each ordered pair of those
//!    executions that differs only along the verdict's axis (for an ECV
//!    verdict, the seed's draw with that ECV pinned at both ends and the
//!    midpoint of its range).
//!
//! Writes the per-target report as JSON to `cert_report.json` (override
//! with `CERT_REPORT_OUT`; set it empty to skip) so CI can archive it.

use std::collections::BTreeMap;

use ei_bench::fig1::deployed_interfaces;
use ei_bench::table1::fitted_gpt2_interface;
use ei_core::analysis::cert::{args_at, axes_for, certify, probe_grid, Certificate, Monotonicity};
use ei_core::analysis::interval::{ecv_abs_value, AbsValue};
use ei_core::compose::link;
use ei_core::ecv::{EcvEnv, EcvValue};
use ei_core::interface::{InputSpec, Interface};
use ei_core::interp::{evaluate_energy, EvalConfig};
use ei_core::units::{Calibration, Energy};
use ei_core::vm;
use ei_hw::gpu::rtx4090;
use ei_hw::interfaces::{gpu_interface, gpu_interface_dvfs};
use ei_llm::batch_interface::gpt2_batch_interface;
use ei_llm::interface::gpt2_interface;
use ei_llm::model::gpt2_small;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

/// One gate target: a closed interface plus its deployed calibration.
struct Target {
    name: &'static str,
    iface: Interface,
    cal: Calibration,
}

/// ECV seeds for the concrete spot-check executions.
const SEEDS: [u64; 3] = [0, 1, 2];

fn targets() -> Vec<Target> {
    let mut out = Vec::new();
    let sec_cal = || Calibration::from_pairs([("sec", Energy::joules(1.0))]);

    // The Fig. 1 web service, healthy and fault-conditioned (§3 / E9).
    for (name, iface, cal) in deployed_interfaces() {
        out.push(Target { name, iface, cal });
    }

    // GPT-2 single-stream and batch serving, linked over the vendor
    // hardware interfaces so every extern is resolved (§5 / E12).
    out.push(Target {
        name: "llm: GPT-2 small over vendor GPU",
        iface: link(
            &gpt2_interface(&gpt2_small()),
            &[&gpu_interface(&rtx4090())],
        )
        .expect("link GPT-2 over vendor GPU"),
        cal: Calibration::empty(),
    });
    out.push(Target {
        name: "llm: GPT-2 batch serving over DVFS GPU",
        iface: link(
            &gpt2_batch_interface(&gpt2_small()),
            &[&gpu_interface_dvfs(&rtx4090())],
        )
        .expect("link batch GPT-2 over DVFS GPU"),
        cal: sec_cal(),
    });

    // The vendor DVFS hardware interface on its own. The vendor ships no
    // input spec, so the gate declares the deployment domain — the same
    // kernel-shape ranges `ei-extract` stamps on fitted interfaces.
    let mut dvfs = gpu_interface_dvfs(&rtx4090());
    let kernel_spec = InputSpec::new()
        .range("flops", 0.0, 1e13)
        .range("logical_bytes", 0.0, 1e13)
        .range("l2_sectors", 0.0, 1e12)
        .range("vram_sectors", 0.0, 1e12)
        .range("freq", 0.1, 1.0);
    dvfs.set_input_spec("gpu_kernel_f", kernel_spec);
    dvfs.set_input_spec(
        "gpu_time_f",
        InputSpec::new()
            .range("flops", 0.0, 1e13)
            .range("vram_sectors", 0.0, 1e12)
            .range("freq", 0.1, 1.0),
    );
    dvfs.set_input_spec("gpu_idle", InputSpec::new().range("seconds", 0.0, 3600.0));
    out.push(Target {
        name: "hw: vendor GPU (DVFS)",
        iface: dvfs,
        cal: sec_cal(),
    });

    // The microbenchmark-extracted interface behind Table 1 (§5), linked.
    let (linked, _r2) = fitted_gpt2_interface(&rtx4090());
    out.push(Target {
        name: "extract: fitted GPT-2 (linked)",
        iface: linked,
        cal: Calibration::empty(),
    });

    out
}

/// One certified function in the JSON artifact.
#[derive(Debug, Clone, Serialize)]
struct FnRow {
    /// Function name.
    func: String,
    /// Certified lower bound, Joules.
    lower_j: f64,
    /// Certified upper bound, Joules.
    upper_j: f64,
    /// Monotonicity verdicts, rendered `target:direction`.
    monotone: Vec<String>,
    /// Concrete executions checked against the bound.
    samples: u64,
}

/// One row of the JSON artifact.
#[derive(Debug, Clone, Serialize)]
struct TargetReport {
    /// Gate target name.
    target: String,
    /// Certified interface name.
    interface: String,
    /// Interface fingerprint, `0x` hex.
    fingerprint: String,
    /// Per-function certificates.
    fns: Vec<FnRow>,
    /// Failures (empty when the target passes).
    failures: Vec<String>,
}

/// Certifies one target and spot-checks the certificate against concrete
/// executions. Returns the report row, with failures recorded on it, and
/// the number of execution pairs its verdicts were checked on.
fn run_target(t: &Target) -> (TargetReport, u64) {
    let mut failures = Vec::new();
    let cert: Certificate = match certify(&t.iface, &t.cal) {
        Ok(c) => c,
        Err(e) => {
            let report = TargetReport {
                target: t.name.to_string(),
                interface: t.iface.name.clone(),
                fingerprint: String::new(),
                fns: Vec::new(),
                failures: vec![format!("certification failed: {e}")],
            };
            return (report, 0);
        }
    };
    if cert.fns.is_empty() {
        failures.push("certificate is empty: no function has a declared domain".into());
    }
    // Runs the pinned-ECV executions of the verdict checks.
    let program = vm::compile(&t.iface).expect("bundled interfaces compile");
    let cfg = EvalConfig {
        fuel: 500_000_000,
        calibration: t.cal.clone(),
        ..EvalConfig::default()
    };
    let env = EcvEnv::from_decls(&t.iface.ecvs);
    let mut fns = Vec::new();
    let mut verdict_pairs = 0u64;
    for (func, fc) in &cert.fns {
        let lo = fc.bound.lower.as_joules();
        let hi = fc.bound.upper.as_joules();
        if !(lo.is_finite() && hi.is_finite() && lo <= hi) {
            failures.push(format!(
                "{func}: bound [{lo}, {hi}] is not finite and ordered"
            ));
        }
        let mut samples = 0u64;
        let spec = t.iface.input_specs.get(func).cloned().unwrap_or_default();
        if let Some(axes) = axes_for(&t.iface, func, &spec) {
            let params = &t.iface.fns()[func.as_str()].params;
            let grid = probe_grid(&axes);
            // Joules per grid point and seed, `None` where evaluation failed.
            let mut measured = Vec::with_capacity(grid.len());
            for point in &grid {
                let args = args_at(&axes, params.len(), point);
                let mut row = [None; SEEDS.len()];
                for (slot, seed) in row.iter_mut().zip(SEEDS) {
                    match evaluate_energy(&t.iface, func, &args, &env, seed, &cfg) {
                        Ok(e) => {
                            samples += 1;
                            *slot = Some(e.as_joules());
                            if !fc.bound.admits(e) {
                                failures.push(format!(
                                    "{func}: measured {} J at seed {seed} escapes certified [{lo}, {hi}] J",
                                    e.as_joules()
                                ));
                            }
                        }
                        Err(e) => failures.push(format!(
                            "{func}: evaluation failed inside the declared domain: {e}"
                        )),
                    }
                }
                measured.push(row);
            }
            // Each verdict's runs: executions in increasing order along its
            // axis, every other input held. A parameter's runs are lines of
            // the grid at each seed; an ECV's are each seed's draw at each
            // grid point, the ECV pinned at the ends and midpoint of its range.
            let mut machine = vm::Vm::new(&program);
            let mut runs_along = |key: &str| -> Vec<(String, Vec<Option<f64>>)> {
                let mut runs = Vec::new();
                if let Some(name) = key.strip_prefix("ecv(").and_then(|k| k.strip_suffix(')')) {
                    let AbsValue::Num(r) = ecv_abs_value(&t.iface.ecvs[name].dist) else {
                        unreachable!("verdicts are on numeric ECVs");
                    };
                    for point in &grid {
                        let args = args_at(&axes, params.len(), point);
                        for seed in SEEDS {
                            let mut draw = env.sample_assignment(&mut StdRng::seed_from_u64(seed));
                            let run = [r.lo, (r.lo + r.hi) / 2.0, r.hi].map(|v| {
                                draw.insert(name.to_string(), EcvValue::Num(v));
                                let out = machine.run(func, &args, &draw, &cfg);
                                out.and_then(|v| v.into_energy()?.calibrate(&cfg.calibration))
                                    .ok()
                                    .map(|e| e.as_joules())
                            });
                            runs.push((format!("{args:?} at seed {seed}"), run.to_vec()));
                        }
                    }
                    return runs;
                }
                let axis = axes
                    .iter()
                    .position(|a| a.field.is_none() && params[a.param] == key)
                    .expect("a parameter verdict has a sampling axis");
                // Grid points by their coordinates off the axis.
                let mut lines: BTreeMap<Vec<usize>, Vec<usize>> = BTreeMap::new();
                for (i, p) in grid.iter().enumerate() {
                    let mut off = p.clone();
                    off.remove(axis);
                    lines.entry(off).or_default().push(i);
                }
                for (off, mut line) in lines {
                    line.sort_by_key(|&i| grid[i][axis]);
                    for (s, seed) in SEEDS.into_iter().enumerate() {
                        let run = line.iter().map(|&i| measured[i][s]).collect();
                        runs.push((format!("other axes at {off:?}, seed {seed}"), run));
                    }
                }
                runs
            };
            let slack = 1e-9 * (1.0 + hi.abs());
            for (key, &verdict) in &fc.monotone {
                if verdict == Monotonicity::Unknown {
                    continue;
                }
                for (at, run) in runs_along(key) {
                    for (i, a) in run.iter().enumerate() {
                        for b in &run[i + 1..] {
                            let (Some(a), Some(b)) = (*a, *b) else {
                                continue;
                            };
                            verdict_pairs += 1;
                            let holds = match verdict {
                                Monotonicity::Constant => (a - b).abs() <= slack,
                                Monotonicity::NonDecreasing => a <= b + slack,
                                Monotonicity::NonIncreasing => a + slack >= b,
                                Monotonicity::Unknown => true,
                            };
                            if !holds {
                                failures.push(format!(
                                    "{func}: certified {verdict} in {key}, yet {a} J then {b} J \
                                     along it ({at})"
                                ));
                            }
                        }
                    }
                }
            }
        }
        fns.push(FnRow {
            func: func.clone(),
            lower_j: lo,
            upper_j: hi,
            monotone: fc
                .monotone
                .iter()
                .map(|(k, m)| format!("{k}:{m}"))
                .collect(),
            samples,
        });
    }
    let report = TargetReport {
        target: t.name.to_string(),
        interface: cert.interface.clone(),
        fingerprint: format!("{:#018x}", cert.fingerprint),
        fns,
        failures,
    };
    (report, verdict_pairs)
}

fn main() {
    let mut reports = Vec::new();
    let mut total_failures = 0usize;
    for t in targets() {
        let (report, verdict_pairs) = run_target(&t);
        let status = if report.failures.is_empty() {
            format!(
                "ok ({} fn(s), {} sample(s), {verdict_pairs} verdict pair(s))",
                report.fns.len(),
                report.fns.iter().map(|f| f.samples).sum::<u64>()
            )
        } else {
            format!("{} failure(s)", report.failures.len())
        };
        println!("cert {:<45} {}", report.target, status);
        for f in &report.failures {
            println!("  {f}");
        }
        total_failures += report.failures.len();
        reports.push(report);
    }

    let out = std::env::var("CERT_REPORT_OUT").unwrap_or_else(|_| "cert_report.json".to_string());
    if !out.is_empty() {
        let json = serde_json::to_string_pretty(&reports).expect("reports serialize");
        std::fs::write(&out, json).expect("write cert report");
        eprintln!("cert report written to {out}");
    }

    if total_failures > 0 {
        eprintln!("cert gate FAILED: {total_failures} failure(s)");
        std::process::exit(1);
    }
    println!(
        "cert gate passed: every bundled interface certifies, every sample is admitted and \
         every verdict holds"
    );
}
