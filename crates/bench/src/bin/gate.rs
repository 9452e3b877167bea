//! CI gate over [`ei_bench::catalogue()`], which lists every shipped
//! interface once with the calibration it is deployed with.
//!
//! 1. **Lint.** `eil-sema` checks each entry's program. Any diagnostic,
//!    warning or error, fails the gate: shipped interfaces are the paper's
//!    exhibits and must be clean at `--deny warnings` severity.
//! 2. **Certify.** Each entry's program is linked top-first. When the
//!    result has no unresolved extern and declares an input domain,
//!    `eic certify`'s engine certifies it, and the gate asserts two things:
//!    - every function with a declared domain gets finite, ordered
//!      `[lower, upper]` Joule bounds;
//!    - the certificates are *sound in practice*: a deterministic grid of
//!      concrete executions sampled from each declared domain (corners,
//!      midpoints, per-axis extremes, three ECV seeds each) always lands
//!      inside the certified bound, and every `constant`, `non_decreasing`
//!      or `non_increasing` verdict holds on each ordered pair of those
//!      executions that differs only along the verdict's axis (for an ECV
//!      verdict, the seed's draw with that ECV pinned at both ends and the
//!      midpoint of its range).
//!
//!    Every other entry is listed with the reason it is not certified.
//!
//! Writes `lint_report.json` and `cert_report.json` to the working
//! directory. CI diffs the certification report against
//! `tests/golden/cert/cert_report.json` and archives both.

use std::collections::BTreeMap;

use ei_bench::{catalogue, Entry};
use ei_core::analysis::cert::{args_at, axes_for, certify, probe_grid, Certificate, Monotonicity};
use ei_core::analysis::interval::{ecv_abs_value, AbsValue};
use ei_core::compose::link;
use ei_core::ecv::{EcvEnv, EcvValue};
use ei_core::interface::Interface;
use ei_core::interp::{evaluate_energy, EvalConfig};
use ei_core::sema::{self, LintOptions};
use ei_core::units::Calibration;
use ei_core::vm;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

/// ECV seeds for the concrete spot-check executions.
const SEEDS: [u64; 3] = [0, 1, 2];

/// One row of `lint_report.json`.
#[derive(Debug, Clone, Serialize)]
struct LintRow {
    /// Catalogue entry name.
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

/// One certified function in `cert_report.json`.
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

/// One row of `cert_report.json`.
#[derive(Debug, Clone, Serialize)]
struct CertRow {
    /// Catalogue entry name.
    target: String,
    /// Certified interface name.
    interface: String,
    /// Interface fingerprint, `0x` hex.
    fingerprint: String,
    /// Per-function certificates.
    fns: Vec<FnRow>,
    /// Failures (empty when the entry passes).
    failures: Vec<String>,
}

fn write_report<T: Serialize>(path: &str, rows: &[T]) {
    let json = serde_json::to_string_pretty(rows).expect("reports serialize");
    std::fs::write(path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    eprintln!("report written to {path}");
}

/// Lints every entry; returns the number of diagnostics.
fn lint(catalogue: &[Entry]) -> usize {
    let mut rows = Vec::new();
    let mut total = 0usize;
    for e in catalogue {
        let diags = sema::check_program(
            &e.program,
            &LintOptions::with_calibration(e.calibration.clone()),
        );
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
        println!("lint {:<45} {}", e.name, status);
        for d in diags.iter() {
            println!("  {}", d.text_line());
        }
        rows.push(LintRow {
            target: e.name.to_string(),
            interfaces: e.program.iter().map(|i| i.name.clone()).collect(),
            errors: diags.error_count() as u64,
            warnings: diags.warning_count() as u64,
            diagnostics: diags.iter().map(|d| d.text_line()).collect(),
        });
    }
    write_report("lint_report.json", &rows);
    total
}

/// The entry's program linked top-first, or why it is not certified.
fn certifiable(e: &Entry) -> Result<Interface, String> {
    let providers: Vec<&Interface> = e.program[1..].iter().collect();
    let linked = link(&e.program[0], &providers).unwrap_or_else(|err| panic!("{}: {err}", e.name));
    if !linked.externs.is_empty() {
        let names: Vec<&str> = linked.externs.keys().map(String::as_str).collect();
        return Err(format!("unresolved extern {}", names.join(", ")));
    }
    if linked.input_specs.is_empty() {
        return Err("declares no input domain".into());
    }
    Ok(linked)
}

/// Certifies one closed interface and spot-checks the certificate against
/// concrete executions. Returns the report row, with failures recorded on
/// it, and the number of execution pairs its verdicts were checked on.
fn certify_entry(name: &str, iface: &Interface, cal: &Calibration) -> (CertRow, u64) {
    let mut failures = Vec::new();
    let cert: Certificate = match certify(iface, cal) {
        Ok(c) => c,
        Err(e) => {
            let row = CertRow {
                target: name.to_string(),
                interface: iface.name.clone(),
                fingerprint: String::new(),
                fns: Vec::new(),
                failures: vec![format!("certification failed: {e}")],
            };
            return (row, 0);
        }
    };
    if cert.fns.is_empty() {
        failures.push("certificate is empty: no function has a declared domain".into());
    }
    // Runs the pinned-ECV executions of the verdict checks.
    let program = vm::compile(iface).expect("shipped interfaces compile");
    let cfg = EvalConfig {
        fuel: 500_000_000,
        calibration: cal.clone(),
        ..EvalConfig::default()
    };
    let env = EcvEnv::from_decls(&iface.ecvs);
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
        let spec = iface.input_specs.get(func).cloned().unwrap_or_default();
        if let Some(axes) = axes_for(iface, func, &spec) {
            let params = &iface.fns()[func.as_str()].params;
            let grid = probe_grid(&axes);
            // Joules per grid point and seed, `None` where evaluation failed.
            let mut measured = Vec::with_capacity(grid.len());
            for point in &grid {
                let args = args_at(&axes, params.len(), point);
                let mut row = [None; SEEDS.len()];
                for (slot, seed) in row.iter_mut().zip(SEEDS) {
                    match evaluate_energy(iface, func, &args, &env, seed, &cfg) {
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
                    let AbsValue::Num(r) = ecv_abs_value(&iface.ecvs[name].dist) else {
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
    let row = CertRow {
        target: name.to_string(),
        interface: cert.interface.clone(),
        fingerprint: format!("{:#018x}", cert.fingerprint),
        fns,
        failures,
    };
    (row, verdict_pairs)
}

/// Certifies every certifiable entry. Returns the number of failures and
/// one line per entry left uncertified, naming it and the reason.
fn certify_all(catalogue: &[Entry]) -> (usize, Vec<String>) {
    let mut rows = Vec::new();
    let mut failures = 0usize;
    let mut uncertified = Vec::new();
    for e in catalogue {
        let iface = match certifiable(e) {
            Ok(iface) => iface,
            Err(reason) => {
                println!("cert {:<45} not certified: {reason}", e.name);
                uncertified.push(format!("{} ({}): {reason}", e.name, e.program[0].name));
                continue;
            }
        };
        let (row, verdict_pairs) = certify_entry(e.name, &iface, &e.calibration);
        let status = if row.failures.is_empty() {
            format!(
                "ok ({} fn(s), {} sample(s), {verdict_pairs} verdict pair(s))",
                row.fns.len(),
                row.fns.iter().map(|f| f.samples).sum::<u64>()
            )
        } else {
            format!("{} failure(s)", row.failures.len())
        };
        println!("cert {:<45} {}", row.target, status);
        for f in &row.failures {
            println!("  {f}");
        }
        failures += row.failures.len();
        rows.push(row);
    }
    write_report("cert_report.json", &rows);
    (failures, uncertified)
}

fn main() {
    let catalogue = catalogue();
    let diagnostics = lint(&catalogue);
    let (failures, uncertified) = certify_all(&catalogue);
    if diagnostics + failures > 0 {
        eprintln!(
            "gate FAILED: {diagnostics} lint diagnostic(s), {failures} certification failure(s)"
        );
        std::process::exit(1);
    }
    println!(
        "gate passed: all {} entries are lint-clean at --deny warnings; {} certify, every \
         sample is admitted and every verdict holds; {} are not certified:",
        catalogue.len(),
        catalogue.len() - uncertified.len(),
        uncertified.len()
    );
    for line in &uncertified {
        println!("  {line}");
    }
}
