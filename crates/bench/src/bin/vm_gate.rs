//! CI engine gate: the Table 1 workload, interpreted vs compiled.
//!
//! Runs the linked GPT-2-over-fitted-hardware interface (the Table 1
//! sweep) through both engines — the tree-walk oracle and the bytecode
//! VM — and:
//!
//! 1. requires *bitwise*-identical outputs from both the batch
//!    (`evaluate_batch`) and Monte-Carlo (`monte_carlo`) drivers;
//! 2. times both engines over the Monte-Carlo sweep and writes
//!    `BENCH_engine.json` (ns/sample and speedup per sweep point, plus
//!    geometric-mean and minimum speedup) for CI to archive;
//!    the tree-walk executes every sample, while the compiled sampler
//!    memoizes ECV assignments per call, and Table 1 declares no ECVs —
//!    so the speedup measures that memo far more than VM dispatch;
//! 3. exits non-zero if any compiled output differs, or if the minimum
//!    speedup falls below `VM_GATE_MIN_SPEEDUP` (when set).
//!
//! Override the artifact path with `BENCH_ENGINE_OUT` (empty to skip).

use std::time::Instant;

use ei_bench::table1::{fitted_gpt2_interface, predict_batch_mode, sweep};
use ei_core::ecv::EcvEnv;
use ei_core::interp::{monte_carlo, EvalConfig, ExecMode};
use ei_core::value::Value;
use ei_hw::gpu::rtx4090;
use serde::Serialize;

/// Monte-Carlo samples per sweep point (per engine). The interpreted
/// run dominates the gate's wall-clock: ~n × ms-scale samples.
const MC_SAMPLES: usize = 128;

/// One sweep point's measurements.
#[derive(Debug, Clone, Serialize)]
struct Row {
    /// Prompt length.
    prompt: u64,
    /// Generated tokens.
    gen: u64,
    /// Tree-walk cost per Monte-Carlo sample (ns).
    interp_ns_per_sample: f64,
    /// Compiled cost per Monte-Carlo sample (ns), including the
    /// amortized compile.
    vm_ns_per_sample: f64,
    /// `interp_ns_per_sample / vm_ns_per_sample`.
    speedup: f64,
}

/// The `BENCH_engine.json` artifact.
#[derive(Debug, Clone, Serialize)]
struct Report {
    /// Workload description.
    workload: String,
    /// Monte-Carlo samples per point per engine.
    mc_samples: u64,
    /// Per-point measurements.
    rows: Vec<Row>,
    /// Geometric mean of per-point speedups.
    geomean_speedup: f64,
    /// Minimum per-point speedup.
    min_speedup: f64,
    /// Whether every compiled output was bitwise-identical to the
    /// interpreted output (the gate fails otherwise).
    outputs_identical: bool,
}

fn table1_config(mode: ExecMode) -> EvalConfig {
    EvalConfig {
        fuel: 400_000_000,
        mode,
        ..EvalConfig::default()
    }
}

fn main() {
    let (linked, _r2) = fitted_gpt2_interface(&rtx4090());
    let env = EcvEnv::new();
    let points = sweep();

    // Gate 1: the batch driver, the exact call Table 1 itself makes.
    let batch_interp = predict_batch_mode(&linked, &points, ExecMode::TreeWalk);
    let batch_vm = predict_batch_mode(&linked, &points, ExecMode::Compiled);
    let mut identical = true;
    for ((p, g), (a, b)) in points.iter().zip(batch_interp.iter().zip(&batch_vm)) {
        if a.as_joules().to_bits() != b.as_joules().to_bits() {
            identical = false;
            eprintln!(
                "MISMATCH evaluate_batch e_generate({p}, {g}): interp {} J, vm {} J",
                a.as_joules(),
                b.as_joules()
            );
        }
    }

    // Gate 2 + timing: `monte_carlo` per sweep point.
    let mut rows = Vec::new();
    for &(prompt, gen) in &points {
        let args = [Value::Num(prompt as f64), Value::Num(gen as f64)];
        let time = |mode: ExecMode| {
            let cfg = table1_config(mode);
            let t = Instant::now();
            let dist = monte_carlo(&linked, "e_generate", &args, &env, MC_SAMPLES, 7, &cfg)
                .expect("Table 1 workload evaluates");
            (t.elapsed().as_nanos() as f64 / MC_SAMPLES as f64, dist)
        };
        let (interp_ns, interp_dist) = time(ExecMode::TreeWalk);
        let (vm_ns, vm_dist) = time(ExecMode::Compiled);
        // `EnergyDist` equality is exact f64 sample equality — for
        // finite Joule values that is bit equality.
        if interp_dist != vm_dist {
            identical = false;
            eprintln!("MISMATCH monte_carlo e_generate({prompt}, {gen}): sample vectors differ");
        }

        let speedup = interp_ns / vm_ns;
        println!(
            "e_generate({prompt:>3}, {gen:>3}): interp {:>12.0} ns/sample, vm {:>9.0} ns/sample, speedup {speedup:>7.2}x",
            interp_ns, vm_ns
        );
        rows.push(Row {
            prompt,
            gen,
            interp_ns_per_sample: interp_ns,
            vm_ns_per_sample: vm_ns,
            speedup,
        });
    }

    let geomean_speedup =
        (rows.iter().map(|r| r.speedup.ln()).sum::<f64>() / rows.len() as f64).exp();
    let min_speedup = rows.iter().map(|r| r.speedup).fold(f64::INFINITY, f64::min);
    let report = Report {
        workload: "table1: linked GPT-2 e_generate over fitted rtx4090".to_string(),
        mc_samples: MC_SAMPLES as u64,
        rows,
        geomean_speedup,
        min_speedup,
        outputs_identical: identical,
    };
    println!(
        "speedup: geomean {geomean_speedup:.2}x, min {min_speedup:.2}x; outputs identical: {identical}"
    );

    let out = std::env::var("BENCH_ENGINE_OUT").unwrap_or_else(|_| "BENCH_engine.json".to_string());
    if !out.is_empty() {
        let json = serde_json::to_string_pretty(&report).expect("report serializes");
        std::fs::write(&out, json).expect("write engine report");
        eprintln!("engine report written to {out}");
    }

    if !identical {
        eprintln!("vm gate FAILED: compiled outputs differ from interpreted outputs");
        std::process::exit(1);
    }
    if let Ok(floor) = std::env::var("VM_GATE_MIN_SPEEDUP") {
        let floor: f64 = floor.parse().expect("VM_GATE_MIN_SPEEDUP parses as f64");
        if min_speedup < floor {
            eprintln!("vm gate FAILED: min speedup {min_speedup:.2}x below the {floor}x floor");
            std::process::exit(1);
        }
    }
    println!("vm gate passed");
}
