//! Table 1 reproduction: relative energy-prediction error for single GPT-2
//! inference (up to 200 generated tokens) on two GPUs.
//!
//! Pipeline, mirroring §5 end to end:
//! 1. Derive each GPU's hardware energy interface from microbenchmarks
//!    measured through an NVML-like meter (`ei-extract`), never reading the
//!    simulator's true coefficients.
//! 2. Link the manually-derived GPT-2 interface (`ei-llm`) against the
//!    fitted hardware interface.
//! 3. For a sweep of (prompt, generation) lengths, run ground-truth
//!    generation on a fresh device, measure it with the NVML meter, and
//!    compare against the interface's prediction.

use ei_core::compose::link;
use ei_core::ecv::EcvEnv;
use ei_core::interface::Interface;
use ei_core::interp::{evaluate_batch, EvalConfig};
use ei_core::units::Energy;

use ei_core::value::Value;
use ei_extract::microbench::fit_gpu_model;
use ei_hw::gpu::{rtx3070, rtx4090, GpuConfig, GpuSim};
use ei_hw::meter::{MeterConfig, PowerMeter};
use ei_llm::{gpt2_interface, gpt2_small, BatchConfig, Gpt2Engine};
use serde::Serialize;

/// One measurement point of the sweep.
#[derive(Debug, Clone, Serialize)]
pub struct Point {
    /// Prompt length.
    pub prompt: u64,
    /// Generated tokens.
    pub gen: u64,
    /// Interface prediction (J).
    pub predicted: f64,
    /// NVML-measured energy (J).
    pub measured: f64,
    /// Relative error |pred - meas| / meas.
    pub rel_error: f64,
}

/// One GPU's row of Table 1.
#[derive(Debug, Clone, Serialize)]
pub struct Table1Row {
    /// GPU name.
    pub gpu: String,
    /// Average relative error over the sweep.
    pub avg_error: f64,
    /// Maximum relative error over the sweep.
    pub max_error: f64,
    /// R² of the microbenchmark fit behind the hardware interface.
    pub fit_r2: f64,
    /// The individual sweep points.
    pub points: Vec<Point>,
}

/// The generation-length sweep of the experiment ("up to 200 tokens").
pub fn sweep() -> Vec<(u64, u64)> {
    vec![(8, 25), (16, 50), (32, 100), (32, 150), (64, 200)]
}

/// Builds the linked (GPT-2 ∘ fitted-hardware) interface for one GPU.
pub fn fitted_gpt2_interface(gpu: &GpuConfig) -> (Interface, f64) {
    let (model, _) = fit_gpu_model(gpu, MeterConfig::nvml()).expect("microbench campaign");
    let hw_iface = model.to_interface(gpu);
    let linked = link(&gpt2_interface(&gpt2_small()), &[&hw_iface]).expect("link GPT-2 over hw");
    (linked, model.r_squared)
}

/// Predicts `e_generate(prompt, gen)` with a linked interface.
pub fn predict(linked: &Interface, prompt: u64, gen: u64) -> Energy {
    predict_batch(linked, &[(prompt, gen)])[0]
}

/// Predicts `e_generate` for a whole sweep in one [`evaluate_batch`] call.
pub fn predict_batch(linked: &Interface, points: &[(u64, u64)]) -> Vec<Energy> {
    let cfg = EvalConfig {
        fuel: 400_000_000,
        ..EvalConfig::default()
    };
    let argsets: Vec<Vec<Value>> = points
        .iter()
        .map(|&(p, g)| vec![Value::Num(p as f64), Value::Num(g as f64)])
        .collect();
    evaluate_batch(linked, "e_generate", &argsets, &EcvEnv::new(), 0, &cfg)
        .expect("interface evaluates")
}

/// Ground truth, measured through the NVML meter on a fresh device.
///
/// Short runs finish inside the meter's update period (a real NVML trap),
/// so the run is repeated until it spans several counter updates and the
/// average is reported — exactly what a real measurement script does.
pub fn measure(gpu: &GpuConfig, prompt: u64, gen: u64) -> Energy {
    let model = gpt2_small();
    let cfg = BatchConfig::for_batch(model.clone(), 1, model.max_seq);
    let mut engine = Gpt2Engine::new(cfg, GpuSim::new(gpu.clone())).expect("model fits");
    let meter = PowerMeter::new(MeterConfig::nvml());
    let min_span = MeterConfig::nvml().update_period.as_seconds() * 5.0;
    let before = meter.read(engine.gpu().energy(), engine.gpu().counters().elapsed);
    let t0 = engine.gpu().counters().elapsed.as_seconds();
    let mut reps = 0u32;
    loop {
        engine.generate(prompt, gen);
        reps += 1;
        if engine.gpu().counters().elapsed.as_seconds() - t0 >= min_span {
            break;
        }
    }
    let after = meter.read(engine.gpu().energy(), engine.gpu().counters().elapsed);
    (after - before) / reps as f64
}

/// Runs the full Table 1 experiment for one GPU.
pub fn run_gpu(gpu: &GpuConfig) -> Table1Row {
    let _sp = ei_telemetry::span(ei_telemetry::SpanKind::Experiment, "table1");
    let (linked, fit_r2) = fitted_gpt2_interface(gpu);
    let predictions = predict_batch(&linked, &sweep());
    let mut points = Vec::new();
    for ((prompt, gen), predicted) in sweep().into_iter().zip(predictions) {
        let predicted = predicted.as_joules();
        let measured = measure(gpu, prompt, gen).as_joules();
        let rel_error = (predicted - measured).abs() / measured;
        points.push(Point {
            prompt,
            gen,
            predicted,
            measured,
            rel_error,
        });
    }
    let avg_error = points.iter().map(|p| p.rel_error).sum::<f64>() / points.len() as f64;
    let max_error = points.iter().map(|p| p.rel_error).fold(0.0, f64::max);
    Table1Row {
        gpu: gpu.name.clone(),
        avg_error,
        max_error,
        fit_r2,
        points,
    }
}

/// Runs the experiment on both GPUs (the full table).
pub fn run() -> Vec<Table1Row> {
    vec![run_gpu(&rtx4090()), run_gpu(&rtx3070())]
}

/// Renders the table in the paper's format, with the paper's numbers for
/// comparison.
pub fn render(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    out.push_str("Table 1: Relative energy prediction error for single GPT-2 inference\n");
    out.push_str("(generating up to 200 tokens)\n\n");
    out.push_str("GPU               Average error   Max error     (paper: avg / max)\n");
    out.push_str("---------------------------------------------------------------------\n");
    let paper = [("rtx4090", "0.70% / 0.93%"), ("rtx3070", "6.06% / 8.11%")];
    for row in rows {
        let paper_ref = paper
            .iter()
            .find(|(n, _)| *n == row.gpu)
            .map(|(_, p)| *p)
            .unwrap_or("-");
        out.push_str(&format!(
            "{:<16}  {:>6.2}%         {:>6.2}%       ({})\n",
            row.gpu,
            row.avg_error * 100.0,
            row.max_error * 100.0,
            paper_ref
        ));
    }
    out.push('\n');
    for row in rows {
        out.push_str(&format!(
            "  {} sweep (fit R² = {:.6}):\n",
            row.gpu, row.fit_r2
        ));
        for p in &row.points {
            out.push_str(&format!(
                "    prompt {:>3}, gen {:>3}: predicted {:>9.4} J, measured {:>9.4} J, err {:>5.2}%\n",
                p.prompt,
                p.gen,
                p.predicted,
                p.measured,
                p.rel_error * 100.0
            ));
        }
    }
    out
}
