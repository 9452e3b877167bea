//! The §5 experiment in miniature: derive a GPU's energy interface from
//! microbenchmarks, compose GPT-2's interface on top, and compare its
//! prediction against a measured generation run.
//!
//! ```sh
//! cargo run --release --example llm_inference
//! ```

use energy_clarity::core::compose::link;
use energy_clarity::core::ecv::EcvEnv;
use energy_clarity::core::interp::{evaluate_energy, EvalConfig};
use energy_clarity::core::value::Value;
use energy_clarity::extract::microbench::fit_gpu_model;
use energy_clarity::hw::gpu::{rtx3070, rtx4090, GpuSim};
use energy_clarity::hw::meter::{MeterConfig, PowerMeter};
use energy_clarity::llm::{gpt2_interface, gpt2_small, BatchConfig, Gpt2Engine};

fn main() {
    for gpu in [rtx4090(), rtx3070()] {
        println!("=== {} ===", gpu.name);

        // 1. Microbenchmark campaign through the NVML-like meter.
        let (model, obs) = fit_gpu_model(&gpu, MeterConfig::nvml()).unwrap();
        println!(
            "  fitted hardware interface from {} microbenchmarks (R² = {:.6})",
            obs.len(),
            model.r_squared
        );

        // 2. Compose: GPT-2's interface over the fitted hardware interface.
        let linked =
            link(&gpt2_interface(&gpt2_small()), &[&model.to_interface(&gpu)]).expect("links");

        // 3. Predict a generation run...
        let (prompt, gen) = (32u64, 100u64);
        let cfg = EvalConfig {
            fuel: 400_000_000,
            ..EvalConfig::default()
        };
        let predicted = evaluate_energy(
            &linked,
            "e_generate",
            &[Value::Num(prompt as f64), Value::Num(gen as f64)],
            &EcvEnv::new(),
            0,
            &cfg,
        )
        .unwrap();

        // 4. ...and measure the real thing with the same coarse meter.
        let model = gpt2_small();
        let single = BatchConfig::for_batch(model.clone(), 1, model.max_seq);
        let mut engine = Gpt2Engine::new(single, GpuSim::new(gpu)).unwrap();
        let meter = PowerMeter::new(MeterConfig::nvml());
        let before = meter.read(engine.gpu().energy(), engine.gpu().counters().elapsed);
        let report = engine.generate(prompt, gen);
        let after = meter.read(engine.gpu().energy(), engine.gpu().counters().elapsed);
        let measured = after - before;

        println!("  prompt {prompt}, generate {gen} tokens:");
        println!("    predicted  {predicted}");
        println!("    measured   {measured}");
        println!(
            "    error      {:.2}%   ({} kernel launches, {:.1} ms busy)",
            predicted.relative_error(measured) * 100.0,
            report.counters.launches,
            report.duration.as_seconds() * 1e3,
        );
    }
}
