//! Measures the cost of telemetry collection on the Table 1 prediction
//! sweep, the workspace's hottest instrumented path.
//!
//! The telemetry layer promises < 5 % overhead when enabled (and zero
//! when compiled out). This bench times the same sweep with the sink
//! disabled (every record call is one relaxed atomic load) and inside a
//! collecting session, interleaving paired samples so clock drift hits
//! both modes equally, and reports `min(enabled) / min(disabled)`.
//! With `TELEMETRY_OVERHEAD_GATE=1` (the CI setting) it exits non-zero
//! when the ratio exceeds 1.05.

use std::hint::black_box;
use std::time::Instant;

use ei_bench::table1::{fitted_gpt2_interface, predict};
use ei_core::interface::Interface;
use ei_hw::gpu::rtx4090;
use ei_telemetry as telemetry;

/// One Table 1 prediction sweep over the paper's batch/length grid.
fn sweep_once(linked: &Interface) {
    for &(prompt, gen) in &ei_bench::table1::sweep() {
        black_box(predict(linked, prompt, gen));
    }
}

/// Times `reps` sweeps, returning nanoseconds per sweep.
fn time_sweeps(linked: &Interface, reps: u32) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        sweep_once(linked);
    }
    t0.elapsed().as_nanos() as f64 / reps as f64
}

fn fmt_ms(ns: f64) -> String {
    format!("{:.3} ms", ns / 1e6)
}

fn main() {
    let (linked, _) = fitted_gpt2_interface(&rtx4090());

    // Warm up (page in code, settle the allocator) and calibrate the
    // batch size to roughly 20 ms per sample.
    let per_sweep = {
        let _s = telemetry::disabled_session();
        time_sweeps(&linked, 3)
    };
    let reps = ((20e6 / per_sweep) as u32).clamp(1, 10_000);

    const SAMPLES: usize = 20;
    let mut disabled = f64::INFINITY;
    let mut enabled = f64::INFINITY;
    for _ in 0..SAMPLES {
        {
            let _s = telemetry::disabled_session();
            disabled = disabled.min(time_sweeps(&linked, reps));
        }
        {
            let s = telemetry::session();
            enabled = enabled.min(time_sweeps(&linked, reps));
            drop(s);
        }
    }

    let ratio = enabled / disabled;
    println!(
        "telemetry_overhead/table1_sweep_disabled      time: [{}]",
        fmt_ms(disabled)
    );
    println!(
        "telemetry_overhead/table1_sweep_enabled       time: [{}]",
        fmt_ms(enabled)
    );
    println!("telemetry_overhead_ratio {ratio:.4}");

    if std::env::var("TELEMETRY_OVERHEAD_GATE").is_ok_and(|v| !v.is_empty() && v != "0") {
        if cfg!(not(feature = "telemetry")) {
            // Without the collect feature there is nothing to gate.
            println!("telemetry feature disabled; overhead gate skipped");
            return;
        }
        assert!(
            ratio <= 1.05,
            "telemetry overhead regression: enabled/disabled = {ratio:.4} > 1.05"
        );
        println!("overhead gate passed (ratio {ratio:.4} <= 1.05)");
    }
}
