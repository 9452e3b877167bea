//! Integration tests of the §4 toolchain across crates: microbenchmark
//! fitting feeding the GPT-2 prediction (the Table 1 pipeline at a reduced
//! size), trace-based derivation feeding compatibility checking, and
//! energy-bug detection over the web service.

use energy_clarity::core::analysis::compat::{check_compat, Compatibility};
use energy_clarity::core::compose::link;
use energy_clarity::core::ecv::EcvEnv;
use energy_clarity::core::interface::InputSpec;
use energy_clarity::core::interp::{evaluate_energy, EvalConfig};
use energy_clarity::core::parser::parse;
use energy_clarity::core::units::Calibration;
use energy_clarity::core::value::Value;
use energy_clarity::extract::microbench::fit_gpu_model;
use energy_clarity::extract::trace::{derive_interface, Tracer};
use energy_clarity::hw::gpu::{rtx3070, rtx4090, GpuSim};
use energy_clarity::hw::meter::MeterConfig;
use energy_clarity::llm::{gpt2_interface, gpt2_small, BatchConfig, Gpt2Engine};

/// GPT-2 small serving one stream over its whole context window.
fn single_stream() -> BatchConfig {
    let model = gpt2_small();
    let max_seq = model.max_seq;
    BatchConfig::for_batch(model, 1, max_seq)
}

/// The Table 1 pipeline at reduced size: fit → link → predict → compare.
#[test]
fn fitted_interface_predicts_generation_within_ten_percent() {
    for gpu in [rtx4090(), rtx3070()] {
        let (model, _) = fit_gpu_model(&gpu, MeterConfig::nvml()).unwrap();
        let linked = link(&gpt2_interface(&gpt2_small()), &[&model.to_interface(&gpu)]).unwrap();
        let cfg = EvalConfig {
            fuel: 200_000_000,
            ..EvalConfig::default()
        };
        let predicted = evaluate_energy(
            &linked,
            "e_generate",
            &[Value::Num(16.0), Value::Num(40.0)],
            &EcvEnv::new(),
            0,
            &cfg,
        )
        .unwrap();
        let mut engine = Gpt2Engine::new(single_stream(), GpuSim::new(gpu.clone())).unwrap();
        let truth = engine.generate(16, 40).energy;
        let rel = predicted.relative_error(truth);
        assert!(rel < 0.10, "{}: error {rel}", gpu.name);
    }
}

/// 4090 must be predicted more accurately than 3070 (Table 1's shape).
#[test]
fn prediction_error_ordering_matches_table1() {
    let err = |gpu: energy_clarity::hw::gpu::GpuConfig| {
        let (model, _) = fit_gpu_model(&gpu, MeterConfig::nvml()).unwrap();
        let linked = link(&gpt2_interface(&gpt2_small()), &[&model.to_interface(&gpu)]).unwrap();
        let cfg = EvalConfig {
            fuel: 400_000_000,
            ..EvalConfig::default()
        };
        let predicted = evaluate_energy(
            &linked,
            "e_generate",
            &[Value::Num(32.0), Value::Num(120.0)],
            &EcvEnv::new(),
            0,
            &cfg,
        )
        .unwrap();
        let mut engine = Gpt2Engine::new(single_stream(), GpuSim::new(gpu)).unwrap();
        let truth = engine.generate(32, 120).energy;
        predicted.relative_error(truth)
    };
    let e4090 = err(rtx4090());
    let e3070 = err(rtx3070());
    assert!(
        e3070 > 2.0 * e4090,
        "expected a clear gap: 4090 {e4090}, 3070 {e3070}"
    );
}

/// Derive an interface from a traced implementation, then verify it is
/// compatible with the spec envelope the developer wrote up front (§4.1's
/// two workflows meeting in the middle).
#[test]
fn derived_interface_checks_against_spec_envelope() {
    // The spec the developer wrote before implementing: at most
    // 2 mJ + 0.5 mJ per item.
    let spec = parse(
        r#"interface spec {
            fn e_run(items) { return 2 mJ + 0.5 mJ * items; }
        }"#,
    )
    .unwrap();

    // The implementation as built: one 64-byte cache get per item plus a
    // constant setup call.
    let implementation = |t: &mut Tracer, x: &[f64]| {
        t.call("setup", &[]);
        for _ in 0..x[0] as u64 {
            t.call("cache_get", &[64.0]);
        }
    };
    let inputs: Vec<Vec<f64>> = (1..=10).map(|n| vec![n as f64]).collect();
    let report = derive_interface("batch", &["items"], &inputs, implementation).unwrap();
    assert!(report.worst_r_squared() > 0.9999);

    // Link the derived interface against the resource costs.
    let resources = parse(
        r#"interface res {
            fn setup() { return 1 mJ; }
            fn cache_get(bytes) { return 0.004 mJ * bytes; }
        }"#,
    )
    .unwrap();
    let candidate = link(&report.interface, &[&resources]).unwrap();

    // Compatible: 1 mJ + 0.256 mJ/item <= 2 mJ + 0.5 mJ/item.
    let ok = check_compat(
        &spec,
        &candidate,
        "e_run",
        &InputSpec::new().range("items", 0.0, 100.0),
        &Calibration::empty(),
    )
    .unwrap();
    assert!(ok.is_compatible(), "{ok:?}");

    // Now a regressed implementation: two gets per item. It must violate.
    let regressed = |t: &mut Tracer, x: &[f64]| {
        t.call("setup", &[]);
        for _ in 0..x[0] as u64 {
            t.call("cache_get", &[64.0]);
            t.call("cache_get", &[64.0]);
        }
    };
    let report2 = derive_interface("batch2", &["items"], &inputs, regressed).unwrap();
    let candidate2 = link(&report2.interface, &[&resources]).unwrap();
    let bad = check_compat(
        &spec,
        &candidate2,
        "e_run",
        &InputSpec::new().range("items", 0.0, 100.0),
        &Calibration::empty(),
    )
    .unwrap();
    // 1 mJ + 0.512 mJ/item exceeds 2 mJ + 0.5 mJ/item past 83.3 items.
    match bad {
        Compatibility::Incompatible { input, .. } => assert!(input[0] > 83.3, "{input:?}"),
        other => panic!("regression must be caught with a counterexample, got {other:?}"),
    }
}

/// The microbenchmark fit must never read the device's secret constants:
/// fitted coefficients are close to — but not bitwise equal to — the truth.
#[test]
fn fit_is_honest_not_oracle() {
    let gpu = rtx4090();
    let (model, _) = fit_gpu_model(&gpu, MeterConfig::nvml()).unwrap();
    let err = model.max_relative_error(&gpu);
    assert!(err > 1e-9, "a perfect fit would mean the campaign cheated");
    assert!(err < 0.3, "but it must still be close: {err}");
}
