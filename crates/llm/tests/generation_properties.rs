//! Property and scaling tests of GPT-2 generation and its interface.

use ei_core::compose::link;
use ei_core::ecv::EcvEnv;
use ei_core::interp::{evaluate_energy, EvalConfig};
use ei_core::value::Value;
use ei_hw::gpu::{rtx3070, rtx4090, GpuConfig, GpuSim};
use ei_hw::interfaces::gpu_interface;
use ei_llm::{gpt2_interface, gpt2_medium, gpt2_small, BatchConfig, Gpt2Config, Gpt2Engine};
use proptest::prelude::*;

/// `model` on a fresh device, serving one stream over its whole context
/// window.
fn single_stream(model: Gpt2Config, gpu: GpuConfig) -> Gpt2Engine {
    let max_seq = model.max_seq;
    Gpt2Engine::new(BatchConfig::for_batch(model, 1, max_seq), GpuSim::new(gpu))
        .expect("model fits in VRAM")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Generation energy is strictly increasing in generated tokens and
    /// non-decreasing per token (the KV cache only grows).
    #[test]
    fn per_token_energy_is_increasing(prompt in 4u64..48, gen in 3u64..20) {
        let mut engine = single_stream(gpt2_small(), rtx4090());
        let r = engine.generate(prompt, gen);
        for w in r.energy_per_token.windows(2) {
            prop_assert!(w[1] > w[0]);
        }
    }

    /// The interface's prediction is monotone in both prompt and
    /// generation length.
    #[test]
    fn interface_prediction_monotone(prompt in 4u64..64, gen in 2u64..30) {
        let linked =
            link(&gpt2_interface(&gpt2_small()), &[&gpu_interface(&rtx4090())]).unwrap();
        let cfg = EvalConfig {
            fuel: 200_000_000,
            ..EvalConfig::default()
        };
        let eval = |p: u64, g: u64| {
            evaluate_energy(
                &linked,
                "e_generate",
                &[Value::Num(p as f64), Value::Num(g as f64)],
                &EcvEnv::new(),
                0,
                &cfg,
            )
            .unwrap()
        };
        prop_assert!(eval(prompt + 8, gen) > eval(prompt, gen));
        prop_assert!(eval(prompt, gen + 5) > eval(prompt, gen));
    }
}

#[test]
fn medium_model_costs_more_than_small() {
    let small = {
        let mut e = single_stream(gpt2_small(), rtx4090());
        e.generate(16, 10).energy
    };
    let medium = {
        let mut e = single_stream(gpt2_medium(), rtx4090());
        e.generate(16, 10).energy
    };
    // 355M params vs 124M: roughly 3x the weight traffic.
    assert!(medium.as_joules() > 2.0 * small.as_joules());
    assert!(medium.as_joules() < 5.0 * small.as_joules());
}

#[test]
fn interface_scales_to_medium_model() {
    // The interface generator is parametric in the architecture; the
    // medium model's interface must track its own ground truth too.
    let gpu = rtx4090();
    let linked = link(&gpt2_interface(&gpt2_medium()), &[&gpu_interface(&gpu)]).unwrap();
    let cfg = EvalConfig {
        fuel: 400_000_000,
        ..EvalConfig::default()
    };
    let predicted = evaluate_energy(
        &linked,
        "e_generate",
        &[Value::Num(16.0), Value::Num(20.0)],
        &EcvEnv::new(),
        0,
        &cfg,
    )
    .unwrap();
    let mut engine = single_stream(gpt2_medium(), gpu);
    let truth = engine.generate(16, 20).energy;
    let rel = predicted.relative_error(truth);
    assert!(rel < 0.05, "medium-model prediction off by {rel}");
}

#[test]
fn decode_step_cost_grows_faster_on_small_l2() {
    // As the context grows, the 3070's decode steps get relatively more
    // expensive than the 4090's (KV spill + stronger droop).
    let slope = |cfg: GpuConfig| {
        let mut e = single_stream(gpt2_small(), cfg);
        let r = e.generate(64, 120);
        let per: Vec<f64> = r
            .energy_per_token
            .windows(2)
            .map(|w| w[1].as_joules() - w[0].as_joules())
            .collect();
        let early: f64 = per[..10].iter().sum::<f64>() / 10.0;
        let late: f64 = per[per.len() - 10..].iter().sum::<f64>() / 10.0;
        late / early
    };
    let s4090 = slope(rtx4090());
    let s3070 = slope(rtx3070());
    assert!(
        s3070 > s4090,
        "3070 decode cost must grow faster: {s3070} vs {s4090}"
    );
}

#[test]
fn cache_flush_between_requests_costs_energy() {
    // Context switches (cache flushes) show up as extra VRAM traffic in
    // the next run — the kind of cross-module effect §6 worries about.
    let run = |flush: bool| {
        let mut e = single_stream(gpt2_small(), rtx4090());
        e.generate(16, 8);
        if flush {
            e.gpu_mut().flush_caches();
        }
        e.generate(16, 8).energy
    };
    assert!(run(true) > run(false));
}

#[test]
fn worst_case_bound_on_generate_is_sound() {
    // Interval analysis over the declared input space of `e_generate`,
    // on the interface linked against the vendor hardware interface.
    use ei_core::analysis::worst_case::worst_case;
    use ei_core::interface::InputSpec;
    use ei_core::units::Calibration;

    let gpu = rtx4090();
    let linked = link(&gpt2_interface(&gpt2_small()), &[&gpu_interface(&gpu)]).unwrap();
    let spec = InputSpec::new()
        .range("prompt_len", 8.0, 64.0)
        .range("gen_len", 5.0, 60.0);
    let bound = worst_case(&linked, "e_generate", &spec, &Calibration::empty()).unwrap();
    assert!(bound.lower.as_joules() > 0.0);
    assert!(bound.upper > bound.lower);

    let cfg = EvalConfig {
        fuel: 400_000_000,
        ..EvalConfig::default()
    };
    for (p, g) in [(8u64, 5u64), (64, 60), (32, 30), (8, 60), (64, 5)] {
        let e = evaluate_energy(
            &linked,
            "e_generate",
            &[Value::Num(p as f64), Value::Num(g as f64)],
            &EcvEnv::new(),
            0,
            &cfg,
        )
        .unwrap();
        assert!(
            bound.admits(e),
            "({p},{g}) sample {e} escapes [{}, {}]",
            bound.lower,
            bound.upper
        );
    }
}
