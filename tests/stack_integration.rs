//! Integration tests spanning `ei-core`, `ei-hw`, and the Fig. 2 stack:
//! composing vendor hardware interfaces under software layers, swapping
//! machines, and analyzing the composed result.

use energy_clarity::core::analysis::worst_case::worst_case;
use energy_clarity::core::ecv::EcvEnv;
use energy_clarity::core::interface::InputSpec;
use energy_clarity::core::interp::{evaluate_energy, EvalConfig};
use energy_clarity::core::parser::parse;
use energy_clarity::core::pretty::print_interface;
use energy_clarity::core::stack::{Layer, Resource, Stack};
use energy_clarity::core::units::Calibration;
use energy_clarity::core::value::Value;
use energy_clarity::hw::gpu::{rtx3070, rtx4090, GpuConfig};
use energy_clarity::hw::interfaces::gpu_interface;

fn two_layer_stack(gpu: &GpuConfig) -> Stack {
    let app = parse(
        r#"
        interface app {
            extern fn gpu_kernel(flops, logical_bytes, l2_sectors, vram_sectors);
            fn infer(mflops) {
                let flops = mflops * 1000000;
                return gpu_kernel(flops, flops / 8, 1000, 1000);
            }
        }
        "#,
    )
    .unwrap();
    Stack::new()
        .layer(Layer::new("hardware").resource(Resource::new("gpu", gpu_interface(gpu))))
        .layer(Layer::new("application").resource(Resource::new("app", app)))
}

#[test]
fn composed_stack_is_closed_and_evaluates() {
    let composed = two_layer_stack(&rtx4090()).compose().unwrap();
    let app = composed.export("app").unwrap();
    assert!(app.is_closed());
    let e = evaluate_energy(
        app,
        "infer",
        &[Value::Num(500.0)],
        &EcvEnv::new(),
        0,
        &EvalConfig::default(),
    )
    .unwrap();
    assert!(e.as_joules() > 0.0);
}

#[test]
fn machine_swap_changes_only_the_numbers() {
    let a = two_layer_stack(&rtx4090()).compose().unwrap();
    let b = two_layer_stack(&rtx3070()).compose().unwrap();
    let env = EcvEnv::new();
    let cfg = EvalConfig::default();
    let args = [Value::Num(2000.0)];
    let ea = evaluate_energy(a.export("app").unwrap(), "infer", &args, &env, 0, &cfg).unwrap();
    let eb = evaluate_energy(b.export("app").unwrap(), "infer", &args, &env, 0, &cfg).unwrap();
    // Same software; the 3070 burns more energy per instruction.
    assert!(eb > ea);
}

#[test]
fn composed_interface_supports_worst_case_analysis() {
    let composed = two_layer_stack(&rtx4090()).compose().unwrap();
    let app = composed.export("app").unwrap();
    let spec = InputSpec::new().range("mflops", 1.0, 1000.0);
    let bound = worst_case(app, "infer", &spec, &Calibration::empty()).unwrap();
    assert!(bound.lower.as_joules() > 0.0);
    assert!(bound.upper > bound.lower);

    // The bound is sound for concrete points in the range.
    let cfg = EvalConfig::default();
    for m in [1.0, 250.0, 999.0] {
        let e = evaluate_energy(app, "infer", &[Value::Num(m)], &EcvEnv::new(), 0, &cfg).unwrap();
        assert!(bound.admits(e), "{m} MFLOP sample escapes the bound");
    }
}

#[test]
fn composed_interface_pretty_prints_and_reparses() {
    let composed = two_layer_stack(&rtx4090()).compose().unwrap();
    let app = composed.export("app").unwrap();
    let text = print_interface(app);
    // Namespaced provider helpers are still valid identifiers.
    assert!(text.contains("gpu_rtx4090__gpu_idle") || text.contains("gpu_idle"));
    let reparsed = parse(&text).unwrap();
    assert_eq!(app, &reparsed);
}

#[test]
fn machine_ranking_crosses_over_with_kernel_size() {
    // §2: energy behavior is "complex, non-modular, and often
    // non-intuitive". For tiny kernels the 4090's higher static power
    // (over the launch-latency floor) makes it the *more* expensive
    // machine; for real workloads its cheaper per-instruction energy wins.
    // The composed interfaces expose the crossover without running either
    // machine.
    let a = two_layer_stack(&rtx4090()).compose().unwrap();
    let b = two_layer_stack(&rtx3070()).compose().unwrap();
    let cfg = EvalConfig::default();
    let env = EcvEnv::new();
    let eval = |c: &energy_clarity::core::stack::ComposedStack, m: f64| {
        evaluate_energy(
            c.export("app").unwrap(),
            "infer",
            &[Value::Num(m)],
            &env,
            0,
            &cfg,
        )
        .unwrap()
    };
    // Tiny kernel: the small part wins on static power.
    assert!(eval(&b, 10.0) < eval(&a, 10.0));
    // Substantial kernels: the efficient part wins, consistently.
    for m in [100.0, 1000.0, 5000.0] {
        assert!(
            eval(&a, m) < eval(&b, m),
            "ranking flipped back at {m} MFLOPs"
        );
    }
}

#[test]
fn rewriting_manager_injects_its_own_state() {
    // Fig. 2 ①: the resource manager composes interfaces "based on the
    // resources' energy interfaces and the way in which it administers
    // them". This buffer-cache manager wraps every exported function's
    // backing store access with its own hit-rate ECV.
    use energy_clarity::core::compose::{link_closure, Registry};
    use energy_clarity::core::ecv::{DistSpec, EcvDecl};
    use energy_clarity::core::stack::{ManagerPolicy, Resource};
    use energy_clarity::core::Interface;

    struct BufferCacheManager {
        hit_rate: f64,
    }
    impl ManagerPolicy for BufferCacheManager {
        fn name(&self) -> &str {
            "buffer-cache"
        }
        fn compose(
            &self,
            resource: &Resource,
            below: &Registry,
        ) -> energy_clarity::core::Result<Interface> {
            let mut iface = link_closure(&resource.interface, below)?;
            // Inject the manager's state as an ECV and wrap `read`.
            iface.add_ecv(
                "page_cached",
                EcvDecl {
                    dist: DistSpec::Bernoulli { p: self.hit_rate },
                    doc: "page resident in the buffer cache".into(),
                },
            )?;
            let body = parse(
                r#"interface w {
                    ecv page_cached: bernoulli(0.5);
                    extern fn read(bytes);
                    fn cached_read(bytes) {
                        if ecv(page_cached) { return 0.2 uJ * bytes; }
                        return read(bytes);
                    }
                }"#,
            )
            .unwrap();
            iface
                .add_fn(body.fns()["cached_read"].clone())
                .expect("no collision");
            iface.validate()?;
            Ok(iface)
        }
    }

    let disk = parse("interface disk { fn read(bytes) { return 3 uJ * bytes; } }").unwrap();
    let fs = parse(
        r#"interface fs {
            extern fn read(bytes);
            fn stat() { return read(256); }
        }"#,
    )
    .unwrap();
    let stack = Stack::new()
        .layer(Layer::new("hardware").resource(Resource::new("disk", disk)))
        .layer(
            Layer::with_manager("fs", Box::new(BufferCacheManager { hit_rate: 0.9 }))
                .resource(Resource::new("fs", fs)),
        );
    let composed = stack.compose().unwrap();
    let fs = composed.export("fs").unwrap();
    assert!(fs.ecvs.contains_key("page_cached"));

    // Expected cached read: 0.9 * 0.2 uJ/B + 0.1 * 3 uJ/B = 0.48 uJ/B.
    let dist = energy_clarity::core::interp::enumerate_exact(
        fs,
        "cached_read",
        &[Value::Num(1000.0)],
        &fs.ecv_env(),
        16,
        &EvalConfig::default(),
    )
    .unwrap();
    assert!((dist.mean().as_joules() - 0.48e-3).abs() < 1e-9);
}
