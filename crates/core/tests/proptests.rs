//! Property-based tests for the EIL core: printer/parser round-trips,
//! distribution invariants, interval-analysis and certificate soundness,
//! and linker behaviour under randomly generated interfaces.

use std::collections::BTreeMap;

use proptest::prelude::*;

use ei_core::analysis::cert::{axes_for, certify_fn, probe_grid, Monotonicity};
use ei_core::analysis::compat::{check_compat, Compatibility};
use ei_core::analysis::constant_energy::{check_constant_energy, ConstantEnergy};
use ei_core::analysis::interval::{abstract_eval, ecv_abs_value, AbsBool, AbsValue, Interval};
use ei_core::analysis::paths::enumerate_paths;
use ei_core::ast::{Expr, FnDef, Stmt};
use ei_core::dist::EnergyDist;
use ei_core::ecv::{DistSpec, EcvDecl, EcvEnv, EcvValue};
use ei_core::interface::{InputSpec, Interface};
use ei_core::interp::{eval_with_assignment, evaluate, evaluate_energy, EvalConfig};
use ei_core::parser::{parse, parse_expr};
use ei_core::pretty::{fmt_eil_num, print_interface};
use ei_core::units::{Calibration, Energy, EnergyVec};
use ei_core::value::Value;

// Generators are shared with the workspace-level VM differential suite.
#[path = "common/generators.rs"]
mod generators;
use generators::*;

// ---------------------------------------------------------------------------
// Printer / parser round-trip
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn print_parse_roundtrip_numeric(iface in arb_numeric_interface()) {
        let printed = print_interface(&iface);
        let reparsed = parse(&printed).expect("printed interface must re-parse");
        prop_assert_eq!(&iface, &reparsed, "printed:\n{}", printed);
    }

    #[test]
    fn print_parse_roundtrip_with_ecvs(
        names in proptest::collection::btree_set(arb_ident(), 1..4),
        dists in proptest::collection::vec(arb_dist_spec(), 4),
        doc in "[ -~]{0,30}",
    ) {
        let mut iface = Interface::new("gen");
        iface.doc = doc;
        for (name, dist) in names.iter().zip(dists) {
            iface.add_ecv(name.clone(), EcvDecl { dist, doc: String::new() }).unwrap();
        }
        iface.add_fn(FnDef::new("f", vec![], vec![Stmt::Return(Expr::Joules(1.0))]))
            .unwrap();
        let printed = print_interface(&iface);
        let reparsed = parse(&printed).expect("must re-parse");
        prop_assert_eq!(iface, reparsed, "printed:\n{}", printed);
    }

    #[test]
    fn print_parse_roundtrip_rich(iface in arb_rich_interface()) {
        let printed = print_interface(&iface);
        let reparsed = parse(&printed).expect("rich interface must re-parse");
        prop_assert_eq!(&iface, &reparsed, "printed:\n{}", printed);
    }

    #[test]
    fn fmt_eil_num_roundtrips_arbitrary_floats(bits: u64) {
        let v = f64::from_bits(bits);
        prop_assume!(v.is_finite());
        let e = parse_expr(&fmt_eil_num(v)).expect("EIL numeral must parse");
        let got = match e {
            Expr::Num(x) => x,
            other => panic!("parsed to non-literal {other:?}"),
        };
        prop_assert_eq!(got.to_bits(), v.to_bits(), "{} reparsed as {}", v, got);
    }

    // -----------------------------------------------------------------------
    // Interpreter / analysis coherence
    // -----------------------------------------------------------------------

    #[test]
    fn interval_analysis_is_sound(iface in arb_numeric_interface(), x in 0.0f64..100.0) {
        let cfg = EvalConfig::default();
        let env = EcvEnv::new();
        let concrete = evaluate_energy(&iface, "f", &[Value::Num(x)], &env, 0, &cfg);
        let abs = abstract_eval(
            &iface,
            "f",
            &[AbsValue::Num(Interval::new(0.0, 100.0))],
        );
        if let (Ok(c), Ok(a)) = (concrete, abs) {
            let e = a.as_energy().unwrap();
            let lo = e.lower_bound(&Calibration::empty()).unwrap();
            let hi = e.upper_bound(&Calibration::empty()).unwrap();
            let slack = 1e-9 * (1.0 + hi.as_joules().abs());
            prop_assert!(
                c.as_joules() >= lo.as_joules() - slack
                    && c.as_joules() <= hi.as_joules() + slack,
                "concrete {} outside [{}, {}]",
                c.as_joules(), lo.as_joules(), hi.as_joules()
            );
        }
    }

    #[test]
    fn evaluation_is_deterministic(iface in arb_numeric_interface(), x in 0.0f64..50.0, seed: u64) {
        let cfg = EvalConfig::default();
        let env = EcvEnv::new();
        let a = evaluate(&iface, "f", &[Value::Num(x)], &env, seed, &cfg);
        let b = evaluate(&iface, "f", &[Value::Num(x)], &env, seed, &cfg);
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    // -----------------------------------------------------------------------
    // Distribution invariants
    // -----------------------------------------------------------------------

    #[test]
    fn dist_stats_invariants(samples in proptest::collection::vec(0.0f64..1e6, 1..200)) {
        let d = EnergyDist::empirical(samples.iter().map(|j| Energy::joules(*j)).collect());
        let mean = d.mean().as_joules();
        prop_assert!(mean >= d.min().as_joules() - 1e-9);
        prop_assert!(mean <= d.max().as_joules() + 1e-9);
        prop_assert!(d.variance() >= -1e-9);
        let q05 = d.quantile(0.05);
        let q95 = d.quantile(0.95);
        prop_assert!(q05 <= q95);
        prop_assert!(d.quantile(0.0) == d.min());
    }

    #[test]
    fn mixture_mean_matches_weighted_sum(
        outcomes in proptest::collection::vec((0.0f64..100.0, 1u32..10), 1..8)
    ) {
        let total: u32 = outcomes.iter().map(|(_, w)| w).sum();
        let pairs: Vec<(Energy, f64)> = outcomes
            .iter()
            .map(|(e, w)| (Energy::joules(*e), *w as f64 / total as f64))
            .collect();
        let expect: f64 = pairs.iter().map(|(e, p)| e.as_joules() * p).sum();
        let d = EnergyDist::mixture(pairs);
        prop_assert!((d.mean().as_joules() - expect).abs() < 1e-9);
    }

    #[test]
    fn convolution_mean_is_additive(
        a in proptest::collection::vec((0.0f64..10.0, 1u32..4), 1..4),
        b in proptest::collection::vec((0.0f64..10.0, 1u32..4), 1..4),
    ) {
        let norm = |raw: &[(f64, u32)]| {
            let total: u32 = raw.iter().map(|(_, w)| w).sum();
            EnergyDist::mixture(
                raw.iter()
                    .map(|(e, w)| (Energy::joules(*e), *w as f64 / total as f64)),
            )
        };
        let da = norm(&a);
        let db = norm(&b);
        let c = da.convolve(&db);
        prop_assert!(
            (c.mean().as_joules() - (da.mean().as_joules() + db.mean().as_joules())).abs()
                < 1e-9
        );
    }

    // -----------------------------------------------------------------------
    // Unit algebra invariants
    // -----------------------------------------------------------------------

    #[test]
    fn energy_vec_algebra(j1 in -1e6f64..1e6, j2 in -1e6f64..1e6, k in -100.0f64..100.0) {
        let a = EnergyVec::from_joules(j1);
        let b = EnergyVec::from_joules(j2);
        let sum = a.plus(&b);
        prop_assert!((sum.joules - (j1 + j2)).abs() < 1e-6);
        let scaled = a.scaled(k);
        prop_assert!((scaled.joules - j1 * k).abs() < 1e-4);
        let diff = sum.minus(&b);
        prop_assert!((diff.joules - j1).abs() < 1e-6);
    }

    #[test]
    fn ecv_samples_in_support(dist in arb_dist_spec(), seed: u64) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let v = dist.sample(&mut rng).as_num();
        match &dist {
            DistSpec::Bernoulli { .. } => prop_assert!(v == 0.0 || v == 1.0),
            DistSpec::Uniform { lo, hi } => prop_assert!(v >= *lo && v <= *hi),
            DistSpec::Point { value } => prop_assert!((v - value).abs() < 1e-12),
            DistSpec::Discrete { outcomes } => {
                prop_assert!(outcomes.iter().any(|(o, _)| (o - v).abs() < 1e-12));
            }
            DistSpec::Normal { .. } => prop_assert!(v.is_finite()),
        }
    }

    /// `EcvSampler::draw` is `sample_assignment` without the map: for
    /// every distribution kind, pinned or not, it yields the same values in
    /// name order and leaves the RNG in the same state. Its assignment
    /// index is a faithful memo key over a finite space: two draws share
    /// an index exactly when they share every value.
    #[test]
    fn slot_sampler_matches_sample_assignment(
        x in arb_lit(),
        extra in proptest::collection::vec(arb_dist_spec(), 0..5),
        pins in proptest::collection::vec(0u32..3, 10),
        offset in 0usize..10,
        seed: u64,
    ) {
        use rand::{Rng, SeedableRng};
        let mut dists = vec![
            DistSpec::Bernoulli { p: (x / 1000.0).min(1.0) },
            DistSpec::Discrete { outcomes: vec![(x, 0.25), (x + 1.0, 0.75)] },
            // Sums just under 1: the slack falls back to the last outcome.
            DistSpec::Discrete { outcomes: vec![(x + 2.0, 0.5), (x + 3.0, 0.5 - 1e-9)] },
            DistSpec::Uniform { lo: x, hi: x + 1.0 },
            DistSpec::Normal { mean: x, std_dev: 1.0 },
            DistSpec::Point { value: x },
        ];
        dists.extend(extra);
        let mut env = EcvEnv::new();
        // The same slots minus every unpinned continuous one, whose space
        // is finite.
        let mut finite = EcvEnv::new();
        for (i, dist) in dists.into_iter().enumerate() {
            // Distinct names whose order differs from declaration order.
            let name = format!("v{}", (i * 7 + offset) % 10);
            let continuous = dist.support().is_none();
            env.declare(name.clone(), EcvDecl { dist: dist.clone(), doc: String::new() });
            let pin = match pins[i] {
                1 => Some(EcvValue::Bool(i % 2 == 0)),
                2 => Some(EcvValue::Num(x + i as f64)),
                _ => None,
            };
            if let Some(v) = pin {
                env.pin(name.clone(), v);
                finite.declare(name.clone(), EcvDecl { dist, doc: String::new() });
                finite.pin(name, v);
            } else if !continuous {
                finite.declare(name, EcvDecl { dist, doc: String::new() });
            }
        }

        let sampler = env.sampler();
        prop_assert_eq!(sampler.len(), env.names().count());
        let has_continuous = env
            .names()
            .any(|n| env.pinned(n).is_none() && env.decl(n).unwrap().dist.support().is_none());
        prop_assert_eq!(sampler.space().is_none(), has_continuous);
        let mut by_map = rand::rngs::StdRng::seed_from_u64(seed);
        let mut by_slots = by_map.clone();
        // Stale contents must not survive a draw.
        let mut values = vec![EcvValue::Num(-1.0); sampler.len()];
        for _ in 0..3 {
            let assignment = env.sample_assignment(&mut by_map);
            let index = sampler.draw(&mut by_slots, &mut values);
            prop_assert_eq!(assignment.values().copied().collect::<Vec<_>>(), values.clone());
            if has_continuous {
                prop_assert_eq!(index, 0);
            }
        }
        prop_assert_eq!(by_map.random::<u64>(), by_slots.random::<u64>());

        // Extras may repeat a Discrete value, so the index can only be
        // checked for being a function of the values there; the fixed
        // slots have distinct values, so there it must also separate them.
        let distinct_values = finite.names().all(|n| match &finite.decl(n).unwrap().dist {
            DistSpec::Discrete { outcomes } => (1..outcomes.len())
                .all(|i| outcomes[..i].iter().all(|(v, _)| *v != outcomes[i].0)),
            _ => true,
        });
        let sampler = finite.sampler();
        let space = sampler.space().expect("every slot is finite");
        let mut values = vec![EcvValue::Num(-1.0); sampler.len()];
        let mut seen: Vec<(usize, Vec<EcvValue>)> = Vec::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..64 {
            let index = sampler.draw(&mut rng, &mut values);
            prop_assert!(index < space);
            for (j, vs) in &seen {
                prop_assert!(*j != index || *vs == values, "index {} for two assignments", index);
                if distinct_values {
                    prop_assert!(*vs != values || *j == index, "one assignment, two indices");
                }
            }
            seen.push((index, values.clone()));
        }
    }
}

/// An RNG pinned at the top of the stream: every `random::<f64>()` is
/// `1 - 2^-53`, past any `Discrete` whose probabilities sum below that.
struct Top;

impl rand::RngCore for Top {
    fn next_u64(&mut self) -> u64 {
        u64::MAX
    }
}

#[test]
fn indexed_draw_maps_slack_and_pins_to_their_support_index() {
    let slack = DistSpec::Discrete {
        outcomes: vec![(2.0, 0.5), (3.0, 0.5 - 1e-9)],
    };
    slack.validate("slack").unwrap();
    assert_eq!(slack.sample_indexed(&mut Top), (EcvValue::Num(3.0), 1));
    assert_eq!(
        DistSpec::Bernoulli { p: 1.0 }.sample_indexed(&mut Top),
        (EcvValue::Bool(true), 0)
    );
    assert_eq!(
        DistSpec::Bernoulli { p: 0.5 }.sample_indexed(&mut Top),
        (EcvValue::Bool(false), 1)
    );
    assert_eq!(
        DistSpec::Point { value: 7.0 }.sample_indexed(&mut Top),
        (EcvValue::Num(7.0), 0)
    );

    // A pinned slot has one index and consumes no randomness, so pinning
    // `b` halves the space and leaves `a`'s index where it was.
    let mut env = EcvEnv::new();
    for (name, dist) in [("a", slack.clone()), ("b", DistSpec::Bernoulli { p: 0.5 })] {
        env.declare(
            name,
            EcvDecl {
                dist,
                doc: String::new(),
            },
        );
    }
    assert_eq!(env.sampler().space(), Some(4));
    let mut values = [EcvValue::Num(0.0); 2];
    assert_eq!(env.sampler().draw(&mut Top, &mut values), 3);
    assert_eq!(values, [EcvValue::Num(3.0), EcvValue::Bool(false)]);
    env.pin_bool("b", true);
    assert_eq!(env.sampler().space(), Some(2));
    assert_eq!(env.sampler().draw(&mut Top, &mut values), 1);
    assert_eq!(values, [EcvValue::Num(3.0), EcvValue::Bool(true)]);
    env.pin_num("a", 9.0);
    assert_eq!(env.sampler().space(), Some(1));
    assert_eq!(env.sampler().draw(&mut Top, &mut values), 0);
}

// ---------------------------------------------------------------------------
// Certificate soundness: monotonicity verdicts against concrete executions
// ---------------------------------------------------------------------------

/// One input of a certified function: its certificate key (`param` or
/// `ecv(name)`), its ECV name (`None` for a parameter), and the values it
/// is held at while another input moves.
struct Input {
    key: String,
    ecv: Option<String>,
    held: Vec<EcvValue>,
}

/// The inputs of `func`: its parameters, then every ECV. A numeric input
/// is held at both ends and the midpoint of its certified range (`spec`,
/// or the ECV's abstract range); a Bernoulli ECV at each value its
/// distribution can take (both ways unless `p` is 0 or 1).
fn oracle_inputs(iface: &Interface, func: &str, spec: &InputSpec) -> Vec<Input> {
    let ends = |lo: f64, hi: f64| [lo, (lo + hi) / 2.0, hi].map(EcvValue::Num).to_vec();
    let mut out = Vec::new();
    for p in &iface.fns()[func].params {
        let r = spec
            .get(p)
            .expect("generated parameters are scalar and specced");
        out.push(Input {
            key: p.clone(),
            ecv: None,
            held: ends(r.lo, r.hi),
        });
    }
    for (name, decl) in &iface.ecvs {
        let held = match ecv_abs_value(&decl.dist) {
            AbsValue::Num(r) => ends(r.lo, r.hi),
            AbsValue::Bool(AbsBool::Unknown) => vec![EcvValue::Bool(false), EcvValue::Bool(true)],
            AbsValue::Bool(b) => vec![EcvValue::Bool(b == AbsBool::True)],
            other => panic!("ECV `{name}` abstracts to {other:?}"),
        };
        out.push(Input {
            key: format!("ecv({name})"),
            ecv: Some(name.clone()),
            held,
        });
    }
    out
}

/// Certifies every spec-carrying function of `iface` and checks each of
/// its `constant`, `non_decreasing` and `non_increasing` verdicts on
/// concrete executions.
///
/// The axis of a verdict is its parameter, or the pinned value of its ECV.
/// Nine evenly spaced points cover the axis's certified range, while every
/// other input is held fixed at each combination of its held values. Every
/// ordered pair of axis points must move the energy the way the verdict
/// says, within `interval_analysis_is_sound`'s slack. Executions that fail
/// (a concrete runtime error) are skipped.
fn assert_verdicts_hold(iface: &Interface) {
    let cal = Calibration::from_pairs(
        iface
            .units
            .iter()
            .map(|u| (u.as_str(), Energy::millijoules(1.0))),
    );
    let cfg = EvalConfig {
        calibration: cal.clone(),
        ..EvalConfig::default()
    };
    for (func, spec) in &iface.input_specs {
        let Ok(fc) = certify_fn(iface, func, spec, &cal) else {
            continue;
        };
        let slack = 1e-9 * (1.0 + fc.bound.upper.as_joules().abs());
        let inputs = oracle_inputs(iface, func, spec);
        let energy = |values: &[EcvValue]| -> Option<f64> {
            let mut args = Vec::new();
            let mut ecvs = BTreeMap::new();
            for (input, v) in inputs.iter().zip(values) {
                match &input.ecv {
                    None => args.push(Value::Num(v.as_num())),
                    Some(name) => {
                        ecvs.insert(name.clone(), *v);
                    }
                }
            }
            let v = eval_with_assignment(iface, func, &args, &ecvs, &cfg).ok()?;
            Some(v.into_energy().ok()?.calibrate(&cal).ok()?.as_joules())
        };
        for (key, verdict) in &fc.monotone {
            if *verdict == Monotonicity::Unknown {
                continue;
            }
            let axis = inputs
                .iter()
                .position(|input| &input.key == key)
                .unwrap_or_else(|| panic!("verdict on unknown input `{key}`"));
            let held = &inputs[axis].held;
            let (lo, hi) = (held[0].as_num(), held[held.len() - 1].as_num());
            let points: Vec<f64> = (0..9)
                .map(|j| lo + (hi - lo) * f64::from(j) / 8.0)
                .collect();
            // Every combination of held values, the axis' own ignored.
            let mut contexts: Vec<Vec<EcvValue>> = vec![Vec::new()];
            for input in &inputs {
                contexts = contexts
                    .into_iter()
                    .flat_map(|c| {
                        input.held.iter().map(move |v| {
                            let mut c = c.clone();
                            c.push(*v);
                            c
                        })
                    })
                    .collect();
            }
            contexts.retain(|c| c[axis] == inputs[axis].held[0]);
            for context in contexts {
                let energies: Vec<Option<f64>> = points
                    .iter()
                    .map(|&u| {
                        let mut at = context.clone();
                        at[axis] = EcvValue::Num(u);
                        energy(&at)
                    })
                    .collect();
                for i in 0..points.len() {
                    for j in i + 1..points.len() {
                        let (Some(a), Some(b)) = (energies[i], energies[j]) else {
                            continue;
                        };
                        let (u, v) = (points[i], points[j]);
                        let holds = match verdict {
                            Monotonicity::Constant => (a - b).abs() <= slack,
                            Monotonicity::NonDecreasing => a <= b + slack,
                            Monotonicity::NonIncreasing => a + slack >= b,
                            Monotonicity::Unknown => true,
                        };
                        prop_assert!(
                            holds,
                            "`{func}` is certified {verdict} in {key}, but {key} = {u} gives \
                             {a} J and {key} = {v} gives {b} J (other inputs held at {context:?})"
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The loop shape the shared generators lack: a trip count that moves
    /// with a parameter, over a body whose second accumulator reads the
    /// first one's post-update value.
    #[test]
    fn monotonicity_verdicts_hold_on_parameter_dependent_loops(
        iface in arb_accumulator_interface()
    ) {
        assert_verdicts_hold(&iface);
    }

    /// The VM differential suite's distribution, with a declared domain on
    /// each function.
    #[test]
    fn monotonicity_verdicts_hold_on_generated_interfaces(mut iface in arb_vm_interface()) {
        for (func, param) in [("entry", "z"), ("work", "x"), ("top", "y")] {
            iface.set_input_spec(func, InputSpec::new().range(param, 0.0, 2000.0));
        }
        assert_verdicts_hold(&iface);
    }
}

// ---------------------------------------------------------------------------
// §4.1 verdicts against concrete executions: compatibility, constant energy
// ---------------------------------------------------------------------------

/// An `op(n)` interface, `n ∈ [0, 100]`, returning a constant or an affine
/// energy in `n` (some through the origin, where two such meet), or one of
/// two by a fair coin: any two lines, or a rising and a falling one, whose
/// envelope is lowest inside the domain.
fn arb_affine_interface() -> impl Strategy<Value = Interface> {
    let line = |b: std::ops::Range<f64>| {
        (150.0f64..300.0, b).prop_map(|(a, b)| format!("{a:.3} mJ + {b:.3} mJ * n"))
    };
    let coin = |x: String, y: String| format!("if ecv(h) {{ return {x}; }} else {{ return {y}; }}");
    prop_oneof![
        (150.0f64..300.0).prop_map(|a| format!("return {a:.3} mJ;")),
        line(-1.5..3.0).prop_map(|l| format!("return {l};")),
        (0.0f64..3.0).prop_map(|b| format!("return {b:.3} mJ * n;")),
        (line(-1.5..3.0), line(-1.5..3.0)).prop_map(move |(x, y)| coin(x, y)),
        (line(0.0..3.0), line(-1.5..0.0)).prop_map(move |(x, y)| coin(x, y)),
    ]
    .prop_map(|body| {
        parse(&format!(
            "interface affine {{ ecv h: bernoulli(0.5); fn op(n) {{ {body} }} }}"
        ))
        .expect("generated affine interfaces parse")
    })
}

/// Every ECV path of `iface.func(input)`.
fn paths_at(iface: &Interface, func: &str, input: &[f64]) -> Vec<Energy> {
    let args: Vec<Value> = input.iter().map(|v| Value::Num(*v)).collect();
    let cfg = EvalConfig::default();
    let profile = enumerate_paths(iface, func, &args, &iface.ecv_env(), 16, &cfg).unwrap();
    profile.paths.iter().map(|p| p.energy).collect()
}

/// The dearest execution of `iface.op(n)`.
fn dearest(iface: &Interface, n: f64) -> Energy {
    paths_at(iface, "op", &[n])
        .into_iter()
        .fold(Energy(f64::MIN), Energy::max)
}

/// An ECV-free `f(x, y)` body whose energy is constant, affine, stepped or
/// loop-accumulated in its inputs, in nJ.
fn arb_scalar_body() -> impl Strategy<Value = String> {
    prop_oneof![
        (0.5f64..50.0).prop_map(|a| format!("return {a:.3} nJ;")),
        (0.5f64..50.0, 0.0f64..3.0, 0.0f64..3.0)
            .prop_map(|(a, b, c)| format!("return {a:.3} nJ + {b:.3} nJ * x + {c:.3} nJ * y;")),
        (0.0f64..40.0, 0.5f64..50.0, 0.5f64..50.0).prop_map(|(t, a, c)| format!(
            "if y > {t:.3} {{ return {a:.3} nJ; }} return {c:.3} nJ + 1 nJ * x;"
        )),
        (0.5f64..5.0, 0.0f64..3.0).prop_map(|(a, b)| format!(
            "let acc = {a:.3} nJ; for i in 0..x {{ acc = acc + {b:.3} nJ; }} return acc;"
        )),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `Compatible` holds at every point of a dense grid, and an
    /// `Incompatible` counterexample is a real execution above the spec's
    /// dearest execution at that input. Affine pairs 1 mJ apart on the
    /// whole grid, or at one point of it, are decided, and so is each
    /// interface against itself.
    #[test]
    fn compat_verdicts_hold_on_concrete_executions(
        spec in arb_affine_interface(),
        cand in arb_affine_interface(),
        top in 1.0f64..100.0,
    ) {
        let inputs = InputSpec::new().range("n", 0.0, top);
        let check = |s, c| check_compat(s, c, "op", &inputs, &Calibration::empty()).unwrap();
        for i in [&spec, &cand] {
            prop_assert!(check(i, i).is_compatible(), "{:?} against itself", i.get_fn("op"));
        }
        let verdict = check(&spec, &cand);
        let margin = (0..=1000)
            .map(|k| {
                let n = top * f64::from(k) / 1000.0;
                (dearest(&spec, n) - dearest(&cand, n)).as_joules()
            })
            .fold(f64::INFINITY, f64::min);
        if margin >= 1e-3 {
            prop_assert!(verdict.is_compatible(), "{verdict:?} with a margin of {margin} J");
        } else if margin <= -1e-3 {
            let refuted = matches!(verdict, Compatibility::Incompatible { .. });
            prop_assert!(refuted, "{verdict:?} with an excess of {} J", -margin);
        }
        match verdict {
            Compatibility::Compatible => {
                for k in 0..=1000 {
                    let n = top * f64::from(k) / 1000.0;
                    let (c, s) = (dearest(&cand, n), dearest(&spec, n));
                    prop_assert!(c <= s, "proven compatible, yet {c} > {s} at n = {n}");
                }
            }
            Compatibility::Incompatible { input, candidate, allowed } => {
                let n = input[0];
                prop_assert!((0.0..=top).contains(&n), "counterexample {n} outside the domain");
                prop_assert_eq!(candidate, dearest(&cand, n));
                prop_assert!(candidate > dearest(&spec, n), "{candidate} within the spec at n = {n}");
                prop_assert!(candidate > allowed);
            }
            Compatibility::Unknown => {}
        }
    }

    /// A `Leaky` witness is two real executions, the cheapest and the
    /// dearest on the probe grid: without ECVs, `evaluate_energy` at each
    /// witness input bit for bit; with them, one of the paths there.
    #[test]
    fn leaky_witnesses_are_extreme_executions(
        body in arb_scalar_body(),
        other in prop_oneof![Just(None), arb_scalar_body().prop_map(Some)],
        (x, y) in (1u32..40, 1.0f64..40.0),
    ) {
        let src = match &other {
            None => format!("interface k {{ fn f(x, y) {{ {body} }} }}"),
            Some(o) => format!(
                "interface k {{ ecv h: bernoulli(0.3); fn g(x, y) {{ {body} }} \
                 fn f(x, y) {{ if ecv(h) {{ return g(x, y); }} {o} }} }}"
            ),
        };
        let iface = parse(&src).unwrap();
        let spec = InputSpec::new().range("x", 0.0, f64::from(x)).range("y", 0.0, y);
        let tol = Energy::picojoules(1.0);
        let verdict = check_constant_energy(&iface, "f", &spec, &Calibration::empty(), tol);
        let ConstantEnergy::Leaky { input_lo, energy_lo, input_hi, energy_hi } = verdict.unwrap()
        else {
            return;
        };
        for (input, energy) in [(input_lo, energy_lo), (input_hi, energy_hi)] {
            prop_assert!(paths_at(&iface, "f", &input).contains(&energy), "{energy} at {input:?}");
            if other.is_none() {
                let args: Vec<Value> = input.iter().map(|v| Value::Num(*v)).collect();
                let e = evaluate_energy(&iface, "f", &args, &EcvEnv::new(), 0, &EvalConfig::default());
                prop_assert_eq!(e.unwrap().as_joules().to_bits(), energy.as_joules().to_bits());
            }
        }
        let axes = axes_for(&iface, "f", &spec).unwrap();
        for point in probe_grid(&axes) {
            let input: Vec<f64> = axes.iter().zip(&point).map(|(a, &k)| a.points[k]).collect();
            for e in paths_at(&iface, "f", &input) {
                prop_assert!(energy_lo <= e && e <= energy_hi, "{e} at {input:?} escapes the witness");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Non-random cross-module integration checks kept alongside the properties.
// ---------------------------------------------------------------------------

#[test]
fn fig1_interface_text_renders_and_reparses() {
    let src = r#"
        interface ml_webservice "Fig. 1 of the paper" {
            unit conv2d; unit relu; unit mlp;
            ecv request_hit: bernoulli(0.25) "request found in cache";
            ecv local_cache_hit: bernoulli(0.8) "cache hit in current node";
            fn handle(request) {
                let max_response_len = 1024;
                if request_hit {
                    return cache_lookup(request.image_id, max_response_len);
                } else {
                    return cnn_forward(request);
                }
            }
            fn cache_lookup(key, response_len) {
                return (if local_cache_hit { 5 mJ } else { 100 mJ }) * response_len;
            }
            fn cnn_forward(request) {
                let n_embedding = 256;
                return 8 conv2d * ((request.image_size - request.image_zeros) / 1024)
                     + 8 relu * (n_embedding / 256)
                     + 16 mlp * (n_embedding / 256);
            }
        }
    "#;
    let iface = parse(src).unwrap();
    let printed = print_interface(&iface);
    let again = parse(&printed).unwrap();
    assert_eq!(iface, again);

    // And it evaluates under a calibration.
    let cal = Calibration::from_pairs([
        ("conv2d", Energy::millijoules(40.0)),
        ("relu", Energy::millijoules(1.0)),
        ("mlp", Energy::millijoules(10.0)),
    ]);
    let cfg = EvalConfig {
        calibration: cal,
        ..EvalConfig::default()
    };
    let mut env = iface.ecv_env();
    env.pin_bool("request_hit", false);
    let req = Value::num_record([
        ("image_id", 0.0),
        ("image_size", 1024.0),
        ("image_zeros", 0.0),
    ]);
    let e = evaluate_energy(&iface, "handle", &[req], &env, 0, &cfg).unwrap();
    let expect = 8.0 * 40e-3 + 8.0 * 1e-3 + 16.0 * 10e-3;
    assert!((e.as_joules() - expect).abs() < 1e-12);
}
