//! Error-path parity: every interpreter runtime error must surface from
//! the compiled VM with the same variant *and* the same message.
//!
//! `tests/fixtures/bad_eil_runtime/` is a seeded corpus mirroring
//! `tests/fixtures/bad_eil` (the lint corpus), but for failures that no
//! static check can reject: each fixture parses and validates cleanly
//! and then fails at runtime. The harness runs every fixture through
//! both engines and requires `Debug`-identical errors (variant + fields)
//! and `Display`-identical messages, then asserts the corpus actually
//! covers every runtime-reachable error variant — a new variant without
//! a seeded fixture fails the coverage check.

use std::collections::{BTreeMap, BTreeSet};

use ei_core::ast::{Builtin, Expr, FnDef, Stmt};
use ei_core::ecv::EcvValue;
use ei_core::interface::Interface;
use ei_core::interp::{eval_builtin, eval_with_assignment, EvalConfig, ExecMode};
use ei_core::value::Value;
use ei_core::vm::{compile, Vm};

/// One seeded failure: fixture stem, entry function, arguments, fuel
/// budget, and the error variant the seed is expected to produce.
struct Seed {
    stem: &'static str,
    func: &'static str,
    args: Vec<Value>,
    fuel: u64,
    variant: &'static str,
}

fn seed(stem: &'static str, args: Vec<Value>, fuel: u64, variant: &'static str) -> Seed {
    Seed {
        stem,
        func: "main",
        args,
        fuel,
        variant,
    }
}

fn corpus() -> Vec<Seed> {
    let full = EvalConfig::default().fuel;
    vec![
        seed("div_zero", vec![Value::Num(3.0)], full, "DivisionByZero"),
        seed("mod_zero", vec![Value::Num(3.0)], full, "DivisionByZero"),
        seed("sqrt_negative", vec![Value::Num(4.0)], full, "NonFinite"),
        seed("log_nonpositive", vec![Value::Num(4.0)], full, "NonFinite"),
        seed("exp_overflow", vec![Value::Num(100.0)], full, "NonFinite"),
        seed("nonfinite_bounds", vec![Value::Num(2.0)], full, "NonFinite"),
        seed("type_mismatch", vec![Value::Num(1.0)], full, "Type"),
        seed("bad_condition", vec![Value::Num(1.0)], full, "Type"),
        seed("builtin_type", vec![Value::Num(1.0)], full, "Type"),
        seed("fell_off", vec![Value::Num(5.0)], full, "Type"),
        seed(
            "bound_exceeded",
            vec![Value::Num(0.0)],
            full,
            "BoundExceeded",
        ),
        seed(
            "stack_overflow",
            vec![Value::Num(0.0)],
            full,
            "StackOverflow",
        ),
        seed(
            "fuel_exhausted",
            vec![Value::Num(1e6)],
            1000,
            "FuelExhausted",
        ),
        seed("undefined_var", vec![Value::Num(0.0)], full, "Unresolved"),
        seed(
            "assign_undefined",
            vec![Value::Num(0.0)],
            full,
            "Unresolved",
        ),
        seed("unlinked_extern", vec![Value::Num(0.0)], full, "Link"),
        // Host-side entry errors, reusing existing fixtures: wrong entry
        // arity and an unknown entry point.
        seed("div_zero", vec![], full, "Arity"),
        Seed {
            stem: "div_zero",
            func: "no_such_fn",
            args: vec![Value::Num(0.0)],
            fuel: full,
            variant: "Unresolved",
        },
    ]
}

fn load(stem: &str) -> Interface {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(format!("tests/fixtures/bad_eil_runtime/{stem}.eil"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    ei_core::parser::parse(&src).unwrap_or_else(|e| panic!("{stem}: fixture must parse: {e}"))
}

fn seed_config(s: &Seed) -> EvalConfig {
    EvalConfig {
        fuel: s.fuel,
        mode: ExecMode::TreeWalk,
        ..EvalConfig::default()
    }
}

#[test]
fn runtime_error_corpus_matches_across_engines() {
    for s in corpus() {
        let iface = load(s.stem);
        let cfg = seed_config(&s);
        let oracle = eval_with_assignment(&iface, s.func, &s.args, &BTreeMap::new(), &cfg);
        let program = compile(&iface).unwrap_or_else(|e| panic!("{}: compiles: {e}", s.stem));
        let machine = Vm::new(&program).run(s.func, &s.args, &BTreeMap::new(), &cfg);

        let err = match (&oracle, &machine) {
            (Err(a), Err(b)) => {
                assert_eq!(
                    format!("{a:?}"),
                    format!("{b:?}"),
                    "{}.{}: error variants/fields diverge",
                    s.stem,
                    s.func
                );
                assert_eq!(
                    a.to_string(),
                    b.to_string(),
                    "{}.{}: error messages diverge",
                    s.stem,
                    s.func
                );
                a
            }
            (a, b) => panic!(
                "{}.{}: both engines must fail\n  oracle:  {a:?}\n  machine: {b:?}",
                s.stem, s.func
            ),
        };
        let dbg = format!("{err:?}");
        assert!(
            dbg.starts_with(s.variant),
            "{}.{}: seeded {} but got {dbg}",
            s.stem,
            s.func,
            s.variant
        );
    }
}

/// The corpus must cover every error variant the evaluator can raise at
/// runtime (`Lex`/`Parse`/`Duplicate` etc. are rejected earlier and are
/// out of scope for engine parity).
#[test]
fn corpus_covers_all_runtime_variants() {
    let covered: BTreeSet<&str> = corpus().iter().map(|s| s.variant).collect();
    for variant in [
        "Arity",
        "BoundExceeded",
        "DivisionByZero",
        "FuelExhausted",
        "Link",
        "NonFinite",
        "StackOverflow",
        "Type",
        "Unresolved",
    ] {
        assert!(
            covered.contains(variant),
            "no seeded runtime fixture produces Error::{variant}"
        );
    }
}

// ---------------------------------------------------------------------------
// Builtin dispatch drift (satellite: one table, two engines)
// ---------------------------------------------------------------------------

/// A one-builtin interface `fn f(a0, ..) {{ return b(a0, ..); }}` whose
/// arguments stay opaque to const folding.
fn builtin_iface(b: Builtin) -> Interface {
    let params: Vec<String> = (0..b.arity()).map(|i| format!("a{i}")).collect();
    let args: Vec<Expr> = params.iter().map(Expr::var).collect();
    let mut i = Interface::new("bt");
    i.add_fn(FnDef::new(
        "f",
        params,
        vec![Stmt::Return(Expr::BuiltinCall(b, args))],
    ))
    .unwrap();
    i
}

/// Both engines and the shared `eval_builtin` table must agree on every
/// builtin at boundary inputs: zeros of both signs, negatives, values at
/// the overflow/underflow edges, and inputs whose results leave the
/// finite range (`pow(-1, 0.5)` is NaN, `exp(710)` is +inf, ...).
#[test]
fn builtin_dispatch_has_one_table() {
    const BOUNDARY: [f64; 12] = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.5,
        -0.5,
        709.0, // exp(709) is finite ...
        710.0, // ... exp(710) is not
        f64::MAX,
        -f64::MAX,
        f64::MIN_POSITIVE,
        5e-324, // smallest positive denormal
    ];
    // Clamp is 3-ary; the full 12^3 cube is slow for no extra coverage.
    const SMALL: [f64; 5] = [0.0, -0.0, 1.0, -1.0, f64::MAX];

    let ecvs = BTreeMap::<String, EcvValue>::new();
    let cfg = EvalConfig {
        mode: ExecMode::TreeWalk,
        ..EvalConfig::default()
    };
    for b in Builtin::ALL {
        let iface = builtin_iface(b);
        let program = compile(&iface).expect("builtin interface compiles");
        let mut machine = Vm::new(&program);
        let tuples: Vec<Vec<f64>> = match b.arity() {
            1 => BOUNDARY.iter().map(|x| vec![*x]).collect(),
            2 => BOUNDARY
                .iter()
                .flat_map(|x| BOUNDARY.iter().map(move |y| vec![*x, *y]))
                .collect(),
            3 => SMALL
                .iter()
                .flat_map(|x| {
                    SMALL
                        .iter()
                        .flat_map(move |y| SMALL.iter().map(move |z| vec![*x, *y, *z]))
                })
                .collect(),
            n => panic!("unexpected arity {n} for {}", b.name()),
        };
        for tuple in tuples {
            let args: Vec<Value> = tuple.iter().map(|v| Value::Num(*v)).collect();
            let table = format!("{:?}", eval_builtin(b, &args));
            let walked = eval_with_assignment(&iface, "f", &args, &ecvs, &cfg);
            let ran = machine.run("f", &args, &ecvs, &cfg);
            for (engine, got) in [("tree-walk", walked), ("vm", ran)] {
                assert_eq!(
                    table,
                    format!("{got:?}"),
                    "{}({tuple:?}) via {engine} drifts from the shared table",
                    b.name()
                );
            }
        }
    }
}
