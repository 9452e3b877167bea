//! Differential testing: the bytecode VM against the tree-walk oracle.
//!
//! The VM (`ei_core::vm`) claims *bit-identical* behaviour with the
//! interpreter — same `Value`s, same error variants and messages, same
//! fuel exhaustion boundaries, and byte-identical telemetry traces — on
//! every program, not just the goldens. These properties generate
//! loop/branch/unit/ECV-rich interfaces from the shared corpus
//! (`crates/core/tests/common/generators.rs`) and run both engines over
//! them. The Monte-Carlo property also checks the compiled sampler's
//! assignment memo: the tree-walk oracle executes every sample.
//!
//! Comparisons are on `Debug` renderings of the full `Result`, so a
//! divergence in an error variant or message fails just as loudly as a
//! wrong answer; distributions compare with `EnergyDist`'s exact
//! (bitwise) equality, and traces compare as serialized JSON bytes.
//!
//! Alongside the random programs, the seeded bad-chunk corpus pins the
//! other side of the contract: programs the verifier must *reject*, with
//! byte-stable diagnostics. A fixed fixture pins the VM's call memo at
//! every fuel and depth boundary, and against the argument kinds it must
//! never conflate.

use std::collections::BTreeMap;

use proptest::prelude::*;

use ei_core::ecv::{EcvEnv, EcvValue};
use ei_core::interp::{
    eval_with_assignment, evaluate_batch, monte_carlo, monte_carlo_par, EvalConfig, ExecMode,
    MC_CHUNK,
};
use ei_core::parser::parse;
use ei_core::units::{Calibration, Energy, EnergyVec};
use ei_core::value::Value;
use ei_core::vm::{compile, Vm};
use ei_telemetry as telemetry;

#[path = "../crates/core/tests/common/generators.rs"]
mod generators;
use generators::*;

/// Calibrates every abstract unit the interface declares, so energy
/// results reduce to Joules under both engines.
fn calibrate_all(iface: &ei_core::interface::Interface) -> Calibration {
    Calibration::from_pairs(
        iface
            .units
            .iter()
            .enumerate()
            .map(|(i, u)| (u.as_str(), Energy::microjoules((i + 1) as f64))),
    )
}

fn config(iface: &ei_core::interface::Interface, mode: ExecMode) -> EvalConfig {
    EvalConfig {
        calibration: calibrate_all(iface),
        mode,
        ..EvalConfig::default()
    }
}

/// One concrete assignment for the `hot`/`mix` ECVs of
/// [`arb_vm_interface`] programs.
fn assignment(hot: bool, mix: f64) -> BTreeMap<String, EcvValue> {
    let mut a = BTreeMap::new();
    a.insert("hot".to_string(), EcvValue::Bool(hot));
    a.insert("mix".to_string(), EcvValue::Num(mix));
    a
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Single-shot evaluation: identical `Value` or identical error,
    /// bit for bit, for every generated program and entry point.
    #[test]
    fn eval_matches_oracle(
        iface in arb_vm_interface(),
        z in 0.0f64..2000.0,
        hot: bool,
        mix in 0.0f64..4.0,
    ) {
        let ecvs = assignment(hot, mix);
        let cfg = config(&iface, ExecMode::TreeWalk);
        let program = compile(&iface).expect("generated interface compiles");
        for func in ["entry", "work", "top"] {
            let args = [Value::Num(z)];
            let oracle = eval_with_assignment(&iface, func, &args, &ecvs, &cfg);
            let machine = Vm::new(&program).run(func, &args, &ecvs, &cfg);
            prop_assert_eq!(
                format!("{oracle:?}"),
                format!("{machine:?}"),
                "vm diverges on `{}`:\n{}",
                func,
                ei_core::vm::disassemble(&program),
            );
        }
    }

    /// Fuel exhaustion must trip at the same budget: sweep a geometric
    /// ladder of budgets (plus the default) and require the same outcome
    /// — value or `FuelExhausted { limit }` — at every rung.
    #[test]
    fn fuel_boundaries_match_oracle(
        iface in arb_vm_interface(),
        z in 0.0f64..2000.0,
        hot: bool,
        mix in 0.0f64..4.0,
    ) {
        let ecvs = assignment(hot, mix);
        let mut budgets: Vec<u64> = (0..12).map(|i| (1u64 << i) - 1).collect();
        budgets.push(EvalConfig::default().fuel);
        let program = compile(&iface).expect("generated interface compiles");
        let args = [Value::Num(z)];
        for fuel in budgets {
            let cfg = EvalConfig { fuel, ..config(&iface, ExecMode::TreeWalk) };
            let oracle = eval_with_assignment(&iface, "entry", &args, &ecvs, &cfg);
            let machine = Vm::new(&program).run("entry", &args, &ecvs, &cfg);
            prop_assert_eq!(
                format!("{oracle:?}"),
                format!("{machine:?}"),
                "vm diverges at fuel budget {}",
                fuel
            );
        }
    }

    /// Monte-Carlo statistics: the compiled engine must reproduce the
    /// oracle's `EnergyDist` exactly (bitwise sample equality), serially
    /// and at 8 threads, and the telemetry traces of all runs must be
    /// byte-identical — the trace must not reveal which engine ran or
    /// how many workers ran it.
    #[test]
    fn mc_statistics_and_traces_match(iface in arb_vm_interface(), z in 0.0f64..2000.0) {
        let env = EcvEnv::from_decls(&iface.ecvs);
        let args = [Value::Num(z)];
        let n = 192; // 3 chunks: exercises chunk seeding on both engines

        let run = |mode: ExecMode, threads: usize| {
            let cfg = config(&iface, mode);
            let session = telemetry::session();
            let dist = if threads == 0 {
                monte_carlo(&iface, "entry", &args, &env, n, 7, &cfg)
            } else {
                monte_carlo_par(&iface, "entry", &args, &env, n, 7, threads, &cfg)
            };
            (dist, session.finish())
        };

        let (oracle, oracle_trace) = run(ExecMode::TreeWalk, 0);
        let (auto, auto_trace) = run(ExecMode::Auto, 0);
        match (&oracle, &auto) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "serial MC distributions diverge"),
            (a, b) => prop_assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "serial MC errors diverge"
            ),
        }
        prop_assert_eq!(
            oracle_trace.to_json_pretty(),
            auto_trace.to_json_pretty(),
            "serial traces reveal the engine"
        );

        // Parallel scheduling only has a deterministic error to report
        // when there is no error at all, so the thread-count comparison
        // runs on the success path (as in telemetry_differential.rs).
        if let Ok(expect) = &oracle {
            for (mode, label) in [(ExecMode::TreeWalk, "tree-walk"), (ExecMode::Auto, "vm")] {
                for threads in [1, 8] {
                    let (dist, trace) = run(mode, threads);
                    let dist = dist.expect("serial run succeeded");
                    prop_assert_eq!(
                        expect, &dist,
                        "{} x{} diverges from the serial oracle", label, threads
                    );
                    prop_assert_eq!(
                        oracle_trace.to_json_pretty(),
                        trace.to_json_pretty(),
                        "{} x{} trace reveals engine or thread count", label, threads
                    );
                }
            }
        }
    }

    /// Batch evaluation on the production engine matches the reference
    /// to the last byte of the answer.
    #[test]
    fn batch_matches_oracle(iface in arb_vm_interface(), zs in proptest::collection::vec(0.0f64..2000.0, 1..6)) {
        let env = EcvEnv::from_decls(&iface.ecvs);
        let batch: Vec<Vec<Value>> = zs.iter().map(|z| vec![Value::Num(*z)]).collect();
        let run = |mode: ExecMode| {
            format!("{:?}", evaluate_batch(&iface, "entry", &batch, &env, 11, &config(&iface, mode)))
        };
        let oracle = run(ExecMode::TreeWalk);
        prop_assert_eq!(&oracle, &run(ExecMode::Auto), "Auto batch diverges");
    }

    /// The pure-numeric corpus (deep builtin/operator nesting over raw
    /// floats) through both engines, at adversarial inputs.
    #[test]
    fn numeric_corpus_matches_oracle(iface in arb_numeric_interface(), x in arb_pos_float()) {
        let ecvs = BTreeMap::new();
        let cfg = config(&iface, ExecMode::TreeWalk);
        let program = compile(&iface).expect("generated interface compiles");
        for x in [x, 0.0, -x, -0.0] {
            let args = [Value::Num(x)];
            let oracle = eval_with_assignment(&iface, "f", &args, &ecvs, &cfg);
            let machine = Vm::new(&program).run("f", &args, &ecvs, &cfg);
            prop_assert_eq!(
                format!("{oracle:?}"),
                format!("{machine:?}"),
                "vm diverges at x = {:?}", x
            );
        }
    }
}

// ---------------------------------------------------------------------------
// The VM's call memo: a repeat of an ECV-free call must be unobservable.
// ---------------------------------------------------------------------------

/// A loop that calls an ECV-free chain on repeating arguments
/// (`entry` → `top` → `mid` → `leaf` → `root`), callees that read an ECV
/// directly (`probe`) or through a callee (`relay`), and callees that take
/// a record (`field`) or any value (`twice`). [`memo_fixture`] rewrites
/// `root`.
const CALL_MEMO: &str = r#"interface memo {
    unit page;
    ecv mix: uniform(0.5, 2.0);
    fn root(x) { return x; }
    fn leaf(a, b) { return a * b * 1 uJ + root(a + b) * 1 nJ; }
    fn mid(a) { return leaf(a, 2) + leaf(a, 3); }
    fn top(a) { return mid(a) + mid(a + 1); }
    fn entry(n) {
        let e = 0 J;
        for i in 0..n { e = e + top(i % 3); }
        return e;
    }
    fn probe(x) { return x * ecv(mix) * 1 uJ; }
    fn relay(x) { return probe(x) + 1 nJ; }
    fn sampled(n) { return entry(n) + probe(n) + relay(n) + probe(n); }
    fn field(r) { return r.x * 1 uJ; }
    fn by_field(r) { return field(r); }
    fn twice(v) { return v + v; }
    fn by_value(v) { return twice(v); }
}"#;

/// Depth of the deepest depth check below `entry`: `root`'s builtin call.
const CHAIN_DEPTH: usize = 5;

/// [`CALL_MEMO`] with `root(x)` returning `sqrt(x)`, `sqrt` reached by
/// name as a call. Source text always parses a builtin as a builtin
/// expression, so only a built AST has this shape; it depth-checks like a
/// call, and the memo must count it in a callee's depth.
fn memo_fixture() -> ei_core::interface::Interface {
    use ei_core::ast::{Expr, Stmt};
    let mut iface = parse(CALL_MEMO).unwrap();
    iface.fns_mut().get_mut("root").unwrap().body = vec![Stmt::Return(Expr::Call(
        "sqrt".into(),
        vec![Expr::var("x")],
    ))];
    iface
}

/// The tree-walk's outcome and fuel used, read from its telemetry.
fn treewalk_with_fuel(
    iface: &ei_core::interface::Interface,
    func: &str,
    args: &[Value],
    cfg: &EvalConfig,
) -> (String, u64) {
    let session = telemetry::session();
    let out = eval_with_assignment(iface, func, args, &BTreeMap::new(), cfg);
    let fuel = session
        .finish()
        .histograms
        .iter()
        .find(|h| h.name == "core.interp.fuel_per_eval")
        .expect("the tree-walk records its fuel")
        .sum_ticks;
    (format!("{out:?}"), fuel)
}

/// At every fuel limit up to the full run's and every depth limit around
/// the chain's, a VM whose memo already holds every call of the query
/// must fail where the tree-walk fails, or return what it returns, and
/// report the same fuel used.
#[test]
fn call_memo_keeps_fuel_and_depth_boundaries() {
    let iface = memo_fixture();
    let program = compile(&iface).unwrap();
    let args = [Value::Num(7.0)];
    let ecvs = BTreeMap::new();
    let tree = |fuel: u64, max_depth: usize| EvalConfig {
        fuel,
        max_depth,
        mode: ExecMode::TreeWalk,
        ..EvalConfig::default()
    };
    let full = tree(EvalConfig::default().fuel, EvalConfig::default().max_depth);
    let (expect, full_fuel) = treewalk_with_fuel(&iface, "entry", &args, &full);
    assert!(expect.starts_with("Ok("), "{expect}");

    let mut machine = Vm::new(&program);
    let warm = machine.run("entry", &args, &ecvs, &full);
    assert_eq!(format!("{warm:?}"), expect);
    assert_eq!(machine.fuel_used(), full_fuel);

    for max_depth in 0..=CHAIN_DEPTH + 1 {
        for fuel in 0..=full_fuel {
            let cfg = tree(fuel, max_depth);
            let (oracle, oracle_fuel) = treewalk_with_fuel(&iface, "entry", &args, &cfg);
            let got = machine.run("entry", &args, &ecvs, &cfg);
            assert_eq!(
                oracle,
                format!("{got:?}"),
                "outcome diverges at fuel {fuel}, depth {max_depth}"
            );
            assert_eq!(
                oracle_fuel,
                machine.fuel_used(),
                "fuel used diverges at fuel {fuel}, depth {max_depth}"
            );
        }
    }
}

/// A callee that reads an ECV, directly or through a callee, is
/// re-executed under every assignment: a Monte Carlo over a continuous
/// ECV matches the tree-walk sample for sample, at 1, 2 and 4 threads.
#[test]
fn ecv_reading_callees_follow_every_assignment() {
    let iface = memo_fixture();
    let env = EcvEnv::from_decls(&iface.ecvs);
    let args = [Value::Num(4.0)];
    let n = 256; // 4 chunks
    let run = |mode: ExecMode, threads: usize| {
        let cfg = EvalConfig {
            mode,
            ..EvalConfig::default()
        };
        monte_carlo_par(&iface, "sampled", &args, &env, n, 3, threads, &cfg).unwrap()
    };
    let oracle = run(ExecMode::TreeWalk, 1);
    for threads in [1, 2, 4] {
        let auto = run(ExecMode::Auto, threads);
        assert_eq!(
            oracle, auto,
            "compiled samples diverge at {threads} threads"
        );
    }
    let mut distinct: Vec<u64> = oracle
        .to_samples()
        .iter()
        .map(|e| e.as_joules().to_bits())
        .collect();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(
        distinct.len(),
        n,
        "the fixture's samples must vary with `mix`"
    );
}

/// Arguments that differ only in a record field, only in an abstract-unit
/// amount, or only in kind (`2` against `2 J`, a subnormal against `true`,
/// a zero-amount unit entry against none) never share a memo entry.
#[test]
fn call_memo_never_conflates_argument_kinds() {
    let iface = memo_fixture();
    let program = compile(&iface).unwrap();
    let ecvs = BTreeMap::new();
    let tree = EvalConfig {
        mode: ExecMode::TreeWalk,
        ..EvalConfig::default()
    };
    let zero_page = EnergyVec {
        joules: 2.0,
        abstracts: [("page".to_string(), 0.0)].into_iter().collect(),
    };
    let cases = [
        ("by_field", Value::num_record([("x", 1.0)])),
        ("by_field", Value::num_record([("x", 2.0)])),
        ("by_value", Value::Energy(EnergyVec::from_unit("page", 1.0))),
        ("by_value", Value::Energy(EnergyVec::from_unit("page", 2.0))),
        ("by_value", Value::Num(2.0)),
        ("by_value", Value::joules(2.0)),
        ("by_value", Value::Energy(zero_page)),
        ("by_value", Value::Num(f64::from_bits(1))),
        ("by_value", Value::Bool(true)),
    ];
    let mut machine = Vm::new(&program);
    // The second pass meets every key the first one stored.
    for pass in 0..2 {
        for (func, arg) in &cases {
            let args = [arg.clone()];
            let oracle = eval_with_assignment(&iface, func, &args, &ecvs, &tree);
            let got = machine.run(func, &args, &ecvs, &tree);
            assert_eq!(
                format!("{oracle:?}"),
                format!("{got:?}"),
                "pass {pass}: {func}({arg:?}) diverges"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// The Table 1 workload: the production engine against the reference.
// ---------------------------------------------------------------------------

/// Linked GPT-2 over the fitted RTX 4090 gives the same Joule bits on the
/// production engine as on the reference: the batch driver over the whole
/// Table 1 sweep, and the serial Monte-Carlo driver past one chunk at the
/// sweep's smallest and largest points.
#[test]
fn table1_sweep_matches_the_reference() {
    let (linked, _) = ei_bench::table1::fitted_gpt2_interface(&ei_hw::gpu::rtx4090());
    let env = EcvEnv::new();
    let cfg = |mode| EvalConfig {
        fuel: 400_000_000,
        mode,
        ..EvalConfig::default()
    };
    let points = ei_bench::table1::sweep();
    let argset = |(p, g): (u64, u64)| vec![Value::Num(p as f64), Value::Num(g as f64)];
    let argsets: Vec<Vec<Value>> = points.iter().copied().map(argset).collect();
    let bits = |mode| -> Vec<u64> {
        evaluate_batch(&linked, "e_generate", &argsets, &env, 0, &cfg(mode))
            .expect("the Table 1 sweep evaluates")
            .iter()
            .map(|e| e.as_joules().to_bits())
            .collect()
    };
    assert_eq!(
        bits(ExecMode::Auto),
        bits(ExecMode::TreeWalk),
        "evaluate_batch diverges on the Table 1 sweep"
    );

    let ends = [points[0], points[points.len() - 1]];
    assert_eq!(ends, [(8, 25), (64, 200)]);
    for point in ends {
        let args = argset(point);
        let mc = |mode| {
            monte_carlo(
                &linked,
                "e_generate",
                &args,
                &env,
                MC_CHUNK + 1,
                7,
                &cfg(mode),
            )
            .expect("the Table 1 point samples")
        };
        assert_eq!(
            mc(ExecMode::Auto),
            mc(ExecMode::TreeWalk),
            "monte_carlo diverges at e_generate{point:?}"
        );
    }
}
