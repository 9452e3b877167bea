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
//! byte-stable diagnostics.

use std::collections::BTreeMap;

use proptest::prelude::*;

use ei_core::ecv::{EcvEnv, EcvValue};
use ei_core::interface::InputSpec;
use ei_core::interp::{
    eval_with_assignment, evaluate_batch, monte_carlo, monte_carlo_par, EvalConfig, ExecMode,
};
use ei_core::units::{Calibration, Energy};
use ei_core::value::Value;
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
        for func in ["entry", "work", "top"] {
            let oracle = eval_with_assignment(
                &iface, func, &[Value::Num(z)], &ecvs,
                &config(&iface, ExecMode::TreeWalk),
            );
            let machine = eval_with_assignment(
                &iface, func, &[Value::Num(z)], &ecvs,
                &config(&iface, ExecMode::Compiled),
            );
            prop_assert_eq!(
                format!("{oracle:?}"),
                format!("{machine:?}"),
                "vm diverges on `{}`:\n{}",
                func,
                ei_core::vm::disassemble(&ei_core::vm::compile(&iface).unwrap()),
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
        for fuel in budgets {
            let tree = EvalConfig { fuel, ..config(&iface, ExecMode::TreeWalk) };
            let oracle = eval_with_assignment(&iface, "entry", &[Value::Num(z)], &ecvs, &tree);
            let comp = EvalConfig { fuel, ..config(&iface, ExecMode::Compiled) };
            let machine = eval_with_assignment(&iface, "entry", &[Value::Num(z)], &ecvs, &comp);
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
        let (compiled, compiled_trace) = run(ExecMode::Compiled, 0);
        match (&oracle, &compiled) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "serial MC distributions diverge"),
            (a, b) => prop_assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "serial MC errors diverge"
            ),
        }
        prop_assert_eq!(
            oracle_trace.to_json_pretty(),
            compiled_trace.to_json_pretty(),
            "serial traces reveal the engine"
        );

        // Parallel scheduling only has a deterministic error to report
        // when there is no error at all, so the thread-count comparison
        // runs on the success path (as in telemetry_differential.rs).
        if let Ok(expect) = &oracle {
            for (mode, label) in [(ExecMode::TreeWalk, "tree-walk"), (ExecMode::Compiled, "vm")] {
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

    /// Batch evaluation across modes, including `Auto` (which must pick
    /// an engine without changing any byte of the answer).
    #[test]
    fn batch_matches_oracle(iface in arb_vm_interface(), zs in proptest::collection::vec(0.0f64..2000.0, 1..6)) {
        let env = EcvEnv::from_decls(&iface.ecvs);
        let batch: Vec<Vec<Value>> = zs.iter().map(|z| vec![Value::Num(*z)]).collect();
        let run = |mode: ExecMode| {
            format!("{:?}", evaluate_batch(&iface, "entry", &batch, &env, 11, &config(&iface, mode)))
        };
        let oracle = run(ExecMode::TreeWalk);
        prop_assert_eq!(&oracle, &run(ExecMode::Compiled), "compiled batch diverges");
        prop_assert_eq!(&oracle, &run(ExecMode::Auto), "Auto batch diverges");
    }

    /// The pure-numeric corpus (deep builtin/operator nesting over raw
    /// floats) through both engines, at adversarial inputs.
    #[test]
    fn numeric_corpus_matches_oracle(iface in arb_numeric_interface(), x in arb_pos_float()) {
        let ecvs = BTreeMap::new();
        for x in [x, 0.0, -x, -0.0] {
            let oracle = eval_with_assignment(
                &iface, "f", &[Value::Num(x)], &ecvs, &config(&iface, ExecMode::TreeWalk),
            );
            let machine = eval_with_assignment(
                &iface, "f", &[Value::Num(x)], &ecvs, &config(&iface, ExecMode::Compiled),
            );
            prop_assert_eq!(
                format!("{oracle:?}"),
                format!("{machine:?}"),
                "vm diverges at x = {:?}", x
            );
        }
    }

    /// The lowering's static contract: every generated program's bytecode
    /// verifies against its source interface, interval agreement included
    /// (`compile` itself runs only the structural and dataflow layers, and
    /// agreement fires only for functions with a declared input spec).
    #[test]
    fn compiled_programs_verify(mut iface in arb_vm_interface()) {
        for (func, param) in [("entry", "z"), ("work", "x"), ("top", "y")] {
            iface.set_input_spec(func, InputSpec::new().range(param, 0.0, 2000.0));
        }
        let program = ei_core::vm::compile(&iface).expect("generated interface compiles");
        if let Err(errs) = ei_core::vm::verify_against(&iface, &program) {
            prop_assert!(
                false,
                "compiled program fails verification:\n{}\n{}",
                ei_core::vm::render_errors(&errs),
                ei_core::vm::disassemble(&program),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// The rejection side of the contract: the seeded bad-chunk corpus.
// ---------------------------------------------------------------------------

/// Every entry of the handcrafted ill-formed-program corpus must be
/// rejected by the verifier with its recorded diagnostic, byte for byte —
/// the same stability the `cert_gate` CI binary enforces.
#[test]
fn bad_chunk_corpus_is_rejected_with_stable_diagnostics() {
    let corpus = ei_core::vm::testing::bad_chunk_corpus();
    assert!(corpus.len() >= 15, "corpus shrank to {}", corpus.len());
    for bad in corpus {
        match ei_core::vm::verify(&bad.program) {
            Ok(()) => panic!("verifier accepted corpus entry `{}`", bad.name),
            Err(errs) => assert_eq!(
                ei_core::vm::render_errors(&errs),
                bad.expected,
                "diagnostic drifted for corpus entry `{}`",
                bad.name
            ),
        }
    }
}
