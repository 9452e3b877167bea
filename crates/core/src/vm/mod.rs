//! A register bytecode VM for EIL: the production engine, with the
//! tree-walk interpreter as its differential-testing oracle.
//!
//! The paper's position is that energy interfaces must be cheap enough to
//! query *inside* resource-manager control loops. The tree-walk
//! interpreter in [`crate::interp`] re-walks the AST (hash lookups,
//! `BTreeMap` locals, enum dispatch per node) on every Monte-Carlo
//! sample, which makes it the bottleneck of the Table 1 sweep and every
//! serving-path recompute. This module compiles a type-checked interface
//! once into a compact register [`Program`] and executes it with a reused
//! [`Vm`], removing per-sample allocation and name resolution while
//! keeping the interpreter's semantics — including error variants,
//! messages, and fuel-exhaustion boundaries — bit for bit.
//!
//! Pipeline:
//!
//! - [`compile`] (`lower.rs`): register allocation, one lowering per
//!   expression and statement (literals to `Const`, `if` to jumps, `for`
//!   to the loop triple, whatever the operands), static per-instruction
//!   fuel weights, and the verifier run over every result.
//! - [`Program`]/[`Instr`] (`chunk.rs`): the chunk arena, interned symbol
//!   and calibration/ECV slot tables, and the artifact fingerprint the
//!   disassembler prints.
//! - [`Vm`] (`exec.rs`): the reusable executor; arithmetic defers to the
//!   interpreter's own kernels so the two engines cannot drift, and a
//!   call memo answers repeated calls to ECV-free functions.
//! - [`disassemble`] (`disasm.rs`): byte-stable text for golden tests.
//!
//! The interpreter stays authoritative: `tests/vm_differential.rs` and
//! `tests/vm_errors.rs` hold the two engines bit-identical on generated
//! and adversarial inputs. The sampling drivers in [`crate::interp`] run
//! this VM by default; [`crate::interp::ExecMode::TreeWalk`] selects the
//! reference instead.

mod chunk;
mod disasm;
mod exec;
mod lower;
mod verify;

pub use chunk::{Chunk, Instr, Program};
pub use disasm::disassemble;
pub use exec::Vm;
pub use lower::compile;
pub use verify::{render_errors, verify, VerifyError};

/// Ill-formed bytecode fixtures for verifier testing. Programs cannot be
/// constructed outside this crate ([`Program`] is non-exhaustive), so the
/// corpus is built here, beside the unit tests that consume it.
#[cfg(test)]
mod testing {
    use std::collections::BTreeSet;

    use crate::ast::BinOp;
    use crate::parser::parse;

    use super::chunk::{Chunk, Instr, Program};

    /// One deliberately ill-formed program with its expected (stable)
    /// verifier rendering.
    pub struct BadChunk {
        /// Corpus entry name.
        pub name: &'static str,
        /// The ill-formed program.
        pub program: Program,
        /// Exact output of [`super::render_errors`] on the failure list.
        pub expected: String,
    }

    fn chunk(arity: u32, n_regs: u32, code: Vec<Instr>) -> Chunk {
        let fuel = vec![0; code.len()];
        Chunk {
            name: "f".into(),
            arity,
            n_regs,
            n_counters: 0,
            code,
            fuel,
            consts: Vec::new(),
            traps: Vec::new(),
            reg_names: vec![None; n_regs as usize],
        }
    }

    fn program(chunk: Chunk) -> Program {
        Program {
            name: "bad".into(),
            symbols: Vec::new(),
            units: Vec::new(),
            ecv_names: Vec::new(),
            externs: BTreeSet::new(),
            chunks: vec![chunk],
            fn_ids: [("f".to_string(), 0u32)].into_iter().collect(),
        }
    }

    /// Handcrafted violations of each verifier rule, plus corruptions of a
    /// genuinely compiled program. Every entry must be rejected with the
    /// recorded diagnostic, byte for byte.
    pub fn bad_chunk_corpus() -> Vec<BadChunk> {
        let mut corpus = Vec::new();
        let mut add = |name: &'static str, program: Program, expected: &str| {
            corpus.push(BadChunk {
                name,
                program,
                expected: expected.to_string(),
            });
        };

        add(
            "empty-code",
            program(chunk(0, 1, Vec::new())),
            "fn `f`: empty instruction stream",
        );

        let mut c = chunk(
            0,
            1,
            vec![Instr::Const { dst: 0, k: 0 }, Instr::Return { src: 0 }],
        );
        c.consts = vec![crate::value::Value::Num(1.0)];
        c.fuel = vec![1];
        add(
            "fuel-stream-short",
            program(c),
            "fn `f`: fuel stream length 1 does not cover 2 instructions",
        );

        add(
            "arity-exceeds-regs",
            program(chunk(3, 1, vec![Instr::Return { src: 0 }])),
            "fn `f`: arity 3 exceeds 1 registers",
        );

        add(
            "register-out-of-bounds",
            program(chunk(1, 1, vec![Instr::Return { src: 5 }])),
            "fn `f` @0000: register r5 out of bounds (n_regs 1)",
        );

        add(
            "jump-out-of-bounds",
            program(chunk(1, 1, vec![Instr::Jump { target: 9 }])),
            "fn `f` @0000: jump target 0009 out of bounds (len 1)",
        );

        add(
            "const-out-of-bounds",
            program(chunk(
                0,
                1,
                vec![Instr::Const { dst: 0, k: 3 }, Instr::Return { src: 0 }],
            )),
            "fn `f` @0000: constant k3 out of bounds (0 constants)",
        );

        add(
            "trap-out-of-bounds",
            program(chunk(0, 1, vec![Instr::Trap { t: 0 }])),
            "fn `f` @0000: trap t0 out of bounds (0 traps)",
        );

        add(
            "ecv-out-of-bounds",
            program(chunk(
                0,
                1,
                vec![Instr::Ecv { dst: 0, e: 2 }, Instr::Return { src: 0 }],
            )),
            "fn `f` @0000: ECV slot 2 out of bounds (0 ECVs)",
        );

        add(
            "symbol-out-of-bounds",
            program(chunk(
                1,
                2,
                vec![
                    Instr::Field {
                        dst: 1,
                        src: 0,
                        sym: 4,
                    },
                    Instr::Return { src: 1 },
                ],
            )),
            "fn `f` @0000: symbol 4 out of bounds (0 symbols)",
        );

        add(
            "callee-out-of-bounds",
            program(chunk(
                1,
                2,
                vec![
                    Instr::Call {
                        f: 7,
                        dst: 1,
                        base: 0,
                        n: 1,
                    },
                    Instr::Return { src: 1 },
                ],
            )),
            "fn `f` @0000: callee chunk 7 out of bounds (1 chunks)",
        );

        add(
            "call-arity-mismatch",
            program(chunk(
                1,
                2,
                vec![
                    Instr::Call {
                        f: 0,
                        dst: 1,
                        base: 0,
                        n: 2,
                    },
                    Instr::Return { src: 1 },
                ],
            )),
            "fn `f` @0000: call passes 2 arguments to `f`/1",
        );

        add(
            "argument-window-out-of-bounds",
            program(chunk(
                1,
                2,
                vec![
                    Instr::Call {
                        f: 0,
                        dst: 1,
                        base: 1,
                        n: 3,
                    },
                    Instr::Return { src: 1 },
                ],
            )),
            "fn `f` @0000: argument window r1..r4 out of bounds (n_regs 2)\n\
             fn `f` @0000: call passes 3 arguments to `f`/1",
        );

        add(
            "counter-out-of-bounds",
            program(chunk(
                1,
                1,
                vec![
                    Instr::WhileGuard { c: 1, bound: 4 },
                    Instr::Return { src: 0 },
                ],
            )),
            "fn `f` @0000: counter c1 out of bounds (n_counters 0)",
        );

        add(
            "bin-and-not-lowered",
            program(chunk(
                2,
                3,
                vec![
                    Instr::Bin {
                        op: BinOp::And,
                        dst: 2,
                        a: 0,
                        b: 1,
                    },
                    Instr::Return { src: 2 },
                ],
            )),
            "fn `f` @0000: `And` must be lowered to jumps, not a Bin instruction",
        );

        add(
            "fall-off-end",
            program(chunk(0, 1, vec![Instr::Nop])),
            "fn `f` @0000: control may fall off the end of the instruction stream",
        );

        add(
            "undefined-argument-slot",
            program(chunk(
                0,
                2,
                vec![
                    Instr::Builtin {
                        b: crate::ast::Builtin::Min,
                        dst: 0,
                        base: 0,
                        n: 2,
                    },
                    Instr::Return { src: 0 },
                ],
            )),
            "fn `f` @0000: argument slot r0 may be undefined at the call\n\
             fn `f` @0000: argument slot r1 may be undefined at the call",
        );

        add(
            "temp-read-before-assignment",
            program(chunk(
                0,
                2,
                vec![Instr::Copy { dst: 1, src: 0 }, Instr::Return { src: 1 }],
            )),
            "fn `f` @0000: temp register r0 may be read before assignment",
        );

        let mut c = chunk(
            2,
            3,
            vec![
                Instr::ForInit {
                    i: 0,
                    from: 1,
                    to: 1,
                },
                Instr::ForTest {
                    i: 0,
                    to: 1,
                    var: 2,
                    exit: 4,
                },
                Instr::Const { dst: 0, k: 0 },
                Instr::ForStep { i: 0, back: 1 },
                Instr::Return { src: 1 },
            ],
        );
        c.consts = vec![crate::value::Value::Num(0.0)];
        add(
            "induction-register-clobbered",
            program(c),
            "fn `f` @0003: induction register r0 is clobbered by the instruction at 0002",
        );

        // Corruptions of a genuinely compiled program: the verifier must
        // reject realistic near-miss artifacts, not only synthetic ones.
        let src = "interface m { fn g(n) { let s = 0; for i in 0..n { s = s + i; } return s; } }";
        let compiled = super::compile(&parse(src).expect("parses")).expect("compiles");

        let mut p = compiled.clone();
        let len = p.chunks[0].code.len();
        for instr in &mut p.chunks[0].code {
            if let Instr::ForTest { exit, .. } = instr {
                *exit = len as u32 + 5;
                break;
            }
        }
        add(
            "compiled-loop-exit-retargeted",
            p,
            &format!(
                "fn `g` @{:04}: jump target {:04} out of bounds (len {len})",
                compiled.chunks[0]
                    .code
                    .iter()
                    .position(|i| matches!(i, Instr::ForTest { .. }))
                    .expect("loop lowering emits a ForTest"),
                len + 5
            ),
        );

        let mut p = compiled.clone();
        p.chunks[0].fuel.pop();
        add(
            "compiled-fuel-truncated",
            p,
            &format!(
                "fn `g`: fuel stream length {} does not cover {len} instructions",
                len - 1
            ),
        );

        corpus
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::ecv::{EcvEnv, EcvValue};
    use crate::error::Error;
    use crate::interp::{self, EvalConfig, ExecMode};
    use crate::parser::parse;
    use crate::units::{Calibration, Energy};
    use crate::value::Value;

    /// A grab-bag interface covering loops (literal and dynamic bounds),
    /// branches, short-circuiting, recursion, builtins, units, and ECVs,
    /// plus constant shapes (literal conditions, operands and bounds),
    /// whose values, errors and fuel must match the tree-walk like any
    /// other.
    const KITCHEN_SINK: &str = r#"interface sink {
        unit page;
        ecv hit: bernoulli(0.5);
        ecv scale: uniform(0.5, 2.0);
        fn fact(n) {
            if n <= 1 { return 1; }
            return n * fact(n - 1);
        }
        fn looped(n) {
            let acc = 0;
            for i in 0..n { acc = acc + i * i; }
            let j = 0;
            while j < 5 bound 16 { j = j + 2; }
            return acc + j;
        }
        fn unit_loop() {
            let e = 0 J;
            for i in 0..4 { e = e + 3 uJ + 1 page; }
            return e;
        }
        fn logic(a, b) {
            if a > 0 && b > 0 { return min(a, b); }
            if a < 0 || b < 0 { return max(a, b); }
            return clamp(a + b, 0, 10);
        }
        fn sampled(n) {
            let base = if ecv(hit) { 1 mJ } else { 10 mJ };
            return base * n * ecv(scale) + fact(4) * 1 uJ;
        }
        fn const_if(x) {
            let k = 2;
            if true { k = k + x; } else { k = 0; }
            if false { k = 0; } else { k = k * 3; }
            let a = if true { k } else { 0 - k };
            let b = if false { 0 - a } else { a + 1 };
            return a + b;
        }
        fn const_logic(x) {
            let t = 0;
            if true && x > 0 { t = t + 1; }
            if false && x > 0 { t = t + 10; }
            if true || x > 0 { t = t + 100; }
            if false || x > 0 { t = t + 1000; }
            let u = false && 1 / 0 > 0;
            let v = true || 1 / 0 > 0;
            if u || !v { return 0 - t; }
            return t;
        }
        fn literal_for(x) {
            let s = 0;
            for i in 0..0 { s = s + 1; }
            for i in 5..2 { s = s + 10; }
            for i in 0.5..3 { s = s + i; }
            for i in -1.5..0 { s = s + i * x; }
            return s;
        }
        fn literal_for_return(x) {
            for i in 2..6 { return i * x; }
            return 0;
        }
        fn dead_div(x) {
            if false { return 1 / 0; }
            return if true { x } else { 1 / 0 };
        }
        fn live_div(x) {
            if true { return x + 1 / 0; }
            return x;
        }
        fn let_arm(x) {
            let k = 2;
            if x > 0 { k = 5; }
            return k * x;
        }
    }"#;

    fn assignment(hit: bool, scale: f64) -> BTreeMap<String, EcvValue> {
        let mut m = BTreeMap::new();
        m.insert("hit".to_string(), EcvValue::Bool(hit));
        m.insert("scale".to_string(), EcvValue::Num(scale));
        m
    }

    fn tree_cfg() -> EvalConfig {
        EvalConfig {
            mode: ExecMode::TreeWalk,
            ..EvalConfig::default()
        }
    }

    /// Runs both engines on the same call and requires identical outcomes
    /// (bit-exact values; equal error variants and payloads).
    fn differential(
        src: &str,
        func: &str,
        args: &[Value],
        ecvs: &BTreeMap<String, EcvValue>,
        fuel: u64,
    ) {
        let iface = parse(src).expect("test interface parses");
        let cfg = EvalConfig {
            fuel,
            mode: ExecMode::TreeWalk,
            ..EvalConfig::default()
        };
        let oracle = interp::eval_with_assignment(&iface, func, args, ecvs, &cfg);
        let program = compile(&iface).expect("compiles");
        let mut machine = Vm::new(&program);
        let got = machine.run(func, args, ecvs, &cfg);
        assert_eq!(
            oracle,
            got,
            "{func} diverged at fuel {fuel}\n{}",
            disassemble(&program)
        );
    }

    /// Scans every fuel budget from 0 up and requires both engines to flip
    /// from `FuelExhausted` to the same outcome (a value or another error)
    /// at the same budget. The first budget that succeeds is exactly the
    /// tree-walk's total burn, so the VM's own accounting must report it:
    /// fuel use feeds telemetry even when no budget runs out.
    fn fuel_boundary_scan(
        src: &str,
        func: &str,
        args: &[Value],
        ecvs: &BTreeMap<String, EcvValue>,
    ) {
        let iface = parse(src).expect("parses");
        let program = compile(&iface).expect("compiles");
        let mut machine = Vm::new(&program);
        for fuel in 0..2_000u64 {
            let cfg = EvalConfig {
                fuel,
                mode: ExecMode::TreeWalk,
                ..EvalConfig::default()
            };
            let oracle = interp::eval_with_assignment(&iface, func, args, ecvs, &cfg);
            let got = machine.run(func, args, ecvs, &cfg);
            assert_eq!(oracle, got, "{func} diverged at fuel budget {fuel}");
            if oracle.is_ok() {
                assert_eq!(machine.fuel_used(), fuel, "{func} fuel accounting");
            }
            if !matches!(oracle, Err(Error::FuelExhausted { .. })) {
                return; // boundary crossed identically
            }
        }
        panic!("{func} never got past fuel exhaustion within the scanned range");
    }

    #[test]
    fn kitchen_sink_values_match() {
        for (func, args) in [
            ("fact", vec![Value::Num(6.0)]),
            ("looped", vec![Value::Num(9.0)]),
            ("unit_loop", vec![]),
            ("logic", vec![Value::Num(3.0), Value::Num(4.0)]),
            ("logic", vec![Value::Num(-3.0), Value::Num(4.0)]),
            ("logic", vec![Value::Num(0.0), Value::Num(0.0)]),
            ("sampled", vec![Value::Num(2.0)]),
            ("const_if", vec![Value::Num(4.0)]),
            ("const_logic", vec![Value::Num(1.0)]),
            ("const_logic", vec![Value::Num(-1.0)]),
            ("literal_for", vec![Value::Num(2.0)]),
            ("literal_for_return", vec![Value::Num(3.0)]),
            ("dead_div", vec![Value::Num(7.0)]),
            ("live_div", vec![Value::Num(7.0)]),
            ("let_arm", vec![Value::Num(3.0)]),
            ("let_arm", vec![Value::Num(-3.0)]),
        ] {
            for (hit, scale) in [(true, 0.75), (false, 1.5)] {
                differential(
                    KITCHEN_SINK,
                    func,
                    &args,
                    &assignment(hit, scale),
                    10_000_000,
                );
            }
        }
    }

    #[test]
    fn kitchen_sink_fuel_boundaries_match() {
        for (func, args) in [
            ("fact", vec![Value::Num(6.0)]),
            ("looped", vec![Value::Num(9.0)]),
            ("unit_loop", vec![]),
            ("logic", vec![Value::Num(-3.0), Value::Num(4.0)]),
            ("sampled", vec![Value::Num(2.0)]),
            ("const_if", vec![Value::Num(4.0)]),
            ("const_logic", vec![Value::Num(1.0)]),
            ("const_logic", vec![Value::Num(-1.0)]),
            ("literal_for", vec![Value::Num(2.0)]),
            ("literal_for_return", vec![Value::Num(3.0)]),
            ("dead_div", vec![Value::Num(7.0)]),
            ("live_div", vec![Value::Num(7.0)]),
            ("let_arm", vec![Value::Num(3.0)]),
            ("let_arm", vec![Value::Num(-3.0)]),
        ] {
            fuel_boundary_scan(KITCHEN_SINK, func, &args, &assignment(true, 1.25));
        }
    }

    #[test]
    fn runtime_errors_match_the_oracle() {
        let src = r#"interface bad {
            extern fn phantom(x);
            fn div(a, b) { return a / b; }
            fn modz(a) { return a % 0; }
            fn recurse(n) { return recurse(n + 1); }
            fn unbounded() {
                let i = 0;
                while i < 10 bound 3 { i = i + 1; }
                return i;
            }
            fn badfor(n) { for i in 0..sqrt(0-1) { n = n + 1; } return n; }
            fn noreturn(n) { let x = n; }
            fn undefvar() { return ghost + 1; }
            fn assignless() { x = 3; return x; }
            fn unlinked(n) { return phantom(n); }
            fn badbool(n) { if n { return 1; } return 0; }
        }"#;
        let cases: Vec<(&str, Vec<Value>)> = vec![
            ("div", vec![Value::Num(1.0), Value::Num(0.0)]),
            ("modz", vec![Value::Num(5.0)]),
            ("recurse", vec![Value::Num(0.0)]),
            ("unbounded", vec![]),
            ("badfor", vec![Value::Num(0.0)]),
            ("noreturn", vec![Value::Num(1.0)]),
            ("undefvar", vec![]),
            ("assignless", vec![]),
            ("unlinked", vec![Value::Num(1.0)]),
            ("badbool", vec![Value::Num(1.0)]),
            ("div", vec![Value::Num(1.0)]), // entry arity
        ];
        let ecvs = BTreeMap::new();
        for (func, args) in cases {
            differential(src, func, &args, &ecvs, 10_000_000);
        }
    }

    /// Call-shape errors that static validation rejects in source form can
    /// still exist in programmatically built (or linked) interfaces; both
    /// engines must report them identically at runtime.
    #[test]
    fn invalid_call_shapes_match_the_oracle() {
        use crate::ast::{Expr, FnDef, Stmt};
        use crate::interface::Interface;

        let mut iface = Interface::new("shapes");
        iface
            .add_fn(FnDef::new(
                "two",
                vec!["a".into(), "b".into()],
                vec![Stmt::Return(Expr::var("a"))],
            ))
            .unwrap();
        let call = |name: &str| {
            vec![Stmt::Return(Expr::Call(
                name.to_string(),
                vec![Expr::Num(1.0)],
            ))]
        };
        iface
            .add_fn(FnDef::new("unknown", vec![], call("nonexistent")))
            .unwrap();
        iface
            .add_fn(FnDef::new("badarity", vec![], call("two")))
            .unwrap();
        iface
            .add_fn(FnDef::new("badbuiltin", vec![], call("min")))
            .unwrap();

        let ecvs = BTreeMap::new();
        let cfg = tree_cfg();
        let program = compile(&iface).expect("compiles");
        let mut machine = Vm::new(&program);
        for func in ["unknown", "badarity", "badbuiltin"] {
            let oracle = interp::eval_with_assignment(&iface, func, &[], &ecvs, &cfg);
            let got = machine.run(func, &[], &ecvs, &cfg);
            assert!(oracle.is_err(), "{func}");
            assert_eq!(oracle, got, "{func}");
        }
    }

    #[test]
    fn sampling_drivers_match_across_modes() {
        let iface = parse(KITCHEN_SINK).unwrap();
        let env = EcvEnv::from_decls(&iface.ecvs);
        let cal = Calibration::from_pairs([("page", Energy::microjoules(25.0))]);
        let args = [Value::Num(3.0)];
        let run = |mode: ExecMode| {
            let cfg = EvalConfig {
                calibration: cal.clone(),
                mode,
                ..EvalConfig::default()
            };
            let mc = interp::monte_carlo(&iface, "sampled", &args, &env, 300, 7, &cfg).unwrap();
            let par =
                interp::monte_carlo_par(&iface, "sampled", &args, &env, 300, 7, 4, &cfg).unwrap();
            assert_eq!(mc, par, "serial/parallel diverge under {mode:?}");
            let batch =
                interp::evaluate_batch(&iface, "unit_loop", &[vec![], vec![]], &env, 3, &cfg)
                    .unwrap();
            // Exact enumeration needs a finite ECV space: enumerate over
            // the Bernoulli ECV only (`unit_loop` reads neither).
            let mut finite = iface.ecvs.clone();
            finite.remove("scale");
            let finite_env = EcvEnv::from_decls(&finite);
            let exact =
                interp::enumerate_exact(&iface, "unit_loop", &[], &finite_env, 64, &cfg).unwrap();
            (mc, batch, exact)
        };
        let walk = run(ExecMode::TreeWalk);
        let auto = run(ExecMode::Auto);
        assert_eq!(walk, auto, "Auto diverges from the oracle");
    }

    #[test]
    fn uncalibrated_unit_errors_match() {
        let iface = parse(KITCHEN_SINK).unwrap();
        let env = EcvEnv::from_decls(&iface.ecvs);
        let run = |mode: ExecMode| {
            let cfg = EvalConfig {
                mode,
                ..EvalConfig::default()
            };
            interp::monte_carlo(&iface, "unit_loop", &[], &env, 8, 1, &cfg)
        };
        let walk = run(ExecMode::TreeWalk).unwrap_err();
        let auto = run(ExecMode::Auto).unwrap_err();
        assert_eq!(walk, auto);
        assert!(matches!(walk, Error::Uncalibrated { .. }), "{walk:?}");
    }

    #[test]
    fn disassembly_is_deterministic_and_fingerprinted() {
        let iface = parse(KITCHEN_SINK).unwrap();
        let a = compile(&iface).unwrap();
        let b = compile(&iface).unwrap();
        // A recompile reproduces the same artifact, and an edit does not.
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(disassemble(&a), disassemble(&b));
        assert!(disassemble(&a).contains("fn fact/1"));
        let edited = parse(&KITCHEN_SINK.replace("return 1; }", "return 2; }")).unwrap();
        assert_ne!(compile(&edited).unwrap().fingerprint(), a.fingerprint());
    }

    /// A decode loop shaped like GPT-2's `e_generate`: every step calls
    /// the same embedding, head and matmul kernels with the same
    /// arguments, and only the attention call varies with the context.
    const DECODE_LOOP: &str = r#"interface decode {
        fn kernel(flops, bytes) { return flops * 1 nJ + bytes * 2 pJ; }
        fn embed(tokens) { return kernel(tokens * 768, tokens * 1536); }
        fn matmul(tokens, w) { return kernel(2 * tokens * w, w * 2); }
        fn attention(tokens, ctx) { return kernel(4 * tokens * ctx * 64, ctx * 128); }
        fn layer(tokens, ctx) {
            return matmul(tokens, 2304) + attention(tokens, ctx)
                 + matmul(tokens, 768) + matmul(tokens, 3072) + matmul(tokens, 3072);
        }
        fn head() { return kernel(2 * 50257 * 768, 50257 * 1536); }
        fn step(ctx) { return embed(1) + 12 * layer(1, ctx) + head(); }
        fn generate(p, g) {
            let e = 0 J;
            for t in 1..g { e = e + step(p + t); }
            return e;
        }
    }"#;

    #[test]
    fn call_memo_skips_repeated_kernel_frames() {
        let iface = parse(DECODE_LOOP).unwrap();
        let program = compile(&iface).unwrap();
        let ecvs = BTreeMap::new();
        let cfg = EvalConfig::default();
        let args = [Value::Num(8.0), Value::Num(32.0)];
        let oracle = interp::eval_with_assignment(&iface, "generate", &args, &ecvs, &tree_cfg());

        let mut machine = Vm::new(&program);
        let first = machine.run("generate", &args, &ecvs, &cfg);
        assert_eq!(first, oracle);
        let fuel = machine.fuel_used();
        // A memo-free run executes 16 calls per step. The first of the 31
        // steps executes 15 and runs 14 frames: its second
        // `matmul(1, 3072)` is already a hit. Every later step executes
        // 10 `Call` instructions (the memo answers `embed`, `head` and the
        // matmuls without running their kernel calls), and only `step`,
        // `layer`, `attention` and the attention `kernel` see a new
        // context and run a frame.
        let (calls, frames) = machine.call_counts();
        assert_eq!((calls, frames), (15 + 30 * 10, 14 + 30 * 4));
        assert!(frames * 2 < calls, "{frames} frames for {calls} calls");

        // A repeat of the whole query executes no callee frame at all,
        // yet reports the same value and fuel.
        let again = machine.run("generate", &args, &ecvs, &cfg);
        assert_eq!(again, oracle);
        assert_eq!(machine.fuel_used(), fuel);
        assert_eq!(machine.call_counts(), (calls + 31, frames));
    }

    #[test]
    fn verifier_rejects_the_bad_chunk_corpus_with_stable_diagnostics() {
        let corpus = testing::bad_chunk_corpus();
        assert!(corpus.len() >= 15, "corpus shrank to {}", corpus.len());
        for bad in corpus {
            let errs = verify(&bad.program)
                .expect_err(&format!("corpus entry `{}` must be rejected", bad.name));
            assert_eq!(
                render_errors(&errs),
                bad.expected,
                "diagnostics drifted for corpus entry `{}`",
                bad.name
            );
        }
    }

    #[test]
    fn every_compiled_program_verifies() {
        let iface = parse(KITCHEN_SINK).unwrap();
        let program = compile(&iface).unwrap();
        verify(&program).expect("compiled output verifies");
    }
}
