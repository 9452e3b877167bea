//! Golden snapshots of the bytecode disassembler (`ei_core::vm`).
//!
//! The Fig. 1 interfaces (`examples/eil/*.eil`) plus a loop-heavy
//! compiler-stress interface are compiled and their disassembly frozen
//! byte-for-byte under `tests/golden/vm/`. The disassembly includes the
//! program fingerprint, constant pools, traps, and per-instruction fuel
//! weights, so *any* codegen change — reordered registers, a different
//! lowering, a changed fuel accounting — surfaces as a reviewable textual
//! diff rather than a silent behaviour shift.
//!
//! To regenerate after an intentional codegen change:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test --test vm_golden
//! ```
//!
//! then review the diff of `tests/golden/vm/*` like any other code change.

use std::collections::BTreeMap;

use ei_bench::golden::assert_text;
use ei_core::interp::{eval_with_assignment, EvalConfig, ExecMode};
use ei_core::value::Value;

/// A compiler-stress interface: literal and dynamic loop bounds (both
/// lower to the same `for` triple), a bounded while, short-circuit logic,
/// recursion, and cross-function calls.
const LOOPS_SRC: &str = r#"
interface loops "codegen stress: loop bounds, guards, recursion" {
    unit tick;
    ecv fast_path: bernoulli(0.5);
    fn unit_loop() {
        let e = 0 J;
        for i in 0..4 {
            e = e + 3 uJ + 1 tick;
        }
        return e;
    }
    fn dynamic(n) {
        let e = 0 J;
        for i in 0..n {
            e = e + 1 uJ;
        }
        return e;
    }
    fn guarded(x) {
        let e = 0 J;
        while x < 10 bound 16 {
            x = x + 1;
            e = e + 2 uJ;
        }
        return e;
    }
    fn fact(n) {
        if n < 2 { return 1; } else { return n * fact(n - 1); }
    }
    fn top(n) {
        if fast_path && n < 100 {
            return unit_loop() * min(fact(4), 30);
        } else {
            return dynamic(n) + guarded(0);
        }
    }
}
"#;

fn repo_path(rel: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// `(golden stem, interface source)` for every locked program.
fn corpus() -> Vec<(&'static str, String)> {
    let read = |rel: &str| {
        let p = repo_path(rel);
        std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("{}: {e}", p.display()))
    };
    vec![
        ("webservice", read("examples/eil/webservice.eil")),
        ("dram", read("examples/eil/dram.eil")),
        ("loops", LOOPS_SRC.to_string()),
    ]
}

#[test]
fn disassembly_matches_golden() {
    for (stem, src) in corpus() {
        let iface = ei_core::parser::parse(&src).unwrap_or_else(|e| panic!("{stem}: {e}"));
        let program = ei_core::vm::compile(&iface).unwrap_or_else(|e| panic!("{stem}: {e}"));
        assert_text(
            &format!("vm/{stem}.disasm"),
            &ei_core::vm::disassemble(&program),
        );
    }
}

/// Keeps the goldens honest: every locked program must still *run*, and
/// the compiled engine must agree with the tree-walk on a representative
/// call — a golden that disassembles nicely but executes wrongly is
/// worse than no golden at all.
#[test]
fn golden_programs_execute_identically_on_both_engines() {
    type Call = (
        &'static str,
        &'static str,
        Vec<Value>,
        Vec<(&'static str, bool)>,
    );
    let calls: Vec<Call> = vec![
        (
            "webservice",
            "handle",
            vec![Value::num_record([
                ("image_id", 7.0),
                ("image_size", 2048.0),
                ("image_zeros", 512.0),
            ])],
            vec![("request_hit", false), ("local_cache_hit", true)],
        ),
        (
            "dram",
            "read",
            vec![Value::Num(4096.0)],
            vec![("row_hit", true)],
        ),
        (
            "loops",
            "top",
            vec![Value::Num(7.0)],
            vec![("fast_path", true)],
        ),
        (
            "loops",
            "top",
            vec![Value::Num(200.0)],
            vec![("fast_path", false)],
        ),
    ];
    let sources: BTreeMap<&str, String> = corpus().into_iter().collect();
    for (stem, func, args, pins) in calls {
        let iface = ei_core::parser::parse(&sources[stem]).unwrap();
        let ecvs: BTreeMap<String, ei_core::ecv::EcvValue> = pins
            .into_iter()
            .map(|(n, b)| (n.to_string(), ei_core::ecv::EcvValue::Bool(b)))
            .collect();
        let cfg = EvalConfig {
            mode: ExecMode::TreeWalk,
            ..EvalConfig::default()
        };
        let oracle = format!(
            "{:?}",
            eval_with_assignment(&iface, func, &args, &ecvs, &cfg)
        );
        let program = ei_core::vm::compile(&iface).unwrap();
        let ran = ei_core::vm::Vm::new(&program).run(func, &args, &ecvs, &cfg);
        assert_eq!(oracle, format!("{ran:?}"), "{stem}.{func}: engines diverge");
        assert!(
            oracle.starts_with("Ok("),
            "{stem}.{func}: golden program fails to execute: {oracle}"
        );
    }
}
