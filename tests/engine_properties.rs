//! Properties of the deterministic parallel Monte-Carlo engine and the
//! evaluation cache, over randomly generated ECV-bearing interfaces.
//!
//! The load-bearing claim (DESIGN.md §engine): `monte_carlo_par` produces a
//! sample vector *identical* to serial `monte_carlo` for any thread count,
//! because both draw each fixed-size chunk from its own RNG seeded by
//! `(seed, chunk_index)`. The assertions below are exact (`==` on
//! `EnergyDist`), not tolerance-based.

use proptest::prelude::*;

use ei_core::ast::{BinOp, Builtin, Expr, FnDef, Stmt};
use ei_core::cache::{fingerprint_interface, EvalCache};
use ei_core::dist::EnergyDist;
use ei_core::ecv::{DistSpec, EcvDecl, EcvEnv};
use ei_core::interface::Interface;
use ei_core::interp::{
    eval_with_assignment, evaluate_batch, evaluate_energy, expected_energy, mc_chunk_seed,
    monte_carlo, monte_carlo_par, EvalConfig, ExecMode, MC_CHUNK,
};
use ei_core::parser::parse;
use ei_core::units::{Calibration, Energy};
use ei_core::value::Value;
use rand::rngs::StdRng;
use rand::SeedableRng;

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

fn arb_ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,6}".prop_filter("not a keyword/builtin/suffix", |s| {
        !ei_core::parser::KEYWORDS.contains(&s.as_str())
            && Builtin::from_name(s).is_none()
            && !["mj", "uj", "nj", "pj", "kj", "j", "wh"].contains(&s.as_str())
    })
}

fn arb_dist_spec() -> impl Strategy<Value = DistSpec> {
    prop_oneof![
        (0.0f64..=1.0).prop_map(|p| DistSpec::Bernoulli { p }),
        (0.0f64..100.0, 0.0f64..100.0).prop_map(|(a, b)| DistSpec::Uniform {
            lo: a.min(b),
            hi: a.max(b)
        }),
        (0.0f64..50.0, 0.0f64..5.0).prop_map(|(m, s)| DistSpec::Normal {
            mean: m,
            std_dev: s
        }),
        (0.0f64..100.0).prop_map(|v| DistSpec::Point { value: v }),
        proptest::collection::vec((0.0f64..100.0, 1u32..5), 1..4).prop_map(|raw| {
            let total: u32 = raw.iter().map(|(_, w)| w).sum();
            DistSpec::Discrete {
                outcomes: raw
                    .into_iter()
                    .map(|(v, w)| (v, w as f64 / total as f64))
                    .collect(),
            }
        }),
    ]
}

/// An interface whose `f(x)` mixes every declared ECV into the result, so
/// Monte-Carlo output is sensitive to the exact per-sample RNG stream.
/// Boolean ECVs (bernoulli) contribute through an if-expression; numeric
/// ones multiply a coefficient.
fn arb_ecv_interface() -> impl Strategy<Value = Interface> {
    (
        proptest::collection::btree_set(arb_ident(), 1..4),
        proptest::collection::vec(arb_dist_spec(), 3),
        proptest::collection::vec(1u32..100, 3),
    )
        .prop_map(|(names, dists, coefs)| {
            let mut iface = Interface::new("gen");
            let mut expr = Expr::var("x");
            for ((name, dist), c) in names.iter().zip(dists).zip(coefs) {
                let is_bool = matches!(dist, DistSpec::Bernoulli { .. });
                iface
                    .add_ecv(
                        name.clone(),
                        EcvDecl {
                            dist,
                            doc: String::new(),
                        },
                    )
                    .unwrap();
                let term = if is_bool {
                    Expr::IfExpr(
                        Box::new(Expr::Ecv(name.clone())),
                        Box::new(Expr::Num(c as f64)),
                        Box::new(Expr::Num(0.0)),
                    )
                } else {
                    Expr::bin(BinOp::Mul, Expr::Ecv(name.clone()), Expr::Num(c as f64))
                };
                expr = Expr::bin(BinOp::Add, expr, term);
            }
            iface
                .add_fn(FnDef::new(
                    "f",
                    vec!["x".into()],
                    vec![Stmt::Return(Expr::BuiltinCall(Builtin::Joules, vec![expr]))],
                ))
                .unwrap();
            iface
        })
}

/// Builds a tiny deterministic interface `f(x) = coef J * x` for the cache
/// properties.
fn coef_interface(coef: f64) -> Interface {
    let mut iface = Interface::new("coef");
    iface
        .add_fn(FnDef::new(
            "f",
            vec!["x".into()],
            vec![Stmt::Return(Expr::BuiltinCall(
                Builtin::Joules,
                vec![Expr::bin(BinOp::Mul, Expr::Num(coef), Expr::var("x"))],
            ))],
        ))
        .unwrap();
    iface
}

// ---------------------------------------------------------------------------
// Parallel-vs-serial identity
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `monte_carlo_par` must reproduce serial `monte_carlo` exactly —
    /// same samples, same order — for every thread count.
    #[test]
    fn parallel_monte_carlo_is_sample_identical_to_serial(
        iface in arb_ecv_interface(),
        seed: u64,
        n in 0usize..600,
        threads in prop_oneof![Just(1usize), Just(2), Just(4), Just(8)],
        x in 0.0f64..100.0,
    ) {
        let cfg = EvalConfig::default();
        let env = iface.ecv_env();
        let args = [Value::Num(x)];
        let serial = monte_carlo(&iface, "f", &args, &env, n, seed, &cfg);
        let parallel = monte_carlo_par(&iface, "f", &args, &env, n, seed, threads, &cfg);
        match (serial, parallel) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(a), Err(b)) => prop_assert_eq!(format!("{a:?}"), format!("{b:?}")),
            (a, b) => prop_assert!(false, "serial {a:?} vs parallel {b:?}"),
        }
    }

    /// Chunk boundaries are invisible: exact `k * MC_CHUNK` sample counts
    /// and off-by-one neighbours agree between serial and parallel too.
    #[test]
    fn parallel_identity_at_chunk_boundaries(
        iface in arb_ecv_interface(),
        seed: u64,
        k in 1usize..4,
        delta in prop_oneof![Just(-1i64), Just(0), Just(1)],
        threads in prop_oneof![Just(2usize), Just(8)],
    ) {
        let n = (k * MC_CHUNK) as i64 + delta;
        let n = n.max(0) as usize;
        let cfg = EvalConfig::default();
        let env = iface.ecv_env();
        let args = [Value::Num(1.0)];
        let serial = monte_carlo(&iface, "f", &args, &env, n, seed, &cfg).unwrap();
        let parallel =
            monte_carlo_par(&iface, "f", &args, &env, n, seed, threads, &cfg).unwrap();
        prop_assert_eq!(serial, parallel);
    }

    /// `evaluate_batch` is exactly per-argset `evaluate_energy` with the
    /// same seed.
    #[test]
    fn batch_matches_singleton_evaluations(
        iface in arb_ecv_interface(),
        seed: u64,
        xs in proptest::collection::vec(0.0f64..100.0, 0..8),
    ) {
        let cfg = EvalConfig::default();
        let env = iface.ecv_env();
        let argsets: Vec<Vec<Value>> = xs.iter().map(|&x| vec![Value::Num(x)]).collect();
        let batch = evaluate_batch(&iface, "f", &argsets, &env, seed, &cfg).unwrap();
        prop_assert_eq!(batch.len(), argsets.len());
        for (args, b) in argsets.iter().zip(&batch) {
            let single = evaluate_energy(&iface, "f", args, &env, seed, &cfg).unwrap();
            prop_assert_eq!(single, *b);
        }
    }
}

// ---------------------------------------------------------------------------
// EvalCache properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Hit and miss paths return identical answers, and both match the
    /// uncached evaluation.
    #[test]
    fn cache_hit_and_miss_agree_with_uncached(
        iface in arb_ecv_interface(),
        x in 0.0f64..100.0,
    ) {
        let cfg = EvalConfig::default();
        let args = [Value::Num(x)];
        let cache = EvalCache::new();
        let cold = cache.expected_energy_cached(&iface, "f", &args, &cfg).unwrap();
        let warm = cache.expected_energy_cached(&iface, "f", &args, &cfg).unwrap();
        let direct = expected_energy(&iface, "f", &args, &cfg).unwrap();
        prop_assert_eq!(cold, warm);
        prop_assert_eq!(cold, direct);
        let stats = cache.stats();
        prop_assert_eq!(stats.misses, 1);
        prop_assert_eq!(stats.hits, 1);
    }

    /// Mutating an interface in place changes its fingerprint, so a shared
    /// cache immediately serves the *new* answer — never the stale one.
    #[test]
    fn cache_invalidates_on_interface_mutation(
        c1 in 1u32..1000,
        c2 in 1u32..1000,
        x in 1.0f64..100.0,
    ) {
        let cfg = EvalConfig::default();
        let args = [Value::Num(x)];
        let cache = EvalCache::new();

        let mut iface = coef_interface(c1 as f64);
        let fp_before = fingerprint_interface(&iface);
        let e1 = cache.expected_energy_cached(&iface, "f", &args, &cfg).unwrap();

        // In-place mutation: rewrite the function body's coefficient.
        iface.fns.get_mut("f").unwrap().body = vec![Stmt::Return(Expr::BuiltinCall(
            Builtin::Joules,
            vec![Expr::bin(BinOp::Mul, Expr::Num(c2 as f64), Expr::var("x"))],
        ))];

        let e2 = cache.expected_energy_cached(&iface, "f", &args, &cfg).unwrap();
        let direct = expected_energy(&iface, "f", &args, &cfg).unwrap();
        prop_assert_eq!(e2, direct);
        if c1 != c2 {
            prop_assert_ne!(fp_before, fingerprint_interface(&iface));
            prop_assert_ne!(e1, e2);
        } else {
            prop_assert_eq!(e1, e2);
        }
    }

    /// Equal content ⇒ equal fingerprint, independently constructed.
    #[test]
    fn fingerprint_depends_only_on_content(c in 1u32..1000) {
        let a = coef_interface(c as f64);
        let b = coef_interface(c as f64);
        prop_assert_eq!(fingerprint_interface(&a), fingerprint_interface(&b));
    }
}

// ---------------------------------------------------------------------------
// Deterministic spot checks
// ---------------------------------------------------------------------------

/// `n_threads = 0` (auto) must also match serial output.
#[test]
fn auto_thread_count_matches_serial() {
    let mut iface = Interface::new("auto");
    iface
        .add_ecv(
            "load",
            EcvDecl {
                dist: DistSpec::Uniform { lo: 0.0, hi: 10.0 },
                doc: String::new(),
            },
        )
        .unwrap();
    iface
        .add_fn(FnDef::new(
            "f",
            vec![],
            vec![Stmt::Return(Expr::BuiltinCall(
                Builtin::Joules,
                vec![Expr::Ecv("load".into())],
            ))],
        ))
        .unwrap();
    let cfg = EvalConfig::default();
    let env = iface.ecv_env();
    let serial = monte_carlo(&iface, "f", &[], &env, 1000, 42, &cfg).unwrap();
    let auto = monte_carlo_par(&iface, "f", &[], &env, 1000, 42, 0, &cfg).unwrap();
    assert_eq!(serial, auto);
}

/// Errors surface deterministically: the first failing chunk in chunk order
/// wins, matching what the serial loop reports.
#[test]
fn parallel_error_matches_serial_error() {
    // `f` divides by (x - ecv) where the ECV eventually hits the failing
    // value; both serial and parallel must report the same error.
    let mut iface = Interface::new("err");
    iface
        .add_ecv(
            "d",
            EcvDecl {
                dist: DistSpec::Discrete {
                    outcomes: vec![(0.0, 0.5), (1.0, 0.5)],
                },
                doc: String::new(),
            },
        )
        .unwrap();
    iface
        .add_fn(FnDef::new(
            "f",
            vec![],
            vec![Stmt::Return(Expr::BuiltinCall(
                Builtin::Joules,
                vec![Expr::bin(BinOp::Div, Expr::Num(1.0), Expr::Ecv("d".into()))],
            ))],
        ))
        .unwrap();
    let cfg = EvalConfig::default();
    let env = iface.ecv_env();
    let serial = monte_carlo(&iface, "f", &[], &env, 2000, 3, &cfg).unwrap_err();
    for threads in [1, 2, 4, 8] {
        let par = monte_carlo_par(&iface, "f", &[], &env, 2000, 3, threads, &cfg).unwrap_err();
        assert_eq!(format!("{serial:?}"), format!("{par:?}"));
    }
}

// ---------------------------------------------------------------------------
// Assignment-memo scope
// ---------------------------------------------------------------------------

/// Bernoulli-only, so a 384-sample run repeats a handful of assignments
/// across every chunk: the compiled samplers execute each one once per
/// call (per worker) and replay it afterwards. `f` divides by zero on the
/// assignment `a && b && c`.
const MEMO_SRC: &str = r#"interface memo {
    unit tick;
    ecv a: bernoulli(0.3);
    ecv b: bernoulli(0.3);
    ecv c: bernoulli(0.1);
    fn f(x) {
        let d = if a && b && c { 0 } else { 1 };
        let extra = if b { 3 tick } else { 1 tick };
        return x * 1 mJ / d + (if a { 2 mJ } else { 5 mJ }) + extra;
    }
}"#;

const MEMO_N: usize = 6 * MC_CHUNK;

/// Per-sample reference: every sample drawn with `sample_assignment` from
/// its chunk's stream and evaluated alone on the tree-walk.
fn memo_reference(
    iface: &Interface,
    env: &EcvEnv,
    seed: u64,
    cfg: &EvalConfig,
) -> Vec<ei_core::Result<Energy>> {
    let tree = EvalConfig {
        mode: ExecMode::TreeWalk,
        ..cfg.clone()
    };
    let mut out = Vec::new();
    for chunk in 0..MEMO_N.div_ceil(MC_CHUNK) {
        let mut rng = StdRng::seed_from_u64(mc_chunk_seed(seed, chunk as u64));
        for _ in 0..MC_CHUNK {
            let assignment = env.sample_assignment(&mut rng);
            out.push(
                eval_with_assignment(iface, "f", &[Value::Num(2.0)], &assignment, &tree)
                    .and_then(|v| v.into_energy()?.calibrate(&cfg.calibration)),
            );
        }
    }
    out
}

/// Every Monte-Carlo entry point and engine, in the order the test reports.
fn memo_runs(
    iface: &Interface,
    env: &EcvEnv,
    seed: u64,
    cfg: &EvalConfig,
) -> Vec<(String, ei_core::Result<EnergyDist>)> {
    let args = [Value::Num(2.0)];
    let mut runs = Vec::new();
    for mode in [ExecMode::Compiled, ExecMode::TreeWalk] {
        let cfg = EvalConfig {
            mode,
            ..cfg.clone()
        };
        runs.push((
            format!("{mode:?} serial"),
            monte_carlo(iface, "f", &args, env, MEMO_N, seed, &cfg),
        ));
        for threads in [1, 2, 8] {
            runs.push((
                format!("{mode:?} x{threads}"),
                monte_carlo_par(iface, "f", &args, env, MEMO_N, seed, threads, &cfg),
            ));
        }
    }
    runs
}

/// A memoized run reports the same first error as the memo-free tree-walk,
/// serially and at every thread count, when the failing assignment first
/// appears chunks after the memo has filled.
#[test]
fn memo_reports_the_first_error_across_chunks() {
    let iface = parse(MEMO_SRC).unwrap();
    let env = iface.ecv_env();
    let cfg = EvalConfig {
        calibration: Calibration::from_pairs([("tick", Energy::microjoules(1.0))]),
        ..EvalConfig::default()
    };
    // The first seed whose first failing sample lies in chunk 2 or later.
    let seed = (0..10_000u64)
        .find(|&seed| {
            let first = memo_reference(&iface, &env, seed, &cfg)
                .iter()
                .position(Result::is_err);
            first.is_some_and(|i| i >= 2 * MC_CHUNK)
        })
        .expect("some seed fails late");
    for (label, run) in memo_runs(&iface, &env, seed, &cfg) {
        assert_eq!(
            format!("{:?}", run),
            format!("{:?}", Err::<(), _>(ei_core::Error::DivisionByZero)),
            "{label}"
        );
    }
}

/// On the success path every sample of every run is bit-identical to
/// evaluating that sample alone.
#[test]
fn memo_samples_match_per_sample_evaluation() {
    let iface = parse(MEMO_SRC).unwrap();
    let mut env = iface.ecv_env();
    env.pin_bool("c", false);
    let cfg = EvalConfig {
        calibration: Calibration::from_pairs([("tick", Energy::microjoules(1.0))]),
        ..EvalConfig::default()
    };
    let expect: Vec<u64> = memo_reference(&iface, &env, 17, &cfg)
        .into_iter()
        .map(|e| e.unwrap().as_joules().to_bits())
        .collect();
    for (label, run) in memo_runs(&iface, &env, 17, &cfg) {
        let got: Vec<u64> = run
            .unwrap()
            .to_samples()
            .iter()
            .map(|e| e.as_joules().to_bits())
            .collect();
        assert_eq!(got, expect, "{label}");
    }
}
