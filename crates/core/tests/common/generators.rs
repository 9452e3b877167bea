//! Shared proptest generators for EIL interfaces.
//!
//! Used by the core property suite (`crates/core/tests/proptests.rs`) and
//! the workspace-level VM differential suite (`tests/vm_differential.rs`)
//! via `#[path]` includes, so both test the same distribution of programs.

#![allow(dead_code)]

use proptest::prelude::*;

use ei_core::ast::{BinOp, Builtin, Expr, FnDef, Stmt, UnOp};
use ei_core::ecv::{DistSpec, EcvDecl};
use ei_core::interface::{InputSpec, Interface};

/// Small positive literal that prints and re-parses losslessly.
pub fn arb_lit() -> impl Strategy<Value = f64> {
    prop_oneof![
        (0u32..1000).prop_map(|n| n as f64),
        (1u32..10_000).prop_map(|n| n as f64 / 100.0),
    ]
}

pub fn arb_ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,8}".prop_filter("not a keyword/builtin/suffix", |s| {
        !ei_core::parser::KEYWORDS.contains(&s.as_str())
            && Builtin::from_name(s).is_none()
            && !["mj", "uj", "nj", "pj", "kj", "j", "wh"].contains(&s.as_str())
    })
}

/// Numeric expressions over one scalar parameter `x`.
///
/// Negation wraps only non-literals: the parser folds `-5` into `Num(-5)`,
/// so `Unary(Neg, Num(5))` would not round-trip. The comparison node
/// `if a < b { t } else { e }` (or `<=`) sometimes compares `a` with
/// itself, where the two operators disagree.
pub fn arb_num_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![arb_lit().prop_map(Expr::Num), Just(Expr::var("x")),];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::bin(BinOp::Add, a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::bin(BinOp::Sub, a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::bin(BinOp::Mul, a, b)),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Expr::BuiltinCall(Builtin::Min, vec![a, b])),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Expr::BuiltinCall(Builtin::Max, vec![a, b])),
            inner
                .clone()
                .prop_map(|a| Expr::BuiltinCall(Builtin::Abs, vec![a])),
            inner
                .clone()
                .prop_filter("a negated literal folds on re-parse", |a| {
                    !matches!(a, Expr::Num(_))
                })
                .prop_map(|a| Expr::Unary(UnOp::Neg, Box::new(a))),
            (
                inner.clone(),
                inner.clone(),
                inner.clone(),
                any::<bool>(),
                any::<bool>()
            )
                .prop_map(|(a, b, e, le, itself)| {
                    let op = if le { BinOp::Le } else { BinOp::Lt };
                    let rhs = if itself { a.clone() } else { b.clone() };
                    Expr::IfExpr(Box::new(Expr::bin(op, a, rhs)), Box::new(b), Box::new(e))
                }),
        ]
    })
}

/// A random single-function interface `fn f(x) { return joules(<num expr>); }`.
pub fn arb_numeric_interface() -> impl Strategy<Value = Interface> {
    arb_num_expr().prop_map(|e| {
        let mut i = Interface::new("gen");
        i.add_fn(FnDef::new(
            "f",
            vec!["x".into()],
            vec![Stmt::Return(Expr::BuiltinCall(Builtin::Joules, vec![e]))],
        ))
        .unwrap();
        i
    })
}

pub fn arb_dist_spec() -> impl Strategy<Value = DistSpec> {
    prop_oneof![
        (0.0f64..=1.0).prop_map(|p| DistSpec::Bernoulli { p }),
        (arb_lit(), arb_lit()).prop_map(|(a, b)| DistSpec::Uniform {
            lo: a.min(b),
            hi: a.max(b)
        }),
        (arb_lit(), 0.0f64..5.0).prop_map(|(m, s)| DistSpec::Normal {
            mean: m,
            std_dev: s
        }),
        arb_lit().prop_map(|v| DistSpec::Point { value: v }),
        proptest::collection::vec((arb_lit(), 1u32..5), 1..4).prop_map(|raw| {
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

/// Arbitrary finite non-negative f64, drawn from raw bit patterns so the
/// full exponent range (denormals included) is exercised.
pub fn arb_pos_float() -> impl Strategy<Value = f64> {
    any::<u64>()
        .prop_map(|b| f64::from_bits(b & !(1u64 << 63)))
        .prop_filter("finite", |v| v.is_finite())
}

/// Unit names that cannot collide with keywords, energy suffixes, or the
/// variable names the rich generator uses.
pub fn arb_unit_name() -> impl Strategy<Value = String> {
    arb_ident().prop_map(|s| format!("u_{s}"))
}

/// A two-function interface exercising units, energy literals (with
/// extreme-magnitude floats), both loop forms, if/else, and a
/// cross-function call — everything the printer must round-trip.
///
/// Leaves arrive as raw `(concrete?, unit pick, magnitude)` triples and are
/// resolved against the generated unit set inside the map (the vendored
/// strategy combinators have no `prop_flat_map`).
pub fn arb_rich_interface() -> impl Strategy<Value = Interface> {
    (
        proptest::collection::btree_set(arb_unit_name(), 1..3),
        proptest::collection::vec((any::<bool>(), any::<u64>(), arb_pos_float()), 3),
        (arb_lit(), 1u32..24, 1u64..8, any::<bool>()),
    )
        .prop_map(|(units, raw_leaves, (thr, trips, bound, use_while))| {
            let names: Vec<&String> = units.iter().collect();
            let leaves: Vec<Expr> = raw_leaves
                .into_iter()
                .map(|(concrete, pick, v)| {
                    if concrete {
                        Expr::Joules(v)
                    } else {
                        Expr::Unit(names[pick as usize % names.len()].clone(), v)
                    }
                })
                .collect();
            let mut i = Interface::new("rich");
            for u in &units {
                i.add_unit(u.clone());
            }
            let accumulate = Stmt::Assign(
                "e".into(),
                Expr::bin(BinOp::Add, Expr::var("e"), leaves[0].clone()),
            );
            let looped = if use_while {
                Stmt::While {
                    cond: Expr::bin(BinOp::Lt, Expr::var("x"), Expr::Num(thr)),
                    bound,
                    body: vec![accumulate],
                }
            } else {
                Stmt::For {
                    var: "i".into(),
                    from: Expr::Num(0.0),
                    to: Expr::Num(f64::from(trips)),
                    body: vec![accumulate],
                }
            };
            i.add_fn(FnDef::new(
                "work",
                vec!["x".into()],
                vec![
                    Stmt::Let("e".into(), Expr::Joules(0.0)),
                    looped,
                    Stmt::If(
                        Expr::bin(BinOp::Lt, Expr::var("x"), Expr::Num(thr)),
                        vec![Stmt::Return(Expr::var("e"))],
                        vec![Stmt::Return(Expr::bin(
                            BinOp::Add,
                            Expr::var("e"),
                            leaves[1].clone(),
                        ))],
                    ),
                ],
            ))
            .unwrap();
            i.add_fn(FnDef::new(
                "top",
                vec!["y".into()],
                vec![Stmt::Return(Expr::bin(
                    BinOp::Add,
                    Expr::Call("work".into(), vec![Expr::var("y")]),
                    leaves[2].clone(),
                ))],
            ))
            .unwrap();
            i
        })
}

/// [`arb_rich_interface`] plus sampled ECVs and an `entry` function whose
/// control flow depends on them — the distribution the VM differential
/// suite evaluates under both engines.
pub fn arb_vm_interface() -> impl Strategy<Value = Interface> {
    (arb_rich_interface(), 0.0f64..=1.0, (arb_lit(), arb_lit())).prop_map(|(mut i, p, (a, b))| {
        i.add_ecv(
            "hot",
            EcvDecl {
                dist: DistSpec::Bernoulli { p },
                doc: String::new(),
            },
        )
        .unwrap();
        i.add_ecv(
            "mix",
            EcvDecl {
                dist: DistSpec::Uniform {
                    lo: a.min(b),
                    hi: a.max(b),
                },
                doc: String::new(),
            },
        )
        .unwrap();
        i.add_fn(FnDef::new(
            "entry",
            vec!["z".into()],
            vec![Stmt::If(
                Expr::Ecv("hot".into()),
                vec![Stmt::Return(Expr::bin(
                    BinOp::Mul,
                    Expr::Call("top".into(), vec![Expr::var("z")]),
                    Expr::Ecv("mix".into()),
                ))],
                vec![Stmt::Return(Expr::Call(
                    "work".into(),
                    vec![Expr::var("z")],
                ))],
            )],
        ))
        .unwrap();
        i
    })
}

/// `fn acc(n, x)`: a `for` loop whose trip count is the parameter `n` and
/// whose two-statement body feeds one accumulator into the next, so the
/// second statement reads the first one's post-update value:
///
/// ```text
/// let a = <a0> mJ; let b = <b0> mJ;
/// for i in 0..n { a = a + <d> * <k> * 1 mJ; b = b + a * <m>; }
/// if ecv(hot) { return b + <t> * 1 mJ; } else { return b; }
/// ```
///
/// `<k>` and `<m>` are each `1`, `x`, `i` or `ecv(mix)`; `<t>` is `1`,
/// `x` or `ecv(mix)`. `<d>` may be negative, so `a` can cross zero inside
/// the loop. The input spec is `n` in `[0, trips]`, `x` in `[0, 4]`.
pub fn arb_accumulator_interface() -> impl Strategy<Value = Interface> {
    (
        (0u32..=6, 0u32..=20, -3i32..=3, 1u32..=6),
        (0u32..4, 0u32..4, 0u32..3),
        (-2i32..=2, 0u32..=3, 0.0f64..=1.0),
    )
        .prop_map(|((a0, b0, d, trips), (k, m, t), (mix_lo, mix_w, p))| {
            let factor = |pick: u32| match pick {
                0 => Expr::Num(1.0),
                1 => Expr::var("x"),
                2 => Expr::var("i"),
                _ => Expr::Ecv("mix".into()),
            };
            let mj = |k: f64| Expr::Joules(k * 1e-3);
            let mut i = Interface::new("acc");
            i.add_ecv(
                "hot",
                EcvDecl {
                    dist: DistSpec::Bernoulli { p },
                    doc: String::new(),
                },
            )
            .unwrap();
            i.add_ecv(
                "mix",
                EcvDecl {
                    dist: DistSpec::Uniform {
                        lo: f64::from(mix_lo),
                        hi: f64::from(mix_lo) + f64::from(mix_w),
                    },
                    doc: String::new(),
                },
            )
            .unwrap();
            let step_a = Expr::bin(
                BinOp::Mul,
                Expr::bin(BinOp::Mul, Expr::Num(f64::from(d)), factor(k)),
                mj(1.0),
            );
            let step_b = Expr::bin(BinOp::Mul, Expr::var("a"), factor(m));
            let tail = Expr::bin(BinOp::Mul, factor([0, 1, 3][t as usize]), mj(1.0));
            i.add_fn(FnDef::new(
                "acc",
                vec!["n".into(), "x".into()],
                vec![
                    Stmt::Let("a".into(), mj(f64::from(a0))),
                    Stmt::Let("b".into(), mj(f64::from(b0))),
                    Stmt::For {
                        var: "i".into(),
                        from: Expr::Num(0.0),
                        to: Expr::var("n"),
                        body: vec![
                            Stmt::Assign("a".into(), Expr::bin(BinOp::Add, Expr::var("a"), step_a)),
                            Stmt::Assign("b".into(), Expr::bin(BinOp::Add, Expr::var("b"), step_b)),
                        ],
                    },
                    Stmt::If(
                        Expr::Ecv("hot".into()),
                        vec![Stmt::Return(Expr::bin(BinOp::Add, Expr::var("b"), tail))],
                        vec![Stmt::Return(Expr::var("b"))],
                    ),
                ],
            ))
            .unwrap();
            i.set_input_spec(
                "acc",
                InputSpec::new()
                    .range("n", 0.0, f64::from(trips))
                    .range("x", 0.0, 4.0),
            );
            i
        })
}
