//! The arithmetic kernels against the by-value kernels they replaced.
//!
//! The tree-walk and the VM both call [`eval_binary`] and [`eval_unary`],
//! so the engine differential suites cannot see a bug in the kernels' fast
//! paths: both engines would share it. This oracle holds the kernels, and
//! the `EnergyVec` arithmetic under them, to frozen copies of the general
//! code, which has no fast path at all. Results must match as `Err`s, or
//! as values whose float bits are equal (see [`same_f64`] for NaN), so
//! NaN results count.

use std::collections::BTreeMap;

use proptest::prelude::*;

use super::{eval_binary, eval_unary};
use crate::ast::{BinOp, UnOp};
use crate::error::{Error, Result};
use crate::units::EnergyVec;
use crate::value::Value;

/// Every operator the kernel evaluates. `And`/`Or` are short-circuited by
/// both engines before the kernel (see `logical_ops_never_reach_the_kernel`).
const KERNEL_OPS: [BinOp; 11] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Mod,
    BinOp::Eq,
    BinOp::Ne,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
];

// ---------------------------------------------------------------------------
// The reference: the kernels as they were, taking operands by value and
// walking the unit map on every energy operation.
// ---------------------------------------------------------------------------

fn ref_plus(x: &EnergyVec, y: &EnergyVec) -> EnergyVec {
    let mut out = x.clone();
    out.joules += y.joules;
    for (k, v) in &y.abstracts {
        *out.abstracts.entry(k.clone()).or_insert(0.0) += v;
    }
    out
}

fn ref_minus(x: &EnergyVec, y: &EnergyVec) -> EnergyVec {
    let mut out = x.clone();
    out.joules -= y.joules;
    for (k, v) in &y.abstracts {
        *out.abstracts.entry(k.clone()).or_insert(0.0) -= v;
    }
    out
}

fn ref_scaled(x: &EnergyVec, k: f64) -> EnergyVec {
    EnergyVec {
        joules: x.joules * k,
        abstracts: x
            .abstracts
            .iter()
            .map(|(u, v)| (u.clone(), v * k))
            .collect(),
    }
}

fn ref_unary(op: UnOp, v: Value) -> Result<Value> {
    match op {
        UnOp::Neg => match v {
            Value::Num(n) => Ok(Value::Num(-n)),
            Value::Energy(e) => Ok(Value::Energy(ref_scaled(&e, -1.0))),
            other => Err(Error::Type {
                expected: "number or energy",
                got: other.type_name().into(),
            }),
        },
        UnOp::Not => Ok(Value::Bool(!v.as_bool()?)),
    }
}

fn ref_binary(op: BinOp, a: Value, b: Value) -> Result<Value> {
    use BinOp::*;
    match op {
        Add | Sub => match (a, b) {
            (Value::Num(x), Value::Num(y)) => Ok(Value::Num(if op == Add { x + y } else { x - y })),
            (Value::Energy(x), Value::Energy(y)) => Ok(Value::Energy(if op == Add {
                ref_plus(&x, &y)
            } else {
                ref_minus(&x, &y)
            })),
            (a, b) => Err(Error::Type {
                expected: "matching operand types for +/-",
                got: format!("{} and {}", a.type_name(), b.type_name()),
            }),
        },
        Mul => match (a, b) {
            (Value::Num(x), Value::Num(y)) => Ok(Value::Num(x * y)),
            (Value::Energy(e), Value::Num(k)) | (Value::Num(k), Value::Energy(e)) => {
                Ok(Value::Energy(ref_scaled(&e, k)))
            }
            (a, b) => Err(Error::Type {
                expected: "number*number or energy*number",
                got: format!("{} and {}", a.type_name(), b.type_name()),
            }),
        },
        Div => match (a, b) {
            (Value::Num(x), Value::Num(y)) => {
                if y == 0.0 {
                    Err(Error::DivisionByZero)
                } else {
                    Ok(Value::Num(x / y))
                }
            }
            (Value::Energy(e), Value::Num(k)) => {
                if k == 0.0 {
                    Err(Error::DivisionByZero)
                } else {
                    Ok(Value::Energy(ref_scaled(&e, 1.0 / k)))
                }
            }
            (Value::Energy(x), Value::Energy(y)) => {
                let xj = x.to_energy().map_err(|_| Error::Type {
                    expected: "concrete energies for energy/energy",
                    got: "abstract energy".into(),
                })?;
                let yj = y.to_energy().map_err(|_| Error::Type {
                    expected: "concrete energies for energy/energy",
                    got: "abstract energy".into(),
                })?;
                if yj.as_joules() == 0.0 {
                    Err(Error::DivisionByZero)
                } else {
                    Ok(Value::Num(xj / yj))
                }
            }
            (a, b) => Err(Error::Type {
                expected: "number/number, energy/number, or energy/energy",
                got: format!("{} and {}", a.type_name(), b.type_name()),
            }),
        },
        Mod => {
            let x = a.as_num()?;
            let y = b.as_num()?;
            if y == 0.0 {
                Err(Error::DivisionByZero)
            } else {
                Ok(Value::Num(x.rem_euclid(y)))
            }
        }
        Eq | Ne => {
            let eq = match (&a, &b) {
                (Value::Num(x), Value::Num(y)) => x == y,
                (Value::Bool(x), Value::Bool(y)) => x == y,
                (Value::Energy(x), Value::Energy(y)) => x == y,
                _ => {
                    return Err(Error::Type {
                        expected: "matching operand types for ==",
                        got: format!("{} and {}", a.type_name(), b.type_name()),
                    })
                }
            };
            Ok(Value::Bool(if op == Eq { eq } else { !eq }))
        }
        Lt | Le | Gt | Ge => {
            let (x, y) = match (a, b) {
                (Value::Num(x), Value::Num(y)) => (x, y),
                (Value::Energy(x), Value::Energy(y)) => {
                    let xe = x.to_energy().map_err(|_| Error::Type {
                        expected: "concrete energies for comparison",
                        got: "abstract energy".into(),
                    })?;
                    let ye = y.to_energy().map_err(|_| Error::Type {
                        expected: "concrete energies for comparison",
                        got: "abstract energy".into(),
                    })?;
                    (xe.as_joules(), ye.as_joules())
                }
                (a, b) => {
                    return Err(Error::Type {
                        expected: "numbers or energies for comparison",
                        got: format!("{} and {}", a.type_name(), b.type_name()),
                    })
                }
            };
            let r = match op {
                Lt => x < y,
                Le => x <= y,
                Gt => x > y,
                Ge => x >= y,
                _ => unreachable!("comparison op"),
            };
            Ok(Value::Bool(r))
        }
        And | Or => unreachable!("logical ops are short-circuited in Eval::expr"),
    }
}

// ---------------------------------------------------------------------------
// Bit-level equality
// ---------------------------------------------------------------------------

/// Equal bits, or both NaN: Rust leaves the sign and payload of a NaN
/// result unspecified, so two evaluations of the same `x + y` may differ
/// there. Everything else, the sign of zero included, must match exactly.
fn same_f64(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

fn same_vec(x: &EnergyVec, y: &EnergyVec) -> bool {
    same_f64(x.joules, y.joules)
        && x.abstracts.len() == y.abstracts.len()
        && x.abstracts
            .iter()
            .zip(&y.abstracts)
            .all(|((ku, va), (kv, vb))| ku == kv && same_f64(*va, *vb))
}

fn same_value(x: &Value, y: &Value) -> bool {
    match (x, y) {
        (Value::Num(a), Value::Num(b)) => same_f64(*a, *b),
        (Value::Bool(a), Value::Bool(b)) => a == b,
        (Value::Energy(a), Value::Energy(b)) => same_vec(a, b),
        (Value::Record(a), Value::Record(b)) => {
            a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|((ka, va), (kb, vb))| ka == kb && same_value(va, vb))
        }
        _ => false,
    }
}

fn same_result(x: &Result<Value>, y: &Result<Value>) -> bool {
    match (x, y) {
        (Ok(a), Ok(b)) => same_value(a, b),
        (Err(a), Err(b)) => a == b,
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// Operands
// ---------------------------------------------------------------------------

/// Any float bit pattern (NaN payloads and subnormals included), with the
/// special values and small integers (so that ties, zero divisors and exact
/// equalities occur) drawn often.
fn num() -> impl Strategy<Value = f64> {
    prop_oneof![
        4 => any::<u64>().prop_map(f64::from_bits),
        1 => Just(f64::NAN),
        1 => Just(-f64::NAN),
        1 => Just(0.0),
        1 => Just(-0.0),
        1 => Just(f64::INFINITY),
        1 => Just(f64::NEG_INFINITY),
        1 => Just(f64::from_bits(1)),
        1 => Just(-f64::MIN_POSITIVE / 4.0),
        3 => (0u32..7).prop_map(|i| f64::from(i) - 3.0),
    ]
}

/// A unit amount: often exactly zero, so zero-amount entries are common.
fn amount() -> impl Strategy<Value = f64> {
    prop_oneof![1 => Just(0.0), 2 => num()]
}

/// Pure-Joule vectors, and vectors with one or two unit entries.
fn energy() -> impl Strategy<Value = EnergyVec> {
    let units = prop_oneof![
        amount().prop_map(|a| vec![("relu", a)]),
        amount().prop_map(|a| vec![("conv2d", a)]),
        (amount(), amount()).prop_map(|(a, b)| vec![("relu", a), ("conv2d", b)]),
    ];
    prop_oneof![
        num().prop_map(EnergyVec::from_joules),
        (num(), units).prop_map(|(j, us)| EnergyVec {
            joules: j,
            abstracts: us
                .into_iter()
                .map(|(u, a)| (u.to_string(), a))
                .collect::<BTreeMap<_, _>>(),
        }),
    ]
}

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        3 => num().prop_map(Value::Num),
        1 => any::<bool>().prop_map(Value::Bool),
        3 => energy().prop_map(Value::Energy),
        1 => num().prop_map(|x| Value::record([("a", Value::Num(x))])),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn binary_kernel_matches_the_by_value_reference(a in value(), b in value()) {
        for op in KERNEL_OPS {
            let got = eval_binary(op, &a, &b);
            let want = ref_binary(op, a.clone(), b.clone());
            prop_assert!(
                same_result(&got, &want),
                "{:?}({:?}, {:?}): kernel {:?}, reference {:?}", op, a, b, got, want
            );
        }
    }

    #[test]
    fn unary_kernel_matches_the_by_value_reference(v in value()) {
        for op in [UnOp::Neg, UnOp::Not] {
            let got = eval_unary(op, &v);
            let want = ref_unary(op, v.clone());
            prop_assert!(
                same_result(&got, &want),
                "{:?}({:?}): kernel {:?}, reference {:?}", op, v, got, want
            );
        }
    }

    #[test]
    fn energy_arithmetic_matches_the_componentwise_reference(
        x in energy(),
        y in energy(),
        k in num(),
    ) {
        let cases = [
            ("plus", x.plus(&y), ref_plus(&x, &y)),
            ("minus", x.minus(&y), ref_minus(&x, &y)),
            ("scaled", x.scaled(k), ref_scaled(&x, k)),
        ];
        for (name, got, want) in cases {
            prop_assert!(
                same_vec(&got, &want),
                "{name}({:?}, {:?}, k = {k:?}): got {:?}, reference {:?}", x, y, got, want
            );
        }
    }
}

#[test]
fn logical_ops_never_reach_the_kernel() {
    let operands = [
        (Value::Num(1.0), Value::Num(2.0)),
        (Value::Bool(true), Value::Bool(false)),
    ];
    for op in [BinOp::And, BinOp::Or] {
        for (a, b) in &operands {
            let fast = std::panic::catch_unwind(|| eval_binary(op, a, b));
            let reference = std::panic::catch_unwind(|| ref_binary(op, a.clone(), b.clone()));
            assert!(
                fast.is_err() && reference.is_err(),
                "{op:?} must be unreachable"
            );
        }
    }
}
