//! The EIL interpreter.
//!
//! "A resource manager can execute the interface to know a priori the energy
//! that the resource would consume if run with a particular workload" (§2).
//! This module is that execution engine's front door. Every driver —
//! single-shot evaluation, and the Monte Carlo, batch evaluation and exact
//! enumeration that turn ECV-reading interfaces into [`EnergyDist`]s —
//! runs the bytecode VM ([`crate::vm`]) on the verified program the
//! interface carries, compiled on first use and again only when the
//! interface's content changes. [`ExecMode::TreeWalk`] runs the
//! deterministic tree-walking evaluator defined here instead: the
//! memo-free reference the VM is held to. Both engines carry an explicit
//! fuel budget, so any interface terminates.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::SeedableRng;

use ei_telemetry as telemetry;
use telemetry::SpanKind;

use crate::ast::{BinOp, Builtin, Expr, FnDef, Stmt, UnOp};
use crate::dist::EnergyDist;
use crate::ecv::{EcvEnv, EcvSampler, EcvValue};
use crate::error::{Error, NameKind, Result};
use crate::interface::Interface;
use crate::units::{Calibration, Energy, EnergyVec, InternedCalibration};
use crate::value::Value;
use crate::vm;

/// Default fuel budget: enough for hundreds of thousands of statements.
pub const DEFAULT_FUEL: u64 = 10_000_000;

/// Default maximum call depth.
///
/// Energy interfaces are shallow by construction (one level per layer of the
/// system stack), and the tree-walking evaluator uses several host stack
/// frames per EIL call, so the default is deliberately conservative.
pub const DEFAULT_MAX_DEPTH: usize = 64;

/// Which evaluation engine runs an interface.
///
/// There is one production engine and one reference. Production code
/// leaves this at its default; tests and benchmarks select the reference
/// to check the engine against it. Both modes produce the same values,
/// errors, fuel boundaries, and telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// The production engine. Every driver runs the bytecode VM on the
    /// program the interface carries, compiled once per interface
    /// content; a compile error is the caller's error.
    #[default]
    Auto,
    /// Always walk the AST: the memo-free differential reference.
    TreeWalk,
}

/// Interpreter configuration.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Maximum number of evaluation steps before aborting.
    pub fuel: u64,
    /// Maximum call depth.
    pub max_depth: usize,
    /// Calibration applied when reducing results to Joules.
    pub calibration: Calibration,
    /// Engine selection (not part of the eval-cache key: engines are
    /// result-identical by contract).
    pub mode: ExecMode,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            fuel: DEFAULT_FUEL,
            max_depth: DEFAULT_MAX_DEPTH,
            calibration: Calibration::empty(),
            mode: ExecMode::Auto,
        }
    }
}

/// A single deterministic evaluation context.
struct Eval<'a> {
    iface: &'a Interface,
    ecvs: &'a BTreeMap<String, EcvValue>,
    config: &'a EvalConfig,
    /// Fuel left.
    fuel: u64,
}

/// Result of a statement block: either fall-through or an early return.
enum Flow {
    Normal,
    Return(Value),
}

impl<'a> Eval<'a> {
    fn burn(&mut self) -> Result<()> {
        if self.fuel == 0 {
            return Err(Error::FuelExhausted {
                limit: self.config.fuel,
            });
        }
        self.fuel -= 1;
        Ok(())
    }

    fn call(&mut self, name: &str, args: Vec<Value>, depth: usize) -> Result<Value> {
        if depth > self.config.max_depth {
            return Err(Error::StackOverflow {
                limit: self.config.max_depth,
            });
        }
        if let Some(f) = self.iface.fns().get(name) {
            return self.call_fn(f, args, depth);
        }
        if let Some(b) = Builtin::from_name(name) {
            return eval_builtin(b, &args);
        }
        if self.iface.externs.contains_key(name) {
            return Err(Error::Link {
                msg: format!(
                    "extern `{name}` is not linked; compose this interface with a provider first"
                ),
            });
        }
        Err(Error::Unresolved {
            kind: NameKind::Function,
            name: name.to_string(),
        })
    }

    fn call_fn(&mut self, f: &'a FnDef, args: Vec<Value>, depth: usize) -> Result<Value> {
        if f.params.len() != args.len() {
            return Err(Error::Arity {
                func: f.name.clone(),
                expected: f.params.len(),
                got: args.len(),
            });
        }
        let mut locals: BTreeMap<String, Value> = f.params.iter().cloned().zip(args).collect();
        match self.block(&f.body, &mut locals, depth)? {
            Flow::Return(v) => Ok(v),
            Flow::Normal => Err(Error::Type {
                expected: "a return value",
                got: format!("function `{}` fell off the end", f.name),
            }),
        }
    }

    fn block(
        &mut self,
        stmts: &'a [Stmt],
        locals: &mut BTreeMap<String, Value>,
        depth: usize,
    ) -> Result<Flow> {
        for s in stmts {
            self.burn()?;
            match s {
                Stmt::Let(name, e) => {
                    let v = self.expr(e, locals, depth)?;
                    locals.insert(name.clone(), v);
                }
                Stmt::Assign(name, e) => {
                    if !locals.contains_key(name) {
                        return Err(Error::Unresolved {
                            kind: NameKind::Variable,
                            name: name.clone(),
                        });
                    }
                    let v = self.expr(e, locals, depth)?;
                    locals.insert(name.clone(), v);
                }
                Stmt::If(cond, then_b, else_b) => {
                    let c = self.expr(cond, locals, depth)?.as_bool()?;
                    let branch = if c { then_b } else { else_b };
                    if let Flow::Return(v) = self.block(branch, locals, depth)? {
                        return Ok(Flow::Return(v));
                    }
                }
                Stmt::For {
                    var,
                    from,
                    to,
                    body,
                } => {
                    let from = self.expr(from, locals, depth)?.as_num()?;
                    let to = self.expr(to, locals, depth)?.as_num()?;
                    if !from.is_finite() || !to.is_finite() {
                        return Err(Error::NonFinite {
                            context: "for-loop bounds".into(),
                        });
                    }
                    let mut i = from.floor();
                    while i < to {
                        self.burn()?;
                        locals.insert(var.clone(), Value::Num(i));
                        if let Flow::Return(v) = self.block(body, locals, depth)? {
                            return Ok(Flow::Return(v));
                        }
                        i += 1.0;
                    }
                }
                Stmt::While { cond, bound, body } => {
                    let mut trips: u64 = 0;
                    while self.expr(cond, locals, depth)?.as_bool()? {
                        if trips >= *bound {
                            return Err(Error::BoundExceeded { bound: *bound });
                        }
                        trips += 1;
                        self.burn()?;
                        if let Flow::Return(v) = self.block(body, locals, depth)? {
                            return Ok(Flow::Return(v));
                        }
                    }
                }
                Stmt::Return(e) => {
                    let v = self.expr(e, locals, depth)?;
                    return Ok(Flow::Return(v));
                }
            }
        }
        Ok(Flow::Normal)
    }

    fn expr(
        &mut self,
        e: &'a Expr,
        locals: &BTreeMap<String, Value>,
        depth: usize,
    ) -> Result<Value> {
        self.burn()?;
        match e {
            Expr::Num(n) => Ok(Value::Num(*n)),
            Expr::Bool(b) => Ok(Value::Bool(*b)),
            Expr::Joules(j) => Ok(Value::joules(*j)),
            Expr::Unit(u, k) => Ok(Value::Energy(EnergyVec::from_unit(u.clone(), *k))),
            Expr::Var(name) => locals.get(name).cloned().ok_or_else(|| Error::Unresolved {
                kind: NameKind::Variable,
                name: name.clone(),
            }),
            Expr::Field(base, name) => {
                let b = self.expr(base, locals, depth)?;
                Ok(b.field(name)?.clone())
            }
            Expr::Ecv(name) => {
                let v = self.ecvs.get(name).ok_or_else(|| Error::Unresolved {
                    kind: NameKind::Ecv,
                    name: name.clone(),
                })?;
                Ok(match v {
                    EcvValue::Bool(b) => Value::Bool(*b),
                    EcvValue::Num(n) => Value::Num(*n),
                })
            }
            Expr::Unary(op, inner) => {
                let v = self.expr(inner, locals, depth)?;
                eval_unary(*op, &v)
            }
            Expr::Binary(op, a, b) => {
                // Short-circuit logical operators before evaluating `b`.
                match op {
                    BinOp::And => {
                        let av = self.expr(a, locals, depth)?.as_bool()?;
                        if !av {
                            return Ok(Value::Bool(false));
                        }
                        return Ok(Value::Bool(self.expr(b, locals, depth)?.as_bool()?));
                    }
                    BinOp::Or => {
                        let av = self.expr(a, locals, depth)?.as_bool()?;
                        if av {
                            return Ok(Value::Bool(true));
                        }
                        return Ok(Value::Bool(self.expr(b, locals, depth)?.as_bool()?));
                    }
                    _ => {}
                }
                let av = self.expr(a, locals, depth)?;
                let bv = self.expr(b, locals, depth)?;
                eval_binary(*op, &av, &bv)
            }
            Expr::Call(name, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.expr(a, locals, depth)?);
                }
                self.call(name, vals, depth + 1)
            }
            Expr::BuiltinCall(b, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.expr(a, locals, depth)?);
                }
                eval_builtin(*b, &vals)
            }
            Expr::IfExpr(c, t, f) => {
                let cv = self.expr(c, locals, depth)?.as_bool()?;
                if cv {
                    self.expr(t, locals, depth)
                } else {
                    self.expr(f, locals, depth)
                }
            }
        }
    }
}

/// Evaluates a unary operation.
pub(crate) fn eval_unary(op: UnOp, v: &Value) -> Result<Value> {
    match op {
        UnOp::Neg => match v {
            Value::Num(n) => Ok(Value::Num(-n)),
            Value::Energy(e) => Ok(Value::Energy(e.scaled(-1.0))),
            other => Err(Error::Type {
                expected: "number or energy",
                got: other.type_name().into(),
            }),
        },
        UnOp::Not => Ok(Value::Bool(!v.as_bool()?)),
    }
}

/// Evaluates a (non-short-circuit) binary operation with unit discipline:
/// energy+energy, energy*number, energy/number, energy/energy→number, and
/// plain numeric arithmetic; comparisons work on numbers, energies (concrete
/// Joule parts compared after requiring concreteness), and booleans for
/// equality.
///
/// Both engines call this one kernel. Number-by-number arithmetic and
/// orderings, the bulk of what real interfaces compute, return inline;
/// every other case, errors included, goes to [`eval_binary_general`]. The
/// fast path must equal the general path bit for bit (checked by the
/// `kernel_oracle` tests).
#[inline]
pub(crate) fn eval_binary(op: BinOp, a: &Value, b: &Value) -> Result<Value> {
    if let (Value::Num(x), Value::Num(y)) = (a, b) {
        let (x, y) = (*x, *y);
        match op {
            BinOp::Add => return Ok(Value::Num(x + y)),
            BinOp::Sub => return Ok(Value::Num(x - y)),
            BinOp::Mul => return Ok(Value::Num(x * y)),
            BinOp::Div if y != 0.0 => return Ok(Value::Num(x / y)),
            BinOp::Lt => return Ok(Value::Bool(x < y)),
            BinOp::Le => return Ok(Value::Bool(x <= y)),
            BinOp::Gt => return Ok(Value::Bool(x > y)),
            BinOp::Ge => return Ok(Value::Bool(x >= y)),
            _ => {}
        }
    }
    eval_binary_general(op, a, b)
}

/// Every case of [`eval_binary`] outside its numeric fast path.
#[cold]
#[inline(never)]
fn eval_binary_general(op: BinOp, a: &Value, b: &Value) -> Result<Value> {
    use BinOp::*;
    match op {
        Add | Sub => match (a, b) {
            (Value::Num(x), Value::Num(y)) => Ok(Value::Num(if op == Add { x + y } else { x - y })),
            (Value::Energy(x), Value::Energy(y)) => Ok(Value::Energy(if op == Add {
                x.plus(y)
            } else {
                x.minus(y)
            })),
            (a, b) => Err(Error::Type {
                expected: "matching operand types for +/-",
                got: format!("{} and {}", a.type_name(), b.type_name()),
            }),
        },
        Mul => match (a, b) {
            (Value::Num(x), Value::Num(y)) => Ok(Value::Num(x * y)),
            (Value::Energy(e), Value::Num(k)) | (Value::Num(k), Value::Energy(e)) => {
                Ok(Value::Energy(e.scaled(*k)))
            }
            (a, b) => Err(Error::Type {
                expected: "number*number or energy*number",
                got: format!("{} and {}", a.type_name(), b.type_name()),
            }),
        },
        Div => match (a, b) {
            (Value::Num(x), Value::Num(y)) => {
                if *y == 0.0 {
                    Err(Error::DivisionByZero)
                } else {
                    Ok(Value::Num(x / y))
                }
            }
            (Value::Energy(e), Value::Num(k)) => {
                if *k == 0.0 {
                    Err(Error::DivisionByZero)
                } else {
                    Ok(Value::Energy(e.scaled(1.0 / k)))
                }
            }
            (Value::Energy(x), Value::Energy(y)) => {
                let what = "concrete energies for energy/energy";
                let (xj, yj) = (concrete(x, what)?, concrete(y, what)?);
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
            let eq = values_equal(a, b)?;
            Ok(Value::Bool(if op == Eq { eq } else { !eq }))
        }
        Lt => comparable_pair(a, b).map(|(x, y)| Value::Bool(x < y)),
        Le => comparable_pair(a, b).map(|(x, y)| Value::Bool(x <= y)),
        Gt => comparable_pair(a, b).map(|(x, y)| Value::Bool(x > y)),
        Ge => comparable_pair(a, b).map(|(x, y)| Value::Bool(x >= y)),
        // Neither engine hands these to the kernel: `Eval::expr` short-circuits
        // them, and `vm::lower` lowers them to jumps, which the verifier
        // checks. `kernel_oracle::logical_ops_never_reach_the_kernel` holds.
        And | Or => unreachable!("logical ops are short-circuited in Eval::expr"),
    }
}

/// `e` in Joules, or a type error saying that `expected` needs it concrete.
fn concrete(e: &EnergyVec, expected: &'static str) -> Result<Energy> {
    e.to_energy().map_err(|_| Error::Type {
        expected,
        got: "abstract energy".into(),
    })
}

fn values_equal(a: &Value, b: &Value) -> Result<bool> {
    match (a, b) {
        (Value::Num(x), Value::Num(y)) => Ok(x == y),
        (Value::Bool(x), Value::Bool(y)) => Ok(x == y),
        (Value::Energy(x), Value::Energy(y)) => Ok(x == y),
        _ => Err(Error::Type {
            expected: "matching operand types for ==",
            got: format!("{} and {}", a.type_name(), b.type_name()),
        }),
    }
}

fn comparable_pair(a: &Value, b: &Value) -> Result<(f64, f64)> {
    match (a, b) {
        (Value::Num(x), Value::Num(y)) => Ok((*x, *y)),
        (Value::Energy(x), Value::Energy(y)) => {
            let what = "concrete energies for comparison";
            Ok((
                concrete(x, what)?.as_joules(),
                concrete(y, what)?.as_joules(),
            ))
        }
        (a, b) => Err(Error::Type {
            expected: "numbers or energies for comparison",
            got: format!("{} and {}", a.type_name(), b.type_name()),
        }),
    }
}

/// Evaluates a builtin on already-evaluated arguments.
pub fn eval_builtin(b: Builtin, args: &[Value]) -> Result<Value> {
    if args.len() != b.arity() {
        return Err(Error::Arity {
            func: b.name().to_string(),
            expected: b.arity(),
            got: args.len(),
        });
    }
    let num = |i: usize| args[i].as_num();
    match b {
        Builtin::Min | Builtin::Max => match (&args[0], &args[1]) {
            (Value::Num(x), Value::Num(y)) => Ok(Value::Num(if b == Builtin::Min {
                x.min(*y)
            } else {
                x.max(*y)
            })),
            (Value::Energy(x), Value::Energy(y)) => {
                let xe = x.to_energy()?;
                let ye = y.to_energy()?;
                let r = if b == Builtin::Min {
                    xe.min(ye)
                } else {
                    xe.max(ye)
                };
                Ok(Value::Energy(EnergyVec::from_energy(r)))
            }
            (a, c) => Err(Error::Type {
                expected: "two numbers or two concrete energies",
                got: format!("{} and {}", a.type_name(), c.type_name()),
            }),
        },
        Builtin::Abs => Ok(Value::Num(num(0)?.abs())),
        Builtin::Ceil => Ok(Value::Num(num(0)?.ceil())),
        Builtin::Floor => Ok(Value::Num(num(0)?.floor())),
        Builtin::Round => Ok(Value::Num(num(0)?.round())),
        Builtin::Sqrt => {
            let x = num(0)?;
            if x < 0.0 {
                Err(Error::NonFinite {
                    context: "sqrt of negative".into(),
                })
            } else {
                Ok(Value::Num(x.sqrt()))
            }
        }
        Builtin::Log2 => {
            let x = num(0)?;
            if x <= 0.0 {
                Err(Error::NonFinite {
                    context: "log2 of non-positive".into(),
                })
            } else {
                Ok(Value::Num(x.log2()))
            }
        }
        Builtin::Ln => {
            let x = num(0)?;
            if x <= 0.0 {
                Err(Error::NonFinite {
                    context: "ln of non-positive".into(),
                })
            } else {
                Ok(Value::Num(x.ln()))
            }
        }
        Builtin::Exp => {
            let r = num(0)?.exp();
            if r.is_finite() {
                Ok(Value::Num(r))
            } else {
                Err(Error::NonFinite {
                    context: "exp overflow".into(),
                })
            }
        }
        Builtin::Pow => {
            let r = num(0)?.powf(num(1)?);
            if r.is_finite() {
                Ok(Value::Num(r))
            } else {
                Err(Error::NonFinite {
                    context: "pow overflow or domain error".into(),
                })
            }
        }
        Builtin::Joules => Ok(Value::joules(num(0)?)),
        Builtin::Clamp => {
            let x = num(0)?;
            let lo = num(1)?;
            let hi = num(2)?;
            // `f64::clamp` panics on an inverted or NaN range; surface it
            // as an evaluation error instead (NaN bounds are rejected
            // explicitly since `lo > hi` is false for them).
            if lo > hi || lo.is_nan() || hi.is_nan() {
                return Err(Error::Type {
                    expected: "clamp bounds with lo <= hi",
                    got: format!("lo {lo:?}, hi {hi:?}"),
                });
            }
            Ok(Value::Num(x.clamp(lo, hi)))
        }
    }
}

/// Records one evaluation that used `fuel_used`. Every evaluation reports
/// here, whichever engine ran it and whether a memo answered it, so the
/// trace cannot reveal either.
fn record_eval(fuel_used: u64) {
    if telemetry::enabled() {
        telemetry::counter_add("core.interp.evals", 1);
        telemetry::observe_ticks("core.interp.fuel_per_eval", &telemetry::FUEL, fuel_used);
    }
}

/// The engine of one driver call (of one worker under
/// [`monte_carlo_par`]); [`with_engine`] picks it.
// One per call or worker, on the stack: boxing the VM would cost every
// production call an allocation to shrink the reference's variant.
#[allow(clippy::large_enum_variant)]
enum Engine<'p> {
    /// [`ExecMode::Auto`]: the interface's carried program on one reused
    /// VM, whose call memo lasts as long as the engine.
    Vm(vm::Vm<'p>),
    /// [`ExecMode::TreeWalk`]: the memo-free reference.
    Walk(&'p Interface),
}

/// Runs `body` on the engine `config.mode` selects, the one place that
/// chooses: under [`ExecMode::Auto`] the verified program `iface` carries,
/// compiled on first use and reused until its content changes (see
/// `Interface::program`; a compile error is the caller's error), under
/// [`ExecMode::TreeWalk`] the tree-walk.
fn with_engine<T>(
    iface: &Interface,
    config: &EvalConfig,
    body: impl FnOnce(Engine<'_>) -> Result<T>,
) -> Result<T> {
    match config.mode {
        ExecMode::Auto => {
            let program = iface.program()?;
            body(Engine::Vm(vm::Vm::new(&program)))
        }
        ExecMode::TreeWalk => body(Engine::Walk(iface)),
    }
}

impl<'p> Engine<'p> {
    /// A fresh engine on the same program, for another worker.
    fn fresh(&self) -> Engine<'p> {
        match self {
            Engine::Vm(machine) => Engine::Vm(vm::Vm::new(machine.program())),
            Engine::Walk(iface) => Engine::Walk(iface),
        }
    }

    /// Evaluates `func(args)` under `ecvs` and records the evaluation.
    fn eval(
        &mut self,
        func: &str,
        args: &[Value],
        ecvs: &BTreeMap<String, EcvValue>,
        config: &EvalConfig,
    ) -> Result<Value> {
        let (result, fuel_used) = match self {
            Engine::Vm(machine) => (machine.run(func, args, ecvs, config), machine.fuel_used()),
            Engine::Walk(iface) => {
                let fuel = config.fuel;
                let mut ev = Eval {
                    iface,
                    ecvs,
                    config,
                    fuel,
                };
                (ev.call(func, args.to_vec(), 0), config.fuel - ev.fuel)
            }
        };
        record_eval(fuel_used);
        result
    }
}

/// Evaluates `iface.func(args)` under one concrete ECV assignment.
///
/// This is the deterministic core: every ECV must appear in `ecvs`.
pub fn eval_with_assignment(
    iface: &Interface,
    func: &str,
    args: &[Value],
    ecvs: &BTreeMap<String, EcvValue>,
    config: &EvalConfig,
) -> Result<Value> {
    with_engine(iface, config, |mut e| e.eval(func, args, ecvs, config))
}

/// Evaluates `iface.func(args)` once, sampling unpinned ECVs with `seed`.
///
/// Returns the raw [`Value`]; use [`evaluate_energy`] when the result must be
/// a concrete energy.
pub fn evaluate(
    iface: &Interface,
    func: &str,
    args: &[Value],
    env: &EcvEnv,
    seed: u64,
    config: &EvalConfig,
) -> Result<Value> {
    let mut rng = StdRng::seed_from_u64(seed);
    let assignment = env.sample_assignment(&mut rng);
    eval_with_assignment(iface, func, args, &assignment, config)
}

/// Like [`evaluate`] but reduces the result to Joules via the configured
/// calibration.
pub fn evaluate_energy(
    iface: &Interface,
    func: &str,
    args: &[Value],
    env: &EcvEnv,
    seed: u64,
    config: &EvalConfig,
) -> Result<Energy> {
    let v = evaluate(iface, func, args, env, seed, config)?;
    let e = v.into_energy()?.calibrate(&config.calibration)?;
    telemetry::observe("core.interp.energy_j", &telemetry::ENERGY_J, e.as_joules());
    Ok(e)
}

/// Monte-Carlo sample-chunk size.
///
/// Samples are drawn in fixed-size chunks; chunk `k` gets its own `StdRng`
/// seeded from [`mc_chunk_seed`]`(seed, k)`. Because each chunk's stream is
/// independent of every other chunk's, chunks can be evaluated in any order
/// — or on any number of threads — and still produce the same sample
/// vector. Serial [`monte_carlo`] and parallel [`monte_carlo_par`] are
/// byte-identical by construction.
pub const MC_CHUNK: usize = 64;

/// Derives the RNG seed for Monte-Carlo chunk `chunk_index` from the
/// caller's `seed` with a SplitMix64-style finalizer, so nearby
/// `(seed, chunk)` pairs map to well-separated streams.
#[inline]
pub fn mc_chunk_seed(seed: u64, chunk_index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(chunk_index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Largest ECV assignment space an [`AssignmentMemo`] covers: the bound
/// [`expected_energy`] puts on exact enumeration, so every space it would
/// enumerate fits. A larger space, or one with a continuous ECV, gets no
/// memo and executes every sample, which changes speed only.
const MEMO_CAP: usize = 4096;

/// One sampling call's [`Engine`] (one per worker under
/// [`monte_carlo_par`]) plus, on the VM, a memo of every ECV assignment
/// already executed.
///
/// Evaluation is deterministic per assignment, so a repeated assignment
/// replays its calibrated energy instead of re-executing. Bernoulli and
/// discrete ECVs — and the no-ECV case — collapse to a handful of distinct
/// assignments per call. The memo is dense: a table with one entry per
/// assignment in the call's finite space, indexed by the mixed-radix index
/// [`EcvSampler::draw`] returns, so a lookup is one bounds-checked load and
/// hashes nothing. Continuous ECVs never repeat, so their calls (and spaces
/// above [`MEMO_CAP`]) get an empty table and execute every sample. This
/// memo and the VM's own call memo (see [`vm::Vm`]), not VM dispatch, are
/// where most of the compiled Monte-Carlo speedup comes from; the call
/// memo lives in the engine, so it spans the same call. A hit re-emits the
/// run's telemetry, so the trace cannot reveal the reuse.
///
/// The tree-walk stays memo-free on purpose: it is the reference the
/// memoized path is differentially tested against, so under it every
/// sample draws a named assignment and executes.
struct AssignmentMemo<'p> {
    engine: Engine<'p>,
    /// Per program ECV slot, the sampler slot it reads (`None` when the
    /// environment does not declare it).
    binding: Vec<Option<usize>>,
    /// The current draw, one value per sampler slot.
    values: Vec<EcvValue>,
    /// Calibrated energy and fuel used, per assignment index; empty under
    /// the tree-walk or when the space is continuous or past [`MEMO_CAP`].
    seen: Vec<Option<(Energy, u64)>>,
    /// Samples that executed the program.
    #[cfg(test)]
    runs: u64,
}

impl<'p> AssignmentMemo<'p> {
    fn new(engine: Engine<'p>, call: &McCall<'_>) -> Self {
        let (binding, space) = match &engine {
            Engine::Vm(machine) => (
                machine
                    .program()
                    .ecv_names
                    .iter()
                    .map(|name| call.env.slot_of(name))
                    .collect(),
                call.sampler.space().filter(|&n| n <= MEMO_CAP),
            ),
            Engine::Walk(_) => (Vec::new(), None),
        };
        AssignmentMemo {
            engine,
            binding,
            values: vec![EcvValue::Bool(false); call.sampler.len()],
            seen: vec![None; space.unwrap_or(0)],
            #[cfg(test)]
            runs: 0,
        }
    }

    /// Draws one assignment from `rng` and returns its calibrated energy,
    /// executing only if the assignment is new.
    fn sample(&mut self, call: &McCall<'_>, rng: &mut StdRng) -> Result<Energy> {
        let machine = match &mut self.engine {
            Engine::Vm(machine) => machine,
            walk => {
                let assignment = call.env.sample_assignment(rng);
                let v = walk.eval(call.func, call.args, &assignment, call.config)?;
                return v.into_energy()?.calibrate_interned(&call.cal);
            }
        };
        let index = call.sampler.draw(rng, &mut self.values);
        let (result, fuel_used) = match self.seen.get(index) {
            Some(&Some((e, fuel_used))) => (Ok(e), fuel_used),
            _ => {
                #[cfg(test)]
                {
                    self.runs += 1;
                }
                let e = machine
                    .run_with(call.func, call.args, call.config, |i, _| {
                        self.binding[i].map(|slot| self.values[slot])
                    })
                    .and_then(|v| v.into_energy()?.calibrate_interned(&call.cal));
                if let (Ok(e), Some(entry)) = (&e, self.seen.get_mut(index)) {
                    *entry = Some((*e, machine.fuel_used()));
                }
                (e, machine.fuel_used())
            }
        };
        record_eval(fuel_used);
        result
    }
}

/// What every Monte-Carlo chunk of one sampling call shares.
struct McCall<'a> {
    func: &'a str,
    args: &'a [Value],
    env: &'a EcvEnv,
    /// `env` flattened once for the whole call.
    sampler: EcvSampler<'a>,
    seed: u64,
    config: &'a EvalConfig,
    cal: InternedCalibration,
    /// Telemetry path of the call's `Mc` span, the root of every chunk span.
    parent: String,
}

impl<'a> McCall<'a> {
    /// Opens the call's `Mc` span for `n` samples and captures the shared
    /// state.
    fn open(
        func: &'a str,
        args: &'a [Value],
        env: &'a EcvEnv,
        n: usize,
        seed: u64,
        config: &'a EvalConfig,
    ) -> (telemetry::Span, Self) {
        let mut sp = telemetry::span(SpanKind::Mc, func);
        sp.add_items(n as u64);
        telemetry::counter_add("core.interp.mc_samples", n as u64);
        let call = McCall {
            func,
            args,
            env,
            sampler: env.sampler(),
            seed,
            config,
            cal: config.calibration.intern(),
            parent: telemetry::current_path(),
        };
        (sp, call)
    }

    /// Evaluates chunk `chunk_index`: `len` samples drawn from the chunk's
    /// own deterministic stream through `memo`.
    fn chunk(
        &self,
        chunk_index: u64,
        len: usize,
        memo: &mut AssignmentMemo<'_>,
    ) -> Result<Vec<Energy>> {
        // Indexed span: keyed by the deterministic chunk index and rooted
        // at the call's path, so the trace is identical whether this
        // chunk ran inline or on a worker thread.
        let mut sp =
            telemetry::span_indexed(&self.parent, SpanKind::McChunk, self.func, chunk_index);
        telemetry::counter_add("core.interp.mc_chunks", 1);
        let mut rng = StdRng::seed_from_u64(mc_chunk_seed(self.seed, chunk_index));
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            let e = memo.sample(self, &mut rng)?;
            telemetry::observe(
                "core.interp.sample_energy_j",
                &telemetry::ENERGY_J,
                e.as_joules(),
            );
            sp.record_energy(e.as_joules());
            out.push(e);
        }
        sp.add_items(len as u64);
        Ok(out)
    }
}

/// Monte-Carlo evaluation: `n` independent ECV samples → empirical
/// [`EnergyDist`].
///
/// This is the serial reference for [`monte_carlo_par`]: it evaluates the
/// same [`MC_CHUNK`]-sized chunks in order on the calling thread, so the two
/// produce identical sample vectors for any thread count.
pub fn monte_carlo(
    iface: &Interface,
    func: &str,
    args: &[Value],
    env: &EcvEnv,
    n: usize,
    seed: u64,
    config: &EvalConfig,
) -> Result<EnergyDist> {
    with_engine(iface, config, |engine| {
        let (_sp, call) = McCall::open(func, args, env, n, seed, config);
        let mut memo = AssignmentMemo::new(engine, &call);
        let mut samples = Vec::with_capacity(n);
        for (chunk_index, start) in (0..n).step_by(MC_CHUNK).enumerate() {
            let len = MC_CHUNK.min(n - start);
            samples.extend(call.chunk(chunk_index as u64, len, &mut memo)?);
        }
        Ok(EnergyDist::empirical(samples))
    })
}

/// Parallel Monte-Carlo evaluation over a scoped `std::thread` pool.
///
/// Shards the `n` samples into [`MC_CHUNK`]-sized chunks, hands chunks to
/// `n_threads` workers through a shared cursor, and reassembles results in
/// chunk order. Each chunk re-derives its RNG from `(seed, chunk_index)`, so
/// **the output is byte-identical to serial [`monte_carlo`] regardless of
/// thread count or scheduling**. Errors are also deterministic: the error
/// from the lowest-numbered failing chunk is returned, which is the same
/// error the serial loop would have hit first. Each worker keeps its own
/// engine and assignment memo across the chunks it claims.
///
/// `n_threads = 0` uses the machine's available parallelism.
#[allow(clippy::too_many_arguments)]
pub fn monte_carlo_par(
    iface: &Interface,
    func: &str,
    args: &[Value],
    env: &EcvEnv,
    n: usize,
    seed: u64,
    n_threads: usize,
    config: &EvalConfig,
) -> Result<EnergyDist> {
    let n_threads = if n_threads == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        n_threads
    };
    let n_chunks = n.div_ceil(MC_CHUNK);
    if n_threads <= 1 || n_chunks <= 1 {
        return monte_carlo(iface, func, args, env, n, seed, config);
    }

    with_engine(iface, config, |engine| {
        let (_sp, call) = McCall::open(func, args, env, n, seed, config);
        let cursor = std::sync::atomic::AtomicUsize::new(0);
        let done = parking_lot::Mutex::new(Vec::with_capacity(n_chunks));
        let tag = telemetry::session_tag();
        std::thread::scope(|scope| {
            let (cursor, done, call, engine) = (&cursor, &done, &call, &engine);
            for _ in 0..n_threads.min(n_chunks) {
                scope.spawn(move || {
                    // Record for the caller's telemetry session, if any.
                    telemetry::adopt(tag);
                    let mut memo = AssignmentMemo::new(engine.fresh(), call);
                    loop {
                        let chunk_index = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if chunk_index >= n_chunks {
                            break;
                        }
                        let len = MC_CHUNK.min(n - chunk_index * MC_CHUNK);
                        let result = call.chunk(chunk_index as u64, len, &mut memo);
                        done.lock().push((chunk_index, result));
                    }
                    // Drain telemetry before the closure returns: the scope
                    // unblocks the spawner at closure return, which can be
                    // before this thread's TLS destructors (the automatic
                    // flush) have run.
                    telemetry::flush();
                });
            }
        });
        // The cursor hands out each chunk index below `n_chunks` exactly
        // once, so sorted by index these are the chunks in order.
        let mut done = done.into_inner();
        done.sort_unstable_by_key(|&(chunk_index, _)| chunk_index);
        let mut samples = Vec::with_capacity(n);
        for (_, chunk) in done {
            samples.extend(chunk?);
        }
        Ok(EnergyDist::empirical(samples))
    })
}

/// Batch evaluation: `iface.func(args)` for every argument set in `argsets`,
/// reduced to Joules.
///
/// Equivalent to calling [`evaluate_energy`] once per argument set with the
/// same `seed`, but amortizes the per-call setup across the whole batch: the
/// ECV assignment is sampled once (it depends only on `seed`, not on the
/// arguments) and the calibration is interned once. Hot callers that sweep a
/// parameter — candidate ranking in `ei-sched`, the Table 1 grid in
/// `ei-bench`, microbenchmark fitting in `ei-extract` — should prefer this
/// over per-argset [`evaluate_energy`] calls.
pub fn evaluate_batch(
    iface: &Interface,
    func: &str,
    argsets: &[Vec<Value>],
    env: &EcvEnv,
    seed: u64,
    config: &EvalConfig,
) -> Result<Vec<Energy>> {
    with_engine(iface, config, |mut engine| {
        let mut sp = telemetry::span(SpanKind::EnergyQuery, func);
        sp.add_items(argsets.len() as u64);
        telemetry::counter_add("core.interp.batch_evals", argsets.len() as u64);
        let mut rng = StdRng::seed_from_u64(seed);
        let assignment = env.sample_assignment(&mut rng);
        let cal = config.calibration.intern();
        let mut out = Vec::with_capacity(argsets.len());
        for args in argsets {
            let v = engine.eval(func, args, &assignment, config)?;
            let e = v.into_energy()?.calibrate_interned(&cal)?;
            sp.record_energy(e.as_joules());
            out.push(e);
        }
        Ok(out)
    })
}

/// Exact evaluation: enumerates the finite ECV space (≤ `limit` assignments)
/// and returns the exact mixture distribution.
pub fn enumerate_exact(
    iface: &Interface,
    func: &str,
    args: &[Value],
    env: &EcvEnv,
    limit: usize,
    config: &EvalConfig,
) -> Result<EnergyDist> {
    let outcomes = enumerate_outcomes(iface, func, args, env, limit, config)?;
    Ok(EnergyDist::mixture(
        outcomes.into_iter().map(|o| (o.energy, o.probability)),
    ))
}

/// One enumerated path: the ECV observations that select it, its
/// probability, and the energy consumed along it.
#[derive(Debug, Clone, PartialEq)]
pub struct PathOutcome {
    /// The ECV assignment that drives this path.
    pub assignment: BTreeMap<String, EcvValue>,
    /// Probability of the assignment.
    pub probability: f64,
    /// Energy consumed on this path (calibrated Joules).
    pub energy: Energy,
}

/// The one exact-enumeration loop: `iface.func(args)` under every
/// assignment of `env`'s finite ECV space (≤ `limit` assignments), on the
/// engine `config` selects, in enumeration order.
pub(crate) fn enumerate_outcomes(
    iface: &Interface,
    func: &str,
    args: &[Value],
    env: &EcvEnv,
    limit: usize,
    config: &EvalConfig,
) -> Result<Vec<PathOutcome>> {
    let assignments = env.enumerate_assignments(limit)?;
    with_engine(iface, config, |mut engine| {
        let mut sp = telemetry::span(SpanKind::EnergyQuery, func);
        sp.add_items(assignments.len() as u64);
        telemetry::counter_add("core.interp.exact_enumerations", 1);
        let mut outcomes = Vec::with_capacity(assignments.len());
        for (assignment, p) in assignments {
            let v = engine.eval(func, args, &assignment, config)?;
            outcomes.push(PathOutcome {
                energy: v.into_energy()?.calibrate(&config.calibration)?,
                assignment,
                probability: p,
            });
        }
        Ok(outcomes)
    })
}

/// The expected (mean) energy of `iface.func(args)`.
///
/// Uses exact enumeration when the ECV space is small, falling back to
/// Monte Carlo with 4096 samples otherwise.
pub fn expected_energy(
    iface: &Interface,
    func: &str,
    args: &[Value],
    config: &EvalConfig,
) -> Result<Energy> {
    let env = iface.ecv_env();
    match enumerate_exact(iface, func, args, &env, 4096, config) {
        Ok(d) => Ok(d.mean()),
        Err(Error::Analysis { .. }) => {
            Ok(monte_carlo(iface, func, args, &env, 4096, 0xE1, config)?.mean())
        }
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod kernel_oracle;

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::ast::ExternDecl;
    use crate::ecv::{DistSpec, EcvDecl};

    fn cfg() -> EvalConfig {
        EvalConfig::default()
    }

    /// Builds Fig. 1's interface programmatically (also exercised by the
    /// parser tests with the same semantics).
    fn fig1() -> Interface {
        let mut i = Interface::new("ml_webservice");
        i.add_unit("conv2d");
        i.add_unit("relu");
        i.add_unit("mlp");
        i.add_ecv(
            "request_hit",
            EcvDecl {
                dist: DistSpec::Bernoulli { p: 0.25 },
                doc: "request found in cache".into(),
            },
        )
        .unwrap();
        i.add_ecv(
            "local_cache_hit",
            EcvDecl {
                dist: DistSpec::Bernoulli { p: 0.8 },
                doc: "cache hit in current node".into(),
            },
        )
        .unwrap();

        // fn handle(request): mirrors Fig. 1 line by line.
        i.add_fn(FnDef::new(
            "handle",
            vec!["request".into()],
            vec![
                Stmt::Let("max_response_len".into(), Expr::Num(1024.0)),
                Stmt::If(
                    Expr::Ecv("request_hit".into()),
                    vec![Stmt::Return(Expr::Call(
                        "cache_lookup".into(),
                        vec![
                            Expr::input_field("request", "image_id"),
                            Expr::var("max_response_len"),
                        ],
                    ))],
                    vec![Stmt::Return(Expr::Call(
                        "cnn_forward".into(),
                        vec![Expr::var("request")],
                    ))],
                ),
            ],
        ))
        .unwrap();
        i.add_fn(FnDef::new(
            "cache_lookup",
            vec!["key".into(), "response_len".into()],
            vec![Stmt::Return(Expr::bin(
                BinOp::Mul,
                Expr::IfExpr(
                    Box::new(Expr::Ecv("local_cache_hit".into())),
                    Box::new(Expr::Joules(5e-3)),
                    Box::new(Expr::Joules(100e-3)),
                ),
                Expr::var("response_len"),
            ))],
        ))
        .unwrap();
        i.add_fn(FnDef::new(
            "cnn_forward",
            vec!["request".into()],
            vec![
                Stmt::Let("n_embedding".into(), Expr::Num(256.0)),
                Stmt::Let(
                    "nonzero".into(),
                    Expr::bin(
                        BinOp::Sub,
                        Expr::input_field("request", "image_size"),
                        Expr::input_field("request", "image_zeros"),
                    ),
                ),
                Stmt::Return(Expr::bin(
                    BinOp::Add,
                    Expr::bin(
                        BinOp::Add,
                        Expr::bin(
                            BinOp::Mul,
                            Expr::Num(8.0),
                            Expr::Call("conv2d".into(), vec![Expr::var("nonzero")]),
                        ),
                        Expr::bin(
                            BinOp::Mul,
                            Expr::Num(8.0),
                            Expr::Call("relu_e".into(), vec![Expr::var("n_embedding")]),
                        ),
                    ),
                    Expr::bin(
                        BinOp::Mul,
                        Expr::Num(16.0),
                        Expr::Call("mlp_e".into(), vec![Expr::var("n_embedding")]),
                    ),
                )),
            ],
        ))
        .unwrap();
        // Leaf interfaces in abstract units.
        i.add_fn(FnDef::new(
            "conv2d",
            vec!["n".into()],
            vec![Stmt::Return(Expr::bin(
                BinOp::Mul,
                Expr::Unit("conv2d".into(), 1.0),
                Expr::bin(BinOp::Div, Expr::var("n"), Expr::Num(1024.0)),
            ))],
        ))
        .unwrap();
        i.add_fn(FnDef::new(
            "relu_e",
            vec!["n".into()],
            vec![Stmt::Return(Expr::bin(
                BinOp::Mul,
                Expr::Unit("relu".into(), 1.0),
                Expr::bin(BinOp::Div, Expr::var("n"), Expr::Num(256.0)),
            ))],
        ))
        .unwrap();
        i.add_fn(FnDef::new(
            "mlp_e",
            vec!["n".into()],
            vec![Stmt::Return(Expr::bin(
                BinOp::Mul,
                Expr::Unit("mlp".into(), 1.0),
                Expr::bin(BinOp::Div, Expr::var("n"), Expr::Num(256.0)),
            ))],
        ))
        .unwrap();
        i.validate().unwrap();
        i
    }

    fn request(size: f64, zeros: f64) -> Value {
        Value::num_record([
            ("image_id", 7.0),
            ("image_size", size),
            ("image_zeros", zeros),
        ])
    }

    fn fig1_calibration() -> Calibration {
        Calibration::from_pairs([
            ("conv2d", Energy::millijoules(40.0)),
            ("relu", Energy::millijoules(1.0)),
            ("mlp", Energy::millijoules(10.0)),
        ])
    }

    #[test]
    fn cache_hit_paths() {
        let i = fig1();
        let mut env = i.ecv_env();
        env.pin_bool("request_hit", true);
        env.pin_bool("local_cache_hit", true);
        let cfg = cfg();
        let e = evaluate_energy(&i, "handle", &[request(4096.0, 0.0)], &env, 1, &cfg).unwrap();
        // 5 mJ * 1024.
        assert!((e.as_joules() - 5e-3 * 1024.0).abs() < 1e-9);

        env.pin_bool("local_cache_hit", false);
        let e = evaluate_energy(&i, "handle", &[request(4096.0, 0.0)], &env, 1, &cfg).unwrap();
        assert!((e.as_joules() - 100e-3 * 1024.0).abs() < 1e-9);
    }

    #[test]
    fn miss_path_uses_abstract_units_and_zero_skipping() {
        let i = fig1();
        let mut env = i.ecv_env();
        env.pin_bool("request_hit", false);
        let mut cfg = cfg();
        cfg.calibration = fig1_calibration();
        let dense = evaluate_energy(&i, "handle", &[request(2048.0, 0.0)], &env, 1, &cfg).unwrap();
        let sparse =
            evaluate_energy(&i, "handle", &[request(2048.0, 1024.0)], &env, 1, &cfg).unwrap();
        // Zero-skipping: the sparse image consumes strictly less energy.
        assert!(sparse < dense);
        // Exact: 8 * (2048/1024) * 40mJ + 8 * 1mJ + 16 * 10mJ.
        let expect = 8.0 * 2.0 * 40e-3 + 8.0 * 1e-3 + 16.0 * 10e-3;
        assert!((dense.as_joules() - expect).abs() < 1e-9);
    }

    #[test]
    fn uncalibrated_abstract_result_errors() {
        let i = fig1();
        let mut env = i.ecv_env();
        env.pin_bool("request_hit", false);
        let err =
            evaluate_energy(&i, "handle", &[request(1024.0, 0.0)], &env, 1, &cfg()).unwrap_err();
        assert!(matches!(err, Error::Uncalibrated { .. }));
    }

    #[test]
    fn exact_enumeration_matches_hand_computation() {
        let i = fig1();
        let mut cfg = cfg();
        cfg.calibration = fig1_calibration();
        let env = i.ecv_env();
        let d = enumerate_exact(&i, "handle", &[request(1024.0, 0.0)], &env, 100, &cfg).unwrap();
        // Three distinct outcomes: hit-local, hit-remote, miss.
        assert_eq!(d.len(), 3);
        let hit_local = 5e-3 * 1024.0;
        let hit_remote = 100e-3 * 1024.0;
        let miss = 8.0 * 40e-3 + 8.0 * 1e-3 + 16.0 * 10e-3;
        let expected_mean = 0.25 * (0.8 * hit_local + 0.2 * hit_remote) + 0.75 * miss;
        assert!((d.mean().as_joules() - expected_mean).abs() < 1e-9);
    }

    #[test]
    fn monte_carlo_converges_to_exact() {
        let i = fig1();
        let mut cfg = cfg();
        cfg.calibration = fig1_calibration();
        let env = i.ecv_env();
        let args = [request(1024.0, 0.0)];
        let exact = enumerate_exact(&i, "handle", &args, &env, 100, &cfg).unwrap();
        let mc = monte_carlo(&i, "handle", &args, &env, 20_000, 23, &cfg).unwrap();
        let rel =
            (mc.mean().as_joules() - exact.mean().as_joules()).abs() / exact.mean().as_joules();
        assert!(rel < 0.03, "rel={rel}");
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let i = fig1();
        let mut cfg = cfg();
        cfg.calibration = fig1_calibration();
        let env = i.ecv_env();
        let args = [request(512.0, 10.0)];
        let a = monte_carlo(&i, "handle", &args, &env, 100, 99, &cfg).unwrap();
        let b = monte_carlo(&i, "handle", &args, &env, 100, 99, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn loops_and_assignment() {
        let mut i = Interface::new("loops");
        // Sum i for i in [0, n): returns n*(n-1)/2 Joules.
        i.add_fn(FnDef::new(
            "tri",
            vec!["n".into()],
            vec![
                Stmt::Let("acc".into(), Expr::Joules(0.0)),
                Stmt::For {
                    var: "i".into(),
                    from: Expr::Num(0.0),
                    to: Expr::var("n"),
                    body: vec![Stmt::Assign(
                        "acc".into(),
                        Expr::bin(
                            BinOp::Add,
                            Expr::var("acc"),
                            Expr::bin(BinOp::Mul, Expr::Joules(1.0), Expr::var("i")),
                        ),
                    )],
                },
                Stmt::Return(Expr::var("acc")),
            ],
        ))
        .unwrap();
        let env = EcvEnv::new();
        let e = evaluate_energy(&i, "tri", &[Value::Num(10.0)], &env, 0, &cfg()).unwrap();
        assert_eq!(e.as_joules(), 45.0);
    }

    #[test]
    fn while_loop_respects_bound() {
        let mut i = Interface::new("w");
        i.add_fn(FnDef::new(
            "spin",
            vec!["n".into()],
            vec![
                Stmt::Let("i".into(), Expr::Num(0.0)),
                Stmt::While {
                    cond: Expr::bin(BinOp::Lt, Expr::var("i"), Expr::var("n")),
                    bound: 10,
                    body: vec![Stmt::Assign(
                        "i".into(),
                        Expr::bin(BinOp::Add, Expr::var("i"), Expr::Num(1.0)),
                    )],
                },
                Stmt::Return(Expr::Joules(1.0)),
            ],
        ))
        .unwrap();
        let env = EcvEnv::new();
        assert!(evaluate(&i, "spin", &[Value::Num(5.0)], &env, 0, &cfg()).is_ok());
        let err = evaluate(&i, "spin", &[Value::Num(50.0)], &env, 0, &cfg()).unwrap_err();
        assert_eq!(err, Error::BoundExceeded { bound: 10 });
    }

    #[test]
    fn fuel_limits_runaway_interfaces() {
        let mut i = Interface::new("f");
        i.add_fn(FnDef::new(
            "big",
            vec![],
            vec![
                Stmt::Let("acc".into(), Expr::Num(0.0)),
                Stmt::For {
                    var: "i".into(),
                    from: Expr::Num(0.0),
                    to: Expr::Num(1e12),
                    body: vec![Stmt::Assign(
                        "acc".into(),
                        Expr::bin(BinOp::Add, Expr::var("acc"), Expr::Num(1.0)),
                    )],
                },
                Stmt::Return(Expr::Joules(0.0)),
            ],
        ))
        .unwrap();
        let mut c = cfg();
        c.fuel = 10_000;
        let err = evaluate(&i, "big", &[], &EcvEnv::new(), 0, &c).unwrap_err();
        assert!(matches!(err, Error::FuelExhausted { .. }));
    }

    #[test]
    fn recursion_depth_limited() {
        let mut i = Interface::new("r");
        i.add_fn(FnDef::new(
            "rec",
            vec!["n".into()],
            vec![Stmt::Return(Expr::Call(
                "rec".into(),
                vec![Expr::bin(BinOp::Add, Expr::var("n"), Expr::Num(1.0))],
            ))],
        ))
        .unwrap();
        let err = evaluate(&i, "rec", &[Value::Num(0.0)], &EcvEnv::new(), 0, &cfg()).unwrap_err();
        assert!(matches!(
            err,
            Error::StackOverflow { .. } | Error::FuelExhausted { .. }
        ));
    }

    #[test]
    fn bounded_recursion_works() {
        // Recursion is allowed (Turing-complete language): fib-style energy.
        let mut i = Interface::new("r");
        i.add_fn(FnDef::new(
            "e",
            vec!["n".into()],
            vec![Stmt::If(
                Expr::bin(BinOp::Le, Expr::var("n"), Expr::Num(0.0)),
                vec![Stmt::Return(Expr::Joules(1.0))],
                vec![Stmt::Return(Expr::bin(
                    BinOp::Add,
                    Expr::Joules(0.5),
                    Expr::Call(
                        "e".into(),
                        vec![Expr::bin(BinOp::Sub, Expr::var("n"), Expr::Num(1.0))],
                    ),
                ))],
            )],
        ))
        .unwrap();
        let e = evaluate_energy(&i, "e", &[Value::Num(4.0)], &EcvEnv::new(), 0, &cfg()).unwrap();
        assert_eq!(e.as_joules(), 3.0);
    }

    #[test]
    fn calling_unlinked_extern_reports_link_error() {
        let mut i = Interface::new("x");
        i.add_extern(ExternDecl {
            name: "hw".into(),
            arity: 0,
            doc: String::new(),
        })
        .unwrap();
        i.add_fn(FnDef::new(
            "f",
            vec![],
            vec![Stmt::Return(Expr::Call("hw".into(), vec![]))],
        ))
        .unwrap();
        let err = evaluate(&i, "f", &[], &EcvEnv::new(), 0, &cfg()).unwrap_err();
        assert!(matches!(err, Error::Link { .. }));
    }

    #[test]
    fn type_errors_are_reported() {
        let mut i = Interface::new("t");
        i.add_fn(FnDef::new(
            "bad",
            vec![],
            vec![Stmt::Return(Expr::bin(
                BinOp::Add,
                Expr::Num(1.0),
                Expr::Joules(1.0),
            ))],
        ))
        .unwrap();
        assert!(matches!(
            evaluate(&i, "bad", &[], &EcvEnv::new(), 0, &cfg()),
            Err(Error::Type { .. })
        ));
    }

    #[test]
    fn division_rules() {
        assert!(matches!(
            eval_binary(BinOp::Div, &Value::Num(1.0), &Value::Num(0.0)),
            Err(Error::DivisionByZero)
        ));
        let r = eval_binary(BinOp::Div, &Value::joules(6.0), &Value::joules(2.0)).unwrap();
        assert_eq!(r, Value::Num(3.0));
        let r = eval_binary(BinOp::Div, &Value::joules(6.0), &Value::Num(2.0)).unwrap();
        assert_eq!(r, Value::joules(3.0));
    }

    #[test]
    fn short_circuit_avoids_rhs_errors() {
        let mut i = Interface::new("sc");
        // false && (1/0 < 1) must not evaluate the division.
        i.add_fn(FnDef::new(
            "f",
            vec![],
            vec![Stmt::If(
                Expr::bin(
                    BinOp::And,
                    Expr::Bool(false),
                    Expr::bin(
                        BinOp::Lt,
                        Expr::bin(BinOp::Div, Expr::Num(1.0), Expr::Num(0.0)),
                        Expr::Num(1.0),
                    ),
                ),
                vec![Stmt::Return(Expr::Joules(1.0))],
                vec![Stmt::Return(Expr::Joules(2.0))],
            )],
        ))
        .unwrap();
        let e = evaluate_energy(&i, "f", &[], &EcvEnv::new(), 0, &cfg()).unwrap();
        assert_eq!(e.as_joules(), 2.0);
    }

    #[test]
    fn builtins_behave() {
        use Builtin::*;
        let n = |x: f64| Value::Num(x);
        assert_eq!(eval_builtin(Min, &[n(1.0), n(2.0)]).unwrap(), n(1.0));
        assert_eq!(eval_builtin(Max, &[n(1.0), n(2.0)]).unwrap(), n(2.0));
        assert_eq!(eval_builtin(Abs, &[n(-3.0)]).unwrap(), n(3.0));
        assert_eq!(eval_builtin(Ceil, &[n(1.2)]).unwrap(), n(2.0));
        assert_eq!(eval_builtin(Floor, &[n(1.8)]).unwrap(), n(1.0));
        assert_eq!(eval_builtin(Round, &[n(1.5)]).unwrap(), n(2.0));
        assert_eq!(eval_builtin(Sqrt, &[n(9.0)]).unwrap(), n(3.0));
        assert_eq!(eval_builtin(Log2, &[n(8.0)]).unwrap(), n(3.0));
        assert_eq!(eval_builtin(Exp, &[n(0.0)]).unwrap(), n(1.0));
        assert_eq!(eval_builtin(Pow, &[n(2.0), n(10.0)]).unwrap(), n(1024.0));
        assert_eq!(eval_builtin(Joules, &[n(2.0)]).unwrap(), Value::joules(2.0));
        assert_eq!(
            eval_builtin(Clamp, &[n(5.0), n(0.0), n(3.0)]).unwrap(),
            n(3.0)
        );
        assert!(eval_builtin(Sqrt, &[n(-1.0)]).is_err());
        assert!(eval_builtin(Log2, &[n(0.0)]).is_err());
        assert!(eval_builtin(Ln, &[n(-1.0)]).is_err());
        assert!(eval_builtin(Min, &[n(1.0)]).is_err());
        let e = |x: f64| Value::joules(x);
        assert_eq!(eval_builtin(Min, &[e(1.0), e(2.0)]).unwrap(), e(1.0));
    }

    #[test]
    fn expected_energy_helper() {
        let i = fig1();
        let mut c = cfg();
        c.calibration = fig1_calibration();
        let e = expected_energy(&i, "handle", &[request(1024.0, 0.0)], &c).unwrap();
        assert!(e.as_joules() > 0.0);
    }

    /// Every driver on one interface reuses the program the first one
    /// compiled: the stored `Arc` is never replaced while the content is
    /// unchanged. The tree-walk compiles nothing.
    #[test]
    fn drivers_compile_each_interface_once() {
        let iface = fig1();
        let env = iface.ecv_env();
        let args = [request(1024.0, 0.0)];
        let argsets = [args.to_vec(), vec![request(64.0, 8.0)]];
        let run_all = |config: &EvalConfig| {
            evaluate_energy(&iface, "handle", &args, &env, 5, config).unwrap();
            monte_carlo(&iface, "handle", &args, &env, 256, 1, config).unwrap();
            monte_carlo(&iface, "handle", &args, &env, 256, 2, config).unwrap();
            monte_carlo_par(&iface, "handle", &args, &env, 256, 3, 2, config).unwrap();
            evaluate_batch(&iface, "handle", &argsets, &env, 4, config).unwrap();
            enumerate_exact(&iface, "handle", &args, &env, 64, config).unwrap();
            expected_energy(&iface, "handle", &args, config).unwrap();
        };
        let mut config = cfg();
        config.calibration = fig1_calibration();

        run_all(&EvalConfig {
            mode: ExecMode::TreeWalk,
            ..config.clone()
        });
        assert!(iface.carried.stored().is_none(), "the tree-walk compiled");

        monte_carlo(&iface, "handle", &args, &env, 64, 0, &config).unwrap();
        let first = iface.carried.stored().expect("the first call compiled");
        run_all(&config);
        let last = iface.carried.stored().unwrap();
        assert!(Arc::ptr_eq(&first, &last), "a driver recompiled");
        assert_eq!(
            first.fingerprint(),
            vm::compile(&iface).unwrap().fingerprint()
        );
    }

    /// Single-shot evaluation runs the carried program too: one
    /// `evaluate_energy` leaves a compiled program in a fresh interface's
    /// cell under `Auto`, and none under `TreeWalk`.
    #[test]
    fn single_shot_runs_the_carried_program() {
        let mut config = cfg();
        config.calibration = fig1_calibration();
        for (mode, compiled) in [(ExecMode::TreeWalk, false), (ExecMode::Auto, true)] {
            let iface = fig1();
            let config = EvalConfig {
                mode,
                ..config.clone()
            };
            let args = [request(1024.0, 0.0)];
            evaluate_energy(&iface, "handle", &args, &iface.ecv_env(), 1, &config).unwrap();
            assert_eq!(iface.carried.stored().is_some(), compiled, "{mode:?}");
        }
    }

    /// The assignment memo runs the program at most once per assignment of
    /// a covered space: 8,192 samples over 32 assignments execute at most
    /// 32 times. Spaces it does not cover (13 Bernoullis, a continuous
    /// ECV) execute every sample and store nothing.
    #[test]
    fn assignment_memo_executes_each_assignment_once() {
        let bernoullis = |k: usize| {
            let ecvs: String = (0..k)
                .map(|i| format!("ecv b{i}: bernoulli(0.4);"))
                .collect();
            let terms: Vec<String> = (0..k)
                .map(|i| format!("(if b{i} {{ {} J }} else {{ 0 J }})", i + 1))
                .collect();
            format!(
                "interface b{k} {{ {ecvs} fn f() {{ return {}; }} }}",
                terms.join(" + ")
            )
        };
        let continuous = "interface c { ecv u: uniform(0, 1); fn f() { return u * 1 J; } }";
        let n = 8192;
        for (src, space) in [
            (bernoullis(5), Some(32)),
            (bernoullis(13), None),
            (continuous.to_string(), None),
        ] {
            let iface = crate::parser::parse(&src).unwrap();
            let program = vm::compile(&iface).unwrap();
            let env = iface.ecv_env();
            let config = cfg();
            let (_sp, call) = McCall::open("f", &[], &env, n, 9, &config);
            let mut memo = AssignmentMemo::new(Engine::Vm(vm::Vm::new(&program)), &call);
            for chunk in 0..n / MC_CHUNK {
                call.chunk(chunk as u64, MC_CHUNK, &mut memo).unwrap();
            }
            let stored = memo.seen.iter().filter(|e| e.is_some()).count() as u64;
            match space {
                Some(space) => {
                    assert_eq!(memo.seen.len(), space, "{src}");
                    assert!(memo.runs <= space as u64, "{src}: {} runs", memo.runs);
                    assert_eq!(memo.runs, stored, "{src}");
                }
                None => {
                    assert!(memo.seen.is_empty(), "{src}");
                    assert_eq!((memo.runs, stored), (n as u64, 0), "{src}");
                }
            }
        }
    }
}
