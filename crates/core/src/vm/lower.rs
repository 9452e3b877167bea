//! Lowering: type-checked EIL → register bytecode.
//!
//! One [`FnLower`] pass per function, driven by [`compile`]. The pass does
//! three jobs at once:
//!
//! 1. **Register allocation.** Every named local (parameter, `let`/assign
//!    target, `for` variable, and any referenced name) gets a fixed slot;
//!    expression temporaries are bump-allocated above them and recycled per
//!    statement. Reads of possibly-undefined names go through an eager
//!    `Copy`/`CheckVar` so `Unresolved` errors fire at exactly the point the
//!    tree-walk interpreter would raise them.
//! 2. **Constant folding.** [`FnLower::try_fold`] evaluates
//!    compile-time-known subtrees using the *interpreter's own*
//!    `eval_unary`/`eval_binary`/`eval_builtin`, so a folded constant is
//!    bit-identical to what the tree-walk would have produced, and the whole
//!    subtree's fuel is charged as one lump on the folded `Const`.
//!    Per-path constant state propagates through straight-line code and
//!    joins at `if` merge points with bit-exact equality.
//! 3. **Loop-bound specialization.** `for` loops whose bounds fold to
//!    constants are unrolled when the interval analysis
//!    ([`crate::analysis::interval`]) bounds the trip count under
//!    [`UNROLL_MAX_TRIPS`] and the exact trip simulation stays within
//!    [`UNROLL_BODY_BUDGET`]; otherwise they lower to the generic
//!    `ForInit`/`ForTest`/`ForStep` triple.
//!
//! Fuel discipline: a `pending` counter accumulates the burns the
//! interpreter would have performed and is attached to the next emitted
//! instruction, so the executor's per-instruction debit reproduces the
//! interpreter's fuel trajectory exactly (see `vm::chunk` module docs).

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::analysis::interval::Interval;
use crate::ast::{BinOp, Builtin, Expr, FnDef, Stmt, UnOp};
use crate::error::{Error, NameKind, Result};
use crate::interface::Interface;
use crate::interp;
use crate::units::EnergyVec;
use crate::value::Value;

use super::chunk::{fingerprint_program, Chunk, Instr, Program};

/// Maximum trip count a constant-bound `for` loop may have to be unrolled.
pub const UNROLL_MAX_TRIPS: u64 = 64;

/// Maximum `trips × body-node-count` product for unrolling, bounding the
/// code-size blowup of loop specialization.
pub const UNROLL_BODY_BUDGET: u64 = 2048;

/// Compiles a type-checked interface to a register-bytecode [`Program`].
///
/// Compilation is total over valid interfaces: interfaces that would fail at
/// runtime (unknown names, type errors, unlinked externs) still compile, to
/// code that raises the identical error at the identical evaluation point.
pub fn compile(iface: &Interface) -> Result<Program> {
    let mut symbols = Interner::default();

    // Calibration-slot and ECV-slot universes, in sorted (deterministic)
    // order. Units cover both declared units and unit literals in bodies.
    let mut units: BTreeSet<String> = iface.units.iter().cloned().collect();
    let mut ecv_names: BTreeSet<String> = BTreeSet::new();
    for f in iface.fns.values() {
        for s in &f.body {
            s.visit_exprs(&mut |e| match e {
                Expr::Unit(u, _) => {
                    units.insert(u.clone());
                }
                Expr::Ecv(n) => {
                    ecv_names.insert(n.clone());
                }
                _ => {}
            });
        }
    }
    let ecv_names: Vec<String> = ecv_names.into_iter().collect();
    let ecv_slots: HashMap<&str, u32> = ecv_names
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i as u32))
        .collect();

    // Dense function ids in BTreeMap (name) order — the interpreter's own
    // deterministic iteration order.
    let fn_ids: BTreeMap<String, u32> = iface
        .fns
        .keys()
        .enumerate()
        .map(|(i, n)| (n.clone(), i as u32))
        .collect();

    let mut chunks = Vec::with_capacity(iface.fns.len());
    for f in iface.fns.values() {
        let lower = FnLower::new(iface, f, &mut symbols, &fn_ids, &ecv_slots);
        chunks.push(lower.run()?);
    }

    let mut program = Program {
        name: iface.name.clone(),
        symbols: symbols.strings,
        units: units.into_iter().collect(),
        ecv_names,
        externs: iface.externs.keys().cloned().collect(),
        chunks,
        fn_ids,
        fingerprint: 0,
    };
    program.fingerprint = fingerprint_program(&program);
    // Every compiled artifact is statically verified before it can
    // execute: a verifier failure here means a lowering bug, reported at
    // compile time instead of as a runtime panic or divergence.
    if let Err(errs) = super::verify::verify(&program) {
        return Err(Error::Analysis {
            msg: format!(
                "bytecode verification failed:\n{}",
                super::verify::render_errors(&errs)
            ),
        });
    }
    Ok(program)
}

/// String interner for the program-wide symbol table.
#[derive(Default)]
struct Interner {
    strings: Vec<String>,
    ids: HashMap<String, u32>,
}

impl Interner {
    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let id = self.strings.len() as u32;
        self.strings.push(s.to_string());
        self.ids.insert(s.to_string(), id);
        id
    }
}

/// Per-path lowering state: which named registers are definitely written
/// (`defined`, an under-approximation) and which hold compile-time-known
/// constants (`known`, bit-exact).
#[derive(Clone)]
struct PathState {
    defined: BTreeSet<u32>,
    known: BTreeMap<u32, Value>,
}

impl PathState {
    /// Control-flow join: intersection on both maps, with bit-exact value
    /// agreement required to keep a constant.
    fn join(&mut self, other: &PathState) {
        self.defined.retain(|r| other.defined.contains(r));
        self.known
            .retain(|r, v| other.known.get(r).is_some_and(|o| bit_eq(v, o)));
    }
}

/// Bit-exact value equality: distinguishes `0.0`/`-0.0`, treats identical
/// NaNs as equal, and is sensitive to abstract-unit key presence — the same
/// distinctions `Value: PartialEq` either blurs (NaN) or the fold must not
/// blur (signed zero), since folded constants must be indistinguishable from
/// interpreter-computed values.
fn bit_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Num(x), Value::Num(y)) => x.to_bits() == y.to_bits(),
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Energy(x), Value::Energy(y)) => {
            x.joules.to_bits() == y.joules.to_bits()
                && x.abstracts.len() == y.abstracts.len()
                && x.abstracts
                    .iter()
                    .zip(&y.abstracts)
                    .all(|((ku, kv), (lu, lv))| ku == lu && kv.to_bits() == lv.to_bits())
        }
        (Value::Record(x), Value::Record(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((kx, vx), (ky, vy))| kx == ky && bit_eq(vx, vy))
        }
        _ => false,
    }
}

struct FnLower<'a> {
    iface: &'a Interface,
    f: &'a FnDef,
    symbols: &'a mut Interner,
    fn_ids: &'a BTreeMap<String, u32>,
    ecv_slots: &'a HashMap<&'a str, u32>,

    code: Vec<Instr>,
    fuel: Vec<u64>,
    consts: Vec<Value>,
    traps: Vec<Error>,

    /// Named local → register (params first, then discovery order).
    named: HashMap<String, u32>,
    reg_names: Vec<Option<u32>>,
    n_named: u32,
    next_tmp: u32,
    max_reg: u32,
    n_counters: u32,

    pending: u64,
    state: PathState,
}

impl<'a> FnLower<'a> {
    fn new(
        iface: &'a Interface,
        f: &'a FnDef,
        symbols: &'a mut Interner,
        fn_ids: &'a BTreeMap<String, u32>,
        ecv_slots: &'a HashMap<&'a str, u32>,
    ) -> Self {
        let mut lower = FnLower {
            iface,
            f,
            symbols,
            fn_ids,
            ecv_slots,
            code: Vec::new(),
            fuel: Vec::new(),
            consts: Vec::new(),
            traps: Vec::new(),
            named: HashMap::new(),
            reg_names: Vec::new(),
            n_named: 0,
            next_tmp: 0,
            max_reg: 0,
            n_counters: 0,
            pending: 0,
            state: PathState {
                defined: BTreeSet::new(),
                known: BTreeMap::new(),
            },
        };
        for p in &f.params {
            lower.name_reg(p);
        }
        // Every name the body binds or reads gets a fixed slot up front, so
        // reads of never-written names resolve lazily to `Unresolved` with
        // the right name instead of needing a compile error.
        collect_names(&f.body, &mut |name| {
            lower.name_reg(name);
        });
        for i in 0..f.params.len() as u32 {
            lower.state.defined.insert(i);
        }
        lower.next_tmp = lower.n_named;
        lower.max_reg = lower.n_named;
        lower
    }

    fn name_reg(&mut self, name: &str) -> u32 {
        if let Some(&r) = self.named.get(name) {
            return r;
        }
        let r = self.n_named;
        self.named.insert(name.to_string(), r);
        self.reg_names.push(Some(self.symbols.intern(name)));
        self.n_named += 1;
        r
    }

    fn run(mut self) -> Result<Chunk> {
        let body: &'a [Stmt] = &self.f.body;
        let terminated = self.block(body)?;
        // Always terminate the stream: carries any trailing fuel when the
        // body can fall through, and backstops the executor's pc otherwise.
        let _ = terminated;
        self.emit(Instr::FellOff);
        if self.max_reg > u32::MAX - 2 {
            return Err(Error::Analysis {
                msg: format!("function `{}` needs too many registers", self.f.name),
            });
        }
        let n_regs = self.max_reg;
        let mut reg_names = std::mem::take(&mut self.reg_names);
        reg_names.resize(n_regs as usize, None);
        Ok(Chunk {
            name: self.f.name.clone(),
            arity: self.f.params.len() as u32,
            n_regs,
            n_counters: self.n_counters,
            code: self.code,
            fuel: self.fuel,
            consts: self.consts,
            traps: self.traps,
            reg_names,
        })
    }

    // -- emission helpers ---------------------------------------------------

    fn charge(&mut self, n: u64) {
        self.pending = self.pending.saturating_add(n);
    }

    fn emit(&mut self, i: Instr) -> usize {
        self.code.push(i);
        self.fuel.push(self.pending);
        self.pending = 0;
        self.code.len() - 1
    }

    fn here(&self) -> u32 {
        self.code.len() as u32
    }

    fn patch(&mut self, at: usize, target: u32) {
        match &mut self.code[at] {
            Instr::Jump { target: t }
            | Instr::JumpIfFalse { target: t, .. }
            | Instr::JumpIfTrue { target: t, .. }
            | Instr::ForTest { exit: t, .. } => *t = target,
            other => unreachable!("patching non-jump {other:?}"),
        }
    }

    fn const_id(&mut self, v: Value) -> u32 {
        if let Some(i) = self.consts.iter().position(|c| bit_eq(c, &v)) {
            return i as u32;
        }
        self.consts.push(v);
        (self.consts.len() - 1) as u32
    }

    fn trap_id(&mut self, e: Error) -> u32 {
        if let Some(i) = self.traps.iter().position(|t| *t == e) {
            return i as u32;
        }
        self.traps.push(e);
        (self.traps.len() - 1) as u32
    }

    fn tmp(&mut self) -> u32 {
        let r = self.next_tmp;
        self.next_tmp += 1;
        self.max_reg = self.max_reg.max(self.next_tmp);
        r
    }

    // -- constant folding ---------------------------------------------------

    /// Evaluates `e` at compile time if every input is known, returning the
    /// folded value and the exact number of fuel burns the interpreter
    /// would have spent on the subtree. Any interpreter error aborts the
    /// fold (the subtree lowers normally and errors at runtime instead).
    fn try_fold(&self, e: &Expr) -> Option<(Value, u64)> {
        match e {
            Expr::Num(n) => Some((Value::Num(*n), 1)),
            Expr::Bool(b) => Some((Value::Bool(*b), 1)),
            Expr::Joules(j) => Some((Value::joules(*j), 1)),
            Expr::Unit(u, k) => Some((Value::Energy(EnergyVec::from_unit(u.clone(), *k)), 1)),
            Expr::Var(name) => {
                let r = self.named.get(name.as_str())?;
                self.state.known.get(r).map(|v| (v.clone(), 1))
            }
            Expr::Field(base, name) => {
                let (b, cb) = self.try_fold(base)?;
                let v = b.field(name).ok()?.clone();
                Some((v, 1 + cb))
            }
            Expr::Ecv(_) => None,
            Expr::Unary(op, inner) => {
                let (v, c) = self.try_fold(inner)?;
                let r = interp::eval_unary(*op, &v).ok()?;
                Some((r, 1 + c))
            }
            Expr::Binary(BinOp::And, a, b) => {
                let (av, ca) = self.try_fold(a)?;
                match av {
                    Value::Bool(false) => Some((Value::Bool(false), 1 + ca)),
                    Value::Bool(true) => {
                        let (bv, cb) = self.try_fold(b)?;
                        let r = bv.as_bool().ok()?;
                        Some((Value::Bool(r), 1 + ca + cb))
                    }
                    _ => None,
                }
            }
            Expr::Binary(BinOp::Or, a, b) => {
                let (av, ca) = self.try_fold(a)?;
                match av {
                    Value::Bool(true) => Some((Value::Bool(true), 1 + ca)),
                    Value::Bool(false) => {
                        let (bv, cb) = self.try_fold(b)?;
                        let r = bv.as_bool().ok()?;
                        Some((Value::Bool(r), 1 + ca + cb))
                    }
                    _ => None,
                }
            }
            Expr::Binary(op, a, b) => {
                let (av, ca) = self.try_fold(a)?;
                let (bv, cb) = self.try_fold(b)?;
                let r = interp::eval_binary(*op, &av, &bv).ok()?;
                Some((r, 1 + ca + cb))
            }
            Expr::Call(_, _) => None,
            Expr::BuiltinCall(b, args) => {
                let mut vals = Vec::with_capacity(args.len());
                let mut cost = 1u64;
                for a in args {
                    let (v, c) = self.try_fold(a)?;
                    vals.push(v);
                    cost += c;
                }
                let r = interp::eval_builtin(*b, &vals).ok()?;
                Some((r, cost))
            }
            Expr::IfExpr(c, t, f) => {
                let (cv, cc) = self.try_fold(c)?;
                let taken = match cv {
                    Value::Bool(true) => t,
                    Value::Bool(false) => f,
                    _ => return None,
                };
                let (v, ct) = self.try_fold(taken)?;
                Some((v, 1 + cc + ct))
            }
        }
    }

    // -- expression lowering ------------------------------------------------

    /// Lowers `e` into a register, preferring a direct read of a named
    /// register for provably-defined variables (no instruction emitted).
    fn operand(&mut self, e: &'a Expr) -> Result<u32> {
        if let Expr::Var(name) = e {
            let r = self.named[name.as_str()];
            if self.state.defined.contains(&r) {
                self.charge(1);
                return Ok(r);
            }
        }
        let dst = self.tmp();
        self.expr(e, dst)?;
        Ok(dst)
    }

    /// Lowers `e` so its value lands in `dst`. `dst` is written exactly
    /// once, as the final action on every executed path. Returns the folded
    /// value when the whole expression was constant.
    fn expr(&mut self, e: &'a Expr, dst: u32) -> Result<Option<Value>> {
        if let Some((v, cost)) = self.try_fold(e) {
            self.charge(cost);
            let k = self.const_id(v.clone());
            self.emit(Instr::Const { dst, k });
            return Ok(Some(v));
        }
        self.charge(1);
        match e {
            // Literals always fold; reaching here means try_fold declined,
            // which cannot happen for these shapes.
            Expr::Num(_) | Expr::Bool(_) | Expr::Joules(_) | Expr::Unit(_, _) => {
                unreachable!("literals fold")
            }
            Expr::Var(name) => {
                // Copy performs the definedness check at the read point,
                // exactly where the interpreter raises `Unresolved`.
                let src = self.named[name.as_str()];
                self.emit(Instr::Copy { dst, src });
            }
            Expr::Field(base, name) => {
                let src = self.operand(base)?;
                let sym = self.symbols.intern(name);
                self.emit(Instr::Field { dst, src, sym });
            }
            Expr::Ecv(name) => {
                let slot = self.ecv_slots[name.as_str()];
                self.emit(Instr::Ecv { dst, e: slot });
            }
            Expr::Unary(UnOp::Neg, inner) => {
                let src = self.operand(inner)?;
                self.emit(Instr::Neg { dst, src });
            }
            Expr::Unary(UnOp::Not, inner) => {
                let src = self.operand(inner)?;
                self.emit(Instr::Not { dst, src });
            }
            Expr::Binary(op @ (BinOp::And | BinOp::Or), a, b) => {
                self.lower_logic(*op, a, b, dst)?;
            }
            Expr::Binary(op, a, b) => {
                let ra = self.operand(a)?;
                let rb = self.operand(b)?;
                self.emit(Instr::Bin {
                    op: *op,
                    dst,
                    a: ra,
                    b: rb,
                });
            }
            Expr::Call(name, args) => {
                let (base, n) = self.arg_slots(args)?;
                if let Some(&f) = self.fn_ids.get(name) {
                    let arity = self.iface.fns[name].params.len();
                    if arity == args.len() {
                        self.emit(Instr::Call { f, dst, base, n });
                    } else {
                        // The interpreter raises arity errors after the
                        // depth check, with the callee's own name.
                        let t = self.trap_id(Error::Arity {
                            func: name.clone(),
                            expected: arity,
                            got: args.len(),
                        });
                        self.emit(Instr::TrapCall { t });
                    }
                } else if let Some(b) = Builtin::from_name(name) {
                    // eval_builtin re-checks arity itself, matching the
                    // interpreter's name-resolved builtin path.
                    self.emit(Instr::CallBuiltin { b, dst, base, n });
                } else if self.iface.externs.contains_key(name) {
                    let t = self.trap_id(Error::Link {
                        msg: format!(
                            "extern `{name}` is not linked; \
                             compose this interface with a provider first"
                        ),
                    });
                    self.emit(Instr::TrapCall { t });
                } else {
                    let t = self.trap_id(Error::Unresolved {
                        kind: NameKind::Function,
                        name: name.clone(),
                    });
                    self.emit(Instr::TrapCall { t });
                }
            }
            Expr::BuiltinCall(b, args) => {
                let (base, n) = self.arg_slots(args)?;
                self.emit(Instr::Builtin {
                    b: *b,
                    dst,
                    base,
                    n,
                });
            }
            Expr::IfExpr(c, t, f) => {
                let cond = self.operand(c)?;
                let jf = self.emit(Instr::JumpIfFalse { cond, target: 0 });
                self.expr(t, dst)?;
                let jend = self.emit(Instr::Jump { target: 0 });
                let here = self.here();
                self.patch(jf, here);
                self.expr(f, dst)?;
                let here = self.here();
                self.patch(jend, here);
            }
        }
        Ok(None)
    }

    /// Short-circuit `&&`/`||` with the interpreter's exact burn and error
    /// order: evaluate lhs, coerce to bool, maybe skip rhs entirely.
    fn lower_logic(&mut self, op: BinOp, a: &'a Expr, b: &'a Expr, dst: u32) -> Result<()> {
        // Decisive constant lhs folds are handled by try_fold; a constant
        // *non-decisive* lhs (true for &&, false for ||) still reaches here
        // when the rhs is dynamic.
        let ra = self.operand(a)?;
        let jshort = match op {
            BinOp::And => self.emit(Instr::JumpIfFalse {
                cond: ra,
                target: 0,
            }),
            BinOp::Or => self.emit(Instr::JumpIfTrue {
                cond: ra,
                target: 0,
            }),
            _ => unreachable!("logic lowering"),
        };
        let rb = self.operand(b)?;
        self.emit(Instr::AsBool { dst, src: rb });
        let jend = self.emit(Instr::Jump { target: 0 });
        let here = self.here();
        self.patch(jshort, here);
        let k = self.const_id(Value::Bool(op == BinOp::Or));
        self.emit(Instr::Const { dst, k });
        let here = self.here();
        self.patch(jend, here);
        Ok(())
    }

    /// Lowers call/builtin arguments into freshly allocated *consecutive*
    /// slots (the executor copies `regs[base..base+n]` into the callee
    /// frame). Each argument's scratch temps are recycled immediately.
    fn arg_slots(&mut self, args: &'a [Expr]) -> Result<(u32, u32)> {
        let base = self.next_tmp;
        self.next_tmp += args.len() as u32;
        self.max_reg = self.max_reg.max(self.next_tmp);
        let floor = self.next_tmp;
        for (j, a) in args.iter().enumerate() {
            self.expr(a, base + j as u32)?;
            self.next_tmp = floor;
        }
        Ok((base, args.len() as u32))
    }

    // -- statement lowering -------------------------------------------------

    /// Lowers a statement list; returns true when every path through it
    /// returns (lowering stops at the first terminating statement, which
    /// the interpreter would never execute past).
    fn block(&mut self, stmts: &'a [Stmt]) -> Result<bool> {
        for s in stmts {
            let save = self.next_tmp;
            let terminated = self.stmt(s)?;
            self.next_tmp = save;
            if terminated {
                return Ok(true);
            }
        }
        Ok(false)
    }

    fn stmt(&mut self, s: &'a Stmt) -> Result<bool> {
        self.charge(1); // the interpreter's per-statement burn
        match s {
            Stmt::Let(name, e) => {
                let r = self.named[name.as_str()];
                let folded = self.expr(e, r)?;
                self.state.defined.insert(r);
                match folded {
                    Some(v) => {
                        self.state.known.insert(r, v);
                    }
                    None => {
                        self.state.known.remove(&r);
                    }
                }
                Ok(false)
            }
            Stmt::Assign(name, e) => {
                let r = self.named[name.as_str()];
                if !self.state.defined.contains(&r) {
                    // The interpreter checks the target exists before
                    // evaluating the right-hand side.
                    self.emit(Instr::CheckVar { src: r });
                    self.state.defined.insert(r);
                }
                let folded = self.expr(e, r)?;
                match folded {
                    Some(v) => {
                        self.state.known.insert(r, v);
                    }
                    None => {
                        self.state.known.remove(&r);
                    }
                }
                Ok(false)
            }
            Stmt::If(cond, then_b, else_b) => self.lower_if(cond, then_b, else_b),
            Stmt::For {
                var,
                from,
                to,
                body,
            } => self.lower_for(var, from, to, body),
            Stmt::While { cond, bound, body } => self.lower_while(cond, *bound, body),
            Stmt::Return(e) => {
                let src = self.operand(e)?;
                self.emit(Instr::Return { src });
                Ok(true)
            }
        }
    }

    fn lower_if(&mut self, cond: &'a Expr, then_b: &'a [Stmt], else_b: &'a [Stmt]) -> Result<bool> {
        // Branch specialization: a constant boolean condition lowers only
        // the taken arm (the interpreter never burns the other one).
        if let Some((Value::Bool(c), cost)) = self.try_fold(cond) {
            self.charge(cost);
            return self.block(if c { then_b } else { else_b });
        }
        let creg = self.operand(cond)?;
        let jf = self.emit(Instr::JumpIfFalse {
            cond: creg,
            target: 0,
        });
        let pre = self.state.clone();
        let t_term = self.block(then_b)?;
        let t_state = std::mem::replace(&mut self.state, pre);
        let jend = if t_term {
            None
        } else {
            Some(self.emit(Instr::Jump { target: 0 }))
        };
        let here = self.here();
        self.patch(jf, here);
        let e_term = self.block(else_b)?;
        if !e_term && self.pending > 0 {
            // Trailing fuel of the else path must not leak onto the shared
            // merge point.
            self.emit(Instr::Nop);
        }
        if let Some(j) = jend {
            let here = self.here();
            self.patch(j, here);
        }
        match (t_term, e_term) {
            (true, true) => Ok(true),
            (true, false) => Ok(false), // state is the else-path state
            (false, true) => {
                self.state = t_state;
                Ok(false)
            }
            (false, false) => {
                self.state.join(&t_state);
                Ok(false)
            }
        }
    }

    fn lower_for(
        &mut self,
        var: &str,
        from: &'a Expr,
        to: &'a Expr,
        body: &'a [Stmt],
    ) -> Result<bool> {
        let var_reg = self.named[var];

        // Loop-bound specialization: both bounds constant-fold to finite
        // numbers, the interval analysis admits a small trip count, and the
        // unrolled body fits the code-size budget.
        if let Some(plan) = self.unroll_plan(from, to, body) {
            return self.unroll_for(var_reg, plan, body);
        }

        let from_reg = self.operand(from)?;
        // `from` must be numeric before `to` is even evaluated.
        self.emit(Instr::CheckNum { src: from_reg });
        let to_reg = self.tmp();
        self.expr(to, to_reg)?;
        let i_reg = self.tmp();
        self.emit(Instr::ForInit {
            i: i_reg,
            from: from_reg,
            to: to_reg,
        });

        let pre = self.state.clone();
        clear_assigned(&mut self.state.known, body, &self.named);
        self.state.known.remove(&var_reg);
        self.state.defined.insert(var_reg);

        let head = self.here() as usize;
        let test = self.emit(Instr::ForTest {
            i: i_reg,
            to: to_reg,
            var: var_reg,
            exit: 0,
        });
        self.charge(1); // per-iteration burn
        let terminated = self.block(body)?;
        if !terminated {
            self.emit(Instr::ForStep {
                i: i_reg,
                back: head as u32,
            });
        }
        let here = self.here();
        self.patch(test, here);

        // After the loop: zero trips are possible, so restore the entry
        // state minus everything the loop can touch.
        self.state = pre;
        clear_assigned(&mut self.state.known, body, &self.named);
        self.state.known.remove(&var_reg);
        Ok(false)
    }

    /// Exact trip simulation for a constant-bound `for`, mirroring the
    /// interpreter's `i = from.floor(); while i < to; i += 1.0` loop.
    fn unroll_plan(&self, from: &Expr, to: &Expr, body: &[Stmt]) -> Option<UnrollPlan> {
        let (fv, from_cost) = self.try_fold(from)?;
        let (tv, to_cost) = self.try_fold(to)?;
        let (Value::Num(from_n), Value::Num(to_n)) = (fv, tv) else {
            return None;
        };
        if !from_n.is_finite() || !to_n.is_finite() {
            return None;
        }
        // Interval pre-check (the sema interval analysis): reject huge
        // ranges before simulating them step by step.
        let trips_iv = Interval::point(to_n).sub(&Interval::point(from_n.floor()));
        // A NaN upper bound (from interval arithmetic over inf - inf)
        // must also bail out, not just a provably huge one.
        if trips_iv.hi.is_nan() || trips_iv.hi > UNROLL_MAX_TRIPS as f64 + 1.0 {
            return None;
        }
        let body_cost = body.iter().map(stmt_size).sum::<u64>().max(1);
        let mut iters = Vec::new();
        let mut i = from_n.floor();
        while i < to_n {
            iters.push(i);
            if iters.len() as u64 > UNROLL_MAX_TRIPS
                || iters.len() as u64 * body_cost > UNROLL_BODY_BUDGET
            {
                return None;
            }
            i += 1.0;
        }
        Some(UnrollPlan {
            bounds_cost: from_cost + to_cost,
            iters,
        })
    }

    fn unroll_for(&mut self, var_reg: u32, plan: UnrollPlan, body: &'a [Stmt]) -> Result<bool> {
        // Statement burn (already charged by stmt()) plus both bound
        // evaluations, as a lump.
        self.charge(plan.bounds_cost);
        for i in plan.iters {
            self.charge(1); // per-iteration burn
            let k = self.const_id(Value::Num(i));
            self.emit(Instr::Const { dst: var_reg, k });
            self.state.defined.insert(var_reg);
            self.state.known.insert(var_reg, Value::Num(i));
            let save = self.next_tmp;
            let terminated = self.block(body)?;
            self.next_tmp = save;
            if terminated {
                // The first iteration that returns ends the function; the
                // interpreter never reaches later iterations.
                return Ok(true);
            }
        }
        Ok(false)
    }

    fn lower_while(&mut self, cond: &'a Expr, bound: u64, body: &'a [Stmt]) -> Result<bool> {
        let c = self.n_counters;
        self.n_counters += 1;
        // ResetTrips doubles as the pre-head fuel carrier: everything
        // pending (the statement burn) lands here, outside the loop.
        self.emit(Instr::ResetTrips { c });

        let pre = self.state.clone();
        clear_assigned(&mut self.state.known, body, &self.named);

        let head = self.here();
        let creg = self.operand(cond)?;
        let jf = self.emit(Instr::JumpIfFalse {
            cond: creg,
            target: 0,
        });
        self.emit(Instr::WhileGuard { c, bound });
        self.charge(1); // per-iteration burn
        let terminated = self.block(body)?;
        if !terminated {
            self.emit(Instr::Jump { target: head });
        }
        let here = self.here();
        self.patch(jf, here);

        self.state = pre;
        clear_assigned(&mut self.state.known, body, &self.named);
        Ok(false)
    }
}

struct UnrollPlan {
    bounds_cost: u64,
    iters: Vec<f64>,
}

/// Collects every name a statement list binds or reads, in pre-order.
fn collect_names(stmts: &[Stmt], f: &mut impl FnMut(&str)) {
    fn expr_names(e: &Expr, f: &mut impl FnMut(&str)) {
        e.visit(&mut |e| {
            if let Expr::Var(name) = e {
                f(name);
            }
        });
    }
    for s in stmts {
        match s {
            Stmt::Let(name, e) | Stmt::Assign(name, e) => {
                f(name);
                expr_names(e, f);
            }
            Stmt::If(c, t, e) => {
                expr_names(c, f);
                collect_names(t, f);
                collect_names(e, f);
            }
            Stmt::For {
                var,
                from,
                to,
                body,
            } => {
                expr_names(from, f);
                expr_names(to, f);
                f(var);
                collect_names(body, f);
            }
            Stmt::While { cond, body, .. } => {
                expr_names(cond, f);
                collect_names(body, f);
            }
            Stmt::Return(e) => expr_names(e, f),
        }
    }
}

/// Drops constant knowledge for every register a loop body can write
/// (`let`/assign targets and `for` variables, at any nesting depth).
fn clear_assigned(known: &mut BTreeMap<u32, Value>, body: &[Stmt], named: &HashMap<String, u32>) {
    for s in body {
        match s {
            Stmt::Let(name, _) | Stmt::Assign(name, _) => {
                if let Some(r) = named.get(name.as_str()) {
                    known.remove(r);
                }
            }
            Stmt::If(_, t, e) => {
                clear_assigned(known, t, named);
                clear_assigned(known, e, named);
            }
            Stmt::For { var, body, .. } => {
                if let Some(r) = named.get(var.as_str()) {
                    known.remove(r);
                }
                clear_assigned(known, body, named);
            }
            Stmt::While { body, .. } => clear_assigned(known, body, named),
            Stmt::Return(_) => {}
        }
    }
}

/// Approximate AST node count of a statement, for the unroll budget.
fn stmt_size(s: &Stmt) -> u64 {
    fn expr_size(e: &Expr) -> u64 {
        let mut n = 0u64;
        e.visit(&mut |_| n += 1);
        n
    }
    match s {
        Stmt::Let(_, e) | Stmt::Assign(_, e) | Stmt::Return(e) => 1 + expr_size(e),
        Stmt::If(c, t, e) => {
            1 + expr_size(c)
                + t.iter().map(stmt_size).sum::<u64>()
                + e.iter().map(stmt_size).sum::<u64>()
        }
        Stmt::For { from, to, body, .. } => {
            1 + expr_size(from) + expr_size(to) + body.iter().map(stmt_size).sum::<u64>()
        }
        Stmt::While { cond, body, .. } => {
            1 + expr_size(cond) + body.iter().map(stmt_size).sum::<u64>()
        }
    }
}
