//! Lowering: type-checked EIL → register bytecode.
//!
//! One [`FnLower`] pass per function, driven by [`compile`]. Each
//! expression and statement has exactly one lowering: a literal becomes a
//! `Const`, an `if` becomes a conditional jump over both arms, and a `for`
//! loop becomes the `ForInit`/`ForTest`/`ForStep` triple, whatever their
//! operands are.
//!
//! Register allocation: every named local (parameter, `let`/assign
//! target, `for` variable, and any referenced name) gets a fixed slot;
//! expression temporaries are bump-allocated above them and recycled per
//! statement. Reads of possibly-undefined names go through an eager
//! `Copy`/`CheckVar` so `Unresolved` errors fire at exactly the point the
//! tree-walk interpreter would raise them.
//!
//! Fuel discipline: a `pending` counter accumulates the burns the
//! interpreter would have performed and is attached to the next emitted
//! instruction, so the executor's per-instruction debit reproduces the
//! interpreter's fuel trajectory exactly (see `vm::chunk` module docs).

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::ast::{BinOp, Builtin, Expr, FnDef, Stmt, UnOp};
use crate::error::{Error, NameKind, Result};
use crate::interface::Interface;
use crate::units::EnergyVec;
use crate::value::Value;

use super::chunk::{Chunk, Instr, Program};

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
    for f in iface.fns().values() {
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
        .fns()
        .keys()
        .enumerate()
        .map(|(i, n)| (n.clone(), i as u32))
        .collect();

    let mut chunks = Vec::with_capacity(iface.fns().len());
    for f in iface.fns().values() {
        let lower = FnLower::new(iface, f, &mut symbols, &fn_ids, &ecv_slots);
        chunks.push(lower.run()?);
    }

    let program = Program {
        name: iface.name.clone(),
        symbols: symbols.strings,
        units: units.into_iter().collect(),
        ecv_names,
        externs: iface.externs.keys().cloned().collect(),
        chunks,
        fn_ids,
    };
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

/// Bit-exact equality of literal values, for constant-pool dedup:
/// distinguishes `0.0`/`-0.0`, treats identical NaNs as equal, and is
/// sensitive to abstract-unit key presence — distinctions `Value:
/// PartialEq` blurs, and a shared pool entry must not.
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
    /// Named registers definitely written on every path to the current
    /// point (an under-approximation; intersected at `if` merges).
    defined: BTreeSet<u32>,
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
            defined: BTreeSet::new(),
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
            lower.defined.insert(i);
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
        self.block(body)?;
        // Always terminate the stream: carries any trailing fuel when the
        // body can fall through, and backstops the executor's pc otherwise.
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

    /// Emits `dst = v`, sharing one pool entry per distinct literal.
    fn load(&mut self, dst: u32, v: Value) {
        let k = match self.consts.iter().position(|c| bit_eq(c, &v)) {
            Some(i) => i as u32,
            None => {
                self.consts.push(v);
                (self.consts.len() - 1) as u32
            }
        };
        self.emit(Instr::Const { dst, k });
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

    // -- expression lowering ------------------------------------------------

    /// Lowers `e` into a register, preferring a direct read of a named
    /// register for provably-defined variables (no instruction emitted).
    fn operand(&mut self, e: &'a Expr) -> Result<u32> {
        if let Expr::Var(name) = e {
            let r = self.named[name.as_str()];
            if self.defined.contains(&r) {
                self.charge(1);
                return Ok(r);
            }
        }
        let dst = self.tmp();
        self.expr(e, dst)?;
        Ok(dst)
    }

    /// Lowers `e` so its value lands in `dst`. `dst` is written exactly
    /// once, as the final action on every executed path.
    fn expr(&mut self, e: &'a Expr, dst: u32) -> Result<()> {
        self.charge(1);
        match e {
            Expr::Num(n) => self.load(dst, Value::Num(*n)),
            Expr::Bool(b) => self.load(dst, Value::Bool(*b)),
            Expr::Joules(j) => self.load(dst, Value::joules(*j)),
            Expr::Unit(u, k) => self.load(dst, Value::Energy(EnergyVec::from_unit(u.clone(), *k))),
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
                    let arity = self.iface.fns()[name].params.len();
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
        Ok(())
    }

    /// Short-circuit `&&`/`||` with the interpreter's exact burn and error
    /// order: evaluate lhs, coerce to bool, maybe skip rhs entirely.
    fn lower_logic(&mut self, op: BinOp, a: &'a Expr, b: &'a Expr, dst: u32) -> Result<()> {
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
        self.load(dst, Value::Bool(op == BinOp::Or));
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
                self.expr(e, r)?;
                self.defined.insert(r);
                Ok(false)
            }
            Stmt::Assign(name, e) => {
                let r = self.named[name.as_str()];
                if !self.defined.contains(&r) {
                    // The interpreter checks the target exists before
                    // evaluating the right-hand side.
                    self.emit(Instr::CheckVar { src: r });
                    self.defined.insert(r);
                }
                self.expr(e, r)?;
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
        let creg = self.operand(cond)?;
        let jf = self.emit(Instr::JumpIfFalse {
            cond: creg,
            target: 0,
        });
        let pre = self.defined.clone();
        let t_term = self.block(then_b)?;
        let t_defined = std::mem::replace(&mut self.defined, pre);
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
            (true, false) => Ok(false), // `defined` is the else path's
            (false, true) => {
                self.defined = t_defined;
                Ok(false)
            }
            (false, false) => {
                self.defined.retain(|r| t_defined.contains(r));
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

        let pre = self.defined.clone();
        self.defined.insert(var_reg);

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

        // After the loop: zero trips are possible, so restore the entry set.
        self.defined = pre;
        Ok(false)
    }

    fn lower_while(&mut self, cond: &'a Expr, bound: u64, body: &'a [Stmt]) -> Result<bool> {
        let c = self.n_counters;
        self.n_counters += 1;
        // ResetTrips doubles as the pre-head fuel carrier: everything
        // pending (the statement burn) lands here, outside the loop.
        self.emit(Instr::ResetTrips { c });

        let pre = self.defined.clone();
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

        self.defined = pre;
        Ok(false)
    }
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
