//! The register-machine executor.
//!
//! A [`Vm`] holds the mutable run state for one compiled [`Program`]: a
//! flat register stack (frames are contiguous windows addressed by a base
//! offset), a parallel stack of while-loop trip counters, the resolved
//! ECV slots for the current sample, and the fuel budget. The instance is
//! designed to be **reused across samples** — `run` resets per-call state
//! but keeps the allocations. Most of the compiled Monte-Carlo speedup over
//! the tree-walk does not come from here but from the Monte-Carlo sampler's
//! assignment memo in [`crate::interp`], which skips `run` entirely for
//! an ECV assignment it has already executed.
//!
//! Semantics are defined by the tree-walk interpreter in
//! [`crate::interp`]: every arithmetic case, error variant, error message,
//! and fuel-exhaustion boundary must match it bit for bit (the
//! differential suites in `tests/vm_differential.rs` and
//! `tests/vm_errors.rs` enforce this). Arithmetic therefore *calls the
//! interpreter's own* `eval_unary`/`eval_binary`/`eval_builtin` rather
//! than reimplementing them — the VM removes dispatch overhead, not
//! semantics.

use std::collections::BTreeMap;

use crate::ast::UnOp;
use crate::ecv::EcvValue;
use crate::error::{Error, NameKind, Result};
use crate::interp::{self, EvalConfig};
use crate::value::Value;

use super::chunk::{Chunk, Instr, Program};

/// Reusable execution state for one compiled program.
pub struct Vm<'p> {
    program: &'p Program,
    /// Flat register stack; each active frame owns a contiguous window.
    /// `None` marks a named local that has not been written yet.
    regs: Vec<Option<Value>>,
    /// Flat while-counter stack, windowed like `regs`.
    counters: Vec<u64>,
    /// Resolved ECV slots for the current sample (`None` = not assigned).
    ecvs: Vec<Option<Value>>,
    /// Scratch buffer for builtin argument vectors (kept to avoid
    /// reallocating per call).
    scratch: Vec<Value>,
    fuel: u64,
    fuel_limit: u64,
    max_depth: usize,
}

impl<'p> Vm<'p> {
    /// Creates an executor for `program` with empty state.
    pub fn new(program: &'p Program) -> Vm<'p> {
        Vm {
            program,
            regs: Vec::new(),
            counters: Vec::new(),
            ecvs: vec![None; program.ecv_names.len()],
            scratch: Vec::new(),
            fuel: 0,
            fuel_limit: 0,
            max_depth: 0,
        }
    }

    /// Fuel consumed by the most recent [`Vm::run`] call.
    pub fn fuel_used(&self) -> u64 {
        self.fuel_limit - self.fuel
    }

    /// Evaluates `func(args)` under `assignment`, mirroring the
    /// interpreter's entry dispatch (`Eval::call` at depth 0) exactly.
    pub fn run(
        &mut self,
        func: &str,
        args: &[Value],
        assignment: &BTreeMap<String, EcvValue>,
        config: &EvalConfig,
    ) -> Result<Value> {
        self.fuel = config.fuel;
        self.fuel_limit = config.fuel;
        self.max_depth = config.max_depth;
        for (slot, name) in self.ecvs.iter_mut().zip(&self.program.ecv_names) {
            *slot = assignment.get(name).map(|v| match v {
                EcvValue::Bool(b) => Value::Bool(*b),
                EcvValue::Num(n) => Value::Num(*n),
            });
        }
        self.regs.clear();
        self.counters.clear();

        if let Some(&fid) = self.program.fn_ids.get(func) {
            let chunk = &self.program.chunks[fid as usize];
            if chunk.arity as usize != args.len() {
                return Err(Error::Arity {
                    func: chunk.name.clone(),
                    expected: chunk.arity as usize,
                    got: args.len(),
                });
            }
            let n_regs = chunk.n_regs as usize;
            let n_counters = chunk.n_counters as usize;
            self.regs.extend(args.iter().cloned().map(Some));
            self.regs.resize(n_regs, None);
            self.counters.resize(n_counters, 0);
            self.exec(fid, 0, 0, 0)
        } else if let Some(b) = crate::ast::Builtin::from_name(func) {
            interp::eval_builtin(b, args)
        } else if self.program.externs.contains(func) {
            Err(Error::Link {
                msg: format!(
                    "extern `{func}` is not linked; \
                     compose this interface with a provider first"
                ),
            })
        } else {
            Err(Error::Unresolved {
                kind: NameKind::Function,
                name: func.to_string(),
            })
        }
    }

    /// The name a register read should report in `Unresolved` errors.
    fn reg_name(&self, chunk: &Chunk, r: u32) -> String {
        chunk.reg_names[r as usize]
            .map(|s| self.program.symbols[s as usize].clone())
            .unwrap_or_else(|| "?".to_string())
    }

    /// Reads register `base + r`, cloning the value.
    fn rd(&self, chunk: &Chunk, base: u32, r: u32) -> Result<Value> {
        match &self.regs[(base + r) as usize] {
            Some(v) => Ok(v.clone()),
            None => Err(Error::Unresolved {
                kind: NameKind::Variable,
                name: self.reg_name(chunk, r),
            }),
        }
    }

    /// Reads register `base + r` by reference (no clone).
    fn rd_ref(&self, chunk: &Chunk, base: u32, r: u32) -> Result<&Value> {
        match &self.regs[(base + r) as usize] {
            Some(v) => Ok(v),
            None => Err(Error::Unresolved {
                kind: NameKind::Variable,
                name: self.reg_name(chunk, r),
            }),
        }
    }

    fn wr(&mut self, base: u32, r: u32, v: Value) {
        self.regs[(base + r) as usize] = Some(v);
    }

    /// Collects `regs[base+abase .. base+abase+n]` into the scratch
    /// buffer and applies `f`. Argument slots are always written by the
    /// lowering before the call instruction, so reads cannot fail.
    fn with_args<T>(
        &mut self,
        base: u32,
        abase: u32,
        n: u32,
        f: impl FnOnce(&Self, &[Value]) -> Result<T>,
    ) -> Result<T> {
        let mut args = std::mem::take(&mut self.scratch);
        args.clear();
        let lo = (base + abase) as usize;
        for j in lo..lo + n as usize {
            args.push(self.regs[j].clone().expect("argument slot written"));
        }
        let res = f(self, &args);
        args.clear();
        self.scratch = args;
        res
    }

    /// Runs chunk `fid` with its frame at `base`/`cbase`, at call depth
    /// `depth`.
    fn exec(&mut self, fid: u32, base: u32, cbase: u32, depth: usize) -> Result<Value> {
        let program = self.program;
        let chunk = &program.chunks[fid as usize];
        let mut pc = 0usize;
        loop {
            // Static fuel debit: `fuel[pc]` is the number of burns the
            // interpreter performs between the previous instruction and
            // this one, so exhaustion fires at the same boundary.
            let w = chunk.fuel[pc];
            if w > 0 {
                if w > self.fuel {
                    self.fuel = 0;
                    return Err(Error::FuelExhausted {
                        limit: self.fuel_limit,
                    });
                }
                self.fuel -= w;
            }
            match &chunk.code[pc] {
                Instr::Nop => {}
                Instr::Const { dst, k } => {
                    self.wr(base, *dst, chunk.consts[*k as usize].clone());
                }
                Instr::Copy { dst, src } => {
                    let v = self.rd(chunk, base, *src)?;
                    self.wr(base, *dst, v);
                }
                Instr::Ecv { dst, e } => match &self.ecvs[*e as usize] {
                    Some(v) => {
                        let v = v.clone();
                        self.wr(base, *dst, v);
                    }
                    None => {
                        return Err(Error::Unresolved {
                            kind: NameKind::Ecv,
                            name: program.ecv_names[*e as usize].clone(),
                        })
                    }
                },
                Instr::Field { dst, src, sym } => {
                    let b = self.rd_ref(chunk, base, *src)?;
                    let v = b.field(&program.symbols[*sym as usize])?.clone();
                    self.wr(base, *dst, v);
                }
                Instr::Neg { dst, src } => {
                    let v = self.rd(chunk, base, *src)?;
                    let r = interp::eval_unary(UnOp::Neg, v)?;
                    self.wr(base, *dst, r);
                }
                Instr::Not { dst, src } => {
                    let v = self.rd(chunk, base, *src)?;
                    let r = interp::eval_unary(UnOp::Not, v)?;
                    self.wr(base, *dst, r);
                }
                Instr::Bin { op, dst, a, b } => {
                    let va = self.rd(chunk, base, *a)?;
                    let vb = self.rd(chunk, base, *b)?;
                    let r = interp::eval_binary(*op, va, vb)?;
                    self.wr(base, *dst, r);
                }
                Instr::AsBool { dst, src } => {
                    let b = self.rd_ref(chunk, base, *src)?.as_bool()?;
                    self.wr(base, *dst, Value::Bool(b));
                }
                Instr::CheckVar { src } => {
                    self.rd_ref(chunk, base, *src)?;
                }
                Instr::CheckNum { src } => {
                    self.rd_ref(chunk, base, *src)?.as_num()?;
                }
                Instr::Jump { target } => {
                    pc = *target as usize;
                    continue;
                }
                Instr::JumpIfFalse { cond, target } => {
                    if !self.rd_ref(chunk, base, *cond)?.as_bool()? {
                        pc = *target as usize;
                        continue;
                    }
                }
                Instr::JumpIfTrue { cond, target } => {
                    if self.rd_ref(chunk, base, *cond)?.as_bool()? {
                        pc = *target as usize;
                        continue;
                    }
                }
                Instr::Builtin {
                    b,
                    dst,
                    base: abase,
                    n,
                } => {
                    let r =
                        self.with_args(base, *abase, *n, |_, args| interp::eval_builtin(*b, args))?;
                    self.wr(base, *dst, r);
                }
                Instr::CallBuiltin {
                    b,
                    dst,
                    base: abase,
                    n,
                } => {
                    if depth + 1 > self.max_depth {
                        return Err(Error::StackOverflow {
                            limit: self.max_depth,
                        });
                    }
                    let r =
                        self.with_args(base, *abase, *n, |_, args| interp::eval_builtin(*b, args))?;
                    self.wr(base, *dst, r);
                }
                Instr::Call {
                    f,
                    dst,
                    base: abase,
                    n,
                } => {
                    if depth + 1 > self.max_depth {
                        return Err(Error::StackOverflow {
                            limit: self.max_depth,
                        });
                    }
                    let callee = &program.chunks[*f as usize];
                    let new_base = self.regs.len() as u32;
                    let lo = (base + abase) as usize;
                    for j in 0..*n as usize {
                        let v = self.regs[lo + j].clone();
                        self.regs.push(v);
                    }
                    self.regs
                        .resize(new_base as usize + callee.n_regs as usize, None);
                    let new_cbase = self.counters.len() as u32;
                    self.counters
                        .resize(new_cbase as usize + callee.n_counters as usize, 0);
                    let r = self.exec(*f, new_base, new_cbase, depth + 1);
                    self.regs.truncate(new_base as usize);
                    self.counters.truncate(new_cbase as usize);
                    let v = r?;
                    self.wr(base, *dst, v);
                }
                Instr::ForInit { i, from, to } => {
                    let fr = self.rd_ref(chunk, base, *from)?.as_num()?;
                    let tv = self.rd_ref(chunk, base, *to)?.as_num()?;
                    if !fr.is_finite() || !tv.is_finite() {
                        return Err(Error::NonFinite {
                            context: "for-loop bounds".to_string(),
                        });
                    }
                    self.wr(base, *i, Value::Num(fr.floor()));
                }
                Instr::ForTest { i, to, var, exit } => {
                    let iv = self.rd_ref(chunk, base, *i)?.as_num()?;
                    let tv = self.rd_ref(chunk, base, *to)?.as_num()?;
                    if iv < tv {
                        self.wr(base, *var, Value::Num(iv));
                    } else {
                        pc = *exit as usize;
                        continue;
                    }
                }
                Instr::ForStep { i, back } => {
                    let iv = self.rd_ref(chunk, base, *i)?.as_num()?;
                    self.wr(base, *i, Value::Num(iv + 1.0));
                    pc = *back as usize;
                    continue;
                }
                Instr::ResetTrips { c } => {
                    self.counters[(cbase + c) as usize] = 0;
                }
                Instr::WhileGuard { c, bound } => {
                    let trips = &mut self.counters[(cbase + c) as usize];
                    if *trips >= *bound {
                        return Err(Error::BoundExceeded { bound: *bound });
                    }
                    *trips += 1;
                }
                Instr::Return { src } => {
                    return self.rd(chunk, base, *src);
                }
                Instr::Trap { t } => {
                    return Err(chunk.traps[*t as usize].clone());
                }
                Instr::TrapCall { t } => {
                    if depth + 1 > self.max_depth {
                        return Err(Error::StackOverflow {
                            limit: self.max_depth,
                        });
                    }
                    return Err(chunk.traps[*t as usize].clone());
                }
                Instr::FellOff => {
                    return Err(Error::Type {
                        expected: "a return value",
                        got: format!("function `{}` fell off the end", chunk.name),
                    });
                }
            }
            pc += 1;
        }
    }
}
