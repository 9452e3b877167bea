//! The register-machine executor.
//!
//! A [`Vm`] holds the mutable run state for one compiled [`Program`]: a
//! flat register stack (frames are contiguous windows addressed by a base
//! offset), a parallel stack of while-loop trip counters, the resolved
//! ECV slots for the current sample, the fuel budget, and a call memo.
//! The instance is designed to be **reused across samples** — `run`
//! resets per-call state but keeps the allocations and the memo.
//!
//! ## Two memos
//!
//! Most of the compiled speedup over the tree-walk comes from not
//! executing, and two memos at two layers do that:
//!
//! - **The call memo** (here, one per `Vm`). A `Call` to a chunk whose
//!   closure reads no ECV is a function of its arguments alone, so a
//!   repeat of the same callee on the same argument bits returns the
//!   stored value. This absorbs the repeated kernel calls inside one
//!   evaluation (GPT-2's decode steps all call `e_embed(1)`,
//!   `e_lm_head()` and the same four matmuls) and across the samples of
//!   one sampling call (everything below the ECV reads). It cannot see the
//!   entry frame, which reads ECVs.
//! - **The assignment memo** (`AssignmentMemo` in [`crate::interp`], one
//!   per Monte-Carlo call or worker). It skips `run` entirely for an ECV
//!   assignment already executed, which covers the entry frame: Fig. 1's
//!   `handle(request)` reads ECVs and takes a record, so no call memo
//!   could replace it. It is a dense table over the call's finite
//!   assignment space, indexed by the draw's mixed-radix index; a
//!   continuous ECV, or a space above its cap, gets no table. On a miss
//!   the sampler loads the ECV slots straight from its flat draw through
//!   `Vm::run_with`; [`Vm::run`] is the same loader fed from a named map.
//!
//! Neither memo is process-wide: both live exactly as long as one driver
//! call (a single-shot evaluation, `evaluate_batch`, `monte_carlo` or
//! `enumerate_exact`) or one `monte_carlo_par` worker. Which calls are
//! memoizable is worked out once per compiled program (`Program::ecv_free`).
//!
//! The call memo keeps the tree-walk's observable behaviour exactly. Only
//! successful calls are stored, each with the fuel it consumed and the
//! deepest call depth it reached relative to its own frame. A repeat takes
//! the stored value only when re-executing would provably succeed under
//! the current limits (enough fuel left, enough depth left); it then
//! debits the stored fuel, so fuel accounting and the telemetry trace are
//! unchanged. Otherwise the call executes and fails at the same boundary
//! the tree-walk does. Keys are the callee id plus a kind tag and the raw
//! bits of each argument, compared in full; a call that passes a record or
//! an energy with abstract units is never memoized.
//!
//! Semantics are defined by the tree-walk interpreter in
//! [`crate::interp`]: every arithmetic case, error variant, error message,
//! and fuel-exhaustion boundary must match it bit for bit (the
//! differential suites in `tests/vm_differential.rs` and
//! `tests/vm_errors.rs` enforce this). Arithmetic therefore *calls the
//! interpreter's own* `eval_unary`/`eval_binary`/`eval_builtin` rather
//! than reimplementing them — the VM removes dispatch overhead, not
//! semantics. Those kernels take their operands by reference: `Bin`,
//! `Neg` and `Not` borrow their registers in place (`rd_ref`), so an
//! arithmetic instruction clones no operand. The tree-walk instead clones
//! every variable it reads out of its name-keyed locals.

use std::collections::{BTreeMap, HashMap};

use crate::ast::UnOp;
use crate::ecv::EcvValue;
use crate::error::{Error, NameKind, Result};
use crate::interp::{self, EvalConfig};
use crate::value::Value;

use super::chunk::{Chunk, Instr, Program};

/// Most distinct calls one [`Vm`]'s call memo remembers. A GPT-2
/// `e_generate` sweep stores about 600, a 256-sample `e_step` Monte Carlo
/// about 1,000; past the cap, new calls execute without being stored,
/// which changes speed only.
const CALL_MEMO_CAP: usize = 4096;

/// One memoized call: what it returned and what it cost.
struct CallEntry {
    value: Value,
    /// Fuel the callee consumed.
    fuel: u64,
    /// Deepest depth check the callee passed, relative to its own frame.
    depth: usize,
}

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
    /// The call memo: [`Vm::memo_key`] encodings, each indexing `entries`.
    /// The table keeps up to twice as many slots as entries, so its slots
    /// hold an index, not the entry.
    calls: HashMap<Box<[u64]>, u32>,
    entries: Vec<CallEntry>,
    /// Scratch buffer for the key of the call being looked up.
    key: Vec<u64>,
    /// Deepest depth check passed so far in the current call.
    peak: usize,
    /// `Call` instructions that passed their depth check, and the callee
    /// frames actually executed for them.
    #[cfg(test)]
    counts: (u64, u64),
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
            calls: HashMap::new(),
            entries: Vec::new(),
            key: Vec::new(),
            peak: 0,
            #[cfg(test)]
            counts: (0, 0),
        }
    }

    /// `Call` instructions executed so far, and how many of them ran the
    /// callee's frame instead of answering from the call memo.
    #[cfg(test)]
    pub(crate) fn call_counts(&self) -> (u64, u64) {
        self.counts
    }

    /// The program this executor runs.
    pub(crate) fn program(&self) -> &'p Program {
        self.program
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
        self.run_with(func, args, config, |_, name| assignment.get(name).copied())
    }

    /// [`Vm::run`] with the ECV registers loaded by `ecv(slot, name)` for
    /// each of the program's ECV slots (`None` = not assigned, an
    /// `Unresolved` error if read). The sampling drivers pass a closure
    /// that indexes their flat draw directly, so a sample builds no map
    /// and looks up no name.
    pub(crate) fn run_with(
        &mut self,
        func: &str,
        args: &[Value],
        config: &EvalConfig,
        mut ecv: impl FnMut(usize, &str) -> Option<EcvValue>,
    ) -> Result<Value> {
        self.fuel = config.fuel;
        self.fuel_limit = config.fuel;
        self.max_depth = config.max_depth;
        for (i, (slot, name)) in self
            .ecvs
            .iter_mut()
            .zip(&self.program.ecv_names)
            .enumerate()
        {
            *slot = ecv(i, name).map(|v| match v {
                EcvValue::Bool(b) => Value::Bool(b),
                EcvValue::Num(n) => Value::Num(n),
            });
        }
        self.regs.clear();
        self.counters.clear();
        self.peak = 0;

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
    /// buffer and applies `f`. Reads cannot fail: `compile` runs the
    /// verifier on every program, and its must-defined check rejects any
    /// call whose argument slot may be unwritten ("argument slot rN may be
    /// undefined at the call", pinned by the `undefined-argument-slot`
    /// entry of `testing::bad_chunk_corpus`).
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

    /// Writes into `self.key` the memo key of calling chunk `f` on
    /// `regs[args..args + n]`: the callee id, then each argument's kind
    /// tag (two bits each, 32 to a word), then each argument's raw bits, so
    /// `Num(x)` and `x J` never share a key. The callee fixes `n`, so the
    /// layout is unambiguous. Returns false, leaving the call unmemoized,
    /// when an argument is a record or an energy with abstract units.
    fn memo_key(&mut self, f: u32, args: u32, n: u32) -> bool {
        self.key.clear();
        self.key.push(u64::from(f));
        let tags_at = self.key.len();
        self.key.resize(tags_at + (n as usize).div_ceil(32), 0);
        let lo = args as usize;
        for (i, slot) in self.regs[lo..lo + n as usize].iter().enumerate() {
            let (tag, bits) = match slot {
                Some(Value::Num(x)) => (0, x.to_bits()),
                Some(Value::Bool(b)) => (1, u64::from(*b)),
                Some(Value::Energy(e)) if e.abstracts.is_empty() => (2, e.joules.to_bits()),
                _ => return false,
            };
            self.key[tags_at + i / 32] |= tag << (2 * (i % 32));
            self.key.push(bits);
        }
        true
    }

    /// Calls chunk `f` on `regs[args..args + n]` in a new frame at
    /// `depth`, whose depth check has passed: from the call memo when the
    /// callee is ECV-free and a stored repeat provably succeeds under the
    /// current limits, by executing it otherwise.
    fn call(&mut self, f: u32, args: u32, n: u32, depth: usize) -> Result<Value> {
        #[cfg(test)]
        {
            self.counts.0 += 1;
        }
        self.peak = self.peak.max(depth);
        let memoizable = self.program.ecv_free[f as usize] && self.memo_key(f, args, n);
        if memoizable {
            if let Some(&i) = self.calls.get(self.key.as_slice()) {
                let hit = &self.entries[i as usize];
                if hit.fuel <= self.fuel && depth + hit.depth <= self.max_depth {
                    self.fuel -= hit.fuel;
                    self.peak = self.peak.max(depth + hit.depth);
                    return Ok(hit.value.clone());
                }
            }
        }
        #[cfg(test)]
        {
            self.counts.1 += 1;
        }
        let key = (memoizable && self.calls.len() < CALL_MEMO_CAP)
            .then(|| Box::<[u64]>::from(self.key.as_slice()));
        let (fuel_before, outer_peak) = (self.fuel, self.peak);

        let callee = &self.program.chunks[f as usize];
        let new_base = self.regs.len() as u32;
        for j in args as usize..(args + n) as usize {
            let v = self.regs[j].clone();
            self.regs.push(v);
        }
        self.regs
            .resize(new_base as usize + callee.n_regs as usize, None);
        let new_cbase = self.counters.len() as u32;
        self.counters
            .resize(new_cbase as usize + callee.n_counters as usize, 0);
        self.peak = depth;
        let r = self.exec(f, new_base, new_cbase, depth);
        self.regs.truncate(new_base as usize);
        self.counters.truncate(new_cbase as usize);
        let rel_depth = self.peak - depth;
        self.peak = self.peak.max(outer_peak);

        let v = r?;
        if let Some(key) = key {
            let entry = CallEntry {
                value: v.clone(),
                fuel: fuel_before - self.fuel,
                depth: rel_depth,
            };
            self.calls.insert(key, self.entries.len() as u32);
            self.entries.push(entry);
        }
        Ok(v)
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
                    let v = self.rd_ref(chunk, base, *src)?;
                    let r = interp::eval_unary(UnOp::Neg, v)?;
                    self.wr(base, *dst, r);
                }
                Instr::Not { dst, src } => {
                    let v = self.rd_ref(chunk, base, *src)?;
                    let r = interp::eval_unary(UnOp::Not, v)?;
                    self.wr(base, *dst, r);
                }
                Instr::Bin { op, dst, a, b } => {
                    let va = self.rd_ref(chunk, base, *a)?;
                    let vb = self.rd_ref(chunk, base, *b)?;
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
                    self.peak = self.peak.max(depth + 1);
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
                    let v = self.call(*f, base + *abase, *n, depth + 1)?;
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
