//! The compiled program: chunk arena, register instructions, and interned
//! tables.
//!
//! A [`Program`] is a flat arena of [`Chunk`]s — one per interface function,
//! indexed by a dense `u32` id in the interface's (deterministic) function
//! order. Every name the executor could ever need at runtime is interned at
//! compile time: variable/field names into [`Program::symbols`], ECV names
//! into [`Program::ecv_names`] (the per-sample lookup slots), and the
//! abstract-unit universe into [`Program::units`] (the calibration slots a
//! driver resolves once per query). Instructions address registers by slot
//! index; no map lookup survives into the hot loop.
//!
//! ## Fuel
//!
//! The tree-walk interpreter burns one unit of fuel per AST node visited,
//! per statement executed, and per loop iteration. The VM must exhaust fuel
//! at exactly the same evaluation points (the fuel histogram is part of the
//! telemetry trace, and `FuelExhausted` boundaries are observable), so each
//! instruction carries a static fuel weight in [`Chunk::fuel`]: the number
//! of burns the interpreter would have performed since the previous
//! instruction. Summing weights along any executed path reproduces the
//! interpreter's burn count exactly. Burns that emit no instruction of
//! their own ride as a lump on the next one: the statement burn, a loop's
//! per-iteration burn, an operator's node burn (charged before its
//! operands are lowered), and reads of definitely-written locals, which
//! use the local's register directly.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{BinOp, Builtin};
use crate::error::Error;
use crate::value::Value;

/// One register instruction.
///
/// All register operands are frame-relative slot indices. `dst` is always
/// written exactly once, as the final effect of the instruction, so an
/// instruction may safely use its destination as a source (`x = x + 1`
/// compiles to a single `Bin` with `dst == a`).
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// No-op carrier for fuel that must be charged once before a loop head.
    Nop,
    /// `dst = consts[k]`.
    Const { dst: u32, k: u32 },
    /// `dst = regs[src]`; errors `Unresolved` if `src` was never written.
    Copy { dst: u32, src: u32 },
    /// `dst = ecvs[e]`; errors `Unresolved` if the assignment lacks the ECV.
    Ecv { dst: u32, e: u32 },
    /// `dst = regs[src].field(symbols[sym])`.
    Field { dst: u32, src: u32, sym: u32 },
    /// `dst = -regs[src]` (number or energy).
    Neg { dst: u32, src: u32 },
    /// `dst = !regs[src]` (boolean).
    Not { dst: u32, src: u32 },
    /// `dst = regs[a] <op> regs[b]` via the interpreter's `eval_binary`.
    /// Never `And`/`Or` — those are lowered to jumps.
    Bin { op: BinOp, dst: u32, a: u32, b: u32 },
    /// `dst = Bool(regs[src].as_bool()?)` — the `&&`/`||` result coercion.
    AsBool { dst: u32, src: u32 },
    /// Errors `Unresolved` unless `src` was written (assignment target
    /// check, performed before the right-hand side is evaluated).
    CheckVar { src: u32 },
    /// Errors `Type` unless `src` is a number (for-loop `from`, checked
    /// before `to` is evaluated).
    CheckNum { src: u32 },
    /// Unconditional jump.
    Jump { target: u32 },
    /// `if !regs[cond].as_bool()? { pc = target }`.
    JumpIfFalse { cond: u32, target: u32 },
    /// `if regs[cond].as_bool()? { pc = target }`.
    JumpIfTrue { cond: u32, target: u32 },
    /// `dst = builtin(regs[base..base+n])` — `Expr::BuiltinCall` position,
    /// no depth check (the interpreter performs none there).
    Builtin {
        b: Builtin,
        dst: u32,
        base: u32,
        n: u32,
    },
    /// A builtin reached by *name* through `Expr::Call`: the interpreter
    /// checks call depth before resolving, so this variant does too.
    CallBuiltin {
        b: Builtin,
        dst: u32,
        base: u32,
        n: u32,
    },
    /// Call chunk `f` with arguments in `regs[base..base+n]`.
    Call { f: u32, dst: u32, base: u32, n: u32 },
    /// Validate loop bounds and set `regs[i] = Num(from.floor())`.
    ForInit { i: u32, from: u32, to: u32 },
    /// `if regs[i] < regs[to] { regs[var] = regs[i] } else { pc = exit }`.
    ForTest {
        i: u32,
        to: u32,
        var: u32,
        exit: u32,
    },
    /// `regs[i] += 1.0; pc = back` (back points at the `ForTest`).
    ForStep { i: u32, back: u32 },
    /// `counters[c] = 0` — executed once per `while` statement entry.
    ResetTrips { c: u32 },
    /// Errors `BoundExceeded` when `counters[c] >= bound`, else increments.
    WhileGuard { c: u32, bound: u64 },
    /// Return `regs[src]` from the current chunk.
    Return { src: u32 },
    /// Raise `traps[t]` (lazily reported compile-time-known error).
    Trap { t: u32 },
    /// Depth-check like a call, then raise `traps[t]` — used for unknown
    /// callees, unlinked externs, and fixed-arity mismatches, which the
    /// interpreter reports only after the depth check.
    TrapCall { t: u32 },
    /// Control fell off the end of the function body.
    FellOff,
}

/// One compiled function.
#[derive(Debug, Clone, PartialEq)]
pub struct Chunk {
    /// Function name (used in arity/fell-off-the-end errors).
    pub name: String,
    /// Number of declared parameters (registers `0..arity`).
    pub arity: u32,
    /// Total register-file size for a frame of this chunk.
    pub n_regs: u32,
    /// Number of while-loop trip counters in a frame of this chunk.
    pub n_counters: u32,
    /// Instruction stream.
    pub code: Vec<Instr>,
    /// Static fuel weight per instruction (same indexing as `code`).
    pub fuel: Vec<u64>,
    /// Constant pool (deduplicated by bit pattern).
    pub consts: Vec<Value>,
    /// Lazily-raised errors referenced by `Trap`/`TrapCall`.
    pub traps: Vec<Error>,
    /// Register → symbol-table id for named locals (`None` for temps).
    pub reg_names: Vec<Option<u32>>,
}

/// A compiled interface: the unit of execution.
///
/// Non-exhaustive so that only this crate builds one from parts;
/// [`super::compile`] verifies every program it returns.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct Program {
    /// Interface name.
    pub name: String,
    /// Interned strings (variable and field names).
    pub symbols: Vec<String>,
    /// Sorted abstract-unit universe: the calibration slots of this
    /// program (declared units plus any unit literal in a body).
    pub units: Vec<String>,
    /// Sorted ECV names the program reads; `Instr::Ecv` indexes this.
    pub ecv_names: Vec<String>,
    /// Unlinked extern names (calling one raises a `Link` error).
    pub externs: BTreeSet<String>,
    /// Chunk arena, indexed by function id.
    pub chunks: Vec<Chunk>,
    /// Function name → chunk id.
    pub fn_ids: BTreeMap<String, u32>,
}

impl Program {
    /// Stable fingerprint of the compiled artifact (code, pools, tables).
    ///
    /// Two programs with the same fingerprint execute identically. Only the
    /// disassembler and tests read it, so it is computed on demand rather
    /// than on every compile; a recompile of an unchanged interface
    /// reproduces the same value.
    pub fn fingerprint(&self) -> u64 {
        fingerprint_program(self)
    }
}

// ---------------------------------------------------------------------------
// Fingerprinting (FNV-1a over a canonical byte stream)
// ---------------------------------------------------------------------------

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
    fn value(&mut self, v: &Value) {
        match v {
            Value::Num(n) => {
                self.u32(1);
                self.f64(*n);
            }
            Value::Bool(b) => {
                self.u32(2);
                self.u32(u32::from(*b));
            }
            Value::Energy(e) => {
                self.u32(3);
                self.f64(e.joules);
                self.u64(e.abstracts.len() as u64);
                for (u, a) in &e.abstracts {
                    self.str(u);
                    self.f64(*a);
                }
            }
            Value::Record(r) => {
                self.u32(4);
                self.u64(r.len() as u64);
                for (k, f) in r {
                    self.str(k);
                    self.value(f);
                }
            }
        }
    }
}

fn fingerprint_program(p: &Program) -> u64 {
    let mut h = Fnv::new();
    h.str(&p.name);
    for s in &p.symbols {
        h.str(s);
    }
    for u in &p.units {
        h.str(u);
    }
    for e in &p.ecv_names {
        h.str(e);
    }
    for x in &p.externs {
        h.str(x);
    }
    for c in &p.chunks {
        h.str(&c.name);
        h.u32(c.arity);
        h.u32(c.n_regs);
        h.u32(c.n_counters);
        h.u64(c.code.len() as u64);
        for (i, instr) in c.code.iter().enumerate() {
            h.u64(c.fuel[i]);
            // Debug formatting is stable and covers every operand.
            h.str(&format!("{instr:?}"));
        }
        h.u64(c.consts.len() as u64);
        for v in &c.consts {
            h.value(v);
        }
        h.u64(c.traps.len() as u64);
        for t in &c.traps {
            h.str(&format!("{t:?}"));
        }
        for r in &c.reg_names {
            match r {
                Some(s) => h.u32(*s),
                None => h.u32(u32::MAX),
            }
        }
    }
    h.0
}
