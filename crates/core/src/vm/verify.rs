//! Static verification of compiled bytecode.
//!
//! The lowering ([`super::lower`]) promises a long list of invariants the
//! executor ([`super::exec`]) then relies on — some for memory safety
//! (argument windows are always written before a call reads them; every
//! operand index is in bounds; control never falls off the end of the
//! instruction stream), some for observational equivalence with the
//! tree-walk oracle (fuel streams cover the code, temps are never read
//! before assignment, loop counters are only ever advanced by the loop
//! forms that own them). This module *proves* those invariants per chunk
//! instead of trusting them, so a lowering bug is rejected at compile
//! time with a stable diagnostic rather than surfacing as a panic or a
//! silent divergence deep inside a Monte-Carlo run.
//!
//! Two layers, both run by [`verify`] on every compiled program:
//!
//! 1. **Structural**: every register, constant, trap, symbol, ECV,
//!    counter, jump target, and callee index is in bounds; fuel and code
//!    streams have equal length; call arities match their callee chunks;
//!    `And`/`Or` never appear as `Bin` ops (the lowering turns them into
//!    jumps); no instruction can fall off the end of the stream.
//! 2. **Dataflow**: a forward must-defined analysis over the control-flow
//!    graph, one register bitset per pc, proving that (a) every argument
//!    slot of a `Call`/`Builtin`/`CallBuiltin` window is definitely
//!    written on every path (the executor `expect`s this), and (b) no
//!    *temp* register is read while possibly undefined — a read of an
//!    unwritten temp would report `Unresolved` with the placeholder name
//!    `?`, which the tree-walk oracle can never produce. Reads of
//!    possibly-unwritten *named* registers are legitimate: that is
//!    exactly the lazy `Unresolved { name }` semantics of the language.
//!    Loop-register discipline is checked here too: a register used as
//!    the induction slot of `ForTest`/`ForStep` may only be written by
//!    `ForInit`/`ForStep`.
//!
//! Whether the bytecode computes what the source says is not a static
//! property checked here: the differential suites hold the VM
//! bit-identical to the tree-walk oracle on generated and adversarial
//! programs.

use std::fmt;

use crate::ast::BinOp;

use super::chunk::{Chunk, Instr, Program};

/// One verification failure, with a byte-stable rendering.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyError {
    /// Name of the offending chunk (function).
    pub chunk: String,
    /// Offending instruction index, when the failure is per-instruction.
    pub pc: Option<usize>,
    /// Stable description of the violated invariant.
    pub msg: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.pc {
            Some(pc) => write!(f, "fn `{}` @{pc:04}: {}", self.chunk, self.msg),
            None => write!(f, "fn `{}`: {}", self.chunk, self.msg),
        }
    }
}

/// Verifies every chunk of `program` (structural + dataflow layers).
///
/// Returns all failures, sorted by chunk order and pc, so diagnostics are
/// byte-stable for golden tests.
pub fn verify(program: &Program) -> Result<(), Vec<VerifyError>> {
    let mut errs = Vec::new();
    for chunk in &program.chunks {
        verify_chunk(program, chunk, &mut errs);
    }
    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}

// ---------------------------------------------------------------------------
// Structural layer
// ---------------------------------------------------------------------------

fn verify_chunk(program: &Program, chunk: &Chunk, errs: &mut Vec<VerifyError>) {
    let err = |pc: Option<usize>, msg: String| VerifyError {
        chunk: chunk.name.clone(),
        pc,
        msg,
    };
    if chunk.code.is_empty() {
        errs.push(err(None, "empty instruction stream".into()));
        return;
    }
    if chunk.fuel.len() != chunk.code.len() {
        errs.push(err(
            None,
            format!(
                "fuel stream length {} does not cover {} instructions",
                chunk.fuel.len(),
                chunk.code.len()
            ),
        ));
        return;
    }
    if chunk.reg_names.len() != chunk.n_regs as usize {
        errs.push(err(
            None,
            format!(
                "{} register names for {} registers",
                chunk.reg_names.len(),
                chunk.n_regs
            ),
        ));
        return;
    }
    if chunk.arity > chunk.n_regs {
        errs.push(err(
            None,
            format!("arity {} exceeds {} registers", chunk.arity, chunk.n_regs),
        ));
        return;
    }

    let len = chunk.code.len();
    let mut structural_ok = true;
    for (pc, instr) in chunk.code.iter().enumerate() {
        let mut bad = |msg: String| {
            errs.push(VerifyError {
                chunk: chunk.name.clone(),
                pc: Some(pc),
                msg,
            });
            structural_ok = false;
        };
        for r in instr_regs(instr) {
            if r >= chunk.n_regs {
                bad(format!(
                    "register r{r} out of bounds (n_regs {})",
                    chunk.n_regs
                ));
            }
        }
        if let Some((base, n)) = arg_window(instr) {
            if base.checked_add(n).is_none_or(|end| end > chunk.n_regs) {
                bad(format!(
                    "argument window r{base}..r{} out of bounds (n_regs {})",
                    base.saturating_add(n),
                    chunk.n_regs
                ));
            }
        }
        for t in jump_targets(instr) {
            if t as usize >= len {
                bad(format!("jump target {t:04} out of bounds (len {len})"));
            }
        }
        match instr {
            Instr::Const { k, .. } if *k as usize >= chunk.consts.len() => {
                bad(format!(
                    "constant k{k} out of bounds ({} constants)",
                    chunk.consts.len()
                ));
            }
            Instr::Trap { t } | Instr::TrapCall { t } if *t as usize >= chunk.traps.len() => {
                bad(format!(
                    "trap t{t} out of bounds ({} traps)",
                    chunk.traps.len()
                ));
            }
            Instr::Ecv { e, .. } if *e as usize >= program.ecv_names.len() => {
                bad(format!(
                    "ECV slot {e} out of bounds ({} ECVs)",
                    program.ecv_names.len()
                ));
            }
            Instr::Field { sym, .. } if *sym as usize >= program.symbols.len() => {
                bad(format!(
                    "symbol {sym} out of bounds ({} symbols)",
                    program.symbols.len()
                ));
            }
            Instr::Call { f, n, .. } => match program.chunks.get(*f as usize) {
                None => bad(format!(
                    "callee chunk {f} out of bounds ({} chunks)",
                    program.chunks.len()
                )),
                Some(callee) if callee.arity != *n => bad(format!(
                    "call passes {n} arguments to `{}`/{}",
                    callee.name, callee.arity
                )),
                Some(_) => {}
            },
            Instr::ResetTrips { c } | Instr::WhileGuard { c, .. } if *c >= chunk.n_counters => {
                bad(format!(
                    "counter c{c} out of bounds (n_counters {})",
                    chunk.n_counters
                ));
            }
            Instr::Bin { op, .. } if matches!(op, BinOp::And | BinOp::Or) => {
                bad(format!(
                    "`{op:?}` must be lowered to jumps, not a Bin instruction"
                ));
            }
            _ => {}
        }
        if can_fall_through(instr) && pc + 1 >= len {
            bad("control may fall off the end of the instruction stream".into());
        }
    }

    // Loop-register discipline: within a loop's extent (`ForTest` head
    // through its `ForStep`), the induction slot may only be written by
    // that `ForStep`. Outside the extent the register is fair game — the
    // lowering recycles temp slots across statements.
    for (step_pc, instr) in chunk.code.iter().enumerate() {
        let Instr::ForStep { i, back } = instr else {
            continue;
        };
        let (i, back) = (*i, *back as usize);
        if i >= chunk.n_regs || back >= len || back > step_pc {
            continue; // malformed shape; bounds errors already reported
        }
        if !matches!(chunk.code[back], Instr::ForTest { i: ti, .. } if ti == i) {
            errs.push(VerifyError {
                chunk: chunk.name.clone(),
                pc: Some(step_pc),
                msg: format!("back-edge target {back:04} is not this loop's ForTest"),
            });
            continue;
        }
        for (wpc, w) in chunk.code[back..step_pc].iter().enumerate() {
            if writes_of(w).contains(&i) {
                errs.push(VerifyError {
                    chunk: chunk.name.clone(),
                    pc: Some(step_pc),
                    msg: format!(
                        "induction register r{i} is clobbered by the \
                         instruction at {:04}",
                        back + wpc
                    ),
                });
            }
        }
    }

    if !structural_ok {
        return; // dataflow over malformed code would index out of bounds
    }

    // Dataflow layer: must-defined registers.
    let ins = must_defined(chunk);
    for (pc, instr) in chunk.code.iter().enumerate() {
        let Some(defs) = &ins[pc] else {
            continue; // unreachable code cannot misbehave
        };
        if let Some((base, n)) = arg_window(instr) {
            for r in base..base + n {
                if !defs.get(r) {
                    errs.push(VerifyError {
                        chunk: chunk.name.clone(),
                        pc: Some(pc),
                        msg: format!("argument slot r{r} may be undefined at the call"),
                    });
                }
            }
        }
        for r in instr_reads(instr) {
            if chunk.reg_names[r as usize].is_none() && !defs.get(r) {
                errs.push(VerifyError {
                    chunk: chunk.name.clone(),
                    pc: Some(pc),
                    msg: format!("temp register r{r} may be read before assignment"),
                });
            }
        }
    }
}

/// Every register operand an instruction mentions (reads and writes).
fn instr_regs(instr: &Instr) -> Vec<u32> {
    let mut rs = instr_reads(instr);
    rs.extend(writes_of(instr));
    rs
}

/// Register reads outside argument windows. `CheckVar` is excluded: its
/// whole point is probing a possibly-unwritten named register.
fn instr_reads(instr: &Instr) -> Vec<u32> {
    match instr {
        Instr::Copy { src, .. }
        | Instr::Field { src, .. }
        | Instr::Neg { src, .. }
        | Instr::Not { src, .. }
        | Instr::AsBool { src, .. }
        | Instr::CheckNum { src }
        | Instr::Return { src } => vec![*src],
        Instr::Bin { a, b, .. } => vec![*a, *b],
        Instr::JumpIfFalse { cond, .. } | Instr::JumpIfTrue { cond, .. } => vec![*cond],
        Instr::ForInit { from, to, .. } => vec![*from, *to],
        Instr::ForTest { i, to, .. } => vec![*i, *to],
        Instr::ForStep { i, .. } => vec![*i],
        _ => Vec::new(),
    }
}

/// Registers an instruction writes. `ForTest` writes `var` only on the
/// fall-through edge; callers that need edge precision special-case it.
fn writes_of(instr: &Instr) -> Vec<u32> {
    match instr {
        Instr::Const { dst, .. }
        | Instr::Copy { dst, .. }
        | Instr::Ecv { dst, .. }
        | Instr::Field { dst, .. }
        | Instr::Neg { dst, .. }
        | Instr::Not { dst, .. }
        | Instr::Bin { dst, .. }
        | Instr::AsBool { dst, .. }
        | Instr::Builtin { dst, .. }
        | Instr::CallBuiltin { dst, .. }
        | Instr::Call { dst, .. } => vec![*dst],
        Instr::ForInit { i, .. } | Instr::ForStep { i, .. } => vec![*i],
        Instr::ForTest { var, .. } => vec![*var],
        _ => Vec::new(),
    }
}

/// The argument window `(base, n)` of a call-like instruction.
fn arg_window(instr: &Instr) -> Option<(u32, u32)> {
    match instr {
        Instr::Builtin { base, n, .. }
        | Instr::CallBuiltin { base, n, .. }
        | Instr::Call { base, n, .. } => Some((*base, *n)),
        _ => None,
    }
}

/// Explicit jump targets of an instruction.
fn jump_targets(instr: &Instr) -> Vec<u32> {
    match instr {
        Instr::Jump { target }
        | Instr::JumpIfFalse { target, .. }
        | Instr::JumpIfTrue { target, .. } => vec![*target],
        Instr::ForTest { exit, .. } => vec![*exit],
        Instr::ForStep { back, .. } => vec![*back],
        _ => Vec::new(),
    }
}

/// True when execution can continue at `pc + 1`.
fn can_fall_through(instr: &Instr) -> bool {
    !matches!(
        instr,
        Instr::Jump { .. }
            | Instr::ForStep { .. }
            | Instr::Return { .. }
            | Instr::Trap { .. }
            | Instr::TrapCall { .. }
            | Instr::FellOff
    )
}

/// Successor pcs of the instruction at `pc` (bounds already verified).
fn successors(instr: &Instr, pc: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(2);
    if can_fall_through(instr) {
        out.push(pc + 1);
    }
    for t in jump_targets(instr) {
        out.push(t as usize);
    }
    out
}

// ---------------------------------------------------------------------------
// Must-defined dataflow
// ---------------------------------------------------------------------------

/// A dense register bitset.
#[derive(Clone, PartialEq, Eq)]
struct Defs(Vec<u64>);

impl Defs {
    fn empty(n_regs: u32) -> Defs {
        Defs(vec![0; (n_regs as usize).div_ceil(64)])
    }
    fn set(&mut self, r: u32) {
        self.0[r as usize / 64] |= 1 << (r % 64);
    }
    fn get(&self, r: u32) -> bool {
        self.0[r as usize / 64] & (1 << (r % 64)) != 0
    }
    /// Intersects in place; reports whether anything changed.
    fn intersect_with(&mut self, o: &Defs) -> bool {
        let mut changed = false;
        for (a, b) in self.0.iter_mut().zip(&o.0) {
            let n = *a & b;
            changed |= n != *a;
            *a = n;
        }
        changed
    }
}

/// Forward must-defined analysis: `ins[pc]` is the set of registers
/// definitely written on **every** path reaching `pc` (`None` =
/// unreachable). Parameters `0..arity` enter defined.
fn must_defined(chunk: &Chunk) -> Vec<Option<Defs>> {
    let len = chunk.code.len();
    let mut ins: Vec<Option<Defs>> = vec![None; len];
    let mut entry = Defs::empty(chunk.n_regs);
    for r in 0..chunk.arity {
        entry.set(r);
    }
    ins[0] = Some(entry);
    let mut work = vec![0usize];
    while let Some(pc) = work.pop() {
        let mut out = ins[pc].clone().expect("worklist entries are reachable");
        let instr = &chunk.code[pc];
        // `ForTest` defines `var` only on the fall-through edge.
        let (fallthrough_extra, uniform) = match instr {
            Instr::ForTest { var, .. } => (Some(*var), Vec::new()),
            _ => (None, writes_of(instr)),
        };
        for r in uniform {
            out.set(r);
        }
        for succ in successors(instr, pc) {
            let mut s = out.clone();
            if succ == pc + 1 {
                if let Some(v) = fallthrough_extra {
                    s.set(v);
                }
            }
            match &mut ins[succ] {
                None => {
                    ins[succ] = Some(s);
                    work.push(succ);
                }
                Some(cur) => {
                    if cur.intersect_with(&s) {
                        work.push(succ);
                    }
                }
            }
        }
    }
    ins
}

/// Renders a failure list as stable, sorted text (one line per failure).
pub fn render_errors(errs: &[VerifyError]) -> String {
    let mut lines: Vec<String> = errs.iter().map(|e| e.to_string()).collect();
    lines.sort();
    lines.join("\n")
}
