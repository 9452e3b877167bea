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
//! Three layers, in increasing cost:
//!
//! 1. **Structural** ([`verify`], always on): every register, constant,
//!    trap, symbol, ECV, counter, jump target, and callee index is in
//!    bounds; fuel and code streams have equal length; call arities match
//!    their callee chunks; `And`/`Or` never appear as `Bin` ops (the
//!    lowering turns them into jumps); no instruction can fall off the
//!    end of the stream.
//! 2. **Dataflow** ([`verify`], always on): a forward must-defined
//!    analysis over the control-flow graph proving that (a) every
//!    argument slot of a `Call`/`Builtin`/`CallBuiltin` window is
//!    definitely written on every path (the executor `expect`s this), and
//!    (b) no *temp* register is read while possibly undefined — a read of
//!    an unwritten temp would report `Unresolved` with the placeholder
//!    name `?`, which the tree-walk oracle can never produce. Reads of
//!    possibly-unwritten *named* registers are legitimate: that is
//!    exactly the lazy `Unresolved { name }` semantics of the language.
//!    Loop-register discipline is checked here too: a register used as
//!    the induction slot of `ForTest`/`ForStep` may only be written by
//!    `ForInit`/`ForStep`.
//! 3. **Interval agreement** ([`verify_against`], on demand): an abstract
//!    interpreter over the bytecode in the interval domain of
//!    [`crate::analysis::interval`], evaluated on the same abstract
//!    inputs as the AST-level [`abstract_eval`] for every function with a
//!    declared [`InputSpec`](crate::interface::InputSpec). Both analyses
//!    soundly over-approximate the same concrete semantics, so their
//!    result ranges must overlap; disjoint ranges prove a lowering (or
//!    analysis) bug. This also exercises type and unit consistency — the
//!    bytecode-level domain tracks `Num`/`Bool`/`Energy`/`Record` and the
//!    per-unit components of abstract energies.

use std::collections::BTreeMap;
use std::fmt;

use crate::analysis::interval::{
    abstract_eval, abstract_inputs, ecv_abs_value, AbsBool, AbsValue, Interval,
};
use crate::ast::{BinOp, Builtin};
use crate::interface::Interface;
use crate::value::Value;

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

/// Verifies `program` and additionally checks interval agreement with the
/// AST-level abstract interpreter for every function of `iface` that has a
/// declared input spec. `program` must be the compilation of `iface`.
pub fn verify_against(iface: &Interface, program: &Program) -> Result<(), Vec<VerifyError>> {
    let mut errs = match verify(program) {
        Ok(()) => Vec::new(),
        Err(e) => e,
    };

    // Resolve every ECV slot to its distribution-derived abstract value.
    let ecv_cells: Vec<Cell> = program
        .ecv_names
        .iter()
        .map(|name| match iface.ecvs.get(name) {
            Some(decl) => Cell::Val(ecv_abs_value(&decl.dist)),
            None => Cell::Top,
        })
        .collect();

    for (fname, spec) in iface.input_specs.iter() {
        let Some(&fid) = program.fn_ids.get(fname) else {
            continue;
        };
        // Either side declining to analyze (unsupported shape, possible
        // runtime error, unlinked extern) is not a lowering bug; the
        // check fires only when both sides produce a range.
        let Ok(args) = abstract_inputs(iface, fname, spec) else {
            continue;
        };
        let Ok(ast) = abstract_eval(iface, fname, &args) else {
            continue;
        };
        let cells: Vec<Cell> = args.into_iter().map(Cell::Val).collect();
        let Some(machine) = absint_chunk(program, fid, cells, &ecv_cells, 0) else {
            continue;
        };
        if disjoint(&ast, &machine) {
            errs.push(VerifyError {
                chunk: fname.clone(),
                pc: None,
                msg: format!(
                    "interval disagreement with the AST analysis: \
                     ast {ast:?} vs bytecode {machine:?}"
                ),
            });
        }
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

// ---------------------------------------------------------------------------
// Interval abstract interpretation over bytecode
// ---------------------------------------------------------------------------

/// Number of state updates a pc may receive before its cells widen to
/// [`Cell::Top`] (guarantees termination on loops).
const WIDEN_AFTER: u32 = 64;

/// Maximum abstract call depth (mirrors the AST analyzer's limit).
const MAX_ABS_DEPTH: usize = 16;

/// One abstract register cell.
#[derive(Debug, Clone, PartialEq)]
enum Cell {
    /// Not written on any path seen so far.
    Bot,
    /// Written, with this abstract value.
    Val(AbsValue),
    /// Written, value unknown (or type-confused across paths).
    Top,
}

impl Cell {
    fn join(&self, o: &Cell) -> Cell {
        match (self, o) {
            (Cell::Bot, x) | (x, Cell::Bot) => x.clone(),
            (Cell::Top, _) | (_, Cell::Top) => Cell::Top,
            (Cell::Val(a), Cell::Val(b)) => match a.join(b) {
                Ok(v) => Cell::Val(v),
                Err(_) => Cell::Top,
            },
        }
    }
    fn num(&self) -> Option<Interval> {
        match self {
            Cell::Val(AbsValue::Num(i)) => Some(*i),
            _ => None,
        }
    }
}

/// Abstractly executes chunk `fid` on `args`, returning the join of every
/// reachable `Return` value, or `None` when the analysis loses precision
/// (a `Top` return, excessive recursion, or no reachable return at all).
fn absint_chunk(
    program: &Program,
    fid: u32,
    args: Vec<Cell>,
    ecvs: &[Cell],
    depth: usize,
) -> Option<AbsValue> {
    if depth > MAX_ABS_DEPTH {
        return None;
    }
    let chunk = &program.chunks[fid as usize];
    let len = chunk.code.len();
    let mut state = args;
    state.resize(chunk.n_regs as usize, Cell::Bot);
    let mut ins: Vec<Option<Vec<Cell>>> = vec![None; len];
    let mut visits: Vec<u32> = vec![0; len];
    ins[0] = Some(state);
    let mut work = vec![0usize];
    let mut ret: Option<AbsValue> = None;
    let mut ret_top = false;

    while let Some(pc) = work.pop() {
        let state = ins[pc].clone().expect("worklist entries are reachable");
        let instr = &chunk.code[pc];
        if let Instr::Return { src } = instr {
            match &state[*src as usize] {
                Cell::Bot => {} // runtime error, not a successful return
                Cell::Top => ret_top = true,
                Cell::Val(v) => {
                    ret = Some(match ret {
                        None => v.clone(),
                        Some(cur) => match cur.join(v) {
                            Ok(j) => j,
                            Err(_) => {
                                ret_top = true;
                                cur
                            }
                        },
                    });
                }
            }
            continue;
        }
        let out = transfer(program, chunk, instr, state, ecvs, depth);
        for succ in successors(instr, pc) {
            let mut s = out.clone();
            if let Instr::ForTest { i, var, .. } = instr {
                if succ == pc + 1 {
                    // The fall-through edge binds the loop variable.
                    s[*var as usize] = s[*i as usize].clone();
                }
            }
            let widen = visits[succ] >= WIDEN_AFTER;
            match &mut ins[succ] {
                None => {
                    visits[succ] += 1;
                    ins[succ] = Some(s);
                    work.push(succ);
                }
                Some(cur) => {
                    let mut changed = false;
                    for (c, n) in cur.iter_mut().zip(&s) {
                        let j = if widen && *c != *n {
                            Cell::Top
                        } else {
                            c.join(n)
                        };
                        if j != *c {
                            *c = j;
                            changed = true;
                        }
                    }
                    if changed {
                        visits[succ] += 1;
                        work.push(succ);
                    }
                }
            }
        }
    }
    if ret_top {
        None
    } else {
        ret
    }
}

/// Abstract transfer function of one instruction.
fn transfer(
    program: &Program,
    chunk: &Chunk,
    instr: &Instr,
    mut state: Vec<Cell>,
    ecvs: &[Cell],
    depth: usize,
) -> Vec<Cell> {
    let wr = |state: &mut Vec<Cell>, r: u32, c: Cell| state[r as usize] = c;
    match instr {
        Instr::Const { dst, k } => {
            let c = abs_of_value(&chunk.consts[*k as usize]);
            wr(&mut state, *dst, Cell::Val(c));
        }
        Instr::Copy { dst, src } => {
            let c = match &state[*src as usize] {
                Cell::Bot => Cell::Top, // error path; stay conservative
                c => c.clone(),
            };
            wr(&mut state, *dst, c);
        }
        Instr::Ecv { dst, e } => {
            let c = ecvs.get(*e as usize).cloned().unwrap_or(Cell::Top);
            wr(&mut state, *dst, c);
        }
        Instr::Field { dst, src, sym } => {
            let name = &program.symbols[*sym as usize];
            let c = match &state[*src as usize] {
                Cell::Val(AbsValue::Record(fields)) => match fields.get(name) {
                    Some(v) => Cell::Val(v.clone()),
                    None => Cell::Top,
                },
                _ => Cell::Top,
            };
            wr(&mut state, *dst, c);
        }
        Instr::Neg { dst, src } => {
            let c = match &state[*src as usize] {
                Cell::Val(AbsValue::Num(i)) => {
                    Cell::Val(AbsValue::Num(Interval::new(-i.hi, -i.lo)))
                }
                Cell::Val(AbsValue::Energy(e)) => {
                    Cell::Val(AbsValue::Energy(e.scale(&Interval::point(-1.0))))
                }
                _ => Cell::Top,
            };
            wr(&mut state, *dst, c);
        }
        Instr::Not { dst, src } => {
            let c = match &state[*src as usize] {
                Cell::Val(AbsValue::Bool(b)) => Cell::Val(AbsValue::Bool(b.not())),
                _ => Cell::Top,
            };
            wr(&mut state, *dst, c);
        }
        Instr::Bin { op, dst, a, b } => {
            let c = abs_binary(*op, &state[*a as usize], &state[*b as usize]);
            wr(&mut state, *dst, c);
        }
        Instr::AsBool { dst, src } => {
            let c = match &state[*src as usize] {
                Cell::Val(AbsValue::Bool(b)) => Cell::Val(AbsValue::Bool(*b)),
                _ => Cell::Top,
            };
            wr(&mut state, *dst, c);
        }
        Instr::Builtin { b, dst, base, n } | Instr::CallBuiltin { b, dst, base, n } => {
            let args: Vec<&Cell> = (*base..*base + *n).map(|r| &state[r as usize]).collect();
            let c = abs_builtin(*b, &args);
            wr(&mut state, *dst, c);
        }
        Instr::Call { f, dst, base, n } => {
            let args: Vec<Cell> = (*base..*base + *n)
                .map(|r| match &state[r as usize] {
                    Cell::Bot => Cell::Top,
                    c => c.clone(),
                })
                .collect();
            let c = match absint_chunk(program, *f, args, ecvs, depth + 1) {
                Some(v) => Cell::Val(v),
                None => Cell::Top,
            };
            wr(&mut state, *dst, c);
        }
        Instr::ForInit { i, from, .. } => {
            let c = match state[*from as usize].num() {
                Some(iv) => Cell::Val(AbsValue::Num(Interval::new(iv.lo.floor(), iv.hi.floor()))),
                None => Cell::Top,
            };
            wr(&mut state, *i, c);
        }
        Instr::ForStep { i, .. } => {
            let c = match state[*i as usize].num() {
                Some(iv) => Cell::Val(AbsValue::Num(iv.add(&Interval::point(1.0)))),
                None => Cell::Top,
            };
            wr(&mut state, *i, c);
        }
        // `ForTest` writes `var` on the fall-through edge only; the caller
        // patches that edge. Checks, guards, jumps, nops: no register
        // effect.
        _ => {}
    }
    state
}

/// Lifts a constant-pool value into the abstract domain.
fn abs_of_value(v: &Value) -> AbsValue {
    match v {
        Value::Num(n) => AbsValue::Num(Interval::point(*n)),
        Value::Bool(b) => AbsValue::Bool(AbsBool::from_bool(*b)),
        Value::Energy(e) => {
            let mut abs =
                crate::analysis::interval::AbsEnergy::from_joules(Interval::point(e.joules));
            for (u, a) in &e.abstracts {
                abs.abstracts.insert(u.clone(), Interval::point(*a));
            }
            AbsValue::Energy(abs)
        }
        Value::Record(r) => AbsValue::Record(
            r.iter()
                .map(|(k, f)| (k.clone(), abs_of_value(f)))
                .collect(),
        ),
    }
}

/// Abstract binary operation; `Top` whenever the result could error or the
/// shape is not tracked.
fn abs_binary(op: BinOp, a: &Cell, b: &Cell) -> Cell {
    use AbsValue as A;
    let (Cell::Val(va), Cell::Val(vb)) = (a, b) else {
        return Cell::Top;
    };
    match (op, va, vb) {
        (BinOp::Add, A::Num(x), A::Num(y)) => Cell::Val(A::Num(x.add(y))),
        (BinOp::Sub, A::Num(x), A::Num(y)) => Cell::Val(A::Num(x.sub(y))),
        (BinOp::Mul, A::Num(x), A::Num(y)) => Cell::Val(A::Num(x.mul(y))),
        (BinOp::Div, A::Num(x), A::Num(y)) => match x.div(y) {
            Ok(i) => Cell::Val(A::Num(i)),
            Err(_) => Cell::Top,
        },
        (BinOp::Add, A::Energy(x), A::Energy(y)) => Cell::Val(A::Energy(x.add(y))),
        (BinOp::Sub, A::Energy(x), A::Energy(y)) => Cell::Val(A::Energy(x.sub(y))),
        (BinOp::Mul, A::Energy(x), A::Num(y)) => Cell::Val(A::Energy(x.scale(y))),
        (BinOp::Mul, A::Num(x), A::Energy(y)) => Cell::Val(A::Energy(y.scale(x))),
        (BinOp::Div, A::Energy(x), A::Num(y)) => match x.div_num(y) {
            Ok(e) => Cell::Val(A::Energy(e)),
            Err(_) => Cell::Top,
        },
        (BinOp::Lt, A::Num(x), A::Num(y)) => Cell::Val(A::Bool(cmp_lt(x, y))),
        (BinOp::Le, A::Num(x), A::Num(y)) => Cell::Val(A::Bool(cmp_le(x, y))),
        (BinOp::Gt, A::Num(x), A::Num(y)) => Cell::Val(A::Bool(cmp_lt(y, x))),
        (BinOp::Ge, A::Num(x), A::Num(y)) => Cell::Val(A::Bool(cmp_le(y, x))),
        (BinOp::Eq, A::Num(x), A::Num(y)) => {
            Cell::Val(A::Bool(if x.is_point() && y.is_point() && x.lo == y.lo {
                AbsBool::True
            } else if x.hi < y.lo || y.hi < x.lo {
                AbsBool::False
            } else {
                AbsBool::Unknown
            }))
        }
        _ => Cell::Top,
    }
}

fn cmp_lt(x: &Interval, y: &Interval) -> AbsBool {
    if x.hi < y.lo {
        AbsBool::True
    } else if x.lo >= y.hi {
        AbsBool::False
    } else {
        AbsBool::Unknown
    }
}

fn cmp_le(x: &Interval, y: &Interval) -> AbsBool {
    if x.hi <= y.lo {
        AbsBool::True
    } else if x.lo > y.hi {
        AbsBool::False
    } else {
        AbsBool::Unknown
    }
}

/// Abstract pure builtins; `Top` for anything that could error or that the
/// domain does not model.
fn abs_builtin(b: Builtin, args: &[&Cell]) -> Cell {
    let num = |i: usize| args.get(i).and_then(|c| c.num());
    let val = |i: Interval| Cell::Val(AbsValue::Num(i));
    match b {
        Builtin::Min => match (num(0), num(1)) {
            (Some(x), Some(y)) => val(Interval::new(x.lo.min(y.lo), x.hi.min(y.hi))),
            _ => Cell::Top,
        },
        Builtin::Max => match (num(0), num(1)) {
            (Some(x), Some(y)) => val(Interval::new(x.lo.max(y.lo), x.hi.max(y.hi))),
            _ => Cell::Top,
        },
        Builtin::Abs => match num(0) {
            Some(x) => {
                let lo = if x.contains(0.0) {
                    0.0
                } else {
                    x.lo.abs().min(x.hi.abs())
                };
                val(Interval::new(lo, x.lo.abs().max(x.hi.abs())))
            }
            None => Cell::Top,
        },
        Builtin::Sqrt => match num(0) {
            Some(x) if x.lo >= 0.0 => val(x.map_monotone(f64::sqrt)),
            _ => Cell::Top,
        },
        Builtin::Floor => num(0).map_or(Cell::Top, |x| val(x.map_monotone(f64::floor))),
        Builtin::Ceil => num(0).map_or(Cell::Top, |x| val(x.map_monotone(f64::ceil))),
        Builtin::Round => num(0).map_or(Cell::Top, |x| val(x.map_monotone(f64::round))),
        Builtin::Exp => num(0).map_or(Cell::Top, |x| val(x.map_monotone(f64::exp))),
        Builtin::Ln => match num(0) {
            Some(x) if x.lo > 0.0 => val(x.map_monotone(f64::ln)),
            _ => Cell::Top,
        },
        Builtin::Log2 => match num(0) {
            Some(x) if x.lo > 0.0 => val(x.map_monotone(f64::log2)),
            _ => Cell::Top,
        },
        Builtin::Pow => match (num(0), num(1)) {
            (Some(x), Some(e)) if e.is_point() && e.lo >= 0.0 && e.lo.fract() == 0.0 => {
                match u32::try_from(e.lo as u64) {
                    Ok(k) if f64::from(k) == e.lo => val(x.powi(k)),
                    _ => Cell::Top,
                }
            }
            _ => Cell::Top,
        },
        _ => Cell::Top,
    }
}

/// True when two abstract results provably share no concrete value —
/// which, for two sound analyses of the same function, proves a bug.
fn disjoint(a: &AbsValue, b: &AbsValue) -> bool {
    match (a, b) {
        (AbsValue::Num(x), AbsValue::Num(y)) => x.hi < y.lo || y.hi < x.lo,
        (AbsValue::Bool(x), AbsValue::Bool(y)) => {
            matches!(
                (x, y),
                (AbsBool::True, AbsBool::False) | (AbsBool::False, AbsBool::True)
            )
        }
        (AbsValue::Energy(x), AbsValue::Energy(y)) => {
            let zero = Interval::point(0.0);
            if x.joules.hi < y.joules.lo || y.joules.hi < x.joules.lo {
                return true;
            }
            for u in x.abstracts.keys().chain(y.abstracts.keys()) {
                let xi = x.abstracts.get(u).unwrap_or(&zero);
                let yi = y.abstracts.get(u).unwrap_or(&zero);
                if xi.hi < yi.lo || yi.hi < xi.lo {
                    return true;
                }
            }
            false
        }
        (AbsValue::Record(x), AbsValue::Record(y)) => x
            .iter()
            .any(|(k, vx)| y.get(k).is_some_and(|vy| disjoint(vx, vy))),
        // Differing shapes cannot describe the same concrete value.
        _ => true,
    }
}

/// Renders a failure list as stable, sorted text (one line per failure).
pub fn render_errors(errs: &[VerifyError]) -> String {
    let mut lines: Vec<String> = errs.iter().map(|e| e.to_string()).collect();
    lines.sort();
    lines.join("\n")
}

// The ecv-name map used by `verify_against` needs `BTreeMap` in scope for
// rustdoc links only; keep the import used.
#[allow(unused)]
type _EcvMap = BTreeMap<String, ()>;
