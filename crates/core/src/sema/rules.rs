//! The pluggable lint rules.
//!
//! Each rule is a [`LintRule`] with a stable id, a fixed severity, and a
//! `check` that appends [`Diagnostic`]s for one interface (with the whole
//! program visible for cross-interface rules). [`default_rules`] is the
//! day-one rule set:
//!
//! | id   | severity | defect |
//! |------|----------|--------|
//! | E001 | error    | unit/dimension mismatch (counts vs. energy vs. booleans) |
//! | E002 | error    | abstract unit used with no calibration entry |
//! | E003 | error    | provably negative energy over the declared input space |
//! | E004 | error    | unbounded loop trip count or recursion |
//! | W001 | warning  | dead ECV, unit, or local binding |
//! | W002 | warning  | non-deterministic construct outside an ECV declaration |
//! | W003 | warning  | extern does not match a sibling provider's shape |

use std::collections::{BTreeMap, BTreeSet};

use crate::analysis::interval::{
    abstract_eval, abstract_inputs, ecv_abs_value, AbsValue, Interval,
};
use crate::ast::{Builtin, Expr, FnDef, Stmt};
use crate::sema::diag::{Diagnostic, Diagnostics, Severity};
use crate::sema::types::{infer_interface, recursive_fns, topo_order, Ty};
use crate::sema::LintContext;
use crate::span::{ExprSpans, Span, StmtSpans};

/// Static description of one rule, for `--help`-style tables and docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleInfo {
    /// Stable id (`E001`...).
    pub id: &'static str,
    /// Severity of every diagnostic the rule emits.
    pub severity: Severity,
    /// One-line summary of the defect class.
    pub summary: &'static str,
}

/// One pluggable semantic check.
pub trait LintRule {
    /// The rule's static description.
    fn info(&self) -> RuleInfo;
    /// Appends findings for `cx.iface` to `out`.
    fn check(&self, cx: &LintContext<'_>, out: &mut Diagnostics);
}

/// The built-in rule set, in id order.
pub fn default_rules() -> Vec<Box<dyn LintRule>> {
    vec![
        Box::new(UnitMismatch),
        Box::new(Uncalibrated),
        Box::new(NegativeEnergy),
        Box::new(Unbounded),
        Box::new(DeadCode),
        Box::new(Nondeterminism),
        Box::new(CompositionShape),
    ]
}

/// Ids/severities/summaries of the built-in rules, for docs and CLI help.
pub fn rule_table() -> Vec<RuleInfo> {
    default_rules().iter().map(|r| r.info()).collect()
}

fn diagnostic(
    info: RuleInfo,
    cx: &LintContext<'_>,
    function: Option<&str>,
    span: Span,
    message: String,
    hint: Option<&str>,
) -> Diagnostic {
    Diagnostic {
        rule: info.id,
        severity: info.severity,
        interface: cx.iface.name.clone(),
        function: function.map(str::to_string),
        span,
        message,
        hint: hint.map(str::to_string),
    }
}

// ---------------------------------------------------------------------------
// Span-paired AST walkers
// ---------------------------------------------------------------------------

/// Visits every expression in a function body alongside its span mirror,
/// in pre-order.
fn visit_fn_exprs(stmts: &[Stmt], spans: &[StmtSpans], f: &mut impl FnMut(&Expr, &ExprSpans)) {
    visit_stmts(stmts, spans, &mut |_, _| {}, f);
}

/// Visits every statement (with its mirror) and every expression (with its
/// mirror) in a body.
fn visit_stmts(
    stmts: &[Stmt],
    spans: &[StmtSpans],
    on_stmt: &mut impl FnMut(&Stmt, &StmtSpans),
    on_expr: &mut impl FnMut(&Expr, &ExprSpans),
) {
    for (i, s) in stmts.iter().enumerate() {
        let sp = spans.get(i).unwrap_or(StmtSpans::none());
        on_stmt(s, sp);
        match s {
            Stmt::Let(_, e) | Stmt::Assign(_, e) | Stmt::Return(e) => {
                visit_expr(e, sp.expr(0), on_expr);
            }
            Stmt::If(c, t, els) => {
                visit_expr(c, sp.expr(0), on_expr);
                visit_stmts(t, sp.block(0), on_stmt, on_expr);
                visit_stmts(els, sp.block(1), on_stmt, on_expr);
            }
            Stmt::For { from, to, body, .. } => {
                visit_expr(from, sp.expr(0), on_expr);
                visit_expr(to, sp.expr(1), on_expr);
                visit_stmts(body, sp.block(0), on_stmt, on_expr);
            }
            Stmt::While { cond, body, .. } => {
                visit_expr(cond, sp.expr(0), on_expr);
                visit_stmts(body, sp.block(0), on_stmt, on_expr);
            }
        }
    }
}

fn visit_expr(e: &Expr, sp: &ExprSpans, f: &mut impl FnMut(&Expr, &ExprSpans)) {
    f(e, sp);
    match e {
        Expr::Num(_)
        | Expr::Bool(_)
        | Expr::Joules(_)
        | Expr::Unit(_, _)
        | Expr::Var(_)
        | Expr::Ecv(_) => {}
        Expr::Field(b, _) | Expr::Unary(_, b) => visit_expr(b, sp.child(0), f),
        Expr::Binary(_, a, b) => {
            visit_expr(a, sp.child(0), f);
            visit_expr(b, sp.child(1), f);
        }
        Expr::Call(_, args) | Expr::BuiltinCall(_, args) => {
            for (i, a) in args.iter().enumerate() {
                visit_expr(a, sp.child(i), f);
            }
        }
        Expr::IfExpr(c, t, els) => {
            visit_expr(c, sp.child(0), f);
            visit_expr(t, sp.child(1), f);
            visit_expr(els, sp.child(2), f);
        }
    }
}

// ---------------------------------------------------------------------------
// E001 — unit/dimension mismatch
// ---------------------------------------------------------------------------

struct UnitMismatch;

impl LintRule for UnitMismatch {
    fn info(&self) -> RuleInfo {
        RuleInfo {
            id: "E001",
            severity: Severity::Error,
            summary: "unit/dimension mismatch (counts vs. energy vs. booleans)",
        }
    }

    fn check(&self, cx: &LintContext<'_>, out: &mut Diagnostics) {
        let (_, diags) = infer_interface(cx.iface);
        out.extend(diags);
    }
}

// ---------------------------------------------------------------------------
// E002 — uncalibrated abstract unit
// ---------------------------------------------------------------------------

struct Uncalibrated;

impl LintRule for Uncalibrated {
    fn info(&self) -> RuleInfo {
        RuleInfo {
            id: "E002",
            severity: Severity::Error,
            summary: "abstract unit used in an energy expression with no calibration entry",
        }
    }

    fn check(&self, cx: &LintContext<'_>, out: &mut Diagnostics) {
        let cal = &cx.options.calibration;
        for (name, f) in cx.iface.fns() {
            let fs = cx.iface.spans.fn_spans(name);
            let mut seen: BTreeSet<String> = BTreeSet::new();
            visit_fn_exprs(&f.body, &fs.body, &mut |e, sp| {
                if let Expr::Unit(u, _) = e {
                    if cal.get(u).is_none() && seen.insert(u.clone()) {
                        out.push(diagnostic(
                            self.info(),
                            cx,
                            Some(name),
                            sp.span,
                            format!("abstract unit `{u}` has no Joule calibration"),
                            Some("provide a Calibration entry (e.g. `--cal` on the CLI) or a measured per-unit cost"),
                        ));
                    }
                }
            });
        }
    }
}

// ---------------------------------------------------------------------------
// E003 — possibly-negative energy
// ---------------------------------------------------------------------------

struct NegativeEnergy;

impl LintRule for NegativeEnergy {
    fn info(&self) -> RuleInfo {
        RuleInfo {
            id: "E003",
            severity: Severity::Error,
            summary: "interval analysis proves a possibly-negative energy result",
        }
    }

    fn check(&self, cx: &LintContext<'_>, out: &mut Diagnostics) {
        for (name, f) in cx.iface.fns() {
            // Build abstract arguments from the declared input space; a
            // parameterless function needs none. Anything else (no spec,
            // open interface, analysis failure) is inconclusive, not a
            // finding.
            let args = match cx.iface.input_specs.get(name) {
                Some(spec) => match abstract_inputs(cx.iface, name, spec) {
                    Ok(a) => a,
                    Err(_) => continue,
                },
                None if f.params.is_empty() => Vec::new(),
                None => continue,
            };
            let Ok(AbsValue::Energy(ae)) = abstract_eval(cx.iface, name, &args) else {
                continue;
            };
            let Ok(lb) = ae.lower_bound(&cx.options.calibration) else {
                continue;
            };
            if lb.as_joules() < 0.0 {
                out.push(diagnostic(
                    self.info(),
                    cx,
                    Some(name),
                    cx.iface.spans.fn_spans(name).decl,
                    format!(
                        "energy can be negative over the declared inputs (lower bound {:.3e} J)",
                        lb.as_joules()
                    ),
                    Some("clamp the subtraction with max(..., 0) or tighten the input ranges"),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// E004 — unbounded loop / recursion
// ---------------------------------------------------------------------------

struct Unbounded;

impl LintRule for Unbounded {
    fn info(&self) -> RuleInfo {
        RuleInfo {
            id: "E004",
            severity: Severity::Error,
            summary: "loop trip count or recursion depth is not statically bounded",
        }
    }

    fn check(&self, cx: &LintContext<'_>, out: &mut Diagnostics) {
        for name in recursive_fns(cx.iface) {
            out.push(diagnostic(
                self.info(),
                cx,
                Some(&name),
                cx.iface.spans.fn_spans(&name).decl,
                format!(
                    "`{name}` is part of a recursive call cycle with no statically bounded depth"
                ),
                Some("rewrite the recursion as a `for` or `while ... bound N` loop"),
            ));
        }
        check_loop_bounds(self.info(), cx, out);
    }
}

/// Flags `for` loops whose trip count the interval domain cannot bound.
///
/// Parameter intervals come from the function's own `input_spec` when it has
/// one; otherwise from joining the argument intervals at every local call
/// site (functions are visited callers-first, so those are known); a root
/// function with no spec contributes unbounded parameters.
fn check_loop_bounds(info: RuleInfo, cx: &LintContext<'_>, out: &mut Diagnostics) {
    let top = Interval::new(f64::NEG_INFINITY, f64::INFINITY);
    // Callers-first order: the reverse of the callees-first post-order.
    let mut order = topo_order(cx.iface);
    order.reverse();
    // Joined argument intervals observed at call sites, per callee.
    let mut incoming: BTreeMap<String, Vec<Option<Interval>>> = BTreeMap::new();
    for name in &order {
        let f = &cx.iface.fns()[name];
        let fs = cx.iface.spans.fn_spans(name);
        let mut env: BTreeMap<String, Interval> = BTreeMap::new();
        match cx.iface.input_specs.get(name) {
            Some(spec) => {
                for p in &f.params {
                    let iv = spec
                        .get(p)
                        .map(|r| Interval::new(r.lo, r.hi))
                        .unwrap_or(top);
                    env.insert(p.clone(), iv);
                }
                // Record-parameter fields live under composite keys.
                for (path, r) in spec.iter() {
                    if path.contains('.') {
                        env.insert(path.to_string(), Interval::new(r.lo, r.hi));
                    }
                }
            }
            None => {
                let joined = incoming.get(name.as_str());
                for (i, p) in f.params.iter().enumerate() {
                    let iv = joined
                        .and_then(|v| v.get(i).copied().flatten())
                        .unwrap_or(top);
                    env.insert(p.clone(), iv);
                }
            }
        }
        let mut walker = BoundWalker {
            cx,
            info,
            fn_name: name,
            incoming: &mut incoming,
            out,
        };
        walker.block(&f.body, &fs.body, &mut env);
    }
}

struct BoundWalker<'a, 'b> {
    cx: &'a LintContext<'a>,
    info: RuleInfo,
    fn_name: &'a str,
    incoming: &'b mut BTreeMap<String, Vec<Option<Interval>>>,
    out: &'b mut Diagnostics,
}

impl BoundWalker<'_, '_> {
    fn block(&mut self, stmts: &[Stmt], spans: &[StmtSpans], env: &mut BTreeMap<String, Interval>) {
        for (i, s) in stmts.iter().enumerate() {
            let sp = spans.get(i).unwrap_or(StmtSpans::none());
            self.stmt(s, sp, env);
        }
    }

    fn stmt(&mut self, s: &Stmt, sp: &StmtSpans, env: &mut BTreeMap<String, Interval>) {
        match s {
            Stmt::Let(name, e) => {
                let iv = self.eval(e, env);
                env.insert(name.clone(), iv);
            }
            Stmt::Assign(name, e) => {
                let iv = self.eval(e, env);
                let joined = env.get(name).map(|old| old.join(&iv)).unwrap_or(iv);
                env.insert(name.clone(), joined);
            }
            Stmt::If(c, t, els) => {
                self.eval(c, env);
                let mut te = env.clone();
                let mut ee = env.clone();
                self.block(t, sp.block(0), &mut te);
                self.block(els, sp.block(1), &mut ee);
                for (k, v) in te {
                    let joined = ee.get(&k).map(|o| o.join(&v)).unwrap_or(v);
                    env.insert(k, joined);
                }
                for (k, v) in ee {
                    env.entry(k).or_insert(v);
                }
            }
            Stmt::For {
                var,
                from,
                to,
                body,
            } => {
                let from_iv = self.eval(from, env);
                let to_iv = self.eval(to, env);
                if !from_iv.lo.is_finite() || !to_iv.hi.is_finite() {
                    self.out.push(diagnostic(
                        self.info,
                        self.cx,
                        Some(self.fn_name),
                        sp.span,
                        "for-loop trip count is not statically bounded".into(),
                        Some("declare an input range (input_spec) for the loop bound"),
                    ));
                }
                // Loop-carried assignments widen to top before the body runs.
                widen_assigned(body, env);
                env.insert(var.clone(), from_iv.join(&to_iv));
                self.block(body, sp.block(0), env);
            }
            Stmt::While { cond, body, .. } => {
                self.eval(cond, env);
                widen_assigned(body, env);
                self.block(body, sp.block(0), env);
            }
            Stmt::Return(e) => {
                self.eval(e, env);
            }
        }
    }

    /// Numeric interval of `e`; non-numeric or unknown values are top.
    /// Also records argument intervals for local call sites as a side
    /// effect, feeding `incoming` for spec-less callees.
    fn eval(&mut self, e: &Expr, env: &BTreeMap<String, Interval>) -> Interval {
        let top = Interval::new(f64::NEG_INFINITY, f64::INFINITY);
        match e {
            Expr::Num(n) => Interval::point(*n),
            Expr::Bool(_) | Expr::Joules(_) | Expr::Unit(_, _) => top,
            Expr::Var(name) => env.get(name).copied().unwrap_or(top),
            Expr::Field(base, field) => {
                if let Expr::Var(p) = base.as_ref() {
                    if let Some(iv) = env.get(&format!("{p}.{field}")) {
                        return *iv;
                    }
                }
                top
            }
            Expr::Ecv(name) => match cx_ecv_interval(self.cx, name) {
                Some(iv) => iv,
                None => top,
            },
            Expr::Unary(crate::ast::UnOp::Neg, inner) => {
                let iv = self.eval(inner, env);
                Interval::new(-iv.hi, -iv.lo)
            }
            Expr::Unary(crate::ast::UnOp::Not, inner) => {
                self.eval(inner, env);
                top
            }
            Expr::Binary(op, a, b) => {
                let (x, y) = (self.eval(a, env), self.eval(b, env));
                use crate::ast::BinOp::*;
                match op {
                    Add => x.add(&y),
                    Sub => x.sub(&y),
                    Mul => x.mul(&y),
                    Div => x.div(&y).unwrap_or(top),
                    Mod => {
                        let m = y.lo.abs().max(y.hi.abs());
                        if m.is_finite() {
                            Interval::new(-m, m)
                        } else {
                            top
                        }
                    }
                    _ => top,
                }
            }
            Expr::Call(name, args) => {
                let ivs: Vec<Interval> = args.iter().map(|a| self.eval(a, env)).collect();
                if self.cx.iface.fns().contains_key(name) {
                    let slot = self
                        .incoming
                        .entry(name.clone())
                        .or_insert_with(|| vec![None; ivs.len()]);
                    for (i, iv) in ivs.iter().enumerate() {
                        if let Some(s) = slot.get_mut(i) {
                            *s = Some(s.map(|old| old.join(iv)).unwrap_or(*iv));
                        }
                    }
                }
                top
            }
            Expr::BuiltinCall(b, args) => {
                let ivs: Vec<Interval> = args.iter().map(|a| self.eval(a, env)).collect();
                match b {
                    Builtin::Min => {
                        Interval::new(ivs[0].lo.min(ivs[1].lo), ivs[0].hi.min(ivs[1].hi))
                    }
                    Builtin::Max => {
                        Interval::new(ivs[0].lo.max(ivs[1].lo), ivs[0].hi.max(ivs[1].hi))
                    }
                    Builtin::Abs => {
                        let iv = ivs[0];
                        let hi = iv.lo.abs().max(iv.hi.abs());
                        let lo = if iv.contains(0.0) {
                            0.0
                        } else {
                            iv.lo.abs().min(iv.hi.abs())
                        };
                        Interval::new(lo, hi)
                    }
                    Builtin::Ceil => ivs[0].map_monotone(f64::ceil),
                    Builtin::Floor => ivs[0].map_monotone(f64::floor),
                    Builtin::Round => ivs[0].map_monotone(f64::round),
                    Builtin::Exp => ivs[0].map_monotone(f64::exp),
                    Builtin::Sqrt => Interval::new(ivs[0].lo.max(0.0), ivs[0].hi.max(0.0))
                        .map_monotone(f64::sqrt),
                    Builtin::Clamp => {
                        if ivs[1].lo.is_finite() && ivs[2].hi.is_finite() {
                            Interval::new(ivs[1].lo, ivs[2].hi)
                        } else {
                            ivs[0]
                        }
                    }
                    _ => top,
                }
            }
            Expr::IfExpr(c, t, f) => {
                self.eval(c, env);
                let (x, y) = (self.eval(t, env), self.eval(f, env));
                x.join(&y)
            }
        }
    }
}

/// Numeric range an ECV read can take, from its declared distribution.
fn cx_ecv_interval(cx: &LintContext<'_>, name: &str) -> Option<Interval> {
    let decl = cx.iface.ecvs.get(name)?;
    match ecv_abs_value(&decl.dist) {
        AbsValue::Num(iv) => Some(iv),
        // Booleans count as 0/1 when they leak into arithmetic.
        AbsValue::Bool(_) => Some(Interval::new(0.0, 1.0)),
        _ => None,
    }
}

/// Widens every variable assigned inside a loop body to top, so loop-carried
/// accumulators never look bounded.
fn widen_assigned(body: &[Stmt], env: &mut BTreeMap<String, Interval>) {
    let top = Interval::new(f64::NEG_INFINITY, f64::INFINITY);
    for s in body {
        match s {
            Stmt::Assign(name, _) | Stmt::Let(name, _) => {
                env.insert(name.clone(), top);
            }
            Stmt::If(_, t, e) => {
                widen_assigned(t, env);
                widen_assigned(e, env);
            }
            Stmt::For { body, var, .. } => {
                env.insert(var.clone(), top);
                widen_assigned(body, env);
            }
            Stmt::While { body, .. } => widen_assigned(body, env),
            Stmt::Return(_) => {}
        }
    }
}

// ---------------------------------------------------------------------------
// W001 — dead ECV / unit / local
// ---------------------------------------------------------------------------

struct DeadCode;

impl LintRule for DeadCode {
    fn info(&self) -> RuleInfo {
        RuleInfo {
            id: "W001",
            severity: Severity::Warning,
            summary: "declared ECV, unit, or local binding never contributes to any result",
        }
    }

    fn check(&self, cx: &LintContext<'_>, out: &mut Diagnostics) {
        let mut ecvs_read: BTreeSet<String> = BTreeSet::new();
        let mut units_used: BTreeSet<String> = BTreeSet::new();
        for f in cx.iface.fns().values() {
            ecvs_read.extend(f.ecvs_read());
            for s in &f.body {
                s.visit_exprs(&mut |e| {
                    if let Expr::Unit(u, _) = e {
                        units_used.insert(u.clone());
                    }
                });
            }
        }
        for name in cx.iface.ecvs.keys() {
            if !ecvs_read.contains(name) {
                out.push(diagnostic(
                    self.info(),
                    cx,
                    None,
                    cx.iface.spans.ecv(name),
                    format!("ECV `{name}` is declared but never read"),
                    Some("delete the declaration or wire the ECV into an energy expression"),
                ));
            }
        }
        for u in &cx.iface.units {
            if !units_used.contains(u) {
                out.push(diagnostic(
                    self.info(),
                    cx,
                    None,
                    cx.iface.spans.unit(u),
                    format!("unit `{u}` is declared but never emitted"),
                    Some("delete the declaration or emit the unit from an energy expression"),
                ));
            }
        }
        for (name, f) in cx.iface.fns() {
            self.dead_locals(cx, name, f, out);
        }
    }
}

impl DeadCode {
    fn dead_locals(&self, cx: &LintContext<'_>, name: &str, f: &FnDef, out: &mut Diagnostics) {
        let mut read: BTreeSet<String> = BTreeSet::new();
        for s in &f.body {
            s.visit_exprs(&mut |e| {
                if let Expr::Var(v) = e {
                    read.insert(v.clone());
                }
            });
        }
        let fs = cx.iface.spans.fn_spans(name);
        visit_stmts(
            &f.body,
            &fs.body,
            &mut |s, sp| {
                if let Stmt::Let(local, _) = s {
                    if !read.contains(local) {
                        out.push(diagnostic(
                            self.info(),
                            cx,
                            Some(name),
                            sp.span,
                            format!("local `{local}` is never used"),
                            None,
                        ));
                    }
                }
            },
            &mut |_, _| {},
        );
    }
}

// ---------------------------------------------------------------------------
// W002 — non-determinism outside an ECV declaration
// ---------------------------------------------------------------------------

struct Nondeterminism;

impl LintRule for Nondeterminism {
    fn info(&self) -> RuleInfo {
        RuleInfo {
            id: "W002",
            severity: Severity::Warning,
            summary: "non-deterministic construct where analyses need determinism",
        }
    }

    fn check(&self, cx: &LintContext<'_>, out: &mut Diagnostics) {
        for (name, f) in cx.iface.fns() {
            let fs = cx.iface.spans.fn_spans(name);
            // Statement-level pass: ECVs in loop bounds, branches on
            // continuous ECVs in statement conditions.
            visit_stmts(
                &f.body,
                &fs.body,
                &mut |s, sp| match s {
                    Stmt::For { from, to, .. } => {
                        for (e, esp) in [(from, sp.expr(0)), (to, sp.expr(1))] {
                            visit_expr(e, esp, &mut |e, esp| {
                                if let Expr::Ecv(ecv) = e {
                                    out.push(diagnostic(
                                        self.info(),
                                        cx,
                                        Some(name),
                                        esp.span,
                                        format!(
                                            "ECV `{ecv}` makes the loop trip count non-deterministic"
                                        ),
                                        Some("bound the loop by a declared input and branch on the ECV inside the body"),
                                    ));
                                }
                            });
                        }
                    }
                    Stmt::If(c, _, _) | Stmt::While { cond: c, .. } => {
                        self.continuous_branch(cx, name, c, sp.expr(0), out);
                    }
                    _ => {}
                },
                &mut |_, _| {},
            );
            // Expression-level pass: branches on continuous ECVs in
            // if-expression conditions.
            visit_stmts(&f.body, &fs.body, &mut |_, _| {}, &mut |e, esp| {
                if let Expr::IfExpr(c, _, _) = e {
                    self.continuous_branch(cx, name, c, esp.child(0), out);
                }
            });
        }
    }
}

impl Nondeterminism {
    /// Branching on a continuous (non-enumerable) ECV defeats exact path
    /// enumeration: every sample takes its own path.
    fn continuous_branch(
        &self,
        cx: &LintContext<'_>,
        fn_name: &str,
        cond: &Expr,
        sp: &ExprSpans,
        out: &mut Diagnostics,
    ) {
        visit_expr(cond, sp, &mut |e, esp| {
            if let Expr::Ecv(name) = e {
                if let Some(decl) = cx.iface.ecvs.get(name) {
                    if decl.dist.support().is_none() {
                        out.push(diagnostic(
                            self.info(),
                            cx,
                            Some(fn_name),
                            esp.span,
                            format!(
                                "branch on continuous ECV `{name}` defeats exact path enumeration"
                            ),
                            Some("model the decision with a bernoulli/discrete ECV instead"),
                        ));
                    }
                }
            }
        });
    }
}

// ---------------------------------------------------------------------------
// W003 — composition arity/shape mismatch
// ---------------------------------------------------------------------------

struct CompositionShape;

impl LintRule for CompositionShape {
    fn info(&self) -> RuleInfo {
        RuleInfo {
            id: "W003",
            severity: Severity::Warning,
            summary: "an extern declaration does not match a sibling provider's shape",
        }
    }

    fn check(&self, cx: &LintContext<'_>, out: &mut Diagnostics) {
        if cx.program.len() < 2 {
            return;
        }
        for provider in cx.program {
            if provider.name == cx.iface.name {
                continue;
            }
            let mut sigs = None;
            for (name, ext) in &cx.iface.externs {
                let Some(pf) = provider.fns().get(name) else {
                    continue;
                };
                let span = cx.iface.spans.extern_decl(name);
                if pf.params.len() != ext.arity {
                    out.push(diagnostic(
                        self.info(),
                        cx,
                        None,
                        span,
                        format!(
                            "extern `{name}` expects {} argument(s) but `{}::{name}` takes {}",
                            ext.arity,
                            provider.name,
                            pf.params.len()
                        ),
                        Some(
                            "align the arities before linking; `link` will reject this composition",
                        ),
                    ));
                    continue;
                }
                let sigs = sigs.get_or_insert_with(|| infer_interface(provider).0);
                if let Some(sig) = sigs.get(name) {
                    if matches!(sig.ret, Ty::Num | Ty::Bool) {
                        out.push(diagnostic(
                            self.info(),
                            cx,
                            None,
                            span,
                            format!(
                                "provider `{}::{name}` returns {}, but externs must supply energy",
                                provider.name,
                                sig.ret.name()
                            ),
                            Some("make the provider return an energy expression, then run compat analysis"),
                        ));
                    }
                }
            }
        }
    }
}
