//! Abstract type lattice and unit-aware type inference for EIL.
//!
//! EIL values are numbers (counts, sizes, seconds — dimensionless scalars),
//! booleans, energies (Joules and abstract units), and records of numbers.
//! The interpreter enforces the distinction dynamically; this module proves
//! it statically so that rule **E001** can reject unit/dimension mismatches
//! (`3 + 5 mJ`, `energy * energy`, branches joining a count with an energy)
//! before an interface is ever evaluated.
//!
//! Inference is demand-based over the lattice `Unknown ⊑ {Num, Bool,
//! Energy}`: parameters start [`Ty::Unknown`] and are refined by use, and a
//! diagnostic fires only when two *known* types collide — so the analysis is
//! deliberately lenient (no false positives on polymorphic helpers) while
//! still catching every concrete mismatch. Functions are processed
//! callees-first so call sites check arguments against inferred callee
//! signatures; members of recursive cycles get unconstrained signatures
//! (rule E004 flags the cycle itself).

use std::collections::BTreeMap;

use crate::ast::{BinOp, Builtin, Expr, Stmt, UnOp};
use crate::ecv::DistSpec;
use crate::interface::Interface;
use crate::sema::diag::{Diagnostic, Diagnostics, Severity};
use crate::span::{ExprSpans, Span, StmtSpans};

/// The abstract type of an EIL expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ty {
    /// Not yet constrained (bottom of the lattice).
    Unknown,
    /// A dimensionless number: count, size, ratio, seconds.
    Num,
    /// A boolean.
    Bool,
    /// An energy (Joules and/or abstract units).
    Energy,
}

impl Ty {
    /// Human-readable name used in diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Ty::Unknown => "unknown",
            Ty::Num => "number",
            Ty::Bool => "boolean",
            Ty::Energy => "energy",
        }
    }

    /// True for `Num`, `Bool`, `Energy`.
    pub fn is_known(self) -> bool {
        self != Ty::Unknown
    }
}

/// Inferred signature of one interface function.
#[derive(Debug, Clone, PartialEq)]
pub struct FnSig {
    /// Per-parameter types, as refined by the function's own body.
    pub params: Vec<Ty>,
    /// Return type (join of all `return` statements).
    pub ret: Ty,
}

/// Infers signatures for every function and reports E001 conflicts.
///
/// Returns the signature table alongside the diagnostics; callers that only
/// need signatures (rule W003 typing a provider) can ignore the latter.
pub fn infer_interface(iface: &Interface) -> (BTreeMap<String, FnSig>, Diagnostics) {
    let mut sigs: BTreeMap<String, FnSig> = BTreeMap::new();
    let mut diags = Diagnostics::new();
    for name in topo_order(iface) {
        let f = &iface.fns()[&name];
        let spans = iface.spans.fn_spans(&name);
        let mut inf = Inferencer {
            iface,
            sigs: &sigs,
            env: f.params.iter().map(|p| (p.clone(), Ty::Unknown)).collect(),
            fn_name: &name,
            diags: &mut diags,
            ret: Ty::Unknown,
        };
        inf.block(&f.body, &spans.body);
        let sig = FnSig {
            params: f
                .params
                .iter()
                .map(|p| inf.env.get(p).copied().unwrap_or(Ty::Unknown))
                .collect(),
            ret: inf.ret,
        };
        sigs.insert(name, sig);
    }
    (sigs, diags)
}

/// Function names in callees-first order (cycle members in DFS post-order,
/// so their call sites see no signature and stay unconstrained).
pub(crate) fn topo_order(iface: &Interface) -> Vec<String> {
    let graph = iface.call_graph();
    let mut order = Vec::new();
    let mut state: BTreeMap<&str, u8> = BTreeMap::new(); // 1 = on stack, 2 = done
    for name in graph.keys() {
        visit(name, &graph, &mut state, &mut order);
    }
    order
}

fn visit<'a>(
    name: &'a str,
    graph: &'a BTreeMap<String, Vec<String>>,
    state: &mut BTreeMap<&'a str, u8>,
    order: &mut Vec<String>,
) {
    if state.contains_key(name) {
        return;
    }
    state.insert(name, 1);
    if let Some(callees) = graph.get(name) {
        for c in callees {
            visit(c, graph, state, order);
        }
    }
    state.insert(name, 2);
    order.push(name.to_string());
}

/// Function names that participate in a call cycle (including direct
/// self-recursion), for rule E004.
pub fn recursive_fns(iface: &Interface) -> Vec<String> {
    let graph = iface.call_graph();
    let mut cyclic = Vec::new();
    // The graph is small (tens of functions); test each node for a path
    // back to itself.
    for start in graph.keys() {
        let mut stack: Vec<&str> = graph[start].iter().map(String::as_str).collect();
        let mut seen: Vec<&str> = Vec::new();
        let mut found = false;
        while let Some(n) = stack.pop() {
            if n == start {
                found = true;
                break;
            }
            if seen.contains(&n) {
                continue;
            }
            seen.push(n);
            if let Some(cs) = graph.get(n) {
                stack.extend(cs.iter().map(String::as_str));
            }
        }
        if found {
            cyclic.push(start.clone());
        }
    }
    cyclic
}

struct Inferencer<'a> {
    iface: &'a Interface,
    sigs: &'a BTreeMap<String, FnSig>,
    env: BTreeMap<String, Ty>,
    fn_name: &'a str,
    diags: &'a mut Diagnostics,
    ret: Ty,
}

impl<'a> Inferencer<'a> {
    fn report(&mut self, span: Span, message: String, hint: Option<String>) {
        self.diags.push(Diagnostic {
            rule: "E001",
            severity: Severity::Error,
            interface: self.iface.name.clone(),
            function: Some(self.fn_name.to_string()),
            span,
            message,
            hint,
        });
    }

    /// Records that a variable reference must have type `ty`, when the
    /// binding is still unconstrained.
    fn refine(&mut self, e: &Expr, ty: Ty) {
        if let Expr::Var(name) = e {
            if let Some(slot) = self.env.get_mut(name) {
                if *slot == Ty::Unknown {
                    *slot = ty;
                }
            }
        }
    }

    /// Infers `e` and requires it to be `what`-typed as `want`.
    fn demand(&mut self, e: &Expr, sp: &ExprSpans, want: Ty, what: &str) {
        let t = self.expr(e, sp);
        if t.is_known() && t != want {
            self.report(
                sp.span,
                format!("{what} must be {}, found {}", want.name(), t.name()),
                None,
            );
        } else if t == Ty::Unknown {
            self.refine(e, want);
        }
    }

    fn block(&mut self, stmts: &[Stmt], spans: &[StmtSpans]) {
        for (i, s) in stmts.iter().enumerate() {
            let sp = spans.get(i).unwrap_or(StmtSpans::none());
            self.stmt(s, sp);
        }
    }

    fn stmt(&mut self, s: &Stmt, sp: &StmtSpans) {
        match s {
            Stmt::Let(name, e) => {
                let t = self.expr(e, sp.expr(0));
                self.env.insert(name.clone(), t);
            }
            Stmt::Assign(name, e) => {
                let t = self.expr(e, sp.expr(0));
                let old = self.env.get(name).copied().unwrap_or(Ty::Unknown);
                if old.is_known() && t.is_known() && old != t {
                    self.report(
                        sp.span,
                        format!(
                            "reassignment changes `{name}` from {} to {}",
                            old.name(),
                            t.name()
                        ),
                        None,
                    );
                } else if old == Ty::Unknown {
                    self.env.insert(name.clone(), t);
                }
            }
            Stmt::If(c, then_b, else_b) => {
                self.demand(c, sp.expr(0), Ty::Bool, "if condition");
                self.block(then_b, sp.block(0));
                self.block(else_b, sp.block(1));
            }
            Stmt::For {
                var,
                from,
                to,
                body,
            } => {
                self.demand(from, sp.expr(0), Ty::Num, "loop start");
                self.demand(to, sp.expr(1), Ty::Num, "loop end");
                self.env.insert(var.clone(), Ty::Num);
                self.block(body, sp.block(0));
            }
            Stmt::While { cond, body, .. } => {
                self.demand(cond, sp.expr(0), Ty::Bool, "while condition");
                self.block(body, sp.block(0));
            }
            Stmt::Return(e) => {
                let t = self.expr(e, sp.expr(0));
                if self.ret.is_known() && t.is_known() && self.ret != t {
                    self.report(
                        sp.span,
                        format!("function returns both {} and {}", self.ret.name(), t.name()),
                        Some("all return statements must yield the same type".into()),
                    );
                } else if t.is_known() {
                    self.ret = t;
                }
            }
        }
    }

    fn expr(&mut self, e: &Expr, sp: &ExprSpans) -> Ty {
        match e {
            Expr::Num(_) => Ty::Num,
            Expr::Bool(_) => Ty::Bool,
            Expr::Joules(_) | Expr::Unit(_, _) => Ty::Energy,
            Expr::Var(name) => self.env.get(name).copied().unwrap_or(Ty::Unknown),
            Expr::Ecv(name) => match self.iface.ecvs.get(name).map(|d| &d.dist) {
                Some(DistSpec::Bernoulli { .. }) => Ty::Bool,
                Some(_) => Ty::Num,
                None => Ty::Unknown,
            },
            Expr::Field(base, field) => {
                let bt = self.expr(base, sp.child(0));
                if bt.is_known() {
                    self.report(
                        sp.span,
                        format!("field `.{field}` accessed on {}, not a record", bt.name()),
                        None,
                    );
                }
                Ty::Num
            }
            Expr::Unary(UnOp::Neg, inner) => {
                let t = self.expr(inner, sp.child(0));
                if t == Ty::Bool {
                    self.report(sp.span, "cannot negate a boolean".into(), None);
                    return Ty::Unknown;
                }
                t
            }
            Expr::Unary(UnOp::Not, inner) => {
                self.demand(inner, sp.child(0), Ty::Bool, "operand of `!`");
                Ty::Bool
            }
            Expr::Binary(op, a, b) => self.binary(*op, a, b, sp),
            Expr::Call(name, args) => self.call(name, args, sp),
            Expr::BuiltinCall(b, args) => self.builtin(*b, args, sp),
            Expr::IfExpr(c, t, f) => {
                self.demand(c, sp.child(0), Ty::Bool, "if condition");
                let tt = self.expr(t, sp.child(1));
                let ft = self.expr(f, sp.child(2));
                if tt.is_known() && ft.is_known() && tt != ft {
                    self.report(
                        sp.span,
                        format!(
                            "if-expression branches join {} with {}",
                            tt.name(),
                            ft.name()
                        ),
                        Some("both branches must yield the same type".into()),
                    );
                    return Ty::Unknown;
                }
                if tt.is_known() {
                    self.refine(f, tt);
                    tt
                } else {
                    self.refine(t, ft);
                    ft
                }
            }
        }
    }

    fn binary(&mut self, op: BinOp, a: &Expr, b: &Expr, sp: &ExprSpans) -> Ty {
        let sym = op.symbol();
        match op {
            BinOp::Add | BinOp::Sub => {
                let (at, bt) = (self.expr(a, sp.child(0)), self.expr(b, sp.child(1)));
                if at == Ty::Bool || bt == Ty::Bool {
                    self.report(sp.span, format!("cannot apply `{sym}` to booleans"), None);
                    return Ty::Unknown;
                }
                match (at, bt) {
                    (Ty::Unknown, Ty::Unknown) => Ty::Unknown,
                    (Ty::Unknown, t) => {
                        self.refine(a, t);
                        t
                    }
                    (t, Ty::Unknown) => {
                        self.refine(b, t);
                        t
                    }
                    (x, y) if x == y => x,
                    (x, y) => {
                        self.report(
                            sp.span,
                            format!("cannot apply `{sym}` to {} and {}", x.name(), y.name()),
                            Some("multiply the count by a per-item energy to convert it".into()),
                        );
                        Ty::Unknown
                    }
                }
            }
            BinOp::Mul => {
                let (at, bt) = (self.expr(a, sp.child(0)), self.expr(b, sp.child(1)));
                if at == Ty::Bool || bt == Ty::Bool {
                    self.report(sp.span, "cannot multiply booleans".into(), None);
                    return Ty::Unknown;
                }
                match (at, bt) {
                    (Ty::Energy, Ty::Energy) => {
                        self.report(
                            sp.span,
                            "cannot multiply energy by energy".into(),
                            Some("one operand must be a dimensionless number".into()),
                        );
                        Ty::Unknown
                    }
                    (Ty::Energy, _) => {
                        self.refine(b, Ty::Num);
                        Ty::Energy
                    }
                    (_, Ty::Energy) => {
                        self.refine(a, Ty::Num);
                        Ty::Energy
                    }
                    (Ty::Num, Ty::Num) => Ty::Num,
                    _ => Ty::Unknown,
                }
            }
            BinOp::Div => {
                let (at, bt) = (self.expr(a, sp.child(0)), self.expr(b, sp.child(1)));
                if at == Ty::Bool || bt == Ty::Bool {
                    self.report(sp.span, "cannot divide booleans".into(), None);
                    return Ty::Unknown;
                }
                match (at, bt) {
                    (Ty::Num, Ty::Energy) => {
                        self.report(sp.span, "cannot divide a number by an energy".into(), None);
                        Ty::Unknown
                    }
                    (Ty::Energy, Ty::Energy) => Ty::Num,
                    (Ty::Energy, Ty::Num) => Ty::Energy,
                    (Ty::Num, Ty::Num) => Ty::Num,
                    (Ty::Num, Ty::Unknown) => {
                        self.refine(b, Ty::Num);
                        Ty::Num
                    }
                    (Ty::Unknown, Ty::Energy) => {
                        // num/energy is ill-typed, so the dividend is energy.
                        self.refine(a, Ty::Energy);
                        Ty::Num
                    }
                    _ => Ty::Unknown,
                }
            }
            BinOp::Mod => {
                self.demand(a, sp.child(0), Ty::Num, "operand of `%`");
                self.demand(b, sp.child(1), Ty::Num, "operand of `%`");
                Ty::Num
            }
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                let (at, bt) = (self.expr(a, sp.child(0)), self.expr(b, sp.child(1)));
                let ordered = matches!(op, BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge);
                if ordered && (at == Ty::Bool || bt == Ty::Bool) {
                    self.report(sp.span, "cannot order booleans".into(), None);
                } else if at.is_known() && bt.is_known() && at != bt {
                    self.report(
                        sp.span,
                        format!("cannot compare {} with {}", at.name(), bt.name()),
                        None,
                    );
                } else if at.is_known() {
                    self.refine(b, at);
                } else if bt.is_known() {
                    self.refine(a, bt);
                }
                Ty::Bool
            }
            BinOp::And | BinOp::Or => {
                self.demand(a, sp.child(0), Ty::Bool, &format!("operand of `{sym}`"));
                self.demand(b, sp.child(1), Ty::Bool, &format!("operand of `{sym}`"));
                Ty::Bool
            }
        }
    }

    fn call(&mut self, name: &str, args: &[Expr], sp: &ExprSpans) -> Ty {
        if self.iface.externs.contains_key(name) {
            // Extern interfaces return energy by contract; their parameter
            // types are the provider's business.
            for (i, a) in args.iter().enumerate() {
                self.expr(a, sp.child(i));
            }
            return Ty::Energy;
        }
        let sig = self.sigs.get(name).cloned();
        for (i, a) in args.iter().enumerate() {
            let at = self.expr(a, sp.child(i));
            let want = sig
                .as_ref()
                .and_then(|s| s.params.get(i).copied())
                .unwrap_or(Ty::Unknown);
            if at.is_known() && want.is_known() && at != want {
                self.report(
                    sp.child(i).span,
                    format!(
                        "argument {} of `{name}` is {}, expected {}",
                        i + 1,
                        at.name(),
                        want.name()
                    ),
                    None,
                );
            } else if at == Ty::Unknown && want.is_known() {
                self.refine(a, want);
            }
        }
        sig.map(|s| s.ret).unwrap_or(Ty::Unknown)
    }

    fn builtin(&mut self, b: Builtin, args: &[Expr], sp: &ExprSpans) -> Ty {
        match b {
            Builtin::Min | Builtin::Max => {
                let (at, bt) = (
                    self.expr(&args[0], sp.child(0)),
                    self.expr(&args[1], sp.child(1)),
                );
                if at == Ty::Bool || bt == Ty::Bool {
                    self.report(
                        sp.span,
                        format!("cannot apply `{}` to booleans", b.name()),
                        None,
                    );
                    return Ty::Unknown;
                }
                match (at, bt) {
                    (Ty::Unknown, t) => {
                        self.refine(&args[0], t);
                        t
                    }
                    (t, Ty::Unknown) => {
                        self.refine(&args[1], t);
                        t
                    }
                    (x, y) if x == y => x,
                    (x, y) => {
                        self.report(
                            sp.span,
                            format!(
                                "cannot apply `{}` to {} and {}",
                                b.name(),
                                x.name(),
                                y.name()
                            ),
                            None,
                        );
                        Ty::Unknown
                    }
                }
            }
            Builtin::Joules => {
                self.demand(&args[0], sp.child(0), Ty::Num, "argument of `joules`");
                Ty::Energy
            }
            _ => {
                for (i, a) in args.iter().enumerate() {
                    self.demand(
                        a,
                        sp.child(i),
                        Ty::Num,
                        &format!("argument of `{}`", b.name()),
                    );
                }
                Ty::Num
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn diags_for(src: &str) -> Diagnostics {
        let iface = parse(src).unwrap();
        let (_, mut d) = infer_interface(&iface);
        d.finish();
        d
    }

    #[test]
    fn clean_interface_has_no_conflicts() {
        let d = diags_for(
            "interface t { unit relu;
                fn f(n) { return 2 relu * n + 5 mJ; }
                fn g(n) { return f(n) + f(n + 1); } }",
        );
        assert!(d.is_empty(), "{}", d.render_text());
    }

    #[test]
    fn adding_count_to_energy_is_e001() {
        // `n + 1` pins `n` to number; adding an energy is then a conflict.
        let d = diags_for("interface t { fn f(n) { return n + 1 + 5 mJ; } }");
        assert_eq!(d.len(), 1);
        let diag = d.iter().next().unwrap();
        assert_eq!(diag.rule, "E001");
        assert!(
            diag.message.contains("number and energy"),
            "{}",
            diag.message
        );
        assert!(!diag.span.is_none());
    }

    #[test]
    fn unconstrained_params_refine_instead_of_erroring() {
        // `n` alone could be an energy passed by a caller, so `n + 5 mJ`
        // refines rather than fires.
        let d = diags_for("interface t { fn f(n) { return n + 5 mJ; } }");
        assert!(d.is_empty(), "{}", d.render_text());
    }

    #[test]
    fn energy_times_energy_is_e001() {
        let d = diags_for("interface t { fn f() { return 1 J * 2 J; } }");
        assert_eq!(d.iter().filter(|d| d.rule == "E001").count(), 1);
    }

    #[test]
    fn branch_join_mismatch_is_e001() {
        let d = diags_for("interface t { fn f(c) { return if c { 1 J } else { 2 }; } }");
        assert_eq!(d.len(), 1);
        assert!(d.iter().next().unwrap().message.contains("branches join"));
    }

    #[test]
    fn refinement_flows_through_calls() {
        // `g` refines its parameter to energy; calling it with a count is
        // then a conflict at the call site.
        let d = diags_for(
            "interface t {
                fn g(e) { return e + 1 J; }
                fn f() { return g(3); } }",
        );
        assert_eq!(d.len(), 1);
        assert!(d
            .iter()
            .next()
            .unwrap()
            .message
            .contains("argument 1 of `g`"));
    }

    #[test]
    fn extern_calls_type_as_energy() {
        let d = diags_for(
            "interface t { extern fn hw(x);
                fn f(n) { return hw(n) + 1 J; } }",
        );
        assert!(d.is_empty(), "{}", d.render_text());
        let iface = parse(
            "interface t { extern fn hw(x);
                fn f(n) { return hw(n) + (n + 1); } }",
        )
        .unwrap();
        let (_, d) = infer_interface(&iface);
        assert_eq!(d.len(), 1, "extern result + count must conflict");
    }

    #[test]
    fn signatures_are_inferred() {
        let iface = parse(
            "interface t {
                fn f(n) { return n * 5 mJ; }
                fn g() { return true; } }",
        )
        .unwrap();
        let (sigs, d) = infer_interface(&iface);
        assert!(d.is_empty());
        assert_eq!(sigs["f"].params, vec![Ty::Num]);
        assert_eq!(sigs["f"].ret, Ty::Energy);
        assert_eq!(sigs["g"].ret, Ty::Bool);
    }

    #[test]
    fn recursion_is_detected_not_typed() {
        let iface = parse(
            "interface t {
                fn odd(n) { return if n == 0 { 0 } else { even(n - 1) }; }
                fn even(n) { return if n == 0 { 1 } else { odd(n - 1) }; } }",
        )
        .unwrap();
        let rec = recursive_fns(&iface);
        assert_eq!(rec, vec!["even".to_string(), "odd".to_string()]);
        let (_, d) = infer_interface(&iface);
        assert!(
            d.is_empty(),
            "cycles stay unconstrained: {}",
            d.render_text()
        );
    }

    #[test]
    fn comparisons_and_logic_demand_types() {
        let d = diags_for("interface t { fn f(n) { return 1 J < 2; } }");
        assert_eq!(d.len(), 1);
        let d = diags_for("interface t { fn f(b) { return b && (1 < 2); } }");
        assert!(d.is_empty());
        let d = diags_for("interface t { fn f() { return true < false; } }");
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn field_access_on_scalar_is_e001() {
        let d = diags_for("interface t { fn f(x) { return (x + 1).size; } }");
        assert_eq!(d.len(), 1);
        assert!(d.iter().next().unwrap().message.contains("field `.size`"));
    }
}
