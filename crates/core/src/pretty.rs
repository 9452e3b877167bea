//! Pretty-printer: renders an [`Interface`] back into EIL surface syntax.
//!
//! "A developer can read this program to understand and reason about the
//! energy behavior of the resource" (§2) — so every interface, whether
//! hand-written, built via the builder API, or machine-derived by
//! `ei-extract`, can be rendered as a readable program. The printer's output
//! re-parses to a structurally identical interface (property-tested).

use std::fmt::Write as _;

use crate::ast::{Expr, FnDef, Stmt, UnOp};
use crate::interface::Interface;

/// Renders an interface as EIL source text.
pub fn print_interface(iface: &Interface) -> String {
    let mut out = String::new();
    let _ = write!(out, "interface {}", iface.name);
    if !iface.doc.is_empty() {
        let _ = write!(out, " {}", quote(&iface.doc));
    }
    out.push_str(" {\n");
    for u in &iface.units {
        let _ = writeln!(out, "    unit {u};");
    }
    for (name, decl) in &iface.ecvs {
        let _ = write!(out, "    ecv {name}: {}", dist_src(&decl.dist));
        if !decl.doc.is_empty() {
            let _ = write!(out, " {}", quote(&decl.doc));
        }
        out.push_str(";\n");
    }
    for decl in iface.externs.values() {
        let params: Vec<String> = (0..decl.arity).map(|i| format!("a{i}")).collect();
        let _ = write!(out, "    extern fn {}({})", decl.name, params.join(", "));
        if !decl.doc.is_empty() {
            let _ = write!(out, " {}", quote(&decl.doc));
        }
        out.push_str(";\n");
    }
    for f in iface.fns().values() {
        out.push('\n');
        print_fn(&mut out, f, 1);
    }
    out.push_str("}\n");
    out
}

/// Renders a single function definition (used standalone by diagnostics).
pub fn print_fn_def(f: &FnDef) -> String {
    let mut out = String::new();
    print_fn(&mut out, f, 0);
    out
}

fn print_fn(out: &mut String, f: &FnDef, indent: usize) {
    let pad = "    ".repeat(indent);
    let _ = write!(out, "{pad}fn {}({})", f.name, f.params.join(", "));
    if !f.doc.is_empty() {
        let _ = write!(out, " {}", quote(&f.doc));
    }
    out.push_str(" {\n");
    for s in &f.body {
        print_stmt(out, s, indent + 1);
    }
    let _ = writeln!(out, "{pad}}}");
}

fn print_stmt(out: &mut String, s: &Stmt, indent: usize) {
    let pad = "    ".repeat(indent);
    match s {
        Stmt::Let(name, e) => {
            let _ = writeln!(out, "{pad}let {name} = {};", expr_src(e));
        }
        Stmt::Assign(name, e) => {
            let _ = writeln!(out, "{pad}{name} = {};", expr_src(e));
        }
        Stmt::If(c, t, els) => {
            let _ = writeln!(out, "{pad}if {} {{", expr_src(c));
            for s in t {
                print_stmt(out, s, indent + 1);
            }
            if els.is_empty() {
                let _ = writeln!(out, "{pad}}}");
            } else {
                let _ = writeln!(out, "{pad}}} else {{");
                for s in els {
                    print_stmt(out, s, indent + 1);
                }
                let _ = writeln!(out, "{pad}}}");
            }
        }
        Stmt::For {
            var,
            from,
            to,
            body,
        } => {
            let _ = writeln!(
                out,
                "{pad}for {var} in {}..{} {{",
                range_operand(from),
                range_operand(to)
            );
            for s in body {
                print_stmt(out, s, indent + 1);
            }
            let _ = writeln!(out, "{pad}}}");
        }
        Stmt::While { cond, bound, body } => {
            let _ = writeln!(out, "{pad}while {} bound {bound} {{", expr_src(cond));
            for s in body {
                print_stmt(out, s, indent + 1);
            }
            let _ = writeln!(out, "{pad}}}");
        }
        Stmt::Return(e) => {
            let _ = writeln!(out, "{pad}return {};", expr_src(e));
        }
    }
}

/// `for` range operands: parenthesize anything that could swallow the `..`.
fn range_operand(e: &Expr) -> String {
    match e {
        Expr::Num(_) | Expr::Var(_) | Expr::Field(_, _) => expr_src(e),
        _ => format!("({})", expr_src(e)),
    }
}

/// Renders an expression with minimal parentheses.
pub fn expr_src(e: &Expr) -> String {
    expr_prec(e, 0)
}

fn expr_prec(e: &Expr, parent: u8) -> String {
    match e {
        Expr::Num(n) => fmt_num(*n),
        Expr::Bool(b) => b.to_string(),
        Expr::Joules(j) => format!("{} J", fmt_num(*j)),
        Expr::Unit(u, k) => {
            let lit = format!("{} {u}", fmt_num(*k));
            // `2 relu` is a primary; no parens needed at any precedence.
            lit
        }
        Expr::Var(name) => name.clone(),
        Expr::Field(base, name) => format!("{}.{name}", expr_prec(base, 6)),
        Expr::Ecv(name) => format!("ecv({name})"),
        Expr::Unary(op, inner) => {
            let sym = match op {
                UnOp::Neg => "-",
                UnOp::Not => "!",
            };
            let s = format!("{sym}{}", expr_prec(inner, 6));
            if parent > 5 {
                format!("({s})")
            } else {
                s
            }
        }
        Expr::Binary(op, a, b) => {
            let p = op.precedence();
            // Left-associative: right child needs one more level.
            let s = format!(
                "{} {} {}",
                expr_prec(a, p),
                op.symbol(),
                expr_prec(b, p + 1)
            );
            if p < parent {
                format!("({s})")
            } else {
                s
            }
        }
        Expr::Call(name, args) => {
            let args: Vec<String> = args.iter().map(|a| expr_prec(a, 0)).collect();
            format!("{name}({})", args.join(", "))
        }
        Expr::BuiltinCall(b, args) => {
            let args: Vec<String> = args.iter().map(|a| expr_prec(a, 0)).collect();
            format!("{}({})", b.name(), args.join(", "))
        }
        Expr::IfExpr(c, t, f) => {
            let s = format!(
                "if {} {{ {} }} else {{ {} }}",
                expr_prec(c, 0),
                expr_prec(t, 0),
                expr_prec(f, 0)
            );
            // If-expressions as operands always get parentheses for clarity.
            if parent > 0 {
                format!("({s})")
            } else {
                s
            }
        }
    }
}

fn dist_src(d: &crate::ecv::DistSpec) -> String {
    use crate::ecv::DistSpec::*;
    match d {
        Bernoulli { p } => format!("bernoulli({})", fmt_num(*p)),
        Discrete { outcomes } => {
            let parts: Vec<String> = outcomes
                .iter()
                .map(|(v, p)| format!("{}: {}", fmt_num(*v), fmt_num(*p)))
                .collect();
            format!("discrete({})", parts.join(", "))
        }
        Uniform { lo, hi } => format!("uniform({}, {})", fmt_num(*lo), fmt_num(*hi)),
        Normal { mean, std_dev } => {
            format!("normal({}, {})", fmt_num(*mean), fmt_num(*std_dev))
        }
        Point { value } => format!("point({})", fmt_num(*value)),
    }
}

/// Formats a float losslessly (shortest representation that round-trips).
fn fmt_num(n: f64) -> String {
    // Rust's Display for f64 is shortest-round-trip, but prints integers
    // without a decimal point, which is exactly what the lexer accepts.
    format!("{n}")
}

/// Formats a finite float as an EIL numeral that the lexer round-trips
/// bit-exactly, picking whichever of plain and exponent notation is
/// shorter.
///
/// Splicing calibration constants into generated EIL source with `{}`
/// spells out every digit of tiny magnitudes (`1.2e-7` becomes
/// `0.00000012`, and denormal-scale coefficients run to hundreds of
/// digits), bloating interfaces and risking precision-related drift in
/// hand edits. `{:e}` is the shortest round-trip form in the exponent
/// notation the lexer already accepts. Negative values print with a
/// leading `-`, which parses via unary minus in expression position.
pub fn fmt_eil_num(v: f64) -> String {
    assert!(v.is_finite(), "EIL numerals must be finite, got {v}");
    let plain = format!("{v}");
    let exp = format!("{v:e}");
    if exp.len() < plain.len() {
        exp
    } else {
        plain
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            other => out.push(other),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Builtin;
    use crate::parser::{parse, parse_expr};

    #[test]
    fn expr_printing_minimal_parens() {
        let e = parse_expr("1 + 2 * 3").unwrap();
        assert_eq!(expr_src(&e), "1 + 2 * 3");
        let e = parse_expr("(1 + 2) * 3").unwrap();
        assert_eq!(expr_src(&e), "(1 + 2) * 3");
        let e = parse_expr("1 - (2 - 3)").unwrap();
        assert_eq!(expr_src(&e), "1 - (2 - 3)");
        let e = parse_expr("1 - 2 - 3").unwrap();
        assert_eq!(expr_src(&e), "1 - 2 - 3");
        let e = parse_expr("a && (b || c)").unwrap();
        assert_eq!(expr_src(&e), "a && (b || c)");
        let e = parse_expr("-x * y").unwrap();
        assert_eq!(expr_src(&e), "-x * y");
    }

    #[test]
    fn energy_literals_print() {
        let e = parse_expr("0.005 J").unwrap();
        assert_eq!(expr_src(&e), "0.005 J");
        let e = Expr::Unit("relu".into(), 2.0);
        assert_eq!(expr_src(&e), "2 relu");
    }

    #[test]
    fn builtin_call_prints_by_name() {
        let e = Expr::BuiltinCall(Builtin::Ceil, vec![Expr::Num(1.5)]);
        assert_eq!(expr_src(&e), "ceil(1.5)");
    }

    #[test]
    fn roundtrip_fig1_like_interface() {
        let src = r#"
            interface ml_webservice "doc" {
                unit conv2d;
                ecv request_hit: bernoulli(0.25) "request found in cache";
                extern fn hw(a0) "hardware";
                fn handle(request) "doc line" {
                    let m = 1024;
                    if ecv(request_hit) {
                        return 5 mJ * m;
                    } else {
                        return 2 conv2d + hw(m);
                    }
                }
            }
        "#;
        let iface = parse(src).unwrap();
        let printed = print_interface(&iface);
        let reparsed = parse(&printed).unwrap();
        assert_eq!(iface, reparsed, "printed:\n{printed}");
    }

    #[test]
    fn roundtrip_loops_and_expressions() {
        let src = r#"
            interface loops {
                fn f(n) {
                    let acc = 0 J;
                    for i in 0..n {
                        acc = acc + 1 mJ * i;
                    }
                    while n > 0 bound 100 {
                        acc = acc * 2;
                    }
                    return acc + (if n == 0 { 0 J } else { 1 J });
                }
            }
        "#;
        let iface = parse(src).unwrap();
        let printed = print_interface(&iface);
        let reparsed = parse(&printed).unwrap();
        assert_eq!(iface, reparsed, "printed:\n{printed}");
    }

    #[test]
    fn roundtrip_all_distributions() {
        let src = r#"
            interface dists {
                ecv a: bernoulli(0.5);
                ecv b: discrete(1: 0.25, 2: 0.75);
                ecv c: uniform(0, 10);
                ecv d: normal(5, 1.5);
                ecv e: point(3);
                fn f() { return 1 J * (ecv(a) || true) * 0 + joules(ecv(b) + ecv(c) + ecv(d) + ecv(e)); }
            }
        "#;
        // Simplify: bool*num isn't typed; just check declaration round-trip.
        let src = src.replace(
            "return 1 J * (ecv(a) || true) * 0 + joules(ecv(b) + ecv(c) + ecv(d) + ecv(e));",
            "return joules(ecv(b) + ecv(c) + ecv(d) + ecv(e));",
        );
        let iface = parse(&src).unwrap();
        let printed = print_interface(&iface);
        let reparsed = parse(&printed).unwrap();
        assert_eq!(iface, reparsed, "printed:\n{printed}");
    }

    #[test]
    fn doc_strings_with_escapes_roundtrip() {
        let mut iface = crate::interface::Interface::new("q");
        iface.doc = "line1\nline2 \"quoted\" \\slash\ttab".into();
        iface
            .add_fn(crate::ast::FnDef::new(
                "f",
                vec![],
                vec![Stmt::Return(Expr::Joules(1.0))],
            ))
            .unwrap();
        let printed = print_interface(&iface);
        let reparsed = parse(&printed).unwrap();
        assert_eq!(iface, reparsed);
    }

    #[test]
    fn fmt_eil_num_roundtrips_through_the_lexer() {
        // Regression: scientific-notation-sized calibration constants
        // spliced into generated EIL must lex back to the exact same f64.
        let cases = [
            0.0,
            1.0,
            0.25,
            1.2e-7,
            6.125e-5,
            4.0e-9,
            2.5e-321, // denormal: Display would print >300 digits
            9.87654321e12,
            1e300,
            f64::MIN_POSITIVE,
        ];
        for &v in &cases {
            let text = fmt_eil_num(v);
            assert!(
                text.len() < 32,
                "numeral for {v} is bloated: {text:?} ({} chars)",
                text.len()
            );
            let src = format!("interface n {{ fn f() {{ return {text} J; }} }}");
            let iface = parse(&src).unwrap_or_else(|e| panic!("{text:?} did not parse: {e}"));
            match crate::interp::evaluate_energy(
                &iface,
                "f",
                &[],
                &crate::ecv::EcvEnv::default(),
                0,
                &crate::interp::EvalConfig::default(),
            ) {
                Ok(e) => assert_eq!(e.as_joules().to_bits(), v.to_bits(), "for {text:?}"),
                Err(e) => panic!("{text:?} did not evaluate: {e}"),
            }
        }
        // Negative constants render with a unary minus that still parses
        // in expression position.
        let text = fmt_eil_num(-3.4e-9);
        let src = format!("interface n {{ fn f() {{ return {text} J; }} }}");
        parse(&src).unwrap_or_else(|e| panic!("{text:?} did not parse: {e}"));
    }

    #[test]
    fn print_fn_def_standalone() {
        let f = FnDef::new("g", vec!["x".into()], vec![Stmt::Return(Expr::var("x"))]);
        let s = print_fn_def(&f);
        assert!(s.starts_with("fn g(x) {"));
        assert!(s.contains("return x;"));
    }
}
