//! Recursive-descent parser for the EIL surface syntax.
//!
//! Grammar (informal):
//!
//! ```text
//! interface  := "interface" ident str? "{" item* "}"
//! item       := "unit" ident ";"
//!             | "ecv" ident ":" dist str? ";"
//!             | "extern" "fn" ident "(" params ")" str? ";"
//!             | "fn" ident "(" params ")" str? block
//! dist       := "bernoulli" "(" num ")" | "uniform" "(" num "," num ")"
//!             | "normal" "(" num "," num ")" | "point" "(" num ")"
//!             | "discrete" "(" num ":" num ("," num ":" num)* ")"
//! block      := "{" stmt* "}"
//! stmt       := "let" ident "=" expr ";" | ident "=" expr ";"
//!             | "if" expr block ("else" (block | ifstmt))?
//!             | "for" ident "in" expr ".." expr block
//!             | "while" expr "bound" num block
//!             | "return" expr ";"
//! expr       := or ; or := and ("||" and)* ; and := cmp ("&&" cmp)*
//! cmp        := add (("=="|"!="|"<"|"<="|">"|">=") add)?
//! add        := mul (("+"|"-") mul)* ; mul := unary (("*"|"/"|"%") unary)*
//! unary      := ("-"|"!") unary | postfix
//! postfix    := primary ("." ident)*
//! primary    := num unit? | "true" | "false" | ident ("(" args ")")?
//!             | "(" expr ")" | "if" expr "{" expr "}" "else" "{" expr "}"
//! unit       := "J"|"mJ"|"uJ"|"nJ"|"pJ"|"kJ"|"Wh" | declared-unit-name
//! ```
//!
//! Energy literals bind the unit to the number: `5 mJ`, `2 relu`. Declared
//! abstract units must appear (with `unit relu;`) before use.
//!
//! While building the (position-free) AST the parser also records a mirror
//! tree of [`Span`]s — one per declaration, statement, and expression — in
//! the interface's [`SpanTable`], so diagnostics from the [`sema`] lint
//! pass can point at real source coordinates.
//!
//! [`sema`]: crate::sema

use std::collections::BTreeSet;

use crate::ast::{BinOp, Builtin, Expr, ExternDecl, FnDef, Stmt, UnOp};
use crate::ecv::{DistSpec, EcvDecl};
use crate::error::{Error, Result};
use crate::interface::Interface;
use crate::lexer::{lex, Spanned, Tok};
use crate::span::{ExprSpans, FnSpans, Span, StmtSpans};

/// Keywords that cannot be used as identifiers.
pub const KEYWORDS: &[&str] = &[
    "interface",
    "unit",
    "ecv",
    "extern",
    "fn",
    "let",
    "if",
    "else",
    "for",
    "in",
    "while",
    "bound",
    "return",
    "true",
    "false",
];

/// Deepest nesting the parser accepts, counted two ways against the same
/// limit: the parser's own recursion (expressions, parentheses, unary
/// operators, blocks, `else if`), and the depth of the tree it builds,
/// where each operator of a chain such as `a + b + c` adds one level.
/// Interfaces cross trust boundaries, so a hostile file must get a
/// structured [`Error::Parse`] rather than exhaust the host stack: in the
/// parser itself, or in a pass that later recurses over the AST. Real
/// interfaces nest a few levels deep; at this limit parsing, linting and
/// evaluation fit a 2 MiB thread stack even in unoptimized builds, where
/// one level of parentheses costs about 18 KiB of parser stack.
pub const MAX_NESTING: usize = 64;

const ENERGY_SUFFIXES: &[(&str, f64)] = &[
    ("J", 1.0),
    ("mJ", 1e-3),
    ("uJ", 1e-6),
    ("nJ", 1e-9),
    ("pJ", 1e-12),
    ("kJ", 1e3),
    ("Wh", 3600.0),
];

/// Parses a standalone expression (useful for tests and tools).
pub fn parse_expr(src: &str) -> Result<Expr> {
    let toks = lex(src)?;
    let mut p = Parser::new(toks);
    let (e, _, _) = p.expr()?;
    p.expect_eof()?;
    Ok(e)
}

/// A parsed expression, its span mirror, and its height: the number of
/// AST levels below its root (0 for a leaf).
type Parsed = (Expr, ExprSpans, usize);

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
    units: BTreeSet<String>,
    /// Current nesting depth, bounded by [`MAX_NESTING`].
    depth: usize,
}

impl Parser {
    fn new(toks: Vec<Spanned>) -> Parser {
        Parser {
            toks,
            pos: 0,
            units: BTreeSet::new(),
            depth: 0,
        }
    }

    /// Runs `f` one nesting level deeper, failing past [`MAX_NESTING`].
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        if self.depth >= MAX_NESTING {
            return Err(self.too_deep());
        }
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    /// The height of a new node over children at most `child` high,
    /// failing when the node would reach deeper than [`MAX_NESTING`] below
    /// the levels open around it. Checked before each node is built, so no
    /// tree taller than the limit ever exists, not even one being dropped.
    fn grow(&self, child: usize) -> Result<usize> {
        let h = child + 1;
        if self.depth + h > MAX_NESTING {
            return Err(self.too_deep());
        }
        Ok(h)
    }

    #[cold]
    fn too_deep(&self) -> Error {
        self.err(format!("nesting exceeds the limit of {MAX_NESTING} levels"))
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|s| &s.tok)
    }

    fn here(&self) -> (u32, u32) {
        self.toks
            .get(self.pos)
            .or_else(|| self.toks.last())
            .map(|s| (s.line, s.col))
            .unwrap_or((1, 1))
    }

    /// The current token's position as a [`Span`].
    fn span_here(&self) -> Span {
        let (line, col) = self.here();
        Span::new(line, col)
    }

    fn err(&self, msg: impl Into<String>) -> Error {
        let (line, col) = self.here();
        Error::Parse {
            line,
            col,
            msg: msg.into(),
        }
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|s| s.tok.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok, what: &str) -> Result<()> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.err(format!("expected {what}")))
        }
    }

    fn expect_eof(&self) -> Result<()> {
        if self.pos == self.toks.len() {
            Ok(())
        } else {
            Err(self.err("unexpected trailing input"))
        }
    }

    fn at_eof(&self) -> bool {
        self.pos == self.toks.len()
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if let Some(Tok::Ident(s)) = self.peek() {
            if s == kw {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected keyword `{kw}`")))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.peek() {
            Some(Tok::Ident(s)) if !KEYWORDS.contains(&s.as_str()) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            Some(Tok::Ident(s)) => Err(self.err(format!("`{s}` is a keyword"))),
            _ => Err(self.err("expected identifier")),
        }
    }

    fn number(&mut self) -> Result<f64> {
        let neg = self.eat(&Tok::Minus);
        match self.bump() {
            Some(Tok::Num(n)) => Ok(if neg { -n } else { n }),
            _ => Err(self.err("expected number")),
        }
    }

    fn opt_doc(&mut self) -> String {
        if let Some(Tok::Str(s)) = self.peek() {
            let s = s.clone();
            self.pos += 1;
            s
        } else {
            String::new()
        }
    }

    fn interface(&mut self) -> Result<Interface> {
        // Unit suffixes are scoped to one interface (relevant for multi-
        // interface files parsed via `parse_all`).
        self.units.clear();
        self.expect_kw("interface")?;
        let name = self.ident()?;
        let mut iface = Interface::new(name);
        iface.doc = self.opt_doc();
        self.expect(&Tok::LBrace, "`{`")?;
        while !self.eat(&Tok::RBrace) {
            if self.eat_kw("unit") {
                let sp = self.span_here();
                let u = self.ident()?;
                self.expect(&Tok::Semi, "`;`")?;
                self.units.insert(u.clone());
                iface.spans.units.insert(u.clone(), sp);
                iface.add_unit(u);
            } else if self.eat_kw("ecv") {
                let sp = self.span_here();
                let name = self.ident()?;
                self.expect(&Tok::Colon, "`:`")?;
                let dist = self.dist()?;
                let doc = self.opt_doc();
                self.expect(&Tok::Semi, "`;`")?;
                iface.spans.ecvs.insert(name.clone(), sp);
                iface.add_ecv(name, EcvDecl { dist, doc })?;
            } else if self.eat_kw("extern") {
                self.expect_kw("fn")?;
                let sp = self.span_here();
                let name = self.ident()?;
                self.expect(&Tok::LParen, "`(`")?;
                let params = self.param_list()?;
                let doc = self.opt_doc();
                self.expect(&Tok::Semi, "`;`")?;
                iface.spans.externs.insert(name.clone(), sp);
                iface.add_extern(ExternDecl {
                    name,
                    arity: params.len(),
                    doc,
                })?;
            } else if self.eat_kw("fn") {
                let sp = self.span_here();
                let name = self.ident()?;
                self.expect(&Tok::LParen, "`(`")?;
                let params = self.param_list()?;
                let doc = self.opt_doc();
                let (body, body_spans) = self.block()?;
                iface.spans.fns.insert(
                    name.clone(),
                    FnSpans {
                        decl: sp,
                        body: body_spans,
                    },
                );
                iface.add_fn(FnDef {
                    name,
                    params,
                    body,
                    doc,
                })?;
            } else {
                return Err(self.err("expected `unit`, `ecv`, `extern`, `fn`, or `}`"));
            }
        }
        Ok(iface)
    }

    fn param_list(&mut self) -> Result<Vec<String>> {
        let mut params = Vec::new();
        if self.eat(&Tok::RParen) {
            return Ok(params);
        }
        loop {
            params.push(self.ident()?);
            if self.eat(&Tok::Comma) {
                continue;
            }
            self.expect(&Tok::RParen, "`)`")?;
            break;
        }
        Ok(params)
    }

    fn dist(&mut self) -> Result<DistSpec> {
        let kind = self.ident()?;
        self.expect(&Tok::LParen, "`(`")?;
        let spec = match kind.as_str() {
            "bernoulli" => {
                let p = self.number()?;
                DistSpec::Bernoulli { p }
            }
            "uniform" => {
                let lo = self.number()?;
                self.expect(&Tok::Comma, "`,`")?;
                let hi = self.number()?;
                DistSpec::Uniform { lo, hi }
            }
            "normal" => {
                let mean = self.number()?;
                self.expect(&Tok::Comma, "`,`")?;
                let std_dev = self.number()?;
                DistSpec::Normal { mean, std_dev }
            }
            "point" => {
                let value = self.number()?;
                DistSpec::Point { value }
            }
            "discrete" => {
                let mut outcomes = Vec::new();
                loop {
                    let v = self.number()?;
                    self.expect(&Tok::Colon, "`:`")?;
                    let p = self.number()?;
                    outcomes.push((v, p));
                    if !self.eat(&Tok::Comma) {
                        break;
                    }
                }
                DistSpec::Discrete { outcomes }
            }
            other => return Err(self.err(format!("unknown distribution `{other}`"))),
        };
        self.expect(&Tok::RParen, "`)`")?;
        Ok(spec)
    }

    fn block(&mut self) -> Result<(Vec<Stmt>, Vec<StmtSpans>)> {
        self.expect(&Tok::LBrace, "`{`")?;
        self.nested(|p| {
            let mut stmts = Vec::new();
            let mut spans = Vec::new();
            while !p.eat(&Tok::RBrace) {
                let (s, sp) = p.stmt()?;
                stmts.push(s);
                spans.push(sp);
            }
            Ok((stmts, spans))
        })
    }

    fn stmt(&mut self) -> Result<(Stmt, StmtSpans)> {
        let sp = self.span_here();
        if self.eat_kw("let") {
            let name = self.ident()?;
            self.expect(&Tok::Assign, "`=`")?;
            let (e, es, _) = self.expr()?;
            self.expect(&Tok::Semi, "`;`")?;
            return Ok((
                Stmt::Let(name, e),
                StmtSpans {
                    span: sp,
                    exprs: vec![es],
                    blocks: vec![],
                },
            ));
        }
        if self.eat_kw("return") {
            let (e, es, _) = self.expr()?;
            self.expect(&Tok::Semi, "`;`")?;
            return Ok((
                Stmt::Return(e),
                StmtSpans {
                    span: sp,
                    exprs: vec![es],
                    blocks: vec![],
                },
            ));
        }
        if self.eat_kw("if") {
            let (cond, cond_s, _) = self.expr()?;
            let (then_b, then_s) = self.block()?;
            let (else_b, else_s) = if self.eat_kw("else") {
                if let Some(Tok::Ident(k)) = self.peek() {
                    if k == "if" {
                        // `else if ...` sugar: one level deeper per link.
                        let (s, ss) = self.nested(Self::stmt)?;
                        (vec![s], vec![ss])
                    } else {
                        return Err(self.err("expected `{` or `if` after `else`"));
                    }
                } else {
                    self.block()?
                }
            } else {
                (Vec::new(), Vec::new())
            };
            return Ok((
                Stmt::If(cond, then_b, else_b),
                StmtSpans {
                    span: sp,
                    exprs: vec![cond_s],
                    blocks: vec![then_s, else_s],
                },
            ));
        }
        if self.eat_kw("for") {
            let var = self.ident()?;
            self.expect_kw("in")?;
            let (from, from_s, _) = self.expr()?;
            self.expect(&Tok::DotDot, "`..`")?;
            let (to, to_s, _) = self.expr()?;
            let (body, body_s) = self.block()?;
            return Ok((
                Stmt::For {
                    var,
                    from,
                    to,
                    body,
                },
                StmtSpans {
                    span: sp,
                    exprs: vec![from_s, to_s],
                    blocks: vec![body_s],
                },
            ));
        }
        if self.eat_kw("while") {
            let (cond, cond_s, _) = self.expr()?;
            self.expect_kw("bound")?;
            let bound = self.number()?;
            if bound < 0.0 || bound.fract() != 0.0 {
                return Err(self.err("while bound must be a non-negative integer"));
            }
            let (body, body_s) = self.block()?;
            return Ok((
                Stmt::While {
                    cond,
                    bound: bound as u64,
                    body,
                },
                StmtSpans {
                    span: sp,
                    exprs: vec![cond_s],
                    blocks: vec![body_s],
                },
            ));
        }
        // Assignment: `ident = expr;`.
        let name = self.ident()?;
        self.expect(&Tok::Assign, "`=` (assignment)")?;
        let (e, es, _) = self.expr()?;
        self.expect(&Tok::Semi, "`;`")?;
        Ok((
            Stmt::Assign(name, e),
            StmtSpans {
                span: sp,
                exprs: vec![es],
                blocks: vec![],
            },
        ))
    }

    fn expr(&mut self) -> Result<Parsed> {
        self.nested(Self::or_expr)
    }

    fn or_expr(&mut self) -> Result<Parsed> {
        let (mut e, mut es, mut h) = self.and_expr()?;
        loop {
            let sp = self.span_here();
            if !self.eat(&Tok::OrOr) {
                break;
            }
            let (rhs, rs, rh) = self.and_expr()?;
            h = self.grow(h.max(rh))?;
            e = Expr::bin(BinOp::Or, e, rhs);
            es = ExprSpans::node(sp, vec![es, rs]);
        }
        Ok((e, es, h))
    }

    fn and_expr(&mut self) -> Result<Parsed> {
        let (mut e, mut es, mut h) = self.cmp_expr()?;
        loop {
            let sp = self.span_here();
            if !self.eat(&Tok::AndAnd) {
                break;
            }
            let (rhs, rs, rh) = self.cmp_expr()?;
            h = self.grow(h.max(rh))?;
            e = Expr::bin(BinOp::And, e, rhs);
            es = ExprSpans::node(sp, vec![es, rs]);
        }
        Ok((e, es, h))
    }

    fn cmp_expr(&mut self) -> Result<Parsed> {
        let (e, es, h) = self.add_expr()?;
        let op = match self.peek() {
            Some(Tok::Eq) => BinOp::Eq,
            Some(Tok::Ne) => BinOp::Ne,
            Some(Tok::Lt) => BinOp::Lt,
            Some(Tok::Le) => BinOp::Le,
            Some(Tok::Gt) => BinOp::Gt,
            Some(Tok::Ge) => BinOp::Ge,
            _ => return Ok((e, es, h)),
        };
        let sp = self.span_here();
        self.pos += 1;
        let (rhs, rs, rh) = self.add_expr()?;
        let h = self.grow(h.max(rh))?;
        Ok((Expr::bin(op, e, rhs), ExprSpans::node(sp, vec![es, rs]), h))
    }

    fn add_expr(&mut self) -> Result<Parsed> {
        let (mut e, mut es, mut h) = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => BinOp::Add,
                Some(Tok::Minus) => BinOp::Sub,
                _ => break,
            };
            let sp = self.span_here();
            self.pos += 1;
            let (rhs, rs, rh) = self.mul_expr()?;
            h = self.grow(h.max(rh))?;
            e = Expr::bin(op, e, rhs);
            es = ExprSpans::node(sp, vec![es, rs]);
        }
        Ok((e, es, h))
    }

    fn mul_expr(&mut self) -> Result<Parsed> {
        let (mut e, mut es, mut h) = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Star) => BinOp::Mul,
                Some(Tok::Slash) => BinOp::Div,
                Some(Tok::Percent) => BinOp::Mod,
                _ => break,
            };
            let sp = self.span_here();
            self.pos += 1;
            let (rhs, rs, rh) = self.unary_expr()?;
            h = self.grow(h.max(rh))?;
            e = Expr::bin(op, e, rhs);
            es = ExprSpans::node(sp, vec![es, rs]);
        }
        Ok((e, es, h))
    }

    fn unary_expr(&mut self) -> Result<Parsed> {
        let sp = self.span_here();
        if self.eat(&Tok::Minus) {
            let (inner, is, ih) = self.nested(Self::unary_expr)?;
            // Fold negation into literals so `-1` round-trips as `Num(-1)`;
            // the folded literal keeps the minus token's position.
            return Ok(match inner {
                Expr::Num(n) => (Expr::Num(-n), ExprSpans::leaf(sp), 0),
                Expr::Joules(j) => (Expr::Joules(-j), ExprSpans::leaf(sp), 0),
                other => (
                    Expr::Unary(UnOp::Neg, Box::new(other)),
                    ExprSpans::node(sp, vec![is]),
                    self.grow(ih)?,
                ),
            });
        }
        if self.eat(&Tok::Bang) {
            let (inner, is, ih) = self.nested(Self::unary_expr)?;
            return Ok((
                Expr::Unary(UnOp::Not, Box::new(inner)),
                ExprSpans::node(sp, vec![is]),
                self.grow(ih)?,
            ));
        }
        self.postfix_expr()
    }

    fn postfix_expr(&mut self) -> Result<Parsed> {
        let (mut e, mut es, mut h) = self.primary()?;
        loop {
            let sp = self.span_here();
            if !self.eat(&Tok::Dot) {
                break;
            }
            let field = self.ident()?;
            h = self.grow(h)?;
            e = Expr::Field(Box::new(e), field);
            es = ExprSpans::node(sp, vec![es]);
        }
        Ok((e, es, h))
    }

    fn primary(&mut self) -> Result<Parsed> {
        let sp = self.span_here();
        match self.peek().cloned() {
            Some(Tok::Num(n)) => {
                self.pos += 1;
                // Energy literal: `5 mJ` or `2 relu` (declared unit).
                if let Some(Tok::Ident(suffix)) = self.peek() {
                    let suffix = suffix.clone();
                    if let Some((_, scale)) = ENERGY_SUFFIXES.iter().find(|(s, _)| *s == suffix) {
                        self.pos += 1;
                        return Ok((Expr::Joules(n * scale), ExprSpans::leaf(sp), 0));
                    }
                    if self.units.contains(&suffix) {
                        self.pos += 1;
                        return Ok((Expr::Unit(suffix, n), ExprSpans::leaf(sp), 0));
                    }
                }
                Ok((Expr::Num(n), ExprSpans::leaf(sp), 0))
            }
            Some(Tok::Ident(id)) if id == "true" => {
                self.pos += 1;
                Ok((Expr::Bool(true), ExprSpans::leaf(sp), 0))
            }
            Some(Tok::Ident(id)) if id == "false" => {
                self.pos += 1;
                Ok((Expr::Bool(false), ExprSpans::leaf(sp), 0))
            }
            Some(Tok::Ident(id)) if id == "ecv" => {
                // `ecv(name)` — explicit ECV read.
                self.pos += 1;
                self.expect(&Tok::LParen, "`(`")?;
                let name = self.ident()?;
                self.expect(&Tok::RParen, "`)`")?;
                Ok((Expr::Ecv(name), ExprSpans::leaf(sp), 0))
            }
            Some(Tok::Ident(id)) if id == "if" => {
                // If-expression: `if c { a } else { b }`.
                self.pos += 1;
                let (c, cs, ch) = self.expr()?;
                self.expect(&Tok::LBrace, "`{`")?;
                let (t, ts, th) = self.expr()?;
                self.expect(&Tok::RBrace, "`}`")?;
                self.expect_kw("else")?;
                self.expect(&Tok::LBrace, "`{`")?;
                let (f, fs, fh) = self.expr()?;
                self.expect(&Tok::RBrace, "`}`")?;
                Ok((
                    Expr::IfExpr(Box::new(c), Box::new(t), Box::new(f)),
                    ExprSpans::node(sp, vec![cs, ts, fs]),
                    self.grow(ch.max(th).max(fh))?,
                ))
            }
            Some(Tok::Ident(id)) if !KEYWORDS.contains(&id.as_str()) => {
                self.pos += 1;
                if self.peek() == Some(&Tok::LParen) {
                    self.pos += 1;
                    let mut args = Vec::new();
                    let mut arg_spans = Vec::new();
                    let mut ah = 0;
                    if !self.eat(&Tok::RParen) {
                        loop {
                            let (a, asp, h) = self.expr()?;
                            args.push(a);
                            arg_spans.push(asp);
                            ah = ah.max(h);
                            if self.eat(&Tok::Comma) {
                                continue;
                            }
                            self.expect(&Tok::RParen, "`)`")?;
                            break;
                        }
                    }
                    let h = self.grow(ah)?;
                    let spans = ExprSpans::node(sp, arg_spans);
                    if let Some(b) = Builtin::from_name(&id) {
                        return Ok((Expr::BuiltinCall(b, args), spans, h));
                    }
                    return Ok((Expr::Call(id, args), spans, h));
                }
                Ok((Expr::Var(id), ExprSpans::leaf(sp), 0))
            }
            Some(Tok::LParen) => {
                self.pos += 1;
                let (e, es, h) = self.expr()?;
                self.expect(&Tok::RParen, "`)`")?;
                // Parentheses are not AST nodes; pass the inner mirror up.
                Ok((e, es, h))
            }
            _ => Err(self.err("expected expression")),
        }
    }
}

/// Resolves bare `Var` references to declared ECVs into `Ecv` reads.
///
/// The surface syntax lets Fig. 1-style code write `if request_hit { .. }`
/// without the explicit `ecv(..)` form; after parsing a whole interface we
/// rewrite any variable that (a) is not a parameter or local and (b) names a
/// declared ECV. The rewrite swaps leaves for leaves, so the span mirror
/// tree stays aligned untouched.
pub fn resolve_ecv_reads(iface: &mut Interface) {
    let ecv_names: BTreeSet<String> = iface.ecvs.keys().cloned().collect();
    for f in iface.fns_mut().values_mut() {
        let mut bound: BTreeSet<String> = f.params.iter().cloned().collect();
        rewrite_block(&mut f.body, &mut bound, &ecv_names);
    }
}

fn rewrite_block(stmts: &mut [Stmt], bound: &mut BTreeSet<String>, ecvs: &BTreeSet<String>) {
    for s in stmts {
        match s {
            Stmt::Let(name, e) => {
                rewrite_expr(e, bound, ecvs);
                bound.insert(name.clone());
            }
            Stmt::Assign(_, e) => rewrite_expr(e, bound, ecvs),
            Stmt::If(c, t, els) => {
                rewrite_expr(c, bound, ecvs);
                rewrite_block(t, bound, ecvs);
                rewrite_block(els, bound, ecvs);
            }
            Stmt::For {
                var,
                from,
                to,
                body,
            } => {
                rewrite_expr(from, bound, ecvs);
                rewrite_expr(to, bound, ecvs);
                bound.insert(var.clone());
                rewrite_block(body, bound, ecvs);
            }
            Stmt::While { cond, body, .. } => {
                rewrite_expr(cond, bound, ecvs);
                rewrite_block(body, bound, ecvs);
            }
            Stmt::Return(e) => rewrite_expr(e, bound, ecvs),
        }
    }
}

fn rewrite_expr(e: &mut Expr, bound: &BTreeSet<String>, ecvs: &BTreeSet<String>) {
    match e {
        Expr::Var(name) => {
            if !bound.contains(name) && ecvs.contains(name) {
                *e = Expr::Ecv(name.clone());
            }
        }
        Expr::Field(b, _) | Expr::Unary(_, b) => rewrite_expr(b, bound, ecvs),
        Expr::Binary(_, a, b) => {
            rewrite_expr(a, bound, ecvs);
            rewrite_expr(b, bound, ecvs);
        }
        Expr::Call(_, args) | Expr::BuiltinCall(_, args) => {
            for a in args {
                rewrite_expr(a, bound, ecvs);
            }
        }
        Expr::IfExpr(c, t, f) => {
            rewrite_expr(c, bound, ecvs);
            rewrite_expr(t, bound, ecvs);
            rewrite_expr(f, bound, ecvs);
        }
        Expr::Num(_) | Expr::Bool(_) | Expr::Joules(_) | Expr::Unit(_, _) | Expr::Ecv(_) => {}
    }
}

/// Parses an interface and resolves Fig. 1-style bare ECV references.
pub fn parse(src: &str) -> Result<Interface> {
    let toks = lex(src)?;
    let mut p = Parser::new(toks);
    let mut iface = p.interface()?;
    p.expect_eof()?;
    resolve_ecv_reads(&mut iface);
    iface.validate()?;
    Ok(iface)
}

/// Parses a file containing one or more interfaces.
///
/// Multi-interface files are how compositions ship as a single unit: an
/// upper interface plus the providers meant to satisfy its externs. Each
/// interface is resolved and validated independently (unit suffixes do not
/// leak across interfaces); `eic lint` additionally cross-checks the
/// declared externs against the sibling providers (rule W003).
pub fn parse_all(src: &str) -> Result<Vec<Interface>> {
    let toks = lex(src)?;
    let mut p = Parser::new(toks);
    let mut out = Vec::new();
    while !p.at_eof() {
        let mut iface = p.interface()?;
        resolve_ecv_reads(&mut iface);
        iface.validate()?;
        out.push(iface);
    }
    if out.is_empty() {
        return Err(p.err("expected at least one `interface`"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ecv::EcvEnv;
    use crate::interp::{evaluate, evaluate_energy, EvalConfig, ExecMode};
    use crate::value::Value;

    const FIG1: &str = r#"
        // The example energy interface from Fig. 1 of the paper.
        interface ml_webservice "energy interface for an ML-model web service" {
            unit conv2d;
            unit relu;
            unit mlp;
            ecv request_hit: bernoulli(0.25) "request found in cache";
            ecv local_cache_hit: bernoulli(0.8) "cache hit in current node";

            fn handle(request) "energy to handle one request" {
                let max_response_len = 1024;
                if request_hit {
                    return cache_lookup(request.image_id, max_response_len);
                } else {
                    return cnn_forward(request);
                }
            }

            fn cache_lookup(key, response_len) {
                return (if local_cache_hit { 5 mJ } else { 100 mJ }) * response_len;
            }

            fn cnn_forward(request) {
                let n_embedding = 256;
                let n_zeros = request.image_zeros;
                return 8 * conv2d_e(request.image_size - n_zeros)
                     + 8 * relu_e(n_embedding)
                     + 16 * mlp_e(n_embedding);
            }

            fn conv2d_e(n) { return 1 conv2d * (n / 1024); }
            fn relu_e(n) { return 1 relu * (n / 256); }
            fn mlp_e(n) { return 1 mlp * (n / 256); }
        }
    "#;

    #[test]
    fn parses_fig1() {
        let iface = parse(FIG1).unwrap();
        assert_eq!(iface.name, "ml_webservice");
        assert_eq!(iface.fns().len(), 6);
        assert_eq!(iface.ecvs.len(), 2);
        assert_eq!(iface.units.len(), 3);
        assert!(iface.is_closed());
    }

    #[test]
    fn fig1_evaluates() {
        let iface = parse(FIG1).unwrap();
        let mut env = EcvEnv::from_decls(&iface.ecvs);
        env.pin_bool("request_hit", true);
        env.pin_bool("local_cache_hit", true);
        let req = Value::num_record([
            ("image_id", 1.0),
            ("image_size", 2048.0),
            ("image_zeros", 0.0),
        ]);
        let e = evaluate_energy(&iface, "handle", &[req], &env, 0, &EvalConfig::default()).unwrap();
        assert!((e.as_joules() - 5e-3 * 1024.0).abs() < 1e-9);
    }

    #[test]
    fn energy_literal_suffixes() {
        let joules = |src: &str| match parse_expr(src).unwrap() {
            Expr::Joules(j) => j,
            other => panic!("expected Joules literal, got {other:?}"),
        };
        let close = |a: f64, b: f64| (a - b).abs() <= b.abs() * 1e-12;
        assert!(close(joules("5 mJ"), 5e-3));
        assert!(close(joules("2 J"), 2.0));
        assert!(close(joules("3 uJ"), 3e-6));
        assert!(close(joules("1 Wh"), 3600.0));
        assert!(close(joules("4 kJ"), 4000.0));
        assert!(close(joules("7 nJ"), 7e-9));
        assert!(close(joules("9 pJ"), 9e-12));
    }

    #[test]
    fn precedence() {
        // 1 + 2 * 3 parses as 1 + (2 * 3).
        let e = parse_expr("1 + 2 * 3").unwrap();
        assert_eq!(
            e,
            Expr::bin(
                BinOp::Add,
                Expr::Num(1.0),
                Expr::bin(BinOp::Mul, Expr::Num(2.0), Expr::Num(3.0))
            )
        );
        // a || b && c parses as a || (b && c).
        let e = parse_expr("a || b && c").unwrap();
        assert!(matches!(e, Expr::Binary(BinOp::Or, _, _)));
        // Comparison binds looser than arithmetic.
        let e = parse_expr("1 + 1 < 3").unwrap();
        assert!(matches!(e, Expr::Binary(BinOp::Lt, _, _)));
    }

    #[test]
    fn unary_and_parens() {
        let e = parse_expr("-(1 + 2)").unwrap();
        assert!(matches!(e, Expr::Unary(UnOp::Neg, _)));
        let e = parse_expr("!x").unwrap();
        assert!(matches!(e, Expr::Unary(UnOp::Not, _)));
        let e = parse_expr("-x.size").unwrap();
        // Unary applies to the whole postfix chain.
        assert!(matches!(e, Expr::Unary(UnOp::Neg, _)));
    }

    #[test]
    fn builtins_resolved() {
        let e = parse_expr("min(1, 2)").unwrap();
        assert!(matches!(e, Expr::BuiltinCall(Builtin::Min, _)));
        let e = parse_expr("ceil(x / 32)").unwrap();
        assert!(matches!(e, Expr::BuiltinCall(Builtin::Ceil, _)));
    }

    #[test]
    fn explicit_ecv_syntax() {
        let e = parse_expr("ecv(request_hit)").unwrap();
        assert_eq!(e, Expr::Ecv("request_hit".into()));
    }

    #[test]
    fn statements_parse() {
        let src = r#"
            interface s {
                fn f(n) {
                    let acc = 0 J;
                    for i in 0..n {
                        acc = acc + 1 mJ * i;
                    }
                    let j = 0;
                    while j < 10 bound 20 {
                        j = j + 1;
                    }
                    if n > 5 {
                        return acc;
                    } else if n > 2 {
                        return acc * 2;
                    } else {
                        return 0 J;
                    }
                }
            }
        "#;
        let iface = parse(src).unwrap();
        let f = iface.get_fn("f").unwrap();
        assert_eq!(f.body.len(), 5);
        match &f.body[4] {
            Stmt::If(_, _, els) => {
                assert_eq!(els.len(), 1);
                assert!(matches!(els[0], Stmt::If(_, _, _)));
            }
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn extern_declarations() {
        let src = r#"
            interface up {
                extern fn hw_op(bytes, flops) "hardware operation";
                fn f(x) { return hw_op(x, x * 2); }
            }
        "#;
        let iface = parse(src).unwrap();
        assert_eq!(iface.externs["hw_op"].arity, 2);
        assert!(!iface.is_closed());
    }

    #[test]
    fn parse_errors_have_positions() {
        let err = parse("interface x { fn f( { } }").unwrap_err();
        match err {
            Error::Parse { line, .. } => assert_eq!(line, 1),
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn rejects_keyword_identifiers() {
        assert!(parse("interface if { }").is_err());
        assert!(parse("interface x { fn return() { return 0 J; } }").is_err());
    }

    #[test]
    fn rejects_undeclared_unit_literal() {
        // `2 relu` without `unit relu;` parses `2` then chokes on `relu`.
        let src = "interface x { fn f() { return 2 relu; } }";
        assert!(parse(src).is_err());
    }

    #[test]
    fn rejects_bad_distributions() {
        assert!(parse("interface x { ecv e: bernoulli(2.0); }").is_err());
        assert!(parse("interface x { ecv e: wacky(1.0); }").is_err());
        assert!(parse("interface x { ecv e: discrete(1: 0.5); }").is_err());
    }

    #[test]
    fn negative_numbers_in_distributions() {
        let src = "interface x { ecv e: normal(-5, 2.0); }";
        let iface = parse(src).unwrap();
        assert_eq!(
            iface.ecvs["e"].dist,
            DistSpec::Normal {
                mean: -5.0,
                std_dev: 2.0
            }
        );
    }

    #[test]
    fn while_bound_must_be_integer() {
        let src = "interface x { fn f() { while true bound 2.5 { } return 0 J; } }";
        assert!(parse(src).is_err());
    }

    #[test]
    fn trailing_input_rejected() {
        assert!(parse("interface x { } garbage").is_err());
        assert!(parse_expr("1 + 2 extra").is_err());
    }

    #[test]
    fn call_vs_var_disambiguation() {
        let e = parse_expr("f(x) + f").unwrap();
        match e {
            Expr::Binary(BinOp::Add, l, r) => {
                assert!(matches!(*l, Expr::Call(_, _)));
                assert!(matches!(*r, Expr::Var(_)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    // -----------------------------------------------------------------------
    // Span threading
    // -----------------------------------------------------------------------

    #[test]
    fn declaration_spans_recorded() {
        let src = "interface s {\n    unit relu;\n    ecv hit: bernoulli(0.5);\n    extern fn hw(x);\n    fn f(n) { return hw(n) + 1 relu; }\n}\n";
        let iface = parse(src).unwrap();
        assert_eq!(iface.spans.unit("relu"), crate::span::Span::new(2, 10));
        assert_eq!(iface.spans.ecv("hit"), crate::span::Span::new(3, 9));
        assert_eq!(iface.spans.extern_decl("hw"), crate::span::Span::new(4, 15));
        assert_eq!(iface.spans.fn_spans("f").decl, crate::span::Span::new(5, 8));
    }

    #[test]
    fn statement_and_expression_spans_mirror_the_ast() {
        let src = "interface s {\n    fn f(n) {\n        let a = 1 + n;\n        if n > 2 {\n            return 1 J;\n        } else {\n            return 2 J * a;\n        }\n    }\n}\n";
        let iface = parse(src).unwrap();
        let fs = iface.spans.fn_spans("f");
        // `let` keyword on line 3, col 9.
        assert_eq!(fs.stmt(0).span, crate::span::Span::new(3, 9));
        // The let's rhs mirror anchors at the `+` operator.
        assert_eq!(fs.stmt(0).expr(0).span, crate::span::Span::new(3, 19));
        // Its children are the two operand leaves.
        assert_eq!(
            fs.stmt(0).expr(0).child(0).span,
            crate::span::Span::new(3, 17)
        );
        assert_eq!(
            fs.stmt(0).expr(0).child(1).span,
            crate::span::Span::new(3, 21)
        );
        // `if` statement with both blocks mirrored.
        let if_s = fs.stmt(1);
        assert_eq!(if_s.span, crate::span::Span::new(4, 9));
        assert_eq!(if_s.block(0).len(), 1);
        assert_eq!(if_s.block(1).len(), 1);
        // The else-branch return's rhs is `2 J * a`: anchored at `*`.
        let ret = &if_s.block(1)[0];
        assert_eq!(ret.expr(0).span, crate::span::Span::new(7, 24));
        // AST shape matches the mirror shape.
        let f = iface.get_fn("f").unwrap();
        match &f.body[0] {
            Stmt::Let(_, Expr::Binary(_, _, _)) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn folded_negative_literals_keep_a_span() {
        let src = "interface s { fn f() { return 0 J * (0 - -3); } }";
        let iface = parse(src).unwrap();
        let fs = iface.spans.fn_spans("f");
        // return-rhs is `*`; its right child is `(0 - -3)` anchored at `-`,
        // whose right child is the folded literal at the minus token.
        let mul = fs.stmt(0).expr(0);
        let sub = mul.child(1);
        assert!(!sub.child(1).span.is_none());
    }

    #[test]
    fn programmatic_interfaces_have_empty_span_tables() {
        let iface = Interface::new("empty");
        assert!(iface.spans.is_empty());
        // And parsed == programmatic comparisons ignore spans entirely.
        let parsed = parse("interface p { fn f() { return 1 J; } }").unwrap();
        let mut rebuilt = Interface::new("p");
        rebuilt
            .add_fn(FnDef::new(
                "f",
                vec![],
                vec![Stmt::Return(Expr::Joules(1.0))],
            ))
            .unwrap();
        assert!(!parsed.spans.is_empty());
        assert_eq!(parsed, rebuilt);
    }

    // -----------------------------------------------------------------------
    // Multi-interface files
    // -----------------------------------------------------------------------

    #[test]
    fn parse_all_reads_multiple_interfaces() {
        let src = r#"
            interface upper {
                extern fn op(x);
                fn f(x) { return op(x); }
            }
            interface provider {
                unit relu;
                fn op(x) { return 1 relu * x; }
            }
        "#;
        let ifaces = parse_all(src).unwrap();
        assert_eq!(ifaces.len(), 2);
        assert_eq!(ifaces[0].name, "upper");
        assert_eq!(ifaces[1].name, "provider");
        // Unit suffixes don't leak across interfaces.
        assert!(ifaces[0].units.is_empty());
        assert!(ifaces[1].units.contains("relu"));
    }

    #[test]
    fn parse_all_unit_scope_does_not_leak() {
        // `relu` declared only in the first interface must not lex as an
        // energy suffix in the second.
        let src = r#"
            interface a { unit relu; fn f() { return 1 relu; } }
            interface b { fn g() { return 2 relu; } }
        "#;
        assert!(parse_all(src).is_err());
    }

    #[test]
    fn parse_all_rejects_empty_and_garbage() {
        assert!(parse_all("").is_err());
        assert!(parse_all("interface a { } garbage").is_err());
    }

    #[test]
    fn parse_all_single_matches_parse() {
        let ifaces = parse_all(FIG1).unwrap();
        assert_eq!(ifaces.len(), 1);
        assert_eq!(ifaces[0], parse(FIG1).unwrap());
    }

    /// Hostile nesting gets a structured parse error, never a stack
    /// overflow, and legitimate nesting up to the limit still parses.
    #[test]
    fn nesting_is_bounded() {
        // A thread with the default 2 MiB test stack, whatever
        // `RUST_MIN_STACK` says.
        let on_2mib_stack = std::thread::Builder::new().stack_size(2 << 20);
        on_2mib_stack
            .spawn(nesting_is_bounded_on_this_stack)
            .unwrap()
            .join()
            .unwrap();
    }

    fn nesting_is_bounded_on_this_stack() {
        let body = |b: String| format!("interface x {{ fn f(n) {{ {b} }} }}");
        let parens = |d: usize| body(format!("return {}1{};", "(".repeat(d), ")".repeat(d)));
        // Chains build one tree level per operator without parser recursion.
        let chain = |op: &str, links: usize| {
            body(format!(
                "return (n{}) * 1 J;",
                format!(" {op} 1").repeat(links)
            ))
        };
        let fields = |links: usize| body(format!("return n{};", ".a".repeat(links)));
        let else_ifs = |links: usize| {
            body(format!(
                "if n > 0 {{ return 1 J; }}{} return 0 J;",
                " else if n > 0 { return 1 J; }".repeat(links)
            ))
        };
        for depth in [10_000, 30_000, 100_000] {
            for src in [
                parens(depth),
                body(format!("return {}n;", "-".repeat(depth))),
                body(format!("return {}n;", "!".repeat(depth))),
                body(format!(
                    "{}return 1 J;{}",
                    "if n > 0 { ".repeat(depth),
                    " }".repeat(depth)
                )),
                chain("+", depth),
                chain("*", depth),
                chain("&&", depth),
                chain("||", depth),
                fields(depth),
                else_ifs(depth),
            ] {
                match parse(&src) {
                    Err(Error::Parse { msg, .. }) => {
                        assert!(msg.contains("nesting exceeds"), "{msg}")
                    }
                    other => panic!("depth {depth}: expected a nesting error, got {other:?}"),
                }
            }
        }
        // The function body and the return expression take two levels.
        parse(&parens(MAX_NESTING - 2)).unwrap();
        assert!(parse(&parens(MAX_NESTING - 1)).is_err());
        parse(&fields(MAX_NESTING - 2)).unwrap();
        assert!(parse(&fields(MAX_NESTING - 1)).is_err());
        // The last link's block and its `return` expression take two
        // levels above the link itself.
        parse(&else_ifs(MAX_NESTING - 3)).unwrap();
        assert!(parse(&else_ifs(MAX_NESTING - 2)).is_err());
        // The parentheses take a third level, and each `+` one more. At the
        // boundary the chain still lints and evaluates on both engines.
        let at_limit = parse(&chain("+", MAX_NESTING - 3)).unwrap();
        assert!(parse(&chain("+", MAX_NESTING - 2)).is_err());
        assert!(crate::sema::check(&at_limit).is_empty());
        let want = Value::joules(MAX_NESTING as f64 - 2.0);
        let config = EvalConfig {
            mode: ExecMode::TreeWalk,
            ..EvalConfig::default()
        };
        let args = [Value::Num(1.0)];
        let walked = evaluate(&at_limit, "f", &args, &EcvEnv::new(), 0, &config);
        assert_eq!(walked.unwrap(), want, "tree-walk");
        let program = crate::vm::compile(&at_limit).unwrap();
        let no_ecvs = std::collections::BTreeMap::new();
        let ran = crate::vm::Vm::new(&program).run("f", &args, &no_ecvs, &config);
        assert_eq!(ran.unwrap(), want, "vm");
    }
}
