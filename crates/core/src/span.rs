//! Source-position side tables for parsed interfaces.
//!
//! The AST in [`ast`](crate::ast) is deliberately position-free: interfaces
//! are compared structurally, fingerprinted for the evaluation cache, and
//! built programmatically by every crate in the workspace, so line/column
//! data does not belong inside the nodes themselves. Diagnostics still need
//! real source coordinates, so the parser records a *mirror tree* of spans —
//! one [`ExprSpans`]/[`StmtSpans`] per AST node, in the same child order —
//! in a [`SpanTable`] carried alongside the
//! [`Interface`](crate::interface::Interface::spans).
//!
//! The table is metadata, not identity: its `PartialEq` is always true and
//! both serialization and the cache fingerprint skip it, so span-carrying
//! (parsed) and span-free (programmatically built) interfaces compare and
//! fingerprint identically.

use std::collections::BTreeMap;
use std::fmt;

/// A 1-based `line:col` source position (the start of a construct).
///
/// `Span::NONE` (0:0) marks nodes with no source position — anything built
/// via the AST constructors rather than the parser.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct Span {
    /// 1-based source line; 0 when unknown.
    pub line: u32,
    /// 1-based source column; 0 when unknown.
    pub col: u32,
}

impl Span {
    /// The unknown position.
    pub const NONE: Span = Span { line: 0, col: 0 };

    /// A known position.
    pub fn new(line: u32, col: u32) -> Span {
        Span { line, col }
    }

    /// True when this span carries no real position.
    pub fn is_none(&self) -> bool {
        self.line == 0 && self.col == 0
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Span mirror of one [`Expr`](crate::ast::Expr): the node's own position
/// plus one child per sub-expression, in the same order the AST stores them
/// (`Binary` → `[lhs, rhs]`, `Call`/`BuiltinCall` → args, `IfExpr` →
/// `[cond, then, else]`, `Field`/`Unary` → `[base]`, leaves → `[]`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExprSpans {
    /// Position of the node (the operator token for binary nodes).
    pub span: Span,
    /// Mirrors of the node's sub-expressions.
    pub children: Vec<ExprSpans>,
}

impl ExprSpans {
    /// A leaf with a known position.
    pub fn leaf(span: Span) -> ExprSpans {
        ExprSpans {
            span,
            children: Vec::new(),
        }
    }

    /// An interior node.
    pub fn node(span: Span, children: Vec<ExprSpans>) -> ExprSpans {
        ExprSpans { span, children }
    }

    /// The `i`-th child, or a default (positionless) mirror when the table
    /// is missing or shallower than the AST.
    pub fn child(&self, i: usize) -> &ExprSpans {
        self.children.get(i).unwrap_or(ExprSpans::none())
    }

    /// A shared positionless mirror.
    pub fn none() -> &'static ExprSpans {
        static NONE: ExprSpans = ExprSpans {
            span: Span::NONE,
            children: Vec::new(),
        };
        &NONE
    }
}

/// Span mirror of one [`Stmt`](crate::ast::Stmt).
///
/// `exprs` mirrors the statement's expressions in declaration order
/// (`Let`/`Assign`/`Return` → `[rhs]`, `If` → `[cond]`, `For` →
/// `[from, to]`, `While` → `[cond]`); `blocks` mirrors its nested blocks
/// (`If` → `[then, else]`, `For`/`While` → `[body]`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StmtSpans {
    /// Position of the statement keyword (or assignment target).
    pub span: Span,
    /// Mirrors of the statement's expressions.
    pub exprs: Vec<ExprSpans>,
    /// Mirrors of the statement's nested blocks.
    pub blocks: Vec<Vec<StmtSpans>>,
}

impl StmtSpans {
    /// The `i`-th expression mirror, defaulting to positionless.
    pub fn expr(&self, i: usize) -> &ExprSpans {
        self.exprs.get(i).unwrap_or(ExprSpans::none())
    }

    /// The `i`-th block mirror, defaulting to empty.
    pub fn block(&self, i: usize) -> &[StmtSpans] {
        self.blocks.get(i).map(Vec::as_slice).unwrap_or(&[])
    }

    /// A shared positionless mirror.
    pub fn none() -> &'static StmtSpans {
        static NONE: StmtSpans = StmtSpans {
            span: Span::NONE,
            exprs: Vec::new(),
            blocks: Vec::new(),
        };
        &NONE
    }
}

/// Span mirror of one function definition.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FnSpans {
    /// Position of the function's name in its declaration.
    pub decl: Span,
    /// One mirror per body statement.
    pub body: Vec<StmtSpans>,
}

impl FnSpans {
    /// The `i`-th body statement mirror, defaulting to positionless.
    pub fn stmt(&self, i: usize) -> &StmtSpans {
        self.body.get(i).unwrap_or(StmtSpans::none())
    }
}

/// All source positions recorded while parsing one interface.
///
/// Compares equal to every other table (spans are metadata, not identity),
/// serializes to nothing and is skipped by the cache fingerprint, so adding
/// it to [`Interface`](crate::interface::Interface) perturbs neither
/// structural equality nor cache fingerprints.
#[derive(Debug, Clone, Default)]
pub struct SpanTable {
    /// Per-function mirrors, keyed by function name.
    pub fns: BTreeMap<String, FnSpans>,
    /// ECV declaration positions, keyed by ECV name.
    pub ecvs: BTreeMap<String, Span>,
    /// Extern declaration positions, keyed by extern name.
    pub externs: BTreeMap<String, Span>,
    /// Unit declaration positions, keyed by unit name.
    pub units: BTreeMap<String, Span>,
}

impl SpanTable {
    /// The mirror of function `name`, defaulting to a positionless one.
    pub fn fn_spans(&self, name: &str) -> &FnSpans {
        static NONE: FnSpans = FnSpans {
            decl: Span::NONE,
            body: Vec::new(),
        };
        self.fns.get(name).unwrap_or(&NONE)
    }

    /// An ECV's declaration position.
    pub fn ecv(&self, name: &str) -> Span {
        self.ecvs.get(name).copied().unwrap_or(Span::NONE)
    }

    /// An extern's declaration position.
    pub fn extern_decl(&self, name: &str) -> Span {
        self.externs.get(name).copied().unwrap_or(Span::NONE)
    }

    /// A unit's declaration position.
    pub fn unit(&self, name: &str) -> Span {
        self.units.get(name).copied().unwrap_or(Span::NONE)
    }

    /// True when the table records no positions at all.
    pub fn is_empty(&self) -> bool {
        self.fns.is_empty()
            && self.ecvs.is_empty()
            && self.externs.is_empty()
            && self.units.is_empty()
    }
}

// Spans are metadata: two interfaces differing only in recorded positions
// are the same interface. This keeps `parse(pretty(iface)) == iface` and
// programmatic-vs-parsed comparisons true across the workspace.
impl PartialEq for SpanTable {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

// For the same reason the table serializes to nothing (`null`) and
// deserializes to empty from any value, so round-tripped interfaces are
// unaffected by recorded positions (the cache fingerprint skips it too).
impl serde::Serialize for SpanTable {
    fn to_value(&self) -> serde::Value {
        serde::Value::Null
    }
}

impl serde::Deserialize for SpanTable {
    fn from_value(_: &serde::Value) -> std::result::Result<Self, serde::DeError> {
        Ok(SpanTable::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_display_and_none() {
        assert_eq!(Span::new(3, 14).to_string(), "3:14");
        assert!(Span::NONE.is_none());
        assert!(!Span::new(1, 1).is_none());
    }

    #[test]
    fn tables_compare_equal_regardless_of_content() {
        let mut a = SpanTable::default();
        a.ecvs.insert("hit".into(), Span::new(2, 5));
        let b = SpanTable::default();
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(b.is_empty());
    }

    #[test]
    fn missing_lookups_default_to_none() {
        let t = SpanTable::default();
        assert!(t.ecv("nope").is_none());
        assert!(t.unit("nope").is_none());
        assert!(t.extern_decl("nope").is_none());
        assert!(t.fn_spans("nope").decl.is_none());
        assert!(t.fn_spans("nope").stmt(0).span.is_none());
        assert!(t.fn_spans("nope").stmt(0).expr(0).span.is_none());
        assert!(t.fn_spans("nope").stmt(0).block(0).is_empty());
        assert!(ExprSpans::none().child(3).span.is_none());
    }
}
