//! Abstract syntax of the Energy Interface Language (EIL).
//!
//! An energy interface is "a little program that 'computes' energy usage by
//! 'calling into' the energy interfaces of resources used by this resource"
//! (§2). EIL is that little language: expressions and statements over
//! numbers, booleans, records (abstracted inputs), and energy vectors, plus
//! reads of [ECVs](crate::ecv) and calls into other interfaces.

use serde::Serialize;

/// A binary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum BinOp {
    /// Addition (numbers or energies).
    Add,
    /// Subtraction (numbers or energies).
    Sub,
    /// Multiplication (number×number, number×energy, energy×number).
    Mul,
    /// Division (number/number, energy/number, energy/energy → number).
    Div,
    /// Remainder (numbers only).
    Mod,
    /// Equality comparison.
    Eq,
    /// Inequality comparison.
    Ne,
    /// Less-than comparison.
    Lt,
    /// Less-or-equal comparison.
    Le,
    /// Greater-than comparison.
    Gt,
    /// Greater-or-equal comparison.
    Ge,
    /// Logical conjunction (short-circuiting).
    And,
    /// Logical disjunction (short-circuiting).
    Or,
}

impl BinOp {
    /// The surface-syntax spelling of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }

    /// Binding strength for the pretty-printer/parser (higher binds tighter).
    pub fn precedence(self) -> u8 {
        match self {
            BinOp::Or => 1,
            BinOp::And => 2,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 3,
            BinOp::Add | BinOp::Sub => 4,
            BinOp::Mul | BinOp::Div | BinOp::Mod => 5,
        }
    }
}

/// A unary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical negation.
    Not,
}

/// A built-in pure function usable in any interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Builtin {
    /// `min(a, b)` — smaller of two numbers or energies.
    Min,
    /// `max(a, b)` — larger of two numbers or energies.
    Max,
    /// `abs(x)` — absolute value of a number.
    Abs,
    /// `ceil(x)` — smallest integer ≥ x.
    Ceil,
    /// `floor(x)` — largest integer ≤ x.
    Floor,
    /// `round(x)` — nearest integer.
    Round,
    /// `sqrt(x)` — square root.
    Sqrt,
    /// `log2(x)` — base-2 logarithm.
    Log2,
    /// `ln(x)` — natural logarithm.
    Ln,
    /// `exp(x)` — e^x.
    Exp,
    /// `pow(x, y)` — x^y.
    Pow,
    /// `joules(x)` — converts a number into an energy of `x` Joules.
    Joules,
    /// `clamp(x, lo, hi)` — clamps a number to a range.
    Clamp,
}

impl Builtin {
    /// Resolves a builtin by its surface name.
    pub fn from_name(name: &str) -> Option<Builtin> {
        Some(match name {
            "min" => Builtin::Min,
            "max" => Builtin::Max,
            "abs" => Builtin::Abs,
            "ceil" => Builtin::Ceil,
            "floor" => Builtin::Floor,
            "round" => Builtin::Round,
            "sqrt" => Builtin::Sqrt,
            "log2" => Builtin::Log2,
            "ln" => Builtin::Ln,
            "exp" => Builtin::Exp,
            "pow" => Builtin::Pow,
            "joules" => Builtin::Joules,
            "clamp" => Builtin::Clamp,
            _ => return None,
        })
    }

    /// The builtin's surface name.
    pub fn name(self) -> &'static str {
        match self {
            Builtin::Min => "min",
            Builtin::Max => "max",
            Builtin::Abs => "abs",
            Builtin::Ceil => "ceil",
            Builtin::Floor => "floor",
            Builtin::Round => "round",
            Builtin::Sqrt => "sqrt",
            Builtin::Log2 => "log2",
            Builtin::Ln => "ln",
            Builtin::Exp => "exp",
            Builtin::Pow => "pow",
            Builtin::Joules => "joules",
            Builtin::Clamp => "clamp",
        }
    }

    /// Number of arguments the builtin takes.
    pub fn arity(self) -> usize {
        match self {
            Builtin::Min | Builtin::Max | Builtin::Pow => 2,
            Builtin::Clamp => 3,
            _ => 1,
        }
    }

    /// Every builtin, for iteration in tests and docs.
    pub const ALL: [Builtin; 13] = [
        Builtin::Min,
        Builtin::Max,
        Builtin::Abs,
        Builtin::Ceil,
        Builtin::Floor,
        Builtin::Round,
        Builtin::Sqrt,
        Builtin::Log2,
        Builtin::Ln,
        Builtin::Exp,
        Builtin::Pow,
        Builtin::Joules,
        Builtin::Clamp,
    ];
}

/// An EIL expression.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum Expr {
    /// A numeric literal.
    Num(f64),
    /// A boolean literal.
    Bool(bool),
    /// A concrete energy literal, stored in Joules (`2.5 mJ` → `0.0025`).
    Joules(f64),
    /// An abstract-unit energy literal: `3 relu` → `Unit("relu", 3.0)`.
    Unit(String, f64),
    /// A variable or parameter reference.
    Var(String),
    /// A record field access, e.g. `request.image_size`.
    Field(Box<Expr>, String),
    /// A read of an energy-critical variable.
    Ecv(String),
    /// A unary operation.
    Unary(UnOp, Box<Expr>),
    /// A binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// A call to an interface function (local, linked, or extern).
    Call(String, Vec<Expr>),
    /// A call to a built-in pure function.
    BuiltinCall(Builtin, Vec<Expr>),
    /// A conditional expression `if c { a } else { b }`.
    IfExpr(Box<Expr>, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Convenience constructor: `a <op> b`.
    pub fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
        Expr::Binary(op, Box::new(a), Box::new(b))
    }

    /// Convenience constructor: field access `base.name`.
    pub fn field(base: Expr, name: impl Into<String>) -> Expr {
        Expr::Field(Box::new(base), name.into())
    }

    /// Convenience constructor: variable reference.
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Var(name.into())
    }

    /// Convenience constructor: `input.field` (the common case).
    pub fn input_field(input: &str, field: &str) -> Expr {
        Expr::field(Expr::var(input), field)
    }

    /// Walks the expression tree, invoking `f` on every node.
    pub fn visit(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Num(_)
            | Expr::Bool(_)
            | Expr::Joules(_)
            | Expr::Unit(_, _)
            | Expr::Var(_)
            | Expr::Ecv(_) => {}
            Expr::Field(b, _) | Expr::Unary(_, b) => b.visit(f),
            Expr::Binary(_, a, b) => {
                a.visit(f);
                b.visit(f);
            }
            Expr::Call(_, args) | Expr::BuiltinCall(_, args) => {
                for a in args {
                    a.visit(f);
                }
            }
            Expr::IfExpr(c, t, e) => {
                c.visit(f);
                t.visit(f);
                e.visit(f);
            }
        }
    }
}

/// An EIL statement.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum Stmt {
    /// `let name = expr;` — introduces a local binding.
    Let(String, Expr),
    /// `name = expr;` — reassigns an existing local.
    Assign(String, Expr),
    /// `if cond { then } else { els }` — the `else` block may be empty.
    If(Expr, Vec<Stmt>, Vec<Stmt>),
    /// `for var in from..to { body }` — iterates `var` over `[from, to)`.
    For {
        /// Loop variable name.
        var: String,
        /// Inclusive start expression.
        from: Expr,
        /// Exclusive end expression.
        to: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `while cond bound N { body }` — a while loop with a declared trip
    /// bound, required so that worst-case analysis stays decidable.
    While {
        /// Loop condition.
        cond: Expr,
        /// Declared maximum trip count; exceeding it is a runtime error.
        bound: u64,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `return expr;` — ends the enclosing function with a value.
    Return(Expr),
}

impl Stmt {
    /// Walks every expression appearing in this statement (recursively).
    pub fn visit_exprs(&self, f: &mut impl FnMut(&Expr)) {
        match self {
            Stmt::Let(_, e) | Stmt::Assign(_, e) | Stmt::Return(e) => e.visit(f),
            Stmt::If(c, t, els) => {
                c.visit(f);
                for s in t {
                    s.visit_exprs(f);
                }
                for s in els {
                    s.visit_exprs(f);
                }
            }
            Stmt::For { from, to, body, .. } => {
                from.visit(f);
                to.visit(f);
                for s in body {
                    s.visit_exprs(f);
                }
            }
            Stmt::While { cond, body, .. } => {
                cond.visit(f);
                for s in body {
                    s.visit_exprs(f);
                }
            }
        }
    }
}

/// A function definition inside an energy interface.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FnDef {
    /// Function name (unique within an interface after linking).
    pub name: String,
    /// Parameter names.
    pub params: Vec<String>,
    /// Body statements; evaluation ends at the first `return`.
    pub body: Vec<Stmt>,
    /// Documentation string shown by the pretty-printer.
    pub doc: String,
}

impl FnDef {
    /// Creates a function with no documentation.
    pub fn new(name: impl Into<String>, params: Vec<String>, body: Vec<Stmt>) -> Self {
        FnDef {
            name: name.into(),
            params,
            body,
            doc: String::new(),
        }
    }

    /// Collects the names of all functions this one calls (excluding
    /// builtins).
    pub fn callees(&self) -> Vec<String> {
        let mut out = Vec::new();
        for s in &self.body {
            s.visit_exprs(&mut |e| {
                if let Expr::Call(name, _) = e {
                    if !out.contains(name) {
                        out.push(name.clone());
                    }
                }
            });
        }
        out
    }

    /// Collects the names of all ECVs this function reads.
    pub fn ecvs_read(&self) -> Vec<String> {
        let mut out = Vec::new();
        for s in &self.body {
            s.visit_exprs(&mut |e| {
                if let Expr::Ecv(name) = e {
                    if !out.contains(name) {
                        out.push(name.clone());
                    }
                }
            });
        }
        out
    }
}

/// An extern function declaration: called here, provided by a lower layer.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ExternDecl {
    /// Extern function name.
    pub name: String,
    /// Expected arity.
    pub arity: usize,
    /// Documentation string.
    pub doc: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_symbols_and_precedence() {
        assert_eq!(BinOp::Add.symbol(), "+");
        assert_eq!(BinOp::And.symbol(), "&&");
        assert!(BinOp::Mul.precedence() > BinOp::Add.precedence());
        assert!(BinOp::Add.precedence() > BinOp::Lt.precedence());
        assert!(BinOp::Lt.precedence() > BinOp::And.precedence());
        assert!(BinOp::And.precedence() > BinOp::Or.precedence());
    }

    #[test]
    fn builtin_roundtrip_names() {
        for b in Builtin::ALL {
            assert_eq!(Builtin::from_name(b.name()), Some(b));
            assert!(b.arity() >= 1 && b.arity() <= 3);
        }
        assert_eq!(Builtin::from_name("nope"), None);
    }

    #[test]
    fn fn_callees_and_ecvs() {
        let f = FnDef::new(
            "handle",
            vec!["request".into()],
            vec![Stmt::If(
                Expr::Ecv("request_hit".into()),
                vec![Stmt::Return(Expr::Call(
                    "cache_lookup".into(),
                    vec![Expr::input_field("request", "image_id")],
                ))],
                vec![Stmt::Return(Expr::Call(
                    "cnn_forward".into(),
                    vec![Expr::var("request")],
                ))],
            )],
        );
        assert_eq!(f.callees(), vec!["cache_lookup", "cnn_forward"]);
        assert_eq!(f.ecvs_read(), vec!["request_hit"]);
    }

    #[test]
    fn visit_covers_all_nodes() {
        let e = Expr::IfExpr(
            Box::new(Expr::bin(
                BinOp::Lt,
                Expr::Unary(UnOp::Neg, Box::new(Expr::Num(1.0))),
                Expr::BuiltinCall(Builtin::Max, vec![Expr::Num(2.0), Expr::Joules(3.0)]),
            )),
            Box::new(Expr::Unit("relu".into(), 2.0)),
            Box::new(Expr::field(Expr::var("x"), "f")),
        );
        let mut count = 0;
        e.visit(&mut |_| count += 1);
        assert_eq!(count, 10);
    }

    #[test]
    fn loop_statement_expr_visit() {
        let s = Stmt::For {
            var: "i".into(),
            from: Expr::Num(0.0),
            to: Expr::var("n"),
            body: vec![Stmt::Assign(
                "acc".into(),
                Expr::bin(BinOp::Add, Expr::var("acc"), Expr::Ecv("noise".into())),
            )],
        };
        let mut ecvs = 0;
        s.visit_exprs(&mut |e| {
            if matches!(e, Expr::Ecv(_)) {
                ecvs += 1;
            }
        });
        assert_eq!(ecvs, 1);
    }
}
