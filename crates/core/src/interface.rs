//! Energy interfaces: named collections of EIL functions plus ECV and unit
//! declarations.
//!
//! An [`Interface`] is the paper's central artifact: "an explanation of the
//! energy behavior of a resource that is both concise and accurate" (§2),
//! written as a program. Interfaces declare the abstract units they emit,
//! the ECVs they read, and the extern functions (lower-layer interfaces)
//! they call; [linking](crate::compose) resolves externs against providers.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use crate::ast::{Builtin, Expr, ExternDecl, FnDef};
use crate::ecv::{EcvDecl, EcvEnv};
use crate::error::{Error, NameKind, Result};

/// The declared range of one numeric input feature, used by worst-case and
/// compatibility analyses to bound the input space.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FeatureRange {
    /// Inclusive lower bound.
    pub lo: f64,
    /// Inclusive upper bound.
    pub hi: f64,
}

impl FeatureRange {
    /// Creates a range; callers must ensure `lo <= hi`.
    pub fn new(lo: f64, hi: f64) -> Self {
        FeatureRange { lo, hi }
    }

    /// A degenerate single-point range.
    pub fn point(v: f64) -> Self {
        FeatureRange { lo: v, hi: v }
    }

    /// True when `v` falls within the range.
    pub fn contains(&self, v: f64) -> bool {
        v >= self.lo && v <= self.hi
    }
}

/// Schema of one function's input: per-parameter feature ranges.
///
/// A scalar parameter has an entry under its own name; a record parameter
/// has entries `param.field`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct InputSpec {
    pub(crate) ranges: BTreeMap<String, FeatureRange>,
}

impl InputSpec {
    /// An empty spec (no declared ranges).
    pub fn new() -> Self {
        InputSpec::default()
    }

    /// Declares the range of `path` (`param` or `param.field`).
    pub fn range(mut self, path: impl Into<String>, lo: f64, hi: f64) -> Self {
        self.ranges.insert(path.into(), FeatureRange::new(lo, hi));
        self
    }

    /// Looks up the declared range for `path`.
    pub fn get(&self, path: &str) -> Option<FeatureRange> {
        self.ranges.get(path).copied()
    }

    /// Iterates over all `(path, range)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (&str, FeatureRange)> {
        self.ranges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// True when no ranges are declared.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }
}

/// An energy interface: functions, ECV declarations, abstract units, and
/// extern requirements.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Interface {
    /// Interface name (e.g. `ml_webservice`).
    pub name: String,
    /// Documentation shown at the top of the pretty-printed interface.
    pub doc: String,
    /// Function definitions, keyed by name.
    pub fns: BTreeMap<String, FnDef>,
    /// ECV declarations, keyed by name.
    pub ecvs: BTreeMap<String, EcvDecl>,
    /// Abstract energy units this interface may emit.
    pub units: BTreeSet<String>,
    /// Extern functions this interface calls but does not define.
    pub externs: BTreeMap<String, ExternDecl>,
    /// Optional input schemas per function, for analyses.
    pub input_specs: BTreeMap<String, InputSpec>,
    /// Source positions recorded by the parser (metadata: always compares
    /// equal, serializes as `null`; empty for programmatically built
    /// interfaces).
    pub spans: crate::span::SpanTable,
}

impl Interface {
    /// Creates an empty interface with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Interface {
            name: name.into(),
            doc: String::new(),
            fns: BTreeMap::new(),
            ecvs: BTreeMap::new(),
            units: BTreeSet::new(),
            externs: BTreeMap::new(),
            input_specs: BTreeMap::new(),
            spans: crate::span::SpanTable::default(),
        }
    }

    /// Adds a function definition; errors on duplicates.
    pub fn add_fn(&mut self, f: FnDef) -> Result<()> {
        if self.fns.contains_key(&f.name) {
            return Err(Error::Duplicate {
                kind: NameKind::Function,
                name: f.name.clone(),
            });
        }
        if self.externs.contains_key(&f.name) {
            return Err(Error::Duplicate {
                kind: NameKind::Function,
                name: f.name.clone(),
            });
        }
        self.fns.insert(f.name.clone(), f);
        Ok(())
    }

    /// Declares an ECV; errors on duplicates.
    pub fn add_ecv(&mut self, name: impl Into<String>, decl: EcvDecl) -> Result<()> {
        let name = name.into();
        decl.dist.validate(&name)?;
        if self.ecvs.contains_key(&name) {
            return Err(Error::Duplicate {
                kind: NameKind::Ecv,
                name,
            });
        }
        self.ecvs.insert(name, decl);
        Ok(())
    }

    /// Declares an abstract energy unit.
    pub fn add_unit(&mut self, name: impl Into<String>) {
        self.units.insert(name.into());
    }

    /// Declares an extern function requirement; errors on duplicates.
    pub fn add_extern(&mut self, decl: ExternDecl) -> Result<()> {
        if self.fns.contains_key(&decl.name) || self.externs.contains_key(&decl.name) {
            return Err(Error::Duplicate {
                kind: NameKind::Function,
                name: decl.name.clone(),
            });
        }
        self.externs.insert(decl.name.clone(), decl);
        Ok(())
    }

    /// Attaches an input schema to a function.
    pub fn set_input_spec(&mut self, func: impl Into<String>, spec: InputSpec) {
        self.input_specs.insert(func.into(), spec);
    }

    /// Looks up a function definition.
    pub fn get_fn(&self, name: &str) -> Result<&FnDef> {
        self.fns.get(name).ok_or_else(|| Error::Unresolved {
            kind: NameKind::Function,
            name: name.to_string(),
        })
    }

    /// True when the interface has no unresolved externs.
    pub fn is_closed(&self) -> bool {
        self.externs.is_empty()
    }

    /// Builds an [`EcvEnv`] from this interface's ECV declarations.
    pub fn ecv_env(&self) -> EcvEnv {
        EcvEnv::from_decls(&self.ecvs)
    }

    /// Validates internal consistency:
    ///
    /// - every `Call` target resolves to a local function or declared extern
    ///   (builtins are checked structurally at parse/build time);
    /// - call arity matches the callee;
    /// - every `Ecv` read has a declaration;
    /// - every abstract-unit literal has a unit declaration;
    /// - every ECV distribution is valid.
    pub fn validate(&self) -> Result<()> {
        for (name, decl) in &self.ecvs {
            decl.dist.validate(name)?;
        }
        for f in self.fns.values() {
            let mut err: Option<Error> = None;
            for stmt in &f.body {
                stmt.visit_exprs(&mut |e| {
                    if err.is_some() {
                        return;
                    }
                    err = self.check_expr(e).err();
                });
                if let Some(e) = err {
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    fn check_expr(&self, e: &Expr) -> Result<()> {
        match e {
            Expr::Call(name, args) => {
                if let Some(f) = self.fns.get(name) {
                    if f.params.len() != args.len() {
                        return Err(Error::Arity {
                            func: name.clone(),
                            expected: f.params.len(),
                            got: args.len(),
                        });
                    }
                } else if let Some(ext) = self.externs.get(name) {
                    if ext.arity != args.len() {
                        return Err(Error::Arity {
                            func: name.clone(),
                            expected: ext.arity,
                            got: args.len(),
                        });
                    }
                } else if Builtin::from_name(name).is_none() {
                    return Err(Error::Unresolved {
                        kind: NameKind::Function,
                        name: name.clone(),
                    });
                }
                Ok(())
            }
            Expr::BuiltinCall(b, args) => {
                if b.arity() != args.len() {
                    return Err(Error::Arity {
                        func: b.name().to_string(),
                        expected: b.arity(),
                        got: args.len(),
                    });
                }
                Ok(())
            }
            Expr::Ecv(name) => {
                if !self.ecvs.contains_key(name) {
                    return Err(Error::Unresolved {
                        kind: NameKind::Ecv,
                        name: name.clone(),
                    });
                }
                Ok(())
            }
            Expr::Unit(name, _) => {
                if !self.units.contains(name) {
                    return Err(Error::Unresolved {
                        kind: NameKind::Unit,
                        name: name.clone(),
                    });
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// The set of extern names actually called from function bodies.
    ///
    /// Linking uses this to know what remains unresolved; `validate`
    /// guarantees it is a subset of `self.externs`.
    pub fn called_externs(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for f in self.fns.values() {
            for callee in f.callees() {
                if self.externs.contains_key(&callee) {
                    out.insert(callee);
                }
            }
        }
        out
    }

    /// The call graph restricted to local functions: `name -> callees`.
    pub fn call_graph(&self) -> BTreeMap<String, Vec<String>> {
        self.fns
            .iter()
            .map(|(name, f)| {
                let local: Vec<String> = f
                    .callees()
                    .into_iter()
                    .filter(|c| self.fns.contains_key(c))
                    .collect();
                (name.clone(), local)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{BinOp, Expr, Stmt};
    use crate::ecv::DistSpec;

    fn ret(e: Expr) -> Vec<Stmt> {
        vec![Stmt::Return(e)]
    }

    #[test]
    fn add_and_get_fn() {
        let mut i = Interface::new("t");
        i.add_fn(FnDef::new("f", vec![], ret(Expr::Joules(1.0))))
            .unwrap();
        assert!(i.get_fn("f").is_ok());
        assert!(i.get_fn("g").is_err());
        let dup = i.add_fn(FnDef::new("f", vec![], ret(Expr::Joules(2.0))));
        assert!(dup.is_err());
    }

    #[test]
    fn validate_unresolved_call() {
        let mut i = Interface::new("t");
        i.add_fn(FnDef::new(
            "f",
            vec![],
            ret(Expr::Call("missing".into(), vec![])),
        ))
        .unwrap();
        let err = i.validate().unwrap_err();
        assert_eq!(
            err,
            Error::Unresolved {
                kind: NameKind::Function,
                name: "missing".into()
            }
        );
    }

    #[test]
    fn validate_arity_mismatch() {
        let mut i = Interface::new("t");
        i.add_fn(FnDef::new("g", vec!["x".into()], ret(Expr::var("x"))))
            .unwrap();
        i.add_fn(FnDef::new("f", vec![], ret(Expr::Call("g".into(), vec![]))))
            .unwrap();
        assert!(matches!(i.validate(), Err(Error::Arity { .. })));
    }

    #[test]
    fn validate_extern_arity() {
        let mut i = Interface::new("t");
        i.add_extern(ExternDecl {
            name: "hw_op".into(),
            arity: 2,
            doc: String::new(),
        })
        .unwrap();
        i.add_fn(FnDef::new(
            "f",
            vec![],
            ret(Expr::Call("hw_op".into(), vec![Expr::Num(1.0)])),
        ))
        .unwrap();
        assert!(matches!(i.validate(), Err(Error::Arity { .. })));
        assert!(!i.is_closed());
        assert!(i.called_externs().contains("hw_op"));
    }

    #[test]
    fn validate_ecv_and_unit_declarations() {
        let mut i = Interface::new("t");
        i.add_fn(FnDef::new("f", vec![], ret(Expr::Ecv("hit".into()))))
            .unwrap();
        assert!(i.validate().is_err());
        i.add_ecv(
            "hit",
            EcvDecl {
                dist: DistSpec::Bernoulli { p: 0.5 },
                doc: String::new(),
            },
        )
        .unwrap();
        assert!(i.validate().is_ok());

        let mut j = Interface::new("u");
        j.add_fn(FnDef::new("f", vec![], ret(Expr::Unit("relu".into(), 2.0))))
            .unwrap();
        assert!(j.validate().is_err());
        j.add_unit("relu");
        assert!(j.validate().is_ok());
    }

    #[test]
    fn builtin_calls_pass_validation() {
        let mut i = Interface::new("t");
        i.add_fn(FnDef::new(
            "f",
            vec![],
            ret(Expr::Call(
                "min".into(),
                vec![Expr::Num(1.0), Expr::Num(2.0)],
            )),
        ))
        .unwrap();
        assert!(i.validate().is_ok());
    }

    #[test]
    fn call_graph_is_local_only() {
        let mut i = Interface::new("t");
        i.add_extern(ExternDecl {
            name: "ext".into(),
            arity: 0,
            doc: String::new(),
        })
        .unwrap();
        i.add_fn(FnDef::new(
            "a",
            vec![],
            ret(Expr::bin(
                BinOp::Add,
                Expr::Call("b".into(), vec![]),
                Expr::Call("ext".into(), vec![]),
            )),
        ))
        .unwrap();
        i.add_fn(FnDef::new("b", vec![], ret(Expr::Joules(1.0))))
            .unwrap();
        let g = i.call_graph();
        assert_eq!(g["a"], vec!["b"]);
        assert!(g["b"].is_empty());
    }

    #[test]
    fn input_spec_ranges() {
        let spec = InputSpec::new()
            .range("request.image_size", 1.0, 4096.0)
            .range("n", 0.0, 10.0);
        assert!(spec.get("request.image_size").unwrap().contains(100.0));
        assert!(!spec.get("n").unwrap().contains(11.0));
        assert_eq!(spec.iter().count(), 2);
        assert!(!spec.is_empty());
        assert_eq!(FeatureRange::point(3.0), FeatureRange::new(3.0, 3.0));
    }

    #[test]
    fn extern_and_fn_name_collision() {
        let mut i = Interface::new("t");
        i.add_fn(FnDef::new("f", vec![], ret(Expr::Joules(1.0))))
            .unwrap();
        assert!(i
            .add_extern(ExternDecl {
                name: "f".into(),
                arity: 0,
                doc: String::new()
            })
            .is_err());
        i.add_extern(ExternDecl {
            name: "g".into(),
            arity: 0,
            doc: String::new(),
        })
        .unwrap();
        assert!(i
            .add_fn(FnDef::new("g", vec![], ret(Expr::Joules(1.0))))
            .is_err());
    }
}
