//! Energy interfaces: named collections of EIL functions plus ECV and unit
//! declarations.
//!
//! An [`Interface`] is the paper's central artifact: "an explanation of the
//! energy behavior of a resource that is both concise and accurate" (§2),
//! written as a program. Interfaces declare the abstract units they emit,
//! the ECVs they read, and the extern functions (lower-layer interfaces)
//! they call; [linking](crate::compose) resolves externs against providers.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;
use serde::Serialize;

use crate::ast::{Builtin, Expr, ExternDecl, FnDef};
use crate::cache::fingerprint_interface;
use crate::ecv::{EcvDecl, EcvEnv};
use crate::error::{Error, NameKind, Result};
use crate::vm;

/// The declared range of one numeric input feature, used by worst-case and
/// compatibility analyses to bound the input space.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
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
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
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
#[derive(Debug, Clone, PartialEq)]
pub struct Interface {
    /// Interface name (e.g. `ml_webservice`).
    pub name: String,
    /// Documentation shown at the top of the pretty-printed interface.
    pub doc: String,
    /// Function definitions, keyed by name. Read through
    /// [`Interface::fns`]; every edit goes through [`Interface::add_fn`] or
    /// [`Interface::fns_mut`], which forget the fingerprint memo.
    fns: BTreeMap<String, FnDef>,
    /// ECV declarations, keyed by name.
    pub ecvs: BTreeMap<String, EcvDecl>,
    /// Abstract energy units this interface may emit.
    pub units: BTreeSet<String>,
    /// Extern functions this interface calls but does not define.
    pub externs: BTreeMap<String, ExternDecl>,
    /// Optional input schemas per function, for analyses.
    pub input_specs: BTreeMap<String, InputSpec>,
    /// Source positions recorded by the parser (metadata: always compares
    /// equal and is not serialized; empty for programmatically built
    /// interfaces).
    pub spans: crate::span::SpanTable,
    /// The verified program last compiled from this interface and the
    /// memoized fingerprint walk over `fns` (metadata, like `spans`; see
    /// [`Interface::program`] and [`Interface::fns_state`]).
    pub(crate) carried: Carried,
}

/// The serialized form holds the seven identity fields, in declaration
/// order, and none of the metadata.
impl Serialize for Interface {
    fn to_value(&self) -> serde::Value {
        // Destructured so that a new field fails to compile until it is
        // serialized here or, like `spans` and `carried`, deliberately
        // left out.
        let Interface {
            name,
            doc,
            fns,
            ecvs,
            units,
            externs,
            input_specs,
            spans: _,
            carried: _,
        } = self;
        serde::Value::Object(vec![
            ("name".into(), name.to_value()),
            ("doc".into(), doc.to_value()),
            ("fns".into(), fns.to_value()),
            ("ecvs".into(), ecvs.to_value()),
            ("units".into(), units.to_value()),
            ("externs".into(), externs.to_value()),
            ("input_specs".into(), input_specs.to_value()),
        ])
    }
}

/// What an [`Interface`] carries between uses: the verified program with
/// the content fingerprint it was compiled at, and the fingerprint walk's
/// state before and after `fns`.
///
/// Metadata, not identity, like [`SpanTable`](crate::span::SpanTable): it
/// always compares equal, is not serialized, prints nothing under `Debug`,
/// and the fingerprint skips it, so whether a driver has run on
/// an interface never shows. `Clone` copies both; a clone whose `fns` is
/// then edited forgets its copy of the walk, and recompiles on its next
/// use because its fingerprint no longer matches. The lock is
/// `parking_lot`'s, which does not poison.
#[derive(Default)]
pub(crate) struct Carried(Mutex<CarriedState>);

#[derive(Clone, Default)]
struct CarriedState {
    program: Option<(u64, Arc<vm::Program>)>,
    fns_walk: Option<(u64, u64)>,
}

#[cfg(test)]
impl Carried {
    /// The stored program, if any, whatever fingerprint it was compiled at.
    pub(crate) fn stored(&self) -> Option<Arc<vm::Program>> {
        self.0
            .lock()
            .program
            .as_ref()
            .map(|(_, program)| Arc::clone(program))
    }
}

impl Clone for Carried {
    fn clone(&self) -> Self {
        Carried(Mutex::new(self.0.lock().clone()))
    }
}

impl PartialEq for Carried {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl fmt::Debug for Carried {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("..")
    }
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
            carried: Carried::default(),
        }
    }

    /// This interface's verified program, compiled once per content.
    ///
    /// Takes the [fingerprint](fingerprint_interface), which reuses the
    /// memoized walk over `fns` until they are next edited, and returns
    /// the stored program when it was compiled at the same fingerprint.
    /// Otherwise runs [`vm::compile`] (lowering plus full verification)
    /// outside the lock and stores the result, replacing any program
    /// compiled before an in-place edit. Errors are returned, never
    /// stored.
    pub(crate) fn program(&self) -> Result<Arc<vm::Program>> {
        let fingerprint = fingerprint_interface(self);
        if let Some((at, program)) = &self.carried.0.lock().program {
            if *at == fingerprint {
                return Ok(Arc::clone(program));
            }
        }
        let program = Arc::new(vm::compile(self)?);
        self.carried.0.lock().program = Some((fingerprint, Arc::clone(&program)));
        Ok(program)
    }

    /// The fingerprint walk's state after `fns`, given its state `before`
    /// them (the state after `name` and `doc`).
    ///
    /// `walk(before, fns)` runs only when the memo holds no state reached
    /// from `before` since `fns` was last edited; its result is stored. The
    /// state after `fns` is a function of the state before and of `fns`
    /// alone, so reusing it is exact: every fingerprint is the value a
    /// full walk gives.
    pub(crate) fn fns_state(
        &self,
        before: u64,
        walk: impl FnOnce(u64, &BTreeMap<String, FnDef>) -> u64,
    ) -> u64 {
        // Destructured so that a new field fails to compile until
        // `cache::hash_interface` hashes it (or, like the `spans` and
        // `carried` metadata, deliberately leaves it out).
        let Interface {
            name: _,
            doc: _,
            fns,
            ecvs: _,
            units: _,
            externs: _,
            input_specs: _,
            spans: _,
            carried,
        } = self;
        if let Some((at, after)) = carried.0.lock().fns_walk {
            if at == before {
                return after;
            }
        }
        let after = walk(before, fns);
        carried.0.lock().fns_walk = Some((before, after));
        after
    }

    /// The function definitions, keyed by name.
    pub fn fns(&self) -> &BTreeMap<String, FnDef> {
        &self.fns
    }

    /// The function definitions, for editing in place. Forgets the
    /// memoized fingerprint walk over them first, so the next fingerprint
    /// walks what the caller leaves.
    pub fn fns_mut(&mut self) -> &mut BTreeMap<String, FnDef> {
        self.carried.0.get_mut().fns_walk = None;
        &mut self.fns
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
        self.fns_mut().insert(f.name.clone(), f);
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
    fn serializes_exactly_the_identity_fields() {
        let value = Interface::new("t").to_value();
        let keys: Vec<&str> = value
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "name",
                "doc",
                "fns",
                "ecvs",
                "units",
                "externs",
                "input_specs"
            ]
        );
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

    const MEMO_SRC: &str = r#"
        interface memo "memo" {
            fn cost(n) { return 2 mJ * n; }
            fn twice(n) { return cost(n) + cost(n); }
        }
    "#;

    /// An interface whose fingerprint memo is warm.
    fn warm() -> Interface {
        let i = crate::parser::parse(MEMO_SRC).unwrap();
        fingerprint_interface(&i);
        assert!(i.carried.0.lock().fns_walk.is_some());
        i
    }

    /// The fingerprint of a fresh re-parse of the printed text, whose
    /// memo is cold: what a full walk gives.
    fn cold(i: &Interface) -> u64 {
        let fresh = crate::parser::parse(&crate::pretty::print_interface(i)).unwrap();
        assert!(fresh.carried.0.lock().fns_walk.is_none());
        fingerprint_interface(&fresh)
    }

    #[test]
    fn fns_mut_forgets_the_fingerprint_memo() {
        let mut i = warm();
        let before = fingerprint_interface(&i);
        i.fns_mut().get_mut("cost").unwrap().body = ret(Expr::Joules(3.0));
        assert_ne!(fingerprint_interface(&i), before);
        assert_eq!(fingerprint_interface(&i), cold(&i));
        i.add_fn(FnDef::new("idle", vec![], ret(Expr::Joules(1.0))))
            .unwrap();
        assert_eq!(fingerprint_interface(&i), cold(&i));
    }

    #[test]
    fn name_and_doc_edits_rewalk_fns() {
        let mut i = warm();
        let before = fingerprint_interface(&i);
        i.name.push('x');
        assert_ne!(fingerprint_interface(&i), before);
        assert_eq!(fingerprint_interface(&i), cold(&i));
        i.doc.push_str(" edited");
        assert_eq!(fingerprint_interface(&i), cold(&i));
    }

    #[test]
    fn an_edited_clone_leaves_the_original_memo_intact() {
        let original = warm();
        let before = fingerprint_interface(&original);
        let mut copy = original.clone();
        copy.fns_mut().remove("twice");
        assert_eq!(fingerprint_interface(&copy), cold(&copy));
        assert_ne!(fingerprint_interface(&copy), before);
        assert_eq!(fingerprint_interface(&original), before);
        assert_eq!(before, cold(&original));
    }

    #[test]
    fn concurrent_fingerprints_agree_with_a_full_walk() {
        let mut i = warm();
        // After this edit the memo holds a walk from another `before`
        // state, so the threads race to re-walk and store.
        i.name.push('x');
        let expected = cold(&i);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..8 {
                        assert_eq!(fingerprint_interface(&i), expected);
                    }
                });
            }
        });
        assert_eq!(fingerprint_interface(&i), expected);
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
