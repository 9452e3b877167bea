//! Composition and linking of energy interfaces.
//!
//! "A system's energy interface therefore becomes a nested composition of
//! lower-level interfaces, with the base case being hardware-level energy
//! interfaces" (§2). Linking resolves an interface's `extern` declarations
//! against provider interfaces, merging their functions, ECVs, units, and
//! transitive externs into a single closed (or less-open) interface.
//!
//! Name hygiene: providers' *private* helper functions are namespaced as
//! `provider__helper` during the merge so independent providers never
//! collide; the extern entry points keep their public names.

use std::collections::BTreeMap;

use crate::ast::{Expr, Stmt};
use crate::error::{Error, NameKind, Result};
use crate::interface::Interface;

/// A registry of provider interfaces, keyed by the interface name.
///
/// Resource managers typically hold one registry per layer and link the
/// layer's exports against it.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    providers: BTreeMap<String, Interface>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registers a provider interface; errors on duplicate names.
    pub fn register(&mut self, iface: Interface) -> Result<()> {
        if self.providers.contains_key(&iface.name) {
            return Err(Error::Duplicate {
                kind: NameKind::Interface,
                name: iface.name.clone(),
            });
        }
        self.providers.insert(iface.name.clone(), iface);
        Ok(())
    }

    /// Looks up a provider by name.
    pub fn get(&self, name: &str) -> Result<&Interface> {
        self.providers.get(name).ok_or_else(|| Error::Unresolved {
            kind: NameKind::Interface,
            name: name.to_string(),
        })
    }

    /// Iterates over registered interfaces.
    pub fn iter(&self) -> impl Iterator<Item = &Interface> {
        self.providers.values()
    }

    /// Number of registered interfaces.
    pub fn len(&self) -> usize {
        self.providers.len()
    }

    /// True when the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.providers.is_empty()
    }
}

/// Links `upper` against `providers`, resolving extern calls.
///
/// For every extern `e` of `upper`, a provider defining a function named `e`
/// supplies the implementation. The provider's other functions are pulled in
/// under namespaced names (`<provider>__<fn>`), its ECVs and units are
/// merged (ECVs keep their names — they describe shared state — and
/// conflicting redeclarations must be identical), and its own unresolved
/// externs become externs of the result.
///
/// Providers are consulted in order (first definition wins, like a
/// traditional linker). Errors if an extern's arity disagrees with the
/// provider function, if merged function names collide, or if ECV
/// redeclarations conflict.
pub fn link(upper: &Interface, providers: &[&Interface]) -> Result<Interface> {
    let mut sp = ei_telemetry::span(ei_telemetry::SpanKind::Link, &upper.name);
    sp.add_items(providers.len() as u64);
    ei_telemetry::counter_add("core.compose.links", 1);
    let mut out = upper.clone();

    for provider in providers {
        // Which externs of `out` does this provider satisfy?
        let satisfied: Vec<String> = out
            .externs
            .keys()
            .filter(|e| provider.fns().contains_key(*e))
            .cloned()
            .collect();
        if satisfied.is_empty() {
            continue;
        }

        // Rename map for the provider's non-exported functions.
        let mut rename: BTreeMap<String, String> = BTreeMap::new();
        for fname in provider.fns().keys() {
            if satisfied.contains(fname) {
                rename.insert(fname.clone(), fname.clone());
            } else {
                rename.insert(fname.clone(), format!("{}__{}", provider.name, fname));
            }
        }

        for ext in satisfied {
            let decl = out.externs.remove(&ext).expect("extern present");
            let f = provider.fns().get(&ext).expect("provider fn present");
            if f.params.len() != decl.arity {
                return Err(Error::Link {
                    msg: format!(
                        "extern `{ext}` expects arity {}, provider `{}` defines arity {}",
                        decl.arity,
                        provider.name,
                        f.params.len()
                    ),
                });
            }
        }

        // Merge the provider's functions under the rename map.
        for (fname, f) in provider.fns() {
            let new_name = rename[fname].clone();
            if out.fns().contains_key(&new_name) {
                return Err(Error::Link {
                    msg: format!(
                        "function `{new_name}` from provider `{}` collides with an \
                         existing definition",
                        provider.name
                    ),
                });
            }
            let mut nf = f.clone();
            nf.name = new_name.clone();
            rename_calls_block(&mut nf.body, &rename);
            out.fns_mut().insert(new_name, nf);
        }

        // Merge ECVs: identical redeclaration is allowed, conflicts are not.
        for (name, decl) in &provider.ecvs {
            match out.ecvs.get(name) {
                Some(existing) if existing == decl => {}
                Some(_) => {
                    return Err(Error::Link {
                        msg: format!(
                            "ECV `{name}` redeclared with a different distribution by \
                             provider `{}`",
                            provider.name
                        ),
                    })
                }
                None => {
                    out.ecvs.insert(name.clone(), decl.clone());
                }
            }
        }

        // Merge units and the provider's own externs (transitive needs).
        for u in &provider.units {
            out.units.insert(u.clone());
        }
        for (ename, edecl) in &provider.externs {
            if out.fns().contains_key(ename) {
                // Already satisfied by something previously merged.
                continue;
            }
            match out.externs.get(ename) {
                Some(existing) if existing.arity == edecl.arity => {}
                Some(_) => {
                    return Err(Error::Link {
                        msg: format!(
                            "extern `{ename}` declared with conflicting arities during \
                             linking"
                        ),
                    })
                }
                None => {
                    out.externs.insert(ename.clone(), edecl.clone());
                }
            }
        }
    }

    out.validate()?;
    Ok(out)
}

/// Links `upper` against every interface in `registry` that provides one of
/// its externs, repeating until no more externs can be resolved.
pub fn link_closure(upper: &Interface, registry: &Registry) -> Result<Interface> {
    ei_telemetry::counter_add("core.compose.link_closures", 1);
    let mut current = upper.clone();
    loop {
        if current.externs.is_empty() {
            return Ok(current);
        }
        let before: Vec<String> = current.externs.keys().cloned().collect();
        let providers: Vec<&Interface> = registry
            .iter()
            .filter(|p| current.externs.keys().any(|e| p.fns().contains_key(e)))
            .collect();
        if providers.is_empty() {
            return Ok(current);
        }
        current = link(&current, &providers)?;
        let after: Vec<String> = current.externs.keys().cloned().collect();
        if after == before {
            return Ok(current);
        }
    }
}

fn rename_calls_block(stmts: &mut [Stmt], rename: &BTreeMap<String, String>) {
    for s in stmts {
        match s {
            Stmt::Let(_, e) | Stmt::Assign(_, e) | Stmt::Return(e) => rename_calls_expr(e, rename),
            Stmt::If(c, t, els) => {
                rename_calls_expr(c, rename);
                rename_calls_block(t, rename);
                rename_calls_block(els, rename);
            }
            Stmt::For { from, to, body, .. } => {
                rename_calls_expr(from, rename);
                rename_calls_expr(to, rename);
                rename_calls_block(body, rename);
            }
            Stmt::While { cond, body, .. } => {
                rename_calls_expr(cond, rename);
                rename_calls_block(body, rename);
            }
        }
    }
}

fn rename_calls_expr(e: &mut Expr, rename: &BTreeMap<String, String>) {
    match e {
        Expr::Call(name, args) => {
            if let Some(new_name) = rename.get(name) {
                *name = new_name.clone();
            }
            for a in args {
                rename_calls_expr(a, rename);
            }
        }
        Expr::BuiltinCall(_, args) => {
            for a in args {
                rename_calls_expr(a, rename);
            }
        }
        Expr::Field(b, _) | Expr::Unary(_, b) => rename_calls_expr(b, rename),
        Expr::Binary(_, a, b) => {
            rename_calls_expr(a, rename);
            rename_calls_expr(b, rename);
        }
        Expr::IfExpr(c, t, f) => {
            rename_calls_expr(c, rename);
            rename_calls_expr(t, rename);
            rename_calls_expr(f, rename);
        }
        Expr::Num(_)
        | Expr::Bool(_)
        | Expr::Joules(_)
        | Expr::Unit(_, _)
        | Expr::Var(_)
        | Expr::Ecv(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ecv::EcvEnv;
    use crate::interp::{evaluate_energy, EvalConfig};
    use crate::parser::parse;
    use crate::value::Value;

    fn upper_src() -> &'static str {
        r#"
        interface app {
            extern fn gpu_matmul(flops);
            extern fn gpu_copy(bytes);
            fn run(work) {
                return gpu_matmul(work.flops) + gpu_copy(work.bytes);
            }
        }
        "#
    }

    fn gpu_src() -> &'static str {
        r#"
        interface gpu4090 {
            fn gpu_matmul(flops) { return per_flop() * flops; }
            fn gpu_copy(bytes) { return 20 pJ * bytes; }
            fn per_flop() { return 0.5 pJ; }
        }
        "#
    }

    #[test]
    fn link_resolves_externs() {
        let upper = parse(upper_src()).unwrap();
        let gpu = parse(gpu_src()).unwrap();
        let linked = link(&upper, &[&gpu]).unwrap();
        assert!(linked.is_closed());
        // Private helper namespaced; public entry points keep names.
        assert!(linked.fns().contains_key("gpu_matmul"));
        assert!(linked.fns().contains_key("gpu4090__per_flop"));
        assert!(!linked.fns().contains_key("per_flop"));

        let work = Value::num_record([("flops", 1e6), ("bytes", 1e3)]);
        let e = evaluate_energy(
            &linked,
            "run",
            &[work],
            &EcvEnv::new(),
            0,
            &EvalConfig::default(),
        )
        .unwrap();
        let expect = 0.5e-12 * 1e6 + 20e-12 * 1e3;
        assert!((e.as_joules() - expect).abs() < 1e-18);
    }

    #[test]
    fn swapping_hardware_layer_changes_energy_only() {
        // §3: "nothing needs to change in the software stack but only some
        // of the energy interfaces in the bottom layer need to be replaced".
        let upper = parse(upper_src()).unwrap();
        let gpu_a = parse(gpu_src()).unwrap();
        let gpu_b = parse(
            r#"
            interface gpu3070 {
                fn gpu_matmul(flops) { return 0.9 pJ * flops; }
                fn gpu_copy(bytes) { return 35 pJ * bytes; }
            }
            "#,
        )
        .unwrap();
        let la = link(&upper, &[&gpu_a]).unwrap();
        let lb = link(&upper, &[&gpu_b]).unwrap();
        let work = Value::num_record([("flops", 1e6), ("bytes", 0.0)]);
        let cfg = EvalConfig::default();
        let env = EcvEnv::new();
        let ea = evaluate_energy(&la, "run", std::slice::from_ref(&work), &env, 0, &cfg).unwrap();
        let eb = evaluate_energy(&lb, "run", &[work], &env, 0, &cfg).unwrap();
        assert!(eb > ea);
        assert!((eb.as_joules() / ea.as_joules() - 1.8).abs() < 1e-9);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let upper =
            parse("interface u { extern fn op(a, b); fn f() { return op(1, 2); } }").unwrap();
        let bad = parse("interface p { fn op(a) { return 1 J * a; } }").unwrap();
        assert!(matches!(link(&upper, &[&bad]), Err(Error::Link { .. })));
    }

    #[test]
    fn transitive_externs_propagate() {
        let upper = parse("interface u { extern fn mid(x); fn f(x) { return mid(x); } }").unwrap();
        let mid =
            parse("interface m { extern fn low(x); fn mid(x) { return low(x) * 2; } }").unwrap();
        let linked = link(&upper, &[&mid]).unwrap();
        assert!(!linked.is_closed());
        assert!(linked.externs.contains_key("low"));

        let low = parse("interface l { fn low(x) { return 1 mJ * x; } }").unwrap();
        let closed = link(&linked, &[&low]).unwrap();
        assert!(closed.is_closed());
        let e = evaluate_energy(
            &closed,
            "f",
            &[Value::Num(3.0)],
            &EcvEnv::new(),
            0,
            &EvalConfig::default(),
        )
        .unwrap();
        assert!((e.as_joules() - 6e-3).abs() < 1e-12);
    }

    #[test]
    fn link_closure_resolves_chains() {
        let upper = parse("interface u { extern fn mid(x); fn f(x) { return mid(x); } }").unwrap();
        let mid =
            parse("interface m { extern fn low(x); fn mid(x) { return low(x) * 2; } }").unwrap();
        let low = parse("interface l { fn low(x) { return 1 mJ * x; } }").unwrap();
        let mut reg = Registry::new();
        reg.register(mid).unwrap();
        reg.register(low).unwrap();
        let closed = link_closure(&upper, &reg).unwrap();
        assert!(closed.is_closed());
    }

    #[test]
    fn ecv_merge_rules() {
        let upper = parse(
            r#"interface u {
                ecv hit: bernoulli(0.5) "shared";
                extern fn op(x);
                fn f(x) { return op(x); }
            }"#,
        )
        .unwrap();
        let same = parse(
            r#"interface p {
                ecv hit: bernoulli(0.5) "shared";
                fn op(x) { return if ecv(hit) { 1 mJ } else { 2 mJ } * x; }
            }"#,
        )
        .unwrap();
        assert!(link(&upper, &[&same]).is_ok());

        let conflicting = parse(
            r#"interface p {
                ecv hit: bernoulli(0.9) "different";
                fn op(x) { return if ecv(hit) { 1 mJ } else { 2 mJ } * x; }
            }"#,
        )
        .unwrap();
        assert!(matches!(
            link(&upper, &[&conflicting]),
            Err(Error::Link { .. })
        ));
    }

    #[test]
    fn provider_order_decides_extern_resolution() {
        // Like a traditional linker, providers are consulted in order; once
        // an extern is satisfied, later providers are not merged for it.
        let upper = parse("interface u { extern fn op(x); fn f(x) { return op(x); } }").unwrap();
        let p1 = parse("interface p1 { fn op(x) { return 1 mJ * x; } }").unwrap();
        let p2 = parse("interface p2 { fn op(x) { return 2 mJ * x; } }").unwrap();
        let linked = link(&upper, &[&p1, &p2]).unwrap();
        let e = evaluate_energy(
            &linked,
            "f",
            &[Value::Num(1.0)],
            &EcvEnv::new(),
            0,
            &EvalConfig::default(),
        )
        .unwrap();
        assert!((e.as_joules() - 1e-3).abs() < 1e-12);
        let linked_rev = link(&upper, &[&p2, &p1]).unwrap();
        let e2 = evaluate_energy(
            &linked_rev,
            "f",
            &[Value::Num(1.0)],
            &EcvEnv::new(),
            0,
            &EvalConfig::default(),
        )
        .unwrap();
        assert!((e2.as_joules() - 2e-3).abs() < 1e-12);
    }

    #[test]
    fn registry_basics() {
        let mut reg = Registry::new();
        assert!(reg.is_empty());
        reg.register(Interface::new("a")).unwrap();
        assert_eq!(reg.len(), 1);
        assert!(reg.get("a").is_ok());
        assert!(reg.get("b").is_err());
        assert!(reg.register(Interface::new("a")).is_err());
    }

    #[test]
    fn units_merge_through_link() {
        let upper = parse("interface u { extern fn op(x); fn f(x) { return op(x); } }").unwrap();
        let p = parse("interface p { unit relu; fn op(x) { return 1 relu * x; } }").unwrap();
        let linked = link(&upper, &[&p]).unwrap();
        assert!(linked.units.contains("relu"));
    }
}
