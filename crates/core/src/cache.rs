//! Evaluation cache: memoized linking and energy queries.
//!
//! Resource managers re-ask the same questions constantly — the EAS planner
//! re-links the same stack for every task, the cluster scheduler evaluates
//! the same `(app shape, node type)` pair for every pod, Table 1 sweeps a
//! grid over one fitted interface. [`EvalCache`] memoizes both layers:
//!
//! - **Linking** ([`EvalCache::link_cached`], [`EvalCache::link_closure_cached`]):
//!   composed interfaces are cached behind [`Arc`] so repeated composition of
//!   the same upper/provider set returns the already-linked interface.
//! - **Energy queries** ([`EvalCache::evaluate_energy_cached`],
//!   [`EvalCache::expected_energy_cached`]): concrete Joule answers are
//!   cached per `(interface, function, arguments, environment, config)` key.
//!
//! # Keying and invalidation
//!
//! Keys are 64-bit hashes of the *content* of every input, built with one
//! fixed word mixer: the interface's [fingerprint](fingerprint_interface)
//! (a direct walk of its functions, ECV declarations, units, externs and
//! input specs, with no intermediate tree), the argument values (floats
//! hashed by bit pattern), the ECV environment (declarations and pins), and
//! the evaluation config (fuel, depth, calibration entries). Mutating any of
//! these — editing a function, pinning an ECV, changing a calibration —
//! changes the key, so stale entries are never returned; they simply stop
//! being reachable. There is no explicit invalidation API beyond
//! [`EvalCache::clear`]. Keys are recomputed on every lookup and never
//! persisted; the walk allocates nothing, so a hit costs a few microseconds
//! for the Fig. 1 interface.
//!
//! Only successful results are cached: errors are returned but recomputed on
//! the next call, so a transient failure cannot poison the cache.
//!
//! All methods take `&self`; the cache is internally synchronized
//! ([`parking_lot::Mutex`], which does not poison — a worker thread that
//! panics leaves the cache usable for its peers) and can be shared across
//! the worker threads of [`monte_carlo_par`](crate::interp::monte_carlo_par)
//! callers.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use ei_telemetry as telemetry;
use telemetry::SpanKind;

use crate::ast::{Expr, ExternDecl, FnDef, Stmt};
use crate::compose::{link, link_closure, Registry};
use crate::ecv::{DistSpec, EcvDecl, EcvEnv, EcvValue};
use crate::error::Result;
use crate::interface::{FeatureRange, InputSpec, Interface};
use crate::interp::{evaluate_energy, expected_energy, EvalConfig};
use crate::units::Energy;
use crate::value::Value;
use crate::vm;

/// The one hasher behind interface fingerprints and cache keys: a fixed
/// word mixer over a 64-bit state.
///
/// Each input word `w` steps the state `s` as
///
/// ```text
/// x  = (s ^ w) * 0x9e37_79b9_7f4a_7c15
/// s' = x ^ (x >> 32)
/// ```
///
/// Xor with `w`, multiplication by an odd constant and a right xor-shift are
/// each bijections of `u64`, so for every `w` the step is a bijection of the
/// state, and for a fixed state it is injective in `w`: two inputs that
/// differ in exactly one word always finish differently. [`Mixer::finish`]
/// applies the SplitMix64 finalizer (also a bijection) so every input bit
/// reaches every output bit. The algorithm is fixed here rather than taken
/// from `std` because certificates carry its output; a test pins it.
struct Mixer(u64);

impl Mixer {
    fn new() -> Mixer {
        Mixer(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        let x = (self.0 ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = x ^ (x >> 32);
    }

    fn len(&mut self, n: usize) {
        self.word(n as u64);
    }

    fn f64(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    /// Length-prefixed, then the bytes packed little-endian into words
    /// (the last one zero-padded).
    fn str(&mut self, s: &str) {
        self.len(s.len());
        for chunk in s.as_bytes().chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }

    fn finish(self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Content fingerprint of an interface, computed by walking it directly.
///
/// The walk covers every field the serialized form carries: the name and
/// doc, every function (name, parameters, body, doc), ECV declaration,
/// unit, extern (name, arity, doc) and input spec, with map keys included.
/// Floats hash by bit pattern, so `0.0` and `-0.0` differ, as do NaN
/// payloads; strings and collections are length-prefixed and every enum
/// variant is tagged. Source [`spans`](Interface::spans) are excluded, so
/// one text parsed with different whitespace, or built programmatically,
/// fingerprints the same. Two interfaces that serialize identically
/// fingerprint equal. An edit confined to one 64-bit word of the walk (a
/// literal, a bound, an arity, a short name) always changes the result;
/// any other edit (added function, new ECV) changes it barring a 64-bit
/// collision.
///
/// The mixer is fixed in this module, not taken from `std`, so the value
/// is stable across builds and Rust releases; certificates carry it.
pub fn fingerprint_interface(iface: &Interface) -> u64 {
    let mut h = Mixer::new();
    hash_interface(&mut h, iface);
    h.finish()
}

fn hash_interface(h: &mut Mixer, iface: &Interface) {
    // Destructured so that a new field fails to compile until it is hashed
    // (or, like `spans`, deliberately left out).
    let Interface {
        name,
        doc,
        fns,
        ecvs,
        units,
        externs,
        input_specs,
        spans: _,
    } = iface;
    h.str(name);
    h.str(doc);
    h.len(fns.len());
    for (key, f) in fns {
        h.str(key);
        hash_fn(h, f);
    }
    h.len(ecvs.len());
    for (key, decl) in ecvs {
        h.str(key);
        hash_decl(h, decl);
    }
    h.len(units.len());
    for unit in units {
        h.str(unit);
    }
    h.len(externs.len());
    for (key, ExternDecl { name, arity, doc }) in externs {
        h.str(key);
        h.str(name);
        h.len(*arity);
        h.str(doc);
    }
    h.len(input_specs.len());
    for (key, InputSpec { ranges }) in input_specs {
        h.str(key);
        h.len(ranges.len());
        for (path, FeatureRange { lo, hi }) in ranges {
            h.str(path);
            h.f64(*lo);
            h.f64(*hi);
        }
    }
}

fn hash_fn(h: &mut Mixer, f: &FnDef) {
    let FnDef {
        name,
        params,
        body,
        doc,
    } = f;
    h.str(name);
    h.len(params.len());
    for p in params {
        h.str(p);
    }
    hash_block(h, body);
    h.str(doc);
}

fn hash_block(h: &mut Mixer, block: &[Stmt]) {
    h.len(block.len());
    for s in block {
        hash_stmt(h, s);
    }
}

fn hash_stmt(h: &mut Mixer, s: &Stmt) {
    match s {
        Stmt::Let(name, e) => {
            h.word(0);
            h.str(name);
            hash_expr(h, e);
        }
        Stmt::Assign(name, e) => {
            h.word(1);
            h.str(name);
            hash_expr(h, e);
        }
        Stmt::If(cond, then, els) => {
            h.word(2);
            hash_expr(h, cond);
            hash_block(h, then);
            hash_block(h, els);
        }
        Stmt::For {
            var,
            from,
            to,
            body,
        } => {
            h.word(3);
            h.str(var);
            hash_expr(h, from);
            hash_expr(h, to);
            hash_block(h, body);
        }
        Stmt::While { cond, bound, body } => {
            h.word(4);
            hash_expr(h, cond);
            h.word(*bound);
            hash_block(h, body);
        }
        Stmt::Return(e) => {
            h.word(5);
            hash_expr(h, e);
        }
    }
}

/// Operators and builtins are fieldless, so each shares one word with its
/// node's tag: `tag | discriminant << 8`.
fn hash_expr(h: &mut Mixer, e: &Expr) {
    match e {
        Expr::Num(n) => {
            h.word(0);
            h.f64(*n);
        }
        Expr::Bool(b) => h.word(1 | (*b as u64) << 8),
        Expr::Joules(j) => {
            h.word(2);
            h.f64(*j);
        }
        Expr::Unit(unit, amount) => {
            h.word(3);
            h.str(unit);
            h.f64(*amount);
        }
        Expr::Var(name) => {
            h.word(4);
            h.str(name);
        }
        Expr::Field(base, field) => {
            h.word(5);
            hash_expr(h, base);
            h.str(field);
        }
        Expr::Ecv(name) => {
            h.word(6);
            h.str(name);
        }
        Expr::Unary(op, x) => {
            h.word(7 | (*op as u64) << 8);
            hash_expr(h, x);
        }
        Expr::Binary(op, a, b) => {
            h.word(8 | (*op as u64) << 8);
            hash_expr(h, a);
            hash_expr(h, b);
        }
        Expr::Call(name, args) => {
            h.word(9);
            h.str(name);
            hash_args(h, args);
        }
        Expr::BuiltinCall(b, args) => {
            h.word(10 | (*b as u64) << 8);
            hash_args(h, args);
        }
        Expr::IfExpr(c, t, e) => {
            h.word(11);
            hash_expr(h, c);
            hash_expr(h, t);
            hash_expr(h, e);
        }
    }
}

fn hash_args(h: &mut Mixer, args: &[Expr]) {
    h.len(args.len());
    for a in args {
        hash_expr(h, a);
    }
}

fn hash_decl(h: &mut Mixer, decl: &EcvDecl) {
    let EcvDecl { dist, doc } = decl;
    match dist {
        DistSpec::Bernoulli { p } => {
            h.word(0);
            h.f64(*p);
        }
        DistSpec::Discrete { outcomes } => {
            h.word(1);
            h.len(outcomes.len());
            for (v, p) in outcomes {
                h.f64(*v);
                h.f64(*p);
            }
        }
        DistSpec::Uniform { lo, hi } => {
            h.word(2);
            h.f64(*lo);
            h.f64(*hi);
        }
        DistSpec::Normal { mean, std_dev } => {
            h.word(3);
            h.f64(*mean);
            h.f64(*std_dev);
        }
        DistSpec::Point { value } => {
            h.word(4);
            h.f64(*value);
        }
    }
    h.str(doc);
}

/// Hashes a runtime [`Value`] structurally.
fn hash_value(h: &mut Mixer, v: &Value) {
    match v {
        Value::Num(n) => {
            h.word(10);
            h.f64(*n);
        }
        Value::Bool(b) => {
            h.word(11);
            h.word(*b as u64);
        }
        Value::Energy(ev) => {
            h.word(12);
            h.f64(ev.joules);
            h.len(ev.abstracts.len());
            for (unit, amount) in &ev.abstracts {
                h.str(unit);
                h.f64(*amount);
            }
        }
        Value::Record(fields) => {
            h.word(13);
            h.len(fields.len());
            for (k, item) in fields {
                h.str(k);
                hash_value(h, item);
            }
        }
    }
}

/// Hashes an ECV environment: every declaration plus its pin, if any.
/// Pins of undeclared names are never read, so they are not hashed.
fn hash_env(h: &mut Mixer, env: &EcvEnv) {
    h.len(env.decls.len());
    for (name, decl) in &env.decls {
        h.str(name);
        hash_decl(h, decl);
        match env.pinned.get(name) {
            None => h.word(0),
            Some(EcvValue::Bool(b)) => h.word(1 | (*b as u64) << 8),
            Some(EcvValue::Num(n)) => {
                h.word(2);
                h.f64(*n);
            }
        }
    }
}

/// Hashes the evaluation config: fuel, depth, and all calibration entries.
///
/// Deliberately does **not** hash [`EvalConfig::mode`]: the engines are
/// result-identical by contract (enforced by the VM differential suites),
/// so a result computed by one engine is a valid cache answer for the
/// other.
fn hash_config(h: &mut Mixer, config: &EvalConfig) {
    h.word(config.fuel);
    h.len(config.max_depth);
    h.len(config.calibration.len());
    for (unit, e) in config.calibration.iter() {
        h.str(unit);
        h.f64(e.as_joules());
    }
}

/// Hit/miss counters, for benches and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Queries answered from the cache.
    pub hits: u64,
    /// Queries that had to compute.
    pub misses: u64,
}

/// Memoizes interface linking and concrete energy queries.
///
/// See the [module docs](self) for the keying scheme. Cheap to create;
/// typically one cache lives as long as the interfaces it memoizes are in
/// use (e.g. per planner run, or per process).
#[derive(Debug, Default)]
pub struct EvalCache {
    links: Mutex<HashMap<u64, Arc<Interface>>>,
    energies: Mutex<HashMap<u64, Energy>>,
    programs: Mutex<HashMap<u64, Arc<vm::Program>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl EvalCache {
    /// An empty cache.
    pub fn new() -> Self {
        EvalCache::default()
    }

    fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        telemetry::counter_add("core.cache.hits", 1);
    }

    fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        telemetry::counter_add("core.cache.misses", 1);
    }

    /// Hit/miss counters so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Drops every cached entry (counters are kept).
    pub fn clear(&self) {
        self.links.lock().clear();
        self.energies.lock().clear();
        self.programs.lock().clear();
    }

    /// Memoized [`vm::compile`]: the compiled bytecode for an interface,
    /// keyed by its content fingerprint.
    ///
    /// The sampling drivers compile internally per call; this entry point
    /// is for callers that hold one program across many queries — serving
    /// recompute paths, candidate ranking, benches. The returned
    /// [`vm::Program::fingerprint`] identifies the compiled artifact
    /// itself, so recompiles of an unchanged interface can be
    /// cross-checked for determinism.
    pub fn program_cached(&self, iface: &Interface) -> Result<Arc<vm::Program>> {
        let mut h = Mixer::new();
        h.word(40);
        h.word(fingerprint_interface(iface));
        let key = h.finish();

        if let Some(found) = self.programs.lock().get(&key) {
            self.hit();
            return Ok(Arc::clone(found));
        }
        self.miss();
        let program = Arc::new(vm::compile(iface)?);
        self.programs.lock().insert(key, Arc::clone(&program));
        Ok(program)
    }

    /// Memoized [`link`]: returns the cached composition when the same
    /// `upper` has been linked against the same `providers` before.
    pub fn link_cached(
        &self,
        upper: &Interface,
        providers: &[&Interface],
    ) -> Result<Arc<Interface>> {
        let mut h = Mixer::new();
        h.word(20);
        h.word(fingerprint_interface(upper));
        h.len(providers.len());
        for p in providers {
            h.word(fingerprint_interface(p));
        }
        let key = h.finish();

        if let Some(found) = self.links.lock().get(&key) {
            self.hit();
            return Ok(Arc::clone(found));
        }
        self.miss();
        let linked = Arc::new(link(upper, providers)?);
        self.links.lock().insert(key, Arc::clone(&linked));
        Ok(linked)
    }

    /// Memoized [`link_closure`]: like [`EvalCache::link_cached`] but
    /// resolving transitively against a [`Registry`].
    pub fn link_closure_cached(
        &self,
        upper: &Interface,
        registry: &Registry,
    ) -> Result<Arc<Interface>> {
        let mut h = Mixer::new();
        h.word(21);
        h.word(fingerprint_interface(upper));
        h.len(registry.len());
        for p in registry.iter() {
            h.word(fingerprint_interface(p));
        }
        let key = h.finish();

        if let Some(found) = self.links.lock().get(&key) {
            self.hit();
            return Ok(Arc::clone(found));
        }
        self.miss();
        let linked = Arc::new(link_closure(upper, registry)?);
        self.links.lock().insert(key, Arc::clone(&linked));
        Ok(linked)
    }

    /// Memoized [`evaluate_energy`]: one sampled evaluation, keyed on every
    /// input including the `seed`.
    pub fn evaluate_energy_cached(
        &self,
        iface: &Interface,
        func: &str,
        args: &[Value],
        env: &EcvEnv,
        seed: u64,
        config: &EvalConfig,
    ) -> Result<Energy> {
        let mut h = Mixer::new();
        h.word(30);
        h.word(fingerprint_interface(iface));
        h.str(func);
        h.len(args.len());
        for a in args {
            hash_value(&mut h, a);
        }
        hash_env(&mut h, env);
        h.word(seed);
        hash_config(&mut h, config);
        let key = h.finish();

        let mut sp = telemetry::span(SpanKind::CacheLookup, func);
        if let Some(found) = self.energies.lock().get(&key) {
            self.hit();
            sp.record_energy(found.as_joules());
            return Ok(*found);
        }
        self.miss();
        let e = evaluate_energy(iface, func, args, env, seed, config)?;
        sp.record_energy(e.as_joules());
        self.energies.lock().insert(key, e);
        Ok(e)
    }

    /// Memoized [`expected_energy`]: the mean over the interface's own ECV
    /// space (which the interface fingerprint already covers).
    pub fn expected_energy_cached(
        &self,
        iface: &Interface,
        func: &str,
        args: &[Value],
        config: &EvalConfig,
    ) -> Result<Energy> {
        let mut h = Mixer::new();
        h.word(31);
        h.word(fingerprint_interface(iface));
        h.str(func);
        h.len(args.len());
        for a in args {
            hash_value(&mut h, a);
        }
        hash_config(&mut h, config);
        let key = h.finish();

        let mut sp = telemetry::span(SpanKind::CacheLookup, func);
        if let Some(found) = self.energies.lock().get(&key) {
            self.hit();
            sp.record_energy(found.as_joules());
            return Ok(*found);
        }
        self.miss();
        let e = expected_energy(iface, func, args, config)?;
        sp.record_energy(e.as_joules());
        self.energies.lock().insert(key, e);
        Ok(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn toy() -> Interface {
        parse(
            r#"
            interface toy "toy" {
                fn cost(n) { return 2 mJ * n; }
            }
            "#,
        )
        .unwrap()
    }

    #[test]
    fn fingerprint_is_stable_and_mutation_sensitive() {
        let a = toy();
        let b = toy();
        assert_eq!(fingerprint_interface(&a), fingerprint_interface(&b));

        let c = parse(
            r#"
            interface toy "toy" {
                fn cost(n) { return 3 mJ * n; }
            }
            "#,
        )
        .unwrap();
        assert_ne!(fingerprint_interface(&a), fingerprint_interface(&c));
    }

    /// Certificates carry interface fingerprints, so a change to the walk
    /// or to the mixer must show up in review: it invalidates every
    /// certificate issued before it.
    #[test]
    fn toy_fingerprint_is_pinned() {
        assert_eq!(fingerprint_interface(&toy()), 0x71ab_671a_73a8_f3c8);
    }

    #[test]
    fn energy_cache_hits_and_matches_uncached() {
        let iface = toy();
        let cache = EvalCache::new();
        let cfg = EvalConfig::default();
        let args = [Value::Num(8.0)];

        let cold = cache
            .expected_energy_cached(&iface, "cost", &args, &cfg)
            .unwrap();
        let warm = cache
            .expected_energy_cached(&iface, "cost", &args, &cfg)
            .unwrap();
        let direct = expected_energy(&iface, "cost", &args, &cfg).unwrap();
        assert_eq!(cold, warm);
        assert_eq!(cold, direct);
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn panicking_worker_does_not_poison_the_cache() {
        // Regression: with std::sync::Mutex + .lock().unwrap(), a worker
        // thread dying while it held (or after having taken) the lock
        // poisoned the cache and every later query panicked. parking_lot
        // mutexes do not poison.
        let cache = Arc::new(EvalCache::new());
        let cfg = EvalConfig::default();

        let c = Arc::clone(&cache);
        let worker = std::thread::spawn(move || {
            let iface = toy();
            c.expected_energy_cached(&iface, "cost", &[Value::Num(2.0)], &EvalConfig::default())
                .unwrap();
            panic!("worker dies mid-campaign");
        });
        assert!(worker.join().is_err(), "worker must have panicked");

        // Survivors keep hitting the shared cache.
        let iface = toy();
        let warm = cache
            .expected_energy_cached(&iface, "cost", &[Value::Num(2.0)], &cfg)
            .unwrap();
        let direct = expected_energy(&iface, "cost", &[Value::Num(2.0)], &cfg).unwrap();
        assert_eq!(warm, direct);
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn program_cache_hits_and_is_mutation_sensitive() {
        let cache = EvalCache::new();
        let cold = cache.program_cached(&toy()).unwrap();
        let warm = cache.program_cached(&toy()).unwrap();
        assert_eq!(cold.fingerprint(), warm.fingerprint());
        assert!(Arc::ptr_eq(&cold, &warm));
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });

        // A recompile outside the cache reproduces the same artifact.
        assert_eq!(
            vm::compile(&toy()).unwrap().fingerprint(),
            cold.fingerprint()
        );

        let edited = parse(
            r#"
            interface toy "toy" {
                fn cost(n) { return 3 mJ * n; }
            }
            "#,
        )
        .unwrap();
        let other = cache.program_cached(&edited).unwrap();
        assert_ne!(other.fingerprint(), cold.fingerprint());
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn cached_energy_serves_both_engines() {
        use crate::interp::ExecMode;
        let iface = toy();
        let cache = EvalCache::new();
        let walk = EvalConfig {
            mode: ExecMode::TreeWalk,
            ..EvalConfig::default()
        };
        let compiled = EvalConfig {
            mode: ExecMode::Compiled,
            ..EvalConfig::default()
        };
        let env = EcvEnv::from_decls(&iface.ecvs);
        let args = [Value::Num(8.0)];
        let a = cache
            .evaluate_energy_cached(&iface, "cost", &args, &env, 9, &walk)
            .unwrap();
        // Same key despite the different mode: engines are
        // result-identical, so the tree-walk answer is served.
        let b = cache
            .evaluate_energy_cached(&iface, "cost", &args, &env, 9, &compiled)
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn errors_are_not_cached() {
        let iface = toy();
        let cache = EvalCache::new();
        let cfg = EvalConfig::default();
        assert!(cache
            .expected_energy_cached(&iface, "missing", &[], &cfg)
            .is_err());
        assert!(cache
            .expected_energy_cached(&iface, "missing", &[], &cfg)
            .is_err());
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().misses, 2);
    }
}
