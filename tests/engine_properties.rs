//! Properties of the deterministic parallel Monte-Carlo engine and the
//! evaluation cache, over randomly generated ECV-bearing interfaces.
//!
//! The load-bearing claim (DESIGN.md §engine): `monte_carlo_par` produces a
//! sample vector *identical* to serial `monte_carlo` for any thread count,
//! because both draw each fixed-size chunk from its own RNG seeded by
//! `(seed, chunk_index)`. The assertions below are exact (`==` on
//! `EnergyDist`), not tolerance-based.

use proptest::prelude::*;

use ei_core::ast::{BinOp, Builtin, Expr, FnDef, Stmt, UnOp};
use ei_core::cache::{fingerprint_interface, EvalCache};
use ei_core::dist::EnergyDist;
use ei_core::ecv::{DistSpec, EcvDecl, EcvEnv};
use ei_core::interface::{FeatureRange, InputSpec, Interface};
use ei_core::interp::{
    enumerate_exact, eval_with_assignment, evaluate_batch, evaluate_energy, expected_energy,
    mc_chunk_seed, monte_carlo, monte_carlo_par, EvalConfig, ExecMode, MC_CHUNK,
};
use ei_core::parser::parse;
use ei_core::pretty::print_interface;
use ei_core::units::{Calibration, Energy};
use ei_core::value::Value;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[path = "../crates/core/tests/common/generators.rs"]
mod generators;
use generators::{arb_dist_spec, arb_ident};

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

/// An interface whose `f(x)` mixes every declared ECV into the result, so
/// Monte-Carlo output is sensitive to the exact per-sample RNG stream.
/// Boolean ECVs (bernoulli) contribute through an if-expression; numeric
/// ones multiply a coefficient.
fn arb_ecv_interface() -> impl Strategy<Value = Interface> {
    (
        proptest::collection::btree_set(arb_ident(), 1..4),
        proptest::collection::vec(arb_dist_spec(), 3),
        proptest::collection::vec(1u32..100, 3),
    )
        .prop_map(|(names, dists, coefs)| {
            let mut iface = Interface::new("gen");
            let mut expr = Expr::var("x");
            for ((name, dist), c) in names.iter().zip(dists).zip(coefs) {
                let is_bool = matches!(dist, DistSpec::Bernoulli { .. });
                iface
                    .add_ecv(
                        name.clone(),
                        EcvDecl {
                            dist,
                            doc: String::new(),
                        },
                    )
                    .unwrap();
                let term = if is_bool {
                    Expr::IfExpr(
                        Box::new(Expr::Ecv(name.clone())),
                        Box::new(Expr::Num(c as f64)),
                        Box::new(Expr::Num(0.0)),
                    )
                } else {
                    Expr::bin(BinOp::Mul, Expr::Ecv(name.clone()), Expr::Num(c as f64))
                };
                expr = Expr::bin(BinOp::Add, expr, term);
            }
            iface
                .add_fn(FnDef::new(
                    "f",
                    vec!["x".into()],
                    vec![Stmt::Return(Expr::BuiltinCall(Builtin::Joules, vec![expr]))],
                ))
                .unwrap();
            iface
        })
}

/// Builds a tiny deterministic interface `f(x) = coef J * x` for the cache
/// properties.
fn coef_interface(coef: f64) -> Interface {
    let mut iface = Interface::new("coef");
    iface
        .add_fn(FnDef::new(
            "f",
            vec!["x".into()],
            vec![Stmt::Return(Expr::BuiltinCall(
                Builtin::Joules,
                vec![Expr::bin(BinOp::Mul, Expr::Num(coef), Expr::var("x"))],
            ))],
        ))
        .unwrap();
    iface
}

// ---------------------------------------------------------------------------
// Parallel-vs-serial identity
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `monte_carlo_par` must reproduce serial `monte_carlo` exactly —
    /// same samples, same order — for every thread count.
    #[test]
    fn parallel_monte_carlo_is_sample_identical_to_serial(
        iface in arb_ecv_interface(),
        seed: u64,
        n in 0usize..600,
        threads in prop_oneof![Just(1usize), Just(2), Just(4), Just(8)],
        x in 0.0f64..100.0,
    ) {
        let cfg = EvalConfig::default();
        let env = iface.ecv_env();
        let args = [Value::Num(x)];
        let serial = monte_carlo(&iface, "f", &args, &env, n, seed, &cfg);
        let parallel = monte_carlo_par(&iface, "f", &args, &env, n, seed, threads, &cfg);
        match (serial, parallel) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(a), Err(b)) => prop_assert_eq!(format!("{a:?}"), format!("{b:?}")),
            (a, b) => prop_assert!(false, "serial {a:?} vs parallel {b:?}"),
        }
    }

    /// Chunk boundaries are invisible: exact `k * MC_CHUNK` sample counts
    /// and off-by-one neighbours agree between serial and parallel too.
    #[test]
    fn parallel_identity_at_chunk_boundaries(
        iface in arb_ecv_interface(),
        seed: u64,
        k in 1usize..4,
        delta in prop_oneof![Just(-1i64), Just(0), Just(1)],
        threads in prop_oneof![Just(2usize), Just(8)],
    ) {
        let n = (k * MC_CHUNK) as i64 + delta;
        let n = n.max(0) as usize;
        let cfg = EvalConfig::default();
        let env = iface.ecv_env();
        let args = [Value::Num(1.0)];
        let serial = monte_carlo(&iface, "f", &args, &env, n, seed, &cfg).unwrap();
        let parallel =
            monte_carlo_par(&iface, "f", &args, &env, n, seed, threads, &cfg).unwrap();
        prop_assert_eq!(serial, parallel);
    }

    /// `evaluate_batch` is exactly per-argset `evaluate_energy` with the
    /// same seed.
    #[test]
    fn batch_matches_singleton_evaluations(
        iface in arb_ecv_interface(),
        seed: u64,
        xs in proptest::collection::vec(0.0f64..100.0, 0..8),
    ) {
        let cfg = EvalConfig::default();
        let env = iface.ecv_env();
        let argsets: Vec<Vec<Value>> = xs.iter().map(|&x| vec![Value::Num(x)]).collect();
        let batch = evaluate_batch(&iface, "f", &argsets, &env, seed, &cfg).unwrap();
        prop_assert_eq!(batch.len(), argsets.len());
        for (args, b) in argsets.iter().zip(&batch) {
            let single = evaluate_energy(&iface, "f", args, &env, seed, &cfg).unwrap();
            prop_assert_eq!(single, *b);
        }
    }
}

// ---------------------------------------------------------------------------
// EvalCache properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Hit and miss paths return identical answers, and both match the
    /// uncached evaluation.
    #[test]
    fn cache_hit_and_miss_agree_with_uncached(
        iface in arb_ecv_interface(),
        x in 0.0f64..100.0,
    ) {
        let cfg = EvalConfig::default();
        let args = [Value::Num(x)];
        let cache = EvalCache::new();
        let cold = cache.expected_energy_cached(&iface, "f", &args, &cfg).unwrap();
        let warm = cache.expected_energy_cached(&iface, "f", &args, &cfg).unwrap();
        let direct = expected_energy(&iface, "f", &args, &cfg).unwrap();
        prop_assert_eq!(cold, warm);
        prop_assert_eq!(cold, direct);
        let stats = cache.stats();
        prop_assert_eq!(stats.misses, 1);
        prop_assert_eq!(stats.hits, 1);
    }

    /// Mutating an interface in place changes its fingerprint, so a shared
    /// cache immediately serves the *new* answer — never the stale one.
    #[test]
    fn cache_invalidates_on_interface_mutation(
        c1 in 1u32..1000,
        c2 in 1u32..1000,
        x in 1.0f64..100.0,
    ) {
        let cfg = EvalConfig::default();
        let args = [Value::Num(x)];
        let cache = EvalCache::new();

        let mut iface = coef_interface(c1 as f64);
        let fp_before = fingerprint_interface(&iface);
        let e1 = cache.expected_energy_cached(&iface, "f", &args, &cfg).unwrap();

        // In-place mutation: rewrite the function body's coefficient.
        iface.fns_mut().get_mut("f").unwrap().body = vec![Stmt::Return(Expr::BuiltinCall(
            Builtin::Joules,
            vec![Expr::bin(BinOp::Mul, Expr::Num(c2 as f64), Expr::var("x"))],
        ))];

        let e2 = cache.expected_energy_cached(&iface, "f", &args, &cfg).unwrap();
        let direct = expected_energy(&iface, "f", &args, &cfg).unwrap();
        prop_assert_eq!(e2, direct);
        if c1 != c2 {
            prop_assert_ne!(fp_before, fingerprint_interface(&iface));
            prop_assert_ne!(e1, e2);
        } else {
            prop_assert_eq!(e1, e2);
        }
    }

    /// Equal content ⇒ equal fingerprint, independently constructed.
    #[test]
    fn fingerprint_depends_only_on_content(c in 1u32..1000) {
        let a = coef_interface(c as f64);
        let b = coef_interface(c as f64);
        prop_assert_eq!(fingerprint_interface(&a), fingerprint_interface(&b));
    }

    /// The walk and the serialized-tree reference agree on which generated
    /// interfaces are equal.
    #[test]
    fn fingerprint_agrees_with_the_serialized_reference(
        a in arb_ecv_interface(),
        b in arb_ecv_interface(),
    ) {
        prop_assert_eq!(
            reference_fingerprint(&a) == reference_fingerprint(&b),
            fingerprint_interface(&a) == fingerprint_interface(&b)
        );
    }
}

// ---------------------------------------------------------------------------
// Fingerprint oracle
// ---------------------------------------------------------------------------

/// The fingerprint `fingerprint_interface` computed before it walked the
/// interface directly: the full serialized tree, hashed with byte-wise
/// FNV-1a. The walk must split interfaces into the same equality classes.
fn reference_fingerprint(iface: &Interface) -> u64 {
    use serde::Serialize;
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    hash_tree(&mut h, &iface.to_value());
    h.0
}

struct Fnv(u64);

impl Fnv {
    fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }
}

fn hash_tree(h: &mut Fnv, v: &serde::Value) {
    use serde::Value as V;
    match v {
        V::Null => h.write_u64(0),
        V::Bool(b) => {
            h.write_u64(1);
            h.write_u64(*b as u64);
        }
        V::I64(n) => {
            h.write_u64(2);
            h.write_u64(*n as u64);
        }
        V::U64(n) => {
            h.write_u64(3);
            h.write_u64(*n);
        }
        V::F64(n) => {
            h.write_u64(4);
            h.write_u64(n.to_bits());
        }
        V::Str(s) => {
            h.write_u64(5);
            h.write_str(s);
        }
        V::Array(items) => {
            h.write_u64(6);
            h.write_u64(items.len() as u64);
            for item in items {
                hash_tree(h, item);
            }
        }
        V::Object(fields) => {
            h.write_u64(7);
            h.write_u64(fields.len() as u64);
            for (k, item) in fields {
                h.write_str(k);
                hash_tree(h, item);
            }
        }
    }
}

/// Every statement, expression and distribution form in one interface.
const SINK_SRC: &str = r#"
interface sink "every construct" {
    unit tick;
    ecv hot: bernoulli(0.5) "hot cache";
    ecv load: uniform(0, 10);
    ecv temp: normal(40, 5);
    ecv fixed: point(3);
    ecv mode: discrete(1: 0.25, 2: 0.75);
    extern fn lower(a, b) "lower layer";
    fn all(x, r) "every statement and expression" {
        let acc = 0 J;
        acc = acc + 2 tick * x;
        for i in 0..3 {
            acc = acc + lower(i, r.size);
        }
        while x < 0 bound 4 {
            acc = acc + 1 mJ;
        }
        if hot && !(x > 1) || true {
            acc = acc + joules(max(x, load));
        } else {
            acc = acc - 1 J;
        }
        let m = -fixed % 2;
        return if temp >= mode { acc } else { acc * m };
    }
}
"#;

/// The interfaces the fingerprint properties run over: the bundled
/// `examples/eil/*.eil`, GPT-2 (single-stream and batch), both Fig. 1
/// interfaces, and [`SINK_SRC`].
fn fingerprint_corpus() -> Vec<Interface> {
    use ei_hw::faults::FaultState;
    use ei_hw::gpu::rtx4090;
    use ei_hw::nic::datacenter_nic;
    use ei_service::{calibrate_with_state, fig1_interface_faulted, CacheEnergy, FaultMixture};

    let mut out = Vec::new();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/eil");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "eil"))
        .collect();
    files.sort();
    assert!(files.len() >= 2, "bundled interfaces missing from {dir}");
    for path in files {
        let src = std::fs::read_to_string(&path).unwrap();
        out.extend(ei_core::parser::parse_all(&src).unwrap());
    }
    out.push(ei_llm::gpt2_interface(&ei_llm::gpt2_small()));
    out.push(ei_llm::gpt2_batch_interface(&ei_llm::gpt2_small()));

    let cal = calibrate_with_state(&rtx4090(), &FaultState::healthy()).expect("probe fits");
    let browned = FaultState {
        gpu_derate: 0.85,
        gpu_sm_loss: 0.25,
        ..FaultState::healthy()
    };
    let cal_br = calibrate_with_state(&rtx4090(), &browned).expect("probe fits");
    let nic = datacenter_nic();
    out.push(ei_service::fig1_interface(
        0.25,
        0.8,
        &cal,
        &CacheEnergy::default(),
        nic.e_byte,
        nic.e_packet,
    ));
    let mix = FaultMixture {
        p_request_hit: 0.55,
        p_local_hit: 0.8,
        p_remote_alive: 0.9,
        p_brownout: 0.3,
        p_degraded_given_brownout: 0.5,
        timeout_attempts_per_request: 0.02,
    };
    out.push(fig1_interface_faulted(
        &mix,
        &cal,
        &cal_br,
        &CacheEnergy::default(),
        nic.e_byte,
        nic.e_packet,
    ));
    out.push(parse(SINK_SRC).unwrap());
    out
}

/// Builds every single-field edit of an interface, recording which kinds
/// of field the edits reached.
#[derive(Default)]
struct Mutator {
    reached: std::collections::BTreeSet<&'static str>,
}

/// The float one bit away: a different value with the smallest possible
/// change.
fn flip_low_bit(v: f64) -> f64 {
    f64::from_bits(v.to_bits() ^ 1)
}

fn renamed(s: &str) -> String {
    format!("{s}_")
}

/// `items` with item `i` replaced by each of `edits`.
fn replace_each<T: Clone>(items: &[T], i: usize, edits: Vec<T>) -> Vec<Vec<T>> {
    edits
        .into_iter()
        .map(|edit| {
            let mut v = items.to_vec();
            v[i] = edit;
            v
        })
        .collect()
}

impl Mutator {
    fn reach(&mut self, kind: &'static str) {
        self.reached.insert(kind);
    }

    fn float(&mut self, kind: &'static str, v: f64) -> Vec<f64> {
        self.reach(kind);
        let mut out = vec![flip_low_bit(v)];
        if v == 0.0 {
            self.reach("0.0 <-> -0.0");
            out.push(-v);
        }
        out
    }

    fn exprs(&mut self, items: &[Expr]) -> Vec<Vec<Expr>> {
        let mut out = Vec::new();
        for (i, e) in items.iter().enumerate() {
            let edits = self.expr(e);
            out.extend(replace_each(items, i, edits));
        }
        out
    }

    fn expr(&mut self, e: &Expr) -> Vec<Expr> {
        let b = |e: Expr| Box::new(e);
        let mut out = Vec::new();
        match e {
            Expr::Num(v) => {
                out.extend(self.float("Expr::Num", *v).into_iter().map(Expr::Num));
            }
            Expr::Bool(v) => {
                self.reach("Expr::Bool");
                out.push(Expr::Bool(!v));
            }
            Expr::Joules(v) => {
                out.extend(self.float("Expr::Joules", *v).into_iter().map(Expr::Joules));
            }
            Expr::Unit(u, a) => {
                self.reach("Expr::Unit");
                out.push(Expr::Unit(renamed(u), *a));
                out.push(Expr::Unit(u.clone(), flip_low_bit(*a)));
            }
            Expr::Var(n) => {
                self.reach("Expr::Var");
                out.push(Expr::Var(renamed(n)));
            }
            Expr::Field(base, f) => {
                self.reach("Expr::Field");
                out.push(Expr::Field(base.clone(), renamed(f)));
                for m in self.expr(base) {
                    out.push(Expr::Field(b(m), f.clone()));
                }
            }
            Expr::Ecv(n) => {
                self.reach("Expr::Ecv");
                out.push(Expr::Ecv(renamed(n)));
            }
            Expr::Unary(op, x) => {
                self.reach("Expr::Unary");
                let other = if *op == UnOp::Neg {
                    UnOp::Not
                } else {
                    UnOp::Neg
                };
                out.push(Expr::Unary(other, x.clone()));
                for m in self.expr(x) {
                    out.push(Expr::Unary(*op, b(m)));
                }
            }
            Expr::Binary(op, l, r) => {
                self.reach("Expr::Binary");
                let other = if *op == BinOp::Add {
                    BinOp::Sub
                } else {
                    BinOp::Add
                };
                out.push(Expr::Binary(other, l.clone(), r.clone()));
                if l != r {
                    out.push(Expr::Binary(*op, r.clone(), l.clone()));
                }
                for m in self.expr(l) {
                    out.push(Expr::Binary(*op, b(m), r.clone()));
                }
                for m in self.expr(r) {
                    out.push(Expr::Binary(*op, l.clone(), b(m)));
                }
            }
            Expr::Call(name, args) => {
                self.reach("Expr::Call");
                out.push(Expr::Call(renamed(name), args.clone()));
                if let Some((_, init)) = args.split_last() {
                    out.push(Expr::Call(name.clone(), init.to_vec()));
                }
                for m in self.exprs(args) {
                    out.push(Expr::Call(name.clone(), m));
                }
            }
            Expr::BuiltinCall(f, args) => {
                self.reach("Expr::BuiltinCall");
                let other = if *f == Builtin::Max {
                    Builtin::Min
                } else {
                    Builtin::Max
                };
                out.push(Expr::BuiltinCall(other, args.clone()));
                for m in self.exprs(args) {
                    out.push(Expr::BuiltinCall(*f, m));
                }
            }
            Expr::IfExpr(c, t, e) => {
                self.reach("Expr::IfExpr");
                if t != e {
                    out.push(Expr::IfExpr(c.clone(), e.clone(), t.clone()));
                }
                for m in self.expr(c) {
                    out.push(Expr::IfExpr(b(m), t.clone(), e.clone()));
                }
                for m in self.expr(t) {
                    out.push(Expr::IfExpr(c.clone(), b(m), e.clone()));
                }
                for m in self.expr(e) {
                    out.push(Expr::IfExpr(c.clone(), t.clone(), b(m)));
                }
            }
        }
        out
    }

    fn block(&mut self, items: &[Stmt]) -> Vec<Vec<Stmt>> {
        let mut out = Vec::new();
        if let Some((_, init)) = items.split_last() {
            out.push(init.to_vec());
        }
        for (i, s) in items.iter().enumerate() {
            let edits = self.stmt(s);
            out.extend(replace_each(items, i, edits));
        }
        out
    }

    fn stmt(&mut self, s: &Stmt) -> Vec<Stmt> {
        let mut out = Vec::new();
        match s {
            Stmt::Let(n, e) => {
                self.reach("Stmt::Let");
                out.push(Stmt::Let(renamed(n), e.clone()));
                out.extend(self.expr(e).into_iter().map(|m| Stmt::Let(n.clone(), m)));
            }
            Stmt::Assign(n, e) => {
                self.reach("Stmt::Assign");
                out.push(Stmt::Assign(renamed(n), e.clone()));
                out.extend(self.expr(e).into_iter().map(|m| Stmt::Assign(n.clone(), m)));
            }
            Stmt::If(c, t, e) => {
                self.reach("Stmt::If");
                if t != e {
                    out.push(Stmt::If(c.clone(), e.clone(), t.clone()));
                }
                for m in self.expr(c) {
                    out.push(Stmt::If(m, t.clone(), e.clone()));
                }
                for m in self.block(t) {
                    out.push(Stmt::If(c.clone(), m, e.clone()));
                }
                for m in self.block(e) {
                    out.push(Stmt::If(c.clone(), t.clone(), m));
                }
            }
            Stmt::For {
                var,
                from,
                to,
                body,
            } => {
                self.reach("Stmt::For");
                let at = |var: &str, from: &Expr, to: &Expr, body: &[Stmt]| Stmt::For {
                    var: var.to_string(),
                    from: from.clone(),
                    to: to.clone(),
                    body: body.to_vec(),
                };
                out.push(at(&renamed(var), from, to, body));
                for m in self.expr(from) {
                    out.push(at(var, &m, to, body));
                }
                for m in self.expr(to) {
                    out.push(at(var, from, &m, body));
                }
                for m in self.block(body) {
                    out.push(at(var, from, to, &m));
                }
            }
            Stmt::While { cond, bound, body } => {
                self.reach("Stmt::While");
                let at = |cond: &Expr, bound: u64, body: &[Stmt]| Stmt::While {
                    cond: cond.clone(),
                    bound,
                    body: body.to_vec(),
                };
                out.push(at(cond, bound + 1, body));
                for m in self.expr(cond) {
                    out.push(at(&m, *bound, body));
                }
                for m in self.block(body) {
                    out.push(at(cond, *bound, &m));
                }
            }
            Stmt::Return(e) => {
                self.reach("Stmt::Return");
                out.extend(self.expr(e).into_iter().map(Stmt::Return));
            }
        }
        out
    }

    fn dist(&mut self, d: &DistSpec) -> Vec<DistSpec> {
        let mut out = Vec::new();
        match d {
            DistSpec::Bernoulli { p } => {
                for p in self.float("DistSpec::Bernoulli", *p) {
                    out.push(DistSpec::Bernoulli { p });
                }
            }
            DistSpec::Discrete { outcomes } => {
                self.reach("DistSpec::Discrete");
                for (i, (v, p)) in outcomes.iter().enumerate() {
                    let edits = [(flip_low_bit(*v), *p), (*v, flip_low_bit(*p))];
                    for outcomes in replace_each(outcomes, i, edits.to_vec()) {
                        out.push(DistSpec::Discrete { outcomes });
                    }
                }
                out.push(DistSpec::Discrete {
                    outcomes: outcomes[1..].to_vec(),
                });
            }
            DistSpec::Uniform { lo, hi } => {
                self.reach("DistSpec::Uniform");
                out.push(DistSpec::Uniform {
                    lo: flip_low_bit(*lo),
                    hi: *hi,
                });
                out.push(DistSpec::Uniform {
                    lo: *lo,
                    hi: flip_low_bit(*hi),
                });
            }
            DistSpec::Normal { mean, std_dev } => {
                self.reach("DistSpec::Normal");
                out.push(DistSpec::Normal {
                    mean: flip_low_bit(*mean),
                    std_dev: *std_dev,
                });
                out.push(DistSpec::Normal {
                    mean: *mean,
                    std_dev: flip_low_bit(*std_dev),
                });
            }
            DistSpec::Point { value } => {
                for value in self.float("DistSpec::Point", *value) {
                    out.push(DistSpec::Point { value });
                }
            }
        }
        out
    }

    /// Every single-field edit of `iface`.
    fn interface(&mut self, iface: &Interface) -> Vec<Interface> {
        // Warm the fingerprint memo every clone copies, so an edit that
        // fails to forget it shows as an unchanged fingerprint.
        fingerprint_interface(iface);
        let mut out = Vec::new();
        let mut edit = |f: &mut dyn FnMut(&mut Interface)| {
            let mut c = iface.clone();
            f(&mut c);
            out.push(c);
        };
        edit(&mut |c| c.name.push('x'));
        edit(&mut |c| c.doc.push('x'));
        edit(&mut |c| c.add_unit("zz_unit"));
        for u in &iface.units {
            edit(&mut |c| {
                c.units.remove(u);
            });
        }
        for (key, f) in iface.fns() {
            edit(&mut |c| {
                let f = c.fns_mut().remove(key).unwrap();
                c.fns_mut().insert(renamed(key), f);
            });
            edit(&mut |c| c.fns_mut().get_mut(key).unwrap().name.push('x'));
            edit(&mut |c| c.fns_mut().get_mut(key).unwrap().doc.push('x'));
            edit(&mut |c| {
                c.fns_mut()
                    .get_mut(key)
                    .unwrap()
                    .params
                    .push("extra".into())
            });
            for i in 0..f.params.len() {
                edit(&mut |c| c.fns_mut().get_mut(key).unwrap().params[i].push('x'));
            }
            edit(&mut |c| c.set_input_spec(key.clone(), InputSpec::new().range("zz", 0.0, 1.0)));
        }
        for key in iface.ecvs.keys() {
            edit(&mut |c| {
                let d = c.ecvs.remove(key).unwrap();
                c.ecvs.insert(renamed(key), d);
            });
            edit(&mut |c| c.ecvs.get_mut(key).unwrap().doc.push('x'));
        }
        for key in iface.externs.keys() {
            edit(&mut |c| c.externs.get_mut(key).unwrap().arity += 1);
            edit(&mut |c| c.externs.get_mut(key).unwrap().name.push('x'));
            edit(&mut |c| c.externs.get_mut(key).unwrap().doc.push('x'));
            edit(&mut |c| {
                let e = c.externs.remove(key).unwrap();
                c.externs.insert(renamed(key), e);
            });
        }
        for (key, spec) in &iface.input_specs {
            edit(&mut |c| {
                c.input_specs.remove(key);
            });
            let entries: Vec<(String, FeatureRange)> =
                spec.iter().map(|(p, r)| (p.to_string(), r)).collect();
            for i in 0..entries.len() {
                let mut respec = |f: &dyn Fn(&mut (String, FeatureRange))| {
                    let mut edited = entries.clone();
                    f(&mut edited[i]);
                    let spec = edited
                        .into_iter()
                        .fold(InputSpec::new(), |s, (p, r)| s.range(p, r.lo, r.hi));
                    edit(&mut |c| c.set_input_spec(key.clone(), spec.clone()));
                };
                respec(&|(_, r)| r.lo = flip_low_bit(r.lo));
                respec(&|(_, r)| r.hi = flip_low_bit(r.hi));
                respec(&|(p, _)| p.push('x'));
            }
        }
        if !iface.externs.is_empty() {
            self.reach("extern");
        }
        if !iface.input_specs.is_empty() {
            self.reach("input spec bounds");
        }

        // Edits that reach into function bodies and ECV distributions.
        for (key, f) in iface.fns() {
            for body in self.block(&f.body) {
                let mut c = iface.clone();
                c.fns_mut().get_mut(key).unwrap().body = body;
                out.push(c);
            }
        }
        for (key, decl) in &iface.ecvs {
            for dist in self.dist(&decl.dist) {
                let mut c = iface.clone();
                c.ecvs.get_mut(key).unwrap().dist = dist;
                out.push(c);
            }
        }
        out
    }
}

/// The walk and the serialized-tree reference split the corpus and every
/// single-field edit of it into the same equality classes, and every edit
/// moves the fingerprint.
#[test]
fn fingerprint_matches_the_serialized_reference_on_single_field_edits() {
    let mut m = Mutator::default();
    let mut by_reference: std::collections::HashMap<u64, u64> = Default::default();
    let mut by_walk: std::collections::HashMap<u64, u64> = Default::default();
    let mut agree = |iface: &Interface| {
        let (r, w) = (reference_fingerprint(iface), fingerprint_interface(iface));
        assert_eq!(*by_reference.entry(r).or_insert(w), w, "{}", iface.name);
        assert_eq!(*by_walk.entry(w).or_insert(r), r, "{}", iface.name);
        w
    };
    let mut edits = 0;
    for base in fingerprint_corpus() {
        let fp = agree(&base);
        for edited in m.interface(&base) {
            assert_ne!(
                reference_fingerprint(&edited),
                reference_fingerprint(&base),
                "edit left {} unchanged",
                base.name
            );
            assert_ne!(agree(&edited), fp, "edit of {} not seen", base.name);
            edits += 1;
        }
    }
    assert!(edits > 1000, "only {edits} edits");
    let reached: Vec<&str> = m.reached.into_iter().collect();
    assert_eq!(
        reached,
        [
            "0.0 <-> -0.0",
            "DistSpec::Bernoulli",
            "DistSpec::Discrete",
            "DistSpec::Normal",
            "DistSpec::Point",
            "DistSpec::Uniform",
            "Expr::Binary",
            "Expr::Bool",
            "Expr::BuiltinCall",
            "Expr::Call",
            "Expr::Ecv",
            "Expr::Field",
            "Expr::IfExpr",
            "Expr::Joules",
            "Expr::Num",
            "Expr::Unary",
            "Expr::Unit",
            "Expr::Var",
            "Stmt::Assign",
            "Stmt::For",
            "Stmt::If",
            "Stmt::Let",
            "Stmt::Return",
            "Stmt::While",
            "extern",
            "input spec bounds",
        ]
    );
}

/// Spans are excluded: one text parsed with different whitespace, or
/// printed and parsed back, fingerprints the same.
#[test]
fn fingerprint_ignores_source_layout() {
    use ei_core::pretty::print_interface;
    for iface in fingerprint_corpus() {
        let printed = print_interface(&iface);
        let spread = printed.replace('\n', "\n\n    ").replace(" {", "\n  {");
        let mut a = parse(&printed).unwrap();
        let mut b = parse(&spread).unwrap();
        assert_ne!(format!("{:?}", a.spans), format!("{:?}", b.spans));
        assert_eq!(fingerprint_interface(&a), fingerprint_interface(&b));
        // Input specs have no surface syntax; the rest round-trips.
        a.input_specs = iface.input_specs.clone();
        b.input_specs = iface.input_specs.clone();
        assert_eq!(fingerprint_interface(&a), fingerprint_interface(&iface));
        assert_eq!(fingerprint_interface(&b), fingerprint_interface(&iface));
    }
}

// ---------------------------------------------------------------------------
// Deterministic spot checks
// ---------------------------------------------------------------------------

/// `n_threads = 0` (auto) must also match serial output.
#[test]
fn auto_thread_count_matches_serial() {
    let mut iface = Interface::new("auto");
    iface
        .add_ecv(
            "load",
            EcvDecl {
                dist: DistSpec::Uniform { lo: 0.0, hi: 10.0 },
                doc: String::new(),
            },
        )
        .unwrap();
    iface
        .add_fn(FnDef::new(
            "f",
            vec![],
            vec![Stmt::Return(Expr::BuiltinCall(
                Builtin::Joules,
                vec![Expr::Ecv("load".into())],
            ))],
        ))
        .unwrap();
    let cfg = EvalConfig::default();
    let env = iface.ecv_env();
    let serial = monte_carlo(&iface, "f", &[], &env, 1000, 42, &cfg).unwrap();
    let auto = monte_carlo_par(&iface, "f", &[], &env, 1000, 42, 0, &cfg).unwrap();
    assert_eq!(serial, auto);
}

/// Errors surface deterministically: the first failing chunk in chunk order
/// wins, matching what the serial loop reports.
#[test]
fn parallel_error_matches_serial_error() {
    // `f` divides by (x - ecv) where the ECV eventually hits the failing
    // value; both serial and parallel must report the same error.
    let mut iface = Interface::new("err");
    iface
        .add_ecv(
            "d",
            EcvDecl {
                dist: DistSpec::Discrete {
                    outcomes: vec![(0.0, 0.5), (1.0, 0.5)],
                },
                doc: String::new(),
            },
        )
        .unwrap();
    iface
        .add_fn(FnDef::new(
            "f",
            vec![],
            vec![Stmt::Return(Expr::BuiltinCall(
                Builtin::Joules,
                vec![Expr::bin(BinOp::Div, Expr::Num(1.0), Expr::Ecv("d".into()))],
            ))],
        ))
        .unwrap();
    let cfg = EvalConfig::default();
    let env = iface.ecv_env();
    let serial = monte_carlo(&iface, "f", &[], &env, 2000, 3, &cfg).unwrap_err();
    for threads in [1, 2, 4, 8] {
        let par = monte_carlo_par(&iface, "f", &[], &env, 2000, 3, threads, &cfg).unwrap_err();
        assert_eq!(format!("{serial:?}"), format!("{par:?}"));
    }
}

// ---------------------------------------------------------------------------
// Assignment-memo scope
// ---------------------------------------------------------------------------

/// Bernoulli-only, so a 384-sample run repeats a handful of assignments
/// across every chunk: the compiled samplers execute each one once per
/// call (per worker) and replay it afterwards. `f` divides by zero on the
/// assignment `a && b && c`.
const MEMO_SRC: &str = r#"interface memo {
    unit tick;
    ecv a: bernoulli(0.3);
    ecv b: bernoulli(0.3);
    ecv c: bernoulli(0.1);
    fn f(x) {
        let d = if a && b && c { 0 } else { 1 };
        let extra = if b { 3 tick } else { 1 tick };
        return x * 1 mJ / d + (if a { 2 mJ } else { 5 mJ }) + extra;
    }
}"#;

const MEMO_N: usize = 6 * MC_CHUNK;

/// Per-sample reference: every sample drawn with `sample_assignment` from
/// its chunk's stream and evaluated alone on the tree-walk.
fn memo_reference(
    iface: &Interface,
    env: &EcvEnv,
    seed: u64,
    cfg: &EvalConfig,
) -> Vec<ei_core::Result<Energy>> {
    let tree = EvalConfig {
        mode: ExecMode::TreeWalk,
        ..cfg.clone()
    };
    let mut out = Vec::new();
    for chunk in 0..MEMO_N.div_ceil(MC_CHUNK) {
        let mut rng = StdRng::seed_from_u64(mc_chunk_seed(seed, chunk as u64));
        for _ in 0..MC_CHUNK {
            let assignment = env.sample_assignment(&mut rng);
            out.push(
                eval_with_assignment(iface, "f", &[Value::Num(2.0)], &assignment, &tree)
                    .and_then(|v| v.into_energy()?.calibrate(&cfg.calibration)),
            );
        }
    }
    out
}

/// Every Monte-Carlo entry point and engine, in the order the test reports.
fn memo_runs(
    iface: &Interface,
    env: &EcvEnv,
    seed: u64,
    cfg: &EvalConfig,
) -> Vec<(String, ei_core::Result<EnergyDist>)> {
    let args = [Value::Num(2.0)];
    let mut runs = Vec::new();
    for mode in [ExecMode::Auto, ExecMode::TreeWalk] {
        let cfg = EvalConfig {
            mode,
            ..cfg.clone()
        };
        runs.push((
            format!("{mode:?} serial"),
            monte_carlo(iface, "f", &args, env, MEMO_N, seed, &cfg),
        ));
        for threads in [1, 2, 8] {
            runs.push((
                format!("{mode:?} x{threads}"),
                monte_carlo_par(iface, "f", &args, env, MEMO_N, seed, threads, &cfg),
            ));
        }
    }
    runs
}

/// A memoized run reports the same first error as the memo-free tree-walk,
/// serially and at every thread count, when the failing assignment first
/// appears chunks after the memo has filled.
#[test]
fn memo_reports_the_first_error_across_chunks() {
    let iface = parse(MEMO_SRC).unwrap();
    let env = iface.ecv_env();
    let cfg = EvalConfig {
        calibration: Calibration::from_pairs([("tick", Energy::microjoules(1.0))]),
        ..EvalConfig::default()
    };
    // The first seed whose first failing sample lies in chunk 2 or later.
    let seed = (0..10_000u64)
        .find(|&seed| {
            let first = memo_reference(&iface, &env, seed, &cfg)
                .iter()
                .position(Result::is_err);
            first.is_some_and(|i| i >= 2 * MC_CHUNK)
        })
        .expect("some seed fails late");
    for (label, run) in memo_runs(&iface, &env, seed, &cfg) {
        assert_eq!(
            format!("{:?}", run),
            format!("{:?}", Err::<(), _>(ei_core::Error::DivisionByZero)),
            "{label}"
        );
    }
}

/// On the success path every sample of every run is bit-identical to
/// evaluating that sample alone.
#[test]
fn memo_samples_match_per_sample_evaluation() {
    let iface = parse(MEMO_SRC).unwrap();
    let mut env = iface.ecv_env();
    env.pin_bool("c", false);
    let cfg = EvalConfig {
        calibration: Calibration::from_pairs([("tick", Energy::microjoules(1.0))]),
        ..EvalConfig::default()
    };
    let expect: Vec<u64> = memo_reference(&iface, &env, 17, &cfg)
        .into_iter()
        .map(|e| e.unwrap().as_joules().to_bits())
        .collect();
    for (label, run) in memo_runs(&iface, &env, 17, &cfg) {
        let got: Vec<u64> = run
            .unwrap()
            .to_samples()
            .iter()
            .map(|e| e.as_joules().to_bits())
            .collect();
        assert_eq!(got, expect, "{label}");
    }
}

/// A continuous ECV: no two samples repeat, so the compiled sampler keeps
/// no assignment memo. `f(x)` fails on `u < 0.05` only when `x > 1`.
const CONTINUOUS_SRC: &str = r#"interface cont {
    ecv u: uniform(0, 1);
    ecv hot: bernoulli(0.5);
    fn f(x) {
        let d = if u < 0.05 && x > 1 { 0 } else { 1 };
        return (x + u) * 1 mJ / d + (if hot { 3 mJ } else { 0 J });
    }
}"#;

/// Thirteen Bernoullis: 8,192 assignments, more than the assignment memo
/// covers, so every sample executes. `f(x)` fails on `b0 && … && b4` only
/// when `x > 1`.
fn wide_src() -> String {
    let ecvs: String = (0..13)
        .map(|i| format!("    ecv b{i}: bernoulli(0.5);\n"))
        .collect();
    let terms: Vec<String> = (0..13)
        .map(|i| format!("(if b{i} {{ {} uJ }} else {{ 0 J }})", 1u32 << i))
        .collect();
    format!(
        "interface wide {{\n{ecvs}    fn f(x) {{\n        \
         let d = if b0 && b1 && b2 && b3 && b4 && x > 1 {{ 0 }} else {{ 1 }};\n        \
         return x * 1 mJ / d + {};\n    }}\n}}",
        terms.join(" + ")
    )
}

/// `f(x)` on every engine and thread count with the telemetry trace of
/// each run, the serial tree-walk first.
fn traced_runs(
    iface: &Interface,
    x: f64,
    n: usize,
) -> Vec<(String, ei_core::Result<EnergyDist>, String)> {
    let env = iface.ecv_env();
    let args = [Value::Num(x)];
    let mut runs = Vec::new();
    for mode in [ExecMode::TreeWalk, ExecMode::Auto] {
        let cfg = EvalConfig {
            mode,
            ..EvalConfig::default()
        };
        for threads in [0, 1, 2, 8] {
            let session = ei_telemetry::session();
            let dist = if threads == 0 {
                monte_carlo(iface, "f", &args, &env, n, 23, &cfg)
            } else {
                monte_carlo_par(iface, "f", &args, &env, n, 23, threads, &cfg)
            };
            let trace = session.finish().to_json_pretty();
            runs.push((format!("{mode:?} x{threads}"), dist, trace));
        }
    }
    runs
}

/// The spaces the assignment memo does not cover match the memo-free
/// tree-walk sample for sample and trace for trace on the success path,
/// and report the same first error on the failure path.
#[test]
fn memo_free_spaces_match_the_tree_walk() {
    let n = 6 * MC_CHUNK;
    for src in [CONTINUOUS_SRC.to_string(), wide_src()] {
        let iface = parse(&src).unwrap();
        let ok = traced_runs(&iface, 1.0, n);
        let (_, oracle, oracle_trace) = &ok[0];
        let oracle = oracle.as_ref().unwrap();
        let mut distinct: Vec<u64> = oracle
            .to_samples()
            .iter()
            .map(|e| e.as_joules().to_bits())
            .collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(distinct.len() > n / 2, "{}: samples must vary", iface.name);
        for (label, dist, trace) in &ok[1..] {
            assert_eq!(dist.as_ref().unwrap(), oracle, "{}: {label}", iface.name);
            assert_eq!(trace, oracle_trace, "{}: {label} trace", iface.name);
        }

        let failing = traced_runs(&iface, 2.0, n);
        let (_, oracle, _) = &failing[0];
        assert!(
            matches!(oracle, Err(ei_core::Error::DivisionByZero)),
            "{}: {oracle:?}",
            iface.name
        );
        for (label, dist, _) in &failing[1..] {
            assert_eq!(
                format!("{dist:?}"),
                format!("{oracle:?}"),
                "{}: {label}",
                iface.name
            );
        }
    }
}

/// An environment that does not declare an ECV the program reads fails
/// with the same `Unresolved` error on both engines, whether the rest of
/// the space is memoized (finite) or not (continuous).
#[test]
fn undeclared_ecv_is_unresolved_on_both_engines() {
    for (src, missing) in [(wide_src(), "b7"), (CONTINUOUS_SRC.to_string(), "hot")] {
        let iface = parse(&src).unwrap();
        let mut env = EcvEnv::new();
        for (name, decl) in &iface.ecvs {
            if name != missing {
                env.declare(name.clone(), decl.clone());
            }
        }
        for mode in [ExecMode::TreeWalk, ExecMode::Auto] {
            let cfg = EvalConfig {
                mode,
                ..EvalConfig::default()
            };
            for threads in [1, 2] {
                let err =
                    monte_carlo_par(&iface, "f", &[Value::Num(1.0)], &env, 256, 5, threads, &cfg)
                        .unwrap_err();
                assert_eq!(
                    format!("{err:?}"),
                    format!(
                        "{:?}",
                        ei_core::Error::Unresolved {
                            kind: ei_core::error::NameKind::Ecv,
                            name: missing.to_string(),
                        }
                    ),
                    "{mode:?} x{threads}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The compiled program an interface carries
// ---------------------------------------------------------------------------

/// `f` reads both ECVs and loops up to one of them; `z` returns a signed
/// zero, so a stale program shows in the result's bits.
const EDIT_SRC: &str = r#"interface edit {
    unit tick;
    ecv hit: bernoulli(0.25);
    ecv load: discrete(1: 0.5, 3: 0.5);
    fn f(x) {
        let c = 2;
        let acc = 0 J;
        for i in 0..load {
            acc = acc + x * c * 1 mJ;
        }
        return acc + (if hit { 5 tick } else { 1 tick });
    }
    fn z() {
        return 0.0 J;
    }
}"#;

fn edit_config(mode: ExecMode) -> EvalConfig {
    EvalConfig {
        calibration: Calibration::from_pairs([("tick", Energy::microjoules(3.0))]),
        mode,
        ..EvalConfig::default()
    }
}

/// Every function's answers through every sampling driver, as bits (or
/// the error), so signed zeros and NaN payloads compare exactly.
fn edit_answers(iface: &Interface, mode: ExecMode) -> Vec<(String, String)> {
    let config = edit_config(mode);
    let env = iface.ecv_env();
    let bits = |r: ei_core::Result<Vec<Energy>>| match r {
        Ok(v) => format!(
            "{:x?}",
            v.iter()
                .map(|e| e.as_joules().to_bits())
                .collect::<Vec<_>>()
        ),
        Err(e) => format!("error: {e:?}"),
    };
    let mut out = Vec::new();
    for (name, f) in iface.fns() {
        let args: Vec<Value> = f.params.iter().map(|_| Value::Num(2.0)).collect();
        let argsets = vec![
            args.clone(),
            f.params.iter().map(|_| Value::Num(-0.5)).collect(),
        ];
        let mc = monte_carlo(iface, name, &args, &env, 3 * MC_CHUNK, 7, &config);
        let exact = enumerate_exact(iface, name, &args, &env, 64, &config);
        out.push((format!("{name} mc"), bits(mc.map(|d| d.to_samples()))));
        out.push((
            format!("{name} batch"),
            bits(evaluate_batch(iface, name, &argsets, &env, 7, &config)),
        ));
        out.push((format!("{name} exact"), format!("{exact:?}")));
    }
    out
}

/// An in-place edit (through `fns_mut()` or a `pub` field) never runs a
/// stale program: after each edit the answers equal those of a freshly
/// parsed copy of the edited interface and of the tree-walk.
#[test]
fn edited_interfaces_never_run_a_stale_program() {
    let set_body = |iface: &mut Interface, name: &str, i: usize, stmt: Stmt| {
        iface.fns_mut().get_mut(name).unwrap().body[i] = stmt;
    };
    type Edit = Box<dyn Fn(&mut Interface)>;
    let edits: Vec<(&str, bool, Edit)> = vec![
        (
            "literal",
            true,
            Box::new(move |i| set_body(i, "f", 0, Stmt::Let("c".into(), Expr::Num(7.0)))),
        ),
        (
            "signed zero",
            true,
            Box::new(move |i| set_body(i, "z", 0, Stmt::Return(Expr::Joules(-0.0)))),
        ),
        (
            "add_fn",
            true,
            Box::new(|i| {
                i.add_fn(FnDef::new(
                    "g",
                    vec![],
                    vec![Stmt::Return(Expr::Joules(4.0))],
                ))
                .unwrap()
            }),
        ),
        (
            "ecv declaration",
            true,
            Box::new(|i| {
                i.ecvs.insert(
                    "load".into(),
                    EcvDecl {
                        dist: DistSpec::Discrete {
                            outcomes: vec![(2.0, 0.25), (5.0, 0.75)],
                        },
                        doc: String::new(),
                    },
                );
            }),
        ),
        ("units", false, Box::new(|i| i.add_unit("spare"))),
    ];
    for (label, changes, edit) in edits {
        let mut iface = parse(EDIT_SRC).unwrap();
        let before = edit_answers(&iface, ExecMode::Auto);
        edit(&mut iface);
        let after = edit_answers(&iface, ExecMode::Auto);
        let fresh = parse(&print_interface(&iface)).unwrap();
        assert_eq!(
            after,
            edit_answers(&fresh, ExecMode::Auto),
            "{label}: fresh copy"
        );
        assert_eq!(
            after,
            edit_answers(&iface, ExecMode::TreeWalk),
            "{label}: tree-walk"
        );
        assert_eq!(after != before, changes, "{label}: answers changed");
    }
}

/// Editing a clone recompiles the clone only: the original keeps its own
/// program and answers.
#[test]
fn editing_a_clone_leaves_the_original_unchanged() {
    let original = parse(EDIT_SRC).unwrap();
    let before = edit_answers(&original, ExecMode::Auto);
    let mut copy = original.clone();
    copy.fns_mut().get_mut("f").unwrap().body[0] = Stmt::Let("c".into(), Expr::Num(7.0));
    assert_ne!(edit_answers(&copy, ExecMode::Auto), before);
    assert_eq!(edit_answers(&original, ExecMode::Auto), before);
}

/// The stored program is invisible: a driver call leaves `==`, the
/// fingerprint, the printed form, the serialized form and `Debug` of the
/// interface exactly as they were.
#[test]
fn driver_calls_leave_the_interface_observably_unchanged() {
    let view = |i: &Interface| {
        (
            fingerprint_interface(i),
            print_interface(i),
            serde_json::to_string(i).unwrap(),
            format!("{i:?}"),
        )
    };
    let iface = parse(EDIT_SRC).unwrap();
    let cold = iface.clone();
    let before = view(&iface);
    edit_answers(&iface, ExecMode::Auto);
    expected_energy(
        &iface,
        "f",
        &[Value::Num(2.0)],
        &edit_config(ExecMode::Auto),
    )
    .unwrap();
    assert!(iface == cold);
    assert_eq!(view(&iface), before);
}

/// Eight threads that share one cold interface race to compile it and
/// still match the serial answers of a separately parsed copy.
#[test]
fn threads_sharing_a_cold_interface_match_serial() {
    let config = edit_config(ExecMode::Auto);
    let args = [Value::Num(2.0)];
    let argsets: Vec<Vec<Value>> = (0..16).map(|k| vec![Value::Num(k as f64)]).collect();
    let n = 6 * MC_CHUNK;
    let reference = parse(EDIT_SRC).unwrap();
    let env = reference.ecv_env();
    let serial_mc = monte_carlo(&reference, "f", &args, &env, n, 11, &config).unwrap();
    let serial_batch = evaluate_batch(&reference, "f", &argsets, &env, 11, &config).unwrap();

    let shared = parse(EDIT_SRC).unwrap();
    let barrier = std::sync::Barrier::new(8);
    std::thread::scope(|scope| {
        for t in 0..8 {
            let (shared, env, config, args, argsets, barrier) =
                (&shared, &env, &config, &args, &argsets, &barrier);
            let (serial_mc, serial_batch) = (&serial_mc, &serial_batch);
            scope.spawn(move || {
                barrier.wait();
                if t % 2 == 0 {
                    let par = monte_carlo_par(shared, "f", args, env, n, 11, 3, config).unwrap();
                    assert_eq!(&par, serial_mc, "thread {t}");
                } else {
                    let batch = evaluate_batch(shared, "f", argsets, env, 11, config).unwrap();
                    assert_eq!(&batch, serial_batch, "thread {t}");
                }
            });
        }
    });
}
