//! Sound energy-bound certificates (`eic certify`).
//!
//! The paper's position is that a published energy interface should let a
//! consumer reason about a module's energy *without* re-measuring it. A
//! [`Certificate`] makes that reasoning checkable: for each certified
//! function it records a **guaranteed** min/max energy over the declared
//! input space ([`InputSpec`]) and ECV domains, plus a per-variable
//! **monotonicity** verdict — both derived statically, so they hold for
//! every concrete execution, not just the ones a sweep happened to
//! sample.
//!
//! Both come from one walk of the interval abstract interpreter
//! ([`crate::analysis::interval`]). Each scalar parameter and each
//! numeric ECV is a *target* of that walk: alongside its interval, every
//! abstract value carries the direction of its dependence on each target.
//! The result's interval is the bound; its directions are the verdicts.
//! The direction lattice is `Constant ⊑ {NonDecreasing, NonIncreasing} ⊑
//! Unknown`; transfer functions only strengthen a claim when it is
//! provable (products need sign information, branches on target-dependent
//! conditions poison the result, loops with target-dependent trip counts
//! certify only accumulators whose every increment, as the body evaluates
//! it, keeps one sign). `Unknown` is always sound.
//!
//! Certificates render to canonical JSON — sorted keys, no insignificant
//! whitespace, shortest-roundtrip floats — so byte equality is
//! certificate equality.
//!
//! The deterministic probe grid over a declared domain ([`axes_for`],
//! [`probe_grid`], [`args_at`]) picks the concrete executions that check
//! a certificate (`ei-bench`'s `gate` binary) and that witness a leak
//! ([`crate::analysis::constant_energy`]).

use std::collections::BTreeMap;
use std::fmt;

use crate::analysis::interval::{abstract_eval_dirs, abstract_inputs, Dirs, Val, MAX_TARGETS};
use crate::analysis::worst_case::{energy_bound, EnergyBound};
use crate::cache::fingerprint_interface;
use crate::ecv::DistSpec;
use crate::error::{Error, Result};
use crate::interface::{InputSpec, Interface};
use crate::units::Calibration;
use crate::value::Value;

/// How a function's energy responds to one input variable over the
/// certified domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Monotonicity {
    /// The result does not depend on the variable.
    Constant,
    /// Never decreases as the variable increases.
    NonDecreasing,
    /// Never increases as the variable increases.
    NonIncreasing,
    /// The analysis could not prove a direction.
    Unknown,
}

impl fmt::Display for Monotonicity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Monotonicity::Constant => "constant",
            Monotonicity::NonDecreasing => "non_decreasing",
            Monotonicity::NonIncreasing => "non_increasing",
            Monotonicity::Unknown => "unknown",
        })
    }
}

/// The certificate of one interface function.
#[derive(Debug, Clone, PartialEq)]
pub struct FnCertificate {
    /// Guaranteed energy bound over the declared domain: no execution
    /// with in-spec inputs and in-domain ECVs lands outside it.
    pub bound: EnergyBound,
    /// Monotonicity per scalar parameter (keyed by name) and per numeric
    /// ECV (keyed `ecv(name)`).
    pub monotone: BTreeMap<String, Monotonicity>,
}

/// A certificate over an interface: sound bounds and monotonicity
/// verdicts for every certifiable function.
#[derive(Debug, Clone, PartialEq)]
pub struct Certificate {
    /// Interface name.
    pub interface: String,
    /// Fingerprint of the certified interface
    /// ([`crate::cache::fingerprint_interface`]): a certificate is only
    /// meaningful against the exact interface it was computed from.
    pub fingerprint: u64,
    /// Per-function certificates, keyed by function name.
    pub fns: BTreeMap<String, FnCertificate>,
}

impl Certificate {
    /// Renders the certificate as canonical JSON: sorted keys (BTreeMap
    /// order), no insignificant whitespace, `{:?}` float rendering
    /// (shortest roundtrip), fingerprint as a hex string (u64 exceeds
    /// JSON's exact integer range).
    pub fn to_canonical_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"fingerprint\":\"{:#018x}\",\"fns\":{{",
            self.fingerprint
        ));
        for (i, (name, fc)) in self.fns.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{}:{{\"bound_j\":{{\"lower\":{:?},\"upper\":{:?}}},\"monotone\":{{",
                json_str(name),
                fc.bound.lower.as_joules(),
                fc.bound.upper.as_joules()
            ));
            for (j, (var, m)) in fc.monotone.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{}:\"{m}\"", json_str(var)));
            }
            out.push_str("}}");
        }
        out.push_str(&format!("}},\"interface\":{}}}", json_str(&self.interface)));
        out
    }
}

/// Escapes a string as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Certifies every certifiable function of `iface`.
///
/// A function is certified when it has a declared [`InputSpec`] (analysis
/// failure is then an error — a provider declaring a domain promises the
/// function is analyzable over it), or when it takes no parameters and
/// its abstract result is an energy (failures skip it quietly: helper
/// functions are not certificate material).
pub fn certify(iface: &Interface, cal: &Calibration) -> Result<Certificate> {
    let mut fns = BTreeMap::new();
    for (name, f) in iface.fns().iter() {
        if let Some(spec) = iface.input_specs.get(name) {
            fns.insert(name.clone(), certify_fn(iface, name, spec, cal)?);
        } else if f.params.is_empty() {
            let empty = InputSpec::new();
            if let Ok(fc) = certify_fn(iface, name, &empty, cal) {
                fns.insert(name.clone(), fc);
            }
        }
    }
    Ok(Certificate {
        interface: iface.name.clone(),
        fingerprint: fingerprint_interface(iface),
        fns,
    })
}

/// Certifies one function over `spec`: a finite guaranteed energy bound
/// plus monotonicity verdicts for every scalar parameter and numeric ECV.
///
/// One abstract walk yields both: the interval of its result is the
/// bound, and its directions are the verdicts, each parameter and ECV
/// being one target of the walk. A target past the walk's
/// `MAX_TARGETS` (64) is untracked and reported `Unknown`.
pub fn certify_fn(
    iface: &Interface,
    func: &str,
    spec: &InputSpec,
    cal: &Calibration,
) -> Result<FnCertificate> {
    let inputs = abstract_inputs(iface, func, spec)?;
    // Verdict keys, one per target in bit order.
    let mut keys: Vec<String> = Vec::new();
    let mut target = |key: String| {
        let t = keys.len();
        keys.push(key);
        if t < MAX_TARGETS {
            Dirs::up(t)
        } else {
            Dirs::ZERO
        }
    };
    let mut args = Vec::with_capacity(inputs.len());
    for (p, val) in iface.get_fn(func)?.params.iter().zip(inputs) {
        let dirs = match spec.get(p) {
            Some(_) => target(p.clone()),
            None => Dirs::ZERO,
        };
        args.push(Val {
            val,
            dirs,
            slope: None,
        });
    }
    let mut ecv_dirs = BTreeMap::new();
    for (name, decl) in iface.ecvs.iter() {
        if !matches!(decl.dist, DistSpec::Bernoulli { .. }) {
            ecv_dirs.insert(name.as_str(), target(format!("ecv({name})")));
        }
    }
    let out = abstract_eval_dirs(iface, func, args, ecv_dirs)?;
    let bound = energy_bound(&out.val, cal)?;
    if !bound.lower.as_joules().is_finite() || !bound.upper.as_joules().is_finite() {
        return Err(Error::Analysis {
            msg: format!("certified bound for `{func}` is not finite"),
        });
    }
    let monotone = keys
        .into_iter()
        .enumerate()
        .map(|(t, key)| (key, out.dirs.verdict(t)))
        .collect();
    Ok(FnCertificate { bound, monotone })
}

/// A probe axis: one scalar parameter, or one field of a record
/// parameter, with its probe points.
#[derive(Debug, Clone, PartialEq)]
pub struct Axis {
    /// Parameter index in the function signature.
    pub param: usize,
    /// Field name for record parameters (`None` for scalars).
    pub field: Option<String>,
    /// Probe points: `lo`, midpoint, `hi`.
    pub points: [f64; 3],
}

/// Builds the probe axes for `func` over `spec`, or `None` when some
/// parameter has no declared range (a certificate still bounds it via the
/// abstract domain, but a probe cannot pick concrete values for it).
pub fn axes_for(iface: &Interface, func: &str, spec: &InputSpec) -> Option<Vec<Axis>> {
    let mut axes = Vec::new();
    for (param, p) in iface.fns().get(func)?.params.iter().enumerate() {
        // A record parameter has one axis per declared `p.field` entry.
        let prefix = format!("{p}.");
        let ranges: Vec<_> = match spec.get(p) {
            Some(r) => vec![(None, r)],
            None => spec
                .iter()
                .filter_map(|(path, r)| Some((Some(path.strip_prefix(&prefix)?.to_string()), r)))
                .collect(),
        };
        if ranges.is_empty() {
            return None;
        }
        axes.extend(ranges.into_iter().map(|(field, r)| Axis {
            param,
            field,
            points: [r.lo, (r.lo + r.hi) / 2.0, r.hi],
        }));
    }
    Some(axes)
}

/// Deterministic probe grid over the axes, as indices into each axis's
/// points: the full 3^n cartesian product (first axis slowest) for small
/// signatures, otherwise the three diagonals plus per-axis extremes with
/// every other axis at its midpoint.
pub fn probe_grid(axes: &[Axis]) -> Vec<Vec<usize>> {
    let n = axes.len();
    if n <= 4 {
        let digit = |m: usize, d: usize| m / 3usize.pow((n - 1 - d) as u32) % 3;
        return (0..3usize.pow(n as u32))
            .map(|m| (0..n).map(|d| digit(m, d)).collect())
            .collect();
    }
    let extremes = (0..n).flat_map(|i| {
        [0, 2].map(|k| {
            let mut g = vec![1; n];
            g[i] = k;
            g
        })
    });
    (0..3).map(|k| vec![k; n]).chain(extremes).collect()
}

/// Materialises one probe point as concrete call arguments for a function
/// of `arity` parameters.
pub fn args_at(axes: &[Axis], arity: usize, point: &[usize]) -> Vec<Value> {
    (0..arity)
        .map(|param| {
            let mut fields = Vec::new();
            for (axis, &k) in axes.iter().zip(point).filter(|(a, _)| a.param == param) {
                let v = Value::Num(axis.points[k]);
                match &axis.field {
                    None => return v,
                    Some(f) => fields.push((f.clone(), v)),
                }
            }
            if fields.is_empty() {
                Value::Num(0.0)
            } else {
                Value::record(fields)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{evaluate_energy, EvalConfig};
    use crate::parser::parse;

    fn svc() -> Interface {
        let mut i = parse(
            r#"interface svc {
                ecv load: uniform(0.25, 1.0);
                ecv hit: bernoulli(0.5);
                fn handle(n) {
                    let e = 5 mJ;
                    for i in 0..n { e = e + 2 mJ; }
                    if ecv(hit) { return e * ecv(load); }
                    return e;
                }
                fn discount(n) { return 100 mJ - 1 mJ * n; }
                fn idle() { return 3 mJ; }
            }"#,
        )
        .unwrap();
        i.set_input_spec("handle", InputSpec::new().range("n", 0.0, 16.0));
        i.set_input_spec("discount", InputSpec::new().range("n", 0.0, 10.0));
        i
    }

    #[test]
    fn bounds_and_monotonicity_certify_the_service() {
        let cert = certify(&svc(), &Calibration::empty()).unwrap();
        assert_eq!(cert.interface, "svc");
        let handle = &cert.fns["handle"];
        // e ranges over [5, 37] mJ; the hit branch scales by [0.25, 1].
        assert!((handle.bound.lower.as_joules() - 0.00125).abs() < 1e-12);
        assert!((handle.bound.upper.as_joules() - 0.037).abs() < 1e-12);
        assert_eq!(handle.monotone["n"], Monotonicity::NonDecreasing);
        // Constant on the miss branch, non-decreasing on the hit branch;
        // the branch condition is load-independent, so the join holds.
        assert_eq!(handle.monotone["ecv(load)"], Monotonicity::NonDecreasing);
        let discount = &cert.fns["discount"];
        assert_eq!(discount.monotone["n"], Monotonicity::NonIncreasing);
        assert_eq!(discount.monotone["ecv(load)"], Monotonicity::Constant);
        // Zero-parameter functions certify opportunistically.
        let idle = &cert.fns["idle"];
        assert!((idle.bound.lower.as_joules() - 0.003).abs() < 1e-12);
        assert!((idle.bound.upper.as_joules() - 0.003).abs() < 1e-12);
    }

    #[test]
    fn certified_bounds_admit_every_sample() {
        let i = svc();
        let cert = certify(&i, &Calibration::empty()).unwrap();
        let handle = &cert.fns["handle"];
        let env = i.ecv_env();
        let cfg = EvalConfig::default();
        for k in 0u32..100 {
            let n = f64::from(k % 17);
            let e =
                evaluate_energy(&i, "handle", &[Value::Num(n)], &env, u64::from(k), &cfg).unwrap();
            assert!(
                handle.bound.admits(e),
                "sample {e} escapes certified bound [{}, {}]",
                handle.bound.lower,
                handle.bound.upper
            );
        }
    }

    #[test]
    fn monotone_ecv_scaling_is_certified() {
        let mut i = parse(
            r#"interface scaled {
                ecv load: uniform(0.5, 2.0);
                fn cost(n) { return 1 mJ * n * ecv(load); }
            }"#,
        )
        .unwrap();
        i.set_input_spec("cost", InputSpec::new().range("n", 0.0, 8.0));
        let cert = certify(&i, &Calibration::empty()).unwrap();
        let cost = &cert.fns["cost"];
        assert_eq!(cost.monotone["n"], Monotonicity::NonDecreasing);
        assert_eq!(cost.monotone["ecv(load)"], Monotonicity::NonDecreasing);
    }

    #[test]
    fn target_dependent_branches_stay_unknown() {
        let mut i = parse(
            r#"interface branchy {
                fn step(n) {
                    if n > 5 { return 1 mJ; }
                    return 10 mJ;
                }
            }"#,
        )
        .unwrap();
        i.set_input_spec("step", InputSpec::new().range("n", 0.0, 10.0));
        let cert = certify(&i, &Calibration::empty()).unwrap();
        // Actually non-increasing, but the piecewise analysis cannot
        // prove it; `Unknown` is the sound verdict.
        assert_eq!(cert.fns["step"].monotone["n"], Monotonicity::Unknown);
    }

    #[test]
    fn accumulator_increments_are_signed_after_earlier_updates() {
        // `b`'s increment is `a` after this trip's update: 0 mJ, then
        // -1 mJ. Signed on the pre-body state (1 mJ, then 0 mJ) it looked
        // non-negative, yet f(n = 1) = 10 mJ and f(n = 2) = 9 mJ.
        let mut i = parse(
            "interface acc { fn f(n) { let a = 1 mJ; let b = 10 mJ; \
             for i in 0..n { a = a + (0 - 1) * 1 mJ; b = b + a; } return b; } }",
        )
        .unwrap();
        i.set_input_spec("f", InputSpec::new().range("n", 0.0, 2.0));
        let env = i.ecv_env();
        let cfg = EvalConfig::default();
        let at = |n: f64| {
            evaluate_energy(&i, "f", &[Value::Num(n)], &env, 0, &cfg)
                .unwrap()
                .as_joules()
        };
        assert!(at(2.0) < at(1.0), "the energy falls from n = 1 to n = 2");
        let cert = certify(&i, &Calibration::empty()).unwrap();
        assert_eq!(cert.fns["f"].monotone["n"], Monotonicity::Unknown);
    }

    #[test]
    fn canonical_json_is_stable_and_fingerprinted() {
        let i = svc();
        let a = certify(&i, &Calibration::empty()).unwrap();
        let b = certify(&i, &Calibration::empty()).unwrap();
        assert_eq!(a, b);
        let json = a.to_canonical_json();
        assert_eq!(json, b.to_canonical_json());
        assert!(json.starts_with("{\"fingerprint\":\"0x"));
        assert!(json.contains("\"interface\":\"svc\""));
        assert!(json.contains("\"handle\":{\"bound_j\":{\"lower\":0.00125,"));
        assert!(json.contains("\"n\":\"non_decreasing\""));
        assert!(!json.contains(' '), "canonical JSON has no whitespace");
        // A changed interface changes the fingerprint — input specs are
        // part of the certified identity.
        let mut other = svc();
        other.set_input_spec("idle", InputSpec::new());
        let c = certify(&other, &Calibration::empty()).unwrap();
        assert_ne!(a.fingerprint, c.fingerprint);
    }

    #[test]
    fn declared_spec_failures_are_loud() {
        let mut i = parse(
            r#"interface bad {
                fn divide(n) { return 1 mJ / n; }
            }"#,
        )
        .unwrap();
        i.set_input_spec("divide", InputSpec::new().range("n", -1.0, 1.0));
        assert!(certify(&i, &Calibration::empty()).is_err());
    }
}
