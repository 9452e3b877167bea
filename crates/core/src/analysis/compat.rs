//! Compatibility checking between interfaces.
//!
//! §4.1: "A tool then combines the energy interfaces of the system's modules
//! and provides a first-cut answer on whether they are compatible with each
//! other, i.e., whether the composition of lower-level modules satisfies the
//! energy constraints present in the upper-level energy interfaces."
//!
//! Here, a *spec* interface declares the energy envelope (its worst case
//! per input is the allowance) and a *candidate* interface (typically the
//! linked composition of lower-level modules, or an interface derived from
//! an implementation) must stay within that envelope pointwise over the
//! declared input space.
//!
//! The check is sound both ways, on the interval walk: it bisects the input
//! box along its widest axis until, on every box, the candidate provably
//! costs at most the spec (proven), or a box corner has a concrete
//! candidate execution above the spec's sound upper bound there (refuted,
//! with that corner as the counterexample). A box is proven when each way
//! of fixing the candidate's finite ECVs costs at most the spec with its
//! ECVs fixed some way — a lower bound of the spec's worst case. One
//! function costs at most another over a box when its abstract upper bound
//! is at most the other's abstract lower bound, or when the first-order
//! forms of the two (see [`crate::analysis::interval`]) bound their
//! difference by zero, as they do where a linear candidate touches its
//! envelope. Where neither happens within a fixed box budget, or a box too
//! narrow to split stays unproven — for instance where the candidate
//! grazes the envelope tangentially — the answer is `Unknown`.

use std::collections::BTreeSet;

use crate::analysis::interval::{abstract_eval_box, AbsEnergy, Interval, Val};
use crate::analysis::paths::{probe_paths, probe_values, PathProfile};
use crate::analysis::worst_case::worst_case_at;
use crate::ecv::{DistSpec, EcvValue};
use crate::error::{Error, Result};
use crate::interface::{InputSpec, Interface};
use crate::interp::EvalConfig;
use crate::units::{Calibration, Energy};
use crate::value::Value;

/// Boxes a check examines before it answers [`Compatibility::Unknown`].
const MAX_BOXES: usize = 4096;

/// Variants with fixed ECVs a check walks per side and box; past this
/// many, the interface's own walk stands in for them.
const MAX_VARIANTS: usize = 64;

/// The verdict of a compatibility check.
#[derive(Debug, Clone, PartialEq)]
pub enum Compatibility {
    /// Proven: on every box of a cover of the domain, the candidate's
    /// sound upper bound is at most the spec's sound lower bound.
    Compatible,
    /// Refuted: a concrete candidate execution at `input` consumes more
    /// than the spec's sound upper bound there.
    Incompatible {
        /// The counterexample (one scalar per parameter).
        input: Vec<f64>,
        /// The candidate's most expensive execution found at `input`.
        candidate: Energy,
        /// The spec's sound upper bound at `input`.
        allowed: Energy,
    },
    /// Neither proven nor refuted within the box budget.
    Unknown,
}

impl Compatibility {
    /// True only for a proven verdict.
    pub fn is_compatible(&self) -> bool {
        matches!(self, Compatibility::Compatible)
    }
}

/// Checks that `candidate.func` stays within `spec.func` over `inputs`.
///
/// Both functions must share the same scalar parameter list, each with a
/// declared range; abstract units are reduced to Joules via `cal`.
pub fn check_compat(
    spec: &Interface,
    candidate: &Interface,
    func: &str,
    inputs: &InputSpec,
    cal: &Calibration,
) -> Result<Compatibility> {
    let sf = spec.get_fn(func)?;
    let cf = candidate.get_fn(func)?;
    if sf.params.len() != cf.params.len() {
        return Err(Error::Incompatible {
            msg: format!(
                "`{func}` has {} parameter(s) in the spec but {} in the candidate",
                sf.params.len(),
                cf.params.len()
            ),
        });
    }
    let domain: Vec<(f64, f64)> = sf
        .params
        .iter()
        .map(|p| {
            inputs
                .get(p)
                .map(|r| (r.lo, r.hi))
                .ok_or_else(|| Error::BadInput {
                    msg: format!("no declared range for parameter `{p}` of `{func}`"),
                })
        })
        .collect::<Result<_>>()?;
    let cfg = EvalConfig {
        calibration: cal.clone(),
        ..EvalConfig::default()
    };
    let (cands, specs) = (ecv_variants(candidate, false), ecv_variants(spec, true));
    let mut probed = BTreeSet::new();
    let mut open = vec![domain];
    let mut boxes = 0;
    while let Some(b) = open.pop() {
        if boxes == MAX_BOXES {
            return Ok(Compatibility::Unknown);
        }
        boxes += 1;
        if proven(&cands, &specs, func, &b, cal)? {
            continue;
        }
        for input in corners(&b) {
            // Neighbouring boxes share corners: probe each once.
            if !probed.insert(input.iter().map(|v| v.to_bits()).collect::<Vec<_>>()) {
                continue;
            }
            let args: Vec<Value> = input.iter().map(|v| Value::Num(*v)).collect();
            // An ECV space too large to enumerate refutes nothing.
            let Some(profiles) = probe_paths(candidate, func, &args, &cfg)? else {
                continue;
            };
            let allowed = worst_case_at(spec, func, &input, cal)?.upper;
            let dearest = (profiles.iter())
                .filter_map(PathProfile::worst)
                .fold(Energy(f64::MIN), |e, p| e.max(p.energy));
            if dearest > allowed {
                return Ok(Compatibility::Incompatible {
                    input,
                    candidate: dearest,
                    allowed,
                });
            }
        }
        // Split the widest axis; a box too narrow to split is undecidable.
        let width = |i: usize| b[i].1 - b[i].0;
        let Some(axis) = (0..b.len()).max_by(|&i, &j| width(i).total_cmp(&width(j))) else {
            return Ok(Compatibility::Unknown);
        };
        let (lo, hi) = b[axis];
        let mid = lo + (hi - lo) / 2.0;
        if !(lo < mid && mid < hi) {
            return Ok(Compatibility::Unknown);
        }
        let (mut left, mut right) = (b.clone(), b);
        left[axis].1 = mid;
        right[axis].0 = mid;
        open.extend([left, right]);
    }
    Ok(Compatibility::Compatible)
}

/// Whether on every input of box `b` each candidate variant costs at most
/// some spec variant.
fn proven(
    cands: &[Interface],
    specs: &[Interface],
    func: &str,
    b: &[(f64, f64)],
    cal: &Calibration,
) -> Result<bool> {
    let walk = |i: &Interface| abstract_eval_box(i, func, b);
    let specs: Vec<Val> = specs.iter().map(walk).collect::<Result<_>>()?;
    let widths: Vec<f64> = b.iter().map(|(lo, hi)| hi - lo).collect();
    'cands: for c in cands {
        let c = walk(c)?;
        for s in &specs {
            if below(&c, s, &widths, cal)? {
                continue 'cands;
            }
        }
        return Ok(false);
    }
    Ok(true)
}

/// Whether the energy `c` is at most `s` on every input of a box of
/// widths `w`: by their ranges, or by the form of their difference, with
/// the Joule components compared through their forms and abstract units
/// through their ranges.
fn below(c: &Val, s: &Val, w: &[f64], cal: &Calibration) -> Result<bool> {
    let (ce, se) = (c.val.as_energy()?, s.val.as_energy()?);
    if ce.upper_bound(cal)? <= se.lower_bound(cal)? {
        return Ok(true);
    }
    let (Some(cf), Some(sf)) = (c.form(), s.form()) else {
        return Ok(false);
    };
    let units = |e: &AbsEnergy| AbsEnergy {
        joules: Interval::point(0.0),
        abstracts: e.abstracts.clone(),
    };
    let excess = cf.sub(&sf).upper(w) + units(ce).upper_bound(cal)?.as_joules()
        - units(se).lower_bound(cal)?.as_joules();
    Ok(excess <= 0.0)
}

/// The interface once per way of fixing every finite ECV, and every
/// continuous one too if `continuous`, at one of its [`probe_values`].
///
/// Every execution of the candidate is an execution of one of its
/// variants (its continuous ECVs stay free); at every input the spec's
/// worst case is at least each of its variants' energy. Past
/// [`MAX_VARIANTS`], the interface alone, which bounds both sides more
/// loosely.
fn ecv_variants(iface: &Interface, continuous: bool) -> Vec<Interface> {
    let mut out = vec![iface.clone()];
    for (name, decl) in &iface.ecvs {
        if !continuous && decl.dist.support().is_none() {
            continue;
        }
        let values = probe_values(&decl.dist);
        if out.len() * values.len() > MAX_VARIANTS {
            return vec![iface.clone()];
        }
        out = (out.iter())
            .flat_map(|s| {
                values.iter().map(move |v| {
                    let mut s = s.clone();
                    let dist = &mut s.ecvs.get_mut(name).expect("declared ECV").dist;
                    *dist = match *v {
                        EcvValue::Bool(b) => DistSpec::Bernoulli {
                            p: f64::from(u8::from(b)),
                        },
                        EcvValue::Num(value) => DistSpec::Point { value },
                    };
                    s
                })
            })
            .collect();
    }
    out
}

/// The corners of a box, each once (a degenerate axis contributes one
/// value).
fn corners(b: &[(f64, f64)]) -> Vec<Vec<f64>> {
    b.iter().fold(vec![Vec::new()], |acc, &(lo, hi)| {
        let ends: &[f64] = if lo == hi { &[lo] } else { &[lo, hi] };
        acc.iter()
            .flat_map(|c| ends.iter().map(move |&v| [c.as_slice(), &[v]].concat()))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    const SPEC: &str = "interface spec { fn op(n) { return 10 mJ + 2 mJ * n; } }";

    fn check(spec: &str, cand: &str, inputs: &InputSpec) -> Compatibility {
        let (spec, cand) = (parse(spec).unwrap(), parse(cand).unwrap());
        check_compat(&spec, &cand, "op", inputs, &Calibration::empty()).unwrap()
    }

    fn n_to(hi: f64) -> InputSpec {
        InputSpec::new().range("n", 0.0, hi)
    }

    /// The counterexample's input and the candidate's energy there.
    fn counterexample(v: Compatibility) -> (Vec<f64>, Energy) {
        let Compatibility::Incompatible {
            input,
            candidate,
            allowed,
        } = v
        else {
            panic!("expected a counterexample, got {v:?}");
        };
        assert!(candidate > allowed);
        (input, candidate)
    }

    #[test]
    fn compatible_candidate_passes() {
        let v = check(
            SPEC,
            r#"interface cand {
                ecv fast_path: bernoulli(0.9);
                fn op(n) {
                    if ecv(fast_path) { return 1 mJ + 1 mJ * n; }
                    else { return 5 mJ + 2 mJ * n; }
                }
            }"#,
            &n_to(100.0),
        );
        assert!(v.is_compatible(), "{v:?}");
    }

    #[test]
    fn violating_candidate_flagged_with_witness() {
        let cand = "interface cand { fn op(n) { return 5 mJ + 3 mJ * n; } }";
        // 5 + 3n > 10 + 2n iff n > 5: the witness must be there.
        assert!(counterexample(check(SPEC, cand, &n_to(100.0))).0[0] > 5.0);
    }

    #[test]
    fn violation_inside_the_domain_is_found_by_bisection() {
        // Both ends of the domain comply; only n in (90, 95) violates.
        let v = check(
            SPEC,
            r#"interface cand {
                fn op(n) {
                    if n > 90 { if n < 95 { return 10 mJ + 2.5 mJ * n; } }
                    return 1 mJ;
                }
            }"#,
            &n_to(100.0),
        );
        let (input, _) = counterexample(v);
        assert!(input[0] > 90.0 && input[0] < 95.0, "{input:?}");
    }

    #[test]
    fn constant_budget_is_a_constant_envelope() {
        let cand = r#"interface svc {
            ecv hit: bernoulli(0.5);
            fn op(n) {
                let base = 10 mJ;
                if ecv(hit) { return base; }
                else { return base + 2 mJ * n; }
            }
        }"#;
        let budget = |mj: f64| format!("interface budget {{ fn op(n) {{ return {mj} mJ; }} }}");
        // The worst case is 210 mJ at n = 100.
        assert!(check(&budget(250.0), cand, &n_to(100.0)).is_compatible());
        let (input, candidate) = counterexample(check(&budget(100.0), cand, &n_to(100.0)));
        assert_eq!(input, vec![100.0]);
        assert!((candidate.as_joules() - 0.210).abs() < 1e-12);
    }

    #[test]
    fn touching_envelope_is_proven() {
        // Each candidate meets its spec at some input, where no range bound
        // separates them; the forms of their difference do.
        let fig1 = r#"interface svc {
            ecv hit: bernoulli(0.5);
            fn op(n) { if ecv(hit) { return 10 mJ; } return 10 mJ + 2 mJ * n; }
        }"#;
        for (spec, cand) in [
            (SPEC, SPEC),
            (
                SPEC,
                "interface c { fn op(n) { return 9.999 mJ + 2 mJ * n; } }",
            ),
            (
                "interface s { fn op(n) { return 1 mJ * n; } }",
                "interface c { fn op(n) { return 0.5 mJ * n; } }",
            ),
            (fig1, fig1),
        ] {
            assert!(check(spec, cand, &n_to(100.0)).is_compatible(), "{cand}");
        }
    }

    #[test]
    fn tangential_graze_is_unknown() {
        // The candidate meets the spec at n = 50 with the same slope: no
        // first-order form separates them on a box that ends there.
        let cand = r#"interface c {
            fn op(n) { return 10 mJ + 2 mJ * n - 0.001 mJ * (n - 50) * (n - 50); }
        }"#;
        assert_eq!(check(SPEC, cand, &n_to(100.0)), Compatibility::Unknown);
    }

    #[test]
    fn allowance_is_the_specs_dearest_branch() {
        // Above the spec's cache-hit branch everywhere but n = 0, below its
        // miss branch everywhere.
        let spec = r#"interface s {
            ecv hit: bernoulli(0.9);
            fn op(n) { if ecv(hit) { return 1 mJ; } return 10 mJ + 2 mJ * n; }
        }"#;
        let cand = "interface c { fn op(n) { return 5 mJ + 1 mJ * n; } }";
        assert!(check(spec, cand, &n_to(100.0)).is_compatible());
        // A continuous ECV's dearest value counts as much.
        let spec = "interface s { ecv load: uniform(1.0, 3.0); fn op(n) { return 1 mJ * ecv(load) * n; } }";
        let cand = "interface c { fn op(n) { return 2.5 mJ * n; } }";
        assert!(check(spec, cand, &n_to(100.0)).is_compatible());
    }

    #[test]
    fn candidate_ecv_space_past_the_probe_limit() {
        // 2^13 paths: too many to enumerate at a corner, so nothing is
        // refuted, but the walk still proves what it can.
        let ecvs: String = (0..13)
            .map(|i| format!("ecv b{i}: bernoulli(0.5); "))
            .collect();
        let cand = |dear: &str| {
            format!("interface c {{ {ecvs} fn op(n) {{ if ecv(b0) {{ return {dear}; }} return 1 mJ; }} }}")
        };
        assert!(check(SPEC, &cand("9 mJ + 2 mJ * n"), &n_to(100.0)).is_compatible());
        assert_eq!(
            check(SPEC, &cand("5 mJ + 3 mJ * n"), &n_to(100.0)),
            Compatibility::Unknown
        );
    }

    #[test]
    fn parameter_count_mismatch_rejected() {
        let cand = parse("interface cand { fn op(n, m) { return 1 mJ * n * m; } }").unwrap();
        let spec = parse(SPEC).unwrap();
        assert!(matches!(
            check_compat(&spec, &cand, "op", &n_to(1.0), &Calibration::empty()),
            Err(Error::Incompatible { .. })
        ));
    }

    #[test]
    fn missing_range_rejected() {
        let cand = parse("interface cand { fn op(n) { return 1 mJ; } }").unwrap();
        let spec = parse(SPEC).unwrap();
        assert!(matches!(
            check_compat(&spec, &cand, "op", &InputSpec::new(), &Calibration::empty()),
            Err(Error::BadInput { .. })
        ));
    }

    #[test]
    fn multi_dimensional_grid() {
        let v = check(
            "interface s2 { fn op(a, b) { return 1 mJ * a + 1 mJ * b; } }",
            "interface c2 { fn op(a, b) { return 0.5 mJ * (a + b); } }",
            // Both are 0 mJ at the origin.
            &InputSpec::new().range("a", 0.0, 10.0).range("b", 0.0, 10.0),
        );
        assert!(v.is_compatible(), "{v:?}");
    }
}
