//! Worst-case energy bounds.
//!
//! §4.1: during the interface→implementation workflow "a module's energy
//! interface provides upper-bound requirements on energy consumption". This
//! module computes a sound upper (and lower) bound on the energy an
//! interface can report over a declared input space, via the interval
//! abstract interpreter.

use crate::analysis::interval::{abstract_eval, abstract_inputs, AbsValue, Interval};
use crate::error::Result;
use crate::interface::{InputSpec, Interface};
use crate::units::{Calibration, Energy};

/// A sound bound on the energy of one interface function.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct EnergyBound {
    /// No execution consumes less than this.
    pub lower: Energy,
    /// No execution consumes more than this.
    pub upper: Energy,
}

impl EnergyBound {
    /// Width of the bound.
    pub fn width(&self) -> Energy {
        self.upper - self.lower
    }

    /// True when the bound admits `e`.
    pub fn admits(&self, e: Energy) -> bool {
        e >= self.lower && e <= self.upper
    }
}

/// Computes a sound energy bound for `iface.func` over `spec`'s input space.
///
/// ECVs range over their declared distributions; abstract units are reduced
/// to Joules via `cal`.
pub fn worst_case(
    iface: &Interface,
    func: &str,
    spec: &InputSpec,
    cal: &Calibration,
) -> Result<EnergyBound> {
    let args = abstract_inputs(iface, func, spec)?;
    worst_case_with_args(iface, func, &args, cal)
}

/// Like [`worst_case`], with explicitly constructed abstract arguments.
pub fn worst_case_with_args(
    iface: &Interface,
    func: &str,
    args: &[AbsValue],
    cal: &Calibration,
) -> Result<EnergyBound> {
    energy_bound(&abstract_eval(iface, func, args)?, cal)
}

/// The energy bound of an abstract result under `cal`.
pub(crate) fn energy_bound(out: &AbsValue, cal: &Calibration) -> Result<EnergyBound> {
    let e = out.as_energy()?;
    Ok(EnergyBound {
        lower: e.lower_bound(cal)?,
        upper: e.upper_bound(cal)?,
    })
}

/// Computes the worst-case energy for a single concrete numeric input.
///
/// Convenience for sweep-style checks: every parameter is a scalar point.
pub fn worst_case_at(
    iface: &Interface,
    func: &str,
    point: &[f64],
    cal: &Calibration,
) -> Result<EnergyBound> {
    let args: Vec<AbsValue> = point
        .iter()
        .map(|v| AbsValue::Num(Interval::point(*v)))
        .collect();
    worst_case_with_args(iface, func, &args, cal)
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::interp::{evaluate_energy, EvalConfig};
    use crate::parser::parse;
    use crate::value::Value;

    fn iface() -> Interface {
        parse(
            r#"interface svc {
                ecv hit: bernoulli(0.5);
                fn handle(n) {
                    let base = 10 mJ;
                    if ecv(hit) { return base; }
                    else { return base + 2 mJ * n; }
                }
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn bound_covers_both_branches_and_input_range() {
        let spec = InputSpec::new().range("n", 0.0, 100.0);
        let b = worst_case(&iface(), "handle", &spec, &Calibration::empty()).unwrap();
        assert!((b.lower.as_joules() - 0.010).abs() < 1e-12);
        assert!((b.upper.as_joules() - 0.210).abs() < 1e-12);
        assert!((b.width().as_joules() - 0.2).abs() < 1e-12);
        assert!(b.admits(Energy::millijoules(50.0)));
        assert!(!b.admits(Energy::millijoules(211.0)));
    }

    #[test]
    fn bound_is_sound_against_sampling() {
        // Every concrete execution must land inside the bound.
        let i = iface();
        let spec = InputSpec::new().range("n", 0.0, 100.0);
        let b = worst_case(&i, "handle", &spec, &Calibration::empty()).unwrap();
        let env = i.ecv_env();
        let cfg = EvalConfig::default();
        for k in 0..200 {
            let n = (k as f64) / 2.0;
            let e = evaluate_energy(&i, "handle", &[Value::Num(n)], &env, k, &cfg).unwrap();
            assert!(
                b.admits(e),
                "sample {e} outside bound [{}, {}]",
                b.lower,
                b.upper
            );
        }
    }

    #[test]
    fn worst_case_at_point() {
        let b = worst_case_at(&iface(), "handle", &[50.0], &Calibration::empty()).unwrap();
        assert!((b.upper.as_joules() - 0.110).abs() < 1e-12);
        assert!((b.lower.as_joules() - 0.010).abs() < 1e-12);
    }

    #[test]
    fn loops_bound_scales_with_input() {
        let i = parse(
            r#"interface s {
                fn f(n) {
                    let acc = 0 J;
                    for t in 0..n { acc = acc + 1 mJ; }
                    return acc;
                }
            }"#,
        )
        .unwrap();
        let spec = InputSpec::new().range("n", 10.0, 20.0);
        let b = worst_case(&i, "f", &spec, &Calibration::empty()).unwrap();
        assert!((b.lower.as_joules() - 0.010).abs() < 1e-12);
        assert!((b.upper.as_joules() - 0.020).abs() < 1e-12);
    }
}
