//! Constant-energy (side-channel freedom) checking.
//!
//! §4.1: "There might be situations in which additional constraints would
//! need to be expressed, such as constant-energy execution for crypto code,
//! to explicitly disallow energy side-channels — a mere upper bound is not
//! sufficient for this." This module checks whether an interface function
//! consumes the same energy for *every* input in its declared space and
//! every ECV outcome.
//!
//! Strategy: first the sound interval analysis — if the abstract result is a
//! point (within tolerance), the function is proven constant-energy. If the
//! interval is wide, a deterministic probe hunts for a counterexample: every
//! point of [`cert`](crate::analysis::cert)'s probe grid over the declared
//! inputs, with every ECV path enumerated there ([`probe_paths`]). If the
//! cheapest and dearest executions found differ, the verdict is a definite
//! "leaky" with both as the witness, otherwise it stays "unknown" (the
//! abstraction was too coarse to prove either way). So does an interface
//! whose ECV space is too large to enumerate at a probe point.

use crate::analysis::cert::{args_at, axes_for, probe_grid};
use crate::analysis::paths::probe_paths;
use crate::analysis::worst_case::worst_case;
use crate::error::{Error, Result};
use crate::interface::{InputSpec, Interface};
use crate::interp::EvalConfig;
use crate::units::{Calibration, Energy};

/// The verdict of a constant-energy check.
#[derive(Debug, Clone, PartialEq)]
pub enum ConstantEnergy {
    /// Proven: all executions consume the same energy (within tolerance).
    Constant {
        /// The constant energy value.
        energy: Energy,
    },
    /// Disproven: two concrete executions with different energies exist.
    Leaky {
        /// Inputs (one scalar per probe axis) of the cheaper execution.
        input_lo: Vec<f64>,
        /// Energy of the cheaper execution.
        energy_lo: Energy,
        /// Inputs of the more expensive execution.
        input_hi: Vec<f64>,
        /// Energy of the more expensive execution.
        energy_hi: Energy,
    },
    /// The interval analysis was inconclusive and the probe found no
    /// counterexample.
    Unknown {
        /// Width of the abstract energy interval that blocked the proof.
        interval_width: Energy,
    },
}

impl ConstantEnergy {
    /// True only for a proven-constant verdict.
    pub fn is_constant(&self) -> bool {
        matches!(self, ConstantEnergy::Constant { .. })
    }

    /// True only for a disproven (leaky) verdict.
    pub fn is_leaky(&self) -> bool {
        matches!(self, ConstantEnergy::Leaky { .. })
    }
}

/// Checks whether `iface.func` is constant-energy over `spec`.
///
/// `tolerance` absorbs floating-point noise. Every scalar parameter needs
/// a declared range, and every record parameter one per field; a
/// [`Leaky`] witness lists one input per probe axis (see
/// [`crate::analysis::cert::axes_for`]).
///
/// [`Leaky`]: ConstantEnergy::Leaky
pub fn check_constant_energy(
    iface: &Interface,
    func: &str,
    spec: &InputSpec,
    cal: &Calibration,
    tolerance: Energy,
) -> Result<ConstantEnergy> {
    // Phase 1: sound proof attempt.
    let bound = worst_case(iface, func, spec, cal)?;
    if bound.width().as_joules().abs() <= tolerance.as_joules() {
        return Ok(ConstantEnergy::Constant {
            energy: bound.upper,
        });
    }

    // Phase 2: counterexample hunt over the probe grid and every ECV path.
    let axes = axes_for(iface, func, spec).ok_or_else(|| Error::BadInput {
        msg: format!("a parameter of `{func}` has no declared range"),
    })?;
    let arity = iface.get_fn(func)?.params.len();
    let cfg = EvalConfig {
        calibration: cal.clone(),
        ..EvalConfig::default()
    };
    let mut lo: Option<(Vec<f64>, Energy)> = None;
    let mut hi: Option<(Vec<f64>, Energy)> = None;
    for point in probe_grid(&axes) {
        let args = args_at(&axes, arity, &point);
        let input: Vec<f64> = axes.iter().zip(&point).map(|(a, &k)| a.points[k]).collect();
        let Some(profiles) = probe_paths(iface, func, &args, &cfg)? else {
            // The ECV space is too large to enumerate at any point.
            return Ok(ConstantEnergy::Unknown {
                interval_width: bound.width(),
            });
        };
        for profile in profiles {
            for path in &profile.paths {
                if lo.as_ref().is_none_or(|(_, le)| path.energy < *le) {
                    lo = Some((input.clone(), path.energy));
                }
                if hi.as_ref().is_none_or(|(_, he)| path.energy > *he) {
                    hi = Some((input.clone(), path.energy));
                }
            }
        }
    }
    if let (Some((input_lo, energy_lo)), Some((input_hi, energy_hi))) = (lo, hi) {
        if (energy_hi - energy_lo).as_joules() > tolerance.as_joules() {
            return Ok(ConstantEnergy::Leaky {
                input_lo,
                energy_lo,
                input_hi,
                energy_hi,
            });
        }
    }
    Ok(ConstantEnergy::Unknown {
        interval_width: bound.width(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    /// Checks `func` of the interface `src` over `param ∈ [0, hi]`.
    fn check(src: &str, func: &str, (param, hi): (&str, f64), tol: Energy) -> ConstantEnergy {
        let spec = InputSpec::new().range(param, 0.0, hi);
        let i = parse(src).unwrap();
        check_constant_energy(&i, func, &spec, &Calibration::empty(), tol).unwrap()
    }

    #[test]
    fn constant_time_compare_is_proven_constant() {
        // A fixed-iteration compare: energy depends only on the (fixed)
        // buffer length, never on the data.
        let v = check(
            r#"interface crypto {
                fn ct_compare(len) {
                    let acc = 0 J;
                    for b in 0..32 { acc = acc + 3 nJ; }
                    return acc;
                }
            }"#,
            "ct_compare",
            ("len", 1024.0),
            Energy::picojoules(1.0),
        );
        match v {
            ConstantEnergy::Constant { energy } => {
                assert!((energy.as_joules() - 96e-9).abs() < 1e-15);
            }
            other => panic!("expected constant, got {other:?}"),
        }
    }

    #[test]
    fn early_exit_compare_is_leaky() {
        // Early-exit compare: energy scales with the match prefix length.
        let v = check(
            r#"interface crypto {
                fn leaky_compare(prefix) {
                    let acc = 1 nJ;
                    for b in 0..prefix { acc = acc + 3 nJ; }
                    return acc;
                }
            }"#,
            "leaky_compare",
            ("prefix", 32.0),
            Energy::picojoules(1.0),
        );
        match v {
            ConstantEnergy::Leaky {
                energy_lo,
                energy_hi,
                ..
            } => {
                assert!(energy_hi > energy_lo);
            }
            other => panic!("expected leaky, got {other:?}"),
        }
        assert!(v.is_leaky());
        assert!(!v.is_constant());
    }

    #[test]
    fn ecv_dependent_energy_is_leaky() {
        let v = check(
            r#"interface c {
                ecv cached: bernoulli(0.5);
                fn f(x) {
                    if ecv(cached) { return 1 nJ; } else { return 9 nJ; }
                }
            }"#,
            "f",
            ("x", 1.0),
            Energy::picojoules(1.0),
        );
        assert!(v.is_leaky(), "got {v:?}");
    }

    #[test]
    fn ecv_space_past_the_probe_limit_is_unknown() {
        // 2^13 paths: more than a probe enumerates.
        let ecvs: String = (0..13)
            .map(|i| format!("ecv b{i}: bernoulli(0.5); "))
            .collect();
        let v = check(
            &format!(
                "interface c {{ {ecvs} fn f(x) {{ if ecv(b0) {{ return 1 nJ; }} return 9 nJ; }} }}"
            ),
            "f",
            ("x", 1.0),
            Energy::picojoules(1.0),
        );
        assert!(matches!(v, ConstantEnergy::Unknown { .. }), "got {v:?}");
    }

    #[test]
    fn tolerance_absorbs_noise() {
        let v = check(
            r#"interface c {
                fn f(x) {
                    if x > 0.5 { return 1.0000001 nJ; } else { return 1 nJ; }
                }
            }"#,
            "f",
            ("x", 1.0),
            Energy::nanojoules(0.001),
        );
        assert!(v.is_constant(), "got {v:?}");
    }
}
