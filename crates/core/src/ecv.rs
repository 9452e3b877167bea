//! Energy-critical variables (ECVs).
//!
//! §3 of the paper: ECVs "are random variables that capture factors about the
//! module or subsystem that influence energy but are not directly related to
//! the input of the interface" — e.g. whether a request is already cached.
//! Because interfaces read ECVs, the return value of an interface is a
//! probability distribution rather than a single number.
//!
//! An ECV is declared with a [`DistSpec`]; at evaluation time an
//! [`EcvEnv`] supplies either the declared distribution (to be sampled) or a
//! pinned observation (for conditioning, path analysis, and testing).

use std::collections::BTreeMap;
use std::fmt;

use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};

use crate::error::{Error, Result};

/// The distribution an ECV is drawn from.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum DistSpec {
    /// A boolean that is `true` with probability `p`.
    Bernoulli {
        /// Probability of `true`, in `[0, 1]`.
        p: f64,
    },
    /// A finite discrete distribution over numeric values.
    Discrete {
        /// `(value, probability)` pairs; probabilities must sum to ~1.
        outcomes: Vec<(f64, f64)>,
    },
    /// A continuous uniform distribution on `[lo, hi]`.
    Uniform {
        /// Inclusive lower bound.
        lo: f64,
        /// Inclusive upper bound.
        hi: f64,
    },
    /// A normal distribution (sampled via Box–Muller).
    Normal {
        /// Mean.
        mean: f64,
        /// Standard deviation (must be non-negative).
        std_dev: f64,
    },
    /// A degenerate distribution that always yields `value`.
    Point {
        /// The constant value.
        value: f64,
    },
}

impl DistSpec {
    /// Validates the distribution's parameters.
    pub fn validate(&self, name: &str) -> Result<()> {
        let bad = |msg: &str| {
            Err(Error::BadDistribution {
                name: name.to_string(),
                msg: msg.to_string(),
            })
        };
        match self {
            DistSpec::Bernoulli { p } => {
                if !(0.0..=1.0).contains(p) {
                    return bad("Bernoulli p must be in [0, 1]");
                }
            }
            DistSpec::Discrete { outcomes } => {
                if outcomes.is_empty() {
                    return bad("discrete distribution needs at least one outcome");
                }
                if outcomes
                    .iter()
                    .any(|(v, p)| !v.is_finite() || !p.is_finite())
                {
                    return bad("discrete values and probabilities must be finite");
                }
                let total: f64 = outcomes.iter().map(|(_, p)| p).sum();
                if outcomes.iter().any(|(_, p)| *p < 0.0) {
                    return bad("discrete probabilities must be non-negative");
                }
                if (total - 1.0).abs() > 1e-6 {
                    return bad("discrete probabilities must sum to 1");
                }
            }
            DistSpec::Uniform { lo, hi } => {
                if !(lo.is_finite() && hi.is_finite()) || lo > hi {
                    return bad("uniform bounds must be finite with lo <= hi");
                }
            }
            DistSpec::Normal { mean, std_dev } => {
                if !mean.is_finite() || !std_dev.is_finite() || *std_dev < 0.0 {
                    return bad("normal needs finite mean and non-negative std dev");
                }
            }
            DistSpec::Point { value } => {
                if !value.is_finite() {
                    return bad("point value must be finite");
                }
            }
        }
        Ok(())
    }

    /// Draws one sample from the distribution.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> EcvValue {
        self.sample_indexed(rng).0
    }

    /// Draws one sample together with its index in [`DistSpec::support`]
    /// (always 0 for `Uniform` and `Normal`, which have no finite
    /// support). This is the one definition of how a distribution
    /// consumes the RNG: [`DistSpec::sample`] and [`EcvSampler::draw`]
    /// both delegate here.
    pub fn sample_indexed<R: RngCore + ?Sized>(&self, rng: &mut R) -> (EcvValue, usize) {
        match self {
            DistSpec::Bernoulli { p } => {
                // `support()` lists `true` first.
                let hit = rng.random::<f64>() < *p;
                (EcvValue::Bool(hit), usize::from(!hit))
            }
            DistSpec::Discrete { outcomes } => {
                let mut u: f64 = rng.random();
                for (i, (v, p)) in outcomes.iter().enumerate() {
                    if u < *p {
                        return (EcvValue::Num(*v), i);
                    }
                    u -= p;
                }
                // Numeric slack: fall back to the final outcome.
                match outcomes.last() {
                    Some((v, _)) => (EcvValue::Num(*v), outcomes.len() - 1),
                    None => (EcvValue::Num(0.0), 0),
                }
            }
            DistSpec::Uniform { lo, hi } => {
                (EcvValue::Num(lo + (hi - lo) * rng.random::<f64>()), 0)
            }
            DistSpec::Normal { mean, std_dev } => {
                // Box–Muller transform; `u1` kept away from 0 for a finite log.
                let u1: f64 = rng.random::<f64>().max(1e-300);
                let u2: f64 = rng.random();
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                (EcvValue::Num(mean + std_dev * z), 0)
            }
            DistSpec::Point { value } => (EcvValue::Num(*value), 0),
        }
    }

    /// How many distinct indices [`DistSpec::sample_indexed`] can return:
    /// the size of the finite support, or `None` for `Uniform`/`Normal`.
    /// An empty `Discrete` (invalid, but constructible) draws index 0, so
    /// it counts as 1.
    fn index_count(&self) -> Option<usize> {
        match self {
            DistSpec::Bernoulli { .. } => Some(2),
            DistSpec::Discrete { outcomes } => Some(outcomes.len().max(1)),
            DistSpec::Point { .. } => Some(1),
            DistSpec::Uniform { .. } | DistSpec::Normal { .. } => None,
        }
    }

    /// The finite support of the distribution, if it has one.
    ///
    /// Used by exact enumeration and path analysis: Bernoulli and Discrete
    /// ECVs can be enumerated; Uniform/Normal cannot (returns `None`).
    /// Point distributions have a single-element support.
    pub fn support(&self) -> Option<Vec<(EcvValue, f64)>> {
        match self {
            DistSpec::Bernoulli { p } => Some(vec![
                (EcvValue::Bool(true), *p),
                (EcvValue::Bool(false), 1.0 - p),
            ]),
            DistSpec::Discrete { outcomes } => Some(
                outcomes
                    .iter()
                    .map(|(v, p)| (EcvValue::Num(*v), *p))
                    .collect(),
            ),
            DistSpec::Point { value } => Some(vec![(EcvValue::Num(*value), 1.0)]),
            DistSpec::Uniform { .. } | DistSpec::Normal { .. } => None,
        }
    }

    /// The mean of the distribution (`true` counts as 1 for Bernoulli).
    pub fn mean(&self) -> f64 {
        match self {
            DistSpec::Bernoulli { p } => *p,
            DistSpec::Discrete { outcomes } => outcomes.iter().map(|(v, p)| v * p).sum(),
            DistSpec::Uniform { lo, hi } => 0.5 * (lo + hi),
            DistSpec::Normal { mean, .. } => *mean,
            DistSpec::Point { value } => *value,
        }
    }

    /// A worst-case (maximal) observation, used by upper-bound analysis.
    ///
    /// For unbounded distributions (Normal) this takes mean + 6 sigma.
    pub fn upper_bound(&self) -> EcvValue {
        match self {
            DistSpec::Bernoulli { .. } => EcvValue::Bool(true),
            DistSpec::Discrete { outcomes } => EcvValue::Num(
                outcomes
                    .iter()
                    .map(|(v, _)| *v)
                    .fold(f64::NEG_INFINITY, f64::max),
            ),
            DistSpec::Uniform { hi, .. } => EcvValue::Num(*hi),
            DistSpec::Normal { mean, std_dev } => EcvValue::Num(mean + 6.0 * std_dev),
            DistSpec::Point { value } => EcvValue::Num(*value),
        }
    }
}

impl fmt::Display for DistSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistSpec::Bernoulli { p } => write!(f, "bernoulli({p})"),
            DistSpec::Discrete { outcomes } => {
                write!(f, "discrete(")?;
                for (i, (v, p)) in outcomes.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}: {p}")?;
                }
                write!(f, ")")
            }
            DistSpec::Uniform { lo, hi } => write!(f, "uniform({lo}, {hi})"),
            DistSpec::Normal { mean, std_dev } => write!(f, "normal({mean}, {std_dev})"),
            DistSpec::Point { value } => write!(f, "point({value})"),
        }
    }
}

/// A sampled or pinned ECV observation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum EcvValue {
    /// A boolean observation (from a Bernoulli ECV).
    Bool(bool),
    /// A numeric observation.
    Num(f64),
}

impl EcvValue {
    /// The observation as a number (`true` = 1, `false` = 0).
    pub fn as_num(self) -> f64 {
        match self {
            EcvValue::Bool(b) => {
                if b {
                    1.0
                } else {
                    0.0
                }
            }
            EcvValue::Num(n) => n,
        }
    }
}

impl fmt::Display for EcvValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EcvValue::Bool(b) => write!(f, "{b}"),
            EcvValue::Num(n) => write!(f, "{n}"),
        }
    }
}

/// Declaration of one ECV: its distribution plus a human-readable note.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EcvDecl {
    /// The declared distribution.
    pub dist: DistSpec,
    /// Documentation string, e.g. "request found in cache".
    pub doc: String,
}

/// Binding of ECV names to distributions or pinned observations.
///
/// Evaluation samples unpinned ECVs once per top-level invocation, so every
/// read of the same ECV within one invocation sees the same value (they model
/// *state*, not repeated coin flips).
#[derive(Debug, Clone, Default)]
pub struct EcvEnv {
    pub(crate) decls: BTreeMap<String, EcvDecl>,
    pub(crate) pinned: BTreeMap<String, EcvValue>,
}

impl EcvEnv {
    /// An environment with no declarations.
    pub fn new() -> Self {
        EcvEnv::default()
    }

    /// Builds an environment from an interface's declarations.
    pub fn from_decls(decls: &BTreeMap<String, EcvDecl>) -> Self {
        EcvEnv {
            decls: decls.clone(),
            pinned: BTreeMap::new(),
        }
    }

    /// Declares (or replaces) one ECV.
    pub fn declare(&mut self, name: impl Into<String>, decl: EcvDecl) {
        self.decls.insert(name.into(), decl);
    }

    /// Pins an ECV to a concrete observation, overriding its distribution.
    pub fn pin(&mut self, name: impl Into<String>, value: EcvValue) {
        self.pinned.insert(name.into(), value);
    }

    /// Pins a boolean ECV.
    pub fn pin_bool(&mut self, name: impl Into<String>, value: bool) {
        self.pin(name, EcvValue::Bool(value));
    }

    /// Pins a numeric ECV.
    pub fn pin_num(&mut self, name: impl Into<String>, value: f64) {
        self.pin(name, EcvValue::Num(value));
    }

    /// Removes a pin, restoring the declared distribution.
    pub fn unpin(&mut self, name: &str) {
        self.pinned.remove(name);
    }

    /// The declaration for `name`, if any.
    pub fn decl(&self, name: &str) -> Option<&EcvDecl> {
        self.decls.get(name)
    }

    /// The pinned observation for `name`, if any.
    pub fn pinned(&self, name: &str) -> Option<EcvValue> {
        self.pinned.get(name).copied()
    }

    /// Iterates over all declared ECV names.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.decls.keys().map(String::as_str)
    }

    /// Draws one complete assignment: pinned values kept, the rest sampled.
    pub fn sample_assignment<R: Rng + ?Sized>(&self, rng: &mut R) -> BTreeMap<String, EcvValue> {
        let mut out = BTreeMap::new();
        for (name, decl) in &self.decls {
            let v = match self.pinned.get(name) {
                Some(v) => *v,
                None => decl.dist.sample(rng),
            };
            out.insert(name.clone(), v);
        }
        out
    }

    /// The slot of `name` in an [`EcvSampler`] built from this
    /// environment (its position among the declared names), if declared.
    pub(crate) fn slot_of(&self, name: &str) -> Option<usize> {
        self.decls.keys().position(|k| k == name)
    }

    /// Flattens the environment for a sampling loop; see [`EcvSampler`].
    pub fn sampler(&self) -> EcvSampler<'_> {
        let sources: Vec<_> = self
            .decls
            .iter()
            .map(|(name, decl)| match self.pinned.get(name) {
                Some(v) => (Source::Pinned(*v), Some(1)),
                None => (Source::Drawn(&decl.dist), decl.dist.index_count()),
            })
            .collect();
        let space = sources
            .iter()
            .try_fold(1usize, |n, (_, size)| n.checked_mul((*size)?));
        // Mixed radix, first slot most significant; all zero (every draw
        // is index 0) when the space is not finite.
        let mut strides = vec![0; sources.len()];
        if space.is_some() {
            let mut stride = 1;
            for (s, (_, size)) in strides.iter_mut().zip(&sources).rev() {
                *s = stride;
                stride *= size.unwrap_or(1);
            }
        }
        EcvSampler {
            slots: sources
                .into_iter()
                .zip(strides)
                .map(|((source, _), stride)| Slot { source, stride })
                .collect(),
            space,
        }
    }

    /// Enumerates every assignment over the unpinned finite-support ECVs.
    ///
    /// Returns `(assignment, probability)` pairs, or an error if any unpinned
    /// ECV has infinite support or the product space exceeds `limit`.
    pub fn enumerate_assignments(
        &self,
        limit: usize,
    ) -> Result<Vec<(BTreeMap<String, EcvValue>, f64)>> {
        let mut space: Vec<(BTreeMap<String, EcvValue>, f64)> = vec![(BTreeMap::new(), 1.0)];
        for (name, decl) in &self.decls {
            if let Some(v) = self.pinned.get(name) {
                for (a, _) in &mut space {
                    a.insert(name.clone(), *v);
                }
                continue;
            }
            let support = decl.dist.support().ok_or_else(|| Error::Analysis {
                msg: format!(
                    "ECV `{name}` has continuous distribution {}; pin it or use Monte Carlo",
                    decl.dist
                ),
            })?;
            let mut next = Vec::with_capacity(space.len() * support.len());
            for (a, p) in &space {
                for (v, q) in &support {
                    if p * q == 0.0 {
                        continue;
                    }
                    let mut a2 = a.clone();
                    a2.insert(name.clone(), *v);
                    next.push((a2, p * q));
                }
            }
            if next.len() > limit {
                return Err(Error::Analysis {
                    msg: format!("ECV assignment space exceeds limit {limit} (at ECV `{name}`)"),
                });
            }
            space = next;
        }
        Ok(space)
    }
}

/// An [`EcvEnv`] flattened once per sampling call: one slot per declared
/// ECV in name order, pins resolved, names dropped. A draw walks a flat
/// slice instead of the environment's maps, and also returns the
/// assignment's index in the finite assignment space, so a caller can
/// memoize per assignment without hashing it.
#[derive(Debug, Clone)]
pub struct EcvSampler<'e> {
    slots: Vec<Slot<'e>>,
    space: Option<usize>,
}

#[derive(Debug, Clone, Copy)]
struct Slot<'e> {
    source: Source<'e>,
    /// Weight of this slot's support index in the assignment index.
    stride: usize,
}

#[derive(Debug, Clone, Copy)]
enum Source<'e> {
    Pinned(EcvValue),
    Drawn(&'e DistSpec),
}

impl EcvSampler<'_> {
    /// Number of slots, i.e. declared ECVs.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the environment declares no ECV.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The number of distinct assignments a draw can produce: the product
    /// of the slots' support sizes (a pinned slot counts 1). `None` when a
    /// slot is continuous or the product overflows `usize`.
    pub fn space(&self) -> Option<usize> {
        self.space
    }

    /// Draws one complete assignment into `values`, one value per slot in
    /// name order, consuming the RNG exactly as
    /// [`EcvEnv::sample_assignment`] does. Returns the assignment's
    /// mixed-radix index below [`EcvSampler::space`]: two draws get the
    /// same index exactly when every slot drew the same support index.
    /// When the space is not finite the index is always 0.
    ///
    /// # Panics
    ///
    /// If `values.len()` differs from [`EcvSampler::len`].
    pub fn draw<R: RngCore + ?Sized>(&self, rng: &mut R, values: &mut [EcvValue]) -> usize {
        assert_eq!(values.len(), self.slots.len(), "one value per slot");
        let mut index = 0;
        for (slot, out) in self.slots.iter().zip(values) {
            let (v, i) = match slot.source {
                Source::Pinned(v) => (v, 0),
                Source::Drawn(dist) => dist.sample_indexed(rng),
            };
            *out = v;
            index += i * slot.stride;
        }
        index
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn bernoulli_sampling_matches_p() {
        let d = DistSpec::Bernoulli { p: 0.3 };
        let mut r = rng();
        let n = 20_000;
        let hits = (0..n)
            .filter(|_| matches!(d.sample(&mut r), EcvValue::Bool(true)))
            .count();
        let freq = hits as f64 / n as f64;
        assert!((freq - 0.3).abs() < 0.02, "freq={freq}");
    }

    #[test]
    fn discrete_sampling_matches_probs() {
        let d = DistSpec::Discrete {
            outcomes: vec![(1.0, 0.5), (2.0, 0.25), (4.0, 0.25)],
        };
        let mut r = rng();
        let n = 40_000;
        let mean: f64 = (0..n).map(|_| d.sample(&mut r).as_num()).sum::<f64>() / n as f64;
        // E[X] = 0.5 + 0.5 + 1.0 = 2.0.
        assert!((mean - 2.0).abs() < 0.05, "mean={mean}");
    }

    #[test]
    fn uniform_sample_in_range() {
        let d = DistSpec::Uniform { lo: 3.0, hi: 7.0 };
        let mut r = rng();
        for _ in 0..1000 {
            let v = d.sample(&mut r).as_num();
            assert!((3.0..=7.0).contains(&v));
        }
    }

    #[test]
    fn normal_sample_mean_and_spread() {
        let d = DistSpec::Normal {
            mean: 10.0,
            std_dev: 2.0,
        };
        let mut r = rng();
        let n = 40_000;
        let xs: Vec<f64> = (0..n).map(|_| d.sample(&mut r).as_num()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean={mean}");
        assert!((var - 4.0).abs() < 0.2, "var={var}");
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(DistSpec::Bernoulli { p: 1.5 }.validate("x").is_err());
        assert!(DistSpec::Discrete { outcomes: vec![] }
            .validate("x")
            .is_err());
        assert!(DistSpec::Discrete {
            outcomes: vec![(1.0, 0.4), (2.0, 0.4)]
        }
        .validate("x")
        .is_err());
        assert!(DistSpec::Uniform { lo: 2.0, hi: 1.0 }
            .validate("x")
            .is_err());
        assert!(DistSpec::Normal {
            mean: 0.0,
            std_dev: -1.0
        }
        .validate("x")
        .is_err());
        assert!(DistSpec::Point {
            value: f64::INFINITY
        }
        .validate("x")
        .is_err());
        assert!(DistSpec::Point { value: 3.0 }.validate("x").is_ok());
    }

    /// `1e999` lexes to infinity; a `Discrete` used to accept it (and NaN)
    /// and then report an infinite expected energy.
    #[test]
    fn discrete_validation_rejects_non_finite_outcomes() {
        for outcomes in [
            vec![(f64::INFINITY, 0.5), (2.0, 0.5)],
            vec![(f64::NEG_INFINITY, 1.0)],
            vec![(f64::NAN, 0.5), (2.0, 0.5)],
            vec![(1.0, f64::NAN), (2.0, 1.0)],
            vec![(1.0, f64::INFINITY), (2.0, f64::NEG_INFINITY)],
        ] {
            let err = DistSpec::Discrete {
                outcomes: outcomes.clone(),
            }
            .validate("x")
            .unwrap_err();
            assert!(
                matches!(&err, Error::BadDistribution { msg, .. } if msg.contains("finite")),
                "{outcomes:?}: {err}"
            );
        }
        assert!(DistSpec::Discrete {
            outcomes: vec![(1e300, 0.5), (-1e300, 0.5)]
        }
        .validate("x")
        .is_ok());
    }

    #[test]
    fn support_and_bounds() {
        let b = DistSpec::Bernoulli { p: 0.2 };
        let s = b.support().unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(b.upper_bound(), EcvValue::Bool(true));
        assert_eq!(
            DistSpec::Uniform { lo: 0.0, hi: 5.0 }.upper_bound(),
            EcvValue::Num(5.0)
        );
        assert!(DistSpec::Normal {
            mean: 0.0,
            std_dev: 1.0
        }
        .support()
        .is_none());
        assert_eq!(DistSpec::Point { value: 2.0 }.mean(), 2.0);
    }

    #[test]
    fn pinning_overrides_distribution() {
        let mut env = EcvEnv::new();
        env.declare(
            "hit",
            EcvDecl {
                dist: DistSpec::Bernoulli { p: 0.0 },
                doc: String::new(),
            },
        );
        env.pin_bool("hit", true);
        let a = env.sample_assignment(&mut rng());
        assert_eq!(a["hit"], EcvValue::Bool(true));
        env.unpin("hit");
        let a = env.sample_assignment(&mut rng());
        assert_eq!(a["hit"], EcvValue::Bool(false));
    }

    #[test]
    fn enumerate_assignments_products() {
        let mut env = EcvEnv::new();
        env.declare(
            "a",
            EcvDecl {
                dist: DistSpec::Bernoulli { p: 0.5 },
                doc: String::new(),
            },
        );
        env.declare(
            "b",
            EcvDecl {
                dist: DistSpec::Discrete {
                    outcomes: vec![(1.0, 0.25), (2.0, 0.75)],
                },
                doc: String::new(),
            },
        );
        let asg = env.enumerate_assignments(100).unwrap();
        assert_eq!(asg.len(), 4);
        let total: f64 = asg.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn enumerate_respects_limit_and_continuity() {
        let mut env = EcvEnv::new();
        for i in 0..12 {
            env.declare(
                format!("e{i}"),
                EcvDecl {
                    dist: DistSpec::Bernoulli { p: 0.5 },
                    doc: String::new(),
                },
            );
        }
        assert!(env.enumerate_assignments(100).is_err());
        assert_eq!(env.enumerate_assignments(5000).unwrap().len(), 4096);

        let mut env2 = EcvEnv::new();
        env2.declare(
            "u",
            EcvDecl {
                dist: DistSpec::Uniform { lo: 0.0, hi: 1.0 },
                doc: String::new(),
            },
        );
        assert!(env2.enumerate_assignments(100).is_err());
        env2.pin_num("u", 0.5);
        assert_eq!(env2.enumerate_assignments(100).unwrap().len(), 1);
    }

    #[test]
    fn zero_probability_branches_pruned() {
        let mut env = EcvEnv::new();
        env.declare(
            "a",
            EcvDecl {
                dist: DistSpec::Bernoulli { p: 1.0 },
                doc: String::new(),
            },
        );
        let asg = env.enumerate_assignments(10).unwrap();
        assert_eq!(asg.len(), 1);
        assert_eq!(asg[0].0["a"], EcvValue::Bool(true));
    }
}
