//! Energy distributions.
//!
//! Because interfaces read ECVs, "the return value of the energy interface
//! then is to be treated as a probability distribution" (§3). An
//! [`EnergyDist`] is that return value: either an exact finite mixture
//! (from enumerating discrete ECV spaces) or an empirical sample set (from
//! Monte Carlo over continuous ECVs).

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::units::Energy;

/// A probability distribution over energy values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EnergyDist {
    /// An exact finite mixture of `(energy, probability)` outcomes.
    Mixture(Vec<(Energy, f64)>),
    /// An empirical distribution of equally weighted samples.
    Empirical(Vec<Energy>),
}

impl EnergyDist {
    /// A distribution that is always exactly `e`.
    pub fn point(e: Energy) -> Self {
        EnergyDist::Mixture(vec![(e, 1.0)])
    }

    /// Builds an exact mixture, merging outcomes with equal energy.
    ///
    /// Outcomes with zero probability are dropped; the rest are sorted by
    /// energy so mixtures compare structurally.
    pub fn mixture(outcomes: impl IntoIterator<Item = (Energy, f64)>) -> Self {
        let mut v: Vec<(Energy, f64)> = outcomes.into_iter().filter(|(_, p)| *p > 0.0).collect();
        v.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        let mut merged: Vec<(Energy, f64)> = Vec::with_capacity(v.len());
        for (e, p) in v {
            match merged.last_mut() {
                Some((le, lp)) if (le.as_joules() - e.as_joules()).abs() < f64::EPSILON => {
                    *lp += p;
                }
                _ => merged.push((e, p)),
            }
        }
        EnergyDist::Mixture(merged)
    }

    /// Builds an empirical distribution from samples.
    pub fn empirical(samples: Vec<Energy>) -> Self {
        EnergyDist::Empirical(samples)
    }

    /// Number of distinct outcomes / samples backing the distribution.
    pub fn len(&self) -> usize {
        match self {
            EnergyDist::Mixture(v) => v.len(),
            EnergyDist::Empirical(v) => v.len(),
        }
    }

    /// True when the distribution has no outcomes (degenerate).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The mean (expected) energy.
    pub fn mean(&self) -> Energy {
        match self {
            EnergyDist::Mixture(v) => {
                let total_p: f64 = v.iter().map(|(_, p)| p).sum();
                if total_p == 0.0 {
                    return Energy::ZERO;
                }
                Energy(v.iter().map(|(e, p)| e.as_joules() * p).sum::<f64>() / total_p)
            }
            EnergyDist::Empirical(v) => {
                if v.is_empty() {
                    return Energy::ZERO;
                }
                Energy(v.iter().map(|e| e.as_joules()).sum::<f64>() / v.len() as f64)
            }
        }
    }

    /// The variance of the energy, in Joules squared.
    pub fn variance(&self) -> f64 {
        let m = self.mean().as_joules();
        match self {
            EnergyDist::Mixture(v) => {
                let total_p: f64 = v.iter().map(|(_, p)| p).sum();
                if total_p == 0.0 {
                    return 0.0;
                }
                v.iter()
                    .map(|(e, p)| p * (e.as_joules() - m).powi(2))
                    .sum::<f64>()
                    / total_p
            }
            EnergyDist::Empirical(v) => {
                if v.is_empty() {
                    return 0.0;
                }
                v.iter().map(|e| (e.as_joules() - m).powi(2)).sum::<f64>() / v.len() as f64
            }
        }
    }

    /// The standard deviation of the energy, in Joules.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// The smallest possible energy (minimum of support / samples); zero
    /// for an empty distribution. An infinite outcome is reported as such.
    pub fn min(&self) -> Energy {
        self.fold_energy(f64::INFINITY, f64::min)
    }

    /// The largest possible energy (maximum of support / samples); zero
    /// for an empty distribution. An infinite outcome is reported as such.
    pub fn max(&self) -> Energy {
        self.fold_energy(f64::NEG_INFINITY, f64::max)
    }

    fn fold_energy(&self, init: f64, f: fn(f64, f64) -> f64) -> Energy {
        if self.is_empty() {
            return Energy::ZERO;
        }
        Energy(match self {
            EnergyDist::Mixture(v) => v.iter().map(|(e, _)| e.as_joules()).fold(init, f),
            EnergyDist::Empirical(v) => v.iter().map(|e| e.as_joules()).fold(init, f),
        })
    }

    /// The `q`-quantile (`q` in `[0, 1]`), by linear search over the CDF.
    pub fn quantile(&self, q: f64) -> Energy {
        let q = q.clamp(0.0, 1.0);
        match self {
            EnergyDist::Mixture(v) => {
                if v.is_empty() {
                    return Energy::ZERO;
                }
                let total_p: f64 = v.iter().map(|(_, p)| p).sum();
                let mut acc = 0.0;
                for (e, p) in v {
                    acc += p / total_p;
                    if acc >= q {
                        return *e;
                    }
                }
                v.last().map(|(e, _)| *e).unwrap_or(Energy::ZERO)
            }
            EnergyDist::Empirical(v) => {
                if v.is_empty() {
                    return Energy::ZERO;
                }
                let mut sorted: Vec<f64> = v.iter().map(|e| e.as_joules()).collect();
                sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
                let idx = ((q * (sorted.len() - 1) as f64).round() as usize).min(sorted.len() - 1);
                Energy(sorted[idx])
            }
        }
    }

    /// True when all outcomes are (numerically) a single energy value.
    pub fn is_deterministic(&self, tolerance: Energy) -> bool {
        (self.max() - self.min()).as_joules().abs() <= tolerance.as_joules()
    }

    /// The probability that the energy exceeds `threshold`.
    pub fn prob_exceeds(&self, threshold: Energy) -> f64 {
        match self {
            EnergyDist::Mixture(v) => {
                let total_p: f64 = v.iter().map(|(_, p)| p).sum();
                if total_p == 0.0 {
                    return 0.0;
                }
                v.iter()
                    .filter(|(e, _)| *e > threshold)
                    .map(|(_, p)| p)
                    .sum::<f64>()
                    / total_p
            }
            EnergyDist::Empirical(v) => {
                if v.is_empty() {
                    return 0.0;
                }
                v.iter().filter(|e| **e > threshold).count() as f64 / v.len() as f64
            }
        }
    }

    /// Scales every outcome by `k` (e.g. per-request → per-batch energy).
    pub fn scaled(&self, k: f64) -> EnergyDist {
        match self {
            EnergyDist::Mixture(v) => {
                EnergyDist::Mixture(v.iter().map(|(e, p)| (*e * k, *p)).collect())
            }
            EnergyDist::Empirical(v) => EnergyDist::Empirical(v.iter().map(|e| *e * k).collect()),
        }
    }

    /// Shifts every outcome by `offset` (e.g. adding idle energy).
    pub fn shifted(&self, offset: Energy) -> EnergyDist {
        match self {
            EnergyDist::Mixture(v) => {
                EnergyDist::Mixture(v.iter().map(|(e, p)| (*e + offset, *p)).collect())
            }
            EnergyDist::Empirical(v) => {
                EnergyDist::Empirical(v.iter().map(|e| *e + offset).collect())
            }
        }
    }

    /// The distribution of the sum of independent draws from `self` and
    /// `other` (convolution).
    ///
    /// Mixtures convolve exactly (size = product, so keep supports small);
    /// anything involving an empirical side pairs samples cyclically.
    pub fn convolve(&self, other: &EnergyDist) -> EnergyDist {
        match (self, other) {
            (EnergyDist::Mixture(a), EnergyDist::Mixture(b)) => {
                let mut out = Vec::with_capacity(a.len() * b.len());
                for (ea, pa) in a {
                    for (eb, pb) in b {
                        out.push((*ea + *eb, pa * pb));
                    }
                }
                EnergyDist::mixture(out)
            }
            _ => {
                let xs = self.to_samples();
                let ys = other.to_samples();
                if xs.is_empty() {
                    return other.clone();
                }
                if ys.is_empty() {
                    return self.clone();
                }
                let n = xs.len().max(ys.len());
                let samples = (0..n)
                    .map(|i| xs[i % xs.len()] + ys[i % ys.len()])
                    .collect();
                EnergyDist::Empirical(samples)
            }
        }
    }

    /// Flattens the distribution into a vector of representative samples.
    ///
    /// Mixtures are expanded proportionally into ~1000 samples.
    pub fn to_samples(&self) -> Vec<Energy> {
        match self {
            EnergyDist::Empirical(v) => v.clone(),
            EnergyDist::Mixture(v) => {
                let total_p: f64 = v.iter().map(|(_, p)| p).sum();
                if total_p == 0.0 {
                    return Vec::new();
                }
                let mut out = Vec::new();
                for (e, p) in v {
                    let count = ((p / total_p) * 1000.0).round().max(1.0) as usize;
                    out.resize(out.len() + count, *e);
                }
                out
            }
        }
    }
}

impl fmt::Display for EnergyDist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnergyDist::Mixture(v) if v.len() == 1 => write!(f, "{}", v[0].0),
            _ => write!(
                f,
                "{} (sd {}, p5 {}, p95 {})",
                self.mean(),
                Energy(self.std_dev()),
                self.quantile(0.05),
                self.quantile(0.95)
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix(pairs: &[(f64, f64)]) -> EnergyDist {
        EnergyDist::mixture(pairs.iter().map(|(e, p)| (Energy::joules(*e), *p)))
    }

    #[test]
    fn point_distribution_stats() {
        let d = EnergyDist::point(Energy::joules(3.0));
        assert_eq!(d.mean().as_joules(), 3.0);
        assert_eq!(d.variance(), 0.0);
        assert_eq!(d.min().as_joules(), 3.0);
        assert_eq!(d.max().as_joules(), 3.0);
        assert!(d.is_deterministic(Energy::ZERO));
        assert_eq!(format!("{d}"), "3.0000 J");
    }

    #[test]
    fn mixture_mean_variance_quantiles() {
        let d = mix(&[(1.0, 0.5), (3.0, 0.5)]);
        assert_eq!(d.mean().as_joules(), 2.0);
        assert_eq!(d.variance(), 1.0);
        assert_eq!(d.std_dev(), 1.0);
        assert_eq!(d.quantile(0.25).as_joules(), 1.0);
        assert_eq!(d.quantile(0.75).as_joules(), 3.0);
        assert_eq!(d.quantile(1.0).as_joules(), 3.0);
        assert_eq!(d.min().as_joules(), 1.0);
        assert_eq!(d.max().as_joules(), 3.0);
    }

    #[test]
    fn mixture_merges_equal_outcomes_and_drops_zero() {
        let d = mix(&[(2.0, 0.3), (2.0, 0.2), (5.0, 0.5), (9.0, 0.0)]);
        match &d {
            EnergyDist::Mixture(v) => {
                assert_eq!(v.len(), 2);
                assert!((v[0].1 - 0.5).abs() < 1e-12);
            }
            _ => panic!("expected mixture"),
        }
    }

    #[test]
    fn empirical_stats() {
        let d = EnergyDist::empirical((1..=100).map(|i| Energy::joules(i as f64)).collect());
        assert!((d.mean().as_joules() - 50.5).abs() < 1e-9);
        assert_eq!(d.min().as_joules(), 1.0);
        assert_eq!(d.max().as_joules(), 100.0);
        assert_eq!(d.quantile(0.0).as_joules(), 1.0);
        let med = d.quantile(0.5).as_joules();
        assert!((med - 50.0).abs() <= 1.0);
    }

    #[test]
    fn prob_exceeds() {
        let d = mix(&[(1.0, 0.25), (2.0, 0.25), (3.0, 0.5)]);
        assert!((d.prob_exceeds(Energy::joules(1.5)) - 0.75).abs() < 1e-12);
        assert_eq!(d.prob_exceeds(Energy::joules(5.0)), 0.0);
        let e = EnergyDist::empirical(vec![Energy::joules(1.0), Energy::joules(4.0)]);
        assert_eq!(e.prob_exceeds(Energy::joules(2.0)), 0.5);
    }

    #[test]
    fn scale_and_shift() {
        let d = mix(&[(1.0, 0.5), (3.0, 0.5)]);
        let s = d.scaled(2.0).shifted(Energy::joules(1.0));
        assert_eq!(s.min().as_joules(), 3.0);
        assert_eq!(s.max().as_joules(), 7.0);
        assert_eq!(s.mean().as_joules(), 5.0);
    }

    #[test]
    fn convolution_exact() {
        let a = mix(&[(1.0, 0.5), (2.0, 0.5)]);
        let b = mix(&[(10.0, 0.5), (20.0, 0.5)]);
        let c = a.convolve(&b);
        assert!((c.mean().as_joules() - 16.5).abs() < 1e-12);
        assert_eq!(c.min().as_joules(), 11.0);
        assert_eq!(c.max().as_joules(), 22.0);
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn convolution_mixed_representations() {
        let a = EnergyDist::empirical(vec![Energy::joules(1.0); 10]);
        let b = mix(&[(5.0, 1.0)]);
        let c = a.convolve(&b);
        assert!((c.mean().as_joules() - 6.0).abs() < 1e-9);
        let empty = EnergyDist::empirical(vec![]);
        assert_eq!(empty.convolve(&a).mean().as_joules(), 1.0);
        assert_eq!(a.convolve(&empty).mean().as_joules(), 1.0);
    }

    #[test]
    fn empty_distributions_are_safe() {
        let d = EnergyDist::empirical(vec![]);
        assert!(d.is_empty());
        assert_eq!(d.mean(), Energy::ZERO);
        assert_eq!(d.variance(), 0.0);
        assert_eq!(d.quantile(0.5), Energy::ZERO);
        assert_eq!(d.min(), Energy::ZERO);
        assert_eq!(d.prob_exceeds(Energy::ZERO), 0.0);
    }

    #[test]
    fn to_samples_respects_weights() {
        let d = mix(&[(1.0, 0.9), (100.0, 0.1)]);
        let samples = d.to_samples();
        let heavy = samples.iter().filter(|e| e.as_joules() == 1.0).count();
        assert!((850..=950).contains(&heavy), "heavy={heavy}");
    }

    /// An infinite outcome is the extreme it is, in both variants; only an
    /// empty distribution reports zero.
    #[test]
    fn min_and_max_report_infinite_outcomes() {
        let inf = f64::INFINITY;
        let samples =
            |v: &[f64]| EnergyDist::empirical(v.iter().map(|&j| Energy::joules(j)).collect());
        let cases = [
            (&[-inf, 1.0, inf][..], (-inf, inf)),
            (&[inf, inf][..], (inf, inf)),
            (&[-inf, 2.0][..], (-inf, 2.0)),
            (&[][..], (0.0, 0.0)),
        ];
        for (outcomes, expected) in cases {
            let weight = 1.0 / outcomes.len() as f64;
            let mixture = mix(&outcomes.iter().map(|&j| (j, weight)).collect::<Vec<_>>());
            for d in [samples(outcomes), mixture] {
                assert_eq!(
                    (d.min().as_joules(), d.max().as_joules()),
                    expected,
                    "{d:?}"
                );
            }
        }
    }

    #[test]
    fn deterministic_with_tolerance() {
        let d = mix(&[(1.0, 0.5), (1.0000001, 0.5)]);
        assert!(d.is_deterministic(Energy::joules(1e-6)));
        assert!(!d.is_deterministic(Energy::joules(1e-9)));
    }
}
