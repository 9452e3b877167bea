//! Physical and abstract energy quantities.
//!
//! The paper (§3) allows an energy interface to return energy "in Joules,
//! Watt-seconds, etc., or in abstract energy units, such as 'energy for a 2D
//! convolution' or 'energy for a rectified linear unit (ReLU)'". We therefore
//! represent an energy value as an [`EnergyVec`]: a Joule component plus a
//! sparse linear combination of named abstract units. A [`Calibration`] maps
//! abstract units to Joules when absolute numbers are needed.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

use serde::{Deserialize, Serialize};

use crate::error::{Error, Result};

/// An amount of energy in Joules.
///
/// A thin newtype over `f64`; negative values are representable (they arise
/// transiently in arithmetic) but interfaces are expected to return
/// non-negative energy.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Energy(pub f64);

impl Energy {
    /// Zero Joules.
    pub const ZERO: Energy = Energy(0.0);

    /// Creates an energy from Joules.
    pub fn joules(j: f64) -> Self {
        Energy(j)
    }

    /// Creates an energy from millijoules.
    pub fn millijoules(mj: f64) -> Self {
        Energy(mj * 1e-3)
    }

    /// Creates an energy from microjoules.
    pub fn microjoules(uj: f64) -> Self {
        Energy(uj * 1e-6)
    }

    /// Creates an energy from nanojoules.
    pub fn nanojoules(nj: f64) -> Self {
        Energy(nj * 1e-9)
    }

    /// Creates an energy from picojoules.
    pub fn picojoules(pj: f64) -> Self {
        Energy(pj * 1e-12)
    }

    /// Creates an energy from kilojoules.
    pub fn kilojoules(kj: f64) -> Self {
        Energy(kj * 1e3)
    }

    /// Creates an energy from watt-hours.
    pub fn watt_hours(wh: f64) -> Self {
        Energy(wh * 3600.0)
    }

    /// The value in Joules.
    pub fn as_joules(self) -> f64 {
        self.0
    }

    /// The value in millijoules.
    pub fn as_millijoules(self) -> f64 {
        self.0 * 1e3
    }

    /// Returns true if the value is finite (not NaN or infinite).
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }

    /// Returns the maximum of two energies.
    pub fn max(self, other: Energy) -> Energy {
        Energy(self.0.max(other.0))
    }

    /// Returns the minimum of two energies.
    pub fn min(self, other: Energy) -> Energy {
        Energy(self.0.min(other.0))
    }

    /// Relative difference `|self - other| / |other|`; infinite when `other`
    /// is zero and the values differ.
    pub fn relative_error(self, other: Energy) -> f64 {
        if other.0 == 0.0 {
            if self.0 == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            ((self.0 - other.0) / other.0).abs()
        }
    }
}

impl Add for Energy {
    type Output = Energy;
    fn add(self, rhs: Energy) -> Energy {
        Energy(self.0 + rhs.0)
    }
}

impl AddAssign for Energy {
    fn add_assign(&mut self, rhs: Energy) {
        self.0 += rhs.0;
    }
}

impl Sub for Energy {
    type Output = Energy;
    fn sub(self, rhs: Energy) -> Energy {
        Energy(self.0 - rhs.0)
    }
}

impl Mul<f64> for Energy {
    type Output = Energy;
    fn mul(self, rhs: f64) -> Energy {
        Energy(self.0 * rhs)
    }
}

impl Mul<Energy> for f64 {
    type Output = Energy;
    fn mul(self, rhs: Energy) -> Energy {
        Energy(self * rhs.0)
    }
}

impl Div<f64> for Energy {
    type Output = Energy;
    fn div(self, rhs: f64) -> Energy {
        Energy(self.0 / rhs)
    }
}

impl Div<Energy> for Energy {
    /// Ratio of two energies (dimensionless).
    type Output = f64;
    fn div(self, rhs: Energy) -> f64 {
        self.0 / rhs.0
    }
}

impl Neg for Energy {
    type Output = Energy;
    fn neg(self) -> Energy {
        Energy(-self.0)
    }
}

impl std::iter::Sum for Energy {
    fn sum<I: Iterator<Item = Energy>>(iter: I) -> Energy {
        Energy(iter.map(|e| e.0).sum())
    }
}

impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let j = self.0;
        let a = j.abs();
        if a == 0.0 {
            write!(f, "0 J")
        } else if a >= 1e3 {
            write!(f, "{:.4} kJ", j / 1e3)
        } else if a >= 1.0 {
            write!(f, "{j:.4} J")
        } else if a >= 1e-3 {
            write!(f, "{:.4} mJ", j * 1e3)
        } else if a >= 1e-6 {
            write!(f, "{:.4} uJ", j * 1e6)
        } else if a >= 1e-9 {
            write!(f, "{:.4} nJ", j * 1e9)
        } else {
            write!(f, "{:.4} pJ", j * 1e12)
        }
    }
}

/// Power in Watts.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Power(pub f64);

impl Power {
    /// Zero Watts.
    pub const ZERO: Power = Power(0.0);

    /// Creates a power from Watts.
    pub fn watts(w: f64) -> Self {
        Power(w)
    }

    /// Creates a power from milliwatts.
    pub fn milliwatts(mw: f64) -> Self {
        Power(mw * 1e-3)
    }

    /// The value in Watts.
    pub fn as_watts(self) -> f64 {
        self.0
    }

    /// Energy consumed by drawing this power for `t`.
    pub fn over(self, t: TimeSpan) -> Energy {
        Energy(self.0 * t.0)
    }
}

impl Add for Power {
    type Output = Power;
    fn add(self, rhs: Power) -> Power {
        Power(self.0 + rhs.0)
    }
}

impl Mul<f64> for Power {
    type Output = Power;
    fn mul(self, rhs: f64) -> Power {
        Power(self.0 * rhs)
    }
}

impl fmt::Display for Power {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4} W", self.0)
    }
}

/// A duration in seconds.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct TimeSpan(pub f64);

impl TimeSpan {
    /// Zero seconds.
    pub const ZERO: TimeSpan = TimeSpan(0.0);

    /// Creates a duration from seconds.
    pub fn seconds(s: f64) -> Self {
        TimeSpan(s)
    }

    /// Creates a duration from milliseconds.
    pub fn millis(ms: f64) -> Self {
        TimeSpan(ms * 1e-3)
    }

    /// Creates a duration from microseconds.
    pub fn micros(us: f64) -> Self {
        TimeSpan(us * 1e-6)
    }

    /// The value in seconds.
    pub fn as_seconds(self) -> f64 {
        self.0
    }
}

impl Add for TimeSpan {
    type Output = TimeSpan;
    fn add(self, rhs: TimeSpan) -> TimeSpan {
        TimeSpan(self.0 + rhs.0)
    }
}

impl AddAssign for TimeSpan {
    fn add_assign(&mut self, rhs: TimeSpan) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for TimeSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        if s.abs() >= 1.0 {
            write!(f, "{s:.4} s")
        } else if s.abs() >= 1e-3 {
            write!(f, "{:.4} ms", s * 1e3)
        } else {
            write!(f, "{:.4} us", s * 1e6)
        }
    }
}

/// An energy value as a linear combination of Joules and abstract units.
///
/// `3.2 J + 8 conv2d + 16 mlp` is an `EnergyVec` with `joules = 3.2` and
/// `abstracts = {conv2d: 8, mlp: 16}`. Abstract components support relative
/// comparisons ("twice as many ReLUs") without calibration; converting to
/// absolute Joules requires a [`Calibration`].
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct EnergyVec {
    /// The concrete Joule component.
    pub joules: f64,
    /// Sparse abstract-unit components, keyed by unit name.
    pub abstracts: BTreeMap<String, f64>,
}

impl EnergyVec {
    /// The zero energy vector.
    pub fn zero() -> Self {
        EnergyVec::default()
    }

    /// A vector with only a Joule component.
    pub fn from_joules(j: f64) -> Self {
        EnergyVec {
            joules: j,
            abstracts: BTreeMap::new(),
        }
    }

    /// A vector with only a concrete [`Energy`] component.
    pub fn from_energy(e: Energy) -> Self {
        Self::from_joules(e.as_joules())
    }

    /// A vector with a single abstract-unit component.
    pub fn from_unit(unit: impl Into<String>, amount: f64) -> Self {
        let mut abstracts = BTreeMap::new();
        abstracts.insert(unit.into(), amount);
        EnergyVec {
            joules: 0.0,
            abstracts,
        }
    }

    /// True when every component is zero.
    pub fn is_zero(&self) -> bool {
        self.joules == 0.0 && self.abstracts.values().all(|&v| v == 0.0)
    }

    /// True when the vector has no abstract components (pure Joules).
    pub fn is_concrete(&self) -> bool {
        self.abstracts.values().all(|&v| v == 0.0)
    }

    /// True when every component is finite.
    pub fn is_finite(&self) -> bool {
        self.joules.is_finite() && self.abstracts.values().all(|v| v.is_finite())
    }

    /// Adds another vector in place.
    pub fn add_assign(&mut self, other: &EnergyVec) {
        self.joules += other.joules;
        for (k, v) in &other.abstracts {
            *self.abstracts.entry(k.clone()).or_insert(0.0) += v;
        }
    }

    /// Returns the component-wise sum of two vectors.
    pub fn plus(&self, other: &EnergyVec) -> EnergyVec {
        // Pure Joules on both sides: no map to clone or walk. A zero-amount
        // unit entry keeps a vector on the map path, so the entry survives
        // and `==` sees the same maps as before.
        if self.abstracts.is_empty() && other.abstracts.is_empty() {
            return EnergyVec::from_joules(self.joules + other.joules);
        }
        let mut out = self.clone();
        out.add_assign(other);
        out
    }

    /// Returns the component-wise difference `self - other`.
    pub fn minus(&self, other: &EnergyVec) -> EnergyVec {
        if self.abstracts.is_empty() && other.abstracts.is_empty() {
            return EnergyVec::from_joules(self.joules - other.joules);
        }
        let mut out = self.clone();
        out.joules -= other.joules;
        for (k, v) in &other.abstracts {
            *out.abstracts.entry(k.clone()).or_insert(0.0) -= v;
        }
        out
    }

    /// Scales every component by `k`.
    pub fn scaled(&self, k: f64) -> EnergyVec {
        if self.abstracts.is_empty() {
            return EnergyVec::from_joules(self.joules * k);
        }
        EnergyVec {
            joules: self.joules * k,
            abstracts: self
                .abstracts
                .iter()
                .map(|(u, v)| (u.clone(), v * k))
                .collect(),
        }
    }

    /// Converts to absolute Joules using `cal` for every abstract component.
    ///
    /// Fails with [`Error::Uncalibrated`] if any non-zero abstract component
    /// lacks a calibration entry.
    pub fn calibrate(&self, cal: &Calibration) -> Result<Energy> {
        let mut total = self.joules;
        for (unit, amount) in &self.abstracts {
            if *amount == 0.0 {
                continue;
            }
            match cal.get(unit) {
                Some(e) => total += amount * e.as_joules(),
                None => return Err(Error::Uncalibrated { unit: unit.clone() }),
            }
        }
        Ok(Energy(total))
    }

    /// Converts to Joules assuming no calibration is needed.
    ///
    /// Fails if the vector has any non-zero abstract component.
    pub fn to_energy(&self) -> Result<Energy> {
        self.calibrate(&Calibration::empty())
    }

    /// Like [`EnergyVec::calibrate`], but against a pre-interned lookup
    /// table. Hot loops (Monte-Carlo sampling, batch evaluation) intern the
    /// calibration once and skip the per-sample `BTreeMap` traversal.
    pub fn calibrate_interned(&self, cal: &InternedCalibration) -> Result<Energy> {
        let mut total = self.joules;
        for (unit, amount) in &self.abstracts {
            if *amount == 0.0 {
                continue;
            }
            match cal.get(unit) {
                Some(e) => total += amount * e.as_joules(),
                None => return Err(Error::Uncalibrated { unit: unit.clone() }),
            }
        }
        Ok(Energy(total))
    }
}

impl From<Energy> for EnergyVec {
    fn from(e: Energy) -> Self {
        EnergyVec::from_energy(e)
    }
}

impl fmt::Display for EnergyVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut wrote = false;
        if self.joules != 0.0 || self.abstracts.values().all(|&v| v == 0.0) {
            write!(f, "{}", Energy(self.joules))?;
            wrote = true;
        }
        for (u, v) in &self.abstracts {
            if *v == 0.0 {
                continue;
            }
            if wrote {
                write!(f, " + ")?;
            }
            write!(f, "{v} {u}")?;
            wrote = true;
        }
        Ok(())
    }
}

/// A mapping from abstract energy-unit names to concrete Joule values.
///
/// Hardware layers (or microbenchmark fits, see `ei-extract`) provide
/// calibrations; upper layers stay abstract until absolute numbers are needed.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Calibration {
    entries: BTreeMap<String, Energy>,
}

impl Calibration {
    /// An empty calibration (only pure-Joule vectors convert).
    pub fn empty() -> Self {
        Calibration::default()
    }

    /// Builds a calibration from `(unit, energy)` pairs.
    pub fn from_pairs<I, S>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (S, Energy)>,
        S: Into<String>,
    {
        Calibration {
            entries: pairs.into_iter().map(|(k, v)| (k.into(), v)).collect(),
        }
    }

    /// Adds or replaces one unit's calibration.
    pub fn set(&mut self, unit: impl Into<String>, energy: Energy) {
        self.entries.insert(unit.into(), energy);
    }

    /// Looks up one unit's Joule value.
    pub fn get(&self, unit: &str) -> Option<Energy> {
        self.entries.get(unit).copied()
    }

    /// Iterates over all `(unit, energy)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Energy)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Merges another calibration into this one; `other` wins on conflicts.
    pub fn merge(&mut self, other: &Calibration) {
        for (k, v) in &other.entries {
            self.entries.insert(k.clone(), *v);
        }
    }

    /// Number of calibrated units.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no units are calibrated.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Interns the calibration into a flat sorted table for repeated
    /// lookups; see [`InternedCalibration`].
    pub fn intern(&self) -> InternedCalibration {
        InternedCalibration {
            entries: self.entries.iter().map(|(k, v)| (k.clone(), *v)).collect(),
        }
    }
}

/// A [`Calibration`] flattened into a sorted `Vec` for cache-friendly
/// binary-search lookups.
///
/// `Calibration::get` walks a `BTreeMap` — fine for one-off conversions, but
/// Monte-Carlo evaluation calibrates every sample, so the interpreter interns
/// the calibration once per call and uses
/// [`EnergyVec::calibrate_interned`] in the loop.
#[derive(Debug, Clone, PartialEq)]
pub struct InternedCalibration {
    /// `(unit, energy)` pairs sorted by unit name.
    entries: Vec<(String, Energy)>,
}

impl InternedCalibration {
    /// Looks up one unit's Joule value.
    pub fn get(&self, unit: &str) -> Option<Energy> {
        self.entries
            .binary_search_by(|(k, _)| k.as_str().cmp(unit))
            .ok()
            .map(|i| self.entries[i].1)
    }

    /// Number of calibrated units.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no units are calibrated.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_constructors_scale_correctly() {
        let close = |a: f64, b: f64| (a - b).abs() <= b.abs() * 1e-12;
        assert!(close(Energy::millijoules(5.0).as_joules(), 5e-3));
        assert!(close(Energy::microjoules(2.0).as_joules(), 2e-6));
        assert!(close(Energy::nanojoules(3.0).as_joules(), 3e-9));
        assert!(close(Energy::picojoules(7.0).as_joules(), 7e-12));
        assert!(close(Energy::kilojoules(1.5).as_joules(), 1500.0));
        assert!(close(Energy::watt_hours(1.0).as_joules(), 3600.0));
    }

    #[test]
    fn energy_arithmetic() {
        let a = Energy::joules(2.0);
        let b = Energy::joules(0.5);
        assert_eq!((a + b).as_joules(), 2.5);
        assert_eq!((a - b).as_joules(), 1.5);
        assert_eq!((a * 3.0).as_joules(), 6.0);
        assert_eq!((a / 4.0).as_joules(), 0.5);
        assert_eq!(a / b, 4.0);
        assert_eq!((-a).as_joules(), -2.0);
        let total: Energy = vec![a, b, b].into_iter().sum();
        assert_eq!(total.as_joules(), 3.0);
    }

    #[test]
    fn relative_error_handles_zero_baseline() {
        assert_eq!(Energy::ZERO.relative_error(Energy::ZERO), 0.0);
        assert!(Energy::joules(1.0)
            .relative_error(Energy::ZERO)
            .is_infinite());
        let e = Energy::joules(11.0).relative_error(Energy::joules(10.0));
        assert!((e - 0.1).abs() < 1e-12);
    }

    #[test]
    fn power_over_time_is_energy() {
        let e = Power::watts(450.0).over(TimeSpan::millis(2.0));
        assert!((e.as_joules() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn display_picks_sensible_scale() {
        assert_eq!(format!("{}", Energy::joules(0.0)), "0 J");
        assert_eq!(format!("{}", Energy::joules(2500.0)), "2.5000 kJ");
        assert_eq!(format!("{}", Energy::joules(2.5)), "2.5000 J");
        assert_eq!(format!("{}", Energy::joules(2.5e-3)), "2.5000 mJ");
        assert_eq!(format!("{}", Energy::joules(2.5e-6)), "2.5000 uJ");
        assert_eq!(format!("{}", Energy::joules(2.5e-9)), "2.5000 nJ");
        assert_eq!(format!("{}", Energy::joules(2.5e-12)), "2.5000 pJ");
    }

    #[test]
    fn energy_vec_linear_algebra() {
        let a = EnergyVec::from_unit("relu", 2.0);
        let b = EnergyVec::from_joules(1.0);
        let s = a.plus(&b).scaled(3.0);
        assert_eq!(s.joules, 3.0);
        assert_eq!(s.abstracts["relu"], 6.0);
        let d = s.minus(&a);
        assert_eq!(d.abstracts["relu"], 4.0);
        assert!(!s.is_concrete());
        assert!(b.is_concrete());
        assert!(EnergyVec::zero().is_zero());
    }

    #[test]
    fn calibration_converts_abstract_units() {
        let mut v = EnergyVec::from_unit("relu", 4.0);
        v.add_assign(&EnergyVec::from_joules(0.5));
        let cal = Calibration::from_pairs([("relu", Energy::millijoules(2.0))]);
        let e = v.calibrate(&cal).unwrap();
        assert!((e.as_joules() - (0.5 + 4.0 * 2e-3)).abs() < 1e-12);
    }

    #[test]
    fn calibration_missing_unit_errors() {
        let v = EnergyVec::from_unit("conv2d", 1.0);
        let err = v.to_energy().unwrap_err();
        assert_eq!(
            err,
            Error::Uncalibrated {
                unit: "conv2d".into()
            }
        );
    }

    #[test]
    fn zero_abstract_component_needs_no_calibration() {
        let v = EnergyVec::from_unit("conv2d", 0.0);
        assert_eq!(v.to_energy().unwrap(), Energy::ZERO);
    }

    #[test]
    fn calibration_merge_prefers_other() {
        let mut a = Calibration::from_pairs([("relu", Energy::joules(1.0))]);
        let b = Calibration::from_pairs([("relu", Energy::joules(2.0))]);
        a.merge(&b);
        assert_eq!(a.get("relu").unwrap().as_joules(), 2.0);
        assert_eq!(a.len(), 1);
        assert!(!a.is_empty());
    }

    #[test]
    fn energy_vec_display() {
        let mut v = EnergyVec::from_joules(1.0);
        v.add_assign(&EnergyVec::from_unit("relu", 2.0));
        assert_eq!(format!("{v}"), "1.0000 J + 2 relu");
        assert_eq!(format!("{}", EnergyVec::zero()), "0 J");
        assert_eq!(format!("{}", EnergyVec::from_unit("mlp", 3.0)), "3 mlp");
    }
}
