//! Interval abstract interpretation of EIL.
//!
//! §4.1: "the interface's return value represents the worst-case energy
//! consumption for all module executions that correspond to that path", and
//! a toolchain must verify "that indeed the code written thus far satisfies
//! the worst-case energy interface". This module provides the sound
//! over-approximation that backs those checks: every value becomes an
//! interval (numbers, energy components) or a three-valued boolean, inputs
//! range over their declared [`crate::interface::InputSpec`]
//! ranges, and ECVs range over their distributions' supports.
//!
//! The same walk serves the certifier ([`crate::analysis::cert`]): beside
//! its interval, every value carries its direction (constant, up, down or
//! unknown) in each certification target — a parameter or a numeric ECV —
//! so one walk yields both a function's bound and its monotonicity
//! verdicts. [`abstract_eval`] is that walk with no target.
//!
//! The compatibility check ([`crate::analysis::compat`]) runs the walk over
//! an input box with one more companion per value, a first-order form in
//! the box's inputs (see `Slope`), so the difference of two functions
//! over one box keeps what the two share.

use std::collections::{BTreeMap, BTreeSet};

use crate::analysis::cert::Monotonicity;
use crate::ast::{BinOp, Builtin, Expr, Stmt, UnOp};
use crate::ecv::DistSpec;
use crate::error::{Error, NameKind, Result};
use crate::interface::{InputSpec, Interface};
use crate::units::{Calibration, Energy};

/// Maximum trip count an abstract loop may be unrolled to.
pub const MAX_ABSTRACT_TRIPS: u64 = 65_536;

/// A closed interval of reals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower bound (inclusive).
    pub lo: f64,
    /// Upper bound (inclusive).
    pub hi: f64,
}

impl Interval {
    /// A degenerate point interval.
    pub fn point(v: f64) -> Self {
        Interval { lo: v, hi: v }
    }

    /// A general interval; callers must keep `lo <= hi`.
    pub fn new(lo: f64, hi: f64) -> Self {
        Interval { lo, hi }
    }

    /// True when the interval is a single point.
    pub fn is_point(&self) -> bool {
        self.lo == self.hi
    }

    /// Width of the interval.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// True when `v` lies inside the interval.
    pub fn contains(&self, v: f64) -> bool {
        v >= self.lo && v <= self.hi
    }

    /// Smallest interval containing both operands.
    pub fn join(&self, other: &Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Interval sum.
    pub fn add(&self, o: &Interval) -> Interval {
        Interval::new(self.lo + o.lo, self.hi + o.hi)
    }

    /// Interval difference.
    pub fn sub(&self, o: &Interval) -> Interval {
        Interval::new(self.lo - o.hi, self.hi - o.lo)
    }

    /// Interval product (min/max of the four corner products).
    pub fn mul(&self, o: &Interval) -> Interval {
        let c = [
            self.lo * o.lo,
            self.lo * o.hi,
            self.hi * o.lo,
            self.hi * o.hi,
        ];
        Interval::new(
            c.iter().cloned().fold(f64::INFINITY, f64::min),
            c.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        )
    }

    /// Interval quotient; errors when the divisor may be zero.
    ///
    /// The endpoints are computed with *direct* divisions, not as
    /// `x · (1/y)`: f64 division is correctly rounded and monotone in
    /// both operands, so the endpoint quotients genuinely bracket every
    /// representable `x / y` — in particular, a point ÷ point interval is
    /// exactly the concrete quotient, which the bound certifier relies on
    /// (the double rounding of multiply-by-reciprocal can put the true
    /// quotient a ulp outside the product).
    pub fn div(&self, o: &Interval) -> Result<Interval> {
        if o.contains(0.0) {
            return Err(Error::Analysis {
                msg: "possible division by zero under worst-case analysis".into(),
            });
        }
        let c = [
            self.lo / o.lo,
            self.lo / o.hi,
            self.hi / o.lo,
            self.hi / o.hi,
        ];
        Ok(Interval::new(
            c.iter().cloned().fold(f64::INFINITY, f64::min),
            c.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        ))
    }

    /// Applies a monotone non-decreasing function to both ends.
    ///
    /// **Soundness caveat:** the image of an interval under a
    /// *non-monotone* function is not bracketed by its endpoint images —
    /// `x²` over `[-1, 2]` is `[0, 4]`, not `[1, 4]`. Callers must either
    /// prove monotonicity over the whole interval (e.g. by pre-clamping
    /// the domain) or use an exact range evaluator such as [`powi`] or
    /// [`map_quadratic`].
    ///
    /// [`powi`]: Interval::powi
    /// [`map_quadratic`]: Interval::map_quadratic
    pub fn map_monotone(&self, f: impl Fn(f64) -> f64) -> Interval {
        Interval::new(f(self.lo), f(self.hi))
    }

    /// Exact range of `x^k` for a non-negative integer exponent, sound
    /// for intervals spanning zero (where even powers are non-monotone).
    pub fn powi(&self, k: u32) -> Interval {
        if k == 0 {
            return Interval::point(1.0);
        }
        let (plo, phi) = (self.lo.powi(k as i32), self.hi.powi(k as i32));
        if k % 2 == 1 || self.lo >= 0.0 {
            // Odd powers are monotone everywhere; even powers are
            // monotone non-decreasing on [0, inf).
            Interval::new(plo, phi)
        } else if self.hi <= 0.0 {
            // Even power, monotone non-increasing on (-inf, 0].
            Interval::new(phi, plo)
        } else {
            // Even power over an interval spanning zero: the vertex at 0
            // is the minimum.
            Interval::new(0.0, plo.max(phi))
        }
    }

    /// Exact range of the quadratic `c0 + c1·x + c2·x²` over the
    /// interval, including the vertex `-c1 / (2·c2)` when it falls
    /// inside — the case endpoint-only evaluation gets wrong (e.g. DVFS
    /// voltage-scaling polynomials swept across their minimum).
    pub fn map_quadratic(&self, c0: f64, c1: f64, c2: f64) -> Interval {
        let f = |x: f64| c0 + c1 * x + c2 * x * x;
        let (a, b) = (f(self.lo), f(self.hi));
        let mut lo = a.min(b);
        let mut hi = a.max(b);
        if c2 != 0.0 {
            let vertex = -c1 / (2.0 * c2);
            if vertex > self.lo && vertex < self.hi {
                let v = f(vertex);
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        Interval::new(lo, hi)
    }
}

/// Three-valued abstract boolean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbsBool {
    /// Definitely true on every concrete execution.
    True,
    /// Definitely false on every concrete execution.
    False,
    /// May be either.
    Unknown,
}

impl AbsBool {
    /// Lifts a concrete boolean.
    pub fn from_bool(b: bool) -> Self {
        if b {
            AbsBool::True
        } else {
            AbsBool::False
        }
    }

    /// Logical negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Self {
        match self {
            AbsBool::True => AbsBool::False,
            AbsBool::False => AbsBool::True,
            AbsBool::Unknown => AbsBool::Unknown,
        }
    }

    /// Logical conjunction.
    pub fn and(self, o: AbsBool) -> AbsBool {
        match (self, o) {
            (AbsBool::False, _) | (_, AbsBool::False) => AbsBool::False,
            (AbsBool::True, AbsBool::True) => AbsBool::True,
            _ => AbsBool::Unknown,
        }
    }

    /// Logical disjunction.
    pub fn or(self, o: AbsBool) -> AbsBool {
        match (self, o) {
            (AbsBool::True, _) | (_, AbsBool::True) => AbsBool::True,
            (AbsBool::False, AbsBool::False) => AbsBool::False,
            _ => AbsBool::Unknown,
        }
    }
}

/// An abstract energy vector: interval Joules plus interval abstract units.
#[derive(Debug, Clone, PartialEq)]
pub struct AbsEnergy {
    /// Joule component interval.
    pub joules: Interval,
    /// Abstract-unit component intervals.
    pub abstracts: BTreeMap<String, Interval>,
}

impl AbsEnergy {
    /// The zero energy.
    pub fn zero() -> Self {
        AbsEnergy {
            joules: Interval::point(0.0),
            abstracts: BTreeMap::new(),
        }
    }

    /// A pure-Joule abstract energy.
    pub fn from_joules(i: Interval) -> Self {
        AbsEnergy {
            joules: i,
            abstracts: BTreeMap::new(),
        }
    }

    /// A single abstract-unit component.
    pub fn from_unit(u: impl Into<String>, i: Interval) -> Self {
        let mut abstracts = BTreeMap::new();
        abstracts.insert(u.into(), i);
        AbsEnergy {
            joules: Interval::point(0.0),
            abstracts,
        }
    }

    fn zip(&self, o: &AbsEnergy, f: impl Fn(&Interval, &Interval) -> Interval) -> AbsEnergy {
        let mut abstracts = BTreeMap::new();
        let zero = Interval::point(0.0);
        for k in self.abstracts.keys().chain(o.abstracts.keys()) {
            if abstracts.contains_key(k) {
                continue;
            }
            let a = self.abstracts.get(k).unwrap_or(&zero);
            let b = o.abstracts.get(k).unwrap_or(&zero);
            abstracts.insert(k.clone(), f(a, b));
        }
        AbsEnergy {
            joules: f(&self.joules, &o.joules),
            abstracts,
        }
    }

    /// Component-wise sum.
    pub fn add(&self, o: &AbsEnergy) -> AbsEnergy {
        self.zip(o, |a, b| a.add(b))
    }

    /// Component-wise difference.
    pub fn sub(&self, o: &AbsEnergy) -> AbsEnergy {
        self.zip(o, |a, b| a.sub(b))
    }

    /// Component-wise join.
    pub fn join(&self, o: &AbsEnergy) -> AbsEnergy {
        self.zip(o, |a, b| a.join(b))
    }

    /// Divides every component by an interval divisor, with the same
    /// direct-quotient endpoints as [`Interval::div`].
    pub fn div_num(&self, k: &Interval) -> Result<AbsEnergy> {
        let joules = self.joules.div(k)?;
        let mut abstracts = BTreeMap::new();
        for (u, i) in &self.abstracts {
            abstracts.insert(u.clone(), i.div(k)?);
        }
        Ok(AbsEnergy { joules, abstracts })
    }

    /// Scales every component by an interval factor.
    pub fn scale(&self, k: &Interval) -> AbsEnergy {
        AbsEnergy {
            joules: self.joules.mul(k),
            abstracts: self
                .abstracts
                .iter()
                .map(|(u, i)| (u.clone(), i.mul(k)))
                .collect(),
        }
    }

    /// Worst-case (upper bound) concrete energy under a calibration.
    pub fn upper_bound(&self, cal: &Calibration) -> Result<Energy> {
        let mut hi = self.joules.hi;
        for (u, i) in &self.abstracts {
            if i.lo == 0.0 && i.hi == 0.0 {
                continue;
            }
            let e = cal
                .get(u)
                .ok_or_else(|| Error::Uncalibrated { unit: u.clone() })?;
            // Calibrations are non-negative energies per unit.
            hi += i.hi * e.as_joules();
        }
        Ok(Energy(hi))
    }

    /// Best-case (lower bound) concrete energy under a calibration.
    pub fn lower_bound(&self, cal: &Calibration) -> Result<Energy> {
        let mut lo = self.joules.lo;
        for (u, i) in &self.abstracts {
            if i.lo == 0.0 && i.hi == 0.0 {
                continue;
            }
            let e = cal
                .get(u)
                .ok_or_else(|| Error::Uncalibrated { unit: u.clone() })?;
            lo += i.lo * e.as_joules();
        }
        Ok(Energy(lo))
    }
}

/// An abstract value.
#[derive(Debug, Clone, PartialEq)]
pub enum AbsValue {
    /// A numeric interval.
    Num(Interval),
    /// A three-valued boolean.
    Bool(AbsBool),
    /// An abstract energy vector.
    Energy(AbsEnergy),
    /// A record of abstract fields.
    Record(BTreeMap<String, AbsValue>),
}

impl AbsValue {
    /// Extracts a numeric interval, or errors.
    pub fn as_num(&self) -> Result<Interval> {
        match self {
            AbsValue::Num(i) => Ok(*i),
            other => Err(Error::Type {
                expected: "number",
                got: abs_type_name(other).into(),
            }),
        }
    }

    /// Extracts an abstract boolean, or errors.
    pub fn as_bool(&self) -> Result<AbsBool> {
        match self {
            AbsValue::Bool(b) => Ok(*b),
            other => Err(Error::Type {
                expected: "boolean",
                got: abs_type_name(other).into(),
            }),
        }
    }

    /// Extracts an abstract energy, or errors.
    pub fn as_energy(&self) -> Result<&AbsEnergy> {
        match self {
            AbsValue::Energy(e) => Ok(e),
            other => Err(Error::Type {
                expected: "energy",
                got: abs_type_name(other).into(),
            }),
        }
    }

    /// Smallest abstract value covering both operands.
    pub fn join(&self, other: &AbsValue) -> Result<AbsValue> {
        match (self, other) {
            (AbsValue::Num(a), AbsValue::Num(b)) => Ok(AbsValue::Num(a.join(b))),
            (AbsValue::Bool(a), AbsValue::Bool(b)) => {
                Ok(AbsValue::Bool(if a == b { *a } else { AbsBool::Unknown }))
            }
            (AbsValue::Energy(a), AbsValue::Energy(b)) => Ok(AbsValue::Energy(a.join(b))),
            (AbsValue::Record(a), AbsValue::Record(b)) if a.len() == b.len() => {
                let mut out = BTreeMap::new();
                for (k, va) in a {
                    let vb = b.get(k).ok_or_else(|| Error::Type {
                        expected: "records with matching fields",
                        got: format!("missing field `{k}`"),
                    })?;
                    out.insert(k.clone(), va.join(vb)?);
                }
                Ok(AbsValue::Record(out))
            }
            (a, b) => Err(Error::Type {
                expected: "joinable abstract values",
                got: format!("{} and {}", abs_type_name(a), abs_type_name(b)),
            }),
        }
    }
}

fn abs_type_name(v: &AbsValue) -> &'static str {
    match v {
        AbsValue::Num(_) => "number",
        AbsValue::Bool(_) => "boolean",
        AbsValue::Energy(_) => "energy",
        AbsValue::Record(_) => "record",
    }
}

/// The abstract range of one ECV, derived from its distribution.
pub fn ecv_abs_value(dist: &DistSpec) -> AbsValue {
    match dist {
        DistSpec::Bernoulli { p } => AbsValue::Bool(if *p == 0.0 {
            AbsBool::False
        } else if *p == 1.0 {
            AbsBool::True
        } else {
            AbsBool::Unknown
        }),
        DistSpec::Discrete { outcomes } => {
            let lo = outcomes
                .iter()
                .filter(|(_, p)| *p > 0.0)
                .map(|(v, _)| *v)
                .fold(f64::INFINITY, f64::min);
            let hi = outcomes
                .iter()
                .filter(|(_, p)| *p > 0.0)
                .map(|(v, _)| *v)
                .fold(f64::NEG_INFINITY, f64::max);
            AbsValue::Num(Interval::new(lo, hi))
        }
        DistSpec::Uniform { lo, hi } => AbsValue::Num(Interval::new(*lo, *hi)),
        DistSpec::Normal { mean, std_dev } => {
            AbsValue::Num(Interval::new(mean - 6.0 * std_dev, mean + 6.0 * std_dev))
        }
        DistSpec::Point { value } => AbsValue::Num(Interval::point(*value)),
    }
}

/// Builds the abstract input for `func` from its declared [`InputSpec`].
///
/// Paths of the form `param` become interval numbers; `param.field` paths
/// become record fields. Parameters without any declared range are rejected.
pub fn abstract_inputs(iface: &Interface, func: &str, spec: &InputSpec) -> Result<Vec<AbsValue>> {
    let f = iface.get_fn(func)?;
    let mut out = Vec::with_capacity(f.params.len());
    for p in &f.params {
        if let Some(r) = spec.get(p) {
            out.push(AbsValue::Num(Interval::new(r.lo, r.hi)));
            continue;
        }
        // Record-shaped parameter: gather `p.field` entries.
        let prefix = format!("{p}.");
        let mut fields = BTreeMap::new();
        for (path, r) in spec.iter() {
            if let Some(field) = path.strip_prefix(&prefix) {
                fields.insert(field.to_string(), AbsValue::Num(Interval::new(r.lo, r.hi)));
            }
        }
        if fields.is_empty() {
            return Err(Error::BadInput {
                msg: format!("no input range declared for parameter `{p}` of `{func}`"),
            });
        }
        out.push(AbsValue::Record(fields));
    }
    Ok(out)
}

/// Abstractly evaluates `iface.func(args)`.
///
/// ECVs take their distribution-derived abstract values; both branches of
/// unknown conditionals are joined; loops are unrolled up to
/// [`MAX_ABSTRACT_TRIPS`]. The result over-approximates every concrete
/// execution. This is `abstract_eval_dirs` with no certification target.
pub fn abstract_eval(iface: &Interface, func: &str, args: &[AbsValue]) -> Result<AbsValue> {
    let args = args.iter().cloned().map(Val::of).collect();
    Ok(abstract_eval_dirs(iface, func, args, BTreeMap::new())?.val)
}

/// Abstractly evaluates `iface.func(args)` as [`abstract_eval`] does, and
/// tracks alongside every interval the direction of the value's
/// dependence on each certification target (see [`Dirs`]). A target is a
/// parameter, whose argument enters as [`Dirs::up`], or a numeric ECV,
/// whose every read carries `ecv_dirs[name]`.
pub(crate) fn abstract_eval_dirs<'a>(
    iface: &'a Interface,
    func: &str,
    args: Vec<Val>,
    ecv_dirs: BTreeMap<&'a str, Dirs>,
) -> Result<Val> {
    let mut a = AbsEval {
        iface,
        ecv_dirs,
        depth: 0,
    };
    a.call(func, args)
}

/// Abstractly evaluates `iface.func` over the box `b` (one `(lo, hi)` per
/// scalar parameter) as [`abstract_eval`] does, and tracks beside every
/// number, and every energy's Joule component, its first-order form in the
/// box's inputs (see [`Slope`]).
pub(crate) fn abstract_eval_box(iface: &Interface, func: &str, b: &[(f64, f64)]) -> Result<Val> {
    let args = b
        .iter()
        .enumerate()
        .map(|(i, &(lo, hi))| Val {
            val: AbsValue::Num(Interval::new(lo, hi)),
            dirs: Dirs::ZERO,
            slope: Some(Box::new(Slope::input(i, lo))),
        })
        .collect();
    abstract_eval_dirs(iface, func, args, BTreeMap::new())
}

/// A first-order enclosure of a number, or of an energy's Joule
/// component, over an input box with low corner `lo`: at every input `x`
/// of the box the value lies in `c + Σ k[i]·(x[i] − lo[i])`, where `k[i]`
/// is zero past the end of `k`. Where two functions' ranges over a box
/// overlap — wherever they touch — the difference of their forms can
/// still bound one below the other.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Slope {
    c: Interval,
    k: Vec<Interval>,
}

impl Slope {
    /// A value known only by its range `r`.
    fn of(r: Interval) -> Slope {
        Slope {
            c: r,
            k: Vec::new(),
        }
    }

    /// Input `i` itself, in a box whose low corner there is `lo`.
    fn input(i: usize, lo: f64) -> Slope {
        let unit = |j| Interval::point(if j == i { 1.0 } else { 0.0 });
        Slope {
            c: Interval::point(lo),
            k: (0..=i).map(unit).collect(),
        }
    }

    /// Coefficient `i`.
    fn coef(&self, i: usize) -> Interval {
        self.k.get(i).copied().unwrap_or(Interval::point(0.0))
    }

    /// Applies `f` to the constants and to each pair of coefficients.
    fn zip(&self, o: &Slope, f: impl Fn(&Interval, &Interval) -> Interval) -> Slope {
        Slope {
            c: f(&self.c, &o.c),
            k: (0..self.k.len().max(o.k.len()))
                .map(|i| f(&self.coef(i), &o.coef(i)))
                .collect(),
        }
    }

    /// The product with a value of form `o` whose range is `o_range`:
    /// `fg = c_f·c_g + Σ (c_f·k_g[i] + k_f[i]·g(x))·(x[i] − lo[i])`.
    fn mul(&self, o: &Slope, o_range: &Interval) -> Slope {
        Slope {
            c: self.c.mul(&o.c),
            k: (0..self.k.len().max(o.k.len()))
                .map(|i| self.c.mul(&o.coef(i)).add(&self.coef(i).mul(o_range)))
                .collect(),
        }
    }

    /// Every coefficient and the constant divided by `d`, for a divisor
    /// known only by its range `d`.
    fn div(&self, d: &Interval) -> Result<Slope> {
        Ok(Slope {
            c: self.c.div(d)?,
            k: self.k.iter().map(|k| k.div(d)).collect::<Result<_>>()?,
        })
    }

    /// The largest value the form admits over a box of widths `w`.
    pub(crate) fn upper(&self, w: &[f64]) -> f64 {
        let slack: f64 = (w.iter().enumerate())
            .map(|(i, w)| self.coef(i).hi.max(0.0) * w)
            .sum();
        self.c.hi + slack
    }

    /// The form of `a − b`.
    pub(crate) fn sub(&self, o: &Slope) -> Slope {
        self.zip(o, Interval::sub)
    }
}

/// Most certification targets one walk tracks: one bit each in [`Dirs`].
pub(crate) const MAX_TARGETS: usize = 64;

/// A value's direction in each certification target, packed as two
/// bitmasks: bit `t` of `up` is set when the value may increase as target
/// `t` increases, bit `t` of `down` when it may decrease. Constant sets
/// neither bit and unknown both, so the lattice join `constant ⊑
/// {non-decreasing, non-increasing} ⊑ unknown` — which is also the rule
/// for a sum — is a bitwise or.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Dirs {
    up: u64,
    down: u64,
}

impl Dirs {
    /// Constant in every target.
    pub(crate) const ZERO: Dirs = Dirs { up: 0, down: 0 };
    const UNKNOWN: Dirs = Dirs { up: !0, down: !0 };

    /// `Up` in target `t` and `Zero` elsewhere: a target's own direction.
    pub(crate) fn up(t: usize) -> Dirs {
        Dirs {
            up: 1 << t,
            down: 0,
        }
    }

    /// The direction in target `t`; `Unknown` past [`MAX_TARGETS`].
    pub(crate) fn verdict(self, t: usize) -> Monotonicity {
        if t >= MAX_TARGETS {
            return Monotonicity::Unknown;
        }
        match (self.up >> t & 1, self.down >> t & 1) {
            (0, 0) => Monotonicity::Constant,
            (1, 0) => Monotonicity::NonDecreasing,
            (0, 1) => Monotonicity::NonIncreasing,
            _ => Monotonicity::Unknown,
        }
    }

    fn join(self, o: Dirs) -> Dirs {
        Dirs {
            up: self.up | o.up,
            down: self.down | o.down,
        }
    }

    /// The direction of the negated value.
    fn flip(self) -> Dirs {
        Dirs {
            up: self.down,
            down: self.up,
        }
    }

    /// The targets the value may move with.
    fn moving(self) -> u64 {
        self.up | self.down
    }

    /// `Unknown` in every target of `mask`.
    fn poison(self, mask: u64) -> Dirs {
        Dirs {
            up: self.up | mask,
            down: self.down | mask,
        }
    }

    /// The directions in the targets of `mask`, `Zero` elsewhere.
    fn only(self, mask: u64) -> Dirs {
        Dirs {
            up: self.up & mask,
            down: self.down & mask,
        }
    }

    /// Booleans (and remainders) carry only a dependence bit: any
    /// direction becomes `Unknown`.
    fn collapse(self) -> Dirs {
        self.poison(self.moving())
    }

    /// The direction of `k * x` for a factor `k` constant in every target:
    /// `k`'s sign orients `x`'s direction.
    fn scale(self, k: Sign) -> Dirs {
        match k {
            Sign::NonNeg => self,
            Sign::NonPos => self.flip(),
            Sign::Mixed => self.collapse(),
        }
    }
}

/// Sign of an abstract value over its whole interval(s).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sign {
    NonNeg,
    NonPos,
    Mixed,
}

fn sign_of(v: &AbsValue) -> Sign {
    fn iv_sign(i: &Interval) -> Sign {
        if i.lo >= 0.0 {
            Sign::NonNeg
        } else if i.hi <= 0.0 {
            Sign::NonPos
        } else {
            Sign::Mixed
        }
    }
    match v {
        AbsValue::Num(i) => iv_sign(i),
        AbsValue::Energy(e) => {
            let mut s = iv_sign(&e.joules);
            for a in e.abstracts.values() {
                if iv_sign(a) != s {
                    s = Sign::Mixed;
                }
            }
            s
        }
        _ => Sign::Mixed,
    }
}

/// Direction of a product from its factors' signs and directions.
fn mul_dirs(sa: Sign, da: Dirs, sb: Sign, db: Dirs) -> Dirs {
    let (ma, mb) = (da.moving(), db.moving());
    // Where one factor is constant, its sign orients the other factor.
    let one_moves = db.scale(sa).only(!ma).join(da.scale(sb).only(!mb));
    // Where both move, d(ab) = a'b + ab' is provable only when both move
    // the same single way and keep one sign: non-negative factors move the
    // product their way, non-positive ones against it.
    let both = ma & mb;
    let same = both & !(da.up ^ db.up) & !(da.down ^ db.down) & !(da.up & da.down);
    let both_move = match (sa, sb) {
        (Sign::NonNeg, Sign::NonNeg) => da.only(same),
        (Sign::NonPos, Sign::NonPos) => da.flip().only(same),
        _ => Dirs::ZERO.poison(same),
    };
    one_moves.join(both_move).poison(both & !same)
}

/// An abstract value with its direction in every certification target.
#[derive(Debug, Clone)]
pub(crate) struct Val {
    /// The interval abstraction.
    pub(crate) val: AbsValue,
    /// How the value moves with each target.
    pub(crate) dirs: Dirs,
    /// The value's first-order form over the input box, in a walk that
    /// tracks one ([`abstract_eval_box`]); `None` where it is no tighter
    /// than the interval.
    pub(crate) slope: Option<Box<Slope>>,
}

impl Val {
    /// A value constant in every target.
    fn of(val: AbsValue) -> Val {
        Val {
            val,
            dirs: Dirs::ZERO,
            slope: None,
        }
    }

    /// The first-order form of a number or of an energy's Joule
    /// component: the tracked one, or else the constant form of its
    /// range.
    pub(crate) fn form(&self) -> Option<Slope> {
        match (&self.slope, &self.val) {
            (Some(s), _) => Some(Slope::clone(s)),
            (None, AbsValue::Num(r)) => Some(Slope::of(*r)),
            (None, AbsValue::Energy(e)) => Some(Slope::of(e.joules)),
            _ => None,
        }
    }

    fn join(&self, o: &Val) -> Result<Val> {
        let slope = match (&self.slope, &o.slope) {
            (None, None) => None,
            _ => self
                .form()
                .zip(o.form())
                .map(|(a, b)| Box::new(a.zip(&b, Interval::join))),
        };
        Ok(Val {
            val: self.val.join(&o.val)?,
            dirs: self.dirs.join(o.dirs),
            slope,
        })
    }

    /// The value with `Unknown` direction in the targets of `mask`.
    fn poisoned(mut self, mask: u64) -> Val {
        self.dirs = self.dirs.poison(mask);
        self
    }
}

type Locals = BTreeMap<String, Val>;

struct AbsEval<'a> {
    iface: &'a Interface,
    /// The directions an `ecv(name)` read carries; absent means constant.
    ecv_dirs: BTreeMap<&'a str, Dirs>,
    depth: usize,
}

/// Outcome of abstractly executing a block.
struct AbsFlow {
    /// Join of all values returned so far on paths that returned.
    returned: Option<Val>,
    /// Whether some path falls through the block.
    falls_through: bool,
}

impl AbsFlow {
    /// Every path through the block has returned.
    fn returns(returned: Option<Val>) -> AbsFlow {
        AbsFlow {
            returned,
            falls_through: false,
        }
    }
}

impl<'a> AbsEval<'a> {
    fn call(&mut self, name: &str, args: Vec<Val>) -> Result<Val> {
        if self.depth > 64 {
            return Err(Error::Analysis {
                msg: "abstract call depth exceeded (recursive interface?)".into(),
            });
        }
        let f = if let Some(f) = self.iface.fns().get(name) {
            f
        } else if self.iface.externs.contains_key(name) {
            return Err(Error::Link {
                msg: format!("extern `{name}` must be linked before analysis"),
            });
        } else {
            return Err(Error::Unresolved {
                kind: NameKind::Function,
                name: name.to_string(),
            });
        };
        if f.params.len() != args.len() {
            return Err(Error::Arity {
                func: name.to_string(),
                expected: f.params.len(),
                got: args.len(),
            });
        }
        let mut locals: Locals = f.params.iter().cloned().zip(args).collect();
        self.depth += 1;
        let flow = self.block(&f.body, &mut locals);
        self.depth -= 1;
        let flow = flow?;
        match flow.returned {
            Some(v) if !flow.falls_through => Ok(v),
            Some(_) | None => Err(Error::Analysis {
                msg: format!("function `{name}` may fall off the end under abstract evaluation"),
            }),
        }
    }

    fn block(&mut self, stmts: &[Stmt], locals: &mut Locals) -> Result<AbsFlow> {
        let mut returned: Option<Val> = None;
        for s in stmts {
            match s {
                Stmt::Let(name, e) => {
                    let v = self.expr(e, locals)?;
                    locals.insert(name.clone(), v);
                }
                Stmt::Assign(name, e) => {
                    if !locals.contains_key(name) {
                        return Err(unresolved_var(name));
                    }
                    let v = self.expr(e, locals)?;
                    locals.insert(name.clone(), v);
                }
                Stmt::If(c, t, els) => {
                    let cond = self.expr(c, locals)?;
                    match cond.val.as_bool()? {
                        known @ (AbsBool::True | AbsBool::False) => {
                            let taken = if known == AbsBool::True { t } else { els };
                            let f = self.block(taken, locals)?;
                            returned = join_opt(returned, f.returned)?;
                            if !f.falls_through {
                                return Ok(AbsFlow::returns(returned));
                            }
                        }
                        AbsBool::Unknown => {
                            // In a target the branch choice moves with, the
                            // piece of the function selected changes as the
                            // target moves: every join is poisoned there.
                            let poison = cond.dirs.moving();
                            let mut then_locals = locals.clone();
                            let ft = self.block(t, &mut then_locals)?;
                            let mut else_locals = locals.clone();
                            let fe = self.block(els, &mut else_locals)?;
                            returned = join_opt(returned, ft.returned.map(|v| v.poisoned(poison)))?;
                            returned = join_opt(returned, fe.returned.map(|v| v.poisoned(poison)))?;
                            match (ft.falls_through, fe.falls_through) {
                                (false, false) => return Ok(AbsFlow::returns(returned)),
                                (true, false) => *locals = then_locals,
                                (false, true) => *locals = else_locals,
                                (true, true) => {
                                    *locals = join_locals(&then_locals, &else_locals, poison)?;
                                }
                            }
                        }
                    }
                }
                Stmt::For {
                    var,
                    from,
                    to,
                    body,
                } => {
                    if !self.for_loop(var, from, to, body, locals, &mut returned)? {
                        return Ok(AbsFlow::returns(returned));
                    }
                }
                Stmt::While { cond, bound, body } => {
                    let mut exit: Option<Locals> = None;
                    let mut terminated = false;
                    // Targets the condition moves with: in them, how many
                    // iterations run moves too.
                    let mut poison = 0;
                    for _ in 0..=*bound {
                        let c = self.expr(cond, locals)?;
                        poison |= c.dirs.moving();
                        match c.val.as_bool()? {
                            AbsBool::False => {
                                exit = Some(join_exit(exit, locals)?);
                                terminated = true;
                                break;
                            }
                            AbsBool::Unknown => {
                                exit = Some(join_exit(exit, locals)?);
                            }
                            AbsBool::True => {}
                        }
                        let f = self.block(body, locals)?;
                        returned = join_opt(returned, f.returned.map(|v| v.poisoned(poison)))?;
                        if !f.falls_through {
                            terminated = true;
                            break;
                        }
                    }
                    if !terminated {
                        // After `bound` iterations the condition may still
                        // hold; the runtime would fault, so the worst case
                        // is unbounded from the analysis' perspective.
                        let c = self.expr(cond, locals)?;
                        poison |= c.dirs.moving();
                        match c.val.as_bool()? {
                            AbsBool::False => {
                                exit = Some(join_exit(exit, locals)?);
                            }
                            _ => {
                                return Err(Error::Analysis {
                                    msg: format!(
                                        "while loop may exceed its declared bound {bound}"
                                    ),
                                })
                            }
                        }
                    }
                    if let Some(mut e) = exit {
                        // Nothing the loop may write keeps a direction in
                        // a target its iteration count moves with.
                        if poison != 0 {
                            for v in e.values_mut() {
                                v.dirs = v.dirs.poison(poison);
                            }
                        }
                        *locals = e;
                    }
                }
                Stmt::Return(e) => {
                    let v = self.expr(e, locals)?;
                    return Ok(AbsFlow::returns(join_opt(returned, Some(v))?));
                }
            }
        }
        Ok(AbsFlow {
            returned,
            falls_through: true,
        })
    }

    /// A `for` loop, unrolled trip by trip. Joins every value the body
    /// returns into `returned`; reports whether the loop may fall through.
    ///
    /// In a target that moves the loop's bounds, the trip count moves too,
    /// and a direction survives only the accumulator pattern: a
    /// straight-line body of `x = x + e` statements (see
    /// [`accumulator_targets`]). Each increment `e` is recorded where the
    /// body evaluates it, so a statement that reads an earlier one's
    /// variable sees its post-update value. On exit `x` then moves as its
    /// entry value, its increments, and the trip count oriented by the
    /// increments' sign do; every other variable the body writes becomes
    /// `Unknown` in that target.
    fn for_loop(
        &mut self,
        var: &str,
        from: &Expr,
        to: &Expr,
        body: &[Stmt],
        locals: &mut Locals,
        returned: &mut Option<Val>,
    ) -> Result<bool> {
        let from_v = self.expr(from, locals)?;
        let to_v = self.expr(to, locals)?;
        let from_i = from_v.val.as_num()?;
        let to_i = to_v.val.as_num()?;
        let max_trips = (to_i.hi - from_i.lo).ceil().max(0.0);
        if max_trips > MAX_ABSTRACT_TRIPS as f64 {
            return Err(Error::Analysis {
                msg: format!(
                    "for-loop may run {max_trips} times; exceeds abstract \
                     unroll limit {MAX_ABSTRACT_TRIPS}"
                ),
            });
        }
        let min_trips = (to_i.lo - from_i.hi).ceil().max(0.0) as u64;
        let max_trips = max_trips as u64;
        let dependent = from_v.dirs.moving() | to_v.dirs.moving();
        let trip_dirs = to_v.dirs.join(from_v.dirs.flip());
        let accum = if dependent != 0 {
            accumulator_targets(body)
        } else {
            None
        };
        // Per accumulator: the join of its increments' directions, and
        // their common sign.
        let mut incs: BTreeMap<&str, (Dirs, Sign)> = BTreeMap::new();
        let mut exit: Option<Locals> = None;
        for k in 0..=max_trips {
            if k >= min_trips {
                exit = Some(join_exit(exit, locals)?);
            }
            if k == max_trips {
                break;
            }
            let iter_var = Interval::new(
                from_i.lo + k as f64,
                (from_i.hi + k as f64).min(to_i.hi - 1.0),
            );
            // The value of the loop variable at a given trip moves only
            // with `from`.
            locals.insert(
                var.to_string(),
                Val {
                    val: AbsValue::Num(iter_var),
                    dirs: from_v.dirs,
                    slope: None,
                },
            );
            let f = if accum.is_some() {
                self.accumulate(body, locals, &mut incs)?;
                AbsFlow {
                    returned: None,
                    falls_through: true,
                }
            } else {
                self.block(body, locals)?
            };
            *returned = join_opt(returned.take(), f.returned.map(|v| v.poisoned(dependent)))?;
            if !f.falls_through {
                if k < min_trips {
                    // The iteration definitely executes and every path
                    // through it returns: terminal.
                    return Ok(false);
                }
                // The loop may also exit before this iteration; keep the
                // joined exit states accumulated so far.
                break;
            }
        }
        let mut out = exit.expect("at least one exit state");
        if dependent != 0 {
            for (name, v) in out.iter_mut() {
                let moved = match (&accum, incs.get(name.as_str())) {
                    (Some(_), Some((inc, sign))) => inc.join(trip_dirs.scale(*sign)),
                    (Some(targets), None) if !targets.contains(name.as_str()) => continue,
                    _ => Dirs::UNKNOWN,
                };
                v.dirs = v.dirs.join(moved.only(dependent));
            }
        }
        *locals = out;
        Ok(true)
    }

    /// One trip of a straight-line accumulator body (see
    /// [`accumulator_targets`]): evaluates each `x = x + e` in order and
    /// records the direction and sign of its increment `e` into `incs`.
    fn accumulate<'b>(
        &mut self,
        body: &'b [Stmt],
        locals: &mut Locals,
        incs: &mut BTreeMap<&'b str, (Dirs, Sign)>,
    ) -> Result<()> {
        for s in body {
            let Stmt::Assign(name, Expr::Binary(op, a, b)) = s else {
                unreachable!("an accumulator body holds only `x = x + e` statements");
            };
            if !locals.contains_key(name) {
                return Err(unresolved_var(name));
            }
            let av = self.expr(a, locals)?;
            let bv = self.expr(b, locals)?;
            let inc = if matches!(a.as_ref(), Expr::Var(v) if v == name) {
                &bv
            } else {
                &av
            };
            let sign = sign_of(&inc.val);
            let entry = incs.entry(name.as_str()).or_insert((Dirs::ZERO, sign));
            entry.0 = entry.0.join(inc.dirs);
            if sign != entry.1 {
                entry.1 = Sign::Mixed;
            }
            let v = binary(*op, av, bv)?;
            locals.insert(name.clone(), v);
        }
        Ok(())
    }

    fn expr(&mut self, e: &Expr, locals: &Locals) -> Result<Val> {
        match e {
            Expr::Num(n) => Ok(Val::of(AbsValue::Num(Interval::point(*n)))),
            Expr::Bool(b) => Ok(Val::of(AbsValue::Bool(AbsBool::from_bool(*b)))),
            Expr::Joules(j) => Ok(Val::of(AbsValue::Energy(AbsEnergy::from_joules(
                Interval::point(*j),
            )))),
            Expr::Unit(u, k) => Ok(Val::of(AbsValue::Energy(AbsEnergy::from_unit(
                u.clone(),
                Interval::point(*k),
            )))),
            Expr::Var(name) => locals
                .get(name)
                .cloned()
                .ok_or_else(|| unresolved_var(name)),
            Expr::Field(base, name) => {
                let b = self.expr(base, locals)?;
                match b.val {
                    AbsValue::Record(mut fields) => match fields.remove(name) {
                        Some(val) => Ok(Val {
                            val,
                            dirs: b.dirs,
                            slope: None,
                        }),
                        None => Err(Error::Unresolved {
                            kind: NameKind::Field,
                            name: name.clone(),
                        }),
                    },
                    other => Err(Error::Type {
                        expected: "record",
                        got: abs_type_name(&other).into(),
                    }),
                }
            }
            Expr::Ecv(name) => {
                let decl = self.iface.ecvs.get(name).ok_or_else(|| Error::Unresolved {
                    kind: NameKind::Ecv,
                    name: name.clone(),
                })?;
                Ok(Val {
                    val: ecv_abs_value(&decl.dist),
                    dirs: self
                        .ecv_dirs
                        .get(name.as_str())
                        .copied()
                        .unwrap_or(Dirs::ZERO),
                    slope: None,
                })
            }
            Expr::Unary(op, inner) => {
                let v = self.expr(inner, locals)?;
                match op {
                    UnOp::Neg => {
                        let val = match v.val {
                            AbsValue::Num(i) => AbsValue::Num(Interval::new(-i.hi, -i.lo)),
                            AbsValue::Energy(e) => {
                                AbsValue::Energy(e.scale(&Interval::point(-1.0)))
                            }
                            other => {
                                return Err(Error::Type {
                                    expected: "number or energy",
                                    got: abs_type_name(&other).into(),
                                })
                            }
                        };
                        Ok(Val {
                            val,
                            dirs: v.dirs.flip(),
                            slope: v
                                .slope
                                .map(|s| Box::new(Slope::of(Interval::point(0.0)).sub(&s))),
                        })
                    }
                    UnOp::Not => Ok(Val {
                        val: AbsValue::Bool(v.val.as_bool()?.not()),
                        dirs: v.dirs.collapse(),
                        slope: None,
                    }),
                }
            }
            Expr::Binary(op, a, b) => {
                let av = self.expr(a, locals)?;
                let bv = self.expr(b, locals)?;
                binary(*op, av, bv)
            }
            Expr::Call(name, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.expr(a, locals)?);
                }
                if self.iface.fns().contains_key(name) || self.iface.externs.contains_key(name) {
                    self.call(name, vals)
                } else if let Some(b) = Builtin::from_name(name) {
                    builtin(b, &vals)
                } else {
                    Err(Error::Unresolved {
                        kind: NameKind::Function,
                        name: name.clone(),
                    })
                }
            }
            Expr::BuiltinCall(b, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.expr(a, locals)?);
                }
                builtin(*b, &vals)
            }
            Expr::IfExpr(c, t, f) => {
                let cond = self.expr(c, locals)?;
                match cond.val.as_bool()? {
                    AbsBool::True => self.expr(t, locals),
                    AbsBool::False => self.expr(f, locals),
                    AbsBool::Unknown => {
                        let tv = self.expr(t, locals)?;
                        let fv = self.expr(f, locals)?;
                        Ok(tv.join(&fv)?.poisoned(cond.dirs.moving()))
                    }
                }
            }
        }
    }
}

fn unresolved_var(name: &str) -> Error {
    Error::Unresolved {
        kind: NameKind::Variable,
        name: name.to_string(),
    }
}

/// Matches a straight-line accumulator body: every statement has the
/// shape `x = x + e` or `x = e + x`. Returns the accumulated variables, or
/// `None` when any statement breaks the pattern (two assignments to one
/// variable also break it).
fn accumulator_targets(body: &[Stmt]) -> Option<BTreeSet<&str>> {
    let mut out = BTreeSet::new();
    for s in body {
        let Stmt::Assign(name, Expr::Binary(BinOp::Add, a, b)) = s else {
            return None;
        };
        let is_x = |e: &Expr| matches!(e, Expr::Var(v) if v == name);
        if !(is_x(a.as_ref()) || is_x(b.as_ref())) || !out.insert(name.as_str()) {
            return None;
        }
    }
    Some(out)
}

fn join_opt(a: Option<Val>, b: Option<Val>) -> Result<Option<Val>> {
    Ok(match (a, b) {
        (None, x) | (x, None) => x,
        (Some(a), Some(b)) => Some(a.join(&b)?),
    })
}

/// Joins `locals` into a loop's exit state.
fn join_exit(exit: Option<Locals>, locals: &Locals) -> Result<Locals> {
    match exit {
        None => Ok(locals.clone()),
        Some(e) => join_locals(&e, locals, 0),
    }
}

/// Joins two local environments. Variables defined on only one path are
/// dropped; a later use of such a variable fails the analysis, which is
/// the sound response. In the targets of `poison` the join is
/// target-dependent, so a variable the two paths disagree on becomes
/// `Unknown` there.
fn join_locals(a: &Locals, b: &Locals, poison: u64) -> Result<Locals> {
    let mut out = BTreeMap::new();
    for (k, va) in a {
        if let Some(vb) = b.get(k) {
            let mut j = va.join(vb)?;
            if poison != 0 {
                let differ = if va.val == vb.val {
                    (va.dirs.up ^ vb.dirs.up) | (va.dirs.down ^ vb.dirs.down)
                } else {
                    !0
                };
                j.dirs = j.dirs.poison(poison & differ);
            }
            out.insert(k.clone(), j);
        }
    }
    Ok(out)
}

/// A binary operator on intervals, with the directions of its result.
fn binary(op: BinOp, a: Val, b: Val) -> Result<Val> {
    let dirs = match op {
        BinOp::Add => a.dirs.join(b.dirs),
        BinOp::Sub => a.dirs.join(b.dirs.flip()),
        BinOp::Mul => mul_dirs(sign_of(&a.val), a.dirs, sign_of(&b.val), b.dirs),
        // a / b = a * (1/b): 1/b moves against b and keeps b's sign (b is
        // bounded away from zero, or the interval division errors).
        BinOp::Div => mul_dirs(sign_of(&a.val), a.dirs, sign_of(&b.val), b.dirs.flip()),
        _ => a.dirs.join(b.dirs).collapse(),
    };
    let slope = match (&a.slope, &b.slope) {
        (None, None) => None,
        _ => binary_slope(op, &a, &b)?.map(Box::new),
    };
    Ok(Val {
        val: abs_binary(op, a.val, b.val)?,
        dirs,
        slope,
    })
}

/// The first-order form of `a op b`, where the operator keeps one; `None`
/// leaves the result to its interval.
fn binary_slope(op: BinOp, a: &Val, b: &Val) -> Result<Option<Slope>> {
    use AbsValue::{Energy, Num};
    let (Some(fa), Some(fb)) = (a.form(), b.form()) else {
        return Ok(None);
    };
    Ok(match (op, &a.val, &b.val) {
        (BinOp::Add, Num(_), Num(_)) | (BinOp::Add, Energy(_), Energy(_)) => {
            Some(fa.zip(&fb, Interval::add))
        }
        (BinOp::Sub, Num(_), Num(_)) | (BinOp::Sub, Energy(_), Energy(_)) => Some(fa.sub(&fb)),
        (BinOp::Mul, _, Num(r)) if matches!(a.val, Num(_) | Energy(_)) => Some(fa.mul(&fb, r)),
        (BinOp::Mul, Num(r), Energy(_)) => Some(fb.mul(&fa, r)),
        (BinOp::Div, Num(_) | Energy(_), Num(r)) if b.slope.is_none() => Some(fa.div(r)?),
        _ => None,
    })
}

fn abs_binary(op: BinOp, a: AbsValue, b: AbsValue) -> Result<AbsValue> {
    use BinOp::*;
    match op {
        Add | Sub => match (a, b) {
            (AbsValue::Num(x), AbsValue::Num(y)) => {
                Ok(AbsValue::Num(if op == Add { x.add(&y) } else { x.sub(&y) }))
            }
            (AbsValue::Energy(x), AbsValue::Energy(y)) => Ok(AbsValue::Energy(if op == Add {
                x.add(&y)
            } else {
                x.sub(&y)
            })),
            (a, b) => Err(Error::Type {
                expected: "matching operand types for +/-",
                got: format!("{} and {}", abs_type_name(&a), abs_type_name(&b)),
            }),
        },
        Mul => match (a, b) {
            (AbsValue::Num(x), AbsValue::Num(y)) => Ok(AbsValue::Num(x.mul(&y))),
            (AbsValue::Energy(e), AbsValue::Num(k)) | (AbsValue::Num(k), AbsValue::Energy(e)) => {
                Ok(AbsValue::Energy(e.scale(&k)))
            }
            (a, b) => Err(Error::Type {
                expected: "number*number or energy*number",
                got: format!("{} and {}", abs_type_name(&a), abs_type_name(&b)),
            }),
        },
        Div => match (a, b) {
            (AbsValue::Num(x), AbsValue::Num(y)) => Ok(AbsValue::Num(x.div(&y)?)),
            (AbsValue::Energy(e), AbsValue::Num(k)) => Ok(AbsValue::Energy(e.div_num(&k)?)),
            (AbsValue::Energy(x), AbsValue::Energy(y)) => {
                if !x.abstracts.is_empty() || !y.abstracts.is_empty() {
                    return Err(Error::Analysis {
                        msg: "energy/energy division requires concrete energies".into(),
                    });
                }
                Ok(AbsValue::Num(x.joules.div(&y.joules)?))
            }
            (a, b) => Err(Error::Type {
                expected: "number/number, energy/number, or energy/energy",
                got: format!("{} and {}", abs_type_name(&a), abs_type_name(&b)),
            }),
        },
        Mod => {
            let x = a.as_num()?;
            let y = b.as_num()?;
            if y.contains(0.0) {
                return Err(Error::Analysis {
                    msg: "possible modulo by zero under worst-case analysis".into(),
                });
            }
            if x.is_point() && y.is_point() {
                Ok(AbsValue::Num(Interval::point(x.lo.rem_euclid(y.lo))))
            } else {
                // `rem_euclid` is bounded by [0, |y|.hi).
                let m = y.lo.abs().max(y.hi.abs());
                Ok(AbsValue::Num(Interval::new(0.0, m)))
            }
        }
        Eq | Ne => {
            let r = abs_compare_eq(&a, &b)?;
            Ok(AbsValue::Bool(if op == Eq { r } else { r.not() }))
        }
        Lt | Le | Gt | Ge => {
            let (x, y) = match (&a, &b) {
                (AbsValue::Num(x), AbsValue::Num(y)) => (*x, *y),
                (AbsValue::Energy(x), AbsValue::Energy(y))
                    if x.abstracts.is_empty() && y.abstracts.is_empty() =>
                {
                    (x.joules, y.joules)
                }
                _ => {
                    return Err(Error::Type {
                        expected: "numbers or concrete energies for comparison",
                        got: format!("{} and {}", abs_type_name(&a), abs_type_name(&b)),
                    })
                }
            };
            // `x < y` and `x <= y`; `>` and `>=` swap the operands.
            let lt = |x: Interval, y: Interval| {
                if x.hi < y.lo {
                    AbsBool::True
                } else if x.lo >= y.hi {
                    AbsBool::False
                } else {
                    AbsBool::Unknown
                }
            };
            let le = |x: Interval, y: Interval| {
                if x.hi <= y.lo {
                    AbsBool::True
                } else if x.lo > y.hi {
                    AbsBool::False
                } else {
                    AbsBool::Unknown
                }
            };
            let r = match op {
                Lt => lt(x, y),
                Le => le(x, y),
                Gt => lt(y, x),
                _ => le(y, x),
            };
            Ok(AbsValue::Bool(r))
        }
        And => Ok(AbsValue::Bool(a.as_bool()?.and(b.as_bool()?))),
        Or => Ok(AbsValue::Bool(a.as_bool()?.or(b.as_bool()?))),
    }
}

fn abs_compare_eq(a: &AbsValue, b: &AbsValue) -> Result<AbsBool> {
    match (a, b) {
        (AbsValue::Num(x), AbsValue::Num(y)) => Ok(if x.is_point() && y.is_point() {
            AbsBool::from_bool(x.lo == y.lo)
        } else if x.hi < y.lo || y.hi < x.lo {
            AbsBool::False
        } else {
            AbsBool::Unknown
        }),
        (AbsValue::Bool(x), AbsValue::Bool(y)) => Ok(match (x, y) {
            (AbsBool::Unknown, _) | (_, AbsBool::Unknown) => AbsBool::Unknown,
            _ => AbsBool::from_bool(x == y),
        }),
        _ => Err(Error::Type {
            expected: "matching operand types for ==",
            got: format!("{} and {}", abs_type_name(a), abs_type_name(b)),
        }),
    }
}

fn abs_builtin(b: Builtin, args: &[Val]) -> Result<AbsValue> {
    if args.len() != b.arity() {
        return Err(Error::Arity {
            func: b.name().to_string(),
            expected: b.arity(),
            got: args.len(),
        });
    }
    let num = |i: usize| args[i].val.as_num();
    match b {
        Builtin::Min | Builtin::Max => {
            let pick = |x: f64, y: f64| {
                if b == Builtin::Min {
                    x.min(y)
                } else {
                    x.max(y)
                }
            };
            match (&args[0].val, &args[1].val) {
                (AbsValue::Num(x), AbsValue::Num(y)) => Ok(AbsValue::Num(Interval::new(
                    pick(x.lo, y.lo),
                    pick(x.hi, y.hi),
                ))),
                (AbsValue::Energy(x), AbsValue::Energy(y))
                    if x.abstracts.is_empty() && y.abstracts.is_empty() =>
                {
                    Ok(AbsValue::Energy(AbsEnergy::from_joules(Interval::new(
                        pick(x.joules.lo, y.joules.lo),
                        pick(x.joules.hi, y.joules.hi),
                    ))))
                }
                (a, c) => Err(Error::Type {
                    expected: "two numbers or two concrete energies",
                    got: format!("{} and {}", abs_type_name(a), abs_type_name(c)),
                }),
            }
        }
        Builtin::Abs => {
            let i = num(0)?;
            Ok(AbsValue::Num(if i.lo >= 0.0 {
                i
            } else if i.hi <= 0.0 {
                Interval::new(-i.hi, -i.lo)
            } else {
                Interval::new(0.0, i.lo.abs().max(i.hi.abs()))
            }))
        }
        Builtin::Ceil => Ok(AbsValue::Num(num(0)?.map_monotone(f64::ceil))),
        Builtin::Floor => Ok(AbsValue::Num(num(0)?.map_monotone(f64::floor))),
        Builtin::Round => Ok(AbsValue::Num(num(0)?.map_monotone(f64::round))),
        Builtin::Sqrt => {
            let i = num(0)?;
            if i.lo < 0.0 {
                Err(Error::Analysis {
                    msg: "sqrt of possibly negative value".into(),
                })
            } else {
                Ok(AbsValue::Num(i.map_monotone(f64::sqrt)))
            }
        }
        Builtin::Log2 => {
            let i = num(0)?;
            if i.lo <= 0.0 {
                Err(Error::Analysis {
                    msg: "log2 of possibly non-positive value".into(),
                })
            } else {
                Ok(AbsValue::Num(i.map_monotone(f64::log2)))
            }
        }
        Builtin::Ln => {
            let i = num(0)?;
            if i.lo <= 0.0 {
                Err(Error::Analysis {
                    msg: "ln of possibly non-positive value".into(),
                })
            } else {
                Ok(AbsValue::Num(i.map_monotone(f64::ln)))
            }
        }
        Builtin::Exp => Ok(AbsValue::Num(num(0)?.map_monotone(f64::exp))),
        Builtin::Pow => {
            let base = num(0)?;
            let exp = num(1)?;
            if !exp.is_point() {
                return Err(Error::Analysis {
                    msg: "pow with interval exponent is not supported".into(),
                });
            }
            let e = exp.lo;
            if base.lo < 0.0 {
                // Negative bases only make sense with integer exponents;
                // there the exact `powi` range evaluator handles the
                // non-monotone even-power case soundly.
                if e >= 0.0 && e.fract() == 0.0 && e <= u32::MAX as f64 {
                    return Ok(AbsValue::Num(base.powi(e as u32)));
                }
                return Err(Error::Analysis {
                    msg: "pow with possibly negative base is not supported".into(),
                });
            }
            if e >= 0.0 {
                Ok(AbsValue::Num(base.map_monotone(|x| x.powf(e))))
            } else {
                if base.contains(0.0) {
                    return Err(Error::Analysis {
                        msg: "pow with negative exponent and base possibly zero".into(),
                    });
                }
                Ok(AbsValue::Num(Interval::new(
                    base.hi.powf(e),
                    base.lo.powf(e),
                )))
            }
        }
        Builtin::Joules => Ok(AbsValue::Energy(AbsEnergy::from_joules(num(0)?))),
        Builtin::Clamp => {
            let x = num(0)?;
            let lo = num(1)?;
            let hi = num(2)?;
            Ok(AbsValue::Num(Interval::new(
                x.lo.clamp(lo.lo, hi.hi),
                x.hi.clamp(lo.lo, hi.hi),
            )))
        }
    }
}

/// A builtin on intervals, with the directions of its result.
fn builtin(b: Builtin, args: &[Val]) -> Result<Val> {
    let val = abs_builtin(b, args)?;
    let dirs = match b {
        // Monotone non-decreasing in every argument.
        Builtin::Min | Builtin::Max => args.iter().fold(Dirs::ZERO, |d, a| d.join(a.dirs)),
        Builtin::Sqrt
        | Builtin::Exp
        | Builtin::Ln
        | Builtin::Log2
        | Builtin::Floor
        | Builtin::Ceil
        | Builtin::Round
        | Builtin::Joules => args[0].dirs,
        Builtin::Abs => match sign_of(&args[0].val) {
            Sign::NonNeg => args[0].dirs,
            Sign::NonPos => args[0].dirs.flip(),
            Sign::Mixed => args[0].dirs.collapse(),
        },
        Builtin::Pow => {
            let (base, exp) = (&args[0], &args[1]);
            match &exp.val {
                // A constant exponent over a non-negative base: x^e is
                // monotone, increasing for e >= 0 and decreasing below.
                AbsValue::Num(e) if e.is_point() && sign_of(&base.val) == Sign::NonNeg => {
                    let d = if e.lo >= 0.0 {
                        base.dirs
                    } else {
                        base.dirs.flip()
                    };
                    d.join(exp.dirs.collapse())
                }
                _ => base.dirs.join(exp.dirs).collapse(),
            }
        }
        // Monotone in `x` between constant bounds.
        Builtin::Clamp => args[0]
            .dirs
            .poison(args[1].dirs.moving() | args[2].dirs.moving()),
    };
    Ok(Val {
        val,
        dirs,
        slope: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn interval_arithmetic() {
        let a = Interval::new(1.0, 2.0);
        let b = Interval::new(-1.0, 3.0);
        assert_eq!(a.add(&b), Interval::new(0.0, 5.0));
        assert_eq!(a.sub(&b), Interval::new(-2.0, 3.0));
        assert_eq!(a.mul(&b), Interval::new(-2.0, 6.0));
        assert!(a.div(&b).is_err());
        assert_eq!(
            a.div(&Interval::new(2.0, 4.0)).unwrap(),
            Interval::new(0.25, 1.0)
        );
        assert_eq!(a.join(&b), Interval::new(-1.0, 3.0));
        assert!(Interval::point(2.0).is_point());
    }

    #[test]
    fn powi_is_exact_across_zero() {
        // Even powers are non-monotone over zero-spanning intervals:
        // endpoint mapping would report [1, 4] for x² over [-1, 2].
        assert_eq!(Interval::new(-1.0, 2.0).powi(2), Interval::new(0.0, 4.0));
        assert_eq!(Interval::new(-3.0, -1.0).powi(2), Interval::new(1.0, 9.0));
        // Odd powers are monotone everywhere.
        assert_eq!(Interval::new(-2.0, 1.0).powi(3), Interval::new(-8.0, 1.0));
        // x^0 is identically 1, even over zero.
        assert_eq!(Interval::new(-5.0, 5.0).powi(0), Interval::point(1.0));
    }

    #[test]
    fn map_quadratic_covers_the_vertex() {
        // A DVFS-style power curve swept across its minimum: the vertex
        // of 0.3 - 0.8·f + f² sits at f = 0.4, strictly inside the
        // [0.1, 1.0] frequency range. Endpoint-only evaluation would
        // report a lower bound of 0.23 and miss the true minimum 0.14.
        let f = Interval::new(0.1, 1.0);
        let r = f.map_quadratic(0.3, -0.8, 1.0);
        assert!((r.lo - 0.14).abs() < 1e-12, "vertex minimum: {r:?}");
        assert!((r.hi - 0.5).abs() < 1e-12, "endpoint maximum: {r:?}");
        // With the vertex outside the interval the quadratic is monotone
        // and the endpoints are exact.
        let g = Interval::new(0.5, 1.0);
        let s = g.map_quadratic(0.3, -0.8, 1.0);
        assert!((s.lo - (0.3 - 0.4 + 0.25)).abs() < 1e-12);
        assert!((s.hi - 0.5).abs() < 1e-12);
        // Degenerate quadratic (c2 = 0): plain affine endpoints.
        assert_eq!(
            Interval::new(0.0, 2.0).map_quadratic(1.0, 2.0, 0.0),
            Interval::new(1.0, 5.0)
        );
    }

    #[test]
    fn division_endpoints_are_exact_quotients() {
        // Point ÷ point must be *exactly* the concrete quotient — the
        // bound certifier relies on it. Computing x·(1/y) instead double-
        // rounds and can land one ulp off the true quotient; first find a
        // pair where the two disagree to show the hazard is real.
        let mut witnessed = false;
        for num in 1..60u32 {
            for den in 1..60u32 {
                let (x, y) = (f64::from(num) * 0.1, f64::from(den) * 0.3);
                let exact = x / y;
                witnessed |= (x * (1.0 / y)).to_bits() != exact.to_bits();
                let q = Interval::point(x).div(&Interval::point(y)).unwrap();
                assert!(q.is_point(), "{x}/{y} must stay a point");
                assert_eq!(q.lo.to_bits(), exact.to_bits(), "{x}/{y}");
                // And the concrete quotient never escapes a widened box.
                let wide = Interval::new(x * 0.5, x * 2.0)
                    .div(&Interval::new(y * 0.5, y * 2.0))
                    .unwrap();
                assert!(wide.contains(exact), "{exact} escapes {wide:?}");
            }
        }
        assert!(witnessed, "expected at least one double-rounding witness");
    }

    #[test]
    fn absbool_logic() {
        use AbsBool::*;
        assert_eq!(True.and(Unknown), Unknown);
        assert_eq!(False.and(Unknown), False);
        assert_eq!(True.or(Unknown), True);
        assert_eq!(False.or(Unknown), Unknown);
        assert_eq!(Unknown.not(), Unknown);
        assert_eq!(True.not(), False);
    }

    #[test]
    fn straight_line_energy_is_point() {
        let iface = parse("interface s { fn f(n) { return 2 mJ * n + 1 J; } }").unwrap();
        let out = abstract_eval(&iface, "f", &[AbsValue::Num(Interval::new(0.0, 100.0))]).unwrap();
        let e = out.as_energy().unwrap();
        assert!((e.joules.lo - 1.0).abs() < 1e-12);
        assert!((e.joules.hi - 1.2).abs() < 1e-12);
    }

    #[test]
    fn unknown_branch_joins() {
        let iface = parse(
            r#"interface s {
                ecv hit: bernoulli(0.5);
                fn f() {
                    if ecv(hit) { return 1 J; } else { return 3 J; }
                }
            }"#,
        )
        .unwrap();
        let out = abstract_eval(&iface, "f", &[]).unwrap();
        let e = out.as_energy().unwrap();
        assert_eq!(e.joules, Interval::new(1.0, 3.0));
    }

    #[test]
    fn degenerate_bernoulli_prunes_branch() {
        let iface = parse(
            r#"interface s {
                ecv hit: bernoulli(1);
                fn f() {
                    if ecv(hit) { return 1 J; } else { return 3 J; }
                }
            }"#,
        )
        .unwrap();
        let out = abstract_eval(&iface, "f", &[]).unwrap();
        assert_eq!(out.as_energy().unwrap().joules, Interval::point(1.0));
    }

    #[test]
    fn for_loop_accumulates_bounds() {
        let iface = parse(
            r#"interface s {
                fn f(n) {
                    let acc = 0 J;
                    for i in 0..n { acc = acc + 2 mJ; }
                    return acc;
                }
            }"#,
        )
        .unwrap();
        let out = abstract_eval(&iface, "f", &[AbsValue::Num(Interval::new(3.0, 5.0))]).unwrap();
        let e = out.as_energy().unwrap();
        assert!((e.joules.lo - 0.006).abs() < 1e-12, "lo={}", e.joules.lo);
        assert!((e.joules.hi - 0.010).abs() < 1e-12, "hi={}", e.joules.hi);
    }

    #[test]
    fn for_loop_unroll_limit() {
        let iface = parse(
            r#"interface s {
                fn f() {
                    let acc = 0 J;
                    for i in 0..1000000 { acc = acc + 1 mJ; }
                    return acc;
                }
            }"#,
        )
        .unwrap();
        assert!(matches!(
            abstract_eval(&iface, "f", &[]),
            Err(Error::Analysis { .. })
        ));
    }

    #[test]
    fn while_loop_with_sound_bound() {
        let iface = parse(
            r#"interface s {
                fn f() {
                    let i = 0;
                    let acc = 0 J;
                    while i < 5 bound 10 {
                        i = i + 1;
                        acc = acc + 1 J;
                    }
                    return acc;
                }
            }"#,
        )
        .unwrap();
        let out = abstract_eval(&iface, "f", &[]).unwrap();
        // The analysis joins exit states for every plausible exit point, so
        // the bound must cover [0 J, 5 J]; crucially hi == 5.
        let e = out.as_energy().unwrap();
        assert_eq!(e.joules.hi, 5.0);
    }

    #[test]
    fn while_loop_possibly_unbounded_rejected() {
        let iface = parse(
            r#"interface s {
                fn f(n) {
                    let i = 0;
                    while i < n bound 4 { i = i + 1; }
                    return 1 J;
                }
            }"#,
        )
        .unwrap();
        let r = abstract_eval(&iface, "f", &[AbsValue::Num(Interval::new(0.0, 100.0))]);
        assert!(matches!(r, Err(Error::Analysis { .. })));
    }

    #[test]
    fn calls_compose_intervals() {
        let iface = parse(
            r#"interface s {
                fn leaf(x) { return 3 mJ * x; }
                fn f(n) { return leaf(n) + leaf(2 * n); }
            }"#,
        )
        .unwrap();
        let out = abstract_eval(&iface, "f", &[AbsValue::Num(Interval::new(1.0, 2.0))]).unwrap();
        let e = out.as_energy().unwrap();
        assert!((e.joules.lo - 0.009).abs() < 1e-12);
        assert!((e.joules.hi - 0.018).abs() < 1e-12);
    }

    #[test]
    fn unlinked_extern_rejected() {
        let iface = parse("interface s { extern fn hw(x); fn f(x) { return hw(x); } }").unwrap();
        assert!(matches!(
            abstract_eval(&iface, "f", &[AbsValue::Num(Interval::point(1.0))]),
            Err(Error::Link { .. })
        ));
    }

    #[test]
    fn abstract_inputs_from_spec() {
        let iface =
            parse("interface s { fn f(n, req) { return 1 mJ * n + 1 mJ * req.size; } }").unwrap();
        let spec = InputSpec::new()
            .range("n", 0.0, 10.0)
            .range("req.size", 1.0, 64.0);
        let args = abstract_inputs(&iface, "f", &spec).unwrap();
        assert_eq!(args.len(), 2);
        assert_eq!(args[0], AbsValue::Num(Interval::new(0.0, 10.0)));
        match &args[1] {
            AbsValue::Record(fields) => {
                assert_eq!(fields["size"], AbsValue::Num(Interval::new(1.0, 64.0)));
            }
            other => panic!("expected record, got {other:?}"),
        }
        let bad = InputSpec::new().range("n", 0.0, 10.0);
        assert!(abstract_inputs(&iface, "f", &bad).is_err());
    }

    #[test]
    fn ecv_abstract_values() {
        assert_eq!(
            ecv_abs_value(&DistSpec::Bernoulli { p: 0.5 }),
            AbsValue::Bool(AbsBool::Unknown)
        );
        assert_eq!(
            ecv_abs_value(&DistSpec::Discrete {
                outcomes: vec![(1.0, 0.5), (4.0, 0.5), (99.0, 0.0)]
            }),
            AbsValue::Num(Interval::new(1.0, 4.0))
        );
        assert_eq!(
            ecv_abs_value(&DistSpec::Point { value: 7.0 }),
            AbsValue::Num(Interval::point(7.0))
        );
    }

    #[test]
    fn upper_bound_with_calibration() {
        let mut e = AbsEnergy::from_joules(Interval::new(1.0, 2.0));
        e.abstracts.insert("relu".into(), Interval::new(0.0, 4.0));
        let cal = Calibration::from_pairs([("relu", Energy::millijoules(10.0))]);
        assert!((e.upper_bound(&cal).unwrap().as_joules() - 2.04).abs() < 1e-12);
        assert!((e.lower_bound(&cal).unwrap().as_joules() - 1.0).abs() < 1e-12);
        assert!(e.upper_bound(&Calibration::empty()).is_err());
    }

    #[test]
    fn branch_local_variables_dropped_at_join() {
        let iface = parse(
            r#"interface s {
                ecv hit: bernoulli(0.5);
                fn f() {
                    if ecv(hit) { let x = 1; } else { }
                    return 1 J;
                }
            }"#,
        )
        .unwrap();
        // `x` is branch-local and unused afterwards: fine.
        assert!(abstract_eval(&iface, "f", &[]).is_ok());
    }
}
