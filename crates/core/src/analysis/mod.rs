//! Analyses over energy interfaces: the toolchain of §4.
//!
//! - [`interval`]: sound interval abstract interpretation — the one
//!   abstract interpreter, whose walk also tracks each value's direction
//!   in the inputs being certified, or its first-order form in them.
//! - [`worst_case`]: upper/lower energy bounds over declared input spaces.
//! - [`paths`]: per-path enumeration over ECV outcomes (§4.2).
//! - [`constant_energy`]: side-channel freedom checking (§4.1): proven
//!   on the walk, refuted by a witness pair from the probe grid.
//! - [`compat`]: envelope compatibility between spec and implementation
//!   interfaces (§4.1): proven box by box on the walk, per ECV variant and
//!   through the first-order form of candidate − spec, refuted by a
//!   concrete counterexample corner.
//! - [`cert`]: sound per-function energy certificates — guaranteed
//!   min/max bounds plus monotonicity verdicts (`eic certify`), both read
//!   off one [`interval`] walk — and the deterministic probe grid that
//!   checks them against concrete executions.
//!
//! No analysis here draws random numbers.

pub mod cert;
pub mod compat;
pub mod constant_energy;
pub mod interval;
pub mod paths;
pub mod worst_case;
