//! Versioned interface registry with atomic swap and rollback.
//!
//! A published energy interface is a *claim about a device*, and devices
//! drift — so a serving stack that evaluates interfaces needs a way to
//! replace one **between requests**, without dropping work, and to back
//! out a replacement that turns out worse. [`InterfaceRegistry`] is that
//! seam: an append-only store of [`InterfaceVersion`]s plus one active
//! index, advanced by [`swap_to`](InterfaceRegistry::swap_to) and
//! reverted by [`rollback`](InterfaceRegistry::rollback).
//!
//! ## Epoch swap protocol
//!
//! The registry follows ArcSwap-style epoch semantics, specialized to
//! the repo's deterministic single-threaded request loops:
//!
//! 1. Consumers read [`current`](InterfaceRegistry::current) once per
//!    request and hold the returned `Arc`s for the request's whole
//!    lifetime. A request therefore sees exactly one version end to end
//!    — a swap can never change an in-flight evaluation.
//! 2. Swaps only replace the active *index*; prior versions are never
//!    mutated or freed, so any borrowed `Arc<Interface>` stays valid.
//! 3. Every version carries a content [`fingerprint`](InterfaceVersion::fingerprint):
//!    each interface's [`fingerprint_interface`] (a direct walk of its
//!    content) plus the calibration pairs, folded with FNV. The
//!    [`EvalCache`](crate::cache::EvalCache) keys energy queries by the
//!    same interface fingerprints, so answers computed for a stale version
//!    can never alias the recalibrated one — no cache flush is needed at
//!    swap time.
//! 4. The epoch counter increments on every swap *and* rollback, and the
//!    registry is driven only by the deterministic request clock, so a
//!    replayed run performs the identical version sequence.

use std::sync::Arc;

use ei_telemetry as telemetry;
use serde::Serialize;

use crate::cache::fingerprint_interface;
use crate::interface::Interface;
use crate::units::Calibration;

/// One immutable published version: a set of interfaces plus the
/// calibration they were fitted against.
#[derive(Debug, Clone)]
pub struct InterfaceVersion {
    /// Dense version number (`0` is the initial publication).
    pub version: u32,
    /// The interfaces of this version (shared, never mutated).
    pub interfaces: Vec<Arc<Interface>>,
    /// Calibration of the abstract units used by `interfaces`.
    pub calibration: Calibration,
    /// Content fingerprint over interfaces + calibration.
    pub fingerprint: u64,
    /// Human-readable provenance ("initial fit", "recal @ 12.4s", ...).
    pub note: String,
}

/// Fingerprints a version's content: every interface's own fingerprint
/// plus the calibration pairs, folded FNV-style so any change anywhere
/// changes the result.
fn fingerprint_version(interfaces: &[Arc<Interface>], calibration: &Calibration) -> u64 {
    const FNV_PRIME: u64 = 0x100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    for iface in interfaces {
        mix(fingerprint_interface(iface));
    }
    let mut pairs: Vec<(String, f64)> = calibration
        .iter()
        .map(|(unit, e)| (unit.to_string(), e.as_joules()))
        .collect();
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    for (unit, joules) in pairs {
        for b in unit.as_bytes() {
            mix(*b as u64);
        }
        mix(joules.to_bits());
    }
    h
}

/// Swap/rollback accounting, serialized into experiment reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct RegistryStats {
    /// Versions published (including the initial one).
    pub published: u64,
    /// Forward swaps performed.
    pub swaps: u64,
    /// Rollbacks performed.
    pub rollbacks: u64,
    /// Current epoch (bumps on every swap and rollback).
    pub epoch: u64,
}

/// An append-only, epoch-versioned interface store.
#[derive(Debug, Clone)]
pub struct InterfaceRegistry {
    versions: Vec<InterfaceVersion>,
    active: usize,
    /// The version active before the last forward swap (rollback target).
    previous: Option<usize>,
    stats: RegistryStats,
}

impl InterfaceRegistry {
    /// Creates a registry with `interfaces`/`calibration` as version 0.
    pub fn new(
        interfaces: Vec<Interface>,
        calibration: Calibration,
        note: impl Into<String>,
    ) -> Self {
        let mut reg = InterfaceRegistry {
            versions: Vec::new(),
            active: 0,
            previous: None,
            stats: RegistryStats::default(),
        };
        reg.publish(interfaces, calibration, note);
        reg
    }

    /// Publishes a new version and returns its number. Publication does
    /// **not** activate it — call [`Self::swap_to`] for that, so a refit
    /// can be staged, validated, and only then made live.
    pub fn publish(
        &mut self,
        interfaces: Vec<Interface>,
        calibration: Calibration,
        note: impl Into<String>,
    ) -> u32 {
        let interfaces: Vec<Arc<Interface>> = interfaces.into_iter().map(Arc::new).collect();
        let fingerprint = fingerprint_version(&interfaces, &calibration);
        let version = self.versions.len() as u32;
        self.versions.push(InterfaceVersion {
            version,
            interfaces,
            calibration,
            fingerprint,
            note: note.into(),
        });
        self.stats.published += 1;
        telemetry::counter_add("core.registry.published", 1);
        version
    }

    /// Atomically activates `version` (it must exist). The previously
    /// active version becomes the rollback target. Returns `false` (and
    /// does nothing) for an unknown or already-active version.
    pub fn swap_to(&mut self, version: u32) -> bool {
        let idx = version as usize;
        if idx >= self.versions.len() || idx == self.active {
            return false;
        }
        self.previous = Some(self.active);
        self.active = idx;
        self.stats.swaps += 1;
        self.stats.epoch += 1;
        telemetry::counter_add("core.registry.swaps", 1);
        true
    }

    /// Reverts to the version active before the last forward swap.
    /// Returns the reactivated version number, or `None` if there is no
    /// rollback target (never swapped, or already rolled back).
    pub fn rollback(&mut self) -> Option<u32> {
        let prev = self.previous.take()?;
        self.active = prev;
        self.stats.rollbacks += 1;
        self.stats.epoch += 1;
        telemetry::counter_add("core.registry.rollbacks", 1);
        Some(self.versions[prev].version)
    }

    /// The active version (consumers hold its `Arc`s per request).
    pub fn current(&self) -> &InterfaceVersion {
        &self.versions[self.active]
    }

    /// The active version number.
    pub fn active_version(&self) -> u32 {
        self.versions[self.active].version
    }

    /// Looks a published version up by number.
    pub fn version(&self, version: u32) -> Option<&InterfaceVersion> {
        self.versions.get(version as usize)
    }

    /// Number of published versions.
    pub fn len(&self) -> usize {
        self.versions.len()
    }

    /// Always false: a registry holds at least version 0.
    pub fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }

    /// Swap/rollback accounting.
    pub fn stats(&self) -> RegistryStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn iface(joules: f64) -> Interface {
        parse(&format!(
            r#"interface reg_probe {{
                fn e() "constant" {{ return {joules} J; }}
            }}"#
        ))
        .unwrap()
    }

    #[test]
    fn publish_swap_rollback_lifecycle() {
        let mut reg = InterfaceRegistry::new(vec![iface(1.0)], Calibration::empty(), "v0");
        assert_eq!(reg.active_version(), 0);
        assert_eq!(reg.stats().epoch, 0);

        let v1 = reg.publish(vec![iface(2.0)], Calibration::empty(), "refit");
        assert_eq!(v1, 1);
        assert_eq!(reg.active_version(), 0, "publish does not activate");

        assert!(reg.swap_to(v1));
        assert_eq!(reg.active_version(), 1);
        assert_eq!(reg.stats().epoch, 1);
        assert!(!reg.swap_to(1), "already active");
        assert!(!reg.swap_to(9), "unknown version");

        assert_eq!(reg.rollback(), Some(0));
        assert_eq!(reg.active_version(), 0);
        assert_eq!(reg.rollback(), None, "only one rollback target");
        let s = reg.stats();
        assert_eq!((s.published, s.swaps, s.rollbacks, s.epoch), (2, 1, 1, 2));
    }

    #[test]
    fn fingerprints_distinguish_content_not_notes() {
        let reg = InterfaceRegistry::new(vec![iface(1.0)], Calibration::empty(), "a");
        let same = InterfaceRegistry::new(vec![iface(1.0)], Calibration::empty(), "b");
        let other = InterfaceRegistry::new(vec![iface(1.5)], Calibration::empty(), "a");
        assert_eq!(reg.current().fingerprint, same.current().fingerprint);
        assert_ne!(reg.current().fingerprint, other.current().fingerprint);

        let mut cal = Calibration::empty();
        cal.set("relu", crate::units::Energy::microjoules(3.0));
        let recal = InterfaceRegistry::new(vec![iface(1.0)], cal, "a");
        assert_ne!(reg.current().fingerprint, recal.current().fingerprint);
    }

    #[test]
    fn old_versions_stay_borrowable_across_swaps() {
        let mut reg = InterfaceRegistry::new(vec![iface(1.0)], Calibration::empty(), "v0");
        let held = reg.current().interfaces[0].clone();
        let v1 = reg.publish(vec![iface(2.0)], Calibration::empty(), "v1");
        reg.swap_to(v1);
        // The pre-swap Arc still resolves to the old content.
        assert_eq!(held.name, "reg_probe");
        assert_ne!(
            reg.current().fingerprint,
            fingerprint_version(std::slice::from_ref(&held), &Calibration::empty())
        );
    }
}
