//! Path enumeration over ECV outcomes.
//!
//! §4.2 calls for "a combination of per-path analysis (e.g., using symbolic
//! execution) with side-effects analysis". For a concrete input, an
//! interface's control flow is determined by the ECV assignment, so
//! enumerating the finite ECV space enumerates the interface's paths; each
//! path carries its probability and energy. This is the machine-readable
//! version of what a developer does when reading Fig. 1: "if the request
//! hits the cache, energy is X with probability p; otherwise Y".

use crate::analysis::interval::{ecv_abs_value, AbsValue};
use crate::ecv::{DistSpec, EcvEnv, EcvValue};
use crate::error::Result;
use crate::interface::Interface;
pub use crate::interp::PathOutcome;
use crate::interp::{enumerate_outcomes, EvalConfig};
use crate::units::Energy;
use crate::value::Value;

/// The full path profile of one invocation.
#[derive(Debug, Clone)]
pub struct PathProfile {
    /// All enumerated paths, sorted by descending probability.
    pub paths: Vec<PathOutcome>,
}

impl PathProfile {
    /// The expected energy across paths.
    pub fn expected_energy(&self) -> Energy {
        Energy(
            self.paths
                .iter()
                .map(|p| p.probability * p.energy.as_joules())
                .sum(),
        )
    }

    /// The worst-case (most expensive) path.
    pub fn worst(&self) -> Option<&PathOutcome> {
        self.paths.iter().max_by(|a, b| {
            a.energy
                .partial_cmp(&b.energy)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
    }

    /// Renders a human-readable path table (one line per path).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for p in &self.paths {
            let conds: Vec<String> = p
                .assignment
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            out.push_str(&format!(
                "p={:.4}  E={}  [{}]\n",
                p.probability,
                p.energy,
                conds.join(", ")
            ));
        }
        out
    }
}

/// Enumerates every ECV-selected path of `iface.func(args)`.
///
/// All unpinned ECVs must have finite support (Bernoulli/Discrete/Point);
/// pin continuous ECVs in `env` first. `limit` caps the assignment space.
pub fn enumerate_paths(
    iface: &Interface,
    func: &str,
    args: &[Value],
    env: &EcvEnv,
    limit: usize,
    config: &EvalConfig,
) -> Result<PathProfile> {
    let mut paths = enumerate_outcomes(iface, func, args, env, limit, config)?;
    paths.sort_by(|a, b| {
        b.probability
            .partial_cmp(&a.probability)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    Ok(PathProfile { paths })
}

/// Executions a probe enumerates, over all its profiles, before it gives
/// up.
const PROBE_LIMIT: usize = 4096;

/// The values a probe gives an ECV: each outcome of a finite support that
/// has positive probability, or else the ends and the midpoint of its
/// range (the domain the interval walk gives it).
pub(crate) fn probe_values(dist: &DistSpec) -> Vec<EcvValue> {
    if let Some(support) = dist.support() {
        return support
            .into_iter()
            .filter(|(_, p)| *p > 0.0)
            .map(|(v, _)| v)
            .collect();
    }
    let AbsValue::Num(r) = ecv_abs_value(dist) else {
        unreachable!("a distribution without a finite support is numeric");
    };
    [r.lo, (r.lo + r.hi) / 2.0, r.hi]
        .map(EcvValue::Num)
        .to_vec()
}

/// The path profiles of `iface.func(args)` that a deterministic probe
/// reaches: one per way of pinning every continuous ECV at one of its
/// [`probe_values`], each enumerating the finite-support ECVs exactly.
/// With no continuous ECV this is the one profile [`enumerate_paths`]
/// lists. `None` when that would take more than 4,096 executions.
pub fn probe_paths(
    iface: &Interface,
    func: &str,
    args: &[Value],
    config: &EvalConfig,
) -> Result<Option<Vec<PathProfile>>> {
    let space =
        (iface.ecvs.values()).fold(1usize, |n, d| n.saturating_mul(probe_values(&d.dist).len()));
    if space > PROBE_LIMIT {
        return Ok(None);
    }
    let mut envs = vec![EcvEnv::from_decls(&iface.ecvs)];
    for (name, decl) in &iface.ecvs {
        if decl.dist.support().is_some() {
            continue;
        }
        envs = envs
            .into_iter()
            .flat_map(|env| {
                probe_values(&decl.dist).into_iter().map(move |v| {
                    let mut env = env.clone();
                    env.pin(name.clone(), v);
                    env
                })
            })
            .collect();
    }
    envs.iter()
        .map(|env| enumerate_paths(iface, func, args, env, PROBE_LIMIT, config))
        .collect::<Result<_>>()
        .map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn iface() -> Interface {
        parse(
            r#"interface svc {
                ecv request_hit: bernoulli(0.25) "request found in cache";
                ecv local_hit: bernoulli(0.8) "cache hit in current node";
                fn handle(len) {
                    if ecv(request_hit) {
                        if ecv(local_hit) { return 5 mJ * len; }
                        else { return 100 mJ * len; }
                    } else {
                        return 2 J;
                    }
                }
            }"#,
        )
        .unwrap()
    }

    /// The paths of `handle(len)`, with `request_hit` pinned if given.
    fn profile(len: f64, request_hit: Option<bool>) -> PathProfile {
        let i = iface();
        let mut env = i.ecv_env();
        if let Some(hit) = request_hit {
            env.pin_bool("request_hit", hit);
        }
        let args = [Value::Num(len)];
        enumerate_paths(&i, "handle", &args, &env, 100, &EvalConfig::default()).unwrap()
    }

    #[test]
    fn enumerates_all_paths_with_probabilities() {
        let profile = profile(10.0, None);
        assert_eq!(profile.paths.len(), 4);
        let total: f64 = profile.paths.iter().map(|p| p.probability).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // Highest-probability path first: miss (0.75 * anything).
        assert!(profile.paths[0].probability >= profile.paths[1].probability);
    }

    #[test]
    fn expected_and_worst() {
        let profile = profile(10.0, None);
        let expect = 0.25 * (0.8 * 0.05 + 0.2 * 1.0) + 0.75 * 2.0;
        assert!((profile.expected_energy().as_joules() - expect).abs() < 1e-9);
        assert_eq!(profile.worst().unwrap().energy.as_joules(), 2.0);
    }

    #[test]
    fn pinning_reduces_path_space() {
        let profile = profile(10.0, Some(false));
        assert_eq!(profile.paths.len(), 2);
        assert!(profile.paths.iter().all(|p| p.energy.as_joules() == 2.0));
    }

    #[test]
    fn render_is_readable() {
        let text = profile(1.0, None).render();
        assert!(text.contains("request_hit=true"));
        assert!(text.contains("p=0.6000") || text.contains("p=0.7500"));
    }

    #[test]
    fn probes_pin_continuous_ecvs_at_range_ends_and_midpoint() {
        let i = parse(
            "interface s { ecv load: uniform(1.0, 3.0); ecv hit: bernoulli(0.5); \
             fn f() { if ecv(hit) { return 1 mJ; } return 1 mJ * ecv(load); } }",
        )
        .unwrap();
        let profiles = probe_paths(&i, "f", &[], &EvalConfig::default())
            .unwrap()
            .unwrap();
        let dearest: Vec<f64> = profiles
            .iter()
            .map(|p| p.worst().unwrap().energy.as_joules())
            .collect();
        assert_eq!(dearest, [0.001, 0.002, 0.003]);
        assert!(profiles.iter().all(|p| p.paths.len() == 2));
    }

    #[test]
    fn probes_past_the_limit_give_up() {
        // 2^12 Bernoulli paths times three pins of `load`: 12,288.
        let ecvs: String = (0..12)
            .map(|i| format!("ecv b{i}: bernoulli(0.5); "))
            .collect();
        let src = format!(
            "interface s {{ {ecvs} ecv load: uniform(1.0, 3.0); fn f() {{ return 1 mJ; }} }}"
        );
        let i = parse(&src).unwrap();
        assert!(probe_paths(&i, "f", &[], &EvalConfig::default())
            .unwrap()
            .is_none());
        // Without `load`, the 4,096 paths are within the limit.
        let i = parse(&src.replace("ecv load: uniform(1.0, 3.0);", "")).unwrap();
        let profiles = probe_paths(&i, "f", &[], &EvalConfig::default()).unwrap();
        assert_eq!(profiles.unwrap()[0].paths.len(), 4096);
    }
}
