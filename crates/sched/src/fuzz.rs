//! ClusterFuzz-style capacity planning from energy interfaces.
//!
//! §1's motivating questions: "What is the optimal number of machines to
//! deploy to minimize energy consumption while achieving 95% testing
//! coverage? Or how much additional energy is required to increase coverage
//! from 90% to 95% using the same number of machines?" — and the punchline:
//! "With better insight into how energy is used, engineers could get these
//! answers directly from the IaC files and application code, before
//! deploying anything."
//!
//! The fleet's energy interface is a closed-form EIL program over the
//! campaign model (coverage saturates with effective machine-hours; corpus
//! overlap gives diminishing returns per added machine). The planner
//! *executes the interface* to answer both questions; a discrete-time
//! campaign simulator provides the ground truth the answers are validated
//! against.

use ei_core::ecv::EcvEnv;
use ei_core::interface::Interface;
use ei_core::interp::{evaluate_batch, EvalConfig};
use ei_core::parser::parse;
use ei_core::units::{Energy, Power};

use ei_core::value::Value;

/// Parameters of the fuzzing campaign and fleet.
#[derive(Debug, Clone)]
pub struct FuzzCampaign {
    /// Coverage fraction reachable in the limit (bugs hide in the tail).
    pub max_coverage: f64,
    /// Coverage rate constant per effective machine-hour.
    pub rate: f64,
    /// Corpus-overlap exponent: `m` machines act like `m^overlap` (≤ 1).
    pub overlap: f64,
    /// Active power per machine.
    pub machine_power: Power,
    /// Executions per machine-hour (drives per-exec energy accounting).
    pub execs_per_hour: f64,
    /// Energy per million executions beyond baseline power.
    pub e_per_mexec: Energy,
}

/// A ClusterFuzz-like campaign on mid-size servers.
pub fn default_campaign() -> FuzzCampaign {
    FuzzCampaign {
        max_coverage: 0.98,
        rate: 0.07,
        overlap: 0.8,
        machine_power: Power::watts(180.0),
        execs_per_hour: 0.9e9,
        e_per_mexec: Energy::joules(0.12),
    }
}

impl FuzzCampaign {
    /// Effective machine count after corpus overlap.
    pub fn effective_machines(&self, machines: f64) -> f64 {
        machines.powf(self.overlap)
    }

    /// Closed-form coverage after `hours` on `machines`.
    pub fn coverage(&self, machines: f64, hours: f64) -> f64 {
        self.max_coverage * (1.0 - (-self.rate * self.effective_machines(machines) * hours).exp())
    }

    /// Hours to reach `target` coverage on `machines`; `None` if
    /// unreachable.
    pub fn hours_to_coverage(&self, machines: f64, target: f64) -> Option<f64> {
        if target >= self.max_coverage {
            return None;
        }
        let x = 1.0 - target / self.max_coverage;
        Some(-x.ln() / (self.rate * self.effective_machines(machines)))
    }

    /// Ground-truth fleet energy for `machines` over `hours`.
    pub fn energy(&self, machines: f64, hours: f64) -> Energy {
        let base = self.machine_power.as_watts() * machines * hours * 3600.0;
        let execs_m = machines * hours * self.execs_per_hour / 1e6;
        Energy::joules(base) + self.e_per_mexec * execs_m
    }

    /// The fleet's energy interface:
    /// `e_to_coverage(machines, target)` and `e_campaign(machines, hours)`.
    pub fn interface(&self) -> Interface {
        let src = format!(
            r#"
            interface fuzz_fleet "energy interface of the fuzzing fleet" {{
                fn e_campaign(machines, hours) "energy of a fixed-length campaign" {{
                    let base = {pw} * machines * hours * 3600;
                    let mexecs = machines * hours * {eph} / 1000000;
                    return joules(base) + {epm} J * mexecs;
                }}
                fn hours_to_coverage(machines, target) "campaign length for a target" {{
                    let x = 1 - target / {cmax};
                    let eff = pow(machines, {ov});
                    return 0 - ln(x) / ({rate} * eff);
                }}
                fn e_to_coverage(machines, target) "energy to reach a coverage target" {{
                    return e_campaign(machines, hours_to_coverage(machines, target));
                }}
            }}
            "#,
            pw = self.machine_power.as_watts(),
            eph = self.execs_per_hour,
            epm = self.e_per_mexec.as_joules(),
            cmax = self.max_coverage,
            ov = self.overlap,
            rate = self.rate,
        );
        parse(&src).expect("fuzz interface must parse")
    }
}

/// Answer to the two §1 questions, computed by executing the interface.
#[derive(Debug, Clone)]
pub struct PlanAnswer {
    /// Machine count minimizing energy-to-95%-coverage.
    pub best_machines: u32,
    /// Energy at the optimum.
    pub best_energy: Energy,
    /// Energy per candidate machine count (for the sweep table).
    pub sweep: Vec<(u32, Energy)>,
    /// Marginal energy 90% → 95% at the optimal machine count.
    pub marginal_90_to_95: Energy,
}

/// Runs the planner over `1..=max_machines`, answering both questions.
///
/// The whole sweep is one [`evaluate_batch`] call: the per-call setup
/// (assignment sampling, calibration interning) is paid once for all
/// `max_machines` candidate counts instead of per candidate. The batch
/// driver also compiles the campaign interface to bytecode once and runs
/// every candidate count on the VM, so widening the sweep is cheap.
pub fn plan(campaign: &FuzzCampaign, target: f64, max_machines: u32) -> PlanAnswer {
    let iface = campaign.interface();
    let cfg = EvalConfig::default();
    let env = EcvEnv::new();

    let argsets: Vec<Vec<Value>> = (1..=max_machines)
        .map(|m| vec![Value::Num(m as f64), Value::Num(target)])
        .collect();
    let energies = evaluate_batch(&iface, "e_to_coverage", &argsets, &env, 0, &cfg)
        .expect("interface evaluates");

    let mut sweep = Vec::new();
    let mut best: Option<(u32, Energy)> = None;
    for (m, e) in (1..=max_machines).zip(energies) {
        sweep.push((m, e));
        if best.as_ref().is_none_or(|(_, be)| e < *be) {
            best = Some((m, e));
        }
    }
    let (best_machines, best_energy) = best.expect("at least one machine count");
    let marginal = evaluate_batch(
        &iface,
        "e_to_coverage",
        &[
            vec![Value::Num(best_machines as f64), Value::Num(0.95)],
            vec![Value::Num(best_machines as f64), Value::Num(0.90)],
        ],
        &env,
        0,
        &cfg,
    )
    .expect("interface evaluates");
    PlanAnswer {
        best_machines,
        best_energy,
        sweep,
        marginal_90_to_95: marginal[0] - marginal[1],
    }
}

/// Discrete-time campaign simulator: the ground truth the interface's
/// closed form abstracts. Steps hour by hour until `target` coverage.
///
/// Returns `(hours, energy)`.
pub fn simulate_campaign(
    campaign: &FuzzCampaign,
    machines: u32,
    target: f64,
    step_hours: f64,
) -> Option<(f64, Energy)> {
    if target >= campaign.max_coverage {
        return None;
    }
    let eff = campaign.effective_machines(machines as f64);
    let mut coverage = 0.0;
    let mut hours = 0.0;
    let mut energy = Energy::ZERO;
    let max_hours = 100_000.0;
    while coverage < target {
        if hours > max_hours {
            return None;
        }
        // d(cov)/dt = rate * eff * (max - cov): forward Euler.
        coverage += campaign.rate * eff * (campaign.max_coverage - coverage) * step_hours;
        hours += step_hours;
        energy += Energy::joules(
            campaign.machine_power.as_watts() * machines as f64 * step_hours * 3600.0,
        );
        energy +=
            campaign.e_per_mexec * (machines as f64 * step_hours * campaign.execs_per_hour / 1e6);
    }
    Some((hours, energy))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ei_core::interp::evaluate_energy;

    #[test]
    fn coverage_model_saturates() {
        let c = default_campaign();
        assert!(c.coverage(4.0, 1.0) < c.coverage(4.0, 10.0));
        assert!(c.coverage(4.0, 1e6) <= c.max_coverage + 1e-9);
        assert!(c.hours_to_coverage(4.0, 0.99).is_none());
        let h = c.hours_to_coverage(4.0, 0.95).unwrap();
        assert!((c.coverage(4.0, h) - 0.95).abs() < 1e-9);
    }

    #[test]
    fn overlap_gives_diminishing_returns() {
        let c = default_campaign();
        let h1 = c.hours_to_coverage(1.0, 0.9).unwrap();
        let h2 = c.hours_to_coverage(2.0, 0.9).unwrap();
        // Twice the machines, less than half the time saved.
        assert!(h2 > h1 / 2.0);
        assert!(h2 < h1);
    }

    #[test]
    fn interface_matches_closed_form() {
        let c = default_campaign();
        let iface = c.interface();
        let cfg = EvalConfig::default();
        let env = EcvEnv::new();
        for m in [1.0, 4.0, 16.0] {
            let h = c.hours_to_coverage(m, 0.95).unwrap();
            let truth = c.energy(m, h);
            let pred = evaluate_energy(
                &iface,
                "e_to_coverage",
                &[Value::Num(m), Value::Num(0.95)],
                &env,
                0,
                &cfg,
            )
            .unwrap();
            assert!(
                (pred.as_joules() - truth.as_joules()).abs() < 1e-6 * truth.as_joules(),
                "m={m}"
            );
        }
    }

    #[test]
    fn planner_finds_interior_or_single_machine_optimum() {
        let c = default_campaign();
        let answer = plan(&c, 0.95, 32);
        assert!(answer.best_machines >= 1 && answer.best_machines <= 32);
        assert_eq!(answer.sweep.len(), 32);
        // With overlap < 1, more machines always cost more energy for the
        // same coverage (energy scales m^(1-overlap)): optimum is 1.
        assert_eq!(answer.best_machines, 1);
        // But wall-clock at 1 machine is far worse: the sweep exposes the
        // energy/time trade-off.
        let h1 = c.hours_to_coverage(1.0, 0.95).unwrap();
        let h32 = c.hours_to_coverage(32.0, 0.95).unwrap();
        assert!(h32 < h1 / 10.0);
        assert!(answer.marginal_90_to_95.as_joules() > 0.0);
    }

    #[test]
    fn marginal_energy_90_to_95_matches_direct() {
        let c = default_campaign();
        let answer = plan(&c, 0.95, 8);
        let m = answer.best_machines as f64;
        let h95 = c.hours_to_coverage(m, 0.95).unwrap();
        let h90 = c.hours_to_coverage(m, 0.90).unwrap();
        let truth = c.energy(m, h95) - c.energy(m, h90);
        assert!(
            (answer.marginal_90_to_95.as_joules() - truth.as_joules()).abs()
                < 1e-6 * truth.as_joules()
        );
    }

    #[test]
    fn simulator_validates_interface_prediction() {
        let c = default_campaign();
        let iface = c.interface();
        let pred = evaluate_energy(
            &iface,
            "e_to_coverage",
            &[Value::Num(8.0), Value::Num(0.9)],
            &EcvEnv::new(),
            0,
            &EvalConfig::default(),
        )
        .unwrap();
        let (_, sim_energy) = simulate_campaign(&c, 8, 0.9, 0.01).unwrap();
        let rel = (pred.as_joules() - sim_energy.as_joules()).abs() / sim_energy.as_joules();
        assert!(rel < 0.02, "interface vs simulation: {rel}");
    }

    #[test]
    fn simulator_rejects_unreachable_targets() {
        let c = default_campaign();
        assert!(simulate_campaign(&c, 4, 0.99, 0.1).is_none());
    }
}
