//! Energy-bug detection by interface/measurement divergence.
//!
//! §4.2: "One way to do testing is by running the layer (or the entire
//! stack) with well chosen inputs, measuring the consumed energy (e.g.,
//! with Intel RAPL), and comparing it to the interface's prediction;
//! divergences would then be flagged as energy bugs."

use ei_core::ecv::EcvEnv;
use ei_core::interface::Interface;
use ei_core::interp::{enumerate_exact, monte_carlo_par, EvalConfig};
use ei_core::units::Energy;
use ei_core::value::Value;

use crate::error::Result;

/// One detected divergence between prediction and measurement.
#[derive(Debug, Clone)]
pub struct EnergyBug {
    /// The input on which the divergence occurred.
    pub input: Vec<Value>,
    /// The interface's predicted (expected) energy.
    pub predicted: Energy,
    /// The measured energy.
    pub measured: Energy,
    /// `measured / predicted`.
    pub ratio: f64,
}

/// Outcome of a detection campaign.
#[derive(Debug, Clone)]
pub struct BugReport {
    /// Inputs checked.
    pub checked: usize,
    /// Divergences beyond tolerance.
    pub bugs: Vec<EnergyBug>,
    /// Largest |ratio - 1| observed, bug or not.
    pub max_deviation: f64,
    /// `eil-sema` diagnostics for the hunted interface, rendered as text
    /// lines. Static defects (unit mismatches, possibly-negative energy)
    /// often explain dynamic divergences, so the detector surfaces them
    /// alongside the runtime bugs.
    pub lint: Vec<String>,
}

impl BugReport {
    /// True when no divergence exceeded the tolerance.
    pub fn is_clean(&self) -> bool {
        self.bugs.is_empty()
    }
}

/// Detector configuration.
#[derive(Debug, Clone)]
pub struct DetectorConfig {
    /// Relative tolerance, e.g. 0.15 flags when |measured/predicted−1| > 15 %.
    pub tolerance: f64,
    /// Evaluator configuration (calibration, fuel). The detector's
    /// sampling sweeps run on the production engine, the bytecode VM; set
    /// [`ei_core::interp::ExecMode::TreeWalk`] to run the reference when
    /// triaging a suspected engine divergence.
    pub eval: EvalConfig,
    /// Monte-Carlo samples when the ECV space is not finitely enumerable.
    pub mc_samples: usize,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            tolerance: 0.15,
            eval: EvalConfig::default(),
            mc_samples: 2048,
        }
    }
}

/// Runs the detector: for each input, compares the interface's expected
/// energy with the measured energy returned by `measure`.
///
/// `measure` runs the *real* system (through a meter) on the same input and
/// returns the measured energy — averaged over enough requests that ECV
/// randomness in the real system matches the interface's expectation.
pub fn detect_energy_bugs(
    iface: &Interface,
    func: &str,
    inputs: &[Vec<Value>],
    config: &DetectorConfig,
    mut measure: impl FnMut(&[Value]) -> Energy,
) -> Result<BugReport> {
    let mut sp = ei_telemetry::span(ei_telemetry::SpanKind::Experiment, "bughunt");
    sp.add_items(inputs.len() as u64);
    ei_telemetry::counter_add("extract.bughunt_inputs", inputs.len() as u64);
    let env = EcvEnv::from_decls(&iface.ecvs);
    let mut bugs = Vec::new();
    let mut max_deviation: f64 = 0.0;
    for input in inputs {
        let predicted = match enumerate_exact(iface, func, input, &env, 4096, &config.eval) {
            Ok(d) => d.mean(),
            Err(ei_core::Error::Analysis { .. }) => {
                // All available cores; monte_carlo_par is sample-identical
                // to serial monte_carlo for any thread count.
                monte_carlo_par(
                    iface,
                    func,
                    input,
                    &env,
                    config.mc_samples,
                    7,
                    0,
                    &config.eval,
                )?
                .mean()
            }
            Err(e) => return Err(e.into()),
        };
        let measured = measure(input);
        let ratio = if predicted.as_joules() > 0.0 {
            measured.as_joules() / predicted.as_joules()
        } else if measured.as_joules() == 0.0 {
            1.0
        } else {
            f64::INFINITY
        };
        max_deviation = max_deviation.max((ratio - 1.0).abs());
        if (ratio - 1.0).abs() > config.tolerance {
            bugs.push(EnergyBug {
                input: input.clone(),
                predicted,
                measured,
                ratio,
            });
        }
    }
    let lint_opts = ei_core::sema::LintOptions::with_calibration(config.eval.calibration.clone());
    let lint = ei_core::sema::check_with(iface, &lint_opts)
        .iter()
        .map(|d| d.text_line())
        .collect();
    Ok(BugReport {
        checked: inputs.len(),
        bugs,
        max_deviation,
        lint,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ei_core::parser::parse;

    fn iface() -> Interface {
        parse(
            r#"interface svc {
                ecv hit: bernoulli(0.8);
                fn handle(n) {
                    if ecv(hit) { return 1 mJ * n; } else { return 10 mJ * n; }
                }
            }"#,
        )
        .unwrap()
    }

    fn inputs() -> Vec<Vec<Value>> {
        (1..=8).map(|n| vec![Value::Num(n as f64)]).collect()
    }

    #[test]
    fn healthy_system_is_clean() {
        // Measured = exact expectation (0.8*1 + 0.2*10 = 2.8 mJ per unit).
        let report = detect_energy_bugs(
            &iface(),
            "handle",
            &inputs(),
            &DetectorConfig::default(),
            |input| Energy::millijoules(2.8 * input[0].as_num().unwrap()),
        )
        .unwrap();
        assert!(report.is_clean(), "{:?}", report.bugs);
        assert_eq!(report.checked, 8);
        assert!(report.max_deviation < 1e-9);
    }

    #[test]
    fn broken_cache_is_flagged() {
        // Energy bug: the cache was silently disabled; the system always
        // pays the miss path (10 mJ per unit vs predicted 2.8 mJ).
        let report = detect_energy_bugs(
            &iface(),
            "handle",
            &inputs(),
            &DetectorConfig::default(),
            |input| Energy::millijoules(10.0 * input[0].as_num().unwrap()),
        )
        .unwrap();
        assert_eq!(report.bugs.len(), 8);
        for b in &report.bugs {
            assert!(b.ratio > 3.0);
            assert!(b.measured > b.predicted);
        }
    }

    #[test]
    fn measurement_noise_within_tolerance_passes() {
        let mut flip = 1.0f64;
        let report = detect_energy_bugs(
            &iface(),
            "handle",
            &inputs(),
            &DetectorConfig::default(),
            |input| {
                flip = -flip;
                Energy::millijoules(2.8 * input[0].as_num().unwrap() * (1.0 + 0.05 * flip))
            },
        )
        .unwrap();
        assert!(report.is_clean());
        assert!(report.max_deviation > 0.04 && report.max_deviation < 0.06);
    }

    #[test]
    fn tolerance_is_configurable() {
        let tight = DetectorConfig {
            tolerance: 0.01,
            ..DetectorConfig::default()
        };
        let report = detect_energy_bugs(&iface(), "handle", &inputs(), &tight, |input| {
            Energy::millijoules(2.8 * input[0].as_num().unwrap() * 1.03)
        })
        .unwrap();
        assert_eq!(report.bugs.len(), 8);
    }

    #[test]
    fn continuous_ecvs_fall_back_to_monte_carlo() {
        let i = parse(
            r#"interface svc {
                ecv load: uniform(0, 2);
                fn handle(n) { return 1 mJ * n * (1 + ecv(load)); }
            }"#,
        )
        .unwrap();
        // E[1 + load] = 2 → 2 mJ per unit.
        let report = detect_energy_bugs(
            &i,
            "handle",
            &inputs(),
            &DetectorConfig::default(),
            |input| Energy::millijoules(2.0 * input[0].as_num().unwrap()),
        )
        .unwrap();
        assert!(report.is_clean(), "{:?}", report.bugs);
    }
}
