//! Fig. 1 reproduction: the ML-web-service energy interface, validated
//! against the running service, plus the insight the paper draws from it —
//! that raising the cache hit rate beats optimizing the model.

use ei_core::ecv::EcvEnv;
use ei_core::interp::{enumerate_exact, EvalConfig};
use ei_core::pretty::print_interface;
use ei_core::units::TimeSpan;
use ei_core::value::Value;
use ei_hw::gpu::{rtx4090, GpuSim};
use ei_hw::nic::{datacenter_nic, NicSim};
use ei_service::{fig1_calibration, fig1_interface, request_stream, CacheEnergy, MlWebService};
use serde::Serialize;

/// Outcome of the Fig. 1 validation run.
#[derive(Debug, Clone, Serialize)]
pub struct Fig1Report {
    /// Measured request-hit probability.
    pub p_hit: f64,
    /// Measured local-given-hit probability.
    pub p_local: f64,
    /// Interface-predicted mean energy per request (J).
    pub predicted_mean: f64,
    /// Measured mean energy per request (J).
    pub measured_mean: f64,
    /// Relative error.
    pub rel_error: f64,
    /// Expected per-request energy as the hit rate sweeps 0.1..0.9
    /// (`(p_hit, expected_joules)`).
    pub hit_rate_sweep: Vec<(f64, f64)>,
    /// Expected per-request energy as the model's conv cost is scaled
    /// 1.0, 0.75, 0.5 (the "optimize the model" alternative).
    pub model_opt_sweep: Vec<(f64, f64)>,
}

/// The Fig. 1 web service on an RTX 4090 and a datacenter NIC.
pub(crate) fn service() -> MlWebService {
    MlWebService::new(
        GpuSim::new(rtx4090()),
        NicSim::new(datacenter_nic()),
        256,
        4096,
    )
    .expect("service fits")
}

/// Runs the Fig. 1 experiment.
pub fn run() -> Fig1Report {
    let mut svc = service();
    let cal = svc.calibrate_cnn();

    for req in request_stream(3000, 200, 0.6, 16384, 0.25, 42) {
        svc.handle(req, TimeSpan::millis(5.0));
    }
    let (p_hit, p_local) = svc.measured_hit_rates();
    let nic = datacenter_nic();
    let iface = fig1_interface(
        p_hit,
        p_local,
        &cal,
        &CacheEnergy::default(),
        nic.e_byte,
        nic.e_packet,
    );
    let cfg = EvalConfig {
        calibration: fig1_calibration(&cal),
        ..EvalConfig::default()
    };
    let req = Value::num_record([
        ("image_id", 1.0),
        ("image_size", 16384.0),
        ("image_zeros", 4096.0),
    ]);
    let mean = |iface: &ei_core::Interface| {
        enumerate_exact(
            iface,
            "handle",
            std::slice::from_ref(&req),
            &EcvEnv::from_decls(&iface.ecvs),
            64,
            &cfg,
        )
        .expect("enumerates")
        .mean()
        .as_joules()
    };
    let predicted_mean = mean(&iface);
    let measured_mean = svc.mean_request_energy().as_joules();

    // Leverage analysis: hit-rate sweep vs model-optimization sweep —
    // computed *from the interface alone*, before deploying anything.
    let mut hit_rate_sweep = Vec::new();
    for k in 1..=9 {
        let p = k as f64 / 10.0;
        let i = fig1_interface(
            p,
            p_local,
            &cal,
            &CacheEnergy::default(),
            nic.e_byte,
            nic.e_packet,
        );
        hit_rate_sweep.push((p, mean(&i)));
    }
    let mut model_opt_sweep = Vec::new();
    for scale in [1.0, 0.75, 0.5] {
        let mut scaled = cal.clone();
        scaled.conv_per_elem = scaled.conv_per_elem * scale;
        scaled.conv_fixed = scaled.conv_fixed * scale;
        let i = fig1_interface(
            p_hit,
            p_local,
            &scaled,
            &CacheEnergy::default(),
            nic.e_byte,
            nic.e_packet,
        );
        model_opt_sweep.push((scale, mean(&i)));
    }

    Fig1Report {
        p_hit,
        p_local,
        predicted_mean,
        measured_mean,
        rel_error: (predicted_mean - measured_mean).abs() / measured_mean,
        hit_rate_sweep,
        model_opt_sweep,
    }
}

/// Renders the report, including the pretty-printed interface itself —
/// the figure *is* a program listing.
pub fn render(r: &Fig1Report) -> String {
    let mut out = String::new();
    out.push_str("Fig. 1: energy interface for the ML-model web service\n\n");

    // Print the actual interface with the measured constants.
    let cal = service().calibrate_cnn();
    let nic = datacenter_nic();
    let iface = fig1_interface(
        r.p_hit,
        r.p_local,
        &cal,
        &CacheEnergy::default(),
        nic.e_byte,
        nic.e_packet,
    );
    out.push_str(&print_interface(&iface));
    out.push('\n');

    out.push_str(&format!(
        "Validation: measured p(request_hit) = {:.3}, p(local | hit) = {:.3}\n",
        r.p_hit, r.p_local
    ));
    out.push_str(&format!(
        "  predicted mean {:.4} mJ vs measured {:.4} mJ  (error {:.2}%)\n\n",
        r.predicted_mean * 1e3,
        r.measured_mean * 1e3,
        r.rel_error * 100.0
    ));
    out.push_str("Leverage (computed from the interface, before deploying anything):\n");
    out.push_str("  cache hit rate sweep:\n");
    for (p, e) in &r.hit_rate_sweep {
        out.push_str(&format!(
            "    p_hit = {:.1}:  E[request] = {:.4} mJ\n",
            p,
            e * 1e3
        ));
    }
    out.push_str("  model-optimization sweep (conv cost scaled):\n");
    for (s, e) in &r.model_opt_sweep {
        out.push_str(&format!(
            "    conv x {:.2}:  E[request] = {:.4} mJ\n",
            s,
            e * 1e3
        ));
    }
    out
}
