//! The paper's Fig. 1 scenario end to end: run the ML web service, measure
//! its hit rates, build its energy interface, and check the interface's
//! prediction against reality — then use the interface to answer a design
//! question *without* redeploying.
//!
//! ```sh
//! cargo run --release --example ml_webservice
//! ```

use energy_clarity::core::ecv::EcvEnv;
use energy_clarity::core::interp::{enumerate_exact, EvalConfig};
use energy_clarity::core::pretty::print_interface;
use energy_clarity::core::units::TimeSpan;
use energy_clarity::core::value::Value;
use energy_clarity::hw::faults::{FaultPlan, FaultState};
use energy_clarity::hw::gpu::rtx4090;
use energy_clarity::hw::nic::datacenter_nic;
use energy_clarity::service::{
    calibrate_with_state, fig1_calibration, fig1_interface, request_stream, CacheEnergy,
    FrontendConfig, ServiceFrontend,
};

fn main() {
    // Bring the service up: one healthy replica with its CNN on a
    // 4090-class accelerator and a request cache with 256 local entries
    // backed by a remote tier over a 10 GbE NIC.
    let mut svc = ServiceFrontend::new(
        rtx4090(),
        datacenter_nic(),
        256,
        4096,
        FaultPlan::healthy(0),
        FrontendConfig {
            replicas: 1,
            ..FrontendConfig::default()
        },
    )
    .expect("service fits on the accelerator");
    let cal = calibrate_with_state(&rtx4090(), &FaultState::healthy())
        .expect("probe fits on the accelerator");

    // Serve a realistic stream: 60 % of requests target 200 hot images.
    svc.run(
        &request_stream(3000, 200, 0.6, 16384, 0.25, 42),
        TimeSpan::millis(5.0),
    );
    let mix = svc.stats().mixture();
    let (p_hit, p_local) = (mix.p_request_hit, mix.p_local_hit);
    println!(
        "measured: p(request_hit) = {p_hit:.3}, p(local | hit) = {p_local:.3}, \
         mean energy {}/request",
        svc.mean_request_energy()
    );

    // Build Fig. 1's interface with the measured constants and validate it.
    let nic = datacenter_nic();
    let iface = fig1_interface(
        p_hit,
        p_local,
        &cal,
        &CacheEnergy::default(),
        nic.e_byte,
        nic.e_packet,
    );
    println!("\n--- Fig. 1, with constants measured on this deployment ---");
    println!("{}", print_interface(&iface));

    let cfg = EvalConfig {
        calibration: fig1_calibration(&cal),
        ..EvalConfig::default()
    };
    let req = Value::num_record([
        ("image_id", 1.0),
        ("image_size", 16384.0),
        ("image_zeros", 4096.0),
    ]);
    let dist = enumerate_exact(
        &iface,
        "handle",
        &[req],
        &EcvEnv::from_decls(&iface.ecvs),
        16,
        &cfg,
    )
    .unwrap();
    println!(
        "interface predicts {} per request (measured {})",
        dist.mean(),
        svc.mean_request_energy()
    );

    // The design question, answered from the interface alone (§3): is it
    // more productive to raise the cache hit rate or to optimize the model?
    println!("\nwhat-if analysis (no redeployment needed):");
    for p in [0.3, 0.5, 0.7, 0.9] {
        let i = fig1_interface(
            p,
            p_local,
            &cal,
            &CacheEnergy::default(),
            nic.e_byte,
            nic.e_packet,
        );
        let d = enumerate_exact(
            &i,
            "handle",
            &[Value::num_record([
                ("image_id", 1.0),
                ("image_size", 16384.0),
                ("image_zeros", 4096.0),
            ])],
            &EcvEnv::from_decls(&i.ecvs),
            16,
            &cfg,
        )
        .unwrap();
        println!("  hit rate {p:.1} -> E[request] = {}", d.mean());
    }
}
