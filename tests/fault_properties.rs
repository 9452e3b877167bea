//! Properties of the fault-injection layer and the degraded serving tier.
//!
//! The load-bearing claims (DESIGN.md §faults): a seeded [`FaultPlan`] is
//! a *pure schedule* — replaying the same plan over the same stream gives
//! byte-identical stats, per-request energies, and means, no matter how
//! often or in what process it runs; the fault-conditioned Fig. 1
//! interface evaluates identically at any Monte-Carlo thread count,
//! telemetry trace included; and every measured statistic is total — no
//! NaN escapes even from empty or fully-shed runs.

use proptest::prelude::*;

use ei_core::ecv::EcvEnv;
use ei_core::interp::{monte_carlo_par, EvalConfig};
use ei_core::units::TimeSpan;
use ei_core::value::Value;
use ei_hw::faults::{standard_matrix, FaultPlan, FaultState};
use ei_hw::gpu::rtx4090;
use ei_hw::nic::datacenter_nic;
use ei_service::{
    calibrate_with_state, fig1_faulted_calibration, fig1_interface_faulted, request_stream,
    CacheEnergy, FaultMixture, FrontendConfig, FrontendStats, ServiceFrontend,
};
use ei_telemetry as telemetry;

/// Picks one plan out of the standard matrix (including `healthy`).
fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (0usize..6, 0u64..1_000).prop_map(|(idx, seed)| {
        standard_matrix(seed, TimeSpan::seconds(2.0))
            .swap_remove(idx)
            .plan
    })
}

/// Runs a seeded frontend over a seeded stream and returns everything an
/// observer could see, with energies as raw bits so the comparison is
/// exact rather than tolerance-based.
fn observe(
    plan: FaultPlan,
    n: usize,
    n_hot: u64,
    hot_fraction: f64,
    stream_seed: u64,
) -> (FrontendStats, u64, Vec<u64>) {
    let mut fe = ServiceFrontend::new(
        rtx4090(),
        datacenter_nic(),
        64,
        1024,
        plan,
        FrontendConfig::default(),
    )
    .expect("model fits");
    let stream = request_stream(n, n_hot, hot_fraction, 8192, 0.25, stream_seed);
    fe.run(&stream, TimeSpan::millis(5.0));
    let log_bits = fe
        .log()
        .iter()
        .map(|(_, e)| e.as_joules().to_bits())
        .collect();
    (
        fe.stats(),
        fe.mean_request_energy().as_joules().to_bits(),
        log_bits,
    )
}

fn assert_mixture_total(mix: &FaultMixture) {
    for (name, p) in [
        ("p_request_hit", mix.p_request_hit),
        ("p_local_hit", mix.p_local_hit),
        ("p_remote_alive", mix.p_remote_alive),
        ("p_brownout", mix.p_brownout),
        ("p_degraded_given_brownout", mix.p_degraded_given_brownout),
    ] {
        assert!(
            (0.0..=1.0).contains(&p),
            "{name} = {p} is not a probability"
        );
    }
    assert!(
        mix.timeout_attempts_per_request.is_finite() && mix.timeout_attempts_per_request >= 0.0,
        "timeout rate = {}",
        mix.timeout_attempts_per_request
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Replaying a seeded plan over a seeded stream is byte-identical:
    /// same stats, same per-request energy bits, same mean bits.
    #[test]
    fn faulted_service_replays_byte_identical(
        plan in arb_plan(),
        n in 0usize..150,
        n_hot in 0u64..40,
        hot_fraction in 0.0f64..1.0,
        stream_seed in 0u64..1_000,
    ) {
        let a = observe(plan.clone(), n, n_hot, hot_fraction, stream_seed);
        let b = observe(plan, n, n_hot, hot_fraction, stream_seed);
        prop_assert_eq!(a, b);
    }

    /// Every statistic a run exposes is total: probabilities stay in
    /// [0, 1] and nothing is NaN, even when the run is empty, the hot
    /// set is empty, or admission control shed everything.
    #[test]
    fn run_statistics_are_never_nan(
        plan in arb_plan(),
        n in 0usize..100,
        n_hot in 0u64..20,
        hot_fraction in 0.0f64..1.0,
        stream_seed in 0u64..1_000,
    ) {
        let (stats, mean_bits, _) = observe(plan, n, n_hot, hot_fraction, stream_seed);
        prop_assert!(f64::from_bits(mean_bits).is_finite());
        assert_mixture_total(&stats.mixture());
        prop_assert!(stats.metered_energy_j.is_finite());
        prop_assert!(stats.true_energy_j.is_finite());
    }

    /// The fault-conditioned interface built from any run's mixture
    /// evaluates to the same sample vector — and the same telemetry
    /// trace — at 1 and 8 Monte-Carlo threads.
    #[test]
    fn faulted_interface_mc_identical_across_threads(
        plan in arb_plan(),
        stream_seed in 0u64..1_000,
    ) {
        let mut fe = ServiceFrontend::new(
            rtx4090(),
            datacenter_nic(),
            64,
            1024,
            plan,
            FrontendConfig::default(),
        )
        .expect("model fits");
        let stream = request_stream(120, 30, 0.6, 8192, 0.25, stream_seed);
        fe.run(&stream, TimeSpan::millis(5.0));
        let mix = fe.stats().mixture();

        let cal = calibrate_with_state(&rtx4090(), &FaultState::healthy()).expect("model fits");
        let (derate, sm_loss) = fe.plan().worst_brownout().unwrap_or((1.0, 0.0));
        let browned = FaultState { gpu_derate: derate, gpu_sm_loss: sm_loss, ..FaultState::healthy() };
        let cal_br = calibrate_with_state(&rtx4090(), &browned).expect("model fits");
        let nic = datacenter_nic();
        let iface = fig1_interface_faulted(
            &mix,
            &cal,
            &cal_br,
            &CacheEnergy::default(),
            nic.e_byte,
            nic.e_packet,
        );
        let cfg = EvalConfig {
            calibration: fig1_faulted_calibration(&cal, &cal_br),
            ..EvalConfig::default()
        };
        let req = Value::num_record([
            ("image_id", 1.0),
            ("image_size", 8192.0),
            ("image_zeros", 2048.0),
        ]);
        let env = EcvEnv::from_decls(&iface.ecvs);

        let run = |threads: usize| {
            let session = telemetry::session();
            let dist = monte_carlo_par(&iface, "handle", std::slice::from_ref(&req), &env, 512, 7, threads, &cfg)
                .expect("faulted interface samples");
            (dist, session.finish())
        };
        let (dist_1, trace_1) = run(1);
        let (dist_8, trace_8) = run(8);
        prop_assert_eq!(dist_1, dist_8);
        prop_assert_eq!(trace_1, trace_8);
    }
}

/// The degenerate empty service: no requests ever served, on the
/// multi-replica deployment and on Fig. 1's single replica alike. Every
/// summary statistic must still be a number.
#[test]
fn empty_runs_yield_numbers_not_nan() {
    for replicas in [1, 2] {
        let fe = ServiceFrontend::new(
            rtx4090(),
            datacenter_nic(),
            64,
            1024,
            FaultPlan::healthy(0),
            FrontendConfig {
                replicas,
                ..FrontendConfig::default()
            },
        )
        .unwrap();
        assert_eq!(fe.mean_request_energy().as_joules(), 0.0);
        let mix = fe.stats().mixture();
        assert_mixture_total(&mix);
        assert_eq!((mix.p_request_hit, mix.p_local_hit), (0.0, 0.0));
    }
}
