//! The catalogue of shipped interfaces: every interface the workspace
//! publishes (§3's providers, and the consumers composed over them), each
//! listed once with the calibration it is deployed with. The `gate`
//! binary lints every entry and certifies every one that can be certified;
//! `tests/language_corpus.rs` round-trips every interface through the
//! printer.

use ei_core::interface::Interface;
use ei_core::units::{Calibration, Energy};
use ei_hw::cpu::big_little;
use ei_hw::gpu::{rtx3070, rtx4090};
use ei_hw::interfaces::{cpu_interface, gpu_interface, gpu_interface_dvfs, nic_interface};
use ei_hw::nic::{datacenter_nic, wifi_radio};
use ei_llm::batch_interface::gpt2_batch_interface;
use ei_llm::interface::gpt2_interface;
use ei_llm::model::{gpt2_medium, gpt2_small};
use ei_sched::cluster::{bigmem_node, compute_node};
use ei_sched::fuzz::default_campaign;
use ei_sched::provision::bursty_server_interface;
use ei_service::{
    calibrate_with_fault, fig1_calibration, fig1_faulted_calibration, fig1_interface,
    fig1_interface_faulted, CacheEnergy, FaultMixture,
};

use crate::fig1;
use crate::table1::fitted_gpt2_interface;

/// One shipped program and the calibration it is deployed with.
pub struct Entry {
    /// Name in the gate's reports (several entries may share one).
    pub name: &'static str,
    /// The top interface first, then the providers it links against. A
    /// program whose later interfaces provide none of its externs lists
    /// peers published together.
    pub program: Vec<Interface>,
    /// The deployed calibration.
    pub calibration: Calibration,
}

fn entry(name: &'static str, program: Vec<Interface>, calibration: Calibration) -> Entry {
    Entry {
        name,
        program,
        calibration,
    }
}

/// Every shipped entry, once. Building it runs the microbenchmark fit
/// behind Table 1 and the Fig. 1 service's calibration probes.
pub fn catalogue() -> Vec<Entry> {
    let none = Calibration::empty;
    // The `t_*` latency twins of the DVFS-aware pair behind E12 return
    // abstract `sec`-unit results, deployed with the 1 J/s pricing E12
    // evaluates them under.
    let sec = || Calibration::from_pairs([("sec", Energy::joules(1.0))]);
    let (big, little) = big_little();
    let (fitted, _r2) = fitted_gpt2_interface(&rtx4090());

    // The Fig. 1 web service: healthy, with the calibration the service
    // measures, and fault-conditioned (§3 / E9), with a representative
    // measured mixture and a browned-leaf calibration.
    let cal = fig1::service().calibrate_cnn();
    let cal_br = calibrate_with_fault(&rtx4090(), 0.85, 0.25).expect("probe fits");
    let nic = datacenter_nic();
    let cache = CacheEnergy::default();
    let healthy = fig1_interface(0.25, 0.8, &cal, &cache, nic.e_byte, nic.e_packet);
    let mix = FaultMixture {
        p_request_hit: 0.55,
        p_local_hit: 0.8,
        p_remote_alive: 0.9,
        p_brownout: 0.3,
        p_degraded_given_brownout: 0.5,
        timeout_attempts_per_request: 0.02,
    };
    let faulted = fig1_interface_faulted(&mix, &cal, &cal_br, &cache, nic.e_byte, nic.e_packet);

    vec![
        // Vendor hardware interfaces (§3): concrete Joules only, no units.
        entry("hw: vendor GPU", vec![gpu_interface(&rtx4090())], none()),
        entry("hw: vendor GPU", vec![gpu_interface(&rtx3070())], none()),
        entry("hw: vendor CPU core", vec![cpu_interface(&big)], none()),
        entry("hw: vendor CPU core", vec![cpu_interface(&little)], none()),
        entry(
            "hw: vendor NICs",
            vec![
                nic_interface("datacenter", &datacenter_nic()),
                nic_interface("wifi", &wifi_radio()),
            ],
            none(),
        ),
        // GPT-2 inference over the vendor GPU (§5), and open.
        entry(
            "llm: GPT-2 small over vendor GPU",
            vec![gpt2_interface(&gpt2_small()), gpu_interface(&rtx4090())],
            none(),
        ),
        entry(
            "llm: GPT-2 medium (open)",
            vec![gpt2_interface(&gpt2_medium())],
            none(),
        ),
        // E12's batch-serving interfaces over the vendor's DVFS interface.
        entry(
            "hw: vendor GPU (DVFS)",
            vec![gpu_interface_dvfs(&rtx4090())],
            sec(),
        ),
        entry(
            "llm: GPT-2 batch serving over DVFS GPU",
            vec![
                gpt2_batch_interface(&gpt2_small()),
                gpu_interface_dvfs(&rtx4090()),
            ],
            sec(),
        ),
        entry(
            "llm: GPT-2 batch serving over DVFS GPU",
            vec![
                gpt2_batch_interface(&gpt2_medium()),
                gpu_interface_dvfs(&rtx4090()),
            ],
            sec(),
        ),
        // The microbenchmark-extracted interface behind Table 1 (§5), linked.
        entry("extract: fitted GPT-2 (linked)", vec![fitted], none()),
        entry(
            "service: Fig. 1 interface",
            vec![healthy],
            fig1_calibration(&cal),
        ),
        entry(
            "service: fault-conditioned Fig. 1 interface",
            vec![faulted],
            fig1_faulted_calibration(&cal, &cal_br),
        ),
        // Scheduling examples (§1, §4.3).
        entry(
            "sched: node interfaces",
            vec![compute_node().interface(), bigmem_node().interface()],
            none(),
        ),
        entry(
            "sched: fuzzing fleet",
            vec![default_campaign().interface()],
            none(),
        ),
        entry(
            "sched: bursty server power interface",
            vec![bursty_server_interface()],
            none(),
        ),
    ]
}
