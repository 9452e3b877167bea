//! Vendor-provided hardware energy interfaces.
//!
//! §3: "The lowest layer in the system stack would normally consist of
//! energy interfaces provided by a hardware vendor." This module is that
//! vendor: it exports EIL interfaces generated from a device configuration.
//! (When a vendor interface is *not* available, `ei-extract` derives an
//! approximate one from microbenchmarks instead — the paper's fallback.)

use ei_core::interface::{InputSpec, Interface};
use ei_core::parser::parse;

use crate::cpu::CoreType;
use crate::gpu::GpuConfig;
use crate::nic::NicConfig;

/// The declared domain of a kernel-shaped function (`gpu_kernel`, and
/// `gpu_kernel_f` with a `freq` range added): counter ranges generous
/// enough for any kernel the simulator can express. The vendor GPU
/// interfaces and the ones `ei-extract` fits ship it, which makes them
/// certifiable.
pub fn kernel_input_spec() -> InputSpec {
    InputSpec::new()
        .range("flops", 0.0, 1e13)
        .range("logical_bytes", 0.0, 1e13)
        .range("l2_sectors", 0.0, 1e12)
        .range("vram_sectors", 0.0, 1e12)
}

/// The declared domain of `gpu_idle`: up to an hour.
pub fn idle_input_spec() -> InputSpec {
    InputSpec::new().range("seconds", 0.0, 3600.0)
}

/// Builds the vendor energy interface of a GPU.
///
/// Exported functions, each declaring its domain ([`kernel_input_spec`],
/// [`idle_input_spec`]):
/// - `gpu_kernel(flops, logical_bytes, l2_sectors, vram_sectors)` — dynamic
///   plus static energy of one kernel, with the kernel duration derived from
///   the same roofline the device uses;
/// - `gpu_idle(seconds)` — static power over a duration (§3's idle-state
///   special input).
pub fn gpu_interface(cfg: &GpuConfig) -> Interface {
    let src = format!(
        r#"
        interface gpu_{name} "vendor energy interface for {name}" {{
            fn gpu_kernel(flops, logical_bytes, l2_sectors, vram_sectors) {{
                let instructions = flops / 2 + logical_bytes / 128;
                let l1_wavefronts = logical_bytes / 128;
                let compute_s = flops / {eff_flops};
                let mem_s = vram_sectors * 32 / {bw};
                let duration = max(max(compute_s, mem_s), 0.000002);
                return {e_instr} J * instructions
                     + {e_l1} J * l1_wavefronts
                     + {e_l2} J * l2_sectors
                     + {e_vram} J * vram_sectors
                     + gpu_idle(duration);
            }}
            fn gpu_idle(seconds) {{
                return {static_w} J * seconds;
            }}
        }}
        "#,
        name = cfg.name,
        eff_flops = cfg.peak_flops * cfg.efficiency,
        bw = cfg.vram_bandwidth,
        e_instr = cfg.e_instruction.as_joules(),
        e_l1 = cfg.e_l1_wavefront.as_joules(),
        e_l2 = cfg.e_l2_sector.as_joules(),
        e_vram = cfg.e_vram_sector.as_joules(),
        static_w = cfg.static_power.as_watts(),
    );
    let mut iface = parse(&src).expect("generated GPU interface must parse");
    iface.set_input_spec("gpu_kernel", kernel_input_spec());
    iface.set_input_spec("gpu_idle", idle_input_spec());
    iface
}

/// Builds the DVFS-aware vendor energy interface of a GPU.
///
/// Like [`gpu_interface`] but every kernel-level function takes the
/// graphics-clock fraction `freq` (granted clock / top clock) as an extra
/// argument, matching [`crate::gpu::GpuSim::set_clock_mhz`], and each
/// function declares its domain:
///
/// - `gpu_kernel_f(flops, logical_bytes, l2_sectors, vram_sectors, freq)` —
///   compute time stretches by `1/freq`, per-event dynamic energy scales by
///   `(v0 + (1-v0)·freq)²` (the near-linear V(f) curve), memory bandwidth
///   and static power are unaffected;
/// - `gpu_time_f(flops, vram_sectors, freq)` — the same roofline duration as
///   an abstract `sec`-unit result, so latency predictions flow through the
///   exact machinery (and calibration) energy predictions use;
/// - `gpu_idle(seconds)` — static power over a duration.
pub fn gpu_interface_dvfs(cfg: &GpuConfig) -> Interface {
    let src = format!(
        r#"
        interface gpu_{name}_dvfs "DVFS-aware vendor energy interface for {name}" {{
            unit sec;
            fn gpu_kernel_f(flops, logical_bytes, l2_sectors, vram_sectors, freq) {{
                let instructions = flops / 2 + logical_bytes / 128;
                let l1_wavefronts = logical_bytes / 128;
                let compute_s = flops / ({eff_flops} * freq);
                let mem_s = vram_sectors * 32 / {bw};
                let duration = max(max(compute_s, mem_s), 0.000002);
                let vscale = {v0} + {v1} * freq;
                return ({e_instr} J * instructions
                     + {e_l1} J * l1_wavefronts
                     + {e_l2} J * l2_sectors
                     + {e_vram} J * vram_sectors) * (vscale * vscale)
                     + {static_w} J * duration;
            }}
            fn gpu_time_f(flops, vram_sectors, freq) {{
                let compute_s = flops / ({eff_flops} * freq);
                let mem_s = vram_sectors * 32 / {bw};
                return 1 sec * max(max(compute_s, mem_s), 0.000002);
            }}
            fn gpu_idle(seconds) {{
                return {static_w} J * seconds;
            }}
        }}
        "#,
        name = cfg.name,
        eff_flops = cfg.peak_flops * cfg.efficiency,
        bw = cfg.vram_bandwidth,
        e_instr = cfg.e_instruction.as_joules(),
        e_l1 = cfg.e_l1_wavefront.as_joules(),
        e_l2 = cfg.e_l2_sector.as_joules(),
        e_vram = cfg.e_vram_sector.as_joules(),
        static_w = cfg.static_power.as_watts(),
        v0 = cfg.dvfs_v0,
        v1 = 1.0 - cfg.dvfs_v0,
    );
    let mut iface = parse(&src).expect("generated DVFS GPU interface must parse");
    // The clock fraction stays off zero: `compute_s` divides by it.
    iface.set_input_spec("gpu_kernel_f", kernel_input_spec().range("freq", 0.1, 1.0));
    iface.set_input_spec(
        "gpu_time_f",
        InputSpec::new()
            .range("flops", 0.0, 1e13)
            .range("vram_sectors", 0.0, 1e12)
            .range("freq", 0.1, 1.0),
    );
    iface.set_input_spec("gpu_idle", idle_input_spec());
    iface
}

/// Builds the vendor energy interface of a CPU core type.
///
/// Exported: `cpu_run_<name>(work, opp)` — energy to execute `work` units at
/// operating point index `opp`; `cpu_idle_<name>(seconds)`.
pub fn cpu_interface(core: &CoreType) -> Interface {
    let mut arms = String::new();
    for (i, opp) in core.opps.iter().enumerate() {
        let t = format!("work / {}", core.capacity * opp.freq_mhz);
        if i + 1 < core.opps.len() {
            arms.push_str(&format!(
                "if opp == {i} {{ return {p} J * ({t}); }}\n                ",
                p = opp.active_power.as_watts(),
            ));
        } else {
            arms.push_str(&format!(
                "return {p} J * ({t});",
                p = opp.active_power.as_watts(),
            ));
        }
    }
    let src = format!(
        r#"
        interface cpu_{name} "vendor energy interface for a {name} core" {{
            fn cpu_run_{name}(work, opp) {{
                {arms}
            }}
            fn cpu_idle_{name}(seconds) {{
                return {idle} J * seconds;
            }}
        }}
        "#,
        name = core.name,
        idle = core.idle_power.as_watts(),
    );
    parse(&src).expect("generated CPU interface must parse")
}

/// Builds the vendor energy interface of a NIC.
///
/// Exported: `nic_transfer(bytes, awake)` — `awake` is 1 when the radio is
/// already awake (the §4.2 side effect made explicit as an input), 0 when
/// the transfer pays the wake-up.
pub fn nic_interface(name: &str, cfg: &NicConfig) -> Interface {
    let src = format!(
        r#"
        interface nic_{name} "vendor energy interface for {name}" {{
            fn nic_transfer(bytes, awake) {{
                let packets = ceil(bytes / 1500);
                let wake = if awake == 1 {{ 0 J }} else {{ {wake} J }};
                return wake
                     + {e_pkt} J * max(packets, 1)
                     + {e_byte} J * bytes
                     + {idle} J * (bytes / {bw});
            }}
            fn nic_idle(seconds) {{
                return {idle} J * seconds;
            }}
        }}
        "#,
        wake = cfg.e_wake.as_joules(),
        e_pkt = cfg.e_packet.as_joules(),
        e_byte = cfg.e_byte.as_joules(),
        idle = cfg.idle_power.as_watts(),
        bw = cfg.bandwidth,
    );
    parse(&src).expect("generated NIC interface must parse")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{AccessKind, ReuseHint};
    use crate::cpu::big_little;
    use crate::gpu::{rtx3070, rtx4090, GpuSim, KernelDesc};
    use crate::nic::{wifi_radio, NicSim};
    use ei_core::ecv::EcvEnv;
    use ei_core::interp::{evaluate_energy, EvalConfig};
    use ei_core::units::TimeSpan;
    use ei_core::value::Value;

    #[test]
    fn gpu_vendor_interface_matches_simulator_exactly() {
        // The vendor knows its own constants, so given the true counters the
        // interface must reproduce the simulator's energy to rounding.
        for cfg in [rtx4090(), rtx3070()] {
            let iface = gpu_interface(&cfg);
            let mut sim = GpuSim::new(cfg.clone());
            let buf = sim.alloc(32 << 20).unwrap();
            let k = KernelDesc::new("k", 3e9, 8.0 * 1024.0 * 1024.0).access(
                buf,
                0,
                16 << 20,
                AccessKind::Read,
                ReuseHint::Temporal,
            );
            let report = sim.launch(&k);
            let c = sim.counters();
            let e = evaluate_energy(
                &iface,
                "gpu_kernel",
                &[
                    Value::Num(3e9),
                    Value::Num(8.0 * 1024.0 * 1024.0),
                    Value::Num((c.l2_sectors_read + c.l2_sectors_written) as f64),
                    Value::Num((c.vram_sectors_read + c.vram_sectors_written) as f64),
                ],
                &EcvEnv::new(),
                0,
                &EvalConfig::default(),
            )
            .unwrap();
            let rel = (e.as_joules() - report.energy.as_joules()).abs() / report.energy.as_joules();
            assert!(rel < 1e-9, "{}: rel={rel}", cfg.name);
        }
    }

    #[test]
    fn dvfs_interface_matches_simulator_at_every_supported_step() {
        // Given true counters and the granted clock fraction, the vendor's
        // DVFS interface must reproduce the simulator bit-tight at a
        // sample of supported clocks (incl. the extremes).
        let cfg = rtx4090();
        let iface = gpu_interface_dvfs(&cfg);
        for mhz in [210u32, 1260, 1890, 2520] {
            let mut sim = GpuSim::new(cfg.clone());
            let granted = sim.set_clock_mhz(mhz);
            assert_eq!(granted, mhz, "probe clocks sit on the ladder");
            let buf = sim.alloc(32 << 20).unwrap();
            let k = KernelDesc::new("k", 3e9, 8.0 * 1024.0 * 1024.0).access(
                buf,
                0,
                16 << 20,
                AccessKind::Read,
                ReuseHint::Temporal,
            );
            let report = sim.launch(&k);
            let c = sim.counters();
            let e = evaluate_energy(
                &iface,
                "gpu_kernel_f",
                &[
                    Value::Num(3e9),
                    Value::Num(8.0 * 1024.0 * 1024.0),
                    Value::Num((c.l2_sectors_read + c.l2_sectors_written) as f64),
                    Value::Num((c.vram_sectors_read + c.vram_sectors_written) as f64),
                    Value::Num(sim.clock_frac()),
                ],
                &EcvEnv::new(),
                0,
                &EvalConfig::default(),
            )
            .unwrap();
            let rel = (e.as_joules() - report.energy.as_joules()).abs() / report.energy.as_joules();
            assert!(rel < 1e-9, "{mhz} MHz: rel={rel}");

            // The sec-unit time function reproduces the roofline duration.
            let cal = ei_core::units::Calibration::from_pairs([(
                "sec",
                ei_core::units::Energy::joules(1.0),
            )]);
            let t = evaluate_energy(
                &iface,
                "gpu_time_f",
                &[
                    Value::Num(3e9),
                    Value::Num((c.vram_sectors_read + c.vram_sectors_written) as f64),
                    Value::Num(sim.clock_frac()),
                ],
                &EcvEnv::new(),
                0,
                &EvalConfig {
                    calibration: cal,
                    ..EvalConfig::default()
                },
            )
            .unwrap();
            let rel_t =
                (t.as_joules() - report.duration.as_seconds()).abs() / report.duration.as_seconds();
            assert!(rel_t < 1e-9, "{mhz} MHz: time rel={rel_t}");
        }
    }

    #[test]
    fn dvfs_interface_at_top_clock_equals_plain_interface() {
        let cfg = rtx4090();
        let plain = gpu_interface(&cfg);
        let dvfs = gpu_interface_dvfs(&cfg);
        let args = [
            Value::Num(5e9),
            Value::Num(2.0 * 1024.0 * 1024.0),
            Value::Num(40_000.0),
            Value::Num(9_000.0),
        ];
        let mut args_f = args.to_vec();
        args_f.push(Value::Num(1.0));
        let a = evaluate_energy(
            &plain,
            "gpu_kernel",
            &args,
            &EcvEnv::new(),
            0,
            &EvalConfig::default(),
        )
        .unwrap();
        let b = evaluate_energy(
            &dvfs,
            "gpu_kernel_f",
            &args_f,
            &EcvEnv::new(),
            0,
            &EvalConfig::default(),
        )
        .unwrap();
        assert!((a.as_joules() - b.as_joules()).abs() < 1e-12 * a.as_joules());
    }

    #[test]
    fn gpu_idle_interface_matches_simulator() {
        let cfg = rtx4090();
        let iface = gpu_interface(&cfg);
        let mut sim = GpuSim::new(cfg);
        sim.idle(TimeSpan::seconds(3.0));
        let e = evaluate_energy(
            &iface,
            "gpu_idle",
            &[Value::Num(3.0)],
            &EcvEnv::new(),
            0,
            &EvalConfig::default(),
        )
        .unwrap();
        assert!((e.as_joules() - sim.energy().as_joules()).abs() < 1e-9);
    }

    #[test]
    fn cpu_vendor_interface_matches_core_model() {
        let (big, little) = big_little();
        for core in [big, little] {
            let iface = cpu_interface(&core);
            for (i, opp) in core.opps.iter().enumerate() {
                let work = 3000.0;
                let truth = core.exec_energy(work, opp);
                let e = evaluate_energy(
                    &iface,
                    &format!("cpu_run_{}", core.name),
                    &[Value::Num(work), Value::Num(i as f64)],
                    &EcvEnv::new(),
                    0,
                    &EvalConfig::default(),
                )
                .unwrap();
                assert!(
                    (e.as_joules() - truth.as_joules()).abs() < 1e-12,
                    "{} opp {i}",
                    core.name
                );
            }
        }
    }

    #[test]
    fn nic_vendor_interface_tracks_simulator() {
        let cfg = wifi_radio();
        let iface = nic_interface("wifi", &cfg);
        let mut sim = NicSim::new(cfg);
        let truth = sim.transfer(TimeSpan::ZERO, 6000);
        let e = evaluate_energy(
            &iface,
            "nic_transfer",
            &[Value::Num(6000.0), Value::Num(0.0)],
            &EcvEnv::new(),
            0,
            &EvalConfig::default(),
        )
        .unwrap();
        let rel = (e.as_joules() - truth.as_joules()).abs() / truth.as_joules();
        assert!(rel < 1e-9, "rel={rel}");
    }

    #[test]
    fn awake_nic_transfer_skips_wake_in_interface_too() {
        let cfg = wifi_radio();
        let iface = nic_interface("wifi", &cfg);
        let asleep = evaluate_energy(
            &iface,
            "nic_transfer",
            &[Value::Num(1500.0), Value::Num(0.0)],
            &EcvEnv::new(),
            0,
            &EvalConfig::default(),
        )
        .unwrap();
        let awake = evaluate_energy(
            &iface,
            "nic_transfer",
            &[Value::Num(1500.0), Value::Num(1.0)],
            &EcvEnv::new(),
            0,
            &EvalConfig::default(),
        )
        .unwrap();
        assert!((asleep - awake).as_joules() > 8e-3);
    }
}
