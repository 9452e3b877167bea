//! Microbenchmark-based derivation of hardware energy interfaces.
//!
//! §5: "We ran the GPU-cache microbenchmark with Nvidia Nsight Compute CLI
//! to measure the energy for the individual metrics, to obtain absolute
//! energy measures." This module is that campaign, against the simulated
//! device: a set of microbenchmarks with deliberately different metric
//! mixes (pure compute, L2-resident streaming, VRAM streaming, idle), each
//! measured through the coarse [`PowerMeter`] and profiled via the device
//! counters, followed by a least-squares fit of the five per-event
//! coefficients. The result is emitted as an EIL hardware interface with
//! the same entry points as the vendor one — ready to be linked under any
//! application interface.

use ei_core::interface::Interface;
use ei_core::parser::parse;
use ei_core::units::{Energy, Power, TimeSpan};
use ei_hw::cache::{AccessKind, ReuseHint};
use ei_hw::gpu::{GpuConfig, GpuSim, KernelDesc};
use ei_hw::interfaces::{idle_input_spec, kernel_input_spec};
use ei_hw::meter::{MeterConfig, PowerMeter};

use crate::error::{Error, Result};
use crate::fit::least_squares;

/// The five fitted coefficients of a GPU energy model.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuEnergyModel {
    /// Device name the model was fitted for.
    pub device: String,
    /// Energy per instruction.
    pub e_instruction: Energy,
    /// Energy per L1 wavefront.
    pub e_l1_wavefront: Energy,
    /// Energy per L2 sector.
    pub e_l2_sector: Energy,
    /// Energy per VRAM sector.
    pub e_vram_sector: Energy,
    /// Static power.
    pub static_power: Power,
    /// R² of the fit.
    pub r_squared: f64,
}

impl GpuEnergyModel {
    /// Worst relative deviation of the fitted coefficients from a reference
    /// configuration (used by tests; a real campaign has no reference).
    pub fn max_relative_error(&self, truth: &GpuConfig) -> f64 {
        [
            (
                self.e_instruction.as_joules(),
                truth.e_instruction.as_joules(),
            ),
            (
                self.e_l1_wavefront.as_joules(),
                truth.e_l1_wavefront.as_joules(),
            ),
            (self.e_l2_sector.as_joules(), truth.e_l2_sector.as_joules()),
            (
                self.e_vram_sector.as_joules(),
                truth.e_vram_sector.as_joules(),
            ),
            (self.static_power.as_watts(), truth.static_power.as_watts()),
        ]
        .iter()
        .map(|(a, b)| ((a - b) / b).abs())
        .fold(0.0, f64::max)
    }

    /// Emits the fitted hardware interface (same shape as the vendor's).
    pub fn to_interface(&self, truth_timing: &GpuConfig) -> Interface {
        // Timing constants (roofline) are observable directly: achieved
        // FLOP/s and bandwidth are measured, not secret.
        let src = format!(
            r#"
            interface gpu_{name}_fitted "microbenchmark-fitted energy interface for {name}" {{
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
            name = self.device,
            eff_flops = truth_timing.peak_flops * truth_timing.efficiency,
            bw = truth_timing.vram_bandwidth,
            e_instr = self.e_instruction.as_joules(),
            e_l1 = self.e_l1_wavefront.as_joules(),
            e_l2 = self.e_l2_sector.as_joules(),
            e_vram = self.e_vram_sector.as_joules(),
            static_w = self.static_power.as_watts(),
        );
        let mut iface = parse(&src).expect("fitted interface must parse");
        // Declared input domains make the emitted interface certifiable
        // (`eic certify` / `analysis::cert`): any kernel inside these
        // ranges is guaranteed to land inside the certified bound.
        iface.set_input_spec("gpu_kernel", kernel_input_spec());
        iface.set_input_spec("gpu_idle", idle_input_spec());
        iface
    }
}

/// The fitted DVFS dynamic-energy scale `s(f) = c0 + c1·f + c2·f²`.
///
/// Dynamic energy on a voltage-scaled part goes as `V²`, and `V` tracks the
/// clock roughly linearly over the usable DVFS range, so the scale measured
/// against the nominal clock is quadratic in the clock fraction `f`. The
/// campaign probes a compute-heavy kernel at several supported clock steps,
/// strips the (already-fitted) static contribution, and least-squares fits
/// the `[1, f, f²]` basis on the per-instruction dynamic-energy ratios.
#[derive(Debug, Clone, PartialEq)]
pub struct DvfsScale {
    /// Device name the scale was fitted for.
    pub device: String,
    /// Polynomial coefficients `[c0, c1, c2]` of the scale in the clock
    /// fraction.
    pub coefficients: [f64; 3],
    /// R² of the fit.
    pub r_squared: f64,
}

impl DvfsScale {
    /// The fitted dynamic-energy scale at clock fraction `f`.
    pub fn at(&self, f: f64) -> f64 {
        self.coefficients[0] + self.coefficients[1] * f + self.coefficients[2] * f * f
    }
}

impl GpuEnergyModel {
    /// Emits the fitted DVFS-aware hardware interface: the `gpu_kernel_f` /
    /// `gpu_time_f` extern pair the batch-serving interface links against,
    /// with the fitted per-event coefficients and the fitted clock scale.
    pub fn to_interface_dvfs(&self, scale: &DvfsScale, truth_timing: &GpuConfig) -> Interface {
        let src = format!(
            r#"
            interface gpu_{name}_dvfs_fitted "microbenchmark-fitted DVFS energy interface for {name}" {{
                unit sec;
                fn gpu_kernel_f(flops, logical_bytes, l2_sectors, vram_sectors, freq) {{
                    let instructions = flops / 2 + logical_bytes / 128;
                    let l1_wavefronts = logical_bytes / 128;
                    let compute_s = flops / ({eff_flops} * freq);
                    let mem_s = vram_sectors * 32 / {bw};
                    let duration = max(max(compute_s, mem_s), 0.000002);
                    let vscale = {s0} + {s1} * freq + {s2} * freq * freq;
                    return ({e_instr} J * instructions
                         + {e_l1} J * l1_wavefronts
                         + {e_l2} J * l2_sectors
                         + {e_vram} J * vram_sectors) * vscale
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
            name = self.device,
            eff_flops = truth_timing.peak_flops * truth_timing.efficiency,
            bw = truth_timing.vram_bandwidth,
            e_instr = self.e_instruction.as_joules(),
            e_l1 = self.e_l1_wavefront.as_joules(),
            e_l2 = self.e_l2_sector.as_joules(),
            e_vram = self.e_vram_sector.as_joules(),
            s0 = scale.coefficients[0],
            s1 = scale.coefficients[1],
            s2 = scale.coefficients[2],
            static_w = self.static_power.as_watts(),
        );
        let mut iface = parse(&src).expect("fitted DVFS interface must parse");
        // The clock fraction stays off zero: `compute_s` divides by it.
        iface.set_input_spec("gpu_kernel_f", kernel_input_spec().range("freq", 0.1, 1.0));
        iface.set_input_spec("gpu_idle", idle_input_spec());
        iface
    }
}

/// Probes the DVFS dynamic-energy scale of a device.
///
/// Sets the graphics clock to several supported steps, runs the same
/// compute-heavy kernel batch at each, and fits `s(f)` on the static-
/// corrected per-instruction energies relative to the nominal clock.
/// `model` supplies the static power used for the correction (fit it first
/// with [`fit_gpu_model`]).
pub fn fit_dvfs_scale(
    config: &GpuConfig,
    model: &GpuEnergyModel,
    meter_config: MeterConfig,
) -> Result<DvfsScale> {
    let _sp = ei_telemetry::span(ei_telemetry::SpanKind::Fit, &config.name);
    ei_telemetry::counter_add("extract.dvfs_campaigns", 1);
    let mut sim = GpuSim::new(config.clone());
    let min_span = meter_config.update_period.as_seconds() * 4.0;
    let meter = PowerMeter::new(meter_config);
    let buf = sim.alloc(1 << 20).ok_or_else(|| Error::Microbench {
        msg: "VRAM exhausted allocating DVFS probe buffer".into(),
    })?;
    let static_w = model.static_power.as_watts();

    // Probe descending from nominal so the f = 1.0 reference comes first.
    let mut points = Vec::new();
    for frac in [1.0, 0.85, 0.7, 0.55, 0.4, 0.25] {
        let target = (config.max_clock_mhz as f64 * frac).round() as u32;
        sim.set_clock_mhz(target);
        let f = sim.clock_frac();
        let c0 = sim.counters();
        let e0 = meter.read(sim.energy(), c0.elapsed);
        loop {
            sim.launch(&KernelDesc::new("dvfs_probe", 20e9, 1e4).access(
                buf,
                0,
                4096,
                AccessKind::Read,
                ReuseHint::Temporal,
            ));
            let span = sim.counters().elapsed.as_seconds() - c0.elapsed.as_seconds();
            if span >= min_span || span >= 1.0 {
                break;
            }
        }
        let c1 = sim.counters();
        let e1 = meter.read(sim.energy(), c1.elapsed);
        let elapsed = (c1.elapsed_ns - c0.elapsed_ns) as f64 / 1e9;
        let dynamic = (e1 - e0).as_joules() - static_w * elapsed;
        points.push((f, dynamic / (c1.instructions - c0.instructions)));
    }
    sim.set_clock_mhz(config.max_clock_mhz);

    let reference = points[0].1;
    if !reference.is_finite() || reference <= 0.0 {
        return Err(Error::Microbench {
            msg: "DVFS probe measured no dynamic energy at the nominal clock".into(),
        });
    }
    let rows: Vec<Vec<f64>> = points.iter().map(|(f, _)| vec![1.0, *f, *f * *f]).collect();
    let ys: Vec<f64> = points.iter().map(|(_, e)| e / reference).collect();
    let fit = least_squares(&rows, &ys)?;
    Ok(DvfsScale {
        device: config.name.clone(),
        coefficients: [
            fit.coefficients[0],
            fit.coefficients[1],
            fit.coefficients[2],
        ],
        r_squared: fit.r_squared,
    })
}

/// One microbenchmark observation: counter deltas and measured energy.
#[derive(Debug, Clone)]
pub struct Observation {
    /// Benchmark name.
    pub name: String,
    /// Design row: `[instructions, l1_wavefronts, l2_sectors, vram_sectors,
    /// elapsed_seconds]`.
    pub row: Vec<f64>,
    /// Meter-measured energy.
    pub energy: Energy,
}

/// Runs the microbenchmark campaign on a fresh device of type `config`.
///
/// Uses only what a real campaign has: kernel launches, Nsight-style
/// counters, and the coarse meter. Returns the observations and the fitted
/// model.
pub fn fit_gpu_model(
    config: &GpuConfig,
    meter_config: MeterConfig,
) -> Result<(GpuEnergyModel, Vec<Observation>)> {
    let _sp = ei_telemetry::span(ei_telemetry::SpanKind::Fit, &config.name);
    ei_telemetry::counter_add("extract.fit_campaigns", 1);
    let mut sim = GpuSim::new(config.clone());
    let min_span_cfg = meter_config.update_period.as_seconds() * 4.0;
    let meter = PowerMeter::new(meter_config);
    let mut observations = Vec::new();

    // One observation must span several meter updates, or the quantized,
    // rate-limited counter returns stale readings (exactly the trap a real
    // NVML campaign has to engineer around): repeat the unit of work until
    // enough device time has passed.
    let min_span = min_span_cfg;
    let mut observe = |sim: &mut GpuSim, name: &str, run: &mut dyn FnMut(&mut GpuSim)| {
        let c0 = sim.counters();
        let e0 = meter.read(sim.energy(), c0.elapsed);
        loop {
            run(sim);
            let span = sim.counters().elapsed.as_seconds() - c0.elapsed.as_seconds();
            if span >= min_span || span >= 1.0 {
                break;
            }
        }
        let c1 = sim.counters();
        let e1 = meter.read(sim.energy(), c1.elapsed);
        observations.push(Observation {
            name: name.to_string(),
            row: vec![
                c1.instructions - c0.instructions,
                c1.l1_wavefronts - c0.l1_wavefronts,
                (c1.l2_sectors_read + c1.l2_sectors_written) as f64
                    - (c0.l2_sectors_read + c0.l2_sectors_written) as f64,
                (c1.vram_sectors_read + c1.vram_sectors_written) as f64
                    - (c0.vram_sectors_read + c0.vram_sectors_written) as f64,
                c1.elapsed.as_seconds() - c0.elapsed.as_seconds(),
            ],
            energy: e1 - e0,
        });
    };

    // 1. Idle periods of several lengths → static power.
    for ms in [50.0, 100.0, 200.0] {
        observe(&mut sim, "idle", &mut |s| s.idle(TimeSpan::millis(ms)));
    }

    // The groups below are chosen so that the *ratios* between the five
    // metric columns differ across groups — within any one kernel shape the
    // counters are proportional (l2 sectors are always 4× the wavefronts of
    // a same-footprint scan), which would leave the normal equations
    // ill-conditioned and the coefficients hostage to meter noise.

    // 2. Compute-heavy kernels, near-zero footprint → instruction energy.
    let small = sim.alloc(1 << 20).ok_or_else(|| Error::Microbench {
        msg: "VRAM exhausted allocating compute buffer".into(),
    })?;
    for gflops in [5.0, 10.0, 20.0, 40.0] {
        observe(&mut sim, "compute", &mut |s| {
            for _ in 0..8 {
                s.launch(&KernelDesc::new("fma_loop", gflops * 1e9, 1e4).access(
                    small,
                    0,
                    4096,
                    AccessKind::Read,
                    ReuseHint::Temporal,
                ));
            }
        });
    }

    // 3. L1-reuse kernels: logical traffic is a large multiple of the (L2
    // resident) footprint → separates L1-wavefront energy from L2 sectors.
    let hot = sim.alloc(1 << 20).ok_or_else(|| Error::Microbench {
        msg: "VRAM exhausted allocating hot buffer".into(),
    })?;
    sim.launch(&KernelDesc::new("warm", 1e5, 1e6).access(
        hot,
        0,
        1 << 20,
        AccessKind::Read,
        ReuseHint::Temporal,
    ));
    for reuse in [16.0, 48.0, 96.0] {
        observe(&mut sim, "l1_reuse", &mut |s| {
            s.launch(
                &KernelDesc::new("tile_reuse", 1e6, reuse * 1048576.0).access(
                    hot,
                    0,
                    1 << 20,
                    AccessKind::Read,
                    ReuseHint::Temporal,
                ),
            );
        });
    }

    // 4. L2-resident scans (warmed) → L2 sector energy.
    let l2_ws = (config.l2_bytes / 2).max(1 << 20);
    let l2_buf = sim.alloc(l2_ws).ok_or_else(|| Error::Microbench {
        msg: "VRAM exhausted allocating L2 buffer".into(),
    })?;
    sim.launch(&KernelDesc::new("warm", 1e6, l2_ws as f64).access(
        l2_buf,
        0,
        l2_ws,
        AccessKind::Read,
        ReuseHint::Temporal,
    ));
    for frac in [1u64, 2, 4] {
        let len = l2_ws / frac;
        observe(&mut sim, "l2_resident", &mut |s| {
            s.launch(&KernelDesc::new("l2_scan", 1e6, len as f64).access(
                l2_buf,
                0,
                len,
                AccessKind::Read,
                ReuseHint::Temporal,
            ));
        });
    }

    // 5. VRAM streaming of several sizes → VRAM sector energy.
    let stream_bytes = (config.l2_bytes * 4).max(64 << 20);
    let stream = sim.alloc(stream_bytes).ok_or_else(|| Error::Microbench {
        msg: "VRAM exhausted allocating stream buffer".into(),
    })?;
    for frac in [1u64, 2, 4] {
        let len = stream_bytes / frac;
        observe(&mut sim, "vram_stream", &mut |s| {
            for _ in 0..4 {
                s.launch(&KernelDesc::new("stream", 1e6, len as f64).access(
                    stream,
                    0,
                    len,
                    AccessKind::Read,
                    ReuseHint::Streaming,
                ));
            }
        });
    }

    // 6. Mixed kernels for conditioning.
    for (gf, frac, reuse) in [(2.0, 4u64, 1.0), (8.0, 2, 4.0), (16.0, 8, 2.0)] {
        let len = stream_bytes / frac;
        observe(&mut sim, "mixed", &mut |s| {
            s.launch(
                &KernelDesc::new("mixed", gf * 1e9, reuse * len as f64)
                    .access(stream, 0, len, AccessKind::Read, ReuseHint::Streaming)
                    .access(hot, 0, 1 << 20, AccessKind::Read, ReuseHint::Temporal),
            );
        });
    }

    let rows: Vec<Vec<f64>> = observations.iter().map(|o| o.row.clone()).collect();
    let ys: Vec<f64> = observations.iter().map(|o| o.energy.as_joules()).collect();
    let fit = least_squares(&rows, &ys)?;
    let model = GpuEnergyModel {
        device: config.name.clone(),
        e_instruction: Energy::joules(fit.coefficients[0].max(0.0)),
        e_l1_wavefront: Energy::joules(fit.coefficients[1].max(0.0)),
        e_l2_sector: Energy::joules(fit.coefficients[2].max(0.0)),
        e_vram_sector: Energy::joules(fit.coefficients[3].max(0.0)),
        static_power: Power::watts(fit.coefficients[4].max(0.0)),
        r_squared: fit.r_squared,
    };
    Ok((model, observations))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ei_hw::gpu::{rtx3070, rtx4090};

    #[test]
    fn fit_recovers_coefficients_with_ideal_meter() {
        for cfg in [rtx4090(), rtx3070()] {
            let (model, obs) = fit_gpu_model(&cfg, MeterConfig::ideal()).unwrap();
            assert!(obs.len() >= 10);
            let err = model.max_relative_error(&cfg);
            assert!(err < 0.05, "{}: coefficient error {err}", cfg.name);
            assert!(model.r_squared > 0.999);
        }
    }

    #[test]
    fn fit_with_nvml_meter_stays_close() {
        for cfg in [rtx4090(), rtx3070()] {
            let (model, _) = fit_gpu_model(&cfg, MeterConfig::nvml()).unwrap();
            let err = model.max_relative_error(&cfg);
            assert!(err < 0.25, "{}: coefficient error {err}", cfg.name);
            assert!(model.r_squared > 0.99);
        }
    }

    #[test]
    fn fitted_interface_parses_and_predicts_kernels() {
        use crate::fit::validate_interface;
        use ei_core::interp::EvalConfig;
        use ei_core::value::Value;

        let cfg = rtx4090();
        let (model, _) = fit_gpu_model(&cfg, MeterConfig::nvml()).unwrap();
        let iface = model.to_interface(&cfg);
        assert!(iface.is_closed());

        // Predict a fresh kernel and compare against the simulator.
        let mut sim = GpuSim::new(cfg);
        let buf = sim.alloc(256 << 20).unwrap();
        let k = KernelDesc::new("probe", 4e9, 128.0 * 1024.0 * 1024.0).access(
            buf,
            0,
            128 << 20,
            AccessKind::Read,
            ReuseHint::Streaming,
        );
        let truth = sim.launch(&k).energy;
        let c = sim.counters();
        let report = validate_interface(
            &iface,
            "gpu_kernel",
            &[vec![
                Value::Num(4e9),
                Value::Num(128.0 * 1024.0 * 1024.0),
                Value::Num((c.l2_sectors_read + c.l2_sectors_written) as f64),
                Value::Num((c.vram_sectors_read + c.vram_sectors_written) as f64),
            ]],
            &[truth],
            &EvalConfig::default(),
        )
        .unwrap();
        assert!(
            report.max_rel_error < 0.05,
            "fitted prediction off by {}",
            report.max_rel_error
        );
        // The emitted interface declares its domain, so validation also
        // certifies it: the measured energy must sit inside the sound
        // bound, and every counter must push energy upward.
        let cert = report.certificate.expect("fitted interface certifies");
        assert_eq!(report.cert_violations, 0, "measurement escapes bound");
        use ei_core::analysis::cert::Monotonicity;
        for var in ["flops", "logical_bytes", "l2_sectors", "vram_sectors"] {
            assert_eq!(
                cert.monotone[var],
                Monotonicity::NonDecreasing,
                "{var} should be non-decreasing"
            );
        }
    }

    #[test]
    fn dvfs_scale_recovers_the_voltage_quadratic() {
        let cfg = rtx4090();
        let (model, _) = fit_gpu_model(&cfg, MeterConfig::ideal()).unwrap();
        let scale = fit_dvfs_scale(&cfg, &model, MeterConfig::ideal()).unwrap();
        assert!(scale.r_squared > 0.999);
        // Ground truth: (v0 + (1-v0)·f)² with the config's dvfs_v0.
        for f in [0.3, 0.5, 0.75, 1.0] {
            let v = cfg.dvfs_v0 + (1.0 - cfg.dvfs_v0) * f;
            let truth = v * v;
            let err = (scale.at(f) - truth).abs() / truth;
            assert!(err < 0.05, "scale({f}) err {err}");
        }
    }

    #[test]
    fn fitted_dvfs_interface_tracks_simulator_across_clock_steps() {
        use ei_core::ecv::EcvEnv;
        use ei_core::interp::{evaluate_energy, EvalConfig};
        use ei_core::value::Value;

        let cfg = rtx4090();
        let (model, _) = fit_gpu_model(&cfg, MeterConfig::ideal()).unwrap();
        let scale = fit_dvfs_scale(&cfg, &model, MeterConfig::ideal()).unwrap();
        let iface = model.to_interface_dvfs(&scale, &cfg);
        assert!(iface.is_closed());

        for mhz in [630u32, 1260, 1890, 2520] {
            let mut sim = GpuSim::new(cfg.clone());
            let granted = sim.set_clock_mhz(mhz);
            assert_eq!(granted, mhz);
            let buf = sim.alloc(256 << 20).unwrap();
            let k = KernelDesc::new("probe", 4e9, 128.0 * 1024.0 * 1024.0).access(
                buf,
                0,
                128 << 20,
                AccessKind::Read,
                ReuseHint::Streaming,
            );
            let truth = sim.launch(&k).energy.as_joules();
            let c = sim.counters();
            let pred = evaluate_energy(
                &iface,
                "gpu_kernel_f",
                &[
                    Value::Num(4e9),
                    Value::Num(128.0 * 1024.0 * 1024.0),
                    Value::Num((c.l2_sectors_read + c.l2_sectors_written) as f64),
                    Value::Num((c.vram_sectors_read + c.vram_sectors_written) as f64),
                    Value::Num(sim.clock_frac()),
                ],
                &EcvEnv::new(),
                0,
                &EvalConfig::default(),
            )
            .unwrap()
            .as_joules();
            let rel = (pred - truth).abs() / truth;
            assert!(rel < 0.05, "{mhz} MHz: fitted prediction off by {rel}");
        }
    }

    #[test]
    fn observation_rows_have_five_features() {
        let (_, obs) = fit_gpu_model(&rtx4090(), MeterConfig::ideal()).unwrap();
        for o in &obs {
            assert_eq!(o.row.len(), 5);
            assert!(o.energy.as_joules() >= 0.0);
        }
        // Idle rows have zero dynamic activity.
        let idle = obs.iter().find(|o| o.name == "idle").unwrap();
        assert_eq!(idle.row[0], 0.0);
        assert!(idle.row[4] > 0.0);
    }
}
