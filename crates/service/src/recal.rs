//! Live recalibration: drift detection, background refit, atomic swap.
//!
//! An energy interface is a claim about a device, and devices drift: a
//! degrading VRM, a firmware power-management update, or silent thermal
//! recalibration can move the constants an interface was fitted against
//! by tens of percent while the interface keeps reporting yesterday's
//! device. This module closes the loop for the Fig. 1 service:
//!
//! 1. **Detect** — a two-sided CUSUM ([`ResidualDetector`]) watches the
//!    per-request residual between the interface's prediction (ECVs
//!    pinned to the observed final path) and the replica's metered
//!    energy. Residuals accumulate as *signed integer microjoules* so
//!    replayed runs are bit-identical; samples taken while the meter is
//!    dropped out — and the first post-dropout read per replica, which
//!    absorbs the backlogged energy of the whole stale window — are
//!    excluded (a meter fault must not masquerade as drift).
//! 2. **Refit** — on an alarm, the extraction campaign re-runs against
//!    the *drifted* device: fresh CNN microbenchmarks via
//!    [`calibrate_with_state`] and a NIC probe fitted with
//!    [`ei_extract::fit::least_squares`].
//! 3. **Gate** — the candidate interface must pass
//!    [`ei_extract::fit::validate_interface`] against held-out forwards
//!    on the drifted device before it may go live.
//! 4. **Swap** — the gated version is published to the
//!    [`InterfaceRegistry`] and activated *between* requests; in-flight
//!    work always completes under the version it started with, and no
//!    request is ever dropped or rerouted by a swap.
//! 5. **Watch** — a post-swap monitor tracks the signed residual sum of
//!    the new version (signed, because per-sample magnitudes are
//!    dominated by the meter's ±1 mJ quantization, which telescopes
//!    away in the sum). If the new version is *worse*, the registry
//!    rolls back to the previous version and the detector re-arms; if
//!    the window closes still biased past the detector allowance — a
//!    refit taken mid-ramp that the drift has since outrun — the loop
//!    refits again and chases the drift to its plateau.

use ei_core::cache::EvalCache;
use ei_core::ecv::EcvEnv;
use ei_core::interp::EvalConfig;
use ei_core::registry::{InterfaceRegistry, RegistryStats};
use ei_core::units::{Energy, TimeSpan};
use ei_core::Value;
use ei_extract::fit::{least_squares, validate_interface};
use ei_hw::faults::{FaultPlan, FaultState};
use ei_hw::gpu::GpuConfig;
use ei_hw::nic::{NicConfig, NicSim};
use ei_telemetry as telemetry;
use serde::{Deserialize, Serialize};

use crate::cache::CacheEnergy;
use crate::cnn::CnnModel;
use crate::frontend::{
    calibrate_with_state, fig1_faulted_calibration, fig1_interface_faulted, FinalPath,
    FrontendConfig, ServiceFrontend,
};
use crate::service::Request;
use ei_hw::gpu::GpuSim;

/// Converts Joules to the detector's integer microjoule domain.
fn to_uj(j: f64) -> i64 {
    (j * 1e6).round().clamp(-1e15, 1e15) as i64
}

/// Tuning for the residual CUSUM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DetectorConfig {
    /// Slack subtracted from each residual before it accumulates,
    /// in parts-per-million of the predicted energy. Drift below this
    /// rate is treated as in-spec model error.
    pub allowance_ppm: i64,
    /// Cumulative-sum level (µJ) that raises an alarm.
    pub threshold_uj: i64,
    /// Minimum valid samples before the detector may alarm, so a few
    /// quantization spikes right after reset cannot trip it.
    pub min_samples: u64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            // 5% allowance: comfortably above the fitted interface's
            // holdout error (< 2%) plus meter quantization noise, and
            // low enough that a refit fitted mid-ramp re-alarms as the
            // drift keeps growing instead of hiding inside the slack.
            allowance_ppm: 50_000,
            threshold_uj: 50_000,
            min_samples: 16,
        }
    }
}

/// Two-sided CUSUM (Page's test) over signed integer-µJ residuals.
///
/// All state is integer and updated in request order on the logical
/// clock, so a replayed run raises the identical alarm sequence.
#[derive(Debug, Clone)]
pub struct ResidualDetector {
    cfg: DetectorConfig,
    pos_uj: i64,
    neg_uj: i64,
    samples: u64,
    alarms: u64,
}

impl ResidualDetector {
    /// A fresh, armed detector.
    pub fn new(cfg: DetectorConfig) -> Self {
        ResidualDetector {
            cfg,
            pos_uj: 0,
            neg_uj: 0,
            samples: 0,
            alarms: 0,
        }
    }

    /// Feeds one valid (non-dropout) sample; returns `true` on alarm.
    /// An alarm resets the cumulative sums and the sample count, so the
    /// detector re-arms from scratch.
    pub fn observe(&mut self, predicted_uj: i64, metered_uj: i64) -> bool {
        let r = metered_uj.saturating_sub(predicted_uj);
        let allow = predicted_uj.abs().saturating_mul(self.cfg.allowance_ppm) / 1_000_000;
        self.pos_uj = self.pos_uj.saturating_add(r).saturating_sub(allow).max(0);
        self.neg_uj = self.neg_uj.saturating_sub(r).saturating_sub(allow).max(0);
        self.samples += 1;
        if self.samples >= self.cfg.min_samples
            && (self.pos_uj > self.cfg.threshold_uj || self.neg_uj > self.cfg.threshold_uj)
        {
            self.alarms += 1;
            telemetry::counter_add("service.recal.alarms", 1);
            self.reset();
            return true;
        }
        false
    }

    /// Drops all accumulated evidence and re-arms `min_samples`.
    pub fn reset(&mut self) {
        self.pos_uj = 0;
        self.neg_uj = 0;
        self.samples = 0;
    }

    /// Alarms raised over this detector's lifetime.
    pub fn alarms(&self) -> u64 {
        self.alarms
    }

    /// Current (positive-side, negative-side) cumulative sums in µJ.
    pub fn scores_uj(&self) -> (i64, i64) {
        (self.pos_uj, self.neg_uj)
    }
}

/// Tuning for the full detect → refit → gate → swap → watch loop.
#[derive(Debug, Clone)]
pub struct RecalConfig {
    /// Whether alarms trigger refits. With `false` the detector still
    /// runs (and counts alarms) but the interface is never touched —
    /// the control arm of E11.
    pub enabled: bool,
    /// Residual CUSUM tuning.
    pub detector: DetectorConfig,
    /// A refit candidate must validate to at most this mean relative
    /// error on held-out forwards before it may be swapped in.
    pub validation_gate_rel: f64,
    /// Post-swap monitor: minimum valid samples before a rollback
    /// verdict may be reached.
    pub monitor_min_samples: u64,
    /// Post-swap monitor: valid samples after which the new version is
    /// accepted and the monitor disarms.
    pub monitor_window: u64,
    /// Post-swap monitor: roll back when `|Σ residual| / Σ predicted`
    /// exceeds this, in parts-per-million.
    pub rollback_threshold_ppm: i64,
    /// Valid samples to ignore after any refit decision (swap, reject,
    /// or rollback) before the detector may alarm again.
    pub cooldown: u64,
}

impl Default for RecalConfig {
    fn default() -> Self {
        RecalConfig {
            enabled: true,
            detector: DetectorConfig::default(),
            validation_gate_rel: 0.08,
            monitor_min_samples: 24,
            monitor_window: 200,
            rollback_threshold_ppm: 100_000,
            cooldown: 64,
        }
    }
}

/// Counters of one recalibrating run, serialized into E11 reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecalStats {
    /// Valid residual samples fed to the detector or monitor.
    pub samples: u64,
    /// Samples skipped because the meter was dropped out.
    pub skipped_dropout: u64,
    /// Clean samples skipped right after a dropout window while each
    /// replica's first read absorbed the backlogged stale-window energy.
    pub skipped_resync: u64,
    /// Detector alarms (counted even when recal is disabled).
    pub alarms: u64,
    /// Refit campaigns run.
    pub refits: u64,
    /// Refit candidates rejected by the validation gate.
    pub refits_rejected: u64,
    /// Forward swaps performed.
    pub swaps: u64,
    /// Post-swap rollbacks performed.
    pub rollbacks: u64,
}

/// One per-request residual observation, kept for phase analysis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SampleRow {
    /// Logical arrival time of the request, seconds.
    pub t_s: f64,
    /// Interface prediction with ECVs pinned to the observed path, J.
    pub predicted_j: f64,
    /// Metered energy charged to the request, J.
    pub metered_j: f64,
    /// Interface version that served the request.
    pub version: u32,
    /// False for dropout/resync samples the detector ignored.
    pub valid: bool,
}

/// Post-swap watchdog: signed sums over the new version's residuals.
#[derive(Debug, Clone, Copy)]
struct SwapMonitor {
    seen: u64,
    sum_r_uj: i128,
    sum_pred_uj: i128,
}

/// What the post-swap monitor concluded after a sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MonitorOutcome {
    /// Still gathering evidence (or no monitor armed).
    Pending,
    /// The new version was worse; the registry rolled back.
    RolledBack,
    /// The window closed with residuals still biased past the detector
    /// allowance — the drift outran the fit, refit again.
    StillDrifting,
}

/// What predicting under one interface version needs besides the request:
/// the version's declared ECV environment, re-pinned per request, and its
/// evaluation config. Built when the version becomes active.
struct VersionQuery {
    version: u32,
    env: EcvEnv,
    config: EvalConfig,
}

impl VersionQuery {
    fn active(registry: &InterfaceRegistry) -> Self {
        let v = registry.current();
        VersionQuery {
            version: registry.active_version(),
            env: EcvEnv::from_decls(&v.interfaces[0].ecvs),
            config: EvalConfig {
                calibration: v.calibration.clone(),
                ..EvalConfig::default()
            },
        }
    }
}

/// The recalibrating serving stack: a [`ServiceFrontend`] plus the
/// versioned interface registry and the drift-control loop around it.
///
/// Every request is served by the frontend exactly as without
/// recalibration — admission, routing, caching and metering are
/// untouched, and a swap can never shed or reroute a request — while
/// this wrapper predicts, compares, and (when drift is confirmed)
/// refits between requests.
pub struct RecalFrontend {
    fe: ServiceFrontend,
    gpu_cfg: GpuConfig,
    nic_cfg: NicConfig,
    cfg: RecalConfig,
    registry: InterfaceRegistry,
    query: VersionQuery,
    cache: EvalCache,
    detector: ResidualDetector,
    stats: RecalStats,
    samples: Vec<SampleRow>,
    prev_dropout: bool,
    resync_skip: u64,
    monitor: Option<SwapMonitor>,
    cooldown_left: u64,
}

impl RecalFrontend {
    /// Brings up the frontend and publishes version 0 of the interface,
    /// fitted against the *healthy* device with the given expected path
    /// mixture (measure it with [`pilot_mixture`], or reuse a prior
    /// run's [`FrontendStats::mixture`]).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        gpu: GpuConfig,
        nic: NicConfig,
        local_entries: usize,
        remote_entries: usize,
        plan: FaultPlan,
        fe_config: FrontendConfig,
        recal: RecalConfig,
        mixture: &crate::frontend::FaultMixture,
    ) -> Option<Self> {
        let cal = calibrate_with_state(&gpu, &FaultState::healthy())?;
        let cal_br = match plan.worst_brownout() {
            Some((derate, sm_loss)) => calibrate_with_state(
                &gpu,
                &FaultState {
                    gpu_derate: derate,
                    gpu_sm_loss: sm_loss,
                    ..FaultState::healthy()
                },
            )?,
            None => cal.clone(),
        };
        let iface = fig1_interface_faulted(
            mixture,
            &cal,
            &cal_br,
            &CacheEnergy::default(),
            nic.e_byte,
            nic.e_packet,
        );
        let calibration = fig1_faulted_calibration(&cal, &cal_br);
        let registry = InterfaceRegistry::new(vec![iface], calibration, "initial fit");
        let fe = ServiceFrontend::new(
            gpu.clone(),
            nic.clone(),
            local_entries,
            remote_entries,
            plan,
            fe_config,
        )?;
        let detector = ResidualDetector::new(recal.detector);
        Some(RecalFrontend {
            fe,
            gpu_cfg: gpu,
            nic_cfg: nic,
            cfg: recal,
            query: VersionQuery::active(&registry),
            registry,
            cache: EvalCache::new(),
            detector,
            stats: RecalStats::default(),
            samples: Vec::new(),
            prev_dropout: false,
            resync_skip: 0,
            monitor: None,
            cooldown_left: 0,
        })
    }

    /// Serves one request `inter_arrival` after the previous one and
    /// runs the drift-control loop on its residual. Returns the true
    /// energy like [`ServiceFrontend::handle`]; `None` means shed by
    /// admission control (never by a swap — swaps happen strictly
    /// between requests and shed nothing).
    pub fn handle(&mut self, req: Request, inter_arrival: TimeSpan) -> Option<Energy> {
        // Capture the active version *before* the request starts: the
        // whole request is predicted and accounted under it even if the
        // post-request control loop swaps.
        let version = self.registry.active_version();
        let before = self.fe.stats();
        let result = self.fe.handle(req, inter_arrival)?;
        let after = self.fe.stats();

        let path = self
            .fe
            .log()
            .last()
            .expect("completed request logs a path")
            .0;
        let now = self.fe.now();
        let st = self.fe.plan().state_at(now);
        let metered_j = after.metered_energy_j - before.metered_energy_j;
        let dropout = after.meter_stale > before.meter_stale;
        let predicted_j = self.predict(&req, path, &st);

        let valid = if dropout {
            self.prev_dropout = true;
            self.stats.skipped_dropout += 1;
            telemetry::counter_add("service.recal.residual_skipped", 1);
            false
        } else {
            if self.prev_dropout {
                // The first clean read per replica absorbs the energy
                // backlogged while the meter was stale.
                self.resync_skip = self.replica_count();
                self.prev_dropout = false;
            }
            if self.resync_skip > 0 {
                self.resync_skip -= 1;
                self.stats.skipped_resync += 1;
                telemetry::counter_add("service.recal.residual_skipped", 1);
                false
            } else {
                true
            }
        };

        self.samples.push(SampleRow {
            t_s: now.as_seconds(),
            predicted_j,
            metered_j,
            version,
            valid,
        });

        if valid {
            self.stats.samples += 1;
            telemetry::counter_add("service.recal.residual_samples", 1);
            let pred_uj = to_uj(predicted_j);
            let met_uj = to_uj(metered_j);
            if self.monitor.is_some() {
                let outcome = self.update_monitor(met_uj.saturating_sub(pred_uj), pred_uj);
                if outcome == MonitorOutcome::StillDrifting && self.cfg.enabled {
                    self.refit(now, &st);
                }
            } else if self.cooldown_left > 0 {
                self.cooldown_left -= 1;
            } else if self.detector.observe(pred_uj, met_uj) {
                self.stats.alarms += 1;
                if self.cfg.enabled {
                    self.refit(now, &st);
                } else {
                    self.cooldown_left = self.cfg.cooldown;
                }
            }
        }
        Some(result)
    }

    /// Predicts the request's energy under the active interface version
    /// with every ECV pinned to what actually happened — the residual
    /// then measures *parameter* drift, not path-mixture luck. The
    /// version's env and config are rebuilt only when a swap or rollback
    /// changed the active version.
    fn predict(&mut self, req: &Request, path: FinalPath, st: &FaultState) -> f64 {
        if self.query.version != self.registry.active_version() {
            self.query = VersionQuery::active(&self.registry);
        }
        let iface = &self.registry.current().interfaces[0];
        let (hit, local) = match path {
            FinalPath::LocalHit => (true, true),
            FinalPath::RemoteHit => (true, false),
            FinalPath::Recompute { .. } => (false, false),
        };
        let env = &mut self.query.env;
        env.pin_bool("request_hit", hit);
        env.pin_bool("local_cache_hit", local);
        env.pin_bool("remote_alive", st.remote_alive);
        env.pin_bool("gpu_brownout", st.gpu_browned());
        env.pin_bool(
            "degraded",
            matches!(path, FinalPath::Recompute { degraded: true }),
        );
        let args = [Value::num_record([
            ("image_id", req.image_id as f64),
            ("image_size", req.image_size as f64),
            ("image_zeros", req.image_zeros as f64),
        ])];
        self.cache
            .evaluate_energy_cached(iface, "handle", &args, env, 0, &self.query.config)
            .map(|e| e.as_joules())
            .unwrap_or(0.0)
    }

    /// Runs the refit campaign against the device *as it now is*, gates
    /// the candidate, and swaps it live if it validates.
    fn refit(&mut self, now: TimeSpan, st: &FaultState) {
        self.stats.refits += 1;
        telemetry::counter_add("service.recal.refits", 1);

        // Microbenchmark the drifted accelerator with transient fault
        // components (brownout) stripped: the refit targets the durable
        // parameter change, not a derate a later window will lift.
        let drift_only = FaultState {
            gpu_energy_scale: st.gpu_energy_scale,
            gpu_static_w: st.gpu_static_w,
            nic_energy_scale: st.nic_energy_scale,
            ..FaultState::healthy()
        };
        let Some(cal) = calibrate_with_state(&self.gpu_cfg, &drift_only) else {
            self.reject();
            return;
        };
        let cal_br = match self.fe.plan().worst_brownout() {
            Some((derate, sm_loss)) => {
                let browned = FaultState {
                    gpu_derate: derate,
                    gpu_sm_loss: sm_loss,
                    ..drift_only
                };
                match calibrate_with_state(&self.gpu_cfg, &browned) {
                    Some(c) => c,
                    None => {
                        self.reject();
                        return;
                    }
                }
            }
            None => cal.clone(),
        };
        let (nic_per_byte, nic_fixed) = probe_nic(&self.nic_cfg, drift_only.nic_energy_scale);

        let mixture = self.fe.stats().mixture();
        let iface = fig1_interface_faulted(
            &mixture,
            &cal,
            &cal_br,
            &CacheEnergy::default(),
            nic_per_byte,
            nic_fixed,
        );
        let calibration = fig1_faulted_calibration(&cal, &cal_br);

        // Validation gate: held-out forwards on a fresh probe of the
        // drifted device vs. the candidate's cnn_forward.
        let config = EvalConfig {
            calibration: calibration.clone(),
            ..EvalConfig::default()
        };
        let (argsets, measured) = match validation_probes(&self.gpu_cfg, &drift_only) {
            Some(p) => p,
            None => {
                self.reject();
                return;
            }
        };
        let passed = validate_interface(&iface, "cnn_forward", &argsets, &measured, &config)
            .map(|report| report.mean_rel_error <= self.cfg.validation_gate_rel)
            .unwrap_or(false);
        if !passed {
            self.stats.refits_rejected += 1;
            telemetry::counter_add("service.recal.refits_rejected", 1);
            self.reject();
            return;
        }

        let version = self.registry.publish(
            vec![iface],
            calibration,
            format!("recal @ {:.3}s", now.as_seconds()),
        );
        self.registry.swap_to(version);
        self.stats.swaps += 1;
        telemetry::counter_add("service.recal.swaps", 1);
        self.monitor = Some(SwapMonitor {
            seen: 0,
            sum_r_uj: 0,
            sum_pred_uj: 0,
        });
        self.detector.reset();
        self.cooldown_left = self.cfg.cooldown;
    }

    /// A refit attempt that cannot go live: re-arm and cool down.
    fn reject(&mut self) {
        self.detector.reset();
        self.cooldown_left = self.cfg.cooldown;
    }

    /// Accumulates post-swap evidence and reaches one of three
    /// verdicts: the new version is *worse* (roll back), *converged*
    /// (accept and disarm), or *already stale* because the drift kept
    /// moving past the fit (tell the caller to refit again).
    fn update_monitor(&mut self, r_uj: i64, pred_uj: i64) -> MonitorOutcome {
        let Some(m) = &mut self.monitor else {
            return MonitorOutcome::Pending;
        };
        m.seen += 1;
        m.sum_r_uj += r_uj as i128;
        m.sum_pred_uj += (pred_uj.max(1)) as i128;
        let bias_ppm = (m.sum_r_uj.abs() * 1_000_000) / m.sum_pred_uj.max(1);
        if m.seen >= self.cfg.monitor_min_samples
            && bias_ppm > self.cfg.rollback_threshold_ppm as i128
        {
            self.registry.rollback();
            self.stats.rollbacks += 1;
            telemetry::counter_add("service.recal.swap_rollbacks", 1);
            self.monitor = None;
            self.detector.reset();
            self.cooldown_left = self.cfg.cooldown;
            return MonitorOutcome::RolledBack;
        }
        if m.seen >= self.cfg.monitor_window {
            self.monitor = None;
            if bias_ppm > self.cfg.detector.allowance_ppm as i128 {
                // Not bad enough to roll back, but biased beyond the
                // detector's own slack: the device moved on while we
                // were fitting (a mid-ramp refit). Chase it.
                return MonitorOutcome::StillDrifting;
            }
        }
        MonitorOutcome::Pending
    }

    fn replica_count(&self) -> u64 {
        self.fe.config().replicas.max(1) as u64
    }

    /// The wrapped frontend.
    pub fn frontend(&self) -> &ServiceFrontend {
        &self.fe
    }

    /// The interface registry (versions, swap/rollback accounting).
    pub fn registry(&self) -> &InterfaceRegistry {
        &self.registry
    }

    /// Registry accounting, convenient for reports.
    pub fn registry_stats(&self) -> RegistryStats {
        self.registry.stats()
    }

    /// Drift-control counters.
    pub fn stats(&self) -> RecalStats {
        self.stats
    }

    /// The per-request residual log, in arrival order.
    pub fn samples(&self) -> &[SampleRow] {
        &self.samples
    }

    /// The detector, for inspection in tests.
    pub fn detector(&self) -> &ResidualDetector {
        &self.detector
    }

    /// Serves a whole stream at a fixed inter-arrival gap; returns the
    /// number of completed (non-shed) requests.
    pub fn run(&mut self, stream: &[Request], inter_arrival: TimeSpan) -> usize {
        let mut completed = 0;
        for req in stream {
            if self.handle(*req, inter_arrival).is_some() {
                completed += 1;
            }
        }
        completed
    }
}

/// Measures the path mixture of a healthy pilot run over `stream`, for
/// seeding version 0's ECV probabilities.
#[allow(clippy::too_many_arguments)]
pub fn pilot_mixture(
    gpu: &GpuConfig,
    nic: &NicConfig,
    local_entries: usize,
    remote_entries: usize,
    fe_config: &FrontendConfig,
    stream: &[Request],
    inter_arrival: TimeSpan,
    seed: u64,
) -> Option<crate::frontend::FaultMixture> {
    let mut fe = ServiceFrontend::new(
        gpu.clone(),
        nic.clone(),
        local_entries,
        remote_entries,
        FaultPlan::healthy(seed),
        fe_config.clone(),
    )?;
    for req in stream {
        fe.handle(*req, inter_arrival);
    }
    Some(fe.stats().mixture())
}

/// Fits per-packet and per-byte NIC energy on a fresh (possibly
/// drifted) probe device. The awake-idle share over the transmit time
/// is subtracted before fitting — it is an operator-observable constant
/// (idle watts / bandwidth), and the fitted coefficients then match the
/// per-event convention of the interface's nominal NIC constants.
/// Returns `(per_byte, fixed)`; falls back to the nominal config if the
/// fit degenerates.
fn probe_nic(cfg: &NicConfig, energy_scale: f64) -> (Energy, Energy) {
    let mut nic = NicSim::new(cfg.clone());
    if energy_scale != 1.0 {
        nic.set_drift(energy_scale);
    }
    let mut t = TimeSpan::ZERO;
    // Throwaway transfer so a sleep-capable radio pays its wake energy
    // outside the probe window.
    nic.transfer(t, 1);
    t += TimeSpan::millis(1.0);
    let sizes: [u64; 5] = [1_500, 3_000, 15_000, 60_000, 150_000];
    let mut rows = Vec::with_capacity(sizes.len());
    let mut y = Vec::with_capacity(sizes.len());
    for &bytes in &sizes {
        let e = nic.transfer(t, bytes);
        let idle_share = cfg
            .idle_power
            .over(TimeSpan::seconds(bytes as f64 / cfg.bandwidth));
        rows.push(vec![bytes.div_ceil(1_500).max(1) as f64, bytes as f64]);
        y.push((e - idle_share).as_joules());
        t += TimeSpan::millis(1.0);
    }
    match least_squares(&rows, &y) {
        Ok(fit) if fit.coefficients.len() == 2 => (
            Energy::joules(fit.coefficients[1].max(0.0)),
            Energy::joules(fit.coefficients[0].max(0.0)),
        ),
        _ => (cfg.e_byte, cfg.e_packet),
    }
}

/// Held-out forwards on a fresh probe at the given state, shaped for
/// [`validate_interface`] against `cnn_forward(request)`.
fn validation_probes(gpu: &GpuConfig, st: &FaultState) -> Option<(Vec<Vec<Value>>, Vec<Energy>)> {
    let mut probe = CnnModel::new(GpuSim::new(gpu.clone()))?;
    if st.gpu_browned() {
        probe.gpu_mut().set_fault(st.gpu_derate, st.gpu_sm_loss);
    }
    if st.drifted() {
        probe
            .gpu_mut()
            .set_drift(st.gpu_energy_scale, st.gpu_static_w);
    }
    let points: [(u64, u64); 3] = [(4_096, 1_024), (16_384, 4_096), (65_536, 16_384)];
    let mut argsets = Vec::with_capacity(points.len());
    let mut measured = Vec::with_capacity(points.len());
    for (size, zeros) in points {
        measured.push(probe.forward(size, zeros));
        argsets.push(vec![Value::num_record([
            ("image_id", 1.0),
            ("image_size", size as f64),
            ("image_zeros", zeros as f64),
        ])]);
    }
    Some((argsets, measured))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::request_stream;
    use ei_hw::faults::{DriftParam, DriftShape, Fault};
    use ei_hw::gpu::rtx4090;
    use ei_hw::nic::datacenter_nic;

    fn at(s: f64) -> TimeSpan {
        TimeSpan::seconds(s)
    }

    fn test_recal_config(enabled: bool) -> RecalConfig {
        RecalConfig {
            enabled,
            monitor_min_samples: 24,
            monitor_window: 80,
            cooldown: 32,
            ..RecalConfig::default()
        }
    }

    fn recal_frontend(plan: FaultPlan, cfg: RecalConfig) -> RecalFrontend {
        let stream = request_stream(300, 100, 0.6, 16384, 0.25, 42);
        let mix = pilot_mixture(
            &rtx4090(),
            &datacenter_nic(),
            256,
            4096,
            &FrontendConfig::default(),
            &stream,
            TimeSpan::millis(5.0),
            7,
        )
        .expect("model fits");
        RecalFrontend::new(
            rtx4090(),
            datacenter_nic(),
            256,
            4096,
            plan,
            FrontendConfig::default(),
            cfg,
            &mix,
        )
        .expect("model fits")
    }

    /// Ramp + hold drift on the accelerator: dynamic energy +50% and
    /// static power +30 W, developing over `[ramp_from, ramp_until)`
    /// and persisting after.
    fn gpu_drift_plan(seed: u64, ramp_from: f64, ramp_until: f64) -> FaultPlan {
        FaultPlan::healthy(seed)
            .window(
                at(ramp_from),
                at(ramp_until),
                Fault::ParamDrift {
                    param: DriftParam::GpuEnergyScale,
                    shape: DriftShape::Ramp,
                    magnitude: 0.5,
                },
            )
            .window(
                at(ramp_from),
                at(ramp_until),
                Fault::ParamDrift {
                    param: DriftParam::GpuStaticPower,
                    shape: DriftShape::Ramp,
                    magnitude: 30.0,
                },
            )
            .window(
                at(ramp_until),
                at(1e9),
                Fault::ParamDrift {
                    param: DriftParam::GpuEnergyScale,
                    shape: DriftShape::Hold,
                    magnitude: 0.5,
                },
            )
            .window(
                at(ramp_until),
                at(1e9),
                Fault::ParamDrift {
                    param: DriftParam::GpuStaticPower,
                    shape: DriftShape::Hold,
                    magnitude: 30.0,
                },
            )
    }

    /// Absolute relative bias `|Σmetered − Σpredicted| / Σmetered` over
    /// the valid samples at or after `from_s` (signed sums: per-sample
    /// magnitudes are quantization-dominated, but the 1 mJ floors
    /// telescope across consecutive reads of the same replica meter).
    fn tail_bias(samples: &[SampleRow], from_s: f64) -> f64 {
        let (mut pred, mut met) = (0.0, 0.0);
        for s in samples.iter().filter(|s| s.valid && s.t_s >= from_s) {
            pred += s.predicted_j;
            met += s.metered_j;
        }
        assert!(met > 0.0, "no valid samples in the tail");
        ((met - pred) / met).abs()
    }

    #[test]
    fn detector_alarms_on_sustained_bias_not_on_quantization_noise() {
        let mut det = ResidualDetector::new(DetectorConfig::default());
        // Quantized local hits: true cost ~80 µJ, metered 0 except a
        // 1000 µJ spike every 12th read when the floor is crossed.
        for i in 0..600 {
            let metered = if i % 12 == 11 { 1000 } else { 0 };
            assert!(!det.observe(80, metered), "noise must not alarm (i={i})");
        }
        assert_eq!(det.alarms(), 0);

        // Sustained +40% on a 4.4 mJ recompute path alarms quickly.
        let mut fired = false;
        for _ in 0..64 {
            if det.observe(4_400, 6_160) {
                fired = true;
                break;
            }
        }
        assert!(fired, "sustained 40% bias must alarm");
        assert_eq!(det.alarms(), 1);
        assert_eq!(det.scores_uj(), (0, 0), "alarm resets the sums");
    }

    #[test]
    fn detector_is_two_sided() {
        let mut det = ResidualDetector::new(DetectorConfig::default());
        let mut fired = false;
        for _ in 0..64 {
            if det.observe(4_400, 2_600) {
                fired = true;
                break;
            }
        }
        assert!(fired, "sustained over-prediction must alarm too");
    }

    #[test]
    fn healthy_run_never_alarms_or_swaps() {
        let mut rf = recal_frontend(FaultPlan::healthy(11), test_recal_config(true));
        let stream = request_stream(600, 100, 0.6, 16384, 0.25, 42);
        let done = rf.run(&stream, TimeSpan::millis(5.0));
        assert_eq!(done, 600);
        let st = rf.stats();
        assert_eq!(st.alarms, 0, "healthy device must not alarm: {st:?}");
        assert_eq!(st.swaps, 0);
        assert_eq!(rf.registry().len(), 1);
        assert!(st.samples > 500);
    }

    #[test]
    fn dropout_storm_raises_zero_false_swaps() {
        // S2 regression: meter dropouts are a *meter* fault, not drift.
        // A storm of stale windows must produce skipped samples, zero
        // alarms, and zero swaps.
        let mut plan = FaultPlan::healthy(13);
        for k in 0..6 {
            let from = 0.2 + 0.4 * k as f64;
            plan = plan.window(at(from), at(from + 0.2), Fault::MeterDropout);
        }
        let mut rf = recal_frontend(plan, test_recal_config(true));
        let stream = request_stream(600, 100, 0.6, 16384, 0.25, 42);
        rf.run(&stream, TimeSpan::millis(5.0));
        let st = rf.stats();
        assert!(st.skipped_dropout > 50, "storm must skip samples: {st:?}");
        assert!(st.skipped_resync > 0, "post-dropout resync must skip");
        assert_eq!(st.alarms, 0, "dropouts must not masquerade as drift");
        assert_eq!(st.swaps, 0);
        assert_eq!(rf.registry().len(), 1);
    }

    #[test]
    fn drift_triggers_gated_swap_and_shrinks_bias() {
        let stream = request_stream(600, 100, 0.6, 16384, 0.25, 42);

        let mut on = recal_frontend(gpu_drift_plan(17, 0.4, 0.7), test_recal_config(true));
        let done = on.run(&stream, TimeSpan::millis(5.0));
        assert_eq!(done, 600, "swaps must never drop a request");
        let st = on.stats();
        assert!(st.alarms >= 1, "drift must alarm: {st:?}");
        assert!(st.swaps >= 1, "alarm must produce a live swap: {st:?}");
        assert!(on.registry().len() >= 2);

        let mut off = recal_frontend(gpu_drift_plan(17, 0.4, 0.7), test_recal_config(false));
        off.run(&stream, TimeSpan::millis(5.0));
        assert!(off.stats().alarms >= 1, "control arm still detects");
        assert_eq!(off.stats().swaps, 0, "control arm never swaps");

        // Steady tail (drift fully developed, post-swap): the
        // recalibrated interface tracks the drifted device, the frozen
        // one diverges.
        let bias_on = tail_bias(on.samples(), 2.0);
        let bias_off = tail_bias(off.samples(), 2.0);
        assert!(
            bias_on < bias_off / 2.0,
            "recal must shrink steady-state bias: on={bias_on:.4} off={bias_off:.4}"
        );
        assert!(
            bias_off > 0.2,
            "uncorrected drift must diverge: {bias_off:.4}"
        );
    }

    #[test]
    fn transient_spike_swap_rolls_back() {
        // A hold-shaped spike that vanishes mid-run: the detector
        // alarms inside the spike and swaps to an interface fitted to
        // the spiked device; once the spike lifts, the post-swap
        // monitor sees the new version over-predicting and rolls back.
        let plan = FaultPlan::healthy(19)
            .window(
                at(0.2),
                at(0.9),
                Fault::ParamDrift {
                    param: DriftParam::GpuEnergyScale,
                    shape: DriftShape::Hold,
                    magnitude: 0.6,
                },
            )
            .window(
                at(0.2),
                at(0.9),
                Fault::ParamDrift {
                    param: DriftParam::GpuStaticPower,
                    shape: DriftShape::Hold,
                    magnitude: 40.0,
                },
            );
        // A long monitor window, so the post-swap watchdog is still
        // armed when the spike lifts and the swapped-in interface
        // starts over-predicting.
        let cfg = RecalConfig {
            monitor_window: 240,
            ..test_recal_config(true)
        };
        let mut rf = recal_frontend(plan, cfg);
        let stream = request_stream(600, 100, 0.6, 16384, 0.25, 42);
        let done = rf.run(&stream, TimeSpan::millis(5.0));
        assert_eq!(done, 600);
        let st = rf.stats();
        assert!(st.swaps >= 1, "spike must trigger a swap: {st:?}");
        assert!(st.rollbacks >= 1, "lifted spike must roll back: {st:?}");
        assert_eq!(
            rf.registry().active_version(),
            0,
            "rollback restores the pre-drift interface"
        );
    }

    #[test]
    fn recal_run_replays_bit_identically() {
        let run = || {
            let mut rf = recal_frontend(gpu_drift_plan(23, 0.4, 0.7), test_recal_config(true));
            let stream = request_stream(400, 100, 0.6, 16384, 0.25, 42);
            rf.run(&stream, TimeSpan::millis(5.0));
            (
                rf.stats(),
                rf.registry_stats(),
                rf.samples().to_vec(),
                rf.frontend().stats(),
            )
        };
        let (s1, r1, rows1, f1) = run();
        let (s2, r2, rows2, f2) = run();
        assert_eq!(s1, s2);
        assert_eq!(r1, r2);
        assert_eq!(f1, f2);
        assert_eq!(rows1.len(), rows2.len());
        for (a, b) in rows1.iter().zip(&rows2) {
            assert_eq!(a.predicted_j.to_bits(), b.predicted_j.to_bits());
            assert_eq!(a.metered_j.to_bits(), b.metered_j.to_bits());
            assert_eq!((a.version, a.valid), (b.version, b.valid));
        }
    }
}
