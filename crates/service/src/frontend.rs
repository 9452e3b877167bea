//! Multi-replica serving frontend with fault injection and graceful
//! degradation.
//!
//! The Fig. 1 service as deployed: several replicas behind an admission
//! controller, each with its own accelerator, NIC, two-tier cache, and
//! NVML-style meter. One replica on a healthy plan is the service as
//! drawn, the ground truth of Fig. 1 and E6. A seeded [`FaultPlan`]
//! drives the hardware through brownouts, flaky links, cache-node death,
//! and meter dropouts on the *logical* service clock, and the frontend
//! answers with the degraded modes real serving tiers use:
//!
//! - **Admission control**: a request is shed when the least-loaded
//!   replica's backlog exceeds [`FrontendConfig::max_backlog`].
//! - **Timeout + bounded retry**: a remote cache attempt slower than
//!   [`FrontendConfig::remote_timeout`] is retried with exponential
//!   backoff up to [`FrontendConfig::max_retries`] times, then the
//!   frontend gives up and recomputes.
//! - **Skip dead tiers**: while the remote cache node is down, lookups go
//!   straight to recompute and inserts are not replicated.
//! - **Shed to the small model**: when the accelerator browns out below
//!   [`FrontendConfig::brownout_shed_threshold`], misses run the
//!   half-depth CNN ([`CnnModel::forward_degraded`]).
//!
//! Every decision is a pure function of the plan, the workload, and the
//! seeds, so a faulted run is byte-identical across repeats and thread
//! counts. [`fig1_interface_faulted`] extends Fig. 1's interface with
//! fault-conditioned ECVs (`remote_alive`, `gpu_brownout`, `degraded`) so
//! the interface keeps predicting measured energy *through* the faults —
//! the paper's clarity claim under adversity, checked by the E9 fault
//! matrix.

use ei_core::interface::{InputSpec, Interface};
use ei_core::parser::parse;
use ei_core::pretty::fmt_eil_num;
use ei_core::units::{Calibration, Energy, TimeSpan};
use ei_hw::faults::FaultPlan;
use ei_hw::faults::FaultState;
use ei_hw::gpu::{GpuConfig, GpuSim};
use ei_hw::meter::{MeterConfig, PowerMeter};
use ei_hw::nic::{NicConfig, NicSim};
use serde::{Deserialize, Serialize};

use crate::cache::{CacheEnergy, RequestCache};
use crate::cnn::{CnnCalibration, CnnModel};
use crate::service::{Request, MAX_RESPONSE_LEN};

/// Serving-tier policy knobs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FrontendConfig {
    /// Number of serving replicas.
    pub replicas: usize,
    /// A request is shed when every replica's backlog exceeds this.
    pub max_backlog: TimeSpan,
    /// Remote cache attempts slower than this are treated as failed.
    pub remote_timeout: TimeSpan,
    /// Failed remote attempts are retried at most this many times.
    pub max_retries: u32,
    /// First retry backoff; doubles per attempt.
    pub backoff_base: TimeSpan,
    /// Misses run the degraded model when the GPU derate falls below this.
    pub brownout_shed_threshold: f64,
    /// Meter characteristics of each replica's energy counter.
    pub meter: MeterConfig,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        FrontendConfig {
            replicas: 2,
            max_backlog: TimeSpan::millis(2.0),
            remote_timeout: TimeSpan::millis(10.0),
            max_retries: 2,
            backoff_base: TimeSpan::millis(1.0),
            brownout_shed_threshold: 0.6,
            meter: MeterConfig::nvml(),
        }
    }
}

/// How a completed request was ultimately served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinalPath {
    /// Served from the replica's local cache tier.
    LocalHit,
    /// Served from the remote tier within the timeout.
    RemoteHit,
    /// Recomputed on the accelerator (miss, dead remote, or timed-out
    /// remote); `degraded` marks the half-depth model.
    Recompute {
        /// Whether the degraded (half-depth) model ran.
        degraded: bool,
    },
}

/// Final-path and degraded-mode counters of one frontend run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct FrontendStats {
    /// Requests admitted and completed.
    pub completed: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Completed requests served from a local tier.
    pub local_hits: u64,
    /// Completed requests served from the remote tier within the timeout.
    pub remote_hits: u64,
    /// Completed requests that ran the CNN.
    pub recomputes: u64,
    /// Remote attempts that exceeded the timeout.
    pub remote_timeouts: u64,
    /// Remote attempts retried after a timeout.
    pub retries: u64,
    /// Lookups that skipped the remote tier because the node was dead.
    pub remote_skipped: u64,
    /// Recomputes that ran on a browned-out accelerator.
    pub browned_recomputes: u64,
    /// Recomputes that shed to the degraded model.
    pub degraded_recomputes: u64,
    /// Cache inserts after a recompute.
    pub inserts: u64,
    /// Inserts that reached the remote tier (remote node alive).
    pub inserts_replicated: u64,
    /// Per-request meter reads taken while the meter was dropped out.
    pub meter_stale: u64,
    /// Energy reported by the replicas' meters, summed over requests.
    pub metered_energy_j: f64,
    /// Ground-truth energy of completed requests.
    pub true_energy_j: f64,
}

/// The measured path mixture of a run, in the shape the fault-conditioned
/// interface's ECVs want. Every probability is a plain frequency over the
/// run's *final* paths (retries and fallbacks resolved), and every
/// division is guarded so an empty or degenerate run yields probabilities,
/// never NaN.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultMixture {
    /// P(request served from some cache tier).
    pub p_request_hit: f64,
    /// P(local tier | served from cache).
    pub p_local_hit: f64,
    /// P(remote node alive at insert time).
    pub p_remote_alive: f64,
    /// P(accelerator browned | recompute).
    pub p_brownout: f64,
    /// P(degraded model | browned recompute).
    pub p_degraded_given_brownout: f64,
    /// Mean number of timed-out remote attempts per completed request.
    /// Each one burned a full remote fetch (a timeout is always a hit
    /// that arrived late — misses return before the latency check) whose
    /// response was then discarded.
    pub timeout_attempts_per_request: f64,
}

fn ratio(num: u64, den: u64, empty: f64) -> f64 {
    if den == 0 {
        empty
    } else {
        num as f64 / den as f64
    }
}

impl FrontendStats {
    /// The final-path mixture of this run. NaN-free by construction.
    pub fn mixture(&self) -> FaultMixture {
        let hits = self.local_hits + self.remote_hits;
        FaultMixture {
            p_request_hit: ratio(hits, self.completed, 0.0),
            p_local_hit: ratio(self.local_hits, hits, 0.0),
            p_remote_alive: ratio(self.inserts_replicated, self.inserts, 1.0),
            p_brownout: ratio(self.browned_recomputes, self.recomputes, 0.0),
            p_degraded_given_brownout: ratio(
                self.degraded_recomputes,
                self.browned_recomputes,
                0.0,
            ),
            timeout_attempts_per_request: ratio(self.remote_timeouts, self.completed, 0.0),
        }
    }
}

struct Replica {
    cache: RequestCache,
    cnn: CnnModel,
    meter: PowerMeter,
    busy_until: TimeSpan,
}

/// The multi-replica serving frontend.
pub struct ServiceFrontend {
    config: FrontendConfig,
    plan: FaultPlan,
    replicas: Vec<Replica>,
    now: TimeSpan,
    stats: FrontendStats,
    log: Vec<(FinalPath, Energy)>,
}

impl ServiceFrontend {
    /// Brings up `config.replicas` replicas on identical hardware, wired
    /// to the given fault plan. Returns `None` if the model does not fit
    /// the accelerator.
    pub fn new(
        gpu: GpuConfig,
        nic: NicConfig,
        local_entries: usize,
        remote_entries: usize,
        plan: FaultPlan,
        config: FrontendConfig,
    ) -> Option<Self> {
        let n = config.replicas.max(1);
        let mut replicas = Vec::with_capacity(n);
        for i in 0..n {
            let mut nic_sim = NicSim::new(nic.clone());
            // Decorrelated but fully deterministic per-replica loss draws.
            nic_sim.seed_faults(
                plan.seed
                    .wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            );
            replicas.push(Replica {
                cache: RequestCache::new(
                    local_entries,
                    remote_entries,
                    CacheEnergy::default(),
                    nic_sim,
                ),
                cnn: CnnModel::new(GpuSim::new(gpu.clone()))?,
                meter: PowerMeter::new(config.meter.clone()),
                busy_until: TimeSpan::ZERO,
            });
        }
        Some(ServiceFrontend {
            config,
            plan,
            replicas,
            now: TimeSpan::ZERO,
            stats: FrontendStats::default(),
            log: Vec::new(),
        })
    }

    /// The fault plan driving this frontend.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The configuration this frontend was brought up with.
    pub fn config(&self) -> &FrontendConfig {
        &self.config
    }

    /// The current logical service time (advanced by request arrivals).
    pub fn now(&self) -> TimeSpan {
        self.now
    }

    /// Counters so far.
    pub fn stats(&self) -> FrontendStats {
        self.stats
    }

    /// `(final path, true energy)` per completed request.
    pub fn log(&self) -> &[(FinalPath, Energy)] {
        &self.log
    }

    /// Mean ground-truth energy per completed request (zero when nothing
    /// completed — never NaN).
    pub fn mean_request_energy(&self) -> Energy {
        if self.log.is_empty() {
            return Energy::ZERO;
        }
        Energy(self.log.iter().map(|(_, e)| e.as_joules()).sum::<f64>() / self.log.len() as f64)
    }

    /// Handles one request arriving `inter_arrival` after the previous
    /// one. Returns the request's true energy, or `None` if admission
    /// control shed it.
    pub fn handle(&mut self, req: Request, inter_arrival: TimeSpan) -> Option<Energy> {
        self.handle_at(req, self.now + inter_arrival)
    }

    /// Handles one request arriving at absolute logical time `at` — the
    /// event-driven entry point a discrete-event scheduler dispatches
    /// through. `handle(req, gap)` is exactly `handle_at(req, now + gap)`,
    /// so step-driven and event-driven runs of one workload agree
    /// byte-for-byte. `at` must not precede the current logical time.
    pub fn handle_at(&mut self, req: Request, at: TimeSpan) -> Option<Energy> {
        assert!(
            at.as_seconds() >= self.now.as_seconds(),
            "request dispatched into the past: {} < {}",
            at.as_seconds(),
            self.now.as_seconds()
        );
        self.now = at;
        let fault = self.plan.state_at(self.now);

        // Least-loaded replica, lowest index on ties.
        let idx = (0..self.replicas.len())
            .min_by(|&a, &b| {
                self.replicas[a]
                    .busy_until
                    .as_seconds()
                    .partial_cmp(&self.replicas[b].busy_until.as_seconds())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .unwrap_or(0);
        let backlog = (self.replicas[idx].busy_until.as_seconds() - self.now.as_seconds()).max(0.0);
        if backlog > self.config.max_backlog.as_seconds() {
            self.stats.shed += 1;
            ei_telemetry::counter_add("service.frontend.shed", 1);
            return None;
        }

        let mut sp = ei_telemetry::span(ei_telemetry::SpanKind::Request, "frontend.handle");
        sp.add_items(1);
        let config = self.config.clone();
        let replica = &mut self.replicas[idx];
        apply_fault(replica, &fault);

        // The request starts once the replica drains its queue.
        let t_start = TimeSpan::seconds(self.now.as_seconds().max(replica.busy_until.as_seconds()));
        let gpu_t0 = replica.cnn.gpu().counters().elapsed;
        let true_e0 = replica.cache.energy() + replica.cnn.gpu().energy();
        let mut t = t_start;
        let mut e = Energy::ZERO;

        let (local_hit, e_local) = replica
            .cache
            .lookup_local(req.image_id, MAX_RESPONSE_LEN, t);
        e += e_local;

        let path = if local_hit {
            FinalPath::LocalHit
        } else {
            let mut served = false;
            let mut attempts = 0u32;
            loop {
                match replica
                    .cache
                    .lookup_remote_timed(req.image_id, MAX_RESPONSE_LEN, t)
                {
                    None => {
                        // Degraded mode: the remote node is dead, go
                        // straight to recompute.
                        self.stats.remote_skipped += 1;
                        ei_telemetry::counter_add("service.frontend.remote_skipped", 1);
                        break;
                    }
                    Some((hit, e_remote, latency)) => {
                        e += e_remote;
                        if !hit {
                            break;
                        }
                        if latency <= config.remote_timeout {
                            t += latency;
                            served = true;
                            break;
                        }
                        self.stats.remote_timeouts += 1;
                        if attempts >= config.max_retries {
                            break;
                        }
                        attempts += 1;
                        self.stats.retries += 1;
                        ei_telemetry::counter_add("service.frontend.retries", 1);
                        // Give up on the in-flight attempt at the timeout,
                        // back off exponentially, try again.
                        t += config.remote_timeout;
                        t += TimeSpan::seconds(
                            config.backoff_base.as_seconds() * (1u64 << (attempts - 1)) as f64,
                        );
                    }
                }
            }
            if served {
                FinalPath::RemoteHit
            } else {
                let browned = fault.gpu_browned();
                let degraded = browned && fault.gpu_derate < config.brownout_shed_threshold;
                let e_cnn = if degraded {
                    replica
                        .cnn
                        .forward_degraded(req.image_size, req.image_zeros)
                } else {
                    replica.cnn.forward(req.image_size, req.image_zeros)
                };
                e += e_cnn;
                self.stats.inserts += 1;
                if replica.cache.remote_alive() {
                    self.stats.inserts_replicated += 1;
                }
                e += replica.cache.insert(req.image_id, MAX_RESPONSE_LEN);
                if browned {
                    self.stats.browned_recomputes += 1;
                }
                if degraded {
                    self.stats.degraded_recomputes += 1;
                    ei_telemetry::counter_add("service.frontend.degraded", 1);
                }
                FinalPath::Recompute { degraded }
            }
        };

        // The replica is busy for the compute time plus whatever the
        // request spent waiting on the wire and backing off.
        let gpu_t1 = replica.cnn.gpu().counters().elapsed;
        let duration = TimeSpan::seconds(
            (gpu_t1.as_seconds() - gpu_t0.as_seconds()) + (t.as_seconds() - t_start.as_seconds()),
        );
        replica.busy_until = t_start + duration;

        // NVML-style measurement around the request; a dropped-out meter
        // is detected, counted, and its stale zero recorded as such.
        let true_e1 = replica.cache.energy() + replica.cnn.gpu().energy();
        let metered = replica
            .meter
            .measure_interval((true_e0, t_start), (true_e1, replica.busy_until));
        if replica.meter.dropout() {
            self.stats.meter_stale += 1;
            ei_telemetry::counter_add("service.frontend.meter_stale", 1);
        }
        self.stats.metered_energy_j += metered.as_joules();
        self.stats.true_energy_j += e.as_joules();

        match path {
            FinalPath::LocalHit => self.stats.local_hits += 1,
            FinalPath::RemoteHit => self.stats.remote_hits += 1,
            FinalPath::Recompute { .. } => self.stats.recomputes += 1,
        }
        self.stats.completed += 1;
        ei_telemetry::counter_add("service.frontend.completed", 1);
        sp.record_energy(e.as_joules());
        self.log.push((path, e));
        Some(e)
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

fn apply_fault(replica: &mut Replica, st: &FaultState) {
    if st.gpu_browned() {
        replica
            .cnn
            .gpu_mut()
            .set_fault(st.gpu_derate, st.gpu_sm_loss);
    } else {
        replica.cnn.gpu_mut().clear_fault();
    }
    if st.nic_loss > 0.0 || st.nic_latency > TimeSpan::ZERO {
        replica
            .cache
            .nic_mut()
            .set_fault(st.nic_loss, st.nic_latency);
    } else {
        replica.cache.nic_mut().clear_fault();
    }
    if st.gpu_energy_scale != 1.0 || st.gpu_static_w != 0.0 {
        replica
            .cnn
            .gpu_mut()
            .set_drift(st.gpu_energy_scale, st.gpu_static_w);
    } else {
        replica.cnn.gpu_mut().clear_drift();
    }
    if st.nic_energy_scale != 1.0 {
        replica.cache.nic_mut().set_drift(st.nic_energy_scale);
    } else {
        replica.cache.nic_mut().clear_drift();
    }
    replica.cache.set_remote_alive(st.remote_alive);
    replica.meter.set_dropout(st.meter_dropout);
}

/// Calibrates the CNN leaves on a fresh probe device resolved to a full
/// [`FaultState`] — fault *and* drift — the way an online refit campaign
/// runs its microbenchmarks against whatever the device has become.
/// [`FaultState::healthy`] yields the healthy calibration; a state with
/// only `gpu_derate`/`gpu_sm_loss` set yields the browned-leaf constants
/// (`relu_br`, `mlp_br`, `conv2d_br`) of the fault-conditioned interface.
pub fn calibrate_with_state(gpu: &GpuConfig, st: &FaultState) -> Option<CnnCalibration> {
    let mut probe = CnnModel::new(GpuSim::new(gpu.clone()))?;
    if st.gpu_browned() {
        probe.gpu_mut().set_fault(st.gpu_derate, st.gpu_sm_loss);
    }
    if st.gpu_energy_scale != 1.0 || st.gpu_static_w != 0.0 {
        probe
            .gpu_mut()
            .set_drift(st.gpu_energy_scale, st.gpu_static_w);
    }
    Some(probe.calibrate())
}

/// Builds the fault-conditioned Fig. 1 interface.
///
/// Extends [`fig1_interface`](crate::service::fig1_interface) with the
/// fault-conditioned ECVs of the serving tier's *final* paths:
/// `remote_alive` gates the replication write of a cache insert,
/// `gpu_brownout` selects the browned leaf calibration, and `degraded`
/// (conditional on a brownout) selects the half-depth model. The
/// probabilities come from a measured [`FaultMixture`]; the browned leaf
/// constants from [`calibrate_with_state`]. Evaluate with
/// [`fig1_faulted_calibration`] so both healthy and browned abstract
/// units resolve.
pub fn fig1_interface_faulted(
    mix: &FaultMixture,
    cnn: &CnnCalibration,
    cnn_browned: &CnnCalibration,
    cache: &CacheEnergy,
    nic_per_byte: Energy,
    nic_fixed: Energy,
) -> Interface {
    let src = format!(
        r#"
        interface ml_webservice_faulted
            "Fig. 1 interface, conditioned on the serving tier's fault state" {{
            unit relu;
            unit mlp;
            unit relu_br;
            unit mlp_br;
            ecv request_hit: bernoulli({p_hit}) "request served from some cache tier";
            ecv local_cache_hit: bernoulli({p_local}) "cache hit in current node";
            ecv remote_alive: bernoulli({p_alive}) "remote cache node reachable";
            ecv gpu_brownout: bernoulli({p_brown}) "accelerator browned out";
            ecv degraded: bernoulli({p_deg}) "shed to the half-depth model, given a brownout";

            fn handle(request) "energy to handle one request" {{
                let max_response_len = {resp};
                if request_hit {{
                    return cache_lookup(request.image_id, max_response_len)
                         + timeout_waste(max_response_len);
                }} else {{
                    return cnn_forward(request) + cache_insert(max_response_len)
                         + timeout_waste(max_response_len);
                }}
            }}

            fn timeout_waste(response_len)
                "expected energy of timed-out remote attempts: a full fetch, discarded" {{
                return {t_rate} * ({nic_fixed} J + 96 * {nic_pb} J
                     + {nic_fixed} J + {remote_pb} J * response_len);
            }}

            fn cache_lookup(key, response_len) {{
                return {lookup} J
                     + (if local_cache_hit {{ {local_pb} J }} else {{ {remote_pb} J }})
                       * response_len
                     + (if local_cache_hit {{ 0 J }} else {{ {nic_fixed} J }});
            }}

            fn cache_insert(response_len) {{
                return {local_pb} J * response_len
                     + (if remote_alive {{
                            {nic_pb} J * response_len + {nic_fixed} J
                        }} else {{ 0 J }});
            }}

            fn cnn_forward(request) {{
                let n_embedding = 256;
                let nonzero = max(request.image_size - request.image_zeros, 0);
                if gpu_brownout {{
                    if degraded {{
                        return 4 * conv2d_br(nonzero)
                             + 4 relu_br * (n_embedding / 256)
                             + 8 mlp_br * (n_embedding / 256);
                    }} else {{
                        return 8 * conv2d_br(nonzero)
                             + 8 relu_br * (n_embedding / 256)
                             + 16 mlp_br * (n_embedding / 256);
                    }}
                }} else {{
                    return 8 * conv2d_e(nonzero)
                         + 8 relu * (n_embedding / 256)
                         + 16 mlp * (n_embedding / 256);
                }}
            }}

            fn conv2d_e(n) "affine conv block on healthy silicon" {{
                return {conv_fixed} J + {conv_pe} J * n;
            }}

            fn conv2d_br(n) "affine conv block on a browned-out part" {{
                return {conv_fixed_br} J + {conv_pe_br} J * n;
            }}
        }}
        "#,
        p_hit = fmt_eil_num(mix.p_request_hit),
        p_local = fmt_eil_num(mix.p_local_hit),
        p_alive = fmt_eil_num(mix.p_remote_alive),
        p_brown = fmt_eil_num(mix.p_brownout),
        p_deg = fmt_eil_num(mix.p_degraded_given_brownout),
        t_rate = fmt_eil_num(mix.timeout_attempts_per_request),
        resp = MAX_RESPONSE_LEN,
        lookup = fmt_eil_num(cache.local_lookup.as_joules()),
        local_pb = fmt_eil_num(cache.local_per_byte.as_joules()),
        remote_pb = fmt_eil_num(cache.remote_per_byte.as_joules() + nic_per_byte.as_joules()),
        nic_fixed = fmt_eil_num(nic_fixed.as_joules()),
        nic_pb = fmt_eil_num(nic_per_byte.as_joules()),
        conv_fixed = fmt_eil_num(cnn.conv_fixed.as_joules()),
        conv_pe = fmt_eil_num(cnn.conv_per_elem.as_joules()),
        conv_fixed_br = fmt_eil_num(cnn_browned.conv_fixed.as_joules()),
        conv_pe_br = fmt_eil_num(cnn_browned.conv_per_elem.as_joules()),
    );
    let mut iface = parse(&src).expect("faulted Fig. 1 interface must parse");
    iface.set_input_spec(
        "handle",
        InputSpec::new()
            .range("request.image_id", 0.0, 1e9)
            .range("request.image_size", 256.0, 262_144.0)
            .range("request.image_zeros", 0.0, 262_144.0),
    );
    iface
}

/// Calibration resolving both the healthy and the browned abstract units
/// of [`fig1_interface_faulted`].
pub fn fig1_faulted_calibration(cnn: &CnnCalibration, cnn_browned: &CnnCalibration) -> Calibration {
    let relu = cnn.units.get("relu").unwrap_or(Energy::ZERO);
    let mlp = cnn.units.get("mlp").unwrap_or(Energy::ZERO);
    let relu_br = cnn_browned.units.get("relu").unwrap_or(Energy::ZERO);
    let mlp_br = cnn_browned.units.get("mlp").unwrap_or(Energy::ZERO);
    Calibration::from_pairs([
        ("relu", relu),
        ("mlp", mlp),
        ("relu_br", relu_br),
        ("mlp_br", mlp_br),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{fig1_calibration, fig1_interface, request_stream};
    use ei_core::ecv::EcvEnv;
    use ei_core::interp::{enumerate_exact, EvalConfig, ExecMode};
    use ei_core::value::Value;
    use ei_hw::faults::{standard_matrix, Fault};
    use ei_hw::gpu::rtx4090;
    use ei_hw::nic::datacenter_nic;

    fn frontend(plan: FaultPlan) -> ServiceFrontend {
        ServiceFrontend::new(
            rtx4090(),
            datacenter_nic(),
            256,
            4096,
            plan,
            FrontendConfig::default(),
        )
        .expect("model fits")
    }

    /// Fig. 1's service as drawn: one healthy replica.
    fn fig1_service() -> ServiceFrontend {
        ServiceFrontend::new(
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
        .expect("model fits")
    }

    #[test]
    fn fig1_interface_validates_against_measurement() {
        let mut svc = fig1_service();
        let cal = calibrate_with_state(&rtx4090(), &FaultState::healthy()).unwrap();

        // Serve a workload with a hot set that fits the local cache.
        let stream = request_stream(2000, 200, 0.6, 16384, 0.25, 42);
        assert_eq!(
            svc.run(&stream, TimeSpan::millis(5.0)),
            2000,
            "nothing shed"
        );
        let mix = svc.stats().mixture();
        let (p_hit, p_local) = (mix.p_request_hit, mix.p_local_hit);
        assert!(p_hit > 0.3 && p_hit < 0.9, "p_hit={p_hit}");

        // Build Fig. 1's interface with the measured rates and constants.
        let nic_cfg = datacenter_nic();
        let iface = fig1_interface(
            p_hit,
            p_local,
            &cal,
            &CacheEnergy::default(),
            nic_cfg.e_byte,
            nic_cfg.e_packet,
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
        let enumerate = |cfg: &EvalConfig| {
            enumerate_exact(
                &iface,
                "handle",
                std::slice::from_ref(&req),
                &EcvEnv::from_decls(&iface.ecvs),
                64,
                cfg,
            )
            .unwrap()
        };
        let dist = enumerate(&cfg);
        // The Fig. 1 validation must not depend on the engine: the
        // tree-walk reference has to reproduce the VM's enumerated
        // distribution exactly.
        let reference = enumerate(&EvalConfig {
            mode: ExecMode::TreeWalk,
            ..cfg.clone()
        });
        assert_eq!(dist, reference, "engines diverge on the Fig. 1 interface");
        let predicted = dist.mean();
        let measured = svc.mean_request_energy();
        let rel = (predicted.as_joules() - measured.as_joules()).abs() / measured.as_joules();
        assert!(
            rel < 0.10,
            "Fig. 1 interface off by {rel}: predicted {predicted}, measured {measured}"
        );
    }

    #[test]
    fn hit_rates_respond_to_popularity() {
        let mut hot = fig1_service();
        hot.run(
            &request_stream(800, 50, 0.9, 4096, 0.0, 7),
            TimeSpan::millis(1.0),
        );
        let mut cold = fig1_service();
        cold.run(
            &request_stream(800, 50, 0.1, 4096, 0.0, 7),
            TimeSpan::millis(1.0),
        );
        assert!(hot.stats().mixture().p_request_hit > cold.stats().mixture().p_request_hit);
        assert!(hot.mean_request_energy() < cold.mean_request_energy());
    }

    #[test]
    fn healthy_frontend_serves_everything() {
        let mut fe = frontend(FaultPlan::healthy(1));
        let stream = request_stream(500, 100, 0.6, 16384, 0.25, 42);
        let done = fe.run(&stream, TimeSpan::millis(5.0));
        assert_eq!(done, 500);
        let st = fe.stats();
        assert_eq!(st.shed, 0);
        assert_eq!(st.remote_skipped, 0);
        assert_eq!(st.degraded_recomputes, 0);
        assert_eq!(st.meter_stale, 0);
        assert_eq!(st.completed, st.local_hits + st.remote_hits + st.recomputes);
        assert!(st.local_hits > 0 && st.recomputes > 0);
    }

    #[test]
    fn dead_remote_engages_skip_and_local_only_inserts() {
        let plan = FaultPlan::healthy(2).window(
            TimeSpan::ZERO,
            TimeSpan::seconds(1e9),
            Fault::CacheNodeDown,
        );
        let mut fe = frontend(plan);
        let stream = request_stream(300, 50, 0.7, 8192, 0.0, 9);
        fe.run(&stream, TimeSpan::millis(5.0));
        let st = fe.stats();
        assert!(st.remote_skipped > 0, "dead node must be skipped");
        assert_eq!(st.remote_hits, 0);
        assert_eq!(st.inserts_replicated, 0);
        assert!((st.mixture().p_remote_alive - 0.0).abs() < 1e-12);
    }

    #[test]
    fn brownout_sheds_to_degraded_model() {
        let plan = FaultPlan::healthy(3).window(
            TimeSpan::ZERO,
            TimeSpan::seconds(1e9),
            Fault::GpuBrownout {
                derate: 0.45,
                sm_loss: 0.25,
            },
        );
        let mut fe = frontend(plan);
        let stream = request_stream(200, 0, 0.0, 8192, 0.0, 5);
        fe.run(&stream, TimeSpan::millis(5.0));
        let st = fe.stats();
        assert_eq!(st.recomputes, 200, "all-cold stream always recomputes");
        assert_eq!(st.browned_recomputes, 200);
        assert_eq!(st.degraded_recomputes, 200, "0.45 < 0.6 threshold");

        // The degraded model under brownout must still be cheaper than
        // the full model on healthy silicon was designed to allow.
        let mut healthy = frontend(FaultPlan::healthy(3));
        healthy.run(
            &request_stream(200, 0, 0.0, 8192, 0.0, 5),
            TimeSpan::millis(5.0),
        );
        assert!(fe.mean_request_energy() < healthy.mean_request_energy());
    }

    #[test]
    fn nic_latency_spike_times_out_retries_then_falls_back() {
        // Latency spike far above the timeout: every remote hit times
        // out, retries, and falls back to recompute.
        let plan = FaultPlan::healthy(4).window(
            TimeSpan::ZERO,
            TimeSpan::seconds(1e9),
            Fault::NicDegraded {
                loss: 0.0,
                latency: TimeSpan::millis(40.0),
            },
        );
        // Small local tier forces remote hits for a medium-hot set.
        let mut fe_small = ServiceFrontend::new(
            rtx4090(),
            datacenter_nic(),
            4,
            4096,
            plan,
            FrontendConfig::default(),
        )
        .unwrap();
        let stream = request_stream(400, 64, 0.8, 8192, 0.0, 6);
        fe_small.run(&stream, TimeSpan::millis(5.0));
        let st = fe_small.stats();
        assert!(st.remote_timeouts > 0, "spiked remote must time out");
        assert!(st.retries > 0);
        assert_eq!(st.remote_hits, 0, "nothing served within the timeout");
        assert_eq!(st.completed, st.local_hits + st.recomputes);
    }

    #[test]
    fn meter_dropout_is_detected_not_hidden() {
        let plan = FaultPlan::healthy(5).window(
            TimeSpan::ZERO,
            TimeSpan::seconds(1e9),
            Fault::MeterDropout,
        );
        let mut fe = frontend(plan);
        let stream = request_stream(100, 20, 0.5, 8192, 0.0, 7);
        fe.run(&stream, TimeSpan::millis(5.0));
        let st = fe.stats();
        assert_eq!(st.meter_stale, st.completed);
        assert_eq!(st.metered_energy_j, 0.0, "dead meter reports nothing");
        assert!(st.true_energy_j > 0.0, "ground truth keeps flowing");
    }

    #[test]
    fn burst_arrivals_trigger_admission_control() {
        let mut fe = ServiceFrontend::new(
            rtx4090(),
            datacenter_nic(),
            256,
            4096,
            FaultPlan::healthy(6),
            FrontendConfig {
                max_backlog: TimeSpan::micros(50.0),
                ..FrontendConfig::default()
            },
        )
        .unwrap();
        // Zero inter-arrival: the whole stream lands at t = 0 and the
        // backlog bound has to shed.
        let stream = request_stream(200, 0, 0.0, 65536, 0.0, 8);
        let done = fe.run(&stream, TimeSpan::ZERO);
        let st = fe.stats();
        assert!(st.shed > 0, "burst must shed");
        assert_eq!(done as u64 + st.shed, 200);
        assert!(st.completed > 0, "but not everything");
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let run = |threads_hint: u64| {
            let matrix = standard_matrix(11, TimeSpan::seconds(4.0));
            let plan = matrix
                .into_iter()
                .find(|s| s.name == "combined_storm")
                .unwrap()
                .plan;
            let mut fe = frontend(plan);
            let stream = request_stream(600, 80, 0.7, 16384, 0.25, threads_hint);
            fe.run(&stream, TimeSpan::millis(5.0));
            (fe.stats(), fe.mean_request_energy().as_joules().to_bits())
        };
        let (sa, ea) = run(13);
        let (sb, eb) = run(13);
        assert_eq!(sa, sb);
        assert_eq!(ea, eb, "bit-identical mean energy");
    }

    #[test]
    fn full_remote_tier_eviction_is_pinned() {
        // Tiers far smaller than the hot set, so both of every replica's
        // tiers fill early and the run evicts from them on most requests.
        // The exact counters and mean energy pin the eviction order: a
        // different victim changes which later requests hit.
        let mut fe = ServiceFrontend::new(
            rtx4090(),
            datacenter_nic(),
            8,
            64,
            FaultPlan::healthy(17),
            FrontendConfig::default(),
        )
        .unwrap();
        let stream = request_stream(3000, 96, 0.7, 8192, 0.25, 23);
        assert_eq!(fe.run(&stream, TimeSpan::millis(5.0)), 3000);
        // Debug-printed f64s round-trip, so these literals are exact.
        assert_eq!(
            fe.stats(),
            FrontendStats {
                completed: 3000,
                shed: 0,
                local_hits: 113,
                remote_hits: 784,
                recomputes: 2103,
                remote_timeouts: 0,
                retries: 0,
                remote_skipped: 0,
                browned_recomputes: 0,
                degraded_recomputes: 0,
                inserts: 2103,
                inserts_replicated: 2103,
                meter_stale: 0,
                metered_energy_j: 11.964999999999854,
                true_energy_j: 11.965681338881618,
            }
        );
        assert_eq!(
            fe.mean_request_energy().as_joules().to_bits(),
            0x3f70_564f_0acc_99c9
        );
    }

    #[test]
    fn faulted_interface_predicts_brownout_run() {
        // End-to-end single-scenario version of the E9 check: serve under
        // a permanent brownout, pin the measured mixture, and the
        // fault-conditioned interface must predict the measured mean.
        let plan = FaultPlan::healthy(21).window(
            TimeSpan::ZERO,
            TimeSpan::seconds(1e9),
            Fault::GpuBrownout {
                derate: 0.45,
                sm_loss: 0.25,
            },
        );
        let mut fe = frontend(plan);
        let stream = request_stream(1500, 200, 0.6, 16384, 0.25, 42);
        fe.run(&stream, TimeSpan::millis(5.0));
        let mix = fe.stats().mixture();

        let cal = calibrate_with_state(&rtx4090(), &FaultState::healthy()).unwrap();
        let cal_br = calibrate_with_state(
            &rtx4090(),
            &FaultState {
                gpu_derate: 0.45,
                gpu_sm_loss: 0.25,
                ..FaultState::healthy()
            },
        )
        .unwrap();
        let nic_cfg = datacenter_nic();
        let iface = fig1_interface_faulted(
            &mix,
            &cal,
            &cal_br,
            &CacheEnergy::default(),
            nic_cfg.e_byte,
            nic_cfg.e_packet,
        );
        let cfg = EvalConfig {
            calibration: fig1_faulted_calibration(&cal, &cal_br),
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
            64,
            &cfg,
        )
        .unwrap();
        let predicted = dist.mean().as_joules();
        let measured = fe.mean_request_energy().as_joules();
        let rel = (predicted - measured).abs() / measured;
        assert!(
            rel < 0.10,
            "faulted interface off by {rel}: predicted {predicted}, measured {measured}"
        );
    }
}
