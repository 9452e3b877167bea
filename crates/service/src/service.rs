//! The ML-model web service of Fig. 1, end to end.
//!
//! Ground truth: requests flow through the two-tier cache; misses run the
//! CNN on the accelerator and insert the response. The service's energy
//! interface is Fig. 1's program — ECVs `request_hit` and
//! `local_cache_hit` capture the cache state, the CNN branch composes the
//! calibrated conv2d/relu/mlp leaves — and the validation harness measures
//! the true hit rates, pins them into the ECVs, and compares prediction
//! against measurement.

use ei_core::interface::{InputSpec, Interface};
use ei_core::parser::parse;
use ei_core::pretty::fmt_eil_num;
use ei_core::units::{Calibration, Energy, TimeSpan};
use ei_hw::gpu::GpuSim;
use ei_hw::nic::NicSim;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cache::{CacheEnergy, CacheOutcome, RequestCache};
use crate::cnn::{CnnCalibration, CnnModel};

/// One request to the service.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    /// Image identifier (cache key).
    pub image_id: u64,
    /// Image size in elements.
    pub image_size: u64,
    /// Number of zero elements (drives zero-skipping).
    pub image_zeros: u64,
}

/// The response length the service serves from cache (Fig. 1's
/// `max_response_len`).
pub const MAX_RESPONSE_LEN: u64 = 1024;

/// The running service with its substrates.
pub struct MlWebService {
    cache: RequestCache,
    cnn: CnnModel,
    now: TimeSpan,
    /// Per-request energies, for measurement campaigns.
    log: Vec<(CacheOutcome, Energy)>,
}

impl MlWebService {
    /// Brings the service up on the given accelerator and NIC.
    pub fn new(
        gpu: GpuSim,
        nic: NicSim,
        local_entries: usize,
        remote_entries: usize,
    ) -> Option<Self> {
        Some(MlWebService {
            cache: RequestCache::new(local_entries, remote_entries, CacheEnergy::default(), nic),
            cnn: CnnModel::new(gpu)?,
            now: TimeSpan::ZERO,
            log: Vec::new(),
        })
    }

    /// Handles one request; returns its true energy. Requests arrive
    /// `inter_arrival` apart (drives NIC state).
    pub fn handle(&mut self, req: Request, inter_arrival: TimeSpan) -> Energy {
        let mut sp = ei_telemetry::span(ei_telemetry::SpanKind::Request, "handle");
        sp.add_items(1);
        self.now += inter_arrival;
        let (outcome, mut e) = self.cache.lookup(req.image_id, MAX_RESPONSE_LEN, self.now);
        ei_telemetry::counter_add(
            match outcome {
                CacheOutcome::LocalHit => "service.requests_local_hit",
                CacheOutcome::RemoteHit => "service.requests_remote_hit",
                CacheOutcome::Miss => "service.requests_miss",
            },
            1,
        );
        if outcome == CacheOutcome::Miss {
            e += self.cnn.forward(req.image_size, req.image_zeros);
            e += self.cache.insert(req.image_id, MAX_RESPONSE_LEN);
        }
        sp.record_energy(e.as_joules());
        ei_telemetry::observe(
            "service.request_energy_j",
            &ei_telemetry::ENERGY_J,
            e.as_joules(),
        );
        self.log.push((outcome, e));
        e
    }

    /// Measured hit rates so far: `(request_hit, local_given_hit)`.
    pub fn measured_hit_rates(&self) -> (f64, f64) {
        let (l, r, m) = self.cache.counters();
        let hits = l + r;
        let total = hits + m;
        if total == 0 {
            return (0.0, 0.0);
        }
        let p_hit = hits as f64 / total as f64;
        let p_local = if hits == 0 {
            0.0
        } else {
            l as f64 / hits as f64
        };
        (p_hit, p_local)
    }

    /// Mean measured energy per request.
    pub fn mean_request_energy(&self) -> Energy {
        if self.log.is_empty() {
            return Energy::ZERO;
        }
        Energy(self.log.iter().map(|(_, e)| e.as_joules()).sum::<f64>() / self.log.len() as f64)
    }

    /// The request log.
    pub fn log(&self) -> &[(CacheOutcome, Energy)] {
        &self.log
    }

    /// Runs the calibration pass on the accelerator (before serving).
    pub fn calibrate_cnn(&mut self) -> CnnCalibration {
        self.cnn.calibrate()
    }
}

/// Builds Fig. 1's energy interface with measured constants.
///
/// `p_request_hit` / `p_local_hit` are the declared ECV probabilities;
/// `cnn` carries the device-measured leaf calibration; `cache` the cache
/// tier energies (its remote path folds in the NIC per-byte cost).
pub fn fig1_interface(
    p_request_hit: f64,
    p_local_hit: f64,
    cnn: &CnnCalibration,
    cache: &CacheEnergy,
    nic_per_byte: Energy,
    nic_fixed: Energy,
) -> Interface {
    let src = format!(
        r#"
        interface ml_webservice "Fig. 1: energy interface of the ML-model web service" {{
            unit relu;
            unit mlp;
            ecv request_hit: bernoulli({p_hit}) "request found in cache";
            ecv local_cache_hit: bernoulli({p_local}) "cache hit in current node";

            fn handle(request) "energy to handle one request" {{
                let max_response_len = {resp};
                if request_hit {{
                    return cache_lookup(request.image_id, max_response_len);
                }} else {{
                    return cnn_forward(request) + cache_insert(max_response_len);
                }}
            }}

            fn cache_lookup(key, response_len) {{
                return {lookup} J
                     + (if local_cache_hit {{ {local_pb} J }} else {{ {remote_pb} J }})
                       * response_len
                     + (if local_cache_hit {{ 0 J }} else {{ {nic_fixed} J }});
            }}

            fn cache_insert(response_len) {{
                return {local_pb} J * response_len
                     + {nic_pb} J * response_len + {nic_fixed} J;
            }}

            fn cnn_forward(request) {{
                let n_embedding = 256;
                let nonzero = max(request.image_size - request.image_zeros, 0);
                return 8 * conv2d_e(nonzero)
                     + 8 relu * (n_embedding / 256)
                     + 16 mlp * (n_embedding / 256);
            }}

            fn conv2d_e(n) "affine conv block: fixed + per-non-zero-element" {{
                return {conv_fixed} J + {conv_pe} J * n;
            }}
        }}
        "#,
        p_hit = fmt_eil_num(p_request_hit),
        p_local = fmt_eil_num(p_local_hit),
        resp = MAX_RESPONSE_LEN,
        lookup = fmt_eil_num(cache.local_lookup.as_joules()),
        local_pb = fmt_eil_num(cache.local_per_byte.as_joules()),
        remote_pb = fmt_eil_num(cache.remote_per_byte.as_joules() + nic_per_byte.as_joules()),
        nic_fixed = fmt_eil_num(nic_fixed.as_joules()),
        nic_pb = fmt_eil_num(nic_per_byte.as_joules()),
        conv_fixed = fmt_eil_num(cnn.conv_fixed.as_joules()),
        conv_pe = fmt_eil_num(cnn.conv_per_elem.as_joules()),
    );
    let mut iface = parse(&src).expect("Fig. 1 interface must parse");
    iface.set_input_spec(
        "handle",
        InputSpec::new()
            .range("request.image_id", 0.0, 1e9)
            .range("request.image_size", 256.0, 262_144.0)
            .range("request.image_zeros", 0.0, 262_144.0),
    );
    iface
}

/// Calibration for the interface's abstract units on a given device.
pub fn fig1_calibration(cnn: &CnnCalibration) -> Calibration {
    cnn.units.clone()
}

/// A request-stream generator with a controllable popularity skew.
///
/// `n_hot` hot images receive `hot_fraction` of requests; the rest are
/// one-off images (always misses until cached).
pub fn request_stream(
    n: usize,
    n_hot: u64,
    hot_fraction: f64,
    image_size: u64,
    zero_fraction: f64,
    seed: u64,
) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    let mut cold_id = 1_000_000u64;
    for _ in 0..n {
        // One popularity draw per request regardless of the branch taken,
        // so streams with the same seed stay aligned. An empty hot set
        // degenerates to all-cold (random_range(0..0) would panic).
        let hot = rng.random::<f64>() < hot_fraction;
        let image_id = if hot && n_hot > 0 {
            rng.random_range(0..n_hot)
        } else {
            cold_id += 1;
            cold_id
        };
        out.push(Request {
            image_id,
            image_size,
            image_zeros: (image_size as f64 * zero_fraction) as u64,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ei_core::ecv::EcvEnv;
    use ei_core::interp::{enumerate_exact, EvalConfig, ExecMode};
    use ei_core::value::Value;
    use ei_hw::gpu::rtx4090;
    use ei_hw::nic::datacenter_nic;

    fn service() -> MlWebService {
        MlWebService::new(
            GpuSim::new(rtx4090()),
            NicSim::new(datacenter_nic()),
            256,
            4096,
        )
        .expect("service fits")
    }

    #[test]
    fn fig1_interface_validates_against_measurement() {
        let mut svc = service();
        let cal = svc.calibrate_cnn();

        // Serve a workload with a hot set that fits the local cache.
        let stream = request_stream(2000, 200, 0.6, 16384, 0.25, 42);
        for req in &stream {
            svc.handle(*req, TimeSpan::millis(5.0));
        }
        let (p_hit, p_local) = svc.measured_hit_rates();
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
        let dist = enumerate_exact(
            &iface,
            "handle",
            std::slice::from_ref(&req),
            &EcvEnv::from_decls(&iface.ecvs),
            64,
            &cfg,
        )
        .unwrap();
        // The Fig. 1 validation must not depend on the engine: the
        // tree-walk reference has to reproduce the VM's enumerated
        // distribution exactly.
        let reference = enumerate_exact(
            &iface,
            "handle",
            std::slice::from_ref(&req),
            &EcvEnv::from_decls(&iface.ecvs),
            64,
            &EvalConfig {
                mode: ExecMode::TreeWalk,
                ..cfg.clone()
            },
        )
        .unwrap();
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
    fn interface_reveals_cache_hit_leverage() {
        // §3: the service-level interface "suggests that increasing local
        // cache hits may be a more productive way of reducing energy
        // footprint than by optimizing the ML model itself".
        let mut svc = service();
        let cal = svc.calibrate_cnn();
        let nic_cfg = datacenter_nic();
        let make = |p_hit: f64| {
            fig1_interface(
                p_hit,
                0.9,
                &cal,
                &CacheEnergy::default(),
                nic_cfg.e_byte,
                nic_cfg.e_packet,
            )
        };
        let req = Value::num_record([
            ("image_id", 1.0),
            ("image_size", 16384.0),
            ("image_zeros", 0.0),
        ]);
        let mean_at = |p: f64| {
            let iface = make(p);
            enumerate_exact(
                &iface,
                "handle",
                std::slice::from_ref(&req),
                &EcvEnv::from_decls(&iface.ecvs),
                64,
                &EvalConfig {
                    calibration: fig1_calibration(&cal),
                    ..EvalConfig::default()
                },
            )
            .unwrap()
            .mean()
        };
        let low = mean_at(0.2);
        let high = mean_at(0.8);
        // Raising the hit rate from 20 % to 80 % cuts the expected energy
        // by more than half — more leverage than any plausible model tweak.
        assert!(high.as_joules() < 0.5 * low.as_joules());
    }

    #[test]
    fn hit_rates_respond_to_popularity() {
        let mut hot = service();
        for req in request_stream(800, 50, 0.9, 4096, 0.0, 7) {
            hot.handle(req, TimeSpan::millis(1.0));
        }
        let mut cold = service();
        for req in request_stream(800, 50, 0.1, 4096, 0.0, 7) {
            cold.handle(req, TimeSpan::millis(1.0));
        }
        assert!(hot.measured_hit_rates().0 > cold.measured_hit_rates().0);
        assert!(hot.mean_request_energy() < cold.mean_request_energy());
    }

    #[test]
    fn request_stream_shapes() {
        let s = request_stream(100, 10, 1.0, 1024, 0.5, 3);
        assert_eq!(s.len(), 100);
        assert!(s.iter().all(|r| r.image_id < 10));
        assert!(s.iter().all(|r| r.image_zeros == 512));
        let s = request_stream(50, 10, 0.0, 1024, 0.0, 3);
        let mut ids: Vec<u64> = s.iter().map(|r| r.image_id).collect();
        ids.dedup();
        assert_eq!(ids.len(), 50, "cold stream never repeats");
    }

    #[test]
    fn request_stream_empty_hot_set_is_all_cold() {
        // Regression: n_hot == 0 with hot_fraction > 0 used to panic on
        // `random_range(0..0)`. An empty hot set means every request is
        // cold, whatever the popularity skew says.
        let s = request_stream(64, 0, 0.9, 1024, 0.0, 11);
        assert_eq!(s.len(), 64);
        let mut ids: Vec<u64> = s.iter().map(|r| r.image_id).collect();
        ids.dedup();
        assert_eq!(ids.len(), 64, "no hot set, so never a repeat");
    }
}
