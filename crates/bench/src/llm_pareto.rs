//! E12: the LLM serving energy/latency Pareto frontier, from the interface.
//!
//! The operator's question: at what batch size and GPU clock should a model
//! be served so energy per token is minimal *while a token-latency SLO
//! holds*? E12 answers it twice and checks the answers agree:
//!
//! 1. **Interface side** — the batch-aware interface
//!    ([`ei_llm::gpt2_batch_interface`]), linked against a hardware
//!    interface *fitted by the `ei-extract` microbenchmark campaign*
//!    (per-event coefficients plus the DVFS quadratic), evaluated through
//!    the compiled bytecode VM. For every swept `(model, batch, freq)`
//!    point it predicts J/token and the p50/p99 token latency of a
//!    lockstep serve, and the Pareto frontier + SLO-optimal operating
//!    point are derived from these predictions alone.
//! 2. **Simulator side** — the continuous-batching engine
//!    ([`ei_llm::Gpt2Engine`]) actually serves the same workload on the
//!    simulated, DVFS-clocked GPU, kernel by kernel.
//!
//! Every swept point must validate within 5% relative error on J/token
//! and on p50/p99 token latency — the frontier is trustworthy only if the
//! whole sweep is. The physics that makes the frontier non-trivial: decode
//! iterations are memory/floor-bound (downclocking saves dynamic energy at
//! almost no latency cost) while batched prefill is compute-bound (the p99
//! token — a first token — pays for it), so the SLO prices the clock.

use ei_core::analysis::worst_case::worst_case;
use ei_core::compose::link;
use ei_core::ecv::EcvEnv;
use ei_core::interface::{InputSpec, Interface};
use ei_core::interp::{evaluate_batch, EvalConfig};
use ei_core::units::{Calibration, Energy};
use ei_core::value::Value;
use ei_extract::microbench::{fit_dvfs_scale, fit_gpu_model};
use ei_hw::gpu::{rtx4090, GpuSim};
use ei_hw::meter::MeterConfig;
use ei_llm::{
    gpt2_batch_interface, gpt2_medium, gpt2_small, BatchConfig, BatchRequest, Gpt2Config,
    Gpt2Engine,
};
use serde::Serialize;

/// The E12 sweep shape.
#[derive(Debug, Clone)]
pub struct E12Config {
    /// Models to sweep (the depth axis).
    pub models: Vec<Gpt2Config>,
    /// Batch sizes to sweep.
    pub batches: Vec<u64>,
    /// Clock fractions to sweep; every `frac × max_clock` must land
    /// exactly on the device's supported-clock ladder.
    pub freqs: Vec<f64>,
    /// Prompt tokens per request.
    pub prompt_len: u64,
    /// Generated tokens per request.
    pub gen_len: u64,
    /// Lockstep waves served per point.
    pub waves: u64,
    /// The p99 token-latency SLO, as a multiple of the predicted p99 of
    /// the max-throughput default (largest batch at nominal clock).
    pub slo_factor: f64,
}

impl E12Config {
    /// The full sweep: two model depths × four batches × five clocks.
    pub fn full() -> E12Config {
        E12Config {
            models: vec![gpt2_small(), gpt2_medium()],
            batches: vec![1, 2, 4, 8],
            freqs: vec![0.5, 0.625, 0.75, 0.875, 1.0],
            prompt_len: 16,
            gen_len: 32,
            waves: 2,
            slo_factor: 1.8,
        }
    }

    /// The CI smoke shape: one model, four points, one wave.
    pub fn smoke() -> E12Config {
        E12Config {
            models: vec![gpt2_small()],
            batches: vec![1, 4],
            freqs: vec![0.75, 1.0],
            prompt_len: 8,
            gen_len: 8,
            waves: 1,
            slo_factor: 1.8,
        }
    }
}

/// Nearest-rank percentile, shared by the predicted and the measured
/// latency pools so the two sides are compared apples-to-apples.
pub fn percentile(pool: &[f64], q: f64) -> f64 {
    assert!(!pool.is_empty(), "empty latency pool");
    let mut xs = pool.to_vec();
    xs.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

/// One swept operating point, both sides.
#[derive(Debug, Clone, Serialize)]
pub struct PointRow {
    /// Model name.
    pub model: String,
    /// Batch size.
    pub batch: u64,
    /// Clock fraction.
    pub freq: f64,
    /// The granted clock, MHz (snapped onto the device ladder).
    pub clock_mhz: u32,
    /// Interface-predicted J/token.
    pub pred_j_per_token: f64,
    /// Simulator-measured J/token.
    pub true_j_per_token: f64,
    /// Interface-predicted p50 token latency, ms.
    pub pred_p50_ms: f64,
    /// Simulator-measured p50 token latency, ms.
    pub true_p50_ms: f64,
    /// Interface-predicted p99 token latency, ms.
    pub pred_p99_ms: f64,
    /// Simulator-measured p99 token latency, ms.
    pub true_p99_ms: f64,
    /// `100·|pred − true|/true` on J/token.
    pub j_err_pct: f64,
    /// Same, on p50.
    pub p50_err_pct: f64,
    /// Same, on p99.
    pub p99_err_pct: f64,
    /// On the predicted energy/p99 Pareto frontier of its model.
    pub on_frontier: bool,
    /// Certified lower bound on J/token at this operating point
    /// ([`ei_core::analysis::worst_case`] over the point input domain).
    pub cert_j_per_token_lo: f64,
    /// Certified upper bound on J/token.
    pub cert_j_per_token_hi: f64,
    /// Certified lower bound on the p99 token latency, ms.
    pub cert_p99_lo_ms: f64,
    /// Certified upper bound on the p99 token latency, ms.
    pub cert_p99_hi_ms: f64,
}

/// The SLO-aware operating-point choice for one model.
#[derive(Debug, Clone, Serialize)]
pub struct SloRow {
    /// Model name.
    pub model: String,
    /// The p99 bound, ms.
    pub slo_p99_ms: f64,
    /// Max-throughput default: largest batch at nominal clock.
    pub default_batch: u64,
    /// Default clock fraction (1.0).
    pub default_freq: f64,
    /// Default's measured J/token.
    pub default_j_per_token: f64,
    /// Default's measured p99, ms.
    pub default_p99_ms: f64,
    /// Chosen batch (minimum predicted J/token meeting the bound).
    pub chosen_batch: u64,
    /// Chosen clock fraction.
    pub chosen_freq: f64,
    /// Chosen point's measured J/token.
    pub chosen_j_per_token: f64,
    /// Chosen point's measured p99, ms.
    pub chosen_p99_ms: f64,
    /// `100·(default − chosen)/default` on measured J/token.
    pub savings_pct: f64,
    /// The chosen point's *measured* p99 honours the bound.
    pub meets_slo: bool,
}

/// The E12 report (golden-locked as `e12_llm.json`, archived as
/// `BENCH_llm.json` by the `llm_pareto` binary).
#[derive(Debug, Clone, Serialize)]
pub struct ParetoReport {
    /// Batch axis.
    pub batches: Vec<u64>,
    /// Clock-fraction axis.
    pub freqs: Vec<f64>,
    /// Prompt tokens per request.
    pub prompt_len: u64,
    /// Generated tokens per request.
    pub gen_len: u64,
    /// Waves per point.
    pub waves: u64,
    /// R² of the per-event coefficient fit.
    pub fit_r_squared: f64,
    /// R² of the DVFS-scale fit.
    pub dvfs_r_squared: f64,
    /// Every swept point.
    pub points: Vec<PointRow>,
    /// Predicted-frontier points across the sweep.
    pub frontier_size: u64,
    /// Worst J/token error over the sweep, %.
    pub max_j_err_pct: f64,
    /// Worst p99 error over the sweep, %.
    pub max_p99_err_pct: f64,
    /// Every swept point within the 5% budget on all three metrics.
    pub all_points_within_tol: bool,
    /// Per-model SLO optimizer rows.
    pub slo: Vec<SloRow>,
    /// Configs the SLO optimizer discarded on certified bounds alone —
    /// some other config certifiably meets the SLO at certifiably lower
    /// J/token, so these can never be optimal.
    pub cert_pruned: u64,
    /// Every point's predicted J/token and p99 lie inside its certified
    /// bounds (the certificates explain the sweep, not just decorate it).
    pub cert_bounds_contain_predictions: bool,
    /// One ground-truth point re-served bit-identically.
    pub replay_identical: bool,
}

/// Ground truth for one point: serves `waves` lockstep waves on a freshly
/// loaded, freshly clocked device.
fn serve_point(
    model: &Gpt2Config,
    batch: u64,
    freq: f64,
    cfg: &E12Config,
) -> (ei_llm::BatchReport, u32) {
    let gpu_cfg = rtx4090();
    let mut gpu = GpuSim::new(gpu_cfg.clone());
    let target = (gpu_cfg.max_clock_mhz as f64 * freq).round() as u32;
    let granted = gpu.set_clock_mhz(target);
    assert_eq!(
        granted, target,
        "swept fraction must land on the clock ladder"
    );
    let bc = BatchConfig::for_batch(model.clone(), batch as usize, cfg.prompt_len + cfg.gen_len);
    let mut engine = Gpt2Engine::new(bc, gpu).expect("model fits in VRAM");
    let req = BatchRequest {
        prompt_len: cfg.prompt_len,
        gen_len: cfg.gen_len,
    };
    let report = engine.run(&vec![req; (batch * cfg.waves) as usize]);
    assert_eq!(report.rejected, 0);
    assert_eq!(report.tokens, batch * cfg.waves * cfg.gen_len);
    (report, granted)
}

/// Interface-side prediction for one point, through the compiled VM.
struct Predicted {
    j_per_token: f64,
    p50_ms: f64,
    p99_ms: f64,
}

fn predict_point(linked: &Interface, batch: u64, freq: f64, cfg: &E12Config) -> Predicted {
    let env = EcvEnv::new();
    let e_cfg = EvalConfig {
        fuel: 400_000_000,
        ..EvalConfig::default()
    };
    let t_cfg = EvalConfig {
        calibration: Calibration::from_pairs([("sec", Energy::joules(1.0))]),
        ..e_cfg.clone()
    };
    let (b, p, f) = (batch as f64, cfg.prompt_len as f64, freq);
    let num = |xs: &[f64]| xs.iter().copied().map(Value::Num).collect::<Vec<_>>();
    let wave_j = evaluate_batch(
        linked,
        "e_wave",
        &[num(&[b, p, cfg.gen_len as f64, f])],
        &env,
        0,
        &e_cfg,
    )
    .expect("e_wave evaluates")[0]
        .as_joules();

    // The predicted token-latency pool of one wave: every sequence's first
    // token arrives with the prefill iteration, each later token with its
    // decode iteration.
    let t_eval_ms = |func: &str, argsets: &[Vec<Value>]| -> Vec<f64> {
        evaluate_batch(linked, func, argsets, &env, 0, &t_cfg)
            .expect("duration evaluates")
            .iter()
            .map(|e| e.as_joules() * 1e3)
            .collect()
    };
    let decode_argsets: Vec<Vec<Value>> = (1..cfg.gen_len)
        .map(|t| num(&[b, (cfg.prompt_len + t) as f64, f]))
        .collect();
    let mut pool_ms = Vec::new();
    for ms in t_eval_ms("t_prefill_iter", &[num(&[b, p, f])])
        .into_iter()
        .chain(t_eval_ms("t_decode_iter", &decode_argsets))
    {
        pool_ms.resize(pool_ms.len() + batch as usize, ms);
    }
    Predicted {
        j_per_token: wave_j / (batch * cfg.gen_len) as f64,
        p50_ms: percentile(&pool_ms, 0.50),
        p99_ms: percentile(&pool_ms, 0.99),
    }
}

/// Certified bounds for one operating point, from the interval-based
/// bound certifier over point input domains.
struct CertBounds {
    /// `[lo, hi]` on J/token.
    j_per_token: (f64, f64),
    /// `[lo, hi]` on the p99 token latency, ms.
    p99_ms: (f64, f64),
}

/// Certifies one `(batch, freq)` operating point of the linked interface:
/// a guaranteed J/token bound from `e_wave`, and a guaranteed p99 bound
/// from the iteration-duration functions. The p99 token of a lockstep
/// wave is (up to nearest-rank ties) its slowest iteration, so it is
/// bounded above by the larger of the prefill and decode upper bounds and
/// below by the smaller of their lower bounds.
fn certify_point(linked: &Interface, batch: u64, freq: f64, cfg: &E12Config) -> CertBounds {
    let b = batch as f64;
    let p = cfg.prompt_len as f64;
    let g = cfg.gen_len as f64;
    let espec = InputSpec::new()
        .range("batch", b, b)
        .range("p", p, p)
        .range("g", g, g)
        .range("freq", freq, freq);
    let e = worst_case(linked, "e_wave", &espec, &Calibration::empty())
        .expect("e_wave certifies at a point domain");
    let toks = (batch * cfg.gen_len) as f64;

    let sec = Calibration::from_pairs([("sec", Energy::joules(1.0))]);
    let pspec = InputSpec::new()
        .range("batch", b, b)
        .range("p", p, p)
        .range("freq", freq, freq);
    let pre = worst_case(linked, "t_prefill_iter", &pspec, &sec)
        .expect("t_prefill_iter certifies at a point domain");
    let (mut lat_lo, mut lat_hi) = (pre.lower.as_joules(), pre.upper.as_joules());
    if cfg.gen_len > 1 {
        // One decode bound covers every swept context length at once.
        let dspec = InputSpec::new()
            .range("batch", b, b)
            .range("ctx", p + 1.0, p + g - 1.0)
            .range("freq", freq, freq);
        let dec = worst_case(linked, "t_decode_iter", &dspec, &sec)
            .expect("t_decode_iter certifies over the context range");
        lat_lo = lat_lo.min(dec.lower.as_joules());
        lat_hi = lat_hi.max(dec.upper.as_joules());
    }
    CertBounds {
        j_per_token: (e.lower.as_joules() / toks, e.upper.as_joules() / toks),
        p99_ms: (lat_lo * 1e3, lat_hi * 1e3),
    }
}

/// Marks the predicted Pareto frontier (min J/token vs min p99) within
/// each model's sweep: a point is dominated if another point of the same
/// model is no worse on both axes and better on one.
fn mark_frontier(points: &mut [PointRow]) {
    for i in 0..points.len() {
        let dominated = points.iter().enumerate().any(|(j, q)| {
            j != i
                && q.model == points[i].model
                && q.pred_j_per_token <= points[i].pred_j_per_token
                && q.pred_p99_ms <= points[i].pred_p99_ms
                && (q.pred_j_per_token < points[i].pred_j_per_token
                    || q.pred_p99_ms < points[i].pred_p99_ms)
        });
        points[i].on_frontier = !dominated;
    }
}

/// Runs E12 for one sweep shape.
pub fn run_with(cfg: &E12Config) -> ParetoReport {
    let _sp = ei_telemetry::span(ei_telemetry::SpanKind::Experiment, "e12_llm_pareto");
    let gpu_cfg = rtx4090();

    // The extraction campaign: per-event coefficients, then the DVFS
    // quadratic, both through the counter-exact meter (the Nsight-style
    // campaign of §5; Table 1 exercises the noisy-NVML variant).
    let (model_fit, _) =
        fit_gpu_model(&gpu_cfg, MeterConfig::ideal()).expect("microbench campaign");
    let dvfs = fit_dvfs_scale(&gpu_cfg, &model_fit, MeterConfig::ideal()).expect("DVFS campaign");
    let hw = model_fit.to_interface_dvfs(&dvfs, &gpu_cfg);

    let mut points = Vec::new();
    for model in &cfg.models {
        let linked = link(&gpt2_batch_interface(model), &[&hw]).expect("interfaces link");
        for &batch in &cfg.batches {
            for &freq in &cfg.freqs {
                let pred = predict_point(&linked, batch, freq, cfg);
                let cert = certify_point(&linked, batch, freq, cfg);
                let (truth, clock_mhz) = serve_point(model, batch, freq, cfg);
                let true_j_per_token = truth.energy.as_joules() / truth.tokens as f64;
                let true_pool_ms: Vec<f64> = truth
                    .token_latency_ns
                    .iter()
                    .map(|&ns| ns as f64 / 1e6)
                    .collect();
                let true_p50_ms = percentile(&true_pool_ms, 0.50);
                let true_p99_ms = percentile(&true_pool_ms, 0.99);
                let err = |p: f64, t: f64| 100.0 * ((p - t) / t).abs();
                points.push(PointRow {
                    model: model.name.clone(),
                    batch,
                    freq,
                    clock_mhz,
                    pred_j_per_token: pred.j_per_token,
                    true_j_per_token,
                    pred_p50_ms: pred.p50_ms,
                    true_p50_ms,
                    pred_p99_ms: pred.p99_ms,
                    true_p99_ms,
                    j_err_pct: err(pred.j_per_token, true_j_per_token),
                    p50_err_pct: err(pred.p50_ms, true_p50_ms),
                    p99_err_pct: err(pred.p99_ms, true_p99_ms),
                    on_frontier: false,
                    cert_j_per_token_lo: cert.j_per_token.0,
                    cert_j_per_token_hi: cert.j_per_token.1,
                    cert_p99_lo_ms: cert.p99_ms.0,
                    cert_p99_hi_ms: cert.p99_ms.1,
                });
            }
        }
    }
    mark_frontier(&mut points);

    // The SLO optimizer works on *predictions* (the interface is all an
    // operator would have); its choice is then judged on measurements.
    let max_batch = *cfg.batches.iter().max().expect("non-empty batch axis");
    let mut slo = Vec::new();
    let mut cert_pruned = 0u64;
    for model in &cfg.models {
        let of_model: Vec<&PointRow> = points.iter().filter(|p| p.model == model.name).collect();
        let default = of_model
            .iter()
            .find(|p| p.batch == max_batch && p.freq == 1.0)
            .expect("default point swept");
        let slo_p99_ms = cfg.slo_factor * default.pred_p99_ms;
        // Certified pruning: a config whose certified *lower* J/token is
        // above another config's certified *upper* — where that other
        // config certifiably meets the SLO — can never be the optimum,
        // whatever the predictions say. The scan below never has to look
        // at it. (Bounds contain predictions, so pruning cannot change
        // the choice — it removes work, not information.)
        let dominated = |p: &PointRow| {
            of_model.iter().any(|q| {
                q.cert_j_per_token_hi < p.cert_j_per_token_lo && q.cert_p99_hi_ms <= slo_p99_ms
            })
        };
        cert_pruned += of_model.iter().filter(|p| dominated(p)).count() as u64;
        let chosen = of_model
            .iter()
            .filter(|p| p.pred_p99_ms <= slo_p99_ms && !dominated(p))
            .min_by(|a, b| {
                a.pred_j_per_token
                    .partial_cmp(&b.pred_j_per_token)
                    .expect("finite predictions")
            })
            .expect("the default itself meets the bound");
        slo.push(SloRow {
            model: model.name.clone(),
            slo_p99_ms,
            default_batch: default.batch,
            default_freq: default.freq,
            default_j_per_token: default.true_j_per_token,
            default_p99_ms: default.true_p99_ms,
            chosen_batch: chosen.batch,
            chosen_freq: chosen.freq,
            chosen_j_per_token: chosen.true_j_per_token,
            chosen_p99_ms: chosen.true_p99_ms,
            savings_pct: 100.0 * (default.true_j_per_token - chosen.true_j_per_token)
                / default.true_j_per_token,
            meets_slo: chosen.true_p99_ms <= slo_p99_ms,
        });
    }

    // Replay: the first swept point re-served on a fresh device must be
    // bit-identical (energy, duration, and the whole latency trace).
    let (model0, &batch0, &freq0) = (&cfg.models[0], &cfg.batches[0], &cfg.freqs[0]);
    let (a, _) = serve_point(model0, batch0, freq0, cfg);
    let (b, _) = serve_point(model0, batch0, freq0, cfg);
    let replay_identical = a.energy.as_joules().to_bits() == b.energy.as_joules().to_bits()
        && a.duration.as_seconds().to_bits() == b.duration.as_seconds().to_bits()
        && a.token_latency_ns == b.token_latency_ns
        && a.counters == b.counters;

    let cert_bounds_contain_predictions = points.iter().all(|p| {
        p.pred_j_per_token >= p.cert_j_per_token_lo
            && p.pred_j_per_token <= p.cert_j_per_token_hi
            && p.pred_p99_ms >= p.cert_p99_lo_ms
            && p.pred_p99_ms <= p.cert_p99_hi_ms
    });

    let max_j_err_pct = points.iter().map(|p| p.j_err_pct).fold(0.0, f64::max);
    let max_p99_err_pct = points.iter().map(|p| p.p99_err_pct).fold(0.0, f64::max);
    let all_points_within_tol = points
        .iter()
        .all(|p| p.j_err_pct <= 5.0 && p.p50_err_pct <= 5.0 && p.p99_err_pct <= 5.0);

    ParetoReport {
        batches: cfg.batches.clone(),
        freqs: cfg.freqs.clone(),
        prompt_len: cfg.prompt_len,
        gen_len: cfg.gen_len,
        waves: cfg.waves,
        fit_r_squared: model_fit.r_squared,
        dvfs_r_squared: dvfs.r_squared,
        frontier_size: points.iter().filter(|p| p.on_frontier).count() as u64,
        max_j_err_pct,
        max_p99_err_pct,
        all_points_within_tol,
        points,
        slo,
        cert_pruned,
        cert_bounds_contain_predictions,
        replay_identical,
    }
}

/// Runs E12 at the full shape.
pub fn run() -> ParetoReport {
    run_with(&E12Config::full())
}

/// Renders the E12 report as the experiment table.
pub fn render(r: &ParetoReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "E12: LLM serving Pareto frontier — P={} G={} waves={} | fit R²={:.6} DVFS R²={:.6}\n\n",
        r.prompt_len, r.gen_len, r.waves, r.fit_r_squared, r.dvfs_r_squared
    ));
    out.push_str(
        "model        B  freq   MHz   J/tok(pred)  J/tok(true)  err%  p99ms(pred)  p99ms(true)  err%  front\n",
    );
    out.push_str(
        "----------------------------------------------------------------------------------------------------\n",
    );
    for p in &r.points {
        out.push_str(&format!(
            "{:<11} {:>2} {:>5.3} {:>5}   {:>10.5}  {:>10.5}  {:>4.1}   {:>10.4}  {:>10.4}  {:>4.1}  {}\n",
            p.model,
            p.batch,
            p.freq,
            p.clock_mhz,
            p.pred_j_per_token,
            p.true_j_per_token,
            p.j_err_pct,
            p.pred_p99_ms,
            p.true_p99_ms,
            p.p99_err_pct,
            if p.on_frontier { "*" } else { "" },
        ));
    }
    out.push_str(&format!(
        "\nFrontier: {} of {} points.  Worst error: {:.2}% (J/tok), {:.2}% (p99).  All ≤5%: {}.\n",
        r.frontier_size,
        r.points.len(),
        r.max_j_err_pct,
        r.max_p99_err_pct,
        r.all_points_within_tol
    ));
    for s in &r.slo {
        out.push_str(&format!(
            "SLO {}: p99 ≤ {:.3} ms → B={} f={:.3} at {:.5} J/tok \
             (default B={} f={:.1}: {:.5} J/tok) — saves {:.1}%, meets SLO: {}\n",
            s.model,
            s.slo_p99_ms,
            s.chosen_batch,
            s.chosen_freq,
            s.chosen_j_per_token,
            s.default_batch,
            s.default_freq,
            s.default_j_per_token,
            s.savings_pct,
            s.meets_slo,
        ));
    }
    out.push_str(&format!(
        "Certified bounds contain all predictions: {}; SLO configs pruned by certificate: {}.\n",
        r.cert_bounds_contain_predictions, r.cert_pruned
    ));
    out.push_str(&format!(
        "Ground-truth replay bit-identical: {}.\n",
        r.replay_identical
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let pool = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile(&pool, 0.50), 5.0);
        assert_eq!(percentile(&pool, 0.99), 10.0);
        assert_eq!(percentile(&pool, 0.10), 1.0);
        assert_eq!(percentile(&[42.0], 0.99), 42.0);
    }

    #[test]
    fn smoke_report_meets_the_acceptance_criteria() {
        let r = run_with(&E12Config::smoke());
        eprintln!("{}", render(&r));
        assert_eq!(r.points.len(), 4);
        assert!(
            r.all_points_within_tol,
            "worst errors: {:.2}% J/tok, {:.2}% p99",
            r.max_j_err_pct, r.max_p99_err_pct
        );
        assert!(r.frontier_size >= 1);
        assert!(r.replay_identical);
        assert!(
            r.cert_bounds_contain_predictions,
            "a prediction escaped its certified bound"
        );
        for s in &r.slo {
            assert!(s.meets_slo, "{}: chosen point violates its SLO", s.model);
            assert!(
                s.savings_pct >= 0.0,
                "{}: optimizer must not lose to the default",
                s.model
            );
        }
        // Physics sanity on the smoke sweep: at equal batch, downclocking
        // cuts J/token (decode is memory/floor-bound)...
        let jt = |b: u64, f: f64| {
            r.points
                .iter()
                .find(|p| p.batch == b && p.freq == f)
                .unwrap()
                .true_j_per_token
        };
        assert!(jt(4, 0.75) < jt(4, 1.0));
        // ...and batching amortizes the streamed weights.
        assert!(jt(4, 1.0) < 0.5 * jt(1, 1.0));
    }

    #[test]
    fn slo_optimizer_beats_the_default_at_full_scale_axes() {
        // A medium-cost variant of the full sweep (one model, all freqs)
        // to pin the headline claim: the optimizer finds a downclocked
        // point that meets the SLO and saves energy over max-throughput.
        let cfg = E12Config {
            models: vec![gpt2_small()],
            ..E12Config::full()
        };
        let r = run_with(&cfg);
        eprintln!("{}", render(&r));
        assert!(r.all_points_within_tol, "worst: {:.2}%", r.max_j_err_pct);
        let s = &r.slo[0];
        assert!(s.meets_slo);
        assert!(
            s.savings_pct > 5.0,
            "downclocked serving must beat the default by a real margin: {:.2}%",
            s.savings_pct
        );
        assert!(s.chosen_freq < 1.0, "the win comes from the DVFS axis");
        assert!(r.cert_bounds_contain_predictions);
        // Twenty configs on one model with tight point-domain bounds:
        // the certificates alone must rule out a real share of them.
        assert!(
            r.cert_pruned >= 5,
            "certified pruning should discard dominated configs, pruned {}",
            r.cert_pruned
        );
    }
}
