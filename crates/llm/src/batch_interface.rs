//! The batch-aware energy/latency interface for GPT-2 serving (E12).
//!
//! Extends the single-stream interface of [`crate::interface`] along the
//! three configuration axes an operator actually controls:
//!
//! - `batch_size` — concurrent sequences in the running batch (fresh rows
//!   per decode iteration);
//! - `context_len` — per-sequence context length at a decode iteration;
//! - `gpu_freq` — the DVFS graphics-clock fraction granted by the device.
//!
//! All three are declared as ECVs, so an operator can pin an operating
//! point and ask for exact energy, or leave them distributed and ask for
//! expectations — exactly the workflow of §3. Every `e_*` function has a
//! `t_*` twin returning the iteration *duration* as an abstract `sec`-unit
//! result through the hardware's `gpu_time_f`, which is how the E12 Pareto
//! frontier gets its latency axis from the interface rather than from the
//! simulator.
//!
//! The hardware side is an extern pair `gpu_kernel_f` / `gpu_time_f`
//! provided either by the vendor ([`ei_hw::interfaces::gpu_interface_dvfs`]
//! — exact) or by the `ei-extract` microbenchmark campaign (fitted — what
//! E12 actually uses). Analytic assumptions mirror the single-stream
//! interface: KV cache and activations stay L2-resident, weights stream,
//! the device runs at cold clocks.

use ei_core::interface::{InputSpec, Interface};
use ei_core::parser::parse;

use crate::engine::LOGICAL_BYTES_PER_FLOP;
use crate::model::Gpt2Config;

/// Builds the batch-aware GPT-2 serving interface for a model config.
///
/// Entry points (per *iteration* of the continuous-batching engine):
/// - `e_step()` / `t_step()` — decode iteration at the ECV operating point;
/// - `e_decode_iter(batch, ctx, freq)` / `t_decode_iter` — decode iteration,
///   explicit operating point;
/// - `e_prefill_iter(batch, p, freq)` / `t_prefill_iter` — a lockstep
///   prefill iteration over `batch` prompts of `p` tokens;
/// - `e_wave(batch, p, g, freq)` / `t_wave` — a whole lockstep wave:
///   prefill plus `g - 1` decode iterations.
pub fn gpt2_batch_interface(c: &Gpt2Config) -> Interface {
    let d = c.d_model;
    let dtype = c.dtype_bytes;
    let src = format!(
        r#"
        interface {name}_batch "batch-aware energy/latency interface for {name} serving" {{
            extern fn gpu_kernel_f(flops, logical_bytes, l2_sectors, vram_sectors, freq)
                "DVFS-aware hardware energy interface (vendor or fitted)";
            extern fn gpu_time_f(flops, vram_sectors, freq)
                "DVFS-aware kernel duration, as an abstract sec-unit result";
            extern fn gpu_idle(seconds) "static power over a duration";

            ecv batch_size: discrete(1: 0.25, 2: 0.25, 4: 0.25, 8: 0.25)
                "concurrent sequences in the running batch";
            ecv context_len: uniform(1, {max_seq})
                "per-sequence context length at a decode iteration";
            ecv gpu_freq: discrete(0.5: 0.2, 0.625: 0.2, 0.75: 0.2, 0.875: 0.2, 1: 0.2)
                "graphics-clock fraction granted by DVFS";

            fn e_step() "energy of one decode iteration at the ECV operating point" {{
                return e_decode_iter(batch_size, context_len, gpu_freq);
            }}

            fn t_step() "duration of one decode iteration at the ECV operating point" {{
                return t_decode_iter(batch_size, context_len, gpu_freq);
            }}

            fn e_wave(batch, p, g, freq) "lockstep wave: prefill then g-1 decode iterations" {{
                let e = e_prefill_iter(batch, p, freq);
                for t in 1..g {{
                    e = e + e_decode_iter(batch, p + t, freq);
                }}
                return e;
            }}

            fn t_wave(batch, p, g, freq) "busy time of a lockstep wave" {{
                let t_total = t_prefill_iter(batch, p, freq);
                for t in 1..g {{
                    t_total = t_total + t_decode_iter(batch, p + t, freq);
                }}
                return t_total;
            }}

            fn e_prefill_iter(batch, p, freq) "batch prompts of p tokens prefill together" {{
                return e_embed(batch * p, freq)
                     + {n_layer} * (e_matmul(batch * p, {w_attn}, {out_attn}, freq)
                                  + batch * e_attention(p, p, freq)
                                  + e_matmul(batch * p, {w_proj}, {out_d}, freq)
                                  + e_matmul(batch * p, {w_fc}, {out_ff}, freq)
                                  + e_matmul(batch * p, {w_fc2}, {out_d}, freq))
                     + e_lm_head(batch, freq);
            }}

            fn t_prefill_iter(batch, p, freq) "duration of a lockstep prefill iteration" {{
                return t_embed(batch * p, freq)
                     + {n_layer} * (t_matmul(batch * p, {w_attn}, freq)
                                  + batch * t_attention(p, p, freq)
                                  + t_matmul(batch * p, {w_proj}, freq)
                                  + t_matmul(batch * p, {w_fc}, freq)
                                  + t_matmul(batch * p, {w_fc2}, freq))
                     + t_lm_head(batch, freq);
            }}

            fn e_decode_iter(batch, ctx, freq) "one decode token per sequence at context ctx" {{
                return e_embed(batch, freq)
                     + {n_layer} * (e_matmul(batch, {w_attn}, {out_attn}, freq)
                                  + batch * e_attention(1, ctx, freq)
                                  + e_matmul(batch, {w_proj}, {out_d}, freq)
                                  + e_matmul(batch, {w_fc}, {out_ff}, freq)
                                  + e_matmul(batch, {w_fc2}, {out_d}, freq))
                     + e_lm_head(batch, freq);
            }}

            fn t_decode_iter(batch, ctx, freq) "duration of one decode iteration" {{
                return t_embed(batch, freq)
                     + {n_layer} * (t_matmul(batch, {w_attn}, freq)
                                  + batch * t_attention(1, ctx, freq)
                                  + t_matmul(batch, {w_proj}, freq)
                                  + t_matmul(batch, {w_fc}, freq)
                                  + t_matmul(batch, {w_fc2}, freq))
                     + t_lm_head(batch, freq);
            }}

            fn e_matmul(tokens, w_bytes, out_row_bytes, freq) "x[tokens x in] . W" {{
                let flops = 2 * tokens * (w_bytes / {dtype});
                let logical = w_bytes + flops * {lbpf};
                let act = tokens * {act_row};
                let out = tokens * out_row_bytes;
                let l2 = ceil(w_bytes / 32) + ceil(act / 32) + ceil(out / 32);
                let vram = ceil(w_bytes / 32);
                return gpu_kernel_f(flops, logical, l2, vram, freq);
            }}

            fn t_matmul(tokens, w_bytes, freq) "matmul duration (weights stream)" {{
                let flops = 2 * tokens * (w_bytes / {dtype});
                return gpu_time_f(flops, ceil(w_bytes / 32), freq);
            }}

            fn e_attention(tokens, ctx_end, freq) "causal attention over one KV region" {{
                let first_ctx = ctx_end - tokens + 1;
                let avg_ctx = (first_ctx + ctx_end) / 2;
                let flops = tokens * 4 * avg_ctx * {d};
                let read = ctx_end * {kv_per_tok};
                let write = tokens * {kv_per_tok};
                let logical = read + flops * {lbpf};
                let l2 = ceil(read / 32) + ceil(write / 32);
                // ASSUMPTION: the KV cache stays resident in L2.
                return gpu_kernel_f(flops, logical, l2, 0, freq);
            }}

            fn t_attention(tokens, ctx_end, freq) "attention duration (L2-resident)" {{
                let first_ctx = ctx_end - tokens + 1;
                let avg_ctx = (first_ctx + ctx_end) / 2;
                let flops = tokens * 4 * avg_ctx * {d};
                return gpu_time_f(flops, 0, freq);
            }}

            fn e_embed(tokens, freq) "token + position embedding gather" {{
                let bytes = tokens * {act_row};
                let l2 = ceil(bytes / 32) + ceil(bytes / 32);
                return gpu_kernel_f(2 * bytes, 2 * bytes, l2, 0, freq);
            }}

            fn t_embed(tokens, freq) "embedding duration (cache-resident)" {{
                return gpu_time_f(2 * tokens * {act_row}, 0, freq);
            }}

            fn e_lm_head(rows, freq) "one logits row per live sequence" {{
                let flops = rows * {lm_flops};
                let logical = {wte} + flops * {lbpf};
                let logits = rows * {logits_row};
                let l2 = ceil({wte} / 32) + ceil(logits / 32);
                let vram = ceil({wte} / 32) + ceil(logits / 32);
                return gpu_kernel_f(flops, logical, l2, vram, freq);
            }}

            fn t_lm_head(rows, freq) "LM-head duration (weights + logits stream)" {{
                let flops = rows * {lm_flops};
                let vram = ceil({wte} / 32) + ceil(rows * {logits_row} / 32);
                return gpu_time_f(flops, vram, freq);
            }}

            fn e_idle(seconds) "idle-state input: time with no work" {{
                return gpu_idle(seconds);
            }}
        }}
        "#,
        name = c.name.replace('-', "_"),
        max_seq = c.max_seq,
        n_layer = c.n_layer,
        w_attn = c.w_attn_bytes(),
        w_proj = c.w_proj_bytes(),
        w_fc = c.w_fc_bytes(),
        w_fc2 = c.w_fc2_bytes(),
        out_attn = 3 * d * dtype,
        out_d = d * dtype,
        out_ff = c.d_ff * dtype,
        act_row = d * dtype,
        kv_per_tok = c.kv_bytes_per_token_layer(),
        d = d,
        lbpf = LOGICAL_BYTES_PER_FLOP,
        lm_flops = c.lm_head_flops(),
        wte = c.wte_bytes(),
        logits_row = c.vocab * dtype,
        dtype = dtype,
    );
    let mut iface = parse(&src).expect("generated batch interface must parse");
    let wave_spec = InputSpec::new()
        .range("batch", 1.0, 16.0)
        .range("p", 1.0, 256.0)
        .range("g", 1.0, 200.0)
        .range("freq", 0.1, 1.0);
    iface.set_input_spec("e_wave", wave_spec.clone());
    iface.set_input_spec("t_wave", wave_spec);
    iface
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{BatchConfig, BatchRequest, Gpt2Engine};
    use crate::model::{gpt2_medium, gpt2_small};
    use ei_core::compose::link;
    use ei_core::ecv::EcvEnv;
    use ei_core::interp::{evaluate_energy, EvalConfig};
    use ei_core::units::{Calibration, Energy};
    use ei_core::value::Value;
    use ei_hw::gpu::{rtx4090, GpuSim};
    use ei_hw::interfaces::gpu_interface_dvfs;

    fn linked() -> ei_core::interface::Interface {
        link(
            &gpt2_batch_interface(&gpt2_small()),
            &[&gpu_interface_dvfs(&rtx4090())],
        )
        .unwrap()
    }

    fn ecfg() -> EvalConfig {
        EvalConfig {
            fuel: 200_000_000,
            ..EvalConfig::default()
        }
    }

    fn tcfg() -> EvalConfig {
        EvalConfig {
            fuel: 200_000_000,
            calibration: Calibration::from_pairs([("sec", Energy::joules(1.0))]),
            ..EvalConfig::default()
        }
    }

    #[test]
    fn interface_parses_with_the_three_ecvs() {
        let i = gpt2_batch_interface(&gpt2_small());
        assert!(i.ecvs.contains_key("batch_size"));
        assert!(i.ecvs.contains_key("context_len"));
        assert!(i.ecvs.contains_key("gpu_freq"));
        assert!(!i.is_closed());
        let m = gpt2_batch_interface(&gpt2_medium());
        assert!(m.name.contains("gpt2_medium"));
    }

    #[test]
    fn wave_prediction_tracks_ground_truth_on_big_l2_part() {
        // Lockstep wave of 4 sequences: interface vs the batch engine on a
        // 4090 at nominal clock must agree within the Table 1 ballpark.
        let (batch, p, g) = (4u64, 16u64, 12u64);
        let iface = linked();
        let pred = evaluate_energy(
            &iface,
            "e_wave",
            &[
                Value::Num(batch as f64),
                Value::Num(p as f64),
                Value::Num(g as f64),
                Value::Num(1.0),
            ],
            &EcvEnv::new(),
            0,
            &ecfg(),
        )
        .unwrap()
        .as_joules();
        let cfg = BatchConfig::for_batch(gpt2_small(), batch as usize, p + g);
        let mut engine = Gpt2Engine::new(cfg, GpuSim::new(rtx4090())).unwrap();
        let truth = engine
            .run(&vec![
                BatchRequest {
                    prompt_len: p,
                    gen_len: g,
                };
                batch as usize
            ])
            .energy
            .as_joules();
        let rel = (pred - truth).abs() / truth;
        assert!(rel < 0.05, "rel err {rel} (pred {pred}, true {truth})");
    }

    #[test]
    fn wave_duration_tracks_ground_truth() {
        let (batch, p, g) = (4u64, 16u64, 12u64);
        let iface = linked();
        let pred_s = evaluate_energy(
            &iface,
            "t_wave",
            &[
                Value::Num(batch as f64),
                Value::Num(p as f64),
                Value::Num(g as f64),
                Value::Num(1.0),
            ],
            &EcvEnv::new(),
            0,
            &tcfg(),
        )
        .unwrap()
        .as_joules();
        let cfg = BatchConfig::for_batch(gpt2_small(), batch as usize, p + g);
        let mut engine = Gpt2Engine::new(cfg, GpuSim::new(rtx4090())).unwrap();
        let truth_s = engine
            .run(&vec![
                BatchRequest {
                    prompt_len: p,
                    gen_len: g,
                };
                batch as usize
            ])
            .duration
            .as_seconds();
        let rel = (pred_s - truth_s).abs() / truth_s;
        assert!(
            rel < 0.05,
            "rel err {rel} (pred {pred_s}s, true {truth_s}s)"
        );
    }

    #[test]
    fn pinned_ecv_step_equals_explicit_args() {
        let iface = linked();
        let mut env = EcvEnv::from_decls(&iface.ecvs);
        env.pin_num("batch_size", 4.0);
        env.pin_num("context_len", 40.0);
        env.pin_num("gpu_freq", 0.75);
        let via_ecv = evaluate_energy(&iface, "e_step", &[], &env, 7, &ecfg())
            .unwrap()
            .as_joules();
        let explicit = evaluate_energy(
            &iface,
            "e_decode_iter",
            &[Value::Num(4.0), Value::Num(40.0), Value::Num(0.75)],
            &EcvEnv::new(),
            0,
            &ecfg(),
        )
        .unwrap()
        .as_joules();
        assert_eq!(via_ecv.to_bits(), explicit.to_bits());
    }

    #[test]
    fn downclocking_cuts_decode_energy_at_equal_batch() {
        let iface = linked();
        let e = |freq: f64| {
            evaluate_energy(
                &iface,
                "e_decode_iter",
                &[Value::Num(8.0), Value::Num(40.0), Value::Num(freq)],
                &EcvEnv::new(),
                0,
                &ecfg(),
            )
            .unwrap()
            .as_joules()
        };
        // Decode is memory/floor-bound, so a lower clock saves dynamic
        // energy without stretching the iteration much.
        assert!(e(0.5) < e(1.0));
    }

    #[test]
    fn prefill_duration_is_clock_sensitive() {
        let iface = linked();
        let t = |freq: f64| {
            evaluate_energy(
                &iface,
                "t_prefill_iter",
                &[Value::Num(8.0), Value::Num(16.0), Value::Num(freq)],
                &EcvEnv::new(),
                0,
                &tcfg(),
            )
            .unwrap()
            .as_joules()
        };
        // Batched prefill is compute-bound: halving the clock must stretch
        // the iteration noticeably (this is what the SLO bound prices).
        assert!(t(0.5) > 1.3 * t(1.0), "{} vs {}", t(0.5), t(1.0));
    }

    #[test]
    fn pretty_printed_interface_round_trips() {
        let text = ei_core::pretty::print_interface(&gpt2_batch_interface(&gpt2_small()));
        assert!(text.contains("ecv batch_size"));
        let again = ei_core::parser::parse(&text).unwrap();
        assert_eq!(
            again.fns().len(),
            gpt2_batch_interface(&gpt2_small()).fns().len()
        );
    }
}
