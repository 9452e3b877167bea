//! The manually-derived energy interface for GPT-2 inference (§5).
//!
//! "We manually derived hardware energy interfaces for two GPUs, and a
//! high-level energy interface for GPT-2 inference. The latter computed
//! energy consumed in terms of static power, VRAM sector reads/writes, L2
//! sector reads/writes, L1 wavefront reads/writes, and instruction
//! executions."
//!
//! The interface mirrors the inference engine's kernel stream analytically,
//! calling into an extern `gpu_kernel(flops, logical_bytes, l2_sectors,
//! vram_sectors)` provided by a hardware energy interface (vendor-exact or
//! microbenchmark-fitted). Like any manual derivation it embeds *analytic
//! assumptions* — most importantly that the KV cache stays resident in L2
//! and that the device runs at its nominal (cold) clocks. Those assumptions
//! hold on a 72 MB-L2 part and break progressively on a 4 MB-L2 one, which
//! is exactly the 4090-vs-3070 error asymmetry of Table 1.

use ei_core::interface::{InputSpec, Interface};
use ei_core::parser::parse;

use crate::engine::LOGICAL_BYTES_PER_FLOP;
use crate::model::Gpt2Config;

/// Builds the GPT-2 inference energy interface for a model configuration.
///
/// Entry points:
/// - `e_generate(prompt_len, gen_len)` — full autoregressive generation;
/// - `e_prefill(p)`, `e_decode_step(ctx_end)` — the two phases;
/// - `e_idle(seconds)` — the idle-state special input of §3.
pub fn gpt2_interface(c: &Gpt2Config) -> Interface {
    let d = c.d_model;
    let dtype = c.dtype_bytes;
    let src = format!(
        r#"
        interface {name}_inference "energy interface for {name} autoregressive inference" {{
            extern fn gpu_kernel(flops, logical_bytes, l2_sectors, vram_sectors)
                "hardware energy interface (vendor or microbenchmark-fitted)";
            extern fn gpu_idle(seconds) "static power over a duration";

            fn e_generate(prompt_len, gen_len) "generation of gen_len tokens" {{
                let e = e_prefill(prompt_len);
                for t in 1..gen_len {{
                    e = e + e_decode_step(prompt_len + t);
                }}
                return e;
            }}

            fn e_prefill(p) "prompt ingestion plus the first generated token" {{
                return e_embed(p) + {n_layer} * e_layer(p, p) + e_lm_head();
            }}

            fn e_decode_step(ctx_end) "one decode step at context length ctx_end" {{
                return e_embed(1) + {n_layer} * e_layer(1, ctx_end) + e_lm_head();
            }}

            fn e_layer(tokens, ctx_end) "one transformer layer" {{
                return e_matmul(tokens, {w_attn}, {out_attn})
                     + e_attention(tokens, ctx_end)
                     + e_matmul(tokens, {w_proj}, {out_d})
                     + e_matmul(tokens, {w_fc}, {out_ff})
                     + e_matmul(tokens, {w_fc2}, {out_d});
            }}

            fn e_matmul(tokens, w_bytes, out_row_bytes) "x[tokens x in] . W" {{
                let flops = 2 * tokens * (w_bytes / {dtype});
                let logical = w_bytes + flops * {lbpf};
                let act = tokens * {act_row};
                let out = min(tokens * out_row_bytes, {act_buf} - act);
                let l2 = ceil(w_bytes / 32) + ceil(act / 32) + ceil(out / 32);
                // Weights stream from VRAM every pass (evict-first policy).
                let vram = ceil(w_bytes / 32);
                return gpu_kernel(flops, logical, l2, vram);
            }}

            fn e_attention(tokens, ctx_end) "causal attention over the KV cache" {{
                let first_ctx = ctx_end - tokens + 1;
                let avg_ctx = (first_ctx + ctx_end) / 2;
                let flops = tokens * 4 * avg_ctx * {d};
                let read = ctx_end * {kv_per_tok};
                let write = tokens * {kv_per_tok};
                let logical = read + flops * {lbpf};
                let l2 = ceil(read / 32) + ceil(write / 32);
                // ASSUMPTION: the KV cache stays resident in L2.
                let vram = 0;
                return gpu_kernel(flops, logical, l2, vram);
            }}

            fn e_embed(tokens) "token + position embedding gather" {{
                let bytes = tokens * {act_row};
                let flops = 2 * bytes;
                let logical = 2 * bytes;
                let l2 = ceil(bytes / 32) + ceil(min(bytes, {act_buf}) / 32);
                // ASSUMPTION: embedding rows are cache-resident.
                return gpu_kernel(flops, logical, l2, 0);
            }}

            fn e_lm_head() "last hidden state against the full vocabulary" {{
                let flops = {lm_flops};
                let logical = {wte} + flops * {lbpf};
                let logits = {logits};
                let l2 = ceil({wte} / 32) + ceil(logits / 32);
                let vram = ceil({wte} / 32) + ceil(logits / 32);
                return gpu_kernel(flops, logical, l2, vram);
            }}

            fn e_idle(seconds) "idle-state input: time with no work" {{
                return gpu_idle(seconds);
            }}
        }}
        "#,
        name = c.name.replace('-', "_"),
        n_layer = c.n_layer,
        w_attn = c.w_attn_bytes(),
        w_proj = c.w_proj_bytes(),
        w_fc = c.w_fc_bytes(),
        w_fc2 = c.w_fc2_bytes(),
        out_attn = 3 * d * dtype,
        out_d = d * dtype,
        out_ff = c.d_ff * dtype,
        act_row = d * dtype,
        act_buf = c.act_buffer_bytes(c.max_seq),
        kv_per_tok = c.kv_bytes_per_token_layer(),
        d = d,
        lbpf = LOGICAL_BYTES_PER_FLOP,
        lm_flops = c.lm_head_flops(),
        wte = c.wte_bytes(),
        logits = c.vocab * dtype,
        dtype = dtype,
    );
    let mut iface = parse(&src).expect("generated GPT-2 interface must parse");
    iface.set_input_spec(
        "e_generate",
        InputSpec::new()
            .range("prompt_len", 1.0, 256.0)
            .range("gen_len", 1.0, 200.0),
    );
    iface
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{BatchConfig, Gpt2Engine};
    use crate::model::{gpt2_medium, gpt2_small};
    use ei_core::compose::link;
    use ei_core::ecv::EcvEnv;
    use ei_core::interp::{evaluate_energy, EvalConfig};
    use ei_core::value::Value;
    use ei_hw::gpu::{rtx3070, rtx4090, GpuConfig, GpuSim};
    use ei_hw::interfaces::gpu_interface;

    /// Predicted energy via the interface linked against the vendor's exact
    /// hardware interface.
    fn predict(gpu: &GpuConfig, prompt: u64, gen: u64) -> f64 {
        let iface = link(&gpt2_interface(&gpt2_small()), &[&gpu_interface(gpu)]).unwrap();
        let cfg = EvalConfig {
            fuel: 200_000_000,
            ..EvalConfig::default()
        };
        evaluate_energy(
            &iface,
            "e_generate",
            &[Value::Num(prompt as f64), Value::Num(gen as f64)],
            &EcvEnv::new(),
            0,
            &cfg,
        )
        .unwrap()
        .as_joules()
    }

    fn truth(gpu: GpuConfig, prompt: u64, gen: u64) -> f64 {
        let model = gpt2_small();
        let cfg = BatchConfig::for_batch(model.clone(), 1, model.max_seq);
        let mut engine = Gpt2Engine::new(cfg, GpuSim::new(gpu)).unwrap();
        engine.generate(prompt, gen).energy.as_joules()
    }

    #[test]
    fn interface_parses_and_is_open() {
        let i = gpt2_interface(&gpt2_small());
        assert_eq!(i.fns().len(), 9);
        assert!(!i.is_closed());
        assert!(i.externs.contains_key("gpu_kernel"));
        let m = gpt2_interface(&gpt2_medium());
        assert!(m.name.contains("gpt2_medium"));
    }

    #[test]
    fn prediction_accurate_on_big_l2_part() {
        // With the vendor's exact coefficients the only error is the
        // analytic cache/clock model: tight on the 4090.
        let p = predict(&rtx4090(), 32, 50);
        let t = truth(rtx4090(), 32, 50);
        let rel = (p - t).abs() / t;
        assert!(rel < 0.03, "4090 rel err {rel} (pred {p}, true {t})");
    }

    #[test]
    fn prediction_degrades_on_small_l2_part() {
        let p = predict(&rtx3070(), 32, 150);
        let t = truth(rtx3070(), 32, 150);
        let rel = (p - t).abs() / t;
        let p4 = predict(&rtx4090(), 32, 150);
        let t4 = truth(rtx4090(), 32, 150);
        let rel4 = (p4 - t4).abs() / t4;
        assert!(rel > rel4, "3070 ({rel}) must be worse than 4090 ({rel4})");
        assert!(rel < 0.15, "but still in the ballpark: {rel}");
    }

    #[test]
    fn interface_underpredicts_on_throttling_part() {
        // Both missing error sources (KV spill, clock droop) increase true
        // energy, so the manual interface must *under*-predict on the 3070.
        let p = predict(&rtx3070(), 32, 150);
        let t = truth(rtx3070(), 32, 150);
        assert!(p < t);
    }

    #[test]
    fn per_phase_functions_compose_to_generate() {
        let gpu = rtx4090();
        let iface = link(&gpt2_interface(&gpt2_small()), &[&gpu_interface(&gpu)]).unwrap();
        let cfg = EvalConfig {
            fuel: 200_000_000,
            ..EvalConfig::default()
        };
        let env = EcvEnv::new();
        let full = evaluate_energy(
            &iface,
            "e_generate",
            &[Value::Num(16.0), Value::Num(4.0)],
            &env,
            0,
            &cfg,
        )
        .unwrap()
        .as_joules();
        let prefill = evaluate_energy(&iface, "e_prefill", &[Value::Num(16.0)], &env, 0, &cfg)
            .unwrap()
            .as_joules();
        let mut steps = 0.0;
        for t in 1..4u64 {
            steps += evaluate_energy(
                &iface,
                "e_decode_step",
                &[Value::Num(16.0 + t as f64)],
                &env,
                0,
                &cfg,
            )
            .unwrap()
            .as_joules();
        }
        assert!((full - (prefill + steps)).abs() < 1e-9 * full);
    }

    #[test]
    fn idle_input_matches_static_power() {
        let gpu = rtx4090();
        let iface = link(&gpt2_interface(&gpt2_small()), &[&gpu_interface(&gpu)]).unwrap();
        let e = evaluate_energy(
            &iface,
            "e_idle",
            &[Value::Num(2.0)],
            &EcvEnv::new(),
            0,
            &EvalConfig::default(),
        )
        .unwrap();
        assert!((e.as_joules() - 116.0).abs() < 1e-9);
    }

    #[test]
    fn pretty_printed_interface_is_readable() {
        let text = ei_core::pretty::print_interface(&gpt2_interface(&gpt2_small()));
        assert!(text.contains("fn e_generate(prompt_len, gen_len)"));
        assert!(text.contains("extern fn gpu_kernel"));
        // And round-trips.
        let again = ei_core::parser::parse(&text).unwrap();
        assert_eq!(again.fns().len(), 9);
    }
}
