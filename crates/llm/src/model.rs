//! GPT-2 model configurations and derived size arithmetic.
//!
//! Only the *shapes* matter for energy: parameter counts, per-layer weight
//! bytes, FLOPs per token, and KV-cache growth. We mirror the HuggingFace
//! GPT-2 family that the paper's §5 experiment uses.

use serde::{Deserialize, Serialize};

/// A GPT-2 architecture configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Gpt2Config {
    /// Config name ("gpt2", "gpt2-medium", ...).
    pub name: String,
    /// Transformer layers.
    pub n_layer: u32,
    /// Attention heads.
    pub n_head: u32,
    /// Hidden width.
    pub d_model: u64,
    /// Feed-forward width (4 × d_model for GPT-2).
    pub d_ff: u64,
    /// Vocabulary size.
    pub vocab: u64,
    /// Maximum sequence length.
    pub max_seq: u64,
    /// Bytes per parameter / activation element (2 = fp16).
    pub dtype_bytes: u64,
}

/// GPT-2 (124M), the model of the paper's Table 1.
pub fn gpt2_small() -> Gpt2Config {
    Gpt2Config {
        name: "gpt2".into(),
        n_layer: 12,
        n_head: 12,
        d_model: 768,
        d_ff: 3072,
        vocab: 50257,
        max_seq: 1024,
        dtype_bytes: 2,
    }
}

/// GPT-2 medium (355M), used by the scaling sweeps.
pub fn gpt2_medium() -> Gpt2Config {
    Gpt2Config {
        name: "gpt2-medium".into(),
        n_layer: 24,
        n_head: 16,
        d_model: 1024,
        d_ff: 4096,
        vocab: 50257,
        max_seq: 1024,
        dtype_bytes: 2,
    }
}

impl Gpt2Config {
    /// Bytes of the QKV projection weight (d × 3d).
    pub fn w_attn_bytes(&self) -> u64 {
        self.d_model * 3 * self.d_model * self.dtype_bytes
    }

    /// Bytes of the attention output projection weight (d × d).
    pub fn w_proj_bytes(&self) -> u64 {
        self.d_model * self.d_model * self.dtype_bytes
    }

    /// Bytes of the MLP up-projection weight (d × d_ff).
    pub fn w_fc_bytes(&self) -> u64 {
        self.d_model * self.d_ff * self.dtype_bytes
    }

    /// Bytes of the MLP down-projection weight (d_ff × d).
    pub fn w_fc2_bytes(&self) -> u64 {
        self.d_ff * self.d_model * self.dtype_bytes
    }

    /// Total weight bytes of one transformer layer.
    pub fn layer_weight_bytes(&self) -> u64 {
        self.w_attn_bytes() + self.w_proj_bytes() + self.w_fc_bytes() + self.w_fc2_bytes()
    }

    /// Bytes of the token-embedding matrix (also the LM head).
    pub fn wte_bytes(&self) -> u64 {
        self.vocab * self.d_model * self.dtype_bytes
    }

    /// Bytes of the positional-embedding matrix.
    pub fn wpe_bytes(&self) -> u64 {
        self.max_seq * self.d_model * self.dtype_bytes
    }

    /// KV-cache bytes per token per layer (one K row + one V row).
    pub fn kv_bytes_per_token_layer(&self) -> u64 {
        2 * self.d_model * self.dtype_bytes
    }

    /// Activation-buffer bytes needed for a step over `tokens` rows: the
    /// resident hidden states (`tokens × d_model`) plus the widest matmul
    /// output written behind them (`tokens × d_ff`, the fc1 expansion).
    /// The engine sizes its activation buffer from this at the *maximum*
    /// step width, so no kernel ever writes past the allocation.
    pub fn act_buffer_bytes(&self, tokens: u64) -> u64 {
        tokens * (self.d_model + self.d_ff) * self.dtype_bytes
    }

    /// Total parameter count (approximate; matches the 124M/355M naming).
    pub fn param_count(&self) -> u64 {
        let per_layer = self.layer_weight_bytes() / self.dtype_bytes;
        self.n_layer as u64 * per_layer
            + self.wte_bytes() / self.dtype_bytes
            + self.wpe_bytes() / self.dtype_bytes
    }

    /// FLOPs of the per-layer matmuls for a single token.
    pub fn layer_matmul_flops(&self) -> f64 {
        let d = self.d_model as f64;
        let ff = self.d_ff as f64;
        2.0 * d * 3.0 * d  // qkv
            + 2.0 * d * d  // proj
            + 2.0 * d * ff // fc1
            + 2.0 * ff * d // fc2
    }

    /// Attention FLOPs for one new token against a context of `ctx` tokens.
    pub fn attention_flops(&self, ctx: u64) -> f64 {
        // QK^T and AV, both 2 * ctx * d.
        4.0 * ctx as f64 * self.d_model as f64
    }

    /// LM-head FLOPs (hidden state × vocabulary).
    pub fn lm_head_flops(&self) -> f64 {
        2.0 * self.d_model as f64 * self.vocab as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpt2_small_is_124m() {
        let c = gpt2_small();
        let m = c.param_count() as f64 / 1e6;
        assert!((m - 124.0).abs() < 5.0, "params = {m}M");
    }

    #[test]
    fn gpt2_medium_is_355m() {
        let c = gpt2_medium();
        let m = c.param_count() as f64 / 1e6;
        assert!((m - 355.0).abs() < 15.0, "params = {m}M");
    }

    #[test]
    fn layer_weight_bytes_gpt2() {
        let c = gpt2_small();
        // 768*2304 + 768*768 + 768*3072 + 3072*768 = 7.08M params * 2 B.
        assert_eq!(c.layer_weight_bytes(), 7_077_888 * 2);
    }

    #[test]
    fn kv_cache_growth() {
        let c = gpt2_small();
        assert_eq!(c.kv_bytes_per_token_layer(), 3072);
        // 200 tokens × 12 layers ≈ 7.4 MB: fits a 72 MB L2, thrashes 4 MB.
        let kv_200 = 200 * c.kv_bytes_per_token_layer() * c.n_layer as u64;
        assert!(kv_200 > 4 << 20);
        assert!(kv_200 < 72 << 20);
    }

    #[test]
    fn flop_counts() {
        let c = gpt2_small();
        // Per-token matmul flops ≈ 2 * params-per-layer.
        let per_layer_params = (c.layer_weight_bytes() / c.dtype_bytes) as f64;
        assert!((c.layer_matmul_flops() - 2.0 * per_layer_params).abs() < 1.0);
        assert!(c.attention_flops(100) > 0.0);
        assert!((c.lm_head_flops() - 2.0 * 768.0 * 50257.0).abs() < 1.0);
    }
}
