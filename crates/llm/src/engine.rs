//! Ground-truth GPT-2 inference on the simulated GPU.
//!
//! One engine holds the model on the device and runs the exact kernel
//! stream of generation, with FLOP counts and byte footprints derived from
//! the architecture. Weights stream (evict-first), the KV cache and
//! activations are temporal: whether the KV cache actually stays resident
//! is decided by the simulated L2, not by assumption.
//!
//! The engine serves in the vLLM/Orca style: it keeps a running batch of
//! sequences and, every iteration, admits queued prompts into it, runs
//! *one* model pass over all fresh tokens (a prefill over the whole prompt
//! for just-admitted sequences, one decode token for the rest — mixed in
//! the same kernels), and retires sequences that have produced their last
//! token. Admission is gated by the per-layer KV-cache buffers: a request
//! is admitted only when a contiguous region of `prompt_len + gen_len`
//! token slots is free in every layer, queued while it could fit later,
//! and rejected when it can never fit (or the queue is full). This is the
//! ground truth of E12.
//!
//! Single-stream generation ([`Gpt2Engine::generate`]) is a batch of one:
//! the same model pass over the prompt, then once per generated token, on
//! KV slot 0. Built with `BatchConfig::for_batch(model, 1, model.max_seq)`
//! it is the "actual energy consumption" side of Table 1.
//!
//! Durations are tracked through the integer nanosecond counter, making
//! reports bit-stable on replay.

use std::collections::VecDeque;

use ei_core::units::{Energy, TimeSpan};
use ei_hw::cache::{AccessKind, BufferId, ReuseHint};
use ei_hw::gpu::{GpuCounters, GpuSim, KernelDesc};

use crate::model::Gpt2Config;

/// L1 traffic per FLOP after register/shared-memory reuse (bytes).
pub const LOGICAL_BYTES_PER_FLOP: f64 = 0.125;

/// Engine-level configuration of the batching serve loop.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchConfig {
    /// Model architecture.
    pub model: Gpt2Config,
    /// Maximum concurrent sequences in the running batch.
    pub max_batch: usize,
    /// Per-layer KV-cache capacity, in token slots shared by the batch.
    pub kv_slot_tokens: u64,
    /// Waiting-queue capacity; submissions beyond it are rejected.
    pub queue_depth: usize,
}

impl BatchConfig {
    /// A capacity sized for `max_batch` sequences of up to `seq_tokens`
    /// tokens each (the natural closed-workload shape).
    pub fn for_batch(model: Gpt2Config, max_batch: usize, seq_tokens: u64) -> Self {
        BatchConfig {
            model,
            max_batch,
            kv_slot_tokens: max_batch as u64 * seq_tokens,
            queue_depth: 1024,
        }
    }
}

/// One generation request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchRequest {
    /// Prompt tokens to prefill.
    pub prompt_len: u64,
    /// Tokens to generate (≥ 1).
    pub gen_len: u64,
}

/// What `submit` did with a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Entered the waiting queue (admission into the batch happens at the
    /// next iteration boundary where its KV reservation fits).
    Queued,
    /// Dropped: the request can never fit (degenerate or larger than the
    /// KV capacity / context window) or the queue is full.
    Rejected,
}

/// A sequence currently in the running batch.
#[derive(Debug, Clone)]
struct ActiveSeq {
    /// Submission index (stable identity for tests/traces).
    id: u64,
    prompt_len: u64,
    gen_len: u64,
    /// First token slot of this sequence's KV reservation (per layer).
    kv_slot: u64,
    /// Token slots reserved (prompt + gen).
    kv_len: u64,
    /// Tokens currently in the KV cache (0 until its prefill runs).
    ctx: u64,
    /// Tokens produced so far.
    produced: u64,
}

/// Aggregate report of a batched serve.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Requests submitted.
    pub submitted: u64,
    /// Requests admitted into the batch.
    pub admitted: u64,
    /// Requests rejected at submission.
    pub rejected: u64,
    /// Requests that produced all their tokens.
    pub completed: u64,
    /// Engine iterations executed.
    pub steps: u64,
    /// Tokens generated.
    pub tokens: u64,
    /// True total energy over the serve.
    pub energy: Energy,
    /// Busy time over the serve (from integer counter deltas).
    pub duration: TimeSpan,
    /// Device counter deltas over the serve.
    pub counters: GpuCounters,
    /// Duration of every iteration that ran at least one prefill, ns.
    pub prefill_step_ns: Vec<u64>,
    /// Duration of every pure-decode iteration, ns.
    pub decode_step_ns: Vec<u64>,
    /// Per generated token: the duration (ns) of the iteration that
    /// produced it. First tokens inherit their prefill iteration, the rest
    /// their decode iteration — the pool p50/p99 token latency is over.
    pub token_latency_ns: Vec<u64>,
}

/// Report of one single-stream generation run.
#[derive(Debug, Clone)]
pub struct GenerationReport {
    /// Prompt length.
    pub prompt_len: u64,
    /// Generated tokens.
    pub gen_len: u64,
    /// True total energy of the run.
    pub energy: Energy,
    /// Wall-clock (busy) time of the run.
    pub duration: TimeSpan,
    /// Device counters over the run.
    pub counters: GpuCounters,
    /// True energy after each generated token (cumulative), for
    /// length-sweep analyses.
    pub energy_per_token: Vec<Energy>,
}

/// GPT-2 resident on a simulated GPU, with its KV pool and serve queue.
#[derive(Debug)]
pub struct Gpt2Engine {
    config: BatchConfig,
    gpu: GpuSim,
    wte: BufferId,
    layer_weights: Vec<BufferId>,
    kv: Vec<BufferId>,
    act: BufferId,
    /// Capacity of `act`, bytes; matmul output writes are clamped to it.
    act_bytes: u64,
    logits: BufferId,
    /// Running batch, in admission order.
    active: Vec<ActiveSeq>,
    /// FIFO admission queue.
    queue: VecDeque<ActiveSeq>,
    /// Free KV regions as `(first_slot, len)`, sorted, coalesced.
    free: Vec<(u64, u64)>,
    next_id: u64,
    /// Request and token counts since the last [`Gpt2Engine::run`] began.
    submitted: u64,
    admitted: u64,
    rejected: u64,
    completed: u64,
    tokens: u64,
}

impl Gpt2Engine {
    /// Loads the model and KV pool onto a device. `None` when VRAM is
    /// insufficient, or when `max_batch` is 0: such a batch could never
    /// seat a request.
    pub fn new(config: BatchConfig, mut gpu: GpuSim) -> Option<Self> {
        if config.max_batch == 0 {
            return None;
        }
        let m = &config.model;
        let wte = gpu.alloc(m.wte_bytes())?;
        // The positional embeddings are never read, but they belong to the
        // model image: they count against VRAM and in the allocation
        // telemetry, and the buffers behind them keep their ids.
        gpu.alloc(m.wpe_bytes())?;
        let mut layer_weights = Vec::new();
        let mut kv = Vec::new();
        for _ in 0..m.n_layer {
            layer_weights.push(gpu.alloc(m.layer_weight_bytes())?);
            kv.push(gpu.alloc(config.kv_slot_tokens * m.kv_bytes_per_token_layer())?);
        }
        // Widest possible iteration: every KV slot holds a fresh token
        // (an all-prefill batch filling the pool). A fixed buffer would
        // send a full-context prefill's fc1 output past the allocation.
        let act_bytes = m.act_buffer_bytes(config.kv_slot_tokens);
        let act = gpu.alloc(act_bytes)?;
        let logits = gpu.alloc(config.max_batch as u64 * m.vocab * m.dtype_bytes)?;
        let free = vec![(0, config.kv_slot_tokens)];
        Some(Gpt2Engine {
            config,
            gpu,
            wte,
            layer_weights,
            kv,
            act,
            act_bytes,
            logits,
            active: Vec::new(),
            queue: VecDeque::new(),
            free,
            next_id: 0,
            submitted: 0,
            admitted: 0,
            rejected: 0,
            completed: 0,
            tokens: 0,
        })
    }

    /// The engine configuration.
    pub fn config(&self) -> &BatchConfig {
        &self.config
    }

    /// Access to the underlying device (for meters and counters).
    pub fn gpu(&self) -> &GpuSim {
        &self.gpu
    }

    /// Mutable access to the device (DVFS, idle periods, cache flushes).
    pub fn gpu_mut(&mut self) -> &mut GpuSim {
        &mut self.gpu
    }

    /// Sequences currently in the running batch.
    pub fn active_len(&self) -> usize {
        self.active.len()
    }

    /// Requests waiting for a KV reservation.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// True when no work remains (running batch and queue both empty).
    pub fn is_idle(&self) -> bool {
        self.active.is_empty() && self.queue.is_empty()
    }

    /// Whether `prompt_len + gen_len` tokens fit both the context window
    /// and the whole KV pool. Overflowing lengths never fit.
    fn fits(&self, prompt_len: u64, gen_len: u64) -> bool {
        prompt_len
            .checked_add(gen_len)
            .is_some_and(|t| t <= self.config.model.max_seq && t <= self.config.kv_slot_tokens)
    }

    /// One matmul over `tokens` fresh rows (batched across sequences):
    /// `x[tokens × in] · W[in × out]`.
    fn matmul(
        &mut self,
        name: &str,
        tokens: u64,
        weight: BufferId,
        w_off: u64,
        w_bytes: u64,
        out_bytes: u64,
    ) {
        let m = &self.config.model;
        let in_out = (w_bytes / m.dtype_bytes) as f64;
        let flops = 2.0 * tokens as f64 * in_out;
        let logical = w_bytes as f64 + flops * LOGICAL_BYTES_PER_FLOP;
        let act_bytes = tokens * m.d_model * m.dtype_bytes;
        let k = KernelDesc::new(name, flops, logical)
            .access(
                weight,
                w_off,
                w_bytes,
                AccessKind::Read,
                ReuseHint::Streaming,
            )
            .access(
                self.act,
                0,
                act_bytes,
                AccessKind::Read,
                ReuseHint::Temporal,
            )
            .access(
                self.act,
                act_bytes,
                out_bytes.min(self.act_bytes.saturating_sub(act_bytes)),
                AccessKind::Write,
                ReuseHint::Temporal,
            );
        self.gpu.launch(&k);
    }

    /// Attention for one sequence: `new_tokens` fresh tokens against its
    /// own KV region, context ending at `ctx_end` tokens.
    fn attention(&mut self, layer: usize, kv_slot: u64, new_tokens: u64, ctx_end: u64) {
        let m = &self.config.model;
        let kv_buf = self.kv[layer];
        let per_tok = m.kv_bytes_per_token_layer();
        let base = kv_slot * per_tok;
        // Causal attention FLOPs: each new token attends to its prefix.
        let first_ctx = ctx_end - new_tokens + 1;
        let avg_ctx = (first_ctx + ctx_end) as f64 / 2.0;
        let flops = new_tokens as f64 * 4.0 * avg_ctx * m.d_model as f64;
        let read_bytes = ctx_end * per_tok;
        let write_off = base + (ctx_end - new_tokens) * per_tok;
        let write_bytes = new_tokens * per_tok;
        let logical = read_bytes as f64 + flops * LOGICAL_BYTES_PER_FLOP;
        let k = KernelDesc::new("attention", flops, logical)
            .access(
                kv_buf,
                base,
                read_bytes,
                AccessKind::Read,
                ReuseHint::Temporal,
            )
            .access(
                kv_buf,
                write_off,
                write_bytes,
                AccessKind::Write,
                ReuseHint::Temporal,
            );
        self.gpu.launch(&k);
    }

    /// Embedding gather over all fresh tokens of the iteration.
    fn embed(&mut self, tokens: u64) {
        let m = &self.config.model;
        let bytes = tokens * m.d_model * m.dtype_bytes;
        let k = KernelDesc::new("embed", 2.0 * bytes as f64, 2.0 * bytes as f64)
            .access(self.wte, 0, bytes, AccessKind::Read, ReuseHint::Temporal)
            .access(
                self.act,
                0,
                bytes.min(self.act_bytes),
                AccessKind::Write,
                ReuseHint::Temporal,
            );
        self.gpu.launch(&k);
    }

    /// Batched LM head: one logits row per sequence in the batch.
    fn lm_head(&mut self, rows: u64) {
        let m = &self.config.model;
        let flops = rows as f64 * m.lm_head_flops();
        let w_bytes = m.wte_bytes();
        let logical = w_bytes as f64 + flops * LOGICAL_BYTES_PER_FLOP;
        let k = KernelDesc::new("lm_head", flops, logical)
            .access(self.wte, 0, w_bytes, AccessKind::Read, ReuseHint::Streaming)
            .access(
                self.logits,
                0,
                rows * m.vocab * m.dtype_bytes,
                AccessKind::Write,
                ReuseHint::Streaming,
            );
        self.gpu.launch(&k);
    }

    /// One model pass over a plan of `(kv_slot, fresh_tokens, ctx_end)`,
    /// one entry per sequence: the embedding gather and every matmul run
    /// once over all fresh tokens, attention once per sequence against its
    /// own KV region, and the LM head produces one row per sequence.
    fn forward(&mut self, plan: &[(u64, u64, u64)]) {
        let total_fresh: u64 = plan.iter().map(|&(_, fresh, _)| fresh).sum();
        self.embed(total_fresh);
        let m = self.config.model.clone();
        let d_out = |cols: u64| total_fresh * cols * m.dtype_bytes;
        for l in 0..m.n_layer as usize {
            let w = self.layer_weights[l];
            let mut off = 0;
            self.matmul(
                "qkv",
                total_fresh,
                w,
                off,
                m.w_attn_bytes(),
                d_out(3 * m.d_model),
            );
            off += m.w_attn_bytes();
            for &(kv_slot, fresh, ctx_end) in plan {
                self.attention(l, kv_slot, fresh, ctx_end);
            }
            self.matmul(
                "proj",
                total_fresh,
                w,
                off,
                m.w_proj_bytes(),
                d_out(m.d_model),
            );
            off += m.w_proj_bytes();
            self.matmul("fc1", total_fresh, w, off, m.w_fc_bytes(), d_out(m.d_ff));
            off += m.w_fc_bytes();
            self.matmul(
                "fc2",
                total_fresh,
                w,
                off,
                m.w_fc2_bytes(),
                d_out(m.d_model),
            );
        }
        self.lm_head(plan.len() as u64);
    }

    /// Autoregressive generation of one sequence: prefill `prompt_len`
    /// tokens, then generate `gen_len` tokens, on KV slot 0 of an idle
    /// engine. Returns the ground-truth report.
    ///
    /// An empty prompt is rejected: GPT-2 generation is conditioned on at
    /// least one token (HF pipelines insert a BOS token), and accepting
    /// `prompt_len == 0` would silently emit zero-token, zero-FLOP kernels
    /// through `embed(0)` and report a bogus near-zero energy. A sequence
    /// must also fit the context window and the KV pool, by the same test
    /// [`Gpt2Engine::submit`] admits requests with.
    pub fn generate(&mut self, prompt_len: u64, gen_len: u64) -> GenerationReport {
        assert!(prompt_len >= 1, "prefill needs at least one prompt token");
        assert!(gen_len >= 1, "generate at least one token");
        assert!(
            self.fits(prompt_len, gen_len),
            "sequence exceeds the model's context window or the KV pool"
        );
        assert!(
            self.is_idle(),
            "generate runs on KV slot 0 of an idle engine"
        );
        let mut sp = ei_telemetry::span(ei_telemetry::SpanKind::Generate, &self.config.model.name);
        sp.add_items(gen_len);
        ei_telemetry::counter_add("llm.generated_tokens", gen_len);
        let e0 = self.gpu.energy();
        let c0 = self.gpu.counters();

        // Prefill, ending in the first generated token.
        self.forward(&[(0, prompt_len, prompt_len)]);
        let mut energy_per_token = vec![self.gpu.energy() - e0];

        // Decode steps for the remaining tokens.
        for ctx_end in prompt_len + 1..prompt_len + gen_len {
            self.forward(&[(0, 1, ctx_end)]);
            energy_per_token.push(self.gpu.energy() - e0);
        }

        let c1 = self.gpu.counters();
        sp.record_energy((self.gpu.energy() - e0).as_joules());
        GenerationReport {
            prompt_len,
            gen_len,
            energy: self.gpu.energy() - e0,
            duration: elapsed_delta(&c1, &c0),
            counters: delta_counters(&c1, &c0),
            energy_per_token,
        }
    }

    /// Submits a request. Impossible requests (empty prompt, zero tokens,
    /// longer than the context window or the whole KV pool, overflowing
    /// lengths) are rejected immediately, as are any once the queue is
    /// full; everything else queues FIFO.
    pub fn submit(&mut self, req: BatchRequest) -> Admission {
        self.submitted += 1;
        let fits_ever =
            req.prompt_len >= 1 && req.gen_len >= 1 && self.fits(req.prompt_len, req.gen_len);
        if !fits_ever || self.queue.len() >= self.config.queue_depth {
            self.rejected += 1;
            ei_telemetry::counter_add("llm.batch.rejected", 1);
            return Admission::Rejected;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.queue.push_back(ActiveSeq {
            id,
            prompt_len: req.prompt_len,
            gen_len: req.gen_len,
            kv_slot: 0,
            kv_len: req.prompt_len + req.gen_len,
            ctx: 0,
            produced: 0,
        });
        Admission::Queued
    }

    /// Reserves a contiguous KV region (first fit); `None` when fragmented
    /// or full.
    fn reserve(&mut self, slots: u64) -> Option<u64> {
        let idx = self.free.iter().position(|&(_, len)| len >= slots)?;
        let (start, len) = self.free[idx];
        if len == slots {
            self.free.remove(idx);
        } else {
            self.free[idx] = (start + slots, len - slots);
        }
        Some(start)
    }

    /// Returns a KV region to the free list, coalescing neighbours.
    fn release(&mut self, start: u64, slots: u64) {
        let idx = self.free.partition_point(|&(s, _)| s < start);
        self.free.insert(idx, (start, slots));
        // Coalesce right then left.
        if idx + 1 < self.free.len() && self.free[idx].0 + self.free[idx].1 == self.free[idx + 1].0
        {
            self.free[idx].1 += self.free[idx + 1].1;
            self.free.remove(idx + 1);
        }
        if idx > 0 && self.free[idx - 1].0 + self.free[idx - 1].1 == self.free[idx].0 {
            self.free[idx - 1].1 += self.free[idx].1;
            self.free.remove(idx);
        }
    }

    /// Admits queued requests (FIFO, head-of-line blocking) while the
    /// batch has a seat and a contiguous KV reservation fits.
    fn admit(&mut self) {
        while self.active.len() < self.config.max_batch {
            let Some(head) = self.queue.front() else {
                break;
            };
            let slots = head.kv_len;
            let Some(start) = self.reserve(slots) else {
                break;
            };
            let mut seq = self.queue.pop_front().expect("front exists");
            seq.kv_slot = start;
            self.active.push(seq);
            self.admitted += 1;
            ei_telemetry::counter_add("llm.batch.admitted", 1);
        }
    }

    /// Runs one engine iteration: admit, then a single model pass over all
    /// fresh tokens (prefill + decode mixed), then retire finished
    /// sequences. Returns `(iteration_ns, had_prefill, tokens_produced)`,
    /// or `None` when there was nothing to run.
    pub fn step(&mut self) -> Option<(u64, bool, u64)> {
        self.admit();
        if self.active.is_empty() {
            return None;
        }
        let ns0 = self.gpu.counters().elapsed_ns;

        // Fresh-token plan per active sequence, in admission order.
        let plan: Vec<(u64, u64, u64)> = self
            .active
            .iter()
            .map(|s| {
                let fresh = if s.ctx == 0 { s.prompt_len } else { 1 };
                (s.kv_slot, fresh, s.ctx + fresh)
            })
            .collect();
        let had_prefill = self.active.iter().any(|s| s.ctx == 0);
        self.forward(&plan);

        let step_ns = self.gpu.counters().elapsed_ns - ns0;

        // Every active sequence produced one token this iteration.
        let produced = self.active.len() as u64;
        self.tokens += produced;
        ei_telemetry::counter_add("llm.batch.tokens", produced);
        let mut finished = Vec::new();
        for s in &mut self.active {
            if s.ctx == 0 {
                s.ctx = s.prompt_len;
            } else {
                s.ctx += 1;
            }
            s.produced += 1;
            if s.produced == s.gen_len {
                finished.push(s.id);
            }
        }
        for id in finished {
            let idx = self
                .active
                .iter()
                .position(|s| s.id == id)
                .expect("finished id is active");
            let seq = self.active.remove(idx);
            self.release(seq.kv_slot, seq.kv_len);
            self.completed += 1;
            ei_telemetry::counter_add("llm.batch.completed", 1);
        }
        Some((step_ns, had_prefill, produced))
    }

    /// Serves a whole workload to completion on an idle engine: submits
    /// every request, then iterates until the batch and queue drain.
    /// Returns the report of this workload alone; token conservation
    /// (`submitted == admitted + rejected`, `tokens == Σ gen_len` of
    /// admitted) is asserted.
    pub fn run(&mut self, workload: &[BatchRequest]) -> BatchReport {
        assert!(self.is_idle(), "run starts from an idle engine");
        let mut sp = ei_telemetry::span(ei_telemetry::SpanKind::Generate, "batch_serve");
        let e0 = self.gpu.energy();
        let c0 = self.gpu.counters();
        self.submitted = 0;
        self.admitted = 0;
        self.rejected = 0;
        self.completed = 0;
        self.tokens = 0;
        let mut expected_tokens = 0;
        for &req in workload {
            if self.submit(req) == Admission::Queued {
                expected_tokens += req.gen_len;
            }
        }
        let mut prefill_step_ns = Vec::new();
        let mut decode_step_ns = Vec::new();
        let mut token_latency_ns = Vec::new();
        let mut steps = 0;
        while let Some((ns, had_prefill, produced)) = self.step() {
            steps += 1;
            if had_prefill {
                prefill_step_ns.push(ns);
            } else {
                decode_step_ns.push(ns);
            }
            for _ in 0..produced {
                token_latency_ns.push(ns);
            }
        }
        assert!(self.is_idle(), "run must drain the queue");
        assert_eq!(
            self.submitted,
            self.admitted + self.rejected,
            "every request is admitted or rejected"
        );
        assert_eq!(self.admitted, self.completed, "admitted sequences finish");
        assert_eq!(self.tokens, expected_tokens, "token conservation");
        let c1 = self.gpu.counters();
        sp.add_items(self.tokens);
        sp.record_energy((self.gpu.energy() - e0).as_joules());
        BatchReport {
            submitted: self.submitted,
            admitted: self.admitted,
            rejected: self.rejected,
            completed: self.completed,
            steps,
            tokens: self.tokens,
            energy: self.gpu.energy() - e0,
            duration: elapsed_delta(&c1, &c0),
            counters: delta_counters(&c1, &c0),
            prefill_step_ns,
            decode_step_ns,
            token_latency_ns,
        }
    }
}

/// The elapsed time between two counter snapshots, derived from the exact
/// integer nanosecond counter. An f64 `as_seconds()` subtraction would
/// make the result depend on how much work the device had already
/// accumulated (the larger the running sum, the fewer mantissa bits the
/// delta keeps), so replays would not be bit-stable.
fn elapsed_delta(c1: &GpuCounters, c0: &GpuCounters) -> TimeSpan {
    TimeSpan::seconds((c1.elapsed_ns - c0.elapsed_ns) as f64 / 1e9)
}

/// Counter deltas between two snapshots; `elapsed` is reconstructed from
/// the integer nanosecond delta rather than f64 subtraction.
fn delta_counters(c1: &GpuCounters, c0: &GpuCounters) -> GpuCounters {
    GpuCounters {
        instructions: c1.instructions - c0.instructions,
        l1_wavefronts: c1.l1_wavefronts - c0.l1_wavefronts,
        l2_sectors_read: c1.l2_sectors_read - c0.l2_sectors_read,
        l2_sectors_written: c1.l2_sectors_written - c0.l2_sectors_written,
        vram_sectors_read: c1.vram_sectors_read - c0.vram_sectors_read,
        vram_sectors_written: c1.vram_sectors_written - c0.vram_sectors_written,
        elapsed: elapsed_delta(c1, c0),
        elapsed_ns: c1.elapsed_ns - c0.elapsed_ns,
        launches: c1.launches - c0.launches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::gpt2_small;
    use ei_hw::gpu::{rtx3070, rtx4090, GpuConfig};

    /// A single-stream engine: one seat, one full context window of KV.
    fn engine(cfg: GpuConfig) -> Gpt2Engine {
        let model = gpt2_small();
        let max_seq = model.max_seq;
        Gpt2Engine::new(BatchConfig::for_batch(model, 1, max_seq), GpuSim::new(cfg))
            .expect("model fits")
    }

    fn batch_engine(max_batch: usize, seq_tokens: u64) -> Gpt2Engine {
        let cfg = BatchConfig::for_batch(gpt2_small(), max_batch, seq_tokens);
        Gpt2Engine::new(cfg, GpuSim::new(rtx4090())).expect("model fits")
    }

    fn request(prompt_len: u64, gen_len: u64) -> BatchRequest {
        BatchRequest {
            prompt_len,
            gen_len,
        }
    }

    #[test]
    fn model_fits_both_gpus() {
        engine(rtx4090());
        engine(rtx3070());
    }

    #[test]
    fn generation_consumes_energy_monotonically() {
        let mut e = engine(rtx4090());
        let r = e.generate(16, 10);
        assert_eq!(r.energy_per_token.len(), 10);
        for w in r.energy_per_token.windows(2) {
            assert!(w[1] > w[0]);
        }
        assert!(r.energy.as_joules() > 0.0);
        assert_eq!(
            r.energy_per_token.last().unwrap().as_joules(),
            r.energy.as_joules()
        );
    }

    #[test]
    fn longer_generation_costs_more() {
        let mut a = engine(rtx4090());
        let ra = a.generate(16, 5);
        let mut b = engine(rtx4090());
        let rb = b.generate(16, 50);
        assert!(rb.energy.as_joules() > 5.0 * ra.energy.as_joules());
    }

    #[test]
    fn weight_streaming_dominates_vram_traffic() {
        let mut e = engine(rtx4090());
        let r = e.generate(8, 4);
        // Per decode step the full weights (170 MB + 77 MB LM head) stream
        // from VRAM; KV cache stays in the 72 MB L2.
        let per_step_sectors =
            (12 * gpt2_small().layer_weight_bytes() + gpt2_small().wte_bytes()) / 32;
        let total = r.counters.vram_sectors_read;
        assert!(
            total as f64 > 3.0 * per_step_sectors as f64,
            "expected ≥ 3.5 steps of streaming, got {total} vs {per_step_sectors}/step"
        );
    }

    #[test]
    fn kv_cache_hits_l2_on_big_part_misses_on_small() {
        // Measure VRAM reads per decode step late in generation: the 3070's
        // 4 MB L2 cannot hold the 12-layer KV cache, the 4090's 72 MB can.
        let per_step_weights =
            (12 * gpt2_small().layer_weight_bytes() + gpt2_small().wte_bytes()) / 32;
        let extra = |cfg: GpuConfig| {
            let mut e = engine(cfg);
            let r = e.generate(64, 150);
            let steps = r.gen_len as f64;
            r.counters.vram_sectors_read as f64 / steps - per_step_weights as f64
        };
        let extra_4090 = extra(rtx4090());
        let extra_3070 = extra(rtx3070());
        assert!(
            extra_3070 > extra_4090 + 1000.0,
            "3070 must spill KV to VRAM: {extra_3070} vs {extra_4090}"
        );
    }

    #[test]
    fn counters_are_deterministic() {
        let mut a = engine(rtx4090());
        let mut b = engine(rtx4090());
        let ra = a.generate(16, 8);
        let rb = b.generate(16, 8);
        assert_eq!(ra.counters, rb.counters);
        assert_eq!(ra.energy, rb.energy);
    }

    #[test]
    fn context_window_enforced() {
        let mut e = engine(rtx4090());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            e.generate(1000, 100);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn empty_prompt_is_rejected() {
        let mut e = engine(rtx4090());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            e.generate(0, 10);
        }));
        assert!(result.is_err(), "prompt_len == 0 must not silently no-op");
    }

    #[test]
    fn context_window_check_survives_adversarial_u64() {
        // prompt + gen wraps around u64: the old `prompt + gen <= max_seq`
        // would overflow to a small number and pass.
        let mut e = engine(rtx4090());
        for (p, g) in [(u64::MAX, 2), (2, u64::MAX), (u64::MAX, u64::MAX)] {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                e.generate(p, g);
            }));
            assert!(result.is_err(), "({p}, {g}) must be rejected");
        }
    }

    #[test]
    fn generation_is_bounded_by_the_kv_pool() {
        // A pool smaller than the context window bounds `generate` the
        // way it bounds `submit`.
        let mut e = batch_engine(1, 24);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            e.generate(16, 9);
        }));
        assert!(result.is_err(), "25 tokens cannot fit a 24-slot pool");
        assert_eq!(e.submit(request(16, 9)), Admission::Rejected);
        assert_eq!(e.generate(16, 8).gen_len, 8);
    }

    #[test]
    fn generate_and_run_need_an_idle_engine() {
        let mut e = engine(rtx4090());
        assert_eq!(e.submit(request(4, 4)), Admission::Queued);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            e.generate(4, 4);
        }));
        assert!(result.is_err(), "a queued request may hold KV slot 0");
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            e.run(&[request(4, 4)]);
        }));
        assert!(result.is_err(), "the report would count the queued request");
    }

    #[test]
    fn full_context_prefill_stays_in_bounds() {
        // Regression for the fixed 4 MiB activation buffer: a max-width
        // prefill (1024 tokens × (d_model + d_ff) × 2 B ≈ 7.9 MB) used to
        // write past it; the GpuSim debug bounds assert now proves the
        // resized buffer holds every kernel.
        let mut e = engine(rtx4090());
        let max = e.config().model.max_seq;
        let r = e.generate(max - 1, 1);
        assert_eq!(r.gen_len, 1);
        assert!(r.energy.as_joules() > 0.0);
    }

    #[test]
    fn report_deltas_are_prefix_independent() {
        // A device that has already accumulated a huge f64 elapsed sum must
        // report bit-identical durations for identical work. The old
        // `as_seconds()` subtraction lost mantissa bits to the prefix.
        let fresh = engine(rtx4090()).generate(16, 8);
        let mut warm = engine(rtx4090());
        warm.gpu_mut().idle(TimeSpan::seconds(1.0e7));
        let replay = warm.generate(16, 8);
        assert_eq!(
            fresh.duration.as_seconds().to_bits(),
            replay.duration.as_seconds().to_bits(),
            "duration must come from integer counter deltas"
        );
        assert_eq!(
            fresh.counters.elapsed.as_seconds().to_bits(),
            replay.counters.elapsed.as_seconds().to_bits()
        );
        assert_eq!(fresh.counters.elapsed_ns, replay.counters.elapsed_ns);
        assert_eq!(fresh.counters.launches, replay.counters.launches);
    }

    #[test]
    fn batch_of_one_matches_single_stream_generate() {
        // Serving one request through the batch loop replays the exact
        // kernel stream of `generate`: identical energies and counters.
        let r1 = engine(rtx4090()).generate(16, 8);
        let rb = engine(rtx4090()).run(&[request(16, 8)]);
        assert_eq!(
            rb.energy.as_joules().to_bits(),
            r1.energy.as_joules().to_bits()
        );
        assert_eq!(rb.counters, r1.counters);
        assert_eq!(rb.tokens, 8);
        assert_eq!(rb.steps, 8);
    }

    #[test]
    fn warm_generate_tracks_warm_run() {
        // Back-to-back calls on one engine inherit the cache state the
        // previous call left; `generate` and `run` must leave the same.
        let mut single = engine(rtx4090());
        let mut batch = engine(rtx4090());
        for (p, g) in [(1, 1), (16, 8), (3, 40), (200, 5)] {
            let rs = single.generate(p, g);
            let rb = batch.run(&[request(p, g)]);
            assert_eq!(
                rs.energy.as_joules().to_bits(),
                rb.energy.as_joules().to_bits(),
                "({p}, {g})"
            );
            assert_eq!(rs.counters, rb.counters, "({p}, {g})");
        }
    }

    #[test]
    fn each_run_reports_its_own_workload() {
        let mut e = batch_engine(2, 48);
        let first = e.run(&[request(16, 8)]);
        assert_eq!(first.tokens, 8);
        let second = e.run(&[request(3, 40), request(0, 1)]);
        assert_eq!(second.submitted, 2);
        assert_eq!(second.admitted, 1);
        assert_eq!(second.rejected, 1);
        assert_eq!(second.completed, 1);
        assert_eq!(second.tokens, 40);
    }

    #[test]
    fn zero_seat_batch_is_refused() {
        // It would queue requests that no iteration could ever seat.
        let cfg = BatchConfig {
            max_batch: 0,
            ..BatchConfig::for_batch(gpt2_small(), 1, 64)
        };
        assert!(cfg.kv_slot_tokens > 0);
        assert!(Gpt2Engine::new(cfg, GpuSim::new(rtx4090())).is_none());
    }

    #[test]
    fn batching_amortizes_energy_per_token() {
        let req = request(8, 16);
        let j_per_tok = |b: usize| {
            let mut e = batch_engine(b, 24);
            let r = e.run(&vec![req; b]);
            r.energy.as_joules() / r.tokens as f64
        };
        let b1 = j_per_tok(1);
        let b4 = j_per_tok(4);
        assert!(
            b4 < 0.5 * b1,
            "4-way batching must amortize streamed weights: {b4} vs {b1}"
        );
    }

    #[test]
    fn admission_control_queues_then_rejects() {
        // Pool of 2×24 slots, batch of 2: the third request queues; an
        // impossible request rejects immediately.
        let mut e = batch_engine(2, 24);
        let ok = request(8, 16);
        assert_eq!(e.submit(ok), Admission::Queued);
        assert_eq!(e.submit(ok), Admission::Queued);
        assert_eq!(e.submit(ok), Admission::Queued);
        e.step().unwrap();
        // Only two fit the running batch; the third waits.
        assert_eq!(e.active_len(), 2);
        assert_eq!(e.queue_len(), 1);
        assert_eq!(
            e.submit(request(100, 100)),
            Admission::Rejected,
            "larger than the KV pool"
        );
        assert_eq!(e.submit(request(0, 5)), Admission::Rejected);
        assert_eq!(
            e.submit(request(u64::MAX, 2)),
            Admission::Rejected,
            "overflowing lengths must not wrap"
        );
        while e.step().is_some() {}
        assert!(e.is_idle());
    }

    #[test]
    fn late_arrival_prefill_mixes_into_running_decode() {
        // One long sequence decodes while a second is admitted later: the
        // iteration that admits it runs prefill + decode mixed, and both
        // finish. (Queue admission happens at iteration boundaries.)
        let mut e = batch_engine(2, 64);
        e.submit(request(8, 20));
        // Run 5 decode iterations solo.
        for _ in 0..5 {
            e.step().unwrap();
        }
        e.submit(request(8, 4));
        let (_, had_prefill, produced) = e.step().unwrap();
        assert!(had_prefill, "admission iteration prefills the newcomer");
        assert_eq!(produced, 2, "newcomer and incumbent both produce");
        while e.step().is_some() {}
        assert!(e.is_idle());
    }

    #[test]
    fn kv_regions_are_recycled() {
        // Sequential waves through a pool sized for one wave: regions must
        // free and coalesce or later waves could never be admitted.
        let mut e = batch_engine(2, 12);
        let r = e.run(&[request(4, 8); 6]);
        assert_eq!(r.completed, 6);
        assert_eq!(r.rejected, 0);
        assert_eq!(r.tokens, 48);
    }

    #[test]
    fn queue_depth_rejects_overflow() {
        let mut cfg = BatchConfig::for_batch(gpt2_small(), 1, 16);
        cfg.queue_depth = 2;
        let mut e = Gpt2Engine::new(cfg, GpuSim::new(rtx4090())).unwrap();
        let req = request(4, 4);
        assert_eq!(e.submit(req), Admission::Queued);
        assert_eq!(e.submit(req), Admission::Queued);
        assert_eq!(e.submit(req), Admission::Rejected, "queue full");
    }

    #[test]
    fn report_is_bit_identical_on_replay() {
        let workload: Vec<BatchRequest> = (0..6).map(|i| request(4 + i, 6 + (i % 3))).collect();
        let run = || {
            let mut e = batch_engine(3, 40);
            e.run(&workload)
        };
        let a = run();
        let b = run();
        assert_eq!(
            a.energy.as_joules().to_bits(),
            b.energy.as_joules().to_bits()
        );
        assert_eq!(
            a.duration.as_seconds().to_bits(),
            b.duration.as_seconds().to_bits()
        );
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.token_latency_ns, b.token_latency_ns);
        assert_eq!(a.prefill_step_ns, b.prefill_step_ns);
        assert_eq!(a.decode_step_ns, b.decode_step_ns);
    }
}
