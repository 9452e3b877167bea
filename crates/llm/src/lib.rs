//! # ei-llm: GPT-2 inference workload and its energy interfaces
//!
//! The paper's §5 experiment: "we used the energy interface to predict the
//! LLM's energy consumption on autoregressive text generation for up to 200
//! tokens, and compared it to the actual energy consumption." E12 extends
//! it to continuous-batching serving. This crate provides both sides:
//!
//! - [`engine::Gpt2Engine`]: the ground truth — the exact kernel stream of
//!   GPT-2 inference executed on the simulated GPU (`ei-hw`), with the KV
//!   cache living or dying in the simulated L2. One model pass serves a
//!   continuous batch (iteration-level scheduling, KV admission control;
//!   E12) and single-stream generation, its batch of one (Table 1);
//! - [`interface::gpt2_interface`]: the manually-derived EIL energy
//!   interface, which predicts a single-stream run analytically via an
//!   extern hardware interface;
//! - [`batch_interface::gpt2_batch_interface`]: the batch-aware interface
//!   (`batch_size`, `context_len`, `gpu_freq` ECVs) predicting per-iteration
//!   energy *and* duration through a DVFS-aware hardware interface.

pub mod batch_interface;
pub mod engine;
pub mod interface;
pub mod model;

pub use batch_interface::gpt2_batch_interface;
pub use engine::{Admission, BatchConfig, BatchReport, BatchRequest, GenerationReport, Gpt2Engine};
pub use interface::gpt2_interface;
pub use model::{gpt2_medium, gpt2_small, Gpt2Config};
