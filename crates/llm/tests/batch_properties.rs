//! Property tests of the continuous-batching engine (E12 ground truth).

use ei_hw::gpu::{rtx4090, GpuSim};
use ei_llm::{gpt2_small, BatchConfig, BatchRequest, Gpt2Engine};
use proptest::prelude::*;

fn engine(max_batch: usize, seq_tokens: u64) -> Gpt2Engine {
    let cfg = BatchConfig::for_batch(gpt2_small(), max_batch, seq_tokens);
    Gpt2Engine::new(cfg, GpuSim::new(rtx4090())).expect("model fits in VRAM")
}

/// An arbitrary request: sometimes degenerate or oversized on purpose, so
/// the admission-control path is exercised too.
fn any_request() -> impl Strategy<Value = BatchRequest> {
    (0u64..40, 0u64..24).prop_map(|(prompt_len, gen_len)| BatchRequest {
        prompt_len,
        gen_len,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Replaying any workload on a fresh engine yields a byte-identical
    /// report: energies, durations, counters, and per-iteration traces.
    #[test]
    fn replay_is_bit_identical(workload in proptest::collection::vec(any_request(), 1..12)) {
        let serve = || engine(3, 48).run(&workload);
        let a = serve();
        let b = serve();
        prop_assert_eq!(a.energy.as_joules().to_bits(), b.energy.as_joules().to_bits());
        prop_assert_eq!(a.duration.as_seconds().to_bits(), b.duration.as_seconds().to_bits());
        prop_assert_eq!(a.counters, b.counters);
        prop_assert_eq!(a.token_latency_ns, b.token_latency_ns);
        prop_assert_eq!(a.prefill_step_ns, b.prefill_step_ns);
        prop_assert_eq!(a.decode_step_ns, b.decode_step_ns);
        prop_assert_eq!(a.steps, b.steps);
    }

    /// Serving one request through the batch loop is single-stream
    /// generation: same energy bits and same device counters for any
    /// valid request.
    #[test]
    fn batch_of_one_equals_single_stream(prompt in 1u64..48, gen in 1u64..24) {
        let rs = engine(1, 1024).generate(prompt, gen);
        let rb = engine(1, 1024).run(&[BatchRequest {
            prompt_len: prompt,
            gen_len: gen,
        }]);
        prop_assert_eq!(rb.energy.as_joules().to_bits(), rs.energy.as_joules().to_bits());
        prop_assert_eq!(rb.counters, rs.counters);
        prop_assert_eq!(rb.duration.as_seconds().to_bits(), rs.duration.as_seconds().to_bits());
        prop_assert_eq!(rb.tokens, gen);
    }

    /// Token conservation under arbitrary workloads: every request is
    /// admitted or rejected, admitted ones finish, and generated tokens
    /// are exactly the sum of admitted `gen_len`s. (The engine asserts
    /// the same internally; this pins it against arbitrary inputs, with
    /// degenerate and oversized requests mixed in.)
    #[test]
    fn tokens_are_conserved(workload in proptest::collection::vec(any_request(), 1..16)) {
        let r = engine(2, 24).run(&workload);
        prop_assert_eq!(r.submitted, workload.len() as u64);
        prop_assert_eq!(r.submitted, r.admitted + r.rejected);
        prop_assert_eq!(r.admitted, r.completed);
        // The admission bound is the whole KV pool (2 seats × 24 slots).
        let admissible: u64 = workload
            .iter()
            .filter(|q| q.prompt_len >= 1 && q.gen_len >= 1 && q.prompt_len + q.gen_len <= 48)
            .map(|q| q.gen_len)
            .sum();
        prop_assert_eq!(r.tokens, admissible);
        prop_assert_eq!(r.token_latency_ns.len() as u64, r.tokens);
    }

    /// Arrival order does not change the total token count or the
    /// completion guarantee (energy may legitimately differ: scheduling
    /// changes which kernels batch together).
    #[test]
    fn any_arrival_order_completes_all_valid_work(
        mut workload in proptest::collection::vec((1u64..12, 1u64..8), 2..8),
        rotate in 0usize..8,
    ) {
        let as_reqs = |w: &[(u64, u64)]| -> Vec<BatchRequest> {
            w.iter()
                .map(|&(prompt_len, gen_len)| BatchRequest { prompt_len, gen_len })
                .collect()
        };
        let expected: u64 = workload.iter().map(|&(_, g)| g).sum();
        let a = engine(2, 20).run(&as_reqs(&workload));
        let n = workload.len();
        workload.rotate_left(rotate % n);
        let b = engine(2, 20).run(&as_reqs(&workload));
        prop_assert_eq!(a.tokens, expected);
        prop_assert_eq!(b.tokens, expected);
        prop_assert_eq!(a.rejected, 0);
        prop_assert_eq!(b.rejected, 0);
        prop_assert_eq!(a.completed, b.completed);
    }
}
