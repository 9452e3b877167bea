//! Property tests for the telemetry layer's determinism claims.
//!
//! The trace is byte-stable across thread counts because every aggregate
//! operation is order-free integer arithmetic. That reduces to three
//! properties, pinned down here over random inputs:
//!
//! 1. histogram merge is associative and commutative (exactly — wrapping
//!    adds and min/max, no floats);
//! 2. bucket counts are identical no matter how observations are
//!    interleaved across shards;
//! 3. counter totals equal the sum of per-thread contributions.

use proptest::prelude::*;

use ei_telemetry::{counter_add, session, Histogram, FUEL};

/// Observes each tick value into a fresh histogram.
fn hist_of(ticks: &[u64]) -> Histogram {
    let mut h = Histogram::new(&FUEL);
    for &t in ticks {
        h.observe_ticks(t);
    }
    h
}

fn merged(a: &Histogram, b: &Histogram) -> Histogram {
    let mut out = a.clone();
    out.merge(b);
    out
}

proptest! {
    #[test]
    fn histogram_merge_is_commutative(
        a in proptest::collection::vec(any::<u64>(), 0..40),
        b in proptest::collection::vec(any::<u64>(), 0..40),
    ) {
        let (ha, hb) = (hist_of(&a), hist_of(&b));
        prop_assert_eq!(merged(&ha, &hb), merged(&hb, &ha));
    }

    #[test]
    fn histogram_merge_is_associative(
        a in proptest::collection::vec(any::<u64>(), 0..30),
        b in proptest::collection::vec(any::<u64>(), 0..30),
        c in proptest::collection::vec(any::<u64>(), 0..30),
    ) {
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));
        prop_assert_eq!(
            merged(&merged(&ha, &hb), &hc),
            merged(&ha, &merged(&hb, &hc))
        );
    }

    /// Sharding a stream of observations arbitrarily and merging the
    /// shards in any order reproduces the serial histogram exactly —
    /// the property that makes per-thread sinks safe.
    #[test]
    fn bucket_counts_deterministic_under_interleaving(
        obs in proptest::collection::vec((any::<u64>(), 0usize..4), 1..80),
        merge_right_to_left in any::<bool>(),
    ) {
        let serial = hist_of(&obs.iter().map(|&(t, _)| t).collect::<Vec<_>>());

        let mut shards = vec![Histogram::new(&FUEL); 4];
        for &(t, shard) in &obs {
            shards[shard].observe_ticks(t);
        }
        if merge_right_to_left {
            shards.reverse();
        }
        let mut combined = Histogram::new(&FUEL);
        for s in &shards {
            combined.merge(s);
        }
        prop_assert_eq!(combined, serial);
    }

    /// Counters flushed from concurrently-recording threads sum to
    /// exactly the per-thread totals, whatever the flush order.
    #[test]
    fn counter_total_is_sum_of_per_thread_contributions(
        per_thread in proptest::collection::vec(
            proptest::collection::vec(1u64..1000, 0..20), 1..6),
    ) {
        let s = session();
        let collecting = ei_telemetry::enabled();
        let tag = ei_telemetry::session_tag();
        std::thread::scope(|scope| {
            for adds in &per_thread {
                scope.spawn(move || {
                    // Workers record only for a session they adopted.
                    ei_telemetry::adopt(tag);
                    for &n in adds {
                        counter_add("test.prop_total", n);
                    }
                    // Scope join does not wait for TLS destructors, so
                    // worker closures flush explicitly (see sink docs).
                    ei_telemetry::flush();
                });
            }
        });
        let snap = s.finish();
        let expected: u64 = per_thread.iter().flatten().sum();
        if collecting {
            prop_assert_eq!(
                snap.counters.get("test.prop_total").copied().unwrap_or(0),
                expected
            );
        } else {
            prop_assert!(snap.counters.is_empty());
        }
    }
}
