//! Golden trace: the Table 1 experiment's telemetry snapshot is pinned
//! byte-for-byte.
//!
//! The differential suite proves telemetry never perturbs results; this
//! test pins the *trace itself*, so an accidental change to span paths,
//! bucket boundaries, quantization, or the logical clock shows up as an
//! exact diff against `tests/golden/telemetry_table1.json`. Regenerate
//! deliberately with `GOLDEN_BLESS=1 cargo test --test telemetry_golden`.

#[test]
fn telemetry_table1_golden_trace() {
    let session = ei_telemetry::session();
    let collecting = ei_telemetry::enabled();
    let _report = ei_bench::table1::run();
    let snap = session.finish();
    if !collecting {
        // Telemetry compiled out: there is no trace to pin.
        return;
    }
    ei_bench::golden::assert_text("telemetry_table1.json", &snap.to_json_pretty());
}
