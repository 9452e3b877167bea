//! Serializable trace snapshots and their two export formats.

use std::collections::BTreeMap;

use serde::Serialize;

use crate::hist::HistogramSnap;

/// Aggregate of all spans recorded at one path.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SpanSnap {
    /// Span path: `kind:name` segments joined by `/`.
    pub path: String,
    /// Spans closed at this path.
    pub count: u64,
    /// Smallest logical sequence number (or explicit index) seen.
    pub first_seq: u64,
    /// Largest logical sequence number (or explicit index) seen.
    pub last_seq: u64,
    /// Total energy attributed to the span, in nanojoule ticks.
    pub energy_nj: u64,
    /// Total items (samples, requests, tokens) processed.
    pub items: u64,
}

/// A full trace: counters, histograms, and the span tree, all sorted by
/// name/path and all-integer — serializing twice yields identical bytes
/// for identical workloads, at any thread count.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Snapshot {
    /// Snapshot format version.
    pub version: u32,
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Histograms, sorted by name.
    pub histograms: Vec<HistogramSnap>,
    /// Span aggregates, sorted by path.
    pub spans: Vec<SpanSnap>,
}

/// Mangles a dotted metric name into a Prometheus identifier.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 3);
    out.push_str("ei_");
    for c in name.chars() {
        out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
    }
    out
}

/// Escapes a Prometheus label value.
fn prom_label(value: &str) -> String {
    value.replace('\\', "\\\\").replace('"', "\\\"")
}

impl Snapshot {
    /// Renders the snapshot as pretty JSON (the `telemetry.json` format),
    /// with a trailing newline.
    pub fn to_json_pretty(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("snapshot serializes");
        s.push('\n');
        s
    }

    /// Renders the snapshot in the Prometheus text exposition format:
    /// counters as counters, histograms with cumulative `le` buckets,
    /// span aggregates as labelled counter families.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let n = prom_name(name);
            out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
        }
        for h in &self.histograms {
            let n = prom_name(&h.name);
            out.push_str(&format!(
                "# TYPE {n} histogram\n# UNIT {n} {}\n",
                prom_label(&h.unit)
            ));
            let mut cumulative = 0u64;
            for (bound, count) in h.bounds.iter().zip(&h.counts) {
                cumulative += count;
                out.push_str(&format!("{n}_bucket{{le=\"{bound}\"}} {cumulative}\n"));
            }
            out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!("{n}_sum {}\n{n}_count {}\n", h.sum_ticks, h.count));
        }
        if !self.spans.is_empty() {
            for family in ["count", "energy_nj", "items"] {
                out.push_str(&format!("# TYPE ei_span_{family} counter\n"));
                for s in &self.spans {
                    let v = match family {
                        "count" => s.count,
                        "energy_nj" => s.energy_nj,
                        _ => s.items,
                    };
                    out.push_str(&format!(
                        "ei_span_{family}{{path=\"{}\"}} {v}\n",
                        prom_label(&s.path)
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::{Histogram, FUEL};

    fn sample() -> Snapshot {
        let mut h = Histogram::new(&FUEL);
        h.observe_ticks(3);
        h.observe_ticks(300);
        Snapshot {
            version: 1,
            counters: [("core.cache.hits".to_string(), 7u64)]
                .into_iter()
                .collect(),
            histograms: vec![h.snapshot("core.interp.fuel_per_eval")],
            spans: vec![SpanSnap {
                path: "mc:f/mc_chunk:f".into(),
                count: 2,
                first_seq: 0,
                last_seq: 1,
                energy_nj: 42,
                items: 128,
            }],
        }
    }

    #[test]
    fn json_is_stable() {
        let s = sample();
        assert_eq!(s.to_json_pretty(), s.to_json_pretty());
        assert!(s.to_json_pretty().contains("\"core.cache.hits\": 7"));
    }

    #[test]
    fn prometheus_format_has_cumulative_buckets() {
        let text = sample().to_prometheus();
        assert!(text.contains("ei_core_cache_hits 7"));
        assert!(text.contains("ei_core_interp_fuel_per_eval_bucket{le=\"4\"} 1"));
        assert!(text.contains("ei_core_interp_fuel_per_eval_bucket{le=\"1024\"} 2"));
        assert!(text.contains("ei_core_interp_fuel_per_eval_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("ei_span_count{path=\"mc:f/mc_chunk:f\"} 2"));
        assert!(text.contains("ei_span_energy_nj{path=\"mc:f/mc_chunk:f\"} 42"));
    }
}
