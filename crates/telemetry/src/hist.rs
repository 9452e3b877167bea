//! Fixed-bucket histograms over integer ticks.
//!
//! Telemetry must itself be deterministic: the same workload has to
//! produce byte-identical histograms no matter how its work was
//! interleaved across threads. Floating-point accumulation is
//! order-sensitive, so histograms quantize every observation to an
//! integer number of *ticks* (e.g. nanojoules for energy, evaluation
//! steps for interpreter fuel) at record time and only ever add, min,
//! and max `u64`s afterwards — all order-independent operations. The
//! running `sum` uses wrapping addition, which is exactly associative
//! and commutative (unlike saturation), so shard merges commute.

use serde::Serialize;

/// Shape of one histogram family: its unit, the f64→tick conversion,
/// and the ascending inclusive upper bounds of each bucket (in ticks).
/// Values above the last bound land in a final overflow bucket.
#[derive(Debug)]
pub struct HistogramSpec {
    /// Tick unit, for display ("nJ", "steps", "bytes").
    pub unit: &'static str,
    /// Ticks per observed unit (1e9 when observing Joules as nJ).
    pub ticks_per_unit: f64,
    /// Ascending inclusive upper bucket bounds, in ticks.
    pub bounds: &'static [u64],
}

impl HistogramSpec {
    /// Bucket index for a tick value (`bounds.len()` = overflow bucket).
    pub fn bucket_for(&self, ticks: u64) -> usize {
        self.bounds.partition_point(|&b| b < ticks)
    }

    /// Quantizes an observation in natural units to ticks. Negative and
    /// NaN observations clamp to 0; values past `u64::MAX` ticks
    /// (including +∞) saturate into the overflow bucket.
    pub fn ticks(&self, value: f64) -> u64 {
        let t = value * self.ticks_per_unit;
        if t.is_nan() || t <= 0.0 {
            0
        } else if t >= u64::MAX as f64 {
            u64::MAX
        } else {
            t.round() as u64
        }
    }
}

/// Powers of ten from 1 to 10^15: nanojoule buckets spanning 1 nJ..1 MJ.
pub static POW10_BOUNDS: [u64; 16] = [
    1,
    10,
    100,
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
    100_000_000_000,
    1_000_000_000_000,
    10_000_000_000_000,
    100_000_000_000_000,
    1_000_000_000_000_000,
];

/// Powers of four from 1 to 4^15 (~10^9): fuel/byte-count buckets.
pub static POW4_BOUNDS: [u64; 16] = [
    1,
    4,
    16,
    64,
    256,
    1_024,
    4_096,
    16_384,
    65_536,
    262_144,
    1_048_576,
    4_194_304,
    16_777_216,
    67_108_864,
    268_435_456,
    1_073_741_824,
];

/// Energy observations in Joules, stored as nanojoule ticks.
pub static ENERGY_J: HistogramSpec = HistogramSpec {
    unit: "nJ",
    ticks_per_unit: 1e9,
    bounds: &POW10_BOUNDS,
};

/// Interpreter fuel (evaluation steps) — the logical latency metric:
/// wall time is banned from the deterministic trace, fuel is its
/// reproducible stand-in.
pub static FUEL: HistogramSpec = HistogramSpec {
    unit: "steps",
    ticks_per_unit: 1.0,
    bounds: &POW4_BOUNDS,
};

/// Byte counts (NIC transfers, GPU allocations).
pub static BYTES: HistogramSpec = HistogramSpec {
    unit: "bytes",
    ticks_per_unit: 1.0,
    bounds: &POW4_BOUNDS,
};

/// One histogram's accumulated state. `counts` has one slot per bound
/// plus the trailing overflow bucket.
#[derive(Debug, Clone)]
pub struct Histogram {
    spec: &'static HistogramSpec,
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl PartialEq for Histogram {
    fn eq(&self, other: &Self) -> bool {
        // Specs are 'static singletons: identity compares by address.
        std::ptr::eq(self.spec, other.spec)
            && self.counts == other.counts
            && self.count == other.count
            && self.sum == other.sum
            && self.min == other.min
            && self.max == other.max
    }
}

impl Eq for Histogram {}

impl Histogram {
    /// An empty histogram of the given shape.
    pub fn new(spec: &'static HistogramSpec) -> Self {
        Histogram {
            spec,
            counts: vec![0; spec.bounds.len() + 1],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The histogram's shape.
    pub fn spec(&self) -> &'static HistogramSpec {
        self.spec
    }

    /// Records one observation in natural units (e.g. Joules).
    pub fn observe(&mut self, value: f64) {
        self.observe_ticks(self.spec.ticks(value));
    }

    /// Records one observation already quantized to ticks.
    pub fn observe_ticks(&mut self, ticks: u64) {
        self.counts[self.spec.bucket_for(ticks)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(ticks);
        self.min = self.min.min(ticks);
        self.max = self.max.max(ticks);
    }

    /// Merges another shard of the same family into this one.
    ///
    /// Exactly associative and commutative: counts and totals add,
    /// extrema take min/max, all in integer arithmetic — so per-thread
    /// shards can be merged in any order (the proptest suite pins this
    /// down).
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            std::ptr::eq(self.spec, other.spec) || self.spec.bounds == other.spec.bounds,
            "merging histograms of different shapes"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed ticks (wrapping).
    pub fn sum_ticks(&self) -> u64 {
        self.sum
    }

    /// Exports the serializable snapshot under the given name.
    pub fn snapshot(&self, name: &str) -> HistogramSnap {
        HistogramSnap {
            name: name.to_string(),
            unit: self.spec.unit.to_string(),
            bounds: self.spec.bounds.to_vec(),
            counts: self.counts.clone(),
            count: self.count,
            sum_ticks: self.sum,
            min_ticks: if self.count == 0 { 0 } else { self.min },
            max_ticks: self.max,
        }
    }
}

/// Serialized form of one histogram (all-integer, hence byte-stable).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct HistogramSnap {
    /// Metric name ("core.interp.fuel_per_eval").
    pub name: String,
    /// Tick unit.
    pub unit: String,
    /// Inclusive upper bucket bounds, in ticks.
    pub bounds: Vec<u64>,
    /// Per-bucket counts (one extra trailing overflow bucket).
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed ticks (wrapping).
    pub sum_ticks: u64,
    /// Smallest observed tick value (0 when empty).
    pub min_ticks: u64,
    /// Largest observed tick value.
    pub max_ticks: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucketing_is_inclusive_upper_bound() {
        assert_eq!(ENERGY_J.bucket_for(0), 0);
        assert_eq!(ENERGY_J.bucket_for(1), 0);
        assert_eq!(ENERGY_J.bucket_for(2), 1);
        assert_eq!(ENERGY_J.bucket_for(10), 1);
        assert_eq!(ENERGY_J.bucket_for(11), 2);
        // Above the last bound: overflow bucket.
        assert_eq!(ENERGY_J.bucket_for(u64::MAX), POW10_BOUNDS.len());
    }

    #[test]
    fn quantization_rounds_and_clamps() {
        assert_eq!(ENERGY_J.ticks(2.6e-9), 3);
        assert_eq!(ENERGY_J.ticks(-1.0), 0);
        assert_eq!(ENERGY_J.ticks(f64::NAN), 0);
        assert_eq!(ENERGY_J.ticks(1e300), u64::MAX);
    }

    #[test]
    fn merge_matches_serial_observation() {
        let mut all = Histogram::new(&FUEL);
        let mut a = Histogram::new(&FUEL);
        let mut b = Histogram::new(&FUEL);
        for (i, t) in [3u64, 900, 17, 0, 65_536, 2].into_iter().enumerate() {
            all.observe_ticks(t);
            if i % 2 == 0 { &mut a } else { &mut b }.observe_ticks(t);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, all);
        // Commutes.
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ba, all);
    }
}
