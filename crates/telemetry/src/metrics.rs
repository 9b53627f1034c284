//! Mergeable, deterministic metrics: counters, high-water gauges and
//! log-linear histograms.
//!
//! Everything here is integer arithmetic over [`BTreeMap`]s, so two
//! registries fed the same values — in any interleaving, on any number
//! of threads, merged in any association — are **bit-identical**. That
//! is the property the serving stack's digest discipline needs: a
//! histogram is as diffable as a results digest.

use std::collections::BTreeMap;

use crate::{fnv1a_64, Json};

/// Values below this are their own bucket (exact ticks).
const LINEAR_MAX: u64 = 128;
/// Sub-bucket resolution above the linear range: 2^6 = 64 buckets per
/// octave, bounding relative error by 1/64.
const SUB_BITS: u64 = 6;

/// Bucket index for a recorded value.
///
/// Values `< 128` map to themselves (exact-tick buckets, so the small
/// latencies the virtual clock actually distinguishes are never
/// coarsened). Larger values use a log-linear scheme: 64 sub-buckets
/// per power of two, giving a worst-case relative error of `1/64`.
fn bucket_index(value: u64) -> u64 {
    if value < LINEAR_MAX {
        return value;
    }
    let msb = 63 - u64::from(value.leading_zeros());
    let shift = msb - SUB_BITS;
    let mantissa = value >> shift; // in [64, 128)
    (shift << SUB_BITS) + mantissa
}

/// Smallest value mapping to `index` — the canonical representative
/// reported by [`Histogram::percentile`] and [`Histogram::max`].
fn bucket_floor(index: u64) -> u64 {
    if index < LINEAR_MAX {
        return index;
    }
    let shift = (index >> SUB_BITS) - 1;
    let mantissa = index - (shift << SUB_BITS);
    mantissa << shift
}

/// A log-linear histogram over `u64` samples (virtual-time ticks).
///
/// * **exact-tick buckets** below 128; `1/64` relative resolution above;
/// * **deterministic merge**: bucket counts add, so merge is exactly
///   associative and commutative (pinned by proptest);
/// * **`percentile()` consistent with `report::percentile`**: the same
///   nearest-rank rule, answering the bucket floor — i.e. exactly what
///   `report::percentile` returns over the floor-quantized samples.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Sparse bucket counts, keyed by bucket index. A `BTreeMap` keeps
    /// iteration (and therefore digests and JSON) in value order.
    buckets: BTreeMap<u64, u64>,
    /// Total recorded samples.
    total: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` identical samples.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        *self.buckets.entry(bucket_index(value)).or_insert(0) += n;
        self.total += n;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Adds every bucket of `other` into `self`.
    ///
    /// Integer bucket addition makes this exactly associative and
    /// order-insensitive: any merge tree over the same shards yields a
    /// bit-identical histogram.
    pub fn merge_from(&mut self, other: &Histogram) {
        for (&index, &n) in &other.buckets {
            *self.buckets.entry(index).or_insert(0) += n;
        }
        self.total += other.total;
    }

    /// Nearest-rank percentile, `q` in `[0, 100]`.
    ///
    /// Uses the same rule as `qram_bench::report::percentile` —
    /// `rank = ceil(q/100 · n)` clamped to `[1, n]` — and returns the
    /// floor of the bucket holding that rank. Over floor-quantized
    /// samples the two implementations agree exactly (pinned by test).
    /// Empty histograms answer 0.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
        let rank = ((q / 100.0) * self.total as f64).ceil() as u64;
        let rank = rank.clamp(1, self.total);
        let mut seen = 0u64;
        let mut last = 0u64;
        for (&index, &n) in &self.buckets {
            seen += n;
            last = index;
            if seen >= rank {
                return bucket_floor(index);
            }
        }
        bucket_floor(last)
    }

    /// Floor of the highest occupied bucket (0 when empty).
    pub fn max(&self) -> u64 {
        self.buckets
            .keys()
            .next_back()
            .map_or(0, |&index| bucket_floor(index))
    }

    /// The representative (bucket floor) a value collapses to.
    ///
    /// Exposed so tests can quantize raw samples exactly the way the
    /// histogram does before comparing percentile implementations.
    pub fn quantize(value: u64) -> u64 {
        bucket_floor(bucket_index(value))
    }

    /// Canonical byte serialization folded into registry digests.
    fn digest_bytes(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.total.to_le_bytes());
        for (&index, &n) in &self.buckets {
            out.extend_from_slice(&index.to_le_bytes());
            out.extend_from_slice(&n.to_le_bytes());
        }
    }
}

/// A registry of named counters, high-water gauges and [`Histogram`]s.
///
/// Names are `&'static str` so recording sites pay no allocation; maps
/// are `BTreeMap` so iteration, JSON and the digest are independent of
/// insertion order. Registries merge deterministically — shard-local
/// registries summed in any order produce identical state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `delta` to the named counter (creating it at zero).
    pub fn add(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Current value of a counter (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Raises the named high-water gauge to `value` if it is larger.
    pub fn gauge_max(&mut self, name: &'static str, value: u64) {
        let slot = self.gauges.entry(name).or_insert(0);
        *slot = (*slot).max(value);
    }

    /// Current value of a gauge (0 when never touched).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Records a sample into the named histogram.
    pub fn record(&mut self, name: &'static str, value: u64) {
        self.histograms.entry(name).or_default().record(value);
    }

    /// The named histogram, if anything was recorded under it.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Merges another registry into this one: counters add, gauges take
    /// the max, histograms merge bucket-wise. Exactly associative and
    /// order-insensitive.
    pub fn merge_from(&mut self, other: &MetricsRegistry) {
        for (&name, &v) in &other.counters {
            *self.counters.entry(name).or_insert(0) += v;
        }
        for (&name, &v) in &other.gauges {
            let slot = self.gauges.entry(name).or_insert(0);
            *slot = (*slot).max(v);
        }
        for (&name, h) in &other.histograms {
            self.histograms.entry(name).or_default().merge_from(h);
        }
    }

    /// fnv1a-64 digest over the canonical (name-ordered) serialization.
    ///
    /// Two registries compare equal iff their digests match, so CI can
    /// diff one hex line instead of the full dump.
    pub fn digest(&self) -> u64 {
        let mut bytes = Vec::new();
        for (&name, &v) in &self.counters {
            bytes.push(0u8);
            push_str(&mut bytes, name);
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        for (&name, &v) in &self.gauges {
            bytes.push(1u8);
            push_str(&mut bytes, name);
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        for (&name, h) in &self.histograms {
            bytes.push(2u8);
            push_str(&mut bytes, name);
            h.digest_bytes(&mut bytes);
        }
        fnv1a_64(bytes)
    }
}

/// The registry dump: counters and gauges verbatim, histograms as
/// count/percentile summaries, each map in name order.
impl From<&MetricsRegistry> for Json {
    fn from(registry: &MetricsRegistry) -> Json {
        let values = |map: &BTreeMap<&'static str, u64>| {
            Json::object(map.iter().map(|(&name, &v)| (name, v.into())))
        };
        let histograms = registry.histograms.iter().map(|(&name, h)| {
            let summary = Json::object([
                ("count", h.count().into()),
                ("p50", h.percentile(50.0).into()),
                ("p90", h.percentile(90.0).into()),
                ("p99", h.percentile(99.0).into()),
                ("max", h.max().into()),
            ]);
            (name, summary)
        });
        Json::object([
            ("counters", values(&registry.counters)),
            ("gauges", values(&registry.gauges)),
            ("histograms", Json::object(histograms)),
        ])
    }
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u64).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..LINEAR_MAX {
            assert_eq!(Histogram::quantize(v), v);
        }
    }

    #[test]
    fn quantize_bounds_relative_error() {
        for &v in &[128u64, 129, 1000, 4096, 65_537, 1 << 40, u64::MAX] {
            let q = Histogram::quantize(v);
            assert!(q <= v, "floor {q} above value {v}");
            // floor error is below one sub-bucket: v - q < v/64
            assert!(v - q <= v / 64, "error too large for {v}: floor {q}");
        }
    }

    #[test]
    fn bucket_floor_is_fixed_point() {
        // The floor of a bucket quantizes back to itself.
        for &v in &[0u64, 1, 127, 128, 200, 9999, 1 << 33, u64::MAX] {
            let q = Histogram::quantize(v);
            assert_eq!(Histogram::quantize(q), q);
        }
    }

    #[test]
    fn percentile_matches_nearest_rank_on_exact_values() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 4, 5, 6, 7, 8, 9, 10] {
            h.record(v);
        }
        assert_eq!(h.percentile(50.0), 5);
        assert_eq!(h.percentile(90.0), 9);
        assert_eq!(h.percentile(100.0), 10);
        assert_eq!(h.percentile(0.0), 1);
        assert_eq!(h.max(), 10);
    }

    #[test]
    fn empty_histogram_answers_zero() {
        let h = Histogram::new();
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.max(), 0);
        assert!(h.is_empty());
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(5);
        a.record(500);
        b.record(5);
        b.record_n(1 << 20, 3);
        let mut merged = a.clone();
        merged.merge_from(&b);
        assert_eq!(merged.count(), 6);
        let mut swapped = b.clone();
        swapped.merge_from(&a);
        assert_eq!(merged, swapped);
    }

    #[test]
    fn registry_merge_is_deterministic() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.add("x", 2);
        a.gauge_max("g", 7);
        a.record("h", 100);
        b.add("x", 3);
        b.add("y", 1);
        b.gauge_max("g", 5);
        b.record("h", 4000);
        let mut ab = a.clone();
        ab.merge_from(&b);
        let mut ba = b.clone();
        ba.merge_from(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.digest(), ba.digest());
        assert_eq!(ab.counter("x"), 5);
        assert_eq!(ab.gauge("g"), 7);
        assert_eq!(ab.histogram("h").unwrap().count(), 2);
    }

    #[test]
    fn digest_distinguishes_metric_kinds() {
        let mut a = MetricsRegistry::new();
        a.add("m", 3);
        let mut b = MetricsRegistry::new();
        b.gauge_max("m", 3);
        assert_ne!(a.digest(), b.digest());
    }
}
