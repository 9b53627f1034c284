//! Mergeable, deterministic metrics: counters, high-water gauges and
//! log-linear histograms.
//!
//! Everything here is integer arithmetic over arrays indexed by
//! [`Key`] and by bucket, so two registries fed the same values — in any
//! interleaving, on any number of threads, merged in any association —
//! are **bit-identical**. That is the property the serving stack's
//! digest discipline needs: a histogram is as diffable as a results
//! digest.

use crate::{Fnv1a, Json, Key};

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
///
/// Counts are dense, indexed by bucket and grown on demand up to the
/// highest bucket recorded (at most 3,776 buckets, for `u64::MAX`).
/// Equality, digests and exports see only the occupied buckets.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    /// Sample count per bucket index; unoccupied buckets hold 0.
    buckets: Vec<u64>,
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
        // At most 3,775, so the cast cannot truncate.
        let index = bucket_index(value) as usize;
        if index >= self.buckets.len() {
            self.buckets.resize(index + 1, 0);
        }
        self.buckets[index] += n;
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
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, &n) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += n;
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
        for (index, n) in self.occupied() {
            seen += n;
            if seen >= rank {
                return bucket_floor(index);
            }
        }
        self.max()
    }

    /// Floor of the highest occupied bucket (0 when empty).
    pub fn max(&self) -> u64 {
        self.buckets
            .iter()
            .rposition(|&n| n > 0)
            .map_or(0, |index| bucket_floor(index as u64))
    }

    /// The representative (bucket floor) a value collapses to.
    ///
    /// Exposed so tests can quantize raw samples exactly the way the
    /// histogram does before comparing percentile implementations.
    pub fn quantize(value: u64) -> u64 {
        bucket_floor(bucket_index(value))
    }

    /// `(bucket index, count)` for every occupied bucket, in index
    /// (and therefore value) order.
    fn occupied(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        (0u64..)
            .zip(self.buckets.iter().copied())
            .filter(|&(_, n)| n > 0)
    }

    /// Folds the canonical serialization into a registry digest.
    fn digest_into(&self, hash: &mut Fnv1a) {
        hash.write_u64(self.total);
        for (index, n) in self.occupied() {
            hash.write_u64(index);
            hash.write_u64(n);
        }
    }
}

impl PartialEq for Histogram {
    fn eq(&self, other: &Histogram) -> bool {
        self.total == other.total && self.occupied().eq(other.occupied())
    }
}

impl Eq for Histogram {}

// A registry's presence masks hold one bit per key.
const _: () = assert!(Key::COUNT <= 64);

/// One `u64` per [`Key`], plus the set of keys ever written: a slot
/// written with 0 is still present. Holds no memory until the first
/// write, so an idle registry allocates nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Slots {
    /// Bit `i` set when key `i` was written.
    present: u64,
    /// Empty until the first write, then one value per key.
    values: Vec<u64>,
}

impl Slots {
    /// The slot of `key`, marked present.
    fn slot(&mut self, key: Key) -> &mut u64 {
        if self.values.is_empty() {
            self.values = vec![0; Key::COUNT];
        }
        self.present |= 1 << key.index();
        &mut self.values[key.index()]
    }

    fn get(&self, key: Key) -> u64 {
        self.values.get(key.index()).copied().unwrap_or(0)
    }

    /// Present slots in name order.
    fn iter(&self) -> impl Iterator<Item = (Key, u64)> + '_ {
        Key::all()
            .filter(|key| self.present & (1 << key.index()) != 0)
            .map(|key| (key, self.values[key.index()]))
    }
}

/// A registry of counters, high-water gauges and [`Histogram`]s, one
/// array slot per [`Key`].
///
/// Recording indexes a slot, with no name compare and no allocation
/// after the first write of each kind. Iteration, JSON and the digest
/// walk slots in key order, which is name order, so they are
/// independent of insertion order. Registries merge deterministically —
/// shard-local registries summed in any order produce identical state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: Slots,
    gauges: Slots,
    /// Empty until the first sample, then one histogram per key; a
    /// histogram is present when it holds a sample.
    histograms: Vec<Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `delta` to a counter (creating it at zero).
    pub fn add(&mut self, key: Key, delta: u64) {
        *self.counters.slot(key) += delta;
    }

    /// Current value of a counter (0 when never touched).
    pub fn counter(&self, key: Key) -> u64 {
        self.counters.get(key)
    }

    /// Raises a high-water gauge to `value` if it is larger.
    pub fn gauge_max(&mut self, key: Key, value: u64) {
        let slot = self.gauges.slot(key);
        *slot = (*slot).max(value);
    }

    /// Current value of a gauge (0 when never touched).
    pub fn gauge(&self, key: Key) -> u64 {
        self.gauges.get(key)
    }

    /// Records a sample into a histogram.
    pub fn record(&mut self, key: Key, value: u64) {
        self.histogram_slot(key).record(value);
    }

    /// The histogram of `key`, if anything was recorded under it.
    pub fn histogram(&self, key: Key) -> Option<&Histogram> {
        self.histograms.get(key.index()).filter(|h| !h.is_empty())
    }

    fn histogram_slot(&mut self, key: Key) -> &mut Histogram {
        if self.histograms.is_empty() {
            self.histograms = vec![Histogram::default(); Key::COUNT];
        }
        &mut self.histograms[key.index()]
    }

    /// Present histograms in name order.
    fn histograms(&self) -> impl Iterator<Item = (Key, &Histogram)> + '_ {
        Key::all().filter_map(|key| Some((key, self.histogram(key)?)))
    }

    /// Merges another registry into this one: counters add, gauges take
    /// the max, histograms merge bucket-wise. Exactly associative and
    /// order-insensitive.
    pub fn merge_from(&mut self, other: &MetricsRegistry) {
        for (key, v) in other.counters.iter() {
            self.add(key, v);
        }
        for (key, v) in other.gauges.iter() {
            self.gauge_max(key, v);
        }
        for (key, h) in other.histograms() {
            self.histogram_slot(key).merge_from(h);
        }
    }

    /// fnv1a-64 digest over the canonical (name-ordered) serialization.
    ///
    /// Two registries compare equal iff their digests match, so CI can
    /// diff one hex line instead of the full dump.
    pub fn digest(&self) -> u64 {
        let mut hash = Fnv1a::new();
        for (tag, slots) in [(0u8, &self.counters), (1, &self.gauges)] {
            for (key, v) in slots.iter() {
                hash.write(&[tag]);
                hash.write_str(key.name());
                hash.write_u64(v);
            }
        }
        for (key, h) in self.histograms() {
            hash.write(&[2]);
            hash.write_str(key.name());
            h.digest_into(&mut hash);
        }
        hash.finish()
    }
}

/// The registry dump: counters and gauges verbatim, histograms as
/// count/percentile summaries, each in name order.
impl From<&MetricsRegistry> for Json {
    fn from(registry: &MetricsRegistry) -> Json {
        let values =
            |slots: &Slots| Json::object(slots.iter().map(|(key, v)| (key.name(), v.into())));
        let histograms = registry.histograms().map(|(key, h)| {
            let summary = Json::object([
                ("count", h.count().into()),
                ("p50", h.percentile(50.0).into()),
                ("p90", h.percentile(90.0).into()),
                ("p99", h.percentile(99.0).into()),
                ("max", h.max().into()),
            ]);
            (key.name(), summary)
        });
        Json::object([
            ("counters", values(&registry.counters)),
            ("gauges", values(&registry.gauges)),
            ("histograms", Json::object(histograms)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key;

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
        a.add(key::CACHE_HITS, 2);
        a.gauge_max(key::QUEUE_DEPTH_HIGH_WATER, 7);
        a.record(key::STAGE_TOTAL, 100);
        b.add(key::CACHE_HITS, 3);
        b.add(key::CACHE_MISSES, 1);
        b.gauge_max(key::QUEUE_DEPTH_HIGH_WATER, 5);
        b.record(key::STAGE_TOTAL, 4000);
        let mut ab = a.clone();
        ab.merge_from(&b);
        let mut ba = b.clone();
        ba.merge_from(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.digest(), ba.digest());
        assert_eq!(ab.counter(key::CACHE_HITS), 5);
        assert_eq!(ab.gauge(key::QUEUE_DEPTH_HIGH_WATER), 7);
        assert_eq!(ab.histogram(key::STAGE_TOTAL).unwrap().count(), 2);
    }

    #[test]
    fn digest_distinguishes_metric_kinds() {
        let mut a = MetricsRegistry::new();
        a.add(key::SIM_SHOTS, 3);
        let mut b = MetricsRegistry::new();
        b.gauge_max(key::SIM_SHOTS, 3);
        assert_ne!(a.digest(), b.digest());
    }
}
