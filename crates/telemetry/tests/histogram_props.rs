//! Property tests for the telemetry primitives: histogram/registry
//! merge must be *exactly* associative and order-insensitive (integer
//! bucket arithmetic, no floating-point accumulation), and the span
//! digest must be a pure function of the event *set*.

use proptest::prelude::*;
use qram_telemetry::{key, Histogram, MetricsRegistry, SpanEvent, SpanStage, SpanTracer};

fn hist_of(values: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

fn arb_values() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(any::<u64>(), 0..50)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (a ∪ b) ∪ c == a ∪ (b ∪ c), bit-for-bit.
    #[test]
    fn histogram_merge_is_associative(
        a in arb_values(),
        b in arb_values(),
        c in arb_values(),
    ) {
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));
        let mut left = ha.clone();
        left.merge_from(&hb);
        left.merge_from(&hc);
        let mut right_inner = hb.clone();
        right_inner.merge_from(&hc);
        let mut right = ha.clone();
        right.merge_from(&right_inner);
        prop_assert_eq!(left, right);
    }

    /// a ∪ b == b ∪ a, and merging shards equals recording the
    /// concatenated samples directly, in any interleaving.
    #[test]
    fn histogram_merge_is_order_insensitive(
        a in arb_values(),
        b in arb_values(),
    ) {
        let (ha, hb) = (hist_of(&a), hist_of(&b));
        let mut ab = ha.clone();
        ab.merge_from(&hb);
        let mut ba = hb.clone();
        ba.merge_from(&ha);
        prop_assert_eq!(&ab, &ba);
        let mut all: Vec<u64> = a.clone();
        all.extend_from_slice(&b);
        all.reverse();
        prop_assert_eq!(&ab, &hist_of(&all));
        prop_assert_eq!(ab.count() as usize, a.len() + b.len());
    }

    /// Quantization is idempotent and never overshoots: the reported
    /// bucket floor is ≤ the value and within 1/64 relative error.
    #[test]
    fn quantize_is_sound(v in any::<u64>()) {
        let q = Histogram::quantize(v);
        prop_assert!(q <= v);
        prop_assert!(v - q <= v / 64);
        prop_assert_eq!(Histogram::quantize(q), q);
    }

    /// Registry merge (counters add, gauges max, histograms merge) is
    /// commutative with exact equality of state and digest.
    #[test]
    fn registry_merge_commutes(
        xs in arb_values(),
        ys in arb_values(),
        ca in any::<u32>(),
        cb in any::<u32>(),
    ) {
        let mut a = MetricsRegistry::new();
        a.add(key::CACHE_HITS, u64::from(ca));
        a.gauge_max(key::QUEUE_DEPTH_HIGH_WATER, u64::from(ca));
        for &v in &xs {
            a.record(key::STAGE_TOTAL, v);
        }
        let mut b = MetricsRegistry::new();
        b.add(key::CACHE_HITS, u64::from(cb));
        b.gauge_max(key::QUEUE_DEPTH_HIGH_WATER, u64::from(cb));
        for &v in &ys {
            b.record(key::STAGE_TOTAL, v);
        }
        let mut ab = a.clone();
        ab.merge_from(&b);
        let mut ba = b.clone();
        ba.merge_from(&a);
        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(ab.digest(), ba.digest());
        prop_assert_eq!(ab.counter(key::CACHE_HITS), u64::from(ca) + u64::from(cb));
        prop_assert_eq!(
            ab.gauge(key::QUEUE_DEPTH_HIGH_WATER),
            u64::from(ca).max(u64::from(cb))
        );
    }

    /// The trace digest depends only on the event set, not the order
    /// spans were pushed.
    #[test]
    fn trace_digest_ignores_push_order(
        starts in prop::collection::vec(0u64..1000, 1..20),
    ) {
        let spans: Vec<SpanEvent> = starts
            .iter()
            .enumerate()
            .map(|(i, &start)| SpanEvent {
                request: i as u64,
                start,
                end: start + 5,
                stage: SpanStage::Execute { unit: i as u64 % 2, shots: 4 },
            })
            .collect();
        let mut forward = SpanTracer::new();
        for &s in &spans {
            forward.push(s);
        }
        let mut reverse = SpanTracer::new();
        for &s in spans.iter().rev() {
            reverse.push(s);
        }
        prop_assert_eq!(forward.digest(), reverse.digest());
        prop_assert_eq!(forward.canonical(), reverse.canonical());
    }
}
