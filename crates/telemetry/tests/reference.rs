//! The indexed registry against a name-keyed reference, and the
//! exported bytes pinned.
//!
//! `reference` is the sorted-map registry this crate kept before
//! metrics became array slots: counters, gauges and histograms in
//! `BTreeMap`s keyed by name, histogram buckets in a `BTreeMap` keyed by
//! bucket index. A proptest feeds both the same writes and requires the
//! same digest, JSON, percentiles and merges. The pinned literals are a
//! registry touching every key and a span log holding every stage, as
//! the sorted-map registry and the `String`-keyed span log exported
//! them; a change to either export shows up here first.

use proptest::prelude::*;
use qram_telemetry::{
    key, AdmissionOutcome, FireReason, Json, Key, MetricsRegistry, RouteReason, SpanEvent,
    SpanStage, SpanTracer, VerifyTag, SYNTHETIC_REQUEST_BASE,
};

mod reference {
    use std::collections::BTreeMap;

    use qram_telemetry::{fnv1a_64, Json};

    const LINEAR_MAX: u64 = 128;
    const SUB_BITS: u64 = 6;

    fn bucket_index(value: u64) -> u64 {
        if value < LINEAR_MAX {
            return value;
        }
        let msb = 63 - u64::from(value.leading_zeros());
        let shift = msb - SUB_BITS;
        (shift << SUB_BITS) + (value >> shift)
    }

    fn bucket_floor(index: u64) -> u64 {
        if index < LINEAR_MAX {
            return index;
        }
        let shift = (index >> SUB_BITS) - 1;
        (index - (shift << SUB_BITS)) << shift
    }

    #[derive(Debug, Clone, Default)]
    pub struct Histogram {
        buckets: BTreeMap<u64, u64>,
        total: u64,
    }

    impl Histogram {
        pub fn record(&mut self, value: u64) {
            *self.buckets.entry(bucket_index(value)).or_insert(0) += 1;
            self.total += 1;
        }

        pub fn count(&self) -> u64 {
            self.total
        }

        pub fn merge_from(&mut self, other: &Histogram) {
            for (&index, &n) in &other.buckets {
                *self.buckets.entry(index).or_insert(0) += n;
            }
            self.total += other.total;
        }

        pub fn percentile(&self, q: f64) -> u64 {
            if self.total == 0 {
                return 0;
            }
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

        pub fn max(&self) -> u64 {
            self.buckets
                .keys()
                .next_back()
                .map_or(0, |&index| bucket_floor(index))
        }

        fn digest_bytes(&self, out: &mut Vec<u8>) {
            out.extend_from_slice(&self.total.to_le_bytes());
            for (&index, &n) in &self.buckets {
                out.extend_from_slice(&index.to_le_bytes());
                out.extend_from_slice(&n.to_le_bytes());
            }
        }
    }

    #[derive(Debug, Clone, Default)]
    pub struct MetricsRegistry {
        pub counters: BTreeMap<&'static str, u64>,
        pub gauges: BTreeMap<&'static str, u64>,
        pub histograms: BTreeMap<&'static str, Histogram>,
    }

    impl MetricsRegistry {
        pub fn add(&mut self, name: &'static str, delta: u64) {
            *self.counters.entry(name).or_insert(0) += delta;
        }

        pub fn gauge_max(&mut self, name: &'static str, value: u64) {
            let slot = self.gauges.entry(name).or_insert(0);
            *slot = (*slot).max(value);
        }

        pub fn record(&mut self, name: &'static str, value: u64) {
            self.histograms.entry(name).or_default().record(value);
        }

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

        pub fn json(&self) -> Json {
            let values = |map: &BTreeMap<&'static str, u64>| {
                Json::object(map.iter().map(|(&name, &v)| (name, v.into())))
            };
            let histograms = self.histograms.iter().map(|(&name, h)| {
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
                ("counters", values(&self.counters)),
                ("gauges", values(&self.gauges)),
                ("histograms", Json::object(histograms)),
            ])
        }
    }

    fn push_str(out: &mut Vec<u8>, s: &str) {
        out.extend_from_slice(&(s.len() as u64).to_le_bytes());
        out.extend_from_slice(s.as_bytes());
    }
}

/// One write: kind (0 counter, 1 gauge, 2 histogram), key index, a
/// value and a right shift that makes small values common.
type Write = (u8, usize, u64, u32);

fn arb_writes() -> impl Strategy<Value = Vec<Write>> {
    prop::collection::vec((0u8..3, 0..Key::COUNT, any::<u64>(), 0u32..64), 0..120)
}

fn apply(writes: &[Write]) -> (MetricsRegistry, reference::MetricsRegistry) {
    let keys: Vec<Key> = Key::all().collect();
    let mut indexed = MetricsRegistry::new();
    let mut named = reference::MetricsRegistry::default();
    for &(kind, key, value, shift) in writes {
        let (key, value) = (keys[key], value >> shift);
        match kind {
            0 => {
                // Counters stay far from overflow when summed and merged.
                let delta = value >> 8;
                indexed.add(key, delta);
                named.add(key.name(), delta);
            }
            1 => {
                indexed.gauge_max(key, value);
                named.gauge_max(key.name(), value);
            }
            _ => {
                indexed.record(key, value);
                named.record(key.name(), value);
            }
        }
    }
    (indexed, named)
}

/// Everything a reader can observe of the two registries.
fn assert_same(indexed: &MetricsRegistry, named: &reference::MetricsRegistry) {
    assert_eq!(indexed.digest(), named.digest());
    assert_eq!(Json::from(indexed).compact(), named.json().compact());
    for key in Key::all() {
        let name = key.name();
        assert_eq!(
            indexed.counter(key),
            named.counters.get(name).map_or(0, |&v| v)
        );
        assert_eq!(indexed.gauge(key), named.gauges.get(name).map_or(0, |&v| v));
        let summary = |count: u64, p: &dyn Fn(f64) -> u64, max: u64| {
            let qs = [0.0, 1.0, 50.0, 90.0, 99.0, 99.9, 100.0];
            (count, qs.map(p), max)
        };
        assert_eq!(
            indexed
                .histogram(key)
                .map(|h| summary(h.count(), &|q| h.percentile(q), h.max())),
            named
                .histograms
                .get(name)
                .map(|h| summary(h.count(), &|q| h.percentile(q), h.max())),
            "{name}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random writes, then both merge orders, agree with the
    /// reference on every export and read.
    #[test]
    fn indexed_registry_matches_the_sorted_map_reference(
        left in arb_writes(),
        right in arb_writes(),
    ) {
        let (a, ref_a) = apply(&left);
        let (b, ref_b) = apply(&right);
        assert_same(&a, &ref_a);
        assert_same(&b, &ref_b);
        let mut ab = a.clone();
        ab.merge_from(&b);
        let mut ba = b.clone();
        ba.merge_from(&a);
        let mut ref_ab = ref_a.clone();
        ref_ab.merge_from(&ref_b);
        let mut ref_ba = ref_b;
        ref_ba.merge_from(&ref_a);
        assert_same(&ab, &ref_ab);
        assert_same(&ba, &ref_ba);
        prop_assert_eq!(&ab, &ba);
    }
}

/// Every key written once by its kind, in reverse name order; the
/// `sim.shots` counter is touched with 0, as a shot-free service does.
fn every_key_registry() -> MetricsRegistry {
    let counters = [
        key::ADMISSION_ACCEPTED,
        key::ADMISSION_SHED,
        key::ADMISSION_REJECTED,
        key::CACHE_LOOKUPS,
        key::CACHE_HITS,
        key::CACHE_MISSES,
        key::CACHE_EVICTIONS,
        key::BATCH_REPORTS_DROPPED,
        key::SERVICE_COMPLETED,
        key::BATCHES_FIRED,
        key::POLICY_CACHE_AFFINE_FIRES,
        key::POLICY_AGE_CAP_FORCED,
        key::SIM_SHOTS,
        key::SIM_REPLAYED,
        key::SIM_FAULTS,
        key::SIM_GATES,
        key::FLEET_ROUTED,
        key::FLEET_SHED,
        key::FLEET_REPLICA_CACHE_WINS,
    ];
    let histograms = [
        key::STAGE_QUEUE_WAIT,
        key::STAGE_COMPILE,
        key::STAGE_EXECUTE,
        key::STAGE_TOTAL,
        key::BATCH_SIZE,
    ];
    let samples = [
        0u64,
        1,
        2,
        127,
        128,
        129,
        200,
        4_096,
        65_537,
        1_000_000,
        1 << 33,
        u64::MAX,
    ];
    let mut r = MetricsRegistry::new();
    for (i, &k) in counters.iter().enumerate().rev() {
        let delta = if k == key::SIM_SHOTS {
            0
        } else {
            (i as u64 + 1) * 1_000_003
        };
        r.add(k, delta);
    }
    r.gauge_max(key::QUEUE_DEPTH_HIGH_WATER, 17);
    r.gauge_max(key::QUEUE_DEPTH_HIGH_WATER, 5);
    r.gauge_max(key::FLEET_FRONT_DEPTH_HIGH_WATER, 1024);
    for (i, &k) in histograms.iter().enumerate() {
        for (j, &v) in samples.iter().enumerate().skip(i) {
            for _ in 0..=(i + j) % 3 {
                r.record(k, v);
            }
        }
    }
    r
}

/// All six stages over two group keys, pushed out of canonical order,
/// with two execute spans that tie on the sort key (push order breaks
/// the tie).
fn six_stage_log() -> SpanTracer {
    let mut t = SpanTracer::new();
    let (a, b) = (t.intern("virtual"), t.intern("bucket-brigade"));
    let span = |request, start, end, stage| SpanEvent {
        request,
        start,
        end,
        stage,
    };
    for event in [
        span(1, 120, 260, SpanStage::Execute { unit: 1, shots: 8 }),
        span(0, 10, 95, SpanStage::QueueWait { group: a }),
        span(
            0,
            30,
            30,
            SpanStage::BatchForm {
                group: a,
                reason: FireReason::Deadline,
                size: 2,
            },
        ),
        span(
            SYNTHETIC_REQUEST_BASE + 4,
            12,
            12,
            SpanStage::Admission {
                outcome: AdmissionOutcome::Shed,
                queue_depth: 9,
            },
        ),
        span(
            0,
            10,
            10,
            SpanStage::Route {
                shard: 2,
                reason: RouteReason::Replica,
            },
        ),
        span(
            0,
            10,
            10,
            SpanStage::Admission {
                outcome: AdmissionOutcome::Accepted,
                queue_depth: 3,
            },
        ),
        span(
            0,
            30,
            95,
            SpanStage::Compile {
                group: a,
                cache_hit: false,
                verify: VerifyTag::Deep,
            },
        ),
        span(1, 11, 120, SpanStage::QueueWait { group: b }),
        span(
            1,
            100,
            100,
            SpanStage::BatchForm {
                group: b,
                reason: FireReason::Full,
                size: 1,
            },
        ),
        span(
            1,
            100,
            100,
            SpanStage::Compile {
                group: b,
                cache_hit: true,
                verify: VerifyTag::Structural,
            },
        ),
        span(0, 95, 300, SpanStage::Execute { unit: 0, shots: 8 }),
        span(1, 120, 260, SpanStage::Execute { unit: 3, shots: 0 }),
        span(
            1,
            11,
            11,
            SpanStage::Route {
                shard: 0,
                reason: RouteReason::Hash,
            },
        ),
    ] {
        t.push(event);
    }
    t
}

#[test]
fn every_key_registry_exports_pinned_bytes() {
    let r = every_key_registry();
    assert_eq!(format!("{:016x}", r.digest()), "34e91810d2d8bc68");
    let json = concat!(
        r#"{"counters":{"admission.accepted":1000003,"admission.rejected":3000009,"#,
        r#""admission.shed":2000006,"cache.evictions":7000021,"cache.hits":5000015,"#,
        r#""cache.lookups":4000012,"cache.misses":6000018,"fleet.replica_cache_wins":19000057,"#,
        r#""fleet.routed":17000051,"fleet.shed":18000054,"policy.age_cap_forced":12000036,"#,
        r#""policy.cache_affine_fires":11000033,"service.batch_reports_dropped":8000024,"#,
        r#""service.batches_fired":10000030,"service.completed":9000027,"#,
        r#""sim.faults_injected":15000045,"sim.gate_applications":16000048,"#,
        r#""sim.replayed_shots":14000042,"sim.shots":0},"#,
        r#""gauges":{"fleet.front_depth.high_water":1024,"queue.depth.high_water":17},"#,
        r#""histograms":{"#,
        r#""batch.size":{"count":16,"p50":4096,"p90":8589934592,"#,
        r#""p99":18302628885633695744,"max":18302628885633695744},"#,
        r#""stage.compile_ns":{"count":22,"p50":200,"p90":8589934592,"#,
        r#""p99":18302628885633695744,"max":18302628885633695744},"#,
        r#""stage.execute_ns":{"count":20,"p50":200,"p90":8589934592,"#,
        r#""p99":18302628885633695744,"max":18302628885633695744},"#,
        r#""stage.queue_wait_ns":{"count":24,"p50":128,"p90":18302628885633695744,"#,
        r#""p99":18302628885633695744,"max":18302628885633695744},"#,
        r#""stage.total_ns":{"count":18,"p50":4096,"p90":18302628885633695744,"#,
        r#""p99":18302628885633695744,"max":18302628885633695744}}}"#,
    );
    assert_eq!(Json::from(&r).compact(), json);
}

#[test]
fn six_stage_log_exports_pinned_bytes() {
    let t = six_stage_log();
    assert_eq!(format!("{:016x}", t.digest()), "ba6a3ff719dfb5bc");
    let json = concat!(
        r#"[{"request":0,"stage":"admission","start":10,"end":10,"outcome":"accepted","queue_depth":3},"#,
        r#"{"request":0,"stage":"queue_wait","start":10,"end":95,"group":"virtual"},"#,
        r#"{"request":0,"stage":"route","start":10,"end":10,"shard":2,"reason":"replica"},"#,
        r#"{"request":1,"stage":"queue_wait","start":11,"end":120,"group":"bucket-brigade"},"#,
        r#"{"request":1,"stage":"route","start":11,"end":11,"shard":0,"reason":"hash"},"#,
        r#"{"request":4,"stage":"admission","start":12,"end":12,"outcome":"shed","queue_depth":9,"terminal":true},"#,
        r#"{"request":0,"stage":"batch_form","start":30,"end":30,"group":"virtual","reason":"deadline","size":2},"#,
        r#"{"request":0,"stage":"compile","start":30,"end":95,"group":"virtual","cache_hit":false,"verify":"deep"},"#,
        r#"{"request":0,"stage":"execute","start":95,"end":300,"unit":0,"shots":8},"#,
        r#"{"request":1,"stage":"batch_form","start":100,"end":100,"group":"bucket-brigade","reason":"full","size":1},"#,
        r#"{"request":1,"stage":"compile","start":100,"end":100,"group":"bucket-brigade","cache_hit":true,"verify":"structural"},"#,
        r#"{"request":1,"stage":"execute","start":120,"end":260,"unit":1,"shots":8},"#,
        r#"{"request":1,"stage":"execute","start":120,"end":260,"unit":3,"shots":0}]"#,
    );
    assert_eq!(Json::from(&t).compact(), json);
}
