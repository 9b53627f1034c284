//! The bounded LRU cache of compiled queries.
//!
//! Running the staged [`crate::Compiler`] pipeline — instantiating the
//! architecture, walking its whole generator, pricing the circuit — is
//! by far the most expensive per-spec cost of serving. Hot specs must
//! pay it once, not once per batch, so the service keeps
//! [`CompiledQuery`] artifacts behind this cache keyed by [`QuerySpec`]
//! (which wraps the hashable [`qram_core::ArchSpec`], so every
//! architecture family and parameterization gets its own distinct key).
//! Entries are `Arc`-shared with in-flight batches, which makes eviction
//! safe while a worker still executes against an evicted artifact.

use std::sync::Arc;

use qram_telemetry::{key, MetricsRegistry};

use crate::{CompiledQuery, QuerySpec};

/// Hit/miss/eviction accounting of a [`CircuitCache`].
///
/// Invariant: every lookup is exactly one hit or one miss, so
/// `lookups == hits + misses` always holds (pinned by tests).
///
/// ```
/// use qram_service::CacheStats;
/// let stats = CacheStats { lookups: 10, hits: 9, misses: 1, evictions: 0 };
/// assert!((stats.hit_rate() - 0.9).abs() < 1e-12);
/// assert_eq!(stats.lookups, stats.hits + stats.misses);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Total lookups performed (== `hits + misses`).
    pub lookups: u64,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compile.
    pub misses: u64,
    /// Entries displaced by capacity pressure.
    pub evictions: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

/// A bounded least-recently-used map `QuerySpec → Arc<CompiledQuery>`.
///
/// Recency order is kept in a plain vector (most recent last): the
/// capacity is the number of *distinct circuit shapes* a deployment
/// serves — typically a handful — so a linear scan beats any pointer
/// structure and keeps the cache allocation-free on the hit path.
#[derive(Debug, Default)]
pub struct CircuitCache {
    /// `(spec, artifact)` in recency order, least recent first.
    entries: Vec<(QuerySpec, Arc<CompiledQuery>)>,
    capacity: usize,
    /// Accounting lives on the shared metrics registry (under the
    /// `cache.*` keys); [`CircuitCache::stats`] reads it back as the
    /// historical [`CacheStats`] shape.
    metrics: MetricsRegistry,
}

impl CircuitCache {
    /// An empty cache holding at most `capacity` compiled queries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` — a service that can hold no compiled
    /// query at all would silently recompile every batch.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "circuit cache capacity must be positive");
        CircuitCache {
            entries: Vec::with_capacity(capacity),
            capacity,
            metrics: MetricsRegistry::new(),
        }
    }

    /// The compiled query for `spec`, compiling via `compile` on a miss
    /// and evicting the least-recently-used entry when over capacity,
    /// together with whether the lookup hit — which is what the virtual
    /// clock charges the compile cost on.
    pub fn fetch(
        &mut self,
        spec: QuerySpec,
        compile: impl FnOnce() -> CompiledQuery,
    ) -> (Arc<CompiledQuery>, bool) {
        match self.try_fetch(spec, || Ok::<_, std::convert::Infallible>(compile())) {
            Ok(result) => result,
            Err(e) => match e {},
        }
    }

    /// Like [`fetch`](CircuitCache::fetch) for fallible compilation —
    /// the verify-before-insert path. A miss whose `compile` fails still
    /// counts as a miss (the `lookups == hits + misses` invariant is
    /// unconditional) but inserts nothing: a rejected artifact never
    /// becomes servable state, and a later lookup of the same spec
    /// recompiles from scratch.
    pub fn try_fetch<E>(
        &mut self,
        spec: QuerySpec,
        compile: impl FnOnce() -> Result<CompiledQuery, E>,
    ) -> Result<(Arc<CompiledQuery>, bool), E> {
        self.metrics.add(key::CACHE_LOOKUPS, 1);
        if let Some(pos) = self.entries.iter().position(|(s, _)| *s == spec) {
            self.metrics.add(key::CACHE_HITS, 1);
            // Refresh recency: move to the back.
            let entry = self.entries.remove(pos);
            let compiled = Arc::clone(&entry.1);
            self.entries.push(entry);
            return Ok((compiled, true));
        }
        self.metrics.add(key::CACHE_MISSES, 1);
        let compiled = Arc::new(compile()?);
        if self.entries.len() == self.capacity {
            self.entries.remove(0);
            self.metrics.add(key::CACHE_EVICTIONS, 1);
        }
        self.entries.push((spec, Arc::clone(&compiled)));
        Ok((compiled, false))
    }

    /// Number of cached queries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no compiled query yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lifetime hit/miss/eviction counts — a read-back shim over the
    /// `cache.*` counters of [`CircuitCache::metrics`].
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            lookups: self.metrics.counter(key::CACHE_LOOKUPS),
            hits: self.metrics.counter(key::CACHE_HITS),
            misses: self.metrics.counter(key::CACHE_MISSES),
            evictions: self.metrics.counter(key::CACHE_EVICTIONS),
        }
    }

    /// The underlying metrics registry (the `cache.*` counters), for
    /// merging into a service-wide telemetry snapshot.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Cached specs in recency order, least recent first (for
    /// introspection and tests).
    pub fn keys(&self) -> Vec<QuerySpec> {
        self.entries.iter().map(|(s, _)| *s).collect()
    }

    /// Whether `spec`'s compiled query is resident *without* touching
    /// recency or the lookup counters — the scheduler's cache-affinity
    /// probe: releasing a resident group charges zero compile ticks.
    pub fn contains(&self, spec: &QuerySpec) -> bool {
        self.entries.iter().any(|(s, _)| s == spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Compiler, CostModel};
    use qram_core::Memory;

    fn compile(spec: QuerySpec) -> CompiledQuery {
        Compiler::new(CostModel::default(), 0).compile(spec, &Memory::ones(spec.address_width()))
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let mut cache = CircuitCache::new(2);
        let a = QuerySpec::new(0, 1);
        let b = QuerySpec::new(0, 2);
        cache.fetch(a, || compile(a));
        cache.fetch(a, || compile(a));
        cache.fetch(b, || compile(b));
        cache.fetch(a, || compile(a));
        let stats = cache.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.evictions, 0);
        assert_eq!(cache.len(), 2);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn least_recently_used_is_evicted() {
        let mut cache = CircuitCache::new(2);
        let a = QuerySpec::new(0, 1);
        let b = QuerySpec::new(0, 2);
        let c = QuerySpec::new(1, 1);
        cache.fetch(a, || compile(a));
        cache.fetch(b, || compile(b));
        cache.fetch(a, || compile(a)); // refresh a: b is now LRU
        cache.fetch(c, || compile(c)); // evicts b
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.keys(), vec![a, c]);
        // b must recompile (miss), a must not.
        cache.fetch(a, || unreachable!("a was refreshed, not evicted"));
        cache.fetch(b, || compile(b));
        assert_eq!(cache.stats().misses, 4);
    }

    #[test]
    fn distinct_architectures_get_distinct_keys() {
        // Every architecture family at n = 3 is its own cache entry:
        // no family ever serves another's requests from the cache.
        let specs: Vec<QuerySpec> = crate::mixed_arch_specs(3);
        let mut cache = CircuitCache::new(specs.len());
        for &spec in &specs {
            cache.fetch(spec, || compile(spec));
        }
        // Second pass: all hits, nothing recompiles.
        for &spec in &specs {
            let (compiled, hit) =
                cache.fetch(spec, || unreachable!("resident architecture must hit"));
            assert!(hit, "{:?}", spec.arch);
            assert_eq!(compiled.spec, spec);
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, specs.len() as u64);
        assert_eq!(stats.hits, specs.len() as u64);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn miss_compiles_exactly_once_and_shares_the_arc() {
        let mut cache = CircuitCache::new(1);
        let spec = QuerySpec::new(0, 1);
        let (first, _) = cache.fetch(spec, || compile(spec));
        let (second, _) = cache.fetch(spec, || unreachable!("second lookup must hit"));
        assert!(Arc::ptr_eq(&first, &second));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_is_rejected() {
        let _ = CircuitCache::new(0);
    }

    #[test]
    fn empty_stats_hit_rate_is_zero() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        assert!(CircuitCache::new(1).is_empty());
        assert_eq!(CircuitCache::new(3).capacity(), 3);
    }

    #[test]
    fn capacity_one_thrashes_but_stays_correct() {
        let mut cache = CircuitCache::new(1);
        let a = QuerySpec::new(0, 1);
        let b = QuerySpec::new(0, 2);
        // Alternating specs under capacity 1: every lookup after the
        // first two misses and evicts — the pathological LRU workload.
        for round in 0..3 {
            let (compiled_a, hit) = cache.fetch(a, || compile(a));
            assert!(!hit, "round {round}");
            assert_eq!(compiled_a.circuit.address().len(), a.address_width());
            let (_, hit) = cache.fetch(b, || compile(b));
            assert!(!hit, "round {round}");
            assert_eq!(cache.len(), 1);
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 6);
        assert_eq!(stats.hits, 0);
        // Every miss but the very first displaced a resident entry.
        assert_eq!(stats.evictions, 5);
        assert_eq!(cache.keys(), vec![b]);
    }

    #[test]
    fn repeated_same_key_inserts_never_evict_or_recompile() {
        let mut cache = CircuitCache::new(1);
        let spec = QuerySpec::new(0, 1);
        let (first, _) = cache.fetch(spec, || compile(spec));
        for _ in 0..10 {
            let (again, hit) = cache.fetch(spec, || unreachable!("resident key must hit"));
            assert!(hit);
            assert!(Arc::ptr_eq(&first, &again));
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (10, 1, 0));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn poisoned_artifact_is_never_cached() {
        use qram_verify::{Finding, VerifyError};
        let mut cache = CircuitCache::new(2);
        let spec = QuerySpec::new(0, 1);
        // A compile whose artifact fails static verification: the error
        // propagates, the lookup invariant holds, and nothing poisons
        // the cache.
        let err = cache
            .try_fetch(spec, || {
                Err::<CompiledQuery, VerifyError>(VerifyError {
                    findings: vec![Finding::AncillaLeak {
                        qubit: 3,
                        register: "work".into(),
                        pending: 1,
                    }],
                })
            })
            .unwrap_err();
        assert_eq!(err.findings.len(), 1);
        assert!(cache.is_empty());
        let stats = cache.stats();
        assert_eq!((stats.lookups, stats.hits, stats.misses), (1, 0, 1));
        assert_eq!(stats.lookups, stats.hits + stats.misses);
        // A later lookup of the same spec recompiles cleanly: a fresh
        // miss that inserts and serves.
        let (compiled, hit) = cache
            .try_fetch(spec, || Ok::<_, VerifyError>(compile(spec)))
            .unwrap();
        assert!(!hit);
        assert_eq!(compiled.spec, spec);
        assert_eq!(cache.len(), 1);
        let stats = cache.stats();
        assert_eq!((stats.lookups, stats.hits, stats.misses), (2, 0, 2));
    }

    #[test]
    fn residency_probe_never_perturbs_recency_or_counters() {
        let mut cache = CircuitCache::new(2);
        let a = QuerySpec::new(0, 1);
        let b = QuerySpec::new(0, 2);
        let c = QuerySpec::new(1, 1);
        cache.fetch(a, || compile(a));
        cache.fetch(b, || compile(b));
        assert!(cache.contains(&a) && cache.contains(&b));
        assert!(!cache.contains(&c));
        // Probing `a` ten times must not refresh it: `a` is still the
        // LRU entry and the next insert evicts it.
        for _ in 0..10 {
            assert!(cache.contains(&a));
        }
        let stats = cache.stats();
        assert_eq!((stats.lookups, stats.hits), (2, 0), "probes are free");
        cache.fetch(c, || compile(c));
        assert!(!cache.contains(&a), "a stayed LRU despite the probes");
        assert_eq!(cache.keys(), vec![b, c]);
    }

    #[test]
    fn lookups_always_equal_hits_plus_misses() {
        let mut cache = CircuitCache::new(2);
        let specs = [
            QuerySpec::new(0, 1),
            QuerySpec::new(0, 2),
            QuerySpec::new(1, 1),
        ];
        // A mixed hit/miss/eviction sequence; the invariant must hold
        // after every single lookup.
        for i in [0usize, 0, 1, 2, 1, 0, 2, 2, 1, 0] {
            let spec = specs[i];
            cache.fetch(spec, || compile(spec));
            let stats = cache.stats();
            assert_eq!(stats.lookups, stats.hits + stats.misses);
            assert!(stats.evictions <= stats.misses);
        }
        assert_eq!(cache.stats().lookups, 10);
    }
}
