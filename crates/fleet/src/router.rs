//! Deterministic request placement across fleet shards.
//!
//! Placement is pure arithmetic over the request's [`QuerySpec`] and
//! the shards' *virtual-time* state, so the same arrival stream always
//! lands on the same shards regardless of host parallelism:
//!
//! 1. **Rendezvous replicas** — every spec gets a rendezvous
//!    (highest-random-weight) candidate list of `replication` distinct
//!    shards; the same spec always produces the same ordered list. The
//!    controller memoizes each offered spec's list on first sight, so a
//!    placement costs one hash lookup plus a room probe per candidate,
//!    not a fresh hash-and-sort over every shard.
//! 2. **Cache-affine tie-breaking** — among candidates with queue
//!    room, a shard whose [`qram_service::QramService::cache_contains`]
//!    probe already holds the compiled circuit wins over the primary
//!    (a [`RouteReason::Replica`] placement); otherwise the first
//!    candidate with room wins ([`RouteReason::Hash`]).

use std::borrow::Cow;
use std::collections::HashMap;

use qram_service::{QramService, QuerySpec, Recorder};
use qram_telemetry::{fnv1a_64, RouteReason};

/// Where a request was placed and why — mirrored into the routed
/// request's `SpanStage::Route` span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteDecision {
    /// Index of the destination shard.
    pub shard: usize,
    /// Why that shard won.
    pub reason: RouteReason,
}

/// Deterministic consistent-hash router with cache-affine replica
/// selection.
#[derive(Debug, Clone)]
pub struct Router {
    shards: usize,
    replication: usize,
    /// [`Router::replica_set`] of every memoized spec. Only ever looked
    /// up, never iterated, so its hash order reaches no decision. A
    /// fleet serves one address width, so it holds a handful of specs.
    memo: HashMap<QuerySpec, Vec<usize>>,
}

/// Canonical routing key for a spec: FNV-1a over its debug rendering,
/// which covers family, shape, optimization preset, and encoding.
fn spec_key(spec: &QuerySpec) -> u64 {
    fnv1a_64(format!("{:?}", spec.arch).into_bytes())
}

impl Router {
    /// A router over `shards` shards replicating each spec across
    /// `replication` rendezvous candidates (clamped to `1..=shards`).
    pub fn new(shards: usize, replication: usize) -> Self {
        assert!(shards > 0, "a fleet needs at least one shard");
        Router {
            shards,
            replication: replication.clamp(1, shards),
            memo: HashMap::new(),
        }
    }

    /// Computes and keeps `spec`'s candidate list unless it is already
    /// kept, so every later [`Router::route`] of `spec` looks it up.
    pub(crate) fn memoize(&mut self, spec: QuerySpec) {
        if !self.memo.contains_key(&spec) {
            let candidates = self.replica_set(&spec);
            self.memo.insert(spec, candidates);
        }
    }

    /// The ordered rendezvous candidate list for `spec`: shards scored
    /// by `fnv1a(key || shard)`, highest first (ties broken by lower
    /// shard id), truncated to the replication factor.
    pub fn replica_set(&self, spec: &QuerySpec) -> Vec<usize> {
        let key = spec_key(spec);
        let mut scored: Vec<(u64, usize)> = (0..self.shards)
            .map(|sid| {
                let mut bytes = key.to_le_bytes().to_vec();
                bytes.extend_from_slice(&(sid as u64).to_le_bytes());
                (fnv1a_64(bytes), sid)
            })
            .collect();
        scored.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        scored
            .into_iter()
            .take(self.replication)
            .map(|(_, sid)| sid)
            .collect()
    }

    /// Places `spec` on a shard with queue room, or `None` when every
    /// candidate shard is full (the request waits at the front door).
    ///
    /// A rendezvous candidate whose cache already holds the compiled
    /// circuit wins; otherwise the first candidate with room. A spec
    /// that was never memoized gets its candidate list computed afresh.
    pub fn route<R: Recorder>(
        &self,
        spec: &QuerySpec,
        shards: &[QramService<R>],
    ) -> Option<RouteDecision> {
        debug_assert_eq!(shards.len(), self.shards);
        let room = |sid: usize| shards[sid].in_system() < shards[sid].config().queue_capacity;
        let candidates = match self.memo.get(spec) {
            Some(kept) => Cow::Borrowed(kept.as_slice()),
            None => Cow::Owned(self.replica_set(spec)),
        };
        let primary = candidates.iter().copied().find(|&sid| room(sid))?;
        let cached = candidates
            .iter()
            .copied()
            .find(|&sid| room(sid) && shards[sid].cache_contains(spec));
        Some(match cached {
            Some(c) if c != primary => RouteDecision {
                shard: c,
                reason: RouteReason::Replica,
            },
            _ => RouteDecision {
                shard: primary,
                reason: RouteReason::Hash,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qram_core::ArchSpec;
    use qram_service::ServiceConfig;

    /// The capacity planner's five n = 4 families
    /// (`qram_plan::planned_families(4, UNLIMITED_BUDGET)`) with their
    /// candidate lists at 4 shards × replication 2, hostbench
    /// `fleet-overload`'s topology. The lists are literals, so a change
    /// to `spec_key` or to the scoring fails here.
    fn planned_n4() -> [(QuerySpec, [usize; 2]); 5] {
        [
            (QuerySpec::of(ArchSpec::Sqc { n: 4 }), [0, 1]),
            (QuerySpec::of(ArchSpec::Fanout { m: 4 }), [3, 2]),
            (
                QuerySpec::of(ArchSpec::BucketBrigade { k: 1, m: 3 }),
                [3, 2],
            ),
            (QuerySpec::of(ArchSpec::SelectSwap { k: 1, m: 3 }), [0, 1]),
            (QuerySpec::new(2, 2), [0, 1]),
        ]
    }

    #[test]
    fn planned_family_replica_sets_are_pinned() {
        let router = Router::new(4, 2);
        for (spec, candidates) in planned_n4() {
            assert_eq!(router.replica_set(&spec), candidates, "{spec:?}");
        }
    }

    #[test]
    fn route_follows_the_pinned_candidates_through_a_warm_memo() {
        let memory = qram_core::Memory::from_bits((0..16).map(|i| i % 3 == 0));
        // One slot per shard: a single request fills it.
        let config = ServiceConfig::default()
            .with_shots(0)
            .with_queue_capacity(1);
        let mut warm = Router::new(4, 2);
        for (spec, _) in planned_n4() {
            warm.memoize(spec);
        }
        let cold = Router::new(4, 2);
        let decision = |shard, reason| Some(RouteDecision { shard, reason });
        for (spec, [first, second]) in planned_n4() {
            let mut shards: Vec<QramService> = (0..4)
                .map(|_| QramService::new(memory.clone(), config))
                .collect();
            let route = |shards: &[QramService]| {
                let placed = warm.route(&spec, shards);
                assert_eq!(
                    placed,
                    cold.route(&spec, shards),
                    "{spec:?}: memo hit != miss"
                );
                placed
            };
            let serve = |shard: &mut QramService| {
                let arrival = shard.now();
                assert!(shard.try_submit_at(1, spec, arrival).is_accepted());
            };
            assert_eq!(route(&shards), decision(first, RouteReason::Hash));
            // A cache-holding second candidate beats the primary...
            serve(&mut shards[second]);
            shards[second].run_until_idle();
            assert!(shards[second].cache_contains(&spec));
            assert_eq!(route(&shards), decision(second, RouteReason::Replica));
            // ...unless the primary holds it too.
            serve(&mut shards[first]);
            shards[first].run_until_idle();
            assert_eq!(route(&shards), decision(first, RouteReason::Hash));
            // A full primary leaves the second as the first with room.
            serve(&mut shards[first]);
            assert_eq!(route(&shards), decision(second, RouteReason::Hash));
            // Both candidates full: the other shards' room does not count.
            serve(&mut shards[second]);
            assert_eq!(route(&shards), None);
        }
    }

    #[test]
    fn replica_sets_are_deterministic_and_distinct() {
        let router = Router::new(8, 3);
        let spec = QuerySpec::new(1, 4);
        let a = router.replica_set(&spec);
        let b = router.replica_set(&spec);
        assert_eq!(a, b, "same spec must always produce the same candidates");
        assert_eq!(a.len(), 3);
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 3, "candidates must be distinct shards");
    }

    #[test]
    fn replication_factor_is_clamped_to_fleet_size() {
        let router = Router::new(2, 9);
        assert_eq!(router.replica_set(&QuerySpec::new(1, 2)).len(), 2);
        let single = Router::new(1, 0);
        assert_eq!(single.replica_set(&QuerySpec::new(1, 2)), vec![0]);
    }

    #[test]
    fn distinct_specs_spread_over_shards() {
        let router = Router::new(4, 1);
        let mut hit = [false; 4];
        for spec in qram_service::mixed_arch_specs(4) {
            hit[router.replica_set(&spec)[0]] = true;
        }
        assert!(
            hit.iter().filter(|&&h| h).count() >= 2,
            "the family mix should not all hash to one shard: {hit:?}"
        );
    }

    #[test]
    fn unpinned_spec_routes_to_its_primary_with_hash_reason() {
        let router = Router::new(3, 2);
        let spec = QuerySpec::of(ArchSpec::BucketBrigade { k: 1, m: 2 });
        let memory = qram_core::Memory::from_bits((0..8).map(|i| i % 2 == 0));
        let shards: Vec<QramService> = (0..3)
            .map(|_| QramService::new(memory.clone(), Default::default()))
            .collect();
        let decision = router.route(&spec, &shards).unwrap();
        assert_eq!(decision.shard, router.replica_set(&spec)[0]);
        assert_eq!(decision.reason, RouteReason::Hash);
    }
}
