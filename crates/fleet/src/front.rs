//! The fleet front door: per-tenant sub-queues with SLO-aware shedding.
//!
//! A bare [`qram_service::QramService`] has a single global bounded
//! admission queue: under overload the newest arrival is dropped,
//! whatever its class. The fleet front door replaces that with
//! per-tenant FIFO sub-queues drained round-robin (see
//! [`crate::FleetController`]: each pass forwards at most one head per
//! tenant in ascending id, and every pass starts again at the lowest
//! id), and an overflow policy that can pick its victim by *retention
//! value* instead of arrival order: [`ShedPolicy::DeadlinePriority`]
//! first trims zombies whose deadline has already passed, then drops
//! batch work, then best-effort, and keeps live interactive requests
//! for last.
//!
//! The door holds each parked request once and keeps it in ordered
//! indexes — per-tenant FIFOs, one shed order per rank and one deadline
//! order for the zombie test — so `push`, `pop` and the victim choice
//! each cost O(log n) in the parked count, not a pass over every parked
//! request. A linear-scan reference door in the tests checks that the
//! indexes pick exactly the victim the policy's total order names.
//!
//! Everything here reads only virtual-time state — queue contents,
//! arrival instants, per-request SLO tags — so every decision is
//! bit-reproducible across host-parallelism knobs.

use std::collections::{BTreeMap, BTreeSet};

use qram_service::{QuerySpec, SloClass, TenantId, Ticks};

/// What the front door does when an arrival overflows its capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShedPolicy {
    /// Drop the newest queued request (the incoming one) — the bare
    /// service's bounded-queue behavior, lifted to the fleet door.
    TailDrop,
    /// Drop the queued request with the least retention value. Zombies
    /// — requests whose deadline has already passed, which can no
    /// longer deliver any SLO value — go first. Among live requests:
    /// lowest [`SloClass::shed_rank`] first (`Batch`, then
    /// `BestEffort`, then `Interactive`); within a rank the *earliest*
    /// absolute deadline — under overload that request is the most
    /// likely to miss anyway, and for deadline-less classes
    /// (deadline = ∞) the rule degrades to dropping the oldest
    /// arrival, which clears head-of-line blocking in front of
    /// deadline work. The default.
    #[default]
    DeadlinePriority,
}

impl ShedPolicy {
    /// Stable label used in reports and JSON exports.
    pub fn label(&self) -> &'static str {
        match self {
            ShedPolicy::TailDrop => "tail-drop",
            ShedPolicy::DeadlinePriority => "deadline-priority",
        }
    }
}

/// One request parked at the front door, waiting for its routed shard
/// to have room.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pending {
    /// Fleet-wide sequence number (offer order).
    pub seq: u64,
    /// The memory address to read.
    pub address: u64,
    /// The compilation profile serving the request.
    pub spec: QuerySpec,
    /// Arrival instant at the fleet door on the virtual clock.
    pub arrival: Ticks,
    /// The tenant the request is served on behalf of.
    pub tenant: TenantId,
    /// The SLO class the request was offered under.
    pub slo: SloClass,
}

/// A parked request's place in the deadline-priority shed orders:
/// absolute deadline, then arrival, then `seq` (unique, so it settles
/// every tie). Ascending order is shed order.
type ShedSlot = (Ticks, Ticks, u64);

impl Pending {
    /// Absolute completion deadline on the virtual clock
    /// (`Ticks::MAX` for classes without one, and where `arrival +
    /// deadline` saturates) — the shed order's slack measure.
    fn absolute_deadline(&self) -> Ticks {
        match self.slo.deadline() {
            Some(d) => self.arrival.saturating_add(d),
            None => Ticks::MAX,
        }
    }

    /// This request's place in its rank's shed order.
    fn shed_slot(&self) -> ShedSlot {
        (self.absolute_deadline(), self.arrival, self.seq)
    }
}

/// Per-tenant FIFO sub-queues with a total-depth bound enforced by the
/// controller (the door itself never refuses a push — overflow
/// resolution picks the victim *after* the arrival joins, so an
/// incoming high-retention request can displace a queued low-retention
/// one).
///
/// Every parked request is held once, by `seq`, and indexed three ways
/// so that `push`, `pop` and `shed_victim` each cost O(log n) in the
/// parked count:
/// - per-tenant FIFOs of `seq`s (the controller pushes offers in
///   ascending `seq`, so a tenant's smallest `seq` is its head);
/// - one ordered set of [`ShedSlot`]s per [`SloClass::shed_rank`]: with
///   no zombie parked, the first slot of the lowest non-empty rank is
///   the [`ShedPolicy::DeadlinePriority`] victim;
/// - one ordered set of the slots of requests with a deadline: a zombie
///   is parked iff its first slot's deadline is before `now`, and that
///   slot is then the victim (earliest deadline, then arrival, then
///   `seq`).
///
/// The [`ShedPolicy::TailDrop`] victim is the largest parked `seq`.
#[derive(Debug, Clone, Default)]
pub(crate) struct FrontDoor {
    parked: BTreeMap<u64, Pending>,
    /// A drained tenant keeps its empty set.
    queues: BTreeMap<TenantId, BTreeSet<u64>>,
    ranks: BTreeMap<u8, BTreeSet<ShedSlot>>,
    deadlines: BTreeSet<ShedSlot>,
}

impl FrontDoor {
    /// Total requests parked across all tenant sub-queues.
    pub(crate) fn depth(&self) -> usize {
        self.parked.len()
    }

    /// Appends a request to its tenant's sub-queue.
    pub(crate) fn push(&mut self, pending: Pending) {
        let queue = self.queues.entry(pending.tenant).or_default();
        debug_assert!(
            queue.last().is_none_or(|&last| last < pending.seq),
            "a tenant's offers arrive in ascending seq"
        );
        queue.insert(pending.seq);
        let slot = pending.shed_slot();
        self.ranks
            .entry(pending.slo.shed_rank())
            .or_default()
            .insert(slot);
        if pending.slo.deadline().is_some() {
            self.deadlines.insert(slot);
        }
        self.parked.insert(pending.seq, pending);
    }

    /// Tenants with a non-empty sub-queue, in ascending id order — the
    /// order of one round-robin pass.
    pub(crate) fn tenants(&self) -> Vec<TenantId> {
        self.queues
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .map(|(&t, _)| t)
            .collect()
    }

    /// The head of `tenant`'s sub-queue, if any.
    pub(crate) fn head(&self, tenant: TenantId) -> Option<&Pending> {
        let seq = self.queues.get(&tenant)?.first()?;
        self.parked.get(seq)
    }

    /// Removes and returns the head of `tenant`'s sub-queue.
    pub(crate) fn pop(&mut self, tenant: TenantId) -> Option<Pending> {
        let seq = *self.queues.get(&tenant)?.first()?;
        Some(self.remove(seq))
    }

    /// Removes and returns the overflow victim under `policy` at the
    /// virtual instant `now` (`None` on an empty door).
    pub(crate) fn shed_victim(&mut self, policy: ShedPolicy, now: Ticks) -> Option<Pending> {
        let seq = match policy {
            // The newest offer fleet-wide: the largest sequence number.
            ShedPolicy::TailDrop => *self.parked.last_key_value()?.0,
            ShedPolicy::DeadlinePriority => match self.deadlines.first() {
                Some(&(deadline, _, seq)) if deadline < now => seq,
                _ => self.ranks.values().find_map(|rank| rank.first())?.2,
            },
        };
        Some(self.remove(seq))
    }

    /// Removes the parked request `seq` from the door and every index.
    fn remove(&mut self, seq: u64) -> Pending {
        let pending = self.parked.remove(&seq).expect("seq is parked");
        let slot = pending.shed_slot();
        self.queues
            .get_mut(&pending.tenant)
            .expect("a parked request's tenant has a queue")
            .remove(&seq);
        self.ranks
            .get_mut(&pending.slo.shed_rank())
            .expect("a parked request's rank has a set")
            .remove(&slot);
        if pending.slo.deadline().is_some() {
            self.deadlines.remove(&slot);
        }
        pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cmp::Reverse;
    use std::collections::VecDeque;

    /// The reference door: plain per-tenant `VecDeque`s, the victim
    /// found by `max_by_key` over every parked request and removed by
    /// position. Linear, but plainly the policy's order, so the indexed
    /// door is checked against it.
    #[derive(Debug, Default)]
    struct ScanDoor {
        queues: BTreeMap<TenantId, VecDeque<Pending>>,
        depth: usize,
    }

    /// Shed preference key: the *maximum* over parked requests is the
    /// victim. Zombies (deadline already missed at `now`) go first —
    /// earliest deadline, then earliest arrival. Live requests order by
    /// lowest retention rank, then earliest absolute deadline (most
    /// doomed), then earliest arrival (stalest), then earliest
    /// sequence number.
    #[allow(clippy::type_complexity)]
    fn shed_key(
        p: &Pending,
        now: Ticks,
    ) -> (
        bool,
        Reverse<u8>,
        Reverse<Ticks>,
        Reverse<Ticks>,
        Reverse<u64>,
    ) {
        let expired = now > p.absolute_deadline();
        (
            expired,
            Reverse(if expired { 0 } else { p.slo.shed_rank() }),
            Reverse(p.absolute_deadline()),
            Reverse(p.arrival),
            Reverse(p.seq),
        )
    }

    impl ScanDoor {
        fn push(&mut self, pending: Pending) {
            self.queues
                .entry(pending.tenant)
                .or_default()
                .push_back(pending);
            self.depth += 1;
        }

        fn tenants(&self) -> Vec<TenantId> {
            self.queues
                .iter()
                .filter(|(_, q)| !q.is_empty())
                .map(|(&t, _)| t)
                .collect()
        }

        fn head(&self, tenant: TenantId) -> Option<&Pending> {
            self.queues.get(&tenant).and_then(|q| q.front())
        }

        fn pop(&mut self, tenant: TenantId) -> Option<Pending> {
            let popped = self.queues.get_mut(&tenant)?.pop_front();
            if popped.is_some() {
                self.depth -= 1;
            }
            popped
        }

        fn shed_victim(&mut self, policy: ShedPolicy, now: Ticks) -> Option<Pending> {
            let victim = match policy {
                ShedPolicy::TailDrop => self
                    .queues
                    .values()
                    .flatten()
                    .max_by_key(|p| p.seq)
                    .copied()?,
                ShedPolicy::DeadlinePriority => self
                    .queues
                    .values()
                    .flatten()
                    .max_by_key(|p| shed_key(p, now))
                    .copied()?,
            };
            let queue = self.queues.get_mut(&victim.tenant).unwrap();
            let pos = queue.iter().position(|p| p.seq == victim.seq).unwrap();
            queue.remove(pos);
            self.depth -= 1;
            Some(victim)
        }
    }

    /// A random SLO class. Interactive deadlines run from 0 (a zombie
    /// one tick after arrival) through short ones the clock overtakes
    /// to ones where `arrival + deadline` saturates at `Ticks::MAX`.
    fn random_slo(rng: &mut StdRng, arrival: Ticks) -> SloClass {
        let deadline = match rng.random_range(0..6u32) {
            0 => return SloClass::Batch,
            1 => return SloClass::BestEffort,
            2 => 0,
            3 => rng.random_range(0..200),
            4 => Ticks::MAX - arrival - rng.random_range(0..2u64),
            _ => Ticks::MAX - rng.random_range(0..2u64),
        };
        SloClass::Interactive { deadline }
    }

    #[test]
    fn indexed_door_matches_the_linear_scan() {
        for case in 0..400u64 {
            let mut rng = StdRng::seed_from_u64(case);
            let tenants = rng.random_range(1..6u32);
            let policy = if case % 2 == 0 {
                ShedPolicy::DeadlinePriority
            } else {
                ShedPolicy::TailDrop
            };
            let (mut door, mut scan) = (FrontDoor::default(), ScanDoor::default());
            let (mut now, mut seq): (Ticks, u64) = (0, 0);
            for _ in 0..300 {
                // Nondecreasing instants: mostly small steps, so several
                // offers share an instant and short deadlines expire.
                now += match rng.random_range(0..10u32) {
                    0..=3 => 0,
                    4..=8 => rng.random_range(1..40),
                    _ => rng.random_range(40..400),
                };
                // Pushes outnumber removals, so doors grow to tens of
                // requests and the ordered sets reach several levels.
                let removed = match rng.random_range(0..10u32) {
                    0..=5 => {
                        // Arrivals trail the clock by a random lag, so
                        // arrival order is not `seq` order.
                        let arrival = now.saturating_sub(rng.random_range(0..30));
                        let pending = Pending {
                            seq,
                            address: seq,
                            spec: QuerySpec::new(1, 2),
                            arrival,
                            tenant: TenantId(rng.random_range(0..tenants)),
                            slo: random_slo(&mut rng, arrival),
                        };
                        seq += 1;
                        door.push(pending);
                        scan.push(pending);
                        None
                    }
                    6..=7 => {
                        let tenant = TenantId(rng.random_range(0..tenants));
                        let popped = door.pop(tenant);
                        assert_eq!(popped, scan.pop(tenant), "case {case}: pop");
                        popped
                    }
                    _ => {
                        let shed = door.shed_victim(policy, now);
                        assert_eq!(shed, scan.shed_victim(policy, now), "case {case}: shed");
                        shed
                    }
                };
                assert_eq!(
                    door.depth(),
                    scan.depth,
                    "case {case}: depth after {removed:?}"
                );
                assert_eq!(door.tenants(), scan.tenants(), "case {case}: tenants");
                for t in 0..tenants {
                    let t = TenantId(t);
                    assert_eq!(door.head(t), scan.head(t), "case {case}: head of {t:?}");
                }
            }
        }
    }

    fn pending(seq: u64, arrival: Ticks, tenant: u32, slo: SloClass) -> Pending {
        Pending {
            seq,
            address: seq,
            spec: QuerySpec::new(1, 2),
            arrival,
            tenant: TenantId(tenant),
            slo,
        }
    }

    #[test]
    fn tail_drop_sheds_the_newest_offer() {
        let mut door = FrontDoor::default();
        door.push(pending(0, 10, 0, SloClass::Interactive { deadline: 5 }));
        door.push(pending(1, 20, 1, SloClass::Batch));
        door.push(pending(2, 30, 0, SloClass::Interactive { deadline: 5 }));
        let victim = door.shed_victim(ShedPolicy::TailDrop, 0).unwrap();
        assert_eq!(victim.seq, 2);
        assert_eq!(door.depth(), 2);
    }

    #[test]
    fn deadline_priority_sheds_batch_before_best_effort_before_interactive() {
        let mut door = FrontDoor::default();
        door.push(pending(0, 0, 0, SloClass::Interactive { deadline: 100 }));
        door.push(pending(1, 0, 1, SloClass::BestEffort));
        door.push(pending(2, 0, 2, SloClass::Batch));
        assert_eq!(
            door.shed_victim(ShedPolicy::DeadlinePriority, 0)
                .unwrap()
                .seq,
            2
        );
        assert_eq!(
            door.shed_victim(ShedPolicy::DeadlinePriority, 0)
                .unwrap()
                .seq,
            1
        );
        assert_eq!(
            door.shed_victim(ShedPolicy::DeadlinePriority, 0)
                .unwrap()
                .seq,
            0
        );
        assert!(door.shed_victim(ShedPolicy::DeadlinePriority, 0).is_none());
    }

    #[test]
    fn deadline_priority_sheds_the_most_doomed_interactive_request() {
        let mut door = FrontDoor::default();
        // Same class and arrival: the tightest deadline (most likely
        // already doomed under overload) goes first.
        door.push(pending(0, 0, 0, SloClass::Interactive { deadline: 50 }));
        door.push(pending(1, 0, 1, SloClass::Interactive { deadline: 5_000 }));
        assert_eq!(
            door.shed_victim(ShedPolicy::DeadlinePriority, 0)
                .unwrap()
                .seq,
            0
        );
        // Equal deadlines: the stalest (earliest) arrival goes first.
        door.push(pending(2, 40, 1, SloClass::Interactive { deadline: 5_000 }));
        assert_eq!(
            door.shed_victim(ShedPolicy::DeadlinePriority, 0)
                .unwrap()
                .seq,
            1
        );
    }

    #[test]
    fn deadline_priority_sheds_the_stalest_batch_request_first() {
        // Deadline-less classes degrade to oldest-first: the batch
        // request blocking the head of the line is the victim.
        let mut door = FrontDoor::default();
        door.push(pending(0, 10, 0, SloClass::Batch));
        door.push(pending(1, 20, 0, SloClass::Batch));
        door.push(pending(2, 30, 1, SloClass::Batch));
        assert_eq!(
            door.shed_victim(ShedPolicy::DeadlinePriority, 0)
                .unwrap()
                .seq,
            0
        );
        assert_eq!(
            door.shed_victim(ShedPolicy::DeadlinePriority, 0)
                .unwrap()
                .seq,
            1
        );
    }

    #[test]
    fn deadline_priority_trims_zombies_before_live_batch_work() {
        let mut door = FrontDoor::default();
        door.push(pending(0, 0, 0, SloClass::Batch));
        door.push(pending(1, 0, 1, SloClass::Interactive { deadline: 100 }));
        door.push(pending(2, 0, 2, SloClass::Interactive { deadline: 9_000 }));
        // At now = 500 the first interactive request has already missed
        // its deadline: completing it has no SLO value, so it goes
        // before even the batch request.
        assert_eq!(
            door.shed_victim(ShedPolicy::DeadlinePriority, 500)
                .unwrap()
                .seq,
            1
        );
        // With no zombies left, the live ordering resumes: batch first.
        assert_eq!(
            door.shed_victim(ShedPolicy::DeadlinePriority, 500)
                .unwrap()
                .seq,
            0
        );
        assert_eq!(
            door.shed_victim(ShedPolicy::DeadlinePriority, 500)
                .unwrap()
                .seq,
            2
        );
    }

    #[test]
    fn round_robin_rotation_is_sorted_by_tenant_id() {
        let mut door = FrontDoor::default();
        door.push(pending(0, 0, 7, SloClass::BestEffort));
        door.push(pending(1, 0, 2, SloClass::BestEffort));
        door.push(pending(2, 0, 4, SloClass::BestEffort));
        assert_eq!(door.tenants(), vec![TenantId(2), TenantId(4), TenantId(7)]);
        assert_eq!(door.head(TenantId(4)).unwrap().seq, 2);
        assert_eq!(door.pop(TenantId(4)).unwrap().seq, 2);
        assert_eq!(door.tenants(), vec![TenantId(2), TenantId(7)]);
        assert!(door.pop(TenantId(4)).is_none());
    }
}
