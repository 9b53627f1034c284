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
//! Everything here reads only virtual-time state — queue contents,
//! arrival instants, per-request SLO tags — so every decision is
//! bit-reproducible across host-parallelism knobs.

use std::collections::{BTreeMap, VecDeque};

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

impl Pending {
    /// Absolute completion deadline on the virtual clock
    /// (`Ticks::MAX` for classes without one) — the shed comparator's
    /// slack measure.
    fn absolute_deadline(&self) -> Ticks {
        match self.slo.deadline() {
            Some(d) => self.arrival.saturating_add(d),
            None => Ticks::MAX,
        }
    }

    /// Whether the request's deadline has already passed at `now` —
    /// completing it has zero SLO value (a zombie).
    fn expired(&self, now: Ticks) -> bool {
        now > self.absolute_deadline()
    }

    /// Shed preference key: the *maximum* over queued requests is the
    /// victim. Zombies (deadline already missed at `now`) go first —
    /// earliest deadline, then earliest arrival. Live requests order by
    /// lowest retention rank, then earliest absolute deadline (most
    /// doomed), then earliest arrival (stalest), then earliest
    /// sequence number.
    #[allow(clippy::type_complexity)]
    fn shed_key(
        &self,
        now: Ticks,
    ) -> (
        bool,
        std::cmp::Reverse<u8>,
        std::cmp::Reverse<Ticks>,
        std::cmp::Reverse<Ticks>,
        std::cmp::Reverse<u64>,
    ) {
        let expired = self.expired(now);
        (
            expired,
            std::cmp::Reverse(if expired { 0 } else { self.slo.shed_rank() }),
            std::cmp::Reverse(self.absolute_deadline()),
            std::cmp::Reverse(self.arrival),
            std::cmp::Reverse(self.seq),
        )
    }
}

/// Per-tenant FIFO sub-queues with a total-depth bound enforced by the
/// controller (the door itself never refuses a push — overflow
/// resolution picks the victim *after* the arrival joins, so an
/// incoming high-retention request can displace a queued low-retention
/// one).
#[derive(Debug, Clone, Default)]
pub(crate) struct FrontDoor {
    queues: BTreeMap<TenantId, VecDeque<Pending>>,
    depth: usize,
}

impl FrontDoor {
    /// Total requests parked across all tenant sub-queues.
    pub(crate) fn depth(&self) -> usize {
        self.depth
    }

    /// Appends a request to its tenant's sub-queue.
    pub(crate) fn push(&mut self, pending: Pending) {
        self.queues
            .entry(pending.tenant)
            .or_default()
            .push_back(pending);
        self.depth += 1;
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
        self.queues.get(&tenant).and_then(|q| q.front())
    }

    /// Removes and returns the head of `tenant`'s sub-queue.
    pub(crate) fn pop(&mut self, tenant: TenantId) -> Option<Pending> {
        let popped = self.queues.get_mut(&tenant)?.pop_front();
        if popped.is_some() {
            self.depth -= 1;
        }
        popped
    }

    /// Removes and returns the overflow victim under `policy` at the
    /// virtual instant `now` (`None` on an empty door).
    pub(crate) fn shed_victim(&mut self, policy: ShedPolicy, now: Ticks) -> Option<Pending> {
        let victim = match policy {
            // The newest offer fleet-wide: the largest sequence number.
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
                .max_by_key(|p| p.shed_key(now))
                .copied()?,
        };
        let queue = self
            .queues
            .get_mut(&victim.tenant)
            .expect("victim's tenant queue exists");
        let pos = queue
            .iter()
            .position(|p| p.seq == victim.seq)
            .expect("victim is queued");
        queue.remove(pos);
        self.depth -= 1;
        Some(victim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
