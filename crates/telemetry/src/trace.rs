//! The span tracer: per-request virtual-time intervals for every
//! pipeline stage, exported as a canonically-ordered event log with an
//! fnv1a digest.
//!
//! Spans deliberately carry **only knob-invariant facts** — virtual
//! times, request ids, group keys, shot counts, execution-unit indices.
//! Worker counts and other host-parallelism settings never appear in a
//! span, because the whole point of the digest is to be bit-identical
//! across them: the same workload must produce the same trace no matter
//! how the host parallelized it.

use crate::{fnv1a_64, Json, Ticks};

/// Request ids at or above this bit are synthetic: terminal admission
/// spans for shed/rejected arrivals, which never receive a real service
/// id. The low bits carry the offered-arrival ordinal.
pub const SYNTHETIC_REQUEST_BASE: u64 = 1 << 63;

/// How an arrival left the admission decision.
///
/// The discriminants of this and the other payload enums below are the
/// tags folded into trace digests: variants are appended, never
/// renumbered, so existing digests stay stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionOutcome {
    /// Admitted into the pending queue.
    Accepted = 0,
    /// Dropped by the admission controller (queue at capacity).
    Shed = 1,
    /// Refused as malformed (spec/address validation failed).
    Rejected = 2,
}

impl AdmissionOutcome {
    /// Stable label used in JSON exports.
    pub fn label(self) -> &'static str {
        match self {
            AdmissionOutcome::Accepted => "accepted",
            AdmissionOutcome::Shed => "shed",
            AdmissionOutcome::Rejected => "rejected",
        }
    }
}

/// Why a batch fired when it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FireReason {
    /// The group reached the batch-size limit.
    Full = 0,
    /// The group's oldest request hit its batching deadline.
    Deadline = 1,
    /// Work conservation: units were idle, so the oldest group fired
    /// early rather than letting capacity go unused.
    WorkConserving = 2,
    /// End-of-run drain flushed the remaining groups.
    Drain = 3,
    /// Cache-affine work conservation: a free unit was given to a
    /// younger group whose compiled circuit was cache-resident (zero
    /// compile ticks) in preference to the oldest pending group.
    CacheAffine = 4,
}

impl FireReason {
    /// Stable label used in JSON exports.
    pub fn label(self) -> &'static str {
        match self {
            FireReason::Full => "full",
            FireReason::Deadline => "deadline",
            FireReason::WorkConserving => "work-conserving",
            FireReason::Drain => "drain",
            FireReason::CacheAffine => "cache-affine",
        }
    }
}

/// Why the fleet router placed a request on the shard it did. The
/// explicit discriminants are digested into every route span, so they
/// never change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteReason {
    /// Deterministic consistent hash of the request's spec key.
    Hash = 0,
    /// Replicated hot spec: the winner among the replica set, chosen by
    /// the cache-residency probe (falling back to the lowest shard id).
    Replica = 2,
}

impl RouteReason {
    /// Stable label used in JSON exports.
    pub fn label(self) -> &'static str {
        match self {
            RouteReason::Hash => "hash",
            RouteReason::Replica => "replica",
        }
    }
}

/// Which verification level the compile stage ran under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyTag {
    /// Structural checks only.
    Structural = 0,
    /// Full semantic (deep) verification.
    Deep = 1,
}

impl VerifyTag {
    /// Stable label used in JSON exports.
    pub fn label(self) -> &'static str {
        match self {
            VerifyTag::Structural => "structural",
            VerifyTag::Deep => "deep",
        }
    }
}

/// The stage a span covers, with its stage-specific payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpanStage {
    /// The admission decision (instantaneous on the virtual clock).
    Admission {
        /// Outcome of the decision.
        outcome: AdmissionOutcome,
        /// Requests in the system when the decision was made.
        queue_depth: u64,
    },
    /// Time spent waiting in the batching queue and for an execution
    /// unit, after arrival and excluding compile time.
    QueueWait {
        /// Batch group key (the spec's architecture name).
        group: String,
    },
    /// Batch formation: a group left the pending queue.
    BatchForm {
        /// Batch group key (the spec's architecture name).
        group: String,
        /// Why the batch fired now.
        reason: FireReason,
        /// Requests in the batch.
        size: u64,
    },
    /// The compile stage for a batch (zero-width on cache hits).
    Compile {
        /// Batch group key (the spec's architecture name).
        group: String,
        /// Whether the compiled circuit came from the cache.
        cache_hit: bool,
        /// Verification level the compiler ran under.
        verify: VerifyTag,
    },
    /// Occupancy of an execution unit by one request.
    Execute {
        /// Index of the execution unit that served the request.
        unit: u64,
        /// Shots sampled for the request.
        shots: u64,
    },
    /// The fleet router's placement decision for one request
    /// (instantaneous on the virtual clock). Appended at rank 5, never
    /// renumbered: single-service trace digests stay stable.
    Route {
        /// Shard the request was placed on.
        shard: u64,
        /// Why the router picked that shard.
        reason: RouteReason,
    },
}

impl SpanStage {
    /// Stable stage name used in JSON exports.
    pub fn name(&self) -> &'static str {
        match self {
            SpanStage::Admission { .. } => "admission",
            SpanStage::QueueWait { .. } => "queue_wait",
            SpanStage::BatchForm { .. } => "batch_form",
            SpanStage::Compile { .. } => "compile",
            SpanStage::Execute { .. } => "execute",
            SpanStage::Route { .. } => "route",
        }
    }

    /// Pipeline order of the stage, used as a canonical-sort tiebreak.
    fn rank(&self) -> u8 {
        match self {
            SpanStage::Admission { .. } => 0,
            SpanStage::QueueWait { .. } => 1,
            SpanStage::BatchForm { .. } => 2,
            SpanStage::Compile { .. } => 3,
            SpanStage::Execute { .. } => 4,
            // Appended, never renumbered: existing trace digests stay
            // stable.
            SpanStage::Route { .. } => 5,
        }
    }

    fn digest_bytes(&self, out: &mut Vec<u8>) {
        out.push(self.rank());
        match self {
            SpanStage::Admission {
                outcome,
                queue_depth,
            } => {
                out.push(*outcome as u8);
                out.extend_from_slice(&queue_depth.to_le_bytes());
            }
            SpanStage::QueueWait { group } => push_str(out, group),
            SpanStage::BatchForm {
                group,
                reason,
                size,
            } => {
                push_str(out, group);
                out.push(*reason as u8);
                out.extend_from_slice(&size.to_le_bytes());
            }
            SpanStage::Compile {
                group,
                cache_hit,
                verify,
            } => {
                push_str(out, group);
                out.push(u8::from(*cache_hit));
                out.push(*verify as u8);
            }
            SpanStage::Execute { unit, shots } => {
                out.extend_from_slice(&unit.to_le_bytes());
                out.extend_from_slice(&shots.to_le_bytes());
            }
            SpanStage::Route { shard, reason } => {
                out.extend_from_slice(&shard.to_le_bytes());
                out.push(*reason as u8);
            }
        }
    }
}

/// One virtual-time interval in the life of a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Request id (or a [`SYNTHETIC_REQUEST_BASE`]-tagged ordinal for
    /// arrivals that never got one).
    pub request: u64,
    /// Interval start on the virtual clock.
    pub start: Ticks,
    /// Interval end on the virtual clock (equal to `start` for
    /// instantaneous events such as admission decisions).
    pub end: Ticks,
    /// The pipeline stage this span covers.
    pub stage: SpanStage,
}

impl SpanEvent {
    fn sort_key(&self) -> (Ticks, u64, u8, Ticks) {
        (self.start, self.request, self.stage.rank(), self.end)
    }

    fn digest_bytes(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.start.to_le_bytes());
        out.extend_from_slice(&self.end.to_le_bytes());
        out.extend_from_slice(&self.request.to_le_bytes());
        self.stage.digest_bytes(out);
    }
}

/// One span as a JSON object: id, stage, interval, then the stage's
/// payload. Synthetic request ids are masked back to the
/// offered-arrival ordinal and marked `"terminal"`.
impl From<&SpanEvent> for Json {
    fn from(event: &SpanEvent) -> Json {
        let terminal = event.request >= SYNTHETIC_REQUEST_BASE;
        let request = event.request & !SYNTHETIC_REQUEST_BASE;
        let mut members: Vec<(&str, Json)> = vec![
            ("request", request.into()),
            ("stage", event.stage.name().into()),
            ("start", event.start.into()),
            ("end", event.end.into()),
        ];
        match &event.stage {
            SpanStage::Admission {
                outcome,
                queue_depth,
            } => members.extend([
                ("outcome", outcome.label().into()),
                ("queue_depth", (*queue_depth).into()),
            ]),
            SpanStage::QueueWait { group } => members.push(("group", group.as_str().into())),
            SpanStage::BatchForm {
                group,
                reason,
                size,
            } => members.extend([
                ("group", group.as_str().into()),
                ("reason", reason.label().into()),
                ("size", (*size).into()),
            ]),
            SpanStage::Compile {
                group,
                cache_hit,
                verify,
            } => members.extend([
                ("group", group.as_str().into()),
                ("cache_hit", (*cache_hit).into()),
                ("verify", verify.label().into()),
            ]),
            SpanStage::Execute { unit, shots } => {
                members.extend([("unit", (*unit).into()), ("shots", (*shots).into())]);
            }
            SpanStage::Route { shard, reason } => {
                members.extend([
                    ("shard", (*shard).into()),
                    ("reason", reason.label().into()),
                ]);
            }
        }
        if terminal {
            members.push(("terminal", true.into()));
        }
        Json::object(members)
    }
}

/// Accumulates [`SpanEvent`]s and exports them as a canonically-ordered
/// log with an fnv1a-64 digest.
///
/// Recording sites only ever append from the coordinating thread, so
/// the in-memory order is already deterministic; the canonical sort by
/// `(start, request, stage, end)` additionally makes the exported log
/// and digest independent of *any* recording order, should a future
/// recorder buffer per shard.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanTracer {
    events: Vec<SpanEvent>,
}

impl SpanTracer {
    /// An empty tracer.
    pub fn new() -> Self {
        SpanTracer::default()
    }

    /// Appends one span.
    pub fn push(&mut self, event: SpanEvent) {
        self.events.push(event);
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no spans were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Spans sorted into the canonical `(start, request, stage, end)`
    /// order used for export and digesting.
    pub fn canonical(&self) -> Vec<SpanEvent> {
        let mut sorted = self.events.clone();
        sorted.sort_by_key(SpanEvent::sort_key);
        sorted
    }

    /// fnv1a-64 digest of the canonical event log.
    pub fn digest(&self) -> u64 {
        let mut bytes = Vec::new();
        for event in self.canonical() {
            event.digest_bytes(&mut bytes);
        }
        fnv1a_64(bytes)
    }
}

/// The canonical log as a JSON array of span objects.
impl From<&SpanTracer> for Json {
    fn from(tracer: &SpanTracer) -> Json {
        Json::Array(tracer.canonical().iter().map(Json::from).collect())
    }
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u64).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(request: u64, start: Ticks) -> SpanEvent {
        SpanEvent {
            request,
            start,
            end: start + 10,
            stage: SpanStage::Execute { unit: 0, shots: 4 },
        }
    }

    #[test]
    fn digest_is_order_insensitive() {
        let mut a = SpanTracer::new();
        a.push(span(1, 100));
        a.push(span(2, 50));
        let mut b = SpanTracer::new();
        b.push(span(2, 50));
        b.push(span(1, 100));
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.canonical(), b.canonical());
    }

    #[test]
    fn digest_sees_payload_changes() {
        let mut a = SpanTracer::new();
        a.push(span(1, 100));
        let mut b = SpanTracer::new();
        b.push(SpanEvent {
            stage: SpanStage::Execute { unit: 1, shots: 4 },
            ..span(1, 100)
        });
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn json_masks_synthetic_ids() {
        let mut t = SpanTracer::new();
        t.push(SpanEvent {
            request: SYNTHETIC_REQUEST_BASE + 3,
            start: 7,
            end: 7,
            stage: SpanStage::Admission {
                outcome: AdmissionOutcome::Shed,
                queue_depth: 9,
            },
        });
        let log = Json::parse(&Json::from(&t).pretty()).unwrap();
        let span = r#"{"request":3,"stage":"admission","start":7,"end":7,"outcome":"shed","queue_depth":9,"terminal":true}"#;
        assert_eq!(log.compact(), format!("[{span}]"));
    }

    #[test]
    fn stage_names_are_stable() {
        let stages = [
            SpanStage::Admission {
                outcome: AdmissionOutcome::Accepted,
                queue_depth: 0,
            },
            SpanStage::QueueWait { group: "g".into() },
            SpanStage::BatchForm {
                group: "g".into(),
                reason: FireReason::Deadline,
                size: 2,
            },
            SpanStage::Compile {
                group: "g".into(),
                cache_hit: true,
                verify: VerifyTag::Structural,
            },
            SpanStage::Execute { unit: 1, shots: 2 },
            SpanStage::Route {
                shard: 2,
                reason: RouteReason::Hash,
            },
        ];
        let names: Vec<&str> = stages.iter().map(SpanStage::name).collect();
        assert_eq!(
            names,
            [
                "admission",
                "queue_wait",
                "batch_form",
                "compile",
                "execute",
                "route"
            ]
        );
    }

    #[test]
    fn route_spans_digest_shard_and_reason() {
        let route = |shard, reason| {
            let mut t = SpanTracer::new();
            t.push(SpanEvent {
                request: 4,
                start: 9,
                end: 9,
                stage: SpanStage::Route { shard, reason },
            });
            t
        };
        let base = route(0, RouteReason::Hash);
        assert_ne!(base.digest(), route(1, RouteReason::Hash).digest());
        assert_ne!(base.digest(), route(0, RouteReason::Replica).digest());
        let log = Json::parse(&Json::from(&route(3, RouteReason::Replica)).pretty()).unwrap();
        let span =
            r#"{"request":4,"stage":"route","start":9,"end":9,"shard":3,"reason":"replica"}"#;
        assert_eq!(log.compact(), format!("[{span}]"));
    }
}
