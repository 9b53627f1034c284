//! Criterion benches: the telemetry recorder.
//!
//! hostbench's `fleet-overload` serves every offer through a fleet that
//! records into `TelemetryRecorder`s, so recording is part of its
//! per-offer cost. `telemetry/record` replays a fixed batch of writes
//! shaped like those offers into a new recorder: per offer on average
//! 2.9 counter adds, 1.5 gauge updates, 2.125 histogram samples and
//! 2.75 spans, 1 of them carrying a batch group key over five groups.
//! `telemetry/digest` digests what that batch recorded: the canonical
//! span log and the metrics registry.

use criterion::{criterion_group, criterion_main, Criterion};
use qram_telemetry::{
    key, AdmissionOutcome, FireReason, Recorder, SpanEvent, SpanStage, TelemetryRecorder, VerifyTag,
};

/// Offers replayed per iteration.
const OFFERS: u64 = 4_096;
/// The planner's five architecture families, as batch group keys.
const GROUPS: [&str; 5] = ["virtual", "bucket-brigade", "select-swap", "sqc", "fanout"];

/// Records [`OFFERS`] offers' worth of writes.
fn replay(recorder: &mut TelemetryRecorder) {
    let groups = GROUPS.map(|g| recorder.intern_group(g));
    for i in 0..OFFERS {
        let arrival = i * 97;
        let group = groups[(i % 5) as usize];
        let span = |start, end, stage| SpanEvent {
            request: i,
            start,
            end,
            stage,
        };
        recorder.add(key::FLEET_ROUTED, 1);
        recorder.add(key::ADMISSION_ACCEPTED, 1);
        if i % 10 != 0 {
            recorder.add(key::SERVICE_COMPLETED, 1);
        }
        recorder.gauge_max(key::QUEUE_DEPTH_HIGH_WATER, i % 64);
        if i % 2 == 0 {
            recorder.gauge_max(key::FLEET_FRONT_DEPTH_HIGH_WATER, i % 1024);
        }
        recorder.span(span(
            arrival,
            arrival,
            SpanStage::Admission {
                outcome: AdmissionOutcome::Accepted,
                queue_depth: i % 64,
            },
        ));
        if i % 8 == 0 {
            let fire = arrival + 2_000;
            recorder.record(key::BATCH_SIZE, i % 32 + 1);
            recorder.span(span(
                fire,
                fire,
                SpanStage::BatchForm {
                    group,
                    reason: FireReason::WorkConserving,
                    size: i % 32 + 1,
                },
            ));
            recorder.span(span(
                fire,
                fire,
                SpanStage::Compile {
                    group,
                    cache_hit: true,
                    verify: VerifyTag::Structural,
                },
            ));
        }
        if i % 4 != 3 {
            let wait = (i * 7_919) % 60_000;
            let execute = 3_000 + (i % 7) * 100;
            recorder.record(key::STAGE_QUEUE_WAIT, wait);
            recorder.record(key::STAGE_TOTAL, wait + execute);
            recorder.span(span(
                arrival,
                arrival + wait,
                SpanStage::QueueWait { group },
            ));
            recorder.span(span(
                arrival + wait,
                arrival + wait + execute,
                SpanStage::Execute {
                    unit: i % 4,
                    shots: 0,
                },
            ));
        }
        if i % 2 == 1 {
            recorder.record(key::STAGE_EXECUTE, 3_000 + (i % 7) * 100);
        }
    }
}

fn bench_telemetry(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry");
    group.bench_function("record", |b| {
        b.iter(|| {
            let mut recorder = TelemetryRecorder::new();
            replay(&mut recorder);
            recorder.tracer().len()
        })
    });
    let mut recorded = TelemetryRecorder::new();
    replay(&mut recorded);
    group.bench_function("digest", |b| {
        b.iter(|| recorded.trace_digest() ^ recorded.metrics().digest())
    });
    group.finish();
}

criterion_group!(benches, bench_telemetry);
criterion_main!(benches);
