//! End-to-end telemetry determinism: the span-log digest and the
//! metrics registry produced by a full serving run must be bit-identical
//! for any worker count, and the
//! admission spans must conserve the arrival flow
//! (`arrivals == completions + shed + rejected`).

use qram::core::Memory;
use qram::service::{
    Admission, ArrivalProcess, QramService, QuerySpec, ServiceConfig, TelemetryRecorder, Workload,
};
use qram::telemetry::{key, AdmissionOutcome, MetricsRegistry, SpanStage, SYNTHETIC_REQUEST_BASE};

fn memory(n: usize) -> Memory {
    Memory::from_bits((0..1usize << n).map(|i| i % 3 == 0))
}

/// Drives an overloaded open-loop run (bounded queue, bursty arrivals)
/// and returns the service with its captured telemetry.
fn overloaded_run(workers: usize) -> QramService<TelemetryRecorder> {
    let n = 3;
    let config = ServiceConfig::default()
        .with_shots(2)
        .with_seed(17)
        .with_workers(workers)
        .with_queue_capacity(8)
        .with_batch_limit(4);
    let mut service = QramService::with_recorder(memory(n), config, TelemetryRecorder::new());
    let workload = Workload::Zipfian {
        address_width: n,
        theta: 0.99,
        seed: 5,
    };
    // A deliberately hot arrival stream: the 8-deep queue sheds a
    // visible fraction of the 96 offers.
    let arrivals = ArrivalProcess::Poisson {
        mean_gap: 800.0,
        seed: 23,
    }
    .arrivals(96);
    let spec = QuerySpec::new(1, n - 1);
    for (address, &at) in workload.addresses(96).iter().zip(&arrivals) {
        match service.try_submit_at(*address, spec, at) {
            Admission::Accepted(_) | Admission::Shed { .. } => {}
            Admission::Rejected(reason) => panic!("workload rejected: {reason}"),
        }
    }
    let results = service.run_until_idle();
    assert!(!results.is_empty(), "overload must still complete requests");
    service
}

fn merged_metrics(service: &QramService<TelemetryRecorder>) -> MetricsRegistry {
    let mut merged = service.metrics_snapshot();
    merged.merge_from(service.recorder().metrics());
    merged
}

#[test]
fn trace_digest_is_knob_invariant_under_overload() {
    let reference = overloaded_run(1);
    let reference_trace = reference.recorder().trace_digest();
    let reference_metrics = merged_metrics(&reference).digest();
    assert!(
        reference.admission_stats().shed > 0,
        "the overload harness must actually shed"
    );
    for workers in [2, 4] {
        let run = overloaded_run(workers);
        assert_eq!(
            run.recorder().trace_digest(),
            reference_trace,
            "trace digest diverged at workers={workers}"
        );
        assert_eq!(
            merged_metrics(&run).digest(),
            reference_metrics,
            "metrics digest diverged at workers={workers}"
        );
    }
}

#[test]
fn admission_spans_conserve_the_arrival_flow() {
    let service = overloaded_run(2);
    let metrics = merged_metrics(&service);
    let stats = service.admission_stats();
    let arrivals = stats.offered();
    let completed = metrics.counter(key::SERVICE_COMPLETED);
    assert_eq!(
        arrivals,
        completed + stats.shed + stats.rejected,
        "arrivals must equal completions + shed + rejected"
    );

    // Every offered arrival produced exactly one admission span, and
    // every shed offer is a terminal span with a synthetic request id.
    let spans = service.recorder().tracer().canonical();
    let admissions: Vec<_> = spans
        .iter()
        .filter(|s| matches!(s.stage, SpanStage::Admission { .. }))
        .collect();
    assert_eq!(admissions.len() as u64, arrivals);
    let terminal = admissions
        .iter()
        .filter(|s| s.request >= SYNTHETIC_REQUEST_BASE)
        .count() as u64;
    assert_eq!(terminal, stats.shed + stats.rejected);
    for span in &admissions {
        let SpanStage::Admission { outcome, .. } = &span.stage else {
            unreachable!()
        };
        match outcome {
            AdmissionOutcome::Accepted => assert!(span.request < SYNTHETIC_REQUEST_BASE),
            AdmissionOutcome::Shed | AdmissionOutcome::Rejected => {
                assert!(span.request >= SYNTHETIC_REQUEST_BASE)
            }
        }
    }
}

#[test]
fn accepted_requests_carry_the_full_span_pipeline() {
    let service = overloaded_run(1);
    let spans = service.recorder().tracer().canonical();
    let completed = merged_metrics(&service).counter(key::SERVICE_COMPLETED);
    let queue_waits = spans
        .iter()
        .filter(|s| matches!(s.stage, SpanStage::QueueWait { .. }))
        .count() as u64;
    let executes = spans
        .iter()
        .filter(|s| matches!(s.stage, SpanStage::Execute { .. }))
        .count() as u64;
    assert_eq!(queue_waits, completed);
    assert_eq!(executes, completed);
    // Batch formation and compile spans pair up one per fired batch.
    let batch_forms = spans
        .iter()
        .filter(|s| matches!(s.stage, SpanStage::BatchForm { .. }))
        .count();
    let compiles = spans
        .iter()
        .filter(|s| matches!(s.stage, SpanStage::Compile { .. }))
        .count();
    assert_eq!(batch_forms, compiles);
    assert!(batch_forms > 0);
}

#[test]
fn noop_recorder_runs_match_recorded_results() {
    // The recorder is observational: swapping it for the no-op default
    // must not perturb a single result bit.
    let n = 3;
    let config = ServiceConfig::default().with_shots(2).with_seed(17);
    let workload = Workload::Zipfian {
        address_width: n,
        theta: 0.99,
        seed: 5,
    };
    let spec = QuerySpec::new(1, n - 1);
    let submissions: Vec<(u64, QuerySpec)> =
        workload.addresses(24).iter().map(|&a| (a, spec)).collect();

    let mut plain = QramService::new(memory(n), config);
    plain.submit_all(submissions.clone());
    let plain_report = plain.drain();

    let mut recorded = QramService::with_recorder(memory(n), config, TelemetryRecorder::new());
    recorded.submit_all(submissions);
    let recorded_report = recorded.drain();

    assert_eq!(plain_report.results, recorded_report.results);
    assert_eq!(plain_report.cache, recorded_report.cache);
    assert_eq!(plain_report.admission, recorded_report.admission);
}
