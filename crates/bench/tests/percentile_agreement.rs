//! Pins the cross-crate percentile contract: `qram_telemetry::
//! Histogram::percentile` must agree exactly with the bench harness's
//! nearest-rank `report::percentile` over bucket-floor-quantized
//! samples. The serve summary quotes latency percentiles from both
//! paths (raw results via `report::percentile`, telemetry via the
//! histogram), so a drift between the two would make the serve summary
//! self-inconsistent.

use qram_bench::report::percentile;
use qram_telemetry::Histogram;

fn assert_agreement(samples: &[u64]) {
    let mut histogram = Histogram::new();
    for &s in samples {
        histogram.record(s);
    }
    // The histogram stores bucket floors; quantize the reference samples
    // the same way so both sides rank the identical multiset.
    let quantized: Vec<f64> = samples
        .iter()
        .map(|&s| Histogram::quantize(s) as f64)
        .collect();
    for q in [0.0, 1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0] {
        assert_eq!(
            histogram.percentile(q),
            percentile(&quantized, q) as u64,
            "q={q} samples={samples:?}"
        );
    }
}

#[test]
fn histogram_percentile_matches_report_percentile_small_values() {
    // Values below the linear cutoff are stored exactly.
    assert_agreement(&[0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 127]);
}

#[test]
fn histogram_percentile_matches_report_percentile_wide_range() {
    // Latency-like spread across many orders of magnitude.
    let samples: Vec<u64> = (0..500)
        .map(|i: u64| (i * i * 7919 + i * 131) % 5_000_000)
        .collect();
    assert_agreement(&samples);
}

#[test]
fn histogram_percentile_matches_report_percentile_skewed() {
    // A heavy-tailed multiset with repeats: the shape queue-wait
    // histograms take under overload.
    let mut samples = vec![100u64; 400];
    samples.extend((0..40).map(|i: u64| 10_000 + i * 997));
    samples.extend([1_000_000, 2_000_000, 40_000_000]);
    assert_agreement(&samples);
}

#[test]
fn empty_histogram_answers_zero_like_the_report() {
    let histogram = Histogram::new();
    assert_eq!(histogram.percentile(50.0), 0);
    assert_eq!(percentile(&[], 50.0), 0.0);
}
