//! Condenses `cargo bench` JSON results into the repo-level
//! `BENCH_2.json` summary and applies the CI bench-regression gate.
//!
//! Run after `cargo bench -p qram-bench` (the vendored criterion stub
//! writes one JSON file per benchmark to `<target>/bench/`):
//!
//! ```text
//! cargo run -p qram-bench --bin bench_report            # summary only
//! cargo run -p qram-bench --bin bench_report -- --check # + regression gate
//! ```
//!
//! Flags:
//!
//! * `--out FILE` — summary path (default `<repo root>/BENCH_2.json`);
//! * `--baseline-file FILE` — checked-in baseline (default
//!   `<repo root>/.github/bench-baseline.json`);
//! * `--check` — exit non-zero if the shot-engine serial/sharded speedup
//!   or the lane-engine slab/lanes speedup regressed more than the
//!   baseline's tolerance, or if the v6 `BENCH_SERVE.json` fleet summary
//!   shows deadline-priority shedding losing to tail-drop. Each gate
//!   skips gracefully when there is no baseline or no matching result;
//!   the shot-engine gate also skips on one core, while the lane ratio
//!   compares two single-thread arms and is gated on any machine.
//! * `--abs-baseline NAME` — also compare every bench's absolute mean
//!   against the `--save-baseline NAME` snapshot under
//!   `<target>/bench/baselines/NAME` (default name `ci`). Regressions
//!   beyond `--abs-tolerance` (default 0.5 = +50%) are warnings, or gate
//!   failures under `--check`. Skips gracefully when no snapshot exists —
//!   locally that makes the comparison warn-only/opt-in, while CI caches
//!   a per-runner snapshot and passes `--check`.
//! * `--refresh-abs-baseline` — after the comparison, rewrite the
//!   `--abs-baseline` snapshot as the *min-ratchet* merge of the current
//!   results and the stored snapshot (per bench, the faster mean wins).
//!   A plain copy-forward would let gradual regressions — each within
//!   tolerance — walk the baseline upward run over run; the ratchet pins
//!   the best mean observed until the snapshot is deleted.

use std::path::PathBuf;
use std::process::ExitCode;

use qram_bench::report::{
    apply_fleet_slo_gate, apply_gate, baseline_snapshot_dir, bench_results_dir,
    compare_against_baseline, find_repo_root, load_records, merge_baseline_records, parse_baseline,
    serve_fleet_headline, serve_policy_headline, serve_summary_headline, serve_telemetry_headline,
    speedup, summary_json, write_baseline_snapshot, Baseline, GateOutcome, Speedup,
};
use qram_telemetry::Json;

struct Args {
    out: Option<PathBuf>,
    baseline_file: Option<PathBuf>,
    abs_baseline: String,
    abs_tolerance: f64,
    refresh_abs_baseline: bool,
    check: bool,
}

fn parse_args() -> Args {
    let mut out = None;
    let mut baseline_file = None;
    let mut abs_baseline = String::from("ci");
    let mut abs_tolerance = 0.5;
    let mut refresh_abs_baseline = false;
    let mut check = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| panic!("{flag} requires a value"))
        };
        match flag.as_str() {
            "--out" => out = Some(PathBuf::from(value())),
            "--baseline-file" => baseline_file = Some(PathBuf::from(value())),
            "--abs-baseline" => abs_baseline = value(),
            "--abs-tolerance" => {
                abs_tolerance = value().parse().expect("--abs-tolerance expects a number")
            }
            "--refresh-abs-baseline" => refresh_abs_baseline = true,
            "--check" => check = true,
            other => panic!(
                "unknown flag `{other}` (expected --out FILE, --baseline-file FILE, \
                 --abs-baseline NAME, --abs-tolerance X, --refresh-abs-baseline, --check)"
            ),
        }
    }
    Args {
        out,
        baseline_file,
        abs_baseline,
        abs_tolerance,
        refresh_abs_baseline,
        check,
    }
}

/// Applies the per-bench absolute regression comparison against the
/// `--save-baseline` snapshot. Returns whether the gate (under `--check`)
/// should fail.
fn apply_abs_comparison(records: &[qram_bench::report::BenchRecord], args: &Args) -> bool {
    let snapshot = baseline_snapshot_dir(&args.abs_baseline);
    let baseline_records = match &snapshot {
        Some(dir) if dir.is_dir() => load_records(dir),
        _ => Vec::new(),
    };
    if baseline_records.is_empty() {
        println!(
            "bench_report: absolute comparison SKIPPED — no `{}` snapshot (run \
             `cargo bench -p qram-bench -- --save-baseline {}` to create one)",
            args.abs_baseline, args.abs_baseline
        );
        return false;
    }
    let regressions = compare_against_baseline(records, &baseline_records, args.abs_tolerance);
    if regressions.is_empty() {
        println!(
            "bench_report: absolute comparison vs '{}' — {} benches within +{:.0}%",
            args.abs_baseline,
            baseline_records.len(),
            args.abs_tolerance * 100.0
        );
        return false;
    }
    for r in &regressions {
        eprintln!(
            "bench_report: {} `{}` regressed {:.2}x ({:.0} ns -> {:.0} ns, tolerance +{:.0}%)",
            if args.check { "FAIL" } else { "warning:" },
            r.name,
            r.ratio,
            r.baseline_ns,
            r.current_ns,
            args.abs_tolerance * 100.0
        );
    }
    args.check
}

fn main() -> ExitCode {
    let args = parse_args();
    let repo_root = std::env::current_dir()
        .ok()
        .and_then(|d| find_repo_root(&d))
        .unwrap_or_else(|| PathBuf::from("."));

    let Some(results_dir) = bench_results_dir() else {
        eprintln!("bench_report: could not locate the bench results directory");
        return ExitCode::from(2);
    };
    let records = load_records(&results_dir);
    if records.is_empty() {
        eprintln!(
            "bench_report: no results in {} — run `cargo bench -p qram-bench` first",
            results_dir.display()
        );
        return ExitCode::from(2);
    }

    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let shot_engine = speedup(&records, "shot_engine", "serial", "sharded");
    let lane_engine = speedup(&records, "lane_engine", "slab", "lanes");
    let summary = summary_json(
        &records,
        shot_engine.as_ref(),
        lane_engine.as_ref(),
        threads,
    );

    let out_path = args.out.clone().unwrap_or(repo_root.join("BENCH_2.json"));
    if let Err(e) = std::fs::write(&out_path, summary.pretty()) {
        eprintln!("bench_report: cannot write {}: {e}", out_path.display());
        return ExitCode::from(2);
    }
    println!(
        "bench_report: {} benches summarised into {}",
        records.len(),
        out_path.display()
    );
    for (group, [base, fast], pair) in [
        ("shot_engine", ["serial", "sharded"], &shot_engine),
        ("lane_engine", ["slab", "lanes"], &lane_engine),
    ] {
        if let Some(s) = pair {
            println!(
                "bench_report: {group} {base} {:.0} ns / {fast} {:.0} ns → {:.2}x speedup ({threads} threads)",
                s.base_ns, s.fast_ns, s.speedup
            );
        }
    }

    // Surface the serving summary alongside the micro-bench one when a
    // serve_bench run left it behind. Only a v6 summary is read, and it
    // is never a gate here: an absent or unrecognized file is only
    // noted. A file that does not parse counts as unrecognized.
    let serve_path = repo_root.join("BENCH_SERVE.json");
    let serve_json = std::fs::read_to_string(&serve_path).ok().map(|text| {
        Json::parse(&text).unwrap_or_else(|e| {
            println!("bench_report: {}: {e}", serve_path.display());
            Json::Null
        })
    });
    match &serve_json {
        Some(json) => match serve_summary_headline(json) {
            Some(headline) => {
                println!("bench_report: serve summary — {headline}");
                let lines = [
                    ("telemetry", serve_telemetry_headline(json)),
                    ("policy", serve_policy_headline(json)),
                    // Bare (non-fleet) runs have no fleet line.
                    ("fleet", serve_fleet_headline(json)),
                ];
                for (label, line) in lines {
                    if let Some(line) = line {
                        println!("bench_report: serve {label} — {line}");
                    }
                }
            }
            None => println!(
                "bench_report: {} is not a recognized serve summary (ignored)",
                serve_path.display()
            ),
        },
        None => println!("bench_report: no serve summary at {}", serve_path.display()),
    }

    let abs_failed = apply_abs_comparison(&records, &args);

    // Refresh runs regardless of gate outcome: the min-ratchet merge
    // never adopts a slower mean, so a regressing run cannot poison the
    // stored snapshot.
    if args.refresh_abs_baseline {
        let Some(dir) = baseline_snapshot_dir(&args.abs_baseline) else {
            eprintln!("bench_report: could not locate the baseline snapshot directory");
            return ExitCode::from(2);
        };
        let stored = if dir.is_dir() {
            load_records(&dir)
        } else {
            Vec::new()
        };
        let merged = merge_baseline_records(&records, &stored);
        if let Err(e) = write_baseline_snapshot(&dir, &merged) {
            eprintln!("bench_report: cannot refresh {}: {e}", dir.display());
            return ExitCode::from(2);
        }
        println!(
            "bench_report: absolute baseline '{}' refreshed ({} benches, min-ratchet)",
            args.abs_baseline,
            merged.len()
        );
    }

    if !args.check {
        return ExitCode::SUCCESS;
    }
    if abs_failed {
        eprintln!("bench_report: gate FAIL — absolute per-bench regression(s) above");
        return ExitCode::FAILURE;
    }

    let default_baseline = repo_root.join(".github").join("bench-baseline.json");
    let baseline_path = args.baseline_file.clone().unwrap_or(default_baseline);
    let baseline = std::fs::read_to_string(&baseline_path)
        .ok()
        .and_then(|json| parse_baseline(&json));
    let gate = |measured: &Option<Speedup>, reference: fn(&Baseline) -> f64, cores_needed| {
        apply_gate(
            measured.as_ref(),
            baseline.as_ref(),
            reference,
            threads,
            cores_needed,
        )
    };
    let mut failed = false;
    for (label, outcome) in [
        (
            "shot-engine",
            gate(&shot_engine, |b| b.shot_engine_speedup, 2),
        ),
        ("lane-engine", gate(&lane_engine, |b| b.lane_speedup, 1)),
        ("fleet-slo", apply_fleet_slo_gate(serve_json.as_ref())),
    ] {
        match outcome {
            GateOutcome::Pass { speedup, floor } => {
                println!(
                    "bench_report: {label} gate PASS — speedup {speedup:.2}x ≥ floor {floor:.2}x"
                );
            }
            GateOutcome::Fail { speedup, floor } => {
                eprintln!(
                    "bench_report: {label} gate FAIL — speedup {speedup:.2}x regressed below \
                     the baseline floor {floor:.2}x ({})",
                    baseline_path.display()
                );
                failed = true;
            }
            GateOutcome::Skip(reason) => {
                println!("bench_report: {label} gate SKIPPED — {reason}");
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
