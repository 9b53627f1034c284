//! Machine-readable bench results: loading, summarising and regression
//! gating.
//!
//! The vendored `criterion` stub writes one JSON file per benchmark to
//! `<target>/bench/` (fields `name`, `mean_ns`, `iters`). This module
//! loads those files, condenses them into the repo-level `BENCH_2.json`
//! summary, and implements the CI regression gate for the shot engine:
//! the measured serial/sharded speedup must not regress more than a
//! tolerance against the checked-in baseline
//! (`.github/bench-baseline.json`). The gate is *ratio*-based on purpose —
//! absolute ns vary wildly across runners, the parallel speedup does not.
//! It also builds the serve summary's per-point sections and reads a
//! v6 `BENCH_SERVE.json` back into headlines and the fleet SLO gate.
//! Every file goes through [`qram_telemetry::Json`]: values are built,
//! written once, and read back by field lookup.
//!
//! See the `bench_report` binary for the CLI wrapping this module.

use std::path::{Path, PathBuf};

use qram_telemetry::Json;

/// Schema of the `BENCH_2.json` summary.
const BENCH_SUMMARY_SCHEMA: &str = "qram-bench/bench-summary/v3";

/// The one serve-summary schema the readers accept; every older
/// generation is reported as not recognized.
pub const SERVE_SUMMARY_SCHEMA: &str = "qram-bench/serve-summary/v6";

/// One benchmark's result as written by the criterion stub.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Full benchmark label, e.g. `shot_engine/serial`.
    pub name: String,
    /// Mean wall-clock time per iteration in nanoseconds.
    pub mean_ns: f64,
    /// Iterations measured.
    pub iters: u64,
}

impl BenchRecord {
    /// The record as `{name, mean_ns, iters}`, `mean_ns` at `decimals`
    /// places. At three places, written compact, it is the criterion
    /// stub's own result file: the stub's `--baseline` compare finds the
    /// mean by the literal text `"mean_ns":`.
    fn json(&self, decimals: usize) -> Json {
        Json::object([
            ("name", self.name.as_str().into()),
            ("mean_ns", Json::fixed(self.mean_ns, decimals)),
            ("iters", self.iters.into()),
        ])
    }
}

/// Parses one criterion-stub result file.
pub fn parse_record(text: &str) -> Option<BenchRecord> {
    let json = Json::parse(text).ok()?;
    Some(BenchRecord {
        name: json.get("name")?.as_str()?.to_string(),
        mean_ns: json.get("mean_ns")?.as_f64()?,
        iters: json.get("iters")?.as_u64()?,
    })
}

/// Walks up from `start` to the first directory containing `Cargo.lock`
/// (the workspace root).
pub fn find_repo_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("Cargo.lock").exists() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// The directory the criterion stub writes results to:
/// `$CARGO_TARGET_DIR/bench` or `<repo root>/target/bench`.
pub fn bench_results_dir() -> Option<PathBuf> {
    let target = match std::env::var("CARGO_TARGET_DIR") {
        Ok(dir) => PathBuf::from(dir),
        Err(_) => find_repo_root(&std::env::current_dir().ok()?)?.join("target"),
    };
    Some(target.join("bench"))
}

/// Loads every result file in `dir`, sorted by benchmark name.
pub fn load_records(dir: &Path) -> Vec<BenchRecord> {
    let mut records: Vec<BenchRecord> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
        .filter_map(|e| std::fs::read_to_string(e.path()).ok())
        .filter_map(|json| parse_record(&json))
        .collect();
    records.sort_by(|a, b| a.name.cmp(&b.name));
    records
}

/// A serial-vs-parallel bench pair and its throughput ratio.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Speedup {
    /// Mean ns/iter of the serial arm.
    pub serial_ns: f64,
    /// Mean ns/iter of the parallel arm.
    pub parallel_ns: f64,
    /// Throughput ratio `serial_ns / parallel_ns`.
    pub speedup: f64,
}

/// The `{group}/serial` vs `{group}/{parallel}` pair from `records`.
/// The two pairs the gates watch are `shot_engine` serial vs `sharded`
/// (shots sharded over all cores) and `path_engine` serial vs
/// `chunked` (the `m = 10` path slab in one chunk per core, shot
/// threads pinned to 1).
pub fn speedup(records: &[BenchRecord], group: &str, parallel: &str) -> Option<Speedup> {
    let mean = |arm: &str| {
        let name = format!("{group}/{arm}");
        let record = records.iter().find(|r| r.name == name)?;
        Some(record.mean_ns).filter(|&ns| ns > 0.0)
    };
    let serial_ns = mean("serial")?;
    let parallel_ns = mean(parallel)?;
    Some(Speedup {
        serial_ns,
        parallel_ns,
        speedup: serial_ns / parallel_ns,
    })
}

/// Builds the `BENCH_2.json` summary document.
///
/// Both speedup sections (`shot_engine`, `path_speedup`) are only
/// authoritative when `threads_available ≥ 2`: on a single-core machine
/// the parallel arm degenerates to the serial one, so their `speedup`
/// is written as `null` there. CI's multi-core bench runner is the
/// source of truth.
pub fn summary_json(
    records: &[BenchRecord],
    shot_engine: Option<&Speedup>,
    path_engine: Option<&Speedup>,
    threads_available: usize,
) -> Json {
    let pair = |parallel_key: &str, s: Option<&Speedup>| {
        let Some(s) = s else { return Json::Null };
        let speedup = if threads_available < 2 {
            Json::Null
        } else {
            Json::fixed(s.speedup, 3)
        };
        Json::object([
            ("serial_ns", Json::fixed(s.serial_ns, 1)),
            (parallel_key, Json::fixed(s.parallel_ns, 1)),
            ("speedup", speedup),
        ])
    };
    let benches = records.iter().map(|r| r.json(1)).collect();
    Json::object([
        ("schema", BENCH_SUMMARY_SCHEMA.into()),
        ("threads_available", threads_available.into()),
        ("shot_engine", pair("sharded_ns", shot_engine)),
        ("path_speedup", pair("chunked_ns", path_engine)),
        ("benches", Json::Array(benches)),
    ])
}

/// The `q`-th percentile (`0 ≤ q ≤ 100`) of `values`, by nearest rank on
/// a sorted copy; 0 for empty input. Used for the serving-latency
/// percentiles of `serve_bench`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| {
        a.partial_cmp(b)
            .expect("percentile input must not contain NaN")
    });
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One operating point of the open-loop serving sweep: the service
/// driven at a fixed offered load, measured on the virtual clock.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeLoadPoint {
    /// Offered arrival rate in requests per virtual second.
    pub offered_rps: f64,
    /// `offered_rps / modeled capacity` (1.0 = critically loaded).
    pub load_factor: f64,
    /// Requests offered to admission.
    pub offered: usize,
    /// Requests served to completion.
    pub completed: usize,
    /// Requests shed by back-pressure (bounded queue full).
    pub shed: u64,
    /// Achieved completion rate in requests per virtual second.
    pub achieved_rps: f64,
    /// Virtual-clock end-to-end latency percentiles (ns): p50, p90,
    /// p99, max.
    pub latency_ns: [f64; 4],
    /// Mean virtual ns per request spent queueing (admission wait +
    /// execution-unit stall).
    pub mean_queue_wait_ns: f64,
    /// Mean virtual ns per request spent compiling (0 on cache hits).
    pub mean_compile_ns: f64,
    /// Mean virtual ns per request executing.
    pub mean_execute_ns: f64,
    /// Circuit-cache hit rate at this point.
    pub cache_hit_rate: f64,
}

/// Latency percentiles `[p50, p90, p99, max]` as a summary's
/// `latency_ns` object, in whole ns.
pub fn latency_json(latency_ns: &[f64; 4]) -> Json {
    let [p50, p90, p99, max] = latency_ns.map(|ns| Json::fixed(ns, 0));
    Json::object([("p50", p50), ("p90", p90), ("p99", p99), ("max", max)])
}

/// One element of a serve summary's `sweep` array.
impl From<&ServeLoadPoint> for Json {
    fn from(p: &ServeLoadPoint) -> Json {
        let breakdown = Json::object([
            ("queue_wait", Json::fixed(p.mean_queue_wait_ns, 1)),
            ("compile", Json::fixed(p.mean_compile_ns, 1)),
            ("execute", Json::fixed(p.mean_execute_ns, 1)),
        ]);
        Json::object([
            ("offered_rps", Json::fixed(p.offered_rps, 1)),
            ("load_factor", Json::fixed(p.load_factor, 3)),
            ("offered", p.offered.into()),
            ("completed", p.completed.into()),
            ("shed", p.shed.into()),
            ("achieved_rps", Json::fixed(p.achieved_rps, 1)),
            ("latency_ns", latency_json(&p.latency_ns)),
            ("breakdown_ns", breakdown),
            ("cache_hit_rate", Json::fixed(p.cache_hit_rate, 4)),
        ])
    }
}

/// Per-architecture slice of a serving run: the `per_arch` breakdown
/// `serve_bench` reports for every architecture family a (possibly
/// mixed) workload touched.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArchPoint {
    /// Architecture family tag (`qram_core::ArchSpec::family`).
    pub arch: String,
    /// Requests this family served.
    pub requests: usize,
    /// Completion rate in requests per virtual second over the run's
    /// span.
    pub virtual_rps: f64,
    /// Virtual end-to-end latency percentiles (ns): p50, p90, p99, max.
    pub latency_ns: [f64; 4],
    /// Mean virtual ns executing one request of this family (the
    /// resource-calibrated cost signature).
    pub mean_execute_ns: f64,
    /// Batches fired for this family.
    pub batches: usize,
    /// Batches that paid a compile (circuit-cache misses).
    pub compiled: usize,
}

impl ServeArchPoint {
    /// Batch-level cache hit rate for the family (0 when no batch
    /// fired).
    pub fn batch_hit_rate(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            (self.batches - self.compiled) as f64 / self.batches as f64
        }
    }
}

/// One element of a serve summary's `per_arch` array.
impl From<&ServeArchPoint> for Json {
    fn from(p: &ServeArchPoint) -> Json {
        Json::object([
            ("arch", p.arch.as_str().into()),
            ("requests", p.requests.into()),
            ("virtual_rps", Json::fixed(p.virtual_rps, 1)),
            ("latency_ns", latency_json(&p.latency_ns)),
            ("mean_execute_ns", Json::fixed(p.mean_execute_ns, 1)),
            ("batches", p.batches.into()),
            ("compiled", p.compiled.into()),
            ("batch_hit_rate", Json::fixed(p.batch_hit_rate(), 4)),
        ])
    }
}

/// `summary` itself when it is a v6 serve summary.
fn serve_summary(summary: &Json) -> Option<&Json> {
    (summary.get("schema")?.as_str()? == SERVE_SUMMARY_SCHEMA).then_some(summary)
}

/// The number `section.key`, converted from ns to µs.
fn us(section: &Json, key: &str) -> Option<f64> {
    Some(section.get(key)?.as_f64()? / 1e3)
}

/// The headline of a v6 `BENCH_SERVE.json` summary: schema, mode,
/// architecture and request count (per load point in open mode).
/// Returns `None` for anything else, older serve summaries included.
pub fn serve_summary_headline(summary: &Json) -> Option<String> {
    let summary = serve_summary(summary)?;
    let mode = summary.get("mode")?.as_str()?;
    let requests = match mode {
        "closed" => summary.get("requests")?,
        _ => summary.get("requests_per_point")?,
    };
    Some(format!(
        "{SERVE_SUMMARY_SCHEMA}: mode={mode} arch={} requests={:.0}",
        summary.get("arch")?.as_str()?,
        requests.as_f64()?
    ))
}

/// The stage-breakdown headline of a v6 serve summary's `telemetry`
/// section.
pub fn serve_telemetry_headline(summary: &Json) -> Option<String> {
    let t = serve_summary(summary)?.get("telemetry")?;
    Some(format!(
        "stages p50 queue_wait {:.1} us / compile {:.1} us / execute {:.1} us, \
         total p99 {:.1} us, queue high-water {:.0}, trace {}",
        us(t, "stage_queue_wait_p50_ns")?,
        us(t, "stage_compile_p50_ns")?,
        us(t, "stage_execute_p50_ns")?,
        us(t, "stage_total_p99_ns")?,
        t.get("queue_depth_high_water")?.as_f64()?,
        t.get("trace_digest")?.as_str()?,
    ))
}

/// The scheduling-policy headline of a v6 serve summary: the release
/// policy the run served under, the planner's qubit budget when one was
/// set, and — for bare open-mode summaries — the head-to-head
/// `policy_compare` deltas at the capacity operating point.
pub fn serve_policy_headline(summary: &Json) -> Option<String> {
    let summary = serve_summary(summary)?;
    let policy = summary.get("release_policy")?.as_str()?;
    let mut line = format!("release policy {policy}");
    let budget = summary.get("qubit_budget")?.as_f64()?;
    if budget > 0.0 {
        line.push_str(&format!(", qubit budget {budget:.0}"));
    }
    if let Some(compare) = summary.get("policy_compare") {
        line.push_str(&format!(
            "; head-to-head at capacity: p50 {:.1} -> {:.1} us, mean compile {:.2} -> {:.2} us",
            us(compare, "p50_oldest_first_ns")?,
            us(compare, "p50_cache_affine_ns")?,
            us(compare, "mean_compile_oldest_first_ns")?,
            us(compare, "mean_compile_cache_affine_ns")?,
        ));
    }
    Some(line)
}

/// The fleet headline of a v6 serve summary: shard count, front-door
/// shed policy, the door-to-completion latency percentiles (front-door
/// wait included), and the interactive p99 under each shed policy at
/// the overload point (`slo_compare`). Returns `None` for bare
/// (non-fleet) runs, which carry no `fleet` section.
pub fn serve_fleet_headline(summary: &Json) -> Option<String> {
    let summary = serve_summary(summary)?;
    let fleet = summary.get("fleet")?;
    let compare = summary.get("slo_compare")?;
    Some(format!(
        "{:.0} shards x {:.0} tenants, shed policy {}, door-to-done p50 {:.1} us / p99 {:.1} us; \
         interactive p99 at overload: deadline-priority {:.1} vs tail-drop {:.1} us",
        fleet.get("fleet_shards")?.as_f64()?,
        fleet.get("fleet_tenants")?.as_f64()?,
        fleet.get("fleet_shed_policy")?.as_str()?,
        us(fleet, "fleet_p50_ns")?,
        us(fleet, "fleet_p99_ns")?,
        us(compare, "interactive_p99_deadline_priority_ns")?,
        us(compare, "interactive_p99_tail_drop_ns")?,
    ))
}

/// One benchmark whose mean regressed against a saved baseline snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct AbsRegression {
    /// Benchmark label.
    pub name: String,
    /// Current mean ns/iter.
    pub current_ns: f64,
    /// Baseline mean ns/iter.
    pub baseline_ns: f64,
    /// `current_ns / baseline_ns` (always above `1 + tolerance`).
    pub ratio: f64,
}

/// Compares `current` records against a `--save-baseline` snapshot and
/// returns every bench whose mean regressed beyond `tolerance`
/// (`current > baseline · (1 + tolerance)`), sorted worst first.
///
/// Benches present on only one side are ignored — added or removed
/// benchmarks are not regressions. Unlike the ratio gate of
/// [`apply_gate`], this comparison is *absolute* (ns vs ns), so it is
/// only meaningful against a snapshot taken on comparable hardware —
/// which is exactly what CI's cached per-runner baselines are.
pub fn compare_against_baseline(
    current: &[BenchRecord],
    baseline: &[BenchRecord],
    tolerance: f64,
) -> Vec<AbsRegression> {
    let mut regressions: Vec<AbsRegression> = current
        .iter()
        .filter_map(|record| {
            let base = baseline
                .iter()
                .find(|b| b.name == record.name)
                .filter(|b| b.mean_ns > 0.0)?;
            let ratio = record.mean_ns / base.mean_ns;
            (ratio > 1.0 + tolerance).then(|| AbsRegression {
                name: record.name.clone(),
                current_ns: record.mean_ns,
                baseline_ns: base.mean_ns,
                ratio,
            })
        })
        .collect();
    regressions.sort_by(|a, b| b.ratio.partial_cmp(&a.ratio).expect("finite ratios"));
    regressions
}

/// The directory the criterion stub saves `--save-baseline` snapshots
/// under: `<results dir>/baselines/<name>`.
pub fn baseline_snapshot_dir(name: &str) -> Option<PathBuf> {
    Some(bench_results_dir()?.join("baselines").join(name))
}

/// Min-ratchet merge for refreshing an absolute baseline: per bench,
/// keep the *faster* of the current mean and the stored baseline mean.
/// A plain copy-forward would let gradual regressions — each within
/// tolerance — walk the baseline upward run over run and never trip the
/// gate; ratcheting on the minimum pins the best mean ever observed.
/// Benches absent from `current` are dropped (removed benchmarks are
/// not regressions); new benches enter at their measured mean.
pub fn merge_baseline_records(
    current: &[BenchRecord],
    baseline: &[BenchRecord],
) -> Vec<BenchRecord> {
    current
        .iter()
        .map(|record| {
            match baseline
                .iter()
                .find(|b| b.name == record.name)
                .filter(|b| b.mean_ns > 0.0 && b.mean_ns < record.mean_ns)
            {
                Some(faster) => BenchRecord {
                    name: record.name.clone(),
                    mean_ns: faster.mean_ns,
                    iters: faster.iters,
                },
                None => record.clone(),
            }
        })
        .collect()
}

/// Makes a benchmark label safe as a file stem (mirrors the criterion
/// stub's result-file naming, so refreshed snapshots overwrite the
/// stub's own `--save-baseline` files).
fn sanitize_label(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Replaces the snapshot at `dir` with `records`, one result file per
/// bench in the criterion stub's format (readable by [`load_records`]).
///
/// # Errors
///
/// Propagates the first filesystem error.
pub fn write_baseline_snapshot(dir: &Path, records: &[BenchRecord]) -> std::io::Result<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)?;
    for r in records {
        let file = dir.join(format!("{}.json", sanitize_label(&r.name)));
        std::fs::write(file, r.json(3).compact() + "\n")?;
    }
    Ok(())
}

/// The checked-in regression baseline for both parallel engines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Baseline {
    /// Reference serial/sharded speedup on a multi-core runner.
    pub shot_engine_speedup: f64,
    /// Reference serial/chunked path-parallel speedup on a multi-core
    /// runner.
    pub path_speedup: f64,
    /// Allowed relative regression (0.25 = fail below 75% of reference).
    pub tolerance: f64,
}

/// Parses `.github/bench-baseline.json`; every field is required.
pub fn parse_baseline(text: &str) -> Option<Baseline> {
    let json = Json::parse(text).ok()?;
    let field = |key: &str| json.get(key)?.as_f64();
    Some(Baseline {
        shot_engine_speedup: field("shot_engine_speedup")?,
        path_speedup: field("path_speedup")?,
        tolerance: field("tolerance")?,
    })
}

/// The regression-gate verdict for a run.
#[derive(Debug, Clone, PartialEq)]
pub enum GateOutcome {
    /// Speedup is within tolerance of the baseline.
    Pass {
        /// Measured serial/sharded speedup.
        speedup: f64,
        /// Minimum accepted speedup (`baseline · (1 − tolerance)`).
        floor: f64,
    },
    /// Speedup regressed below the tolerance floor.
    Fail {
        /// Measured serial/sharded speedup.
        speedup: f64,
        /// Minimum accepted speedup (`baseline · (1 − tolerance)`).
        floor: f64,
    },
    /// The gate could not run and is skipped gracefully (no baseline, no
    /// shot-engine results, or a single-core machine where the parallel
    /// speedup is physically unobservable).
    Skip(String),
}

impl GateOutcome {
    /// `Pass` when `speedup` reaches `floor`, `Fail` below it.
    fn judge(speedup: f64, floor: f64) -> GateOutcome {
        if speedup >= floor {
            GateOutcome::Pass { speedup, floor }
        } else {
            GateOutcome::Fail { speedup, floor }
        }
    }
}

/// Applies a ratio-based regression gate: the `measured` speedup must
/// stay within the baseline's tolerance of the `reference` it picks out
/// of the baseline. Skips gracefully with no baseline, no measured pair,
/// or a single core.
pub fn apply_gate(
    measured: Option<&Speedup>,
    baseline: Option<&Baseline>,
    reference: fn(&Baseline) -> f64,
    threads_available: usize,
) -> GateOutcome {
    let Some(baseline) = baseline else {
        return GateOutcome::Skip("no checked-in baseline".into());
    };
    let Some(measured) = measured else {
        return GateOutcome::Skip("no serial/parallel bench results".into());
    };
    if threads_available < 2 {
        return GateOutcome::Skip(format!(
            "single-core machine ({threads_available} thread available): parallel speedup not observable"
        ));
    }
    let floor = reference(baseline) * (1.0 - baseline.tolerance);
    GateOutcome::judge(measured.speedup, floor)
}

/// Applies the fleet SLO gate over a serve summary's `slo_compare`
/// head-to-head: deadline-priority shedding must not lose to tail-drop
/// on interactive p99 at the overload point — the whole reason the
/// front door exists. The reported "speedup" is
/// `tail_drop_p99 / deadline_priority_p99` against a floor of 1.0, so
/// equality (e.g. a sweep that never shed) passes. Skips gracefully
/// without a summary, on anything but a v6 serve summary, on bare
/// (non-fleet) runs, and on sweeps that completed no interactive
/// requests.
pub fn apply_fleet_slo_gate(summary: Option<&Json>) -> GateOutcome {
    let Some(summary) = summary else {
        return GateOutcome::Skip("no BENCH_SERVE.json".into());
    };
    let Some(summary) = serve_summary(summary) else {
        return GateOutcome::Skip("not a recognized serve summary".into());
    };
    let p99 = |key: &str| summary.get("slo_compare")?.get(key)?.as_f64();
    let (Some(dp), Some(td)) = (
        p99("interactive_p99_deadline_priority_ns"),
        p99("interactive_p99_tail_drop_ns"),
    ) else {
        return GateOutcome::Skip(
            "summary has no fleet slo_compare section (bare serve run)".into(),
        );
    };
    if dp <= 0.0 || td <= 0.0 {
        return GateOutcome::Skip("slo_compare completed no interactive requests".into());
    }
    GateOutcome::judge(td / dp, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stub_record() {
        let json = "{\"name\":\"shot_engine/serial\",\"mean_ns\":1234.500,\"iters\":42}\n";
        let r = parse_record(json).unwrap();
        assert_eq!(r.name, "shot_engine/serial");
        assert_eq!(r.mean_ns, 1234.5);
        assert_eq!(r.iters, 42);
    }

    #[test]
    fn parses_escaped_names_and_whitespace() {
        let json = "{ \"name\" : \"a\\\"b\", \"mean_ns\" : 1e3, \"iters\" : 7 }";
        let r = parse_record(json).unwrap();
        assert_eq!(r.name, "a\"b");
        assert_eq!(r.mean_ns, 1000.0);
    }

    #[test]
    fn rejects_incomplete_records() {
        assert!(parse_record("{\"name\":\"x\"}").is_none());
        assert!(parse_record("{}").is_none());
    }

    fn rec(name: &str, mean_ns: f64, iters: u64) -> BenchRecord {
        let name = name.to_string();
        BenchRecord {
            name,
            mean_ns,
            iters,
        }
    }

    fn records() -> Vec<BenchRecord> {
        vec![
            rec("shot_engine/serial", 4000.0, 10),
            rec("shot_engine/sharded", 1000.0, 10),
            rec("path_engine/serial", 6000.0, 10),
            rec("path_engine/chunked", 2000.0, 10),
        ]
    }

    const BASELINE: Baseline = Baseline {
        shot_engine_speedup: 2.0,
        path_speedup: 1.6,
        tolerance: 0.25,
    };

    #[test]
    fn shot_engine_speedup_is_serial_over_sharded() {
        let s = speedup(&records(), "shot_engine", "sharded").unwrap();
        assert_eq!(
            (s.serial_ns, s.parallel_ns, s.speedup),
            (4000.0, 1000.0, 4.0)
        );
        assert!(speedup(&records()[..1], "shot_engine", "sharded").is_none());
    }

    #[test]
    fn path_engine_speedup_is_serial_over_chunked() {
        let p = speedup(&records(), "path_engine", "chunked").unwrap();
        assert_eq!(p.speedup, 3.0);
        // Shot-engine records alone don't produce a path summary.
        assert!(speedup(&records()[..2], "path_engine", "chunked").is_none());
    }

    #[test]
    fn summary_json_is_parseable_by_own_helpers() {
        let recs = records();
        let s = speedup(&recs, "shot_engine", "sharded");
        let p = speedup(&recs, "path_engine", "chunked");
        let json = Json::parse(&summary_json(&recs, s.as_ref(), p.as_ref(), 8).pretty()).unwrap();
        let text = |key: &str| json.get(key).map(Json::compact);
        let schema = json.get("schema").and_then(Json::as_str);
        assert_eq!(schema, Some(BENCH_SUMMARY_SCHEMA));
        assert_eq!(text("threads_available").as_deref(), Some("8"));
        let shot = r#"{"serial_ns":4000.0,"sharded_ns":1000.0,"speedup":4.000}"#;
        assert_eq!(text("shot_engine").as_deref(), Some(shot));
        let path = r#"{"serial_ns":6000.0,"chunked_ns":2000.0,"speedup":3.000}"#;
        assert_eq!(text("path_speedup").as_deref(), Some(path));
        let Some(Json::Array(benches)) = json.get("benches") else {
            panic!("the summary has no benches array")
        };
        let parsed: Vec<_> = benches
            .iter()
            .filter_map(|b| parse_record(&b.compact()))
            .collect();
        assert_eq!(parsed, recs);
        // Absent sections render as explicit nulls.
        let empty = summary_json(&[], None, None, 8);
        assert_eq!(empty.get("shot_engine"), Some(&Json::Null));
        assert_eq!(empty.get("path_speedup"), Some(&Json::Null));
    }

    #[test]
    fn speedups_measured_on_one_core_are_null() {
        let recs = records();
        let s = speedup(&recs, "shot_engine", "sharded");
        let p = speedup(&recs, "path_engine", "chunked");
        let json = summary_json(&recs, s.as_ref(), p.as_ref(), 1);
        let shot = r#"{"serial_ns":4000.0,"sharded_ns":1000.0,"speedup":null}"#;
        assert_eq!(
            json.get("shot_engine").map(Json::compact).as_deref(),
            Some(shot)
        );
        let path = r#"{"serial_ns":6000.0,"chunked_ns":2000.0,"speedup":null}"#;
        assert_eq!(
            json.get("path_speedup").map(Json::compact).as_deref(),
            Some(path)
        );
    }

    #[test]
    fn baseline_parses_strictly() {
        let full = r#"{"shot_engine_speedup": 2.0, "path_speedup": 1.6, "tolerance": 0.25}"#;
        assert_eq!(parse_baseline(full), Some(BASELINE));
        // No field has a default any more.
        assert!(parse_baseline(r#"{"shot_engine_speedup": 2.0, "path_speedup": 1.6}"#).is_none());
        assert!(parse_baseline(r#"{"shot_engine_speedup": 2.0, "tolerance": 0.25}"#).is_none());
        assert!(parse_baseline("{}").is_none());
    }

    #[test]
    fn gate_passes_within_tolerance_and_fails_below() {
        let summary = speedup(&records(), "shot_engine", "sharded");
        let outcome = apply_gate(
            summary.as_ref(),
            Some(&BASELINE),
            |b| b.shot_engine_speedup,
            8,
        );
        let (speedup, floor) = (4.0, 1.5);
        assert_eq!(outcome, GateOutcome::Pass { speedup, floor });
        let tight = Baseline {
            shot_engine_speedup: 8.0,
            ..BASELINE
        };
        assert!(matches!(
            apply_gate(summary.as_ref(), Some(&tight), |b| b.shot_engine_speedup, 8),
            GateOutcome::Fail { .. }
        ));
    }

    #[test]
    fn path_gate_mirrors_the_shot_gate() {
        let summary = speedup(&records(), "path_engine", "chunked");
        let gate = |baseline: &Baseline| {
            apply_gate(summary.as_ref(), Some(baseline), |b| b.path_speedup, 8)
        };
        match gate(&BASELINE) {
            GateOutcome::Pass { speedup, floor } => {
                assert_eq!(speedup, 3.0);
                assert!((floor - 1.2).abs() < 1e-12);
            }
            other => panic!("expected pass, got {other:?}"),
        }
        let tight = Baseline {
            path_speedup: 8.0,
            ..BASELINE
        };
        assert!(matches!(gate(&tight), GateOutcome::Fail { .. }));
    }

    #[test]
    fn percentile_nearest_rank() {
        let values = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&values, 50.0), 3.0);
        assert_eq!(percentile(&values, 99.0), 5.0);
        assert_eq!(percentile(&values, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.5], 90.0), 7.5);
    }

    #[test]
    fn serve_sweep_json_is_parseable_by_own_helpers() {
        let point = ServeLoadPoint {
            offered_rps: 1000.0,
            load_factor: 2.0,
            offered: 512,
            completed: 400,
            shed: 112,
            achieved_rps: 500.5,
            latency_ns: [1_000.0, 2_000.0, 9_000.0, 12_000.0],
            mean_queue_wait_ns: 700.25,
            mean_compile_ns: 12.5,
            mean_execute_ns: 300.0,
            cache_hit_rate: 0.9375,
        };
        let json = Json::parse(&Json::from(&point).pretty()).unwrap();
        let expected = r#"{"offered_rps":1000.0,"load_factor":2.000,"offered":512,"completed":400,"shed":112,"achieved_rps":500.5,"latency_ns":{"p50":1000,"p90":2000,"p99":9000,"max":12000},"breakdown_ns":{"queue_wait":700.2,"compile":12.5,"execute":300.0},"cache_hit_rate":0.9375}"#;
        assert_eq!(json.compact(), expected);
    }

    #[test]
    fn serve_arch_json_round_trips_and_hit_rate_is_batch_level() {
        let point = ServeArchPoint {
            arch: "bucket_brigade".into(),
            requests: 128,
            virtual_rps: 2_500.0,
            latency_ns: [1_000.0, 2_000.0, 4_000.0, 5_000.0],
            mean_execute_ns: 750.5,
            batches: 8,
            compiled: 2,
        };
        assert!((point.batch_hit_rate() - 0.75).abs() < 1e-12);
        let json = Json::parse(&Json::from(&point).pretty()).unwrap();
        let expected = r#"{"arch":"bucket_brigade","requests":128,"virtual_rps":2500.0,"latency_ns":{"p50":1000,"p90":2000,"p99":4000,"max":5000},"mean_execute_ns":750.5,"batches":8,"compiled":2,"batch_hit_rate":0.7500}"#;
        assert_eq!(json.compact(), expected);
        // No batches → defined hit rate of 0, not NaN.
        let idle = ServeArchPoint {
            batches: 0,
            compiled: 0,
            ..point
        };
        assert_eq!(idle.batch_hit_rate(), 0.0);
    }

    /// The JSON object `members` with `schema` as its first member.
    fn summary(schema: &str, members: &str) -> Json {
        let Ok(Json::Object(members)) = Json::parse(members) else {
            panic!("a summary fixture is an object")
        };
        Json::object(std::iter::once(("schema".to_string(), schema.into())).chain(members))
    }

    fn v6(members: &str) -> Json {
        summary(SERVE_SUMMARY_SCHEMA, members)
    }

    const CLOSED: &str = r#"{"mode": "closed", "arch": "mix", "requests": 256,
        "requests_per_point": 9, "release_policy": "oldest-first", "qubit_budget": 0}"#;

    fn open_v6() -> Json {
        v6(
            r#"{"mode": "open", "arch": "virtual", "requests_per_point": 64,
            "release_policy": "cache-affine", "qubit_budget": 64,
            "policy_compare": {"p50_oldest_first_ns": 34303, "p50_cache_affine_ns": 33150,
            "mean_compile_oldest_first_ns": 4336.5, "mean_compile_cache_affine_ns": 4090.2}}"#,
        )
    }

    /// The same closed-mode members under older serve and bench schemas.
    fn older_schemas() -> impl Iterator<Item = (&'static str, Json)> {
        ["serve-summary/v5", "serve-summary/v2", "bench-summary/v3"]
            .into_iter()
            .map(|schema| (schema, summary(&format!("qram-bench/{schema}"), CLOSED)))
    }

    #[test]
    fn serve_summary_headline_reads_only_v6_summaries() {
        assert_eq!(
            serve_summary_headline(&v6(CLOSED)).unwrap(),
            "qram-bench/serve-summary/v6: mode=closed arch=mix requests=256"
        );
        // Open mode counts requests per load point.
        assert_eq!(
            serve_summary_headline(&open_v6()).unwrap(),
            "qram-bench/serve-summary/v6: mode=open arch=virtual requests=64"
        );
        // Older serve summaries and other documents are not recognized.
        for (schema, old) in older_schemas() {
            assert!(serve_summary_headline(&old).is_none(), "{schema}");
            let gate = apply_fleet_slo_gate(Some(&old));
            assert!(matches!(gate, GateOutcome::Skip(_)), "{schema}");
        }
        assert!(serve_summary_headline(&Json::Null).is_none());
    }

    #[test]
    fn serve_policy_headline_reads_only_v6_summaries() {
        // Closed: policy alone (no compare block, unlimited budget).
        assert_eq!(
            serve_policy_headline(&v6(CLOSED)).unwrap(),
            "release policy oldest-first"
        );
        // Open: budget plus the head-to-head deltas.
        assert_eq!(
            serve_policy_headline(&open_v6()).unwrap(),
            "release policy cache-affine, qubit budget 64; head-to-head at capacity: \
             p50 34.3 -> 33.1 us, mean compile 4.34 -> 4.09 us"
        );
        for (schema, old) in older_schemas() {
            assert!(serve_policy_headline(&old).is_none(), "{schema}");
        }
        assert!(serve_policy_headline(&Json::Null).is_none());
    }

    #[test]
    fn serve_fleet_headline_tolerates_bare_and_fleet_summaries() {
        // Bare (non-fleet) v6 open run: no fleet section, no fleet line.
        let bare = v6(r#"{"mode": "open", "arch": "mix", "requests_per_point": 64}"#);
        assert!(serve_fleet_headline(&bare).is_none());
        assert!(serve_summary_headline(&bare).is_some());

        // Fleet v6 run with the slo_compare head-to-head.
        let fleet = v6(r#"{"mode": "open",
            "fleet": {"fleet_shards": 4, "fleet_tenants": 3,
            "fleet_shed_policy": "deadline-priority", "fleet_p50_ns": 11400, "fleet_p99_ns": 140700},
            "slo_compare": {"interactive_p99_deadline_priority_ns": 206400,
            "interactive_p99_tail_drop_ns": 258900}}"#);
        assert_eq!(
            serve_fleet_headline(&fleet).unwrap(),
            "4 shards x 3 tenants, shed policy deadline-priority, \
             door-to-done p50 11.4 us / p99 140.7 us; \
             interactive p99 at overload: deadline-priority 206.4 vs tail-drop 258.9 us"
        );
    }

    #[test]
    fn fleet_slo_gate_passes_ties_fails_regressions_and_skips_bare_runs() {
        let compare = |dp: u64, td: u64| {
            let p99 = [
                ("interactive_p99_deadline_priority_ns", dp.into()),
                ("interactive_p99_tail_drop_ns", td.into()),
            ];
            Json::object([
                ("schema", SERVE_SUMMARY_SCHEMA.into()),
                ("slo_compare", Json::object(p99)),
            ])
        };
        // Deadline-priority wins: pass, ratio above 1.
        match apply_fleet_slo_gate(Some(&compare(200_000, 250_000))) {
            GateOutcome::Pass { speedup, floor } => {
                assert!(speedup > 1.2 && speedup < 1.3);
                assert_eq!(floor, 1.0);
            }
            other => panic!("expected pass, got {other:?}"),
        }
        // A tie (nothing shed at the compare point) still passes.
        assert!(matches!(
            apply_fleet_slo_gate(Some(&compare(151_467, 151_467))),
            GateOutcome::Pass { .. }
        ));
        // Deadline-priority losing to tail-drop is a regression.
        assert!(matches!(
            apply_fleet_slo_gate(Some(&compare(260_000, 250_000))),
            GateOutcome::Fail { .. }
        ));
        // Bare runs, foreign documents, and a missing summary all skip.
        let skips =
            |summary: Option<&Json>| matches!(apply_fleet_slo_gate(summary), GateOutcome::Skip(_));
        assert!(skips(Some(&v6(r#"{"mode": "open"}"#))));
        assert!(skips(Some(&Json::Null)) && skips(None));
    }

    #[test]
    fn absolute_comparison_flags_only_regressions_beyond_tolerance() {
        let current = vec![
            rec("a", 1600.0, 1),
            rec("b", 1100.0, 1),
            rec("new_bench", 9999.0, 1),
        ];
        let baseline = vec![
            rec("a", 1000.0, 1),
            rec("b", 1000.0, 1),
            rec("removed", 1.0, 1),
        ];
        let regs = compare_against_baseline(&current, &baseline, 0.5);
        // `a` regressed 1.6x > 1.5x; `b` (1.1x) is within tolerance;
        // benches on only one side are ignored.
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].name, "a");
        assert!((regs[0].ratio - 1.6).abs() < 1e-12);
        // Everything within a looser tolerance passes.
        assert!(compare_against_baseline(&current, &baseline, 0.7).is_empty());
    }

    #[test]
    fn absolute_comparison_sorts_worst_first_and_skips_zero_baselines() {
        let current = vec![
            rec("x", 2000.0, 1),
            rec("y", 3000.0, 1),
            rec("z", 5000.0, 1),
        ];
        let baseline = vec![rec("x", 1000.0, 1), rec("y", 1000.0, 1), rec("z", 0.0, 1)];
        let regs = compare_against_baseline(&current, &baseline, 0.25);
        assert_eq!(
            regs.iter().map(|r| r.name.as_str()).collect::<Vec<_>>(),
            vec!["y", "x"]
        );
    }

    #[test]
    fn baseline_merge_ratchets_on_the_minimum() {
        let current = vec![
            rec("drifted", 140.0, 5),
            rec("improved", 80.0, 5),
            rec("brand_new", 500.0, 5),
        ];
        let baseline = vec![
            rec("drifted", 100.0, 9),
            rec("improved", 100.0, 9),
            rec("removed", 1.0, 9),
        ];
        let merged = merge_baseline_records(&current, &baseline);
        let mean = |name: &str| merged.iter().find(|r| r.name == name).map(|r| r.mean_ns);
        // A within-tolerance drift must NOT advance the baseline…
        assert_eq!(mean("drifted"), Some(100.0));
        // …an improvement must.
        assert_eq!(mean("improved"), Some(80.0));
        // New benches enter at their mean; removed ones are dropped.
        assert_eq!(mean("brand_new"), Some(500.0));
        assert_eq!(mean("removed"), None);
    }

    #[test]
    fn snapshot_round_trips_through_load_records() {
        let dir =
            std::env::temp_dir().join(format!("qram-bench-snapshot-test-{}", std::process::id()));
        let records = vec![rec("group/bench m=4", 1234.5, 42), rec("plain", 7.0, 1)];
        write_baseline_snapshot(&dir, &records).unwrap();
        // The criterion stub's `--baseline` compare reads these files
        // back by the literal text `"mean_ns":` — compact, as it writes.
        assert_eq!(
            std::fs::read_to_string(dir.join("plain.json")).unwrap(),
            "{\"name\":\"plain\",\"mean_ns\":7.000,\"iters\":1}\n"
        );
        // Overwriting replaces stale files rather than accumulating.
        write_baseline_snapshot(&dir, &records[..1]).unwrap();
        let loaded = load_records(&dir);
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0], records[0]);
    }

    #[test]
    fn gate_skips_gracefully() {
        let summary = speedup(&records(), "shot_engine", "sharded");
        let skips = |summary: Option<&Speedup>, baseline: Option<&Baseline>, threads| {
            let outcome = apply_gate(summary, baseline, |b| b.shot_engine_speedup, threads);
            matches!(outcome, GateOutcome::Skip(_))
        };
        // No checked-in baseline; no results; a single core, where the
        // speedup is physically unobservable.
        assert!(skips(summary.as_ref(), None, 8));
        assert!(skips(None, Some(&BASELINE), 8));
        assert!(skips(summary.as_ref(), Some(&BASELINE), 1));
    }

    #[test]
    fn checked_in_artifacts_parse_and_pin_their_headlines() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let read = |file: &str| std::fs::read_to_string(root.join(file)).unwrap();
        let serve = Json::parse(&read("BENCH_SERVE.json")).unwrap();
        let headlines = [
            serve_summary_headline(&serve),
            serve_telemetry_headline(&serve),
            serve_policy_headline(&serve),
            serve_fleet_headline(&serve),
        ];
        let expected = [
            "qram-bench/serve-summary/v6: mode=open arch=mix requests=350000",
            "stages p50 queue_wait 135.2 us / compile 0.0 us / execute 5.4 us, total p99 233.5 us, \
             queue high-water 64, trace 097a9dc738ad283b",
            "release policy oldest-first",
            "4 shards x 3 tenants, shed policy deadline-priority, door-to-done p50 148.7 us / \
             p99 4229.9 us; interactive p99 at overload: deadline-priority 254.9 vs tail-drop 2697.0 us",
        ];
        assert_eq!(headlines, expected.map(|line| Some(line.to_string())));
        match apply_fleet_slo_gate(Some(&serve)) {
            GateOutcome::Pass { speedup, .. } => assert_eq!(format!("{speedup:.2}"), "10.58"),
            other => panic!("expected pass, got {other:?}"),
        }

        // Both generated artifacts are exactly what the writer makes of
        // their parsed values.
        for file in ["BENCH_SERVE.json", "BENCH_2.json"] {
            assert_eq!(Json::parse(&read(file)).unwrap().pretty(), read(file));
        }
        let bench = Json::parse(&read("BENCH_2.json")).unwrap();
        let one_core = bench.get("threads_available").and_then(Json::as_u64) < Some(2);
        for section in ["shot_engine", "path_speedup"] {
            let speedup = bench.get(section).and_then(|s| s.get("speedup"));
            assert_eq!(speedup == Some(&Json::Null), one_core, "{section}");
        }
        let baseline = read(".github/bench-baseline.json");
        assert_eq!(parse_baseline(&baseline), Some(BASELINE));
    }
}
