//! `serve_bench` — drives the `qram-service` event-driven serving
//! pipeline with a generated workload and reports throughput and
//! virtual-clock latency percentiles into the repo's `BENCH_*.json`
//! pipeline.
//!
//! ```text
//! # closed loop: submit everything, drain, report
//! cargo run --release -p qram-bench --bin serve_bench -- \
//!     --workload zipfian --requests 1000 --shots 8 --seed 7 --threads 2
//! # open loop: Poisson arrivals swept over offered-load multipliers
//! cargo run --release -p qram-bench --bin serve_bench -- \
//!     --mode open --arrivals poisson --load 0.5,1.0,2.0 --threads 2
//! ```
//!
//! Flags (shared flags match the other experiment binaries):
//!
//! * `--full` — paper-scale run (larger memory and request count);
//! * `--arch NAME` — architecture(s) to serve: `virtual` (default),
//!   `sqc`, `fanout`, `bb` (bucket-brigade), `ss` (select-swap), or
//!   `mix` (one spec per family — a mixed-architecture workload through
//!   one service instance, each family at the `(k, m)` split the
//!   offline `qram-plan` capacity planner picks under
//!   `--qubit-budget`). The summary carries a per-architecture
//!   throughput/latency/cache breakdown;
//! * `--shots N` — Monte-Carlo shots per request (0 = noiseless serving);
//! * `--seed N` — service master seed (per-request streams derive from it);
//! * `--threads N` — real executor workers (`0` = all cores). A pure
//!   throughput knob: results — latency breakdowns included — are
//!   bit-identical for any value (the printed `results_digest` proves it).
//!   It is the only host-parallelism knob: a request's shots run as
//!   lanes of one circuit walk;
//! * `--mode closed|open` — closed-loop drain (default) or open-loop
//!   arrival-process sweep;
//! * `--workload NAME` — `uniform`, `zipfian` (default), `scan`, `grover`;
//! * `--arrivals NAME` — open-loop arrival process: `poisson` (default)
//!   or `bursty` (MMPP-2 at the same average load);
//! * `--load LIST` — open-loop offered-load multipliers of the modeled
//!   capacity (default `0.5,1.0,2.0`; >1 = overload);
//! * `--spec-skew X` — assign specs zipf(θ = X)-skewed instead of
//!   round-robin (0 = round-robin), stressing LRU eviction;
//! * `--requests N` — requests to serve (default 256, `--full` 1024);
//! * `--width N` — memory address width `n`, 2 to 24 (default 4,
//!   `--full` 6);
//! * `--theta X` — zipf exponent of the *address* stream, non-negative
//!   (default 0.99);
//! * `--batch N` — scheduler batch limit, at least 1 (default 32);
//! * `--cache N` — compiled-circuit cache capacity, at least 1
//!   (default 8). Set it
//!   below the hot-spec count to stress eviction — where the release
//!   policies actually diverge;
//! * `--queue N` — bounded-queue capacity for open-loop admission, at
//!   least 1 (default 64; offers beyond it are shed);
//! * `--deadline T` — batching deadline slack in virtual ns (default
//!   20000);
//! * `--release-policy NAME` — which pending group a freed execution
//!   unit serves: `oldest-first` (default, strict FIFO) or
//!   `cache-affine` (prefer the oldest *cache-resident* group — zero
//!   compile ticks — bounded by the policy's age cap so no group
//!   starves). A scheduling knob on the virtual clock: results remain
//!   bit-identical across `--threads` for either policy. Open mode
//!   additionally emits a `policy_compare` block running *both*
//!   policies head-to-head on identical arrivals at the swept load
//!   nearest the modeled capacity (schema v6);
//! * `--qubit-budget Q` — physical qubit budget handed to the capacity
//!   planner for `--arch mix` (0 = unconstrained, the default);
//! * `--fleet N` — open-loop only: serve through a
//!   [`qram_fleet::FleetController`] over `N` shards instead of one
//!   bare service (0 = bare, the default). Arrivals are tagged with
//!   deterministic tenants and SLO classes, routed by consistent
//!   hashing with cache-affine replica tie-breaking, and shed at the
//!   front door by `--shed-policy`. The summary grows `fleet`,
//!   `per_shard`, `per_tenant`, `per_slo`, and `slo_compare` sections
//!   (schema v6), the latter running deadline-priority vs tail-drop on
//!   byte-identical arrivals at the highest swept load;
//! * `--tenants T` — fleet tenants to spread arrivals over (default 3);
//! * `--front-capacity N` — fleet front-door queue bound (default 1024);
//! * `--shed-policy NAME` — front-door overflow policy: `tail-drop` or
//!   `deadline-priority` (default — trim zombies, then batch, then
//!   best-effort, keep live interactive work last);
//! * `--replication N` — rendezvous replica candidates per spec
//!   (default 2, clamped to the fleet size);
//! * `--slo-deadline T` — interactive-class deadline in virtual ns
//!   (default 60000);
//! * `--out FILE` — write the summary to `FILE` (without it, none is
//!   written; the checked-in `BENCH_SERVE.json` is regenerated with
//!   `--out BENCH_SERVE.json`);
//! * `--trace-out FILE` — also export the full telemetry trace (the
//!   canonically-ordered span log plus the metrics registry) as JSON;
//! * `--help` — print the usage and exit.
//!
//! An unknown flag, a missing, malformed or out-of-range value, an
//! unknown name for a name-valued flag, or a `--qubit-budget` that fits
//! no `mix` family
//! prints the error and the usage to standard error and exits with
//! code 2.
//!
//! Latency is measured on the service's **virtual clock** (one tick =
//! one modeled ns), so percentiles include queueing delay, decompose
//! into `queue_wait`/`compile`/`execute`, and are bit-identical across
//! `--threads` values — wall-clock throughput of the simulation host is
//! reported separately (closed mode's `wall_rps` spans `submit_all`
//! and the drain). Every run records through a
//! `qram_telemetry::TelemetryRecorder`; the `trace_digest` and
//! `telemetry_digest` are bit-identical across `--threads` (CI diffs
//! them). Every mode's summary is one `serve-summary/v6` [`Json`] value
//! written once.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use qram_bench::cli::exit_on_error;
use qram_bench::report::{
    latency_json, percentile, ServeArchPoint, ServeLoadPoint, SERVE_SUMMARY_SCHEMA,
};
use qram_bench::{experiment_memory, print_row};
use qram_core::{ArchSpec, DataEncoding, Memory, Optimizations};
use qram_fleet::{FleetConfig, FleetController, FleetResult, ShedPolicy};
use qram_plan::{planned_families, UNLIMITED_BUDGET};
use qram_service::{
    assign_specs_with, Admission, ArrivalProcess, BatchReport, QramService, QueryResult, QuerySpec,
    ReleasePolicy, ServiceConfig, SloClass, SpecMix, TenantId, Ticks, Workload,
};
use qram_telemetry::{fnv1a_64, host_wall, key, Json, Key, MetricsRegistry, TelemetryRecorder};

/// The flag synopsis printed for `--help` and after a bad flag.
const USAGE: &str = "[--full] [--arch NAME] [--shots N] [--seed N] [--threads N] \
[--mode closed|open] [--workload NAME] [--arrivals NAME] [--load LIST] [--spec-skew X] \
[--requests N] [--width N] [--theta X] [--batch N] [--cache N] [--queue N] [--deadline T] \
[--release-policy oldest-first|cache-affine] [--qubit-budget Q] [--fleet N] [--tenants T] \
[--front-capacity N] [--shed-policy tail-drop|deadline-priority] [--replication N] \
[--slo-deadline T] [--out FILE] [--trace-out FILE] [--help]";

/// The address widths `--width` takes: the hybrids of every family need
/// a page bit and a tree bit, and a memory holds at most
/// [`Memory::MAX_ADDRESS_WIDTH`] address bits.
const WIDTHS: std::ops::RangeInclusive<usize> = 2..=Memory::MAX_ADDRESS_WIDTH;

/// The names each name-valued flag accepts.
const ARCHES: [&str; 6] = ["virtual", "sqc", "fanout", "bb", "ss", "mix"];
const MODES: [&str; 2] = ["closed", "open"];
const WORKLOADS: [&str; 4] = ["uniform", "zipfian", "scan", "grover"];
const ARRIVALS: [&str; 2] = ["poisson", "bursty"];

#[derive(Debug)]
struct Args {
    full: bool,
    arch: &'static str,
    shots: Option<usize>,
    seed: u64,
    threads: usize,
    mode: &'static str,
    workload: &'static str,
    arrivals: &'static str,
    loads: Vec<f64>,
    spec_skew: f64,
    requests: Option<usize>,
    width: Option<usize>,
    theta: f64,
    batch: usize,
    cache: usize,
    queue: usize,
    deadline: Ticks,
    release_policy: ReleasePolicy,
    qubit_budget: usize,
    fleet: usize,
    tenants: u32,
    front_capacity: usize,
    shed_policy: ShedPolicy,
    replication: usize,
    slo_deadline: Ticks,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

impl Args {
    /// Parses the flags (without the program name).
    ///
    /// # Errors
    ///
    /// [`USAGE`] itself for `--help`; otherwise a message naming the
    /// unknown flag, the missing or malformed value, or the unknown
    /// name.
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args {
            full: false,
            arch: "virtual",
            shots: None,
            seed: 2023,
            threads: 0,
            mode: "closed",
            workload: "zipfian",
            arrivals: "poisson",
            loads: vec![0.5, 1.0, 2.0],
            spec_skew: 0.0,
            requests: None,
            width: None,
            theta: 0.99,
            batch: 32,
            cache: 8,
            queue: 64,
            deadline: 20_000,
            release_policy: ReleasePolicy::OldestFirst,
            qubit_budget: UNLIMITED_BUDGET,
            fleet: 0,
            tenants: 3,
            front_capacity: 1024,
            shed_policy: ShedPolicy::DeadlinePriority,
            replication: 2,
            slo_deadline: 60_000,
            out: None,
            trace_out: None,
        };
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--full" => parsed.full = true,
                "--arch" => parsed.arch = choose(&flag, &value()?, &ARCHES, |name| *name)?,
                "--shots" => parsed.shots = Some(number(&flag, &value()?)?),
                "--seed" => parsed.seed = number(&flag, &value()?)?,
                "--threads" => parsed.threads = number(&flag, &value()?)?,
                "--mode" => parsed.mode = choose(&flag, &value()?, &MODES, |name| *name)?,
                "--workload" => {
                    parsed.workload = choose(&flag, &value()?, &WORKLOADS, |name| *name)?
                }
                "--arrivals" => {
                    parsed.arrivals = choose(&flag, &value()?, &ARRIVALS, |name| *name)?
                }
                "--load" => {
                    parsed.loads = value()?
                        .split(',')
                        .map(|x| number(&flag, x.trim()))
                        .collect::<Result<_, _>>()?;
                    if !parsed.loads.iter().all(|&l: &f64| l > 0.0 && l.is_finite()) {
                        return Err(format!("{flag} takes positive finite load factors"));
                    }
                }
                "--spec-skew" => parsed.spec_skew = number(&flag, &value()?)?,
                "--requests" => parsed.requests = Some(number(&flag, &value()?)?),
                "--width" => {
                    let width = number(&flag, &value()?)?;
                    if !WIDTHS.contains(&width) {
                        return Err(format!(
                            "{flag} takes {} to {}, got {width}",
                            WIDTHS.start(),
                            WIDTHS.end()
                        ));
                    }
                    parsed.width = Some(width);
                }
                "--theta" => {
                    parsed.theta = number(&flag, &value()?)?;
                    if !(parsed.theta >= 0.0 && parsed.theta.is_finite()) {
                        return Err(format!("{flag} takes a non-negative finite exponent"));
                    }
                }
                "--batch" => parsed.batch = positive(&flag, &value()?)?,
                "--cache" => parsed.cache = positive(&flag, &value()?)?,
                "--queue" => parsed.queue = positive(&flag, &value()?)?,
                "--deadline" => parsed.deadline = number(&flag, &value()?)?,
                "--release-policy" => {
                    let policies = [ReleasePolicy::OldestFirst, ReleasePolicy::cache_affine()];
                    parsed.release_policy =
                        choose(&flag, &value()?, &policies, ReleasePolicy::label)?;
                }
                "--qubit-budget" => {
                    parsed.qubit_budget = match number(&flag, &value()?)? {
                        0 => UNLIMITED_BUDGET,
                        budget => budget,
                    };
                }
                "--fleet" => parsed.fleet = number(&flag, &value()?)?,
                "--tenants" => {
                    parsed.tenants = number(&flag, &value()?)?;
                    if parsed.tenants == 0 {
                        return Err(format!("{flag} needs at least one tenant"));
                    }
                }
                "--front-capacity" => parsed.front_capacity = number(&flag, &value()?)?,
                "--shed-policy" => {
                    let policies = [ShedPolicy::TailDrop, ShedPolicy::DeadlinePriority];
                    parsed.shed_policy = choose(&flag, &value()?, &policies, ShedPolicy::label)?;
                }
                "--replication" => parsed.replication = number(&flag, &value()?)?,
                "--slo-deadline" => parsed.slo_deadline = number(&flag, &value()?)?,
                "--out" => parsed.out = Some(PathBuf::from(value()?)),
                "--trace-out" => parsed.trace_out = Some(PathBuf::from(value()?)),
                "--help" => return Err(USAGE.into()),
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        if parsed.fleet > 0 && parsed.mode != "open" {
            return Err(
                "--fleet requires --mode open (the fleet controller is an open-loop front door)"
                    .into(),
            );
        }
        Ok(parsed)
    }
}

/// Parses the value of a numeric `flag`.
fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag} expects a number, got `{text}`"))
}

/// Parses the value of a count `flag` that must be at least 1.
fn positive(flag: &str, text: &str) -> Result<usize, String> {
    match number(flag, text)? {
        0 => Err(format!("{flag} must be at least 1")),
        count => Ok(count),
    }
}

/// The one of `choices` that `label` names `name`.
fn choose<T: Copy>(
    flag: &str,
    name: &str,
    choices: &[T],
    label: impl Fn(&T) -> &'static str,
) -> Result<T, String> {
    choices
        .iter()
        .copied()
        .find(|choice| label(choice) == name)
        .ok_or_else(|| {
            let names: Vec<&str> = choices.iter().map(label).collect();
            format!("unknown {flag} `{name}` (expected {})", names.join(", "))
        })
}

/// The hot circuit shapes the workload cycles over for the selected
/// `--arch`: a realistic deployment serves a handful of compiled
/// configurations, and `mix` serves one per architecture family through
/// the same pipeline — the *planned* representative from the offline
/// `(k, m)` capacity planner under `--qubit-budget`, not the legacy
/// `k = 1` hard-coding, so the cross-family comparison is a fair fight.
///
/// # Errors
///
/// `mix` under a `--qubit-budget` that fits no family.
fn hot_specs(arch: &str, n: usize, qubit_budget: usize) -> Result<Vec<QuerySpec>, String> {
    Ok(match arch {
        "virtual" => {
            let mut specs = vec![QuerySpec::new(1, n - 1)];
            if n >= 3 {
                specs.push(QuerySpec::new(2, n - 2));
                specs.push(
                    QuerySpec::new(1, n - 1)
                        .try_with_encoding(DataEncoding::FusedBit)
                        .expect("FusedBit applies to the virtual family"),
                );
                specs.push(
                    QuerySpec::new(2, n - 2)
                        .try_with_optimizations(Optimizations::OPT2)
                        .expect("OPT2 applies to the virtual family"),
                );
            }
            specs
        }
        "sqc" => vec![QuerySpec::of(ArchSpec::Sqc { n })],
        "fanout" => vec![QuerySpec::of(ArchSpec::Fanout { m: n })],
        "bb" | "ss" => (1..=if n >= 3 { 2 } else { 1 })
            .map(|k| match arch {
                "bb" => ArchSpec::BucketBrigade { k, m: n - k },
                _ => ArchSpec::SelectSwap { k, m: n - k },
            })
            .map(QuerySpec::of)
            .collect(),
        "mix" => {
            let planned = planned_families(n, qubit_budget);
            if planned.is_empty() {
                return Err(format!(
                    "--qubit-budget {qubit_budget} fits no family at n = {n}; raise the budget"
                ));
            }
            planned.into_iter().map(QuerySpec::of).collect()
        }
        other => unreachable!("--arch `{other}` is not in ARCHES"),
    })
}

fn build_workload(args: &Args, n: usize) -> Workload {
    match args.workload {
        "uniform" => Workload::Uniform {
            address_width: n,
            seed: args.seed,
        },
        "zipfian" => Workload::Zipfian {
            address_width: n,
            theta: args.theta,
            seed: args.seed,
        },
        "scan" => Workload::SequentialScan { address_width: n },
        "grover" => Workload::GroverTrace {
            address_width: n,
            target: (1 << n) / 2,
        },
        other => unreachable!("--workload `{other}` is not in WORKLOADS"),
    }
}

/// The arrival process at a mean inter-arrival gap of `mean_gap` virtual
/// ns. `bursty` blends a 4x-fast burst state with a matching slow state
/// so the *average* load equals the Poisson stream's.
fn build_arrivals(args: &Args, mean_gap: f64) -> ArrivalProcess {
    match args.arrivals {
        "poisson" => ArrivalProcess::Poisson {
            mean_gap,
            seed: args.seed ^ 0x5eed,
        },
        "bursty" => ArrivalProcess::Bursty {
            mean_fast_gap: mean_gap / 4.0,
            mean_slow_gap: mean_gap * 7.0 / 4.0,
            mean_dwell: 32.0,
            seed: args.seed ^ 0x5eed,
        },
        other => unreachable!("--arrivals `{other}` is not in ARRIVALS"),
    }
}

fn spec_mix(args: &Args) -> SpecMix {
    if args.spec_skew > 0.0 {
        SpecMix::Zipfian {
            theta: args.spec_skew,
            seed: args.seed ^ 0x51ce,
        }
    } else {
        SpecMix::RoundRobin
    }
}

/// The age cap a policy enforces (0 for strict FIFO, which needs none).
fn policy_age_cap(policy: ReleasePolicy) -> Ticks {
    match policy {
        ReleasePolicy::OldestFirst => 0,
        ReleasePolicy::CacheAffine { age_cap } => age_cap,
    }
}

fn service_config(args: &Args, shots: usize) -> ServiceConfig {
    ServiceConfig::default()
        .with_workers(args.threads)
        .with_shots(shots)
        .with_seed(args.seed)
        .with_batch_limit(args.batch)
        .with_cache_capacity(args.cache)
        .with_queue_capacity(args.queue)
        .with_deadline(args.deadline)
        .with_release_policy(args.release_policy)
}

/// Digest of everything deterministic about a result set: ids,
/// addresses, serving architectures, values, virtual timestamps,
/// latency breakdowns, and the fidelity estimates bit by bit. Equal
/// digests across `--threads` values certify the executor's
/// bit-identity — including for mixed-architecture workloads.
fn results_digest(results: &[QueryResult]) -> u64 {
    let mut bytes: Vec<u8> = Vec::with_capacity(results.len() * 96);
    for r in results {
        bytes.extend(r.id.to_le_bytes());
        bytes.extend(r.address.to_le_bytes());
        bytes.extend(r.spec.arch.family().as_bytes());
        bytes.push(r.value as u8);
        bytes.extend(r.arrival.to_le_bytes());
        bytes.extend(r.completed.to_le_bytes());
        bytes.extend(r.latency.queue_wait.to_le_bytes());
        bytes.extend(r.latency.compile.to_le_bytes());
        bytes.extend(r.latency.execute.to_le_bytes());
        bytes.extend(r.fidelity.mean.to_le_bytes());
        bytes.extend((r.fidelity.shots as u64).to_le_bytes());
    }
    fnv1a_64(bytes)
}

/// Nearest-rank `[p50, p90, p99, max]` of latency samples in ns.
fn percentiles(totals: impl Iterator<Item = f64>) -> [f64; 4] {
    let totals: Vec<f64> = totals.collect();
    let [p50, p90, p99] = [50.0, 90.0, 99.0].map(|q| percentile(&totals, q));
    [p50, p90, p99, totals.iter().copied().fold(0.0f64, f64::max)]
}

fn mean(values: impl Iterator<Item = f64>, count: usize) -> f64 {
    if count == 0 {
        return 0.0;
    }
    values.sum::<f64>() / count as f64
}

/// Slices one or more runs per architecture family: requests,
/// throughput and latency from the results, batch-level cache behavior
/// from the batch reports (a batch that charged compile ticks was a
/// cache miss).
///
/// Each `(results, batches)` pair is an independent run with its own
/// virtual clock (open mode sweeps one per load point), so throughput
/// sums each run's span rather than overlapping their clocks — the
/// union's `max(completed) − min(arrival)` would divide every run's
/// requests by roughly one run's window and report impossible rates.
fn arch_breakdown(runs: &[(&[QueryResult], &[BatchReport])]) -> Vec<ServeArchPoint> {
    let mut families: Vec<&'static str> = Vec::new();
    for (results, _) in runs {
        for r in *results {
            let family = r.spec.arch.family();
            if !families.contains(&family) {
                families.push(family);
            }
        }
    }
    families
        .into_iter()
        .map(|family| {
            let mut requests = 0usize;
            let mut span = 0u64;
            let mut totals: Vec<f64> = Vec::new();
            let mut executes: Vec<f64> = Vec::new();
            let mut fired = 0usize;
            let mut compiled = 0usize;
            for (results, batches) in runs {
                let slice: Vec<&QueryResult> = results
                    .iter()
                    .filter(|r| r.spec.arch.family() == family)
                    .collect();
                if !slice.is_empty() {
                    let first_arrival = slice.iter().map(|r| r.arrival).min().unwrap_or(0);
                    let last_completed = slice.iter().map(|r| r.completed).max().unwrap_or(0);
                    span += last_completed.saturating_sub(first_arrival).max(1);
                }
                requests += slice.len();
                totals.extend(slice.iter().map(|r| r.latency.total() as f64));
                executes.extend(slice.iter().map(|r| r.latency.execute as f64));
                fired += batches
                    .iter()
                    .filter(|b| b.spec.arch.family() == family)
                    .count();
                compiled += batches
                    .iter()
                    .filter(|b| b.spec.arch.family() == family && b.compile > 0)
                    .count();
            }
            ServeArchPoint {
                arch: family.into(),
                requests,
                virtual_rps: requests as f64 * 1e9 / span.max(1) as f64,
                latency_ns: percentiles(totals.into_iter()),
                mean_execute_ns: mean(executes.iter().copied(), executes.len()),
                batches: fired,
                compiled,
            }
        })
        .collect()
}

/// The fixed context of a run: the flags, the memory image, the
/// address workload, the hot specs, and the shot and request counts
/// (requests per load point in open mode).
struct Ctx<'a> {
    args: &'a Args,
    memory: &'a Memory,
    workload: &'a Workload,
    specs: &'a [QuerySpec],
    shots: usize,
    requests: usize,
}

/// The modeled capacity the open-loop load factors multiply: virtual
/// execution units over the mean per-request execute cost of the hot
/// specs, each priced from its architecture's measured resources, times
/// the fleet's shard count.
fn capacity_rps(ctx: &Ctx<'_>) -> f64 {
    let cost = service_config(ctx.args, ctx.shots).cost;
    let mean_execute = ctx
        .specs
        .iter()
        .map(|spec| cost.execute_cost(&spec.arch.instantiate().resources(ctx.memory), ctx.shots))
        .sum::<u64>() as f64
        / ctx.specs.len() as f64;
    cost.capacity_rps(mean_execute.round() as u64) * ctx.args.fleet.max(1) as f64
}

/// One operating point of an open-loop sweep, bare or through the
/// fleet: the condensed summary point, the served results and batch
/// reports (a fleet point keeps none), the merged metrics, the results
/// and trace digests, the recorder whose span log `--trace-out` exports
/// (kept only then), and the fleet tallies (empty for a bare point).
struct PointRun {
    point: ServeLoadPoint,
    results: Vec<QueryResult>,
    batch_reports: Vec<BatchReport>,
    telemetry: MetricsRegistry,
    results_digest: u64,
    trace_digest: u64,
    recorder: Option<TelemetryRecorder>,
    fleet: FleetTally,
}

/// The offered stream of one operating point: arrival instants and
/// `(address, spec)` submissions. It depends only on the flags and
/// `load_factor`, so every policy compared at a point serves
/// *identical* arrivals — the head-to-head blocks rely on this.
fn offered_stream(
    ctx: &Ctx<'_>,
    capacity_rps: f64,
    load_factor: f64,
) -> (Vec<Ticks>, Vec<(u64, QuerySpec)>) {
    let mean_gap = 1e9 / (capacity_rps * load_factor);
    let arrivals = build_arrivals(ctx.args, mean_gap).arrivals(ctx.requests);
    let mix = spec_mix(ctx.args);
    let submissions = assign_specs_with(ctx.workload, ctx.specs, mix, ctx.requests);
    (arrivals, submissions)
}

/// Condenses an operating point from each completion's virtual
/// `[completed at, queue wait, compile, execute, total]` ns.
fn load_point(
    ctx: &Ctx<'_>,
    capacity_rps: f64,
    load_factor: f64,
    first_arrival: Ticks,
    shed: u64,
    cache_hit_rate: f64,
    done: &[[u64; 5]],
) -> ServeLoadPoint {
    let completed = done.len();
    let last_completed = done.iter().map(|d| d[0]).max().unwrap_or(0);
    let span = last_completed.saturating_sub(first_arrival).max(1) as f64;
    let column = |i: usize| done.iter().map(move |d| d[i] as f64);
    ServeLoadPoint {
        offered_rps: capacity_rps * load_factor,
        load_factor,
        offered: ctx.requests,
        completed,
        shed,
        achieved_rps: completed as f64 * 1e9 / span,
        latency_ns: percentiles(column(4)),
        mean_queue_wait_ns: mean(column(1), completed),
        mean_compile_ns: mean(column(2), completed),
        mean_execute_ns: mean(column(3), completed),
        cache_hit_rate,
    }
}

/// Runs one operating point through a bare service under `policy`.
fn run_open_point(
    ctx: &Ctx<'_>,
    capacity_rps: f64,
    load_factor: f64,
    policy: ReleasePolicy,
) -> PointRun {
    let args = ctx.args;
    let (arrivals, submissions) = offered_stream(ctx, capacity_rps, load_factor);
    let mut service = QramService::with_recorder(
        ctx.memory.clone(),
        service_config(args, ctx.shots).with_release_policy(policy),
        TelemetryRecorder::new(),
    );
    for (&arrival, &(address, spec)) in arrivals.iter().zip(&submissions) {
        match service.try_submit_at(address, spec, arrival) {
            Admission::Accepted(_) | Admission::Shed { .. } => {}
            Admission::Rejected(reason) => panic!("generated workload rejected: {reason}"),
        }
    }
    let results = service.run_until_idle();
    let batch_reports = service.take_batch_reports();
    let done: Vec<[u64; 5]> = results
        .iter()
        .map(|r| {
            let l = r.latency;
            [r.completed, l.queue_wait, l.compile, l.execute, l.total()]
        })
        .collect();
    let first_arrival = arrivals.first().copied().unwrap_or(0);
    let shed = service.admission_stats().shed;
    let hit_rate = service.cache_stats().hit_rate();
    let mut telemetry = service.metrics_snapshot();
    telemetry.merge_from(service.recorder().metrics());
    PointRun {
        point: load_point(
            ctx,
            capacity_rps,
            load_factor,
            first_arrival,
            shed,
            hit_rate,
            &done,
        ),
        results_digest: results_digest(&results),
        trace_digest: service.recorder().trace_digest(),
        recorder: args.trace_out.is_some().then(|| service.recorder().clone()),
        results,
        batch_reports,
        telemetry,
        fleet: FleetTally::default(),
    }
}

/// Prints the human-readable stage breakdown plus the digest lines CI
/// diffs across parallelism settings.
fn print_telemetry(telemetry: &MetricsRegistry, trace_digest: u64) {
    let us =
        |name: Key, q: f64| telemetry.histogram(name).map_or(0, |h| h.percentile(q)) as f64 / 1e3;
    for (label, name) in [
        ("stage_queue_wait_us", key::STAGE_QUEUE_WAIT),
        ("stage_compile_us", key::STAGE_COMPILE),
        ("stage_execute_us", key::STAGE_EXECUTE),
    ] {
        print_row(&[
            label.into(),
            format!("p50 {:.1}, p99 {:.1}", us(name, 50.0), us(name, 99.0)),
        ]);
    }
    print_row(&[
        "queue_depth_high_water".into(),
        telemetry.gauge(key::QUEUE_DEPTH_HIGH_WATER).to_string(),
    ]);
    println!("# trace_digest: {trace_digest:016x}");
    println!("# telemetry_digest: {:016x}", telemetry.digest());
}

/// A digest as the summaries print it: 16 lowercase hex digits.
fn hex(digest: u64) -> Json {
    format!("{digest:016x}").into()
}

/// Writes `doc` to `path`, exiting with status 2 if it cannot.
fn write_json(path: &Path, doc: &Json, what: &str) {
    match std::fs::write(path, doc.pretty()) {
        Ok(()) => println!("# {what} written to {}", path.display()),
        Err(e) => {
            eprintln!("serve_bench: cannot write {}: {e}", path.display());
            std::process::exit(2);
        }
    }
}

/// Writes the full trace export: per-section canonical span logs plus
/// the merged metrics registry.
fn write_trace(
    path: &Path,
    mode: &str,
    sections: &[(String, &TelemetryRecorder)],
    merged: &MetricsRegistry,
    trace_digest: u64,
) {
    let sections = sections.iter().map(|(label, recorder)| {
        Json::object([
            ("label", label.as_str().into()),
            ("trace_digest", hex(recorder.trace_digest())),
            ("spans", Json::from(recorder.tracer())),
        ])
    });
    let doc = Json::object([
        ("schema", "qram-bench/trace/v1".into()),
        ("mode", mode.into()),
        ("trace_digest", hex(trace_digest)),
        ("telemetry_digest", hex(merged.digest())),
        ("sections", Json::Array(sections.collect())),
        ("metrics", Json::from(merged)),
    ]);
    write_json(path, &doc, "trace");
}

/// Named summary sections, in write order.
type Sections = Vec<(&'static str, Json)>;

/// How the summary header describes the serving loop.
enum Loop {
    /// Closed loop: requests served and batches fired.
    Closed { requests: usize, batches: usize },
    /// Open loop (bare or fleet): the modeled capacity the swept load
    /// factors multiply.
    Open { capacity_rps: f64 },
}

/// What a mode contributes to its serve summary beyond the header the
/// flags determine.
struct Summary<'a> {
    serving: Loop,
    results_digest: u64,
    /// Mode sections written between the header and `telemetry`.
    lead: Sections,
    telemetry: &'a MetricsRegistry,
    trace_digest: u64,
    /// Mode sections written between `telemetry` and `per_arch`.
    tail: Sections,
    per_arch: &'a [ServeArchPoint],
}

/// Writes the `serve-summary/v6` document every mode emits to `--out`,
/// if given: the shared header, the mode's leading sections, the flat
/// `telemetry` section, the mode's trailing sections, and the
/// per-architecture breakdown.
fn write_summary(ctx: &Ctx<'_>, summary: Summary<'_>) {
    let args = ctx.args;
    let Some(path) = &args.out else {
        return;
    };
    let policy = args.release_policy;
    let (closed, capacity) = match summary.serving {
        Loop::Closed { requests, batches } => (Some((requests, batches)), None),
        Loop::Open { capacity_rps } => (None, Some(capacity_rps)),
    };
    // The header every mode shares; `None` marks a member only the
    // other loop writes.
    let open = |value: Json| capacity.map(|_| value);
    let header = [
        ("schema", Some(SERVE_SUMMARY_SCHEMA.into())),
        (
            "mode",
            Some(if closed.is_some() { "closed" } else { "open" }.into()),
        ),
        ("arch", Some(args.arch.into())),
        ("workload", Some(ctx.workload.name().into())),
        ("arrivals", open(args.arrivals.into())),
        ("spec_mix", Some(mix_name(args).into())),
        ("address_width", Some(ctx.memory.address_width().into())),
        ("requests", closed.map(|(requests, _)| requests.into())),
        ("batches", closed.map(|(_, batches)| batches.into())),
        ("requests_per_point", open(ctx.requests.into())),
        ("specs", Some(ctx.specs.len().into())),
        ("shots", Some(ctx.shots.into())),
        ("seed", Some(args.seed.into())),
        ("queue_capacity", open(args.queue.into())),
        ("deadline_ns", open(args.deadline.into())),
        ("batch_limit", open(args.batch.into())),
        ("release_policy", Some(policy.label().into())),
        ("age_cap_ns", Some(policy_age_cap(policy).into())),
        ("qubit_budget", Some(budget_field(args).into())),
        ("capacity_rps", capacity.map(|rps| Json::fixed(rps, 1))),
        ("results_digest", Some(hex(summary.results_digest))),
    ];
    let mut doc: Vec<(&str, Json)> = header
        .into_iter()
        .filter_map(|(key, value)| Some((key, value?)))
        .collect();
    doc.extend(summary.lead);

    // Stage-histogram percentiles, admission flow conservation,
    // release-policy counters, and the trace/metrics digests.
    let t = summary.telemetry;
    let c = |name: Key| Json::from(t.counter(name));
    let p = |name: Key, q: f64| Json::from(t.histogram(name).map_or(0, |h| h.percentile(q)));
    let arrivals = t.counter(key::ADMISSION_ACCEPTED)
        + t.counter(key::ADMISSION_SHED)
        + t.counter(key::ADMISSION_REJECTED);
    let telemetry = Json::object([
        ("trace_digest", hex(summary.trace_digest)),
        ("telemetry_digest", hex(t.digest())),
        ("arrivals", arrivals.into()),
        ("accepted", c(key::ADMISSION_ACCEPTED)),
        ("shed", c(key::ADMISSION_SHED)),
        ("rejected", c(key::ADMISSION_REJECTED)),
        ("completed", c(key::SERVICE_COMPLETED)),
        ("batches_fired", c(key::BATCHES_FIRED)),
        (
            "queue_depth_high_water",
            t.gauge(key::QUEUE_DEPTH_HIGH_WATER).into(),
        ),
        ("stage_queue_wait_p50_ns", p(key::STAGE_QUEUE_WAIT, 50.0)),
        ("stage_queue_wait_p99_ns", p(key::STAGE_QUEUE_WAIT, 99.0)),
        ("stage_compile_p50_ns", p(key::STAGE_COMPILE, 50.0)),
        ("stage_compile_p99_ns", p(key::STAGE_COMPILE, 99.0)),
        ("stage_execute_p50_ns", p(key::STAGE_EXECUTE, 50.0)),
        ("stage_execute_p99_ns", p(key::STAGE_EXECUTE, 99.0)),
        ("stage_total_p50_ns", p(key::STAGE_TOTAL, 50.0)),
        ("stage_total_p90_ns", p(key::STAGE_TOTAL, 90.0)),
        ("stage_total_p99_ns", p(key::STAGE_TOTAL, 99.0)),
        ("batch_size_p50", p(key::BATCH_SIZE, 50.0)),
        (
            "policy_cache_affine_fires",
            c(key::POLICY_CACHE_AFFINE_FIRES),
        ),
        ("policy_age_cap_forced", c(key::POLICY_AGE_CAP_FORCED)),
        ("sim_shots", c(key::SIM_SHOTS)),
        ("sim_gate_applications", c(key::SIM_GATES)),
    ]);
    doc.push(("telemetry", telemetry));
    doc.extend(summary.tail);
    let per_arch = summary.per_arch.iter().map(Json::from).collect();
    doc.push(("per_arch", Json::Array(per_arch)));
    write_json(path, &Json::object(doc), "summary");
}

fn main() {
    let args = exit_on_error(USAGE, Args::parse(std::env::args().skip(1)));
    let n = args.width.unwrap_or(if args.full { 6 } else { 4 });
    let memory = experiment_memory(n, args.seed);
    let workload = build_workload(&args, n);
    let specs = exit_on_error(USAGE, hot_specs(args.arch, n, args.qubit_budget));
    let ctx = Ctx {
        args: &args,
        memory: &memory,
        workload: &workload,
        specs: &specs,
        shots: args.shots.unwrap_or(if args.full { 32 } else { 8 }),
        requests: args.requests.unwrap_or(if args.full { 1024 } else { 256 }),
    };
    match args.mode {
        "closed" => run_closed(&ctx),
        "open" => run_open(&ctx),
        other => unreachable!("--mode `{other}` is not in MODES"),
    }
}

/// Prints the column header of an open-loop sweep table.
fn print_sweep_header() {
    let columns = "load offered completed shed rps p50_us p99_us qwait_us hit_rate";
    print_row(&columns.split(' ').map(String::from).collect::<Vec<_>>());
}

/// Prints one operating point of an open-loop sweep table.
fn print_point(load_factor: f64, point: &ServeLoadPoint) {
    print_row(&[
        format!("{load_factor:.2}"),
        point.offered.to_string(),
        point.completed.to_string(),
        point.shed.to_string(),
        format!("{:.0}", point.achieved_rps),
        format!("{:.1}", point.latency_ns[0] / 1e3),
        format!("{:.1}", point.latency_ns[2] / 1e3),
        format!("{:.1}", point.mean_queue_wait_ns / 1e3),
        format!("{:.3}", point.cache_hit_rate),
    ]);
}

/// Closed loop: every request is queued up front (a blocking client
/// population), then the pipeline drains to idle.
fn run_closed(ctx: &Ctx<'_>) {
    let args = ctx.args;
    let mut service = QramService::with_recorder(
        ctx.memory.clone(),
        service_config(args, ctx.shots),
        TelemetryRecorder::new(),
    );
    let submissions = assign_specs_with(ctx.workload, ctx.specs, spec_mix(args), ctx.requests);

    // Host time spans `submit_all`, which already fires every full
    // batch, and the drain of the rest.
    let start = host_wall();
    service.submit_all(submissions);
    let report = service.drain();
    let wall = start.elapsed();

    let latency = percentiles(report.results.iter().map(|r| r.latency.total() as f64));
    let wall_rps = report.results.len() as f64 / wall.as_secs_f64().max(1e-9);
    let virtual_span = report
        .results
        .iter()
        .map(|r| r.completed)
        .max()
        .unwrap_or(0)
        .max(1) as f64;
    let virtual_rps = report.results.len() as f64 * 1e9 / virtual_span;
    let count = report.results.len();
    let mean_fidelity = mean(report.results.iter().map(|r| r.fidelity.mean), count);
    let mean_queue_wait = mean(
        report.results.iter().map(|r| r.latency.queue_wait as f64),
        count,
    );
    let digest = results_digest(&report.results);
    let mut telemetry = service.metrics_snapshot();
    telemetry.merge_from(service.recorder().metrics());
    let trace_digest = service.recorder().trace_digest();

    let per_arch = arch_breakdown(&[(&report.results[..], &report.batches[..])]);

    println!(
        "# serve_bench closed: {} x {} over n={} (arch {}, {} hot specs, batch <= {}, {} shots, {} workers)",
        count,
        ctx.workload.name(),
        ctx.memory.address_width(),
        args.arch,
        ctx.specs.len(),
        args.batch,
        ctx.shots,
        report.workers,
    );
    print_row(&["metric", "value"].map(String::from));
    print_row(&["requests".into(), count.to_string()]);
    print_row(&["batches".into(), report.batches.len().to_string()]);
    print_row(&[
        "release_policy".into(),
        args.release_policy.label().to_string(),
    ]);
    print_row(&["virtual_rps".into(), format!("{virtual_rps:.1}")]);
    print_row(&["wall_rps".into(), format!("{wall_rps:.1}")]);
    print_row(&["latency_p50_us".into(), format!("{:.1}", latency[0] / 1e3)]);
    print_row(&["latency_p90_us".into(), format!("{:.1}", latency[1] / 1e3)]);
    print_row(&["latency_p99_us".into(), format!("{:.1}", latency[2] / 1e3)]);
    print_row(&[
        "mean_queue_wait_us".into(),
        format!("{:.1}", mean_queue_wait / 1e3),
    ]);
    print_row(&["cache_hits".into(), report.cache.hits.to_string()]);
    print_row(&["cache_misses".into(), report.cache.misses.to_string()]);
    print_row(&["cache_evictions".into(), report.cache.evictions.to_string()]);
    print_row(&[
        "cache_hit_rate".into(),
        format!("{:.3}", report.cache.hit_rate()),
    ]);
    print_row(&["mean_fidelity".into(), format!("{mean_fidelity:.4}")]);
    for point in &per_arch {
        print_row(&[
            format!("arch[{}]", point.arch),
            format!(
                "{} reqs, p50 {:.1} us, exec {:.1} us, batch hit {:.2}",
                point.requests,
                point.latency_ns[0] / 1e3,
                point.mean_execute_ns / 1e3,
                point.batch_hit_rate()
            ),
        ]);
    }
    print_telemetry(&telemetry, trace_digest);
    println!("# results_digest: {digest:016x}");

    let cache = Json::object([
        ("hits", report.cache.hits.into()),
        ("misses", report.cache.misses.into()),
        ("evictions", report.cache.evictions.into()),
        ("hit_rate", Json::fixed(report.cache.hit_rate(), 4)),
    ]);
    let lead = vec![
        ("virtual_rps", Json::fixed(virtual_rps, 1)),
        ("wall_rps", Json::fixed(wall_rps, 1)),
        ("latency_ns", latency_json(&latency)),
        ("mean_queue_wait_ns", Json::fixed(mean_queue_wait, 1)),
        ("cache", cache),
        ("mean_fidelity", Json::fixed(mean_fidelity, 6)),
    ];
    let serving = Loop::Closed {
        requests: count,
        batches: report.batches.len(),
    };
    write_summary(
        ctx,
        Summary {
            serving,
            results_digest: digest,
            lead,
            telemetry: &telemetry,
            trace_digest,
            tail: Vec::new(),
            per_arch: &per_arch,
        },
    );
    if let Some(path) = &args.trace_out {
        let sections = [("closed".to_string(), service.recorder())];
        write_trace(path, "closed", &sections, &telemetry, trace_digest);
    }
}

/// Open loop: arrivals at fixed offered rates, swept across load
/// multipliers of the modeled capacity — into one bare service, or with
/// `--fleet N` through a sharded [`FleetController`] with deterministic
/// tenant/SLO tagging.
fn run_open(ctx: &Ctx<'_>) {
    let args = ctx.args;
    let fleet = args.fleet > 0;
    let capacity_rps = capacity_rps(ctx);
    if fleet {
        println!(
            "# serve_bench fleet: {} shards x {} requests/point, {} tenants, shed {}, replication {}, n={} (arch {}, {} hot specs, {} shots, front {}, capacity {:.0} rps)",
            args.fleet,
            ctx.requests,
            args.tenants,
            args.shed_policy.label(),
            args.replication,
            ctx.memory.address_width(),
            args.arch,
            ctx.specs.len(),
            ctx.shots,
            args.front_capacity,
            capacity_rps,
        );
    } else {
        println!(
            "# serve_bench open: {} x {} + {} arrivals over n={} (arch {}, {} hot specs, {} shots, queue {}, deadline {} ns, capacity {:.0} rps)",
            ctx.requests,
            ctx.workload.name(),
            args.arrivals,
            ctx.memory.address_width(),
            args.arch,
            ctx.specs.len(),
            ctx.shots,
            args.queue,
            args.deadline,
            capacity_rps,
        );
    }
    print_sweep_header();
    let runs: Vec<PointRun> = args
        .loads
        .iter()
        .map(|&load_factor| {
            let run = if fleet {
                run_fleet_point(ctx, capacity_rps, load_factor, args.shed_policy)
            } else {
                run_open_point(ctx, capacity_rps, load_factor, args.release_policy)
            };
            print_point(load_factor, &run.point);
            run
        })
        .collect();
    let digest = fnv1a_64(runs.iter().flat_map(|r| r.results_digest.to_le_bytes()));
    // Each operating point runs its own service or fleet (its own
    // virtual clock), so the sweep's trace digest chains the per-point
    // digests in sweep order rather than merging incomparable clocks.
    let trace_digest = fnv1a_64(runs.iter().flat_map(|r| r.trace_digest.to_le_bytes()));
    let mut telemetry = MetricsRegistry::new();
    let mut tally = FleetTally::default();
    for run in &runs {
        telemetry.merge_from(&run.telemetry);
        tally.merge(&run.fleet);
    }
    print_telemetry(&telemetry, trace_digest);
    println!("# results_digest: {digest:016x}");
    // The per-architecture slice aggregates every operating point (the
    // sweep itself stays the per-point view); each point keeps its own
    // virtual-clock span so the aggregate throughput stays physical.
    let arch_runs: Vec<(&[QueryResult], &[BatchReport])> = runs
        .iter()
        .map(|r| (&r.results[..], &r.batch_reports[..]))
        .collect();
    let per_arch = arch_breakdown(&arch_runs);

    let (lead, mut tail) = if fleet {
        fleet_sections(ctx, capacity_rps, &runs, &tally, &telemetry)
    } else {
        let compare = policy_compare(ctx, capacity_rps);
        (Vec::new(), vec![("policy_compare", compare)])
    };
    // The sweep follows the mode's head-to-head section.
    let sweep = runs.iter().map(|run| Json::from(&run.point)).collect();
    tail.insert(1, ("sweep", Json::Array(sweep)));
    write_summary(
        ctx,
        Summary {
            serving: Loop::Open { capacity_rps },
            results_digest: digest,
            lead,
            telemetry: &telemetry,
            trace_digest,
            tail,
            per_arch: &per_arch,
        },
    );
    if let Some(path) = &args.trace_out {
        let sections: Vec<(String, &TelemetryRecorder)> = runs
            .iter()
            .zip(&args.loads)
            .filter_map(|(run, load)| Some((format!("load={load:.2}"), run.recorder.as_ref()?)))
            .collect();
        write_trace(path, "open", &sections, &telemetry, trace_digest);
    }
}

/// The bare open sweep's `policy_compare` section: a head-to-head
/// release-policy comparison at the swept load nearest the modeled
/// capacity (load 1.0). Below it queues barely form, far above it every
/// pending group ages past the cap and cache-affine correctly
/// degenerates to FIFO — the capacity point is where the policies
/// actually diverge. Both policies serve identical arrivals, so every
/// delta is the dispatch policy's doing.
fn policy_compare(ctx: &Ctx<'_>, capacity_rps: f64) -> Json {
    let compare_load = ctx
        .args
        .loads
        .iter()
        .copied()
        .min_by(|a, b| {
            (a - 1.0)
                .abs()
                .partial_cmp(&(b - 1.0).abs())
                .expect("load factors are finite")
        })
        .expect("--load is non-empty");
    let oldest = run_open_point(ctx, capacity_rps, compare_load, ReleasePolicy::OldestFirst);
    let affine = run_open_point(
        ctx,
        capacity_rps,
        compare_load,
        ReleasePolicy::cache_affine(),
    );
    let (of, ca) = (&oldest.point, &affine.point);
    print_row(&[
        "policy_p50_us".into(),
        format!(
            "oldest-first {:.1} vs cache-affine {:.1} @ load {compare_load:.2}",
            of.latency_ns[0] / 1e3,
            ca.latency_ns[0] / 1e3
        ),
    ]);
    print_row(&[
        "policy_mean_compile_us".into(),
        format!(
            "oldest-first {:.1} vs cache-affine {:.1}",
            of.mean_compile_ns / 1e3,
            ca.mean_compile_ns / 1e3
        ),
    ]);
    let mut compare = vec![("compare_load".to_string(), Json::fixed(compare_load, 2))];
    for (policy, run) in [("oldest_first", &oldest), ("cache_affine", &affine)] {
        let p = &run.point;
        compare.extend([
            (format!("p50_{policy}_ns"), Json::fixed(p.latency_ns[0], 0)),
            (format!("p99_{policy}_ns"), Json::fixed(p.latency_ns[2], 0)),
            (
                format!("mean_compile_{policy}_ns"),
                Json::fixed(p.mean_compile_ns, 1),
            ),
            (
                format!("mean_queue_wait_{policy}_ns"),
                Json::fixed(p.mean_queue_wait_ns, 1),
            ),
            (format!("digest_{policy}"), hex(run.results_digest)),
        ]);
    }
    for (name, counter) in [
        ("compare_cache_affine_fires", key::POLICY_CACHE_AFFINE_FIRES),
        ("compare_age_cap_forced", key::POLICY_AGE_CAP_FORCED),
    ] {
        compare.push((name.into(), affine.telemetry.counter(counter).into()));
    }
    Json::object(compare)
}

/// The fleet topology selected by the flags: `--fleet` shards each
/// running the bare service configuration, fronted by a
/// `--front-capacity` door under `--shed-policy`.
fn fleet_config(args: &Args, shots: usize) -> FleetConfig {
    FleetConfig::default()
        .with_shards(args.fleet)
        .with_shard_base(service_config(args, shots))
        .with_front_capacity(args.front_capacity)
        .with_shed_policy(args.shed_policy)
        .with_replication(args.replication)
}

/// Deterministic tenant for the `index`-th offer: an FNV mix of the
/// index and the master seed, so the tenant stream is reproducible but
/// decorrelated from the round-robin SLO-class cycle below.
fn tenant_for(index: u64, tenants: u32, seed: u64) -> TenantId {
    let mut bytes = index.to_le_bytes().to_vec();
    bytes.extend_from_slice(&seed.to_le_bytes());
    TenantId((fnv1a_64(bytes) % tenants as u64) as u32)
}

/// Deterministic SLO class for the `index`-th offer: 25% interactive
/// (under the `--slo-deadline` budget), 50% batch, 25% best-effort.
fn slo_for(index: u64, deadline: Ticks) -> SloClass {
    match index % 4 {
        0 => SloClass::Interactive { deadline },
        3 => SloClass::BestEffort,
        _ => SloClass::Batch,
    }
}

/// Digest of everything deterministic about a fleet result set: the
/// fleet-level placement and queueing context on top of each
/// shard-level result's own deterministic fields.
fn fleet_results_digest(results: &[FleetResult]) -> u64 {
    let mut bytes: Vec<u8> = Vec::with_capacity(results.len() * 96);
    for r in results {
        bytes.extend(r.seq.to_le_bytes());
        bytes.extend((r.shard as u64).to_le_bytes());
        bytes.extend(r.tenant.0.to_le_bytes());
        bytes.extend(r.slo.label().as_bytes());
        bytes.extend(r.front_wait.to_le_bytes());
        bytes.extend(r.result.address.to_le_bytes());
        bytes.extend(r.result.spec.arch.family().as_bytes());
        bytes.push(r.result.value as u8);
        bytes.extend(r.result.completed.to_le_bytes());
        bytes.extend(r.result.latency.queue_wait.to_le_bytes());
        bytes.extend(r.result.latency.compile.to_le_bytes());
        bytes.extend(r.result.latency.execute.to_le_bytes());
    }
    fnv1a_64(bytes)
}

/// A fleet operating point's tallies, summed over the sweep for the
/// summary: door-to-completion latencies (all, and the interactive
/// class's), and per-tenant, per-SLO-class and per-shard counts.
#[derive(Default)]
struct FleetTally {
    totals: Vec<f64>,
    interactive: Vec<f64>,
    /// `tenant → [completed, shed]`.
    tenants: BTreeMap<u32, [u64; 2]>,
    /// `class label → [completed, shed, deadline met, deadline missed]`.
    classes: BTreeMap<&'static str, [u64; 4]>,
    /// `shard → [completed, cache hits, cache misses]`.
    shards: BTreeMap<usize, [u64; 3]>,
}

impl FleetTally {
    fn merge(&mut self, other: &FleetTally) {
        fn add<K: Ord + Copy, const N: usize>(
            into: &mut BTreeMap<K, [u64; N]>,
            from: &BTreeMap<K, [u64; N]>,
        ) {
            for (&key, counts) in from {
                let slot = into.entry(key).or_insert([0; N]);
                slot.iter_mut().zip(counts).for_each(|(a, b)| *a += b);
            }
        }
        self.totals.extend(&other.totals);
        self.interactive.extend(&other.interactive);
        add(&mut self.tenants, &other.tenants);
        add(&mut self.classes, &other.classes);
        add(&mut self.shards, &other.shards);
    }
}

/// Runs one operating point through the fleet under `policy`. Latencies
/// run door to completion: the front-door wait counts as queueing.
fn run_fleet_point(
    ctx: &Ctx<'_>,
    capacity_rps: f64,
    load_factor: f64,
    policy: ShedPolicy,
) -> PointRun {
    let args = ctx.args;
    let (arrivals, submissions) = offered_stream(ctx, capacity_rps, load_factor);
    let mut fleet = FleetController::with_telemetry(
        ctx.memory.clone(),
        fleet_config(args, ctx.shots).with_shed_policy(policy),
    );
    let mut sheds = Vec::new();
    for (i, (&arrival, &(address, spec))) in arrivals.iter().zip(&submissions).enumerate() {
        let tenant = tenant_for(i as u64, args.tenants, args.seed);
        let slo = slo_for(i as u64, args.slo_deadline);
        sheds.extend(fleet.submit_at(address, spec, arrival, tenant, slo).shed);
    }
    let results = fleet.run_until_idle();
    let done: Vec<[u64; 5]> = results
        .iter()
        .map(|r| {
            let l = r.result.latency;
            let queue_wait = r.front_wait + l.queue_wait;
            [
                r.result.completed,
                queue_wait,
                l.compile,
                l.execute,
                r.total_latency(),
            ]
        })
        .collect();
    let is_interactive = |r: &&FleetResult| matches!(r.slo, SloClass::Interactive { .. });
    let mut tally = FleetTally {
        totals: done.iter().map(|d| d[4] as f64).collect(),
        interactive: results
            .iter()
            .filter(is_interactive)
            .map(|r| r.total_latency() as f64)
            .collect(),
        shards: fleet
            .shards()
            .iter()
            .enumerate()
            .map(|(sid, shard)| {
                let on_shard = results.iter().filter(|r| r.shard == sid).count() as u64;
                let c = shard.cache_stats();
                (sid, [on_shard, c.hits, c.misses])
            })
            .collect(),
        ..FleetTally::default()
    };
    for r in &results {
        tally.tenants.entry(r.tenant.0).or_default()[0] += 1;
        let class = tally.classes.entry(r.slo.label()).or_default();
        class[0] += 1;
        match r.deadline_met() {
            Some(true) => class[2] += 1,
            Some(false) => class[3] += 1,
            None => {}
        }
    }
    for victim in &sheds {
        tally.tenants.entry(victim.tenant.0).or_default()[1] += 1;
        tally.classes.entry(victim.slo.label()).or_default()[1] += 1;
    }
    let hits: u64 = tally.shards.values().map(|c| c[1]).sum();
    let lookups: u64 = tally.shards.values().map(|c| c[1] + c[2]).sum();
    let hit_rate = hits as f64 / lookups.max(1) as f64;
    let first_arrival = arrivals.first().copied().unwrap_or(0);
    let point = load_point(
        ctx,
        capacity_rps,
        load_factor,
        first_arrival,
        sheds.len() as u64,
        hit_rate,
        &done,
    );
    let mut telemetry = fleet.metrics_snapshot();
    for shard in fleet.shards() {
        telemetry.merge_from(shard.recorder().metrics());
    }
    telemetry.merge_from(fleet.recorder().metrics());
    PointRun {
        point,
        results_digest: fleet_results_digest(&results),
        trace_digest: fleet.trace_digest(),
        recorder: args.trace_out.is_some().then(|| fleet.recorder().clone()),
        results: results.into_iter().map(|r| r.result).collect(),
        batch_reports: Vec::new(),
        telemetry,
        fleet: tally,
    }
}

/// The fleet sweep's sections: `fleet` (written before `telemetry`),
/// then `slo_compare`, `per_shard`, `per_tenant` and `per_slo`. The SLO
/// head-to-head runs at the *highest* swept load — overload is where
/// the shed policies actually diverge. Both runs serve byte-identical
/// offered streams, so every delta is the front-door policy's doing.
fn fleet_sections(
    ctx: &Ctx<'_>,
    capacity_rps: f64,
    runs: &[PointRun],
    tally: &FleetTally,
    telemetry: &MetricsRegistry,
) -> (Sections, Sections) {
    let args = ctx.args;
    let fleet_p50 = percentile(&tally.totals, 50.0);
    let fleet_p99 = percentile(&tally.totals, 99.0);
    print_row(&[
        "fleet_door_to_done_us".into(),
        format!("p50 {:.1}, p99 {:.1}", fleet_p50 / 1e3, fleet_p99 / 1e3),
    ]);
    for (t, [completed, shed]) in &tally.tenants {
        let counts = format!("{completed} completed, {shed} shed");
        print_row(&[format!("tenant[{t}]"), counts]);
    }
    for (label, [completed, shed, met, missed]) in &tally.classes {
        let deadline = met + missed;
        let counts = format!("{completed} completed, {shed} shed, deadline {met}/{deadline}");
        print_row(&[format!("slo[{label}]"), counts]);
    }

    let compare_load = args.loads.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let dp = run_fleet_point(
        ctx,
        capacity_rps,
        compare_load,
        ShedPolicy::DeadlinePriority,
    );
    let td = run_fleet_point(ctx, capacity_rps, compare_load, ShedPolicy::TailDrop);
    let dp_p99 = percentile(&dp.fleet.interactive, 99.0);
    let td_p99 = percentile(&td.fleet.interactive, 99.0);
    print_row(&[
        "slo_interactive_p99_us".into(),
        format!(
            "deadline-priority {:.1} vs tail-drop {:.1} @ load {compare_load:.2}",
            dp_p99 / 1e3,
            td_p99 / 1e3
        ),
    ]);
    // Requests of an SLO class shed at the front door.
    let shed = |run: &PointRun, class| Json::from(run.fleet.classes.get(class).map_or(0, |c| c[1]));
    let slo_compare = Json::object([
        ("slo_compare_load", Json::fixed(compare_load, 2)),
        (
            "interactive_p99_deadline_priority_ns",
            Json::fixed(dp_p99, 0),
        ),
        ("interactive_p99_tail_drop_ns", Json::fixed(td_p99, 0)),
        (
            "interactive_shed_deadline_priority",
            shed(&dp, "interactive"),
        ),
        ("interactive_shed_tail_drop", shed(&td, "interactive")),
        ("batch_shed_deadline_priority", shed(&dp, "batch")),
        ("batch_shed_tail_drop", shed(&td, "batch")),
        (
            "best_effort_shed_deadline_priority",
            shed(&dp, "best_effort"),
        ),
        ("best_effort_shed_tail_drop", shed(&td, "best_effort")),
        ("digest_deadline_priority", hex(dp.results_digest)),
        ("digest_tail_drop", hex(td.results_digest)),
    ]);
    let counter = |name: Key| Json::from(telemetry.counter(name));
    let offered: usize = runs.iter().map(|r| r.point.offered).sum();
    let shed: u64 = runs.iter().map(|r| r.point.shed).sum();
    let high_water = telemetry.gauge(key::FLEET_FRONT_DEPTH_HIGH_WATER);
    let fleet_section = Json::object([
        ("fleet_shards", args.fleet.into()),
        ("fleet_tenants", args.tenants.into()),
        ("fleet_front_capacity", args.front_capacity.into()),
        ("fleet_shed_policy", args.shed_policy.label().into()),
        ("fleet_replication", args.replication.into()),
        ("fleet_slo_deadline_ns", args.slo_deadline.into()),
        ("fleet_offered", offered.into()),
        ("fleet_completed", tally.totals.len().into()),
        ("fleet_shed", shed.into()),
        ("fleet_routed", counter(key::FLEET_ROUTED)),
        (
            "fleet_replica_cache_wins",
            counter(key::FLEET_REPLICA_CACHE_WINS),
        ),
        ("fleet_front_depth_high_water", high_water.into()),
        ("fleet_p50_ns", Json::fixed(fleet_p50, 0)),
        ("fleet_p99_ns", Json::fixed(fleet_p99, 0)),
    ]);
    let per_shard = tally
        .shards
        .iter()
        .map(|(&sid, &[completed, hits, misses])| {
            Json::object([
                ("shard", sid.into()),
                ("completed", completed.into()),
                ("cache_hits", hits.into()),
                ("cache_misses", misses.into()),
            ])
        });
    let per_tenant = tally.tenants.iter().map(|(&tenant, &[completed, shed])| {
        Json::object([
            ("tenant", tenant.into()),
            ("completed", completed.into()),
            ("shed", shed.into()),
        ])
    });
    let per_slo = tally
        .classes
        .iter()
        .map(|(&slo, &[completed, shed, met, missed])| {
            Json::object([
                ("slo", slo.into()),
                ("completed", completed.into()),
                ("shed", shed.into()),
                ("deadline_met", met.into()),
                ("deadline_missed", missed.into()),
            ])
        });
    let tail = vec![
        ("slo_compare", slo_compare),
        ("per_shard", Json::Array(per_shard.collect())),
        ("per_tenant", Json::Array(per_tenant.collect())),
        ("per_slo", Json::Array(per_slo.collect())),
    ];
    (vec![("fleet", fleet_section)], tail)
}

/// The `qubit_budget` summary field: the CLI's "0 means unlimited"
/// convention, round-tripped.
fn budget_field(args: &Args) -> usize {
    if args.qubit_budget == UNLIMITED_BUDGET {
        0
    } else {
        args.qubit_budget
    }
}

fn mix_name(args: &Args) -> String {
    if args.spec_skew > 0.0 {
        format!("zipfian({:.2})", args.spec_skew)
    } else {
        "round_robin".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_readme_fleet_command() {
        let args = parse(&[
            "--mode",
            "open",
            "--fleet",
            "4",
            "--tenants",
            "3",
            "--requests",
            "350000",
            "--shots",
            "0",
            "--seed",
            "7",
            "--threads",
            "2",
            "--arch",
            "mix",
            "--spec-skew",
            "0.9",
            "--cache",
            "2",
            "--load",
            "0.5,1.0,2.0",
            "--shed-policy",
            "tail-drop",
            "--release-policy",
            "cache-affine",
        ])
        .unwrap();
        assert_eq!(
            (args.fleet, args.tenants, args.requests),
            (4, 3, Some(350_000))
        );
        assert_eq!(args.loads, [0.5, 1.0, 2.0]);
        assert_eq!(args.shed_policy, ShedPolicy::TailDrop);
        assert_eq!(args.release_policy, ReleasePolicy::cache_affine());
    }

    #[test]
    fn help_returns_the_usage() {
        assert_eq!(parse(&["--seed", "7", "--help"]).unwrap_err(), USAGE);
    }

    #[test]
    fn rejects_unknown_flags_and_missing_or_malformed_values() {
        for (args, error) in [
            (&["--fast"][..], "unknown flag `--fast`"),
            (&["--seed"], "--seed needs a value"),
            (
                &["--requests", "many"],
                "--requests expects a number, got `many`",
            ),
            (&["--load", "0.5,x"], "--load expects a number, got `x`"),
            (
                &["--load", "0"],
                "--load takes positive finite load factors",
            ),
            (
                &["--load", "NaN"],
                "--load takes positive finite load factors",
            ),
            (&["--tenants", "0"], "--tenants needs at least one tenant"),
        ] {
            assert_eq!(parse(args).unwrap_err(), error, "{args:?}");
        }
    }

    /// Values that parse but that the service, the workload or the
    /// memory cannot take are rejected with the flag's range.
    #[test]
    fn rejects_out_of_range_values() {
        for (args, error) in [
            (&["--batch", "0"][..], "--batch must be at least 1"),
            (&["--cache", "0"], "--cache must be at least 1"),
            (&["--queue", "0"], "--queue must be at least 1"),
            (
                &["--theta", "-1"],
                "--theta takes a non-negative finite exponent",
            ),
            (
                &["--theta", "NaN"],
                "--theta takes a non-negative finite exponent",
            ),
            (&["--width", "0"], "--width takes 2 to 24, got 0"),
            (&["--width", "1"], "--width takes 2 to 24, got 1"),
            (&["--width", "40"], "--width takes 2 to 24, got 40"),
        ] {
            assert_eq!(parse(args).unwrap_err(), error, "{args:?}");
        }
    }

    #[test]
    fn rejects_unknown_names() {
        for flag in [
            "--arch",
            "--mode",
            "--workload",
            "--arrivals",
            "--release-policy",
            "--shed-policy",
        ] {
            let error = parse(&[flag, "bogus"]).unwrap_err();
            assert!(
                error.starts_with(&format!("unknown {flag} `bogus` (expected ")),
                "{error}"
            );
        }
    }

    #[test]
    fn fleet_needs_open_mode() {
        assert!(parse(&["--fleet", "2"])
            .unwrap_err()
            .contains("--mode open"));
        assert!(parse(&["--fleet", "2", "--mode", "open"]).is_ok());
    }

    #[test]
    fn every_accepted_name_builds() {
        for arch in ARCHES {
            assert!(!hot_specs(arch, 4, UNLIMITED_BUDGET).unwrap().is_empty());
        }
        for name in WORKLOADS {
            let args = parse(&["--workload", name]).unwrap();
            assert_eq!(build_workload(&args, 4).name(), name);
        }
        for name in ARRIVALS {
            let args = parse(&["--arrivals", name]).unwrap();
            assert_eq!(build_arrivals(&args, 1_000.0).name(), name);
        }
    }

    #[test]
    fn every_family_builds_at_the_narrowest_width() {
        let n = *WIDTHS.start();
        assert_eq!(parse(&["--width", "2"]).unwrap().width, Some(n));
        let memory = experiment_memory(n, 7);
        for arch in ARCHES {
            for spec in hot_specs(arch, n, UNLIMITED_BUDGET).unwrap() {
                spec.arch.instantiate().build(&memory);
            }
        }
    }

    #[test]
    fn a_budget_that_fits_no_family_is_an_error() {
        assert!(hot_specs("mix", 4, 1)
            .unwrap_err()
            .contains("fits no family"));
    }
}
