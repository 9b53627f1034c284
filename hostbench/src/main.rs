//! `qram-hostbench` — host wall-clock benchmark of the `qram` facade.
//!
//! ```text
//! cargo run --release --offline --manifest-path hostbench/Cargo.toml -- \
//!     --workload fleet-overload --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--workload all` runs every workload, each in its own process. The
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; a failed correctness check also
//! exits with code 1.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use qram_hostbench::metrics::{result_line, Metric, END_TO_END, WORKLOADS};
use qram_hostbench::rounds::{Outcome, Pass};
use qram_hostbench::stats::peak_rss_mib;
use qram_hostbench::{operation, run, Settings};

const USAGE: &str =
    "usage: qram-hostbench --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]
workloads: fleet-overload, offline-noisy, compile-churn, fig9-superposition";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value()?,
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds >= 0.0 && parsed.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if parsed.workload != "all" && operation(&parsed.workload).is_none() {
        return Err(format!("unknown workload `{}`", parsed.workload));
    }
    Ok(parsed)
}

/// Keeps heap memory the process frees inside the process: glibc's
/// malloc otherwise unmaps large blocks and trims the heap top, so later
/// rounds fault the same memory in again. On a VM whose balloon reports
/// free pages to the host, each such fault is also a host fault, whose
/// cost follows the host's load; it made fig9's runs swing by a tenth.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn keep_freed_memory() {
    // glibc's `mallopt` parameter numbers (malloc.h).
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    /// The largest mmap threshold glibc accepts on 64-bit targets.
    const MMAP_THRESHOLD_MAX: i32 = 32 << 20;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: the declaration matches glibc's `int mallopt(int, int)`,
    // which takes the arena lock itself and only moves two thresholds;
    // no memory is passed to it.
    unsafe {
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_MAX);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn keep_freed_memory() {}

fn main() -> ExitCode {
    keep_freed_memory();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("qram-hostbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let settings = Settings {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let outcome = run(&args.workload, &settings).expect("workload name was validated");
    report(&args, &outcome)
}

/// Prints the run's context, metrics and result line; the exit code
/// says whether every correctness check passed.
fn report(args: &Args, outcome: &Outcome) -> ExitCode {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# qram-hostbench {} seed {} seconds {} trace {} rounds {} threads_available {threads}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        outcome.rounds.len()
    );
    println!(
        "# operation: {}",
        operation(&args.workload).expect("validated workload")
    );
    println!("# modeled values are virtual-clock outputs of an unvalidated CostModel, not host measurements");
    for note in &outcome.notes {
        println!("# {note}");
    }
    println!("# results_digest: {:016x}", outcome.digest());
    let rates: Vec<String> = outcome
        .rounds
        .iter()
        .map(|(pass, r)| format!("{pass:?}:{:.0}", r.ops_per_s()))
        .collect();
    println!("# round ops_per_s: {}", rates.join(" "));
    let setups: Vec<String> = outcome
        .rounds
        .iter()
        .map(|(pass, r)| format!("{pass:?}:{:.4}", r.setup_ns / 1e6))
        .collect();
    println!("# round setup_ms: {}", setups.join(" "));

    let metrics: Vec<(Metric, f64)> = if args.trace {
        print_spans(outcome);
        write_spans(&args.workload, outcome);
        outcome.layers.all()
    } else {
        vec![
            (END_TO_END[0], outcome.ops_per_s(Pass::Plain)),
            (END_TO_END[1], outcome.setup_s()),
            (END_TO_END[2], peak_rss_mib()),
        ]
    };
    for (metric, value) in &metrics {
        println!("{}\t{value}\t{}", metric.name, metric.unit);
    }
    println!("attempted\t{}", outcome.attempted());
    println!("failed\t{}", outcome.failed());

    let problems = outcome.problems();
    for problem in &problems {
        eprintln!("qram-hostbench: correctness check failed: {problem}");
    }
    println!(
        "{}",
        result_line(
            problems.is_empty(),
            outcome.attempted(),
            outcome.failed(),
            &metrics
        )
    );
    if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prints each span name's count, total and self time.
fn print_spans(outcome: &Outcome) {
    println!("# span\tcount\ttotal_ms\tself_ms");
    for (name, totals) in outcome.tracer.totals() {
        println!(
            "# {name}\t{}\t{:.3}\t{:.3}",
            totals.count,
            totals.total_ns as f64 / 1e6,
            totals.self_ns as f64 / 1e6
        );
    }
}

/// Writes the span log next to the benchmark's sources.
fn write_spans(workload: &str, outcome: &Outcome) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{workload}.tsv"));
    match outcome.tracer.write_tsv(&path) {
        Ok(()) => println!(
            "# {} spans written to {}",
            outcome.tracer.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("qram-hostbench: cannot write {}: {e}", path.display()),
    }
}

/// Runs every workload in its own process, one after the other.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("qram-hostbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("qram-hostbench: {workload} exited with {status}");
                ok = false;
            }
            Err(e) => {
                eprintln!("qram-hostbench: cannot run {workload}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
