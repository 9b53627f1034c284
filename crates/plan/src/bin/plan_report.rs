//! `plan_report` — dumps the offline capacity planner's Pareto frontier
//! as deterministic JSON.
//!
//! ```text
//! cargo run --release -p qram-plan --bin plan_report -- \
//!     --width 4 --qubit-budget 64 --shots 1 --out PLAN.json
//! ```
//!
//! Flags:
//!
//! * `--width N` — memory address width `n` to plan for (default 4);
//! * `--qubit-budget Q` — physical qubit budget constraining
//!   [`qram_plan::planned_families`] (default `0` = unconstrained);
//! * `--shots N` — shot count execute prices scale with (default 1);
//! * `--out FILE` — also write the report to `FILE` (always printed to
//!   stdout).
//!
//! The report is a pure function of the flags: same flags, same bytes,
//! same `frontier_digest`, on any host (CI diffs back-to-back runs).

use std::path::PathBuf;

use qram_plan::{frontier_json, UNLIMITED_BUDGET};
use qram_service::CostModel;

fn main() {
    let mut width = 4usize;
    let mut qubit_budget = UNLIMITED_BUDGET;
    let mut shots = 1usize;
    let mut out: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    let value = |flag: &str, args: &mut dyn Iterator<Item = String>| {
        args.next()
            .unwrap_or_else(|| panic!("{flag} requires a value"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--width" => width = value("--width", &mut args).parse().expect("--width"),
            "--qubit-budget" => {
                let budget: usize = value("--qubit-budget", &mut args)
                    .parse()
                    .expect("--qubit-budget");
                qubit_budget = if budget == 0 {
                    UNLIMITED_BUDGET
                } else {
                    budget
                };
            }
            "--shots" => shots = value("--shots", &mut args).parse().expect("--shots"),
            "--out" => out = Some(PathBuf::from(value("--out", &mut args))),
            other => panic!("unknown flag {other}; known: --width --qubit-budget --shots --out"),
        }
    }

    let report = frontier_json(width, qubit_budget, CostModel::default(), shots).pretty();
    print!("{report}");
    if let Some(path) = out {
        std::fs::write(&path, &report)
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        eprintln!("wrote {}", path.display());
    }
}
