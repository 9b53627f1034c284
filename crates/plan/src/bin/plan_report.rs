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
//! * `--width N` — memory address width `n` to plan for, 2 to 24
//!   (default 4);
//! * `--qubit-budget Q` — physical qubit budget constraining
//!   [`qram_plan::planned_families`] (default `0` = unconstrained);
//! * `--shots N` — shot count execute prices scale with (default 1);
//! * `--out FILE` — also write the report to `FILE` (always printed to
//!   stdout);
//! * `--help` — print the usage and exit.
//!
//! An unknown flag or a missing, malformed or out-of-range value prints
//! the error and the usage to standard error and exits with code 2, as
//! does an `--out` path that cannot be written (without the usage).
//!
//! The report is a pure function of the flags: same flags, same bytes,
//! same `frontier_digest`, on any host (CI diffs back-to-back runs).

use std::path::PathBuf;

use qram_core::Memory;
use qram_plan::{frontier_json, UNLIMITED_BUDGET};
use qram_service::CostModel;

/// The flag synopsis printed for `--help` and after a bad flag.
const USAGE: &str = "[--width N] [--qubit-budget Q] [--shots N] [--out FILE] [--help]";

/// The address widths `--width` takes: every hybrid candidate needs a
/// page bit and a tree bit, and a memory holds at most
/// [`Memory::MAX_ADDRESS_WIDTH`] address bits.
const WIDTHS: std::ops::RangeInclusive<usize> = 2..=Memory::MAX_ADDRESS_WIDTH;

#[derive(Debug, PartialEq)]
struct Options {
    width: usize,
    qubit_budget: usize,
    shots: usize,
    out: Option<PathBuf>,
}

impl Options {
    /// Parses the flags (without the program name).
    ///
    /// # Errors
    ///
    /// [`USAGE`] itself for `--help`; otherwise a message naming the
    /// unknown flag or the missing, malformed or out-of-range value.
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
        let mut parsed = Options {
            width: 4,
            qubit_budget: UNLIMITED_BUDGET,
            shots: 1,
            out: None,
        };
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--width" => {
                    parsed.width = number(&flag, value()?)?;
                    if !WIDTHS.contains(&parsed.width) {
                        return Err(format!(
                            "{flag} takes {} to {}, got {}",
                            WIDTHS.start(),
                            WIDTHS.end(),
                            parsed.width
                        ));
                    }
                }
                "--qubit-budget" => {
                    parsed.qubit_budget = match number(&flag, value()?)? {
                        0 => UNLIMITED_BUDGET,
                        budget => budget,
                    };
                }
                "--shots" => parsed.shots = number(&flag, value()?)?,
                "--out" => parsed.out = Some(PathBuf::from(value()?)),
                "--help" => return Err(USAGE.into()),
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(parsed)
    }
}

/// Parses `flag`'s value as an unsigned integer.
fn number(flag: &str, value: String) -> Result<usize, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} expects an integer, not `{value}`"))
}

fn main() {
    let options = match Options::parse(std::env::args().skip(1)) {
        Ok(options) => options,
        Err(e) if e == USAGE => {
            println!("usage: plan_report {USAGE}");
            std::process::exit(0)
        }
        Err(e) => {
            eprintln!("plan_report: {e}\nusage: plan_report {USAGE}");
            std::process::exit(2)
        }
    };
    let report = frontier_json(
        options.width,
        options.qubit_budget,
        CostModel::default(),
        options.shots,
    )
    .pretty();
    print!("{report}");
    if let Some(path) = options.out {
        if let Err(e) = std::fs::write(&path, &report) {
            eprintln!("plan_report: cannot write {}: {e}", path.display());
            std::process::exit(2);
        }
        eprintln!("wrote {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        Options::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_every_flag() {
        let options = parse(&[
            "--width",
            "5",
            "--qubit-budget",
            "64",
            "--shots",
            "2",
            "--out",
            "PLAN.json",
        ])
        .unwrap();
        assert_eq!(
            options,
            Options {
                width: 5,
                qubit_budget: 64,
                shots: 2,
                out: Some(PathBuf::from("PLAN.json")),
            }
        );
        assert_eq!(
            parse(&["--qubit-budget", "0"]).unwrap().qubit_budget,
            UNLIMITED_BUDGET
        );
    }

    #[test]
    fn help_returns_the_usage() {
        assert_eq!(parse(&["--width", "4", "--help"]).unwrap_err(), USAGE);
    }

    #[test]
    fn rejects_unknown_flags_and_missing_or_malformed_values() {
        for (args, error) in [
            (&["--fast"][..], "unknown flag `--fast`"),
            (&["--width"], "--width needs a value"),
            (&["--shots", "two"], "--shots expects an integer, not `two`"),
            (
                &["--qubit-budget", "-1"],
                "--qubit-budget expects an integer, not `-1`",
            ),
        ] {
            assert_eq!(parse(args).unwrap_err(), error, "{args:?}");
        }
    }

    #[test]
    fn rejects_widths_the_planner_cannot_take() {
        for width in ["0", "1", "25"] {
            let error = format!("--width takes 2 to 24, got {width}");
            assert_eq!(parse(&["--width", width]).unwrap_err(), error);
        }
        assert_eq!(parse(&["--width", "2"]).unwrap().width, 2);
    }
}
