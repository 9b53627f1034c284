//! Host wall-clock benchmark of the `qram` facade.
//!
//! Four workloads drive the public API from generated inputs, each in
//! its own process. An untraced run reports operations per host second,
//! set-up seconds and peak resident memory; a traced run records spans
//! around the benchmark's calls into each layer, re-times the layers it
//! cannot wrap in isolation on the run's own inputs, and reports the
//! per-layer metrics. See `README.md` in this directory.

pub mod metrics;
pub mod rounds;
pub mod stats;
pub mod trace;

mod compile_churn;
mod fig9;
mod fleet_overload;
mod offline_noisy;
mod serving;

pub use serving::wrong_values;

use rounds::{Outcome, Pass};
use stats::ratio;

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the timed window in host seconds.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end
    /// ones.
    pub trace: bool,
}

/// What one operation is in `workload`, or `None` for an unknown name.
pub fn operation(workload: &str) -> Option<&'static str> {
    Some(match workload {
        "fleet-overload" => "one offer handled at the fleet front door, admitted or shed",
        "offline-noisy" => "one served request (readout plus an 8-shot fidelity estimate)",
        "compile-churn" => "one served request",
        "fig9-superposition" => "one Monte-Carlo shot",
        _ => return None,
    })
}

/// Runs `workload`, or returns `None` for an unknown name.
pub fn run(workload: &str, settings: &Settings) -> Option<Outcome> {
    let mut outcome = match workload {
        "fleet-overload" => fleet_overload::run(settings),
        "offline-noisy" => offline_noisy::run(settings),
        "compile-churn" => compile_churn::run(settings),
        "fig9-superposition" => fig9::run(settings),
        _ => return None,
    };
    if settings.trace {
        let overhead = ratio(
            outcome.ops_per_s(Pass::Plain),
            outcome.ops_per_s(Pass::Traced),
        );
        outcome.layers.set("trace.overhead_ratio", overhead);
    }
    Some(outcome)
}
