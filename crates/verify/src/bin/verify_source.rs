//! Standalone determinism lint: scans workspace sources for wall-clock
//! reads, unseeded RNG and hash-collection iteration, under the audited
//! allowlist (`crates/verify/allowlist.txt`). Exits nonzero on any
//! finding. The `verify_all` binary runs this pass plus the circuit
//! analyzer and writes the JSON report.

use std::process::ExitCode;

use qram_verify::{lint_workspace, workspace_root, Allowlist};

fn main() -> ExitCode {
    let root = workspace_root();
    let allowlist = match Allowlist::load(&root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("verify_source: cannot read allowlist: {e}");
            return ExitCode::FAILURE;
        }
    };
    match lint_workspace(&root, &allowlist) {
        Ok(report) => {
            println!(
                "verify_source: {} files scanned, {} findings ({} allowlisted)",
                report.files_scanned,
                report.findings.len(),
                report.suppressed
            );
            for finding in &report.findings {
                println!("  {finding}");
            }
            if report.findings.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("verify_source: lint walk failed: {e}");
            ExitCode::FAILURE
        }
    }
}
