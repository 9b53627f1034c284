//! CI verification driver: runs both static-analysis passes and writes
//! `VERIFY.json`.
//!
//! Pass 1 deep-verifies a compiled circuit for every architecture
//! family at n = 3..6 plus the full virtual-QRAM preset × encoding
//! matrix, each against two deterministic memory patterns. Pass 2 runs
//! the determinism lint over the workspace sources under the audited
//! allowlist. Any finding in either pass exits nonzero — the
//! `-D warnings` of circuit verification.

use std::process::ExitCode;

use qram_core::{ArchSpec, DataEncoding, Memory, Optimizations};
use qram_telemetry::Json;
use qram_verify::{
    lint_workspace, verify_query, workspace_root, Allowlist, Finding, LintReport, VerifyLevel,
};

/// Every spec the circuit pass certifies: every legal `(k, m)` split of
/// every family at n = 3..6 (the full `family_candidates` space, not
/// just the historical `k = 1` representatives), plus the virtual
/// QRAM's optimization presets × data encodings at two paged shapes.
fn matrix() -> Vec<ArchSpec> {
    let mut specs = Vec::new();
    for n in 3..=6 {
        specs.extend(ArchSpec::family_candidates(n));
    }
    let presets = [
        Optimizations::RAW,
        Optimizations::OPT1,
        Optimizations::OPT2,
        Optimizations::OPT3,
        Optimizations::ALL,
    ];
    let encodings = [
        DataEncoding::Bit,
        DataEncoding::DualRail,
        DataEncoding::FusedBit,
    ];
    for (k, m) in [(1, 2), (2, 2)] {
        for opts in presets {
            for encoding in encodings {
                specs.push(ArchSpec::Virtual {
                    k,
                    m,
                    opts,
                    encoding,
                });
            }
        }
    }
    specs
}

/// Two deterministic memory patterns per width: a striped image and a
/// sparse one (exercises both emitted and elided classical gates).
fn memories(n: usize) -> [Memory; 2] {
    let cells = 1usize << n;
    [
        Memory::from_bits((0..cells).map(|i| i % 3 == 0)),
        Memory::from_bits((0..cells).map(|i| (i * 7) % 13 == 1)),
    ]
}

fn main() -> ExitCode {
    let root = workspace_root();

    // Pass 1: circuit analyzer over the architecture matrix.
    let mut circuit_findings: Vec<(String, Finding)> = Vec::new();
    let mut specs_checked = 0usize;
    for spec in matrix() {
        let arch = spec.instantiate();
        for memory in memories(spec.address_width()) {
            let query = arch.build(&memory);
            let claimed = query.resources();
            specs_checked += 1;
            if let Err(e) = verify_query(spec.family(), &query, &claimed, VerifyLevel::Deep) {
                for finding in e.findings {
                    circuit_findings.push((spec.name(), finding));
                }
            }
        }
    }

    // Pass 2: determinism lint.
    let allowlist = match Allowlist::load(&root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("verify_all: cannot read allowlist: {e}");
            return ExitCode::FAILURE;
        }
    };
    let lint: LintReport = match lint_workspace(&root, &allowlist) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("verify_all: lint walk failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let circuit_json = circuit_findings.iter().map(|(spec, finding)| {
        Json::object([
            ("spec", spec.as_str().into()),
            ("finding", finding.to_string().into()),
        ])
    });
    let circuit_pass = Json::object([
        ("artifacts_checked", specs_checked.into()),
        ("findings", Json::Array(circuit_json.collect())),
    ]);
    let lint_json = lint.findings.iter().map(|f| f.to_string().into());
    let lint_pass = Json::object([
        ("files_scanned", lint.files_scanned.into()),
        ("allowlisted", lint.suppressed.into()),
        ("findings", Json::Array(lint_json.collect())),
    ]);
    let report = Json::object([("circuit_pass", circuit_pass), ("lint_pass", lint_pass)]);
    if let Err(e) = std::fs::write(root.join("VERIFY.json"), report.pretty()) {
        eprintln!("verify_all: cannot write VERIFY.json: {e}");
        return ExitCode::FAILURE;
    }

    println!(
        "verify_all: {} compiled artifacts deep-verified, {} findings",
        specs_checked,
        circuit_findings.len()
    );
    for (spec, finding) in &circuit_findings {
        println!("  [{spec}] {finding}");
    }
    println!(
        "verify_all: {} source files linted, {} findings ({} allowlisted)",
        lint.files_scanned,
        lint.findings.len(),
        lint.suppressed
    );
    for finding in &lint.findings {
        println!("  {finding}");
    }

    if circuit_findings.is_empty() && lint.findings.is_empty() {
        println!("verify_all: OK");
        ExitCode::SUCCESS
    } else {
        eprintln!("verify_all: FAILED");
        ExitCode::FAILURE
    }
}
