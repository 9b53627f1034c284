//! Static verification for the QRAM reproduction: a circuit analyzer and
//! a source-level determinism lint.
//!
//! The serving stack compiles, prices and caches circuits it previously
//! never checked — a miscompiled artifact would silently corrupt both
//! query results and every virtual-time latency number derived from its
//! claimed [`ResourceCount`]. This crate closes that gap with two
//! independent passes:
//!
//! 1. **Circuit analyzer** ([`analyzer`]) — structural checks over the
//!    compiled [`qram_circuit::Circuit`] IR:
//!    * qubit-index bounds and control/target overlap per gate
//!      ([`check_gates`]);
//!    * gate-set legality per architecture family ([`check_gate_set`]):
//!      each generator emits a known gate vocabulary, so a foreign gate
//!      is a miscompile;
//!    * ancilla lifecycle ([`check_ancillas`]): every non-output qubit
//!      must have its structural writes cancel in compute/uncompute
//!      pairs (the bucket-brigade hygiene invariant — routing qubits
//!      restored to idle), and must not be read as a control after its
//!      final write released it;
//!    * resource certification ([`certify_resources`]): an independent
//!      [`recount`] of gates, depths and ancillae is diffed against the
//!      compiler-claimed [`ResourceCount`], so the cost estimates the
//!      scheduler charges are provably derived from the real artifact.
//!
//!    [`verify_query`] bundles these for one compiled query, and
//!    [`verify_structure`] runs the structural checks alone.
//!    `qram-service`'s `Compiler::try_compile` runs them on every
//!    artifact before it may enter the circuit cache: the structural
//!    checks on the built circuit before it is priced, the deep passes
//!    on the priced artifact behind the service's `deep_verify` flag.
//!
//! 2. **Determinism lint** ([`lint`]) — a textual scan of workspace
//!    sources for patterns that undermine the bit-identical-results
//!    contract: wall-clock reads (`Instant::now` / `SystemTime`),
//!    unseeded RNG, and iteration over hash collections (whose order is
//!    seeded per process) feeding digests or schedules. Audited
//!    exceptions live in `crates/verify/allowlist.txt`.
//!
//! Both passes run in CI via the `verify_all` binary (any finding fails
//! the build); `verify_source` runs the lint alone.
//!
//! [`ResourceCount`]: qram_circuit::resources::ResourceCount

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyzer;
pub mod lint;

pub use analyzer::{
    certify_resources, check_ancillas, check_gate_set, check_gates, recount, verify_query,
    verify_structure, Finding, VerifyError, VerifyLevel,
};
pub use lint::{lint_file, lint_workspace, workspace_root, Allowlist, LintFinding, LintReport};
