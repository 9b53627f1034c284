//! The determinism lint: a textual scan of workspace sources for
//! patterns that undermine the bit-identical-results contract.
//!
//! The serving stack promises results that are bit-identical for any
//! worker count, host and run — a promise kept by discipline: virtual
//! clocks instead of wall clocks, seeds derived from `(service seed,
//! request id)` instead of entropy, ordered containers in every digest
//! and schedule path. This lint makes the discipline checkable:
//!
//! * **`wall-clock`** — `Instant::now` / `SystemTime` reads. Host time
//!   in any serving or digest path destroys run-to-run reproducibility.
//! * **`unseeded-rng`** — `thread_rng`, `from_entropy`, `from_os_rng`,
//!   `rand::random`: entropy-seeded randomness cannot be replayed.
//! * **`unordered-iter`** — iteration over `HashMap`/`HashSet`
//!   bindings. Std hash collections seed their hasher per instance, so
//!   iteration order differs run to run; feeding it into a digest,
//!   schedule or float accumulation is nondeterminism. Binding
//!   discovery is per file (declarations mentioning the hash types),
//!   and order-*independent* consumers (`.any(..)` / `.all(..)`
//!   directly on the iterator) are exempt.
//!
//! Findings are suppressed only through the audited allowlist
//! (`crates/verify/allowlist.txt`): one `rule path-suffix` line per
//! exception, each carrying a comment justifying why the pattern is
//! harmless there. The scan skips `vendor/` (third-party stubs),
//! `target/`, `tests/` and `fixtures/` directories.
//!
//! The patterns below are assembled with `concat!` so this file's own
//! string literals never trip the scan.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Rule id for wall-clock reads.
pub const RULE_WALL_CLOCK: &str = "wall-clock";
/// Rule id for entropy-seeded randomness.
pub const RULE_UNSEEDED_RNG: &str = "unseeded-rng";
/// Rule id for hash-collection iteration.
pub const RULE_UNORDERED_ITER: &str = "unordered-iter";

const WALL_CLOCK_PATTERNS: [&str; 2] = [concat!("Instant::", "now"), concat!("System", "Time")];
const UNSEEDED_RNG_PATTERNS: [&str; 4] = [
    concat!("thread_", "rng"),
    concat!("from_", "entropy"),
    concat!("from_os_", "rng"),
    concat!("rand::", "random"),
];
const HASH_TYPES: [&str; 2] = [concat!("Hash", "Map"), concat!("Hash", "Set")];
const ITER_METHODS: [&str; 7] = [
    "iter()",
    "iter_mut()",
    "keys()",
    "values()",
    "values_mut()",
    "into_iter()",
    "drain(",
];

/// One lint diagnostic: a banned pattern at a source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintFinding {
    /// Workspace-relative file path (`/`-separated).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The violated rule id.
    pub rule: &'static str,
    /// The offending line, trimmed.
    pub excerpt: String,
}

impl std::fmt::Display for LintFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.excerpt
        )
    }
}

/// The audited-exception list: `rule path-suffix` pairs parsed from
/// `crates/verify/allowlist.txt`.
///
/// ```
/// use qram_verify::Allowlist;
/// let allow = Allowlist::parse("# audited: host wall-time column\nwall-clock crates/bench/src/bin/serve_bench.rs\n");
/// assert!(allow.allows("wall-clock", "crates/bench/src/bin/serve_bench.rs"));
/// assert!(!allow.allows("unseeded-rng", "crates/bench/src/bin/serve_bench.rs"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Allowlist {
    entries: Vec<(String, String)>,
}

impl Allowlist {
    /// An empty allowlist (nothing suppressed).
    pub fn empty() -> Self {
        Allowlist::default()
    }

    /// Parses `rule path-suffix` lines; `#` starts a comment.
    pub fn parse(text: &str) -> Self {
        let mut entries = Vec::new();
        for line in text.lines() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            if let (Some(rule), Some(suffix)) = (parts.next(), parts.next()) {
                entries.push((rule.to_string(), suffix.to_string()));
            }
        }
        Allowlist { entries }
    }

    /// Loads the workspace allowlist from
    /// `<root>/crates/verify/allowlist.txt`; missing file = empty list.
    ///
    /// # Errors
    ///
    /// Propagates read errors other than the file being absent.
    pub fn load(root: &Path) -> io::Result<Self> {
        match fs::read_to_string(root.join("crates/verify/allowlist.txt")) {
            Ok(text) => Ok(Allowlist::parse(&text)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Allowlist::empty()),
            Err(e) => Err(e),
        }
    }

    /// Whether `rule` findings in `file` are suppressed.
    pub fn allows(&self, rule: &str, file: &str) -> bool {
        let file = file.replace('\\', "/");
        self.entries
            .iter()
            .any(|(r, suffix)| r == rule && file.ends_with(suffix))
    }

    /// Number of allowlist entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the allowlist has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Everything after `//` is a comment; doc comments vanish entirely.
fn code_of(line: &str) -> &str {
    match line.find("//") {
        Some(pos) => &line[..pos],
        None => line,
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Trailing identifier of `text`, if any.
fn trailing_ident(text: &str) -> Option<&str> {
    let end = text.len();
    let start = text
        .char_indices()
        .rev()
        .take_while(|(_, c)| is_ident_char(*c))
        .last()
        .map(|(i, _)| i)?;
    let ident = &text[start..end];
    ident.chars().next().filter(|c| !c.is_ascii_digit())?;
    Some(ident)
}

/// Hash-collection binding names declared in `code` (one file's worth of
/// comment-stripped lines): `let`-bindings, struct fields and `fn`
/// parameters whose declarations mention a hash type.
fn hash_bindings(lines: &[&str]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for code in lines {
        if !HASH_TYPES.iter().any(|t| code.contains(t)) {
            continue;
        }
        // `let [mut] name` — covers `let x: HashMap<..>` and
        // `let x = HashMap::new()` alike.
        if let Some(pos) = code.find("let ") {
            let rest = code[pos + 4..].trim_start();
            let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
            let ident: String = rest.chars().take_while(|c| is_ident_char(*c)).collect();
            if !ident.is_empty() && !ident.starts_with(|c: char| c.is_ascii_digit()) {
                names.push(ident);
            }
        }
        // `name: HashMap<..>` / `name: &mut HashMap<..>` — struct
        // fields and function parameters.
        for t in HASH_TYPES {
            for (pos, _) in code.match_indices(t) {
                let mut prefix = code[..pos].trim_end();
                prefix = prefix.strip_suffix("mut").unwrap_or(prefix).trim_end();
                prefix = prefix.strip_suffix('&').unwrap_or(prefix).trim_end();
                let Some(stripped) = prefix.strip_suffix(':') else {
                    continue;
                };
                if let Some(ident) = trailing_ident(stripped.trim_end()) {
                    names.push(ident.to_string());
                }
            }
        }
    }
    names.sort();
    names.dedup();
    names
}

/// Whether `code` iterates one of the tracked hash bindings in an
/// order-dependent way.
fn iterates_hash_binding(code: &str, names: &[String]) -> bool {
    for name in names {
        for method in ITER_METHODS {
            let needle = format!("{name}.{method}");
            for (pos, _) in code.match_indices(&needle) {
                // Word boundary before the binding name.
                if pos > 0 && code[..pos].ends_with(is_ident_char) {
                    continue;
                }
                // `.any(` / `.all(` directly on the iterator are
                // order-independent reductions.
                let after = &code[pos + needle.len()..];
                if after.starts_with(".any(") || after.starts_with(".all(") {
                    continue;
                }
                return true;
            }
        }
        // `for x in name` / `for x in &[mut] name`.
        let trimmed = code.trim_start();
        if trimmed.starts_with("for ") {
            if let Some(pos) = trimmed.find(" in ") {
                let expr = trimmed[pos + 4..].trim_start();
                let expr = expr.strip_prefix('&').unwrap_or(expr);
                let expr = expr.strip_prefix("mut ").unwrap_or(expr).trim_start();
                let ident: String = expr.chars().take_while(|c| is_ident_char(*c)).collect();
                let boundary = expr[ident.len()..]
                    .chars()
                    .next()
                    .is_none_or(|c| !is_ident_char(c) && c != '.');
                if ident == *name && boundary {
                    return true;
                }
            }
        }
    }
    false
}

/// Lints one file's text. `file` is the label findings carry.
pub fn lint_file(file: &str, text: &str) -> Vec<LintFinding> {
    let stripped: Vec<&str> = text.lines().map(code_of).collect();
    let bindings = hash_bindings(&stripped);
    let mut findings = Vec::new();
    for (i, code) in stripped.iter().enumerate() {
        let mut hit = |rule: &'static str| {
            findings.push(LintFinding {
                file: file.to_string(),
                line: i + 1,
                rule,
                excerpt: text.lines().nth(i).unwrap_or("").trim().to_string(),
            });
        };
        if WALL_CLOCK_PATTERNS.iter().any(|p| code.contains(p)) {
            hit(RULE_WALL_CLOCK);
        }
        if UNSEEDED_RNG_PATTERNS.iter().any(|p| code.contains(p)) {
            hit(RULE_UNSEEDED_RNG);
        }
        if iterates_hash_binding(code, &bindings) {
            hit(RULE_UNORDERED_ITER);
        }
    }
    findings
}

/// Outcome of a workspace scan.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Findings that survived the allowlist.
    pub findings: Vec<LintFinding>,
    /// Findings suppressed by allowlist entries.
    pub suppressed: usize,
}

/// Directories never scanned: third-party code, build output, test
/// sources (whose fixtures deliberately contain banned patterns).
fn skipped_dir(name: &str) -> bool {
    matches!(
        name,
        "target" | "vendor" | ".git" | ".github" | "tests" | "fixtures"
    )
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    // read_dir order is OS-dependent; the lint's own output must be
    // deterministic.
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !skipped_dir(name) {
                collect_rs_files(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The workspace root the CLI drivers lint: the current directory when
/// invoked from it (the CI case), otherwise two levels above this
/// crate's manifest.
pub fn workspace_root() -> PathBuf {
    let cwd = PathBuf::from(".");
    if cwd.join("Cargo.toml").exists() && cwd.join("crates").exists() {
        return cwd;
    }
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Scans every `.rs` file under `root` (minus skipped directories) and
/// filters findings through `allow`.
///
/// # Errors
///
/// Propagates directory-walk and file-read errors.
pub fn lint_workspace(root: &Path, allow: &Allowlist) -> io::Result<LintReport> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;
    let mut report = LintReport::default();
    for path in files {
        let label = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let text = fs::read_to_string(&path)?;
        report.files_scanned += 1;
        for finding in lint_file(&label, &text) {
            if allow.allows(finding.rule, &finding.file) {
                report.suppressed += 1;
            } else {
                report.findings.push(finding);
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_do_not_trip_rules() {
        let text = concat!("// a comment mentioning Instant::", "now()\nlet x = 1;\n");
        assert!(lint_file("a.rs", text).is_empty());
    }

    #[test]
    fn insert_and_lookup_on_hash_bindings_are_fine() {
        let text = concat!(
            "use std::collections::Hash",
            "Map;\n",
            "let mut seen: Hash",
            "Map<u64, usize> = Hash",
            "Map::new();\n",
            "seen.insert(1, 2);\n",
            "let v = seen.get(&1);\n",
        );
        assert!(lint_file("a.rs", text).is_empty());
    }

    #[test]
    fn any_and_all_reductions_are_exempt() {
        let text = concat!(
            "let mut seen = std::collections::Hash",
            "Set::new();\n",
            "seen.insert(3);\n",
            "assert!(seen.iter().any(|&x| x == 3));\n",
            "assert!(seen.values().all(|&x| x > 0));\n",
        );
        assert!(lint_file("a.rs", text).is_empty());
    }

    #[test]
    fn for_loop_over_hash_binding_is_flagged() {
        let text = concat!(
            "let mut seen = std::collections::Hash",
            "Set::new();\n",
            "for x in &seen {\n",
            "    digest(x);\n",
            "}\n",
        );
        let findings = lint_file("a.rs", text);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, RULE_UNORDERED_ITER);
        assert_eq!(findings[0].line, 2);
    }

    #[test]
    fn struct_field_bindings_are_discovered() {
        let text = concat!(
            "struct S { samplers: Hash",
            "Map<u64, f64> }\n",
            "fn f(s: &S) -> f64 { s.samplers.values().sum() }\n",
        );
        let findings = lint_file("a.rs", text);
        assert_eq!(findings.len(), 1, "{findings:?}");
    }

    #[test]
    fn allowlist_suppresses_by_rule_and_suffix() {
        let allow = Allowlist::parse(concat!(
            "# audited exception\n",
            "wall-clock crates/bench/src/bin/serve_bench.rs\n",
        ));
        assert_eq!(allow.len(), 1);
        assert!(allow.allows(RULE_WALL_CLOCK, "crates/bench/src/bin/serve_bench.rs"));
        assert!(!allow.allows(RULE_UNORDERED_ITER, "crates/bench/src/bin/serve_bench.rs"));
        assert!(!allow.allows(RULE_WALL_CLOCK, "crates/sim/src/state.rs"));
        assert!(Allowlist::empty().is_empty());
    }
}
