//! Shared command-line parsing for the experiment binaries.
//!
//! Every table/figure binary accepts the same flag set, parsed here once
//! instead of being copy-pasted per binary:
//!
//! * `--full` — paper-scale sweep instead of the quick default;
//! * `--shots N` — Monte-Carlo shots per data point;
//! * `--seed N` — master RNG seed (default 2023, the paper's venue year);
//! * `--threads N` — shot-engine worker threads across shots (`0` = auto,
//!   the default). Results are bit-identical for any thread count; see
//!   [`qram_sim::run_shots`];
//! * `--help` — print the usage and exit.
//!
//! An unknown flag or a malformed value prints the error and the usage
//! to standard error and exits with code 2. [`exit_on_error`] does
//! this for any binary whose parser returns `Result`, `serve_bench`
//! included.

use qram_sim::ShotConfig;

/// The flag synopsis every experiment binary prints, after its own name,
/// for `--help` and after a bad flag.
pub const USAGE: &str = "[--full] [--shots N] [--seed N] [--threads N] [--help]";

/// Command-line options shared by every experiment binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOptions {
    /// Paper-scale sweep instead of the quick default.
    pub full: bool,
    /// Monte-Carlo shots per data point (`None` = binary's default).
    pub shots: Option<usize>,
    /// Master RNG seed (default 2023, the paper's venue year).
    pub seed: u64,
    /// Shot-engine worker threads across shots (`0` = auto).
    pub threads: usize,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            full: false,
            shots: None,
            seed: ShotConfig::DEFAULT_SEED,
            threads: 0,
        }
    }
}

impl RunOptions {
    /// Parses the shared flag set from `std::env::args`. On `--help` it
    /// prints [`USAGE`] and exits with code 0; on an unknown flag or a
    /// malformed value it prints the error and [`USAGE`] to standard
    /// error and exits with code 2.
    pub fn from_args() -> Self {
        exit_on_error(USAGE, Self::parse(std::env::args().skip(1)))
    }

    /// Parses the shared flag set from an explicit argument list
    /// (exposed separately from [`RunOptions::from_args`] for tests).
    ///
    /// # Errors
    ///
    /// [`USAGE`] itself for `--help`; otherwise a message naming the
    /// unknown flag or the malformed value.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut opts = RunOptions::default();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--full" => opts.full = true,
                "--shots" => opts.shots = Some(number(&flag, args.next())?),
                "--seed" => opts.seed = number(&flag, args.next())?,
                "--threads" => opts.threads = number(&flag, args.next())?,
                "--help" => return Err(USAGE.into()),
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(opts)
    }

    /// The shot count to use given a binary default.
    pub fn shots_or(&self, default: usize) -> usize {
        self.shots.unwrap_or(default)
    }

    /// The shot-engine configuration these options select, given the
    /// binary's default shot count.
    pub fn shot_config(&self, default_shots: usize) -> ShotConfig {
        ShotConfig::new(self.shots_or(default_shots))
            .with_seed(self.seed)
            .with_threads(self.threads)
    }
}

/// Unwraps a command-line parse, ending the process when it failed.
/// An error equal to `usage` is a `--help` request: print the usage
/// and exit with code 0. Any other error is printed with the usage to
/// standard error, and the process exits with code 2.
pub fn exit_on_error<T>(usage: &str, parsed: Result<T, String>) -> T {
    let error = match parsed {
        Ok(value) => return value,
        Err(e) => e,
    };
    let path = std::env::args().next().unwrap_or_default();
    let program = path.rsplit('/').next().unwrap_or_default();
    if error == usage {
        println!("usage: {program} {usage}");
        std::process::exit(0)
    }
    eprintln!("{program}: {error}\nusage: {program} {usage}");
    std::process::exit(2)
}

/// Parses `flag`'s value as an unsigned integer.
fn number<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    let v = value.ok_or(format!("{flag} needs a value"))?;
    v.parse()
        .map_err(|_| format!("{flag} expects an integer, not `{v}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<RunOptions, String> {
        RunOptions::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let opts = parse(&[]).unwrap();
        assert_eq!(opts, RunOptions::default());
        assert_eq!(opts.seed, 2023);
        assert_eq!(opts.threads, 0);
        assert_eq!(opts.shots_or(128), 128);
    }

    #[test]
    fn parses_all_flags() {
        let opts = parse(&["--full", "--shots", "64", "--seed", "7", "--threads", "4"]).unwrap();
        assert!(opts.full);
        assert_eq!(opts.shots, Some(64));
        assert_eq!(opts.seed, 7);
        assert_eq!(opts.threads, 4);
        assert_eq!(opts.shots_or(128), 64);
    }

    #[test]
    fn shot_config_threads_everything_through() {
        let opts = parse(&["--shots", "32", "--seed", "9", "--threads", "2"]).unwrap();
        let config = opts.shot_config(100);
        assert_eq!(config.shots, 32);
        assert_eq!(config.seed, 9);
        assert_eq!(config.threads, 2);
    }

    #[test]
    fn rejects_unknown_flags() {
        assert_eq!(parse(&["--fast"]), Err("unknown flag `--fast`".into()));
    }

    #[test]
    fn rejects_malformed_threads() {
        assert_eq!(
            parse(&["--threads", "many"]),
            Err("--threads expects an integer, not `many`".into())
        );
        assert_eq!(parse(&["--seed"]), Err("--seed needs a value".into()));
    }

    #[test]
    fn help_returns_the_usage() {
        assert_eq!(parse(&["--shots", "4", "--help"]), Err(USAGE.into()));
    }

    #[test]
    fn path_chunks_is_an_unknown_flag() {
        // Path chunking is gone; old invocations fail cleanly.
        assert_eq!(
            parse(&["--path-chunks", "2"]),
            Err("unknown flag `--path-chunks`".into())
        );
    }
}
