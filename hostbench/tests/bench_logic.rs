//! Tests of the benchmark's own logic: its correctness check, its
//! digests, and the agreement of its printed names with
//! `BENCHMARK.json`. Workloads run on the inputs the benchmark times,
//! for the fewest rounds a run takes. Run them optimized:
//! `cargo test --release --offline --manifest-path hostbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::process::Command;

use qram::core::Memory;
use qram::service::{QramService, QuerySpec, ServiceConfig};
use qram_hostbench::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use qram_hostbench::{run, wrong_values, Settings};

/// The shortest run: no timed window, so only the rounds every run
/// takes.
fn shortest(seed: u64) -> Settings {
    Settings {
        seed,
        seconds: 0.0,
        trace: false,
    }
}

#[test]
fn corrupted_reference_bit_fails_the_correctness_check() {
    let memory = Memory::from_bits((0..16).map(|i| i % 3 == 0));
    let mut service = QramService::new(memory.clone(), ServiceConfig::default().with_shots(0));
    let spec = QuerySpec::new(1, 3);
    service.submit_all((0..16u64).map(|address| (address, spec)));
    let served: Vec<(u64, bool)> = service
        .drain()
        .results
        .iter()
        .map(|r| (r.address, r.value))
        .collect();
    assert_eq!(wrong_values(served.iter().copied(), &memory), 0);

    let mut corrupted = memory.clone();
    corrupted.set(5, !memory.get(5));
    assert_eq!(wrong_values(served.iter().copied(), &corrupted), 1);
}

#[test]
fn same_seed_repeats_and_different_seeds_differ() {
    for workload in WORKLOADS {
        let first = run(workload, &shortest(1)).expect("known workload");
        assert!(
            first.problems().is_empty(),
            "{workload}: {:?}",
            first.problems()
        );
        assert_eq!(first.failed(), 0, "{workload}");
        let again = run(workload, &shortest(1)).expect("known workload");
        let other = run(workload, &shortest(2)).expect("known workload");
        assert_eq!(first.digest(), again.digest(), "{workload}: same seed");
        assert_ne!(
            first.digest(),
            other.digest(),
            "{workload}: different seeds"
        );
    }
}

#[test]
fn traced_runs_pass_their_checks() {
    for workload in WORKLOADS {
        let settings = Settings {
            trace: true,
            ..shortest(3)
        };
        let outcome = run(workload, &settings).expect("known workload");
        assert!(
            outcome.problems().is_empty(),
            "{workload}: {:?}",
            outcome.problems()
        );
        assert!(
            outcome.layers.get("trace.overhead_ratio") > 0.0,
            "{workload}"
        );
        assert!(!outcome.tracer.spans().is_empty(), "{workload}");
    }
}

/// A JSON value, parsed just far enough to read `BENCHMARK.json` and
/// the result line.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Number(f64),
    Str(String),
    Array(Vec<Json>),
    Object(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = parser.value();
        parser.skip_ws();
        assert_eq!(parser.pos, text.len(), "trailing input after JSON value");
        value
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Object(map) => map.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn array(&self) -> &[Json] {
        match self {
            Json::Array(items) => items,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Object(map) => map.keys().map(String::as_str).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) {
        self.skip_ws();
        assert_eq!(
            self.bytes.get(self.pos),
            Some(&byte),
            "at byte {}",
            self.pos
        );
        self.pos += 1;
    }

    fn peek(&mut self) -> u8 {
        self.skip_ws();
        *self.bytes.get(self.pos).expect("unexpected end of JSON")
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut map = BTreeMap::new();
                if self.peek() != b'}' {
                    loop {
                        let Json::Str(key) = self.value() else {
                            panic!("object key must be a string")
                        };
                        self.eat(b':');
                        let value = self.value();
                        assert!(map.insert(key, value).is_none(), "duplicate key");
                        if self.peek() == b',' {
                            self.eat(b',');
                        } else {
                            break;
                        }
                    }
                }
                self.eat(b'}');
                Json::Object(map)
            }
            b'[' => {
                self.eat(b'[');
                let mut items = Vec::new();
                if self.peek() != b']' {
                    loop {
                        items.push(self.value());
                        if self.peek() == b',' {
                            self.eat(b',');
                        } else {
                            break;
                        }
                    }
                }
                self.eat(b']');
                Json::Array(items)
            }
            b'"' => {
                self.eat(b'"');
                let start = self.pos;
                while self.bytes[self.pos] != b'"' {
                    assert_ne!(self.bytes[self.pos], b'\\', "escapes are not used here");
                    self.pos += 1;
                }
                let s = std::str::from_utf8(&self.bytes[start..self.pos]).expect("utf-8");
                self.pos += 1;
                Json::Str(s.to_string())
            }
            b't' | b'f' | b'n' => {
                for (word, value) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                        self.pos += word.len();
                        return value;
                    }
                }
                panic!("bad literal at byte {}", self.pos)
            }
            _ => {
                let start = self.pos;
                while self
                    .bytes
                    .get(self.pos)
                    .is_some_and(|b| b"+-.eE0123456789".contains(b))
                {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("utf-8");
                Json::Number(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark"))
}

fn names_and_units(section: &Json) -> Vec<(String, String)> {
    section
        .array()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

#[test]
fn catalogue_matches_benchmark_json() {
    let json = benchmark_json();
    let workloads: Vec<&str> = json
        .get("workloads")
        .array()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert_eq!(workloads, WORKLOADS);
    let catalogue = |metrics: &[qram_hostbench::metrics::Metric]| -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    };
    assert_eq!(
        names_and_units(json.get("end_to_end")),
        catalogue(&END_TO_END)
    );
    assert_eq!(
        names_and_units(json.get("per_layer")),
        catalogue(&PER_LAYER)
    );
}

#[test]
fn printed_metric_names_match_benchmark_json() {
    let json = benchmark_json();
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let output = Command::new(env!("CARGO_BIN_EXE_qram-hostbench"))
            .args([
                "--workload",
                "compile-churn",
                "--seed",
                "4",
                "--seconds",
                "0",
            ])
            .args(["--trace", trace])
            .output()
            .expect("benchmark binary runs");
        assert!(
            output.status.success(),
            "{}",
            String::from_utf8_lossy(&output.stderr)
        );
        let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
        let result = Json::parse(stdout.lines().last().expect("a result line"));
        assert_eq!(
            result.keys(),
            ["attempted", "correct", "failed", "metrics"],
            "result line keys"
        );
        assert_eq!(result.get("correct"), &Json::Bool(true));
        let mut printed: Vec<(String, String)> = match result.get("metrics") {
            Json::Object(map) => map
                .iter()
                .map(|(name, m)| (name.clone(), m.get("unit").str().to_string()))
                .collect(),
            other => panic!("metrics is not an object: {other:?}"),
        };
        let mut listed = names_and_units(json.get(section));
        printed.sort();
        listed.sort();
        assert_eq!(printed, listed, "trace {trace}");
    }
}

#[test]
fn bad_arguments_exit_with_usage() {
    for args in [
        vec!["--workload", "nope"],
        vec!["--workload", "compile-churn", "--trace", "2"],
        vec!["--bogus"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_qram-hostbench"))
            .args(&args)
            .output()
            .expect("benchmark binary runs");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
