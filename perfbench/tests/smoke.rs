//! Smoke test of the benchmark itself: a tiny-size run of every
//! workload, untraced and traced, twice each.  Every metric
//! `BENCHMARK.json` declares must print with its declared unit and its
//! clock, the result line must carry exactly the declared set, and the
//! modelled metrics and `model_digest` must repeat exactly.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["paper_grid", "serve_hot", "serve_cold"];

/// A JSON value: just enough of the format for `BENCHMARK.json` and the
/// result line.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(kv) => {
                &kv.iter()
                    .find(|(k, _)| k == key)
                    .unwrap_or_else(|| panic!("no key {key}"))
                    .1
            }
            _ => panic!("not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            b: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.b.len(), "trailing bytes after JSON value");
        v
    }

    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.b[self.i], c,
            "expected {} at byte {}",
            c as char, self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.b[self.i] {
            b'{' => {
                self.i += 1;
                let mut kv = Vec::new();
                self.ws();
                if self.b[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(kv);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key must be a string")
                    };
                    self.eat(b':');
                    kv.push((k, self.value()));
                    self.ws();
                    self.i += 1;
                    if self.b[self.i - 1] == b'}' {
                        return Json::Obj(kv);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.b[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.b[self.i - 1] == b']' {
                        return Json::Arr(items);
                    }
                }
            }
            b'"' => {
                let start = self.i + 1;
                let end = start
                    + self.b[start..]
                        .iter()
                        .position(|&c| c == b'"')
                        .expect("closed string");
                self.i = end + 1;
                Json::Str(String::from_utf8(self.b[start..end].to_vec()).expect("utf-8"))
            }
            b't' | b'f' | b'n' => {
                let word = [&b"true"[..], b"false", b"null"]
                    .into_iter()
                    .find(|w| self.b[self.i..].starts_with(w))
                    .expect("literal");
                self.i += word.len();
                match word {
                    b"true" => Json::Bool(true),
                    b"false" => Json::Bool(false),
                    _ => Json::Null,
                }
            }
            _ => {
                let start = self.i;
                while self.i < self.b.len() && b"+-.eE0123456789".contains(&self.b[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.b[start..self.i]).expect("ascii");
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
            }
        }
    }
}

/// Declared `(name, unit)` pairs of one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text =
        std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark directory");
    let Json::Arr(items) = Parser::parse(&text).get(section).clone() else {
        panic!("{section} is a list")
    };
    items
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

struct RunOut {
    stdout: String,
    result: Json,
}

fn run(workload: &str, trace: u8) -> RunOut {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0",
            "--trace",
            &trace.to_string(),
            "--smoke",
        ])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}"
    );
    let last = stdout.lines().last().expect("output has a result line");
    RunOut {
        result: Parser::parse(last),
        stdout,
    }
}

fn clock_of(unit: &str) -> &'static str {
    if unit.ends_with(".model") {
        "[model]"
    } else {
        "[host]"
    }
}

/// The modelled metrics of a result, and the digest line.
fn modelled(r: &RunOut) -> (BTreeMap<String, String>, String) {
    let Json::Obj(metrics) = r.result.get("metrics") else {
        panic!("metrics is an object")
    };
    let values = metrics
        .iter()
        .filter(|(_, m)| m.get("unit").str().ends_with(".model"))
        .map(|(k, m)| (k.clone(), format!("{:?}", m.get("value"))))
        .collect();
    let digest = r
        .stdout
        .lines()
        .find(|l| l.starts_with("model_digest "))
        .expect("digest line")
        .to_string();
    (values, digest)
}

#[test]
fn every_declared_metric_prints_and_the_model_repeats() {
    for (trace, section) in [(0u8, "end_to_end"), (1, "per_layer")] {
        let decl = declared(section);
        for w in WORKLOADS {
            let a = run(w, trace);
            let b = run(w, trace);
            assert_eq!(a.result.get("correct"), &Json::Bool(true), "{w}");
            assert_eq!(a.result.get("failed"), &Json::Num(0.0), "{w}");
            let Json::Obj(metrics) = a.result.get("metrics") else {
                panic!("metrics is an object")
            };
            let got: Vec<(String, String)> = metrics
                .iter()
                .map(|(k, m)| (k.clone(), m.get("unit").str().to_string()))
                .collect();
            assert_eq!(
                got, decl,
                "{w} trace={trace}: result metrics differ from BENCHMARK.json {section}"
            );
            for (name, unit) in &decl {
                let line = a
                    .stdout
                    .lines()
                    .find(|l| {
                        l.split_whitespace().nth(1) == Some(name.as_str())
                            && l.starts_with("metric ")
                    })
                    .unwrap_or_else(|| panic!("{w}: no printed line for {name}"));
                let fields: Vec<&str> = line.split_whitespace().collect();
                assert_eq!(fields.get(3), Some(&unit.as_str()), "{w}: {line}");
                assert_eq!(fields.get(4), Some(&clock_of(unit)), "{w}: {line}");
            }
            assert_eq!(
                modelled(&a),
                modelled(&b),
                "{w} trace={trace}: modelled outputs differ between runs"
            );
        }
    }
}

#[test]
fn digest_does_not_depend_on_tracing() {
    for w in WORKLOADS {
        assert_eq!(modelled(&run(w, 0)).1, modelled(&run(w, 1)).1, "{w}");
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"],
        &["--workload", "serve_hot", "--trace", "2"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("binary runs");
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
