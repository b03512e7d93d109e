//! The result of one benchmark run: the single JSON object printed as the
//! last line of standard output and written to `out/<mode>_<workload>.json`,
//! plus the small JSON reader `agree` needs to load two result sets back.
//! Hand-written because the benchmark depends on nothing but the product.

use crate::metrics::{self, Values};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// One run's result.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Every correctness check passed. A run that fails one never gets this
    /// far (the command exits non-zero), so a written result is always `true`.
    pub correct: bool,
    /// Timed repetitions of `DistributedDriver::run`.
    pub attempted: u64,
    /// Repetitions whose outcome failed a check.
    pub failed: u64,
    pub metrics: Values,
}

impl RunResult {
    /// The contract's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, each metric with its value (all digits) and unit.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let unit = metrics::find(name).map_or("", |def| def.unit);
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` prints the shortest decimal that round-trips the f64.
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }

    /// Parse a result written by [`Self::to_json`]. Metric names that are not
    /// in the registry are rejected: a result file is this benchmark's own.
    pub fn from_json(text: &str) -> Result<RunResult, String> {
        let root = Json::parse(text)?;
        let obj = root.as_object().ok_or("result is not an object")?;
        let field = |name: &str| obj.get(name).ok_or(format!("result has no `{name}`"));
        let correct = match field("correct")? {
            Json::Bool(b) => *b,
            _ => return Err("`correct` is not a boolean".into()),
        };
        let count = |name: &str| -> Result<u64, String> {
            match field(name)? {
                Json::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as u64),
                _ => Err(format!("`{name}` is not a whole number")),
            }
        };
        let mut values = Values::new();
        let metrics_obj = field("metrics")?
            .as_object()
            .ok_or("`metrics` is not an object")?;
        for (name, entry) in metrics_obj {
            let def = metrics::find(name).ok_or(format!("unknown metric `{name}`"))?;
            let value = entry
                .as_object()
                .and_then(|e| e.get("value"))
                .and_then(|v| match v {
                    Json::Number(n) => Some(*n),
                    _ => None,
                })
                .ok_or(format!("metric `{name}` has no numeric value"))?;
            values.insert(def.name, value);
        }
        Ok(RunResult {
            correct,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics: values,
        })
    }

    /// Write the result under `dir`, creating it if needed.
    pub fn write(&self, dir: &Path, file_name: &str) -> Result<(), String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let path = dir.join(file_name);
        std::fs::write(&path, self.to_json() + "\n")
            .map_err(|e| format!("writing {}: {e}", path.display()))
    }

    pub fn read(path: &Path) -> Result<RunResult, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        RunResult::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// A parsed JSON value — only what result files contain.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(BTreeMap<String, Json>),
}

impl Json {
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = parser.value(0)?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(format!("trailing input at byte {}", parser.pos));
        }
        Ok(value)
    }

    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Object(map) => Some(map),
            _ => None,
        }
    }
}

/// Nesting allowed in a result file (real ones use three levels).
const MAX_DEPTH: usize = 16;

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

    fn eat(&mut self, literal: &str) -> bool {
        let hit = self.bytes[self.pos..].starts_with(literal.as_bytes());
        if hit {
            self.pos += literal.len();
        }
        hit
    }

    fn expect(&mut self, literal: &str) -> Result<(), String> {
        self.skip_ws();
        if self.eat(literal) {
            Ok(())
        } else {
            Err(format!("expected `{literal}` at byte {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".into());
        }
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => {
                self.pos += 1;
                let mut map = BTreeMap::new();
                self.skip_ws();
                if self.eat("}") {
                    return Ok(Json::Object(map));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.expect(":")?;
                    map.insert(key, self.value(depth + 1)?);
                    self.skip_ws();
                    if self.eat("}") {
                        return Ok(Json::Object(map));
                    }
                    self.expect(",")?;
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat("]") {
                    return Ok(Json::Array(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    if self.eat("]") {
                        return Ok(Json::Array(items));
                    }
                    self.expect(",")?;
                }
            }
            Some(b'"') => self.string().map(Json::String),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) => {
                let start = self.pos;
                while self
                    .bytes
                    .get(self.pos)
                    .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .map(Json::Number)
                    .ok_or(format!("bad value at byte {start}"))
            }
            None => Err("unexpected end of input".into()),
        }
    }

    /// A string without escape processing beyond `\"` and `\\`: names, units
    /// and one-line reasons are all the benchmark's files hold.
    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(format!("expected a string at byte {}", self.pos));
        }
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|_| "string is not UTF-8".into());
                }
                Some(b'\\') => {
                    match self.bytes.get(self.pos + 1) {
                        Some(&c @ (b'"' | b'\\' | b'/')) => out.push(c),
                        _ => return Err(format!("unsupported escape at byte {}", self.pos)),
                    }
                    self.pos += 2;
                }
                Some(&b) => {
                    out.push(b);
                    self.pos += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunResult {
        let mut values = Values::new();
        values.insert("setup_s", 0.031_234_567_891);
        values.insert("run_wall_cu", 6.012_345_678_9);
        values.insert("alert_f1_pct", 100.0);
        RunResult {
            correct: true,
            attempted: 31,
            failed: 0,
            metrics: values,
        }
    }

    #[test]
    fn result_round_trips_bit_for_bit() {
        let result = sample();
        let json = result.to_json();
        assert!(json
            .starts_with("{\"correct\": true, \"attempted\": 31, \"failed\": 0, \"metrics\": {"));
        assert!(json.contains("\"setup_s\": {\"value\": 0.031234567891, \"unit\": \"s\"}"));
        assert!(!json.contains('\n'), "the result is one line");
        assert_eq!(RunResult::from_json(&json), Ok(result));
    }

    #[test]
    fn result_file_round_trips() {
        let dir = std::env::temp_dir().join(format!("rfid-benchmark-test-{}", std::process::id()));
        let result = sample();
        result.write(&dir, "run_x.json").expect("written");
        let back = RunResult::read(&dir.join("run_x.json")).expect("read");
        std::fs::remove_dir_all(&dir).expect("cleaned up");
        assert_eq!(back, result);
    }

    #[test]
    fn reader_rejects_what_is_not_a_result() {
        assert!(RunResult::from_json("[]").is_err());
        assert!(RunResult::from_json("{\"correct\": true}").is_err());
        let unknown = "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
                       \"metrics\": {\"nope\": {\"value\": 1, \"unit\": \"s\"}}}";
        assert!(RunResult::from_json(unknown)
            .unwrap_err()
            .contains("unknown metric"));
        assert!(Json::parse("{\"a\": 1} x").is_err());
        assert!(Json::parse(&"[".repeat(64)).is_err());
    }

    #[test]
    fn parser_reads_the_manifest_shapes() {
        let json = Json::parse(
            "{\"command\": [\"cargo\", \"run\"], \"run_seconds\": 8, \
             \"workloads\": [{\"name\": \"a\", \"why\": \"b \\\"c\\\"\"}]}",
        )
        .expect("parses");
        let obj = json.as_object().expect("object");
        assert_eq!(obj["run_seconds"], Json::Number(8.0));
        match &obj["workloads"] {
            Json::Array(items) => {
                assert_eq!(
                    items[0].as_object().expect("object")["why"],
                    Json::String("b \"c\"".into())
                );
            }
            other => panic!("not an array: {other:?}"),
        }
    }
}
