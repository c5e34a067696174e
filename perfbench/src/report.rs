//! The run's outputs: the JSON result line a benchmark runner reads, and
//! the context record kept beside it.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value was computed from.
    pub samples: u64,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        samples: samples as u64,
    }
}

/// Calls made by the run, every phase included.
#[derive(Debug, Clone, Copy, Default)]
pub struct Calls {
    pub attempted: u64,
    pub failed: u64,
}

/// A JSON number: finite values print with every digit Rust's shortest
/// round-trip form gives; anything else is a bug in the caller.
pub fn num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v}")
}

pub fn string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `correct`, `attempted`, `failed` and every
/// metric with its unit.
pub fn result_line(calls: Calls, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                string(&m.name),
                num(m.value),
                string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        calls.failed == 0 && calls.attempted > 0,
        calls.attempted,
        calls.failed,
        body.join(",")
    )
}

/// A JSON array of numbers.
pub fn list(values: impl Iterator<Item = f64>) -> String {
    format!("[{}]", values.map(num).collect::<Vec<_>>().join(","))
}

/// A JSON object from pre-rendered values.
pub fn object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{v}", string(k)))
        .collect();
    format!("{{{}}}", body.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_required_keys() {
        let line = result_line(
            Calls {
                attempted: 3,
                failed: 0,
            },
            &[
                metric("call_p50_ms", 0.25, "ms", 3),
                metric("setup_s", 1.5e-2, "s", 5),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\
             \"call_p50_ms\":{\"value\":0.25,\"unit\":\"ms\"},\
             \"setup_s\":{\"value\":0.015,\"unit\":\"s\"}}}"
        );
        assert!(result_line(
            Calls {
                attempted: 3,
                failed: 1
            },
            &[]
        )
        .starts_with("{\"correct\":false"));
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
