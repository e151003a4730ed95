//! What a run prints and writes. Numbers keep every digit they were measured with, which is
//! why this does not go through `lift_telemetry::json` (it rounds to three decimals); that
//! module's parser reads everything back.

use std::fmt::Write as _;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    /// `"name": {"value": 1.25, "unit": "ms"}`.
    pub fn to_json(&self) -> String {
        format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_string(self.name),
            self.value,
            json_string(self.unit)
        )
    }
}

pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The one-line result object the driver reads from the last line of standard output.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let metrics: Vec<String> = metrics.iter().map(Metric::to_json).collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}
