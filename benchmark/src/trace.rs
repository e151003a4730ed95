//! Spans recorded from the benchmark's own code, around its calls into each layer.
//!
//! The crates are not edited: a span is the wall time of one public call (`tune_with`,
//! `enumerate`, `Enumerated::score`, `compile_program`, `launch_sequence`, …) made by the
//! re-drive in `layers.rs`. Spans nest by call order, every span carries the request it
//! belongs to, and a layer's self time is its spans minus the part their children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::output::json_string;

pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// Identifier shared by every span of one re-driven request.
    pub request: usize,
    /// Whether that request was served as a warm hit.
    pub warm: bool,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: usize,
    warm: bool,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
            warm: false,
        }
    }

    /// Starts a new request: spans recorded from now on carry its identifier and kind.
    pub fn next_request(&mut self, warm: bool) {
        self.request += 1;
        self.warm = warm;
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span called `name`; spans opened by `f` become its children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            request: self.request,
            warm: self.warm,
            start_us,
            end_us: start_us,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_us = self.now_us();
        out
    }

    /// Total duration in milliseconds of the spans `keep` selects.
    pub fn sum_ms(&self, keep: impl Fn(&Span) -> bool) -> f64 {
        self.spans.iter().filter(|s| keep(s)).map(Span::ms).sum()
    }

    /// The trace as two members of a JSON object: `layers` — per span name its count, total
    /// and self time (total minus what the spans' direct children cover) — and `spans`.
    pub fn to_json_members(&self) -> String {
        let mut layers: BTreeMap<&str, (usize, f64, f64)> = BTreeMap::new();
        for span in &self.spans {
            let layer = layers.entry(span.name).or_default();
            layer.0 += 1;
            layer.1 += span.ms();
            layer.2 += span.ms();
            if let Some(parent) = span.parent {
                layers.entry(self.spans[parent].name).or_default().2 -= span.ms();
            }
        }
        let mut out = String::from("  \"layers\": {\n");
        for (i, (name, (count, total, own))) in layers.iter().enumerate() {
            let comma = if i + 1 < layers.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {}: {{\"spans\": {count}, \"total_ms\": {total}, \"self_ms\": {own}}}{comma}",
                json_string(name)
            );
        }
        out.push_str("  },\n  \"spans\": [\n");
        for (id, span) in self.spans.iter().enumerate() {
            let comma = if id + 1 < self.spans.len() { "," } else { "" };
            let parent = span
                .parent
                .map_or("null".to_string(), |parent| parent.to_string());
            let _ = writeln!(
                out,
                "    {{\"id\": {id}, \"parent\": {parent}, \"request\": {}, \"warm\": {}, \
                 \"name\": {}, \"start_us\": {}, \"end_us\": {}}}{comma}",
                span.request,
                span.warm,
                json_string(span.name),
                span.start_us,
                span.end_us
            );
        }
        out.push_str("  ]");
        out
    }
}
