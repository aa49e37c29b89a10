//! The result line: `{"correct", "attempted", "failed", "metrics"}`.

use std::fmt::Write as _;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// Operations attempted and failed across every leg of a run. An operation
/// is a change assessed, a frame ingested or a streamed change tracked; it
/// fails if it errors or fails its correctness check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored or failed their check.
    pub failed: u64,
}

impl Tally {
    /// Records `n` operations of which `failed` failed.
    pub fn add(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed.min(n);
    }
}

/// What one benchmark run prints.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Operation counts.
    pub tally: Tally,
    /// Failure descriptions (printed to stderr, never in the result line).
    pub problems: Vec<String>,
    /// Every metric, in print order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Appends a metric.
    pub fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    /// Whether every operation passed its check.
    pub fn correct(&self) -> bool {
        self.tally.attempted > 0 && self.tally.failed == 0
    }

    /// The single-line JSON result. Values print with all their digits;
    /// a non-finite value (which no metric should produce) prints as 0.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.tally.attempted,
            self.tally.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}
