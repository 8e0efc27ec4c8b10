//! Machine-readable perf records for CI's ratio gate.
//!
//! The `perf_suite` binary builds a [`PerfSuite`] of named records (each a
//! flat map of metric name → value), prints it as JSON and gates ratios of
//! its metrics; this module only holds and *emits* the records.

use crate::{json_number, json_string};

/// One benchmark's measurements: `(metric, value)` pairs in insertion
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfRecord {
    /// Bench name, e.g. `"matmul_256"`.
    pub name: String,
    /// Flat metric map.
    pub metrics: Vec<(String, f64)>,
}

impl PerfRecord {
    /// An empty record named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        PerfRecord {
            name: name.into(),
            metrics: Vec::new(),
        }
    }

    /// Adds (or appends) a metric; builder-style.
    pub fn metric(mut self, name: impl Into<String>, value: f64) -> Self {
        self.metrics.push((name.into(), value));
        self
    }

    /// Looks up a metric by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// A named set of [`PerfRecord`]s — what the ratio gate reads.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfSuite {
    /// Suite name, e.g. `"perf_suite"`.
    pub suite: String,
    /// Records in run order.
    pub records: Vec<PerfRecord>,
}

impl PerfSuite {
    /// An empty suite named `suite`.
    pub fn new(suite: impl Into<String>) -> Self {
        PerfSuite {
            suite: suite.into(),
            records: Vec::new(),
        }
    }

    /// Appends a record.
    pub fn push(&mut self, record: PerfRecord) {
        self.records.push(record);
    }

    /// Looks up a record by bench name.
    pub fn get(&self, name: &str) -> Option<&PerfRecord> {
        self.records.iter().find(|r| r.name == name)
    }

    /// Serializes as `{"suite": ..., "benches": {name: {metric: value}}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"suite\":");
        out.push_str(&json_string(&self.suite));
        out.push_str(",\"benches\":{");
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_string(&r.name));
            out.push_str(":{");
            for (j, (m, v)) in r.metrics.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&json_string(m));
                out.push(':');
                out.push_str(&json_number(*v));
            }
            out.push('}');
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_json_shape() {
        let mut s = PerfSuite::new("perf_suite");
        s.push(
            PerfRecord::new("matmul_256")
                .metric("gflops", 12.5)
                .metric("wall_ms", 3.0),
        );
        s.push(PerfRecord::new("decode").metric("tok_per_s", 1000.0));
        let j = s.to_json();
        assert_eq!(
            j,
            "{\"suite\":\"perf_suite\",\"benches\":{\
             \"matmul_256\":{\"gflops\":12.5,\"wall_ms\":3},\
             \"decode\":{\"tok_per_s\":1000}}}"
        );
        assert_eq!(s.get("decode").unwrap().get("tok_per_s"), Some(1000.0));
    }
}
