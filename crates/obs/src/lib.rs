//! # infuserki-obs
//!
//! The workspace's shared observability layer: a metrics registry
//! (counters, gauges, fixed-bucket histograms with quantile estimates),
//! RAII tracing spans exported as Chrome trace-event JSON, and
//! machine-readable perf records for CI's ratio gate.
//!
//! Three design constraints shape everything here:
//!
//! 1. **Zero overhead when disabled.** Tracing is off by default; the
//!    disabled hot path of [`span`] is a single relaxed atomic load and no
//!    allocation, timestamp, or lock. Metric handles are plain atomics —
//!    an increment is one relaxed `fetch_add` — so always-on counters are
//!    safe even inside the kernel dispatch path. See DESIGN.md §9 for the
//!    contract.
//! 2. **No dependencies.** The tensor kernels link this crate, so it must
//!    not pull anything into their build. JSON is emitted by hand
//!    (numbers use Rust's shortest-round-trip formatting, the same
//!    contract as the workspace's serde_json shim).
//! 3. **Instance registries where isolation matters.** [`global`] serves
//!    process-wide telemetry (kernels, engine, trainer), while subsystems
//!    that are constructed many times per process — e.g. one scheduler per
//!    test — build their own [`Registry`] so snapshots never interleave.
//!
//! Quick tour:
//!
//! ```
//! use infuserki_obs as obs;
//!
//! // Metrics: get-or-create handles, then hammer them from any thread.
//! let reg = obs::Registry::new();
//! let reqs = reg.counter("serve.completed");
//! reqs.inc();
//! let lat = reg.histogram("serve.ttft_ms");
//! lat.record(12.5);
//! assert!(reg.snapshot().to_json().contains("serve.completed"));
//!
//! // Spans: RAII timers, recorded only while tracing is enabled.
//! obs::set_enabled(true);
//! {
//!     let _s = obs::span("demo.work");
//! } // recorded on drop
//! obs::set_enabled(false);
//! let trace = obs::chrome_trace_json();
//! assert!(trace.contains("demo.work"));
//! ```

pub mod perf;
pub mod registry;
pub mod span;

pub use perf::{PerfRecord, PerfSuite};
pub use registry::{
    global, Counter, Gauge, Histogram, HistogramSummary, MetricValue, Registry, Snapshot,
};
pub use span::{
    chrome_trace_json, clear_trace, enabled, set_enabled, span, write_chrome_trace, SpanGuard,
};

use std::sync::Mutex;

/// Environment knob enabling tracing spans at process start: any non-empty
/// value other than `0` turns them on (see [`init_from_env`]).
pub const TRACE_ENV: &str = "INFUSERKI_TRACE";

/// Enables spans if [`TRACE_ENV`] is set (binaries call this once at
/// startup; libraries never need to).
pub fn init_from_env() {
    if let Ok(v) = std::env::var(TRACE_ENV) {
        if !v.is_empty() && v != "0" {
            set_enabled(true);
        }
    }
}

/// Current training-phase label (see [`set_phase`]); empty outside training.
static PHASE: Mutex<String> = Mutex::new(String::new());

/// Labels subsequent trainer metrics with a phase name (`"infuser"`,
/// `"qa"`, `"rc"`): the generic training loop prefixes its per-step
/// metrics with `train.<phase>.` so the three InfuserKI phases stay
/// distinguishable in one registry.
pub fn set_phase(name: &str) {
    name.clone_into(&mut PHASE.lock().unwrap());
}

/// The current phase label (empty when none is set).
pub fn phase() -> String {
    PHASE.lock().unwrap().clone()
}

/// Escapes `s` as a JSON string literal (with surrounding quotes).
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a finite `f64` as JSON (shortest round-trip); non-finite values
/// render as `null`, matching serde_json.
pub(crate) fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_string_escapes_specials() {
        assert_eq!(json_string("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn json_number_handles_non_finite() {
        assert_eq!(json_number(1.5), "1.5");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(f64::INFINITY), "null");
    }

    #[test]
    fn phase_label_round_trips() {
        set_phase("qa");
        assert_eq!(phase(), "qa");
        set_phase("");
        assert_eq!(phase(), "");
    }
}
