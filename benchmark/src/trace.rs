//! The harness's own span recorder. Spans are recorded from the benchmark's
//! files, around the calls into each layer and around each wire exchange;
//! they stay in memory and are written out as a Chrome trace when the run
//! ends. Spans inside the program are a later change (ROADMAP items 2/4).

use std::collections::BTreeMap;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Display lane (Chrome `tid`): spans on one lane nest, never overlap.
    pub lane: u32,
    /// Request / control-op / round identifier shared by a span family.
    pub id: u64,
    pub start_us: f64,
    pub dur_us: f64,
}

/// Per-name totals of the self-time table.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTime {
    pub name: String,
    pub count: usize,
    pub total_ms: f64,
    /// Total minus the part its child spans cover.
    pub self_ms: f64,
}

/// An append-only span list sharing one time origin.
#[derive(Debug, Clone)]
pub struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    /// Innermost open `scope`, the parent of spans pushed inside it.
    open: Option<usize>,
}

impl Recorder {
    pub fn new(t0: Instant) -> Recorder {
        Recorder {
            t0,
            spans: Vec::new(),
            open: None,
        }
    }

    /// Records a finished span and returns its index.
    pub fn push(
        &mut self,
        name: &str,
        parent: Option<usize>,
        lane: u32,
        id: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            parent: parent.or(self.open),
            lane,
            id,
            start_us: start.saturating_duration_since(self.t0).as_secs_f64() * 1e6,
            dur_us: end.saturating_duration_since(start).as_secs_f64() * 1e6,
        });
        self.spans.len() - 1
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Seconds one `push` costs on this host now: the median of a few
    /// batches pushed into a scratch recorder.
    pub fn push_cost_s() -> f64 {
        const BATCH: usize = 10_000;
        let t0 = Instant::now();
        let costs: Vec<f64> = (0..5)
            .map(|_| {
                let mut scratch = Recorder::new(t0);
                let start = Instant::now();
                for i in 0..BATCH {
                    let now = Instant::now();
                    scratch.push("request", None, 1, i as u64, start, now);
                }
                std::hint::black_box(scratch.len());
                start.elapsed().as_secs_f64() / BATCH as f64
            })
            .collect();
        crate::stats::median(&costs).expect("five batches")
    }

    /// Runs `f` inside a span named `name` on lane 0; spans recorded by `f`
    /// become its children.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let start = Instant::now();
        let idx = self.push(name, None, 0, 0, start, start);
        let outer = self.open.replace(idx);
        let out = f(self);
        self.open = outer;
        self.spans[idx].dur_us = start.elapsed().as_secs_f64() * 1e6;
        out
    }

    /// Appends another recorder's spans (same time origin), keeping their
    /// parent links.
    pub fn merge(&mut self, other: Recorder) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto).
    pub fn chrome_json(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    r#"{{"name":"{}","ph":"X","pid":1,"tid":{},"ts":{:.3},"dur":{:.3},"args":{{"id":{},"parent":{}}}}}"#,
                    s.name,
                    s.lane,
                    s.start_us,
                    s.dur_us,
                    s.id,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                )
            })
            .collect();
        format!("{{\"traceEvents\":[{}]}}", events.join(",\n"))
    }

    /// Per-name self-time table, largest self time first. A span's self
    /// time is its duration minus the part of it its direct children cover
    /// (children of one span do not overlap each other here).
    pub fn self_times(&self) -> Vec<SelfTime> {
        let mut covered = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let lo = s.start_us.max(parent.start_us);
                let hi = (s.start_us + s.dur_us).min(parent.start_us + parent.dur_us);
                covered[p] += (hi - lo).max(0.0);
            }
        }
        let mut by_name: BTreeMap<&str, SelfTime> = BTreeMap::new();
        for (s, cov) in self.spans.iter().zip(&covered) {
            let e = by_name.entry(&s.name).or_insert_with(|| SelfTime {
                name: s.name.clone(),
                count: 0,
                total_ms: 0.0,
                self_ms: 0.0,
            });
            e.count += 1;
            e.total_ms += s.dur_us / 1e3;
            e.self_ms += (s.dur_us - cov).max(0.0) / 1e3;
        }
        let mut rows: Vec<SelfTime> = by_name.into_values().collect();
        rows.sort_by(|a, b| b.self_ms.total_cmp(&a.self_ms));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_child_coverage() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut r = Recorder::new(t0);
        let req = r.push("request", None, 1, 7, at(0), at(100));
        r.push("send", Some(req), 1, 7, at(0), at(10));
        r.push("wait", Some(req), 1, 7, at(10), at(90));
        let rows = r.self_times();
        let get = |n: &str| rows.iter().find(|x| x.name == n).unwrap().clone();
        assert!((get("request").self_ms - 10.0).abs() < 1e-6);
        assert!((get("request").total_ms - 100.0).abs() < 1e-6);
        assert!((get("wait").self_ms - 80.0).abs() < 1e-6);
        assert_eq!(rows[0].name, "wait");
    }

    #[test]
    fn scope_parents_inner_spans_and_merge_keeps_links() {
        let t0 = Instant::now();
        let mut r = Recorder::new(t0);
        r.scope("layer.nn", |r| {
            let s = Instant::now();
            r.push("probe", None, 0, 0, s, s);
        });
        assert_eq!(r.spans[1].parent, Some(0));
        let mut other = Recorder::new(t0);
        let p = other.push("request", None, 1, 1, t0, t0);
        other.push("send", Some(p), 1, 1, t0, t0);
        r.merge(other);
        assert_eq!(r.spans[3].parent, Some(2));
        assert!(r.chrome_json().contains(r#""name":"layer.nn""#));
    }
}
