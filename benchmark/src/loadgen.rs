//! The load generator: one thread per connection, each pipelining several
//! outstanding requests over the JSONL wire. Closed loops refill a fixed
//! window as responses arrive; the open loop sends on a schedule whatever
//! the server does, and times each request from when it was due. Times are
//! read from the benchmark's [`Clock`] (calibrated milliseconds); deadlines
//! and span timestamps stay in wall time.
//!
//! Nothing here can hang on a sick server: reads carry a timeout, every
//! request has a deadline, and a closed socket fails what is outstanding.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use serde::Value;

use crate::clock::Clock;
use crate::inputs::{Body, Request};
use crate::trace::Recorder;

/// A request unanswered for this long counts as failed.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);
/// After `stop`, how long to wait for what is still outstanding.
const DRAIN: Duration = Duration::from_secs(5);

/// What a well-formed `ok` reply must look like.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    Tokens(usize),
    Options(usize),
}

/// One pre-rendered request of a connection's stream.
#[derive(Debug, Clone)]
struct Item {
    /// The wire line around the id (see `Request::wire_parts`).
    head: &'static str,
    tail: String,
    shape: Shape,
    due_ms: f64,
}

/// How requests are paced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pacing {
    /// Keep `window` requests outstanding; the stream wraps if it runs out.
    Closed { window: usize },
    /// Send each request when `due_ms` passes; never wraps.
    Open,
}

/// Everything one connection thread does.
pub struct ConnPlan {
    items: Vec<Item>,
    /// Position of this connection's items in the workload's request list
    /// (`request index = first + k * stride`), so ids map back to requests.
    first: usize,
    stride: usize,
    total: usize,
    pub pacing: Pacing,
    pub trace: bool,
}

impl ConnPlan {
    /// The plan for connection `conn` of `n_conns`: every `n_conns`-th
    /// request, starting at `conn`. Request `i` is sent with id
    /// `i + lap * requests.len()`.
    pub fn new(requests: &[Request], conn: usize, n_conns: usize, pacing: Pacing) -> ConnPlan {
        let items = requests
            .iter()
            .skip(conn)
            .step_by(n_conns)
            .map(|r| {
                let (head, tail) = r.wire_parts();
                Item {
                    head,
                    tail,
                    shape: match &r.body {
                        Body::Generate { max_new, .. } => Shape::Tokens(*max_new),
                        Body::Mcq { options, .. } => Shape::Options(options.len()),
                    },
                    due_ms: r.due_ms,
                }
            })
            .collect();
        ConnPlan {
            items,
            first: conn,
            stride: n_conns,
            total: requests.len(),
            pacing,
            trace: false,
        }
    }
}

/// One finished (or given-up) data-plane request. Times are calibrated ms
/// on the run's clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Wire id; `id % total` indexes the workload's request list.
    pub id: u64,
    /// Closed loop: when it was sent. Open loop: when it was due.
    pub start_ms: f64,
    pub end_ms: f64,
    /// Answered `ok` with a well-formed body.
    pub ok: bool,
    /// The raw reply line (`ok` replies only), for the output check.
    pub reply: Option<String>,
}

/// What one connection thread saw.
#[derive(Default)]
pub struct ConnResult {
    pub samples: Vec<Sample>,
    /// Open loop: how late each send ran behind its due time, ms.
    pub late_ms: Vec<f64>,
    /// Replies that matched nothing outstanding, and transport errors.
    pub protocol_errors: Vec<String>,
    pub spans: Option<Recorder>,
}

/// Checks an `ok` reply against the shape its request implies.
fn well_formed(reply: &Value, shape: Shape) -> bool {
    match shape {
        Shape::Tokens(n) => {
            matches!(reply.get_field("tokens"), Some(Value::Array(t)) if t.len() == n)
        }
        Shape::Options(n) => {
            let best_ok = reply
                .get_field("best")
                .and_then(Value::as_f64)
                .is_some_and(|b| b >= 0.0 && b.fract() == 0.0 && (b as usize) < n);
            let probs_ok = match reply.get_field("probabilities") {
                Some(Value::Array(ps)) if ps.len() == n => {
                    let sum: f64 = ps.iter().filter_map(Value::as_f64).sum();
                    (sum - 1.0).abs() < 1e-3
                }
                _ => false,
            };
            let scores_ok =
                matches!(reply.get_field("scores"), Some(Value::Array(s)) if s.len() == n);
            best_ok && probs_ok && scores_ok
        }
    }
}

struct Pending {
    start: Instant,
    sent: Instant,
    start_ms: f64,
    shape: Shape,
    lane: u32,
}

/// Runs one connection until `stop` is set, then drains. All connections
/// share `clock`.
pub fn run_connection(addr: &str, plan: &ConnPlan, clock: &Clock, stop: &AtomicBool) -> ConnResult {
    let mut out = ConnResult {
        spans: plan.trace.then(|| Recorder::new(clock.origin())),
        ..ConnResult::default()
    };
    let stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => {
            out.protocol_errors.push(format!("connect {addr}: {e}"));
            return out;
        }
    };
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(e) => {
            out.protocol_errors.push(format!("clone socket: {e}"));
            return out;
        }
    });
    let mut writer = stream;

    let mut outstanding: HashMap<u64, Pending> = HashMap::new();
    let mut free_lanes: Vec<u32> = Vec::new();
    let mut lanes_made = 0u32;
    let mut next = 0usize; // items sent so far (wraps over `plan.items`)
    let mut buf: Vec<u8> = Vec::new();
    let mut wire = String::new();
    let mut stopped_at: Option<Instant> = None;
    let lane_base = plan.first as u32 * 1000 + 1;

    'conn: loop {
        let now = Instant::now();
        if stopped_at.is_none() && stop.load(Ordering::Relaxed) {
            stopped_at = Some(now);
        }
        if let Some(s) = stopped_at {
            if outstanding.is_empty() || now >= s + DRAIN {
                break;
            }
        } else {
            let now_ms = clock.now_ms();
            loop {
                let item = match plan.pacing {
                    Pacing::Closed { window } => {
                        if outstanding.len() >= window || plan.items.is_empty() {
                            break;
                        }
                        &plan.items[next % plan.items.len()]
                    }
                    Pacing::Open => match plan.items.get(next) {
                        Some(it) if it.due_ms <= now_ms => it,
                        _ => break,
                    },
                };
                let lap = next / plan.items.len();
                let id = (plan.first + (next % plan.items.len()) * plan.stride + lap * plan.total)
                    as u64;
                next += 1;
                let (start, sent_ms) = (Instant::now(), clock.now_ms());
                wire.clear();
                let _ = writeln!(wire, "{}{id}{}", item.head, item.tail);
                let sent_ok = writer.write_all(wire.as_bytes());
                if sent_ok.is_err() {
                    out.protocol_errors.push("write failed (request)".into());
                    break 'conn;
                }
                let sent = Instant::now();
                let start_ms = match plan.pacing {
                    Pacing::Closed { .. } => sent_ms,
                    Pacing::Open => {
                        out.late_ms.push(sent_ms - item.due_ms);
                        item.due_ms
                    }
                };
                let lane = free_lanes.pop().unwrap_or_else(|| {
                    lanes_made += 1;
                    lane_base + lanes_made
                });
                outstanding.insert(
                    id,
                    Pending {
                        start,
                        sent,
                        start_ms,
                        shape: item.shape,
                        lane,
                    },
                );
            }
        }

        // Give up on requests past their deadline.
        let expired: Vec<u64> = outstanding
            .iter()
            .filter(|(_, p)| now.saturating_duration_since(p.start) >= REQUEST_TIMEOUT)
            .map(|(&id, _)| id)
            .collect();
        for id in expired {
            let p = outstanding.remove(&id).expect("listed above");
            free_lanes.push(p.lane);
            out.samples.push(Sample {
                id,
                start_ms: p.start_ms,
                end_ms: clock.now_ms(),
                ok: false,
                reply: None,
            });
        }

        // Sleep on the socket until the next reply or the next thing due.
        let mut wait = Duration::from_millis(50);
        if stopped_at.is_none() {
            if let (Pacing::Open, Some(it)) = (plan.pacing, plan.items.get(next)) {
                wait = wait.min(clock.wall_until(it.due_ms));
            }
        }
        let _ = writer.set_read_timeout(Some(wait.max(Duration::from_micros(200))));
        match reader.read_until(b'\n', &mut buf) {
            Ok(0) => {
                out.protocol_errors
                    .push("server closed the connection".into());
                break;
            }
            Ok(_) if buf.last() == Some(&b'\n') => {}
            Ok(_) => continue, // EOF mid-line; the next read reports the close
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            Err(e) => {
                out.protocol_errors.push(format!("read: {e}"));
                break;
            }
        }
        let (got, got_ms) = (Instant::now(), clock.now_ms());
        let line = String::from_utf8_lossy(&buf).trim_end().to_string();
        buf.clear();
        let reply: Value = match serde_json::from_str(&line) {
            Ok(v) => v,
            Err(e) => {
                out.protocol_errors
                    .push(format!("unparseable reply ({e}): {line}"));
                continue;
            }
        };
        let status = reply
            .get_field("status")
            .and_then(Value::as_str)
            .unwrap_or("");
        let id = reply
            .get_field("id")
            .and_then(Value::as_f64)
            .map(|n| n as u64);
        match id.and_then(|id| outstanding.remove(&id).map(|p| (id, p))) {
            Some((id, p)) => {
                let ok = status == "ok" && well_formed(&reply, p.shape);
                let parsed = Instant::now();
                if let Some(rec) = out.spans.as_mut() {
                    let req = rec.push("request", None, p.lane, id, p.start, parsed);
                    rec.push("send", Some(req), p.lane, id, p.start, p.sent);
                    rec.push("wait", Some(req), p.lane, id, p.sent, got);
                    rec.push("parse", Some(req), p.lane, id, got, parsed);
                }
                free_lanes.push(p.lane);
                out.samples.push(Sample {
                    id,
                    start_ms: p.start_ms,
                    end_ms: got_ms,
                    ok,
                    reply: ok.then_some(line),
                });
            }
            None if id.is_none() => out
                .protocol_errors
                .push(format!("unexpected reply: {line}")),
            // An answer to a request already given up on.
            None => {}
        }
    }

    // Whatever is still outstanding was never answered.
    let end_ms = clock.now_ms();
    for (id, p) in outstanding {
        out.samples.push(Sample {
            id,
            start_ms: p.start_ms,
            end_ms,
            ok: false,
            reply: None,
        });
    }
    out
}

/// The operator's connection: one synchronous control exchange at a time,
/// apart from the data-plane connections (set-up, `metrics` samples, bundle
/// flips, the update watcher's polls).
pub struct ControlConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl ControlConn {
    pub fn connect(addr: &str) -> Result<ControlConn, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let _ = writer.set_nodelay(true);
        writer
            .set_read_timeout(Some(REQUEST_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(ControlConn { reader, writer })
    }

    pub fn call(&mut self, line: &str) -> Result<Value, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => serde_json::from_str(reply.trim()).map_err(|e| format!("parse reply: {e}")),
            Err(e) => Err(format!("read: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn gen_requests(n: usize, due_step_ms: f64) -> Vec<Request> {
        (0..n)
            .map(|i| Request {
                id: i as u64,
                body: Body::Generate {
                    prompt: vec![2, 3],
                    max_new: 2,
                },
                tenant: None,
                due_ms: i as f64 * due_step_ms,
            })
            .collect()
    }

    /// A fake server: answers every request line `ok`, but only after
    /// sleeping `stall` before the first one.
    fn fake_server(stall: Duration) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let h = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut w = stream.try_clone().unwrap();
            let mut first = true;
            for line in BufReader::new(stream).lines().map_while(Result::ok) {
                if first {
                    std::thread::sleep(stall);
                    first = false;
                }
                let v: Value = serde_json::from_str(&line).unwrap();
                let id = v.get_field("id").and_then(Value::as_f64).unwrap();
                if w.write_all(
                    format!("{{\"id\":{id},\"status\":\"ok\",\"tokens\":[1,2]}}\n").as_bytes(),
                )
                .is_err()
                {
                    break;
                }
            }
        });
        (addr, h)
    }

    #[test]
    fn open_loop_latency_counts_from_due_time_through_a_stall() {
        // Five requests due 20 ms apart; the server stalls 300 ms on the
        // first. Timed from *send*, requests 1–4 would look fast; timed from
        // when they were *due* — and the generator keeps sending on
        // schedule — each carries the stall it sat behind.
        let (addr, server) = fake_server(Duration::from_millis(300));
        let reqs = gen_requests(5, 20.0);
        let plan = ConnPlan::new(&reqs, 0, 1, Pacing::Open);
        let stop = AtomicBool::new(false);
        let clock = Clock::wall();
        let res = std::thread::scope(|s| {
            let h = s.spawn(|| run_connection(&addr, &plan, &clock, &stop));
            std::thread::sleep(Duration::from_millis(450));
            stop.store(true, Ordering::Relaxed);
            h.join().unwrap()
        });
        server.join().unwrap();
        assert_eq!(res.samples.len(), 5);
        assert!(res.samples.iter().all(|s| s.ok));
        for s in &res.samples {
            let k = s.id as f64;
            assert_eq!(s.start_ms, k * 20.0, "start is the due time");
            let lat = s.end_ms - s.start_ms;
            assert!(
                lat >= 300.0 - k * 20.0 - 1.0,
                "request {k}: latency {lat} hides the stall"
            );
        }
        // The generator itself was on time: it did not wait for replies.
        assert!(res.late_ms.iter().all(|&l| l < 100.0), "{:?}", res.late_ms);
    }

    #[test]
    fn closed_loop_keeps_the_window_and_wraps_with_fresh_ids() {
        let (addr, server) = fake_server(Duration::ZERO);
        let reqs = gen_requests(3, 0.0);
        let plan = ConnPlan::new(&reqs, 0, 1, Pacing::Closed { window: 2 });
        let stop = AtomicBool::new(false);
        let clock = Clock::wall();
        let res = std::thread::scope(|s| {
            let h = s.spawn(|| run_connection(&addr, &plan, &clock, &stop));
            std::thread::sleep(Duration::from_millis(100));
            stop.store(true, Ordering::Relaxed);
            h.join().unwrap()
        });
        server.join().unwrap();
        assert!(res.samples.len() > 6, "the stream wrapped");
        assert!(res.samples.iter().all(|s| s.ok));
        let mut ids: Vec<u64> = res.samples.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), res.samples.len(), "ids are never reused");
        assert!(res.protocol_errors.is_empty(), "{:?}", res.protocol_errors);
    }

    #[test]
    fn a_dead_server_fails_requests_instead_of_hanging() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut line = String::new();
            let _ = BufReader::new(stream).read_line(&mut line);
            // Drop the connection without answering.
        });
        let reqs = gen_requests(2, 0.0);
        let plan = ConnPlan::new(&reqs, 0, 1, Pacing::Closed { window: 2 });
        let stop = AtomicBool::new(false);
        let res = run_connection(&addr, &plan, &Clock::wall(), &stop);
        server.join().unwrap();
        assert!(!res.protocol_errors.is_empty());
        assert!(!res.samples.is_empty() && res.samples.iter().all(|s| !s.ok));
    }

    #[test]
    fn malformed_ok_bodies_are_not_ok() {
        let v = |s: &str| serde_json::from_str::<Value>(s).unwrap();
        assert!(well_formed(&v(r#"{"tokens":[1,2]}"#), Shape::Tokens(2)));
        assert!(!well_formed(&v(r#"{"tokens":[1]}"#), Shape::Tokens(2)));
        let good = r#"{"scores":[-1,-2],"probabilities":[0.6,0.4],"best":0}"#;
        assert!(well_formed(&v(good), Shape::Options(2)));
        let bad_sum = r#"{"scores":[-1,-2],"probabilities":[0.6,0.6],"best":0}"#;
        assert!(!well_formed(&v(bad_sum), Shape::Options(2)));
        let bad_best = r#"{"scores":[-1,-2],"probabilities":[0.6,0.4],"best":2}"#;
        assert!(!well_formed(&v(bad_best), Shape::Options(2)));
    }
}
