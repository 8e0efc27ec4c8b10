//! Newline-delimited JSON front-end over `std::net::TcpListener`.
//!
//! One JSON object per line in each direction. Requests:
//!
//! ```json
//! {"op":"generate","id":1,"prompt":[1,2,3],"max_new":8,"eos":3,"beam":1,"priority":0,"timeout_ms":500}
//! {"op":"mcq","id":2,"prompt":[4,5],"options":[[6],[7,8]],"bundle":1}
//! {"op":"cancel","id":1}
//! {"op":"metrics"}
//! {"op":"load_bundle","path":"facts.bundle.json"}
//! {"op":"promote","version":1}
//! {"op":"rollback"}
//! {"op":"list_bundles"}
//! {"op":"shutdown"}
//! ```
//!
//! The optional `bundle` field on `generate`/`mcq` pins the request to a
//! loaded knowledge-bundle version; unpinned requests run on whatever
//! version is active at admission (see the scheduler docs). The optional
//! `tenant` string field tags the request with a tenant id, which keys the
//! router's fair-share queues and token-bucket rate limits. Control ops
//! reply `{"status":"bundle_loaded","bundle":{...}}`,
//! `{"status":"promoted","version":1,"gate":{...}}`,
//! `{"status":"rolled_back","version":0}` and
//! `{"status":"bundles","bundles":[...]}`; failures (unknown version, NR
//! regression-gate refusal, incompatible artifact) come back as
//! `{"status":"control_error","error":"nr_gate_failed","detail":"..."}`.
//! A `load_bundle` reads and verifies the file on the connection's own
//! thread; the replicas' scheduler threads only stage the verified hook.
//!
//! Responses (in completion order, not request order — match on `id`):
//!
//! ```json
//! {"id":1,"status":"ok","tokens":[9,10]}
//! {"id":2,"status":"ok","scores":[-1.5,-2.0],"probabilities":[0.62,0.38],"best":0}
//! {"id":3,"status":"rejected","reason":"queue_full","detail":"queue full (capacity 256)"}
//! {"id":1,"status":"cancelled"}
//! {"id":4,"status":"expired"}
//! {"status":"error","detail":"line 7: missing field `prompt`"}
//! ```
//!
//! `cancel` acks with `{"id":N,"status":"cancel_requested"}`; the request
//! itself still terminates with its own response. `metrics` replies
//! `{"status":"metrics","metrics":{...}}` ([`RouterClient::metrics_json`]:
//! router counters, an `ingest` object of the update pipeline's metrics,
//! and one `{"alive","dispatched","outstanding","serve"}` object per
//! replica). `shutdown` acks `{"status":"shutting_down"}` and
//! stops the accept loop; the binary then drains the fleet.
//!
//! The front-end adds no protocol state beyond a per-connection id→cancel
//! map, whose entries leave as their replies are written: every submission
//! funnels through the same in-process
//! [`RouterClient`] the library offers, so wire requests and in-process
//! requests share the same tenant queues, budgets and batches.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use serde::Value;

use infuserki_serve::{
    BundleInfo, CancelToken, ControlError, ControlOp, ControlOutcome, ControlPlane, GateReport,
    GenerateSpec, McqSpec, Outcome, RejectReason, RequestKind, Response, SubmitError, SubmitOpts,
};

use crate::RouterClient;

/// Serializes a `Value` tree as one line (no trailing newline).
fn json_line(v: &Value) -> String {
    serde_json::to_string(v).expect("value serializes")
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn num(n: f64) -> Value {
    Value::Num(n)
}

fn str_v(s: &str) -> Value {
    Value::Str(s.to_string())
}

fn usize_array(xs: &[usize]) -> Value {
    Value::Array(xs.iter().map(|&x| num(x as f64)).collect())
}

fn f32_array(xs: &[f32]) -> Value {
    Value::Array(xs.iter().map(|&x| num(f64::from(x))).collect())
}

/// Extracts a non-negative integer from a JSON number (rejecting fractions
/// and values past 2^53, where f64 loses integer exactness).
fn as_usize(v: &Value) -> Option<usize> {
    let n = v.as_f64()?;
    if n < 0.0 || n.fract() != 0.0 || n > 9_007_199_254_740_992.0 {
        return None;
    }
    Some(n as usize)
}

fn field_usize(v: &Value, key: &str) -> Result<usize, String> {
    v.get_field(key)
        .ok_or_else(|| format!("missing field `{key}`"))
        .and_then(|f| {
            as_usize(f).ok_or_else(|| format!("field `{key}` must be a non-negative integer"))
        })
}

fn opt_field_usize(v: &Value, key: &str) -> Result<Option<usize>, String> {
    match v.get_field(key) {
        None | Some(Value::Null) => Ok(None),
        Some(f) => as_usize(f)
            .map(Some)
            .ok_or_else(|| format!("field `{key}` must be a non-negative integer")),
    }
}

fn field_tokens(v: &Value, key: &str) -> Result<Vec<usize>, String> {
    match v.get_field(key) {
        Some(Value::Array(items)) => items
            .iter()
            .map(|t| as_usize(t).ok_or_else(|| format!("field `{key}` must hold token ids")))
            .collect(),
        Some(_) => Err(format!("field `{key}` must be an array of token ids")),
        None => Err(format!("missing field `{key}`")),
    }
}

/// Scheduling options shared by both request ops.
fn parse_opts(v: &Value) -> Result<SubmitOpts, String> {
    let priority = match v.get_field("priority") {
        None | Some(Value::Null) => 0,
        Some(f) => {
            let n = f
                .as_f64()
                .filter(|n| n.fract() == 0.0 && n.abs() <= f64::from(i32::MAX))
                .ok_or("field `priority` must be an integer")?;
            n as i32
        }
    };
    let deadline = opt_field_usize(v, "timeout_ms")?
        .map(|ms| Instant::now() + Duration::from_millis(ms as u64));
    let bundle = match opt_field_usize(v, "bundle")? {
        None => None,
        Some(b) if b <= u32::MAX as usize => Some(b as u32),
        Some(_) => return Err("field `bundle` must fit a 32-bit version number".into()),
    };
    Ok(SubmitOpts {
        priority,
        deadline,
        bundle,
    })
}

fn parse_generate(v: &Value) -> Result<RequestKind, String> {
    Ok(RequestKind::Generate(GenerateSpec {
        prompt: field_tokens(v, "prompt")?,
        max_new: field_usize(v, "max_new")?,
        eos: opt_field_usize(v, "eos")?,
        beam_width: opt_field_usize(v, "beam")?.unwrap_or(1),
    }))
}

fn parse_mcq(v: &Value) -> Result<RequestKind, String> {
    let options = match v.get_field("options") {
        Some(Value::Array(items)) => items
            .iter()
            .map(|o| match o {
                Value::Array(toks) => toks
                    .iter()
                    .map(|t| as_usize(t).ok_or_else(|| "options must hold token ids".to_string()))
                    .collect::<Result<Vec<usize>, String>>(),
                _ => Err("field `options` must be an array of token arrays".to_string()),
            })
            .collect::<Result<Vec<Vec<usize>>, String>>()?,
        _ => return Err("field `options` must be an array of token arrays".into()),
    };
    Ok(RequestKind::Mcq(McqSpec {
        prompt: field_tokens(v, "prompt")?,
        options,
    }))
}

fn reject_reason_slug(r: &RejectReason) -> &'static str {
    match r {
        RejectReason::QueueFull { .. } => "queue_full",
        RejectReason::BudgetExceeded { .. } => "budget_exceeded",
        RejectReason::Invalid(_) => "invalid",
        RejectReason::UnknownBundle { .. } => "unknown_bundle",
        RejectReason::ShuttingDown => "shutting_down",
        RejectReason::TenantQueueFull { .. } => "tenant_queue_full",
        RejectReason::ReplicaFailed => "replica_failed",
    }
}

fn control_error_slug(e: &ControlError) -> &'static str {
    match e {
        ControlError::UnknownVersion(_) => "unknown_version",
        ControlError::AlreadyActive(_) => "already_active",
        ControlError::NrGateFailed { .. } => "nr_gate_failed",
        ControlError::NothingToRollBack => "nothing_to_roll_back",
        ControlError::Bundle(_) => "bundle_unreadable",
        ControlError::Incompatible(_) => "incompatible",
        ControlError::ShuttingDown => "shutting_down",
        ControlError::Disconnected => "disconnected",
    }
}

fn gate_value(g: &GateReport) -> Value {
    obj(vec![
        ("probes", num(g.probes as f64)),
        ("staged_correct", num(g.staged_correct as f64)),
        ("active_correct", num(g.active_correct as f64)),
    ])
}

fn bundle_info_value(b: &BundleInfo) -> Value {
    let opt_f32 = |x: Option<f32>| x.map_or(Value::Null, |v| num(f64::from(v)));
    obj(vec![
        ("version", num(f64::from(b.version))),
        ("name", str_v(&b.name)),
        ("config_fingerprint", str_v(&b.config_fingerprint)),
        ("active", Value::Bool(b.active)),
        ("previous", Value::Bool(b.previous)),
        ("requests", num(b.requests as f64)),
        ("nr", opt_f32(b.nr)),
        ("rr", opt_f32(b.rr)),
        ("gate_probes", num(b.gate_probes as f64)),
    ])
}

/// Renders a control-plane result as its wire line.
fn control_line(result: &Result<ControlOutcome, ControlError>) -> String {
    let v = match result {
        Ok(ControlOutcome::Loaded(info)) => obj(vec![
            ("status", str_v("bundle_loaded")),
            ("bundle", bundle_info_value(info)),
        ]),
        Ok(ControlOutcome::Promoted { version, gate, .. }) => obj(vec![
            ("status", str_v("promoted")),
            ("version", num(f64::from(*version))),
            ("gate", gate.as_ref().map_or(Value::Null, gate_value)),
        ]),
        Ok(ControlOutcome::RolledBack { version }) => obj(vec![
            ("status", str_v("rolled_back")),
            ("version", num(f64::from(*version))),
        ]),
        Ok(ControlOutcome::Bundles(list)) => obj(vec![
            ("status", str_v("bundles")),
            (
                "bundles",
                Value::Array(list.iter().map(bundle_info_value).collect()),
            ),
        ]),
        Err(e) => {
            let mut fields = vec![
                ("status", str_v("control_error")),
                ("error", str_v(control_error_slug(e))),
                ("detail", str_v(&e.to_string())),
            ];
            if let ControlError::NrGateFailed { version, gate } = e {
                fields.push(("version", num(f64::from(*version))));
                fields.push(("gate", gate_value(gate)));
            }
            obj(fields)
        }
    };
    json_line(&v)
}

/// Renders a terminal outcome as its wire line.
fn outcome_line(id: u64, outcome: &Outcome) -> String {
    let v = match outcome {
        Outcome::Generated { tokens } => obj(vec![
            ("id", num(id as f64)),
            ("status", str_v("ok")),
            ("tokens", usize_array(tokens)),
        ]),
        Outcome::McqScored {
            scores,
            probabilities,
            best,
        } => obj(vec![
            ("id", num(id as f64)),
            ("status", str_v("ok")),
            ("scores", f32_array(scores)),
            ("probabilities", f32_array(probabilities)),
            ("best", num(*best as f64)),
        ]),
        Outcome::Rejected(reason) => obj(vec![
            ("id", num(id as f64)),
            ("status", str_v("rejected")),
            ("reason", str_v(reject_reason_slug(reason))),
            ("detail", str_v(&reason.to_string())),
        ]),
        Outcome::Cancelled => obj(vec![("id", num(id as f64)), ("status", str_v("cancelled"))]),
        Outcome::Expired => obj(vec![("id", num(id as f64)), ("status", str_v("expired"))]),
    };
    json_line(&v)
}

fn error_line(id: Option<u64>, detail: &str) -> String {
    let mut fields = Vec::new();
    if let Some(id) = id {
        fields.push(("id", num(id as f64)));
    }
    fields.push(("status", str_v("error")));
    fields.push(("detail", str_v(detail)));
    json_line(&obj(fields))
}

/// Writes one line (appending `\n`) under the shared write lock, as a
/// single write: a reply split across two segments would leave the second
/// waiting on the peer's delayed ACK.
fn send_line<W: Write>(stream: &Mutex<W>, line: &str) -> std::io::Result<()> {
    let mut framed = String::with_capacity(line.len() + 1);
    framed.push_str(line);
    framed.push('\n');
    let mut s = stream.lock().unwrap();
    s.write_all(framed.as_bytes())?;
    s.flush()
}

/// Set-up every accepted connection gets before it is served: replies are
/// short lines the peer is waiting on, so Nagle's algorithm is off.
fn accepted(stream: TcpStream) -> std::io::Result<TcpStream> {
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// A connection's id → cancel-token table. An entry lives from just before
/// its request is submitted until just before its reply line is written.
type CancelTable = Mutex<HashMap<u64, CancelToken>>;

/// Serves one connection: reads request lines, submits through `client`,
/// and writes responses as they complete. Returns `true` if the peer asked
/// the whole server to shut down.
fn handle_connection(
    stream: TcpStream,
    client: &RouterClient,
    cancels: Arc<CancelTable>,
) -> std::io::Result<bool> {
    let reader = BufReader::new(stream.try_clone()?);
    let writer = Arc::new(Mutex::new(stream));
    // All of this connection's requests are answered on one channel; the
    // writer thread turns answers into wire lines in completion order.
    let (tx, rx) = mpsc::channel::<Response>();
    let replies = {
        let (writer, cancels) = (Arc::clone(&writer), Arc::clone(&cancels));
        std::thread::spawn(move || {
            while let Ok(resp) = rx.recv() {
                cancels.lock().unwrap().remove(&resp.id);
                if send_line(&writer, &outcome_line(resp.id, &resp.outcome)).is_err() {
                    break;
                }
            }
        })
    };
    let mut shutdown_all = false;
    for (line_no, line) in reader.lines().enumerate() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        if line.trim().is_empty() {
            continue;
        }
        let ctx = |msg: String| format!("line {}: {}", line_no + 1, msg);
        let parsed: Result<Value, _> = serde_json::from_str(&line);
        let value = match parsed {
            Ok(v) => v,
            Err(e) => {
                send_line(&writer, &error_line(None, &ctx(e.to_string())))?;
                continue;
            }
        };
        let op = match value.get_field("op").and_then(Value::as_str) {
            Some(op) => op.to_string(),
            None => {
                send_line(
                    &writer,
                    &error_line(None, &ctx("missing field `op`".into())),
                )?;
                continue;
            }
        };
        match op.as_str() {
            "generate" | "mcq" => {
                let id = match field_usize(&value, "id") {
                    Ok(id) => id as u64,
                    Err(e) => {
                        send_line(&writer, &error_line(None, &ctx(e)))?;
                        continue;
                    }
                };
                let kind = if op == "generate" {
                    parse_generate(&value)
                } else {
                    parse_mcq(&value)
                };
                let (kind, opts) = match kind.and_then(|k| Ok((k, parse_opts(&value)?))) {
                    Ok(ko) => ko,
                    Err(e) => {
                        send_line(&writer, &error_line(Some(id), &ctx(e)))?;
                        continue;
                    }
                };
                let tenant = value.get_field("tenant").and_then(Value::as_str);
                // In the table before the request can be answered, so the
                // writer's removal never precedes the insert.
                let cancel = CancelToken::new();
                cancels.lock().unwrap().insert(id, cancel.clone());
                if let Err(e) =
                    client.submit_with_sender(id, kind, opts, tenant, tx.clone(), cancel)
                {
                    cancels.lock().unwrap().remove(&id);
                    let line = match e {
                        SubmitError::Rejected(reason) => {
                            outcome_line(id, &Outcome::Rejected(reason))
                        }
                        SubmitError::Disconnected => error_line(Some(id), "scheduler unavailable"),
                    };
                    send_line(&writer, &line)?;
                }
            }
            "cancel" => match field_usize(&value, "id") {
                Ok(id) => {
                    let id = id as u64;
                    if let Some(c) = cancels.lock().unwrap().get(&id) {
                        c.cancel();
                    }
                    let ack = obj(vec![
                        ("id", num(id as f64)),
                        ("status", str_v("cancel_requested")),
                    ]);
                    send_line(&writer, &json_line(&ack))?;
                }
                Err(e) => send_line(&writer, &error_line(None, &ctx(e)))?,
            },
            "metrics" => {
                let line = format!(
                    "{{\"status\":\"metrics\",\"metrics\":{}}}",
                    client.metrics_json()
                );
                send_line(&writer, &line)?;
            }
            "load_bundle" => {
                match value.get_field("path").and_then(Value::as_str) {
                    Some(path) => {
                        let res = client.control(ControlOp::LoadBundle { path: path.into() });
                        infuserki_serve::release_free_heap();
                        send_line(&writer, &control_line(&res))?;
                    }
                    None => send_line(
                        &writer,
                        &error_line(None, &ctx("missing field `path`".into())),
                    )?,
                };
            }
            "promote" => match field_usize(&value, "version") {
                Ok(v) if v <= u32::MAX as usize => {
                    let res = client.control(ControlOp::Promote {
                        version: v as u32,
                        verdict: None,
                    });
                    send_line(&writer, &control_line(&res))?;
                }
                Ok(_) => send_line(
                    &writer,
                    &error_line(None, &ctx("field `version` must fit 32 bits".into())),
                )?,
                Err(e) => send_line(&writer, &error_line(None, &ctx(e)))?,
            },
            "rollback" => {
                let res = client.control(ControlOp::Rollback);
                send_line(&writer, &control_line(&res))?;
            }
            "list_bundles" => {
                let res = client.control(ControlOp::ListBundles);
                send_line(&writer, &control_line(&res))?;
            }
            "shutdown" => {
                send_line(
                    &writer,
                    &json_line(&obj(vec![("status", str_v("shutting_down"))])),
                )?;
                shutdown_all = true;
                break;
            }
            other => {
                send_line(
                    &writer,
                    &error_line(None, &ctx(format!("unknown op `{other}`"))),
                )?;
            }
        }
    }
    drop(tx);
    let _ = replies.join();
    Ok(shutdown_all)
}

/// Accept loop: serves connections until a peer sends `shutdown` (or
/// `stop` is set externally and the listener is woken by a connection).
/// Connections are handled on their own threads; in-flight connections keep
/// running after the loop returns and end when their peers disconnect.
pub fn run(
    listener: TcpListener,
    client: RouterClient,
    stop: Arc<AtomicBool>,
) -> std::io::Result<()> {
    let addr = listener.local_addr()?;
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = match conn.and_then(accepted) {
            Ok(s) => s,
            Err(_) => continue,
        };
        let client = client.clone();
        let stop_flag = Arc::clone(&stop);
        std::thread::spawn(move || {
            if let Ok(true) = handle_connection(stream, &client, Default::default()) {
                stop_flag.store(true, Ordering::SeqCst);
                // Wake the accept loop so it observes the flag.
                let _ = TcpStream::connect(addr);
            }
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{spawn_router, RouterConfig};

    /// Slows every forward without changing outputs, so a long request is
    /// reliably still in flight when its cancel arrives.
    struct SlowHook;

    impl infuserki_nn::LayerHook for SlowHook {
        fn attn_q_delta(
            &self,
            _layer: usize,
            _x: &infuserki_nn::Val,
            _e: &mut infuserki_nn::Exec,
        ) -> Option<infuserki_nn::Val> {
            std::thread::sleep(Duration::from_millis(1));
            None
        }
    }

    #[test]
    fn cancel_table_empties_as_replies_land_and_still_cancels_in_flight_ids() {
        let (client, handle) = spawn_router(RouterConfig::default(), |_| {
            (infuserki_serve::demo_model(), SlowHook)
        })
        .unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let cancels = Arc::new(CancelTable::default());
        let server = {
            let (client, cancels) = (client.clone(), Arc::clone(&cancels));
            std::thread::spawn(move || {
                let (stream, _) = listener.accept().unwrap();
                handle_connection(accepted(stream).unwrap(), &client, cancels).unwrap()
            })
        };
        let mut lines = BufReader::new(peer.try_clone().unwrap()).lines();
        let mut peer = peer;
        let n = 8;
        for id in 0..n {
            writeln!(
                peer,
                r#"{{"op":"generate","id":{id},"prompt":[1,2,3],"max_new":2}}"#
            )
            .unwrap();
        }
        for _ in 0..n {
            let line = lines.next().unwrap().unwrap();
            assert!(line.contains(r#""status":"ok""#), "{line}");
        }
        assert!(cancels.lock().unwrap().is_empty(), "every replied id left");

        writeln!(
            peer,
            r#"{{"op":"generate","id":99,"prompt":[1,2,3],"max_new":100}}"#
        )
        .unwrap();
        writeln!(peer, r#"{{"op":"cancel","id":99}}"#).unwrap();
        let mut got: Vec<String> = (0..2).map(|_| lines.next().unwrap().unwrap()).collect();
        got.sort();
        assert_eq!(
            got,
            [
                r#"{"id":99,"status":"cancel_requested"}"#,
                r#"{"id":99,"status":"cancelled"}"#
            ]
        );
        assert!(cancels.lock().unwrap().is_empty());

        writeln!(peer, r#"{{"op":"shutdown"}}"#).unwrap();
        assert!(lines.next().unwrap().unwrap().contains("shutting_down"));
        assert!(server.join().unwrap(), "the peer asked for shutdown");
        handle.shutdown();
    }

    #[test]
    fn send_line_issues_one_write_per_reply() {
        #[derive(Default)]
        struct Counting {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink = Mutex::new(Counting::default());
        send_line(&sink, r#"{"id":1,"status":"ok"}"#).unwrap();
        send_line(&sink, "{}").unwrap();
        let sink = sink.into_inner().unwrap();
        assert_eq!(sink.writes, 2, "one write per reply, newline included");
        assert_eq!(sink.bytes, b"{\"id\":1,\"status\":\"ok\"}\n{}\n");
    }

    #[test]
    fn accepted_streams_have_nagle_off() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        assert!(accepted(stream).unwrap().nodelay().unwrap());
    }

    #[test]
    fn outcome_lines_render_expected_shapes() {
        let ok = outcome_line(3, &Outcome::Generated { tokens: vec![7, 8] });
        assert_eq!(ok, r#"{"id":3,"status":"ok","tokens":[7,8]}"#);
        let rej = outcome_line(
            4,
            &Outcome::Rejected(RejectReason::QueueFull { capacity: 2 }),
        );
        assert!(rej.contains(r#""status":"rejected""#));
        assert!(rej.contains(r#""reason":"queue_full""#));
        let mcq = outcome_line(
            5,
            &Outcome::McqScored {
                scores: vec![-1.5],
                probabilities: vec![1.0],
                best: 0,
            },
        );
        assert!(mcq.contains(r#""best":0"#));
    }

    #[test]
    fn request_parsing_validates_shapes() {
        let v: Value =
            serde_json::from_str(r#"{"op":"generate","id":1,"prompt":[1,2],"max_new":4,"eos":3}"#)
                .unwrap();
        match parse_generate(&v).unwrap() {
            RequestKind::Generate(g) => {
                assert_eq!(g.prompt, vec![1, 2]);
                assert_eq!(g.max_new, 4);
                assert_eq!(g.eos, Some(3));
                assert_eq!(g.beam_width, 1);
            }
            other => panic!("unexpected kind {other:?}"),
        }
        let v: Value =
            serde_json::from_str(r#"{"op":"mcq","id":2,"prompt":[1],"options":[[2],[3,4]]}"#)
                .unwrap();
        match parse_mcq(&v).unwrap() {
            RequestKind::Mcq(m) => assert_eq!(m.options, vec![vec![2], vec![3, 4]]),
            other => panic!("unexpected kind {other:?}"),
        }
        let bad: Value = serde_json::from_str(r#"{"op":"generate","id":1,"max_new":4}"#).unwrap();
        assert!(parse_generate(&bad).unwrap_err().contains("prompt"));
        let frac: Value =
            serde_json::from_str(r#"{"op":"generate","id":1,"prompt":[1.5],"max_new":4}"#).unwrap();
        assert!(parse_generate(&frac).is_err());
    }

    #[test]
    fn parse_opts_reads_priority_and_deadline() {
        let v: Value = serde_json::from_str(r#"{"priority":-2,"timeout_ms":50}"#).unwrap();
        let opts = parse_opts(&v).unwrap();
        assert_eq!(opts.priority, -2);
        assert!(opts.deadline.is_some());
        let none: Value = serde_json::from_str(r#"{}"#).unwrap();
        let opts = parse_opts(&none).unwrap();
        assert_eq!(opts.priority, 0);
        assert!(opts.deadline.is_none());
        assert_eq!(opts.bundle, None);
        let pinned: Value = serde_json::from_str(r#"{"bundle":2}"#).unwrap();
        assert_eq!(parse_opts(&pinned).unwrap().bundle, Some(2));
    }

    #[test]
    fn control_lines_render_expected_shapes() {
        let rolled = control_line(&Ok(ControlOutcome::RolledBack { version: 0 }));
        assert_eq!(rolled, r#"{"status":"rolled_back","version":0}"#);
        // The replaced version stays off the wire.
        let promoted = control_line(&Ok(ControlOutcome::Promoted {
            version: 2,
            replaced: 1,
            gate: None,
        }));
        assert_eq!(promoted, r#"{"status":"promoted","version":2,"gate":null}"#);
        let gate = GateReport {
            probes: 4,
            staged_correct: 1,
            active_correct: 3,
        };
        let failed = control_line(&Err(ControlError::NrGateFailed { version: 2, gate }));
        assert!(failed.contains(r#""status":"control_error""#));
        assert!(failed.contains(r#""error":"nr_gate_failed""#));
        assert!(failed.contains(r#""staged_correct":1"#));
        let unknown = control_line(&Err(ControlError::UnknownVersion(9)));
        assert!(unknown.contains(r#""error":"unknown_version""#));
        assert_eq!(
            reject_reason_slug(&RejectReason::UnknownBundle { version: 3 }),
            "unknown_bundle"
        );
    }
}
