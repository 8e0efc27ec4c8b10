//! Loopback smoke test of the `serve` binary: spawn it on an ephemeral
//! port, round-trip one generate and one MCQ request over the JSONL wire
//! protocol, verify the generate tokens against the in-process
//! single-sequence sampler, then shut the server down cleanly — at one
//! replica and at two, which must answer in the same shapes. A second test
//! checks that tenant shaping is live at the default single replica, a third
//! that a flag pair that would do nothing is a usage error.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use infuserki_nn::{sampler, NoHook};
use infuserki_serve::demo_model;
use infuserki_tensor::kernels;
use serde::Value;

struct ServerGuard(Child);

impl Drop for ServerGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn as_usize_vec(v: &Value) -> Vec<usize> {
    match v {
        Value::Array(items) => items
            .iter()
            .map(|x| x.as_f64().expect("token is a number") as usize)
            .collect(),
        other => panic!("expected array, got {other:?}"),
    }
}

/// Spawns `serve --demo --port 0 --threads 1 <extra>` and connects to it.
fn start(extra: &[&str]) -> (ServerGuard, TcpStream, BufReader<TcpStream>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--demo", "--port", "0", "--threads", "1"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("serve binary spawns");
    let stdout = child.stdout.take().expect("stdout piped");
    let guard = ServerGuard(child);

    // The binary prints `LISTENING <addr>` once the port is bound.
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("serve exited before listening")
            .expect("stdout readable");
        if let Some(rest) = line.strip_prefix("LISTENING ") {
            break rest.trim().to_string();
        }
    };

    let stream = TcpStream::connect(&addr).expect("loopback connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let writer = stream.try_clone().unwrap();
    (guard, writer, BufReader::new(stream))
}

#[test]
fn loopback_generate_and_mcq_round_trip() {
    for replicas in ["1", "2"] {
        round_trip(replicas);
    }
}

fn round_trip(replicas: &str) {
    let (mut guard, mut writer, mut reader) = start(&["--replicas", replicas]);
    writer
        .write_all(
            b"{\"op\":\"generate\",\"id\":1,\"prompt\":[1,2,3],\"max_new\":6}\n\
              {\"op\":\"mcq\",\"id\":2,\"prompt\":[4,5],\"options\":[[6],[7,8],[9,10,11]]}\n",
        )
        .unwrap();
    writer.flush().unwrap();

    // Responses arrive in completion order; match on id.
    let mut generate_tokens = None;
    let mut mcq_best = None;
    while generate_tokens.is_none() || mcq_best.is_none() {
        let mut line = String::new();
        reader.read_line(&mut line).expect("response line");
        let v: Value = serde_json::from_str(line.trim()).expect("response parses");
        assert_eq!(
            v.get_field("status").and_then(Value::as_str),
            Some("ok"),
            "unexpected response: {line}"
        );
        match v
            .get_field("id")
            .and_then(Value::as_f64)
            .map(|id| id as u64)
        {
            Some(1) => {
                generate_tokens = Some(as_usize_vec(v.get_field("tokens").unwrap()));
            }
            Some(2) => {
                let probs = v.get_field("probabilities").expect("probabilities field");
                let n = match probs {
                    Value::Array(items) => items.len(),
                    _ => 0,
                };
                assert_eq!(n, 3);
                mcq_best = Some(v.get_field("best").unwrap().as_f64().unwrap() as usize);
            }
            other => panic!("unexpected response id {other:?} in {line}"),
        }
    }

    // The served tokens must equal the single-sequence sampler on the same
    // deterministic demo model (the binary ran with one kernel thread).
    kernels::set_num_threads(1);
    let model = demo_model();
    let want = sampler::greedy_decode(&model, &NoHook, &[1, 2, 3], 6, None);
    assert_eq!(generate_tokens.unwrap(), want);
    let scores = sampler::score_options(
        &model,
        &NoHook,
        &[4, 5],
        &[vec![6], vec![7, 8], vec![9, 10, 11]],
    );
    let probs = sampler::option_probabilities(&scores, &[1, 2, 3]);
    assert_eq!(mcq_best.unwrap(), sampler::argmax(&probs));

    // Metrics op answers with the router snapshot: fleet counters on top,
    // one `serve` snapshot per replica — the same shape at every N.
    writer.write_all(b"{\"op\":\"metrics\"}\n").unwrap();
    writer.flush().unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let v: Value = serde_json::from_str(line.trim()).unwrap();
    assert_eq!(
        v.get_field("status").and_then(Value::as_str),
        Some("metrics")
    );
    let metrics = v.get_field("metrics").expect("metrics object");
    assert_eq!(
        metrics.get_field("dispatched").and_then(Value::as_f64),
        Some(2.0),
        "router counters missing in {line}"
    );
    let per_replica = match metrics.get_field("replicas") {
        Some(Value::Array(items)) => items,
        _ => panic!("metrics field replicas missing in {line}"),
    };
    assert_eq!(per_replica.len().to_string(), replicas);
    // Summed over replicas (at one replica: `replicas[0].serve.<name>`).
    let field = |name: &str| -> f64 {
        per_replica
            .iter()
            .map(|r| {
                r.get_field("serve")
                    .and_then(|s| s.get_field(name))
                    .and_then(Value::as_f64)
                    .unwrap_or_else(|| panic!("metrics field {name} missing in {line}"))
            })
            .sum()
    };
    let completed = field("completed");
    assert!(completed >= 2.0, "both requests completed, got {completed}");
    // Registry-backed values: TTFT percentiles come from the scheduler's
    // histogram (one sample per finished request) and queue depth from its
    // gauge — the queue must be empty again after both responses arrived.
    assert!(
        field("ttft_samples") >= 2.0,
        "each request records one TTFT sample"
    );
    assert!(field("ttft_p50_ms") > 0.0, "TTFT median must be positive");
    assert!(field("ttft_p99_ms") >= field("ttft_p50_ms"));
    assert_eq!(field("queue_depth"), 0.0, "queue drained");
    assert_eq!(field("cancelled_queued"), 0.0);

    // Clean shutdown: ack line, then the process exits on its own.
    writer.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
    writer.flush().unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let v: Value = serde_json::from_str(line.trim()).unwrap();
    assert_eq!(
        v.get_field("status").and_then(Value::as_str),
        Some("shutting_down")
    );
    drop(writer);
    drop(reader);

    let status = wait_with_timeout(&mut guard.0, Duration::from_secs(30))
        .expect("serve exits after shutdown");
    assert!(status.success(), "serve exited with {status}");
}

/// Tenant shaping is not a multi-replica feature: at the default single
/// replica a flooding tenant bounces off its own queue bound with the
/// typed error while another tenant is served.
#[test]
fn tenant_queue_bound_is_live_at_one_replica() {
    let (_guard, mut writer, mut reader) = start(&[
        "--replicas",
        "1",
        "--tenant-queue",
        "1",
        "--tenant-inflight",
        "1",
    ]);
    // One write: the first request is dispatched, the second parks in the
    // tenant queue, and the rest arrive while the first still decodes.
    let mut burst = String::new();
    for id in 0..20 {
        burst.push_str(&format!(
            "{{\"op\":\"generate\",\"id\":{id},\"prompt\":[{},2],\"max_new\":64,\"tenant\":\"big\"}}\n",
            1 + id
        ));
    }
    burst.push_str(
        "{\"op\":\"generate\",\"id\":100,\"prompt\":[7,8],\"max_new\":4,\"tenant\":\"small\"}\n",
    );
    writer.write_all(burst.as_bytes()).unwrap();
    writer.flush().unwrap();

    let (mut bounced, mut small_ok) = (0, false);
    for _ in 0..21 {
        let mut line = String::new();
        reader.read_line(&mut line).expect("response line");
        let v: Value = serde_json::from_str(line.trim()).expect("response parses");
        let id = v.get_field("id").and_then(Value::as_f64).expect("id") as u64;
        match v.get_field("status").and_then(Value::as_str) {
            Some("ok") => small_ok |= id == 100,
            Some("rejected") => {
                assert_ne!(id, 100, "the polite tenant was bounced: {line}");
                assert_eq!(
                    v.get_field("reason").and_then(Value::as_str),
                    Some("tenant_queue_full"),
                    "unexpected rejection: {line}"
                );
                bounced += 1;
            }
            _ => panic!("unexpected response: {line}"),
        }
    }
    assert!(bounced >= 1, "burst never hit the tenant queue bound");
    assert!(small_ok, "the other tenant was not served");
    writer.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
}

/// `--tenant-burst` only sizes the bucket `--tenant-rate` refills; alone it
/// would shape nothing, so it is refused rather than ignored.
#[test]
fn tenant_burst_without_rate_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--demo", "--port", "0", "--tenant-burst", "8"])
        .output()
        .expect("serve binary spawns");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--tenant-burst needs --tenant-rate"),
        "{stderr}"
    );
}

fn wait_with_timeout(child: &mut Child, timeout: Duration) -> Option<std::process::ExitStatus> {
    let deadline = std::time::Instant::now() + timeout;
    loop {
        if let Ok(Some(status)) = child.try_wait() {
            return Some(status);
        }
        if std::time::Instant::now() >= deadline {
            return None;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}
