//! Loopback test of the knowledge-bundle wire ops: spawn the `serve`
//! binary with a `--bundle` staged at startup, then drive
//! `list_bundles` / `promote` / `rollback` / pinned requests over the
//! JSONL protocol, verifying served tokens against the in-process
//! single-sequence sampler under the correct hook per phase.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use infuserki_core::{InfuserKiConfig, InfuserKiMethod, KnowledgeBundle};
use infuserki_nn::{sampler, NoHook, TransformerLm};
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

fn nudged_method(b: &TransformerLm) -> InfuserKiMethod {
    let mut c = InfuserKiConfig::for_model(b.n_layers());
    c.bottleneck = 4;
    c.infuser_hidden = 4;
    c.rc_dim = 8;
    let mut m = InfuserKiMethod::new(c, b, 5);
    m.visit_adapters_mut(&mut |p: &mut infuserki_tensor::Param| {
        for (i, w) in p.data_mut().data_mut().iter_mut().enumerate() {
            *w += 0.5 * ((i % 7) as f32 - 3.0);
        }
    });
    m
}

#[test]
fn loopback_bundle_ops_round_trip() {
    // Bake a bundle against the same deterministic demo model the binary
    // will serve.
    let model = demo_model();
    let bundle_path = std::env::temp_dir().join(format!(
        "infuserki_jsonl_bundle_{}.bundle.json",
        std::process::id()
    ));
    KnowledgeBundle::new("wire-k1", nudged_method(&model), &model, None, Vec::new())
        .unwrap()
        .save(&bundle_path)
        .unwrap();

    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--demo", "--port", "0", "--threads", "1"])
        .arg("--bundle")
        .arg(&bundle_path)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("serve binary spawns");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut guard = ServerGuard(child);

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
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut send = |line: &str| {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
    };
    let mut recv = || {
        let mut line = String::new();
        reader.read_line(&mut line).expect("response line");
        let v: Value = serde_json::from_str(line.trim()).expect("response parses");
        (v, line)
    };
    let status = |v: &Value| -> String {
        v.get_field("status")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string()
    };

    // --bundle staged version 1 and promoted it before listening.
    send(r#"{"op":"list_bundles"}"#);
    let (v, line) = recv();
    assert_eq!(status(&v), "bundles", "{line}");
    let bundles = match v.get_field("bundles") {
        Some(Value::Array(items)) => items.clone(),
        other => panic!("bundles array missing: {other:?}"),
    };
    assert_eq!(bundles.len(), 2, "{line}");
    assert_eq!(
        bundles[1].get_field("name").and_then(Value::as_str),
        Some("wire-k1")
    );
    assert_eq!(bundles[1].get_field("active"), Some(&Value::Bool(true)));

    // Unpinned runs on v1; "bundle":0 pins the base.
    kernels::set_num_threads(1);
    let method = nudged_method(&model);
    let want_v1 = sampler::greedy_decode(&model, &method.hook(), &[1, 2, 3], 6, None);
    let want_v0 = sampler::greedy_decode(&model, &NoHook, &[1, 2, 3], 6, None);
    assert_ne!(want_v1, want_v0, "bundle must observably change the output");

    send(r#"{"op":"generate","id":1,"prompt":[1,2,3],"max_new":6}"#);
    let (v, line) = recv();
    assert_eq!(status(&v), "ok", "{line}");
    assert_eq!(as_usize_vec(v.get_field("tokens").unwrap()), want_v1);

    send(r#"{"op":"generate","id":2,"prompt":[1,2,3],"max_new":6,"bundle":0}"#);
    let (v, line) = recv();
    assert_eq!(status(&v), "ok", "{line}");
    assert_eq!(as_usize_vec(v.get_field("tokens").unwrap()), want_v0);

    // A pin to a version that was never loaded is a typed rejection.
    send(r#"{"op":"generate","id":3,"prompt":[1,2,3],"max_new":6,"bundle":9}"#);
    let (v, line) = recv();
    assert_eq!(status(&v), "rejected", "{line}");
    assert_eq!(
        v.get_field("reason").and_then(Value::as_str),
        Some("unknown_bundle"),
        "{line}"
    );

    // Rollback restores the base for unpinned traffic.
    send(r#"{"op":"rollback"}"#);
    let (v, line) = recv();
    assert_eq!(status(&v), "rolled_back", "{line}");
    assert_eq!(v.get_field("version").and_then(Value::as_f64), Some(0.0));
    send(r#"{"op":"generate","id":4,"prompt":[1,2,3],"max_new":6}"#);
    let (v, _) = recv();
    assert_eq!(as_usize_vec(v.get_field("tokens").unwrap()), want_v0);

    // Promote it back; control errors carry slugs.
    send(r#"{"op":"promote","version":1}"#);
    let (v, line) = recv();
    assert_eq!(status(&v), "promoted", "{line}");
    send(r#"{"op":"promote","version":42}"#);
    let (v, line) = recv();
    assert_eq!(status(&v), "control_error", "{line}");
    assert_eq!(
        v.get_field("error").and_then(Value::as_str),
        Some("unknown_version")
    );

    // The metrics snapshot carries the bundle dimensions.
    send(r#"{"op":"metrics"}"#);
    let (v, line) = recv();
    let metrics = v.get_field("metrics").expect("metrics object");
    let serve = match metrics.get_field("replicas") {
        Some(Value::Array(items)) => items[0].get_field("serve").expect("serve snapshot"),
        _ => panic!("metrics field replicas missing in {line}"),
    };
    let field = |name: &str| -> f64 {
        serve
            .get_field(name)
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("metrics field {name} missing in {line}"))
    };
    assert_eq!(field("bundle_active_version"), 1.0);
    assert!(field("bundle_swaps") >= 2.0, "startup promote + re-promote");
    assert_eq!(field("bundle_rollbacks"), 1.0);
    assert_eq!(field("bundle_rejected_promotions"), 0.0);

    send(r#"{"op":"shutdown"}"#);
    let (v, _) = recv();
    assert_eq!(status(&v), "shutting_down");
    drop(reader);

    let status = wait_with_timeout(&mut guard.0, Duration::from_secs(30))
        .expect("serve exits after shutdown");
    assert!(status.success(), "serve exited with {status}");
    let _ = std::fs::remove_file(&bundle_path);
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
