//! End-to-end acceptance test for `serve --watch-kg`: a fact that did NOT
//! exist when the process started is appended to the WAL (as a separate
//! writer, exactly like `kg_ingest` would), the in-process pipeline trains
//! and publishes a bundle through the NR gate, and the fact becomes
//! answerable over the JSONL wire — while in-flight requests keep
//! completing, none dropped.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use infuserki_core::{InfuserKiConfig, KnowledgeBundle, TrainConfig};
use infuserki_ingest::{AppendOutcome, DurableStore, PipelineConfig, StoreOptions, TripleDelta};
use infuserki_kg::{synth_umls, TripleStore, UmlsConfig};
use infuserki_nn::{ModelConfig, TransformerLm};
use infuserki_text::{prompts, templates::TemplateSet, Tokenizer};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Value;

struct ServerGuard(Child);

impl Drop for ServerGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn tiny_world() -> (TransformerLm, Tokenizer, TripleStore) {
    let store = synth_umls(&UmlsConfig::with_triplets(40, 19));
    let mut lines: Vec<String> = store.entity_names().map(str::to_string).collect();
    for r in store.relation_names() {
        lines.extend(TemplateSet::vocabulary_lines(r));
    }
    lines.extend(prompts::vocabulary_lines());
    let tok = Tokenizer::build(lines.iter().map(String::as_str));
    let mut rng = ChaCha8Rng::seed_from_u64(91);
    let base = TransformerLm::new(
        ModelConfig {
            vocab_size: tok.vocab_size(),
            max_seq: 96,
            ..ModelConfig::tiny(0)
        },
        &mut rng,
    );
    (base, tok, store)
}

fn pipeline_cfg(bundle_dir: &std::path::Path) -> PipelineConfig {
    let mut method = InfuserKiConfig::for_model(2);
    method.bottleneck = 4;
    method.infuser_hidden = 4;
    method.rc_dim = 8;
    PipelineConfig {
        min_batch: 2,
        max_age_ms: 120_000,
        poll_ms: 40,
        max_relations: 24,
        method: Some(method),
        bundle_dir: bundle_dir.display().to_string(),
        name_prefix: "live".to_string(),
        train: TrainConfig {
            epochs_infuser: 6,
            epochs_qa: 24,
            epochs_rc: 2,
            lr: 3e-3,
            lr_infuser: 2e-2,
            batch: 4,
            seed: 11,
        },
        ..PipelineConfig::default()
    }
}

/// Appends `n` facts that are not yet live (known names, so in-vocabulary
/// and trainable); earlier appends are duplicates and auto-rejected.
fn append_novel(ds: &mut DurableStore, world: &TripleStore, n: usize) -> usize {
    let names: Vec<&str> = world.entity_names().collect();
    let rel = world.relation_name(world.triples()[0].relation);
    let mut appended = 0;
    'outer: for (i, &s) in names.iter().enumerate() {
        for &o in names.iter().skip(i + 1) {
            if appended == n {
                break 'outer;
            }
            if let AppendOutcome::Accepted(_) = ds.append(&TripleDelta::add(s, rel, o)).unwrap() {
                appended += 1;
            }
        }
    }
    ds.sync().unwrap();
    appended
}

fn tokens_json(ts: &[usize]) -> String {
    let inner: Vec<String> = ts.iter().map(|t| t.to_string()).collect();
    format!("[{}]", inner.join(","))
}

#[test]
fn wal_append_becomes_answerable_through_live_serve() {
    let dir = std::env::temp_dir().join(format!("infuserki_watch_e2e_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let wal_dir = dir.join("wal");
    let bundle_dir = dir.join("bundles");
    std::fs::create_dir_all(&wal_dir).unwrap();

    let (base, tok, world) = tiny_world();
    let model_path = dir.join("model.json");
    base.save(&model_path).unwrap();
    let tok_path = dir.join("tokenizer.json");
    std::fs::write(&tok_path, serde_json::to_string(&tok).unwrap()).unwrap();
    let cfg_path = dir.join("pipeline.json");
    std::fs::write(
        &cfg_path,
        serde_json::to_string(&pipeline_cfg(&bundle_dir)).unwrap(),
    )
    .unwrap();

    // The baseline world goes into the WAL before the server exists — the
    // pipeline recovers it at startup and only trains on what lands later.
    let opts = StoreOptions {
        functional: false,
        ..StoreOptions::default()
    };
    let mut ds = DurableStore::open(&wal_dir, opts.clone()).unwrap();
    for t in world.triples() {
        ds.append(&TripleDelta::add(
            world.entity_name(t.head),
            world.relation_name(t.relation),
            world.entity_name(t.tail),
        ))
        .unwrap();
    }
    ds.sync().unwrap();
    drop(ds);

    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--port", "0", "--threads", "1"])
        .arg("--model")
        .arg(&model_path)
        .arg("--watch-kg")
        .arg(&wal_dir)
        .arg("--watch-tokenizer")
        .arg(&tok_path)
        .arg("--watch-config")
        .arg(&cfg_path)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
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
        .set_read_timeout(Some(Duration::from_secs(120)))
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

    // Only the base exists at startup: no --bundle, nothing published yet.
    send(r#"{"op":"list_bundles"}"#);
    let (v, line) = recv();
    assert_eq!(status(&v), "bundles", "{line}");
    let count = |v: &Value| match v.get_field("bundles") {
        Some(Value::Array(items)) => items.len(),
        other => panic!("bundles array missing: {other:?}"),
    };
    assert_eq!(count(&v), 1, "{line}");

    // The new facts arrive exactly as `kg_ingest` would deliver them: a
    // second DurableStore writer on the same WAL directory.
    let mut ds = DurableStore::open(&wal_dir, opts).unwrap();
    assert_eq!(append_novel(&mut ds, &world, 2), 2);
    drop(ds);

    // Poll until the pipeline's bundle is active — every poll ALSO runs a
    // generate request, so live traffic is in flight across the hot-swap;
    // each one must come back terminal (zero dropped requests).
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut in_flight = 0u32;
    let active_version = loop {
        assert!(
            Instant::now() < deadline,
            "pipeline never published (after {in_flight} interleaved requests)"
        );
        send(&format!(
            r#"{{"op":"generate","id":{},"prompt":[1,2,3],"max_new":4}}"#,
            1000 + in_flight
        ));
        let (v, line) = recv();
        assert_eq!(status(&v), "ok", "in-flight generate dropped: {line}");
        in_flight += 1;

        send(r#"{"op":"list_bundles"}"#);
        let (v, _) = recv();
        let active = match v.get_field("bundles") {
            Some(Value::Array(items)) => items
                .iter()
                .find(|b| {
                    b.get_field("active") == Some(&Value::Bool(true))
                        && b.get_field("version").and_then(Value::as_f64) != Some(0.0)
                })
                .cloned(),
            other => panic!("bundles array missing: {other:?}"),
        };
        if let Some(b) = active {
            break b.get_field("version").and_then(Value::as_f64).unwrap();
        }
        std::thread::sleep(Duration::from_millis(100));
    };
    assert_eq!(active_version, 1.0, "first published round is version 1");
    assert!(in_flight >= 1, "traffic overlapped the publish");

    // The published artifact carries gate probes phrased from the NEW
    // facts; ask the served process the first one over the wire. The base
    // model has never seen these triplets — only the just-promoted bundle
    // can answer, so `best` proves the update is live.
    let bundle = KnowledgeBundle::load(bundle_dir.join("live-r1.json")).unwrap();
    assert!(
        !bundle.gate_probes.is_empty(),
        "published bundle carries probes"
    );
    let stamp = bundle.stamp.expect("pipeline stamps bundles");
    assert_eq!(stamp.rr, 1.0, "round mastered its new facts");
    for (i, probe) in bundle.gate_probes.iter().enumerate() {
        let options: Vec<String> = probe.options.iter().map(|o| tokens_json(o)).collect();
        send(&format!(
            r#"{{"op":"mcq","id":{},"prompt":{},"options":[{}]}}"#,
            2000 + i,
            tokens_json(&probe.prompt),
            options.join(",")
        ));
        let (v, line) = recv();
        assert_eq!(status(&v), "ok", "{line}");
        assert_eq!(
            v.get_field("best").and_then(Value::as_f64),
            Some(probe.correct as f64),
            "new fact answered wrong over the wire: {line}"
        );
    }

    // The incremental report landed next to the bundle (operational
    // provenance for the round).
    assert!(
        bundle_dir.join("live-r1.report.json").exists(),
        "report persisted next to the bundle"
    );

    // The pipeline's `ingest.*` metrics are on the wire: the published
    // round counted, with its integrate (detect + train) latency.
    send(r#"{"op":"metrics"}"#);
    let (v, line) = recv();
    assert_eq!(status(&v), "metrics", "{line}");
    let ingest = v
        .get_field("metrics")
        .and_then(|m| m.get_field("ingest"))
        .unwrap_or_else(|| panic!("no ingest metrics: {line}"));
    let number = |v: Option<&Value>| v.and_then(Value::as_f64).unwrap_or(0.0);
    assert!(number(ingest.get_field("rounds")) >= 1.0, "{line}");
    assert!(
        number(ingest.get_field("bundles_published")) >= 1.0,
        "{line}"
    );
    let integrate = ingest.get_field("integrate_ms");
    assert!(
        number(integrate.and_then(|h| h.get_field("count"))) >= 1.0,
        "{line}"
    );
    assert!(
        number(integrate.and_then(|h| h.get_field("p50"))) > 0.0,
        "{line}"
    );

    send(r#"{"op":"shutdown"}"#);
    let (v, _) = recv();
    assert_eq!(status(&v), "shutting_down");
    drop(reader);

    let status = wait_with_timeout(&mut guard.0, Duration::from_secs(60))
        .expect("serve exits after shutdown");
    assert!(status.success(), "serve exited with {status}");
    let _ = std::fs::remove_dir_all(&dir);
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
