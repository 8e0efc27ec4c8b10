//! The benchmark's declared names: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics. `BENCHMARK.json` at the
//! repository root carries the same tables; a self-test keeps them equal.

/// Which direction is better.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A declared metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

/// Workloads and why each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "gen_decode",
        "closed loop 2x16 of greedy generate, unshared prompts, 24-40 new tokens: decode-bound; prefix cache and router do nothing",
    ),
    (
        "mcq_templates",
        "closed loop 2x16 of MCQs drawn uniformly from the bank, 1500 prompts against a KV budget of about 80: prefill, option forking, eviction, few prefix hits; no decode",
    ),
    (
        "fleet_open_mixed",
        "open loop, Poisson 80 req/s of short mixed requests from 3 tenants through 2 replicas, a gated promote/rollback pair every second",
    ),
    (
        "kg_update_watch",
        "serve --watch-kg: WAL appends become live bundles (detect, 3-phase train, publish) back to back beside a closed loop 2x16 of bank MCQs",
    ),
];

/// Client-observed metrics. Every workload reports all of them; what the
/// request and the control operation are on each workload is in README.md.
/// Times are on the benchmark's clock (`clock.rs`). The bounds come from the
/// A/A report (README "A/A"): three times the widest spread seen, capped
/// at a quarter.
pub const END_TO_END: [Metric; 7] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("req_per_s", "1/s", Higher, 0.25),
    e2e("lat_p50_ms", "ms", Lower, 0.25),
    e2e("lat_p95_ms", "ms", Lower, 0.25),
    e2e("ctl_p50_ms", "ms", Lower, 0.25),
    e2e("cpu_ms_per_req", "ms", Lower, 0.25),
    e2e("server_rss_mb", "MB", Lower, 0.10),
];

/// Single-layer metrics, from the traced run. Source and the end-to-end
/// metric each should move are tabulated in README.md.
pub const PER_LAYER: [Metric; 71] = [
    // client: end-to-end views that apply to some workloads only
    layer("client.gen_tok_per_s", "1/s", Higher),
    layer("client.gen_lat_p50_ms", "ms", Lower),
    layer("client.gen_lat_p90_ms", "ms", Lower),
    layer("client.mcq_lat_p50_ms", "ms", Lower),
    layer("client.mcq_lat_p90_ms", "ms", Lower),
    layer("client.goodput_share", "share", Higher),
    layer("client.list_bundles_p50_ms", "ms", Lower),
    layer("client.promote_p50_ms", "ms", Lower),
    layer("client.update_round_s", "s", Lower),
    layer("client.wal_append_per_s", "1/s", Higher),
    layer("client.fail_share", "share", Lower),
    // tensor
    layer("tensor.matmul_decode_us", "us", Lower),
    layer("tensor.matmul_lmhead_us", "us", Lower),
    layer("tensor.matmul_prefill_us", "us", Lower),
    layer("tensor.matmul_256_gflops", "GFLOP/s", Higher),
    layer("tensor.simd_vs_scalar_ratio", "ratio", Higher),
    layer("tensor.qmatmul_vs_f32_ratio", "ratio", Higher),
    layer("tensor.train_step_ms", "ms", Lower),
    // nn
    layer("nn.prefill_us_per_tok", "us", Lower),
    layer("nn.decode_step_us_b1", "us", Lower),
    layer("nn.decode_step_us_b16", "us", Lower),
    layer("nn.hook_decode_overhead_frac", "share", Lower),
    layer("nn.hook_prefill_overhead_frac", "share", Lower),
    layer("nn.quant_decode_vs_f32_ratio", "ratio", Higher),
    layer("nn.greedy_tok_per_s", "1/s", Higher),
    layer("nn.score_options_us", "us", Lower),
    layer("nn.prefix_lookup_us", "us", Lower),
    layer("nn.lmhead_share_est", "share", Lower),
    // serve (scheduler)
    layer("serve.inproc_tok_per_s", "1/s", Higher),
    layer("serve.sched_efficiency", "ratio", Higher),
    layer("serve.ttft_p50_ms", "ms", Lower),
    layer("serve.ttft_p99_ms", "ms", Lower),
    layer("serve.tbt_p50_ms", "ms", Lower),
    layer("serve.tbt_p99_ms", "ms", Lower),
    layer("serve.avg_occupancy", "tok/step", Higher),
    layer("serve.idle_step_share", "share", Lower),
    layer("serve.steps_per_s", "1/s", Higher),
    layer("serve.decode_tok_per_s", "1/s", Higher),
    layer("serve.prefill_tok_per_s", "1/s", Higher),
    layer("serve.prefix_hit_rate", "share", Higher),
    layer("serve.prefix_hit_token_share", "share", Higher),
    layer("serve.blocks_evicted", "count", Lower),
    layer("serve.kv_rows_peak", "count", Lower),
    layer("serve.queue_depth_max", "count", Lower),
    layer("serve.rejected", "count", Lower),
    // wire (serve::server)
    layer("wire.overhead_p50_ms", "ms", Lower),
    layer("wire.closed_loop_efficiency", "ratio", Higher),
    // router
    layer("router.dispatch_overhead_us", "us", Lower),
    layer("router.affinity_share", "share", Higher),
    layer("router.balanced_share", "share", Lower),
    layer("router.replica_imbalance", "ratio", Lower),
    layer("router.tenant_queued_max", "count", Lower),
    layer("router.light_tenant_lat_p90_ms", "ms", Lower),
    layer("router.group_rollbacks", "count", Lower),
    // core
    layer("core.detect_mcq_per_s", "1/s", Higher),
    layer("core.train_samples_per_s", "1/s", Higher),
    layer("core.bundle_save_ms", "ms", Lower),
    layer("core.bundle_load_ms", "ms", Lower),
    // ingest
    layer("ingest.append_us", "us", Lower),
    layer("ingest.recover_ms", "ms", Lower),
    layer("ingest.round_ms", "ms", Lower),
    // obs, text
    layer("obs.span_disabled_ns", "ns", Lower),
    layer("obs.span_enabled_ns", "ns", Lower),
    layer("obs.counter_inc_ns", "ns", Lower),
    layer("text.encode_us_per_prompt", "us", Lower),
    // the harness itself
    layer("loadgen.late_p95_ms", "ms", Lower),
    layer("loadgen.cpu_share", "share", Lower),
    layer("trace.overhead_frac", "share", Lower),
    layer("host.speed", "ratio", Higher),
    layer("host.speed_spread", "share", Lower),
    layer("host.wall_req_per_s", "1/s", Higher),
];

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;
    use std::collections::BTreeSet;

    fn name_ok(s: &str) -> bool {
        let first = s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for n in names {
            assert!(name_ok(n), "bad name {n}");
            assert!(seen.insert(n), "duplicate name {n}");
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {} on {}",
                m.unit,
                m.name
            );
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower));
    }

    /// `BENCHMARK.json` must declare exactly what this file does.
    #[test]
    fn benchmark_json_declares_the_same_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let Value::Object(fields) = &v else {
            panic!("BENCHMARK.json is not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let arr = |k: &str| match v.get_field(k) {
            Some(Value::Array(a)) => a.clone(),
            other => panic!("{k}: {other:?}"),
        };
        let s = |o: &Value, k: &str| o.get_field(k).and_then(Value::as_str).unwrap().to_string();
        assert_eq!(
            v.get_field("run_seconds").and_then(Value::as_f64),
            Some(RUN_SECONDS as f64)
        );
        let declared: Vec<(String, String)> = arr("workloads")
            .iter()
            .map(|w| (s(w, "name"), s(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(declared, ours);
        let rows = |k: &str| -> Vec<(String, String, String, Option<f64>)> {
            arr(k)
                .iter()
                .map(|m| {
                    (
                        s(m, "name"),
                        s(m, "unit"),
                        s(m, "better"),
                        m.get_field("bound").and_then(Value::as_f64),
                    )
                })
                .collect()
        };
        let table = |ms: &[Metric]| -> Vec<(String, String, String, Option<f64>)> {
            ms.iter()
                .map(|m| {
                    (
                        m.name.into(),
                        m.unit.into(),
                        m.better.as_str().into(),
                        m.bound,
                    )
                })
                .collect()
        };
        assert_eq!(rows("end_to_end"), table(&END_TO_END));
        assert_eq!(rows("per_layer"), table(&PER_LAYER));
    }
}
