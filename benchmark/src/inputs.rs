//! Seeded input generation: the requests each workload sends, and the
//! open-loop arrival schedule. The same seed gives byte-identical inputs;
//! the server only ever sees the generated lines.

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::layers::WorldInfo;

/// What a request asks for.
#[derive(Debug, Clone, PartialEq)]
pub enum Body {
    Generate {
        prompt: Vec<usize>,
        max_new: usize,
    },
    Mcq {
        prompt: Vec<usize>,
        options: Vec<Vec<usize>>,
    },
}

/// One data-plane request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub id: u64,
    pub body: Body,
    /// Router tenant tag (`fleet_open_mixed` only).
    pub tenant: Option<&'static str>,
    /// Open loop: when the request is due, in ms from the start of the
    /// stream. Closed loops leave it 0 and send as the window allows.
    pub due_ms: f64,
}

fn tokens_json(ts: &[usize]) -> String {
    let inner: Vec<String> = ts.iter().map(usize::to_string).collect();
    format!("[{}]", inner.join(","))
}

impl Request {
    /// The JSONL wire form split around the id — `head`, then the id, then
    /// `tail` (which ends the line) — so a stream that wraps can re-send a
    /// request under a fresh id without re-rendering it.
    pub fn wire_parts(&self) -> (&'static str, String) {
        let tenant = self
            .tenant
            .map_or(String::new(), |t| format!(r#","tenant":"{t}""#));
        match &self.body {
            Body::Generate { prompt, max_new } => (
                r#"{"op":"generate","id":"#,
                format!(
                    r#","prompt":{},"max_new":{max_new}{tenant}}}"#,
                    tokens_json(prompt)
                ),
            ),
            Body::Mcq { prompt, options } => {
                let opts: Vec<String> = options.iter().map(|o| tokens_json(o)).collect();
                (
                    r#"{"op":"mcq","id":"#,
                    format!(
                        r#","prompt":{},"options":[{}]{tenant}}}"#,
                        tokens_json(prompt),
                        opts.join(",")
                    ),
                )
            }
        }
    }

    /// The whole wire line (no trailing newline).
    pub fn wire_line(&self) -> String {
        let (head, tail) = self.wire_parts();
        format!("{head}{}{tail}", self.id)
    }

    pub fn is_mcq(&self) -> bool {
        matches!(self.body, Body::Mcq { .. })
    }
}

/// `gen_decode`: unshared random prompts of 8–24 tokens and 24–40 new tokens
/// (32 on average). With one length for all, the scheduler's lanes fill and
/// drain in lock-step cohorts whose phase, not the server's speed, sets the
/// latency tail.
pub fn gen_decode(info: &WorldInfo, seed: u64, n: usize) -> Vec<Request> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x6e_dec0);
    (0..n as u64)
        .map(|id| {
            let len = rng.gen_range(8usize..=24);
            // Ids 0 and 1 are UNK and EOS; stay on ordinary words.
            let prompt = (0..len)
                .map(|_| rng.gen_range(2..info.vocab_size))
                .collect();
            Request {
                id,
                body: Body::Generate {
                    prompt,
                    max_new: rng.gen_range(24usize..=40),
                },
                tenant: None,
                due_ms: 0.0,
            }
        })
        .collect()
}

fn bank_mcq(info: &WorldInfo, idx: usize, id: u64) -> Request {
    let m = &info.mcqs[idx];
    Request {
        id,
        body: Body::Mcq {
            prompt: m.prompt.clone(),
            options: m.options.clone(),
        },
        tenant: None,
        due_ms: 0.0,
    }
}

/// `mcq_templates` and `kg_update_watch`: MCQs drawn uniformly from the
/// bank. What they share is their template's leading tokens.
pub fn bank_mcqs(info: &WorldInfo, seed: u64, n: usize) -> Vec<Request> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x3c_9001);
    (0..n as u64)
        .map(|id| bank_mcq(info, rng.gen_range(0..info.mcqs.len()), id))
        .collect()
}

/// Tenant mix of `fleet_open_mixed`: one heavy tenant and two light ones.
pub const TENANTS: [(&str, f64); 3] = [("heavy", 0.70), ("light-a", 0.15), ("light-b", 0.15)];

/// Seeded arrival times (ms) of a Poisson process at `rate_rps` over
/// `[0, horizon_s)`, conditioned on its count: exactly `rate × horizon`
/// arrivals at independent uniform times, sorted. The gaps are the Poisson
/// process's; the count does not vary from seed to seed.
pub fn poisson_schedule(seed: u64, rate_rps: f64, horizon_s: f64) -> Vec<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x9015_5011);
    let n = (rate_rps * horizon_s).round() as usize;
    let mut out: Vec<f64> = (0..n)
        .map(|_| rng.gen_range(0.0..horizon_s * 1e3))
        .collect();
    out.sort_by(f64::total_cmp);
    out
}

/// `fleet_open_mixed`: 60% bank MCQs, 40% short open-form generates, both
/// drawn uniformly, three tenants, Poisson arrivals over `horizon_s` seconds
/// of the benchmark's clock (the run sends those that fall due before it
/// ends).
pub fn fleet_open_mixed(
    info: &WorldInfo,
    seed: u64,
    rate_rps: f64,
    horizon_s: f64,
) -> Vec<Request> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xf1_ee70);
    poisson_schedule(seed, rate_rps, horizon_s)
        .into_iter()
        .enumerate()
        .map(|(i, due_ms)| {
            let id = i as u64;
            let mut req = if rng.gen_bool(0.6) {
                bank_mcq(info, rng.gen_range(0..info.mcqs.len()), id)
            } else {
                Request {
                    id,
                    body: Body::Generate {
                        prompt: info.open_prompts[rng.gen_range(0..info.open_prompts.len())]
                            .clone(),
                        max_new: 8,
                    },
                    tenant: None,
                    due_ms: 0.0,
                }
            };
            let u: f64 = rng.gen_range(0.0..1.0);
            req.tenant = Some(if u < TENANTS[0].1 {
                TENANTS[0].0
            } else if u < TENANTS[0].1 + TENANTS[1].1 {
                TENANTS[1].0
            } else {
                TENANTS[2].0
            });
            req.due_ms = due_ms;
            req
        })
        .collect()
}

/// A seeded sample of `k` distinct indices out of `n` (all of them when
/// `n <= k`), ascending — which responses the output check recomputes.
pub fn check_sample(seed: u64, n: usize, k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(&mut ChaCha8Rng::seed_from_u64(seed ^ 0xc4ec));
    idx.truncate(k);
    idx.sort_unstable();
    idx
}

/// Renders a delta feed for `kg_ingest append` (JSONL).
pub fn delta_feed(facts: &[crate::layers::Fact]) -> String {
    facts
        .iter()
        .map(|(s, r, o)| format!("{{\"op\":\"add\",\"s\":\"{s}\",\"r\":\"{r}\",\"o\":\"{o}\"}}\n"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::WireMcq;

    fn info() -> WorldInfo {
        WorldInfo {
            vocab_size: 50,
            mcqs: (0..40)
                .map(|i| WireMcq {
                    prompt: vec![2, 3, i + 4],
                    options: vec![vec![5], vec![6, 7]],
                })
                .collect(),
            open_prompts: (0..10).map(|i| vec![2, i + 3]).collect(),
            facts: Vec::new(),
            novel_facts: Vec::new(),
        }
    }

    #[test]
    fn equal_seeds_give_identical_inputs_and_schedules() {
        let w = info();
        assert_eq!(gen_decode(&w, 7, 50), gen_decode(&w, 7, 50));
        assert_eq!(bank_mcqs(&w, 7, 50), bank_mcqs(&w, 7, 50));
        assert_eq!(
            poisson_schedule(7, 80.0, 5.0),
            poisson_schedule(7, 80.0, 5.0)
        );
        let a = fleet_open_mixed(&w, 7, 80.0, 5.0);
        assert_eq!(a, fleet_open_mixed(&w, 7, 80.0, 5.0));
        let lines: Vec<String> = a.iter().map(Request::wire_line).collect();
        let again: Vec<String> = fleet_open_mixed(&w, 7, 80.0, 5.0)
            .iter()
            .map(Request::wire_line)
            .collect();
        assert_eq!(lines, again);
        assert_eq!(check_sample(7, 100, 8), check_sample(7, 100, 8));
    }

    #[test]
    fn different_seeds_give_different_inputs_and_schedules() {
        let w = info();
        assert_ne!(gen_decode(&w, 7, 50), gen_decode(&w, 8, 50));
        assert_ne!(bank_mcqs(&w, 7, 50), bank_mcqs(&w, 8, 50));
        assert_ne!(
            poisson_schedule(7, 80.0, 5.0),
            poisson_schedule(8, 80.0, 5.0)
        );
        assert_ne!(
            fleet_open_mixed(&w, 7, 80.0, 5.0),
            fleet_open_mixed(&w, 8, 80.0, 5.0)
        );
        assert_ne!(check_sample(7, 100, 8), check_sample(8, 100, 8));
    }

    #[test]
    fn poisson_schedule_has_the_asked_count_is_sorted_and_stays_in_range() {
        let s = poisson_schedule(3, 100.0, 60.0);
        assert_eq!(s.len(), 6000);
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
        assert!(s[0] >= 0.0 && s[5999] < 60_000.0);
        // Exponential-looking gaps: about 1/e of them exceed the mean gap.
        let long = s.windows(2).filter(|w| w[1] - w[0] > 10.0).count() as f64 / 5999.0;
        assert!((0.33..0.41).contains(&long), "share of long gaps {long}");
        let reqs = fleet_open_mixed(&info(), 9, 80.0, 14.0);
        assert_eq!(reqs.len(), 1120);
        assert!(reqs.windows(2).all(|w| w[0].due_ms <= w[1].due_ms));
    }

    #[test]
    fn fleet_mix_matches_the_declared_shares() {
        let reqs = fleet_open_mixed(&info(), 5, 200.0, 30.0);
        let n = reqs.len() as f64;
        let mcq = reqs.iter().filter(|r| r.is_mcq()).count() as f64 / n;
        assert!((0.55..0.65).contains(&mcq), "mcq share {mcq}");
        let heavy = reqs.iter().filter(|r| r.tenant == Some("heavy")).count() as f64 / n;
        assert!((0.65..0.75).contains(&heavy), "heavy share {heavy}");
    }

    #[test]
    fn wire_lines_are_the_documented_shape() {
        let r = Request {
            id: 3,
            body: Body::Mcq {
                prompt: vec![4, 5],
                options: vec![vec![6], vec![7, 8]],
            },
            tenant: Some("heavy"),
            due_ms: 0.0,
        };
        assert_eq!(
            r.wire_line(),
            r#"{"op":"mcq","id":3,"prompt":[4,5],"options":[[6],[7,8]],"tenant":"heavy"}"#
        );
        let g = Request {
            id: 1,
            body: Body::Generate {
                prompt: vec![9],
                max_new: 4,
            },
            tenant: None,
            due_ms: 0.0,
        };
        assert_eq!(
            g.wire_line(),
            r#"{"op":"generate","id":1,"prompt":[9],"max_new":4}"#
        );
    }
}
