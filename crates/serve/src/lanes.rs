//! The lane machine: each step's chunk plan, one batched forward per
//! version group, and the per-lane bookkeeping that advances, retires and
//! spawns lanes.
//!
//! Every lane feeds one script in chunks ([`Phase`]): the request's
//! prompt, a generate request's last output token, or an MCQ option's
//! score script. When a lane's script is fed it moves on by what it was
//! feeding: a prompt becomes a generate request's first greedy step or an
//! MCQ request's first-token scores and option branches, a decode token
//! becomes the next greedy step, and a finished branch brings its request
//! one branch closer to its answer.

use std::time::Instant;

use infuserki_nn::sampler::{argmax, option_probabilities};
use infuserki_obs as obs;
use infuserki_tensor::{kernels, Matrix, SeqBatch};

use crate::request::{GenerateSpec, McqSpec, Outcome, Request, RequestKind};
use crate::scheduler::{InFlight, Lane, Phase, Scheduler, VersionGroup};

/// Result of one greedy-loop iteration.
enum Advance {
    /// The request is done; `emitted` tokens were pushed this iteration.
    Finished { emitted: usize },
    /// The lane keeps decoding.
    Continue,
}

/// The whole script `lane` feeds, `lane.fed` tokens of which are in its
/// cache.
fn script<'r>(inf: &'r InFlight, lane: &Lane) -> &'r [usize] {
    match lane.phase {
        Phase::Prompt => inf.req.kind.prompt(),
        Phase::Decode => &inf.out[inf.out.len() - 1..],
        Phase::Option(i) => {
            let o = &mcq_spec(&inf.req).options[i];
            &o[..o.len() - 1]
        }
    }
}

impl<'a> Scheduler<'a> {
    /// The tokens lane `lane` feeds this step (always non-empty): up to
    /// `prefill_chunk` tokens of its script. A prompt chunk is cut back to
    /// the last block boundary it crosses, so every full block it fills is
    /// indexed right after it. Chunking is bitwise-invariant, so the cut
    /// changes no output — it only splits the prefill across one more step.
    fn lane_chunk(&self, lane: &Lane) -> &[usize] {
        let inf = self.slots[lane.slot]
            .as_ref()
            .expect("lane has a live slot");
        let s = script(inf, lane);
        let fed = lane.fed;
        let mut end = s.len().min(fed + self.cfg.prefill_chunk);
        if lane.phase == Phase::Prompt {
            let cut = end - end % self.cfg.block_rows;
            if cut > fed {
                end = cut;
            }
        }
        &s[fed..end]
    }

    /// One batched forward per live version group, then per-lane
    /// bookkeeping. Returns the number of requests finished.
    pub(crate) fn advance_lanes(&mut self) -> usize {
        let _sp = obs::enabled().then(|| obs::span("serve.advance_lanes"));
        let t0 = Instant::now();
        let mut groups = std::mem::take(&mut self.groups);
        let mut finished = 0usize;
        let mut lanes_before = 0usize;
        let mut prefill_toks = 0u64;
        let mut decode_toks = 0u64;
        for g in &mut groups {
            lanes_before += g.lanes.len();
            let (f, p, d) = self.advance_group(g);
            finished += f;
            prefill_toks += p;
            decode_toks += d;
        }
        groups.retain(|g| !g.lanes.is_empty());
        self.groups = groups;

        let m = &self.metrics;
        let elapsed = t0.elapsed();
        m.steps.inc();
        m.occupancy_lane_steps.add(lanes_before as u64);
        m.prefill_tokens.add(prefill_toks);
        m.decode_tokens.add(decode_toks);
        m.busy_ns.add(elapsed.as_nanos() as u64);
        m.step_ms.record_duration(elapsed);
        // Each decode lane emits exactly one token per step it advances,
        // so the step's wall time is one time-between-tokens observation.
        if decode_toks > 0 {
            m.tbt_ms.record_duration(elapsed);
        }
        m.completed.add(finished as u64);
        finished
    }

    /// Advances one version group: one batched forward over its lanes under
    /// its pinned hook, then the per-lane bookkeeping. Returns
    /// `(finished, prefill_tokens, decode_tokens)`. A group whose last lane
    /// retires is left empty for the caller to drop (releasing its cache).
    fn advance_group(&mut self, g: &mut VersionGroup) -> (usize, u64, u64) {
        let chunks: Vec<&[usize]> = g.lanes.iter().map(|l| self.lane_chunk(l)).collect();
        let lens: Vec<usize> = chunks.iter().map(|c| c.len()).collect();
        let cache = &mut g.cache;
        let logits = self
            .model
            .extend_cached_batch(&chunks, g.hook.as_ref(), cache);
        let batch = SeqBatch::from_lens(&lens);

        // Index every prompt that just reached a block boundary: its full
        // blocks (with the gate sums they hold) become adoptable by later
        // requests with the same prefix — in this version's namespace only.
        // This runs before retirement, so even a prompt finishing this step
        // leaves its prefix behind.
        {
            let b = self.cfg.block_rows;
            let handle = self.pool.clone();
            let mut pool = handle.lock();
            for (i, lane) in g.lanes.iter().enumerate() {
                let t = lane.fed + lens[i];
                if lane.phase != Phase::Prompt || !t.is_multiple_of(b) {
                    continue;
                }
                let inf = self.slots[lane.slot]
                    .as_ref()
                    .expect("lane has a live slot");
                self.index.insert_in(
                    &mut pool,
                    g.version as u64,
                    &inf.req.kind.prompt()[..t],
                    &cache.seq_table(i)[..t / b],
                );
            }
        }

        let lanes = std::mem::take(&mut g.lanes);
        let n_before = lanes.len();
        let mut new_lanes: Vec<Lane> = Vec::with_capacity(n_before);
        let mut keep: Vec<usize> = Vec::with_capacity(n_before);
        // (source lane, slot, option) for every branch spawned this step.
        let mut spawns: Vec<(usize, usize, usize)> = Vec::new();
        let mut finished = 0usize;
        let mut prefill_toks = 0u64;
        let mut decode_toks = 0u64;

        for (i, lane) in lanes.iter().enumerate() {
            let chunk_len = lens[i];
            let fed = lane.fed + chunk_len;
            let inf = self.slots[lane.slot]
                .as_mut()
                .expect("lane has a live slot");
            if let Phase::Option(opt) = lane.phase {
                let r = batch.range(i);
                let lp = kernels::log_softmax_rows(&logits.slice_rows(r.start, r.end));
                let option = &mcq_spec(&inf.req).options[opt];
                // Row j of this chunk predicts option[lane.fed + j + 1];
                // accumulate in ascending position order so the f32 sum
                // replays `score_options` bit for bit.
                for j in 0..chunk_len {
                    inf.scores[opt] += lp.get(j, option[lane.fed + j + 1]);
                }
            }
            if lane.phase != Phase::Decode {
                prefill_toks += chunk_len as u64;
            }
            if fed < script(inf, lane).len() {
                keep.push(i);
                new_lanes.push(Lane { fed, ..*lane });
                continue;
            }
            if lane.phase == Phase::Prompt {
                self.metrics.record_ttft(inf.req.submitted_at.elapsed());
            }
            let last = logits.row(batch.last_row(i));
            match (lane.phase, &inf.req.kind) {
                (Phase::Option(_), _) => {
                    inf.branches_left -= 1;
                    if inf.branches_left == 0 {
                        self.finish_mcq(lane.slot);
                        finished += 1;
                    }
                    continue;
                }
                (Phase::Prompt, RequestKind::Mcq(spec)) => {
                    // Prompt prefilled: the last row scores every option's
                    // first token (log-softmax is row-local, so normalizing
                    // the extracted row matches `score_options` exactly).
                    let last_lp = kernels::log_softmax_rows(&Matrix::row_vec(last.to_vec()));
                    for (oi, opt) in spec.options.iter().enumerate() {
                        inf.scores[oi] = last_lp.get(0, opt[0]);
                    }
                    let multis: Vec<usize> = (0..spec.options.len())
                        .filter(|&oi| spec.options[oi].len() > 1)
                        .collect();
                    inf.branches_left = multis.len();
                    if multis.is_empty() {
                        self.finish_mcq(lane.slot);
                        finished += 1;
                    }
                    // The prompt lane retires; its branches are gathered
                    // from the cache (below) before it is dropped.
                    spawns.extend(multis.into_iter().map(|oi| (i, lane.slot, oi)));
                    continue;
                }
                // A generate prompt's last row predicts the first candidate,
                // exactly as the single path's prefill; a decode row the
                // next one.
                _ => {}
            }
            match self.greedy_advance(lane.slot, argmax(last)) {
                Advance::Finished { emitted } => {
                    decode_toks += emitted as u64;
                    self.finish_gen(lane.slot);
                    finished += 1;
                }
                Advance::Continue => {
                    decode_toks += 1;
                    keep.push(i);
                    new_lanes.push(Lane {
                        slot: lane.slot,
                        fed: 0,
                        phase: Phase::Decode,
                    });
                }
            }
        }

        // Cache surgery: gather branch sources before retiring anything, so
        // the branches copy the freshly prefilled prompt rows.
        let branch_cache = if spawns.is_empty() {
            None
        } else {
            let srcs: Vec<usize> = spawns.iter().map(|&(src, _, _)| src).collect();
            Some(cache.gather(&srcs))
        };
        if keep.is_empty() {
            // Every surviving sequence (if any) is a fresh branch; otherwise
            // the group is now empty and the caller drops it, cache and all.
            if let Some(b) = branch_cache {
                *cache = b;
            }
        } else {
            if keep.len() < n_before {
                cache.retain_indices(&keep);
            }
            if let Some(b) = branch_cache {
                cache.absorb(b);
            }
        }
        for &(_, slot, oi) in &spawns {
            new_lanes.push(Lane {
                slot,
                fed: 0,
                phase: Phase::Option(oi),
            });
        }
        let retired_any = keep.len() < n_before;
        if retired_any && !new_lanes.is_empty() {
            cache.compact();
        }
        g.lanes = new_lanes;
        debug_assert!(
            g.lanes.is_empty() || g.lanes.len() == g.cache.n_seqs(),
            "lane list must mirror cache sequences"
        );
        (finished, prefill_toks, decode_toks)
    }

    /// Replays one iteration of the single-path greedy loop for `tok`, the
    /// candidate just produced: stop on eos (without emitting), else emit,
    /// then stop when the budget or the context fills.
    fn greedy_advance(&mut self, slot: usize, tok: usize) -> Advance {
        let max_seq = self.limits.max_seq;
        let inf = self.slots[slot].as_mut().expect("advancing a live slot");
        let (eos, max_new, plen) = {
            let g = gen_spec(&inf.req);
            (g.eos, g.max_new, g.prompt.len())
        };
        if Some(tok) == eos {
            return Advance::Finished { emitted: 0 };
        }
        inf.out.push(tok);
        if inf.out.len() == max_new || plen + inf.out.len() >= max_seq {
            return Advance::Finished { emitted: 1 };
        }
        Advance::Continue
    }

    fn finish_gen(&mut self, slot: usize) {
        let tokens = self.slots[slot]
            .as_mut()
            .map(|inf| std::mem::take(&mut inf.out))
            .expect("finishing a live slot");
        self.finish_slot(slot, Outcome::Generated { tokens });
    }

    fn finish_mcq(&mut self, slot: usize) {
        let outcome = {
            let inf = self.slots[slot].as_ref().expect("finishing a live slot");
            let spec = mcq_spec(&inf.req);
            let lens: Vec<usize> = spec.options.iter().map(Vec::len).collect();
            let probabilities = option_probabilities(&inf.scores, &lens);
            let best = argmax(&probabilities);
            Outcome::McqScored {
                scores: inf.scores.clone(),
                probabilities,
                best,
            }
        };
        self.finish_slot(slot, outcome);
    }
}

fn gen_spec(req: &Request) -> &GenerateSpec {
    match &req.kind {
        RequestKind::Generate(g) => g,
        RequestKind::Mcq(_) => unreachable!("generate lane on an MCQ request"),
    }
}

fn mcq_spec(req: &Request) -> &McqSpec {
    match &req.kind {
        RequestKind::Mcq(m) => m,
        RequestKind::Generate(_) => unreachable!("MCQ lane on a generate request"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::tests::{model, submit};
    use crate::ServeConfig;
    use infuserki_nn::{sampler, NoHook};

    #[test]
    fn generate_matches_single_path_sampler() {
        kernels::set_num_threads(1);
        let m = model();
        let cfg = ServeConfig {
            prefill_chunk: 2,
            kv_budget_rows: 256,
            ..ServeConfig::default()
        };
        let mut sched = Scheduler::new(&m, NoHook, cfg).unwrap();
        let prompts: Vec<Vec<usize>> = vec![vec![1, 2, 3], vec![4], vec![5, 6, 7, 8, 9]];
        let rxs: Vec<_> = prompts
            .iter()
            .enumerate()
            .map(|(i, p)| {
                submit(
                    &mut sched,
                    i as u64,
                    RequestKind::Generate(GenerateSpec::greedy(p.clone(), 6, Some(3))),
                )
            })
            .collect();
        sched.run_until_idle();
        for (p, rx) in prompts.iter().zip(&rxs) {
            let got = match rx.try_recv().unwrap().outcome {
                Outcome::Generated { tokens } => tokens,
                other => panic!("unexpected outcome {other:?}"),
            };
            let want = sampler::greedy_decode(&m, &NoHook, p, 6, Some(3));
            assert_eq!(got, want);
        }
    }

    #[test]
    fn mcq_matches_single_path_scores_bitwise() {
        kernels::set_num_threads(1);
        let m = model();
        let cfg = ServeConfig {
            prefill_chunk: 3,
            kv_budget_rows: 512,
            ..ServeConfig::default()
        };
        let mut sched = Scheduler::new(&m, NoHook, cfg).unwrap();
        let prompt = vec![1, 2, 3, 4, 5];
        let options = vec![vec![6], vec![7, 8], vec![9, 10, 11, 12]];
        let rx = submit(
            &mut sched,
            0,
            RequestKind::Mcq(McqSpec {
                prompt: prompt.clone(),
                options: options.clone(),
            }),
        );
        sched.run_until_idle();
        let (scores, probabilities, best) = match rx.try_recv().unwrap().outcome {
            Outcome::McqScored {
                scores,
                probabilities,
                best,
            } => (scores, probabilities, best),
            other => panic!("unexpected outcome {other:?}"),
        };
        let want = sampler::score_options(&m, &NoHook, &prompt, &options);
        let want_bits: Vec<u32> = want.iter().map(|s| s.to_bits()).collect();
        let got_bits: Vec<u32> = scores.iter().map(|s| s.to_bits()).collect();
        assert_eq!(got_bits, want_bits, "scores must be bitwise identical");
        let lens: Vec<usize> = options.iter().map(Vec::len).collect();
        let want_p = option_probabilities(&want, &lens);
        assert_eq!(probabilities, want_p);
        assert_eq!(best, argmax(&want_p));
    }
}
