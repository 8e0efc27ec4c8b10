//! Admission: sweeping dead requests out of the batch, admitting queue
//! heads under the KV-row budget, and opening each admitted request's lane.

use std::time::Instant;

use infuserki_nn::sampler::beam_search;
use infuserki_nn::PrefixMatch;

use crate::request::{Outcome, Request, RequestKind};
use crate::scheduler::{InFlight, Lane, Phase, Scheduler, VersionGroup};

impl<'a> Scheduler<'a> {
    /// Retires every lane whose request was cancelled or deadline-expired,
    /// responding accordingly.
    pub(crate) fn sweep_dead(&mut self, now: Instant) {
        if self.groups.is_empty() {
            return;
        }
        let mut any_dead = false;
        for slot in 0..self.slots.len() {
            let Some(inf) = &self.slots[slot] else {
                continue;
            };
            let outcome = if inf.req.cancel.is_cancelled() {
                Some(Outcome::Cancelled)
            } else if inf.req.expired_at(now) {
                Some(Outcome::Expired)
            } else {
                None
            };
            if let Some(outcome) = outcome {
                match outcome {
                    Outcome::Cancelled => self.metrics.cancelled.inc(),
                    _ => self.metrics.expired.inc(),
                }
                self.finish_slot(slot, outcome);
                any_dead = true;
            }
        }
        if !any_dead {
            return;
        }
        let mut groups = std::mem::take(&mut self.groups);
        for g in &mut groups {
            let keep: Vec<usize> = (0..g.lanes.len())
                .filter(|&i| self.slots[g.lanes[i].slot].is_some())
                .collect();
            if keep.len() == g.lanes.len() {
                continue;
            }
            if keep.is_empty() {
                // Dropping the group (below) drops its cache and releases
                // the blocks.
                g.lanes.clear();
                continue;
            }
            g.cache.retain_indices(&keep);
            g.lanes = keep.iter().map(|&i| g.lanes[i]).collect();
            g.cache.compact();
        }
        groups.retain(|g| !g.lanes.is_empty());
        self.groups = groups;
    }

    /// Admits queue heads while slots and budget allow. Returns how many
    /// requests were admitted or answered inline.
    pub(crate) fn admit(&mut self, now: Instant) -> usize {
        let mut admitted = 0;
        while let Some(head) = self.queue.peek() {
            // Dead queue entries are dropped regardless of capacity.
            if head.request.cancel.is_cancelled() {
                let e = self.queue.pop().unwrap();
                e.request.respond(Outcome::Cancelled);
                // Never touched the batch: counted apart from in-flight
                // cancellations so queue churn is visible on its own.
                self.metrics.cancelled_queued.inc();
                continue;
            }
            if head.request.expired_at(now) {
                let e = self.queue.pop().unwrap();
                e.request.respond(Outcome::Expired);
                self.metrics.expired_queued.inc();
                continue;
            }
            if self.free_slots.is_empty() {
                break;
            }
            // Strict queue order: a head that doesn't fit the remaining
            // budget blocks later (smaller) entries, so it cannot starve.
            // Cached-prefix blocks the head would share are discounted from
            // its reservation (it adopts them instead of allocating), and
            // cold cached prefixes are evicted before the head is made to
            // wait — so pinning rows in the index can never deadlock
            // admission.
            // Resolve the head's knowledge version *now*: its explicit pin,
            // or the currently active version. Versions are never unloaded,
            // so a pin validated at enqueue always resolves.
            let version = head
                .request
                .bundle
                .unwrap_or_else(|| self.registry.active_version());
            // Beam and zero-budget requests are answered inline and open no
            // lane, so they have no use for a cached prefix.
            let prompt = match &head.request.kind {
                RequestKind::Generate(g) if g.beam_width > 1 || g.max_new == 0 => None,
                kind => Some(kind.prompt()),
            };
            let cost = head.cost;
            let hit = loop {
                // Re-run the lookup after every eviction: the evicted leaf
                // may have been on the matched path, invalidating its
                // blocks (they are only pinned at adoption, below). The
                // lookup is namespaced by version: cached blocks are only
                // reusable under the exact hook that produced them.
                let hit = prompt.and_then(|p| self.index.lookup_in(version as u64, p));
                let discount = hit.as_ref().map_or(0, |m| m.tokens);
                if self.reserved_rows + self.index.indexed_rows() + cost - discount
                    <= self.limits.kv_budget_rows
                {
                    break Some((hit, discount));
                }
                if self.index.evict_lru(&mut self.pool.lock()).is_none() {
                    break None;
                }
                self.metrics.blocks_evicted.inc();
            };
            let Some((hit, discount)) = hit else {
                break;
            };
            let entry = self.queue.pop().unwrap();
            self.admit_one(entry.request, version, entry.cost - discount, hit);
            admitted += 1;
        }
        admitted
    }

    /// Admits one request on `version`: answers trivial and beam requests
    /// inline, otherwise opens its lane. `hit` is the cached prefix the
    /// admission check matched (already discounted from `cost`).
    fn admit_one(&mut self, req: Request, version: u32, cost: usize, hit: Option<PrefixMatch>) {
        self.metrics.admitted.inc();
        let entry = self
            .registry
            .get(version)
            .expect("admit resolved this version");
        entry.served.inc();
        let hook = entry.hook.clone();
        if let RequestKind::Generate(g) = &req.kind {
            let tokens = if g.max_new == 0 || g.prompt.len() >= self.limits.max_seq {
                // Single-path parity: no budget or no context room emits
                // nothing (`greedy_decode_batch_limits` filters these
                // before prefilling).
                Some(Vec::new())
            } else if g.beam_width > 1 {
                Some(beam_search(
                    self.model,
                    hook.as_ref(),
                    &g.prompt,
                    g.max_new,
                    g.beam_width,
                    g.eos,
                ))
            } else {
                None
            };
            if let Some(tokens) = tokens {
                self.metrics.record_ttft(req.submitted_at.elapsed());
                req.respond(Outcome::Generated { tokens });
                self.metrics.completed.inc();
                return;
            }
        }
        self.open_lane(req, version, cost, hit);
    }

    /// Reserves `cost` rows for `req` and opens its prompt lane in the
    /// version's group. A prefix-cache hit is adopted here, before any
    /// further eviction can free its blocks.
    fn open_lane(&mut self, req: Request, version: u32, cost: usize, hit: Option<PrefixMatch>) {
        let scores = match &req.kind {
            RequestKind::Mcq(m) => vec![0.0; m.options.len()],
            RequestKind::Generate(_) => Vec::new(),
        };
        let slot = self.free_slots.pop().expect("admit checked a slot is free");
        self.slots[slot] = Some(InFlight {
            req,
            cost,
            out: Vec::new(),
            scores,
            branches_left: 0,
        });
        self.reserved_rows += cost;
        // Find or create the version's group. Group creation is where a
        // request *pins* its hook: the group holds the version's
        // [`crate::HookArc`] until its last lane retires. `new_cache_in`
        // pre-opens exactly one empty sequence — this lane's.
        let g = match self.groups.iter().position(|g| g.version == version) {
            Some(i) => {
                let fresh = self
                    .model
                    .new_cache_in(self.groups[i].hook.as_ref(), self.pool.clone());
                self.groups[i].cache.absorb(fresh);
                &mut self.groups[i]
            }
            None => {
                let entry = self
                    .registry
                    .get(version)
                    .expect("admit resolved this version");
                self.groups.push(VersionGroup {
                    version,
                    hook: entry.hook.clone(),
                    cache: self
                        .model
                        .new_cache_in(entry.hook.as_ref(), self.pool.clone()),
                    lanes: Vec::new(),
                });
                self.groups.last_mut().unwrap()
            }
        };
        // Prefix-cache hit: adopt the matched blocks by reference (pinning
        // them against eviction) and start prefill past them. The adopted
        // rows are never re-fed; the skipped forward work is the win.
        let mut fed = 0;
        if let Some(m) = hit {
            let lane_idx = g.cache.n_seqs() - 1;
            fed = m.tokens;
            g.cache.adopt_prefix(lane_idx, &m.blocks, m.tokens);
            self.metrics.prefix_hits.inc();
            self.metrics.prefix_hit_tokens.add(m.tokens as u64);
        } else {
            self.metrics.prefix_misses.inc();
        }
        g.lanes.push(Lane {
            slot,
            fed,
            phase: Phase::Prompt,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::tests::{model, submit};
    use crate::{GenerateSpec, ServeConfig};
    use infuserki_nn::{sampler, NoHook};
    use infuserki_tensor::kernels;

    #[test]
    fn beam_requests_run_inline_and_match() {
        kernels::set_num_threads(1);
        let m = model();
        let mut sched = Scheduler::new(&m, NoHook, ServeConfig::default()).unwrap();
        let rx = submit(
            &mut sched,
            0,
            RequestKind::Generate(GenerateSpec {
                prompt: vec![3],
                max_new: 3,
                eos: None,
                beam_width: 3,
            }),
        );
        sched.run_until_idle();
        let got = match rx.try_recv().unwrap().outcome {
            Outcome::Generated { tokens } => tokens,
            other => panic!("unexpected outcome {other:?}"),
        };
        assert_eq!(got, sampler::beam_search(&m, &NoHook, &[3], 3, 3, None));
    }

    #[test]
    fn zero_budget_and_overlong_prompts_emit_nothing() {
        kernels::set_num_threads(1);
        let m = model();
        let max_seq = m.config().max_seq;
        let mut sched = Scheduler::new(&m, NoHook, ServeConfig::default()).unwrap();
        let rx0 = submit(
            &mut sched,
            0,
            RequestKind::Generate(GenerateSpec::greedy(vec![1, 2], 0, None)),
        );
        let rx1 = submit(
            &mut sched,
            1,
            RequestKind::Generate(GenerateSpec::greedy(vec![1; max_seq], 4, None)),
        );
        sched.run_until_idle();
        for rx in [rx0, rx1] {
            assert_eq!(
                rx.try_recv().unwrap().outcome,
                Outcome::Generated { tokens: Vec::new() }
            );
        }
    }

    #[test]
    fn budget_reservation_serializes_large_requests() {
        kernels::set_num_threads(1);
        let m = model();
        // Budget fits exactly one request at a time; both must still finish.
        // Small blocks keep each reservation (ceil(8/2)*2 = 8 rows) under
        // the 10-row budget while two together still exceed it.
        let cfg = ServeConfig {
            kv_budget_rows: 10,
            block_rows: 2,
            prefill_chunk: 4,
            ..ServeConfig::default()
        };
        let mut sched = Scheduler::new(&m, NoHook, cfg).unwrap();
        let rx0 = submit(
            &mut sched,
            0,
            RequestKind::Generate(GenerateSpec::greedy(vec![1, 2, 3], 5, None)),
        );
        let rx1 = submit(
            &mut sched,
            1,
            RequestKind::Generate(GenerateSpec::greedy(vec![4, 5, 6], 5, None)),
        );
        let report = sched.step();
        assert_eq!(report.admitted, 1, "second request must wait for rows");
        sched.run_until_idle();
        for (rx, p) in [(rx0, vec![1, 2, 3]), (rx1, vec![4, 5, 6])] {
            let got = match rx.try_recv().unwrap().outcome {
                Outcome::Generated { tokens } => tokens,
                other => panic!("unexpected outcome {other:?}"),
            };
            assert_eq!(got, sampler::greedy_decode(&m, &NoHook, &p, 5, None));
        }
    }
}
