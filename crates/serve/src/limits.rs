//! Admission limits: what a request may ask for and what it reserves.

use crate::request::{RejectReason, RequestKind};

/// Model-derived admission limits, computed once at scheduler construction
/// and shared with clients so they can reject impossible requests
/// synchronously.
#[derive(Debug, Clone)]
pub struct EngineLimits {
    /// Vocabulary size; every token id must be below it.
    pub vocab_size: usize,
    /// Model context length.
    pub max_seq: usize,
    /// Widest per-layer prefix-tuning K/V block the hook prepends to every
    /// cached sequence ([`infuserki_nn::TransformerLm::max_prefix_rows`]).
    pub prefix_rows: usize,
    /// Total KV-row budget ([`crate::ServeConfig::kv_budget_rows`]).
    pub kv_budget_rows: usize,
    /// Queue capacity ([`crate::ServeConfig::queue_capacity`]).
    pub queue_capacity: usize,
    /// Paged-KV block granularity ([`crate::ServeConfig::block_rows`]);
    /// every reservation is rounded up to whole blocks.
    pub block_rows: usize,
}

impl EngineLimits {
    /// `rows` rounded up to whole KV blocks.
    fn block_span(&self, rows: usize) -> usize {
        rows.div_ceil(self.block_rows) * self.block_rows
    }

    /// Worst-case KV rows `kind` can ever occupy at any single moment:
    /// prefix-tuning virtual rows plus whole-block token rows, per sequence
    /// it owns. Beam requests pay per beam.
    ///
    /// MCQ requests run in two phases that never coexist — the prompt lane
    /// prefills, retires, and only then do the option branches extend
    /// copy-on-write forks of its blocks — so the reservation is the *max*
    /// of the phases, with the prompt's full blocks charged once (branches
    /// share them by reference). Summing the phases instead (as a naive
    /// worst-case would) double-counts the prompt rows and the prefix-tuning
    /// virtual rows of the early-retired prompt lane.
    pub fn cost(&self, kind: &RequestKind) -> usize {
        match kind {
            RequestKind::Generate(g) => {
                let per_seq = self.prefix_rows
                    + self.block_span((g.prompt.len() + g.max_new).min(self.max_seq));
                per_seq * g.beam_width.max(1)
            }
            RequestKind::Mcq(m) => {
                let prompt_phase = self.prefix_rows + self.block_span(m.prompt.len());
                // Full prompt blocks every branch shares by reference.
                let shared = (m.prompt.len() / self.block_rows) * self.block_rows;
                let branch_phase: usize = shared
                    + m.options
                        .iter()
                        .filter(|o| o.len() > 1)
                        .map(|o| {
                            self.prefix_rows + self.block_span(m.prompt.len() + o.len() - 1)
                                - shared
                        })
                        .sum::<usize>();
                prompt_phase.max(branch_phase)
            }
        }
    }

    /// Validates `kind`, returning its KV-row cost on success.
    pub fn validate(&self, kind: &RequestKind) -> Result<usize, RejectReason> {
        let invalid = |msg: &str| Err(RejectReason::Invalid(msg.into()));
        let check_tokens = |toks: &[usize]| -> Result<(), RejectReason> {
            match toks.iter().find(|&&t| t >= self.vocab_size) {
                Some(&t) => Err(RejectReason::Invalid(format!(
                    "token {t} out of range for vocab {}",
                    self.vocab_size
                ))),
                None => Ok(()),
            }
        };
        match kind {
            RequestKind::Generate(g) => {
                if g.prompt.is_empty() {
                    return invalid("empty prompt");
                }
                if g.beam_width == 0 {
                    return invalid("beam_width must be at least 1");
                }
                check_tokens(&g.prompt)?;
            }
            RequestKind::Mcq(m) => {
                if m.prompt.is_empty() {
                    return invalid("empty prompt");
                }
                if m.options.is_empty() {
                    return invalid("MCQ request with no options");
                }
                if m.options.iter().any(|o| o.is_empty()) {
                    return invalid("empty option");
                }
                check_tokens(&m.prompt)?;
                for o in &m.options {
                    check_tokens(o)?;
                }
                let longest = m.options.iter().map(|o| o.len()).max().unwrap();
                if m.prompt.len() + longest - 1 > self.max_seq {
                    return invalid("prompt plus option exceeds the model context");
                }
            }
        }
        let cost = self.cost(kind);
        if cost > self.kv_budget_rows {
            return Err(RejectReason::BudgetExceeded {
                cost,
                budget: self.kv_budget_rows,
            });
        }
        Ok(cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{GenerateSpec, McqSpec};

    #[test]
    fn mcq_cost_counts_shared_prompt_blocks_once() {
        // Regression: the pre-paged accounting summed the prompt lane and
        // every branch's full prompt+option span, double-counting the
        // prompt rows and the prefix-tuning virtual rows of the prompt
        // lane, which retires before any branch extends. The block-based
        // model charges max(prompt phase, branch phase) with the shared
        // full prompt blocks paid once.
        let lim = EngineLimits {
            vocab_size: 100,
            max_seq: 64,
            prefix_rows: 2,
            kv_budget_rows: 1000,
            queue_capacity: 8,
            block_rows: 4,
        };
        let kind = RequestKind::Mcq(McqSpec {
            prompt: vec![1, 2, 3, 4, 5],
            options: vec![vec![6, 7, 8], vec![9, 10]],
        });
        // Prompt phase: 2 virtual + ceil(5/4)*4 = 10 rows.
        // Branch phase: 4 shared prompt rows + two branches at
        // 2 virtual + (ceil(7/4) - 1)*4 = 6 rows each = 16 rows.
        assert_eq!(lim.cost(&kind), 16);
        // The old sum-of-phases model would have charged
        // (2+5) + (2+7) + (2+6) = 24 rows — half again too much.

        // Generate reservations round the token span up to whole blocks.
        let g = RequestKind::Generate(GenerateSpec::greedy(vec![1, 2, 3], 5, None));
        assert_eq!(lim.cost(&g), 2 + 8);
    }
}
