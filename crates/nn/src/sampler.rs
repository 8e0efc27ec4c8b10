//! Decoding and option scoring.
//!
//! The paper evaluates knowledge with multiple-choice questions: the LLM
//! generates an answer and a regex extracts the chosen option letter. For the
//! reproduction we implement both (a) greedy generation with letter
//! extraction (matching the paper's protocol) and (b) direct option
//! log-likelihood scoring (used by the Fig. 7 case-study probability tables).
//!
//! Both run batch-first: [`greedy_decode_batch`] advances N prompts per
//! decode step and [`score_options_batch`] scores every option of every
//! question of a set in one ragged batch. The single-sequence entry points
//! are batch-of-1 wrappers, and at one kernel thread the batched paths are
//! bitwise-equal to looping them (see `tests/batch_equivalence.rs`).

use infuserki_tensor::{kernels, Matrix, SeqBatch};

use crate::hooks::LayerHook;
use crate::kv_cache::KvCache;
use crate::model::TransformerLm;

/// Greedy-decodes up to `max_new` tokens after `prompt`, stopping early at
/// `eos` (if given). Returns only the newly generated tokens.
///
/// Runs on the KV-cached incremental engine: the prompt is prefilled once and
/// each new token costs a single-row decode step. Produces exactly the tokens
/// a full tape forward per generated token would (the differential suites'
/// reference).
pub fn greedy_decode(
    model: &TransformerLm,
    hook: &dyn LayerHook,
    prompt: &[usize],
    max_new: usize,
    eos: Option<usize>,
) -> Vec<usize> {
    greedy_decode_batch(model, hook, &[prompt], max_new, eos)
        .pop()
        .unwrap()
}

/// Greedy-decodes every prompt of a batch concurrently with a shared
/// per-prompt token budget. See [`greedy_decode_batch_limits`].
pub fn greedy_decode_batch<S: AsRef<[usize]>>(
    model: &TransformerLm,
    hook: &dyn LayerHook,
    prompts: &[S],
    max_new: usize,
    eos: Option<usize>,
) -> Vec<Vec<usize>> {
    let limits = vec![max_new; prompts.len()];
    greedy_decode_batch_limits(model, hook, prompts, &limits, eos)
}

/// Batched greedy decoding: prefills all prompts as one ragged batch, then
/// advances every still-live sequence by one token per decode step, retiring
/// sequences as they hit `eos`, their own `max_new[i]` budget, or the model's
/// context limit. Returns one completion per prompt, each exactly the tokens
/// [`greedy_decode`] produces for that prompt alone (bitwise logits equality
/// at one kernel thread).
pub fn greedy_decode_batch_limits<S: AsRef<[usize]>>(
    model: &TransformerLm,
    hook: &dyn LayerHook,
    prompts: &[S],
    max_new: &[usize],
    eos: Option<usize>,
) -> Vec<Vec<usize>> {
    assert_eq!(
        prompts.len(),
        max_new.len(),
        "greedy_decode_batch: limit/prompt mismatch"
    );
    let max_seq = model.config().max_seq;
    let mut outs: Vec<Vec<usize>> = prompts.iter().map(|_| Vec::new()).collect();
    // `live` maps cache sequence slots to prompt indices; prompts with no
    // budget or no room in the context emit nothing, as the single path does.
    let mut live: Vec<usize> = (0..prompts.len())
        .filter(|&i| max_new[i] > 0 && prompts[i].as_ref().len() < max_seq)
        .collect();
    if live.is_empty() {
        return outs;
    }
    let live_prompts: Vec<&[usize]> = live.iter().map(|&i| prompts[i].as_ref()).collect();
    let (mut cache, logits) = model.prefill_batch(&live_prompts, hook);
    // Reserve the whole decode budget once so per-token K/V appends never
    // reallocate.
    let budget = live
        .iter()
        .map(|&i| max_new[i].min(max_seq - prompts[i].as_ref().len()))
        .max()
        .unwrap();
    cache.reserve_rows(budget);
    let lens: Vec<usize> = live_prompts.iter().map(|p| p.len()).collect();
    let batch = SeqBatch::from_lens(&lens);
    let mut next: Vec<usize> = (0..live.len())
        .map(|s| argmax(logits.row(batch.last_row(s))))
        .collect();
    loop {
        let mut keep_pos: Vec<usize> = Vec::with_capacity(live.len());
        let mut step: Vec<usize> = Vec::with_capacity(live.len());
        for (pos, &i) in live.iter().enumerate() {
            let tok = next[pos];
            if Some(tok) == eos {
                continue;
            }
            outs[i].push(tok);
            let n_tokens = prompts[i].as_ref().len() + outs[i].len();
            if outs[i].len() == max_new[i] || n_tokens >= max_seq {
                continue;
            }
            keep_pos.push(pos);
            step.push(tok);
        }
        if keep_pos.is_empty() {
            break;
        }
        if keep_pos.len() < live.len() {
            cache.retain_indices(&keep_pos);
            let survivors: Vec<usize> = keep_pos.iter().map(|&p| live[p]).collect();
            live = survivors;
        }
        let logits = model.decode_step_batch(&step, hook, &mut cache);
        next = (0..live.len()).map(|s| argmax(logits.row(s))).collect();
    }
    outs
}

/// Sums each candidate completion's log-likelihood after `prompt`.
///
/// Shared-prefix scoring: the prompt is prefilled into a KV cache once, and
/// every option is scored from its own fork of that cache — so an MCQ with
/// four options pays for one prompt forward instead of four. Matches one
/// full tape forward per option row for row (bitwise at one kernel thread).
pub fn score_options(
    model: &TransformerLm,
    hook: &dyn LayerHook,
    prompt: &[usize],
    options: &[Vec<usize>],
) -> Vec<f32> {
    score_options_batch(model, hook, &[prompt], &[options])
        .pop()
        .unwrap()
}

/// Batched option scoring: `options[q]` are the candidate completions for
/// `prompts[q]`. All prompts prefill as one ragged batch, and every
/// multi-token option across every question extends a branch of its prompt's
/// cache in one further ragged batch — an MCQ template of N questions pays
/// two batched forwards instead of N prefill + 4N extension calls. Returns
/// one score vector per question, each matching [`score_options`] on that
/// question alone (bitwise at one kernel thread). Panics if a question's
/// prompt is empty: no prompt row would predict its options' first tokens.
pub fn score_options_batch<S: AsRef<[usize]>>(
    model: &TransformerLm,
    hook: &dyn LayerHook,
    prompts: &[S],
    options: &[&[Vec<usize>]],
) -> Vec<Vec<f32>> {
    assert_eq!(
        prompts.len(),
        options.len(),
        "score_options_batch: prompt/option mismatch"
    );
    for (q, p) in prompts.iter().enumerate() {
        assert!(
            !p.as_ref().is_empty(),
            "score_options_batch: question {q} has an empty prompt"
        );
    }
    if prompts.is_empty() {
        return Vec::new();
    }
    let (cache, logits) = model.prefill_batch(prompts, hook);
    let lens: Vec<usize> = prompts.iter().map(|p| p.as_ref().len()).collect();
    let pbatch = SeqBatch::from_lens(&lens);
    // Each prompt's last row predicts its options' first tokens; log-softmax
    // is row-local, so normalizing the extracted row matches the full path.
    // Multi-token options also branch their prompt's cache (`gather`
    // duplicates the prefilled sequence once per option) and all branches
    // extend together as one ragged batch.
    let mut scores: Vec<Vec<f32>> = Vec::with_capacity(prompts.len());
    let mut src: Vec<usize> = Vec::new();
    let mut which: Vec<(usize, usize)> = Vec::new();
    let mut chunks: Vec<&[usize]> = Vec::new();
    for (q, opts) in options.iter().enumerate() {
        let last_lp =
            kernels::log_softmax_rows(&Matrix::row_vec(logits.row(pbatch.last_row(q)).to_vec()));
        let mut first = Vec::with_capacity(opts.len());
        for (oi, opt) in opts.iter().enumerate() {
            assert!(!opt.is_empty(), "completion_logprob: empty completion");
            first.push(last_lp.get(0, opt[0]));
            if opt.len() > 1 {
                src.push(q);
                which.push((q, oi));
                chunks.push(&opt[..opt.len() - 1]);
            }
        }
        scores.push(first);
    }
    if !chunks.is_empty() {
        let mut branches = cache.gather(&src);
        let blogits = model.extend_cached_batch(&chunks, hook, &mut branches);
        let blens: Vec<usize> = chunks.iter().map(|c| c.len()).collect();
        let bbatch = SeqBatch::from_lens(&blens);
        for (j, &(q, oi)) in which.iter().enumerate() {
            let r = bbatch.range(j);
            let lp = kernels::log_softmax_rows(&blogits.slice_rows(r.start, r.end));
            let opt = &options[q][oi];
            for (i, &tok) in opt[1..].iter().enumerate() {
                scores[q][oi] += lp.get(i, tok);
            }
        }
    }
    scores
}

/// Normalizes per-option log-likelihoods into a probability distribution
/// (length-normalized to avoid favoring short options).
pub fn option_probabilities(scores: &[f32], lengths: &[usize]) -> Vec<f32> {
    assert_eq!(scores.len(), lengths.len());
    let normed: Vec<f32> = scores
        .iter()
        .zip(lengths)
        .map(|(&s, &l)| s / l.max(1) as f32)
        .collect();
    let m = kernels::softmax_rows(&infuserki_tensor::Matrix::row_vec(normed));
    m.into_vec()
}

/// Beam-search decoding: keeps the `beam_width` highest-log-probability
/// continuations at each step. Returns the best completed sequence (new
/// tokens only). Falls back to the best live beam if nothing hits `eos`.
///
/// Each live beam carries its own fork of the prompt's KV cache, so a step
/// costs one single-row decode per expansion instead of a full-sequence
/// forward per beam. Candidate ordering, pruning and final selection are the
/// same as a full tape forward per beam would give, so the chosen sequence
/// is identical.
pub fn beam_search(
    model: &TransformerLm,
    hook: &dyn LayerHook,
    prompt: &[usize],
    max_new: usize,
    beam_width: usize,
    eos: Option<usize>,
) -> Vec<usize> {
    assert!(beam_width >= 1, "beam width must be at least 1");
    struct Beam {
        tokens: Vec<usize>,
        score: f32,
        done: bool,
        /// Cache over `prompt ++ tokens` plus the log-probs of the next
        /// token; `None` once the beam is done or the context is full.
        branch: Option<(KvCache, Vec<f32>)>,
    }
    let frozen = |b: &Beam| Beam {
        tokens: b.tokens.clone(),
        score: b.score,
        done: true,
        branch: None,
    };
    let max_seq = model.config().max_seq;
    let root_branch = (prompt.len() < max_seq).then(|| {
        let (cache, logits) = model.prefill(prompt, hook);
        let lp =
            kernels::log_softmax_rows(&Matrix::row_vec(logits.row(logits.rows() - 1).to_vec()));
        (cache, lp.into_vec())
    });
    let mut beams = vec![Beam {
        tokens: Vec::new(),
        score: 0.0,
        done: false,
        branch: root_branch,
    }];
    for _ in 0..max_new {
        if beams.iter().all(|b| b.done) {
            break;
        }
        let mut candidates: Vec<Beam> = Vec::new();
        for beam in &beams {
            if beam.done {
                candidates.push(frozen(beam));
                continue;
            }
            let Some((cache, last)) = &beam.branch else {
                // Context full: freeze the beam, as the uncached path does.
                candidates.push(frozen(beam));
                continue;
            };
            // Top beam_width expansions of this beam.
            let mut idx: Vec<usize> = (0..last.len()).collect();
            idx.sort_by(|&a, &b| last[b].total_cmp(&last[a]));
            for &tok in idx.iter().take(beam_width) {
                let score = beam.score + last[tok];
                if Some(tok) == eos {
                    candidates.push(Beam {
                        tokens: beam.tokens.clone(),
                        score,
                        done: true,
                        branch: None,
                    });
                    continue;
                }
                let mut tokens = beam.tokens.clone();
                tokens.push(tok);
                let branch = (prompt.len() + tokens.len() < max_seq).then(|| {
                    let mut fork = cache.fork();
                    let logits = model.decode_step(tok, hook, &mut fork);
                    let lp = kernels::log_softmax_rows(&logits);
                    (fork, lp.into_vec())
                });
                candidates.push(Beam {
                    tokens,
                    score,
                    done: false,
                    branch,
                });
            }
        }
        // Length-normalized pruning so longer beams are not starved.
        candidates.sort_by(|a, b| {
            let an = a.score / (a.tokens.len().max(1) as f32);
            let bn = b.score / (b.tokens.len().max(1) as f32);
            bn.total_cmp(&an)
        });
        candidates.truncate(beam_width);
        beams = candidates;
    }
    beams
        .into_iter()
        .max_by(|a, b| {
            let an = a.score / (a.tokens.len().max(1) as f32);
            let bn = b.score / (b.tokens.len().max(1) as f32);
            an.total_cmp(&bn)
        })
        .map(|b| b.tokens)
        .unwrap_or_default()
}

/// Index of the maximum element (first on ties).
pub fn argmax(xs: &[f32]) -> usize {
    let mut best = 0;
    let mut best_v = f32::NEG_INFINITY;
    for (i, &v) in xs.iter().enumerate() {
        if v > best_v {
            best = i;
            best_v = v;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NoHook;
    use crate::ModelConfig;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn model() -> TransformerLm {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        TransformerLm::new(ModelConfig::tiny(30), &mut rng)
    }

    #[test]
    fn greedy_decode_emits_tokens() {
        let m = model();
        let out = greedy_decode(&m, &NoHook, &[1, 2], 5, None);
        assert_eq!(out.len(), 5);
        assert!(out.iter().all(|&t| t < 30));
    }

    #[test]
    fn greedy_decode_is_deterministic() {
        let m = model();
        assert_eq!(
            greedy_decode(&m, &NoHook, &[3, 4], 4, None),
            greedy_decode(&m, &NoHook, &[3, 4], 4, None)
        );
    }

    #[test]
    fn greedy_decode_respects_eos() {
        let m = model();
        let free = greedy_decode(&m, &NoHook, &[1], 5, None);
        // Use the first generated token as EOS: generation must stop at zero.
        let stopped = greedy_decode(&m, &NoHook, &[1], 5, Some(free[0]));
        assert!(stopped.is_empty());
    }

    #[test]
    fn greedy_decode_respects_max_seq() {
        let m = model();
        let max = m.config().max_seq;
        let out = greedy_decode(&m, &NoHook, &[1], max * 2, None);
        assert!(out.len() < max);
    }

    #[test]
    fn score_options_orders_by_likelihood() {
        let m = model();
        let opts = vec![vec![5], vec![6], vec![7]];
        let scores = score_options(&m, &NoHook, &[1, 2], &opts);
        assert_eq!(scores.len(), 3);
        assert!(scores.iter().all(|s| s.is_finite() && *s < 0.0));
    }

    #[test]
    #[should_panic(expected = "question 0 has an empty prompt")]
    fn score_options_refuses_an_empty_prompt_before_one_token_options() {
        score_options(&model(), &NoHook, &[], &[vec![5], vec![6, 7]]);
    }

    #[test]
    #[should_panic(expected = "question 0 has an empty prompt")]
    fn score_options_refuses_an_empty_prompt_before_longer_options() {
        score_options(&model(), &NoHook, &[], &[vec![6, 7], vec![5]]);
    }

    #[test]
    fn option_probabilities_sum_to_one() {
        let p = option_probabilities(&[-1.0, -2.0, -3.0, -4.0], &[1, 1, 2, 2]);
        let sum: f32 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert!(p[0] > p[1]);
    }

    #[test]
    fn beam_width_one_equals_greedy_prefix() {
        // With width 1 and no EOS, beam search follows the greedy path until
        // its length-normalized pruning stops extending; the emitted tokens
        // must be a prefix of the greedy decode.
        let m = model();
        let greedy = greedy_decode(&m, &NoHook, &[1, 2], 4, None);
        let beam = beam_search(&m, &NoHook, &[1, 2], 4, 1, None);
        assert!(!beam.is_empty());
        assert_eq!(&greedy[..beam.len()], &beam[..]);
    }

    #[test]
    fn beam_search_scores_at_least_greedy() {
        let m = model();
        let greedy = greedy_decode(&m, &NoHook, &[3], 3, None);
        let beam = beam_search(&m, &NoHook, &[3], 3, 3, None);
        let score = |seq: &[usize]| {
            if seq.is_empty() {
                return f32::NEG_INFINITY;
            }
            score_options(&m, &NoHook, &[3], &[seq.to_vec()])[0] / seq.len() as f32
        };
        assert!(
            score(&beam) >= score(&greedy) - 1e-4,
            "beam {:.4} < greedy {:.4}",
            score(&beam),
            score(&greedy)
        );
    }

    #[test]
    fn argmax_first_on_ties() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
        assert_eq!(argmax(&[-5.0]), 0);
    }
}
