//! Tape references for the differential suites: samplers and option scoring
//! that recompute one full tape forward per step, with no KV cache. The
//! cached engine must reproduce them bitwise at one kernel thread.
//!
//! Included with `#[path]` by the suites that compare against it.
#![allow(dead_code)]

use infuserki_nn::sampler::argmax;
use infuserki_nn::{LayerHook, TransformerLm};
use infuserki_tensor::{kernels, Matrix, NodeId, Tape};

/// Greedy decoding with a full forward per generated token.
pub fn greedy_decode_uncached(
    model: &TransformerLm,
    hook: &dyn LayerHook,
    prompt: &[usize],
    max_new: usize,
    eos: Option<usize>,
) -> Vec<usize> {
    let mut tokens = prompt.to_vec();
    let mut out = Vec::with_capacity(max_new);
    for _ in 0..max_new {
        if tokens.len() >= model.config().max_seq {
            break;
        }
        let mut tape = Tape::new();
        let logits = model.forward(&tokens, hook, &mut tape);
        let v = tape.value(logits);
        let next = argmax(v.row(v.rows() - 1));
        if Some(next) == eos {
            break;
        }
        out.push(next);
        tokens.push(next);
    }
    out
}

/// Option scoring with one full forward per option.
pub fn score_options_uncached(
    model: &TransformerLm,
    hook: &dyn LayerHook,
    prompt: &[usize],
    options: &[Vec<usize>],
) -> Vec<f32> {
    options
        .iter()
        .map(|opt| completion_logprob(model, prompt, opt, hook))
        .collect()
}

/// Beam search with a full-sequence forward per live beam per step.
pub fn beam_search_uncached(
    model: &TransformerLm,
    hook: &dyn LayerHook,
    prompt: &[usize],
    max_new: usize,
    beam_width: usize,
    eos: Option<usize>,
) -> Vec<usize> {
    assert!(beam_width >= 1, "beam width must be at least 1");
    #[derive(Clone)]
    struct Beam {
        tokens: Vec<usize>,
        score: f32,
        done: bool,
    }
    let mut beams = vec![Beam {
        tokens: Vec::new(),
        score: 0.0,
        done: false,
    }];
    for _ in 0..max_new {
        if beams.iter().all(|b| b.done) {
            break;
        }
        let mut candidates: Vec<Beam> = Vec::new();
        for beam in &beams {
            if beam.done {
                candidates.push(beam.clone());
                continue;
            }
            let mut input = prompt.to_vec();
            input.extend(&beam.tokens);
            if input.len() >= model.config().max_seq {
                let mut b = beam.clone();
                b.done = true;
                candidates.push(b);
                continue;
            }
            let mut tape = Tape::new();
            let logits = model.forward(&input, hook, &mut tape);
            let v = tape.value(logits);
            let last = kernels::log_softmax_rows(&Matrix::row_vec(v.row(v.rows() - 1).to_vec()));
            // Top beam_width expansions of this beam.
            let mut idx: Vec<usize> = (0..last.cols()).collect();
            idx.sort_by(|&a, &b| last.get(0, b).total_cmp(&last.get(0, a)));
            for &tok in idx.iter().take(beam_width) {
                let mut b = beam.clone();
                b.score += last.get(0, tok);
                if Some(tok) == eos {
                    b.done = true;
                } else {
                    b.tokens.push(tok);
                }
                candidates.push(b);
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

/// Natural-log probability `model` assigns to `completion` after `prompt`,
/// summed over completion tokens, from one tape forward.
pub fn completion_logprob(
    model: &TransformerLm,
    prompt: &[usize],
    completion: &[usize],
    hook: &dyn LayerHook,
) -> f32 {
    assert!(
        !completion.is_empty(),
        "completion_logprob: empty completion"
    );
    let mut tape = Tape::new();
    let mut tokens = prompt.to_vec();
    tokens.extend_from_slice(completion);
    // Drop the final token's prediction: nothing follows it.
    let input = &tokens[..tokens.len() - 1];
    let logits = model.forward(input, hook, &mut tape);
    sum_completion_logprob(&tape, logits, prompt.len(), completion)
}

fn sum_completion_logprob(
    tape: &Tape,
    logits: NodeId,
    prompt_len: usize,
    completion: &[usize],
) -> f32 {
    let lp = kernels::log_softmax_rows(tape.value(logits));
    // Row prompt_len-1+i predicts completion[i].
    completion
        .iter()
        .enumerate()
        .map(|(i, &tok)| lp.get(prompt_len - 1 + i, tok))
        .sum()
}
