//! The fused attention node against the per-head graph it replaced: its
//! value and the gradient of every input — queries, keys, values and a
//! prefix-tuning hook's prefix keys and values — must match the per-head
//! reference (`support/attention.rs`) bit for bit, at every sequence length
//! up to the model's `max_seq`, at 1, 2 and 4 heads, with 0 and 3 prefix
//! rows, at 1 and 4 kernel threads, and on masked tapes. `isa_differential`
//! runs the node under every ISA tier.

#[path = "support/attention.rs"]
mod reference;

use infuserki_nn::ModelConfig;
use infuserki_tensor::{kernels, Matrix, NodeId, Param, Tape, TrainableSet};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn bits(m: &Matrix) -> Vec<u32> {
    m.data().iter().map(|v| v.to_bits()).collect()
}

fn random(rows: usize, cols: usize, rng: &mut ChaCha8Rng) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|_| rng.gen_range(-1.5f32..1.5))
            .collect(),
    )
}

/// Output weights with exact zeros of both signs, so the node's output
/// gradient holds `-0.0`s and whole zero rows, and one column of the
/// smallest negative subnormal, whose products with the probabilities
/// underflow: a fused multiply-add chain over them ends at `-0.0`.
fn weights(rows: usize, cols: usize, rng: &mut ChaCha8Rng) -> Matrix {
    let mut w = random(rows, cols, rng);
    for (i, x) in w.data_mut().iter_mut().enumerate() {
        match i % 7 {
            0 => *x = -0.0,
            3 => *x = 0.0,
            _ => {}
        }
    }
    if rows > 2 {
        w.row_mut(1).fill(-0.0);
    }
    for r in 0..rows {
        w.set(r, 2, -f32::from_bits(1));
    }
    w
}

/// One case: the inputs as parameters, the loss's weights, and the scale a
/// later reader of `q` and of the prefix keys applies — `-0.0`, so their
/// gradient slots hold signed zeros before the attention arm adds to them.
struct Case {
    inputs: Vec<Param>,
    w: Matrix,
    n_heads: usize,
}

impl Case {
    fn new(n: usize, d: usize, n_heads: usize, prefix: usize, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut inputs: Vec<Param> = ["q", "k", "v"]
            .iter()
            .map(|name| Param::new(*name, random(n, d, &mut rng)))
            .collect();
        if prefix > 0 {
            inputs.push(Param::new("pk", random(prefix, d, &mut rng)));
            inputs.push(Param::new("pv", random(prefix, d, &mut rng)));
        }
        Case {
            w: weights(n, d, &mut rng),
            inputs,
            n_heads,
        }
    }

    /// The loss `Σ w ⊙ attention + Σ (-0.0·q) + Σ (-0.0·pk)`; returns the
    /// input nodes, the attention node and the two late readers.
    fn record(&self, t: &mut Tape) -> (Vec<NodeId>, NodeId, NodeId, Option<NodeId>) {
        let ins: Vec<NodeId> = self.inputs.iter().map(|p| t.param(p)).collect();
        let prefix = (ins.len() == 5).then(|| (ins[3], ins[4]));
        let att = t.attention(ins[0], ins[1], ins[2], prefix, self.n_heads);
        let w = t.leaf(self.w.clone());
        let weighted = t.mul(att, w);
        let mut loss = sum(t, weighted);
        let late_q = t.scale(ins[0], -0.0);
        let q_term = sum(t, late_q);
        loss = t.add(loss, q_term);
        let late_pk = prefix.map(|(pk, _)| t.scale(pk, -0.0));
        if let Some(late) = late_pk {
            let term = sum(t, late);
            loss = t.add(loss, term);
        }
        t.backward(loss);
        (ins, att, late_q, late_pk)
    }
}

/// `Σ x` as a `[1,1]` node.
fn sum(t: &mut Tape, x: NodeId) -> NodeId {
    let (r, c) = t.value(x).shape();
    let ones_c = t.leaf(Matrix::full(c, 1, 1.0));
    let col = t.matmul(x, ones_c);
    let ones_r = t.leaf(Matrix::full(1, r, 1.0));
    t.matmul(ones_r, col)
}

fn check(case: &Case, ctx: &str) {
    let mut t = Tape::new();
    let (ins, att, late_q, late_pk) = case.record(&mut t);
    let vals: Vec<&Matrix> = case.inputs.iter().map(Param::data).collect();
    let r = reference::Inputs {
        q: vals[0],
        k: vals[1],
        v: vals[2],
        prefix: (vals.len() == 5).then(|| (vals[3], vals[4])),
        n_heads: case.n_heads,
    };
    assert_eq!(bits(t.value(att)), bits(&r.forward()), "value, {ctx}");

    // The slots as the attention arm found them: the late readers' terms.
    let late = |node: NodeId| {
        let mut g = t.grad(node).unwrap().clone();
        g.scale_assign(-0.0);
        g
    };
    let mut slots: [Option<Matrix>; 5] = Default::default();
    slots[0] = Some(late(late_q));
    slots[3] = late_pk.map(late);
    let want = r.backward(t.grad(att).unwrap(), slots);
    assert!(
        want.iter()
            .flatten()
            .flat_map(|g| g.data())
            .any(|x| x.to_bits() == (-0.0f32).to_bits())
            || t.grad(att)
                .unwrap()
                .data()
                .iter()
                .any(|x| x.to_bits() == (-0.0f32).to_bits()),
        "no signed zero reached the arm, {ctx}"
    );
    for (i, node) in ins.iter().enumerate() {
        let name = case.inputs[i].name();
        let got = t.grad(*node).unwrap_or_else(|| panic!("no d{name}, {ctx}"));
        let want = want[i].as_ref().unwrap();
        assert_eq!(bits(got), bits(want), "d{name}, {ctx}");
    }

    // Masked tapes: each input alone, and all but the queries.
    let full = t.grads();
    let mut subsets: Vec<Vec<usize>> = (0..ins.len()).map(|i| vec![i]).collect();
    subsets.push((1..ins.len()).collect());
    for subset in subsets {
        let set: TrainableSet = subset.iter().map(|&i| case.inputs[i].id()).collect();
        let mut m = Tape::with_trainable(set);
        case.record(&mut m);
        let masked = m.grads();
        assert_eq!(masked.len(), subset.len(), "{subset:?}, {ctx}");
        for &i in &subset {
            let id = case.inputs[i].id();
            assert_eq!(
                bits(masked.get(id).unwrap()),
                bits(full.get(id).unwrap()),
                "masked d{} with {subset:?}, {ctx}",
                case.inputs[i].name()
            );
        }
    }
}

#[test]
fn fused_attention_is_the_per_head_graph_bitwise() {
    let cfg = ModelConfig::default();
    for threads in [1, 4] {
        kernels::set_num_threads(threads);
        for n_heads in [1, 2, 4] {
            for prefix in [0, 3] {
                for n in 1..=cfg.max_seq {
                    let seed = (n * 31 + n_heads * 7 + prefix) as u64;
                    let case = Case::new(n, cfg.d_model, n_heads, prefix, seed);
                    let ctx = format!(
                        "{n} rows, {n_heads} heads, {prefix} prefix rows, {threads} threads"
                    );
                    check(&case, &ctx);
                }
            }
        }
    }
    kernels::set_num_threads(0);
}
