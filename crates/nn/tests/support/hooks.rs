//! Synthetic hooks covering each interception point — q/v deltas, prefix
//! K/V rows, output rewrites — plus the bare model, for the nn differential
//! suites. Included with `#[path]`.

use infuserki_nn::hooks::LayerHook;
use infuserki_nn::{Exec, ModelConfig, NoHook, Val};
use infuserki_tensor::{init, Matrix};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// LoRA-shaped: dense additive deltas on the q and v projections.
struct QvDelta {
    dq: Matrix,
    dv: Matrix,
}

impl QvDelta {
    fn new(d: usize) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        QvDelta {
            dq: init::normal(d, d, 0.05, &mut rng),
            dv: init::normal(d, d, 0.05, &mut rng),
        }
    }
}

impl LayerHook for QvDelta {
    fn attn_q_delta(&self, _layer: usize, x: &Val, e: &mut Exec) -> Option<Val> {
        let w = e.leaf(&self.dq);
        Some(e.matmul(x, &w))
    }

    fn attn_v_delta(&self, _layer: usize, x: &Val, e: &mut Exec) -> Option<Val> {
        let w = e.leaf(&self.dv);
        Some(e.matmul(x, &w))
    }
}

/// Prefix-tuning-shaped: learnable K/V rows prepended at every layer.
struct PrefixRows {
    k: Matrix,
    v: Matrix,
}

impl PrefixRows {
    fn new(p: usize, d: usize) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(78);
        PrefixRows {
            k: init::normal(p, d, 0.05, &mut rng),
            v: init::normal(p, d, 0.05, &mut rng),
        }
    }
}

impl LayerHook for PrefixRows {
    fn prefix_kv(&self, _layer: usize, e: &mut Exec) -> Option<(Val, Val)> {
        let k = e.leaf(&self.k);
        let v = e.leaf(&self.v);
        Some((k, v))
    }
}

/// CALINET/T-Patcher-shaped: row-local rewrites of both sublayer outputs,
/// run eagerly from the same source as on the tape.
struct OutputTweak;

impl LayerHook for OutputTweak {
    fn attn_output(&self, _layer: usize, _attn_in: &Val, attn_out: Val, e: &mut Exec) -> Val {
        e.scale(attn_out, 1.1)
    }

    fn ffn_output(&self, _layer: usize, ffn_in: &Val, ffn_out: Val, e: &mut Exec) -> Val {
        let bent = e.gelu(ffn_in.clone());
        let scaled = e.scale(bent, 0.25);
        e.add(ffn_out, &scaled)
    }
}

pub fn hooks() -> Vec<(&'static str, Box<dyn LayerHook>)> {
    let d = ModelConfig::tiny(40).d_model;
    vec![
        ("nohook", Box::new(NoHook)),
        ("qv_delta", Box::new(QvDelta::new(d))),
        ("prefix", Box::new(PrefixRows::new(3, d))),
        ("output_tweak", Box::new(OutputTweak)),
    ]
}
