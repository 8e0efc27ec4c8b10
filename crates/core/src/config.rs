//! Configuration of the InfuserKI method and its training schedule.

use serde::{Deserialize, Serialize};

/// Which sublayer the knowledge adapters parallel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Site {
    /// Parallel to FFN sublayers (the paper's main configuration — FFN layers
    /// store factual knowledge).
    Ffn,
    /// Parallel to attention sublayers (Fig. 5's "attention" ablation).
    Attention,
}

/// Adapter placement: a contiguous 0-based layer range at a [`Site`].
///
/// Paper → reproduction mapping (32-layer LLaMa → 12-layer SmolLM, see
/// DESIGN.md §4): main last-30-of-32 → layers 1..12; Fig. 5 thirds
/// 3–12/13–22/23–32 → 1..4 / 4..8 / 8..12.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Placement {
    /// Sublayer kind.
    pub site: Site,
    /// First adapted layer (0-based, inclusive).
    pub first: usize,
    /// One past the last adapted layer.
    pub last: usize,
}

impl Placement {
    /// The paper's main placement for a model of `n_layers`: every layer but
    /// the bottom one (last 30 of 32 ≙ last L−1 of L), at FFN sublayers.
    pub fn main(n_layers: usize) -> Self {
        Placement {
            site: Site::Ffn,
            first: 1,
            last: n_layers,
        }
    }

    /// Bottom third (paper layers 3–12).
    pub fn bottom(n_layers: usize) -> Self {
        Placement {
            site: Site::Ffn,
            first: 1,
            last: (n_layers / 3).max(2),
        }
    }

    /// Middle third (paper layers 13–22).
    pub fn middle(n_layers: usize) -> Self {
        Placement {
            site: Site::Ffn,
            first: n_layers / 3,
            last: 2 * n_layers / 3,
        }
    }

    /// Top third (paper layers 23–32).
    pub fn top(n_layers: usize) -> Self {
        Placement {
            site: Site::Ffn,
            first: 2 * n_layers / 3,
            last: n_layers,
        }
    }

    /// Attention-sublayer placement over the main range (paper 3–32 attn).
    pub fn attention(n_layers: usize) -> Self {
        Placement {
            site: Site::Attention,
            first: 1,
            last: n_layers,
        }
    }

    /// True when `layer` is adapted.
    pub fn contains(&self, layer: usize) -> bool {
        (self.first..self.last).contains(&layer)
    }

    /// Number of adapted layers.
    pub fn len(&self) -> usize {
        self.last.saturating_sub(self.first)
    }

    /// True when no layers are adapted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Index of `layer` within the adapted range.
    pub fn offset(&self, layer: usize) -> usize {
        debug_assert!(self.contains(layer));
        layer - self.first
    }
}

/// Which internal state the infuser reads (design-choice ablation; the paper
/// uses the FFN sublayer *input* `H_P^l`, following Azaria & Mitchell's
/// internal-state probing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GateInput {
    /// Mean-pooled sublayer input `H_P^l` (Eq. 4 — the paper's choice).
    SublayerIn,
    /// Mean-pooled raw sublayer output `FFN(H_P^l)` (ablation).
    SublayerOut,
}

/// Ablation switches matching Table 4's variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ablation {
    /// `false` ⇒ InfuserKI-w/o-Ro: no gate, plain additive fusion (Eq. 3).
    pub use_infuser: bool,
    /// `false` ⇒ InfuserKI-w/o-RL: skip the BCE infuser-tuning phase; the
    /// infuser trains end-to-end with the QA loss instead.
    pub infuser_pretrain: bool,
    /// `false` ⇒ InfuserKI-w/o-RC: skip the relation-classification phase.
    pub use_rc: bool,
}

impl Default for Ablation {
    fn default() -> Self {
        Ablation {
            use_infuser: true,
            infuser_pretrain: true,
            use_rc: true,
        }
    }
}

/// Hyperparameters of the method (paper §4.1: d' = 10, τ = 0.7, λ_RC = 10).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InfuserKiConfig {
    /// Adapter placement.
    pub placement: Placement,
    /// Adapter bottleneck dimension `d'`.
    pub bottleneck: usize,
    /// Hidden width of the infuser MLP.
    pub infuser_hidden: usize,
    /// Dimension of the relation-classification space.
    pub rc_dim: usize,
    /// Weight `λ_RC` of the RC loss.
    pub lambda_rc: f32,
    /// InfoNCE temperature `τ`.
    pub tau: f32,
    /// Ablation switches.
    pub ablation: Ablation,
    /// Which state the infuser gate reads (design-choice ablation).
    pub gate_input: GateInput,
    /// Init seed for method parameters.
    pub seed: u64,
}

impl InfuserKiConfig {
    /// Paper-default hyperparameters for a model of `n_layers`.
    pub fn for_model(n_layers: usize) -> Self {
        InfuserKiConfig {
            placement: Placement::main(n_layers),
            bottleneck: 10,
            infuser_hidden: 16,
            rc_dim: 32,
            lambda_rc: 10.0,
            tau: 0.7,
            ablation: Ablation::default(),
            gate_input: GateInput::SublayerIn,
            seed: 0x1f05,
        }
    }
}

/// Training schedule for the three phases.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Epochs of infuser BCE tuning (phase 1).
    pub epochs_infuser: usize,
    /// Epochs of QA training (phase 2).
    pub epochs_qa: usize,
    /// Epochs of RC training (phase 3).
    pub epochs_rc: usize,
    /// Learning rate (paper: 1e-4; scaled up for the small substrate).
    pub lr: f32,
    /// Learning rate for the infuser-tuning phase. The infuser MLPs are tiny
    /// and freshly initialized, so they take a much larger step size than the
    /// adapters without instability.
    pub lr_infuser: f32,
    /// Batch size (paper: 8).
    pub batch: usize,
    /// Shuffle/ordering seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs_infuser: 15,
            epochs_qa: 12,
            epochs_rc: 3,
            lr: 3e-3,
            lr_infuser: 2e-2,
            batch: 8,
            seed: 7,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn main_placement_covers_all_but_first() {
        let p = Placement::main(12);
        assert!(!p.contains(0));
        assert!(p.contains(1) && p.contains(11));
        assert_eq!(p.len(), 11);
    }

    #[test]
    fn thirds_partition_roughly() {
        let (b, m, t) = (
            Placement::bottom(12),
            Placement::middle(12),
            Placement::top(12),
        );
        assert_eq!(b.first, 1);
        assert_eq!(m.first, b.last);
        assert_eq!(t.first, m.last);
        assert_eq!(t.last, 12);
    }

    #[test]
    fn offsets() {
        let p = Placement::middle(12);
        assert_eq!(p.offset(p.first), 0);
        assert_eq!(p.offset(p.last - 1), p.len() - 1);
    }

    #[test]
    fn defaults_match_paper() {
        let c = InfuserKiConfig::for_model(12);
        assert_eq!(c.bottleneck, 10);
        assert!((c.tau - 0.7).abs() < 1e-6);
        assert!((c.lambda_rc - 10.0).abs() < 1e-6);
        assert!(c.ablation.use_infuser && c.ablation.use_rc);
    }

    #[test]
    fn attention_placement_site() {
        let p = Placement::attention(12);
        assert_eq!(p.site, Site::Attention);
        assert_eq!(p.len(), 11);
    }
}
