//! [`InfuserKiMethod`]: the trainable patch — adapters + infusers + RC head —
//! and its [`LayerHook`] implementation wiring Eq. 1–6 into the frozen base
//! model's forward pass.

use infuserki_nn::layers::{Linear, Module};
use infuserki_nn::{Exec, ForwardTrace, LayerHook, TransformerLm, Val};
use infuserki_tensor::{init, NodeId, Param, Tape};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::adapter::AdapterLayer;
use crate::config::{GateInput, InfuserKiConfig, Site};
use crate::dataset::{InfuserSample, RcSample};
use crate::infuser::InfuserMlp;

/// The InfuserKI trainable modules. The base model stays frozen; this struct
/// owns every parameter the three training phases touch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InfuserKiMethod {
    cfg: InfuserKiConfig,
    adapters: Vec<AdapterLayer>,
    infusers: Vec<InfuserMlp>,
    rc_proj: Linear,
    rel_embed: Param,
}

impl InfuserKiMethod {
    /// Builds the method for `base` over a KG with `n_relations` relations.
    pub fn new(cfg: InfuserKiConfig, base: &TransformerLm, n_relations: usize) -> Self {
        assert!(
            cfg.placement.last <= base.n_layers(),
            "placement {}..{} exceeds model depth {}",
            cfg.placement.first,
            cfg.placement.last,
            base.n_layers()
        );
        assert!(!cfg.placement.is_empty(), "empty adapter placement");
        let d = base.config().d_model;
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let adapters = (cfg.placement.first..cfg.placement.last)
            .map(|l| AdapterLayer::new(l, d, cfg.bottleneck, &mut rng))
            .collect();
        let infusers = (cfg.placement.first..cfg.placement.last)
            .map(|l| InfuserMlp::new(l, d, cfg.infuser_hidden, &mut rng))
            .collect();
        let rc_proj = Linear::new("rc.proj", 2 * d, cfg.rc_dim, 0.05, true, &mut rng);
        let rel_embed = Param::new(
            "rc.rel_embed",
            init::normal(n_relations, cfg.rc_dim, 0.05, &mut rng),
        );
        InfuserKiMethod {
            cfg,
            adapters,
            infusers,
            rc_proj,
            rel_embed,
        }
    }

    /// The method configuration.
    pub fn config(&self) -> &InfuserKiConfig {
        &self.cfg
    }

    /// The method as the engine sees it. `InfuserKiMethod` is its own
    /// [`LayerHook`]; this names the role at call sites
    /// (`base.forward(tokens, &method.hook(), …)`).
    pub fn hook(&self) -> &InfuserKiMethod {
        self
    }

    /// Extra-parameter count (the paper reports ≈2.5M for LLaMa-2-7B).
    pub fn extra_params(&self) -> usize {
        let mut n = 0;
        self.visit_all(&mut |p| n += p.numel());
        n
    }

    /// Saves the trained adapters/infusers/RC head as JSON — a method
    /// checkpoint is tiny (~KBs) compared to the base model, which is the
    /// deployment story of adapter methods: ship one base, many patches.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), String> {
        let json = serde_json::to_string(self).map_err(|e| e.to_string())?;
        if let Some(dir) = path.as_ref().parent() {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        }
        std::fs::write(&path, json).map_err(|e| format!("write {}: {e}", path.as_ref().display()))
    }

    /// Loads a method checkpoint saved by [`save`](Self::save). The
    /// checkpoint must match `base`'s depth and width ([`Self::check_fits`]).
    pub fn load(path: impl AsRef<std::path::Path>, base: &TransformerLm) -> Result<Self, String> {
        let json = std::fs::read_to_string(&path)
            .map_err(|e| format!("read {}: {e}", path.as_ref().display()))?;
        let method: InfuserKiMethod =
            serde_json::from_str(&json).map_err(|e| format!("parse checkpoint: {e}"))?;
        method.check_fits(base)?;
        Ok(method)
    }

    /// Checks that the deserialized modules can run against `base`: the
    /// placement is non-empty and within the model's depth, there is exactly
    /// one adapter and one infuser per placed layer, and every module's width
    /// is the model's. The hook indexes `adapters`/`infusers` by placement
    /// offset and multiplies them into `[rows, d_model]` activations, so a
    /// file that fails here would otherwise panic mid-forward.
    pub fn check_fits(&self, base: &TransformerLm) -> Result<(), String> {
        let p = &self.cfg.placement;
        if p.is_empty() || p.last > base.n_layers() {
            return Err(format!(
                "placement {}..{} does not fit base depth {}",
                p.first,
                p.last,
                base.n_layers()
            ));
        }
        if self.adapters.len() != p.len() || self.infusers.len() != p.len() {
            return Err(format!(
                "{} adapters and {} infusers for the {} layers of placement {}..{}",
                self.adapters.len(),
                self.infusers.len(),
                p.len(),
                p.first,
                p.last
            ));
        }
        let d = base.config().d_model;
        let widths_fit = self.adapters.iter().all(|a| a.fits(d))
            && self.infusers.iter().all(|i| i.fits(d))
            && self.rc_proj.shape().0 == 2 * d;
        if !widths_fit {
            return Err(format!(
                "adapter, infuser or RC-head widths do not match base width {d}"
            ));
        }
        Ok(())
    }

    /// True when the placement puts an adapter at `layer`'s `site` sublayer.
    fn adapts(&self, site: Site, layer: usize) -> bool {
        self.cfg.placement.site == site && self.cfg.placement.contains(layer)
    }

    /// Core of Eq. 1–6: combines the carry, runs the adapter, applies the
    /// gate, and fuses with the sublayer output. Written once: on the tape
    /// it also records the adapter output and the last row's gate logit and
    /// score for the losses and probes; eagerly it runs the same ops over a
    /// packed batch, where everything but the gate's pooling is row-local.
    fn adapt(&self, layer: usize, sub_in: &Val, sub_out: Val, e: &mut Exec) -> Val {
        let offset = self.cfg.placement.offset(layer);
        // Eq. 1: H̃_A^l = H_A^{l-1} + H_P^l (carry starts at zero ⇒ identity).
        let h_tilde = match e.trace().adapter_carry.take() {
            Some(carry) => e.add(carry, sub_in),
            None => sub_in.clone(),
        };
        // Eq. 2.
        let h_a = self.adapters[offset].forward(&h_tilde, e);
        if e.is_tape() {
            e.trace().adapter_outputs.push((layer, h_a.node()));
        }

        let out = if self.cfg.ablation.use_infuser {
            // Eq. 4, made causal: the paper pools the *full* sequence, which
            // row `t` cannot see under autoregressive decoding. We gate row
            // `t` by its cumulative prefix mean `Mean(gate_src[0..=t])`
            // instead; the last row's gate is bitwise the paper's
            // full-sequence gate, so the recorded logits/scores (and Eq. 5's
            // BCE) are unchanged, while every row becomes KV-cacheable.
            let gate_src = match self.cfg.gate_input {
                GateInput::SublayerIn => sub_in,
                GateInput::SublayerOut => &sub_out,
            };
            let pooled = e.cum_mean_rows(gate_src, layer);
            let logits = self.infusers[offset].logit(&pooled, e);
            record_last_row(e, &logits, |t| &mut t.gate_logits, layer);
            let r = e.sigmoid(logits);
            record_last_row(e, &r, |t| &mut t.gate_scores, layer);
            // Eq. 6: H_O^l = r^l · H_A^l + FFN(H_P^l), per row.
            let gated = e.mul_col_broadcast(&h_a, &r);
            e.add(gated, &sub_out)
        } else {
            // Eq. 3 (w/o-Ro ablation): plain additive fusion.
            e.add(h_a.clone(), &sub_out)
        };
        e.trace().adapter_carry = Some(h_a);
        out
    }

    // ---- loss builders -------------------------------------------------------

    /// Phase-1 loss (Eq. 5): BCE over every adapted layer's gate logit;
    /// label 1 for unknown knowledge, 0 for known.
    pub fn infuser_loss(
        &self,
        base: &TransformerLm,
        sample: &InfuserSample,
        tape: &mut Tape,
    ) -> NodeId {
        assert!(
            self.cfg.ablation.use_infuser,
            "infuser loss requires the infuser module"
        );
        let mut trace = ForwardTrace::new();
        let hook = self.hook();
        base.forward_traced(&sample.tokens, &hook, tape, &mut trace);
        assert!(
            !trace.gate_logits.is_empty(),
            "no gate logits recorded — placement/hook mismatch"
        );
        let mut stacked = trace.gate_logits[0].1;
        for &(_, z) in &trace.gate_logits[1..] {
            stacked = tape.concat_rows(stacked, z);
        }
        let labels = vec![sample.label; trace.gate_logits.len()];
        tape.bce_with_logits(stacked, &labels)
    }

    /// Phase-3 loss (Eq. 9–10): statement next-token loss plus λ_RC × the
    /// InfoNCE relation-classification loss over pooled adapter outputs at
    /// the head/tail mention spans.
    pub fn rc_loss(&self, base: &TransformerLm, sample: &RcSample, tape: &mut Tape) -> NodeId {
        let mut trace = ForwardTrace::new();
        let hook = self.hook();
        let logits = base.forward_traced(&sample.tokens, &hook, tape, &mut trace);
        let ntl = tape.cross_entropy(logits, &sample.targets);
        if !self.cfg.ablation.use_rc {
            return ntl;
        }
        let h_a = trace
            .last_adapter_output()
            .expect("adapters must be active for RC pooling");
        let head_rows: Vec<usize> = (sample.head_span.0..sample.head_span.1).collect();
        let tail_rows: Vec<usize> = (sample.tail_span.0..sample.tail_span.1).collect();
        let v_h = tape.mean_selected_rows(h_a, &head_rows);
        let v_t = tape.mean_selected_rows(h_a, &tail_rows);
        // v^r = [v^h, v^t] (Qin et al. 2021 relational representation).
        let v_r = tape.concat_cols(&[v_h, v_t]);
        let proj = Exec::on_tape(tape, |e| self.rc_proj.forward(&v_r.into(), e));
        let rel = tape.param(&self.rel_embed);
        let sim = tape.matmul_bt(proj, rel);
        let scaled = tape.scale(sim, 1.0 / self.cfg.tau);
        // InfoNCE over the full relation set reduces to CE on scaled logits.
        let rc = tape.cross_entropy(scaled, &[sample.relation]);
        let rc_weighted = tape.scale(rc, self.cfg.lambda_rc);
        tape.add(ntl, rc_weighted)
    }

    // ---- parameter visitors ---------------------------------------------------

    /// Visits adapter parameters.
    pub fn visit_adapters_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for a in &mut self.adapters {
            a.visit_mut(f);
        }
    }

    /// Visits infuser parameters.
    pub fn visit_infusers_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for i in &mut self.infusers {
            i.visit_mut(f);
        }
    }

    /// Visits RC head parameters.
    pub fn visit_rc_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.rc_proj.visit_mut(f);
        f(&mut self.rel_embed);
    }

    /// Visits every parameter immutably.
    pub fn visit_all(&self, f: &mut dyn FnMut(&Param)) {
        for a in &self.adapters {
            a.visit(f);
        }
        for i in &self.infusers {
            i.visit(f);
        }
        self.rc_proj.visit(f);
        f(&self.rel_embed);
    }
}

/// On the tape, records `v`'s last row under `layer` in the trace list
/// `list` picks (Eq. 5's BCE and the Fig. 6 probe read these); an eager
/// forward records nothing.
fn record_last_row(
    e: &mut Exec,
    v: &Val,
    list: fn(&mut ForwardTrace) -> &mut Vec<(usize, NodeId)>,
    layer: usize,
) {
    if !e.is_tape() {
        return;
    }
    let n = e.value(v).rows();
    let last = e.slice_rows(v, n - 1, n).node();
    list(e.trace()).push((layer, last));
}

/// The one place InfuserKI meets the engine: both sublayer sites route to
/// [`InfuserKiMethod::adapt`], or pass the sublayer output through when the
/// placement does not cover `(site, layer)`.
impl LayerHook for InfuserKiMethod {
    fn ffn_output(&self, layer: usize, ffn_in: &Val, ffn_out: Val, e: &mut Exec) -> Val {
        if !self.adapts(Site::Ffn, layer) {
            return ffn_out;
        }
        self.adapt(layer, ffn_in, ffn_out, e)
    }

    fn attn_output(&self, layer: usize, attn_in: &Val, attn_out: Val, e: &mut Exec) -> Val {
        if !self.adapts(Site::Attention, layer) {
            return attn_out;
        }
        self.adapt(layer, attn_in, attn_out, e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Placement;
    use infuserki_nn::{ModelConfig, NoHook};

    fn base() -> TransformerLm {
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        TransformerLm::new(ModelConfig::tiny(40), &mut rng)
    }

    fn cfg(n_layers: usize) -> InfuserKiConfig {
        let mut c = InfuserKiConfig::for_model(n_layers);
        c.bottleneck = 4;
        c.infuser_hidden = 4;
        c.rc_dim = 8;
        c
    }

    #[test]
    fn fresh_method_is_identity_on_base() {
        let b = base();
        let m = InfuserKiMethod::new(cfg(b.n_layers()), &b, 5);
        let mut t1 = Tape::new();
        let mut t2 = Tape::new();
        let plain = b.forward(&[1, 2, 3], &NoHook, &mut t1);
        let hooked = b.forward(&[1, 2, 3], &m.hook(), &mut t2);
        // Zero-init up-projections ⇒ adapter output 0 ⇒ identical logits.
        assert_eq!(t1.value(plain).data(), t2.value(hooked).data());
    }

    #[test]
    fn gates_recorded_for_each_adapted_layer() {
        let b = base();
        let m = InfuserKiMethod::new(cfg(b.n_layers()), &b, 5);
        let mut t = Tape::new();
        let mut trace = ForwardTrace::new();
        b.forward_traced(&[1, 2, 3], &m.hook(), &mut t, &mut trace);
        assert_eq!(trace.gate_scores.len(), m.cfg.placement.len());
        assert_eq!(trace.gate_logits.len(), m.cfg.placement.len());
        assert_eq!(trace.adapter_outputs.len(), m.cfg.placement.len());
        for &(_, r) in &trace.gate_scores {
            let v = t.value(r).scalar_value();
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn no_infuser_ablation_records_no_gates() {
        let b = base();
        let mut c = cfg(b.n_layers());
        c.ablation.use_infuser = false;
        let m = InfuserKiMethod::new(c, &b, 5);
        let mut t = Tape::new();
        let mut trace = ForwardTrace::new();
        b.forward_traced(&[1, 2, 3], &m.hook(), &mut t, &mut trace);
        assert!(trace.gate_scores.is_empty());
        assert_eq!(trace.adapter_outputs.len(), m.cfg.placement.len());
    }

    #[test]
    fn attention_placement_hooks_attention_only() {
        let b = base();
        let mut c = cfg(b.n_layers());
        c.placement = Placement::attention(b.n_layers());
        let m = InfuserKiMethod::new(c, &b, 5);
        let mut t = Tape::new();
        let mut trace = ForwardTrace::new();
        b.forward_traced(&[1, 2, 3], &m.hook(), &mut t, &mut trace);
        assert_eq!(trace.adapter_outputs.len(), m.cfg.placement.len());
    }

    #[test]
    fn infuser_loss_builds_scalar() {
        let b = base();
        let m = InfuserKiMethod::new(cfg(b.n_layers()), &b, 5);
        let s = InfuserSample {
            tokens: vec![1, 2, 3, 4],
            label: 1.0,
        };
        let mut t = Tape::new();
        let loss = m.infuser_loss(&b, &s, &mut t);
        assert_eq!(t.value(loss).shape(), (1, 1));
        assert!(t.value(loss).scalar_value() > 0.0);
    }

    #[test]
    fn rc_loss_builds_scalar_and_reaches_rc_params() {
        let b = base();
        let m = InfuserKiMethod::new(cfg(b.n_layers()), &b, 5);
        let s = RcSample {
            tokens: vec![1, 2, 3, 4, 5, 6],
            targets: vec![2, 3, 4, 5, 6, infuserki_tensor::op::IGNORE_INDEX],
            head_span: (1, 3),
            tail_span: (4, 6),
            relation: 2,
        };
        let mut t = Tape::new();
        let loss = m.rc_loss(&b, &s, &mut t);
        t.backward(loss);
        let grads = t.grads();
        assert!(grads.get(m.rel_embed.id()).is_some());
    }

    #[test]
    fn extra_params_scale_with_placement() {
        // A deeper model so bottom-third and full placements differ in size.
        let mut rng = ChaCha8Rng::seed_from_u64(32);
        let b = TransformerLm::new(
            infuserki_nn::ModelConfig {
                n_layers: 6,
                ..infuserki_nn::ModelConfig::tiny(40)
            },
            &mut rng,
        );
        let m_full = InfuserKiMethod::new(cfg(b.n_layers()), &b, 5);
        let mut c_small = cfg(b.n_layers());
        c_small.placement = Placement::bottom(b.n_layers());
        let m_small = InfuserKiMethod::new(c_small, &b, 5);
        assert!(m_full.extra_params() > m_small.extra_params());
    }

    #[test]
    fn gate_out_ablation_runs_and_gates_in_range() {
        let b = base();
        let mut c = cfg(b.n_layers());
        c.gate_input = crate::config::GateInput::SublayerOut;
        let m = InfuserKiMethod::new(c, &b, 5);
        let mut t = Tape::new();
        let mut trace = ForwardTrace::new();
        b.forward_traced(&[1, 2, 3], &m.hook(), &mut t, &mut trace);
        assert_eq!(trace.gate_scores.len(), m.cfg.placement.len());
        for &(_, r) in &trace.gate_scores {
            let v = t.value(r).scalar_value();
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn save_load_round_trip_preserves_behaviour() {
        let b = base();
        let m = InfuserKiMethod::new(cfg(b.n_layers()), &b, 5);
        let dir = std::env::temp_dir().join(format!("infuserki_method_{}", std::process::id()));
        let path = dir.join("method.json");
        m.save(&path).unwrap();
        let loaded = InfuserKiMethod::load(&path, &b).unwrap();
        let mut t1 = Tape::new();
        let mut t2 = Tape::new();
        let a = b.forward(&[1, 2, 3], &m.hook(), &mut t1);
        let c = b.forward(&[1, 2, 3], &loaded.hook(), &mut t2);
        assert_eq!(t1.value(a).data(), t2.value(c).data());
        assert_eq!(loaded.extra_params(), m.extra_params());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn load_rejects_deeper_checkpoint() {
        let deep = {
            let mut rng = ChaCha8Rng::seed_from_u64(33);
            TransformerLm::new(
                infuserki_nn::ModelConfig {
                    n_layers: 6,
                    ..infuserki_nn::ModelConfig::tiny(40)
                },
                &mut rng,
            )
        };
        let m = InfuserKiMethod::new(cfg(deep.n_layers()), &deep, 5);
        let dir = std::env::temp_dir().join(format!("infuserki_methodx_{}", std::process::id()));
        let path = dir.join("method.json");
        m.save(&path).unwrap();
        let shallow = base(); // 2 layers
        assert!(InfuserKiMethod::load(&path, &shallow).is_err());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn check_fits_rejects_missing_modules_and_foreign_widths() {
        let b = base();
        let m = InfuserKiMethod::new(cfg(b.n_layers()), &b, 5);
        m.check_fits(&b).expect("a fresh method fits its base");
        let mut truncated = m.clone();
        truncated.adapters.clear();
        let err = truncated.check_fits(&b).unwrap_err();
        assert!(err.contains("0 adapters"), "got: {err}");
        let mut ungated = m.clone();
        ungated.infusers.pop();
        assert!(ungated.check_fits(&b).is_err());
        let wide = {
            let mut rng = ChaCha8Rng::seed_from_u64(34);
            TransformerLm::new(
                ModelConfig {
                    d_model: 32,
                    ..ModelConfig::tiny(40)
                },
                &mut rng,
            )
        };
        let err = m.check_fits(&wide).unwrap_err();
        assert!(err.contains("base width 32"), "got: {err}");
    }

    #[test]
    #[should_panic(expected = "exceeds model depth")]
    fn placement_beyond_depth_rejected() {
        let b = base();
        let mut c = cfg(b.n_layers());
        c.placement.last = 99;
        InfuserKiMethod::new(c, &b, 5);
    }
}
