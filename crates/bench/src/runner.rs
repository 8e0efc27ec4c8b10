//! The shared experiment runner: one [`Study`] per world (built and detected
//! once), each method trained and evaluated once on it, and the paper-style
//! tables read from those runs.

use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use infuserki_baselines::calinet::{Calinet, CalinetConfig};
use infuserki_baselines::lora::{LoraConfig, LoraMethod};
use infuserki_baselines::prefix::{PrefixConfig, PrefixTuning};
use infuserki_baselines::qlora::{quantize_model, QuantConfig};
use infuserki_baselines::tpatcher::{TPatcher, TPatcherConfig};
use infuserki_baselines::{train_patched, VisitTrainable};
use infuserki_core::dataset::{qa_sample, KiDataset};
use infuserki_core::detect::detect_unknown;
use infuserki_core::{train_infuserki, InfuserKiConfig, InfuserKiMethod, Placement, TrainConfig};
use infuserki_eval::downstream::{
    build_one_hop_items, build_yesno_items, eval_one_hop, eval_yesno, sample_downstream_triples,
};
use infuserki_eval::mcq_eval::answer_templates;
use infuserki_eval::world::{build_world, Domain, World, WorldConfig};
use infuserki_eval::{McqOutcome, MethodEval};
use infuserki_nn::{LayerHook, LmSample, NoHook, TransformerLm};
use infuserki_text::templates::SEEN_TEMPLATES;
use serde::{Deserialize, Serialize};

/// A method to run in an experiment.
#[derive(Debug, Clone, PartialEq)]
pub enum MethodKind {
    /// The unmodified base model (first row of every table).
    Vanilla,
    /// CALINET (model editing, single top-region FFN adapter).
    Calinet,
    /// T-Patcher (model editing, last-FFN patch neurons).
    TPatcher,
    /// Prefix tuning.
    PrefixTuning,
    /// LoRA on attention q/v.
    Lora,
    /// 4-bit quantized base + LoRA.
    QLora,
    /// InfuserKI with the given config (paper default:
    /// [`MethodKind::default_infuserki`]).
    InfuserKi(InfuserKiConfig),
}

impl MethodKind {
    /// The paper-default InfuserKI for a model depth.
    pub fn default_infuserki(n_layers: usize) -> Self {
        MethodKind::InfuserKi(InfuserKiConfig::for_model(n_layers))
    }

    /// Display name matching the paper's rows.
    pub fn name(&self) -> String {
        match self {
            MethodKind::Vanilla => "Vanilla".into(),
            MethodKind::Calinet => "CALINET".into(),
            MethodKind::TPatcher => "T-Patcher".into(),
            MethodKind::PrefixTuning => "Prefix Tuning".into(),
            MethodKind::Lora => "LoRA".into(),
            MethodKind::QLora => "QLoRA".into(),
            MethodKind::InfuserKi(cfg) => {
                let a = cfg.ablation;
                if !a.use_infuser {
                    "InfuserKI-w/o-Ro".into()
                } else if !a.infuser_pretrain {
                    "InfuserKI-w/o-RL".into()
                } else if !a.use_rc {
                    "InfuserKI-w/o-RC".into()
                } else {
                    "InfuserKI (Ours)".into()
                }
            }
        }
    }
}

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// World (KG + base model) configuration.
    pub world: WorldConfig,
    /// Methods to run, in row order.
    pub methods: Vec<MethodKind>,
    /// Training schedule shared by every method.
    pub train: TrainConfig,
}

impl ExperimentConfig {
    /// The standard 7-row comparison (Tables 1–3) for a world.
    pub fn standard(world: WorldConfig) -> Self {
        let ik = MethodKind::default_infuserki(world.n_layers);
        ExperimentConfig {
            world,
            methods: vec![
                MethodKind::Vanilla,
                MethodKind::Calinet,
                MethodKind::TPatcher,
                MethodKind::PrefixTuning,
                MethodKind::Lora,
                MethodKind::QLora,
                ik,
            ],
            train: TrainConfig::default(),
        }
    }
}

/// One method's results (a table row plus bookkeeping).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MethodResult {
    /// Row name.
    pub name: String,
    /// NR/RR/F1 metrics.
    pub eval: MethodEval,
    /// Downstream-task F1 (PubMedQA-sim or 1-hop QA).
    pub downstream: f32,
    /// Wall-clock training seconds (evaluation excluded).
    pub train_secs: f32,
    /// Trainable parameters introduced by the method.
    pub extra_params: usize,
}

/// A full experiment's results.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentReport {
    /// Experiment title (e.g. "Table 1 — UMLS 2.5k-scale").
    pub title: String,
    /// KG triplet count actually used.
    pub n_triplets: usize,
    /// Detection split sizes: (known, unknown).
    pub detection: (usize, usize),
    /// One row per method.
    pub rows: Vec<MethodResult>,
}

impl ExperimentReport {
    /// Renders the paper-style table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "## {} ({} triplets; detection: {} known / {} unknown)\n\n",
            self.title, self.n_triplets, self.detection.0, self.detection.1
        ));
        out.push_str(&format!(
            "{:<16} {:>5} {:>5}  {:>5} {:>5}  {:>5} {:>5} {:>5}  {:>9} {:>10}\n",
            "Method",
            "NR",
            "RR",
            "F1_T1",
            "F1_T2",
            "F1_T3",
            "F1_T4",
            "F1_T5",
            "F1_Unseen",
            "Downstream"
        ));
        let fmt = |v: f32| {
            if v.is_nan() {
                "    -".to_string()
            } else {
                format!("{v:5.2}")
            }
        };
        for r in &self.rows {
            out.push_str(&format!(
                "{:<16} {} {}  {} {}  {} {} {}  {:>9} {:>10}\n",
                r.name,
                fmt(r.eval.nr),
                fmt(r.eval.rr),
                fmt(r.eval.f1_templates[0]),
                fmt(r.eval.f1_templates[1]),
                fmt(r.eval.f1_templates[2]),
                fmt(r.eval.f1_templates[3]),
                fmt(r.eval.f1_templates[4]),
                fmt(r.eval.f1_unseen),
                fmt(r.downstream),
            ));
        }
        out
    }
}

/// Downstream items per evaluation (PubMedQA-sim or 1-hop QA).
const DOWNSTREAM_ITEMS: usize = 150;

/// One method trained and evaluated once on a study's world.
pub struct Run {
    /// The table row.
    pub row: MethodResult,
    /// MCQ outcomes per template: `outcomes[t][i]` answers triple `i` under
    /// template `t` (what `row.eval` was scored from).
    pub outcomes: Vec<Vec<McqOutcome>>,
    /// The trained method's hook ([`NoHook`] for the vanilla base).
    pub hook: Box<dyn LayerHook>,
    /// QLoRA's 4-bit copy of the base; every other method runs on the
    /// world's base.
    pub quantized_base: Option<TransformerLm>,
}

impl Run {
    /// The model the method runs on.
    pub fn model<'a>(&'a self, base: &'a TransformerLm) -> &'a TransformerLm {
        self.quantized_base.as_ref().unwrap_or(base)
    }
}

/// One world, detected once, and every method trained on it so far — each
/// `(MethodKind, TrainConfig)` trains and evaluates once, and every table and
/// figure over the world reads that run.
pub struct Study {
    /// The built world.
    pub world: World,
    /// Detection: initially known triple indices (N1+N2).
    pub known: Vec<usize>,
    /// Detection: initially unknown triple indices (N3+N4).
    pub unknown: Vec<usize>,
    /// InfuserKI three-phase dataset (QA includes the known mix).
    pub data: KiDataset,
    runs: Vec<(MethodKind, TrainConfig, Rc<Run>)>,
}

impl Study {
    /// Runs knowledge detection on a built world and builds its dataset.
    pub fn new(world: World) -> Study {
        eprintln!("[study] detecting unknown knowledge…");
        let detection = detect_unknown(
            &world.base,
            &NoHook,
            &world.tokenizer,
            world.bank.template(0),
        );
        let (known, unknown) = (detection.known, detection.unknown);
        eprintln!(
            "[study] detection: {} known / {} unknown",
            known.len(),
            unknown.len()
        );
        let data = KiDataset::build(
            &world.store,
            &world.bank,
            &world.tokenizer,
            &known,
            &unknown,
            world.config.seed ^ 0xda7a,
        );
        Study {
            world,
            known,
            unknown,
            data,
            runs: Vec::new(),
        }
    }

    /// The run of `kind` under `tc`: trained and evaluated on the first call,
    /// the same run on every later one.
    pub fn run(&mut self, kind: &MethodKind, tc: &TrainConfig) -> Rc<Run> {
        let (name, w) = (kind.name(), &self.world);
        let mut label = format!("{name} on {:?}-{}", w.config.domain, w.store.len());
        if matches!(kind, MethodKind::InfuserKi(_))
            && *kind != MethodKind::default_infuserki(w.base.n_layers())
        {
            label += " (variant)";
        }
        if let Some((_, _, run)) = self.runs.iter().find(|(k, t, _)| k == kind && t == tc) {
            eprintln!("[study] {label}: reusing its run");
            return Rc::clone(run);
        }
        eprintln!("[study] training {label}…");
        let started = Instant::now();
        let (quantized_base, hook, extra_params) = self.train(kind, tc);
        let train_secs = started.elapsed().as_secs_f32();
        let model = quantized_base.as_ref().unwrap_or(&w.base);
        let outcomes = answer_templates(model, hook.as_ref(), &w.tokenizer, &w.bank);
        let eval = MethodEval::from_outcomes(&outcomes, &self.known, &self.unknown);
        let downstream = self.downstream(model, hook.as_ref());
        eprintln!(
            "[study] {label}: NR {:.2} RR {:.2} ({train_secs:.0}s training)",
            eval.nr, eval.rr
        );
        let row = MethodResult {
            name,
            eval,
            downstream,
            train_secs,
            extra_params,
        };
        let run = Rc::new(Run {
            row,
            outcomes,
            hook,
            quantized_base,
        });
        self.runs.push((kind.clone(), tc.clone(), Rc::clone(&run)));
        run
    }

    /// Trains `kind`; returns QLoRA's quantized base, the trained hook and
    /// its trainable parameter count.
    fn train(
        &self,
        kind: &MethodKind,
        tc: &TrainConfig,
    ) -> (Option<TransformerLm>, Box<dyn LayerHook>, usize) {
        let quantized_base = (*kind == MethodKind::QLora).then(|| {
            let mut qbase = self.world.base.clone();
            quantize_model(&mut qbase, QuantConfig::default());
            qbase
        });
        let base = quantized_base.as_ref().unwrap_or(&self.world.base);
        let (hook, extra): (Box<dyn LayerHook>, usize) = match kind {
            MethodKind::Vanilla => (Box::new(NoHook), 0),
            MethodKind::Calinet => {
                let m = Calinet::new(CalinetConfig::for_model(base.n_layers()), base);
                train_hook(base, m, &self.unknown_only_samples(), tc)
            }
            MethodKind::TPatcher => {
                let m = TPatcher::new(TPatcherConfig::default(), base);
                train_hook(base, m, &self.unknown_only_samples(), tc)
            }
            MethodKind::PrefixTuning => {
                let m = PrefixTuning::new(PrefixConfig::default(), base);
                train_hook(base, m, &self.data.qa, tc)
            }
            MethodKind::Lora | MethodKind::QLora => {
                let m = LoraMethod::new(LoraConfig::default(), base);
                train_hook(base, m, &self.data.qa, tc)
            }
            MethodKind::InfuserKi(cfg) => {
                let mut m = InfuserKiMethod::new(cfg.clone(), base, self.world.store.n_relations());
                let rep = train_infuserki(base, &mut m, &self.data, tc);
                eprintln!(
                    "[study]   infuser {:.3?} qa {:.3?} rc {:.3?}",
                    rep.infuser_losses, rep.qa_losses, rep.rc_losses
                );
                let extra = m.extra_params();
                (Box::new(m), extra)
            }
        };
        (quantized_base, hook, extra)
    }

    /// Downstream-task F1: PubMedQA-sim yes/no on UMLS, 1-hop QA on MetaQA.
    fn downstream(&self, model: &TransformerLm, hook: &dyn LayerHook) -> f32 {
        let w = &self.world;
        let triples = sample_downstream_triples(&w.store, DOWNSTREAM_ITEMS, w.config.seed ^ 0xd0);
        match w.config.domain {
            Domain::Umls => {
                let items = build_yesno_items(&w.store, &triples, w.config.seed ^ 0xd1);
                eval_yesno(model, hook, &w.tokenizer, &items)
            }
            Domain::MetaQa => {
                let items = build_one_hop_items(&w.store, &triples);
                eval_one_hop(model, hook, &w.tokenizer, &items)
            }
        }
    }

    /// Unknown-only QA samples (seen templates) — the model-editing methods'
    /// natural training set (they edit wrong facts).
    fn unknown_only_samples(&self) -> Vec<LmSample> {
        let w = &self.world;
        let mut out = Vec::with_capacity(self.unknown.len() * SEEN_TEMPLATES.len());
        for &i in &self.unknown {
            for &tpl in &SEEN_TEMPLATES {
                out.push(qa_sample(w.bank.mcq(tpl, i), &w.tokenizer));
            }
        }
        out
    }
}

/// Trains a hook-only method on `samples` with the QA schedule; returns it
/// with its trainable parameter count.
fn train_hook<M: LayerHook + VisitTrainable + 'static>(
    base: &TransformerLm,
    mut m: M,
    samples: &[LmSample],
    tc: &TrainConfig,
) -> (Box<dyn LayerHook>, usize) {
    let (epochs, lr, batch, seed) = (tc.epochs_qa, tc.lr, tc.batch, tc.seed);
    let losses = train_patched(base, &mut m, samples, epochs, lr, batch, seed);
    eprintln!("[study]   losses {losses:.3?}");
    let extra = m.trainable_params();
    (Box::new(m), extra)
}

/// Every study of a process, one per world, keyed by
/// [`WorldConfig::cache_key`].
#[derive(Default)]
pub struct Studies(BTreeMap<String, Study>);

impl Studies {
    /// The study of `cfg`'s world, built and detected on first use.
    pub fn get(&mut self, cfg: &WorldConfig) -> &mut Study {
        self.0.entry(cfg.cache_key()).or_insert_with(|| {
            eprintln!("[study] building {:?}-{}…", cfg.domain, cfg.n_triplets);
            Study::new(build_world(cfg))
        })
    }
}

/// Runs an experiment on its world's study: one row per method, each
/// trained at most once per process.
pub fn run_experiment(
    title: &str,
    cfg: &ExperimentConfig,
    studies: &mut Studies,
) -> ExperimentReport {
    eprintln!("[exp] {title}");
    let study = studies.get(&cfg.world);
    let rows = cfg
        .methods
        .iter()
        .map(|kind| study.run(kind, &cfg.train).row.clone())
        .collect();
    ExperimentReport {
        title: title.to_string(),
        n_triplets: study.world.store.len(),
        detection: (study.known.len(), study.unknown.len()),
        rows,
    }
}

/// Position-sweep helper (Fig. 5): InfuserKI rows for each placement.
pub fn placement_rows(n_layers: usize) -> Vec<(String, Placement)> {
    vec![
        ("FFN bottom".into(), Placement::bottom(n_layers)),
        ("FFN middle".into(), Placement::middle(n_layers)),
        ("FFN top".into(), Placement::top(n_layers)),
        ("Attention".into(), Placement::attention(n_layers)),
        ("FFN full".into(), Placement::main(n_layers)),
    ]
}

/// Writes a report's rendered table and JSON to `results/`.
pub fn save_report(report: &ExperimentReport, stem: &str) {
    let dir = std::path::Path::new("results");
    let _ = std::fs::create_dir_all(dir);
    let _ = std::fs::write(dir.join(format!("{stem}.txt")), report.render());
    if let Ok(json) = serde_json::to_string_pretty(report) {
        let _ = std::fs::write(dir.join(format!("{stem}.json")), json);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infuserki_eval::mcq_eval::answer_template;
    use infuserki_eval::world::build_world_in;

    #[test]
    fn a_study_trains_each_method_and_schedule_once() {
        let dir = std::env::temp_dir().join(format!("infuserki_study_{}", std::process::id()));
        let mut study = Study::new(build_world_in(&WorldConfig::tiny(Domain::Umls, 5), &dir));
        let mut cfg = InfuserKiConfig::for_model(study.world.base.n_layers());
        cfg.bottleneck = 4;
        cfg.infuser_hidden = 4;
        cfg.rc_dim = 8;
        let kind = MethodKind::InfuserKi(cfg);
        let tc = TrainConfig {
            epochs_infuser: 1,
            epochs_qa: 1,
            epochs_rc: 1,
            batch: 4,
            ..TrainConfig::default()
        };

        let first = study.run(&kind, &tc);
        let again = study.run(&kind, &tc);
        assert!(
            Rc::ptr_eq(&first, &again),
            "the same (kind, tc) trained twice"
        );
        assert_eq!(study.runs.len(), 1);
        assert_eq!(again.row.name, first.row.name);
        assert_eq!(again.row.eval.nr.to_bits(), first.row.eval.nr.to_bits());
        assert_eq!(again.row.eval.rr.to_bits(), first.row.eval.rr.to_bits());

        let other = TrainConfig {
            epochs_qa: 2,
            ..tc.clone()
        };
        let retrained = study.run(&kind, &other);
        assert!(!Rc::ptr_eq(&first, &retrained));
        assert_eq!(study.runs.len(), 2);

        let w = &study.world;
        let model = first.model(&w.base);
        let direct = answer_template(model, first.hook.as_ref(), &w.tokenizer, &w.bank, 0);
        assert_eq!(first.outcomes[0], direct);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn method_names_match_paper_rows() {
        assert_eq!(MethodKind::Vanilla.name(), "Vanilla");
        assert_eq!(MethodKind::QLora.name(), "QLoRA");
        let mut cfg = InfuserKiConfig::for_model(12);
        assert_eq!(
            MethodKind::InfuserKi(cfg.clone()).name(),
            "InfuserKI (Ours)"
        );
        cfg.ablation.use_rc = false;
        assert_eq!(
            MethodKind::InfuserKi(cfg.clone()).name(),
            "InfuserKI-w/o-RC"
        );
        cfg.ablation.use_rc = true;
        cfg.ablation.use_infuser = false;
        assert_eq!(MethodKind::InfuserKi(cfg).name(), "InfuserKI-w/o-Ro");
    }

    #[test]
    fn placement_rows_cover_five_configs() {
        let rows = placement_rows(12);
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().any(|(n, _)| n == "Attention"));
    }

    #[test]
    fn report_renders_header_and_rows() {
        let report = ExperimentReport {
            title: "t".into(),
            n_triplets: 10,
            detection: (4, 6),
            rows: vec![MethodResult {
                name: "Vanilla".into(),
                eval: MethodEval {
                    nr: f32::NAN,
                    rr: f32::NAN,
                    f1_templates: [0.4; 5],
                    f1_unseen: 0.4,
                },
                downstream: 0.38,
                train_secs: 0.0,
                extra_params: 0,
            }],
        };
        let text = report.render();
        assert!(text.contains("F1_Unseen"));
        assert!(text.contains("Vanilla"));
        assert!(text.contains("4 known / 6 unknown"));
    }
}
