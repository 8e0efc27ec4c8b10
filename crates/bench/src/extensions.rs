//! Extension experiments beyond the paper's tables (DESIGN.md §4, row "ext"):
//!
//! * **GRACE** (related-work baseline): hard ε-ball deferral vs. InfuserKI's
//!   soft infuser gate, same NR/RR columns;
//! * **classic forgetting mitigations** (EWC / replay / distillation on full
//!   fine-tuning) as yardsticks for intra-task forgetting;
//! * **2-hop compositionality**: does triple-by-triple integration compose
//!   into multi-hop answers (MetaQA's 2-hop split motivates this).

use std::fmt::Write as _;

use infuserki_baselines::grace::{Grace, GraceConfig};
use infuserki_baselines::mitigation::{
    train_full_ft_distill, train_full_ft_ewc, train_full_ft_replay,
};
use infuserki_core::dataset::qa_sample;
use infuserki_core::{GateInput, InfuserKiConfig, TrainConfig};
use infuserki_eval::downstream::{build_two_hop_items, eval_two_hop};
use infuserki_eval::world::{Domain, WorldConfig};
use infuserki_eval::{evaluate_method, MethodEval};
use infuserki_nn::{LmSample, NoHook};
use infuserki_text::templates::SEEN_TEMPLATES;

use crate::cli::Args;
use crate::runner::{MethodKind, Studies, Study};

fn known_samples(p: &Study) -> Vec<LmSample> {
    p.known
        .iter()
        .flat_map(|&i| {
            SEEN_TEMPLATES
                .iter()
                .map(move |&tpl| qa_sample(p.world.bank.mcq(tpl, i), &p.world.tokenizer))
        })
        .collect()
}

/// Runs the extension suite; returns the report text.
pub fn extensions(args: Args, studies: &mut Studies) -> String {
    let n = args.scale.pick(120, 300, 2500);
    let p = studies.get(&WorldConfig::new(Domain::Umls, n, args.seed));
    let tc = TrainConfig::default();
    let n_layers = p.world.base.n_layers();
    let ik = p.run(&MethodKind::default_infuserki(n_layers), &tc);
    // Design ablation: the gate reads the sublayer output instead of input.
    let mut gate_out_cfg = InfuserKiConfig::for_model(n_layers);
    gate_out_cfg.gate_input = GateInput::SublayerOut;
    let ik_out = p.run(&MethodKind::InfuserKi(gate_out_cfg), &tc);
    let w = &p.world;
    let known_qa = known_samples(p);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "## Extensions — GRACE, classic mitigations, 2-hop compositionality ({n} triplets)"
    );
    let _ = writeln!(
        out,
        "{:<22} {:>5} {:>5} {:>9}",
        "Method", "NR", "RR", "F1_Unseen"
    );

    let row = |name: &str, e: &MethodEval, out: &mut String| {
        let _ = writeln!(
            out,
            "{name:<22} {:>5.2} {:>5.2} {:>9.2}",
            e.nr, e.rr, e.f1_unseen
        );
    };
    let eval_and_row = |name: &str,
                        model: &infuserki_nn::TransformerLm,
                        hook: &dyn infuserki_nn::LayerHook,
                        out: &mut String| {
        let e = evaluate_method(model, hook, &w.tokenizer, &w.bank, &p.known, &p.unknown);
        row(name, &e, out);
    };

    // InfuserKI reference row.
    let ik_eval = &ik.eval;
    row("InfuserKI", ik_eval, &mut out);

    // GRACE: sequential edits of the unknown facts.
    eprintln!("[ext] applying GRACE edits…");
    let mut grace = Grace::new(GraceConfig::for_model(w.base.n_layers()), &w.base);
    let edits: Vec<LmSample> = p
        .unknown
        .iter()
        .map(|&i| qa_sample(w.bank.mcq(0, i), &w.tokenizer))
        .collect();
    grace.apply_edits(&w.base, &edits);
    eval_and_row(
        &format!("GRACE ({} entries)", grace.len()),
        &w.base,
        &grace,
        &mut out,
    );

    row("InfuserKI (gate=FFN-out)", &ik_out.eval, &mut out);

    // Classic mitigations over full fine-tuning.
    let new_qa: Vec<LmSample> = p
        .unknown
        .iter()
        .flat_map(|&i| {
            SEEN_TEMPLATES
                .iter()
                .map(move |&tpl| qa_sample(w.bank.mcq(tpl, i), &w.tokenizer))
        })
        .collect();
    let epochs = tc.epochs_qa.min(6);

    eprintln!("[ext] full FT + EWC…");
    let mut ewc_model = w.base.clone();
    train_full_ft_ewc(
        &mut ewc_model,
        &new_qa,
        &known_qa,
        50.0,
        epochs,
        tc.lr,
        tc.batch,
        0,
    );
    eval_and_row("FullFT + EWC", &ewc_model, &NoHook, &mut out);

    eprintln!("[ext] full FT + replay…");
    let mut replay_model = w.base.clone();
    train_full_ft_replay(
        &mut replay_model,
        &new_qa,
        &known_qa,
        0.5,
        epochs,
        tc.lr,
        tc.batch,
        0,
    );
    eval_and_row("FullFT + replay", &replay_model, &NoHook, &mut out);

    eprintln!("[ext] full FT + distillation…");
    let mut distill_model = w.base.clone();
    let known_prompts: Vec<LmSample> = known_qa.iter().take(60).cloned().collect();
    train_full_ft_distill(
        &mut distill_model,
        &new_qa,
        &known_prompts,
        2.0,
        epochs,
        tc.lr,
        tc.batch,
        0,
    );
    eval_and_row("FullFT + distill", &distill_model, &NoHook, &mut out);

    // 2-hop compositionality.
    let items = build_two_hop_items(&w.store, 150);
    let base_2hop = eval_two_hop(&w.base, &NoHook, &w.tokenizer, &items);
    let ik_2hop = eval_two_hop(&w.base, ik.hook.as_ref(), &w.tokenizer, &items);
    let _ = writeln!(
        out,
        "\n2-hop compositional QA (token F1 over {} paths): vanilla {base_2hop:.2} → InfuserKI {ik_2hop:.2}",
        items.len()
    );
    let _ = writeln!(
        out,
        "reference: InfuserKI NR {:.2} / RR {:.2} on the same world",
        ik_eval.nr, ik_eval.rr
    );

    // Sequential-edit scaling (GRACE): RR as a function of edit count —
    // the "limited number of edits" failure mode of model editors.
    let mut grace2 = Grace::new(GraceConfig::for_model(w.base.n_layers()), &w.base);
    let _ = writeln!(out, "\nGRACE sequential-edit scaling (edits → NR, RR):");
    let checkpoints = [p.unknown.len() / 4, p.unknown.len() / 2, p.unknown.len()];
    let mut applied = 0usize;
    for &target in &checkpoints {
        for &i in p.unknown.iter().take(target).skip(applied) {
            grace2.apply_edit(&w.base, &qa_sample(w.bank.mcq(0, i), &w.tokenizer));
        }
        applied = target;
        let e = evaluate_method(
            &w.base,
            &grace2,
            &w.tokenizer,
            &w.bank,
            &p.known,
            &p.unknown,
        );
        let _ = writeln!(out, "  {applied:>4} edits: NR {:.2}  RR {:.2}", e.nr, e.rr);
    }

    let _ = std::fs::create_dir_all("results");
    let _ = std::fs::write("results/extensions.txt", &out);
    out
}
