//! Library entry points for the four figures (shared by the per-figure
//! binaries and `run_all`).

use std::fmt::Write as _;

use infuserki_baselines::FullFineTune;
use infuserki_core::{InfuserKiConfig, TrainConfig};
use infuserki_eval::metrics::McqOutcome;
use infuserki_eval::probes::{fig1_layer, gate_profile, hidden_states_for, option_probs_many};
use infuserki_eval::projection::tsne;
use infuserki_eval::world::{Domain, WorldConfig};
use infuserki_nn::NoHook;

use crate::cli::Args;
use crate::runner::{placement_rows, MethodKind, Studies};

fn save_text(stem: &str, text: &str) {
    let _ = std::fs::create_dir_all("results");
    let _ = std::fs::write(format!("results/{stem}.txt"), text);
}

/// Fig. 1 — t-SNE of mid-depth representations for vanilla, fully
/// fine-tuned, and InfuserKI models; plus the representation-drift metric
/// that quantifies the figure's visual claim.
pub fn fig1(args: Args, studies: &mut Studies) -> String {
    let n = args.scale.pick(120, 300, 600);
    let p = studies.get(&WorldConfig::new(Domain::Umls, n, args.seed));
    let n_layers = p.world.base.n_layers();
    let layer = fig1_layer(n_layers);

    let tc = TrainConfig::default();
    let ik = p.run(&MethodKind::default_infuserki(n_layers), &tc);
    eprintln!("[fig1] training full fine-tune…");
    let mut ft = FullFineTune::new(p.world.base.clone());
    ft.train(&p.data.qa, tc.epochs_qa, tc.lr, tc.batch, tc.seed);

    // Balanced probe set.
    let take = 60.min(p.known.len()).min(p.unknown.len());
    let mut indices: Vec<usize> = p.known.iter().take(take).copied().collect();
    indices.extend(p.unknown.iter().take(take));
    let labels: Vec<bool> = (0..indices.len()).map(|i| i < take).collect();

    let w = &p.world;
    let vanilla = hidden_states_for(&w.base, &NoHook, &w.tokenizer, &w.bank, &indices, layer);
    let tuned = hidden_states_for(ft.model(), &NoHook, &w.tokenizer, &w.bank, &indices, layer);
    let infused = hidden_states_for(
        &w.base,
        ik.hook.as_ref(),
        &w.tokenizer,
        &w.bank,
        &indices,
        layer,
    );

    // Drift of *known*-sample representations away from the vanilla model —
    // the quantitative core of the figure: fine-tuning displaces them,
    // InfuserKI barely moves them.
    let drift = |states: &[Vec<f32>]| {
        let mut total = 0.0f32;
        let mut count = 0;
        for (i, s) in states.iter().enumerate() {
            if labels[i] {
                total += l2(s, &vanilla[i]);
                count += 1;
            }
        }
        total / count.max(1) as f32
    };
    let drift_ft = drift(&tuned);
    let drift_ik = drift(&infused);

    let mut csv = String::from("panel,index,known,x,y\n");
    let mut silhouettes = Vec::new();
    for (panel, states) in [
        ("vanilla", &vanilla),
        ("finetuned", &tuned),
        ("infuserki", &infused),
    ] {
        let proj = tsne(states, 20.0, 300, args.seed);
        silhouettes.push((
            panel,
            infuserki_eval::statistics::silhouette_2d(&proj, &labels),
        ));
        for (i, (x, y)) in proj.iter().enumerate() {
            let _ = writeln!(csv, "{panel},{i},{},{x},{y}", labels[i]);
        }
    }
    let _ = std::fs::create_dir_all("results");
    let _ = std::fs::write("results/fig1.csv", &csv);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "## Fig. 1 — layer-{} representation drift (t-SNE coords in results/fig1.csv)",
        layer + 1
    );
    let _ = writeln!(
        out,
        "mean L2 drift of known-sample representations vs. vanilla:"
    );
    let _ = writeln!(out, "  fine-tuned : {drift_ft:.4}");
    let _ = writeln!(out, "  InfuserKI  : {drift_ik:.4}");
    let _ = writeln!(
        out,
        "shape check (paper: fine-tuning scrambles known representations, InfuserKI preserves them): {}",
        if drift_ft > drift_ik { "HOLDS" } else { "INVERTED" }
    );
    let _ = writeln!(out, "known/unknown silhouette of each t-SNE panel:");
    for (panel, s) in silhouettes {
        let _ = writeln!(out, "  {panel:<10} {s:.3}");
    }
    save_text("fig1", &out);
    out
}

fn l2(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f32>()
        .sqrt()
}

/// Fig. 5 — adapter-position sweep: bottom/middle/top FFN thirds, attention
/// layers, and the full FFN range.
pub fn fig5(args: Args, studies: &mut Studies) -> String {
    let n = args.scale.pick(120, 300, 2500);
    let p = studies.get(&WorldConfig::new(Domain::Umls, n, args.seed));
    let n_layers = p.world.base.n_layers();

    let mut out = String::new();
    let _ = writeln!(out, "## Fig. 5 — impact of adapter positions (paper layer ranges mapped to {n_layers}-layer model)");
    let _ = writeln!(
        out,
        "{:<12} {:>5} {:>5} {:>9}",
        "Placement", "NR", "RR", "F1_Unseen"
    );
    for (name, placement) in placement_rows(n_layers) {
        eprintln!("[fig5] placement {name}");
        let mut cfg = InfuserKiConfig::for_model(n_layers);
        cfg.placement = placement;
        let eval = &p
            .run(&MethodKind::InfuserKi(cfg), &TrainConfig::default())
            .eval;
        let _ = writeln!(
            out,
            "{:<12} {:>5.2} {:>5.2} {:>9.2}",
            name, eval.nr, eval.rr, eval.f1_unseen
        );
    }
    save_text("fig5", &out);
    out
}

/// Fig. 6 — infusing scores per layer for known vs. unknown samples.
pub fn fig6(args: Args, studies: &mut Studies) -> String {
    let n = args.scale.pick(120, 300, 2500);
    let p = studies.get(&WorldConfig::new(Domain::Umls, n, args.seed));
    let ik = p.run(
        &MethodKind::default_infuserki(p.world.base.n_layers()),
        &TrainConfig::default(),
    );
    let hook = ik.hook.as_ref();

    let cap = 80;
    let known: Vec<usize> = p.known.iter().take(cap).copied().collect();
    let unknown: Vec<usize> = p.unknown.iter().take(cap).copied().collect();
    let w = &p.world;
    let prof_known = gate_profile(&w.base, hook, &w.tokenizer, &w.bank, &known);
    let prof_unknown = gate_profile(&w.base, hook, &w.tokenizer, &w.bank, &unknown);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "## Fig. 6 — infusing scores r^l, known vs. unknown samples"
    );
    let _ = writeln!(out, "{:<7} {:>10} {:>10}", "layer", "known", "unknown");
    let mut mean_known = 0.0;
    let mut mean_unknown = 0.0;
    let mut csv = String::from("layer,known,unknown\n");
    for (i, &(layer, k)) in prof_known.iter().enumerate() {
        let u = prof_unknown[i].1;
        let _ = writeln!(out, "{:<7} {:>10.3} {:>10.3}", layer + 1, k, u);
        let _ = writeln!(csv, "{},{k},{u}", layer + 1);
        mean_known += k;
        mean_unknown += u;
    }
    let nl = prof_known.len().max(1) as f32;
    mean_known /= nl;
    mean_unknown /= nl;
    let _ = writeln!(
        out,
        "mean: known {mean_known:.3}, unknown {mean_unknown:.3} — shape check (paper: scores lower on known samples): {}",
        if mean_unknown > mean_known { "HOLDS" } else { "INVERTED" }
    );
    let _ = std::fs::create_dir_all("results");
    let _ = std::fs::write("results/fig6.csv", csv);
    save_text("fig6", &out);
    out
}

/// Fig. 7 — case study: option probability distributions for the base model,
/// LoRA, and InfuserKI on (a) an injected fact and (b) a retained fact LoRA
/// forgets.
pub fn fig7(args: Args, studies: &mut Studies) -> String {
    let n = args.scale.pick(120, 300, 2500);
    let p = studies.get(&WorldConfig::new(Domain::Umls, n, args.seed));
    let tc = TrainConfig::default();
    let vanilla = p.run(&MethodKind::Vanilla, &tc);
    let lora = p.run(&MethodKind::Lora, &tc);
    let ik = p.run(&MethodKind::default_infuserki(p.world.base.n_layers()), &tc);
    let w = &p.world;

    let (base_outs, lora_outs, ik_outs) =
        (&vanilla.outcomes[0], &lora.outcomes[0], &ik.outcomes[0]);
    let ok = |outs: &[McqOutcome], i: usize| outs[i].correct();

    // Case (a): initially unknown, now answered correctly by LoRA and InfuserKI.
    let case_a = p
        .unknown
        .iter()
        .copied()
        .find(|&i| ok(lora_outs, i) && ok(ik_outs, i))
        .or_else(|| p.unknown.iter().copied().find(|&i| ok(ik_outs, i)))
        .unwrap_or(*p.unknown.first().unwrap_or(&0));
    // Case (b): initially known; LoRA forgets, InfuserKI remembers.
    let case_b = p
        .known
        .iter()
        .copied()
        .find(|&i| ok(base_outs, i) && !ok(lora_outs, i) && ok(ik_outs, i))
        .or_else(|| {
            p.known
                .iter()
                .copied()
                .find(|&i| ok(base_outs, i) && !ok(lora_outs, i))
        })
        .unwrap_or(*p.known.first().unwrap_or(&0));

    let cases = [("(a) injected fact", case_a), ("(b) retained fact", case_b)];
    // Both case MCQs score in one batched pass per method.
    let case_mcqs: Vec<_> = cases
        .iter()
        .map(|&(_, i)| w.bank.mcq(0, i).clone())
        .collect();
    let rows = [("Vanilla", &vanilla), ("LoRA", &lora), ("InfuserKI", &ik)].map(|(name, run)| {
        let model = run.model(&w.base);
        let probs = option_probs_many(model, run.hook.as_ref(), &w.tokenizer, &case_mcqs);
        (name, probs)
    });

    let mut out = String::new();
    let _ = writeln!(out, "## Fig. 7 — case study (option probabilities)");
    for (ci, &(label, _)) in cases.iter().enumerate() {
        let mcq = &case_mcqs[ci];
        let _ = writeln!(out, "\n{label}: {}", mcq.question);
        for (i, opt) in mcq.options.iter().enumerate() {
            let star = if i == mcq.correct { "*" } else { " " };
            let _ = writeln!(out, "  {star}({}) {opt}", (b'a' + i as u8) as char);
        }
        for (name, probs_all) in &rows {
            let probs = probs_all[ci];
            let _ = writeln!(
                out,
                "  {name:<10} a {:.3}  b {:.3}  c {:.3}  d {:.3}",
                probs[0], probs[1], probs[2], probs[3]
            );
        }
    }
    save_text("fig7", &out);
    out
}
