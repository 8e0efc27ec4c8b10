//! Library entry points for the four tables (shared by the per-table
//! binaries and `run_all`).

use infuserki_core::InfuserKiConfig;
use infuserki_eval::world::{Domain, WorldConfig};

use crate::cli::Args;
use crate::runner::{
    run_experiment, save_report, ExperimentConfig, ExperimentReport, MethodKind, Studies,
};

/// Table 1 — UMLS 2.5k-scale method comparison.
pub fn table1(args: Args, studies: &mut Studies) -> ExperimentReport {
    let n = args.scale.pick(120, 300, 2500);
    let world = WorldConfig::new(Domain::Umls, n, args.seed);
    let cfg = ExperimentConfig::standard(world);
    let report = run_experiment("Table 1 — UMLS 2.5k-scale", &cfg, studies);
    save_report(&report, "table1");
    report
}

/// Table 2 — MetaQA method comparison.
pub fn table2(args: Args, studies: &mut Studies) -> ExperimentReport {
    let n = args.scale.pick(120, 300, 2900);
    let world = WorldConfig::new(Domain::MetaQa, n, args.seed);
    let cfg = ExperimentConfig::standard(world);
    let report = run_experiment("Table 2 — MetaQA KG", &cfg, studies);
    save_report(&report, "table2");
    report
}

/// Table 3 — UMLS 10× scale-up.
pub fn table3(args: Args, studies: &mut Studies) -> ExperimentReport {
    let n = args.scale.pick(240, 900, 25_000);
    let world = WorldConfig::new(Domain::Umls, n, args.seed);
    let mut cfg = ExperimentConfig::standard(world);
    // Larger corpus, fewer epochs: flat wall-time, like the paper's fixed
    // per-epoch budget.
    cfg.train.epochs_qa = cfg.train.epochs_qa.saturating_sub(1).max(2);
    let report = run_experiment("Table 3 — UMLS 25k-scale (10x Table 1)", &cfg, studies);
    save_report(&report, "table3");
    report
}

/// Table 4 — ablation study.
pub fn table4(args: Args, studies: &mut Studies) -> ExperimentReport {
    let n = args.scale.pick(120, 300, 2500);
    let world = WorldConfig::new(Domain::Umls, n, args.seed);

    let full = InfuserKiConfig::for_model(world.n_layers);
    let mut wo_rl = full.clone();
    wo_rl.ablation.infuser_pretrain = false;
    let mut wo_ro = full.clone();
    wo_ro.ablation.use_infuser = false;
    let mut wo_rc = full.clone();
    wo_rc.ablation.use_rc = false;

    let mut cfg = ExperimentConfig::standard(world);
    cfg.methods = vec![
        MethodKind::InfuserKi(full),
        MethodKind::InfuserKi(wo_rl),
        MethodKind::InfuserKi(wo_ro),
        MethodKind::InfuserKi(wo_rc),
    ];
    let report = run_experiment("Table 4 — Ablation study (UMLS)", &cfg, studies);
    save_report(&report, "table4");
    report
}
