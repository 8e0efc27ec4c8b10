//! Incremental KG updates: integrate knowledge in arriving batches, skipping
//! whatever the patched model already answers — the paper's data-efficiency
//! story ("integrate unknown knowledge only") applied over time.
//!
//! ```text
//! cargo run --release --example incremental_updates
//! ```

use infuserki::core::dataset::McqBank;
use infuserki::core::detect::detect_unknown;
use infuserki::core::{integrate_more, InfuserKiConfig, InfuserKiMethod, TrainConfig};
use infuserki::eval::world::{build_world, Domain, WorldConfig};
use infuserki::kg::Triple;
use infuserki::nn::NoHook;

fn main() {
    let mut cfg = WorldConfig::new(Domain::Umls, 150, 31);
    cfg.d_model = 48;
    cfg.n_layers = 8;
    cfg.d_ff = 128;
    cfg.pretrain_epochs = 20;
    let world = build_world(&cfg);

    let mut method = InfuserKiMethod::new(
        InfuserKiConfig::for_model(world.base.n_layers()),
        &world.base,
        world.store.n_relations(),
    );
    let tc = TrainConfig::default();

    // The KG "arrives" in three batches; batch 3 overlaps batch 2 to show
    // the skip-known behaviour.
    let triples = world.store.triples();
    let batches: Vec<Vec<Triple>> = vec![
        triples[0..50].to_vec(),
        triples[50..100].to_vec(),
        triples[75..150].to_vec(), // 25 repeats + 50 new
    ];

    for (i, batch) in batches.iter().enumerate() {
        // Each round builds its batch's MCQ bank once; `integrate_more`
        // detects and trains on it, and a caller can phrase probes from it.
        let bank = McqBank::build(&world.store, batch, tc.seed ^ 0x1c2e);
        let report = integrate_more(
            &world.base,
            &mut method,
            &world.store,
            &bank,
            &world.tokenizer,
            &tc,
        );
        println!(
            "batch {}: presented {}, already known {}, newly integrated {}",
            i + 1,
            report.presented,
            report.already_known,
            report.newly_integrated
        );
    }

    // Final check over the whole graph.
    let bank = McqBank::build(&world.store, world.store.triples(), 99);
    let final_det = detect_unknown(
        &world.base,
        &method.hook(),
        &world.tokenizer,
        bank.template(0),
    );
    let base_det = detect_unknown(&world.base, &NoHook, &world.tokenizer, bank.template(0));
    println!(
        "\nwhole-graph known rate: base {:.2} → after incremental integration {:.2}",
        base_det.known_rate(),
        final_det.known_rate()
    );
}
