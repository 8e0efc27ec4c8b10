//! Facade surface checks and analysis-path integration: probes, projections,
//! downstream builders, and checkpoint round-trips through the public API.

use infuserki::eval::probes::{fig1_layer, hidden_states_for, option_probs_many};
use infuserki::eval::projection::{pca, tsne};
use infuserki::eval::world::{build_world_in, Domain, WorldConfig};
use infuserki::kg::{synth_metaqa, synth_umls, KgStats, MetaQaConfig, UmlsConfig};
use infuserki::nn::{NoHook, TransformerLm};
use infuserki::text::{levenshtein, Tokenizer};

#[test]
fn facade_reexports_are_usable() {
    // kg
    let store = synth_umls(&UmlsConfig::with_triplets(50, 1));
    assert_eq!(store.len(), 50);
    let movie = synth_metaqa(&MetaQaConfig::with_triplets(60, 1));
    assert_eq!(movie.n_relations(), 9);
    let stats = KgStats::of(&store);
    assert_eq!(stats.n_triples, 50);
    // text
    assert_eq!(levenshtein("graph", "grape"), 1);
    let tok = Tokenizer::build(["hello world"]);
    assert_eq!(tok.encode_strict("world hello").len(), 2);
    // tensor
    let m = infuserki::tensor::Matrix::scalar(3.0);
    assert_eq!(m.scalar_value(), 3.0);
}

#[test]
fn analysis_paths_work_end_to_end() {
    let dir = std::env::temp_dir().join(format!("infuserki_facade_{}", std::process::id()));
    let w = build_world_in(&WorldConfig::tiny(Domain::Umls, 401), &dir);

    // Hidden-state capture + projection.
    let layer = fig1_layer(w.base.n_layers());
    let idx: Vec<usize> = (0..12).collect();
    let states = hidden_states_for(&w.base, &NoHook, &w.tokenizer, &w.bank, &idx, layer);
    assert_eq!(states.len(), 12);
    let proj2 = pca(&states, 2, 0);
    assert_eq!(proj2[0].len(), 2);
    let coords = tsne(&states, 4.0, 60, 0);
    assert!(coords.iter().all(|(x, y)| x.is_finite() && y.is_finite()));

    // Case-study probabilities.
    let p = option_probs_many(&w.base, &NoHook, &w.tokenizer, &[w.bank.mcq(0, 0).clone()])[0];
    assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-4);

    // Checkpoint round-trip through the facade path.
    let ckpt = dir.join("roundtrip.json");
    w.base.save(&ckpt).unwrap();
    let loaded = TransformerLm::load(&ckpt).unwrap();
    assert_eq!(loaded.config(), w.base.config());
    let _ = std::fs::remove_dir_all(dir);
}

/// The docs quote only targets that exist: every `--bin X` / `--bench X` /
/// `--example X` in the four documents has a source file, and every file
/// under `results/` is named in `results/README.md`.
#[test]
fn docs_quote_only_targets_and_results_that_exist() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let read =
        |p: &str| std::fs::read_to_string(root.join(p)).unwrap_or_else(|e| panic!("{p}: {e}"));
    let crates = std::fs::read_dir(root.join("crates")).unwrap();
    let mut packages: Vec<_> = crates.map(|e| e.unwrap().path()).collect();
    packages.push(root.to_path_buf());
    for doc in [
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        "results/README.md",
    ] {
        let text = read(doc);
        // Whitespace tokens, so a target wrapped onto the next line still counts.
        let mut toks = text.split_whitespace();
        while let Some(tok) = toks.next() {
            let dir = match tok.trim_start_matches(|c| c != '-') {
                "--bin" => "src/bin",
                "--bench" => "benches",
                "--example" => "examples",
                _ => continue,
            };
            let next = toks.next().unwrap_or("");
            let name: String = next
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            let file = format!("{name}.rs");
            // `--bin <name>` is a placeholder, not a target.
            assert!(
                next.starts_with('<') || packages.iter().any(|p| p.join(dir).join(&file).is_file()),
                "{doc} quotes `{tok} {name}`, which has no source file"
            );
        }
    }
    // Named by its own stem (`table1`) or as a numbered family (`BENCH_<pr>`).
    let index = read("results/README.md");
    for entry in std::fs::read_dir(root.join("results")).unwrap() {
        let file = entry.unwrap().file_name().into_string().unwrap();
        let stem = file.split('.').next().unwrap();
        let family = format!("{}<", stem.trim_end_matches(|c: char| c.is_ascii_digit()));
        assert!(
            file == "README.md" || index.contains(stem) || index.contains(&family),
            "results/{file} is not named in results/README.md"
        );
    }
}
