//! Runs every table and figure in sequence and writes the combined report to
//! `results/all_experiments.md`. One set of studies serves every view, so
//! each world is built and detected once and each method trains once per
//! world and schedule.

use std::fmt::Write as _;
use std::time::Instant;

use infuserki_bench::{extensions, figs, tables, Args, Studies};

/// A table or figure: renders its text from the shared studies.
type View = fn(Args, &mut Studies) -> String;

fn main() {
    let args = infuserki_bench::parse_args(std::env::args().skip(1));
    let mut studies = Studies::default();
    let mut combined = String::from("# InfuserKI reproduction — full experiment run\n\n");
    let started = Instant::now();

    let views: [(&str, View); 9] = [
        ("table1", |a, s| tables::table1(a, s).render()),
        ("table2", |a, s| tables::table2(a, s).render()),
        ("table3", |a, s| tables::table3(a, s).render()),
        ("table4", |a, s| tables::table4(a, s).render()),
        ("fig1", figs::fig1),
        ("fig5", figs::fig5),
        ("fig6", figs::fig6),
        ("fig7", figs::fig7),
        ("ext", extensions::extensions),
    ];
    for (name, view) in views {
        let t = Instant::now();
        let text = view(args, &mut studies);
        let _ = writeln!(combined, "{text}");
        let _ = writeln!(
            combined,
            "_{name} took {:.0}s_\n",
            t.elapsed().as_secs_f32()
        );
        println!("{text}");
    }
    let _ = writeln!(
        combined,
        "\n_total wall time: {:.0}s_",
        started.elapsed().as_secs_f32()
    );
    let _ = std::fs::create_dir_all("results");
    let _ = std::fs::write("results/all_experiments.md", combined);
    eprintln!("[run_all] wrote results/all_experiments.md");
}
