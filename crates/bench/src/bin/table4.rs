//! Regenerates **Table 4**: the ablation study — full InfuserKI vs. w/o-RL,
//! w/o-Ro and w/o-RC on the UMLS-style KG.

fn main() {
    let args = infuserki_bench::parse_args(std::env::args().skip(1));
    let report = infuserki_bench::tables::table4(args, &mut Default::default());
    print!("{}", report.render());
    println!("\nNR / RR / F1_Unseen summary:");
    for r in &report.rows {
        println!(
            "{:<18} {:.2} {:.2} {:.2}",
            r.name, r.eval.nr, r.eval.rr, r.eval.f1_unseen
        );
    }
}
