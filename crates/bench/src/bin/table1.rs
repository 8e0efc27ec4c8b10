//! Regenerates **Table 1**: InfuserKI vs. PEFT and ME methods on the
//! UMLS-style KG at the paper's 2.5k-triplet scale (scaled per `--scale`).

fn main() {
    let args = infuserki_bench::parse_args(std::env::args().skip(1));
    let report = infuserki_bench::tables::table1(args, &mut Default::default());
    print!("{}", report.render());
}
