//! Regenerates **Table 3**: the UMLS scale-up (paper: 25,000 triplets, 10×
//! Table 1); model-editing methods should degrade while InfuserKI holds.

fn main() {
    let args = infuserki_bench::parse_args(std::env::args().skip(1));
    let report = infuserki_bench::tables::table3(args, &mut Default::default());
    print!("{}", report.render());
}
