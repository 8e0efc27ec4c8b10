//! Regenerates **Table 2**: the method comparison on the MetaQA-style movie
//! KG (paper: 2,900 triplets) with the 1-hop QA downstream task.

fn main() {
    let args = infuserki_bench::parse_args(std::env::args().skip(1));
    let report = infuserki_bench::tables::table2(args, &mut Default::default());
    print!("{}", report.render());
}
