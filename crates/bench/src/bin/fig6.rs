//! Regenerates **Fig. 6**: per-layer infusing scores for known vs. unknown
//! samples.

fn main() {
    let args = infuserki_bench::parse_args(std::env::args().skip(1));
    let text = infuserki_bench::figs::fig6(args, &mut Default::default());
    print!("{text}");
}
