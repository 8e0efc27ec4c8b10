//! Regenerates **Fig. 5**: the adapter-position sweep (bottom/middle/top FFN
//! thirds, attention layers, full FFN range).

fn main() {
    let args = infuserki_bench::parse_args(std::env::args().skip(1));
    let text = infuserki_bench::figs::fig5(args, &mut Default::default());
    print!("{text}");
}
