//! Regenerates **Fig. 7**: the case study — option probability tables for
//! vanilla / LoRA / InfuserKI on an injected and a retained fact.

fn main() {
    let args = infuserki_bench::parse_args(std::env::args().skip(1));
    let text = infuserki_bench::figs::fig7(args, &mut Default::default());
    print!("{text}");
}
