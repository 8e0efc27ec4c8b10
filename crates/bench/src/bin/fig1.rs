//! Regenerates **Fig. 1**: t-SNE of mid-depth hidden representations for the
//! vanilla, fully fine-tuned, and InfuserKI models (CSV + drift metric).

fn main() {
    let args = infuserki_bench::parse_args(std::env::args().skip(1));
    let text = infuserki_bench::figs::fig1(args, &mut Default::default());
    print!("{text}");
}
