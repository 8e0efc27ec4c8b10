//! Runs the extension suite: GRACE vs. InfuserKI, classic forgetting
//! mitigations (EWC/replay/distillation), and 2-hop compositional QA.

fn main() {
    let args = infuserki_bench::parse_args(std::env::args().skip(1));
    let text = infuserki_bench::extensions::extensions(args, &mut Default::default());
    print!("{text}");
}
