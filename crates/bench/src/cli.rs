//! Minimal argument parsing shared by the table/figure binaries.

/// Experiment scale preset.
///
/// `Full` matches the paper's sample sizes; `Default` preserves the paper's
/// ratios at single-core-CPU-feasible sizes; `Quick` is a smoke-test size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Smoke-test scale (about 33 s for `table1` with the base cached, one
    /// kernel thread on a 2-core host).
    Quick,
    /// CPU-budget scale (used for the recorded EXPERIMENTS.md runs).
    Default,
    /// The paper's sizes (hours on a single CPU core).
    Full,
}

impl Scale {
    /// Picks the triplet count for this scale.
    pub fn pick(&self, quick: usize, default: usize, full: usize) -> usize {
        match self {
            Scale::Quick => quick,
            Scale::Default => default,
            Scale::Full => full,
        }
    }
}

/// Parsed common CLI arguments.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Scale preset (`--scale quick|default|full`).
    pub scale: Scale,
    /// Master seed (`--seed N`).
    pub seed: u64,
}

/// Parses `--scale` and `--seed` from an iterator of CLI arguments.
/// Unknown flags abort with a usage message.
pub fn parse_args(argv: impl Iterator<Item = String>) -> Args {
    let mut args = Args {
        scale: Scale::Default,
        seed: 42,
    };
    let argv: Vec<String> = argv.collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--scale" => {
                i += 1;
                args.scale = match argv.get(i).map(String::as_str) {
                    Some("quick") => Scale::Quick,
                    Some("default") => Scale::Default,
                    Some("full") => Scale::Full,
                    other => {
                        eprintln!("unknown scale {other:?}; use quick|default|full");
                        std::process::exit(2);
                    }
                };
            }
            "--seed" => {
                i += 1;
                args.seed = argv.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--seed requires an integer");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!(
                    "unknown argument '{other}'; usage: [--scale quick|default|full] [--seed N]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }
    args
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let a = parse_args(std::iter::empty());
        assert_eq!(a.scale, Scale::Default);
        assert_eq!(a.seed, 42);
    }

    #[test]
    fn parses_scale_and_seed() {
        let a = parse_args(
            ["--scale", "quick", "--seed", "7"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(a.scale, Scale::Quick);
        assert_eq!(a.seed, 7);
    }

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Quick.pick(1, 2, 3), 1);
        assert_eq!(Scale::Default.pick(1, 2, 3), 2);
        assert_eq!(Scale::Full.pick(1, 2, 3), 3);
    }
}
