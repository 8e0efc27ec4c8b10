//! # infuserki-bench
//!
//! The benchmark harness: a shared experiment [`runner`] plus one binary per
//! table and figure of the paper (see `DESIGN.md` §4 for the index):
//!
//! | binary   | regenerates                                   |
//! |----------|-----------------------------------------------|
//! | `table1` | Table 1 — UMLS 2.5k-scale method comparison   |
//! | `table2` | Table 2 — MetaQA method comparison            |
//! | `table3` | Table 3 — UMLS 25k-scale (10×) scale-up       |
//! | `table4` | Table 4 — ablation study                      |
//! | `fig1`   | Fig. 1 — t-SNE of 10th-layer representations  |
//! | `fig5`   | Fig. 5 — adapter-position sweep               |
//! | `fig6`   | Fig. 6 — infusing scores known vs. unknown    |
//! | `fig7`   | Fig. 7 — case-study option probabilities      |
//! | `run_all`| everything above, into `results/all_experiments.md` |
//!
//! `perf_suite` is CI's ratio gate: within-run ratios only, no arguments, no
//! committed baseline. Speed itself — tok/s, latency, CPU per request — is
//! measured at the wire by the system benchmark (`benchmark/`,
//! `BENCHMARK.json`) and recorded as paired runs in `results/BENCH_<pr>.json`,
//! not here.

pub mod cli;
pub mod extensions;
pub mod figs;
pub mod runner;
pub mod tables;

pub use cli::{parse_args, Args, Scale};
pub use runner::{ExperimentReport, MethodKind, MethodResult, Studies};
