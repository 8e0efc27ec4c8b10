//! `perf_suite` has one mode: any argument is a usage error, reported before
//! anything is measured.

use std::process::Command;

#[test]
fn any_argument_prints_usage_and_exits_2() {
    for arg in ["--check", "--help", "results/anything.json"] {
        let out = Command::new(env!("CARGO_BIN_EXE_perf_suite"))
            .arg(arg)
            .output()
            .expect("perf_suite runs");
        assert_eq!(out.status.code(), Some(2), "{arg}");
        assert!(out.stdout.is_empty(), "{arg}: no records on a usage error");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage: perf_suite"), "{arg}: {err}");
    }
}
