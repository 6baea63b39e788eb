//! Every bench binary has a strict command line: `--help` prints its usage
//! and exits 0, and an unknown flag exits 2 before any work starts.

use std::process::Command;

const BINS: [&str; 15] = [
    env!("CARGO_BIN_EXE_ablation_arbitration"),
    env!("CARGO_BIN_EXE_ablation_fifo_depth"),
    env!("CARGO_BIN_EXE_ablation_is_layout"),
    env!("CARGO_BIN_EXE_ablation_stack_mode"),
    env!("CARGO_BIN_EXE_ccf_campaign"),
    env!("CARGO_BIN_EXE_diversity_magnitude"),
    env!("CARGO_BIN_EXE_kernel_stats"),
    env!("CARGO_BIN_EXE_overheads"),
    env!("CARGO_BIN_EXE_prove_soundness"),
    env!("CARGO_BIN_EXE_staggering_trace"),
    env!("CARGO_BIN_EXE_static_vs_dynamic"),
    env!("CARGO_BIN_EXE_sweep_mem_intensity"),
    env!("CARGO_BIN_EXE_table1"),
    env!("CARGO_BIN_EXE_table2_taxonomy"),
    env!("CARGO_BIN_EXE_transform_diversity"),
];

fn run(bin: &str, arg: &str) -> std::process::Output {
    Command::new(bin).arg(arg).output().unwrap_or_else(|e| panic!("cannot run {bin}: {e}"))
}

#[test]
fn help_prints_usage_and_exits_zero() {
    for bin in BINS {
        let out = run(bin, "--help");
        assert_eq!(out.status.code(), Some(0), "{bin} --help");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("usage: "), "{bin} --help printed {stdout:?}");
    }
}

#[test]
fn unknown_flag_exits_two() {
    for bin in BINS {
        let out = run(bin, "--bogus-flag");
        assert_eq!(out.status.code(), Some(2), "{bin} --bogus-flag");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown argument `--bogus-flag`"), "{bin}: {stderr:?}");
    }
}
