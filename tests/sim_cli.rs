//! `safedm-sim` has a strict command line: every subcommand accepts only
//! the flags it reads (plus its one positional target where it takes one).
//! Anything else prints the usage to stderr and exits 2 before any work
//! starts; `--help` prints the usage to stdout and exits 0.

use std::process::{Command, Output};

fn sim(args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_safedm-sim"))
        .args(args.split_whitespace())
        .output()
        .expect("run safedm-sim")
}

#[test]
fn unknown_arguments_exit_two_with_usage() {
    for args in [
        "--kernel fac --bogus-flag",
        "--kernel fac --engine fast",
        "campaign --engine cycle",
        "serve",
        "--kernel fac extra",
        "transform fac bitcount",
        "bench --quick extra",
        "report --events",
    ] {
        let out = sim(args);
        assert_eq!(out.status.code(), Some(2), "`{args}`");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: safedm-sim"), "`{args}`: {stderr}");
        assert!(out.stdout.is_empty(), "`{args}` did work before failing");
    }
}

#[test]
fn help_prints_usage_and_exits_zero() {
    for args in ["--help", "-h", "campaign --help", "analyze --kernel fac --help"] {
        let out = sim(args);
        assert_eq!(out.status.code(), Some(0), "`{args}`");
        assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: safedm-sim"), "`{args}`");
    }
}

/// The command lines of the README and CI. Each is checked in full and then
/// stopped by a trailing `--help`, so none of them simulates anything.
#[test]
fn documented_command_lines_pass_the_check() {
    for args in [
        "--kernel bitcount",
        "--kernel fac --stagger 100 --json",
        "my_program.s --vcd out.vcd",
        "--kernel fac --delayed-core 0 --stagger 10 --max-cycles 9 --trace 4 --vcd-cycles 8",
        "--list-kernels",
        "trace prime --cycles 20000 --out prime.trace.json",
        "trace prime --jsonl --events 10 --interval 4 --base 0x80000000",
        "stats prime --json --metrics-out prime.metrics.json",
        "stats prime --profile",
        "analyze --kernel fac",
        "analyze my_program.s --stagger 100",
        "analyze --kernel bitcount --gate --max-cycles 10",
        "analyze --kernel all --prove --stagger 100",
        "analyze --kernel all --sarif lint.sarif --baseline ci/lint-baseline.json",
        "analyze --kernel fac --deny DIV003 --warn DIV001 --allow DIV002 --write-baseline b.json",
        "analyze --prove --pair --kernel all --level 1 --seed 7",
        "transform insertsort --verify",
        "transform --kernel st --seed 7 --level 2",
        "bench --check BENCH_2026-10-17b.json --tolerance 0.1",
        "bench --out b.json --date 2026-01-01 --quick",
        "bench --history --bench-dir .",
        "campaign --kernels fac,bitcount --staggers 0,100 --runs 1 --events-out e.jsonl --progress",
        "campaign --root-seed 7 --jobs 2 --json --profile --events-timing",
        "report --events e.jsonl --metrics m.json --bench-dir . --html r.html --top 3",
        "report --events e.jsonl --tolerance 0.2",
    ] {
        let out = sim(&format!("{args} --help"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "`{args}`: {stderr}");
    }
}

/// The positional target is the argument the checker found, even when a
/// flag's value spells the same word.
#[test]
fn a_flag_value_equal_to_the_target_is_not_taken_for_it() {
    let dir = std::env::temp_dir().join(format!("safedm-sim-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_safedm-sim"))
        .current_dir(&dir)
        .args(["stats", "--metrics-out", "fac", "fac", "--cycles", "1000"])
        .output()
        .expect("run safedm-sim");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("metrics for `fac`"));
    assert!(dir.join("fac").is_file(), "metrics snapshot written to `fac`");
    let _ = std::fs::remove_dir_all(&dir);
}
