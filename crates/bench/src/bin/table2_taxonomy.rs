//! Regenerates **Table II** of the paper as a quantitative comparison: the
//! three classes of non-lockstepped redundant execution, measured head to
//! head on the same kernels.
//!
//! * **Diversity unaware** — plain redundancy: zero overhead, but no
//!   evidence about CCF exposure.
//! * **Diversity enforced (intrusive)** — SafeDE: staggering guaranteed by
//!   stalling the trail core, measured as slowdown and stall cycles.
//! * **Diversity monitored (non-intrusive)** — SafeDM: zero slowdown, and
//!   quantified diversity evidence.
//!
//! Usage: `cargo run -p safedm-bench --bin table2_taxonomy --release
//! [--jobs N] [--events-out PATH] [--events-timing] [--progress]`

use safedm_bench::args;
use safedm_bench::experiments::{run_cells_with_telemetry, Telemetry};
use safedm_core::{MonitoredSoc, ReportMode, SafeDe, SafeDeConfig, SafeDmConfig};
use safedm_obs::events::CellEvent;
use safedm_soc::SocConfig;
use safedm_tacle::{build_kernel_program, kernels, HarnessConfig};

struct Row {
    name: &'static str,
    plain_cycles: u64,
    safede_cycles: u64,
    safede_stalls: u64,
    safedm_cycles: u64,
    no_div: u64,
    zero_stag: u64,
}

fn run_plain(prog: &safedm_asm::Program) -> u64 {
    let mut soc = safedm_soc::MpSoc::new(SocConfig::default());
    soc.load_program(prog);
    let r = soc.run(200_000_000);
    assert!(r.all_clean());
    r.cycles
}

fn run_safede(prog: &safedm_asm::Program, threshold: u64) -> (u64, u64) {
    let mut sys = MonitoredSoc::new(SocConfig::default(), SafeDmConfig::default());
    sys.load_program(prog);
    sys.attach_safede(SafeDe::new(SafeDeConfig { threshold, ..SafeDeConfig::default() }));
    let out = sys.run(400_000_000);
    assert!(out.run.all_clean());
    let de = sys.safede().expect("attached");
    (out.run.cycles, de.stall_cycles())
}

fn run_safedm(prog: &safedm_asm::Program) -> (u64, u64, u64) {
    let dm = SafeDmConfig { report_mode: ReportMode::Polling, ..SafeDmConfig::default() };
    let mut sys = MonitoredSoc::new(SocConfig::default(), dm);
    sys.load_program(prog);
    let out = sys.run(200_000_000);
    assert!(out.run.all_clean());
    (out.run.cycles, out.no_div_cycles, out.zero_stag_cycles)
}

const USAGE: &str = "usage: table2_taxonomy [--jobs N] [--events-out PATH] [--events-timing] \
    [--progress]";
const VALUED: &[&str] = &["--jobs", "--events-out"];
const BARE: &[&str] = &["--events-timing", "--progress"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    args::check_or_exit(&args, USAGE, VALUED, BARE);
    let jobs = args::jobs(&args);
    let telemetry = Telemetry::from_args(&args);
    let names = ["bitcount", "fac", "iir", "insertsort", "pm", "quicksort", "md5", "fft"];
    let threshold = 200u64;
    // One campaign cell per kernel (each cell runs all three techniques);
    // ordered collection keeps the table identical for any --jobs N.
    let rows = run_cells_with_telemetry(
        jobs,
        &telemetry,
        &names,
        |name| (*name).to_owned(),
        |_, &name| {
            let k = kernels::by_name(name).expect("kernel exists");
            let prog = build_kernel_program(k, &HarnessConfig::default());
            let plain = run_plain(&prog);
            let (dec, stalls) = run_safede(&prog, threshold);
            let (dmc, no_div, zero_stag) = run_safedm(&prog);
            Row {
                name,
                plain_cycles: plain,
                safede_cycles: dec,
                safede_stalls: stalls,
                safedm_cycles: dmc,
                no_div,
                zero_stag,
            }
        },
        |index, &name, r| CellEvent {
            index,
            kernel: name.to_owned(),
            config: "taxonomy".to_owned(),
            run: 0,
            seed: 0,
            cycles: r.safedm_cycles,
            guarded: r.safedm_cycles,
            zero_stag: r.zero_stag,
            no_div: r.no_div,
            episodes: 0,
            violations: 0,
            ok: true,
            wall_us: None,
        },
    );

    println!("TABLE II (quantified): non-lockstepped redundant execution techniques");
    println!();
    println!(
        "{:<12} {:>10} | {:>10} {:>9} {:>8} | {:>10} {:>9} {:>9} {:>9}",
        "", "unaware", "SafeDE", "stalls", "slowdn", "SafeDM", "slowdn", "zero-stag", "no-div"
    );
    println!(
        "{:<12} {:>10} | {:>10} {:>9} {:>8} | {:>10} {:>9} {:>9} {:>9}",
        "benchmark", "cycles", "cycles", "cycles", "%", "cycles", "%", "cycles", "cycles"
    );
    let mut max_dm_slow = 0f64;
    for r in &rows {
        let de_slow = (r.safede_cycles as f64 / r.plain_cycles as f64 - 1.0) * 100.0;
        let dm_slow = (r.safedm_cycles as f64 / r.plain_cycles as f64 - 1.0) * 100.0;
        max_dm_slow = max_dm_slow.max(dm_slow.abs());
        println!(
            "{:<12} {:>10} | {:>10} {:>9} {:>8.2} | {:>10} {:>9.2} {:>9} {:>9}",
            r.name,
            r.plain_cycles,
            r.safede_cycles,
            r.safede_stalls,
            de_slow,
            r.safedm_cycles,
            dm_slow,
            r.zero_stag,
            r.no_div
        );
    }
    println!();
    println!("taxonomy (paper's Table II):");
    println!("  diversity unaware      : no CCF evidence, no overhead");
    println!("  diversity enforced     : SafeDE — intrusive (stalls the trail core; threshold {threshold} insts)");
    println!("  diversity monitored    : SafeDM — non-intrusive (max |slowdown| {max_dm_slow:.3}%), evidence via counters");
    assert!(max_dm_slow < 0.01, "SafeDM must not perturb execution");
    println!("\nnon-intrusiveness check passed: SafeDM slowdown is exactly 0");
}
