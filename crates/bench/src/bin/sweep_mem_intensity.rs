//! **Extension E2**: natural diversity as a function of memory intensity.
//!
//! The paper attributes natural diversity to serialisation at shared
//! resources; the synthetic-workload generator lets us turn that knob
//! continuously. Sweeping the fraction of memory operations from 0 % (pure
//! register compute, cores stay in lockstep) to high percentages (constant
//! private-memory traffic, cores diverge almost immediately) produces the
//! mechanism curve behind Table I.
//!
//! The (percent, seed) cells run on the `safedm-campaign` pool; per-percent
//! averages fold in cell order, so the table is identical for any
//! `--jobs N`.
//!
//! Usage: `cargo run -p safedm-bench --bin sweep_mem_intensity --release
//! [--jobs N] [--events-out PATH] [--events-timing] [--progress]`

use std::fmt::Write as _;

use safedm_bench::args;
use safedm_bench::experiments::{run_cells_with_telemetry, Telemetry};
use safedm_core::{MonitoredSoc, ReportMode, SafeDmConfig};
use safedm_obs::events::CellEvent;
use safedm_soc::SocConfig;
use safedm_tacle::{build_synthetic, StackMode, SynthConfig};

const PERCENTS: [u32; 8] = [0, 2, 5, 10, 20, 40, 60, 80];
const SEEDS: u64 = 3;

const USAGE: &str = "usage: sweep_mem_intensity [--jobs N] [--events-out PATH] \
    [--events-timing] [--progress]";
const VALUED: &[&str] = &["--jobs", "--events-out"];
const BARE: &[&str] = &["--events-timing", "--progress"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    args::check_or_exit(&args, USAGE, VALUED, BARE);
    let jobs = args::jobs(&args);
    let telemetry = Telemetry::from_args(&args);

    // One campaign cell per (mem-percent, generator-seed) pair.
    let cells: Vec<(u32, u64)> =
        PERCENTS.iter().flat_map(|&p| (0..SEEDS).map(move |s| (p, s))).collect();
    let outs = run_cells_with_telemetry(
        jobs,
        &telemetry,
        &cells,
        |_| "synthetic".to_owned(),
        |_, &(percent, seed)| {
            let prog = build_synthetic(
                &SynthConfig::with_mem_percent(percent, 11 + seed),
                None,
                StackMode::Mirrored,
            );
            let mut sys = MonitoredSoc::new(
                SocConfig::default(),
                SafeDmConfig { report_mode: ReportMode::Polling, ..SafeDmConfig::default() },
            );
            sys.load_program(&prog);
            let out = sys.run(400_000_000);
            assert!(out.run.all_clean(), "mem {percent}%: {:?}", out.run.exits);
            let episodes = sys.monitor().no_diversity_history().total_episodes();
            (out.run.cycles, out.zero_stag_cycles, out.no_div_cycles, out.cycles_observed, episodes)
        },
        |index, &(percent, seed), &(cycles, zero_stag, no_div, observed, episodes)| CellEvent {
            index,
            kernel: "synthetic".to_owned(),
            config: format!("mem={percent}%"),
            run: seed,
            seed: 11 + seed,
            cycles,
            guarded: observed,
            zero_stag,
            no_div,
            episodes,
            violations: 0,
            ok: true,
            wall_us: None,
        },
    );

    // Fold per-seed results back into per-percent averages, in sweep order.
    let mut rows = String::new();
    for (i, &percent) in PERCENTS.iter().enumerate() {
        let mut totals = (0u64, 0u64, 0u64, 0u64);
        for out in &outs[i * SEEDS as usize..(i + 1) * SEEDS as usize] {
            totals.0 += out.0;
            totals.1 += out.1;
            totals.2 += out.2;
            totals.3 += out.3;
        }
        let share = totals.2 as f64 / totals.3.max(1) as f64 * 100.0;
        let _ = writeln!(
            rows,
            "{:>7} {:>10} {:>10} {:>10} {:>10} {:>8.2}%",
            percent,
            totals.0 / SEEDS,
            totals.1 / SEEDS,
            totals.2 / SEEDS,
            totals.3 / SEEDS,
            share
        );
    }
    println!("EXTENSION E2: diversity vs memory intensity (synthetic kernels)");
    println!();
    println!(
        "{:>7} {:>10} {:>10} {:>10} {:>10} {:>9}",
        "mem %", "cycles", "zero-stag", "no-div", "observed", "no-div %"
    );
    print!("{rows}");
    println!();
    println!(
        "two regimes emerge:\n\
         * 0% memory keeps bit-identical cores in cycle lockstep (no-div ≈ 100%);\n\
           the first few percent of private-memory traffic collapse it — natural\n\
           diversity is driven by shared-resource serialisation, the paper's\n\
           Section V-C mechanism.\n\
         * at extreme memory-boundedness the shared bus paces both cores: they\n\
           spend most cycles frozen waiting on alternating grants, partially\n\
           re-coupling (no-div creeps back up) — a regime worth monitoring for,\n\
           and invisible to staggering-enforcement schemes that only count\n\
           committed instructions."
    );
}
