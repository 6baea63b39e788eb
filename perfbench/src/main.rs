//! `perfbench`: the in-process half of the repository benchmark, driven by
//! `run.py` (see README.md).
//!
//! ```text
//! perfbench setup  <workload> [--seed N]
//!     Runs the workload's set-up 8 times; prints {"setup_s": [...]}.
//! perfbench layers <workload> [--seed N] --spans PATH
//!     Runs the set-up once, then the layer split on every eleventh cell it
//!     loaded (and, for ccf, the fault campaign untraced and traced);
//!     writes the spans to PATH as JSON lines and prints the per-layer
//!     metrics and the setups the split sampled.
//! ```
//!
//! Workloads: `table1`, `ccf`, `machine_check`. Seed 0 is the paper
//! protocol's seeds.

mod ccf;
mod layers;
mod setup;
mod spans;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

use setup::{Cell, Seeds, Workload};
use spans::{self_time_by_name, Tracer};

/// Every n-th loaded cell goes through the layer split. The stride shares
/// no factor with the workloads' cells per kernel (10 in `table1`, 4 and 5
/// in `machine_check`), so the sample walks through every setup.
const SAMPLE_STRIDE: usize = 11;
/// Repetitions of `setup`. `run.py` calls it before and after the
/// regenerations and reports the median of all 16.
const SETUP_REPS: usize = 8;
/// Campaign pool size of every workload.
const JOBS: usize = 2;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn flag_u64(args: &[String], name: &str, default: u64) -> Result<u64, String> {
    flag(args, name)
        .map_or(Ok(default), |v| v.parse().map_err(|_| format!("invalid value for {name}: `{v}`")))
}

fn run(args: &[String]) -> Result<String, String> {
    let usage =
        "usage: perfbench {setup|layers} <table1|ccf|machine_check> [--seed N] [--spans PATH]";
    let (Some(cmd), Some(workload)) = (args.first(), args.get(1)) else {
        return Err(usage.to_owned());
    };
    let w = Workload::parse(workload)?;
    let seeds = Seeds::from_bench_seed(flag_u64(args, "--seed", 0)?);
    match cmd.as_str() {
        "setup" => {
            let secs: Vec<String> = (0..SETUP_REPS)
                .map(|_| {
                    let mut t = Tracer::new();
                    drop(setup::run(w, seeds, &mut t));
                    format!("{:.6}", t.spans()[0].duration_ns() as f64 / 1e9)
                })
                .collect();
            Ok(format!("{{\"setup_s\": [{}]}}", secs.join(", ")))
        }
        "layers" => {
            let path = flag(args, "--spans").ok_or("layers needs --spans PATH")?;
            let mut t = Tracer::new();
            let out = layers(w, seeds, &mut t)?;
            std::fs::write(path, t.to_jsonl()).map_err(|e| format!("{path}: {e}"))?;
            Ok(out)
        }
        _ => Err(usage.to_owned()),
    }
}

/// The traced run: set-up, layer split and (for ccf) the fault campaign.
fn layers(w: Workload, seeds: Seeds, t: &mut Tracer) -> Result<String, String> {
    let setup = setup::run(w, seeds, t);
    let sample: Vec<&Cell> = setup.cells.iter().step_by(SAMPLE_STRIDE).collect();
    let mut sampled: BTreeMap<&str, usize> =
        setup.cells.iter().map(|c| (c.setup.as_str(), 0)).collect();
    for cell in &sample {
        *sampled.get_mut(cell.setup.as_str()).expect("every cell's setup is listed") += 1;
    }
    if let Some((missing, _)) = sampled.iter().find(|(_, &n)| n == 0) {
        return Err(format!("the layer split sampled no cell of setup `{missing}`"));
    }
    let mut metrics = layers::split(&sample, t)?;

    let ccf = if w == Workload::Ccf { ccf::campaign(&setup, JOBS, t) } else { Default::default() };
    metrics.insert("faults.trials", ccf.trials as f64);
    metrics.insert("faults.prefix_share", ccf.prefix_share);

    let ns = self_time_by_name(t.spans());
    let ns_of = |name: &str| ns.get(name).copied().unwrap_or(0) as f64;
    let images = setup.images.max(1) as f64;
    metrics.insert("tacle.images", setup.images as f64);
    metrics.insert("tacle.build_us", ns_of("tacle.build") / images / 1e3);
    metrics.insert("asm.transform_ms", ns_of("asm.transform") / 1e6);
    metrics.insert("analysis.prove_ms", ns_of("analysis.prove") / 1e6);
    metrics.insert("analysis.pair_ms", ns_of("analysis.pair") / 1e6);
    metrics.insert("soc.load_us", ns_of("soc.load") / setup.cells.len().max(1) as f64 / 1e3);

    let mut json = String::from("{\"metrics\": {");
    json += &join_map(&metrics);
    let cell_ms: Vec<String> = ccf.cell_ms.iter().map(|ms| format!("{ms:.4}")).collect();
    let _ = write!(
        json,
        "}}, \"cell_ms\": [{}], \"campaign_wall_s\": {:.6}, \
         \"untraced_campaign_wall_s\": {:.6}",
        cell_ms.join(", "),
        ccf.wall_s,
        ccf.untraced_wall_s
    );
    let rows: Vec<String> = ccf
        .rows
        .iter()
        .map(|(k, v, nd)| format!("{{\"kernel\": \"{k}\", \"violations\": {v}, \"no_div\": {nd}}}"))
        .collect();
    let _ = write!(json, ", \"ccf_rows\": [{}]", rows.join(", "));
    let sampled: Vec<String> = sampled.iter().map(|(s, n)| format!("\"{s}\": {n}")).collect();
    let _ = write!(json, ", \"sampled_setups\": {{{}}}}}", sampled.join(", "));
    Ok(json)
}

fn join_map(m: &BTreeMap<&'static str, f64>) -> String {
    let parts: Vec<String> = m
        .iter()
        .map(
            |(k, v)| if v.is_finite() { format!("\"{k}\": {v}") } else { format!("\"{k}\": null") },
        )
        .collect();
    parts.join(", ")
}
