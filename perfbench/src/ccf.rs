//! The traced form of the `ccf` workload: the Validation V1 campaign run
//! the way `Campaign::run_jobs` runs it (faults planned serially, one pool
//! barrier per kernel), with every `run_injection` call timed as a span.
//! The same campaign without spans gives the tracing overhead.

use std::hint::black_box;
use std::time::Instant;

use safedm_bench::experiments::RUN_BUDGET;
use safedm_campaign::par_map;
use safedm_faults::{run_injection, Campaign, CampaignConfig};
use safedm_soc::{MpSoc, SocConfig};

use crate::setup::Setup;
use crate::spans::Tracer;

/// What the traced campaign measured.
#[derive(Debug, Default)]
pub struct CcfTrace {
    /// Wall time of every injection, in milliseconds.
    pub cell_ms: Vec<f64>,
    /// Wall time of the whole traced campaign.
    pub wall_s: f64,
    /// Wall time of the same campaign run without spans.
    pub untraced_wall_s: f64,
    /// Per kernel: name, detected mismatches, silent corruptions under a
    /// no-diversity flag (the artefact's `violations` and `no_div`).
    pub rows: Vec<(&'static str, u64, u64)>,
    pub trials: u64,
    /// Pre-injection cycles re-simulated by the trials, as a share of all
    /// simulated cycles. Each trial's length is taken as its kernel's
    /// fault-free length.
    pub prefix_share: f64,
}

/// Runs the campaign untraced, then traced under the span
/// `faults.campaign`.
pub fn campaign(setup: &Setup, jobs: usize, t: &mut Tracer) -> CcfTrace {
    let mut out = CcfTrace::default();
    let max_cycles = CampaignConfig::default().max_cycles;

    let (mut prefix, mut total) = (0u64, 0u64);
    for (_, prog, faults) in &setup.faults {
        let mut soc = MpSoc::new(SocConfig::default());
        soc.load_program(prog);
        let clean = soc.run(RUN_BUDGET).cycles;
        for f in faults {
            prefix += f.cycle.min(clean);
            total += clean.max(f.cycle);
        }
    }
    out.prefix_share = prefix as f64 / total.max(1) as f64;

    let start = Instant::now();
    for (k, prog, faults) in &setup.faults {
        let golden = (k.reference)();
        let records =
            par_map(jobs, faults, |_, &fault| run_injection(prog, golden, fault, max_cycles));
        black_box(Campaign::stats_from_records(records));
    }
    out.untraced_wall_s = start.elapsed().as_secs_f64();

    let root = t.begin("faults.campaign", 0);
    let origin = t.origin();
    for (k, prog, faults) in &setup.faults {
        let golden = (k.reference)();
        let kernel_span = t.begin("faults.kernel", out.rows.len() as u64);
        let timed = par_map(jobs, faults, |_, &fault| {
            let start = origin.elapsed().as_nanos() as u64;
            let r = run_injection(prog, golden, fault, max_cycles);
            (r, start, origin.elapsed().as_nanos() as u64)
        });
        let mut records = Vec::with_capacity(timed.len());
        for (r, start, end) in timed {
            let trial = out.trials;
            t.record("faults.inject", trial, Some(kernel_span), start, end);
            out.cell_ms.push((end - start) as f64 / 1e6);
            out.trials += 1;
            records.push(r);
        }
        t.end(kernel_span);
        let stats = Campaign::stats_from_records(records);
        out.rows.push((k.name, stats.detected_mismatch, stats.silent_with_no_diversity));
    }
    out.wall_s = t.end(root) as f64 / 1e9;
    out
}
