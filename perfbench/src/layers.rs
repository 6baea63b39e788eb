//! Splits the host time of one monitored cycle across the simulator's
//! layers without timing inside the cycle loop.
//!
//! Every sampled cell runs five times, each run one span:
//!
//! 1. `sim.run`: `MonitoredSoc::run`, untraced inside: the reference
//!    ns/cycle;
//! 2. `soc.run_detached`: `MpSoc::run` with no monitor attached;
//! 3. `soc.run_profiled`: `MpSoc::step_profiled`, used only for the shares
//!    of core pipeline and uncore in the detached time;
//! 4. `soc.record`: a detached run recording the `CoreProbe` stream in
//!    chunks, each chunk replayed through `SafeDm::observe`
//!    (`core.monitor.replay`) and `DclsComparator::observe`
//!    (`core.dcls.replay`) alone; then `regs::apply_commands` +
//!    `regs::mirror` run alone once per recorded cycle (`core.regs.replay`);
//! 5. `core.obs.attached_run`: `MonitoredSoc::run` with a `RunObserver`.
//!
//! What is left of `sim.run` after pipeline, uncore, monitor and registers
//! is the remainder; it is reported, not spread over the layers.

use std::collections::BTreeMap;
use std::hint::black_box;

use safedm_bench::experiments::RUN_BUDGET;
use safedm_core::regs::{self, regmap};
use safedm_core::{
    DclsComparator, DiversityCounters, MonitoredSoc, ObsConfig, ReportMode, RunObserver, SafeDm,
};
use safedm_obs::SelfProfiler;
use safedm_soc::{ApbRegisterFile, CoreProbe, MpSoc};

use crate::setup::{polling, Cell};
use crate::spans::{self_time_by_name, Tracer};

/// Cycles of probe stream held at once: small enough that a replayed chunk
/// is still in cache, as the probes are when the live monitor reads them.
const CHUNK: usize = 1 << 10;
/// CTRL value selecting an enabled monitor in Polling mode.
fn ctrl_polling() -> u64 {
    1 | (regs::encode_mode(ReportMode::Polling) << 1)
}

/// Hardware-side counts over the sampled cells.
#[derive(Debug, Default)]
struct Counts {
    cycles: u64,
    retired: u64,
    hold: u64,
    bus_transactions: u64,
    bus_contended: u64,
    l1d: (u64, u64),
    l2: (u64, u64),
    mem_lines: u64,
    observed: u64,
    ds_match: u64,
    is_match: u64,
}

fn drained(soc: &MpSoc) -> bool {
    soc.all_halted() && (0..soc.core_count()).all(|i| soc.core(i).store_buffer_len() == 0)
}

fn load_monitored(cell: &Cell) -> MonitoredSoc {
    let mut sys = MonitoredSoc::new(cell.soc.clone(), polling());
    sys.load_program(&cell.prog);
    sys.write_ctrl(ctrl_polling());
    sys
}

fn load_detached(cell: &Cell) -> MpSoc {
    let mut soc = MpSoc::new(cell.soc.clone());
    soc.load_program(&cell.prog);
    soc
}

/// Runs the passes on one cell, under span `cell`, and checks that they
/// describe the same execution.
fn split_cell(
    id: u64,
    cell: &Cell,
    t: &mut Tracer,
    prof: &mut SelfProfiler,
    counts: &mut Counts,
) -> Result<(), String> {
    let root = t.begin("cell", id);

    let mut sys = load_monitored(cell);
    let (live, _) = t.time("sim.run", id, || sys.run(RUN_BUDGET));
    if live.run.timed_out {
        return Err(format!("cell {id}: monitored run exceeded its budget"));
    }
    let live_counters = sys.monitor().counters();
    let soc = sys.soc();
    let cycles = live.run.cycles;
    counts.cycles += cycles;
    for i in 0..2 {
        let stats = soc.core(i).stats();
        counts.retired += stats.retired;
        counts.hold += stats.hold_cycles;
        let (_, (d_hit, d_miss)) = soc.core(i).l1_stats();
        counts.l1d.0 += d_hit;
        counts.l1d.1 += d_miss;
    }
    let bus = soc.uncore().stats();
    counts.bus_transactions += bus.transactions;
    counts.bus_contended += bus.contended_cycles;
    counts.l2.0 += bus.l2_hits;
    counts.l2.1 += bus.l2_misses;
    counts.mem_lines += soc.mem().allocated_lines() as u64;
    counts.observed += live_counters.cycles_observed;
    counts.ds_match += live_counters.ds_match_cycles;
    counts.is_match += live_counters.is_match_cycles;
    drop(sys);

    let mut soc = load_detached(cell);
    let (detached, _) = t.time("soc.run_detached", id, || soc.run(RUN_BUDGET));
    if detached.cycles != cycles {
        return Err(format!(
            "cell {id}: detached SoC took {} cycles, monitored run {cycles}; Polling mode must \
             not intrude",
            detached.cycles
        ));
    }

    let mut soc = load_detached(cell);
    t.time("soc.run_profiled", id, || {
        while !drained(&soc) {
            soc.step_profiled(prof);
        }
    });

    let replayed = record_and_replay(id, cell, cycles, t);
    if replayed != live_counters {
        return Err(format!(
            "cell {id}: replayed monitor counters {replayed:?} differ from the live run's \
             {live_counters:?}"
        ));
    }

    let mut sys = load_monitored(cell);
    sys.attach_obs(RunObserver::new(ObsConfig::default(), 2));
    t.time("core.obs.attached_run", id, || sys.run(RUN_BUDGET));
    black_box(sys.detach_obs());
    t.end(root);
    Ok(())
}

/// Records the detached probe stream chunk by chunk and replays each chunk
/// through the monitor and the DCLS comparator, then times the APB
/// register pass once per cycle. Returns the replayed monitor's counters.
fn record_and_replay(id: u64, cell: &Cell, cycles: u64, t: &mut Tracer) -> DiversityCounters {
    let mut soc = load_detached(cell);
    let mut dm = SafeDm::new(polling());
    let mut dcls = DclsComparator::new(4096);
    let mut buf: Vec<(CoreProbe, CoreProbe)> = Vec::with_capacity(CHUNK);
    loop {
        buf.clear();
        t.time("soc.record", id, || {
            while buf.len() < CHUNK && !drained(&soc) {
                soc.step();
                buf.push((*soc.probe(0), *soc.probe(1)));
            }
        });
        if buf.is_empty() {
            break;
        }
        t.time("core.monitor.replay", id, || {
            for (p0, p1) in &buf {
                black_box(dm.observe(p0, p1));
            }
        });
        t.time("core.dcls.replay", id, || {
            for (p0, p1) in &buf {
                dcls.observe(p0, p1);
            }
        });
    }
    dm.finish();
    black_box(dcls.compared());

    let mut bank = ApbRegisterFile::new(0, regmap::REG_COUNT);
    bank.set_reg(regmap::CTRL, ctrl_polling());
    let mut regs_dm = dm.clone();
    t.time("core.regs.replay", id, || {
        for _ in 0..cycles {
            regs::apply_commands(&mut regs_dm, black_box(&mut bank));
            regs::mirror(&regs_dm, black_box(&mut bank));
        }
    });
    dm.counters()
}

/// Runs the split over `cells` and returns the per-layer metrics. They are
/// read back from `t` by span name; only this module records those names.
pub fn split(cells: &[&Cell], t: &mut Tracer) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut prof = SelfProfiler::new();
    let mut counts = Counts::default();
    for (i, cell) in cells.iter().enumerate() {
        split_cell(i as u64, cell, t, &mut prof, &mut counts)?;
    }
    let spans = t.spans();
    let ns = self_time_by_name(spans);
    let per_cycle = |name: &str| ns.get(name).copied().unwrap_or(0) as f64 / counts.cycles as f64;

    let (mut core_ns, mut uncore_ns) = (0u128, 0u128);
    for (name, d, _) in prof.phases() {
        if name == "uncore" {
            uncore_ns += d.as_nanos();
        } else {
            core_ns += d.as_nanos();
        }
    }
    let core_share = core_ns as f64 / (core_ns + uncore_ns).max(1) as f64;

    let sim = per_cycle("sim.run");
    let detached = per_cycle("soc.run_detached");
    let pipeline = detached * core_share;
    let uncore = detached - pipeline;
    let monitor = per_cycle("core.monitor.replay");
    let regs = per_cycle("core.regs.replay");

    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    let mut m = BTreeMap::new();
    m.insert("sim.ns_per_cycle", sim);
    m.insert("sim.mcps", 1e3 / sim);
    m.insert("sim.remainder_ns_per_cycle", sim - pipeline - uncore - monitor - regs);
    m.insert("soc.pipeline.ns_per_cycle", pipeline);
    m.insert("soc.uncore.ns_per_cycle", uncore);
    m.insert("core.monitor.ns_per_cycle", monitor);
    m.insert("core.regs.ns_per_cycle", regs);
    m.insert("core.dcls.ns_per_cycle", per_cycle("core.dcls.replay"));
    // The observer's cost: attached minus live runs of the same cells.
    m.insert("core.obs.ns_per_cycle", per_cycle("core.obs.attached_run") - sim);
    m.insert("soc.cycles", counts.cycles as f64);
    m.insert("soc.retired", counts.retired as f64);
    m.insert("soc.hold_share", ratio(counts.hold, 2 * counts.cycles));
    m.insert("soc.bus.transactions", counts.bus_transactions as f64);
    m.insert("soc.bus.contended_share", ratio(counts.bus_contended, counts.cycles));
    m.insert("soc.l1d.miss_ratio", ratio(counts.l1d.1, counts.l1d.0 + counts.l1d.1));
    m.insert("soc.l2.miss_ratio", ratio(counts.l2.1, counts.l2.0 + counts.l2.1));
    m.insert("soc.mem.lines", ratio(counts.mem_lines, cells.len() as u64));
    m.insert("core.monitor.ds_match_share", ratio(counts.ds_match, counts.observed));
    m.insert("core.monitor.is_match_share", ratio(counts.is_match, counts.observed));
    Ok(m)
}
