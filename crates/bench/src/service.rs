//! The grid runner behind `safedm-sim campaign`: [`prepare`] validates a
//! [`CampaignSpec`] and enumerates it into kernel × stagger × run cells,
//! and [`run`] simulates every cell on the `safedm-campaign` pool.
//!
//! Each cell is one monitored run of the cycle-accurate model from reset
//! (no boot gating). A cell's seed derives from the root seed and its
//! index alone, and the pool collects results in cell order, so the events
//! — and the `--events-out` stream serialised from them with
//! [`safedm_obs::events::Timing::Strip`] — are byte-identical for every
//! worker count.

use std::sync::Arc;

use safedm_asm::Program;
use safedm_campaign::spec::CampaignSpec;
use safedm_campaign::{par_map_timed_observed, Cell, ConfigGrid, Progress};
use safedm_core::{regs, MonitoredSoc, ReportMode, SafeDmConfig};
use safedm_isa::Reg;
use safedm_obs::events::CellEvent;
use safedm_soc::SocConfig;
use safedm_tacle::{build_kernel_program, kernels, HarnessConfig, Kernel, StaggerConfig};

use crate::experiments::duration_us;

/// Cycle budget for grid cells (generous — runs end at `ebreak`).
pub const GRID_RUN_BUDGET: u64 = 500_000_000;

/// Injection-cycle ceiling of the `ccf_campaign` fault campaign.
pub const CCF_MAX_CYCLE: u64 = 10_000;

/// One grid cell: kernel, staggering in nops, repeat run and derived seed.
pub type GridCell = Cell<&'static Kernel, u64, ()>;

/// A validated, enumerated campaign ready to [`run`].
pub struct Prepared {
    /// Worker count.
    pub jobs: usize,
    /// The cells, in canonical index order.
    pub cells: Vec<GridCell>,
    /// One pre-built image per (kernel, stagger) setup, shared by all of
    /// that setup's runs: setup index = cell index / `runs`.
    programs: Vec<Arc<Program>>,
    runs: usize,
}

/// What a [`run`] produced.
pub struct RunOutcome {
    /// One event per cell, in cell order, with its measured `wall_us`.
    pub events: Vec<CellEvent>,
    /// Whether every cell passed its self-check.
    pub all_ok: bool,
}

/// Validates `spec` and enumerates its cells, building each setup's
/// program once.
///
/// # Errors
///
/// Returns a message for structural violations and unknown kernels.
pub fn prepare(spec: &CampaignSpec) -> Result<Prepared, String> {
    spec.validate()?;
    let ks = spec
        .kernels
        .iter()
        .map(|n| {
            kernels::by_name(n).ok_or_else(|| format!("unknown kernel `{n}` (see --list-kernels)"))
        })
        .collect::<Result<Vec<&'static Kernel>, String>>()?;
    let runs = usize::try_from(spec.runs).map_err(|_| "spec field `runs` is too large")?;
    let grid = ConfigGrid {
        kernels: ks,
        staggers: spec.staggers.clone(),
        configs: vec![()],
        runs,
        root_seed: spec.root_seed,
    };
    let mut programs = Vec::with_capacity(grid.kernels.len() * grid.staggers.len());
    for k in &grid.kernels {
        for &nops in &grid.staggers {
            let stagger = (nops > 0).then_some(StaggerConfig {
                nops: usize::try_from(nops).unwrap_or(usize::MAX),
                delayed_core: 1,
            });
            programs.push(Arc::new(build_kernel_program(
                k,
                &HarnessConfig { stagger, ..HarnessConfig::default() },
            )));
        }
    }
    Ok(Prepared { jobs: spec.jobs.max(1), cells: grid.cells(), programs, runs })
}

/// Simulates one grid cell on the monitored model.
fn simulate(cell: &GridCell, prog: &Program) -> CellEvent {
    let golden = (cell.kernel.reference)();
    let soc_cfg = SocConfig { mem_jitter: 2, jitter_seed: cell.seed, ..SocConfig::default() };
    let dm_cfg = SafeDmConfig { report_mode: ReportMode::Polling, ..SafeDmConfig::default() };
    let mut sys = MonitoredSoc::new(soc_cfg, dm_cfg);
    sys.load_program(prog);
    sys.write_ctrl(1 | (regs::encode_mode(ReportMode::Polling) << 1));
    let out = sys.run(GRID_RUN_BUDGET);
    let ok = !out.run.timed_out && (0..2).all(|c| sys.soc().core(c).reg(Reg::A0) == golden);
    CellEvent {
        index: cell.index as u64,
        kernel: cell.kernel.name.to_owned(),
        config: format!("nops={}", cell.stagger),
        run: cell.run as u64,
        seed: cell.seed,
        cycles: out.run.cycles,
        guarded: out.cycles_observed,
        zero_stag: out.zero_stag_cycles,
        no_div: out.no_div_cycles,
        episodes: sys.monitor().no_diversity_history().total_episodes(),
        violations: u64::from(!ok),
        ok,
        wall_us: None,
    }
}

/// Runs every cell of a prepared campaign on the pool, reporting each
/// completion to `progress` (stderr only — outputs stay deterministic).
///
/// # Panics
///
/// Panics if a cell's simulation panics (propagated from the pool).
#[must_use]
pub fn run(prepared: &Prepared, progress: Option<&Progress>) -> RunOutcome {
    let (events, timings) = par_map_timed_observed(
        prepared.jobs,
        &prepared.cells,
        |_, cell| simulate(cell, &prepared.programs[cell.index / prepared.runs]),
        |i, _| {
            if let Some(p) = progress {
                p.cell_done(prepared.cells[i].kernel.name);
            }
        },
    );
    let events: Vec<CellEvent> = events
        .into_iter()
        .zip(timings)
        .map(|(ev, t)| CellEvent { wall_us: Some(duration_us(t)), ..ev })
        .collect();
    let all_ok = events.iter().all(|e| e.ok);
    RunOutcome { events, all_ok }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safedm_obs::events::{to_jsonl, Timing};

    fn small_spec() -> CampaignSpec {
        CampaignSpec {
            kernels: vec!["fac".to_owned()],
            staggers: vec![0, 100],
            runs: 2,
            ..CampaignSpec::default()
        }
    }

    #[test]
    fn grid_runs_match_for_any_jobs() {
        let spec = small_spec();
        let one = run(&prepare(&spec).unwrap(), None);
        assert_eq!(one.events.len(), 4);
        assert!(one.all_ok);
        assert!(one.events.iter().all(|e| e.wall_us.is_some()));
        assert_eq!(one.events[3].config, "nops=100");
        let two = run(&prepare(&CampaignSpec { jobs: 2, ..spec }).unwrap(), None);
        assert_eq!(to_jsonl(&one.events, Timing::Strip), to_jsonl(&two.events, Timing::Strip));
    }

    #[test]
    fn unknown_kernel_and_bad_spec_are_prepare_errors() {
        let bad = CampaignSpec { kernels: vec!["nope".to_owned()], ..small_spec() };
        assert!(prepare(&bad).err().unwrap().contains("unknown kernel"));
        let bad = CampaignSpec { runs: 0, ..small_spec() };
        assert!(prepare(&bad).err().unwrap().contains("runs"));
    }
}
