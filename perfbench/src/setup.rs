//! The three workloads and their set-up: everything each artefact does
//! before its first simulated cycle, rebuilt here from the same public
//! functions so it can be timed in-process.

use std::sync::Arc;

use safedm_analysis::{analyze, prove, prove_pair, AnalysisConfig};
use safedm_asm::transform::TransformConfig;
use safedm_asm::Program;
use safedm_bench::experiments::table1_cells;
use safedm_bench::service::CCF_MAX_CYCLE;
use safedm_core::{MonitoredSoc, ReportMode, SafeDmConfig};
use safedm_faults::{Campaign, CampaignConfig, CommonCauseFault};
use safedm_soc::SocConfig;
use safedm_tacle::{
    build_kernel_program, build_twin_program, kernels, HarnessConfig, Kernel, StaggerConfig,
    TwinConfig,
};

use crate::spans::Tracer;

/// Kernels of the Validation V1 campaign (as in the `ccf_campaign` binary).
pub const CCF_KERNELS: [&str; 4] = ["fac", "bitcount", "iir", "quicksort"];
/// Trials per kernel of the Validation V1 campaign.
pub const CCF_TRIALS: usize = 120;
/// Stagger grid of `prove_soundness`.
const PROVE_NOPS: [u64; 4] = [0, 100, 1000, 10_000];
/// Transform levels of `transform_diversity` (after its natural and
/// nops-100 baselines).
const TWIN_LEVELS: [u8; 3] = [1, 2, 3];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Table1,
    Ccf,
    MachineCheck,
}

impl Workload {
    pub fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "table1" => Ok(Workload::Table1),
            "ccf" => Ok(Workload::Ccf),
            "machine_check" => Ok(Workload::MachineCheck),
            other => Err(format!("unknown workload `{other}` (table1, ccf, machine_check)")),
        }
    }
}

/// The artefact seeds a benchmark `--seed` selects. Seed 0 is the paper
/// protocol: Table I's literal jitter seeds, CCF seed 2024 and the
/// transform's default seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    pub table1_root: Option<u64>,
    pub ccf: u64,
    pub transform: u64,
}

impl Seeds {
    pub fn from_bench_seed(seed: u64) -> Seeds {
        if seed == 0 {
            Seeds { table1_root: None, ccf: 2024, transform: 0x5afe_d1f0 }
        } else {
            Seeds { table1_root: Some(seed), ccf: seed, transform: seed }
        }
    }
}

/// One simulated system the workload loads.
#[derive(Debug, Clone)]
pub struct Cell {
    pub prog: Arc<Program>,
    pub soc: SocConfig,
    /// The artefact setup the cell belongs to (stagger, twin level or CCF
    /// kernel), so the layer split can show it sampled every one.
    pub setup: String,
}

/// What the set-up produced, and what it counted.
#[derive(Debug, Default)]
pub struct Setup {
    pub cells: Vec<Cell>,
    /// Program images built (TACLe harness images and twin binaries).
    pub images: u64,
    /// CCF fault plans, one per kernel, with the kernel's image.
    pub faults: Vec<(&'static Kernel, Arc<Program>, Vec<CommonCauseFault>)>,
}

/// The monitor configuration the layer split and loads use: Polling mode,
/// which never intrudes on the cores.
pub fn polling() -> SafeDmConfig {
    SafeDmConfig { report_mode: ReportMode::Polling, ..SafeDmConfig::default() }
}

/// Runs `w`'s set-up under the span `setup` and returns what it built.
/// Each cell's `MonitoredSoc::new` + `load_program` is one `soc.load` span.
pub fn run(w: Workload, seeds: Seeds, t: &mut Tracer) -> Setup {
    let root = t.begin("setup", 0);
    let setup = match w {
        Workload::Table1 => table1(seeds, t),
        Workload::Ccf => ccf(seeds, t),
        Workload::MachineCheck => machine_check(seeds, t),
    };
    for (i, cell) in setup.cells.iter().enumerate() {
        let (sys, _) = t.time("soc.load", i as u64, || {
            let mut sys = MonitoredSoc::new(cell.soc.clone(), polling());
            sys.load_program(&cell.prog);
            sys
        });
        drop(std::hint::black_box(sys));
    }
    t.end(root);
    setup
}

fn table1(seeds: Seeds, t: &mut Tracer) -> Setup {
    let all: Vec<&Kernel> = kernels::all().iter().collect();
    let (runs, _) = t.time("tacle.build", 0, || table1_cells(&all, seeds.table1_root));
    let mut images = 0;
    for (i, r) in runs.iter().enumerate() {
        let first_of_image = i == 0 || !Arc::ptr_eq(&runs[i - 1].program, &r.program);
        images += u64::from(first_of_image);
    }
    let cells = runs
        .iter()
        .map(|r| Cell {
            prog: Arc::clone(&r.program),
            soc: SocConfig { mem_jitter: 2, jitter_seed: r.seed, ..SocConfig::default() },
            setup: format!("nops={}", r.stagger.map_or(0, |s| s.nops)),
        })
        .collect();
    Setup { cells, images, faults: Vec::new() }
}

fn ccf(seeds: Seeds, t: &mut Tracer) -> Setup {
    let mut setup = Setup::default();
    for (ki, name) in CCF_KERNELS.iter().enumerate() {
        let k = kernels::by_name(name).expect("CCF kernel exists");
        let (prog, _) = t.time("tacle.build", ki as u64, || {
            Arc::new(build_kernel_program(k, &HarnessConfig::default()))
        });
        setup.images += 1;
        let campaign = Campaign::new(CampaignConfig {
            trials: CCF_TRIALS,
            seed: seeds.ccf,
            max_cycle: CCF_MAX_CYCLE,
            ..CampaignConfig::default()
        });
        let (faults, _) = t.time("faults.plan", ki as u64, || campaign.planned_faults());
        for _ in &faults {
            setup.cells.push(Cell {
                prog: Arc::clone(&prog),
                soc: SocConfig::default(),
                setup: format!("ccf {name}"),
            });
        }
        setup.faults.push((k, prog, faults));
    }
    setup
}

/// `prove_soundness` (TACLe targets; its three synthetic targets are built
/// inside that binary only) followed by `transform_diversity`.
fn machine_check(seeds: Seeds, t: &mut Tracer) -> Setup {
    let mut setup = Setup::default();
    let mut id = 0u64;
    for k in kernels::all() {
        for nops in PROVE_NOPS {
            let prog = staggered_and_proved(k, nops, id, t);
            setup.push(prog, format!("prove nops={nops}"));
            id += 1;
        }
    }
    for k in kernels::all() {
        for nops in [0, 100] {
            let prog = staggered_and_proved(k, nops, id, t);
            setup.push(prog, format!("transform nops={nops}"));
            id += 1;
        }
        for level in TWIN_LEVELS {
            let tcfg = TwinConfig {
                transform: TransformConfig::level(seeds.transform, level),
                ..TwinConfig::default()
            };
            let (tw, _) = t.time("asm.transform", id, || build_twin_program(k, &tcfg));
            t.time("analysis.pair", id, || {
                let cfg = AnalysisConfig { pair_mode: true, ..AnalysisConfig::default() };
                let report = analyze(&tw.program, &cfg);
                let pr = prove_pair(&report.program, &report.cfg, &tw.map, &cfg);
                assert!(pr.map_ok, "{}: transform produced an unfaithful twin", k.name);
                std::hint::black_box(pr);
            });
            setup.push(tw.program, format!("transform level={level}"));
            id += 1;
        }
    }
    setup
}

impl Setup {
    fn push(&mut self, prog: Program, setup: String) {
        self.images += 1;
        self.cells.push(Cell { prog: Arc::new(prog), soc: SocConfig::default(), setup });
    }
}

/// Builds `k` behind a `nops` sled on hart 1 and runs the stagger prover on
/// it, as both machine-check binaries do for identical-binary setups.
fn staggered_and_proved(k: &Kernel, nops: u64, id: u64, t: &mut Tracer) -> Program {
    let stagger = (nops > 0).then_some(StaggerConfig { nops: nops as usize, delayed_core: 1 });
    let (prog, _) = t.time("tacle.build", id, || {
        build_kernel_program(k, &HarnessConfig { stagger, ..HarnessConfig::default() })
    });
    t.time("analysis.prove", id, || {
        let cfg = AnalysisConfig {
            stagger_nops: (nops > 0).then_some(nops),
            stagger_phase: if nops > 0 { -1 } else { 0 },
            ..AnalysisConfig::default()
        };
        let report = analyze(&prog, &cfg);
        std::hint::black_box(prove(&report.program, &report.cfg, &cfg));
    });
    prog
}
