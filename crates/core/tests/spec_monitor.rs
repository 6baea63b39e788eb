//! Differential check of [`SafeDm`] against an executable specification.
//!
//! `SpecMonitor` is a deliberately naive transcription of the paper's
//! Section III-B: per core and per register port it keeps the last *n* raw
//! `(enable, value)` samples in a `VecDeque`, shifts only when the core's
//! hold line is low, concatenates the FIFOs into the Data Signature, builds
//! the Instruction Signature from the stage slots per [`IsLayout`], flags
//! lack of diversity when both concatenations are equal, and drives the
//! interrupt line per [`ReportMode`]. It keeps every completed episode
//! length and bins them only when asked. Nothing here is shared with the
//! optimised monitor except the probe type and the configuration.
//!
//! Both monitors see the same probe streams, generated ones (including
//! holds on one core only) and the live probes of TACLe kernels. Every
//! cycle's report and IRQ line must agree, and so must the counters, the
//! three episode histograms and the Hamming statistics at the end.

use std::collections::VecDeque;

use proptest::prelude::*;
use safedm_core::{
    CycleReport, Histogram, IsLayout, MonitoredSoc, ReportMode, SafeDm, SafeDmConfig,
};
use safedm_soc::{
    CoreProbe, PortSample, SocConfig, StageSlot, PIPE_STAGES, PIPE_WIDTH, READ_PORTS, WRITE_PORTS,
};
use safedm_tacle::{build_kernel_program, kernels, HarnessConfig, StaggerConfig};

/// The naive reference monitor.
struct SpecMonitor {
    cfg: SafeDmConfig,
    /// `fifos[core][port]`: read ports then write ports, oldest first.
    fifos: [Vec<VecDeque<(bool, u64)>>; 2],
    is: [Vec<(bool, u32)>; 2],
    stagger: i64,
    zero_stagger_cycles: u64,
    observed: u64,
    ds_matches: u64,
    is_matches: u64,
    no_div: u64,
    /// Completed episodes and the open run, per condition:
    /// no diversity, DS match, IS match.
    episodes: [Vec<u64>; 3],
    open: [u64; 3],
    irq: bool,
    finished: bool,
    hamming: Vec<(u32, u32)>,
}

/// One cycle's verdict, as both monitors report it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Verdict {
    observed: bool,
    ds_match: bool,
    is_match: bool,
    no_diversity: bool,
    zero_stagger: bool,
}

impl SpecMonitor {
    fn new(cfg: SafeDmConfig) -> SpecMonitor {
        let fifo = VecDeque::from(vec![(false, 0); cfg.data_fifo_depth]);
        let ports = || vec![fifo.clone(); READ_PORTS + WRITE_PORTS];
        let slots = PIPE_STAGES * PIPE_WIDTH;
        SpecMonitor {
            cfg,
            fifos: [ports(), ports()],
            is: [vec![(false, 0); slots], vec![(false, 0); slots]],
            stagger: 0,
            zero_stagger_cycles: 0,
            observed: 0,
            ds_matches: 0,
            is_matches: 0,
            no_div: 0,
            episodes: [Vec::new(), Vec::new(), Vec::new()],
            open: [0; 3],
            irq: false,
            finished: false,
            hamming: Vec::new(),
        }
    }

    fn data_signature(&self, core: usize) -> Vec<(bool, u64)> {
        self.fifos[core].iter().flatten().copied().collect()
    }

    fn instruction_signature(&self, p: &CoreProbe) -> Vec<(bool, u32)> {
        let slots = PIPE_STAGES * PIPE_WIDTH;
        match self.cfg.is_layout {
            IsLayout::PerStage => p
                .stages
                .iter()
                .flatten()
                .map(|s| match (s.valid, self.cfg.include_stale_bits) {
                    (true, _) | (false, true) => (s.valid, s.raw),
                    (false, false) => (false, 0),
                })
                .collect(),
            IsLayout::InFlight => {
                let mut v: Vec<(bool, u32)> = Vec::new();
                for stage in (0..PIPE_STAGES).rev() {
                    for s in &p.stages[stage] {
                        if s.valid {
                            v.push((true, s.raw));
                        }
                    }
                }
                v.resize(slots, (false, 0));
                v
            }
        }
    }

    fn observe(&mut self, p0: &CoreProbe, p1: &CoreProbe) -> Verdict {
        let idle = Verdict {
            observed: false,
            ds_match: false,
            is_match: false,
            no_diversity: false,
            zero_stagger: true,
        };
        if self.finished {
            return idle;
        }
        if self.cfg.stop_when_halted && (p0.halted || p1.halted) {
            self.finish();
            return idle;
        }
        for (core, p) in [p0, p1].into_iter().enumerate() {
            if p.hold {
                continue;
            }
            let samples = p.reads.iter().chain(&p.writes);
            for (fifo, s) in self.fifos[core].iter_mut().zip(samples) {
                fifo.push_back((s.enable, s.value));
                fifo.pop_front();
            }
            self.is[core] = self.instruction_signature(p);
        }
        let (ds0, ds1) = (self.data_signature(0), self.data_signature(1));
        let ds_match = ds0 == ds1;
        let is_match = self.is[0] == self.is[1];
        let no_diversity = ds_match && is_match;

        let ds_dist: u32 = ds0
            .iter()
            .zip(&ds1)
            .map(|(a, b)| u32::from(a.0 != b.0) + (a.1 ^ b.1).count_ones())
            .sum();
        let is_dist: u32 = self.is[0]
            .iter()
            .zip(&self.is[1])
            .map(|(a, b)| u32::from(a.0 != b.0) + (a.1 ^ b.1).count_ones())
            .sum();
        self.hamming.push((ds_dist, is_dist));

        self.stagger += i64::from(p0.committed) - i64::from(p1.committed);
        self.zero_stagger_cycles += u64::from(self.stagger == 0);
        self.observed += 1;
        self.ds_matches += u64::from(ds_match);
        self.is_matches += u64::from(is_match);
        self.no_div += u64::from(no_diversity);
        for (i, active) in [no_diversity, ds_match, is_match].into_iter().enumerate() {
            if active {
                self.open[i] += 1;
            } else if self.open[i] > 0 {
                self.episodes[i].push(self.open[i]);
                self.open[i] = 0;
            }
        }
        match self.cfg.report_mode {
            ReportMode::InterruptFirst => self.irq |= no_diversity,
            // A zero threshold leaves the interrupt disarmed.
            ReportMode::InterruptThreshold(k) => self.irq |= k > 0 && self.no_div >= k,
            ReportMode::Polling => {}
        }
        Verdict {
            observed: true,
            ds_match,
            is_match,
            no_diversity,
            zero_stagger: self.stagger == 0,
        }
    }

    fn finish(&mut self) {
        if !self.finished {
            for i in 0..3 {
                if self.open[i] > 0 {
                    self.episodes[i].push(self.open[i]);
                    self.open[i] = 0;
                }
            }
            self.finished = true;
        }
    }

    /// `(bins, episodes, cycles, longest)` of condition `i`'s episodes.
    fn histogram(&self, i: usize) -> (Vec<u64>, u64, u64, u64) {
        let mut bins = vec![0; self.cfg.history_bins];
        for &len in &self.episodes[i] {
            let bin = ((len - 1) / self.cfg.history_bin_width) as usize;
            bins[bin.min(self.cfg.history_bins - 1)] += 1;
        }
        let e = &self.episodes[i];
        (bins, e.len() as u64, e.iter().sum(), e.iter().copied().max().unwrap_or(0))
    }
}

fn summary(h: &Histogram) -> (Vec<u64>, u64, u64, u64) {
    (h.bins().to_vec(), h.total_episodes(), h.total_cycles(), h.max_episode())
}

fn verdict(r: CycleReport) -> Verdict {
    Verdict {
        observed: r.observed,
        ds_match: r.ds_match,
        is_match: r.is_match,
        no_diversity: r.no_diversity,
        zero_stagger: r.zero_stagger,
    }
}

/// Feeds one cycle to both monitors and checks the per-cycle agreement.
fn step(dm: &mut SafeDm, spec: &mut SpecMonitor, p0: &CoreProbe, p1: &CoreProbe, cycle: usize) {
    let got = verdict(dm.observe(p0, p1));
    assert_eq!(got, spec.observe(p0, p1), "verdict at cycle {cycle} ({:?})", dm.config());
    assert_eq!(dm.irq_pending(), spec.irq, "IRQ line at cycle {cycle} ({:?})", dm.config());
}

/// Checks the end-of-run state of both monitors.
fn check_final(dm: &mut SafeDm, spec: &mut SpecMonitor) {
    dm.finish();
    spec.finish();
    let cfg = *dm.config();
    let c = dm.counters();
    assert_eq!(
        (c.cycles_observed, c.ds_match_cycles, c.is_match_cycles, c.no_div_cycles),
        (spec.observed, spec.ds_matches, spec.is_matches, spec.no_div),
        "counters ({cfg:?})"
    );
    assert_eq!(dm.instruction_diff().zero_cycles(), spec.zero_stagger_cycles, "{cfg:?}");
    assert_eq!(summary(dm.no_diversity_history()), spec.histogram(0), "no-div history {cfg:?}");
    assert_eq!(summary(dm.ds_match_history()), spec.histogram(1), "DS history {cfg:?}");
    assert_eq!(summary(dm.is_match_history()), spec.histogram(2), "IS history {cfg:?}");
    assert_eq!(dm.max_no_div_run(), spec.histogram(0).3, "longest no-div run {cfg:?}");
    assert_eq!(dm.irq_pending(), spec.irq, "final IRQ line {cfg:?}");
    let h = dm.hamming_stats().expect("hamming tracking enabled");
    let totals = spec.hamming.iter().map(|&(d, i)| d + i);
    assert_eq!(h.ds_sum, spec.hamming.iter().map(|&(d, _)| u64::from(d)).sum::<u64>(), "{cfg:?}");
    assert_eq!(h.is_sum, spec.hamming.iter().map(|&(_, i)| u64::from(i)).sum::<u64>(), "{cfg:?}");
    assert_eq!(h.min_total, totals.clone().min().unwrap_or(u32::MAX), "{cfg:?}");
    assert_eq!(h.max_total, totals.max().unwrap_or(0), "{cfg:?}");
    assert_eq!(h.last, spec.hamming.last().copied().unwrap_or((0, 0)), "{cfg:?}");
}

/// The configuration grid: FIFO depths × IS layouts × stale bits, cycling
/// through the three report modes.
fn grid() -> Vec<SafeDmConfig> {
    let modes =
        [ReportMode::InterruptFirst, ReportMode::InterruptThreshold(3), ReportMode::Polling];
    let mut out = Vec::new();
    for depth in [1, 2, 8, 16] {
        for layout in [IsLayout::PerStage, IsLayout::InFlight] {
            for include_stale_bits in [false, true] {
                out.push(SafeDmConfig {
                    data_fifo_depth: depth,
                    is_layout: layout,
                    include_stale_bits,
                    report_mode: modes[out.len() % modes.len()],
                    history_bin_width: 2,
                    history_bins: 5,
                    track_hamming: true,
                    ..SafeDmConfig::default()
                });
            }
        }
    }
    out
}

/// Decodes one generated word into a pair of probes. The cores share a
/// small value alphabet and usually see the same probe, so signatures
/// often match. In about one cycle in five an event from bits 44..50 of the
/// word perturbs one core, holds one or both cores, or moves core 1's
/// instructions one stage on.
fn probes(w: u64, halt: bool) -> (CoreProbe, CoreProbe) {
    let bit = |i: u32| (w >> i) & 1 == 1;
    let mut p = CoreProbe::default();
    for (i, port) in p.reads.iter_mut().enumerate() {
        *port = PortSample { enable: bit(8 + i as u32), value: (w >> (12 + 2 * i)) & 3 };
    }
    for (i, port) in p.writes.iter_mut().enumerate() {
        *port = PortSample { enable: bit(20 + i as u32), value: (w >> (22 + 2 * i)) & 1 };
    }
    let live_stage = ((w >> 26) % PIPE_STAGES as u64) as usize;
    for (s, stage) in p.stages.iter_mut().enumerate() {
        for (j, slot) in stage.iter_mut().enumerate() {
            let raw = 0x13 + ((w >> (30 + j)) & 1) as u32 * 0x80 + s as u32;
            *slot = StageSlot { valid: s == live_stage || bit(32 + s as u32), raw };
        }
    }
    p.committed = ((w >> 40) % 3) as u8;
    let mut q = p;
    let arg = (w >> 50) as usize;
    match (w >> 44) & 63 {
        0 | 1 => q.reads[arg % 4].value ^= 1 << (arg % 64),
        2 => q.writes[arg % 2].enable ^= true,
        3 => q.stages[live_stage][0].raw ^= 0x100,
        // A stale encoding in an empty slot: visible only with stale bits.
        4 => {
            let s = (live_stage + 1) % PIPE_STAGES;
            q.stages[s][1].valid = false;
            q.stages[s][1].raw ^= 0x200;
        }
        // The same instructions one stage later: visible only per stage.
        5 => q.stages.rotate_right(1),
        6 => q.committed = (q.committed + 1) % 3,
        7 | 8 => p.hold = true,
        9 | 10 => q.hold = true,
        11 | 12 => (p.hold, q.hold) = (true, true),
        _ => {}
    }
    if halt {
        q.halted = true;
    }
    (p, q)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    fn safedm_matches_spec_on_generated_streams(
        words in proptest::collection::vec(any::<u64>(), 1..300),
        halt_at in 0usize..400,
    ) {
        let stream: Vec<_> =
            words.iter().enumerate().map(|(i, &w)| probes(w, i == halt_at)).collect();
        for cfg in grid() {
            let mut dm = SafeDm::new(cfg);
            let mut spec = SpecMonitor::new(cfg);
            for (cycle, (p0, p1)) in stream.iter().enumerate() {
                step(&mut dm, &mut spec, p0, p1, cycle);
            }
            check_final(&mut dm, &mut spec);
        }
    }
}

#[test]
fn generated_streams_exercise_matches_and_one_sided_holds() {
    // Guards the generator: the differential above is only as strong as
    // the streams are varied.
    let mut rng = proptest::test_runner::TestRng::from_seed(7);
    let (mut one_sided, mut matched) = (0, 0);
    let cfg = SafeDmConfig { track_hamming: true, ..SafeDmConfig::default() };
    let mut spec = SpecMonitor::new(cfg);
    for _ in 0..1000 {
        let (p0, p1) = probes(rng.next_u64(), false);
        one_sided += usize::from(p0.hold != p1.hold);
        matched += usize::from(spec.observe(&p0, &p1).no_diversity);
    }
    assert!(one_sided > 40, "{one_sided} one-sided holds");
    assert!(matched > 100, "{matched} no-diversity cycles");
}

#[test]
fn safedm_matches_spec_on_kernel_probes() {
    // The live monitor runs the default configuration; two more replicas
    // cover the other layout, stale bits and the other report modes.
    let live = SafeDmConfig { track_hamming: true, ..SafeDmConfig::default() };
    let replicas = [
        SafeDmConfig {
            data_fifo_depth: 2,
            is_layout: IsLayout::InFlight,
            include_stale_bits: true,
            report_mode: ReportMode::InterruptThreshold(50),
            ..live
        },
        SafeDmConfig {
            data_fifo_depth: 16,
            include_stale_bits: true,
            report_mode: ReportMode::Polling,
            ..live
        },
    ];
    for name in ["fac", "insertsort", "recursion"] {
        for nops in [0, 100] {
            let k = kernels::by_name(name).expect("kernel exists");
            let harness = HarnessConfig {
                stagger: (nops > 0).then_some(StaggerConfig { nops, delayed_core: 1 }),
                ..HarnessConfig::default()
            };
            let mut sys = MonitoredSoc::new(SocConfig::default(), live);
            sys.load_program(&build_kernel_program(k, &harness));
            let mut spec = SpecMonitor::new(live);
            let mut pairs: Vec<_> =
                replicas.iter().map(|&c| (SafeDm::new(c), SpecMonitor::new(c))).collect();
            let mut cycle = 0;
            while !(sys.soc().all_halted()
                && (0..2).all(|i| sys.soc().core(i).store_buffer_len() == 0))
            {
                let r = sys.step();
                let (p0, p1) = (*sys.soc().probe(0), *sys.soc().probe(1));
                let want = spec.observe(&p0, &p1);
                assert_eq!(verdict(r), want, "{name} at {nops} nops, cycle {cycle}");
                assert_eq!(sys.monitor().irq_pending(), spec.irq, "{name}/{nops}: IRQ");
                for (dm, s) in &mut pairs {
                    step(dm, s, &p0, &p1, cycle);
                }
                cycle += 1;
                assert!(cycle < 2_000_000, "{name} at {nops} nops did not halt");
            }
            assert!(spec.no_div > 0 || nops > 0, "{name}: lockstep run saw no collision");
            check_final(sys.monitor_mut(), &mut spec);
            for (dm, s) in &mut pairs {
                check_final(dm, s);
            }
        }
    }
}
