//! The SafeDM APB register map (paper, Section IV-B2).
//!
//! SafeDM is integrated as an APB slave. The model mirrors the monitor's
//! architectural state into an [`ApbRegisterFile`] so guest programs can
//! poll it, and applies guest-written control registers back to the monitor
//! every cycle. The mirror is written only while a guest read can observe
//! it ([`mirror_on_read`]); the host reads the bank through [`mirrored`].
//! Everything outside the APB logic is bus-agnostic, as the paper requires.

use safedm_soc::{ApbRegisterFile, Uncore};

use crate::{ReportMode, SafeDm};

/// Register indices (64-bit registers, byte offset = index × 8).
pub mod regmap {
    /// Control: bit 0 enable, bits 2:1 report mode (0 = first, 1 =
    /// threshold, 2 = polling), bit 3 write-1-to-clear IRQ.
    pub const CTRL: usize = 0;
    /// Status: bit 0 IRQ pending, bit 1 monitoring finished.
    pub const STATUS: usize = 1;
    /// Threshold for [`ReportMode::InterruptThreshold`](crate::ReportMode).
    pub const THRESHOLD: usize = 2;
    /// Cycles without diversity.
    pub const NO_DIV_CYCLES: usize = 3;
    /// Cycles with matching Data Signatures.
    pub const DS_MATCH_CYCLES: usize = 4;
    /// Cycles with matching Instruction Signatures.
    pub const IS_MATCH_CYCLES: usize = 5;
    /// Total monitored cycles.
    pub const CYCLES_OBSERVED: usize = 6;
    /// Current staggering (two's complement).
    pub const INSTR_DIFF: usize = 7;
    /// Cycles with zero staggering.
    pub const ZERO_STAG_CYCLES: usize = 8;
    /// Longest no-diversity run.
    pub const MAX_NO_DIV_RUN: usize = 9;
    /// Completed no-diversity episodes (read-only event counter).
    pub const NO_DIV_EPISODES: usize = 10;
    /// Largest absolute staggering observed (read-only).
    pub const MAX_ABS_STAGGER: usize = 11;
    /// Completed Data-Signature-match episodes (read-only).
    pub const DS_MATCH_EPISODES: usize = 12;
    /// Completed Instruction-Signature-match episodes (read-only).
    pub const IS_MATCH_EPISODES: usize = 13;
    /// First history bin (no-diversity episode histogram).
    pub const HIST_BASE: usize = 16;
    /// Total registers in the bank (16 fixed + up to 16 history bins).
    pub const REG_COUNT: usize = 32;
}

/// CTRL encoding of a report mode.
#[must_use]
pub fn encode_mode(mode: ReportMode) -> u64 {
    match mode {
        ReportMode::InterruptFirst => 0,
        ReportMode::InterruptThreshold(_) => 1,
        ReportMode::Polling => 2,
    }
}

/// Mirrors monitor state into the APB bank (host → guest visible).
pub fn mirror(dm: &SafeDm, rf: &mut ApbRegisterFile) {
    let c = dm.counters();
    rf.set_reg(regmap::STATUS, u64::from(dm.irq_pending()) | (u64::from(dm.finished()) << 1));
    rf.set_reg(regmap::NO_DIV_CYCLES, c.no_div_cycles);
    rf.set_reg(regmap::DS_MATCH_CYCLES, c.ds_match_cycles);
    rf.set_reg(regmap::IS_MATCH_CYCLES, c.is_match_cycles);
    rf.set_reg(regmap::CYCLES_OBSERVED, c.cycles_observed);
    rf.set_reg(regmap::INSTR_DIFF, dm.instruction_diff().value() as u64);
    rf.set_reg(regmap::ZERO_STAG_CYCLES, dm.instruction_diff().zero_cycles());
    rf.set_reg(regmap::MAX_NO_DIV_RUN, dm.max_no_div_run());
    rf.set_reg(regmap::NO_DIV_EPISODES, dm.no_diversity_history().total_episodes());
    rf.set_reg(regmap::MAX_ABS_STAGGER, dm.instruction_diff().max_abs());
    rf.set_reg(regmap::DS_MATCH_EPISODES, dm.ds_match_history().total_episodes());
    rf.set_reg(regmap::IS_MATCH_EPISODES, dm.is_match_history().total_episodes());
    let hist = dm.no_diversity_history();
    for (i, b) in hist.bins().iter().enumerate() {
        if regmap::HIST_BASE + i < rf.len() {
            rf.set_reg(regmap::HIST_BASE + i, *b);
        }
    }
}

/// End-of-cycle mirror into APB slave `index`, written only while an APB
/// read waits for or holds the bus. A guest read then returns the state at
/// the end of the cycle before it completes, as with a mirror every cycle.
pub fn mirror_on_read(dm: &SafeDm, uncore: &mut Uncore, index: usize) {
    if uncore.apb_read_in_flight() {
        mirror(dm, uncore.apb_slave_mut(index));
    }
}

/// The host's view of APB slave `index`: a copy of the bank with the mirror
/// applied.
#[must_use]
pub fn mirrored(dm: &SafeDm, uncore: &Uncore, index: usize) -> ApbRegisterFile {
    let mut bank = uncore.apb_slave(index).clone();
    mirror(dm, &mut bank);
    bank
}

/// Applies guest-written control registers to the monitor (guest → host).
pub fn apply_commands(dm: &mut SafeDm, rf: &mut ApbRegisterFile) {
    let ctrl = rf.reg(regmap::CTRL);
    dm.set_enabled(ctrl & 1 != 0);
    let mode = match (ctrl >> 1) & 0b11 {
        0 => ReportMode::InterruptFirst,
        1 => ReportMode::InterruptThreshold(rf.reg(regmap::THRESHOLD)),
        _ => ReportMode::Polling,
    };
    dm.set_report_mode(mode);
    if ctrl & 0b1000 != 0 {
        dm.clear_irq();
        rf.set_reg(regmap::CTRL, ctrl & !0b1000); // W1C semantics
    }
}

/// Power-on CTRL value: enabled, interrupt-on-first.
#[must_use]
pub fn reset_ctrl() -> u64 {
    1
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::SafeDmConfig;
    use safedm_soc::CoreProbe;

    fn bank() -> ApbRegisterFile {
        let mut rf = ApbRegisterFile::new(0xfc00_0000, regmap::REG_COUNT);
        rf.set_reg(regmap::CTRL, reset_ctrl());
        rf
    }

    #[test]
    fn mirror_exports_counters() {
        let mut dm = SafeDm::new(SafeDmConfig::default());
        let p = CoreProbe::default();
        for _ in 0..7 {
            dm.observe(&p, &p);
        }
        let mut rf = bank();
        mirror(&dm, &mut rf);
        assert_eq!(rf.reg(regmap::NO_DIV_CYCLES), 7);
        assert_eq!(rf.reg(regmap::CYCLES_OBSERVED), 7);
        assert_eq!(rf.reg(regmap::STATUS) & 1, 1); // irq pending
        assert_eq!(rf.reg(regmap::ZERO_STAG_CYCLES), 7);
    }

    #[test]
    fn ctrl_disable_and_mode_select() {
        let mut dm = SafeDm::new(SafeDmConfig::default());
        let mut rf = bank();
        rf.set_reg(regmap::CTRL, 0); // disabled
        apply_commands(&mut dm, &mut rf);
        assert!(!dm.enabled());
        rf.set_reg(regmap::CTRL, 1 | (1 << 1)); // enabled, threshold mode
        rf.set_reg(regmap::THRESHOLD, 42);
        apply_commands(&mut dm, &mut rf);
        assert!(dm.enabled());
        assert_eq!(dm.config().report_mode, ReportMode::InterruptThreshold(42));
        rf.set_reg(regmap::CTRL, 1 | (2 << 1)); // polling
        apply_commands(&mut dm, &mut rf);
        assert_eq!(dm.config().report_mode, ReportMode::Polling);
    }

    #[test]
    fn irq_write_one_to_clear() {
        let mut dm = SafeDm::new(SafeDmConfig::default());
        let p = CoreProbe::default();
        dm.observe(&p, &p);
        assert!(dm.irq_pending());
        let mut rf = bank();
        rf.set_reg(regmap::CTRL, reset_ctrl() | 0b1000);
        apply_commands(&mut dm, &mut rf);
        assert!(!dm.irq_pending());
        assert_eq!(rf.reg(regmap::CTRL) & 0b1000, 0, "W1C bit self-clears");
    }

    #[test]
    fn mirror_exports_histogram_bins() {
        let mut dm = SafeDm::new(SafeDmConfig::default());
        let p = CoreProbe::default();
        // 3-cycle no-div episode then a halt flush
        for _ in 0..3 {
            dm.observe(&p, &p);
        }
        dm.finish();
        let mut rf = bank();
        mirror(&dm, &mut rf);
        assert_eq!(rf.reg(regmap::HIST_BASE), 1); // one episode of length 3 in bin 0 (width 4)
        assert_eq!(rf.reg(regmap::STATUS) >> 1 & 1, 1); // finished
    }

    #[test]
    fn mirror_exports_episode_counters() {
        let mut dm = SafeDm::new(SafeDmConfig::default());
        let p = CoreProbe::default();
        // identical probes: one continuous no-div/DS/IS episode, closed by finish()
        for _ in 0..5 {
            dm.observe(&p, &p);
        }
        dm.finish();
        let mut rf = bank();
        mirror(&dm, &mut rf);
        assert_eq!(rf.reg(regmap::NO_DIV_EPISODES), dm.no_diversity_history().total_episodes());
        assert_eq!(rf.reg(regmap::NO_DIV_EPISODES), 1);
        assert_eq!(rf.reg(regmap::DS_MATCH_EPISODES), 1);
        assert_eq!(rf.reg(regmap::IS_MATCH_EPISODES), 1);
        assert_eq!(rf.reg(regmap::MAX_ABS_STAGGER), 0);
    }

    /// Asserts that `bank` exposes `dm`'s state in every mirrored register.
    pub(crate) fn assert_bank_mirrors(bank: &ApbRegisterFile, dm: &SafeDm) {
        let c = dm.counters();
        assert_eq!(bank.reg(regmap::CYCLES_OBSERVED), c.cycles_observed);
        assert_eq!(bank.reg(regmap::NO_DIV_CYCLES), c.no_div_cycles);
        assert_eq!(bank.reg(regmap::DS_MATCH_CYCLES), c.ds_match_cycles);
        assert_eq!(bank.reg(regmap::IS_MATCH_CYCLES), c.is_match_cycles);
        assert_eq!(bank.reg(regmap::ZERO_STAG_CYCLES), dm.instruction_diff().zero_cycles());
        assert_eq!(bank.reg(regmap::INSTR_DIFF), dm.instruction_diff().value() as u64);
        assert_eq!(bank.reg(regmap::MAX_NO_DIV_RUN), dm.max_no_div_run());
        assert_eq!(bank.reg(regmap::STATUS) & 1, u64::from(dm.irq_pending()));
    }

    #[test]
    fn mode_encoding_roundtrip() {
        assert_eq!(encode_mode(ReportMode::InterruptFirst), 0);
        assert_eq!(encode_mode(ReportMode::InterruptThreshold(9)), 1);
        assert_eq!(encode_mode(ReportMode::Polling), 2);
    }
}
