//! Data and Instruction Signature generators (paper, Section III-B, Fig. 2).

use safedm_soc::{CoreProbe, PIPE_STAGES, PIPE_WIDTH, READ_PORTS, WRITE_PORTS};

use crate::{IsLayout, SafeDmConfig};

/// Total register-file ports observed per core.
pub const DATA_PORTS: usize = READ_PORTS + WRITE_PORTS;

/// One data-FIFO entry: the port enable line plus the 64-bit data lines.
pub type DataSample = (bool, u64);

/// One shifted cycle of every port: a row of the Data Signature ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct PortRow {
    values: [u64; DATA_PORTS],
    enables: [bool; DATA_PORTS],
}

/// The Data Signature (DS) of one core: one hold-gated FIFO per register
/// port, each holding the last *n* cycles of port samples. The signature is
/// the concatenation of all FIFOs; two cores lack data diversity when their
/// signatures are bit-identical (paper, Section III-B1).
///
/// All ports of a core shift together under the one hold signal, so the
/// FIFOs are stored as a single ring of *n* rows, one row per shifted cycle
/// holding every port's sample, plus the index of the oldest row. A shift
/// overwrites the oldest row in place; nothing moves.
///
/// # Examples
///
/// ```
/// use safedm_core::{DataSignature, SafeDmConfig};
/// use safedm_soc::CoreProbe;
///
/// let cfg = SafeDmConfig::default();
/// let mut a = DataSignature::new(&cfg);
/// let mut b = DataSignature::new(&cfg);
/// let probe = CoreProbe::default();
/// a.capture(&probe);
/// b.capture(&probe);
/// assert_eq!(a, b); // identical activity -> identical signatures
/// ```
#[derive(Debug, Clone, Eq)]
pub struct DataSignature {
    /// `n` rows; `rows[head]` is the oldest, the row before it the newest.
    rows: Vec<PortRow>,
    head: usize,
}

impl DataSignature {
    /// Creates the signature generator for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the FIFO depth is zero.
    #[must_use]
    pub fn new(cfg: &SafeDmConfig) -> DataSignature {
        assert!(cfg.data_fifo_depth >= 1, "data FIFO depth must be at least 1");
        DataSignature { rows: vec![PortRow::default(); cfg.data_fifo_depth], head: 0 }
    }

    /// Captures one cycle of register-port activity. When the probe reports
    /// `hold`, the FIFOs are clock-gated and keep their contents.
    pub fn capture(&mut self, probe: &CoreProbe) {
        if probe.hold {
            return;
        }
        let row = &mut self.rows[self.head];
        for (i, port) in probe.reads.iter().chain(&probe.writes).enumerate() {
            row.enables[i] = port.enable;
            row.values[i] = port.value;
        }
        self.head += 1;
        if self.head == self.rows.len() {
            self.head = 0;
        }
    }

    /// The rows, oldest first.
    fn oldest_first(&self) -> impl Iterator<Item = &PortRow> {
        let (newer, older) = self.rows.split_at(self.head);
        older.iter().chain(newer)
    }

    /// The concatenated signature, port-major (read ports, then write
    /// ports), oldest sample first — the DS bit vector of the paper in
    /// `(enable, value)` tuples.
    #[must_use]
    pub fn bits(&self) -> Vec<DataSample> {
        (0..DATA_PORTS)
            .flat_map(|p| self.oldest_first().map(move |r| (r.enables[p], r.values[p])))
            .collect()
    }

    /// Signature width in bits (65 bits per entry: 64 data + 1 enable).
    #[must_use]
    pub fn width_bits(&self) -> usize {
        self.rows.len() * DATA_PORTS * 65
    }

    /// Hamming distance to `other` in signature bits (0 ⇔ equal). A
    /// *magnitude* of data diversity beyond the paper's binary verdict.
    #[must_use]
    pub fn hamming(&self, other: &DataSignature) -> u32 {
        let mut d = 0u32;
        for (ra, rb) in self.oldest_first().zip(other.oldest_first()) {
            for p in 0..DATA_PORTS {
                d += u32::from(ra.enables[p] != rb.enables[p])
                    + (ra.values[p] ^ rb.values[p]).count_ones();
            }
        }
        d
    }

    /// Resets all FIFOs to the power-on state.
    pub fn reset(&mut self) {
        self.rows.fill(PortRow::default());
        self.head = 0;
    }
}

impl PartialEq for DataSignature {
    /// Bit-identical signatures: both rings walked from their oldest row.
    /// The rings' rotations differ once one core has held.
    fn eq(&self, other: &DataSignature) -> bool {
        self.rows.len() == other.rows.len() && self.oldest_first().eq(other.oldest_first())
    }
}

/// One IS entry packed into a word: the 32 encoding bits, with the valid bit
/// as bit 32, so a slot compares and XORs as one integer.
fn pack(valid: bool, raw: u32) -> u64 {
    u64::from(valid) << 32 | u64::from(raw)
}

/// The Instruction Signature (IS) of one core (paper, Section III-B2).
///
/// In [`IsLayout::PerStage`] the signature is the per-stage slot occupancy
/// `I_x^y` of Fig. 2b: `(valid, encoding)` for each of the `o × p` slots,
/// fetch stage first. In [`IsLayout::InFlight`] it degrades to the flat
/// list of in-flight instruction encodings, oldest first, padded with
/// invalid entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstructionSignature {
    layout: IsLayout,
    include_stale: bool,
    /// `(valid, encoding)` per entry, [`pack`]ed; in PerStage layout
    /// `slots[stage][slot]`, in InFlight layout read flat.
    slots: [[u64; PIPE_WIDTH]; PIPE_STAGES],
}

impl InstructionSignature {
    /// Creates the signature generator for `cfg`.
    #[must_use]
    pub fn new(cfg: &SafeDmConfig) -> InstructionSignature {
        InstructionSignature {
            layout: cfg.is_layout,
            include_stale: cfg.include_stale_bits,
            slots: [[0; PIPE_WIDTH]; PIPE_STAGES],
        }
    }

    /// Captures the pipeline occupancy of one cycle. Holds keep the previous
    /// capture (the stage registers did not move).
    pub fn capture(&mut self, probe: &CoreProbe) {
        if probe.hold {
            return;
        }
        match self.layout {
            IsLayout::PerStage => {
                let stale_mask = if self.include_stale { u32::MAX } else { 0 };
                for (entries, stage) in self.slots.iter_mut().zip(&probe.stages) {
                    for (entry, s) in entries.iter_mut().zip(stage) {
                        *entry = pack(s.valid, if s.valid { s.raw } else { s.raw & stale_mask });
                    }
                }
            }
            IsLayout::InFlight => {
                // Oldest (WB) first so the list is ordered by program age.
                let live = probe.stages.iter().rev().flatten().filter(|s| s.valid);
                let flat = self.slots.as_flattened_mut();
                let mut n = 0;
                for (entry, s) in flat.iter_mut().zip(live) {
                    *entry = pack(true, s.raw);
                    n += 1;
                }
                flat[n..].fill(0);
            }
        }
    }

    /// The signature as `(valid, encoding)` entries.
    #[must_use]
    pub fn bits(&self) -> Vec<(bool, u32)> {
        self.slots.as_flattened().iter().map(|&e| (e >> 32 != 0, e as u32)).collect()
    }

    /// Signature width in bits (33 bits per slot: 32 encoding + 1 valid).
    #[must_use]
    pub fn width_bits(&self) -> usize {
        PIPE_STAGES * PIPE_WIDTH * 33
    }

    /// Hamming distance to `other` in signature bits (0 ⇔ equal when both
    /// use the same layout).
    #[must_use]
    pub fn hamming(&self, other: &InstructionSignature) -> u32 {
        let (a, b) = (self.slots.as_flattened(), other.slots.as_flattened());
        a.iter().zip(b).map(|(a, b)| (a ^ b).count_ones()).sum()
    }

    /// Resets to the power-on state.
    pub fn reset(&mut self) {
        self.slots = [[0; PIPE_WIDTH]; PIPE_STAGES];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safedm_soc::{PortSample, StageSlot};

    fn probe_with_read(v: u64) -> CoreProbe {
        let mut p = CoreProbe::default();
        p.reads[0] = PortSample { enable: true, value: v };
        p
    }

    #[test]
    fn identical_streams_identical_ds() {
        let cfg = SafeDmConfig::default();
        let mut a = DataSignature::new(&cfg);
        let mut b = DataSignature::new(&cfg);
        for v in 0..20 {
            a.capture(&probe_with_read(v));
            b.capture(&probe_with_read(v));
            assert_eq!(a, b);
        }
    }

    #[test]
    fn one_different_value_breaks_ds_for_n_cycles() {
        let cfg = SafeDmConfig { data_fifo_depth: 4, ..SafeDmConfig::default() };
        let mut a = DataSignature::new(&cfg);
        let mut b = DataSignature::new(&cfg);
        a.capture(&probe_with_read(99));
        b.capture(&probe_with_read(11));
        assert_ne!(a, b);
        // After n identical cycles the divergent sample ages out.
        for v in 0..4 {
            a.capture(&probe_with_read(v));
            b.capture(&probe_with_read(v));
        }
        assert_eq!(a, b);
    }

    #[test]
    fn hold_freezes_ds() {
        let cfg = SafeDmConfig::default();
        let mut a = DataSignature::new(&cfg);
        let before = a.bits();
        let mut p = probe_with_read(42);
        p.hold = true;
        a.capture(&p);
        assert_eq!(a.bits(), before, "held cycle must not shift");
    }

    #[test]
    fn enable_bit_distinguishes_idle_from_zero() {
        let cfg = SafeDmConfig::default();
        let mut a = DataSignature::new(&cfg);
        let mut b = DataSignature::new(&cfg);
        let mut pa = CoreProbe::default();
        pa.reads[0] = PortSample { enable: true, value: 0 };
        let pb = CoreProbe::default(); // port idle, value 0
        a.capture(&pa);
        b.capture(&pb);
        assert_ne!(a, b, "active-zero differs from idle");
    }

    #[test]
    fn ds_width_matches_geometry() {
        let cfg = SafeDmConfig::default();
        let ds = DataSignature::new(&cfg);
        assert_eq!(ds.width_bits(), DATA_PORTS * cfg.data_fifo_depth * 65);
    }

    fn depth(n: usize) -> SafeDmConfig {
        SafeDmConfig { data_fifo_depth: n, ..SafeDmConfig::default() }
    }

    #[test]
    fn ds_bits_are_port_major_oldest_first() {
        let mut a = DataSignature::new(&depth(3));
        assert_eq!(a.bits(), vec![(false, 0); DATA_PORTS * 3], "power-on state is idle");
        for v in 1..=4u64 {
            let mut p = probe_with_read(v);
            p.writes[1] = PortSample { enable: v % 2 == 0, value: 10 * v };
            a.capture(&p);
        }
        // Sample 1 fell off; each port lists samples 2, 3, 4.
        let bits = a.bits();
        assert_eq!(&bits[..3], &[(true, 2), (true, 3), (true, 4)]);
        assert_eq!(&bits[3..6], &[(false, 0); 3], "read port 1 idle");
        assert_eq!(&bits[bits.len() - 3..], &[(true, 20), (false, 30), (true, 40)]);
    }

    #[test]
    fn ds_depth_one_tracks_last_sample() {
        let mut a = DataSignature::new(&depth(1));
        a.capture(&probe_with_read(3));
        assert_eq!(a.bits()[0], (true, 3));
        a.capture(&probe_with_read(4));
        assert_eq!(a.bits()[0], (true, 4));
        assert_eq!(a.width_bits(), DATA_PORTS * 65);
    }

    #[test]
    fn ds_equality_ignores_ring_rotation() {
        // b holds one cycle, so its ring is rotated one row behind a's; the
        // signatures still hold the same samples in the same order.
        let cfg = depth(4);
        let mut a = DataSignature::new(&cfg);
        let mut b = DataSignature::new(&cfg);
        b.capture(&probe_with_read(0));
        let mut held = probe_with_read(7);
        held.hold = true;
        for v in 1..=6 {
            a.capture(&probe_with_read(v));
            b.capture(&probe_with_read(v));
            b.capture(&held);
        }
        assert_ne!(a.head, b.head);
        assert_eq!(a, b);
        assert_eq!(a.hamming(&b), 0);
        a.capture(&probe_with_read(8));
        assert_ne!(a, b);
        b.capture(&probe_with_read(8));
        assert_eq!(a, b);
    }

    #[test]
    fn ds_reset_restores_power_on_state() {
        let cfg = depth(3);
        let mut a = DataSignature::new(&cfg);
        a.capture(&probe_with_read(9));
        a.reset();
        assert_eq!(a, DataSignature::new(&cfg));
        assert_eq!(a.bits(), DataSignature::new(&cfg).bits());
    }

    #[test]
    #[should_panic(expected = "depth")]
    fn ds_zero_depth_panics() {
        let _ = DataSignature::new(&depth(0));
    }

    fn probe_with_stage(stage: usize, slot: usize, raw: u32) -> CoreProbe {
        let mut p = CoreProbe::default();
        p.stages[stage][slot] = StageSlot { valid: true, raw };
        p
    }

    #[test]
    fn per_stage_distinguishes_stage_position() {
        let cfg = SafeDmConfig::default();
        let mut a = InstructionSignature::new(&cfg);
        let mut b = InstructionSignature::new(&cfg);
        a.capture(&probe_with_stage(2, 0, 0x13));
        b.capture(&probe_with_stage(3, 0, 0x13)); // same inst, other stage
        assert_ne!(a.bits(), b.bits());
    }

    #[test]
    fn in_flight_ignores_stage_position() {
        let cfg = SafeDmConfig { is_layout: IsLayout::InFlight, ..SafeDmConfig::default() };
        let mut a = InstructionSignature::new(&cfg);
        let mut b = InstructionSignature::new(&cfg);
        a.capture(&probe_with_stage(2, 0, 0x13));
        b.capture(&probe_with_stage(3, 0, 0x13));
        assert_eq!(a.bits(), b.bits(), "flat layout collapses stage position");
    }

    #[test]
    fn stale_bits_masked_by_default() {
        let cfg = SafeDmConfig::default();
        let mut a = InstructionSignature::new(&cfg);
        let mut b = InstructionSignature::new(&cfg);
        let mut pa = CoreProbe::default();
        pa.stages[4][0] = StageSlot { valid: false, raw: 0xdead_beef };
        let mut pb = CoreProbe::default();
        pb.stages[4][0] = StageSlot { valid: false, raw: 0x1234_5678 };
        a.capture(&pa);
        b.capture(&pb);
        assert_eq!(a.bits(), b.bits(), "invalid slots must compare equal");
    }

    #[test]
    fn stale_bits_kept_when_configured() {
        let cfg = SafeDmConfig { include_stale_bits: true, ..SafeDmConfig::default() };
        let mut a = InstructionSignature::new(&cfg);
        let mut b = InstructionSignature::new(&cfg);
        let mut pa = CoreProbe::default();
        pa.stages[4][0] = StageSlot { valid: false, raw: 0xdead_beef };
        let mut pb = CoreProbe::default();
        pb.stages[4][0] = StageSlot { valid: false, raw: 0x1234_5678 };
        a.capture(&pa);
        b.capture(&pb);
        assert_ne!(a.bits(), b.bits());
    }

    #[test]
    fn hamming_zero_iff_equal() {
        let cfg = SafeDmConfig::default();
        let mut a = DataSignature::new(&cfg);
        let mut b = DataSignature::new(&cfg);
        assert_eq!(a.hamming(&b), 0);
        a.capture(&probe_with_read(0b1011));
        b.capture(&probe_with_read(0b1000));
        // 2 differing data bits; enables equal
        assert_eq!(a.hamming(&b), 2);
        assert_ne!(a, b);
        b = a.clone();
        assert_eq!(a.hamming(&b), 0);
    }

    #[test]
    fn is_hamming_counts_encoding_bits() {
        let cfg = SafeDmConfig::default();
        let mut a = InstructionSignature::new(&cfg);
        let mut b = InstructionSignature::new(&cfg);
        a.capture(&probe_with_stage(3, 0, 0b1111));
        b.capture(&probe_with_stage(3, 0, 0b1000));
        assert_eq!(a.hamming(&b), 3);
        // valid-bit difference counts one plus the masked encoding
        let mut c = InstructionSignature::new(&cfg);
        c.capture(&CoreProbe::default());
        assert_eq!(a.hamming(&c), 1 + 4u32);
    }

    #[test]
    fn is_hold_freezes_capture() {
        let cfg = SafeDmConfig::default();
        let mut a = InstructionSignature::new(&cfg);
        a.capture(&probe_with_stage(1, 0, 0x77));
        let before = a.bits();
        let mut p = probe_with_stage(1, 0, 0x99);
        p.hold = true;
        a.capture(&p);
        assert_eq!(a.bits(), before);
    }
}
