//! Backing main memory with per-core private mirrors.
//!
//! Bare-metal redundant execution runs the *same* binary at the *same*
//! logical addresses on both cores. To avoid modelling an MMU or a cache
//! coherence protocol, the writable portion of RAM is mirrored per core:
//! logical address `A` on core `c` maps to the private space `Private(c)`,
//! while the (read-only) text section is shared in the `Code` space. This is
//! the moral equivalent of two processes with identical virtual layouts
//! backed by distinct physical pages — the situation the SafeDM paper
//! describes for software-replicated redundant threads.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Which memory space an access targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSpace {
    /// The shared, read-only code space.
    Code,
    /// The private writable mirror of one core.
    Private(usize),
}

impl MemSpace {
    /// Folds the space into high address bits, producing a unique "physical"
    /// key for cache tagging and memory indexing.
    #[must_use]
    pub fn fold(self, addr: u64) -> u64 {
        match self {
            MemSpace::Code => addr,
            MemSpace::Private(c) => addr | ((c as u64 + 1) << 40),
        }
    }
}

const LINE: u64 = 64; // backing granularity, independent of cache line size

/// Hasher for backing-line indices: one multiply, then the high half folded
/// into the low half so the space bits ([`MemSpace::fold`]) reach the
/// bucket index. Line keys are plain integers chosen by the program, not by
/// an adversary, so SipHash's flood resistance buys nothing here.
#[derive(Debug, Clone, Copy, Default)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("backing lines are keyed by u64 only");
    }

    fn write_u64(&mut self, key: u64) {
        let h = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }
}

type LineMap = HashMap<u64, [u8; LINE as usize], BuildHasherDefault<LineHasher>>;

/// Splits the folded byte range `[base, base + len)` at backing-line
/// boundaries: yields `(line index, offset in line, offset in range, bytes)`.
fn line_chunks(base: u64, len: usize) -> impl Iterator<Item = (u64, usize, usize, usize)> {
    let mut done = 0usize;
    std::iter::from_fn(move || {
        (done < len).then(|| {
            let a = base + done as u64;
            let off = (a % LINE) as usize;
            let n = (LINE as usize - off).min(len - done);
            let chunk = (a / LINE, off, done, n);
            done += n;
            chunk
        })
    })
}

/// Sparse byte-addressable backing store.
///
/// All functional data lives here (plus in-flight store-buffer entries);
/// the cache models are timing-only tag arrays.
///
/// # Examples
///
/// ```
/// use safedm_soc::{MainMemory, MemSpace};
///
/// let mut m = MainMemory::new();
/// m.write(MemSpace::Private(0), 0x8000_0000, &42u64.to_le_bytes());
/// let mut buf = [0u8; 8];
/// m.read(MemSpace::Private(0), 0x8000_0000, &mut buf);
/// assert_eq!(u64::from_le_bytes(buf), 42);
/// // The other core's mirror is untouched:
/// m.read(MemSpace::Private(1), 0x8000_0000, &mut buf);
/// assert_eq!(u64::from_le_bytes(buf), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MainMemory {
    lines: LineMap,
}

impl MainMemory {
    /// Creates an empty (all-zero) memory.
    #[must_use]
    pub fn new() -> MainMemory {
        MainMemory::default()
    }

    /// Reads `buf.len()` bytes from `addr` in `space`. Unwritten memory
    /// reads as zero.
    pub fn read(&self, space: MemSpace, addr: u64, buf: &mut [u8]) {
        for (line, off, at, n) in line_chunks(space.fold(addr), buf.len()) {
            let dst = &mut buf[at..at + n];
            match self.lines.get(&line) {
                Some(bytes) => dst.copy_from_slice(&bytes[off..off + n]),
                None => dst.fill(0),
            }
        }
    }

    /// Writes `data` at `addr` in `space`.
    pub fn write(&mut self, space: MemSpace, addr: u64, data: &[u8]) {
        for (line, off, at, n) in line_chunks(space.fold(addr), data.len()) {
            let bytes = self.lines.entry(line).or_insert([0; LINE as usize]);
            bytes[off..off + n].copy_from_slice(&data[at..at + n]);
        }
    }

    /// Writes `data` under a byte `mask` (bit `i` of `mask` enables byte `i`).
    /// A line none of whose bytes is enabled is left unallocated.
    pub fn write_masked(&mut self, space: MemSpace, addr: u64, data: &[u8], mask: &[bool]) {
        debug_assert_eq!(data.len(), mask.len());
        for (line, off, at, n) in line_chunks(space.fold(addr), data.len()) {
            let mask = &mask[at..at + n];
            if !mask.contains(&true) {
                continue;
            }
            let bytes = self.lines.entry(line).or_insert([0; LINE as usize]);
            for ((b, &d), &m) in bytes[off..off + n].iter_mut().zip(&data[at..at + n]).zip(mask) {
                if m {
                    *b = d;
                }
            }
        }
    }

    /// Reads a naturally-aligned 64-bit window containing `addr`.
    #[must_use]
    pub fn read_dword_window(&self, space: MemSpace, addr: u64) -> u64 {
        let mut buf = [0u8; 8];
        self.read(space, addr & !7, &mut buf);
        u64::from_le_bytes(buf)
    }

    /// Reads the 32-bit word at the 4-byte aligned `addr`.
    #[must_use]
    pub fn read_word(&self, space: MemSpace, addr: u64) -> u32 {
        let mut buf = [0u8; 4];
        self.read(space, addr & !3, &mut buf);
        u32::from_le_bytes(buf)
    }

    /// Number of backing lines allocated (for memory-footprint assertions).
    #[must_use]
    pub fn allocated_lines(&self) -> usize {
        self.lines.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_semantics() {
        let m = MainMemory::new();
        let mut buf = [0xffu8; 16];
        m.read(MemSpace::Code, 0x1000, &mut buf);
        assert_eq!(buf, [0u8; 16]);
    }

    #[test]
    fn spaces_are_disjoint() {
        let mut m = MainMemory::new();
        m.write(MemSpace::Code, 0x100, &[1]);
        m.write(MemSpace::Private(0), 0x100, &[2]);
        m.write(MemSpace::Private(1), 0x100, &[3]);
        let mut b = [0u8];
        m.read(MemSpace::Code, 0x100, &mut b);
        assert_eq!(b[0], 1);
        m.read(MemSpace::Private(0), 0x100, &mut b);
        assert_eq!(b[0], 2);
        m.read(MemSpace::Private(1), 0x100, &mut b);
        assert_eq!(b[0], 3);
    }

    #[test]
    fn cross_line_access() {
        let mut m = MainMemory::new();
        let data: Vec<u8> = (0..100).collect();
        m.write(MemSpace::Code, LINE - 10, &data);
        let mut buf = vec![0u8; 100];
        m.read(MemSpace::Code, LINE - 10, &mut buf);
        assert_eq!(buf, data);
    }

    #[test]
    fn masked_write() {
        let mut m = MainMemory::new();
        m.write(MemSpace::Code, 0, &[0xaa; 4]);
        m.write_masked(MemSpace::Code, 0, &[1, 2, 3, 4], &[true, false, true, false]);
        let mut buf = [0u8; 4];
        m.read(MemSpace::Code, 0, &mut buf);
        assert_eq!(buf, [1, 0xaa, 3, 0xaa]);
    }

    #[test]
    fn read_spanning_allocated_and_unallocated_lines() {
        let mut m = MainMemory::new();
        m.write(MemSpace::Private(1), 0x1000 - 4, &[1, 2, 3, 4]);
        assert_eq!(m.allocated_lines(), 1);
        let mut buf = [0xffu8; 12];
        m.read(MemSpace::Private(1), 0x1000 - 4, &mut buf);
        assert_eq!(buf, [1, 2, 3, 4, 0, 0, 0, 0, 0, 0, 0, 0]);
        // ...and the other way round: unallocated line first.
        m.write(MemSpace::Private(1), 0x2000, &[5, 6, 7, 8]);
        let mut buf = [0xffu8; 8];
        m.read(MemSpace::Private(1), 0x2000 - 4, &mut buf);
        assert_eq!(buf, [0, 0, 0, 0, 5, 6, 7, 8]);
        assert_eq!(m.allocated_lines(), 2, "reads allocate nothing");
    }

    #[test]
    fn masked_write_allocates_only_lines_with_enabled_bytes() {
        let mut m = MainMemory::new();
        m.write_masked(MemSpace::Code, LINE - 2, &[1, 2, 3, 4], &[false, false, true, false]);
        assert_eq!(m.allocated_lines(), 1, "only the line holding an enabled byte");
        assert_eq!(m.read_word(MemSpace::Code, LINE), 3);
    }

    #[test]
    fn dword_window_alignment() {
        let mut m = MainMemory::new();
        m.write(MemSpace::Code, 8, &0x1122_3344_5566_7788u64.to_le_bytes());
        assert_eq!(m.read_dword_window(MemSpace::Code, 11), 0x1122_3344_5566_7788);
        assert_eq!(m.read_word(MemSpace::Code, 8), 0x5566_7788);
        assert_eq!(m.read_word(MemSpace::Code, 12), 0x1122_3344);
    }
}
