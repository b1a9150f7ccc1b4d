//! Memory footprint analyzer (4 features).

use phaselab_trace::InstRecord;

use crate::features::{FeatureVector, FOOTPRINT_BASE};
use crate::fxhash::FxHashSet;
use crate::Analyzer;

/// 64-byte blocks per 4 KB page, as a shift.
const BLOCKS_PER_PAGE_LOG2: u32 = 6;

/// Inserts a 64-byte block, and its page only when the block is new: a
/// block already present implies its page is too.
#[inline]
fn insert(blocks: &mut FxHashSet<u64>, pages: &mut FxHashSet<u64>, block: u64) {
    if blocks.insert(block) {
        pages.insert(block >> BLOCKS_PER_PAGE_LOG2);
    }
}

/// Counts the unique 64-byte blocks and 4 KB pages touched by the
/// instruction stream and by the data stream within an interval (Table 1,
/// "memory footprint").
///
/// # Examples
///
/// ```
/// use phaselab_mica::{Analyzer, FeatureVector, FootprintAnalyzer};
/// use phaselab_trace::{InstClass, InstRecord, MemAccess};
///
/// let mut fp = FootprintAnalyzer::new();
/// let rec = InstRecord::new(0x1000, InstClass::MemRead)
///     .with_mem(MemAccess { addr: 0x2000, size: 8, is_store: false });
/// fp.observe(&rec, 0);
/// let mut out = FeatureVector::zeros();
/// fp.emit(&mut out);
/// assert_eq!(out[33], 1.0); // one instruction block
/// assert_eq!(out[35], 1.0); // one data block
/// ```
#[derive(Debug, Clone, Default)]
pub struct FootprintAnalyzer {
    instr_blocks: FxHashSet<u64>,
    instr_pages: FxHashSet<u64>,
    data_blocks: FxHashSet<u64>,
    data_pages: FxHashSet<u64>,
}

impl FootprintAnalyzer {
    /// Creates an analyzer with empty footprints.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes the instruction-stream footprint of `n` consecutive
    /// 4-byte instructions starting at byte address `base_pc` — the
    /// block-path equivalent of the per-record `rec.pc` inserts. A
    /// straight-line block covers a contiguous pc range, so the same set
    /// of 64-byte blocks and 4 KB pages is inserted with at most
    /// `n/16 + 1` block inserts instead of `n`.
    #[inline]
    pub fn observe_instr_span(&mut self, base_pc: u64, n: u64) {
        if n == 0 {
            return;
        }
        let last_pc = base_pc + 4 * (n - 1);
        for block in (base_pc >> 6)..=(last_pc >> 6) {
            insert(&mut self.instr_blocks, &mut self.instr_pages, block);
        }
    }

    /// Observes one data access — the block-path equivalent of the
    /// `rec.mem` half of [`Analyzer::observe`].
    #[inline]
    pub fn observe_data(&mut self, addr: u64, size: u8) {
        insert(&mut self.data_blocks, &mut self.data_pages, addr >> 6);
        // A wide access may straddle a block boundary.
        let last = addr + size as u64 - 1;
        if last >> 6 != addr >> 6 {
            insert(&mut self.data_blocks, &mut self.data_pages, last >> 6);
        }
    }
}

impl Analyzer for FootprintAnalyzer {
    #[inline]
    fn observe(&mut self, rec: &InstRecord, _index: u64) {
        insert(&mut self.instr_blocks, &mut self.instr_pages, rec.pc >> 6);
        if let Some(mem) = rec.mem {
            self.observe_data(mem.addr, mem.size);
        }
    }

    fn emit(&self, out: &mut FeatureVector) {
        out[FOOTPRINT_BASE] = self.instr_blocks.len() as f64;
        out[FOOTPRINT_BASE + 1] = self.instr_pages.len() as f64;
        out[FOOTPRINT_BASE + 2] = self.data_blocks.len() as f64;
        out[FOOTPRINT_BASE + 3] = self.data_pages.len() as f64;
    }

    fn reset(&mut self) {
        self.instr_blocks.clear();
        self.instr_pages.clear();
        self.data_blocks.clear();
        self.data_pages.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phaselab_trace::{InstClass, MemAccess};

    fn emit(a: &FootprintAnalyzer) -> [f64; 4] {
        let mut out = FeatureVector::zeros();
        a.emit(&mut out);
        [
            out[FOOTPRINT_BASE],
            out[FOOTPRINT_BASE + 1],
            out[FOOTPRINT_BASE + 2],
            out[FOOTPRINT_BASE + 3],
        ]
    }

    #[test]
    fn same_block_counted_once() {
        let mut a = FootprintAnalyzer::new();
        for pc in [0u64, 8, 16, 63] {
            a.observe(&InstRecord::new(pc, InstClass::Nop), 0);
        }
        assert_eq!(emit(&a), [1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn blocks_vs_pages() {
        let mut a = FootprintAnalyzer::new();
        // 64 instruction blocks, all in one 4K page.
        for i in 0..64u64 {
            a.observe(&InstRecord::new(i * 64, InstClass::Nop), 0);
        }
        assert_eq!(emit(&a), [64.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn data_footprint_tracks_accesses() {
        let mut a = FootprintAnalyzer::new();
        for i in 0..10u64 {
            let rec = InstRecord::new(0, InstClass::MemRead).with_mem(MemAccess {
                addr: i * 4096,
                size: 8,
                is_store: false,
            });
            a.observe(&rec, 0);
        }
        let [ib, ip, db, dp] = emit(&a);
        assert_eq!((ib, ip), (1.0, 1.0));
        assert_eq!((db, dp), (10.0, 10.0));
    }

    #[test]
    fn straddling_access_touches_two_blocks() {
        let mut a = FootprintAnalyzer::new();
        let rec = InstRecord::new(0, InstClass::MemRead).with_mem(MemAccess {
            addr: 60,
            size: 8,
            is_store: false,
        });
        a.observe(&rec, 0);
        assert_eq!(emit(&a)[2], 2.0);
    }

    #[test]
    fn reset_empties_footprints() {
        let mut a = FootprintAnalyzer::new();
        a.observe(&InstRecord::new(100, InstClass::Nop), 0);
        a.reset();
        assert_eq!(emit(&a), [0.0, 0.0, 0.0, 0.0]);
    }
}
