//! Register traffic analyzer (9 features).

use phaselab_trace::{ArchReg, InstRecord, RegReads, NUM_ARCH_REGS};

use crate::features::{FeatureVector, REG_BASE};
use crate::Analyzer;

/// Number of cumulative register dependency-distance buckets: distances
/// (in dynamic instructions between producer and consumer) of at most
/// 1, 2, 4, … 64.
const DIST_BUCKETS: usize = 7;

/// Computes the register-traffic characteristics (Table 1, "register
/// traffic"):
///
/// * average number of register input operands per instruction,
/// * average degree of use — register reads per register write,
/// * the cumulative distribution of register dependency distances, i.e.
///   the number of dynamic instructions between the production and the
///   consumption of a register instance, in buckets ≤1, ≤2, ≤4, … ≤64.
///
/// Reads whose producer lies outside the current interval are counted in
/// the operand and degree-of-use averages but excluded from the distance
/// distribution (their distance is unknown).
#[derive(Debug, Clone)]
pub struct RegTrafficAnalyzer {
    total_instrs: u64,
    total_reads: u64,
    total_writes: u64,
    /// Index (within the interval) of the last write to each register;
    /// `u64::MAX` when the register has no producer this interval.
    last_write: [u64; NUM_ARCH_REGS],
    /// Reads with a known producer by distance class: slot `k` counts
    /// distances in `(2^(k-1), 2^k]` (slot 0 also distance 0), the last
    /// slot those beyond 64. `emit` accumulates the cumulative buckets.
    dist_hist: [u64; DIST_BUCKETS + 1],
}

impl RegTrafficAnalyzer {
    /// Creates an analyzer with empty counts.
    pub fn new() -> Self {
        RegTrafficAnalyzer {
            total_instrs: 0,
            total_reads: 0,
            total_writes: 0,
            last_write: [u64::MAX; NUM_ARCH_REGS],
            dist_hist: [0; DIST_BUCKETS + 1],
        }
    }

    /// Observes one instruction given its register operands directly — the
    /// block-path equivalent of [`Analyzer::observe`]: register traffic
    /// depends only on the static operand lists, which a block template
    /// already holds.
    #[inline]
    pub fn observe_ops(&mut self, reads: RegReads, write: Option<ArchReg>, index: u64) {
        self.total_instrs += 1;
        for r in reads.iter() {
            self.total_reads += 1;
            let producer = self.last_write[r.index()];
            if producer != u64::MAX {
                let dist = index - producer;
                // The smallest k with dist <= 2^k.
                let k = (u64::BITS - dist.saturating_sub(1).leading_zeros()) as usize;
                self.dist_hist[k.min(DIST_BUCKETS)] += 1;
            }
        }
        if let Some(w) = write {
            self.total_writes += 1;
            self.last_write[w.index()] = index;
        }
    }
}

impl Default for RegTrafficAnalyzer {
    fn default() -> Self {
        Self::new()
    }
}

impl Analyzer for RegTrafficAnalyzer {
    #[inline]
    fn observe(&mut self, rec: &InstRecord, index: u64) {
        self.observe_ops(rec.reads, rec.write, index);
    }

    fn emit(&self, out: &mut FeatureVector) {
        out[REG_BASE] = self.total_reads as f64 / self.total_instrs.max(1) as f64;
        out[REG_BASE + 1] = self.total_reads as f64 / self.total_writes.max(1) as f64;
        let denom = self.dist_hist.iter().sum::<u64>().max(1) as f64;
        let mut cumulative = 0;
        for (i, &c) in self.dist_hist[..DIST_BUCKETS].iter().enumerate() {
            cumulative += c;
            out[REG_BASE + 2 + i] = cumulative as f64 / denom;
        }
    }

    fn reset(&mut self) {
        *self = Self::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phaselab_trace::{ArchReg, InstClass};

    fn emit(a: &RegTrafficAnalyzer) -> Vec<f64> {
        let mut out = FeatureVector::zeros();
        a.emit(&mut out);
        (0..9).map(|i| out[REG_BASE + i]).collect()
    }

    #[test]
    fn average_operands() {
        let mut a = RegTrafficAnalyzer::new();
        let r1 = ArchReg::int(1);
        let r2 = ArchReg::int(2);
        // One instruction with 2 reads, one with 0 reads.
        a.observe(
            &InstRecord::new(0, InstClass::IntAdd).with_reads(&[r1, r2]),
            0,
        );
        a.observe(&InstRecord::new(4, InstClass::Nop), 1);
        assert_eq!(emit(&a)[0], 1.0);
    }

    #[test]
    fn degree_of_use_counts_reads_per_write() {
        let mut a = RegTrafficAnalyzer::new();
        let r = ArchReg::int(1);
        // 1 write, then 3 reads of it.
        a.observe(&InstRecord::new(0, InstClass::Mov).with_write(r), 0);
        for i in 1..=3 {
            a.observe(&InstRecord::new(4, InstClass::IntAdd).with_reads(&[r]), i);
        }
        assert_eq!(emit(&a)[1], 3.0);
    }

    #[test]
    fn dependency_distance_buckets_are_cumulative() {
        let mut a = RegTrafficAnalyzer::new();
        let r = ArchReg::int(1);
        a.observe(&InstRecord::new(0, InstClass::Mov).with_write(r), 0);
        // Distance 1 read.
        a.observe(&InstRecord::new(4, InstClass::IntAdd).with_reads(&[r]), 1);
        // Distance 5 read.
        a.observe(&InstRecord::new(8, InstClass::IntAdd).with_reads(&[r]), 5);
        let f = emit(&a);
        assert_eq!(f[2], 0.5); // le1: only the first read
        assert_eq!(f[3], 0.5); // le2
        assert_eq!(f[4], 0.5); // le4
        assert_eq!(f[5], 1.0); // le8: both
        assert_eq!(f[8], 1.0); // le64
    }

    #[test]
    fn reads_without_producer_are_excluded_from_distances() {
        let mut a = RegTrafficAnalyzer::new();
        let r = ArchReg::int(7);
        a.observe(&InstRecord::new(0, InstClass::IntAdd).with_reads(&[r]), 0);
        let f = emit(&a);
        assert_eq!(f[0], 1.0); // still an operand
        assert!((2..9).all(|i| f[i] == 0.0)); // no known distance
    }

    #[test]
    fn monotone_cumulative_distribution() {
        let mut a = RegTrafficAnalyzer::new();
        let r = ArchReg::int(1);
        for i in 0..1000u64 {
            let rec = InstRecord::new(0, InstClass::IntAdd)
                .with_reads(&[r])
                .with_write(r);
            a.observe(&rec, i);
        }
        let f = emit(&a);
        for i in 3..9 {
            assert!(f[i] >= f[i - 1] - 1e-12);
        }
    }

    #[test]
    fn reset_clears_producers() {
        let mut a = RegTrafficAnalyzer::new();
        let r = ArchReg::int(1);
        a.observe(&InstRecord::new(0, InstClass::Mov).with_write(r), 0);
        a.reset();
        a.observe(&InstRecord::new(4, InstClass::IntAdd).with_reads(&[r]), 0);
        let f = emit(&a);
        assert!((2..9).all(|i| f[i] == 0.0), "stale producer after reset");
    }
}
