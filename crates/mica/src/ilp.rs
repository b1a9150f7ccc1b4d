//! Inherent instruction-level parallelism analyzer (4 features).

use phaselab_trace::{ArchReg, InstRecord, RegReads, NUM_ARCH_REGS};

use crate::features::{FeatureVector, ILP_BASE};
use crate::Analyzer;

/// The four idealized-processor window sizes of the characterization.
pub const ILP_WINDOWS: [usize; 4] = [32, 64, 128, 256];

/// Computes the IPC achievable on an idealized processor — perfect caches,
/// perfect branch prediction, unit-latency functional units, register
/// dependences only — for window sizes of 32, 64, 128 and 256 in-flight
/// instructions (the "ILP" row of Table 1).
///
/// An instruction may issue once (a) its register producers have
/// completed, and (b) the instruction `W` positions ahead of it has
/// completed (the in-flight window constraint). Memory dependences are
/// ignored (perfect memory disambiguation), matching MICA's
/// register-dependence ILP model.
///
/// # Examples
///
/// ```
/// use phaselab_mica::{Analyzer, FeatureVector, IlpAnalyzer};
/// use phaselab_trace::{ArchReg, InstClass, InstRecord};
///
/// // A chain of dependent adds has IPC 1 regardless of window size.
/// let mut ilp = IlpAnalyzer::new();
/// let r = ArchReg::int(1);
/// for i in 0..100 {
///     let rec = InstRecord::new(4 * i, InstClass::IntAdd)
///         .with_reads(&[r])
///         .with_write(r);
///     ilp.observe(&rec, i);
/// }
/// let mut out = FeatureVector::zeros();
/// ilp.emit(&mut out);
/// assert!((out[20] - 1.0).abs() < 0.05); // ilp_win32 ~ 1
/// ```
#[derive(Debug, Clone)]
pub struct IlpAnalyzer {
    /// Per-window completion cycles of the last [`RING`] instructions,
    /// at their interval position mod [`RING`]. Window `W` reads the
    /// entry of the instruction `W` positions back; an entry not yet
    /// written this interval holds 0, which never delays an issue.
    ring: Box<[[u64; 4]; RING]>,
    /// Per-window completion cycle of each architectural register's
    /// latest producer.
    reg_ready: [[u64; 4]; NUM_ARCH_REGS],
    /// Per-window maximum completion cycle.
    horizon: [u64; 4],
    count: u64,
}

/// Ring length: the largest window.
const RING: usize = ILP_WINDOWS[3];
const _: () = assert!(RING.is_power_of_two());

impl IlpAnalyzer {
    /// Creates an analyzer for the four standard window sizes.
    pub fn new() -> Self {
        IlpAnalyzer {
            ring: Box::new([[0; 4]; RING]),
            reg_ready: [[0; 4]; NUM_ARCH_REGS],
            horizon: [0; 4],
            count: 0,
        }
    }

    /// Observes one instruction given its register operands directly — the
    /// block-path equivalent of [`Analyzer::observe`], taking the static
    /// fields a block template already holds so no
    /// [`InstRecord`] needs to be materialized. The ILP model uses only
    /// register dependences, so this is the complete input.
    #[inline]
    pub fn observe_ops(&mut self, reads: RegReads, write: Option<ArchReg>, index: u64) {
        let i = index as usize;
        // Window constraint: the instruction `W` earlier must have
        // completed before this one can enter a `W`-entry window.
        let mut start: [u64; 4] =
            std::array::from_fn(|w| self.ring[i.wrapping_sub(ILP_WINDOWS[w]) % RING][w]);
        for r in reads.iter() {
            let ready = &self.reg_ready[r.index()];
            for w in 0..4 {
                start[w] = start[w].max(ready[w]);
            }
        }
        let completion = start.map(|s| s + 1);
        self.ring[i % RING] = completion;
        if let Some(w) = write {
            self.reg_ready[w.index()] = completion;
        }
        for w in 0..4 {
            self.horizon[w] = self.horizon[w].max(completion[w]);
        }
        self.count += 1;
    }
}

impl Default for IlpAnalyzer {
    fn default() -> Self {
        Self::new()
    }
}

impl Analyzer for IlpAnalyzer {
    #[inline]
    fn observe(&mut self, rec: &InstRecord, index: u64) {
        self.observe_ops(rec.reads, rec.write, index);
    }

    fn emit(&self, out: &mut FeatureVector) {
        for (i, &h) in self.horizon.iter().enumerate() {
            out[ILP_BASE + i] = if h == 0 {
                0.0
            } else {
                self.count as f64 / h as f64
            };
        }
    }

    fn reset(&mut self) {
        *self.ring = [[0; 4]; RING];
        self.reg_ready = [[0; 4]; NUM_ARCH_REGS];
        self.horizon = [0; 4];
        self.count = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phaselab_trace::{ArchReg, InstClass};

    fn emit(ilp: &IlpAnalyzer) -> Vec<f64> {
        let mut out = FeatureVector::zeros();
        ilp.emit(&mut out);
        (0..4).map(|i| out[ILP_BASE + i]).collect()
    }

    #[test]
    fn independent_instructions_saturate_window() {
        // Fully independent instructions: each window of W instructions can
        // retire W per cycle once warmed, so IPC approaches W.
        let mut ilp = IlpAnalyzer::new();
        for i in 0..100_000u64 {
            // Round-robin destination registers, no reads: no dependences.
            let w = ArchReg::int((i % 32) as u8);
            let rec = InstRecord::new(4 * i, InstClass::IntAdd).with_write(w);
            ilp.observe(&rec, i);
        }
        let ipc = emit(&ilp);
        assert!(ipc[0] > 28.0, "win32 IPC {}", ipc[0]);
        assert!(ipc[3] > 200.0, "win256 IPC {}", ipc[3]);
        // Larger windows expose at least as much ILP.
        assert!(ipc[1] >= ipc[0] - 1e-9);
        assert!(ipc[2] >= ipc[1] - 1e-9);
        assert!(ipc[3] >= ipc[2] - 1e-9);
    }

    #[test]
    fn dependent_chain_has_ipc_one() {
        let mut ilp = IlpAnalyzer::new();
        let r = ArchReg::int(1);
        for i in 0..10_000u64 {
            let rec = InstRecord::new(4 * i, InstClass::IntAdd)
                .with_reads(&[r])
                .with_write(r);
            ilp.observe(&rec, i);
        }
        let ipc = emit(&ilp);
        for v in ipc {
            assert!((v - 1.0).abs() < 0.01, "chain IPC {v}");
        }
    }

    #[test]
    fn two_independent_chains_have_ipc_two() {
        let mut ilp = IlpAnalyzer::new();
        let a = ArchReg::int(1);
        let b = ArchReg::int(2);
        for i in 0..10_000u64 {
            let r = if i % 2 == 0 { a } else { b };
            let rec = InstRecord::new(4 * i, InstClass::IntAdd)
                .with_reads(&[r])
                .with_write(r);
            ilp.observe(&rec, i);
        }
        let ipc = emit(&ilp);
        assert!((ipc[0] - 2.0).abs() < 0.01, "two-chain IPC {}", ipc[0]);
    }

    #[test]
    fn empty_interval_emits_zero() {
        let ilp = IlpAnalyzer::new();
        assert_eq!(emit(&ilp), vec![0.0; 4]);
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut ilp = IlpAnalyzer::new();
        let r = ArchReg::int(3);
        for i in 0..100 {
            let rec = InstRecord::new(0, InstClass::IntAdd)
                .with_reads(&[r])
                .with_write(r);
            ilp.observe(&rec, i);
        }
        ilp.reset();
        assert_eq!(emit(&ilp), vec![0.0; 4]);
    }
}
