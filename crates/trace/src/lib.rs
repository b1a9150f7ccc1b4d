//! Dynamic instruction stream model for `phaselab`.
//!
//! This crate defines the observation interface between an execution engine
//! (the `phaselab-vm` interpreter, standing in for a dynamic binary
//! instrumentation tool such as Pin) and analysis tools (the
//! `phaselab-mica` characterizer, standing in for the MICA Pin tool used
//! by Hoste & Eeckhout, ISPASS 2008).
//!
//! The central type is [`InstRecord`]: one dynamically executed instruction,
//! described exactly as far as a microarchitecture-independent analysis
//! needs — program counter, instruction class, register operands, memory
//! access, and branch outcome. Analysis tools implement [`TraceSink`] and
//! receive records in program order.
//!
//! # Examples
//!
//! ```
//! use phaselab_trace::{CountingSink, InstClass, InstRecord, TraceSink};
//!
//! let mut sink = CountingSink::new();
//! sink.observe(&InstRecord::new(0x1000, InstClass::IntAdd));
//! sink.observe(&InstRecord::new(0x1004, InstClass::Nop));
//! assert_eq!(sink.count(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
mod record;
mod sink;

pub use block::{
    BlockInst, BlockRecord, BlockSink, BlockSummary, BlockToInstAdapter, CountingBlockSink, MemRef,
    SummarySink,
};
pub use record::{
    ArchReg, BranchInfo, InstClass, InstRecord, MemAccess, RegReads, NUM_ARCH_REGS,
    NUM_INST_CLASSES,
};
pub use sink::{ClassHistogram, CountingSink, TraceSink, VecSink};
