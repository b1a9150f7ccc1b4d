//! Microarchitecture-independent characterization of instruction streams:
//! `phaselab`'s substitute for the MICA Pin tool.
//!
//! Hoste & Eeckhout characterize each 100M-instruction interval of a
//! workload with 69 microarchitecture-independent characteristics across
//! six categories (Table 1 of the ISPASS 2008 paper):
//!
//! | category | count | analyzer |
//! |---|---|---|
//! | instruction mix | 20 | [`MixAnalyzer`] |
//! | inherent ILP (window 32/64/128/256) | 4 | [`IlpAnalyzer`] |
//! | register traffic | 9 | [`RegTrafficAnalyzer`] |
//! | memory footprint | 4 | [`FootprintAnalyzer`] |
//! | data stream strides | 18 | [`StrideAnalyzer`] |
//! | branch predictability (PPM) | 14 | [`BranchAnalyzer`] |
//!
//! The [`IntervalCharacterizer`] drives all six analyzers over a dynamic
//! instruction stream (any [`TraceSink`](phaselab_trace::TraceSink)
//! producer, in practice the `phaselab-vm` interpreter) and emits one
//! [`FeatureVector`] per instruction interval.
//!
//! # Examples
//!
//! ```
//! use phaselab_mica::{IntervalCharacterizer, NUM_FEATURES};
//! use phaselab_trace::{InstClass, InstRecord, TraceSink};
//!
//! let mut chr = IntervalCharacterizer::new(100);
//! for i in 0..250 {
//!     chr.observe(&InstRecord::new(4 * i, InstClass::IntAdd));
//! }
//! chr.finish();
//! let intervals = chr.into_features();
//! assert_eq!(intervals.len(), 2); // two full intervals; the tail is dropped
//! assert_eq!(intervals[0].as_slice().len(), NUM_FEATURES);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aggregate;
mod branch;
mod characterizer;
#[cfg(test)]
mod equivalence;
mod features;
mod footprint;
mod fxhash;
mod ilp;
mod mix;
mod regtraffic;
mod strides;

pub use aggregate::AggregateCharacterizer;
pub use branch::BranchAnalyzer;
pub use characterizer::IntervalCharacterizer;
pub use features::{feature_index, feature_names, FeatureCategory, FeatureVector, NUM_FEATURES};
pub use footprint::FootprintAnalyzer;
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use ilp::{IlpAnalyzer, ILP_WINDOWS};
pub use mix::MixAnalyzer;
pub use regtraffic::RegTrafficAnalyzer;
pub use strides::StrideAnalyzer;

use phaselab_trace::InstRecord;

/// Revision of the feature definitions. Bump it whenever an analyzer
/// change alters the features of any instruction stream, so stored
/// characterizations from an older revision are recomputed, not reused.
///
/// Revision 2: PPM counters halve on saturation instead of pinning at
/// 65535, which changes any interval (or whole-run aggregate) in which
/// one context is observed 65535 times in one direction.
pub const FEATURE_REVISION: u32 = 2;

/// A per-interval analyzer computing a fixed slice of the feature vector.
///
/// All six MICA analyzers implement this trait; the
/// [`IntervalCharacterizer`] drives them in lock-step and resets them at
/// interval boundaries.
pub trait Analyzer {
    /// Observes one instruction. `index` is the instruction's position
    /// within the current interval, starting at 0.
    fn observe(&mut self, rec: &InstRecord, index: u64);

    /// Writes this analyzer's features into its slice of `out` (indexed by
    /// the global feature layout, see [`feature_names`]).
    fn emit(&self, out: &mut FeatureVector);

    /// Clears all per-interval state.
    fn reset(&mut self);
}
