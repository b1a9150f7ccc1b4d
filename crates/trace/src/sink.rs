//! Trace consumption: the [`TraceSink`] trait and simple sink adapters.

use crate::record::{InstClass, InstRecord, NUM_INST_CLASSES};

/// A consumer of a dynamic instruction stream.
///
/// The execution engine calls [`observe`](TraceSink::observe) once per
/// dynamically executed instruction, in program order. Implementations
/// should be cheap: this is the hot path of every characterization run.
///
/// # Examples
///
/// ```
/// use phaselab_trace::{InstClass, InstRecord, TraceSink};
///
/// struct BranchCounter(u64);
/// impl TraceSink for BranchCounter {
///     fn observe(&mut self, rec: &InstRecord) {
///         if rec.class == InstClass::CondBranch {
///             self.0 += 1;
///         }
///     }
/// }
///
/// let mut sink = BranchCounter(0);
/// sink.observe(&InstRecord::new(0, InstClass::CondBranch));
/// assert_eq!(sink.0, 1);
/// ```
pub trait TraceSink {
    /// Observes one dynamically executed instruction.
    fn observe(&mut self, rec: &InstRecord);

    /// Called once when the traced execution finishes.
    ///
    /// Sinks that aggregate state (e.g. per-interval characterizers) can
    /// flush partial results here. The default implementation does nothing.
    fn finish(&mut self) {}
}

impl<S: TraceSink + ?Sized> TraceSink for &mut S {
    #[inline]
    fn observe(&mut self, rec: &InstRecord) {
        (**self).observe(rec);
    }

    fn finish(&mut self) {
        (**self).finish();
    }
}

/// A sink that counts observed instructions.
///
/// # Examples
///
/// ```
/// use phaselab_trace::{CountingSink, InstClass, InstRecord, TraceSink};
///
/// let mut sink = CountingSink::new();
/// sink.observe(&InstRecord::new(0, InstClass::Nop));
/// assert_eq!(sink.count(), 1);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingSink {
    count: u64,
}

impl CountingSink {
    /// Creates a sink with a zero count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of instructions observed so far.
    pub fn count(&self) -> u64 {
        self.count
    }
}

impl TraceSink for CountingSink {
    #[inline]
    fn observe(&mut self, _rec: &InstRecord) {
        self.count += 1;
    }
}

/// A sink that stores every observed record.
///
/// Intended for tests and small traces; a full characterization run should
/// stream into an analyzing sink instead of materializing records.
///
/// # Examples
///
/// ```
/// use phaselab_trace::{InstClass, InstRecord, TraceSink, VecSink};
///
/// let mut sink = VecSink::new();
/// sink.observe(&InstRecord::new(0, InstClass::IntAdd));
/// assert_eq!(sink.records().len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VecSink {
    records: Vec<InstRecord>,
}

impl VecSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The records observed so far, in program order.
    pub fn records(&self) -> &[InstRecord] {
        &self.records
    }

    /// Consumes the sink and returns the collected records.
    pub fn into_records(self) -> Vec<InstRecord> {
        self.records
    }
}

impl TraceSink for VecSink {
    #[inline]
    fn observe(&mut self, rec: &InstRecord) {
        self.records.push(*rec);
    }
}

/// A sink that histograms instructions by [`InstClass`].
///
/// # Examples
///
/// ```
/// use phaselab_trace::{ClassHistogram, InstClass, InstRecord, TraceSink};
///
/// let mut hist = ClassHistogram::new();
/// hist.observe(&InstRecord::new(0, InstClass::FpMul));
/// hist.observe(&InstRecord::new(4, InstClass::FpMul));
/// assert_eq!(hist.count_of(InstClass::FpMul), 2);
/// assert_eq!(hist.total(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassHistogram {
    counts: [u64; NUM_INST_CLASSES],
    total: u64,
}

impl ClassHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count of instructions of the given class.
    pub fn count_of(&self, class: InstClass) -> u64 {
        self.counts[class.index()]
    }

    /// Total instructions observed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Fraction of instructions of the given class, or 0 if empty.
    pub fn fraction_of(&self, class: InstClass) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count_of(class) as f64 / self.total as f64
        }
    }
}

impl Default for ClassHistogram {
    fn default() -> Self {
        ClassHistogram {
            counts: [0; NUM_INST_CLASSES],
            total: 0,
        }
    }
}

impl TraceSink for ClassHistogram {
    #[inline]
    fn observe(&mut self, rec: &InstRecord) {
        self.counts[rec.class.index()] += 1;
        self.total += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::InstClass;

    fn rec(class: InstClass) -> InstRecord {
        InstRecord::new(0, class)
    }

    #[test]
    fn counting_sink_counts() {
        let mut s = CountingSink::new();
        for _ in 0..5 {
            s.observe(&rec(InstClass::Nop));
        }
        assert_eq!(s.count(), 5);
    }

    #[test]
    fn vec_sink_preserves_order() {
        let mut s = VecSink::new();
        s.observe(&rec(InstClass::IntAdd));
        s.observe(&rec(InstClass::FpMul));
        let classes: Vec<InstClass> = s.into_records().iter().map(|r| r.class).collect();
        assert_eq!(classes, vec![InstClass::IntAdd, InstClass::FpMul]);
    }

    #[test]
    fn histogram_fractions() {
        let mut h = ClassHistogram::new();
        assert_eq!(h.fraction_of(InstClass::Nop), 0.0);
        h.observe(&rec(InstClass::Nop));
        h.observe(&rec(InstClass::IntAdd));
        h.observe(&rec(InstClass::IntAdd));
        h.observe(&rec(InstClass::IntAdd));
        assert!((h.fraction_of(InstClass::IntAdd) - 0.75).abs() < 1e-12);
        assert!((h.fraction_of(InstClass::Nop) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn sink_usable_through_mut_ref() {
        fn feed(mut sink: impl TraceSink) {
            sink.observe(&InstRecord::new(0, InstClass::Nop));
        }
        let mut s = CountingSink::new();
        feed(&mut s);
        assert_eq!(s.count(), 1);
    }
}
