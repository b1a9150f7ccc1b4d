//! Typed errors for the study pipeline.
//!
//! The pipeline distinguishes three failure domains, mirroring its
//! stages:
//!
//! * [`ConfigError`] — the study was mis-configured; nothing ran.
//! * Characterization faults — a workload faulted in the VM. A single
//!   faulting benchmark does **not** fail the study: it is quarantined
//!   (see [`QuarantinedBenchmark`] and
//!   [`StudyResult::quarantined`](crate::StudyResult::quarantined)) and
//!   the study completes on the survivors. Only when *every* selected
//!   benchmark faults does the study fail with
//!   [`StudyError::Characterization`].
//! * [`AnalysisError`] — the surviving data set is too degenerate to
//!   analyze.

use std::error::Error;
use std::fmt;

use phaselab_ga::GaConfigError;
use phaselab_vm::{VerifyError, VmError};
use phaselab_workloads::Suite;

/// An invalid [`StudyConfig`](crate::StudyConfig).
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `interval_len` is zero.
    ZeroIntervalLength,
    /// `samples_per_benchmark` is zero.
    ZeroSamples,
    /// `k` is zero.
    ZeroClusters,
    /// More prominent phases requested than clusters exist.
    ProminentExceedsClusters {
        /// Requested number of prominent phases.
        n_prominent: usize,
        /// Configured number of clusters.
        k: usize,
    },
    /// `n_key_characteristics` is zero.
    ZeroKeyCharacteristics,
    /// `n_key_characteristics` exceeds the number of measured
    /// characteristics.
    TooManyKeyCharacteristics {
        /// Requested number of key characteristics.
        requested: usize,
        /// Number of characteristics the suite measures.
        available: usize,
    },
    /// `suites` is `Some` but lists no suites.
    EmptySuiteFilter,
    /// `max_inst_per_bench` is `Some(0)`: a zero-instruction watchdog
    /// budget would quarantine every benchmark.
    ZeroBenchBudget,
    /// Streaming analysis was requested without a checkpoint store to
    /// stream from.
    StreamingNeedsStore,
    /// The genetic-algorithm sub-configuration is invalid.
    Ga(GaConfigError),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroIntervalLength => write!(f, "interval length must be positive"),
            ConfigError::ZeroSamples => write!(f, "need at least one sample per benchmark"),
            ConfigError::ZeroClusters => write!(f, "need at least one cluster"),
            ConfigError::ProminentExceedsClusters { n_prominent, k } => write!(
                f,
                "cannot keep more prominent phases ({n_prominent}) than clusters ({k})"
            ),
            ConfigError::ZeroKeyCharacteristics => {
                write!(f, "need at least one key characteristic")
            }
            ConfigError::TooManyKeyCharacteristics {
                requested,
                available,
            } => write!(
                f,
                "cannot select {requested} key characteristics from {available} measured ones"
            ),
            ConfigError::EmptySuiteFilter => write!(f, "empty suite filter"),
            ConfigError::ZeroBenchBudget => {
                write!(f, "per-benchmark instruction budget must be positive")
            }
            ConfigError::StreamingNeedsStore => {
                write!(f, "streaming analysis requires a checkpoint store")
            }
            ConfigError::Ga(e) => write!(f, "invalid GA configuration: {e}"),
        }
    }
}

impl Error for ConfigError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ConfigError::Ga(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GaConfigError> for ConfigError {
    fn from(e: GaConfigError) -> Self {
        ConfigError::Ga(e)
    }
}

/// Why a benchmark was removed from a study.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuarantineCause {
    /// One of the benchmark's inputs faulted in the VM.
    Fault(VmError),
    /// The benchmark blew through its per-benchmark instruction budget
    /// (`max_inst_per_bench`) without halting — the watchdog treats it
    /// as runaway.
    Runaway {
        /// The exceeded budget, in instructions.
        budget: u64,
    },
    /// One of the benchmark's inputs failed the static pre-flight
    /// verification ([`Program::verify`](phaselab_vm::Program::verify))
    /// and was never run.
    StaticallyInvalid(VerifyError),
}

impl fmt::Display for QuarantineCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuarantineCause::Fault(e) => write!(f, "faulted: {e}"),
            QuarantineCause::Runaway { budget } => {
                write!(f, "ran away: exceeded the {budget}-instruction budget")
            }
            QuarantineCause::StaticallyInvalid(e) => write!(f, "statically invalid: {e}"),
        }
    }
}

/// A benchmark excluded from a study because one of its inputs faulted
/// in the VM or exceeded the runaway watchdog's instruction budget.
///
/// Quarantine is all-or-nothing per benchmark: a fault in any input
/// removes the whole benchmark from the data set, so the equal-weight
/// sampling never sees a partially characterized benchmark.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedBenchmark {
    /// The benchmark's name.
    pub name: String,
    /// The suite it belongs to.
    pub suite: Suite,
    /// Index of the offending input.
    pub input: usize,
    /// Name of the offending input.
    pub input_name: String,
    /// Why the benchmark was quarantined.
    pub cause: QuarantineCause,
}

impl QuarantinedBenchmark {
    /// The VM fault, when the cause was a fault.
    pub fn vm_error(&self) -> Option<&VmError> {
        match &self.cause {
            QuarantineCause::Fault(e) => Some(e),
            _ => None,
        }
    }

    /// Whether the benchmark was quarantined by the runaway watchdog.
    pub fn is_runaway(&self) -> bool {
        matches!(self.cause, QuarantineCause::Runaway { .. })
    }

    /// The static-verification failure, when the cause was the
    /// pre-flight verifier.
    pub fn verify_error(&self) -> Option<&VerifyError> {
        match &self.cause {
            QuarantineCause::StaticallyInvalid(e) => Some(e),
            _ => None,
        }
    }
}

impl fmt::Display for QuarantinedBenchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] input `{}` {}",
            self.name,
            self.suite.short_name(),
            self.input_name,
            self.cause
        )
    }
}

impl Error for QuarantinedBenchmark {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match &self.cause {
            QuarantineCause::Fault(e) => Some(e),
            QuarantineCause::Runaway { .. } => None,
            QuarantineCause::StaticallyInvalid(e) => Some(e),
        }
    }
}

/// The surviving data set is too degenerate to analyze.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalysisError {
    /// The study was asked to run over an empty benchmark list.
    NoBenchmarksSelected,
    /// Sampling produced no intervals (every surviving benchmark
    /// characterized to nothing).
    NoIntervalsSampled,
    /// A streamed pass over the checkpoint store recomputed a benchmark
    /// whose outcome no longer matches what the study's earlier stages
    /// saw (e.g. the store was tampered with mid-run). Re-running the
    /// study from a clean store is the only safe recovery.
    InconsistentCheckpoint {
        /// The benchmark whose streamed outcome diverged.
        bench: String,
    },
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::NoBenchmarksSelected => {
                write!(f, "no benchmarks selected for the study")
            }
            AnalysisError::NoIntervalsSampled => write!(f, "no intervals were sampled"),
            AnalysisError::InconsistentCheckpoint { bench } => write!(
                f,
                "checkpoint store became inconsistent mid-study (benchmark `{bench}`)"
            ),
        }
    }
}

impl Error for AnalysisError {}

/// A study that could not produce a result.
#[derive(Debug, Clone, PartialEq)]
pub enum StudyError {
    /// The configuration is invalid (see [`ConfigError`]).
    Config(ConfigError),
    /// Every selected benchmark faulted during characterization; the
    /// quarantine list holds one record per benchmark.
    Characterization {
        /// The fault of every selected benchmark, in selection order.
        quarantined: Vec<QuarantinedBenchmark>,
    },
    /// The surviving data set could not be analyzed.
    Analysis(AnalysisError),
    /// The study was cancelled (Ctrl-C or a tripped
    /// [`CancelToken`](phaselab_par::CancelToken)) before it could
    /// finish. Checkpointed progress, if a store was attached, survives
    /// for a later resume.
    Cancelled,
}

impl fmt::Display for StudyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StudyError::Config(e) => write!(f, "invalid study configuration: {e}"),
            StudyError::Characterization { quarantined } => {
                write!(
                    f,
                    "all {} selected benchmarks were quarantined (first: {})",
                    quarantined.len(),
                    quarantined
                        .first()
                        .map_or_else(|| "none".into(), std::string::ToString::to_string)
                )
            }
            StudyError::Analysis(e) => write!(f, "analysis failed: {e}"),
            StudyError::Cancelled => write!(f, "study cancelled before completion"),
        }
    }
}

impl Error for StudyError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StudyError::Config(e) => Some(e),
            StudyError::Characterization { quarantined } => {
                quarantined.first().map(|q| q as &(dyn Error + 'static))
            }
            StudyError::Analysis(e) => Some(e),
            StudyError::Cancelled => None,
        }
    }
}

impl From<ConfigError> for StudyError {
    fn from(e: ConfigError) -> Self {
        StudyError::Config(e)
    }
}

impl From<AnalysisError> for StudyError {
    fn from(e: AnalysisError) -> Self {
        StudyError::Analysis(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_one_line() {
        let q = QuarantinedBenchmark {
            name: "gcc".into(),
            suite: Suite::SpecInt2000,
            input: 1,
            input_name: "200".into(),
            cause: QuarantineCause::Fault(VmError::PcOutOfRange { pc: 99 }),
        };
        let runaway = QuarantinedBenchmark {
            name: "perl".into(),
            suite: Suite::SpecInt2006,
            input: 0,
            input_name: "ref".into(),
            cause: QuarantineCause::Runaway { budget: 1_000_000 },
        };
        for msg in [
            ConfigError::ZeroClusters.to_string(),
            ConfigError::ProminentExceedsClusters {
                n_prominent: 5,
                k: 3,
            }
            .to_string(),
            q.to_string(),
            runaway.to_string(),
            StudyError::Characterization {
                quarantined: vec![q.clone()],
            }
            .to_string(),
            StudyError::Analysis(AnalysisError::NoIntervalsSampled).to_string(),
            StudyError::Cancelled.to_string(),
            ConfigError::StreamingNeedsStore.to_string(),
            AnalysisError::InconsistentCheckpoint {
                bench: "gcc".into(),
            }
            .to_string(),
        ] {
            assert!(!msg.is_empty());
            assert!(!msg.contains('\n'), "multi-line: {msg}");
        }
        assert!(runaway.to_string().contains("1000000-instruction budget"));
    }

    #[test]
    fn error_sources_chain_to_the_vm_fault() {
        let q = QuarantinedBenchmark {
            name: "mcf".into(),
            suite: Suite::SpecInt2006,
            input: 0,
            input_name: "ref".into(),
            cause: QuarantineCause::Fault(VmError::CallStackOverflow),
        };
        assert_eq!(q.vm_error(), Some(&VmError::CallStackOverflow));
        assert!(!q.is_runaway());
        let e = StudyError::Characterization {
            quarantined: vec![q],
        };
        let source = e.source().expect("has source");
        let vm = source.source().expect("chains to VmError");
        assert_eq!(vm.to_string(), VmError::CallStackOverflow.to_string());
    }

    #[test]
    fn runaway_quarantine_has_no_vm_source() {
        let q = QuarantinedBenchmark {
            name: "spin".into(),
            suite: Suite::Bmw,
            input: 0,
            input_name: "default".into(),
            cause: QuarantineCause::Runaway { budget: 42 },
        };
        assert!(q.is_runaway());
        assert_eq!(q.vm_error(), None);
        assert!(q.source().is_none());
        assert!(StudyError::Cancelled.source().is_none());
    }

    #[test]
    fn statically_invalid_quarantine_chains_to_the_verify_error() {
        let verr = VerifyError::InvalidTarget {
            pc: 4,
            instr: "j @99".into(),
            target: 99,
            code_len: 10,
        };
        let q = QuarantinedBenchmark {
            name: "bad".into(),
            suite: Suite::Bmw,
            input: 0,
            input_name: "default".into(),
            cause: QuarantineCause::StaticallyInvalid(verr.clone()),
        };
        assert_eq!(q.verify_error(), Some(&verr));
        assert_eq!(q.vm_error(), None);
        assert!(!q.is_runaway());
        let msg = q.to_string();
        assert!(msg.contains("statically invalid: pc 4"), "{msg}");
        assert!(!msg.contains('\n'), "multi-line: {msg}");
        let source = q.source().expect("has source");
        assert_eq!(source.to_string(), verr.to_string());
    }

    #[test]
    fn conversions_wrap_variants() {
        let e: StudyError = ConfigError::ZeroSamples.into();
        assert!(matches!(e, StudyError::Config(ConfigError::ZeroSamples)));
        let e: StudyError = AnalysisError::NoBenchmarksSelected.into();
        assert!(matches!(e, StudyError::Analysis(_)));
        let e: ConfigError = GaConfigError::NoPopulations.into();
        assert!(matches!(e, ConfigError::Ga(GaConfigError::NoPopulations)));
    }
}
