//! `phaselab-core`: the phase-level workload characterization methodology
//! of Hoste & Eeckhout (ISPASS 2008), end to end.
//!
//! The pipeline ([`run_study`]) performs the paper's six steps:
//!
//! 1. **Characterize** every instruction interval of every benchmark with
//!    the 69 microarchitecture-independent characteristics
//!    (`phaselab-mica` over `phaselab-vm` executions of the
//!    `phaselab-workloads` suites).
//! 2. **Sample** a fixed number of intervals per benchmark across all of
//!    its inputs, so every benchmark gets equal weight.
//! 3. **PCA**: normalize, project, retain components with standard
//!    deviation above the threshold, and re-normalize (the rescaled PCA
//!    space).
//! 4. **Cluster** with k-means (restarts scored by BIC) and rank
//!    clusters by weight; the top clusters are the *prominent phases*.
//! 5. **Select key characteristics** with the genetic algorithm
//!    (`phaselab-ga`) so the prominent phases can be visualized.
//! 6. **Analyze**: per-suite workload-space [`coverage`], [`diversity`]
//!    curves and [`uniqueness`] fractions — the paper's Figures 4, 5
//!    and 6.
//!
//! # Error model
//!
//! [`run_study`] returns `Result<StudyResult, StudyError>`. Invalid
//! configurations fail fast with [`ConfigError`]; a *faulting workload*
//! does not fail the study — the benchmark is quarantined into
//! [`StudyResult::quarantined`] and the study completes on the
//! survivors. Only when every selected benchmark faults (or the
//! surviving data set is degenerate) does the study return an error.
//!
//! # Examples
//!
//! A smoke-scale study over two suites:
//!
//! ```no_run
//! use phaselab_core::{run_study, StudyConfig};
//! use phaselab_workloads::Suite;
//!
//! let mut cfg = StudyConfig::smoke();
//! cfg.suites = Some(vec![Suite::BioPerf, Suite::MediaBench2]);
//! let result = run_study(&cfg).expect("valid config, bundled workloads never fault");
//! println!("{} prominent phases", result.prominent.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
/// Store maintenance: size accounting and LRU eviction over the
/// checkpoint store.
pub mod cache;
mod characterize;
mod checkpoint;
mod config;
mod error;
/// Deterministic fault injection for the checkpoint store's I/O.
pub mod faults;
mod phases;
mod pipeline;
mod report;
mod sampling;
mod simpoints;
mod temporal;

pub use analysis::{
    benchmark_stats, coverage, diversity, uniqueness, BenchmarkStats, SuiteCoverage, SuiteCurve,
    SuiteUniqueness,
};
pub use cache::{CacheStats, GcReport};
pub use characterize::{
    analyze_benchmark, characterize_benchmark, characterize_benchmark_watched,
    characterize_program, characterize_program_with_engine, BenchCharacterization, BenchFailure,
    BenchStaticReport,
};
pub use checkpoint::{
    characterization_fingerprint, clustering_fingerprint, BenchOutcome, CheckpointError,
    CheckpointStore,
};
pub use config::{AnalysisMode, Engine, SamplingPolicy, StudyConfig};
pub use error::{AnalysisError, ConfigError, QuarantineCause, QuarantinedBenchmark, StudyError};
pub use phases::{KiviatAxis, PhaseKind, PhaseShare, ProminentPhase};
pub use pipeline::{
    run_study, run_study_resumable, run_study_with, run_study_with_resumable, BenchmarkRun,
    SampledInterval, StudyResult,
};

// Cancellation primitives, re-exported so pipeline callers need not
// depend on `phaselab-par` directly.
pub use phaselab_par::{CancelToken, Cancelled};
pub use report::{format_table, write_csv};
pub use sampling::{sample_intervals, sample_with_policy};
pub use simpoints::{reconstruction_error, simulation_points, weighted_estimate, SimPoint};
pub use temporal::{phase_timeline, PhaseTimeline};
