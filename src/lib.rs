//! # phaselab
//!
//! A from-scratch reproduction of **Hoste & Eeckhout, "Characterizing the
//! Unique and Diverse Behaviors in Existing and Emerging General-Purpose
//! and Domain-Specific Benchmark Suites" (ISPASS 2008)** — phase-level,
//! microarchitecture-independent workload characterization, including
//! every substrate the methodology needs:
//!
//! * [`vm`] — a mini-ISA interpreter with a per-instruction observation
//!   hook (the dynamic-binary-instrumentation substitute),
//! * [`workloads`] — 77 synthetic benchmarks across SPEC CPU2000/2006,
//!   BioPerf, BioMetricsWorkload and MediaBench II,
//! * [`mica`] — the 69 microarchitecture-independent characteristics,
//!   measured per instruction interval,
//! * [`stats`] — PCA, k-means/BIC, correlation (from scratch),
//! * [`ga`] — genetic-algorithm key-characteristic selection,
//! * [`core`] — the end-to-end pipeline plus the coverage / diversity /
//!   uniqueness analyses,
//! * [`viz`] — kiviat plots, pie charts, bar and line charts (SVG and
//!   ASCII).
//!
//! The commonly used items are re-exported at the crate root.
//!
//! # Quickstart
//!
//! Characterize one benchmark and print its per-interval instruction mix:
//!
//! ```
//! use phaselab::{catalog, characterize_program, Scale};
//!
//! let bench = &catalog()[0];
//! let program = bench.build(Scale::Tiny, 0);
//! let (intervals, instructions) =
//!     characterize_program(&program, 20_000, 10_000_000).expect("bundled workloads never fault");
//! println!("{}: {} intervals over {} instructions",
//!          bench.name(), intervals.len(), instructions);
//! assert!(!intervals.is_empty());
//! ```
//!
//! Run a (scaled-down) study over two suites and report suite coverage:
//!
//! ```no_run
//! use phaselab::{coverage, run_study, StudyConfig, Suite};
//!
//! let mut cfg = StudyConfig::smoke();
//! cfg.suites = Some(vec![Suite::BioPerf, Suite::MediaBench2]);
//! let result = run_study(&cfg).expect("valid config, bundled workloads never fault");
//! for c in coverage(&result) {
//!     println!("{}: {}/{} clusters", c.suite, c.clusters_touched, c.total_clusters);
//! }
//! ```
//!
//! [`run_study`] returns a [`StudyError`] for invalid configurations; a
//! *faulting* workload is quarantined into
//! [`StudyResult::quarantined`] and the study completes over the
//! survivors.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use phaselab_core as core;
pub use phaselab_ga as ga;
pub use phaselab_mica as mica;
pub use phaselab_stats as stats;
pub use phaselab_trace as trace;
pub use phaselab_viz as viz;
pub use phaselab_vm as vm;
pub use phaselab_workloads as workloads;

pub use phaselab_core::{
    characterize_benchmark, characterize_program, coverage, diversity, run_study,
    run_study_resumable, run_study_with, run_study_with_resumable, uniqueness, AnalysisError,
    AnalysisMode, CancelToken, CheckpointStore, ConfigError, ProminentPhase, QuarantineCause,
    QuarantinedBenchmark, StudyConfig, StudyError, StudyResult,
};
pub use phaselab_mica::{feature_names, FeatureVector, IntervalCharacterizer, NUM_FEATURES};
pub use phaselab_trace::{InstClass, InstRecord, TraceSink};
pub use phaselab_vm::{Asm, DataBuilder, Program, Vm};
pub use phaselab_workloads::{catalog, Benchmark, Scale, Suite};
