//! Temporal phase analysis: classify every interval of one execution
//! against a study's phase taxonomy and examine the time-varying
//! structure.
//!
//! The paper's §2.1 motivates phase-level characterization with programs
//! whose behavior changes over time; its related-work section connects
//! the cluster taxonomy to SimPoint-style simulation-point selection.
//! This module provides both views: a per-execution [`PhaseTimeline`]
//! (which cluster each consecutive interval belongs to) and its run/
//! transition structure.

use phaselab_workloads::Benchmark;

use crate::characterize::characterize_program;
use crate::config::StudyConfig;
use crate::pipeline::StudyResult;

/// The phase structure of one benchmark execution: one cluster id per
/// consecutive interval, in execution order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseTimeline {
    /// Cluster assigned to each interval, in execution order.
    pub clusters: Vec<usize>,
}

impl PhaseTimeline {
    /// Number of intervals.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// Returns `true` for an empty timeline.
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// Number of phase transitions (adjacent intervals in different
    /// clusters).
    pub fn transitions(&self) -> usize {
        self.clusters.windows(2).filter(|w| w[0] != w[1]).count()
    }

    /// The distinct clusters visited, in first-appearance order.
    pub fn distinct_phases(&self) -> Vec<usize> {
        let mut seen = Vec::new();
        for &c in &self.clusters {
            if !seen.contains(&c) {
                seen.push(c);
            }
        }
        seen
    }

    /// Run-length encoding: `(cluster, consecutive intervals)` pairs.
    pub fn runs(&self) -> Vec<(usize, usize)> {
        let mut out: Vec<(usize, usize)> = Vec::new();
        for &c in &self.clusters {
            match out.last_mut() {
                Some((last, n)) if *last == c => *n += 1,
                _ => out.push((c, 1)),
            }
        }
        out
    }

    /// A compact one-line rendering (`A×12 B×3 A×9 …`), mapping clusters
    /// to letters in first-appearance order.
    pub fn render(&self) -> String {
        let order = self.distinct_phases();
        let symbol = |c: usize| -> char {
            let idx = order.iter().position(|&x| x == c).expect("visited cluster");
            if idx < 26 {
                (b'A' + idx as u8) as char
            } else {
                '?'
            }
        };
        self.runs()
            .iter()
            .map(|&(c, n)| format!("{}×{n}", symbol(c)))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// Characterizes one benchmark input at the study's interval length and
/// classifies every interval against the study's clustering.
///
/// # Errors
///
/// Returns a [`QuarantinedBenchmark`](crate::QuarantinedBenchmark)
/// record if the workload faults.
///
/// # Panics
///
/// Panics if `input` is out of range for the benchmark.
pub fn phase_timeline(
    result: &StudyResult,
    bench: &Benchmark,
    input: usize,
    cfg: &StudyConfig,
) -> Result<PhaseTimeline, crate::QuarantinedBenchmark> {
    let program = bench.build(cfg.scale, input);
    let (features, _) =
        characterize_program(&program, cfg.interval_len, cfg.max_instructions_per_run).map_err(
            |error| crate::QuarantinedBenchmark {
                name: bench.name().to_string(),
                suite: bench.suite(),
                input,
                input_name: bench.input_names()[input].to_string(),
                cause: crate::QuarantineCause::Fault(error),
            },
        )?;
    let clusters = features
        .iter()
        .map(|fv| result.classify(fv.as_slice()).0)
        .collect();
    Ok(PhaseTimeline { clusters })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::run_study;
    use phaselab_workloads::{catalog, Suite};

    fn study_and_catalog() -> (StudyResult, Vec<Benchmark>) {
        let mut cfg = StudyConfig::smoke();
        cfg.suites = Some(vec![Suite::Bmw, Suite::MediaBench2]);
        (run_study(&cfg).expect("smoke study"), catalog())
    }

    #[test]
    fn timeline_structure_is_consistent() {
        let (r, all) = study_and_catalog();
        let bench = all
            .iter()
            .find(|b| b.suite() == Suite::MediaBench2 && b.name() == "jpeg")
            .unwrap();
        let t = phase_timeline(&r, bench, 0, &r.config.clone()).expect("no fault");
        assert!(!t.is_empty());
        // Runs re-assemble into the timeline.
        let total: usize = t.runs().iter().map(|&(_, n)| n).sum();
        assert_eq!(total, t.len());
        assert_eq!(t.runs().len(), t.transitions() + 1);
        assert!(t.distinct_phases().len() <= t.len());
        // Every cluster id is valid.
        assert!(t.clusters.iter().all(|&c| c < r.clustering.k()));
    }

    #[test]
    fn multi_phase_benchmark_shows_transitions() {
        let (r, all) = study_and_catalog();
        // jpeg has three kernels (color convert / DCT / entropy): its
        // timeline must visit more than one phase.
        let bench = all
            .iter()
            .find(|b| b.suite() == Suite::MediaBench2 && b.name() == "jpeg")
            .unwrap();
        let t = phase_timeline(&r, bench, 0, &r.config.clone()).expect("no fault");
        assert!(
            t.distinct_phases().len() >= 2,
            "expected multiple phases, got {}",
            t.render()
        );
    }

    #[test]
    fn render_is_compact_and_total() {
        let t = PhaseTimeline {
            clusters: vec![3, 3, 7, 7, 7, 3],
        };
        assert_eq!(t.render(), "A×2 B×3 A×1");
        assert_eq!(t.transitions(), 2);
        assert_eq!(t.distinct_phases(), vec![3, 7]);
    }

    #[test]
    fn classification_matches_study_assignments() {
        // Projecting a study's own sampled rows must land them in their
        // own clusters.
        let (r, _) = study_and_catalog();
        for row in (0..r.sampled.len()).step_by(7) {
            let (cluster, _) = r.classify(r.feature_row(row));
            assert_eq!(
                cluster, r.clustering.assignments[row],
                "row {row} classified into a different cluster"
            );
        }
    }
}
