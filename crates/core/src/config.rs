//! Study configuration.

use phaselab_ga::GaConfig;
use phaselab_mica::NUM_FEATURES;
use phaselab_workloads::{Scale, Suite};

use crate::error::ConfigError;

/// How intervals are sampled from the characterized executions (§2.4 of
/// the paper discusses this as an experimental design choice).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplingPolicy {
    /// A fixed number of intervals per benchmark (the paper's choice):
    /// every benchmark gets equal weight regardless of its execution
    /// length or input count.
    EqualPerBenchmark,
    /// Sample proportionally to each benchmark's interval count, up to
    /// the same total budget: long-running benchmarks dominate, which is
    /// the bias the paper's policy avoids.
    Proportional,
}

/// How the analysis stage (normalization, PCA, clustering input) gets at
/// the sampled feature rows.
///
/// Both modes run the same one-pass accumulators over the same rows in
/// the same order, so for a given configuration they produce
/// **bit-identical** results; only memory behavior differs. Because a
/// checkpoint written by one mode carries the features the other would
/// drop (or vice versa), the mode **is** part of the characterization
/// fingerprint — a streaming run can never mix outcomes across modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AnalysisMode {
    /// Keep the survivors' characterizations in RAM (the default) and
    /// read every sampled row's raw features there, in place. Required
    /// by the experiments that read raw feature rows after the study
    /// (kiviat plots, per-feature figures) through
    /// [`StudyResult::feature_row`](crate::StudyResult::feature_row).
    #[default]
    InRam,
    /// Stream rows out of the checkpoint store one benchmark at a time;
    /// peak analysis memory is O(features²) + O(rows × retained
    /// components), never O(rows × features). Requires a checkpoint
    /// store; the study keeps no raw feature rows, so
    /// [`StudyResult::feature_row`](crate::StudyResult::feature_row)
    /// panics.
    Streaming,
}

/// Which VM execution engine drives characterization.
///
/// Both engines produce bit-identical observation streams, features,
/// fault positions and quarantine decisions for every program; the
/// selector only trades dispatch strategy (and therefore throughput)
/// against implementation simplicity. Because results are identical, the
/// engine is **not** part of the checkpoint fingerprint: a study resumed
/// under the other engine continues bit-exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Basic-block-compiled dispatch with fused block-level observation
    /// (the default): programs are pre-decoded into straight-line
    /// superinstructions and budgets are checked once per block.
    #[default]
    Block,
    /// The per-instruction reference interpreter — the differential
    /// testing oracle.
    Inst,
}

impl Engine {
    /// Parses a CLI engine name (`"block"` or `"inst"`).
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "block" => Some(Engine::Block),
            "inst" => Some(Engine::Inst),
            _ => None,
        }
    }

    /// The CLI name of this engine.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Block => "block",
            Engine::Inst => "inst",
        }
    }
}

/// Configuration of a phase-level workload characterization study.
///
/// The paper's setup uses 100M-instruction intervals, 1,000 sampled
/// intervals per benchmark, k = 300 clusters, 100 prominent phases, a
/// PCA retention threshold of 1.0 and 12 GA-selected key
/// characteristics. [`StudyConfig::paper_scaled`] keeps every ratio and
/// threshold but shrinks the interval length and sample count so the
/// study runs on one machine in minutes; [`StudyConfig::smoke`] shrinks
/// further for tests.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyConfig {
    /// Workload scale (execution length multiplier).
    pub scale: Scale,
    /// Interval length in dynamic instructions (paper: 100M).
    pub interval_len: u64,
    /// Intervals sampled per benchmark across all inputs (paper: 1,000).
    pub samples_per_benchmark: usize,
    /// Sampling policy (paper: equal weight per benchmark).
    pub sampling: SamplingPolicy,
    /// Number of k-means clusters (paper: 300).
    pub k: usize,
    /// Number of prominent phases kept for visualization (paper: 100).
    pub n_prominent: usize,
    /// PCA retention threshold on component standard deviation
    /// (paper: 1.0, the Kaiser criterion).
    pub pca_sd_threshold: f64,
    /// k-means restarts (highest BIC wins).
    pub kmeans_restarts: usize,
    /// k-means Lloyd iteration cap.
    pub kmeans_max_iters: usize,
    /// Genetic-algorithm configuration for key-characteristic selection.
    pub ga: GaConfig,
    /// Number of key characteristics the GA retains (paper: 12).
    pub n_key_characteristics: usize,
    /// Restrict the study to these suites (`None` = all 77 benchmarks).
    pub suites: Option<Vec<Suite>>,
    /// Instruction budget per benchmark execution (a safety net; all
    /// bundled benchmarks halt well before it).
    pub max_instructions_per_run: u64,
    /// Runaway watchdog: total instruction budget across all inputs of
    /// one benchmark. A benchmark that exhausts it without halting is
    /// quarantined with
    /// [`QuarantineCause::Runaway`](crate::QuarantineCause::Runaway)
    /// instead of wedging the study. `None` (the default) disables the
    /// watchdog; unlike `max_instructions_per_run`, which silently
    /// truncates, exceeding this budget is treated as a failure.
    pub max_inst_per_bench: Option<u64>,
    /// VM execution engine (default: block-compiled). Results are
    /// bit-identical for both engines; only throughput differs.
    pub engine: Engine,
    /// Worker threads for every parallel stage — benchmark
    /// characterization, k-means clustering, and GA fitness evaluation
    /// (0 = all cores). Results are identical for every value.
    pub threads: usize,
    /// Master seed; every stochastic stage derives its own seed from it.
    pub seed: u64,
    /// Analysis memory mode (default: in-RAM). Results are bit-identical
    /// for both modes; see [`AnalysisMode`].
    pub analysis: AnalysisMode,
    /// Run the abstract-interpretation pre-flight
    /// (`Program::analyze`) over every benchmark before executing it
    /// (default: on). The pre-flight records a `static_analysis`
    /// manifest section, derives a default watchdog budget from the
    /// static instruction maxima when `max_inst_per_bench` is absent,
    /// and lets the block compiler skip statically dead code. The static bounds are sound, so study
    /// results are **bit-identical** with the pre-flight on or off;
    /// like [`Engine`], the flag is therefore not part of the
    /// checkpoint fingerprint.
    pub static_analysis: bool,
}

impl StudyConfig {
    /// The full reproduction study: every paper parameter ratio, scaled
    /// to a single machine (100 K-instruction intervals, 200 samples per
    /// benchmark, k = 300, 100 prominent phases, 12 key
    /// characteristics).
    pub fn paper_scaled() -> Self {
        StudyConfig {
            scale: Scale::Full,
            interval_len: 100_000,
            samples_per_benchmark: 200,
            sampling: SamplingPolicy::EqualPerBenchmark,
            k: 300,
            n_prominent: 100,
            pca_sd_threshold: 1.0,
            kmeans_restarts: 2,
            kmeans_max_iters: 40,
            ga: GaConfig::study(0),
            n_key_characteristics: 12,
            suites: None,
            max_instructions_per_run: 500_000_000,
            max_inst_per_bench: None,
            engine: Engine::Block,
            threads: 0,
            seed: 0,
            analysis: AnalysisMode::InRam,
            static_analysis: true,
        }
    }

    /// A fast configuration for tests: tiny workloads, short intervals,
    /// small k.
    pub fn smoke() -> Self {
        StudyConfig {
            scale: Scale::Tiny,
            interval_len: 20_000,
            samples_per_benchmark: 8,
            sampling: SamplingPolicy::EqualPerBenchmark,
            k: 24,
            n_prominent: 10,
            pca_sd_threshold: 1.0,
            kmeans_restarts: 2,
            kmeans_max_iters: 20,
            ga: GaConfig::fast(0),
            n_key_characteristics: 6,
            suites: None,
            max_instructions_per_run: 50_000_000,
            max_inst_per_bench: None,
            engine: Engine::Block,
            threads: 0,
            seed: 0,
            analysis: AnalysisMode::InRam,
            static_analysis: true,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first contradictory
    /// setting (e.g. more prominent phases than clusters, or an invalid
    /// GA sub-configuration).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.interval_len == 0 {
            return Err(ConfigError::ZeroIntervalLength);
        }
        if self.samples_per_benchmark == 0 {
            return Err(ConfigError::ZeroSamples);
        }
        if self.k == 0 {
            return Err(ConfigError::ZeroClusters);
        }
        if self.n_prominent > self.k {
            return Err(ConfigError::ProminentExceedsClusters {
                n_prominent: self.n_prominent,
                k: self.k,
            });
        }
        if self.n_key_characteristics == 0 {
            return Err(ConfigError::ZeroKeyCharacteristics);
        }
        if self.n_key_characteristics > NUM_FEATURES {
            return Err(ConfigError::TooManyKeyCharacteristics {
                requested: self.n_key_characteristics,
                available: NUM_FEATURES,
            });
        }
        if let Some(suites) = &self.suites {
            if suites.is_empty() {
                return Err(ConfigError::EmptySuiteFilter);
            }
        }
        if self.max_inst_per_bench == Some(0) {
            return Err(ConfigError::ZeroBenchBudget);
        }
        self.ga.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        assert_eq!(StudyConfig::paper_scaled().validate(), Ok(()));
        assert_eq!(StudyConfig::smoke().validate(), Ok(()));
    }

    #[test]
    fn paper_scaled_preserves_paper_ratios() {
        let cfg = StudyConfig::paper_scaled();
        assert_eq!(cfg.k, 300);
        assert_eq!(cfg.n_prominent, 100);
        assert_eq!(cfg.n_key_characteristics, 12);
        assert_eq!(cfg.pca_sd_threshold, 1.0);
    }

    #[test]
    fn validate_rejects_prominent_above_k() {
        let mut cfg = StudyConfig::smoke();
        cfg.n_prominent = cfg.k + 1;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::ProminentExceedsClusters {
                n_prominent: cfg.n_prominent,
                k: cfg.k,
            })
        );
    }

    #[test]
    fn validate_rejects_each_degenerate_setting() {
        let mut cfg = StudyConfig::smoke();
        cfg.interval_len = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroIntervalLength));

        let mut cfg = StudyConfig::smoke();
        cfg.samples_per_benchmark = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroSamples));

        let mut cfg = StudyConfig::smoke();
        cfg.k = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroClusters));

        let mut cfg = StudyConfig::smoke();
        cfg.n_key_characteristics = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroKeyCharacteristics));

        let mut cfg = StudyConfig::smoke();
        cfg.n_key_characteristics = NUM_FEATURES + 1;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::TooManyKeyCharacteristics {
                requested: NUM_FEATURES + 1,
                available: NUM_FEATURES,
            })
        );

        let mut cfg = StudyConfig::smoke();
        cfg.suites = Some(vec![]);
        assert_eq!(cfg.validate(), Err(ConfigError::EmptySuiteFilter));

        let mut cfg = StudyConfig::smoke();
        cfg.max_inst_per_bench = Some(0);
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroBenchBudget));

        let mut cfg = StudyConfig::smoke();
        cfg.max_inst_per_bench = Some(1);
        assert_eq!(cfg.validate(), Ok(()));

        let mut cfg = StudyConfig::smoke();
        cfg.ga.populations = 0;
        assert!(matches!(cfg.validate(), Err(ConfigError::Ga(_))));
    }
}
