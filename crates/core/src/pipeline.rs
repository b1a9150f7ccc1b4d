//! Steps 2–5: the study pipeline.
//!
//! The analysis stage (normalization → PCA → clustering input) runs in
//! one of two memory modes (see [`AnalysisMode`]), which differ only in
//! where the raw feature rows come from. The default in-RAM mode keeps
//! the survivors' characterizations and reads each sampled row in place;
//! the streaming mode replays the rows out of the checkpoint store and
//! holds none. Both modes feed every sampled row, in sampled order,
//! through the same one-pass accumulators and project and rescale each
//! distinct interval once, so their results are **bit-identical**. The
//! derived tables are [`IndexedRows`]: one row per *distinct* sampled
//! interval plus an index from every sampled row to its distinct row. A
//! benchmark with fewer intervals than `samples_per_benchmark` is topped
//! up with repeat draws, and a repeat costs one `u32`, not a row. The PC
//! scores, the rescaled space and the k-means input share the one index.

use std::sync::Arc;

use phaselab_ga::{select_features, DistanceCorrelationFitness};
use phaselab_mica::{feature_names, FxHashMap, NUM_FEATURES};
use phaselab_par::{effective_threads, parallel_map_cancellable, CancelToken};
use phaselab_stats::{
    distance_sq, kmeans_restart, normalize_indexed, pick_best_clustering, Clustering, ColumnStats,
    IndexedRows, KmeansConfig, Matrix, Pca, Rows, RunningColumnStats, RunningCovariance,
};
use phaselab_workloads::{catalog, Benchmark, Suite};

use crate::characterize::{
    analyze_benchmark, characterize_benchmark_watched, BenchCharacterization, BenchFailure,
};
use crate::checkpoint::{
    characterization_fingerprint, clustering_fingerprint, BenchOutcome, CheckpointStore,
};
use crate::config::{AnalysisMode, StudyConfig};
use crate::error::{AnalysisError, ConfigError, QuarantinedBenchmark, StudyError};
use crate::phases::{KiviatAxis, PhaseKind, PhaseShare, ProminentPhase};
use crate::sampling::sample_with_policy;

/// Execution metadata of one characterized benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkRun {
    /// Benchmark name.
    pub name: String,
    /// Owning suite.
    pub suite: Suite,
    /// Input names.
    pub input_names: Vec<String>,
    /// Characterized intervals per input.
    pub intervals_per_input: Vec<usize>,
    /// Total dynamic instructions executed.
    pub total_instructions: u64,
}

impl BenchmarkRun {
    /// Total characterized intervals across inputs.
    pub fn total_intervals(&self) -> usize {
        self.intervals_per_input.iter().sum()
    }
}

/// One sampled interval: a row of the study's data matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SampledInterval {
    /// Index into [`StudyResult::benchmarks`].
    pub bench: usize,
    /// Input index within the benchmark.
    pub input: usize,
    /// Interval index within the input's execution.
    pub interval: usize,
}

/// Everything a study produces: the characterized and sampled data set,
/// the clustering, the prominent phases and the GA-selected key
/// characteristics.
///
/// An in-RAM study keeps the survivors' characterizations;
/// [`feature_row`](Self::feature_row) and
/// [`feature_rows`](Self::feature_rows) read a sampled row's interval
/// there. A streaming study keeps none, and those accessors panic.
/// Everything derived from the rows ([`space`](Self::space), the
/// clustering, the key characteristics) is present and bit-identical in
/// both modes. The space holds one row per distinct sampled interval.
#[derive(Debug, Clone)]
pub struct StudyResult {
    /// The configuration the study ran with.
    pub config: StudyConfig,
    /// Characterized benchmarks, in catalog order (filtered by suite),
    /// excluding quarantined ones.
    pub benchmarks: Vec<BenchmarkRun>,
    /// Benchmarks excluded because a workload input faulted, in
    /// selection order, each with the fault that removed it. Empty in a
    /// healthy study.
    pub quarantined: Vec<QuarantinedBenchmark>,
    /// The sampled intervals, one per data-matrix row.
    pub sampled: Vec<SampledInterval>,
    /// The survivors' characterizations, indexed as
    /// [`benchmarks`](Self::benchmarks): every sampled row's raw
    /// 69-characteristic features, read in place. `None` in streaming
    /// mode.
    characterizations: Option<Vec<BenchCharacterization>>,
    /// The rescaled PCA space of the sampled rows (what the clustering
    /// ran on), one stored row per distinct interval in first-draw order.
    space: IndexedRows,
    /// Number of principal components retained.
    pub pcs_retained: usize,
    /// Fraction of total variance the retained components explain.
    pub variance_explained: f64,
    /// The full k-means clustering.
    pub clustering: Clustering,
    /// The top-weight clusters (paper: the 100 prominent phases).
    pub prominent: Vec<ProminentPhase>,
    /// Combined weight of the prominent phases (the paper's 87.8 %).
    pub prominent_coverage: f64,
    /// GA-selected key characteristic indices (paper's Table 2).
    pub key_characteristics: Vec<usize>,
    /// Fitness (distance correlation) of the key-characteristic set.
    pub ga_fitness: f64,
    /// Column statistics of the raw feature matrix (first normalization).
    feature_norm: ColumnStats,
    /// The fitted PCA model.
    pca: Pca,
    /// Column statistics of the retained PC scores (the rescaling).
    score_norm: ColumnStats,
}

impl StudyResult {
    /// The suite owning data-matrix row `row`.
    pub fn suite_of_row(&self, row: usize) -> Suite {
        self.benchmarks[self.sampled[row].bench].suite
    }

    /// The benchmark index owning data-matrix row `row`.
    pub fn bench_of_row(&self, row: usize) -> usize {
        self.sampled[row].bench
    }

    /// The raw 69-characteristic features of sampled row `row`.
    ///
    /// # Panics
    ///
    /// Panics when the study ran with [`AnalysisMode::Streaming`], which
    /// does not retain raw feature rows, or if `row` is out of range.
    pub fn feature_row(&self, row: usize) -> &[f64] {
        interval_row(self.raw(), &self.sampled[row])
    }

    /// The raw features of the given sampled rows, one matrix row each,
    /// in the given order.
    ///
    /// # Panics
    ///
    /// As [`feature_row`](Self::feature_row).
    pub fn feature_rows(&self, rows: &[usize]) -> Matrix {
        let mut m = Matrix::zeros(rows.len(), NUM_FEATURES);
        for (i, &row) in rows.iter().enumerate() {
            m.row_mut(i).copy_from_slice(self.feature_row(row));
        }
        m
    }

    fn raw(&self) -> &[BenchCharacterization] {
        self.characterizations
            .as_deref()
            .expect("raw feature rows are not retained by streaming analysis")
    }

    /// The rescaled PCA space, one row per sampled row (what the
    /// clustering ran on), stored once per distinct sampled interval.
    /// Row `r` is sampled row `r`'s point.
    pub fn space(&self) -> &IndexedRows {
        &self.space
    }

    /// Kiviat axes for one prominent phase: the phase representative's
    /// key-characteristic values against population statistics.
    ///
    /// The mean and standard deviation are the study's own first
    /// normalization ([`feature_norm`](Self::feature_norm)), the sample
    /// statistics (`/(n-1)`) its PCA ran on, so the kiviat `sd` rings
    /// match the normalization scale of the rest of the study. The
    /// minimum and maximum fold over every sampled row in sampled order.
    ///
    /// # Panics
    ///
    /// Panics when the study ran with [`AnalysisMode::Streaming`]: the
    /// raw feature rows this reads were deliberately not retained.
    pub fn kiviat_axes(&self, phase: &ProminentPhase) -> Vec<KiviatAxis> {
        let names = feature_names();
        let chars = self.raw();
        let rep = self.feature_row(phase.representative_row);
        self.key_characteristics
            .iter()
            .map(|&feat| {
                let (min, max) = self
                    .sampled
                    .iter()
                    .map(|s| interval_row(chars, s))
                    .fold((f64::INFINITY, f64::NEG_INFINITY), |(min, max), row| {
                        (min.min(row[feat]), max.max(row[feat]))
                    });
                let (mean, sd) = self.feature_norm.column(feat);
                KiviatAxis {
                    feature: feat,
                    name: names[feat],
                    min,
                    mean,
                    sd,
                    max,
                    value: rep[feat],
                }
            })
            .collect()
    }

    /// Column statistics of the raw feature matrix (the first
    /// normalization).
    pub fn feature_norm(&self) -> &ColumnStats {
        &self.feature_norm
    }

    /// The PCA model fitted on the normalized feature rows.
    pub fn pca(&self) -> &Pca {
        &self.pca
    }

    /// The sampled rows assigned to `cluster`.
    pub fn rows_in_cluster(&self, cluster: usize) -> Vec<usize> {
        self.clustering.members_of(cluster)
    }

    /// Projects a raw 69-characteristic feature vector into this study's
    /// rescaled PCA space, using the normalization and PCA fitted on the
    /// study's own data.
    ///
    /// Works in every analysis mode — the fitted normalization and PCA
    /// models are retained even when the raw feature matrix is not.
    ///
    /// # Panics
    ///
    /// Panics if `features` does not have 69 entries.
    pub fn project(&self, features: &[f64]) -> Vec<f64> {
        assert_eq!(features.len(), NUM_FEATURES, "expected 69 features");
        let one = Matrix::from_rows(&[features.to_vec()]);
        let normed = self.feature_norm.apply(&one);
        let scores = self.pca.transform(&normed, self.pcs_retained);
        let rescaled = self.score_norm.apply(&scores);
        rescaled.row(0).to_vec()
    }

    /// Assigns a raw feature vector to the nearest cluster of the
    /// study's clustering — classifying a *new* interval against the
    /// study's phase taxonomy (the cross-benchmark simulation-point idea
    /// of Eeckhout et al., discussed in the paper's related work).
    ///
    /// Returns the cluster index and the squared distance to its
    /// centroid in the rescaled PCA space.
    ///
    /// # Panics
    ///
    /// Panics if `features` does not have 69 entries.
    pub fn classify(&self, features: &[f64]) -> (usize, f64) {
        let point = self.project(features);
        (0..self.clustering.k())
            .map(|c| (c, distance_sq(&point, self.clustering.centroids.row(c))))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"))
            .expect("at least one cluster")
    }
}

/// Runs the full methodology pipeline over the (suite-filtered) catalog.
///
/// A faulting benchmark does not abort the study: it is quarantined —
/// recorded in [`StudyResult::quarantined`] with its fault — and the
/// study completes on the survivors, producing exactly the result a
/// study over the surviving benchmarks alone would produce.
///
/// # Errors
///
/// Returns [`StudyError::Config`] for an invalid configuration,
/// [`StudyError::Characterization`] when *every* selected benchmark
/// faults, and [`StudyError::Analysis`] when the surviving data set is
/// too degenerate to analyze.
pub fn run_study(cfg: &StudyConfig) -> Result<StudyResult, StudyError> {
    run_study_resumable(cfg, None, None)
}

/// [`run_study`] with crash-safe checkpointing and cooperative
/// cancellation.
///
/// With a `store`, every benchmark characterization and every completed
/// k-means restart is persisted as it finishes and reloaded on the next
/// run with a compatible configuration, so an interrupted study resumes
/// where it stopped. Resume is **bit-identical**: the result equals an
/// uninterrupted run's at every thread count. Unusable checkpoints
/// (corrupt, truncated, stale version, wrong fingerprint) are skipped
/// with a one-line warning and recomputed — they never fail the study.
///
/// With `cfg.analysis` set to [`AnalysisMode::Streaming`], a store is
/// **required** (it is the row source).
///
/// With a `cancel` token, tripping the token stops the study at the next
/// check (between VM slices during characterization, between k-means
/// restarts, between stages) and returns [`StudyError::Cancelled`];
/// work completed before the trip is already in the store.
///
/// # Errors
///
/// As [`run_study`], plus [`StudyError::Cancelled`] when `cancel` trips
/// before the study completes, and
/// [`ConfigError::StreamingNeedsStore`] for a streaming run without a
/// store.
pub fn run_study_resumable(
    cfg: &StudyConfig,
    store: Option<&CheckpointStore>,
    cancel: Option<&CancelToken>,
) -> Result<StudyResult, StudyError> {
    cfg.validate()?;
    let benches: Vec<_> = catalog()
        .into_iter()
        .filter(|b| cfg.suites.as_ref().is_none_or(|s| s.contains(&b.suite())))
        .collect();
    run_study_with_resumable(cfg, &benches, store, cancel)
}

/// Runs the full methodology pipeline over an explicit benchmark list
/// (ignoring `cfg.suites`), with the same quarantine semantics as
/// [`run_study`].
///
/// This is the injection point for custom workloads built with
/// [`Benchmark::custom`](phaselab_workloads::Benchmark::custom).
///
/// # Errors
///
/// As [`run_study`]; additionally returns
/// [`AnalysisError::NoBenchmarksSelected`] when `benches` is empty.
pub fn run_study_with(cfg: &StudyConfig, benches: &[Benchmark]) -> Result<StudyResult, StudyError> {
    run_study_with_resumable(cfg, benches, None, None)
}

/// [`run_study_with`] with checkpointing and cancellation — the explicit
/// benchmark-list twin of [`run_study_resumable`], with the same
/// semantics and error contract.
///
/// # Errors
///
/// As [`run_study_with`], plus [`StudyError::Cancelled`] when `cancel`
/// trips before the study completes.
pub fn run_study_with_resumable(
    cfg: &StudyConfig,
    benches: &[Benchmark],
    store: Option<&CheckpointStore>,
    cancel: Option<&CancelToken>,
) -> Result<StudyResult, StudyError> {
    cfg.validate()?;
    if benches.is_empty() {
        return Err(AnalysisError::NoBenchmarksSelected.into());
    }
    let streaming = cfg.analysis == AnalysisMode::Streaming;
    if streaming && store.is_none() {
        return Err(ConfigError::StreamingNeedsStore.into());
    }
    // One token always exists; an internal never-tripped token makes the
    // uncancellable path identical code to the cancellable one.
    let own_token;
    let token = if let Some(t) = cancel {
        t
    } else {
        own_token = CancelToken::new();
        &own_token
    };

    let _study_span = phaselab_obs::span!("study");
    phaselab_obs::counter_add(
        "study.benchmarks.total",
        phaselab_obs::Class::Structural,
        benches.len() as u64,
    );

    // Step 1: characterize all benchmarks (in parallel), reloading any
    // checkpointed outcome and persisting fresh ones. Results come back
    // keyed by benchmark index, so the survivor/quarantine split is
    // identical for every thread count and for resumed vs. fresh runs.
    //
    // The in-RAM mode keeps every characterization; the streaming mode
    // projects each outcome down to its metadata the moment it arrives,
    // so full feature matrices only ever exist one-per-worker-thread —
    // the rows come back later, streamed out of the store.
    phaselab_obs::set_stage("characterize");
    let refs: Vec<&Benchmark> = benches.iter().collect();
    let mut quarantined = Vec::new();
    let mut survivor_benches: Vec<&Benchmark> = Vec::new();
    let mut benchmarks: Vec<BenchmarkRun> = Vec::new();
    let mut characterizations: Vec<BenchCharacterization> = Vec::new();
    {
        let _span = phaselab_obs::span!("characterize");
        if streaming {
            let metas = characterize_map(&refs, cfg, store, token, meta_of)?;
            for (bench, meta) in benches.iter().zip(metas) {
                match meta {
                    BenchMeta::Characterized {
                        intervals_per_input,
                        total_instructions,
                    } => {
                        benchmarks.push(benchmark_run(
                            bench,
                            intervals_per_input,
                            total_instructions,
                        ));
                        survivor_benches.push(bench);
                    }
                    BenchMeta::Quarantined(q) => quarantined.push(q),
                }
            }
        } else {
            let outcomes = characterize_map(&refs, cfg, store, token, |o| o)?;
            for (bench, outcome) in benches.iter().zip(outcomes) {
                match outcome {
                    BenchOutcome::Characterized(c) => {
                        benchmarks.push(benchmark_run(
                            bench,
                            c.per_input.iter().map(Vec::len).collect(),
                            c.total_instructions,
                        ));
                        survivor_benches.push(bench);
                        characterizations.push(c);
                    }
                    BenchOutcome::Quarantined(q) => quarantined.push(q),
                }
            }
        }
    }
    if benchmarks.is_empty() {
        return Err(StudyError::Characterization { quarantined });
    }
    if phaselab_obs::enabled() {
        use phaselab_obs::Class::Structural;
        phaselab_obs::counter_add(
            "study.benchmarks.characterized",
            Structural,
            benchmarks.len() as u64,
        );
        phaselab_obs::counter_add(
            "study.benchmarks.quarantined",
            Structural,
            quarantined.len() as u64,
        );
        let total_inst: u64 = benchmarks.iter().map(|b| b.total_instructions).sum();
        phaselab_obs::counter_add("study.instructions", Structural, total_inst);
    }

    // Step 2: equal-weight interval sampling. Benchmark indices are
    // compacted over the survivors, so a study with a quarantined
    // benchmark draws exactly as a study never given it. The sampled
    // list is grouped by ascending benchmark index, which is what lets
    // the streaming row source hold one benchmark at a time.
    phaselab_obs::set_stage("sample");
    let available: Vec<Vec<usize>> = benchmarks
        .iter()
        .map(|b| b.intervals_per_input.clone())
        .collect();
    let sampled = {
        let _span = phaselab_obs::span!("sample");
        sample_with_policy(
            &available,
            cfg.samples_per_benchmark,
            cfg.sampling,
            cfg.seed,
        )
    };
    if sampled.is_empty() {
        return Err(AnalysisError::NoIntervalsSampled.into());
    }
    // Every derived table keeps one row per distinct sampled interval;
    // repeat draws share the row. The raw rows are read where they are:
    // in the characterizations (in-RAM) or the store (streaming).
    let (row_of, first_draws) = distinct_draws(&sampled);
    if phaselab_obs::enabled() {
        use phaselab_obs::Class::Structural;
        phaselab_obs::gauge_set("sampling.rows", Structural, sampled.len() as f64);
        phaselab_obs::gauge_set(
            "sampling.distinct_rows",
            Structural,
            first_draws.len() as f64,
        );
    }
    let index: Arc<[u32]> = row_of.into();

    // Step 3: normalize -> PCA (retain sd > threshold) -> normalize,
    // as three one-pass sweeps over the sampled rows. Both row sources
    // feed the identical accumulator arithmetic in the identical order,
    // which is what makes the two modes bit-identical.
    phaselab_obs::set_stage("analysis");
    let analysis_span = phaselab_obs::span!("analysis");
    let mut src = if streaming {
        RowSource::Streamed(StreamedRows::new(
            store.expect("checked above"),
            characterization_fingerprint(cfg),
            cfg,
            token,
            &survivor_benches,
        ))
    } else {
        RowSource::Held(&characterizations)
    };
    let (feature_norm, pca, pcs_retained, variance_explained, scores) =
        analyze_rows(&mut src, &sampled, &first_draws, cfg.pca_sd_threshold)?;
    let scores = IndexedRows::new(scores, index);
    let (space, score_norm) = normalize_indexed(&scores);
    drop(scores);
    drop(analysis_span);
    if phaselab_obs::enabled() {
        use phaselab_obs::Class::{Structural, Timing};
        phaselab_obs::gauge_set("pca.pcs_retained", Structural, pcs_retained as f64);
        phaselab_obs::gauge_set("pca.variance_explained", Structural, variance_explained);
        // Peak analysis-stage matrix footprint, in f64 cells: the raw
        // rows of every characterized interval (in-RAM) or the
        // covariance accumulator (streaming), plus the retained-component
        // scores and the rescaled space, both one row per distinct
        // interval, which both modes hold while the space is rescaled.
        // The `u32` row index is not a cell. Timing-class: it differs
        // across modes by design.
        let held = if streaming {
            NUM_FEATURES * NUM_FEATURES
        } else {
            benchmarks
                .iter()
                .map(BenchmarkRun::total_intervals)
                .sum::<usize>()
                * NUM_FEATURES
        };
        phaselab_obs::gauge_set(
            "analysis.matrix_cells_peak",
            Timing,
            (held + 2 * first_draws.len() * pcs_retained) as f64,
        );
    }

    // Step 4: k-means with BIC-scored restarts; rank clusters by weight.
    // Each completed restart is checkpointed and reloadable.
    if token.is_cancelled() {
        return Err(StudyError::Cancelled);
    }
    phaselab_obs::set_stage("kmeans");
    let k = cfg.k.min(space.rows());
    let kcfg = KmeansConfig::new(k)
        .with_restarts(cfg.kmeans_restarts)
        .with_max_iters(cfg.kmeans_max_iters)
        .with_seed(cfg.seed ^ 0xC1u64)
        .with_threads(cfg.threads);
    let clustering = {
        let _span = phaselab_obs::span!("kmeans");
        cluster_resumable(&space, &kcfg, store, token)?
    };

    let (prominent, prominent_coverage) =
        prominent_phases(&clustering, &space, &sampled, &benchmarks, cfg);

    // Step 5: GA key-characteristic selection over the prominent phase
    // representatives, in the raw characteristic space. The handful of
    // representative rows is gathered from the row source, in
    // prominence order.
    if token.is_cancelled() {
        return Err(StudyError::Cancelled);
    }
    phaselab_obs::set_stage("ga");
    let ga_span = phaselab_obs::span!("ga");
    let rep_rows: Vec<usize> = prominent.iter().map(|p| p.representative_row).collect();
    let (key_characteristics, ga_fitness) = if rep_rows.len() >= 3 {
        let mut rep_matrix = Matrix::zeros(rep_rows.len(), NUM_FEATURES);
        for (i, &r) in rep_rows.iter().enumerate() {
            rep_matrix.row_mut(i).copy_from_slice(src.row(&sampled[r])?);
        }
        let fitness = DistanceCorrelationFitness::new(&rep_matrix, cfg.pca_sd_threshold);
        let mut ga_cfg = cfg.ga.clone();
        ga_cfg.seed ^= cfg.seed;
        ga_cfg.threads = cfg.threads;
        let score = |mask: &[bool]| fitness.score(mask);
        let result = select_features(NUM_FEATURES, cfg.n_key_characteristics, &score, &ga_cfg);
        let selected: Vec<usize> = (0..NUM_FEATURES).filter(|&i| result.genome[i]).collect();
        (selected, result.fitness)
    } else {
        // Degenerate smoke studies: fall back to the first features.
        ((0..cfg.n_key_characteristics).collect(), 0.0)
    };
    drop(ga_span);
    drop(src);
    phaselab_obs::set_stage("done");

    Ok(StudyResult {
        config: cfg.clone(),
        benchmarks,
        quarantined,
        sampled,
        characterizations: (!streaming).then_some(characterizations),
        space,
        pcs_retained,
        variance_explained,
        clustering,
        prominent,
        prominent_coverage,
        key_characteristics,
        ga_fitness,
        feature_norm,
        pca,
        score_norm,
    })
}

/// Metadata-only projection of a benchmark outcome: everything the
/// sampling and reporting stages need, without the feature matrices.
enum BenchMeta {
    /// The benchmark characterized cleanly.
    Characterized {
        /// Characterized intervals per input.
        intervals_per_input: Vec<usize>,
        /// Total dynamic instructions executed.
        total_instructions: u64,
    },
    /// The benchmark was quarantined.
    Quarantined(QuarantinedBenchmark),
}

fn meta_of(outcome: BenchOutcome) -> BenchMeta {
    match outcome {
        BenchOutcome::Characterized(c) => BenchMeta::Characterized {
            intervals_per_input: c.per_input.iter().map(Vec::len).collect(),
            total_instructions: c.total_instructions,
        },
        BenchOutcome::Quarantined(q) => BenchMeta::Quarantined(q),
    }
}

fn benchmark_run(
    bench: &Benchmark,
    intervals_per_input: Vec<usize>,
    total_instructions: u64,
) -> BenchmarkRun {
    BenchmarkRun {
        name: bench.name().to_string(),
        suite: bench.suite(),
        input_names: bench
            .input_names()
            .iter()
            .map(std::string::ToString::to_string)
            .collect(),
        intervals_per_input,
        total_instructions,
    }
}

/// The raw feature row of sampled interval `s` in the survivors'
/// characterizations `chars`.
fn interval_row<'a>(chars: &'a [BenchCharacterization], s: &SampledInterval) -> &'a [f64] {
    chars[s.bench].per_input[s.input][s.interval].as_slice()
}

/// Where the analysis reads the raw feature rows of sampled intervals.
enum RowSource<'a> {
    /// The survivors' characterizations, held in RAM.
    Held(&'a [BenchCharacterization]),
    /// The checkpoint store, replayed one benchmark at a time.
    Streamed(StreamedRows<'a>),
}

impl RowSource<'_> {
    /// The feature row of one sampled interval.
    fn row(&mut self, s: &SampledInterval) -> Result<&[f64], StudyError> {
        match self {
            RowSource::Held(chars) => Ok(interval_row(chars, s)),
            RowSource::Streamed(rows) => rows.row(s),
        }
    }
}

/// Numbers the distinct intervals of `sampled` in first-draw order.
/// Returns each sampled row's distinct interval and each distinct
/// interval's first sampled row.
fn distinct_draws(sampled: &[SampledInterval]) -> (Vec<u32>, Vec<usize>) {
    let mut number: FxHashMap<SampledInterval, u32> = FxHashMap::default();
    let mut first_draws = Vec::new();
    let row_of = sampled
        .iter()
        .enumerate()
        .map(|(r, s)| {
            *number.entry(*s).or_insert_with(|| {
                first_draws.push(r);
                u32::try_from(first_draws.len() - 1).expect("distinct intervals fit in u32")
            })
        })
        .collect();
    (row_of, first_draws)
}

/// The three-pass analysis: Welford column statistics over the raw
/// rows, a running covariance over the normalized rows, and a
/// projection pass building the retained-component scores. Every
/// pass reads its rows from `src` in sampled order, so both row
/// sources feed these identical accumulators the identical rows and
/// both modes' outputs are bit-identical.
///
/// `first_draws` comes from [`distinct_draws`]. The projection pass
/// projects only first draws, into one score row per distinct
/// interval: a repeat draw is the same projection of the same row. The
/// scores come back as those distinct rows.
///
/// Holds O(features²) accumulator state plus the `distinct × retained`
/// score matrix — never `rows × features`.
fn analyze_rows(
    src: &mut RowSource,
    sampled: &[SampledInterval],
    first_draws: &[usize],
    sd_threshold: f64,
) -> Result<(ColumnStats, Pca, usize, f64, Matrix), StudyError> {
    // Pass 1: raw per-column statistics (the first normalization).
    let mut stats = RunningColumnStats::new(NUM_FEATURES);
    for s in sampled {
        stats.push(src.row(s)?);
    }
    let feature_norm = stats.finalize();

    // Pass 2: covariance of the normalized rows, one row at a time.
    let mut cov = RunningCovariance::new(NUM_FEATURES);
    let mut scratch = vec![0.0f64; NUM_FEATURES];
    for s in sampled {
        feature_norm.apply_row(src.row(s)?, &mut scratch);
        cov.push(&scratch);
    }
    let pca = Pca::from_covariance(cov.means().to_vec(), &cov.covariance());
    let pcs_retained = pca.count_above(sd_threshold).max(1);
    let variance_explained = pca.cumulative_explained(pcs_retained);

    // Pass 3: retained-component scores (the clustering's input, after
    // one more normalization by the caller). First draws ascend, so
    // the rows still come in sampled order.
    let mut scores = Matrix::zeros(first_draws.len(), pcs_retained);
    for (d, &r) in first_draws.iter().enumerate() {
        feature_norm.apply_row(src.row(&sampled[r])?, &mut scratch);
        pca.transform_row(&scratch, scores.row_mut(d));
    }

    Ok((feature_norm, pca, pcs_retained, variance_explained, scores))
}

/// Replays survivors' feature rows out of the checkpoint store, one
/// benchmark at a time — the streaming mode's row source.
///
/// Because the sampled list is grouped by ascending benchmark index,
/// holding the single most recent benchmark makes a full sweep load
/// each benchmark exactly once. A load that fails (file vanished,
/// corrupted after the characterize stage warmed it) falls back to
/// recomputing the benchmark — and repairing the store — so a damaged
/// store costs time, never correctness.
struct StreamedRows<'a> {
    store: &'a CheckpointStore,
    fingerprint: u64,
    cfg: &'a StudyConfig,
    token: &'a CancelToken,
    /// Survivor index → benchmark (the compacted post-quarantine list).
    benches: &'a [&'a Benchmark],
    cached: Option<(usize, BenchCharacterization)>,
}

impl<'a> StreamedRows<'a> {
    fn new(
        store: &'a CheckpointStore,
        fingerprint: u64,
        cfg: &'a StudyConfig,
        token: &'a CancelToken,
        benches: &'a [&'a Benchmark],
    ) -> Self {
        StreamedRows {
            store,
            fingerprint,
            cfg,
            token,
            benches,
            cached: None,
        }
    }

    /// The feature row of one sampled interval.
    fn row(&mut self, s: &SampledInterval) -> Result<&[f64], StudyError> {
        let c = self.characterization(s.bench)?;
        Ok(c.per_input[s.input][s.interval].as_slice())
    }

    fn characterization(&mut self, bench: usize) -> Result<&BenchCharacterization, StudyError> {
        if self.cached.as_ref().map(|(b, _)| *b) != Some(bench) {
            let c = self.load_or_recompute(self.benches[bench])?;
            self.cached = Some((bench, c));
        }
        Ok(&self.cached.as_ref().expect("just cached").1)
    }

    fn load_or_recompute(&self, b: &Benchmark) -> Result<BenchCharacterization, StudyError> {
        if let Some(BenchOutcome::Characterized(c)) =
            self.store
                .load_benchmark(self.fingerprint, b.suite(), b.name())
        {
            if c.per_input.len() == b.num_inputs() {
                return Ok(c);
            }
        }
        // The store lost or mangled this outcome *after* the
        // characterize stage saw it. Recompute and repair the store.
        phaselab_obs::counter_add(
            "checkpoint.stream.recomputes",
            phaselab_obs::Class::Timing,
            1,
        );
        match characterize_benchmark_watched(b, self.cfg, Some(self.token)) {
            Ok(c) => {
                self.store.store_benchmark(
                    self.fingerprint,
                    b.suite(),
                    b.name(),
                    &BenchOutcome::Characterized(c.clone()),
                );
                Ok(c)
            }
            Err(BenchFailure::Cancelled) => Err(StudyError::Cancelled),
            // The recompute quarantined a benchmark the characterize
            // stage saw survive: the run's premises changed mid-study.
            Err(BenchFailure::Quarantined(_)) => Err(AnalysisError::InconsistentCheckpoint {
                bench: b.name().to_string(),
            }
            .into()),
        }
    }
}

/// Characterizes benchmarks on the shared work-stealing executor,
/// loading checkpointed outcomes and storing fresh ones, and hands each
/// outcome to `project` *inside* the worker — so a caller that only
/// needs metadata never holds more than one full outcome per thread.
///
/// Per-benchmark outcomes ride across the executor in index-keyed
/// slots, so the outcome vector — including which benchmarks fault — is
/// identical for every thread count; and because each checkpoint is the
/// exact bits of the computed outcome, loaded and recomputed benchmarks
/// are indistinguishable downstream. To keep them indistinguishable in
/// the observability manifest too, checkpoint hit/miss tallies are
/// Timing-class (store warmth is provenance, not a property of the
/// study), and a hit emits the same `characterized`/`quarantined`
/// events the compute path would.
fn characterize_map<T: Send>(
    benches: &[&Benchmark],
    cfg: &StudyConfig,
    store: Option<&CheckpointStore>,
    token: &CancelToken,
    project: impl Fn(BenchOutcome) -> T + Sync,
) -> Result<Vec<T>, StudyError> {
    let threads = effective_threads(cfg.threads);
    let fingerprint = characterization_fingerprint(cfg);
    let outcomes = parallel_map_cancellable(benches, threads, token, |&b| {
        use phaselab_obs::Class::{Structural, Timing};
        let obs_on = phaselab_obs::enabled();
        if let Some(s) = store {
            if let Some(o) = s.load_benchmark(fingerprint, b.suite(), b.name()) {
                if outcome_matches(&o, b) {
                    if obs_on {
                        let scope = format!("{}/{}", b.suite().short_name(), b.name());
                        phaselab_obs::counter_add("checkpoint.bench.hits", Timing, 1);
                        record_outcome_event(&scope, &o);
                        record_outcome_obs(&scope, &o, cfg);
                        record_static_obs(&scope, b, cfg);
                        phaselab_obs::counter_add("study.benchmarks.done", Structural, 1);
                    }
                    return Ok(project(o));
                }
            }
            phaselab_obs::counter_add("checkpoint.bench.misses", Timing, 1);
        }
        let _span = phaselab_obs::span!("characterize.bench");
        let started = obs_on.then(std::time::Instant::now);
        let outcome = match characterize_benchmark_watched(b, cfg, Some(token)) {
            Ok(c) => BenchOutcome::Characterized(c),
            Err(BenchFailure::Quarantined(q)) => BenchOutcome::Quarantined(q),
            Err(BenchFailure::Cancelled) => return Err(()),
        };
        if let Some(s) = store {
            s.store_benchmark(fingerprint, b.suite(), b.name(), &outcome);
        }
        if let Some(t0) = started {
            let scope = format!("{}/{}", b.suite().short_name(), b.name());
            phaselab_obs::gauge_set(
                &format!("bench.time_ms[{scope}]"),
                phaselab_obs::Class::Timing,
                t0.elapsed().as_secs_f64() * 1e3,
            );
            record_outcome_event(&scope, &outcome);
            record_outcome_obs(&scope, &outcome, cfg);
            record_static_obs(&scope, b, cfg);
            phaselab_obs::counter_add("study.benchmarks.done", Structural, 1);
        }
        Ok(project(outcome))
    })
    .map_err(|_| StudyError::Cancelled)?;
    outcomes
        .into_iter()
        .collect::<Result<Vec<_>, ()>>()
        .map_err(|()| StudyError::Cancelled)
}

/// Emits the outcome event (`characterized` or `quarantined: <cause>`)
/// for one benchmark. Shared by the checkpoint-hit and compute paths so
/// the event stream is identical either way.
fn record_outcome_event(scope: &str, outcome: &BenchOutcome) {
    match outcome {
        BenchOutcome::Characterized(_) => phaselab_obs::event(scope, "characterized"),
        BenchOutcome::Quarantined(q) => {
            phaselab_obs::event(scope, &format!("quarantined: {}", q.cause));
        }
    }
}

/// Publishes one benchmark outcome's structural metrics: instruction
/// counts (gauge + histogram) and, when the watchdog budget is armed,
/// the fraction of the budget consumed. Runaway quarantines consumed
/// the whole budget by definition.
fn record_outcome_obs(scope: &str, outcome: &BenchOutcome, cfg: &StudyConfig) {
    use phaselab_obs::Class::Structural;
    match outcome {
        BenchOutcome::Characterized(c) => {
            phaselab_obs::gauge_set(
                &format!("bench.instructions[{scope}]"),
                Structural,
                c.total_instructions as f64,
            );
            phaselab_obs::histogram_record("bench.instructions", Structural, c.total_instructions);
            if let Some(budget) = cfg.max_inst_per_bench {
                phaselab_obs::gauge_set(
                    &format!("bench.budget_used_frac[{scope}]"),
                    Structural,
                    c.total_instructions as f64 / budget as f64,
                );
            }
        }
        BenchOutcome::Quarantined(q) => {
            if q.is_runaway() && cfg.max_inst_per_bench.is_some() {
                phaselab_obs::gauge_set(
                    &format!("bench.budget_used_frac[{scope}]"),
                    Structural,
                    1.0,
                );
            }
        }
    }
}

/// Publishes one benchmark's static pre-flight into the manifest: a
/// `static_analysis` structural section entry (sound bounds and lint
/// tallies — deterministic, so safe in the golden-comparable prefix)
/// plus Timing-class analyzer cost metrics. Shared by the
/// checkpoint-hit and compute paths so warm and cold runs render the
/// same structural document.
fn record_static_obs(scope: &str, bench: &Benchmark, cfg: &StudyConfig) {
    use phaselab_obs::{Class, Json};
    if !cfg.static_analysis {
        return;
    }
    let t0 = std::time::Instant::now();
    let Ok(statics) = analyze_benchmark(bench, cfg.scale) else {
        // A statically invalid benchmark is already recorded by its
        // quarantine event; there are no sound bounds to publish.
        return;
    };
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let opt_u64 = |v: Option<u64>| v.map_or(Json::Null, Json::U64);
    let sum =
        |f: fn(&phaselab_vm::StaticReport) -> u64| -> u64 { statics.per_input.iter().map(f).sum() };
    // Severity derives `Ord` with `Deny` first, so the most severe
    // finding across inputs is the minimum.
    let severity = statics
        .per_input
        .iter()
        .filter_map(phaselab_vm::StaticReport::max_severity)
        .min();
    phaselab_obs::section_set(
        "static_analysis",
        scope,
        Json::Obj(vec![
            ("inst_min".into(), Json::U64(statics.total_inst_min())),
            ("inst_max".into(), opt_u64(statics.total_inst_max())),
            ("derived_budget".into(), opt_u64(statics.derived_budget())),
            ("dead_pcs".into(), Json::U64(sum(|r| r.dead.len() as u64))),
            ("mem_sites".into(), Json::U64(sum(|r| r.sites.len() as u64))),
            (
                "footprint_bytes".into(),
                Json::U64(sum(|r| r.footprint.1.saturating_sub(r.footprint.0))),
            ),
            ("lints".into(), Json::U64(sum(|r| r.lints.len() as u64))),
            (
                "max_severity".into(),
                severity.map_or(Json::Null, |s| Json::Str(s.as_str().into())),
            ),
        ]),
    );
    phaselab_obs::counter_add("static.benchmarks.analyzed", Class::Structural, 1);
    phaselab_obs::gauge_set(&format!("static.analyze_ms[{scope}]"), Class::Timing, ms);
    for r in &statics.per_input {
        for (pass, ns) in &r.pass_ns {
            phaselab_obs::counter_add(&format!("static.pass.{pass}_ns"), Class::Timing, *ns);
        }
    }
}

/// Whether a loaded checkpoint plausibly belongs to this benchmark.
/// Guards against sanitized-filename collisions and workload-definition
/// drift; a mismatch means "recompute", never "trust".
fn outcome_matches(outcome: &BenchOutcome, bench: &Benchmark) -> bool {
    match outcome {
        BenchOutcome::Characterized(c) => c.per_input.len() == bench.num_inputs(),
        BenchOutcome::Quarantined(q) => {
            q.name == bench.name() && q.suite == bench.suite() && q.input < bench.num_inputs()
        }
    }
}

/// Multi-restart k-means with per-restart checkpointing: exactly
/// [`kmeans`](phaselab_stats::kmeans) — same seeds, same outer/inner
/// thread split, same highest-BIC/earliest-restart selection — except
/// each restart is reloaded from the store when present and persisted
/// when computed, and the rows are grouped only if some restart runs.
fn cluster_resumable(
    space: &IndexedRows,
    kcfg: &KmeansConfig,
    store: Option<&CheckpointStore>,
    token: &CancelToken,
) -> Result<Clustering, StudyError> {
    let restarts = kcfg.restarts.max(1);
    let threads = effective_threads(kcfg.threads);
    let outer = threads.min(restarts);
    let inner = (threads / outer).max(1);
    let fingerprint = store.map(|_| clustering_fingerprint(kcfg, space));
    let mut candidates: Vec<Option<Clustering>> = (0..restarts)
        .map(|r| {
            use phaselab_obs::Class::Timing;
            let (s, fp) = (store?, fingerprint?);
            let c = s
                .load_clustering(fp, r)
                .filter(|c| c.assignments.len() == space.rows() && c.centroids.rows() == kcfg.k);
            let counter = if c.is_some() {
                "checkpoint.clustering.hits"
            } else {
                "checkpoint.clustering.misses"
            };
            phaselab_obs::counter_add(counter, Timing, 1);
            c
        })
        .collect();
    let missing: Vec<usize> = (0..restarts).filter(|&r| candidates[r].is_none()).collect();
    if !missing.is_empty() {
        // Grouped by bits once for every restart that runs, as `kmeans`
        // does, and on this thread, before the restarts fork.
        let points = space.by_bits();
        let computed = parallel_map_cancellable(&missing, outer, token, |&r| {
            let c = kmeans_restart(&points, kcfg, r, inner);
            if let (Some(s), Some(fp)) = (store, fingerprint) {
                s.store_clustering(fp, r, &c);
            }
            c
        })
        .map_err(|_| StudyError::Cancelled)?;
        for (r, c) in missing.into_iter().zip(computed) {
            candidates[r] = Some(c);
        }
    }
    let best = pick_best_clustering(candidates.into_iter().flatten().collect());
    Ok(best.expect("at least one restart ran"))
}

/// Ranks clusters by weight, keeps the top `n_prominent`, and describes
/// each with its representative and benchmark composition.
fn prominent_phases(
    clustering: &Clustering,
    space: &IndexedRows,
    sampled: &[SampledInterval],
    benchmarks: &[BenchmarkRun],
    cfg: &StudyConfig,
) -> (Vec<ProminentPhase>, f64) {
    let total = sampled.len() as f64;
    let mut order: Vec<usize> = (0..clustering.k()).collect();
    order.sort_by(|&a, &b| {
        clustering.sizes[b]
            .cmp(&clustering.sizes[a])
            .then(a.cmp(&b))
    });

    // Per-benchmark sampled totals for benchmark_fraction.
    let mut bench_totals = vec![0usize; benchmarks.len()];
    for s in sampled {
        bench_totals[s.bench] += 1;
    }

    let top: Vec<usize> = order
        .into_iter()
        .take(cfg.n_prominent)
        .filter(|&c| clustering.sizes[c] > 0)
        .collect();
    let mut phases = Vec::new();
    let mut coverage = 0.0;
    for (cluster, (members, representative_row)) in top
        .iter()
        .copied()
        .zip(members_and_representatives(clustering, space, &top))
    {
        let weight = members.len() as f64 / total;
        coverage += weight;

        let mut per_bench = vec![0usize; benchmarks.len()];
        for &row in &members {
            per_bench[sampled[row].bench] += 1;
        }
        let mut composition: Vec<PhaseShare> = per_bench
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(bench, &n)| PhaseShare {
                bench,
                cluster_share: n as f64 / members.len() as f64,
                benchmark_fraction: n as f64 / bench_totals[bench].max(1) as f64,
            })
            .collect();
        composition.sort_by(|a, b| {
            b.cluster_share
                .partial_cmp(&a.cluster_share)
                .expect("finite shares")
        });

        let mut suites: Vec<Suite> = composition
            .iter()
            .map(|s| benchmarks[s.bench].suite)
            .collect();
        suites.sort_unstable();
        suites.dedup();

        let kind = if composition.len() == 1 {
            PhaseKind::BenchmarkSpecific
        } else if suites.len() == 1 {
            PhaseKind::SuiteSpecific
        } else {
            PhaseKind::Mixed
        };

        phases.push(ProminentPhase {
            cluster,
            weight,
            representative_row,
            kind,
            composition,
            suites,
        });
    }
    (phases, coverage)
}

/// The members and the representative of each of the non-empty
/// `clusters`, in one ascending pass over the assignments: the same rows
/// as [`Clustering::members_of`] and the same row as
/// [`Clustering::representative_of`], whose first row at the smallest
/// distance wins a tie.
fn members_and_representatives(
    clustering: &Clustering,
    space: &impl Rows,
    clusters: &[usize],
) -> Vec<(Vec<usize>, usize)> {
    let mut slot = vec![usize::MAX; clustering.k()];
    for (s, &c) in clusters.iter().enumerate() {
        slot[c] = s;
    }
    let mut members: Vec<Vec<usize>> = clusters
        .iter()
        .map(|&c| Vec::with_capacity(clustering.sizes[c]))
        .collect();
    let mut nearest: Vec<Option<(usize, f64)>> = vec![None; clusters.len()];
    for (row, &c) in clustering.assignments.iter().enumerate() {
        let s = slot[c];
        if s == usize::MAX {
            continue;
        }
        members[s].push(row);
        let d = distance_sq(space.row(row), clustering.centroids.row(c));
        let closer = nearest[s].is_none_or(|(_, best)| {
            d.partial_cmp(&best).expect("finite distances") == std::cmp::Ordering::Less
        });
        if closer {
            nearest[s] = Some((row, d));
        }
    }
    members
        .into_iter()
        .zip(nearest)
        .map(|(m, n)| (m, n.expect("non-empty cluster").0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_result() -> StudyResult {
        let mut cfg = StudyConfig::smoke();
        cfg.suites = Some(vec![Suite::Bmw, Suite::MediaBench2]);
        cfg.threads = 2;
        run_study(&cfg).expect("smoke study")
    }

    #[test]
    fn smoke_study_end_to_end() {
        let r = smoke_result();
        assert_eq!(r.benchmarks.len(), 12); // 5 BMW + 7 MediaBench II
        assert!(r.quarantined.is_empty(), "bundled workloads never fault");
        assert_eq!(r.sampled.len(), 12 * r.config.samples_per_benchmark);
        let chars = r.characterizations.as_ref().expect("in-RAM rows");
        assert_eq!(chars.len(), r.benchmarks.len());
        for (c, b) in chars.iter().zip(&r.benchmarks) {
            let intervals: Vec<usize> = c.per_input.iter().map(Vec::len).collect();
            assert_eq!(intervals, b.intervals_per_input);
        }
        for (row, s) in r.sampled.iter().enumerate() {
            let want = chars[s.bench].per_input[s.input][s.interval].as_slice();
            assert_eq!(r.feature_row(row), want, "row {row}");
        }
        let distinct: std::collections::HashSet<_> = r.sampled.iter().collect();
        assert_eq!(r.space.rows(), r.sampled.len());
        assert_eq!(r.space.distinct().rows(), distinct.len());
        assert!(r.pcs_retained >= 1);
        assert!(r.variance_explained > 0.5);
        assert!(!r.prominent.is_empty());
        assert!(r.prominent_coverage > 0.0 && r.prominent_coverage <= 1.0 + 1e-9);
        assert_eq!(r.key_characteristics.len(), r.config.n_key_characteristics);
        assert!(r.ga_fitness > 0.0, "GA fitness {}", r.ga_fitness);
    }

    #[test]
    fn prominent_phases_sorted_by_weight_and_classified() {
        let r = smoke_result();
        for w in r.prominent.windows(2) {
            assert!(w[0].weight >= w[1].weight - 1e-12);
        }
        for p in &r.prominent {
            let share_sum: f64 = p.composition.iter().map(|s| s.cluster_share).sum();
            assert!((share_sum - 1.0).abs() < 1e-9, "shares sum to {share_sum}");
            match p.kind {
                PhaseKind::BenchmarkSpecific => assert_eq!(p.composition.len(), 1),
                PhaseKind::SuiteSpecific => {
                    assert!(p.composition.len() > 1);
                    assert_eq!(p.suites.len(), 1);
                }
                PhaseKind::Mixed => assert!(p.suites.len() > 1),
            }
        }
    }

    #[test]
    fn one_pass_members_match_the_per_cluster_scans() {
        // Tied distances everywhere: cluster 0's rows sit at ±1 around
        // its centroid, cluster 2's at ±(1, 1) and exactly on it twice,
        // cluster 1 is empty and cluster 3 is left out.
        let space = Matrix::from_rows(&[
            vec![1.0, 0.0],
            vec![5.0, 5.0],
            vec![-1.0, 0.0],
            vec![4.0, 4.0],
            vec![1.0, 0.0],
            vec![5.0, 5.0],
            vec![9.0, 9.0],
            vec![6.0, 6.0],
            vec![-1.0, 0.0],
        ]);
        let clustering = Clustering {
            assignments: vec![0, 2, 0, 2, 0, 2, 3, 2, 0],
            centroids: Matrix::from_rows(&[
                vec![0.0, 0.0],
                vec![7.0, 7.0],
                vec![5.0, 5.0],
                vec![9.0, 9.0],
            ]),
            sizes: vec![4, 0, 4, 1],
            inertia: 0.0,
            bic: 0.0,
        };
        let clusters = [2, 0];
        let fast = members_and_representatives(&clustering, &space, &clusters);
        for (&c, (members, representative)) in clusters.iter().zip(&fast) {
            assert_eq!(*members, clustering.members_of(c), "cluster {c}");
            assert_eq!(
                Some(*representative),
                clustering.representative_of(&space, c)
            );
        }
        assert_eq!(fast[0].1, 1, "first row on the centroid");
        assert_eq!(fast[1].1, 0, "first of four rows at distance 1");
    }

    #[test]
    fn repeat_draws_share_one_stored_row() {
        // More samples than any benchmark has intervals: every benchmark
        // is topped up with repeat draws.
        let mut cfg = StudyConfig::smoke();
        cfg.suites = Some(vec![Suite::Bmw]);
        cfg.samples_per_benchmark = 200;
        let benches: Vec<Benchmark> = catalog()
            .into_iter()
            .filter(|b| b.suite() == Suite::Bmw)
            .collect();
        let r = run_study_with(&cfg, &benches).expect("study");
        let chars: Vec<BenchCharacterization> = benches
            .iter()
            .map(|b| crate::characterize_benchmark(b, &cfg).expect("no fault"))
            .collect();
        for c in &chars {
            let intervals: usize = c.per_input.iter().map(Vec::len).sum();
            assert!(
                intervals < cfg.samples_per_benchmark,
                "{intervals} intervals"
            );
        }
        assert_eq!(r.sampled.len(), benches.len() * cfg.samples_per_benchmark);
        let stored = r.space.distinct().rows();
        assert!(
            stored < r.sampled.len(),
            "{stored} distinct rows for {} sampled",
            r.sampled.len()
        );
        let distinct: std::collections::HashSet<_> = r.sampled.iter().collect();
        assert_eq!(stored, distinct.len());
        // Repeat draws of one interval read one stored row.
        let mut stored_row = std::collections::HashMap::new();
        for (row, s) in r.sampled.iter().enumerate() {
            let d = r.space.index()[row];
            assert_eq!(*stored_row.entry(*s).or_insert(d), d, "row {row}");
        }
        // Every sampled row reads its interval's characterization row,
        // bit for bit (`f64` equality would let `-0.0` pass for `0.0`).
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (row, s) in r.sampled.iter().enumerate() {
            let want = chars[s.bench].per_input[s.input][s.interval].as_slice();
            assert_eq!(bits(r.feature_row(row)), bits(want), "row {row}");
        }
    }

    #[test]
    fn feature_rows_gather_every_sampled_row_from_the_characterizations() {
        let r = smoke_result();
        let chars = r.characterizations.as_ref().expect("in-RAM rows");
        // Every sampled row, in reverse and with a repeat: the gather
        // keeps the requested order.
        let mut rows: Vec<usize> = (0..r.sampled.len()).rev().collect();
        rows.push(0);
        let gathered = r.feature_rows(&rows);
        assert_eq!(gathered.rows(), rows.len());
        assert_eq!(gathered.cols(), NUM_FEATURES);
        for (i, &row) in rows.iter().enumerate() {
            let s = r.sampled[row];
            let want = chars[s.bench].per_input[s.input][s.interval].as_slice();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(gathered.row(i)), bits(want), "row {row}");
        }
    }

    #[test]
    fn feature_norm_is_the_column_stats_of_the_sampled_rows() {
        let r = smoke_result();
        let all: Vec<usize> = (0..r.sampled.len()).collect();
        let of = ColumnStats::of(&r.feature_rows(&all));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&r.feature_norm().means), bits(&of.means));
        assert_eq!(bits(&r.feature_norm().stds), bits(&of.stds));
    }

    #[test]
    fn kiviat_axes_are_well_formed() {
        let r = smoke_result();
        let axes = r.kiviat_axes(&r.prominent[0]);
        assert_eq!(axes.len(), r.config.n_key_characteristics);
        for axis in axes {
            assert!(axis.min <= axis.mean + 1e-12);
            assert!(axis.mean <= axis.max + 1e-12);
            assert!((axis.min..=axis.max).contains(&axis.value));
            let v = axis.normalized_value();
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn study_is_deterministic() {
        let mut cfg = StudyConfig::smoke();
        cfg.suites = Some(vec![Suite::Bmw]);
        let a = run_study(&cfg).expect("study");
        let b = run_study(&cfg).expect("study");
        assert_eq!(a.clustering.assignments, b.clustering.assignments);
        assert_eq!(a.key_characteristics, b.key_characteristics);
    }

    #[test]
    fn empty_filter_is_a_config_error() {
        let mut cfg = StudyConfig::smoke();
        cfg.suites = Some(vec![]);
        assert!(matches!(
            run_study(&cfg),
            Err(StudyError::Config(crate::ConfigError::EmptySuiteFilter))
        ));
    }

    #[test]
    fn empty_benchmark_list_is_an_analysis_error() {
        let cfg = StudyConfig::smoke();
        assert!(matches!(
            run_study_with(&cfg, &[]),
            Err(StudyError::Analysis(AnalysisError::NoBenchmarksSelected))
        ));
    }

    #[test]
    fn invalid_config_fails_before_any_characterization() {
        let mut cfg = StudyConfig::smoke();
        cfg.k = 0;
        assert!(matches!(
            run_study(&cfg),
            Err(StudyError::Config(crate::ConfigError::ZeroClusters))
        ));
    }

    #[test]
    fn streaming_without_store_is_a_config_error() {
        let mut cfg = StudyConfig::smoke();
        cfg.analysis = AnalysisMode::Streaming;
        assert!(matches!(
            run_study(&cfg),
            Err(StudyError::Config(ConfigError::StreamingNeedsStore))
        ));
    }
}
