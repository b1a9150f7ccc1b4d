//! Per-layer readout of a traced operation: the spans and counters the
//! program already records in the `phaselab-obs` registry, plus a store
//! probe timed around the checkpoint store's own calls.

use std::fs;
use std::path::Path;
use std::time::Instant;

use phaselab_core::{characterization_fingerprint, BenchOutcome, CheckpointStore, StudyConfig};
use phaselab_obs::{Json, Registry};
use phaselab_workloads::Benchmark;

use crate::study::{ms, Workload, BENCHMARKS, THREADS};

/// One registry snapshot, read through its manifest document.
pub struct Snapshot(Json);

impl Snapshot {
    pub fn take(reg: &Registry) -> Self {
        Snapshot(phaselab_obs::manifest(reg, &[], true))
    }

    fn at(&self, path: &[&str]) -> Option<&Json> {
        path.iter().try_fold(&self.0, |node, key| match node {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        })
    }

    fn entries(&self, path: &[&str]) -> &[(String, Json)] {
        match self.at(path) {
            Some(Json::Obj(entries)) => entries,
            _ => &[],
        }
    }

    /// A counter of either class; 0 when never recorded.
    pub fn counter(&self, name: &str) -> u64 {
        match self
            .at(&["counters", name])
            .or_else(|| self.at(&["timings", "counters", name]))
        {
            Some(Json::U64(n)) => *n,
            _ => 0,
        }
    }

    /// Every gauge of either class whose name starts with `prefix`.
    pub fn gauges(&self, prefix: &str) -> Vec<f64> {
        let structural = self.entries(&["gauges"]).iter();
        let timing = self.entries(&["timings", "gauges"]).iter();
        structural
            .chain(timing)
            .filter(|(k, _)| k.starts_with(prefix))
            .filter_map(|(_, v)| match v {
                Json::F64(x) => Some(*x),
                _ => None,
            })
            .collect()
    }

    /// Total wall ms of every span whose path ends in `suffix` (whole
    /// path components), on any thread.
    pub fn span_ms(&self, suffix: &str) -> f64 {
        self.entries(&["timings", "spans"])
            .iter()
            .filter(|(path, _)| {
                path == suffix
                    || path
                        .strip_suffix(suffix)
                        .is_some_and(|head| head.ends_with('/'))
            })
            .filter_map(|(_, agg)| match agg {
                Json::Obj(fields) => fields.iter().find(|(k, _)| k == "total_ms"),
                _ => None,
            })
            .filter_map(|(_, v)| match v {
                Json::F64(x) => Some(*x),
                _ => None,
            })
            .sum()
    }
}

/// The per-layer metrics of one traced operation, after checking that
/// the registry agrees with the workload: k-means iterated and reused no
/// cached restart; a cold study executed every instruction and hit the
/// store never; a warm one executed none and hit it for every benchmark.
pub fn op_layers(
    w: Workload,
    snap: &Snapshot,
    instructions: u64,
) -> Result<Vec<(&'static str, f64)>, String> {
    let iterations = snap.counter("kmeans.iterations");
    if iterations == 0 || snap.counter("checkpoint.clustering.hits") != 0 {
        return Err("k-means did not run: a cached clustering was reused".into());
    }
    let (hits, misses) = (
        snap.counter("checkpoint.bench.hits"),
        snap.counter("checkpoint.bench.misses"),
    );
    let executed = snap.counter("vm.instructions");
    let expected = if w.is_warm() {
        (0, BENCHMARKS as u64, 0)
    } else {
        (instructions, 0, BENCHMARKS as u64)
    };
    if (executed, hits, misses) != expected {
        return Err(format!(
            "traced {executed} VM instructions, {hits} store hits, {misses} misses; expected {expected:?}"
        ));
    }

    let pruned = snap.counter("kmeans.points.pruned") as f64;
    let scanned = snap.counter("kmeans.points.scanned") as f64;
    let evaluations = snap.counter("ga.evaluations") as f64;
    // The GA fits a PCA per fitness evaluation; only the analysis
    // stage's fit is the stats layer's.
    let ga_ms = snap.span_ms("ga.select");
    let mut out = vec![
        ("vm.instructions", executed as f64),
        (
            "store.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        ),
        ("store.row_reads", snap.counter("cache.hit") as f64),
        ("stats.analysis_ms", snap.span_ms("study/analysis")),
        ("stats.pca_fit_ms", snap.span_ms("study/analysis/pca.fit")),
        ("stats.kmeans_ms", snap.span_ms("study/kmeans")),
        ("stats.kmeans_iterations", iterations as f64),
        (
            "stats.kmeans_prune_ratio",
            pruned / (pruned + scanned).max(1.0),
        ),
        (
            "stats.matrix_cells_peak",
            snap.gauges("analysis.matrix_cells_peak").iter().sum(),
        ),
        ("ga.select_ms", ga_ms),
        ("ga.evaluations", evaluations),
        ("ga.us_per_eval", ga_ms * 1e3 / evaluations.max(1.0)),
    ];
    if !w.is_warm() {
        // Per-benchmark characterization times are only recorded when a
        // benchmark is characterized, i.e. on the cold study.
        let times = snap.gauges("bench.time_ms[");
        let sum: f64 = times.iter().sum();
        let stage = snap.span_ms("study/characterize");
        out.extend([
            ("core.characterize_ms", sum),
            (
                "core.characterize_max_ms",
                times.iter().copied().fold(0.0, f64::max),
            ),
            (
                "par.characterize_efficiency",
                sum / (THREADS as f64 * stage),
            ),
        ]);
    }
    Ok(out)
}

/// Times loading every characterization entry of `store` with
/// `load_benchmark`, then writing them all into a fresh store under
/// `scratch` with `store_benchmark`.
pub fn store_probe(
    store: &CheckpointStore,
    cfg: &StudyConfig,
    benches: &[Benchmark],
    scratch: &Path,
) -> Result<Vec<(&'static str, f64)>, String> {
    let fp = characterization_fingerprint(cfg);
    let size = |p: &Path| fs::metadata(p).map(|m| m.len() as f64).unwrap_or(0.0);

    let t = Instant::now();
    let outcomes: Vec<Option<BenchOutcome>> = benches
        .iter()
        .map(|b| store.load_benchmark(fp, b.suite(), b.name()))
        .collect();
    let read_ms = ms(t);
    let mut bytes_read = 0.0;
    for (b, o) in benches.iter().zip(&outcomes) {
        if !matches!(o, Some(BenchOutcome::Characterized(_))) {
            return Err(format!("store probe: no characterization of {}", b.name()));
        }
        bytes_read += size(&store.benchmark_path(fp, b.suite(), b.name()));
    }

    let _ = fs::remove_dir_all(scratch);
    let copy = CheckpointStore::open(scratch).map_err(|e| format!("open probe store: {e}"))?;
    let t = Instant::now();
    for (b, o) in benches.iter().zip(&outcomes) {
        let o = o.as_ref().expect("checked above");
        copy.store_benchmark(fp, b.suite(), b.name(), o);
    }
    let write_ms = ms(t);
    let bytes_written = benches
        .iter()
        .map(|b| size(&copy.benchmark_path(fp, b.suite(), b.name())))
        .sum();
    let _ = fs::remove_dir_all(scratch);
    if bytes_written != bytes_read {
        return Err(format!(
            "store probe wrote {bytes_written} bytes of {bytes_read} read"
        ));
    }
    Ok(vec![
        ("store.read_ms", read_ms),
        ("store.bytes_read", bytes_read),
        ("store.write_ms", write_ms),
        ("store.bytes_written", bytes_written),
    ])
}
