//! Streaming-analysis exactness: the memory-bounded streaming mode must
//! reproduce the in-RAM study **bit for bit** — same clustering, same phases,
//! same key characteristics, same floating-point scores — at every
//! thread count. A damaged store may cost recomputation time, never
//! correctness.

use std::fs;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;

use phaselab::core::{BenchOutcome, CheckpointStore};
use phaselab::{
    run_study, run_study_resumable, AnalysisMode, StudyConfig, StudyResult, Suite, NUM_FEATURES,
};

fn temp_store(tag: &str) -> (CheckpointStore, PathBuf) {
    let dir = std::env::temp_dir().join(format!("phaselab-stream-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let store = CheckpointStore::open(&dir).expect("store opens");
    (store, dir)
}

fn base_config() -> StudyConfig {
    let mut cfg = StudyConfig::smoke();
    cfg.suites = Some(vec![Suite::Bmw, Suite::MediaBench2]);
    cfg
}

/// Full-result bitwise comparison. Every floating-point field is
/// compared via `to_bits`, so "close enough" cannot mask a divergence.
fn assert_bit_identical(a: &StudyResult, b: &StudyResult) {
    assert_eq!(a.benchmarks, b.benchmarks);
    assert_eq!(a.quarantined, b.quarantined);
    assert_eq!(a.sampled, b.sampled);
    assert_eq!(a.pcs_retained, b.pcs_retained);
    assert_eq!(
        a.variance_explained.to_bits(),
        b.variance_explained.to_bits()
    );
    assert_eq!(a.space().rows(), b.space().rows());
    assert_eq!(a.space().cols(), b.space().cols());
    for r in 0..a.space().rows() {
        for (x, y) in a.space().row(r).iter().zip(b.space().row(r)) {
            assert_eq!(x.to_bits(), y.to_bits(), "space[{r}] diverged");
        }
    }
    assert_eq!(a.clustering.assignments, b.clustering.assignments);
    assert_eq!(a.clustering.sizes, b.clustering.sizes);
    assert_eq!(
        a.clustering.inertia.to_bits(),
        b.clustering.inertia.to_bits()
    );
    assert_eq!(a.clustering.bic.to_bits(), b.clustering.bic.to_bits());
    for c in 0..a.clustering.centroids.rows() {
        for (x, y) in a
            .clustering
            .centroids
            .row(c)
            .iter()
            .zip(b.clustering.centroids.row(c))
        {
            assert_eq!(x.to_bits(), y.to_bits(), "centroid[{c}] diverged");
        }
    }
    assert_eq!(a.prominent, b.prominent);
    assert_eq!(
        a.prominent_coverage.to_bits(),
        b.prominent_coverage.to_bits()
    );
    assert_eq!(a.key_characteristics, b.key_characteristics);
    assert_eq!(a.ga_fitness.to_bits(), b.ga_fitness.to_bits());
}

/// The streaming analysis mode is bit-identical to the in-RAM mode at
/// every thread count, and retains no raw feature matrix.
#[test]
fn streaming_matches_in_ram_bitwise_across_threads() {
    let baseline = run_study(&base_config()).expect("in-RAM study");
    for row in 0..baseline.sampled.len() {
        // In-RAM mode keeps every sampled row's raw features.
        assert_eq!(baseline.feature_row(row).len(), NUM_FEATURES, "row {row}");
    }
    for threads in [1usize, 2, 4] {
        let (store, dir) = temp_store(&format!("t{threads}"));
        let mut cfg = base_config();
        cfg.analysis = AnalysisMode::Streaming;
        cfg.threads = threads;
        let streamed = run_study_resumable(&cfg, Some(&store), None).expect("streaming study");
        for row in 0..streamed.sampled.len() {
            let read = panic::catch_unwind(AssertUnwindSafe(|| streamed.feature_row(row).len()));
            assert!(
                read.is_err(),
                "streaming mode must not retain row {row}'s features"
            );
        }
        assert_bit_identical(&baseline, &streamed);
        let _ = fs::remove_dir_all(&dir);
    }
}

/// A poisoned store — every checkpoint file truncated or bit-flipped
/// between the fill and the reuse — warns, recomputes, and still
/// produces the exact answer.
#[test]
fn poisoned_store_recomputes_and_never_changes_the_answer() {
    let (store, dir) = temp_store("poison");
    let mut cfg = base_config();
    cfg.analysis = AnalysisMode::Streaming;
    let first = run_study_resumable(&cfg, Some(&store), None).expect("fill the store");

    // Damage every checkpoint file: truncate odd ones, flip bits in
    // even ones (deterministically, so failures reproduce).
    let mut files: Vec<PathBuf> = Vec::new();
    collect_files(&dir, &mut files);
    files.sort();
    assert!(!files.is_empty(), "the fill run must have checkpointed");
    for (i, path) in files.iter().enumerate() {
        let bytes = fs::read(path).expect("read checkpoint");
        let mangled = if i % 2 == 0 {
            let mut b = bytes.clone();
            if let Some(mid) = b.get_mut(bytes.len() / 2) {
                *mid ^= 0xFF;
            }
            b
        } else {
            bytes[..bytes.len() / 2].to_vec()
        };
        fs::write(path, mangled).expect("mangle checkpoint");
    }

    let again = run_study_resumable(&cfg, Some(&store), None).expect("poisoned rerun");
    assert_bit_identical(&first, &again);

    // The damaged entries were repaired in place: a third run must be
    // able to load a characterized outcome again.
    let fp = phaselab::core::characterization_fingerprint(&cfg);
    let loaded = store.load_benchmark(fp, Suite::Bmw, "face");
    assert!(
        matches!(loaded, Some(BenchOutcome::Characterized(_))),
        "store should hold a repaired checkpoint after the rerun"
    );
    let _ = fs::remove_dir_all(&dir);
}

fn collect_files(dir: &std::path::Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else {
            out.push(path);
        }
    }
}
