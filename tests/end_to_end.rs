//! Cross-crate integration: the full pipeline from synthetic benchmark
//! execution through clustering and suite analyses.

use std::collections::{HashMap, HashSet};

use phaselab::core::{coverage, diversity, uniqueness};
use phaselab::{catalog, characterize_benchmark, run_study, StudyConfig, Suite, NUM_FEATURES};

const SUITES: [Suite; 3] = [Suite::BioPerf, Suite::Bmw, Suite::MediaBench2];

fn study() -> phaselab::StudyResult {
    let mut cfg = StudyConfig::smoke();
    cfg.suites = Some(SUITES.to_vec());
    run_study(&cfg).expect("valid smoke study")
}

#[test]
fn study_internal_consistency() {
    let r = study();

    // Every sampled row indexes a real characterized interval and
    // reads that interval's features, bit for bit.
    let chars: Vec<_> = catalog()
        .iter()
        .filter(|b| SUITES.contains(&b.suite()))
        .map(|b| characterize_benchmark(b, &r.config).expect("healthy"))
        .collect();
    assert_eq!(chars.len(), r.benchmarks.len());
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (row, s) in r.sampled.iter().enumerate() {
        assert_eq!(r.feature_row(row).len(), NUM_FEATURES);
        let b = &r.benchmarks[s.bench];
        assert!(s.input < b.intervals_per_input.len());
        assert!(s.interval < b.intervals_per_input[s.input]);
        let want = chars[s.bench].per_input[s.input][s.interval].as_slice();
        assert_eq!(bits(r.feature_row(row)), bits(want), "row {row}");
    }

    // Clustering covers every row exactly once.
    assert_eq!(r.clustering.assignments.len(), r.sampled.len());
    let total: usize = r.clustering.sizes.iter().sum();
    assert_eq!(total, r.sampled.len());

    // The rescaled PCA space has the same rows and the retained
    // dimensionality.
    assert_eq!(r.space().rows(), r.sampled.len());
    assert_eq!(r.space().cols(), r.pcs_retained);

    // It stores one row per distinct sampled interval, and each sampled
    // row reads its interval's row.
    let space = r.space();
    let mut stored_row = HashMap::new();
    for (row, s) in r.sampled.iter().enumerate() {
        let d = space.index()[row] as usize;
        assert_eq!(*stored_row.entry(*s).or_insert(d), d, "row {row}");
        assert_eq!(space.row(row), space.distinct().row(d), "row {row}");
    }
    let stored: HashSet<usize> = stored_row.values().copied().collect();
    assert_eq!(
        stored.len(),
        stored_row.len(),
        "one stored row per interval"
    );
    assert_eq!(space.distinct().rows(), stored_row.len());

    // Prominent phases reference valid clusters and rows.
    for p in &r.prominent {
        assert!(p.cluster < r.clustering.k());
        assert!(p.representative_row < r.sampled.len());
        assert_eq!(
            r.clustering.assignments[p.representative_row], p.cluster,
            "representative must live in its own cluster"
        );
    }
}

#[test]
fn analyses_are_mutually_consistent() {
    let r = study();
    let cov = coverage(&r);
    let div = diversity(&r);
    let uniq = uniqueness(&r);

    assert_eq!(cov.len(), 3);
    assert_eq!(div.len(), 3);
    assert_eq!(uniq.len(), 3);

    for (c, d) in cov.iter().zip(&div) {
        assert_eq!(c.suite, d.suite);
        // The diversity curve has exactly as many points as the suite
        // touches clusters.
        assert_eq!(c.clusters_touched, d.cumulative.len());
    }

    // Suites together touch every non-empty cluster at least once.
    let union: usize = cov.iter().map(|c| c.clusters_touched).sum();
    assert!(union >= cov[0].total_clusters);
}

#[test]
fn feature_values_are_physically_plausible() {
    let r = study();
    let names = phaselab::feature_names();
    for row in 0..r.sampled.len() {
        let f = r.feature_row(row);
        for (i, &v) in f.iter().enumerate() {
            assert!(v.is_finite(), "feature {} not finite", names[i]);
        }
        // Mix fractions sum to 1 and are probabilities.
        let mix_sum: f64 = f[0..20].iter().sum();
        assert!((mix_sum - 1.0).abs() < 1e-9, "mix sums to {mix_sum}");
        assert!(f[0..20].iter().all(|&v| (0.0..=1.0).contains(&v)));
        // ILP grows (weakly) with window size and is at least 1 for any
        // non-empty interval (one instruction completes per cycle).
        assert!(f[20] >= 0.99, "win32 IPC {} below 1", f[20]);
        for w in 21..24 {
            assert!(f[w] >= f[w - 1] - 1e-9, "ILP not monotone in window");
        }
        // Stride and branch-miss features are probabilities.
        for i in 37..69 {
            assert!(
                (0.0..=1.0 + 1e-9).contains(&f[i]),
                "feature {} = {} out of range",
                names[i],
                f[i]
            );
        }
    }
}

#[test]
fn equal_weight_sampling_gives_equal_benchmark_counts() {
    let r = study();
    let mut counts = vec![0usize; r.benchmarks.len()];
    for s in &r.sampled {
        counts[s.bench] += 1;
    }
    for (i, &c) in counts.iter().enumerate() {
        assert_eq!(
            c, r.config.samples_per_benchmark,
            "benchmark {} ({}) got {} samples",
            i, r.benchmarks[i].name, c
        );
    }
}

#[test]
fn prominent_weights_match_cluster_sizes() {
    let r = study();
    let total = r.sampled.len() as f64;
    for p in &r.prominent {
        let expected = r.clustering.sizes[p.cluster] as f64 / total;
        assert!((p.weight - expected).abs() < 1e-12);
    }
    // Prominent coverage equals the sum of prominent weights.
    let sum: f64 = r.prominent.iter().map(|p| p.weight).sum();
    assert!((sum - r.prominent_coverage).abs() < 1e-12);
}
