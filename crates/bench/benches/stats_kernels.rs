//! Statistics-substrate kernels: eigendecomposition, PCA, k-means and
//! correlation at the dimensions the study uses.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use phaselab_ga::{select_features, DistanceCorrelationFitness, GaConfig};
use phaselab_stats::{
    jacobi_eigen, kmeans, kmeans_reference, normalize_columns, pearson, KmeansConfig, Matrix, Pca,
};

fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x >> 11) as f64 / (1u64 << 53) as f64
    };
    let rows: Vec<Vec<f64>> = (0..rows)
        .map(|_| (0..cols).map(|_| next()).collect())
        .collect();
    Matrix::from_rows(&rows)
}

/// Points drawn around `centers` well-separated blob centers — the shape
/// of the study's rescaled PCA space, where sampled intervals concentrate
/// around phase behaviors. (Uniform noise would be the adversarial case
/// for any clustering: in high dimensions its pairwise distances
/// concentrate and there is no structure to find.)
fn clustered_matrix(rows: usize, cols: usize, centers: usize, seed: u64) -> Matrix {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x >> 11) as f64 / (1u64 << 53) as f64
    };
    let center_rows: Vec<Vec<f64>> = (0..centers)
        .map(|_| (0..cols).map(|_| next() * 10.0).collect())
        .collect();
    let rows: Vec<Vec<f64>> = (0..rows)
        .map(|i| {
            let c = &center_rows[i % centers];
            // Sum of three uniforms, centered: a cheap bell-shaped jitter.
            c.iter()
                .map(|&v| v + (next() + next() + next() - 1.5) * 0.4)
                .collect()
        })
        .collect();
    Matrix::from_rows(&rows)
}

fn benches(c: &mut Criterion) {
    // 69×69 symmetric eigendecomposition: the PCA inner step at study
    // dimensionality.
    let m = random_matrix(200, 69, 1);
    let cov = m.covariance();
    c.bench_function("jacobi_eigen_69x69", |b| {
        b.iter(|| black_box(jacobi_eigen(&cov)));
    });

    // PCA fit on a study-sized sample block.
    let data = random_matrix(2000, 69, 2);
    c.bench_function("pca_fit_2000x69", |b| b.iter(|| black_box(Pca::fit(&data))));

    // k-means at a reduced study shape.
    let space = random_matrix(1500, 14, 4);
    let cfg = KmeansConfig::new(50).with_restarts(1).with_max_iters(15);
    let mut group = c.benchmark_group("kmeans");
    group.sample_size(10);
    group.bench_function("kmeans_1500x14_k50", |b| {
        b.iter(|| black_box(kmeans(&space, &cfg)));
    });
    group.finish();

    // k-means at the paper's study shape: ~15 400 sampled intervals in a
    // ~20-dimensional rescaled PCA space, k = 300 clusters, drawn around
    // k blob centers as the real interval data is. `--quick` shrinks the
    // problem so smoke runs stay fast; both sizes compare the
    // bound-pruned implementation against the naive full-scan reference
    // on identical input and configuration.
    let (rows, cols, k, restarts, iters) = if c.is_quick() {
        (1540, 20, 30, 1, 10)
    } else {
        (15_400, 20, 300, 5, 40)
    };
    let study = clustered_matrix(rows, cols, k, 7);
    let study_cfg = KmeansConfig::new(k)
        .with_restarts(restarts)
        .with_max_iters(iters)
        .with_seed(11);
    let mut group = c.benchmark_group("kmeans_study_shape");
    group.sample_size(10);
    group.bench_function(&format!("kmeans_{rows}x{cols}_k{k}"), |b| {
        b.iter(|| black_box(kmeans(&study, &study_cfg)));
    });
    group.bench_function(&format!("kmeans_reference_{rows}x{cols}_k{k}"), |b| {
        b.iter(|| black_box(kmeans_reference(&study, &study_cfg)));
    });
    group.finish();

    // One GA run over prominent-phase-sized fitness data: ~100 phases ×
    // 69 characteristics, selecting k = 12, with the distance-correlation
    // fitness scored in parallel batches.
    let ga_phases = random_matrix(100, 69, 8);
    let ga_fitness = DistanceCorrelationFitness::new(&ga_phases, 1.0);
    let ga_cfg = if c.is_quick() {
        GaConfig::fast(9)
    } else {
        GaConfig::study(9)
    };
    let ga_score = |mask: &[bool]| ga_fitness.score(mask);
    let mut group = c.benchmark_group("ga_generation");
    group.sample_size(10);
    group.bench_function("ga_select_100x69_k12", |b| {
        b.iter(|| black_box(select_features(69, 12, &ga_score, &ga_cfg)));
    });
    group.finish();

    // Normalization + correlation micro-kernels.
    c.bench_function("normalize_2000x69", |b| {
        b.iter(|| black_box(normalize_columns(&data)));
    });
    let x: Vec<f64> = (0..4950).map(|i| (i as f64).sin()).collect();
    let y: Vec<f64> = (0..4950).map(|i| (i as f64).cos()).collect();
    c.bench_function("pearson_4950", |b| b.iter(|| black_box(pearson(&x, &y))));
}

criterion_group!(stats, benches);
criterion_main!(stats);
