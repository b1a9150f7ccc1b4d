//! Exactness of the analysis kernels.
//!
//! The Jacobi eigensolver, the PCA projection, the running covariance
//! and the Pearson coefficient are written for speed. This module keeps
//! their straightforward formulations as reference implementations —
//! Jacobi through bounds-checked `Matrix::get/set`, a projection that
//! loops components outside and inputs inside, a co-moment update that
//! recomputes `x_j − μ_j` for every cell, and a Pearson coefficient that
//! centers both samples in one loop — and checks that the fast kernels
//! produce bit-identical results on random inputs, including constant
//! and duplicated columns. k-means keeps its unpruned loop as the public
//! [`kmeans_reference`]; the bounded, neighbour-list [`kmeans`] must
//! match it on integer grids, where duplicate rows, equal distances,
//! coincident centroids and empty clusters are the rule, and on rows
//! drawn with replacement from a small pool, where most rows repeat,
//! given both as an [`IndexedRows`] and as its expansion.

use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;

use crate::{
    jacobi_eigen, kmeans, kmeans_reference, normalize_columns, pearson, CenteredSample, Clustering,
    ColumnStats, EigenDecomposition, IndexedRows, KmeansConfig, Matrix, Pca, Rows,
    RunningCovariance,
};

// ---------------------------------------------------------------------
// Reference implementations.

/// Reference Jacobi: the same sweeps through `Matrix::get/set`.
fn reference_jacobi(m: &Matrix) -> EigenDecomposition {
    let n = m.rows();
    let mut a = m.clone();
    let mut v = Matrix::identity(n);
    const MAX_SWEEPS: usize = 100;
    for _ in 0..MAX_SWEEPS {
        let mut off = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                off += a.get(i, j) * a.get(i, j);
            }
        }
        if off.sqrt() < 1e-12 {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = a.get(p, q);
                if apq.abs() < 1e-300 {
                    continue;
                }
                let app = a.get(p, p);
                let aqq = a.get(q, q);
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                for k in 0..n {
                    let akp = a.get(k, p);
                    let akq = a.get(k, q);
                    a.set(k, p, c * akp - s * akq);
                    a.set(k, q, s * akp + c * akq);
                }
                for k in 0..n {
                    let apk = a.get(p, k);
                    let aqk = a.get(q, k);
                    a.set(p, k, c * apk - s * aqk);
                    a.set(q, k, s * apk + c * aqk);
                }
                for k in 0..n {
                    let vkp = v.get(k, p);
                    let vkq = v.get(k, q);
                    v.set(k, p, c * vkp - s * vkq);
                    v.set(k, q, s * vkp + c * vkq);
                }
            }
        }
    }
    let mut order: Vec<usize> = (0..n).collect();
    let diag: Vec<f64> = (0..n).map(|i| a.get(i, i)).collect();
    order.sort_by(|&i, &j| diag[j].partial_cmp(&diag[i]).expect("non-NaN eigenvalues"));
    let eigenvalues: Vec<f64> = order.iter().map(|&i| diag[i]).collect();
    let mut eigenvectors = Matrix::zeros(n, n);
    for (new_col, &old_col) in order.iter().enumerate() {
        for r in 0..n {
            eigenvectors.set(r, new_col, v.get(r, old_col));
        }
    }
    EigenDecomposition {
        eigenvalues,
        eigenvectors,
    }
}

/// Reference projection: one accumulator per component, inputs inside.
fn reference_transform_row(pca: &Pca, row: &[f64], out: &mut [f64]) {
    for (c, o) in out.iter_mut().enumerate() {
        let mut acc = 0.0;
        for (j, &x) in row.iter().enumerate() {
            acc += (x - pca.means[j]) * pca.components.get(j, c);
        }
        *o = acc;
    }
}

/// Reference running covariance: `x_j − μ_j` recomputed per cell.
struct ReferenceCovariance {
    count: u64,
    means: Vec<f64>,
    comoment: Matrix,
    delta_old: Vec<f64>,
}

impl ReferenceCovariance {
    fn new(cols: usize) -> Self {
        ReferenceCovariance {
            count: 0,
            means: vec![0.0; cols],
            comoment: Matrix::zeros(cols, cols),
            delta_old: vec![0.0; cols],
        }
    }

    fn push(&mut self, row: &[f64]) {
        self.count += 1;
        let n = self.count as f64;
        for (j, &v) in row.iter().enumerate() {
            self.delta_old[j] = v - self.means[j];
            self.means[j] += self.delta_old[j] / n;
        }
        for i in 0..self.means.len() {
            if self.delta_old[i] == 0.0 {
                continue;
            }
            let di = self.delta_old[i];
            let crow = self.comoment.row_mut(i);
            for (j, c) in crow.iter_mut().enumerate().skip(i) {
                *c += di * (row[j] - self.means[j]);
            }
        }
    }

    fn covariance(&self) -> Matrix {
        let denom = (self.count - 1) as f64;
        let d = self.means.len();
        let mut cov = Matrix::zeros(d, d);
        for i in 0..d {
            for j in i..d {
                let v = self.comoment.get(i, j) / denom;
                cov.set(i, j, v);
                cov.set(j, i, v);
            }
        }
        cov
    }
}

/// Reference Pearson coefficient: both samples centered in one loop.
fn reference_pearson(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        let dx = a - mx;
        let dy = b - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return 0.0;
    }
    (sxy / (sxx.sqrt() * syy.sqrt())).clamp(-1.0, 1.0)
}

/// Reference normalization: the matrix cloned and z-scored in place.
fn reference_apply(stats: &ColumnStats, m: &Matrix) -> Matrix {
    let mut out = m.clone();
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        for (v, (&mean, &std)) in row.iter_mut().zip(stats.means.iter().zip(&stats.stds)) {
            *v = if std == 0.0 { 0.0 } else { (*v - mean) / std };
        }
    }
    out
}

// ---------------------------------------------------------------------
// Inputs.

/// A `rows × cols` matrix whose columns are a mix of spreads across
/// magnitudes, constants, exact duplicates, affine copies and few-level
/// columns — the shapes that exercise the zero-deviation skips.
fn random_columns(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    for c in 0..cols {
        let kind = if c == 0 { 0 } else { rng.random_range(0..5u32) };
        let (src, a, b) = (
            rng.random_range(0..c.max(1)),
            rng.random_range(-3.0..3.0),
            rng.random_range(-5.0..5.0),
        );
        let scale = 10f64.powi(rng.random_range(-4..5i32));
        let constant = rng.random_range(-100.0..100.0);
        for r in 0..rows {
            let v = match kind {
                0 => rng.random_range(-1.0..1.0) * scale,
                1 => constant,
                2 => m.get(r, src),
                3 => a * m.get(r, src) + b,
                _ => f64::from(rng.random_range(0..3u32)),
            };
            m.set(r, c, v);
        }
    }
    m
}

/// A random symmetric matrix with some all-zero rows and columns.
fn random_symmetric(rng: &mut StdRng, n: usize) -> Matrix {
    let mut m = Matrix::zeros(n, n);
    let zeroed: Vec<bool> = (0..n).map(|_| rng.random_range(0..8u32) == 0).collect();
    for i in 0..n {
        for j in i..n {
            let v = if zeroed[i] || zeroed[j] {
                0.0
            } else {
                rng.random_range(-10.0..10.0)
            };
            m.set(i, j, v);
            m.set(j, i, v);
        }
    }
    m
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn same_matrix(a: &Matrix, b: &Matrix) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.iter_rows()
            .zip(b.iter_rows())
            .all(|(x, y)| same_bits(x, y))
}

/// `rows` points on an integer grid: each of `cols` columns takes one
/// of 2–5 levels, so rows repeat and distances tie.
fn integer_grid(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    let levels: Vec<u32> = (0..cols).map(|_| rng.random_range(2..6u32)).collect();
    let mut m = Matrix::zeros(rows, cols);
    for r in 0..rows {
        for (c, &l) in levels.iter().enumerate() {
            m.set(r, c, f64::from(rng.random_range(0..l)));
        }
    }
    m
}

/// `n` rows drawn with replacement from a pool of `pool` continuous
/// rows, so most rows repeat, kept as the pool plus each row's draw.
/// About one pool row in sixteen copies an earlier pool row's bits, as
/// two sampled intervals with equal features do. Some columns mix `0.0`
/// and `-0.0` with continuous values: rows that differ only in a zero's
/// sign are different bit patterns at the same point.
fn repeat_draws(rng: &mut StdRng, n: usize, pool: usize, cols: usize) -> IndexedRows {
    let signed_zeros: Vec<bool> = (0..cols)
        .map(|c| c > 0 && rng.random_range(0..2u32) == 0)
        .collect();
    let mut distinct = Matrix::zeros(pool, cols);
    for r in 0..pool {
        if r > 0 && rng.random_range(0..16u32) == 0 {
            let twin = distinct.row(rng.random_range(0..r)).to_vec();
            distinct.row_mut(r).copy_from_slice(&twin);
            continue;
        }
        for (v, &zeros) in distinct.row_mut(r).iter_mut().zip(&signed_zeros) {
            *v = match (zeros, rng.random_range(0..3u32)) {
                (true, 0) => 0.0,
                (true, 1) => -0.0,
                _ => rng.random_range(-1.0..1.0),
            };
        }
    }
    let index: Vec<u32> = (0..n).map(|_| rng.random_range(0..pool as u32)).collect();
    IndexedRows::new(distinct, index)
}

/// `kmeans` on `data` at threads 1, 2 and 4 against `want`, the
/// reference clustering of its rows, bit for bit.
fn check_kmeans(data: &impl Rows, want: &Clustering, cfg: &KmeansConfig) -> Result<(), String> {
    for threads in [1usize, 2, 4] {
        let got = kmeans(data, &cfg.clone().with_threads(threads));
        prop_assert_eq!(&got.assignments, &want.assignments, "threads = {}", threads);
        prop_assert_eq!(&got.sizes, &want.sizes, "threads = {}", threads);
        prop_assert!(
            same_matrix(&got.centroids, &want.centroids),
            "centroids differ at threads = {}",
            threads
        );
        prop_assert_eq!(
            got.inertia.to_bits(),
            want.inertia.to_bits(),
            "threads = {}",
            threads
        );
        prop_assert_eq!(
            got.bic.to_bits(),
            want.bic.to_bits(),
            "threads = {}",
            threads
        );
    }
    Ok(())
}

fn check_jacobi(m: &Matrix) -> Result<(), String> {
    let (fast, slow) = (jacobi_eigen(m), reference_jacobi(m));
    prop_assert!(
        same_bits(&fast.eigenvalues, &slow.eigenvalues),
        "eigenvalues {:?} != {:?}",
        fast.eigenvalues,
        slow.eigenvalues
    );
    prop_assert!(
        same_matrix(&fast.eigenvectors, &slow.eigenvectors),
        "eigenvectors differ at n = {}",
        m.rows()
    );
    Ok(())
}

proptest! {
    #[test]
    fn equivalence_jacobi_random_symmetric(seed in 0u64..u64::MAX, n in 1usize..70) {
        let mut rng = StdRng::seed_from_u64(seed);
        check_jacobi(&random_symmetric(&mut rng, n))?;
    }

    #[test]
    fn equivalence_jacobi_covariance(seed in 0u64..u64::MAX, n in 1usize..70, rows in 3usize..40) {
        // The shape the study feeds it: the covariance of z-scored data,
        // with zero rows for constant columns and rank deficiency from
        // duplicates and from having fewer rows than columns.
        let mut rng = StdRng::seed_from_u64(seed);
        let (normed, _) = normalize_columns(&random_columns(&mut rng, rows, n));
        check_jacobi(&normed.covariance())?;
    }

    #[test]
    fn equivalence_transform_row(seed in 0u64..u64::MAX, cols in 1usize..70, rows in 3usize..40) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (normed, _) = normalize_columns(&random_columns(&mut rng, rows, cols));
        let pca = Pca::fit(&normed);
        for k in 0..=cols {
            let (mut fast, mut slow) = (vec![f64::NAN; k], vec![f64::NAN; k]);
            for row in normed.iter_rows() {
                pca.transform_row(row, &mut fast);
                reference_transform_row(&pca, row, &mut slow);
                prop_assert!(same_bits(&fast, &slow), "k = {k}: {fast:?} != {slow:?}");
            }
        }
    }

    #[test]
    fn equivalence_running_covariance(seed in 0u64..u64::MAX, cols in 1usize..70, rows in 2usize..60) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = random_columns(&mut rng, rows, cols);
        let (normed, _) = normalize_columns(&m);
        for data in [&m, &normed] {
            let mut fast = RunningCovariance::new(cols);
            let mut slow = ReferenceCovariance::new(cols);
            for row in data.iter_rows() {
                fast.push(row);
                slow.push(row);
            }
            prop_assert!(same_bits(fast.means(), &slow.means), "means differ");
            prop_assert!(same_matrix(&fast.covariance(), &slow.covariance()), "covariance differs");
        }
    }

    #[test]
    fn equivalence_normalize_apply(seed in 0u64..u64::MAX, cols in 1usize..70, rows in 1usize..40) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = random_columns(&mut rng, rows, cols);
        let stats = ColumnStats::of(&m);
        prop_assert!(same_matrix(&stats.apply(&m), &reference_apply(&stats, &m)), "apply differs");
    }

    #[test]
    fn equivalence_pearson(seed in 0u64..u64::MAX, len in 2usize..200, kind in 0u32..3) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x: Vec<f64> = (0..len).map(|_| rng.random_range(-1.0..1.0)).collect();
        let y: Vec<f64> = match kind {
            0 => (0..len).map(|_| rng.random_range(-1.0..1.0)).collect(),
            1 => x.iter().map(|v| 2.0 * v + 1.0).collect(),
            _ => vec![0.5; len],
        };
        for (a, b) in [(&x, &y), (&y, &x)] {
            let want = reference_pearson(a, b).to_bits();
            prop_assert_eq!(pearson(a, b).to_bits(), want);
            prop_assert_eq!(CenteredSample::new(a).pearson(b).to_bits(), want);
        }
    }

    #[test]
    fn equivalence_kmeans_ties(
        seed in 0u64..u64::MAX,
        cols in 1usize..5,
        n in 5usize..200,
        k in 1usize..65,
        restarts in 1usize..3,
    ) {
        // k spans both complete neighbour lists (k ≤ NEAR + 1) and lists
        // that can run out and fall back to the full scan.
        let mut rng = StdRng::seed_from_u64(seed);
        let m = integer_grid(&mut rng, n, cols);
        let cfg = KmeansConfig::new(k.min(n)).with_restarts(restarts).with_seed(seed);
        check_kmeans(&m, &kmeans_reference(&m, &cfg), &cfg)?;
    }

    #[test]
    fn equivalence_kmeans_repeat_draws(
        seed in 0u64..u64::MAX,
        cols in 1usize..5,
        n in 600usize..3000,
        pool in 20usize..400,
        k_pick in 0usize..1000,
        restarts in 1usize..3,
    ) {
        // The study's shape: far fewer distinct rows than rows, spread
        // over several assignment chunks. k runs past the pool size, so
        // some restarts keep clusters empty and re-seed them from copies.
        // The indexed form and its expansion both match the reference
        // on the expansion.
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = repeat_draws(&mut rng, n, pool, cols);
        let m = rows.expand();
        let k = 1 + k_pick % (pool + 16);
        let cfg = KmeansConfig::new(k).with_restarts(restarts).with_seed(seed);
        let want = kmeans_reference(&m, &cfg);
        check_kmeans(&rows, &want, &cfg)?;
        check_kmeans(&m, &want, &cfg)?;
    }
}
