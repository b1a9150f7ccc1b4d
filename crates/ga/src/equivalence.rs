//! Exactness of the cached-covariance fitness.
//!
//! [`DistanceCorrelationFitness`] slices every mask's normalization and
//! covariance from state computed once. This module keeps the
//! straightforward composition as a reference: copy out the selected
//! columns, build their rescaled PCA space from scratch (normalize, fit
//! PCA, project onto the components with standard deviation above the
//! threshold, normalize), take all pairwise distances and correlate them
//! against the full space's. It checks that both score random masks of
//! every size to the same bits, on matrices with constant and duplicated
//! columns and with as few as three rows. The kernels both sides share
//! (Jacobi, Pearson) are checked against their own references in
//! `phaselab-stats`.
//!
//! The fitness builds each reduced space column-major. The row-major
//! composition it replaced stays here as the oracle for that kernel:
//! [`Pca::transform_row`] per row, [`normalize_columns`], and the
//! row-by-row [`pairwise`] distances.

use phaselab_stats::{distance, normalize_columns, pearson, Matrix, Pca};
use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;

use crate::fitness::{pairwise_distances, zscore, NormalizedPhases};
use crate::DistanceCorrelationFitness;

/// The reference fitness:
/// `pearson(full, pairwise(rescaled_pca_space(select_columns(mask))))`.
struct ReferenceFitness {
    phases: Matrix,
    sd_threshold: f64,
    full_distances: Vec<f64>,
}

impl ReferenceFitness {
    fn new(phases: &Matrix, sd_threshold: f64) -> Self {
        ReferenceFitness {
            phases: phases.clone(),
            sd_threshold,
            full_distances: pairwise(&rescaled_pca_space(phases, sd_threshold)),
        }
    }

    fn score(&self, mask: &[bool]) -> f64 {
        let selected: Vec<usize> = (0..mask.len()).filter(|&i| mask[i]).collect();
        if selected.is_empty() {
            return 0.0;
        }
        let mut reduced = Matrix::zeros(self.phases.rows(), selected.len());
        for r in 0..self.phases.rows() {
            for (j, &c) in selected.iter().enumerate() {
                reduced.set(r, j, self.phases.get(r, c));
            }
        }
        let reduced_space = rescaled_pca_space(&reduced, self.sd_threshold);
        pearson(&self.full_distances, &pairwise(&reduced_space))
    }
}

/// The paper's rescaled PCA space of all of `m`'s columns.
fn rescaled_pca_space(m: &Matrix, sd_threshold: f64) -> Matrix {
    let (normed, _) = normalize_columns(m);
    let pca = Pca::fit(&normed);
    let k = pca.count_above(sd_threshold).max(1);
    let scores = pca.transform(&normed, k);
    normalize_columns(&scores).0
}

/// The row-major rescaled space of the `selected` columns of the z-scored
/// `normed`: each row projected with [`Pca::transform_row`] onto the
/// first `retained` components, then the scores z-scored.
fn row_major_space(normed: &Matrix, selected: &[usize], pca: &Pca, retained: usize) -> Matrix {
    let mut scores = Matrix::zeros(normed.rows(), retained);
    let mut row = vec![0.0; selected.len()];
    for r in 0..normed.rows() {
        for (x, &i) in row.iter_mut().zip(selected) {
            *x = normed.get(r, i);
        }
        pca.transform_row(&row, scores.row_mut(r));
    }
    normalize_columns(&scores).0
}

/// The row-major upper-triangle pairwise distances: `(0,1), (0,2), …`.
fn pairwise(m: &Matrix) -> Vec<f64> {
    let mut out = Vec::new();
    for i in 0..m.rows() {
        for j in (i + 1)..m.rows() {
            out.push(distance(m.row(i), m.row(j)));
        }
    }
    out
}

/// A `rows × cols` matrix mixing spreads across magnitudes, constants,
/// exact duplicates, affine copies and few-level columns.
fn random_phases(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
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

/// A random mask with exactly `size` characteristics retained.
fn random_mask(rng: &mut StdRng, cols: usize, size: usize) -> Vec<bool> {
    let mut order: Vec<usize> = (0..cols).collect();
    order.shuffle(rng);
    let mut mask = vec![false; cols];
    for &i in &order[..size] {
        mask[i] = true;
    }
    mask
}

/// Scores one random mask of every size from 0 to `cols` both ways.
fn check_every_size(seed: u64, rows: usize, cols: usize, sd_threshold: f64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let phases = random_phases(&mut rng, rows, cols);
    let fast = DistanceCorrelationFitness::new(&phases, sd_threshold);
    let slow = ReferenceFitness::new(&phases, sd_threshold);
    for size in 0..=cols {
        let mask = random_mask(&mut rng, cols, size);
        let (f, s) = (fast.score(&mask), slow.score(&mask));
        prop_assert!(f.to_bits() == s.to_bits(), "mask {mask:?}: {f} != {s}");
    }
    Ok(())
}

/// Builds one reduced space column-major and row-major, from a PCA
/// fitted on the selected columns and projected onto `retained` of its
/// components, and compares the scores and the distances bit for bit.
fn check_kernel(
    seed: u64,
    rows: usize,
    cols: usize,
    size: usize,
    retained: usize,
) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let normed = normalize_columns(&random_phases(&mut rng, rows, cols)).0;
    let mask = random_mask(&mut rng, cols, size);
    let selected: Vec<usize> = (0..cols).filter(|&i| mask[i]).collect();
    let pca = Pca::fit(&Matrix::from_rows(
        &normed
            .iter_rows()
            .map(|row| selected.iter().map(|&i| row[i]).collect())
            .collect::<Vec<_>>(),
    ));
    let oracle = row_major_space(&normed, &selected, &pca, retained);

    let mut scores =
        NormalizedPhases::new(&normed, 1.0).project(&selected, pca.components(), retained);
    for column in scores.chunks_exact_mut(rows) {
        zscore(column);
    }
    for r in 0..rows {
        for c in 0..retained {
            let (fast, slow) = (scores[c * rows + r], oracle.get(r, c));
            prop_assert!(
                fast.to_bits() == slow.to_bits(),
                "score ({r}, {c}): {fast} != {slow}"
            );
        }
    }
    let (fast, slow) = (pairwise_distances(&scores, rows), pairwise(&oracle));
    prop_assert!(fast.len() == slow.len());
    for (p, (f, s)) in fast.iter().zip(&slow).enumerate() {
        prop_assert!(f.to_bits() == s.to_bits(), "pair {p}: {f} != {s}");
    }
    Ok(())
}

/// Retention thresholds around the paper's 1.0, and one retaining
/// every non-zero component.
const THRESHOLDS: [f64; 4] = [1.0, 0.5, 1.5, 0.0];

proptest! {
    #[test]
    fn equivalence_fitness_every_mask_size(
        seed in 0u64..u64::MAX,
        rows in 3usize..40,
        cols in 1usize..70,
        pick in 0usize..THRESHOLDS.len(),
    ) {
        check_every_size(seed, rows, cols, THRESHOLDS[pick])?;
    }

    #[test]
    fn equivalence_fitness_three_rows(
        seed in 0u64..u64::MAX,
        cols in 1usize..70,
        pick in 0usize..THRESHOLDS.len(),
    ) {
        check_every_size(seed, 3, cols, THRESHOLDS[pick])?;
    }

    #[test]
    fn equivalence_column_major_kernel(
        seed in 0u64..u64::MAX,
        rows in 3usize..121,
        cols in 1usize..21,
        size in 1usize..21,
        retained in 1usize..13,
    ) {
        let size = size.min(cols);
        check_kernel(seed, rows, cols, size, retained.min(size))?;
    }

    #[test]
    fn equivalence_zscore_matches_column_stats(
        seed in 0u64..u64::MAX,
        rows in 3usize..121,
        offset in -3i32..14,
        spread in -16i32..3,
    ) {
        // Columns at every offset-to-spread ratio, so the relative floor
        // clamps some of them to constant.
        let mut rng = StdRng::seed_from_u64(seed);
        let (base, scale) = (10f64.powi(offset), 10f64.powi(spread));
        let column: Vec<f64> = (0..rows)
            .map(|_| base + rng.random_range(-1.0..1.0) * scale)
            .collect();
        let oracle = normalize_columns(&Matrix::from_vec(rows, 1, column.clone())).0;
        let mut fast = column;
        zscore(&mut fast);
        for (r, f) in fast.iter().enumerate() {
            let s = oracle.get(r, 0);
            prop_assert!(f.to_bits() == s.to_bits(), "row {r}: {f} != {s}");
        }
    }

    #[test]
    fn equivalence_fitness_study_shape(seed in 0u64..u64::MAX, size in 1usize..70) {
        // The study's shape: 100 prominent phases by 69 characteristics.
        let mut rng = StdRng::seed_from_u64(seed);
        let phases = random_phases(&mut rng, 100, 69);
        let fast = DistanceCorrelationFitness::new(&phases, 1.0);
        let slow = ReferenceFitness::new(&phases, 1.0);
        let mask = random_mask(&mut rng, 69, size);
        let (f, s) = (fast.score(&mask), slow.score(&mask));
        prop_assert!(f.to_bits() == s.to_bits(), "mask {mask:?}: {f} != {s}");
    }
}
