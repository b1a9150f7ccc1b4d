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
//! (Jacobi, projection, Pearson) are checked against their own
//! references in `phaselab-stats`.

use phaselab_stats::{distance, normalize_columns, pearson, Matrix, Pca};
use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;

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
