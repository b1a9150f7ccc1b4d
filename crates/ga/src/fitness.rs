//! The paper's distance-correlation fitness function.

use phaselab_stats::{distance, normalize_columns, CenteredSample, Matrix, Pca};

/// Fitness of a characteristic mask: the Pearson correlation coefficient
/// between the pairwise distances of the prominent phases in the reduced
/// characteristic space and their distances in the full space.
///
/// Both distance sets are computed in the *rescaled PCA space* (normalize
/// → PCA, retain components with standard deviation > 1 → normalize), so
/// that correlation between characteristics does not inflate distances —
/// exactly the construction of §2.7 of the paper.
///
/// A mask's space is bit-identical to building it from the selected
/// columns alone, but sliced from state computed once: z-scoring works
/// column by column, and each covariance cell depends only on its own
/// two columns, so the selected columns' normalization and covariance
/// are those of the whole matrix, restricted.
///
/// # Examples
///
/// ```
/// use phaselab_ga::DistanceCorrelationFitness;
/// use phaselab_stats::Matrix;
///
/// // Three phases described by 4 characteristics; the last two columns
/// // are pure noise copies of the first two, so half the mask suffices.
/// let m = Matrix::from_rows(&[
///     vec![0.0, 1.0, 0.0, 1.0],
///     vec![1.0, 0.0, 1.0, 0.0],
///     vec![1.0, 1.0, 1.0, 1.0],
/// ]);
/// let fit = DistanceCorrelationFitness::new(&m, 1.0);
/// let full = fit.score(&[true, true, true, true]);
/// let half = fit.score(&[true, true, false, false]);
/// assert!(full > 0.99);
/// assert!(half > 0.99);
/// ```
#[derive(Debug, Clone)]
pub struct DistanceCorrelationFitness {
    phases: NormalizedPhases,
    /// The full-space pairwise distances, centered for the correlation.
    full_distances: CenteredSample,
}

/// What every mask's rescaled PCA space is sliced from.
#[derive(Debug, Clone)]
struct NormalizedPhases {
    /// The z-scored phases.
    normed: Matrix,
    /// Column means of `normed` (the PCA centering).
    means: Vec<f64>,
    /// Covariance of `normed`.
    cov: Matrix,
    sd_threshold: f64,
}

impl DistanceCorrelationFitness {
    /// Creates the fitness function for a phases-by-characteristics
    /// matrix, precomputing its normalization, its covariance and the
    /// full-space distances.
    ///
    /// # Panics
    ///
    /// Panics if `phases` has fewer than three rows (fewer than two
    /// distinct pairwise distances — correlation would be meaningless).
    pub fn new(phases: &Matrix, sd_threshold: f64) -> Self {
        assert!(
            phases.rows() >= 3,
            "need at least 3 phases for a distance correlation"
        );
        let (normed, _) = normalize_columns(phases);
        let phases = NormalizedPhases {
            means: normed.column_means(),
            cov: normed.covariance(),
            normed,
            sd_threshold,
        };
        let all: Vec<usize> = (0..phases.normed.cols()).collect();
        let full_distances = CenteredSample::new(&pairwise_distances(&phases.rescaled_space(&all)));
        DistanceCorrelationFitness {
            phases,
            full_distances,
        }
    }

    /// Number of characteristics.
    pub fn num_features(&self) -> usize {
        self.phases.normed.cols()
    }

    /// Scores a mask (`true` = characteristic retained).
    ///
    /// Returns 0 for an empty mask.
    ///
    /// # Panics
    ///
    /// Panics if the mask length differs from the number of
    /// characteristics.
    pub fn score(&self, mask: &[bool]) -> f64 {
        assert_eq!(mask.len(), self.num_features(), "mask length mismatch");
        let selected: Vec<usize> = (0..mask.len()).filter(|&i| mask[i]).collect();
        if selected.is_empty() {
            return 0.0;
        }
        let reduced_distances = pairwise_distances(&self.phases.rescaled_space(&selected));
        self.full_distances.pearson(&reduced_distances)
    }
}

impl NormalizedPhases {
    /// The rescaled PCA space of the (ascending) `selected` columns:
    /// PCA fitted on the restricted covariance, the selected normalized
    /// columns projected onto the retained components, and the scores
    /// z-scored.
    fn rescaled_space(&self, selected: &[usize]) -> Matrix {
        let k = selected.len();
        let mut cov = Matrix::zeros(k, k);
        for (a, &i) in selected.iter().enumerate() {
            let full = self.cov.row(i);
            for (c, &j) in cov.row_mut(a).iter_mut().zip(selected) {
                *c = full[j];
            }
        }
        let pca = Pca::from_covariance(selected.iter().map(|&i| self.means[i]).collect(), &cov);
        let retained = pca.count_above(self.sd_threshold).max(1);
        let mut scores = Matrix::zeros(self.normed.rows(), retained);
        let mut row = vec![0.0; k];
        for r in 0..self.normed.rows() {
            let full = self.normed.row(r);
            for (x, &i) in row.iter_mut().zip(selected) {
                *x = full[i];
            }
            pca.transform_row(&row, scores.row_mut(r));
        }
        normalize_columns(&scores).0
    }
}

/// The upper-triangle pairwise distances of the rows of `m`, in a fixed
/// (row-major) order: `(0,1), (0,2), …, (1,2), …`.
pub(crate) fn pairwise_distances(m: &Matrix) -> Vec<f64> {
    let n = m.rows();
    let mut out = Vec::with_capacity(n * n.saturating_sub(1) / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            out.push(distance(m.row(i), m.row(j)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn random_phases(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<Vec<f64>> = (0..rows)
            .map(|_| (0..cols).map(|_| rng.random_range(-1.0..1.0)).collect())
            .collect();
        Matrix::from_rows(&data)
    }

    #[test]
    fn full_mask_correlates_perfectly() {
        let m = random_phases(12, 6, 1);
        let fit = DistanceCorrelationFitness::new(&m, 1.0);
        let full = fit.score(&[true; 6]);
        assert!(full > 0.999, "full mask score {full}");
    }

    #[test]
    fn empty_mask_scores_zero() {
        let m = random_phases(10, 5, 2);
        let fit = DistanceCorrelationFitness::new(&m, 1.0);
        assert_eq!(fit.score(&[false; 5]), 0.0);
    }

    #[test]
    fn informative_subset_beats_noise_subset() {
        // Columns 0 and 1 are two independent signals (the full space is
        // two-dimensional); column 2 duplicates column 0 and column 3 is
        // constant. Selecting {0, 1} preserves both dimensions; selecting
        // {2, 3} loses the second one.
        let mut rng = StdRng::seed_from_u64(3);
        let rows: Vec<Vec<f64>> = (0..20)
            .map(|_| {
                let a: f64 = rng.random_range(-1.0..1.0);
                let b: f64 = rng.random_range(-1.0..1.0);
                vec![a, b, a, 7.0]
            })
            .collect();
        let m = Matrix::from_rows(&rows);
        // A permissive retention threshold keeps the comparison about the
        // selected columns rather than about Kaiser-criterion cutoffs on
        // weakly-correlated synthetic data.
        let fit = DistanceCorrelationFitness::new(&m, 0.5);
        let informative = fit.score(&[true, true, false, false]);
        let partial = fit.score(&[false, false, true, true]);
        assert!(informative > 0.95, "informative {informative}");
        assert!(
            informative > partial + 0.1,
            "informative {informative} vs partial {partial}"
        );
    }

    #[test]
    fn more_features_never_needed_for_duplicated_columns() {
        // Each column duplicated: half the mask preserves the geometry.
        let base = random_phases(15, 3, 4);
        let rows: Vec<Vec<f64>> = (0..15)
            .map(|r| {
                let mut v = base.row(r).to_vec();
                v.extend_from_slice(base.row(r));
                v
            })
            .collect();
        let m = Matrix::from_rows(&rows);
        let fit = DistanceCorrelationFitness::new(&m, 0.5);
        let half = fit.score(&[true, true, true, false, false, false]);
        assert!(half > 0.95, "duplicated-column half mask {half}");
    }

    #[test]
    fn pairwise_kernel_handles_tiny_inputs() {
        assert!(pairwise_distances(&Matrix::zeros(1, 3)).is_empty());
        assert_eq!(pairwise_distances(&Matrix::zeros(2, 3)), vec![0.0]);
    }

    #[test]
    #[should_panic(expected = "mask length mismatch")]
    fn mask_length_checked() {
        let m = random_phases(5, 4, 5);
        let fit = DistanceCorrelationFitness::new(&m, 1.0);
        let _ = fit.score(&[true, true]);
    }
}
