//! The paper's distance-correlation fitness function.

use phaselab_stats::{normalize_columns, CenteredSample, Matrix, Pca, RELATIVE_STD_FLOOR};

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
/// are those of the whole matrix, restricted. The reduced space is built
/// column-major (project every row at once, z-score each score column,
/// then sum each pair's squared differences column by column), with the
/// same floating-point operations in the same order as the row-major
/// composition, so every score keeps its bits.
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
pub(crate) struct NormalizedPhases {
    rows: usize,
    /// Column means of the z-scored phases (the PCA centering).
    means: Vec<f64>,
    /// The z-scored phases minus their column means, column-major:
    /// column `j` is `centered[j * rows..(j + 1) * rows]`.
    centered: Vec<f64>,
    /// Covariance of the z-scored phases.
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
        let phases = NormalizedPhases::new(&normalize_columns(phases).0, sd_threshold);
        let all: Vec<usize> = (0..phases.cols()).collect();
        let full = pairwise_distances(&phases.rescaled_space(&all), phases.rows);
        DistanceCorrelationFitness {
            phases,
            full_distances: CenteredSample::new(&full),
        }
    }

    /// Number of characteristics.
    pub fn num_features(&self) -> usize {
        self.phases.cols()
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
        let reduced = pairwise_distances(&self.phases.rescaled_space(&selected), self.phases.rows);
        self.full_distances.pearson(&reduced)
    }
}

impl NormalizedPhases {
    /// Precomputes the centering, the centred columns and the covariance
    /// of the z-scored phases `normed`.
    pub(crate) fn new(normed: &Matrix, sd_threshold: f64) -> Self {
        let (rows, means) = (normed.rows(), normed.column_means());
        let centered = means
            .iter()
            .enumerate()
            .flat_map(|(j, &mean)| (0..rows).map(move |r| normed.get(r, j) - mean))
            .collect();
        NormalizedPhases {
            rows,
            cov: normed.covariance(),
            means,
            centered,
            sd_threshold,
        }
    }

    fn cols(&self) -> usize {
        self.means.len()
    }

    /// The rescaled PCA space of the (ascending) `selected` columns,
    /// column-major: PCA fitted on the restricted covariance, the
    /// selected columns projected onto the retained components, and the
    /// scores z-scored.
    pub(crate) fn rescaled_space(&self, selected: &[usize]) -> Vec<f64> {
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
        let mut scores = self.project(selected, pca.components(), retained);
        for column in scores.chunks_exact_mut(self.rows) {
            zscore(column);
        }
        scores
    }

    /// The centred `selected` columns projected onto the first `retained`
    /// columns of `components`, column-major. Every score sums `d·w` over
    /// the ascending selected columns from +0.0, as
    /// [`Pca::transform_row`] does.
    pub(crate) fn project(
        &self,
        selected: &[usize],
        components: &Matrix,
        retained: usize,
    ) -> Vec<f64> {
        let n = self.rows;
        let mut scores = vec![0.0; retained * n];
        for (a, &i) in selected.iter().enumerate() {
            let column = &self.centered[i * n..(i + 1) * n];
            for (out, &w) in scores
                .chunks_exact_mut(n)
                .zip(&components.row(a)[..retained])
            {
                for (o, &d) in out.iter_mut().zip(column) {
                    *o += d * w;
                }
            }
        }
        scores
    }
}

/// Z-scores one column in place with the arithmetic of
/// [`ColumnStats::of`](phaselab_stats::ColumnStats::of) and
/// [`apply`](phaselab_stats::ColumnStats::apply): Welford's running mean
/// and M2 in row order, the sample standard deviation clamped to 0 at or
/// below [`RELATIVE_STD_FLOOR`] times the largest magnitude, and constant
/// columns mapped to 0. Columns have at least three rows.
pub(crate) fn zscore(column: &mut [f64]) {
    let (mut mean, mut m2, mut max_abs) = (0.0f64, 0.0f64, 0.0f64);
    for (count, &v) in (1u64..).zip(column.iter()) {
        let delta = v - mean;
        mean += delta / count as f64;
        m2 += delta * (v - mean);
        if v.abs() > max_abs {
            max_abs = v.abs();
        }
    }
    let mut std = (m2 / (column.len() - 1) as f64).sqrt();
    if !std.is_finite() || std <= RELATIVE_STD_FLOOR * max_abs {
        std = 0.0;
    }
    for v in column {
        *v = if std == 0.0 { 0.0 } else { (*v - mean) / std };
    }
}

/// The upper-triangle pairwise distances of the `rows` points whose
/// coordinates are the column-major `scores`, in row-major pair order:
/// `(0,1), (0,2), …, (1,2), …`. Each pair sums its squared differences
/// over the ascending columns from +0.0 before the square root: the
/// additions [`distance`](phaselab_stats::distance) makes on rows (its
/// iterator sum may start from −0.0, which gives the same bits, since
/// every term `d·d` is at least +0.0).
pub(crate) fn pairwise_distances(scores: &[f64], rows: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(rows * rows.saturating_sub(1) / 2);
    let mut sums = vec![0.0; rows];
    for i in 0..rows {
        let sums = &mut sums[i + 1..];
        sums.fill(0.0);
        for column in scores.chunks_exact(rows) {
            let x = column[i];
            for (s, &y) in sums.iter_mut().zip(&column[i + 1..]) {
                let d = x - y;
                *s += d * d;
            }
        }
        out.extend(sums.iter().map(|s| s.sqrt()));
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
        assert!(pairwise_distances(&[0.0; 3], 1).is_empty());
        assert_eq!(pairwise_distances(&[0.0; 6], 2), vec![0.0]);
    }

    #[test]
    #[should_panic(expected = "mask length mismatch")]
    fn mask_length_checked() {
        let m = random_phases(5, 4, 5);
        let fit = DistanceCorrelationFitness::new(&m, 1.0);
        let _ = fit.score(&[true, true]);
    }
}
