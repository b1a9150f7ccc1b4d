//! Column-wise z-score normalization.

use crate::indexed::{IndexedRows, Rows};
use crate::matrix::Matrix;
use crate::streaming::RunningColumnStats;

/// Per-column mean and standard deviation, as computed by
/// [`normalize_columns`].
///
/// Zero-variance columns record a standard deviation of `0.0`; they are
/// mapped to all-zero columns by the normalization (rather than dividing by
/// zero), which drops them from any subsequent distance or PCA computation.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Column means.
    pub means: Vec<f64>,
    /// Column sample standard deviations (`0.0` for constant columns).
    pub stds: Vec<f64>,
}

impl ColumnStats {
    /// Computes the statistics of the columns of `m` without normalizing.
    ///
    /// Runs the one-pass Welford accumulator
    /// ([`RunningColumnStats`](crate::RunningColumnStats)) over the rows
    /// in row order, so the result is bit-identical to streaming the
    /// same rows in the same order, and an [`IndexedRows`] gives the
    /// bits of its expansion. A standard deviation at or below
    /// [`RELATIVE_STD_FLOOR`](crate::RELATIVE_STD_FLOOR) times the
    /// column's largest absolute value is clamped to `0.0` — relative to
    /// the column's magnitude, so legitimately tiny-scale columns keep
    /// their spread while rounding noise on large-scale near-constant
    /// columns is treated as zero.
    pub fn of(m: &impl Rows) -> Self {
        let mut acc = RunningColumnStats::new(m.cols());
        for r in 0..m.rows() {
            acc.push(m.row(r));
        }
        acc.finalize()
    }

    /// The `(mean, standard deviation)` of column `col`.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range.
    pub fn column(&self, col: usize) -> (f64, f64) {
        (self.means[col], self.stds[col])
    }

    /// Applies this normalization to a matrix with the same column layout.
    ///
    /// # Panics
    ///
    /// Panics if the column counts disagree.
    pub fn apply(&self, m: &Matrix) -> Matrix {
        assert_eq!(m.cols(), self.means.len(), "column count mismatch");
        let mut out = Matrix::zeros(m.rows(), m.cols());
        for r in 0..m.rows() {
            self.apply_row(m.row(r), out.row_mut(r));
        }
        out
    }

    /// Normalizes one row into `out`. [`apply`](Self::apply) is this per
    /// row, so streamed rows normalize to the same bits as a matrix.
    pub fn apply_row(&self, row: &[f64], out: &mut [f64]) {
        assert_eq!(row.len(), self.means.len(), "column count mismatch");
        assert_eq!(out.len(), row.len(), "column count mismatch");
        for ((o, &v), (&mean, &std)) in out
            .iter_mut()
            .zip(row)
            .zip(self.means.iter().zip(&self.stds))
        {
            *o = if std == 0.0 { 0.0 } else { (v - mean) / std };
        }
    }
}

/// Z-score normalizes each column of `m` (mean 0, unit variance) and
/// returns the normalized matrix along with the statistics used.
///
/// The characterization methodology normalizes the data set before PCA "to
/// put all characteristics on a common scale" and again after PCA to give
/// all retained principal components equal weight (the "rescaled PCA
/// space" of the paper).
///
/// Constant columns become all-zero (see [`ColumnStats`]).
///
/// # Examples
///
/// ```
/// use phaselab_stats::{normalize_columns, Matrix};
///
/// let m = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
/// let (normed, stats) = normalize_columns(&m);
/// assert!((stats.means[0] - 2.0).abs() < 1e-12);
/// assert!((normed.get(0, 0) + 1.0).abs() < 1e-12);
/// ```
pub fn normalize_columns(m: &Matrix) -> (Matrix, ColumnStats) {
    let stats = ColumnStats::of(m);
    let normed = stats.apply(m);
    (normed, stats)
}

/// [`normalize_columns`] for indexed rows: the statistics of every row
/// in row order, the rescaling of each distinct row once. The result
/// shares `rows`' index and expands to the bits `normalize_columns`
/// gives for the expansion.
pub fn normalize_indexed(rows: &IndexedRows) -> (IndexedRows, ColumnStats) {
    let stats = ColumnStats::of(rows);
    let normed = rows.with_distinct(stats.apply(rows.distinct()));
    (normed, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalized_columns_have_zero_mean_unit_variance() {
        let m = Matrix::from_rows(&[vec![1.0, 100.0], vec![2.0, 200.0], vec![3.0, 300.0]]);
        let (n, _) = normalize_columns(&m);
        for c in 0..2 {
            let col = n.column(c);
            let mean: f64 = col.iter().sum::<f64>() / col.len() as f64;
            let var: f64 =
                col.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (col.len() - 1) as f64;
            assert!(mean.abs() < 1e-12);
            assert!((var - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn constant_column_becomes_zero() {
        let m = Matrix::from_rows(&[vec![5.0, 1.0], vec![5.0, 2.0], vec![5.0, 3.0]]);
        let (n, stats) = normalize_columns(&m);
        assert_eq!(stats.stds[0], 0.0);
        assert!(n.column(0).iter().all(|&v| v == 0.0));
        assert!(n.column(1).iter().any(|&v| v != 0.0));
    }

    #[test]
    fn column_accessor_matches_fields() {
        let m = Matrix::from_rows(&[vec![1.0, 7.0], vec![3.0, 7.0]]);
        let stats = ColumnStats::of(&m);
        assert_eq!(stats.column(0), (stats.means[0], stats.stds[0]));
        assert_eq!(stats.column(1), (7.0, 0.0));
    }

    #[test]
    fn apply_reuses_training_statistics() {
        let train = Matrix::from_rows(&[vec![0.0], vec![10.0]]);
        let (_, stats) = normalize_columns(&train);
        let test = Matrix::from_rows(&[vec![5.0]]);
        let out = stats.apply(&test);
        // mean 5, std = sqrt(50) => (5-5)/std = 0
        assert!(out.get(0, 0).abs() < 1e-12);
    }

    #[test]
    fn single_row_matrix_normalizes_to_zero() {
        let m = Matrix::from_rows(&[vec![3.0, 4.0]]);
        let (n, stats) = normalize_columns(&m);
        assert_eq!(stats.stds, vec![0.0, 0.0]);
        assert_eq!(n.row(0), &[0.0, 0.0]);
    }

    #[test]
    fn tiny_scale_column_is_not_clamped_to_constant() {
        // Regression: an absolute 1e-12 std floor zeroed this column even
        // though its spread is perfectly meaningful at its own scale.
        let m = Matrix::from_rows(&[vec![1e-15], vec![2e-15], vec![3e-15]]);
        let (n, stats) = normalize_columns(&m);
        assert!(stats.stds[0] > 0.0);
        assert!((n.get(0, 0) + 1.0).abs() < 1e-9, "z-scores must survive");
    }

    #[test]
    fn large_scale_noise_column_is_clamped_to_constant() {
        // Regression: a 1e12-scale column whose spread is floating-point
        // rounding noise (relative std ~1e-16) passed the absolute floor
        // and injected noise-only variance into the analysis.
        let m = Matrix::from_rows(&[vec![1e12], vec![1e12 + 1e-4], vec![1e12 - 1e-4]]);
        let (n, stats) = normalize_columns(&m);
        assert_eq!(stats.stds[0], 0.0);
        assert!(n.column(0).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn indexed_rows_normalize_as_their_expansion() {
        // Repeats weigh the statistics; each distinct row is rescaled once.
        let distinct = Matrix::from_rows(&[vec![1.0, 10.0], vec![4.0, -2.0], vec![0.5, 3.0]]);
        let rows = IndexedRows::new(distinct, vec![0, 1, 1, 2, 1, 0]);
        let (normed, stats) = normalize_indexed(&rows);
        let (want, want_stats) = normalize_columns(&rows.expand());
        assert_eq!(stats, want_stats);
        assert_eq!(normed.index(), rows.index());
        assert_eq!(normed.distinct().rows(), 3);
        let bits =
            |m: &Matrix| -> Vec<u64> { m.iter_rows().flatten().map(|v| v.to_bits()).collect() };
        assert_eq!(bits(&normed.expand()), bits(&want));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn apply_validates_columns() {
        let m = Matrix::from_rows(&[vec![1.0], vec![2.0]]);
        let (_, stats) = normalize_columns(&m);
        let wrong = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let _ = stats.apply(&wrong);
    }
}
