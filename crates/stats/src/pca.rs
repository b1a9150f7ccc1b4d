//! Principal components analysis.

use crate::eigen::jacobi_eigen;
use crate::matrix::Matrix;

/// A fitted principal components analysis model.
///
/// PCA transforms `p` (possibly correlated) input variables into `p`
/// uncorrelated principal components ordered by decreasing variance. The
/// characterization methodology applies PCA to the normalized
/// interval-by-characteristic matrix and retains only the components whose
/// standard deviation exceeds 1 — i.e. components carrying more variance
/// than any single normalized input variable.
///
/// # Examples
///
/// ```
/// use phaselab_stats::{Matrix, Pca};
///
/// let m = Matrix::from_rows(&[
///     vec![1.0, 1.1],
///     vec![2.0, 2.2],
///     vec![3.0, 2.9],
///     vec![4.0, 4.1],
/// ]);
/// let pca = Pca::fit(&m);
/// let scores = pca.transform(&m, 1);
/// assert_eq!(scores.cols(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Pca {
    pub(crate) means: Vec<f64>,
    /// Columns are principal directions, ordered by decreasing variance.
    pub(crate) components: Matrix,
    /// Variance of each principal component (eigenvalues, clamped at 0).
    variances: Vec<f64>,
}

impl Pca {
    /// Fits a PCA model to the rows of `m` (observations by variables).
    ///
    /// # Panics
    ///
    /// Panics if `m` has fewer than two rows.
    pub fn fit(m: &Matrix) -> Self {
        Pca::from_covariance(m.column_means(), &m.covariance())
    }

    /// Fits a PCA model from an already-accumulated covariance matrix and
    /// the matching column means, without ever seeing the rows.
    ///
    /// This is the streaming entry point: feed rows through a
    /// [`RunningCovariance`](crate::RunningCovariance) and hand its
    /// [`covariance()`](crate::RunningCovariance::covariance) and
    /// [`means()`](crate::RunningCovariance::means) here. [`Pca::fit`] is
    /// this over a matrix's own means and covariance.
    ///
    /// # Panics
    ///
    /// Panics if `cov` is not square with side `means.len()`, or not
    /// symmetric.
    pub fn from_covariance(means: Vec<f64>, cov: &Matrix) -> Self {
        let _span = phaselab_obs::span!("pca.fit");
        phaselab_obs::counter_add("pca.fits", phaselab_obs::Class::Structural, 1);
        assert_eq!(cov.rows(), means.len(), "covariance/means size mismatch");
        let eig = jacobi_eigen(cov);
        let variances = eig
            .eigenvalues
            .iter()
            .map(|&v| if v > 0.0 { v } else { 0.0 })
            .collect();
        Pca {
            means,
            components: eig.eigenvectors,
            variances,
        }
    }

    /// Number of input variables the model was fitted on.
    pub fn input_dim(&self) -> usize {
        self.means.len()
    }

    /// The principal directions: entry `(j, c)` is input variable `j`'s
    /// weight in component `c`, components ordered by decreasing variance.
    pub fn components(&self) -> &Matrix {
        &self.components
    }

    /// The variance captured by each principal component, descending.
    pub fn variances(&self) -> &[f64] {
        &self.variances
    }

    /// The standard deviation of each principal component, descending.
    pub fn std_devs(&self) -> Vec<f64> {
        self.variances.iter().map(|v| v.sqrt()).collect()
    }

    /// The fraction of total variance explained by each component.
    pub fn explained_variance_ratio(&self) -> Vec<f64> {
        let total: f64 = self.variances.iter().sum();
        if total == 0.0 {
            vec![0.0; self.variances.len()]
        } else {
            self.variances.iter().map(|v| v / total).collect()
        }
    }

    /// Number of components whose standard deviation exceeds `threshold`.
    ///
    /// The paper retains components with standard deviation greater than
    /// one (on normalized data); this is the Kaiser criterion.
    pub fn count_above(&self, threshold: f64) -> usize {
        self.variances
            .iter()
            .filter(|&&v| v.sqrt() > threshold)
            .count()
    }

    /// Cumulative fraction of variance explained by the first `k`
    /// components.
    ///
    /// # Panics
    ///
    /// Panics if `k` exceeds the input dimensionality.
    pub fn cumulative_explained(&self, k: usize) -> f64 {
        assert!(k <= self.variances.len(), "k out of range");
        self.explained_variance_ratio().iter().take(k).sum()
    }

    /// Projects `m` onto the first `k` principal components.
    ///
    /// # Panics
    ///
    /// Panics if `m`'s column count differs from the fitted dimensionality
    /// or `k` exceeds it.
    pub fn transform(&self, m: &Matrix, k: usize) -> Matrix {
        assert_eq!(m.cols(), self.input_dim(), "dimensionality mismatch");
        assert!(k <= self.input_dim(), "k out of range");
        let mut out = Matrix::zeros(m.rows(), k);
        for r in 0..m.rows() {
            self.transform_row(m.row(r), out.row_mut(r));
        }
        out
    }

    /// Projects a single row onto the first `out.len()` principal
    /// components, writing the scores into `out`. [`transform`](Self::transform)
    /// is this per row, so streaming rows through here is bit-identical to
    /// transforming the materialized matrix.
    ///
    /// # Panics
    ///
    /// Panics if `row`'s length differs from the fitted dimensionality or
    /// `out` asks for more components than exist.
    pub fn transform_row(&self, row: &[f64], out: &mut [f64]) {
        assert_eq!(row.len(), self.input_dim(), "dimensionality mismatch");
        assert!(out.len() <= self.input_dim(), "k out of range");
        // j outer, c inner: each input is centered once and component
        // rows are read contiguously, while every score still sums
        // +0.0 and its terms in ascending j.
        let k = out.len();
        out.fill(0.0);
        for (j, (&x, &mean)) in row.iter().zip(&self.means).enumerate() {
            let d = x - mean;
            for (o, &w) in out.iter_mut().zip(&self.components.row(j)[..k]) {
                *o += d * w;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correlated_data_collapses_to_one_component() {
        let m = Matrix::from_rows(&[
            vec![1.0, 2.0],
            vec![2.0, 4.0],
            vec![3.0, 6.0],
            vec![4.0, 8.0],
        ]);
        let pca = Pca::fit(&m);
        let ratios = pca.explained_variance_ratio();
        assert!(ratios[0] > 0.9999);
        assert!(ratios[1] < 1e-6);
    }

    #[test]
    fn variances_match_eigenvalues_of_covariance() {
        let m = Matrix::from_rows(&[
            vec![1.0, 0.0],
            vec![-1.0, 0.0],
            vec![0.0, 2.0],
            vec![0.0, -2.0],
        ]);
        let pca = Pca::fit(&m);
        // var(x) = 2/3... sample var uses n-1: x: (1+1)/3 = 0.667, y: 8/3 = 2.667
        assert!((pca.variances()[0] - 8.0 / 3.0).abs() < 1e-10);
        assert!((pca.variances()[1] - 2.0 / 3.0).abs() < 1e-10);
    }

    #[test]
    fn transform_produces_uncorrelated_scores() {
        let m = Matrix::from_rows(&[
            vec![2.5, 2.4],
            vec![0.5, 0.7],
            vec![2.2, 2.9],
            vec![1.9, 2.2],
            vec![3.1, 3.0],
            vec![2.3, 2.7],
            vec![2.0, 1.6],
            vec![1.0, 1.1],
            vec![1.5, 1.6],
            vec![1.1, 0.9],
        ]);
        let pca = Pca::fit(&m);
        let scores = pca.transform(&m, 2);
        let cov = scores.covariance();
        assert!(cov.get(0, 1).abs() < 1e-10, "scores must be uncorrelated");
        // Score variances equal the eigenvalues.
        assert!((cov.get(0, 0) - pca.variances()[0]).abs() < 1e-10);
    }

    #[test]
    fn count_above_kaiser_criterion() {
        // On normalized data the total variance equals the number of
        // columns; at least one component must be above 1 unless all are
        // exactly 1.
        let m = Matrix::from_rows(&[
            vec![1.0, 1.0, 0.3],
            vec![2.0, 2.1, -0.4],
            vec![3.0, 2.9, 0.1],
            vec![4.0, 4.2, -0.2],
        ]);
        let (normed, _) = crate::normalize_columns(&m);
        let pca = Pca::fit(&normed);
        let k = pca.count_above(1.0);
        assert!((1..3).contains(&k));
    }

    #[test]
    fn cumulative_explained_is_monotone() {
        let m = Matrix::from_rows(&[
            vec![1.0, 5.0, 2.0],
            vec![2.0, 3.0, 8.0],
            vec![3.0, 8.0, 1.0],
            vec![4.0, 1.0, 9.0],
        ]);
        let pca = Pca::fit(&m);
        let mut prev = 0.0;
        for k in 0..=3 {
            let c = pca.cumulative_explained(k);
            assert!(c >= prev - 1e-12);
            prev = c;
        }
        assert!((pca.cumulative_explained(3) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn from_covariance_matches_fit_bitwise() {
        let m = Matrix::from_rows(&[
            vec![2.5, 2.4, 0.1],
            vec![0.5, 0.7, 1.3],
            vec![2.2, 2.9, -0.4],
            vec![1.9, 2.2, 0.8],
        ]);
        let fitted = Pca::fit(&m);
        let streamed = Pca::from_covariance(m.column_means(), &m.covariance());
        // Same covariance bits in → same model bits out.
        assert_eq!(fitted.variances(), streamed.variances());
        let a = fitted.transform(&m, 2);
        let b = streamed.transform(&m, 2);
        for r in 0..a.rows() {
            for c in 0..a.cols() {
                assert_eq!(a.get(r, c).to_bits(), b.get(r, c).to_bits());
            }
        }
    }

    #[test]
    fn transform_row_matches_transform() {
        let m = Matrix::from_rows(&[vec![1.0, 5.0], vec![2.0, 3.0], vec![3.0, 8.0]]);
        let pca = Pca::fit(&m);
        let full = pca.transform(&m, 2);
        let mut out = [0.0; 2];
        for r in 0..m.rows() {
            pca.transform_row(m.row(r), &mut out);
            assert_eq!(out[0].to_bits(), full.get(r, 0).to_bits());
            assert_eq!(out[1].to_bits(), full.get(r, 1).to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn transform_validates_dims() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let pca = Pca::fit(&m);
        let wrong = Matrix::from_rows(&[vec![1.0]]);
        let _ = pca.transform(&wrong, 1);
    }
}
