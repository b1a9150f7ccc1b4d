//! Statistics substrate for `phaselab`.
//!
//! Implements, from scratch, every piece of multivariate statistics the
//! phase-level workload characterization methodology of Hoste & Eeckhout
//! (ISPASS 2008) relies on:
//!
//! * a dense row-major [`Matrix`] type, and [`IndexedRows`], rows kept
//!   once per distinct row plus a per-row index (both read through
//!   [`Rows`]),
//! * column z-score normalization ([`normalize_columns`]),
//! * principal components analysis ([`Pca`]) via Jacobi eigendecomposition
//!   of the (symmetric) covariance matrix,
//! * k-means++ clustering with multiple restarts scored by the Bayesian
//!   Information Criterion ([`kmeans`]),
//! * one-pass, mergeable streaming accumulators for column statistics and
//!   covariance ([`RunningColumnStats`], [`RunningCovariance`]) so the
//!   analysis can run memory-bounded without materializing its input,
//! * Euclidean distances and the Pearson correlation coefficient.
//!
//! The paper's statistics were computed with off-the-shelf tooling; this
//! crate replaces that tooling with a self-contained implementation so the
//! whole reproduction builds offline with no linear-algebra dependencies.
//!
//! # Examples
//!
//! ```
//! use phaselab_stats::{Matrix, Pca};
//!
//! // Two perfectly correlated columns collapse onto one principal component.
//! let m = Matrix::from_rows(&[
//!     vec![1.0, 2.0],
//!     vec![2.0, 4.0],
//!     vec![3.0, 6.0],
//!     vec![4.0, 8.0],
//! ]);
//! let pca = Pca::fit(&m);
//! assert!(pca.explained_variance_ratio()[0] > 0.999);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod correlation;
mod eigen;
#[cfg(test)]
mod equivalence;
mod hierarchical;
mod indexed;
mod kmeans;
mod matrix;
mod normalize;
mod pca;
mod streaming;

pub use correlation::{pearson, spearman, CenteredSample};
pub use eigen::{jacobi_eigen, EigenDecomposition};
pub use hierarchical::{hierarchical_cluster, Dendrogram, Merge};
pub use indexed::{IndexedRows, Rows};
pub use kmeans::{
    kmeans, kmeans_reference, kmeans_restart, pick_best_clustering, Clustering, KmeansConfig,
};
pub use matrix::Matrix;
pub use normalize::{normalize_columns, normalize_indexed, ColumnStats};
pub use pca::Pca;
pub use streaming::{RunningColumnStats, RunningCovariance, RELATIVE_STD_FLOOR};

/// Squared Euclidean distance between two equal-length vectors.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Examples
///
/// ```
/// assert_eq!(phaselab_stats::distance_sq(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
/// ```
#[inline]
pub fn distance_sq(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "distance between unequal-length vectors");
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// Euclidean distance between two equal-length vectors.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Examples
///
/// ```
/// assert_eq!(phaselab_stats::distance(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
/// ```
#[inline]
pub fn distance(a: &[f64], b: &[f64]) -> f64 {
    distance_sq(a, b).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distances() {
        assert_eq!(distance(&[1.0], &[1.0]), 0.0);
        assert_eq!(distance_sq(&[1.0, 1.0], &[2.0, 2.0]), 2.0);
    }

    #[test]
    #[should_panic(expected = "unequal-length")]
    fn distance_length_checked() {
        let _ = distance(&[1.0], &[1.0, 2.0]);
    }
}
