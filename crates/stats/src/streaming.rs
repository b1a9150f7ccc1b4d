//! One-pass streaming accumulators: Welford column statistics and a
//! running covariance matrix.
//!
//! These are the memory-bounded backbone of the streaming analysis
//! pipeline: each accumulator consumes rows one at a time and holds
//! `O(cols)` (column stats) or `O(cols²)` (covariance) state, never the
//! rows themselves. Both are *mergeable* (Chan et al.'s parallel update
//! formulas), so partial accumulators built over row ranges combine
//! into the statistics of the concatenation.
//!
//! Exactness contract: for a fixed row order the accumulators are fully
//! deterministic — same rows, same bits out. Against the classic
//! *two-pass* formulas (mean first, then centered moments) they agree
//! only within floating-point tolerance, not bitwise; the property
//! tests in `tests/properties.rs` pin that tolerance under row
//! permutations and accumulator merges. The study pipeline therefore
//! runs the *same* accumulator code in both its in-RAM and streaming
//! modes, which makes the two modes bit-identical to each other by
//! construction.

use crate::matrix::Matrix;
use crate::normalize::ColumnStats;

/// Relative standard-deviation floor: a column whose sample standard
/// deviation is at or below `RELATIVE_STD_FLOOR` times its largest
/// absolute value is treated as constant (std recorded as `0.0`).
///
/// The threshold scales with the column: a legitimately tiny-scale
/// column (say values around `1e-15`) keeps its standard deviation,
/// while a large-scale column whose spread is pure floating-point
/// rounding noise (std/|max| below ~1e-12, the double-precision noise
/// floor with margin) is clamped to constant.
pub const RELATIVE_STD_FLOOR: f64 = 1e-12;

/// Streaming per-column mean/variance accumulator (Welford's one-pass
/// algorithm), plus the per-column maximum absolute value used for the
/// relative constant-column clamp.
///
/// # Examples
///
/// ```
/// use phaselab_stats::RunningColumnStats;
///
/// let mut acc = RunningColumnStats::new(1);
/// for v in [1.0, 2.0, 3.0] {
///     acc.push(&[v]);
/// }
/// let stats = acc.finalize();
/// assert!((stats.means[0] - 2.0).abs() < 1e-12);
/// assert!((stats.stds[0] - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RunningColumnStats {
    count: u64,
    means: Vec<f64>,
    /// Sum of squared deviations from the running mean (Welford's M2).
    m2: Vec<f64>,
    max_abs: Vec<f64>,
}

impl RunningColumnStats {
    /// An empty accumulator over `cols` columns.
    pub fn new(cols: usize) -> Self {
        RunningColumnStats {
            count: 0,
            means: vec![0.0; cols],
            m2: vec![0.0; cols],
            max_abs: vec![0.0; cols],
        }
    }

    /// Number of columns tracked.
    pub fn cols(&self) -> usize {
        self.means.len()
    }

    /// Number of rows consumed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Consumes one row.
    ///
    /// # Panics
    ///
    /// Panics if `row` does not have [`cols`](Self::cols) entries.
    pub fn push(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.cols(), "row length mismatch");
        self.count += 1;
        let n = self.count as f64;
        for (j, &v) in row.iter().enumerate() {
            let delta = v - self.means[j];
            self.means[j] += delta / n;
            self.m2[j] += delta * (v - self.means[j]);
            let a = v.abs();
            if a > self.max_abs[j] {
                self.max_abs[j] = a;
            }
        }
    }

    /// Absorbs another accumulator over the same columns (Chan et al.'s
    /// pairwise update), as if `other`'s rows had been pushed after this
    /// one's.
    ///
    /// # Panics
    ///
    /// Panics if the column counts differ.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(self.cols(), other.cols(), "column count mismatch");
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let na = self.count as f64;
        let nb = other.count as f64;
        let n = na + nb;
        for j in 0..self.cols() {
            let delta = other.means[j] - self.means[j];
            self.means[j] += delta * (nb / n);
            self.m2[j] += other.m2[j] + delta * delta * (na * nb / n);
            if other.max_abs[j] > self.max_abs[j] {
                self.max_abs[j] = other.max_abs[j];
            }
        }
        self.count += other.count;
    }

    /// The finished per-column statistics.
    ///
    /// Sample standard deviations use `/(n-1)`; with fewer than two rows
    /// every std is `0.0`. A non-finite std, or one at or below
    /// [`RELATIVE_STD_FLOOR`] times the column's largest absolute value,
    /// is clamped to `0.0` (the column is treated as constant).
    pub fn finalize(&self) -> ColumnStats {
        let mut stds = vec![0.0; self.cols()];
        if self.count >= 2 {
            let denom = (self.count - 1) as f64;
            for (j, s) in stds.iter_mut().enumerate() {
                *s = (self.m2[j] / denom).sqrt();
                if !s.is_finite() || *s <= RELATIVE_STD_FLOOR * self.max_abs[j] {
                    *s = 0.0;
                }
            }
        }
        ColumnStats {
            means: self.means.clone(),
            stds,
        }
    }
}

/// Streaming covariance accumulator: one-pass running means plus the
/// co-moment matrix, `O(cols²)` memory regardless of row count.
///
/// # Examples
///
/// ```
/// use phaselab_stats::{Matrix, RunningCovariance};
///
/// let rows = [vec![1.0, 2.0], vec![2.0, 4.0], vec![3.0, 6.0]];
/// let mut acc = RunningCovariance::new(2);
/// for row in &rows {
///     acc.push(row);
/// }
/// let cov = acc.covariance();
/// let two_pass = Matrix::from_rows(&rows).covariance();
/// assert!((cov.get(0, 1) - two_pass.get(0, 1)).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RunningCovariance {
    count: u64,
    means: Vec<f64>,
    /// Upper-triangular co-moment sums `Σ (x_i - μ_i)(x_j - μ_j)`,
    /// stored in a full matrix (lower triangle unused until
    /// [`covariance`](Self::covariance) mirrors it).
    comoment: Matrix,
    /// Scratch: deviations from the pre-update means.
    delta_old: Vec<f64>,
    /// Scratch: deviations from the post-update means.
    delta_new: Vec<f64>,
}

impl RunningCovariance {
    /// An empty accumulator over `cols` columns.
    pub fn new(cols: usize) -> Self {
        RunningCovariance {
            count: 0,
            means: vec![0.0; cols],
            comoment: Matrix::zeros(cols, cols),
            delta_old: vec![0.0; cols],
            delta_new: vec![0.0; cols],
        }
    }

    /// Number of columns tracked.
    pub fn cols(&self) -> usize {
        self.means.len()
    }

    /// Number of rows consumed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The running column means.
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// Consumes one row: Welford mean update plus the pairwise co-moment
    /// update `C_ij += (x_i - μ_i^old)(x_j - μ_j^new)`.
    ///
    /// # Panics
    ///
    /// Panics if `row` does not have [`cols`](Self::cols) entries.
    pub fn push(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.cols(), "row length mismatch");
        self.count += 1;
        let n = self.count as f64;
        for (j, &v) in row.iter().enumerate() {
            self.delta_old[j] = v - self.means[j];
            self.means[j] += self.delta_old[j] / n;
            self.delta_new[j] = v - self.means[j];
        }
        for (i, &di) in self.delta_old.iter().enumerate() {
            if di == 0.0 {
                continue;
            }
            let crow = &mut self.comoment.row_mut(i)[i..];
            for (c, &dj) in crow.iter_mut().zip(&self.delta_new[i..]) {
                *c += di * dj;
            }
        }
    }

    /// Absorbs another accumulator over the same columns (Chan et al.):
    /// `C_AB = C_A + C_B + (n_A n_B / n)(μ_A - μ_B)(μ_A - μ_B)ᵀ`.
    ///
    /// # Panics
    ///
    /// Panics if the column counts differ.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(self.cols(), other.cols(), "column count mismatch");
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let na = self.count as f64;
        let nb = other.count as f64;
        let n = na + nb;
        let scale = na * nb / n;
        for j in 0..self.cols() {
            self.delta_old[j] = other.means[j] - self.means[j];
        }
        for i in 0..self.cols() {
            let di = self.delta_old[i];
            for j in i..self.cols() {
                let cross = scale * di * self.delta_old[j];
                let v = self.comoment.get(i, j) + other.comoment.get(i, j) + cross;
                self.comoment.set(i, j, v);
            }
        }
        for j in 0..self.cols() {
            self.means[j] += self.delta_old[j] * (nb / n);
        }
        self.count += other.count;
    }

    /// The sample covariance matrix (`/(n-1)`), mirrored to full
    /// symmetry.
    ///
    /// # Panics
    ///
    /// Panics with fewer than two rows consumed — a covariance over one
    /// observation is undefined, exactly like
    /// [`Matrix::covariance`](crate::Matrix::covariance).
    pub fn covariance(&self) -> Matrix {
        assert!(self.count >= 2, "covariance needs at least two rows");
        let denom = (self.count - 1) as f64;
        let d = self.cols();
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

#[cfg(test)]
mod tests {
    use super::*;

    fn rows3() -> Vec<Vec<f64>> {
        vec![
            vec![1.0, 10.0, -3.0],
            vec![2.0, 30.0, 0.5],
            vec![4.0, 20.0, 2.5],
            vec![8.0, 40.0, -1.5],
            vec![16.0, 25.0, 4.0],
        ]
    }

    #[test]
    fn welford_matches_two_pass_closely() {
        let rows = rows3();
        let m = Matrix::from_rows(&rows);
        let mut acc = RunningColumnStats::new(3);
        for r in &rows {
            acc.push(r);
        }
        let stats = acc.finalize();
        let means = m.column_means();
        for j in 0..3 {
            assert!((stats.means[j] - means[j]).abs() < 1e-12);
            let var: f64 = rows
                .iter()
                .map(|r| (r[j] - means[j]) * (r[j] - means[j]))
                .sum::<f64>()
                / (rows.len() - 1) as f64;
            assert!((stats.stds[j] - var.sqrt()).abs() < 1e-12);
        }
    }

    #[test]
    fn merge_equals_sequential_push() {
        let rows = rows3();
        let mut whole = RunningColumnStats::new(3);
        for r in &rows {
            whole.push(r);
        }
        let mut left = RunningColumnStats::new(3);
        let mut right = RunningColumnStats::new(3);
        for r in &rows[..2] {
            left.push(r);
        }
        for r in &rows[2..] {
            right.push(r);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        let (a, b) = (left.finalize(), whole.finalize());
        for j in 0..3 {
            assert!((a.means[j] - b.means[j]).abs() < 1e-12);
            assert!((a.stds[j] - b.stds[j]).abs() < 1e-12);
        }
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let rows = rows3();
        let mut acc = RunningColumnStats::new(3);
        for r in &rows {
            acc.push(r);
        }
        let baseline = acc.clone();
        acc.merge(&RunningColumnStats::new(3));
        assert_eq!(acc, baseline);
        let mut empty = RunningColumnStats::new(3);
        empty.merge(&baseline);
        assert_eq!(empty, baseline);
    }

    #[test]
    fn covariance_matches_two_pass_closely() {
        let rows = rows3();
        let two_pass = Matrix::from_rows(&rows).covariance();
        let mut acc = RunningCovariance::new(3);
        for r in &rows {
            acc.push(r);
        }
        let cov = acc.covariance();
        for i in 0..3 {
            for j in 0..3 {
                assert!(
                    (cov.get(i, j) - two_pass.get(i, j)).abs() < 1e-10,
                    "cov[{i}][{j}]"
                );
            }
        }
    }

    #[test]
    fn covariance_merge_equals_sequential_push() {
        let rows = rows3();
        let mut whole = RunningCovariance::new(3);
        for r in &rows {
            whole.push(r);
        }
        let mut left = RunningCovariance::new(3);
        let mut right = RunningCovariance::new(3);
        for r in &rows[..3] {
            left.push(r);
        }
        for r in &rows[3..] {
            right.push(r);
        }
        left.merge(&right);
        let (a, b) = (left.covariance(), whole.covariance());
        for i in 0..3 {
            for j in 0..3 {
                assert!((a.get(i, j) - b.get(i, j)).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn covariance_is_symmetric() {
        let rows = rows3();
        let mut acc = RunningCovariance::new(3);
        for r in &rows {
            acc.push(r);
        }
        let cov = acc.covariance();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(cov.get(i, j).to_bits(), cov.get(j, i).to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least two rows")]
    fn covariance_needs_two_rows() {
        let mut acc = RunningCovariance::new(2);
        acc.push(&[1.0, 2.0]);
        let _ = acc.covariance();
    }

    #[test]
    fn tiny_scale_columns_keep_their_std() {
        // Regression: the old absolute 1e-12 clamp zeroed this column.
        let mut acc = RunningColumnStats::new(1);
        for v in [1e-15, 2e-15, 3e-15] {
            acc.push(&[v]);
        }
        let stats = acc.finalize();
        assert!(stats.stds[0] > 0.0, "tiny-scale spread must survive");
    }

    #[test]
    fn large_scale_noise_columns_are_clamped() {
        // Spread of ~1e-4 on a 1e12-scale column is rounding noise
        // (relative spread ~1e-16, below the 1e-12 floor).
        let mut acc = RunningColumnStats::new(1);
        for v in [1e12, 1e12 + 1.0e-4, 1e12 - 1.0e-4] {
            acc.push(&[v]);
        }
        let stats = acc.finalize();
        assert_eq!(stats.stds[0], 0.0, "noise-level spread must clamp");
    }
}
