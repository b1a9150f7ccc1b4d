//! A dense row-major matrix of `f64`.

/// A dense row-major matrix of `f64` values.
///
/// The data-set matrices of the characterization methodology are
/// observations-by-features: one row per instruction interval, one column
/// per microarchitecture-independent characteristic.
///
/// # Examples
///
/// ```
/// use phaselab_stats::Matrix;
///
/// let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m.cols(), 2);
/// assert_eq!(m.get(1, 0), 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates an identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have unequal lengths or `rows` is empty.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "matrix needs at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "all rows must have equal length");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length mismatch");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Reads the element at (`r`, `c`).
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Writes the element at (`r`, `c`).
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row index out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    pub fn column(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "column index out of bounds");
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Iterates over the rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t.set(c, r, self.get(r, c));
            }
        }
        t
    }

    /// Matrix product `self * other`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(r, k);
                if a == 0.0 {
                    continue;
                }
                for c in 0..other.cols {
                    out.data[r * other.cols + c] += a * other.get(k, c);
                }
            }
        }
        out
    }

    /// Selects a subset of rows, in the given order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut rows = Vec::with_capacity(indices.len());
        for &r in indices {
            rows.push(self.row(r).to_vec());
        }
        Matrix::from_rows(&rows)
    }

    /// The column-wise means.
    pub fn column_means(&self) -> Vec<f64> {
        let mut means = vec![0.0; self.cols];
        for row in self.iter_rows() {
            for (m, v) in means.iter_mut().zip(row) {
                *m += v;
            }
        }
        let n = self.rows.max(1) as f64;
        for m in &mut means {
            *m /= n;
        }
        means
    }

    /// The sample covariance matrix of the columns (divides by `n - 1`).
    ///
    /// # Panics
    ///
    /// Panics if the matrix has fewer than two rows.
    pub fn covariance(&self) -> Matrix {
        assert!(self.rows >= 2, "covariance needs at least two rows");
        let means = self.column_means();
        let mut cov = Matrix::zeros(self.cols, self.cols);
        for row in self.iter_rows() {
            for i in 0..self.cols {
                let di = row[i] - means[i];
                if di == 0.0 {
                    continue;
                }
                for j in i..self.cols {
                    let dj = row[j] - means[j];
                    cov.data[i * self.cols + j] += di * dj;
                }
            }
        }
        let denom = (self.rows - 1) as f64;
        for i in 0..self.cols {
            for j in i..self.cols {
                let v = cov.get(i, j) / denom;
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

    #[test]
    fn construction_and_access() {
        let mut m = Matrix::zeros(2, 3);
        m.set(1, 2, 7.5);
        assert_eq!(m.get(1, 2), 7.5);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn identity_diagonal() {
        let id = Matrix::identity(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(id.get(i, j), if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn from_rows_validates_lengths() {
        let _ = Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a.matmul(&Matrix::identity(2)), a);
    }

    #[test]
    fn select_rows_in_order() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let rows = m.select_rows(&[1, 0]);
        assert_eq!(rows.row(0), &[4.0, 5.0, 6.0]);
        assert_eq!(rows.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn column_means_simple() {
        let m = Matrix::from_rows(&[vec![1.0, 10.0], vec![3.0, 30.0]]);
        assert_eq!(m.column_means(), vec![2.0, 20.0]);
    }

    #[test]
    fn covariance_of_known_data() {
        // cov([1,2,3], [2,4,6]) => var(x)=1, var(y)=4, cov=2
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0], vec![3.0, 6.0]]);
        let cov = m.covariance();
        assert!((cov.get(0, 0) - 1.0).abs() < 1e-12);
        assert!((cov.get(1, 1) - 4.0).abs() < 1e-12);
        assert!((cov.get(0, 1) - 2.0).abs() < 1e-12);
        assert_eq!(cov.get(0, 1), cov.get(1, 0));
    }

    #[test]
    fn iter_rows_matches_row() {
        let m = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let collected: Vec<f64> = m.iter_rows().map(|r| r[0]).collect();
        assert_eq!(collected, vec![1.0, 2.0, 3.0]);
    }
}
