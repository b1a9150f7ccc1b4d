//! Eigendecomposition of symmetric matrices by the cyclic Jacobi method.

use crate::matrix::Matrix;

/// The eigendecomposition of a real symmetric matrix.
///
/// Produced by [`jacobi_eigen`]. Eigenvalues are sorted in descending
/// order; `eigenvectors.column(i)` is the unit eigenvector for
/// `eigenvalues[i]`.
#[derive(Debug, Clone, PartialEq)]
pub struct EigenDecomposition {
    /// Eigenvalues, descending.
    pub eigenvalues: Vec<f64>,
    /// Matrix whose columns are the corresponding unit eigenvectors.
    pub eigenvectors: Matrix,
}

/// Computes all eigenvalues and eigenvectors of a real symmetric matrix
/// using the cyclic Jacobi rotation method.
///
/// The Jacobi method repeatedly zeroes the largest-magnitude off-diagonal
/// entries with Givens rotations; for symmetric matrices it converges
/// quadratically and is unconditionally stable, which makes it a good fit
/// for the modest dimensionality of the characterization (≤ 69 features).
///
/// # Panics
///
/// Panics if the matrix is not square or is asymmetric beyond a small
/// tolerance.
///
/// # Examples
///
/// ```
/// use phaselab_stats::{jacobi_eigen, Matrix};
///
/// let m = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
/// let eig = jacobi_eigen(&m);
/// assert!((eig.eigenvalues[0] - 3.0).abs() < 1e-10);
/// assert!((eig.eigenvalues[1] - 1.0).abs() < 1e-10);
/// ```
pub fn jacobi_eigen(m: &Matrix) -> EigenDecomposition {
    let n = m.rows();
    assert_eq!(n, m.cols(), "eigendecomposition needs a square matrix");
    for i in 0..n {
        for j in (i + 1)..n {
            let scale = m.get(i, j).abs().max(m.get(j, i).abs()).max(1.0);
            assert!(
                (m.get(i, j) - m.get(j, i)).abs() <= 1e-8 * scale,
                "matrix must be symmetric"
            );
        }
    }

    // `a` is row-major; `vt` holds Vᵀ, so each eigenvector column of V
    // is a contiguous row that the rotations update in place.
    let flat = |m: &Matrix| -> Vec<f64> { m.iter_rows().flatten().copied().collect() };
    let (mut a, mut vt) = (flat(m), flat(&Matrix::identity(n)));

    const MAX_SWEEPS: usize = 100;
    for _ in 0..MAX_SWEEPS {
        let mut off = 0.0;
        for i in 0..n {
            for &x in &a[i * n + i + 1..(i + 1) * n] {
                off += x * x;
            }
        }
        if off.sqrt() < 1e-12 {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = a[p * n + q];
                if apq.abs() < 1e-300 {
                    continue;
                }
                let app = a[p * n + p];
                let aqq = a[q * n + q];
                let theta = (aqq - app) / (2.0 * apq);
                // Stable tangent of the rotation angle.
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;

                // Apply the rotation A <- J^T A J on rows/cols p and q.
                for row in a.chunks_exact_mut(n) {
                    let akp = row[p];
                    let akq = row[q];
                    row[p] = c * akp - s * akq;
                    row[q] = s * akp + c * akq;
                }
                rotate_rows(&mut a, n, p, q, c, s);
                // Accumulate eigenvectors: V <- V J.
                rotate_rows(&mut vt, n, p, q, c, s);
            }
        }
    }

    // Extract and sort by descending eigenvalue.
    let mut order: Vec<usize> = (0..n).collect();
    let diag: Vec<f64> = (0..n).map(|i| a[i * n + i]).collect();
    order.sort_by(|&i, &j| diag[j].partial_cmp(&diag[i]).expect("non-NaN eigenvalues"));

    let eigenvalues: Vec<f64> = order.iter().map(|&i| diag[i]).collect();
    let mut eigenvectors = Matrix::zeros(n, n);
    for (new_col, &old_col) in order.iter().enumerate() {
        for (r, &x) in vt[old_col * n..(old_col + 1) * n].iter().enumerate() {
            eigenvectors.set(r, new_col, x);
        }
    }

    EigenDecomposition {
        eigenvalues,
        eigenvectors,
    }
}

/// Rotates rows `p < q` of the row-major `n`-wide buffer `m` in place:
/// `(m_p, m_q) <- (c·m_p − s·m_q, s·m_p + c·m_q)`, element by element.
fn rotate_rows(m: &mut [f64], n: usize, p: usize, q: usize, c: f64, s: f64) {
    let (head, tail) = m.split_at_mut(q * n);
    let rp = &mut head[p * n..(p + 1) * n];
    let rq = &mut tail[..n];
    for (xp, xq) in rp.iter_mut().zip(rq.iter_mut()) {
        let (vp, vq) = (*xp, *xq);
        *xp = c * vp - s * vq;
        *xq = s * vp + c * vq;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn diagonal_matrix_is_its_own_decomposition() {
        let m = Matrix::from_rows(&[
            vec![3.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 2.0],
        ]);
        let eig = jacobi_eigen(&m);
        assert_close(eig.eigenvalues[0], 3.0, 1e-12);
        assert_close(eig.eigenvalues[1], 2.0, 1e-12);
        assert_close(eig.eigenvalues[2], 1.0, 1e-12);
    }

    #[test]
    fn two_by_two_known_values() {
        let m = Matrix::from_rows(&[vec![4.0, 1.0], vec![1.0, 4.0]]);
        let eig = jacobi_eigen(&m);
        assert_close(eig.eigenvalues[0], 5.0, 1e-10);
        assert_close(eig.eigenvalues[1], 3.0, 1e-10);
    }

    #[test]
    fn reconstruction_property() {
        // A = V diag(lambda) V^T
        let m = Matrix::from_rows(&[
            vec![2.0, -1.0, 0.0],
            vec![-1.0, 2.0, -1.0],
            vec![0.0, -1.0, 2.0],
        ]);
        let eig = jacobi_eigen(&m);
        let n = 3;
        let mut lambda = Matrix::zeros(n, n);
        for i in 0..n {
            lambda.set(i, i, eig.eigenvalues[i]);
        }
        let recon = eig
            .eigenvectors
            .matmul(&lambda)
            .matmul(&eig.eigenvectors.transpose());
        for i in 0..n {
            for j in 0..n {
                assert_close(recon.get(i, j), m.get(i, j), 1e-9);
            }
        }
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let m = Matrix::from_rows(&[
            vec![5.0, 2.0, 1.0],
            vec![2.0, 6.0, 3.0],
            vec![1.0, 3.0, 7.0],
        ]);
        let eig = jacobi_eigen(&m);
        let vtv = eig.eigenvectors.transpose().matmul(&eig.eigenvectors);
        for i in 0..3 {
            for j in 0..3 {
                assert_close(vtv.get(i, j), if i == j { 1.0 } else { 0.0 }, 1e-9);
            }
        }
    }

    #[test]
    fn trace_equals_eigenvalue_sum() {
        let m = Matrix::from_rows(&[
            vec![1.0, 0.5, 0.2],
            vec![0.5, 2.0, 0.1],
            vec![0.2, 0.1, 3.0],
        ]);
        let eig = jacobi_eigen(&m);
        let trace = 1.0 + 2.0 + 3.0;
        let sum: f64 = eig.eigenvalues.iter().sum();
        assert_close(sum, trace, 1e-10);
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn asymmetric_rejected() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![0.0, 1.0]]);
        let _ = jacobi_eigen(&m);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn non_square_rejected() {
        let m = Matrix::zeros(2, 3);
        let _ = jacobi_eigen(&m);
    }
}
