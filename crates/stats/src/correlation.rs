//! Correlation coefficients.

/// Pearson correlation coefficient between two equal-length samples.
///
/// Returns `0.0` when either sample has zero variance (the coefficient is
/// undefined there; zero is the conventional neutral value for the GA
/// fitness use in this project).
///
/// # Panics
///
/// Panics if the slices have different lengths or fewer than two elements.
///
/// # Examples
///
/// ```
/// use phaselab_stats::pearson;
///
/// let r = pearson(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]);
/// assert!((r - 1.0).abs() < 1e-12);
/// let r = pearson(&[1.0, 2.0, 3.0], &[6.0, 4.0, 2.0]);
/// assert!((r + 1.0).abs() < 1e-12);
/// ```
pub fn pearson(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "samples must have equal length");
    CenteredSample::new(x).pearson(y)
}

/// The `x` side of [`pearson`], centered once to correlate many `y`s
/// against. `pearson` accumulates `x − mean(x)` and its sum of squares
/// independently of `y`, so every coefficient keeps its bits.
#[derive(Debug, Clone, PartialEq)]
pub struct CenteredSample {
    dev: Vec<f64>,
    sum_sq: f64,
}

impl CenteredSample {
    /// Centers `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` has fewer than two elements.
    pub fn new(x: &[f64]) -> Self {
        assert!(x.len() >= 2, "correlation needs at least two observations");
        let mx = x.iter().sum::<f64>() / x.len() as f64;
        let dev: Vec<f64> = x.iter().map(|&a| a - mx).collect();
        let sum_sq = dev.iter().fold(0.0, |s, &d| s + d * d);
        CenteredSample { dev, sum_sq }
    }

    /// `pearson(x, y)` for the centered `x`.
    ///
    /// # Panics
    ///
    /// Panics if `y`'s length differs from `x`'s.
    pub fn pearson(&self, y: &[f64]) -> f64 {
        assert_eq!(self.dev.len(), y.len(), "samples must have equal length");
        let my = y.iter().sum::<f64>() / y.len() as f64;
        let (mut sxy, mut syy) = (0.0, 0.0);
        for (&dx, &b) in self.dev.iter().zip(y) {
            let dy = b - my;
            sxy += dx * dy;
            syy += dy * dy;
        }
        if self.sum_sq <= 0.0 || syy <= 0.0 {
            return 0.0;
        }
        (sxy / (self.sum_sq.sqrt() * syy.sqrt())).clamp(-1.0, 1.0)
    }
}

/// Spearman rank correlation coefficient between two equal-length samples.
///
/// Computed as the Pearson correlation of the (average-tie) ranks. Useful
/// as a robustness check next to [`pearson`] when validating the genetic
/// algorithm's distance preservation.
///
/// # Panics
///
/// Panics if the slices have different lengths or fewer than two elements.
///
/// # Examples
///
/// ```
/// use phaselab_stats::spearman;
///
/// // Monotone but non-linear relation: Spearman sees a perfect rank match.
/// let x = [1.0, 2.0, 3.0, 4.0];
/// let y = [1.0, 8.0, 27.0, 64.0];
/// assert!((spearman(&x, &y) - 1.0).abs() < 1e-12);
/// ```
pub fn spearman(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "samples must have equal length");
    assert!(x.len() >= 2, "correlation needs at least two observations");
    let rx = ranks(x);
    let ry = ranks(y);
    pearson(&rx, &ry)
}

/// Average ranks (1-based) with ties sharing their mean rank.
fn ranks(v: &[f64]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..v.len()).collect();
    order.sort_by(|&i, &j| v[i].partial_cmp(&v[j]).expect("non-NaN values"));
    let mut out = vec![0.0; v.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && v[order[j + 1]] == v[order[i]] {
            j += 1;
        }
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for &idx in &order[i..=j] {
            out[idx] = avg_rank;
        }
        i = j + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_bounds() {
        let x = [1.0, 4.0, 2.0, 8.0, 5.0];
        let y = [2.0, 3.0, 9.0, 1.0, 4.0];
        let r = pearson(&x, &y);
        assert!((-1.0..=1.0).contains(&r));
    }

    #[test]
    fn pearson_zero_variance_is_zero() {
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    fn pearson_symmetry() {
        let x = [1.0, 4.0, 2.0, 8.0];
        let y = [3.0, 1.0, 7.0, 2.0];
        assert!((pearson(&x, &y) - pearson(&y, &x)).abs() < 1e-15);
    }

    #[test]
    fn pearson_invariant_to_affine_transform() {
        let x = [1.0, 4.0, 2.0, 8.0];
        let y = [3.0, 1.0, 7.0, 2.0];
        let y2: Vec<f64> = y.iter().map(|v| 3.0 * v + 10.0).collect();
        assert!((pearson(&x, &y) - pearson(&x, &y2)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn pearson_length_checked() {
        let _ = pearson(&[1.0, 2.0], &[1.0]);
    }

    #[test]
    fn spearman_handles_ties() {
        let x = [1.0, 2.0, 2.0, 3.0];
        let y = [1.0, 2.0, 2.0, 3.0];
        assert!((spearman(&x, &y) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ranks_average_ties() {
        assert_eq!(ranks(&[10.0, 20.0, 20.0, 30.0]), vec![1.0, 2.5, 2.5, 4.0]);
    }
}
