//! Rows stored once per distinct row, read through a per-row index.

use crate::matrix::Matrix;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

/// Read access to a table of equal-length `f64` rows, in row order:
/// a dense [`Matrix`] or an [`IndexedRows`].
pub trait Rows {
    /// Number of rows.
    fn rows(&self) -> usize;

    /// Number of columns.
    fn cols(&self) -> usize;

    /// Row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    fn row(&self, r: usize) -> &[f64];

    /// The same rows with one stored row per distinct bit pattern,
    /// numbered in first-row order. Rows are keyed on their `to_bits`
    /// words, so `0.0` and `-0.0` stay apart. This is the input
    /// [`kmeans_restart`](crate::kmeans_restart) works on: every
    /// distinct bit pattern is one point.
    fn by_bits(&self) -> IndexedRows;
}

impl Rows for Matrix {
    fn rows(&self) -> usize {
        Matrix::rows(self)
    }

    fn cols(&self) -> usize {
        Matrix::cols(self)
    }

    fn row(&self, r: usize) -> &[f64] {
        Matrix::row(self, r)
    }

    fn by_bits(&self) -> IndexedRows {
        group_bits(self, None)
    }
}

/// A table of rows kept as its distinct rows plus one `u32` per row
/// naming that row's distinct row.
///
/// A study samples intervals with replacement, so one interval can be
/// many rows; this stores it once. Row `r` reads as
/// `distinct().row(index()[r])`. Derived tables (a projection, a
/// rescaling) transform the distinct rows and share the index
/// ([`with_distinct`](Self::with_distinct)), so they are computed once
/// per distinct row and read back per row.
///
/// # Examples
///
/// ```
/// use phaselab_stats::{IndexedRows, Matrix, Rows};
///
/// let distinct = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
/// let rows = IndexedRows::new(distinct, vec![0, 1, 0, 0]);
/// assert_eq!(rows.rows(), 4);
/// assert_eq!(rows.row(2), &[1.0, 2.0]);
/// assert_eq!(rows.expand().row(1), &[3.0, 4.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct IndexedRows {
    distinct: Matrix,
    index: Arc<[u32]>,
}

impl IndexedRows {
    /// Rows `r` reading `distinct.row(index[r])`.
    ///
    /// # Panics
    ///
    /// Panics if an index entry is not a row of `distinct`.
    pub fn new(distinct: Matrix, index: impl Into<Arc<[u32]>>) -> Self {
        let index = index.into();
        let stored = distinct.rows();
        assert!(
            index.iter().all(|&d| (d as usize) < stored),
            "row index past the {stored} distinct rows"
        );
        IndexedRows { distinct, index }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.index.len()
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.distinct.cols()
    }

    /// Row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f64] {
        self.distinct.row(self.index[r] as usize)
    }

    /// The rows in row order.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.index.iter().map(|&d| self.distinct.row(d as usize))
    }

    /// The distinct rows.
    pub fn distinct(&self) -> &Matrix {
        &self.distinct
    }

    /// Each row's distinct row.
    pub fn index(&self) -> &[u32] {
        &self.index
    }

    /// The same index over new distinct rows, one per current distinct
    /// row (their projection, say).
    ///
    /// # Panics
    ///
    /// Panics if `distinct` has a different number of rows.
    pub fn with_distinct(&self, distinct: Matrix) -> Self {
        assert_eq!(
            distinct.rows(),
            self.distinct.rows(),
            "one new row per distinct row"
        );
        IndexedRows {
            distinct,
            index: Arc::clone(&self.index),
        }
    }

    /// Every row, one matrix row each, in row order.
    pub fn expand(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows(), self.cols());
        for (r, row) in self.iter_rows().enumerate() {
            m.row_mut(r).copy_from_slice(row);
        }
        m
    }

    /// Each row's value of a per-distinct-row array, in row order.
    pub(crate) fn per_row<'s, T: Copy>(
        &'s self,
        per_distinct: &'s [T],
    ) -> impl Iterator<Item = T> + 's {
        self.index.iter().map(move |&d| per_distinct[d as usize])
    }
}

/// Every row its own distinct row.
impl From<Matrix> for IndexedRows {
    fn from(m: Matrix) -> Self {
        let index: Vec<u32> = (0..m.rows()).map(index_u32).collect();
        IndexedRows::new(m, index)
    }
}

impl Rows for IndexedRows {
    fn rows(&self) -> usize {
        IndexedRows::rows(self)
    }

    fn cols(&self) -> usize {
        IndexedRows::cols(self)
    }

    fn row(&self, r: usize) -> &[f64] {
        IndexedRows::row(self, r)
    }

    /// Hashes each distinct row once and composes the grouping with
    /// the index.
    fn by_bits(&self) -> IndexedRows {
        group_bits(&self.distinct, Some(&self.index))
    }
}

/// A row index as the `u32` the index stores.
///
/// # Panics
///
/// Panics past `u32::MAX` rows.
pub(crate) fn index_u32(i: usize) -> u32 {
    u32::try_from(i).expect("rows are indexed with u32")
}

/// The rows `index` reads from `stored` (every stored row in order when
/// `None`), one stored row per bit pattern. Each stored row is hashed
/// once, when a row first reads it, so groups are numbered in
/// first-row order and stored rows no row reads are left out.
fn group_bits(stored: &Matrix, index: Option<&[u32]>) -> IndexedRows {
    let _span = phaselab_obs::span!("kmeans.group");
    let n = index.map_or(stored.rows(), <[u32]>::len);
    let mut groups = HashMap::<_, _, BuildHasherDefault<WordHasher>>::default();
    let mut group_of_stored: Vec<Option<u32>> = vec![None; stored.rows()];
    let mut first: Vec<usize> = Vec::new();
    let mut group_of_row = Vec::with_capacity(n);
    for r in 0..n {
        let s = index.map_or(r, |ix| ix[r] as usize);
        let g = *group_of_stored[s].get_or_insert_with(|| {
            let next = index_u32(first.len());
            let g = *groups.entry(RowBits(stored.row(s))).or_insert(next);
            if g == next {
                first.push(s);
            }
            g
        });
        group_of_row.push(g);
    }
    let mut distinct = Matrix::zeros(first.len(), stored.cols());
    for (g, &s) in first.iter().enumerate() {
        distinct.row_mut(g).copy_from_slice(stored.row(s));
    }
    IndexedRows::new(distinct, group_of_row)
}

/// A row compared and hashed by its bit pattern.
struct RowBits<'a>(&'a [f64]);

impl PartialEq for RowBits<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.0
            .iter()
            .zip(other.0)
            .all(|(x, y)| x.to_bits() == y.to_bits())
    }
}

impl Eq for RowBits<'_> {}

impl Hash for RowBits<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for v in self.0 {
            state.write_u64(v.to_bits());
        }
    }
}

/// FxHash's multiply-rotate fold over a row's words, finished with
/// SplitMix64's mixer so the bucket bits see every word bit (integral
/// values leave the low mantissa bits zero).
#[derive(Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn by_bits_composes_with_the_index() {
        // Stored rows 0 and 2 share bits, stored row 3 is read by no
        // row: the grouping numbers the rows' bit patterns in first-row
        // order and leaves the unread row out.
        let stored = Matrix::from_rows(&[vec![5.0], vec![7.0], vec![5.0], vec![9.0]]);
        let rows = IndexedRows::new(stored, vec![1, 2, 0, 1, 2]);
        let grouped = rows.by_bits();
        assert_eq!(grouped.index(), &[0, 1, 1, 0, 1]);
        assert_eq!(
            grouped.distinct(),
            &Matrix::from_rows(&[vec![7.0], vec![5.0]])
        );
        assert_eq!(grouped.expand(), rows.expand());
        assert_eq!(grouped.by_bits(), grouped);
    }

    #[test]
    fn readers_agree_with_the_expansion() {
        let rows = IndexedRows::new(
            Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]),
            vec![2, 0, 2, 1],
        );
        let expanded = rows.expand();
        assert_eq!(Rows::rows(&rows), expanded.rows());
        for (r, row) in rows.iter_rows().enumerate() {
            assert_eq!(row, expanded.row(r));
            assert_eq!(Rows::row(&rows, r), expanded.row(r));
        }
        let doubled = rows.with_distinct(Matrix::from_rows(&[vec![2.0], vec![6.0], vec![10.0]]));
        assert_eq!(doubled.index(), rows.index());
        assert_eq!(doubled.row(0), &[10.0]);
        let every = IndexedRows::from(expanded.clone());
        assert_eq!(every.index(), &[0, 1, 2, 3]);
        assert_eq!(every.expand(), expanded);
    }

    #[test]
    #[should_panic(expected = "row index past")]
    fn index_must_name_a_distinct_row() {
        let _ = IndexedRows::new(Matrix::from_rows(&[vec![1.0]]), vec![0, 1]);
    }
}
