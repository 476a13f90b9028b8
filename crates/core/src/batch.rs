//! Uniform batches of band matrices, pivots, right-hand sides and info codes.
//!
//! The paper's batch interface (Section 4) passes arrays of device pointers
//! (`double** A_array`, `int** pv_array`, `double** B_array`) plus an `info`
//! array. In safe Rust the same shape is expressed as contiguous storage with
//! per-matrix sub-slices; `BandBatch::chunks_mut` yields exactly the view a
//! `double**` entry would point at.

use crate::band::{BandMatrixMut, BandMatrixRef};
use crate::error::{BandError, Result};
use crate::layout::BandLayout;
use crate::scalar::Scalar;

/// A uniform batch of band matrices (same `m, n, kl, ku, ldab`), stored
/// contiguously matrix-after-matrix. Generic over the element [`Scalar`];
/// defaults to the paper's `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct BandBatch<S: Scalar = f64> {
    layout: BandLayout,
    batch: usize,
    data: Vec<S>,
}

impl<S: Scalar> BandBatch<S> {
    /// Zero-initialized batch in factor storage.
    pub fn zeros(batch: usize, m: usize, n: usize, kl: usize, ku: usize) -> Result<Self> {
        let layout = BandLayout::factor(m, n, kl, ku)?;
        if batch == 0 {
            return Err(BandError::BadDimension {
                arg: "batch",
                constraint: "batch > 0",
            });
        }
        Ok(BandBatch {
            batch,
            data: vec![S::ZERO; layout.len() * batch],
            layout,
        })
    }

    /// Zero-initialized batch with an explicit layout (any storage
    /// flavour, any valid `ldab`) — the general constructor for batches
    /// that mirror another batch's layout, e.g. a precision cast.
    pub fn zeros_with_layout(layout: BandLayout, batch: usize) -> Result<Self> {
        if batch == 0 {
            return Err(BandError::BadDimension {
                arg: "batch",
                constraint: "batch > 0",
            });
        }
        Ok(BandBatch {
            batch,
            data: vec![S::ZERO; layout.len() * batch],
            layout,
        })
    }

    /// Build a batch from a closure producing each matrix's band data.
    pub fn from_fn(
        batch: usize,
        m: usize,
        n: usize,
        kl: usize,
        ku: usize,
        mut fill: impl FnMut(usize, &mut BandMatrixMut<'_, S>),
    ) -> Result<Self> {
        let mut b = Self::zeros(batch, m, n, kl, ku)?;
        let layout = b.layout;
        for (id, chunk) in b.data.chunks_mut(layout.len()).enumerate() {
            let mut view = BandMatrixMut {
                layout,
                data: chunk,
            };
            fill(id, &mut view);
        }
        Ok(b)
    }

    /// Layout shared by every matrix in the batch.
    #[inline]
    #[must_use]
    pub fn layout(&self) -> BandLayout {
        self.layout
    }

    /// Number of matrices.
    #[inline]
    #[must_use]
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Stride in `f64` elements between consecutive matrices.
    #[inline]
    #[must_use]
    pub fn matrix_stride(&self) -> usize {
        self.layout.len()
    }

    /// Read-only view of matrix `id`.
    #[must_use]
    pub fn matrix(&self, id: usize) -> BandMatrixRef<'_, S> {
        assert!(
            id < self.batch,
            "matrix id {id} out of range (< {})",
            self.batch
        );
        let s = self.matrix_stride();
        BandMatrixRef {
            layout: self.layout,
            data: &self.data[id * s..(id + 1) * s],
        }
    }

    /// Mutable view of matrix `id`.
    pub fn matrix_mut(&mut self, id: usize) -> BandMatrixMut<'_, S> {
        assert!(
            id < self.batch,
            "matrix id {id} out of range (< {})",
            self.batch
        );
        let s = self.matrix_stride();
        let layout = self.layout;
        BandMatrixMut {
            layout,
            data: &mut self.data[id * s..(id + 1) * s],
        }
    }

    /// Iterator over per-matrix band arrays (the `double**` view).
    pub fn chunks(&self) -> impl Iterator<Item = &[S]> {
        self.data.chunks(self.layout.len())
    }

    /// Mutable iterator over per-matrix band arrays.
    pub fn chunks_mut(&mut self) -> impl Iterator<Item = &mut [S]> {
        let s = self.layout.len();
        self.data.chunks_mut(s)
    }

    /// Whole contiguous storage.
    #[inline]
    #[must_use]
    pub fn data(&self) -> &[S] {
        &self.data
    }

    /// Whole contiguous storage, mutable.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [S] {
        &mut self.data
    }

    /// Total bytes of the batch payload (used by the timing models).
    #[inline]
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.data.len() * S::BYTES
    }
}

/// Batch of pivot vectors (0-based indices), `min(m, n)` entries per matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PivotBatch {
    per_matrix: usize,
    batch: usize,
    data: Vec<i32>,
}

impl PivotBatch {
    /// Pivot storage for `batch` factorizations of `m x n` matrices.
    pub fn new(batch: usize, m: usize, n: usize) -> Self {
        let per_matrix = m.min(n);
        PivotBatch {
            per_matrix,
            batch,
            data: vec![0; per_matrix * batch],
        }
    }

    /// Pivot count per matrix.
    #[inline]
    #[must_use]
    pub fn per_matrix(&self) -> usize {
        self.per_matrix
    }

    /// Number of matrices.
    #[inline]
    #[must_use]
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Pivot vector of matrix `id`.
    #[must_use]
    pub fn pivots(&self, id: usize) -> &[i32] {
        &self.data[id * self.per_matrix..(id + 1) * self.per_matrix]
    }

    /// Mutable pivot vector of matrix `id`.
    pub fn pivots_mut(&mut self, id: usize) -> &mut [i32] {
        &mut self.data[id * self.per_matrix..(id + 1) * self.per_matrix]
    }

    /// Mutable iterator over per-matrix pivot vectors.
    pub fn chunks_mut(&mut self) -> impl Iterator<Item = &mut [i32]> {
        let s = self.per_matrix;
        self.data.chunks_mut(s)
    }

    /// All pivots as one flat slice, matrix-after-matrix (`per_matrix`
    /// entries per matrix). The kernel layer splits this into contiguous
    /// per-chunk sub-slices for parallel execution.
    #[inline]
    #[must_use]
    pub fn as_slice(&self) -> &[i32] {
        &self.data
    }

    /// All pivots as one flat mutable slice, matrix-after-matrix.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [i32] {
        &mut self.data
    }

    /// Convert every pivot to LAPACK's 1-based convention, flattened
    /// matrix-after-matrix like [`PivotBatch::as_slice`].
    ///
    /// This workspace stores pivots **0-based**: `pivots(id)[j] = j + jp`
    /// means rows `j` and `j + jp` of matrix `id` were swapped at column
    /// step `j`. LAPACK's `IPIV` is 1-based, so the conversion is `p + 1`
    /// entry-wise and the exact inverse is
    /// [`PivotBatch::set_from_lapack_one_based`] (`p - 1`): the two form a
    /// lossless round trip for every valid pivot value, including the
    /// identity pivot `ipiv[j] = j` (which LAPACK reports as `j + 1`).
    /// [`InfoArray`] needs no such conversion — its codes already use the
    /// LAPACK convention verbatim (`0` = success, `j > 0` = first zero
    /// pivot at 1-based column `j`) and round-trip unchanged.
    #[must_use]
    pub fn to_lapack_one_based(&self) -> Vec<i32> {
        self.data.iter().map(|&p| p + 1).collect()
    }

    /// Overwrite all pivots from a flat LAPACK 1-based vector — the inverse
    /// of [`PivotBatch::to_lapack_one_based`].
    ///
    /// # Panics
    /// Panics when `one_based` does not hold exactly
    /// `per_matrix * batch` entries.
    pub fn set_from_lapack_one_based(&mut self, one_based: &[i32]) {
        assert_eq!(
            one_based.len(),
            self.data.len(),
            "pivot vector length mismatch"
        );
        for (dst, &p) in self.data.iter_mut().zip(one_based) {
            *dst = p - 1;
        }
    }
}

/// Per-matrix return codes, LAPACK convention: `0` = success, `j > 0` = the
/// `j`-th (1-based) pivot was exactly zero — the factorization finished but
/// `U` is singular and a solve would divide by zero.
///
/// Unlike [`PivotBatch`] (0-based internally, converted through
/// [`PivotBatch::to_lapack_one_based`]), info codes are stored in the
/// LAPACK convention directly: `as_slice` *is* the `info` array a
/// `dgbtrf_batch` C interface would return, no conversion, and therefore
/// round-trips unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InfoArray {
    data: Vec<i32>,
}

impl InfoArray {
    /// All-success info array for `batch` problems.
    pub fn new(batch: usize) -> Self {
        InfoArray {
            data: vec![0; batch],
        }
    }

    /// Number of entries.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when empty.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Info code of matrix `id`.
    #[inline]
    #[must_use]
    pub fn get(&self, id: usize) -> i32 {
        self.data[id]
    }

    /// Set info code of matrix `id`.
    #[inline]
    pub fn set(&mut self, id: usize, info: i32) {
        self.data[id] = info;
    }

    /// Raw slice.
    #[inline]
    #[must_use]
    pub fn as_slice(&self) -> &[i32] {
        &self.data
    }

    /// Mutable raw slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [i32] {
        &mut self.data
    }

    /// True when every problem factored without a zero pivot.
    #[must_use]
    pub fn all_ok(&self) -> bool {
        self.data.iter().all(|&i| i == 0)
    }

    /// Ids of the problems that hit a zero pivot.
    #[must_use]
    pub fn failures(&self) -> Vec<usize> {
        self.data
            .iter()
            .enumerate()
            .filter_map(|(id, &i)| (i != 0).then_some(id))
            .collect()
    }
}

/// Batch of right-hand-side / solution blocks: each matrix gets an
/// `ldb x nrhs` column-major block (`ldb >= n`).
#[derive(Debug, Clone, PartialEq)]
pub struct RhsBatch<S: Scalar = f64> {
    n: usize,
    nrhs: usize,
    ldb: usize,
    batch: usize,
    data: Vec<S>,
}

impl<S: Scalar> RhsBatch<S> {
    /// Zero RHS batch with minimal `ldb = n`.
    pub fn zeros(batch: usize, n: usize, nrhs: usize) -> Result<Self> {
        Self::zeros_with_ldb(batch, n, nrhs, n)
    }

    /// Zero RHS batch with explicit leading dimension.
    pub fn zeros_with_ldb(batch: usize, n: usize, nrhs: usize, ldb: usize) -> Result<Self> {
        if n == 0 || nrhs == 0 || batch == 0 {
            return Err(BandError::BadDimension {
                arg: "n/nrhs/batch",
                constraint: "all of n, nrhs, batch > 0",
            });
        }
        if ldb < n {
            return Err(BandError::BadDimension {
                arg: "ldb",
                constraint: "ldb >= n",
            });
        }
        Ok(RhsBatch {
            n,
            nrhs,
            ldb,
            batch,
            data: vec![S::ZERO; ldb * nrhs * batch],
        })
    }

    /// Fill from a closure `value(matrix_id, row, rhs_col)`.
    pub fn from_fn(
        batch: usize,
        n: usize,
        nrhs: usize,
        mut value: impl FnMut(usize, usize, usize) -> S,
    ) -> Result<Self> {
        let mut b = Self::zeros(batch, n, nrhs)?;
        for id in 0..batch {
            for col in 0..nrhs {
                for row in 0..n {
                    let v = value(id, row, col);
                    b.block_mut(id)[col * n + row] = v;
                }
            }
        }
        Ok(b)
    }

    /// System order.
    #[inline]
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of right-hand sides per matrix.
    #[inline]
    #[must_use]
    pub fn nrhs(&self) -> usize {
        self.nrhs
    }

    /// Leading dimension of each block.
    #[inline]
    #[must_use]
    pub fn ldb(&self) -> usize {
        self.ldb
    }

    /// Number of matrices.
    #[inline]
    #[must_use]
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Stride between matrices in `f64` elements.
    #[inline]
    #[must_use]
    pub fn block_stride(&self) -> usize {
        self.ldb * self.nrhs
    }

    /// RHS block of matrix `id` (`ldb x nrhs`, column-major).
    #[must_use]
    pub fn block(&self, id: usize) -> &[S] {
        let s = self.block_stride();
        &self.data[id * s..(id + 1) * s]
    }

    /// Mutable RHS block of matrix `id`.
    pub fn block_mut(&mut self, id: usize) -> &mut [S] {
        let s = self.block_stride();
        &mut self.data[id * s..(id + 1) * s]
    }

    /// Mutable iterator over per-matrix blocks.
    pub fn blocks_mut(&mut self) -> impl Iterator<Item = &mut [S]> {
        let s = self.block_stride();
        self.data.chunks_mut(s)
    }

    /// Read iterator over per-matrix blocks.
    pub fn blocks(&self) -> impl Iterator<Item = &[S]> {
        self.data.chunks(self.block_stride())
    }

    /// Element `(row, rhs_col)` of matrix `id`.
    #[inline]
    #[must_use]
    pub fn get(&self, id: usize, row: usize, col: usize) -> S {
        self.block(id)[col * self.ldb + row]
    }

    /// Whole contiguous storage.
    #[inline]
    #[must_use]
    pub fn data(&self) -> &[S] {
        &self.data
    }

    /// Whole contiguous storage, mutable.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [S] {
        &mut self.data
    }

    /// Total payload bytes.
    #[inline]
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.data.len() * S::BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_batch_isolation() {
        let mut b = BandBatch::zeros(3, 4, 4, 1, 1).unwrap();
        b.matrix_mut(1).set(2, 2, 5.0);
        assert_eq!(b.matrix(0).get(2, 2), 0.0);
        assert_eq!(b.matrix(1).get(2, 2), 5.0);
        assert_eq!(b.matrix(2).get(2, 2), 0.0);
    }

    #[test]
    fn band_batch_from_fn_assigns_ids() {
        let b = BandBatch::from_fn(4, 3, 3, 1, 1, |id, m| {
            for j in 0..3 {
                m.set(j, j, id as f64 + 1.0);
            }
        })
        .unwrap();
        for id in 0..4 {
            assert_eq!(b.matrix(id).get(1, 1), id as f64 + 1.0);
        }
    }

    #[test]
    fn band_batch_chunk_stride() {
        let b = BandBatch::<f64>::zeros(2, 5, 5, 2, 1).unwrap();
        assert_eq!(b.matrix_stride(), b.layout().len());
        assert_eq!(b.chunks().count(), 2);
        assert_eq!(b.bytes(), 2 * b.layout().len() * 8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn band_batch_bad_id_panics() {
        let b = BandBatch::<f64>::zeros(2, 3, 3, 1, 1).unwrap();
        let _ = b.matrix(2);
    }

    #[test]
    fn pivot_batch_layout() {
        let mut p = PivotBatch::new(3, 5, 4);
        assert_eq!(p.per_matrix(), 4);
        p.pivots_mut(2)[3] = 7;
        assert_eq!(p.pivots(2)[3], 7);
        assert_eq!(p.pivots(0)[3], 0);
        let one_based = p.to_lapack_one_based();
        assert_eq!(one_based[2 * 4 + 3], 8);
        assert_eq!(p.batch(), 3);
    }

    #[test]
    fn pivot_lapack_round_trip() {
        let mut p = PivotBatch::new(2, 4, 4);
        for id in 0..2 {
            for j in 0..4 {
                p.pivots_mut(id)[j] = (j + (id + j) % 2) as i32; // j or j+1
            }
        }
        let one_based = p.to_lapack_one_based();
        assert!(one_based.iter().all(|&v| v >= 1), "1-based values");
        let mut back = PivotBatch::new(2, 4, 4);
        back.set_from_lapack_one_based(&one_based);
        assert_eq!(p, back, "0-based -> 1-based -> 0-based is lossless");
        assert_eq!(p.as_slice().len(), 8);
        p.as_mut_slice()[0] = 3;
        assert_eq!(p.pivots(0)[0], 3);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn pivot_lapack_round_trip_checks_length() {
        let mut p = PivotBatch::new(2, 4, 4);
        p.set_from_lapack_one_based(&[1, 2, 3]);
    }

    #[test]
    fn band_batch_zeros_with_layout() {
        use crate::layout::BandStorage;
        let l = BandLayout::with_ldab(6, 6, 1, 1, 5, BandStorage::Factor).unwrap();
        let b = BandBatch::<f64>::zeros_with_layout(l, 3).unwrap();
        assert_eq!(b.layout(), l);
        assert_eq!(b.data().len(), l.len() * 3);
        assert!(BandBatch::<f64>::zeros_with_layout(l, 0).is_err());
    }

    #[test]
    fn info_array_failure_reporting() {
        let mut info = InfoArray::new(4);
        assert!(info.all_ok());
        info.set(2, 3);
        assert!(!info.all_ok());
        assert_eq!(info.failures(), vec![2]);
        assert_eq!(info.get(2), 3);
        assert_eq!(info.len(), 4);
    }

    #[test]
    #[allow(clippy::identity_op)] // col * stride + row, spelled out
    fn rhs_batch_indexing() {
        let mut r = RhsBatch::zeros(2, 3, 2).unwrap();
        r.block_mut(1)[1 * 3 + 2] = 9.0; // matrix 1, rhs col 1, row 2
        assert_eq!(r.get(1, 2, 1), 9.0);
        assert_eq!(r.get(0, 2, 1), 0.0);
        assert_eq!(r.block_stride(), 6);
        assert_eq!(r.bytes(), 2 * 6 * 8);
    }

    #[test]
    fn rhs_from_fn() {
        let r =
            RhsBatch::from_fn(2, 3, 2, |id, row, col| (id * 100 + col * 10 + row) as f64).unwrap();
        assert_eq!(r.get(1, 2, 1), 112.0);
        assert_eq!(r.get(0, 0, 0), 0.0);
        assert_eq!(r.get(0, 1, 1), 11.0);
    }

    #[test]
    fn rhs_validates_ldb() {
        assert!(RhsBatch::<f64>::zeros_with_ldb(1, 4, 1, 3).is_err());
        assert!(RhsBatch::<f64>::zeros_with_ldb(1, 4, 1, 6).is_ok());
    }
}
