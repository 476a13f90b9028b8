//! Interleaved (batch-major) band storage.
//!
//! The column-major [`BandBatch`] keeps each matrix's `ldab x n` panel
//! contiguous, so the hot inner loops of a batched factorization stride
//! within one small matrix. The interleaved layout transposes the batch to
//! batch-major order: band element `(r, j)` of *every* matrix in the batch
//! is adjacent in memory, turning the per-column primitives (IAMAX, SWAP,
//! SCAL, rank-1 update, triangular-solve updates) into contiguous sweeps
//! over the batch index — the coalesced/vectorizable access pattern of
//! "Efficient Interleaved Batch Matrix Solvers" (Gloster et al.,
//! arXiv:1909.04539).
//!
//! Storage order: flat element index `e = j * ldab + r` (identical to
//! [`BandLayout::idx`]), and the value of matrix `b` lives at
//! `data[e * batch + b]`. Equivalently the array is `[ldab][n][batch]` with
//! the batch index innermost. Both `Factor` and `Pure` layout flavours are
//! supported, including padded `ldab`, and conversion to/from [`BandBatch`]
//! is lossless: it is a pure transpose of the same `ldab * n * batch`
//! elements.

use crate::batch::BandBatch;
use crate::error::{BandError, Result};
use crate::layout::BandLayout;
use crate::scalar::Scalar;

/// A uniform batch of band matrices in batch-major (interleaved) storage.
///
/// Same geometry as [`BandBatch`] (`m, n, kl, ku, ldab` shared by every
/// matrix), different element order: the batch lane of each band element is
/// contiguous.
#[derive(Debug, Clone, PartialEq)]
pub struct InterleavedBandBatch<S: Scalar = f64> {
    layout: BandLayout,
    batch: usize,
    data: Vec<S>,
}

impl<S: Scalar> InterleavedBandBatch<S> {
    /// Zero-initialized interleaved batch in factor storage.
    pub fn zeros(batch: usize, m: usize, n: usize, kl: usize, ku: usize) -> Result<Self> {
        let layout = BandLayout::factor(m, n, kl, ku)?;
        Self::zeros_with_layout(layout, batch)
    }

    /// Zero-initialized interleaved batch with an explicit layout (any
    /// flavour, any valid `ldab`).
    pub fn zeros_with_layout(layout: BandLayout, batch: usize) -> Result<Self> {
        if batch == 0 {
            return Err(BandError::BadDimension {
                arg: "batch",
                constraint: "batch > 0",
            });
        }
        Ok(InterleavedBandBatch {
            layout,
            batch,
            data: vec![S::ZERO; layout.len() * batch],
        })
    }

    /// Transpose a column-major batch into interleaved storage (lossless:
    /// every one of the `ldab * n * batch` stored elements is carried over,
    /// fill/padding rows included).
    #[must_use = "returns the interleaved copy; the source is unchanged"]
    pub fn from_batch(src: &BandBatch<S>) -> Self {
        let layout = src.layout();
        let batch = src.batch();
        let mut data = vec![S::ZERO; layout.len() * batch];
        scatter_strip(
            src.data(),
            layout.len(),
            &mut LaneStrip::new(&mut data[..], batch, 0, batch),
        );
        InterleavedBandBatch {
            layout,
            batch,
            data,
        }
    }

    /// Transpose back to a column-major [`BandBatch`] (exact inverse of
    /// [`InterleavedBandBatch::from_batch`]).
    #[must_use = "returns the column-major copy; the source is unchanged"]
    pub fn to_batch(&self) -> BandBatch<S> {
        let mut out = BandBatch::zeros_with_layout(self.layout, self.batch)
            .expect("layout/batch already validated");
        gather_strip(
            &self.strip(0, self.batch),
            out.data_mut(),
            self.layout.len(),
        );
        out
    }

    /// Read-only strip of lanes `lo .. lo + lanes` (every element index).
    #[must_use]
    pub fn strip(&self, lo: usize, lanes: usize) -> LaneStrip<&[S]> {
        LaneStrip::new(&self.data[..], self.batch, lo, lanes)
    }

    /// Layout shared by every matrix in the batch.
    #[inline]
    #[must_use]
    pub fn layout(&self) -> BandLayout {
        self.layout
    }

    /// Number of matrices (= lane count).
    #[inline]
    #[must_use]
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Flat *element* index of band element `(band_row, j)`; the batch lane
    /// of that element occupies `data[idx * batch .. (idx + 1) * batch]`.
    #[inline(always)]
    #[must_use]
    pub fn lane_index(&self, band_row: usize, j: usize) -> usize {
        self.layout.idx(band_row, j)
    }

    /// Contiguous batch lane of band element `(band_row, j)`: entry `b` is
    /// the value of matrix `b`.
    #[inline]
    #[must_use]
    pub fn lanes(&self, band_row: usize, j: usize) -> &[S] {
        let e = self.lane_index(band_row, j);
        &self.data[e * self.batch..(e + 1) * self.batch]
    }

    /// Mutable batch lane of band element `(band_row, j)`.
    #[inline]
    pub fn lanes_mut(&mut self, band_row: usize, j: usize) -> &mut [S] {
        let e = self.lane_index(band_row, j);
        &mut self.data[e * self.batch..(e + 1) * self.batch]
    }

    /// Band element `(band_row, j)` of matrix `id`.
    #[inline]
    #[must_use]
    pub fn get(&self, id: usize, band_row: usize, j: usize) -> S {
        self.lanes(band_row, j)[id]
    }

    /// Set band element `(band_row, j)` of matrix `id`.
    #[inline]
    pub fn set(&mut self, id: usize, band_row: usize, j: usize, v: S) {
        let b = self.batch;
        let e = self.lane_index(band_row, j);
        self.data[e * b + id] = v;
    }

    /// Whole contiguous storage (batch index innermost).
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

/// Edge of the element tiles the strip transposes walk: one tile of
/// element rows is 16 sequential read or write streams, and each lane's
/// share of it is a whole 128-byte run of `f64` (two cache lines).
const TILE: usize = 16;

/// Element-major rows of a lane strip: `row(e)` holds the strip's lanes of
/// element `e`, one value per lane.
pub trait StripRows<S> {
    /// Lanes of element `e`.
    fn row(&self, e: usize) -> &[S];
}

/// Mutable counterpart of [`StripRows`].
pub trait StripRowsMut<S> {
    /// Lanes of element `e`, mutable.
    fn row_mut(&mut self, e: usize) -> &mut [S];
}

/// Lanes `lo .. lo + lanes` of an element-major array that holds `batch`
/// lanes per element (the interleaved storage order, `data[e * batch + b]`).
#[derive(Debug)]
pub struct LaneStrip<T> {
    data: T,
    batch: usize,
    lo: usize,
    lanes: usize,
}

impl<T> LaneStrip<T> {
    /// Lanes `lo .. lo + lanes` of `data`, which holds `batch` lanes per
    /// element.
    pub fn new(data: T, batch: usize, lo: usize, lanes: usize) -> Self {
        assert!(lo + lanes <= batch, "strip exceeds the batch");
        LaneStrip {
            data,
            batch,
            lo,
            lanes,
        }
    }
}

impl<S> StripRows<S> for LaneStrip<&[S]> {
    #[inline]
    fn row(&self, e: usize) -> &[S] {
        let off = e * self.batch + self.lo;
        &self.data[off..off + self.lanes]
    }
}

impl<S> StripRowsMut<S> for LaneStrip<&mut [S]> {
    #[inline]
    fn row_mut(&mut self, e: usize) -> &mut [S] {
        let off = e * self.batch + self.lo;
        &mut self.data[off..off + self.lanes]
    }
}

/// Cache-blocked strip transpose, element-major to lane-major:
/// `dst[b * elems + e] = src.row(e)[b]` for every lane `b` of the strip and
/// every element `e < elems`. `dst` holds `lanes * elems` values, one
/// contiguous `elems`-run per lane (the column-major batch order).
///
/// The walk takes `TILE` element rows at a time and sweeps the lanes under
/// them, so every source row streams sequentially and every destination
/// run is written whole.
pub fn gather_strip<S: Copy>(src: &impl StripRows<S>, dst: &mut [S], elems: usize) {
    if elems == 0 {
        return;
    }
    assert_eq!(dst.len() % elems, 0, "destination holds whole lanes");
    let lanes = dst.len() / elems;
    assert_eq!(
        src.row(0).len(),
        lanes,
        "strip width matches the destination"
    );
    for e0 in (0..elems).step_by(TILE) {
        let e1 = (e0 + TILE).min(elems);
        let mut rows: [&[S]; TILE] = [&[]; TILE];
        for (r, e) in rows.iter_mut().zip(e0..e1) {
            *r = src.row(e);
        }
        let rows = &rows[..e1 - e0];
        for (b, lane) in dst.chunks_exact_mut(elems).enumerate() {
            for (v, r) in lane[e0..e1].iter_mut().zip(rows) {
                *v = r[b];
            }
        }
    }
}

/// Inverse of [`gather_strip`]: `dst.row_mut(e)[b] = src[b * elems + e]`.
/// The walk visits each element tile in blocks of `TILE * TILE` lanes, so
/// the strided source runs it reads stay in L1 across the tile's rows.
pub fn scatter_strip<S: Copy>(src: &[S], elems: usize, dst: &mut impl StripRowsMut<S>) {
    if elems == 0 {
        return;
    }
    assert_eq!(src.len() % elems, 0, "source holds whole lanes");
    let lanes = src.len() / elems;
    assert_eq!(
        dst.row_mut(0).len(),
        lanes,
        "strip width matches the source"
    );
    for e0 in (0..elems).step_by(TILE) {
        let e1 = (e0 + TILE).min(elems);
        for b0 in (0..lanes).step_by(TILE * TILE) {
            let b1 = (b0 + TILE * TILE).min(lanes);
            let block = &src[b0 * elems..b1 * elems];
            for e in e0..e1 {
                let row = &mut dst.row_mut(e)[b0..b1];
                for (v, lane) in row.iter_mut().zip(block.chunks_exact(elems)) {
                    *v = lane[e];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::BandStorage;

    fn sample_batch(batch: usize, n: usize, kl: usize, ku: usize) -> BandBatch {
        let mut v = 0.17f64;
        BandBatch::from_fn(batch, n, n, kl, ku, |id, m| {
            for j in 0..n {
                let (s, e) = m.layout.col_rows(j);
                for i in s..e {
                    v = (v * 2.3 + 0.011 + id as f64 * 1e-3).fract();
                    m.set(i, j, v - 0.5);
                }
            }
        })
        .unwrap()
    }

    #[test]
    fn round_trip_is_lossless() {
        for (batch, n, kl, ku) in [(1, 6, 1, 1), (4, 9, 2, 3), (7, 12, 10, 7), (3, 5, 0, 2)] {
            let a = sample_batch(batch, n, kl, ku);
            let i = InterleavedBandBatch::from_batch(&a);
            let back = i.to_batch();
            assert_eq!(a, back, "batch={batch} n={n} kl={kl} ku={ku}");
        }
    }

    #[test]
    fn lane_addressing_matches_column_major() {
        let a = sample_batch(5, 9, 2, 3);
        let l = a.layout();
        let i = InterleavedBandBatch::from_batch(&a);
        for b in 0..5 {
            for j in 0..l.n {
                for r in 0..l.ldab {
                    assert_eq!(i.get(b, r, j), a.matrix(b).data[l.idx(r, j)]);
                    assert_eq!(i.lanes(r, j)[b], a.matrix(b).data[l.idx(r, j)]);
                }
            }
        }
    }

    #[test]
    fn lanes_are_contiguous_in_storage() {
        let a = sample_batch(4, 6, 1, 2);
        let i = InterleavedBandBatch::from_batch(&a);
        let l = i.layout();
        let e = l.idx(2, 3);
        assert_eq!(i.lanes(2, 3), &i.data()[e * 4..e * 4 + 4]);
        assert_eq!(i.lane_index(2, 3), e);
    }

    #[test]
    fn mutation_through_lanes_round_trips() {
        let a = sample_batch(3, 5, 1, 1);
        let mut i = InterleavedBandBatch::from_batch(&a);
        i.lanes_mut(2, 2)[1] = 42.0;
        i.set(2, 3, 4, -7.0);
        let back = i.to_batch();
        assert_eq!(back.matrix(1).data[back.layout().idx(2, 2)], 42.0);
        assert_eq!(back.matrix(2).data[back.layout().idx(3, 4)], -7.0);
        assert_eq!(i.get(1, 2, 2), 42.0);
    }

    #[test]
    fn pure_and_padded_layouts_round_trip() {
        // Pure storage.
        let lp = BandLayout::pure(8, 8, 2, 1).unwrap();
        let mut a = BandBatch::zeros_with_layout(lp, 3).unwrap();
        for (b, m) in a.chunks_mut().enumerate() {
            for (e, v) in m.iter_mut().enumerate() {
                *v = (b * 100 + e) as f64;
            }
        }
        let i = InterleavedBandBatch::from_batch(&a);
        assert_eq!(i.layout().storage(), BandStorage::Pure);
        assert_eq!(i.to_batch(), a);

        // Factor storage with padded ldab.
        let lf = BandLayout::with_ldab(8, 8, 2, 1, 9, BandStorage::Factor).unwrap();
        let mut a = BandBatch::zeros_with_layout(lf, 2).unwrap();
        for (b, m) in a.chunks_mut().enumerate() {
            for (e, v) in m.iter_mut().enumerate() {
                *v = (b * 1000 + e) as f64 * 0.5;
            }
        }
        let i = InterleavedBandBatch::from_batch(&a);
        assert_eq!(i.layout().ldab, 9);
        assert_eq!(i.to_batch(), a);
    }

    #[test]
    fn strip_transposes_are_inverse_and_respect_the_strip() {
        // Element counts off the tile edge, strips at an offset, and a
        // strip wider than one lane block of the scatter walk.
        for (elems, batch, lo, lanes) in [(37, 9, 2, 5), (16, 3, 0, 3), (5, 300, 17, 270)] {
            let src: Vec<f64> = (0..lanes * elems).map(|k| k as f64 + 0.5).collect();
            let mut data = vec![-1.0f64; elems * batch];
            scatter_strip(
                &src,
                elems,
                &mut LaneStrip::new(&mut data[..], batch, lo, lanes),
            );
            for e in 0..elems {
                for b in 0..batch {
                    let want = if (lo..lo + lanes).contains(&b) {
                        src[(b - lo) * elems + e]
                    } else {
                        -1.0
                    };
                    assert_eq!(data[e * batch + b], want, "e {e} b {b}");
                }
            }
            let mut back = vec![0.0f64; lanes * elems];
            gather_strip(
                &LaneStrip::new(&data[..], batch, lo, lanes),
                &mut back,
                elems,
            );
            assert_eq!(back, src, "elems {elems} batch {batch}");
        }
    }

    #[test]
    fn zeros_constructors() {
        let i = InterleavedBandBatch::<f64>::zeros(4, 6, 6, 1, 2).unwrap();
        assert_eq!(i.batch(), 4);
        assert_eq!(i.layout().ldab, 5); // 2*kl + ku + 1
        assert_eq!(i.data().len(), i.layout().len() * 4);
        assert_eq!(i.bytes(), i.data().len() * 8);
        assert!(i.data().iter().all(|&v| v == 0.0));
        assert!(InterleavedBandBatch::<f64>::zeros(0, 6, 6, 1, 2).is_err());
    }
}
