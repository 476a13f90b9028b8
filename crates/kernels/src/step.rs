//! In-shared-memory column step of the band LU factorization.
//!
//! Both the fully fused kernel (§5.2) and the sliding-window kernel (§5.3)
//! factor one column at a time inside shared memory ("the factorization can
//! be efficiently implemented by factorizing one column at a time — no
//! blocking techniques necessary"). This module implements that shared
//! column step over a [`SmemBand`] view, with the cost-recording calls that
//! drive the timing model, and with **exactly** the operation order of
//! `gbatch_core::gbtf2` so the factors are bit-for-bit identical.

use gbatch_core::gbtf2::ColumnStepState;
use gbatch_core::layout::{update_bound, BandLayout, RowClass};
use gbatch_core::scalar::Scalar;
use gbatch_gpu_sim::BlockContext;

/// A window of band columns resident in shared memory.
///
/// Local column `c - col0` of the buffer holds global band column `c`
/// (full `ldab` rows, identical row semantics to the global layout).
#[derive(Debug)]
pub struct SmemBand<'a, S: Scalar = f64> {
    /// Shared-memory buffer, column-major `ldab x width`.
    pub data: &'a mut [S],
    /// Rows per column (same `ldab` as the global band array).
    pub ldab: usize,
    /// Global column index mapped to local column 0.
    pub col0: usize,
    /// Number of columns resident.
    pub width: usize,
    /// Band geometry for provenance checking: when set, debug/`verify`
    /// builds classify every `idx` access against the layout and panic on
    /// touches outside the band + fill-in region. `None` disables the check
    /// (synthetic buffers without band semantics).
    pub provenance: Option<BandLayout>,
}

impl<'a, S: Scalar> SmemBand<'a, S> {
    /// Flat index of band row `r` of *global* column `c`.
    #[inline(always)]
    pub fn idx(&self, r: usize, c: usize) -> usize {
        debug_assert!(
            c >= self.col0 && c < self.col0 + self.width,
            "col {c} outside window"
        );
        debug_assert!(r < self.ldab);
        if cfg!(any(debug_assertions, feature = "verify")) {
            if let Some(l) = &self.provenance {
                if l.classify(r, c) == RowClass::OutOfRange {
                    panic!(
                        "out-of-range band access in shared window: band_row {r}, \
                         column {c} (kl={}, ku={}, ldab={}, m={}, n={})",
                        l.kl, l.ku, l.ldab, l.m, l.n
                    );
                }
            }
        }
        (c - self.col0) * self.ldab + r
    }

    /// Band element (band row `r`, global column `c`).
    #[inline(always)]
    pub fn get(&self, r: usize, c: usize) -> S {
        self.data[self.idx(r, c)]
    }

    /// Set band element.
    #[inline(always)]
    pub fn set(&mut self, r: usize, c: usize, v: S) {
        let k = self.idx(r, c);
        self.data[k] = v;
    }
}

/// `DGBTF2` prologue inside shared memory: zero the partially-reachable
/// fill rows of columns `ku+1 .. min(kv, n)` (global indices). Only valid
/// while those columns are resident.
pub fn smem_fillin_prologue<S: Scalar>(
    l: &BandLayout,
    w: &mut SmemBand<'_, S>,
    ctx: &mut BlockContext,
) {
    let kv = l.kv();
    let hi = kv.min(l.n);
    let threads = ctx.threads;
    let mut items = 0usize;
    for j in (l.ku + 1)..hi {
        if j < w.col0 || j >= w.col0 + w.width {
            continue;
        }
        if let Some(t) = ctx.smem.tracker() {
            t.striped_write(w.idx(kv - j, j), l.kl - (kv - j), threads);
        }
        for i in (kv - j)..l.kl {
            w.set(i, j, S::ZERO);
            items += 1;
        }
    }
    ctx.smem_work(items, 0);
}

/// `SET_FILLIN` for the main loop: zero the `kl` fill rows of column
/// `j + kv` when it is inside the window.
#[inline]
pub fn smem_fillin_step<S: Scalar>(
    l: &BandLayout,
    w: &mut SmemBand<'_, S>,
    j: usize,
    ctx: &mut BlockContext,
) {
    let kv = l.kv();
    if j + kv < l.n && j + kv >= w.col0 && j + kv < w.col0 + w.width {
        if l.kl > 0 {
            if let Some(t) = ctx.smem.tracker() {
                t.striped_write(w.idx(0, j + kv), l.kl, ctx.threads);
            }
        }
        for i in 0..l.kl {
            w.set(i, j + kv, S::ZERO);
        }
        ctx.smem_work(l.kl, 0);
    }
}

/// One column step of the factorization at global column `j`, operating on
/// the shared-memory window. Identical operation order to
/// [`gbatch_core::gbtf2::column_step`]. Returns the chosen pivot offset.
pub fn smem_column_step<S: Scalar>(
    l: &BandLayout,
    w: &mut SmemBand<'_, S>,
    ipiv: &mut [i32],
    j: usize,
    state: &mut ColumnStepState,
    ctx: &mut BlockContext,
) -> usize {
    let kv = l.kv();
    let km = l.km(j);
    let threads = ctx.threads;

    smem_fillin_step(l, w, j, ctx);

    // IAMAX over km + 1 candidates: parallel tree reduction in shared
    // memory — one strided scan plus a dependent read of the winner.
    let base = w.idx(kv, j);
    let mut jp = 0usize;
    let mut best = S::from_f64(-1.0);
    for k in 0..=km {
        let a = w.data[base + k].abs();
        if a > best {
            best = a;
            jp = k;
        }
    }
    if let Some(t) = ctx.smem.tracker() {
        // Candidates stripe over lanes; the reduction then hands the
        // winning value to every lane (a broadcast read) *before* the
        // barrier — which is why SWAP may overwrite it afterwards.
        t.striped_read(base, km + 1, threads);
        t.broadcast_read(base + jp);
    }
    ctx.smem_work(km + 1, 0);
    ctx.smem_trip();
    ctx.sync();

    ipiv[j] = (j + jp) as i32;
    let piv = w.data[base + jp];
    if piv != S::ZERO {
        state.ju = update_bound(state.ju.max(j), j, l.ku, jp, l.n);
        let ju = state.ju;
        debug_assert!(
            ju < w.col0 + w.width,
            "update bound {ju} escapes the window"
        );

        // SWAP to the right only (row swap walks band rows upward).
        if jp != 0 {
            if let Some(t) = ctx.smem.tracker() {
                // Column c = j + k is swapped entirely by lane k: both
                // elements read then written by the same lane.
                for (k, c) in (j..=ju).enumerate() {
                    let lane = (k % threads as usize) as u32;
                    let i1 = w.idx(kv + jp - k, c);
                    let i2 = w.idx(kv - k, c);
                    t.read(lane, i1);
                    t.read(lane, i2);
                    t.write(lane, i1);
                    t.write(lane, i2);
                }
            }
            for (k, c) in (j..=ju).enumerate() {
                let i1 = w.idx(kv + jp - k, c);
                let i2 = w.idx(kv - k, c);
                w.data.swap(i1, i2);
            }
            ctx.smem_work(ju - j + 1, 0);
        }
        ctx.sync();

        if km > 0 {
            // SCAL by the reciprocal pivot.
            if let Some(t) = ctx.smem.tracker() {
                // Every lane needs the reciprocal (broadcast); element
                // base + k is scaled in place by lane (k - 1) % threads —
                // the same lane that consumes it as a multiplier in the
                // rank-one update below, so SCAL and GER legally share
                // one epoch.
                t.broadcast_read(base);
                t.striped_read(base + 1, km, threads);
                t.striped_write(base + 1, km, threads);
            }
            let inv = S::ONE / w.data[base];
            for x in &mut w.data[base + 1..=base + km] {
                *x *= inv;
            }
            ctx.smem_work(km, 1);
            ctx.smem_trip();

            // RANK_ONE_UPDATE over columns j+1 ..= ju.
            if ju > j {
                let src = w.idx(kv, j);
                if let Some(t) = ctx.smem.tracker() {
                    for c in 1..=(ju - j) {
                        let dst = w.idx(kv - c, j + c);
                        // The row-j multiplier u is read by every lane.
                        t.broadcast_read(dst);
                        if w.data[dst] != S::ZERO {
                            t.striped_read(src + 1, km, threads);
                            t.striped_read(dst + 1, km, threads);
                            t.striped_write(dst + 1, km, threads);
                        }
                    }
                }
                // Band row `kv - c` of column `j + c` sits `c * (ldab - 1)`
                // past the pivot: one region holds the multipliers and
                // every updated column, each past the multipliers.
                let stride = w.ldab - 1;
                let cols = ju - j;
                if cfg!(any(debug_assertions, feature = "verify")) {
                    // The provenance gate of every updated column.
                    for c in 1..=cols {
                        assert_eq!(w.idx(kv - c, j + c), src + c * stride);
                    }
                }
                let region = &mut w.data[src..=src + cols * stride + km];
                let (mult, rest) = region.split_at_mut(km + 1);
                let mult = &mult[1..];
                for c in 1..=cols {
                    let d = c * stride - (km + 1);
                    let u = rest[d];
                    if u == S::ZERO {
                        continue;
                    }
                    for (x, &m) in rest[d + 1..=d + km].iter_mut().zip(mult) {
                        *x -= m * u;
                    }
                }
                ctx.smem_work((ju - j) * km, 2);
            }
            ctx.sync();
        }
    } else if state.info == 0 {
        state.info = (j + 1) as i32;
    }
    jp
}

/// Shared-memory bytes needed to hold `cols` full band columns of `S`
/// elements — `ldab * cols * size_of::<S>()`.
#[inline]
pub fn smem_bytes_for_cols<S: Scalar>(ldab: usize, cols: usize) -> usize {
    ldab * cols * S::BYTES
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbatch_core::band::BandMatrix;
    use gbatch_core::gbtf2::{gbtf2, ColumnStepState};
    use gbatch_gpu_sim::BlockContext;

    fn random_band(n: usize, kl: usize, ku: usize, seed: f64) -> BandMatrix {
        let mut a = BandMatrix::zeros_factor(n, n, kl, ku).unwrap();
        let mut v = seed;
        for j in 0..n {
            let (s, e) = a.layout().col_rows(j);
            for i in s..e {
                v = (v * 2.9 + 0.07).fract();
                a.set(i, j, v - 0.5);
            }
        }
        a
    }

    #[test]
    fn full_window_step_matches_gbtf2_bitwise() {
        // Window = whole matrix (the fused kernel's configuration).
        for (n, kl, ku) in [(12, 2, 3), (16, 10, 7), (9, 1, 0), (8, 0, 2)] {
            let a = random_band(n, kl, ku, 0.17 + n as f64 * 0.01);
            let l = a.layout();
            let mut expect = a.data().to_vec();
            let mut p1 = vec![0i32; n];
            let info1 = gbtf2(&l, &mut expect, &mut p1);

            let mut buf = a.data().to_vec();
            let mut w = SmemBand {
                data: &mut buf,
                ldab: l.ldab,
                col0: 0,
                width: n,
                provenance: Some(l),
            };
            let mut ctx = BlockContext::new(0, 4, 0);
            let mut p2 = vec![0i32; n];
            let mut st = ColumnStepState::default();
            smem_fillin_prologue(&l, &mut w, &mut ctx);
            for j in 0..n {
                smem_column_step(&l, &mut w, &mut p2, j, &mut st, &mut ctx);
            }
            assert_eq!(st.info, info1);
            assert_eq!(p1, p2);
            assert_eq!(expect, buf, "n={n} kl={kl} ku={ku}");
        }
    }

    #[test]
    fn records_costs() {
        let n = 10;
        let a = random_band(n, 2, 1, 0.5);
        let l = a.layout();
        let mut buf = a.data().to_vec();
        let mut w = SmemBand {
            data: &mut buf,
            ldab: l.ldab,
            col0: 0,
            width: n,
            provenance: Some(l),
        };
        let mut ctx = BlockContext::new(0, 4, 0);
        let mut p = vec![0i32; n];
        let mut st = ColumnStepState::default();
        for j in 0..n {
            smem_column_step(&l, &mut w, &mut p, j, &mut st, &mut ctx);
        }
        let c = ctx.counters();
        assert!(
            c.smem_elems > 0.0,
            "factorization work is shared-memory work"
        );
        assert!(c.syncs >= 2 * n as u64, "at least two barriers per column");
        assert!(c.flops > 0);
    }

    #[test]
    fn smem_band_offset_addressing() {
        let mut buf = vec![0.0; 4 * 3]; // ldab 4, width 3, col0 = 5
        let mut w = SmemBand {
            data: &mut buf,
            ldab: 4,
            col0: 5,
            width: 3,
            provenance: None,
        };
        w.set(2, 6, 9.0); // local col 1
        assert_eq!(w.get(2, 6), 9.0);
        assert_eq!(w.data[4 + 2], 9.0); // col 1, row 2 of the window
        assert_eq!(w.idx(0, 5), 0);
        assert_eq!(w.idx(3, 7), 2 * 4 + 3);
    }

    #[test]
    fn smem_bytes_helper() {
        assert_eq!(smem_bytes_for_cols::<f64>(8, 10), 640);
        assert_eq!(
            smem_bytes_for_cols::<f32>(8, 10),
            320,
            "f32 halves the footprint"
        );
    }

    #[test]
    #[cfg(any(debug_assertions, feature = "verify"))]
    #[should_panic(expected = "out-of-range band access in shared window: band_row 7, column 8")]
    fn provenance_rejects_out_of_band_write() {
        // 9x9, kl = 2, ku = 3: band row 7 of column 8 would be full-matrix
        // row 10 — past the bottom of the matrix.
        let l = BandLayout::factor(9, 9, 2, 3).unwrap();
        let mut buf = vec![0.0; l.len()];
        let mut w = SmemBand {
            data: &mut buf,
            ldab: l.ldab,
            col0: 0,
            width: l.n,
            provenance: Some(l),
        };
        w.set(7, 8, 1.0);
    }

    #[test]
    fn provenance_allows_fillin_touches() {
        let l = BandLayout::factor(9, 9, 2, 3).unwrap();
        let mut buf = vec![0.0; l.len()];
        let mut w = SmemBand {
            data: &mut buf,
            ldab: l.ldab,
            col0: 0,
            width: l.n,
            provenance: Some(l),
        };
        // (0, 5) is pivoting fill-in — legal for gbtrf-family kernels.
        w.set(0, 5, 3.5);
        assert_eq!(w.get(0, 5), 3.5);
    }
}
