//! Blocked batched *transpose* band triangular solve (`A^T x = b`).
//!
//! The paper's user interface (Section 4) takes `transpose_t transA`; the
//! transpose path solves `U^T y = b` first (a *lower*-triangular banded
//! sweep, ascending) and then applies `L^T` with the pivots replayed in
//! reverse (descending). Both sweeps use the same shared-memory RHS-window
//! technique as the no-transpose kernels of [`crate::gbtrs_blocked`]:
//!
//! - **`U^T` sweep** (ascending blocks): solving row `j` needs the `kv`
//!   previously-solved rows above it, so the cache holds `nb + kv` rows
//!   ending at the current block;
//! - **`L^T` sweep** (descending blocks): step `j` combines rows
//!   `j+1 ..= j+kl` and may swap row `j` with any row down to `j + kl`,
//!   so a row is only final once the sweep has passed `kl` rows below it —
//!   the cache holds `nb + kl` rows and rows `[j0 + kl, j1 + kl)` are
//!   written back after each block.
//!
//! Numerically identical (bit-for-bit) to
//! `gbatch_core::gbtrs::gbtrs(Transpose::Yes, ..)`.

use gbatch_core::batch::{PivotBatch, RhsBatch};
use gbatch_core::layout::BandLayout;
use gbatch_core::scalar::Scalar;
use gbatch_gpu_sim::{launch, DeviceSpec, LaunchConfig, LaunchError, LaunchReport, SimTime};

use crate::gbtrs_blocked::SolveParams;

/// Shared bytes for the `U^T` sweep cache (`S` elements).
pub fn ut_smem_bytes<S: Scalar>(l: &BandLayout, nb: usize, nrhs: usize) -> usize {
    (nb + l.kv()).min(l.n) * nrhs * S::BYTES
}

/// Shared bytes for the `L^T` sweep cache (`S` elements).
pub fn lt_smem_bytes<S: Scalar>(l: &BandLayout, nb: usize, nrhs: usize) -> usize {
    (nb + l.kl).min(l.n) * nrhs * S::BYTES
}

/// Report for the two transpose-solve launches.
#[derive(Debug, Clone)]
pub struct TransSolveReport {
    /// `U^T` sweep launch.
    pub ut: LaunchReport,
    /// `L^T` sweep launch (absent when `kl == 0`).
    pub lt: Option<LaunchReport>,
}

impl TransSolveReport {
    /// Total modeled time.
    pub fn time(&self) -> SimTime {
        self.ut.time + self.lt.as_ref().map(|r| r.time).unwrap_or(SimTime::ZERO)
    }
}

struct Prob<'a, S> {
    id: usize,
    b: &'a mut [S],
}

/// Batched blocked transpose solve: overwrite `rhs` with `A^{-T} rhs`.
pub fn gbtrs_batch_blocked_trans<S: Scalar>(
    dev: &DeviceSpec,
    l: &BandLayout,
    factors: &[S],
    piv: &PivotBatch,
    rhs: &mut RhsBatch<S>,
    params: SolveParams,
) -> Result<TransSolveReport, LaunchError> {
    let n = l.n;
    assert_eq!(l.m, n, "transpose solve requires square factors");
    let batch = rhs.batch();
    assert_eq!(piv.batch(), batch);
    let stride = l.len();
    assert_eq!(factors.len(), stride * batch);
    assert!(params.nb > 0);
    let nrhs = rhs.nrhs();
    let ldb = rhs.ldb();
    let kv = l.kv();
    let kl = l.kl;
    let nb = params.nb;
    let threads = params.threads.max((kl + 1) as u32);

    // ---------------- U^T sweep (ascending) ----------------
    let ut = {
        let cfg = LaunchConfig::new(threads, ut_smem_bytes::<S>(l, nb, nrhs) as u32)
            .with_parallel(params.parallel)
            .with_label("gbtrs_trans_ut")
            .with_precision(crate::flop_class::<S>());
        let cache_rows = (nb + kv).min(n);
        let mut probs: Vec<Prob<'_, S>> = rhs
            .blocks_mut()
            .enumerate()
            .map(|(id, b)| Prob { id, b })
            .collect();
        launch(dev, &cfg, &mut probs, |p, ctx| {
            let ab = &factors[p.id * stride..(p.id + 1) * stride];
            let _off = ctx.smem.alloc_scalar(cache_rows * nrhs, S::BYTES);
            let mut scratch = ctx.take_scratch();
            let cache = scratch.zeroed::<S>(cache_rows * nrhs);
            // Cache covers absolute rows [lo, abs_end); starts at the top.
            let mut lo = 0usize;
            let mut abs_end = cache_rows.min(n);
            for c in 0..nrhs {
                for r in lo..abs_end {
                    cache[c * cache_rows + (r - lo)] = p.b[c * ldb + r];
                }
            }
            ctx.gld((abs_end - lo) * nrhs * S::BYTES);
            ctx.sync();

            let mut j0 = 0usize;
            while j0 < n {
                let jb = nb.min(n - j0);
                debug_assert!(lo <= j0.saturating_sub(kv) && abs_end >= j0 + jb);
                for j in j0..j0 + jb {
                    let reach = kv.min(j);
                    ctx.gld((reach + 1) * S::BYTES); // the U column (register file)
                    let diag = ab[l.idx(kv, j)];
                    let lj = j - lo;
                    for c in 0..nrhs {
                        let mut acc = cache[c * cache_rows + lj];
                        for i in 1..=reach {
                            acc -= ab[l.idx(kv - i, j)] * cache[c * cache_rows + lj - i];
                        }
                        cache[c * cache_rows + lj] = acc / diag;
                    }
                    ctx.smem_work(nrhs * (reach + 1), 2);
                    ctx.sync();
                }
                // Rows [j0, j0 + jb) are final.
                for c in 0..nrhs {
                    for r in 0..jb {
                        p.b[c * ldb + j0 + r] = cache[c * cache_rows + (j0 - lo) + r];
                    }
                }
                ctx.gst(jb * nrhs * S::BYTES);
                let next_j0 = j0 + jb;
                if next_j0 >= n {
                    break;
                }
                // Slide the window: keep the kv most recent solved rows.
                let new_lo = next_j0.saturating_sub(kv);
                let shift = new_lo - lo;
                if shift > 0 {
                    let keep = abs_end - new_lo;
                    for c in 0..nrhs {
                        let colbase = c * cache_rows;
                        cache.copy_within(colbase + shift..colbase + shift + keep, colbase);
                    }
                    ctx.smem_work(keep * nrhs, 0);
                    lo = new_lo;
                }
                // Load the next rows into the tail of the window.
                let new_end = (lo + cache_rows).min(n);
                if new_end > abs_end {
                    for c in 0..nrhs {
                        for r in abs_end..new_end {
                            cache[c * cache_rows + (r - lo)] = p.b[c * ldb + r];
                        }
                    }
                    ctx.gld((new_end - abs_end) * nrhs * S::BYTES);
                    abs_end = new_end;
                }
                ctx.sync();
                j0 = next_j0;
            }
            ctx.put_scratch(scratch);
        })?
    };

    // ---------------- L^T sweep (descending) ----------------
    let lt = if kl > 0 && n > 1 {
        let cfg = LaunchConfig::new(threads, lt_smem_bytes::<S>(l, nb, nrhs) as u32)
            .with_parallel(params.parallel)
            .with_label("gbtrs_trans_lt")
            .with_precision(crate::flop_class::<S>());
        let cache_rows = (nb + kl).min(n);
        let mut probs: Vec<Prob<'_, S>> = rhs
            .blocks_mut()
            .enumerate()
            .map(|(id, b)| Prob { id, b })
            .collect();
        let rep = launch(dev, &cfg, &mut probs, |p, ctx| {
            let ab = &factors[p.id * stride..(p.id + 1) * stride];
            let ipiv = piv.pivots(p.id);
            let _off = ctx.smem.alloc_scalar(cache_rows * nrhs, S::BYTES);
            let mut scratch = ctx.take_scratch();
            let cache = scratch.zeroed::<S>(cache_rows * nrhs);
            // Cache covers rows [lo, hi); start with the bottom rows.
            let mut lo = n.saturating_sub(cache_rows);
            let hi = n;
            for c in 0..nrhs {
                for r in lo..hi {
                    cache[c * cache_rows + (r - lo)] = p.b[c * ldb + r];
                }
            }
            ctx.gld((hi - lo) * nrhs * S::BYTES);
            ctx.sync();

            // Steps j = n-2 .. 0 in blocks [j0, j1).
            let mut j1 = n - 1; // exclusive end of the step range handled so far
            loop {
                let jb = nb.min(j1);
                let j0 = j1 - jb;
                for j in (j0..j1).rev() {
                    let lm = kl.min(n - 1 - j);
                    debug_assert!(j >= lo && j + lm < lo + cache_rows);
                    if lm > 0 {
                        let base = l.idx(kv, j);
                        ctx.gld(lm * S::BYTES);
                        for c in 0..nrhs {
                            let mut acc = S::ZERO;
                            for i in 1..=lm {
                                acc += ab[base + i] * cache[c * cache_rows + (j - lo) + i];
                            }
                            cache[c * cache_rows + (j - lo)] -= acc;
                        }
                        ctx.smem_work(nrhs * lm, 2);
                    }
                    let pr = ipiv[j] as usize;
                    if pr != j {
                        for c in 0..nrhs {
                            cache.swap(c * cache_rows + (j - lo), c * cache_rows + (pr - lo));
                        }
                        ctx.smem_work(nrhs, 0);
                    }
                    ctx.sync();
                }
                // Rows >= j0 + kl are final (no later step can reach them).
                let final_start = j0 + kl;
                let final_end = (j1 + kl).min(n);
                if final_end > final_start {
                    for c in 0..nrhs {
                        for r in final_start..final_end {
                            p.b[c * ldb + r] = cache[c * cache_rows + (r - lo)];
                        }
                    }
                    ctx.gst((final_end - final_start) * nrhs * S::BYTES);
                }
                if j0 == 0 {
                    // Flush the remaining top rows [0, min(kl, n)).
                    debug_assert_eq!(lo, 0, "window must end at the top");
                    let top_end = kl.min(n);
                    for c in 0..nrhs {
                        for r in 0..top_end {
                            p.b[c * ldb + r] = cache[c * cache_rows + (r - lo)];
                        }
                    }
                    ctx.gst(top_end * nrhs * S::BYTES);
                    break;
                }
                // Slide down: the next block is [j0', j0) with
                // j0' = j0 - min(nb, j0); its steps touch rows
                // [j0', min(j0 - 1 + kl, n - 1)]. The window origin moves
                // monotonically downward (never up — when kl > nb the
                // current origin may already be below the next block start).
                let next_jb = nb.min(j0);
                let next_j0 = j0 - next_jb;
                let new_lo = next_j0.min(lo);
                debug_assert!(
                    (j0 + kl).min(n) <= new_lo + cache_rows,
                    "window too small: need [{next_j0}, {}) in [{new_lo}, {})",
                    (j0 + kl).min(n),
                    new_lo + cache_rows
                );
                let shift = lo - new_lo; // cache content moves up by `shift`
                if shift > 0 {
                    // Keep the still-needed rows [lo, min(j0 + kl, n)).
                    let keep_end = (j0 + kl).min(lo + cache_rows).min(n);
                    let keep = keep_end.saturating_sub(lo);
                    for c in 0..nrhs {
                        let colbase = c * cache_rows;
                        for r in (0..keep).rev() {
                            cache[colbase + shift + r] = cache[colbase + r];
                        }
                    }
                    ctx.smem_work(keep * nrhs, 0);
                    // Load the fresh rows [new_lo, lo).
                    for c in 0..nrhs {
                        for r in new_lo..lo {
                            cache[c * cache_rows + (r - new_lo)] = p.b[c * ldb + r];
                        }
                    }
                    ctx.gld((lo - new_lo) * nrhs * S::BYTES);
                    lo = new_lo;
                }
                ctx.sync();
                j1 = j0;
            }
            ctx.put_scratch(scratch);
        })?;
        Some(rep)
    } else {
        None
    };

    Ok(TransSolveReport { ut, lt })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbatch_core::batch::{BandBatch, InfoArray};
    use gbatch_core::gbtrs::{gbtrs, Transpose};

    fn factored(batch: usize, n: usize, kl: usize, ku: usize) -> (BandBatch, PivotBatch) {
        let mut v = 0.29f64;
        let mut fac = BandBatch::from_fn(batch, n, n, kl, ku, |id, m| {
            for j in 0..n {
                let (s, e) = m.layout.col_rows(j);
                for i in s..e {
                    v = (v * 2.9 + 0.047 + id as f64 * 4e-4).fract();
                    m.set(i, j, v - 0.5 + if i == j { 1.2 } else { 0.0 });
                }
            }
        })
        .unwrap();
        let mut piv = PivotBatch::new(batch, n, n);
        let mut info = InfoArray::new(batch);
        let dev = DeviceSpec::h100_pcie();
        let _ = crate::fused::gbtrf_batch_fused(
            &dev,
            &mut fac,
            &mut piv,
            &mut info,
            crate::fused::FusedParams::auto(&dev, kl),
        )
        .unwrap();
        assert!(info.all_ok());
        (fac, piv)
    }

    fn check(n: usize, kl: usize, ku: usize, nrhs: usize, nb: usize) {
        let dev = DeviceSpec::h100_pcie();
        let batch = 3;
        let (fac, piv) = factored(batch, n, kl, ku);
        let l = fac.layout();
        let mut rhs = RhsBatch::from_fn(batch, n, nrhs, |id, i, c| {
            ((id * 11 + c * 3 + i) as f64 * 0.37).sin()
        })
        .unwrap();
        let mut expect = rhs.clone();
        for id in 0..batch {
            gbtrs(
                Transpose::Yes,
                &l,
                fac.matrix(id).data,
                piv.pivots(id),
                expect.block_mut(id),
                n,
                nrhs,
            );
        }
        let params = SolveParams {
            nb,
            threads: 32,
            ..Default::default()
        };
        gbtrs_batch_blocked_trans(&dev, &l, fac.data(), &piv, &mut rhs, params).unwrap();
        assert_eq!(
            rhs.data(),
            expect.data(),
            "n={n} kl={kl} ku={ku} nrhs={nrhs} nb={nb}"
        );
    }

    #[test]
    fn matches_core_transpose_solve_bitwise() {
        for nb in [1, 2, 4, 8, 32] {
            check(20, 2, 3, 1, nb);
        }
        check(20, 10, 7, 1, 8);
        check(20, 2, 3, 10, 8);
        check(33, 1, 1, 3, 5);
        check(8, 0, 3, 2, 4); // kl = 0: U^T sweep only
        check(8, 3, 0, 2, 4);
        check(64, 2, 3, 1, 64); // nb >= n
        check(3, 2, 2, 1, 2); // kv >= n
        check(2, 1, 1, 1, 1); // minimal
    }

    #[test]
    fn transpose_solves_transposed_system() {
        // End-to-end: build b = A^T x, solve with the kernel, compare x.
        let dev = DeviceSpec::h100_pcie();
        let (n, kl, ku) = (40usize, 3usize, 2usize);
        let (orig, _) = {
            let mut v = 0.7f64;
            let o = BandBatch::from_fn(2, n, n, kl, ku, |_, m| {
                for j in 0..n {
                    let (s, e) = m.layout.col_rows(j);
                    for i in s..e {
                        v = (v * 1.9 + 0.21).fract();
                        m.set(i, j, v - 0.5 + if i == j { 2.0 } else { 0.0 });
                    }
                }
            })
            .unwrap();
            (o, ())
        };
        let mut fac = orig.clone();
        let mut piv = PivotBatch::new(2, n, n);
        let mut info = InfoArray::new(2);
        let _ = crate::fused::gbtrf_batch_fused(
            &dev,
            &mut fac,
            &mut piv,
            &mut info,
            crate::fused::FusedParams::auto(&dev, kl),
        )
        .unwrap();
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.23).cos()).collect();
        let mut rhs = RhsBatch::<f64>::zeros(2, n, 1).unwrap();
        for id in 0..2 {
            let mut b = vec![0.0; n];
            gbatch_core::blas2::gbmv_t(1.0, orig.matrix(id), &x_true, 0.0, &mut b);
            rhs.block_mut(id).copy_from_slice(&b);
        }
        gbtrs_batch_blocked_trans(
            &dev,
            &fac.layout(),
            fac.data(),
            &piv,
            &mut rhs,
            SolveParams {
                nb: 8,
                threads: 32,
                ..Default::default()
            },
        )
        .unwrap();
        for id in 0..2 {
            for i in 0..n {
                assert!((rhs.block(id)[i] - x_true[i]).abs() < 1e-9);
            }
        }
    }
}
