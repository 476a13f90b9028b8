//! Batched SPD band Cholesky kernels — the natural extension of the
//! paper's design space for the symmetric positive definite systems of
//! §2.2 (XGC's elliptic collision operator).
//!
//! Cholesky needs no pivoting: no fill-in rows (`kd + 1` band rows instead
//! of `2*kl + ku + 1`), no row swaps, no `ju` bookkeeping — so both the
//! shared-memory footprint and the per-column critical path are roughly
//! half of the LU kernels'. The same two designs are provided:
//!
//! - [`pbtrf_batch_fused`] — whole matrix in shared memory;
//! - [`pbtrf_batch_window`] — sliding window of `nb + kd` columns
//!   (a step's rank-1 update reaches only `kd` columns ahead);
//! - [`pbsv_batch_fused`] — factor+solve in one kernel, like §7's GBSV.

use gbatch_core::batch::InfoArray;
use gbatch_core::pb::PbLayout;
use gbatch_gpu_sim::{launch, BlockContext, DeviceSpec, LaunchConfig, LaunchError, LaunchReport};

/// A uniform batch of SPD band matrices (lower storage).
#[derive(Debug, Clone, PartialEq)]
pub struct PbBatch {
    layout: PbLayout,
    batch: usize,
    data: Vec<f64>,
}

impl PbBatch {
    /// Build from a closure writing each matrix's lower band
    /// (`set(i, j, v)` with `j <= i <= j + kd`).
    pub fn from_fn(
        batch: usize,
        n: usize,
        kd: usize,
        mut fill: impl FnMut(usize, &PbLayout, &mut [f64]),
    ) -> Self {
        let layout = PbLayout::new(n, kd);
        let mut data = vec![0.0; layout.len() * batch];
        for (id, chunk) in data.chunks_mut(layout.len()).enumerate() {
            fill(id, &layout, chunk);
        }
        PbBatch {
            layout,
            batch,
            data,
        }
    }

    /// Shared layout.
    pub fn layout(&self) -> PbLayout {
        self.layout
    }

    /// Number of matrices.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Band array of matrix `id`.
    pub fn matrix(&self, id: usize) -> &[f64] {
        let s = self.layout.len();
        &self.data[id * s..(id + 1) * s]
    }

    /// Mutable per-matrix chunks.
    pub fn chunks_mut(&mut self) -> impl Iterator<Item = &mut [f64]> {
        let s = self.layout.len();
        self.data.chunks_mut(s)
    }

    /// Whole storage.
    pub fn data(&self) -> &[f64] {
        &self.data
    }
}

/// Shared bytes for the fused Cholesky (whole matrix).
pub fn pb_fused_smem_bytes(l: &PbLayout) -> usize {
    l.len() * 8
}

fn chol_column_steps(
    l: &PbLayout,
    buf: &mut [f64],
    col0: usize,
    j_range: std::ops::Range<usize>,
    info: &mut i32,
    ctx: &mut BlockContext,
) {
    let (n, kd, ldab) = (l.n, l.kd, l.ldab);
    for j in j_range {
        if *info != 0 {
            break;
        }
        let base = (j - col0) * ldab;
        let ajj = buf[base];
        ctx.smem_trip(); // read + sqrt of the pivot, broadcast
        if ajj <= 0.0 {
            *info = (j + 1) as i32;
            break;
        }
        let ajj = ajj.sqrt();
        buf[base] = ajj;
        let kn = kd.min(n - 1 - j);
        if kn > 0 {
            for k in 1..=kn {
                buf[base + k] /= ajj;
            }
            ctx.smem_work(kn, 1);
            for c in 1..=kn {
                let xc = buf[base + c];
                if xc == 0.0 {
                    continue;
                }
                let col = (j + c - col0) * ldab;
                for r in c..=kn {
                    buf[col + (r - c)] -= buf[base + r] * xc;
                }
            }
            ctx.smem_work(kn * (kn + 1) / 2, 2);
            ctx.sync();
        }
    }
}

/// Batched fully fused band Cholesky. Numerically identical to
/// [`gbatch_core::pb::pbtf2`] per matrix.
pub fn pbtrf_batch_fused(
    dev: &DeviceSpec,
    a: &mut PbBatch,
    info: &mut InfoArray,
    threads: u32,
) -> Result<LaunchReport, LaunchError> {
    let l = a.layout();
    assert_eq!(info.len(), a.batch());
    let cfg = LaunchConfig::new(
        threads.max((l.kd + 1) as u32),
        pb_fused_smem_bytes(&l) as u32,
    )
    .with_label("pbtrf_fused");
    struct Prob<'a> {
        ab: &'a mut [f64],
        info: &'a mut i32,
    }
    let mut probs: Vec<Prob<'_>> = a
        .chunks_mut()
        .zip(info.as_mut_slice().iter_mut())
        .map(|(ab, info)| Prob { ab, info })
        .collect();
    launch(dev, &cfg, &mut probs, |p, ctx| {
        let len = l.len();
        let off = ctx.smem.alloc(len);
        let mut scratch = ctx.take_scratch();
        let buf = scratch.stale::<f64>(len);
        buf.copy_from_slice(p.ab);
        ctx.gld(len * 8);
        ctx.sync();
        let mut infoc = 0i32;
        chol_column_steps(&l, buf, 0, 0..l.n, &mut infoc, ctx);
        *p.info = infoc;
        p.ab.copy_from_slice(buf);
        ctx.gst(len * 8);
        ctx.sync();
        ctx.smem.slice_mut(off, len).copy_from_slice(buf);
        ctx.put_scratch(scratch);
    })
}

/// Shared bytes for the sliding-window Cholesky: `nb + kd` columns of
/// `kd + 1` rows — constant in `n`.
pub fn pb_window_smem_bytes(l: &PbLayout, nb: usize) -> usize {
    (nb + l.kd).min(l.n) * l.ldab * 8
}

/// Batched sliding-window band Cholesky.
pub fn pbtrf_batch_window(
    dev: &DeviceSpec,
    a: &mut PbBatch,
    info: &mut InfoArray,
    nb: usize,
    threads: u32,
) -> Result<LaunchReport, LaunchError> {
    let l = a.layout();
    assert!(nb > 0);
    assert_eq!(info.len(), a.batch());
    let (n, kd, ldab) = (l.n, l.kd, l.ldab);
    let wcols = (nb + kd).min(n);
    let cfg = LaunchConfig::new(
        threads.max((kd + 1) as u32),
        pb_window_smem_bytes(&l, nb) as u32,
    )
    .with_label("pbtrf_window");
    struct Prob<'a> {
        ab: &'a mut [f64],
        info: &'a mut i32,
    }
    let mut probs: Vec<Prob<'_>> = a
        .chunks_mut()
        .zip(info.as_mut_slice().iter_mut())
        .map(|(ab, info)| Prob { ab, info })
        .collect();
    launch(dev, &cfg, &mut probs, |p, ctx| {
        let wlen = wcols * ldab;
        let off = ctx.smem.alloc(wlen);
        let mut scratch = ctx.take_scratch();
        let buf = scratch.zeroed::<f64>(wlen);
        let mut loaded_end = wcols.min(n);
        buf[..loaded_end * ldab].copy_from_slice(&p.ab[..loaded_end * ldab]);
        ctx.gld(loaded_end * ldab * 8);
        ctx.sync();
        let mut infoc = 0i32;
        let mut j0 = 0usize;
        while j0 < n && infoc == 0 {
            let jb = nb.min(n - j0);
            chol_column_steps(&l, buf, j0, j0..j0 + jb, &mut infoc, ctx);
            p.ab[j0 * ldab..(j0 + jb) * ldab].copy_from_slice(&buf[..jb * ldab]);
            ctx.gst(jb * ldab * 8);
            ctx.sync();
            let next_j0 = j0 + jb;
            if next_j0 >= n {
                break;
            }
            let resident = loaded_end - j0;
            let keep = resident - jb;
            buf.copy_within(jb * ldab..resident * ldab, 0);
            ctx.smem_work(keep * ldab, 0);
            let new_end = (next_j0 + wcols).min(n);
            if new_end > loaded_end {
                let dst = (loaded_end - next_j0) * ldab;
                buf[dst..dst + (new_end - loaded_end) * ldab]
                    .copy_from_slice(&p.ab[loaded_end * ldab..new_end * ldab]);
                ctx.gld((new_end - loaded_end) * ldab * 8);
                loaded_end = new_end;
            }
            ctx.sync();
            j0 = next_j0;
        }
        *p.info = infoc;
        ctx.smem.slice_mut(off, wlen).copy_from_slice(buf);
        ctx.put_scratch(scratch);
    })
}

/// Batched fused Cholesky factor-and-solve (`PBSV`), one RHS block per
/// matrix held alongside the factor in shared memory.
pub fn pbsv_batch_fused(
    dev: &DeviceSpec,
    a: &mut PbBatch,
    rhs: &mut [f64],
    nrhs: usize,
    info: &mut InfoArray,
    threads: u32,
) -> Result<LaunchReport, LaunchError> {
    let l = a.layout();
    let n = l.n;
    let batch = a.batch();
    assert_eq!(rhs.len(), batch * n * nrhs);
    assert_eq!(info.len(), batch);
    let smem = pb_fused_smem_bytes(&l) + n * nrhs * 8;
    let cfg =
        LaunchConfig::new(threads.max((l.kd + 1) as u32), smem as u32).with_label("pbsv_fused");
    struct Prob<'a> {
        ab: &'a mut [f64],
        b: &'a mut [f64],
        info: &'a mut i32,
    }
    let mut probs: Vec<Prob<'_>> = a
        .chunks_mut()
        .zip(rhs.chunks_mut(n * nrhs))
        .zip(info.as_mut_slice().iter_mut())
        .map(|((ab, b), info)| Prob { ab, b, info })
        .collect();
    launch(dev, &cfg, &mut probs, |p, ctx| {
        let len = l.len();
        let a_off = ctx.smem.alloc(len);
        let b_off = ctx.smem.alloc(n * nrhs);
        let mut scratch = ctx.take_scratch();
        let buf = scratch.stale::<f64>(len);
        buf.copy_from_slice(p.ab);
        ctx.gld((len + n * nrhs) * 8);
        ctx.sync();
        let mut infoc = 0i32;
        chol_column_steps(&l, buf, 0, 0..n, &mut infoc, ctx);
        *p.info = infoc;
        if infoc == 0 {
            gbatch_core::pb::pbtrs(&l, buf, p.b, n, nrhs);
            ctx.smem_work(2 * n * (l.kd + 1) * nrhs, 2);
            ctx.seq_cycles(2.0 * n as f64);
            ctx.sync();
        }
        p.ab.copy_from_slice(buf);
        ctx.gst((len + n * nrhs) * 8);
        ctx.sync();
        ctx.smem.slice_mut(a_off, len).copy_from_slice(buf);
        ctx.put_scratch(scratch);
        let _ = b_off;
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbatch_core::pb::{pbmv, pbtf2};

    fn spd_batch(batch: usize, n: usize, kd: usize) -> PbBatch {
        let mut v = 0.61f64;
        PbBatch::from_fn(batch, n, kd, |id, l, ab| {
            for j in 0..n {
                let kn = kd.min(n - 1 - j);
                let mut sum = 0.0;
                for k in 1..=kn {
                    v = (v * 2.7 + 0.083 + id as f64 * 1e-4).fract();
                    let w = v - 0.5;
                    ab[l.idx(j + k, j)] = w;
                    sum += w.abs();
                }
                ab[l.idx(j, j)] = 2.0 * (sum + 1.0) + kd as f64;
            }
        })
    }

    #[test]
    fn fused_and_window_match_sequential_bitwise() {
        let dev = DeviceSpec::h100_pcie();
        for (n, kd, nb) in [(24usize, 3usize, 4usize), (40, 9, 8), (9, 1, 2), (16, 0, 4)] {
            let a0 = spd_batch(3, n, kd);
            let expected: Vec<(Vec<f64>, i32)> = (0..3)
                .map(|id| {
                    let mut ab = a0.matrix(id).to_vec();
                    let i = pbtf2(&a0.layout(), &mut ab);
                    (ab, i)
                })
                .collect();
            let mut a1 = a0.clone();
            let mut i1 = InfoArray::new(3);
            let _ = pbtrf_batch_fused(&dev, &mut a1, &mut i1, 32).unwrap();
            let mut a2 = a0.clone();
            let mut i2 = InfoArray::new(3);
            let _ = pbtrf_batch_window(&dev, &mut a2, &mut i2, nb, 32).unwrap();
            for id in 0..3 {
                assert_eq!(i1.get(id), expected[id].1);
                assert_eq!(i2.get(id), expected[id].1);
                assert_eq!(a1.matrix(id), &expected[id].0[..], "fused n={n} kd={kd}");
                assert_eq!(
                    a2.matrix(id),
                    &expected[id].0[..],
                    "window n={n} kd={kd} nb={nb}"
                );
            }
        }
    }

    #[test]
    fn pbsv_solves_batch() {
        let dev = DeviceSpec::mi250x_gcd();
        let (batch, n, kd, nrhs) = (8usize, 32usize, 4usize, 2usize);
        let a0 = spd_batch(batch, n, kd);
        let mut xs = vec![0.0; batch * n * nrhs];
        for (k, v) in xs.iter_mut().enumerate() {
            *v = ((k * 3 % 17) as f64) - 8.0;
        }
        let mut rhs = vec![0.0; batch * n * nrhs];
        for id in 0..batch {
            for c in 0..nrhs {
                let x = &xs[(id * nrhs + c) * n..(id * nrhs + c + 1) * n];
                let mut y = vec![0.0; n];
                pbmv(&a0.layout(), a0.matrix(id), x, &mut y);
                rhs[(id * nrhs + c) * n..(id * nrhs + c + 1) * n].copy_from_slice(&y);
            }
        }
        let mut a = a0.clone();
        let mut info = InfoArray::new(batch);
        let _ = pbsv_batch_fused(&dev, &mut a, &mut rhs, nrhs, &mut info, 32).unwrap();
        assert!(info.all_ok());
        for k in 0..batch * n * nrhs {
            assert!((rhs[k] - xs[k]).abs() < 1e-9, "element {k}");
        }
    }

    #[test]
    fn cholesky_beats_lu_in_modeled_time() {
        // Same SPD systems through the LU path: Cholesky must be cheaper
        // (half the flops, ~40% of the shared footprint, no pivot path).
        let dev = DeviceSpec::mi250x_gcd();
        let (batch, n, kd) = (200usize, 192usize, 9usize);
        let a0 = spd_batch(batch, n, kd);
        let mut a = a0.clone();
        let mut info = InfoArray::new(batch);
        let chol = pbtrf_batch_window(&dev, &mut a, &mut info, 8, 32).unwrap();
        assert!(info.all_ok());

        // Equivalent general-band batch (kl = ku = kd).
        let mut g = gbatch_core::batch::BandBatch::from_fn(batch, n, n, kd, kd, |id, m| {
            let l = a0.layout();
            let ab = a0.matrix(id);
            for j in 0..n {
                let kn = kd.min(n - 1 - j);
                m.set(j, j, ab[l.idx(j, j)]);
                for k in 1..=kn {
                    m.set(j + k, j, ab[l.idx(j + k, j)]);
                    m.set(j, j + k, ab[l.idx(j + k, j)]);
                }
            }
        })
        .unwrap();
        let mut piv = gbatch_core::batch::PivotBatch::new(batch, n, n);
        let mut ginfo = InfoArray::new(batch);
        let lu = crate::window::gbtrf_batch_window(
            &dev,
            &mut g,
            &mut piv,
            &mut ginfo,
            crate::window::WindowParams {
                nb: 8,
                threads: 32,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            chol.time.secs() < 0.7 * lu.time.secs(),
            "Cholesky {:.3e}s should clearly beat LU {:.3e}s on SPD systems",
            chol.time.secs(),
            lu.time.secs()
        );
    }

    #[test]
    fn indefinite_matrix_flagged() {
        let dev = DeviceSpec::h100_pcie();
        let mut a = spd_batch(2, 10, 2);
        {
            let l = a.layout();
            let chunk = a.chunks_mut().nth(1).unwrap();
            chunk[l.idx(5, 5)] = -1.0;
        }
        let mut info = InfoArray::new(2);
        let _ = pbtrf_batch_fused(&dev, &mut a, &mut info, 32).unwrap();
        assert_eq!(info.get(0), 0);
        assert_eq!(info.get(1), 6);
    }
}
