//! Batched tridiagonal solve by parallel cyclic reduction (PCR).
//!
//! The paper's §8 diagnosis is that "band matrices do not have sufficient
//! parallelism within a single problem" — every design in the paper
//! processes columns *sequentially* and extracts parallelism across the
//! batch only. For the narrowest band (`kl = ku = 1`) there is a classic
//! counterexample: cyclic reduction exposes `n/2` independent eliminations
//! per step and finishes in `ceil(log2 n)` steps, turning the per-matrix
//! critical path from `O(n)` into `O(log n)`.
//!
//! PCR does not pivot, so it is restricted to diagonally dominant (or
//! otherwise pivot-free) systems — exactly the implicit-integrator
//! matrices `I - gamma*J` of the SUNDIALS workload (§2.3). The dispatch
//! contract: use [`pcr_solve_batch`] when
//! [`TridiagBatch::is_diagonally_dominant`] holds, fall back to the pivoted band LU
//! otherwise.

use gbatch_core::batch::RhsBatch;
use gbatch_gpu_sim::{launch, DeviceSpec, LaunchConfig, LaunchError, LaunchReport};

/// A uniform batch of tridiagonal systems stored as three diagonals
/// (`lower[0]` and `upper[n-1]` are unused).
#[derive(Debug, Clone, PartialEq)]
pub struct TridiagBatch {
    n: usize,
    batch: usize,
    /// Sub-diagonal, `n` entries per system (`lower[0] = 0`).
    pub lower: Vec<f64>,
    /// Diagonal, `n` entries per system.
    pub diag: Vec<f64>,
    /// Super-diagonal, `n` entries per system (`upper[n-1] = 0`).
    pub upper: Vec<f64>,
}

impl TridiagBatch {
    /// Build from closures `(id, i) -> value`.
    pub fn from_fn(
        batch: usize,
        n: usize,
        mut lo: impl FnMut(usize, usize) -> f64,
        mut d: impl FnMut(usize, usize) -> f64,
        mut up: impl FnMut(usize, usize) -> f64,
    ) -> Self {
        let mut lower = vec![0.0; batch * n];
        let mut diag = vec![0.0; batch * n];
        let mut upper = vec![0.0; batch * n];
        for id in 0..batch {
            for i in 0..n {
                if i > 0 {
                    lower[id * n + i] = lo(id, i);
                }
                diag[id * n + i] = d(id, i);
                if i + 1 < n {
                    upper[id * n + i] = up(id, i);
                }
            }
        }
        TridiagBatch {
            n,
            batch,
            lower,
            diag,
            upper,
        }
    }

    /// System order.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of systems.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// `y = A x` for system `id` (test/residual helper).
    pub fn matvec(&self, id: usize, x: &[f64], y: &mut [f64]) {
        let n = self.n;
        let (lo, d, up) = (
            &self.lower[id * n..],
            &self.diag[id * n..],
            &self.upper[id * n..],
        );
        for i in 0..n {
            let mut acc = d[i] * x[i];
            if i > 0 {
                acc += lo[i] * x[i - 1];
            }
            if i + 1 < n {
                acc += up[i] * x[i + 1];
            }
            y[i] = acc;
        }
    }

    /// Row-wise diagonal dominance check for system `id` (the PCR safety
    /// condition).
    pub fn is_diagonally_dominant(&self, id: usize) -> bool {
        let n = self.n;
        (0..n).all(|i| {
            let off = self.lower[id * n + i].abs() + self.upper[id * n + i].abs();
            self.diag[id * n + i].abs() >= off
        })
    }
}

/// Shared bytes of the PCR kernel: three diagonals + RHS, double buffered.
pub fn pcr_smem_bytes(n: usize) -> usize {
    2 * 4 * n * 8
}

/// Batched PCR solve: one block per system, `ceil(log2 n)` elimination
/// steps, each fully parallel over the `n` equations. Overwrites `rhs`
/// with the solutions.
///
/// The cost recording shows PCR's trade: `O(n log n)` total work (more
/// flops than the Thomas/LU `O(n)`) for an `O(log n)` critical path —
/// the classic latency-for-work exchange the paper's LU kernels cannot
/// make because of pivoting.
pub fn pcr_solve_batch(
    dev: &DeviceSpec,
    a: &TridiagBatch,
    rhs: &mut RhsBatch,
    threads: u32,
) -> Result<LaunchReport, LaunchError> {
    let n = a.n();
    let batch = a.batch();
    assert_eq!(rhs.batch(), batch);
    assert_eq!(rhs.n(), n);
    assert_eq!(rhs.nrhs(), 1, "PCR kernel targets single-RHS batches");
    let cfg = LaunchConfig::new(threads, pcr_smem_bytes(n) as u32).with_label("pcr_solve");

    struct Prob<'a> {
        lo: &'a [f64],
        d: &'a [f64],
        up: &'a [f64],
        b: &'a mut [f64],
    }
    let mut probs: Vec<Prob<'_>> = rhs
        .blocks_mut()
        .enumerate()
        .map(|(id, b)| Prob {
            lo: &a.lower[id * n..(id + 1) * n],
            d: &a.diag[id * n..(id + 1) * n],
            up: &a.upper[id * n..(id + 1) * n],
            b,
        })
        .collect();

    launch(dev, &cfg, &mut probs, |p, ctx| {
        let off = ctx.smem.alloc(2 * 4 * n);
        let mut lo = p.lo.to_vec();
        let mut d = p.d.to_vec();
        let mut up = p.up.to_vec();
        let mut b = p.b[..n].to_vec();
        ctx.gld(4 * n * 8);
        ctx.sync();

        let mut stride = 1usize;
        while stride < n {
            let mut nlo = vec![0.0; n];
            let mut nd = vec![0.0; n];
            let mut nup = vec![0.0; n];
            let mut nb = vec![0.0; n];
            for i in 0..n {
                // Eliminate neighbours at distance `stride`.
                let (mut l2, mut d2, mut u2, mut b2) = (0.0, d[i], 0.0, b[i]);
                if i >= stride {
                    let k = i - stride;
                    let alpha = -lo[i] / d[k];
                    d2 += alpha * up[k];
                    l2 = alpha * lo[k];
                    b2 += alpha * b[k];
                }
                if i + stride < n {
                    let k = i + stride;
                    let beta = -up[i] / d[k];
                    d2 += beta * lo[k];
                    u2 = beta * up[k];
                    b2 += beta * b[k];
                }
                nlo[i] = l2;
                nd[i] = d2;
                nup[i] = u2;
                nb[i] = b2;
            }
            lo = nlo;
            d = nd;
            up = nup;
            b = nb;
            // One fully-parallel step: n equations, ~12 flops each.
            ctx.smem_work(n, 12);
            ctx.sync();
            stride *= 2;
        }
        for i in 0..n {
            b[i] /= d[i];
        }
        ctx.smem_work(n, 1);
        p.b[..n].copy_from_slice(&b);
        ctx.gst(n * 8);
        ctx.sync();
        let _ = off;
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbatch_core::batch::{BandBatch, InfoArray, PivotBatch};

    fn dominant(batch: usize, n: usize) -> TridiagBatch {
        let mut v = 0.37f64;
        let mut next = move || {
            v = (v * 2.1 + 0.13).fract();
            v - 0.5
        };
        let offs: Vec<f64> = (0..2 * batch * n).map(|_| next()).collect();
        TridiagBatch::from_fn(
            batch,
            n,
            |id, i| offs[id * n + i],
            |_, _| 3.0,
            |id, i| offs[batch * n + id * n + i],
        )
    }

    #[test]
    fn pcr_solves_dominant_batches() {
        let dev = DeviceSpec::h100_pcie();
        for n in [2usize, 3, 7, 16, 33, 128, 193] {
            let batch = 4;
            let a = dominant(batch, n);
            assert!((0..batch).all(|id| a.is_diagonally_dominant(id)));
            let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.31).sin()).collect();
            let mut rhs = RhsBatch::zeros(batch, n, 1).unwrap();
            for id in 0..batch {
                let mut y = vec![0.0; n];
                a.matvec(id, &x_true, &mut y);
                rhs.block_mut(id).copy_from_slice(&y);
            }
            let _ = pcr_solve_batch(&dev, &a, &mut rhs, 64).unwrap();
            for id in 0..batch {
                for i in 0..n {
                    let err = (rhs.block(id)[i] - x_true[i]).abs();
                    assert!(err < 1e-10, "n={n} id={id} row {i}: err {err:.2e}");
                }
            }
        }
    }

    #[test]
    fn pcr_matches_band_lu_solutions() {
        let dev = DeviceSpec::h100_pcie();
        let (batch, n) = (3usize, 64usize);
        let a = dominant(batch, n);
        let mut rhs =
            RhsBatch::from_fn(batch, n, 1, |id, i, _| ((id + i) as f64 * 0.17).cos()).unwrap();
        let rhs0 = rhs.clone();
        let _ = pcr_solve_batch(&dev, &a, &mut rhs, 64).unwrap();

        // Same systems through the pivoted band LU.
        let mut g = BandBatch::from_fn(batch, n, n, 1, 1, |id, m| {
            for i in 0..n {
                m.set(i, i, a.diag[id * n + i]);
                if i > 0 {
                    m.set(i, i - 1, a.lower[id * n + i]);
                }
                if i + 1 < n {
                    m.set(i, i + 1, a.upper[id * n + i]);
                }
            }
        })
        .unwrap();
        let mut piv = PivotBatch::new(batch, n, n);
        let mut info = InfoArray::new(batch);
        let mut b2 = rhs0.clone();
        let _ = crate::dispatch::dgbsv_batch(
            &dev,
            &mut g,
            &mut piv,
            &mut b2,
            &mut info,
            &crate::dispatch::GbsvOptions::default(),
        )
        .unwrap();
        for id in 0..batch {
            for i in 0..n {
                let (x1, x2) = (rhs.block(id)[i], b2.block(id)[i]);
                assert!((x1 - x2).abs() < 1e-10, "id={id} row {i}: {x1} vs {x2}");
            }
        }
    }

    #[test]
    fn log_depth_critical_path_beats_lu_for_large_n() {
        // PCR's modeled critical path is O(log n) vs the LU kernels' O(n):
        // for large single-wave batches PCR must win despite doing more
        // total work.
        let dev = DeviceSpec::h100_pcie();
        let (batch, n) = (100usize, 1024usize);
        let a = dominant(batch, n);
        let mut rhs =
            RhsBatch::from_fn(batch, n, 1, |id, i, _| ((id + i) as f64 * 0.11).sin()).unwrap();
        let pcr = pcr_solve_batch(&dev, &a, &mut rhs, 256).unwrap();

        let mut g = BandBatch::from_fn(batch, n, n, 1, 1, |id, m| {
            for i in 0..n {
                m.set(i, i, a.diag[id * n + i]);
                if i > 0 {
                    m.set(i, i - 1, a.lower[id * n + i]);
                }
                if i + 1 < n {
                    m.set(i, i + 1, a.upper[id * n + i]);
                }
            }
        })
        .unwrap();
        let mut piv = PivotBatch::new(batch, n, n);
        let mut info = InfoArray::new(batch);
        let mut b2 = rhs.clone();
        // Pin the paper's column-major policy: the claim is about the O(n)
        // sequential-column designs (the batch-major interleaved LU has no
        // per-column barriers and is itself competitive with PCR here).
        let lu = crate::dispatch::dgbsv_batch(
            &dev,
            &mut g,
            &mut piv,
            &mut b2,
            &mut info,
            &crate::dispatch::GbsvOptions {
                algo: crate::dispatch::FactorAlgo::ColumnMajor,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            pcr.time.secs() < lu.time.secs() / 4.0,
            "PCR {:.3e}s should crush the sequential-column LU {:.3e}s at n=1024",
            pcr.time.secs(),
            lu.time.secs()
        );
    }

    #[test]
    fn dominance_check_flags_bad_rows() {
        let a = TridiagBatch::from_fn(1, 4, |_, _| 2.0, |_, _| 1.0, |_, _| 2.0);
        assert!(!a.is_diagonally_dominant(0));
        let b = TridiagBatch::from_fn(1, 4, |_, _| 1.0, |_, _| 3.0, |_, _| 1.0);
        assert!(b.is_diagonally_dominant(0));
    }
}
