//! Multicore batched band solver (the "mkl + openmp" baseline).
//!
//! The batch is split into contiguous chunks, one per worker thread
//! (OpenMP static schedule); each worker runs the sequential LAPACK-style
//! routines of `gbatch-core` on its matrices. Results are bit-identical to
//! the sequential reference regardless of the thread count, because
//! matrices are independent.

use crate::model::{gbtrf_bytes, gbtrf_flops, gbtrs_bytes, gbtrs_flops, scale_bytes, CpuSpec};
use gbatch_core::batch::{BandBatch, InfoArray, PivotBatch, RhsBatch};
use gbatch_core::gbtrs::Transpose;
use gbatch_core::layout::BandLayout;
use gbatch_core::Scalar;

/// Result of a CPU batched routine.
#[derive(Debug, Clone, Copy)]
pub struct CpuReport {
    /// Modeled time on the descriptor CPU, in seconds.
    pub model_time_s: f64,
    /// Wall-clock time of the host execution, in seconds (diagnostic; on a
    /// throttled CI box this is not comparable across machines).
    pub wall_time_s: f64,
}

/// Host worker threads for a batch on `cpu`: the modeled core count,
/// capped at the parallelism this machine offers. Only the host execution
/// is capped; the model keeps `cpu.cores`.
pub(crate) fn host_workers(cpu: &CpuSpec) -> usize {
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    (cpu.cores as usize).min(host)
}

/// Run `work(id)` for every problem id, statically chunked over `threads`
/// workers. The closure only receives disjoint data through the index, so
/// each worker wraps its own mutable chunk.
pub(crate) fn parallel_chunks<T: Send, F>(items: &mut [T], threads: usize, work: F)
where
    F: Fn(usize, &mut T) + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads <= 1 {
        for (id, item) in items.iter_mut().enumerate() {
            work(id, item);
        }
        return;
    }
    let chunk = items.len().div_ceil(threads);
    crossbeam::thread::scope(|s| {
        for (c, slice) in items.chunks_mut(chunk).enumerate() {
            let work = &work;
            s.spawn(move |_| {
                for (k, item) in slice.iter_mut().enumerate() {
                    work(c * chunk + k, item);
                }
            });
        }
    })
    .expect("worker thread panicked");
}

/// Batched band LU factorization on the CPU.
pub fn cpu_gbtrf_batch(
    cpu: &CpuSpec,
    a: &mut BandBatch,
    piv: &mut PivotBatch,
    info: &mut InfoArray,
) -> CpuReport {
    let l = a.layout();
    let batch = a.batch();
    assert_eq!(piv.batch(), batch);
    assert_eq!(info.len(), batch);
    let start = std::time::Instant::now();
    struct Prob<'a> {
        ab: &'a mut [f64],
        piv: &'a mut [i32],
        info: &'a mut i32,
    }
    let mut probs: Vec<Prob<'_>> = a
        .chunks_mut()
        .zip(piv.chunks_mut())
        .zip(info.as_mut_slice().iter_mut())
        .map(|((ab, piv), info)| Prob { ab, piv, info })
        .collect();
    parallel_chunks(&mut probs, host_workers(cpu), |_, p| {
        *p.info = gbatch_core::gbtrf::gbtrf(&l, p.ab, p.piv);
    });
    CpuReport {
        model_time_s: cpu.batch_time(batch, gbtrf_flops(&l), gbtrf_bytes(&l)),
        wall_time_s: start.elapsed().as_secs_f64(),
    }
}

/// Batched band triangular solve on the CPU.
pub fn cpu_gbtrs_batch(
    cpu: &CpuSpec,
    l: &BandLayout,
    factors: &[f64],
    piv: &PivotBatch,
    rhs: &mut RhsBatch,
) -> CpuReport {
    let batch = rhs.batch();
    assert_eq!(piv.batch(), batch);
    let stride = l.len();
    assert_eq!(factors.len(), stride * batch);
    let (n, nrhs, ldb) = (l.n, rhs.nrhs(), rhs.ldb());
    assert_eq!(n, rhs.n());
    let start = std::time::Instant::now();
    let mut blocks: Vec<&mut [f64]> = rhs.blocks_mut().collect();
    parallel_chunks(&mut blocks, host_workers(cpu), |id, b| {
        let ab = &factors[id * stride..(id + 1) * stride];
        gbatch_core::gbtrs::gbtrs(Transpose::No, l, ab, piv.pivots(id), b, ldb, nrhs);
    });
    CpuReport {
        model_time_s: cpu.batch_time(batch, gbtrs_flops(l, nrhs), gbtrs_bytes(l, nrhs)),
        wall_time_s: start.elapsed().as_secs_f64(),
    }
}

/// Batched band factorize-and-solve on the CPU (`xGBSV` per matrix). The
/// model charges the `f64` flop count at either precision and scales the
/// memory traffic by the element width ([`scale_bytes`]).
pub fn cpu_gbsv_batch<S: Scalar>(
    cpu: &CpuSpec,
    a: &mut BandBatch<S>,
    piv: &mut PivotBatch,
    rhs: &mut RhsBatch<S>,
    info: &mut InfoArray,
) -> CpuReport {
    let l = a.layout();
    let batch = a.batch();
    assert_eq!(piv.batch(), batch);
    assert_eq!(rhs.batch(), batch);
    assert_eq!(info.len(), batch);
    let (nrhs, ldb) = (rhs.nrhs(), rhs.ldb());
    let start = std::time::Instant::now();
    struct Prob<'a, S> {
        ab: &'a mut [S],
        piv: &'a mut [i32],
        b: &'a mut [S],
        info: &'a mut i32,
    }
    let mut probs: Vec<Prob<'_, S>> = a
        .chunks_mut()
        .zip(piv.chunks_mut())
        .zip(rhs.blocks_mut())
        .zip(info.as_mut_slice().iter_mut())
        .map(|(((ab, piv), b), info)| Prob { ab, piv, b, info })
        .collect();
    parallel_chunks(&mut probs, host_workers(cpu), |_, p| {
        *p.info = gbatch_core::gbsv::gbsv(&l, p.ab, p.piv, p.b, ldb, nrhs);
    });
    let flops = gbtrf_flops(&l) + gbtrs_flops(&l, nrhs);
    let bytes = scale_bytes::<S>(gbtrf_bytes(&l) + gbtrs_bytes(&l, nrhs));
    CpuReport {
        model_time_s: cpu.batch_time(batch, flops, bytes),
        wall_time_s: start.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbatch_core::blas2::gbmv;
    use gbatch_core::residual::backward_error;

    fn random_system(batch: usize, n: usize, kl: usize, ku: usize) -> (BandBatch, RhsBatch) {
        let mut v = 0.83f64;
        let a = BandBatch::from_fn(batch, n, n, kl, ku, |id, m| {
            for j in 0..n {
                let (s, e) = m.layout.col_rows(j);
                for i in s..e {
                    v = (v * 2.4 + 0.051 + id as f64 * 1e-4).fract();
                    m.set(i, j, v - 0.5 + if i == j { 1.5 } else { 0.0 });
                }
            }
        })
        .unwrap();
        let b =
            RhsBatch::from_fn(batch, n, 1, |id, i, _| ((id * 7 + i) as f64 * 0.19).sin()).unwrap();
        (a, b)
    }

    #[test]
    fn gbsv_solves_every_matrix() {
        let cpu = CpuSpec::test_cpu();
        let (batch, n, kl, ku) = (9, 40, 2, 3);
        let (mut a, mut b) = random_system(batch, n, kl, ku);
        let (a0, b0) = (a.clone(), b.clone());
        let mut piv = PivotBatch::new(batch, n, n);
        let mut info = InfoArray::new(batch);
        let rep = cpu_gbsv_batch(&cpu, &mut a, &mut piv, &mut b, &mut info);
        assert!(info.all_ok());
        assert!(rep.model_time_s > 0.0);
        for id in 0..batch {
            let berr = backward_error(a0.matrix(id), b.block(id), b0.block(id));
            assert!(berr < 1e-12, "matrix {id}: berr {berr:.2e}");
        }
    }

    #[test]
    fn multithreaded_equals_sequential_bitwise() {
        let (batch, n, kl, ku) = (7, 24, 3, 1);
        let (a0, _) = random_system(batch, n, kl, ku);
        let l = a0.layout();
        // Factor on an explicit worker count, recording which threads ran.
        let factor = |threads: usize| {
            let mut a = a0.clone();
            let mut piv = PivotBatch::new(batch, n, n);
            let mut info = InfoArray::new(batch);
            let workers = std::sync::Mutex::new(std::collections::HashSet::new());
            let mut probs: Vec<_> = a
                .chunks_mut()
                .zip(piv.chunks_mut())
                .zip(info.as_mut_slice().iter_mut())
                .collect();
            parallel_chunks(&mut probs, threads, |_, ((ab, p), info)| {
                **info = gbatch_core::gbtrf::gbtrf(&l, ab, p);
                workers.lock().unwrap().insert(std::thread::current().id());
            });
            let workers = workers.into_inner().unwrap().len();
            (a, piv, info, workers)
        };
        let (a_par, piv_par, info_par, workers) = factor(4);
        assert_eq!(workers, 4, "7 problems in chunks of 2 over 4 workers");
        let (a_seq, piv_seq, info_seq, _) = factor(1);
        assert_eq!(a_par.data(), a_seq.data());
        assert_eq!(piv_par, piv_seq);
        assert_eq!(info_par, info_seq);

        // The batch entry point agrees at any modeled core count.
        let many = CpuSpec {
            cores: 8,
            ..CpuSpec::test_cpu()
        };
        let mut a = a0.clone();
        let mut piv = PivotBatch::new(batch, n, n);
        let mut info = InfoArray::new(batch);
        cpu_gbtrf_batch(&many, &mut a, &mut piv, &mut info);
        assert_eq!(a.data(), a_seq.data());
        assert_eq!(piv, piv_seq);
        assert_eq!(info, info_seq);
    }

    #[test]
    fn host_workers_cap_at_the_machine_not_the_model() {
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        let big = CpuSpec::xeon_gold_6140();
        assert_eq!(host_workers(&big), (big.cores as usize).min(host));
        let one = CpuSpec {
            cores: 1,
            ..CpuSpec::test_cpu()
        };
        assert_eq!(host_workers(&one), 1);
    }

    #[test]
    fn factor_then_solve_matches_gbsv() {
        let cpu = CpuSpec::test_cpu();
        let (batch, n, kl, ku) = (4, 30, 2, 3);
        let (mut a1, mut b1) = random_system(batch, n, kl, ku);
        let mut a2 = a1.clone();
        let mut b2 = b1.clone();
        let mut p1 = PivotBatch::new(batch, n, n);
        let mut p2 = PivotBatch::new(batch, n, n);
        let mut i1 = InfoArray::new(batch);
        let mut i2 = InfoArray::new(batch);
        cpu_gbsv_batch(&cpu, &mut a1, &mut p1, &mut b1, &mut i1);
        cpu_gbtrf_batch(&cpu, &mut a2, &mut p2, &mut i2);
        let l = a2.layout();
        let factors = a2.data().to_vec();
        cpu_gbtrs_batch(&cpu, &l, &factors, &p2, &mut b2);
        assert_eq!(b1.data(), b2.data());
        assert_eq!(p1, p2);
    }

    #[test]
    fn model_time_monotone_in_batch_and_rhs() {
        let cpu = CpuSpec::xeon_gold_6140();
        let l = BandLayout::factor(256, 256, 2, 3).unwrap();
        let t1 = cpu.batch_time(1000, gbtrf_flops(&l), gbtrf_bytes(&l));
        let t2 = cpu.batch_time(2000, gbtrf_flops(&l), gbtrf_bytes(&l));
        assert!(t2 > t1);
        let s1 = cpu.batch_time(1000, gbtrs_flops(&l, 1), gbtrs_bytes(&l, 1));
        let s10 = cpu.batch_time(1000, gbtrs_flops(&l, 10), gbtrs_bytes(&l, 10));
        assert!(
            s10 > 1.8 * s1,
            "10 RHS should cost much more: {s1} vs {s10}"
        );
    }

    #[test]
    fn residual_stays_small_under_gbmv_check() {
        // Round-trip through gbmv to double-check the RHS convention.
        let cpu = CpuSpec::test_cpu();
        let (mut a, _) = random_system(1, 12, 1, 2);
        let a0 = a.clone();
        let x_true: Vec<f64> = (0..12).map(|i| i as f64 - 6.0).collect();
        let mut y = vec![0.0; 12];
        gbmv(1.0, a0.matrix(0), &x_true, 0.0, &mut y);
        let mut rhs = RhsBatch::zeros(1, 12, 1).unwrap();
        rhs.block_mut(0).copy_from_slice(&y);
        let mut piv = PivotBatch::new(1, 12, 12);
        let mut info = InfoArray::new(1);
        cpu_gbsv_batch(&cpu, &mut a, &mut piv, &mut rhs, &mut info);
        for i in 0..12 {
            assert!((rhs.block(0)[i] - x_true[i]).abs() < 1e-9);
        }
    }
}
