//! Batched expert solves on the CPU: the `gbsvx`-style pipeline
//! (equilibrate, factor, solve, refine, condition-estimate) applied to a
//! whole batch with OpenMP-style parallelism — what a cautious PELE-style
//! application (paper §2.1) runs on the host for its worst-conditioned
//! batches.

use crate::model::CpuSpec;
use crate::solver::{host_workers, parallel_chunks, CpuReport};
use gbatch_core::band::BandMatrix;
use gbatch_core::batch::BandBatch;
use gbatch_core::gbsvx::{gbsvx, GbsvxResult};

/// Expert-solve every system of the batch (`nrhs` right-hand sides each,
/// blocks of `n * nrhs` in `rhs`). Returns per-system results plus the
/// modeled time (the expert path costs roughly 3x a plain solve: condition
/// estimate + refinement sweeps re-stream the band).
pub fn cpu_gbsvx_batch(
    cpu: &CpuSpec,
    a: &BandBatch,
    rhs: &mut [f64],
    nrhs: usize,
) -> (Vec<GbsvxResult>, CpuReport) {
    let l = a.layout();
    let n = l.n;
    let batch = a.batch();
    assert_eq!(rhs.len(), batch * n * nrhs);
    let start = std::time::Instant::now();

    let mut results: Vec<Option<GbsvxResult>> = (0..batch).map(|_| None).collect();
    struct Task<'a> {
        mat: BandMatrix,
        b: &'a mut [f64],
        out: &'a mut Option<GbsvxResult>,
    }
    let mut tasks: Vec<Task<'_>> = rhs
        .chunks_mut(n * nrhs)
        .zip(results.iter_mut())
        .enumerate()
        .map(|(id, (b, out))| Task {
            mat: a.matrix(id).to_owned(),
            b,
            out,
        })
        .collect();
    parallel_chunks(&mut tasks, host_workers(cpu), |_, t| {
        *t.out = Some(gbsvx(&t.mat, t.b, nrhs));
    });

    // Model: factor + solve + ~2 extra band sweeps (rcond estimate and
    // refinement residuals) + the refinement solves.
    let flops = crate::model::gbtrf_flops(&l) + 3.0 * crate::model::gbtrs_flops(&l, nrhs);
    let bytes = crate::model::gbtrf_bytes(&l) + 3.0 * crate::model::gbtrs_bytes(&l, nrhs);
    let report = CpuReport {
        model_time_s: cpu.batch_time(batch, flops, bytes),
        wall_time_s: start.elapsed().as_secs_f64(),
    };
    (
        results
            .into_iter()
            .map(|r| r.expect("all solved"))
            .collect(),
        report,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbatch_core::residual::backward_error;

    fn graded_batch(batch: usize, n: usize) -> BandBatch {
        let mut v = 0.19f64;
        BandBatch::from_fn(batch, n, n, 2, 1, |id, m| {
            let decades = 2.0 + (id % 5) as f64 * 2.0; // 2..10 decades
            for j in 0..n {
                let s = 10f64.powf(-decades * j as f64 / (n - 1) as f64);
                let (lo, hi) = m.layout.col_rows(j);
                for i in lo..hi {
                    v = (v * 2.3 + 0.11).fract();
                    m.set(i, j, (v - 0.5) * s + if i == j { 2.0 * s } else { 0.0 });
                }
            }
        })
        .unwrap()
    }

    #[test]
    fn batch_expert_solve_handles_mixed_conditioning() {
        let cpu = CpuSpec::test_cpu();
        let (batch, n, nrhs) = (10usize, 24usize, 2usize);
        let a = graded_batch(batch, n);
        // Manufactured solutions.
        let mut rhs = vec![0.0; batch * n * nrhs];
        let mut xs = vec![0.0; batch * n * nrhs];
        for id in 0..batch {
            for c in 0..nrhs {
                let x: Vec<f64> = (0..n).map(|i| 1.0 + ((i + c) % 4) as f64).collect();
                let mut b = vec![0.0; n];
                gbatch_core::blas2::gbmv(1.0, a.matrix(id), &x, 0.0, &mut b);
                let off = id * n * nrhs + c * n;
                xs[off..off + n].copy_from_slice(&x);
                rhs[off..off + n].copy_from_slice(&b);
            }
        }
        let rhs0 = rhs.clone();
        let (results, rep) = cpu_gbsvx_batch(&cpu, &a, &mut rhs, nrhs);
        assert!(rep.model_time_s > 0.0);
        for (id, r) in results.iter().enumerate() {
            assert_eq!(r.info, 0, "system {id}");
            // Deeply graded systems must have been equilibrated.
            if id % 5 >= 3 {
                assert!(
                    r.equilibrated,
                    "system {id} (8+ decades) should equilibrate"
                );
            }
            for c in 0..nrhs {
                let off = id * n * nrhs + c * n;
                let berr = backward_error(a.matrix(id), &rhs[off..off + n], &rhs0[off..off + n]);
                assert!(berr < 1e-12, "system {id} rhs {c}: berr {berr:.2e}");
            }
        }
    }

    #[test]
    fn expert_model_time_exceeds_plain_solve() {
        let cpu = CpuSpec::xeon_gold_6140();
        let l = gbatch_core::layout::BandLayout::factor(128, 128, 2, 3).unwrap();
        let plain = cpu.batch_time(
            1000,
            crate::model::gbtrf_flops(&l) + crate::model::gbtrs_flops(&l, 1),
            crate::model::gbtrf_bytes(&l) + crate::model::gbtrs_bytes(&l, 1),
        );
        let expert = cpu.batch_time(
            1000,
            crate::model::gbtrf_flops(&l) + 3.0 * crate::model::gbtrs_flops(&l, 1),
            crate::model::gbtrf_bytes(&l) + 3.0 * crate::model::gbtrs_bytes(&l, 1),
        );
        assert!(expert > 1.3 * plain);
    }
}
