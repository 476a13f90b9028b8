//! Failure-injection tests: singular systems, shared-memory pressure,
//! dispatch fallbacks, and degenerate inputs.

use gbatch::core::{BandBatch, InfoArray, PivotBatch, RhsBatch};
use gbatch::gpu_sim::{launch, DeviceSpec, LaunchConfig, LaunchError, ParallelPolicy};
use gbatch::kernels::dispatch::{dgbsv_batch, dgbtrf_batch, ChosenAlgo, FactorAlgo, GbsvOptions};
use gbatch::kernels::fused::{gbtrf_batch_fused, FusedParams};

fn healthy_batch(batch: usize, n: usize, kl: usize, ku: usize) -> BandBatch {
    let mut v = 0.41f64;
    BandBatch::from_fn(batch, n, n, kl, ku, |_, m| {
        for j in 0..n {
            let (s, e) = m.layout.col_rows(j);
            for i in s..e {
                v = (v * 2.13 + 0.19).fract();
                m.set(i, j, v - 0.5 + if i == j { 2.0 } else { 0.0 });
            }
        }
    })
    .unwrap()
}

/// A batch where several systems are singular: every healthy system is
/// solved, every singular one is flagged with the right 1-based column and
/// the factorization never panics.
#[test]
fn mixed_singular_batch_reports_exact_columns() {
    let dev = DeviceSpec::h100_pcie();
    let (batch, n, kl, ku) = (10, 30, 2, 1);
    let mut a = healthy_batch(batch, n, kl, ku);
    // Zero the *entire structural column* 4 of systems 2 and 7. Updates
    // into column 4 multiply by U(j, 4) entries that are themselves zero,
    // so elimination cannot resurrect the column: the factorization must
    // flag exactly column 5 (1-based).
    for id in [2usize, 7] {
        let mut m = a.matrix_mut(id);
        let (s, e) = m.layout.col_rows(4);
        for i in s..e {
            m.set(i, 4, 0.0);
        }
    }
    let mut piv = PivotBatch::new(batch, n, n);
    let mut info = InfoArray::new(batch);
    let _ = gbtrf_batch_fused(
        &dev,
        &mut a,
        &mut piv,
        &mut info,
        FusedParams::auto(&dev, kl),
    )
    .unwrap();
    assert_eq!(info.failures(), vec![2, 7]);
    assert_eq!(info.get(2), 5);
    assert_eq!(info.get(7), 5);
    for id in [0usize, 1, 3, 4, 5, 6, 8, 9] {
        assert_eq!(info.get(id), 0);
    }
}

/// dgbsv on a batch with singular members: healthy systems solved, failed
/// systems' RHS preserved, info codes exact.
#[test]
fn dgbsv_mixed_batch_preserves_failed_rhs() {
    let dev = DeviceSpec::mi250x_gcd();
    let (batch, n) = (6, 20);
    let mut a = healthy_batch(batch, n, 1, 1);
    {
        // Completely zero system 3 -> fails at column 1 (info = 1).
        let mut m = a.matrix_mut(3);
        for j in 0..n {
            let (s, e) = m.layout.col_rows(j);
            for i in s..e {
                m.set(i, j, 0.0);
            }
        }
    }
    let b0 = RhsBatch::from_fn(batch, n, 1, |id, i, _| (id * n + i) as f64).unwrap();
    let mut b = b0.clone();
    let mut piv = PivotBatch::new(batch, n, n);
    let mut info = InfoArray::new(batch);
    let _ = dgbsv_batch(
        &dev,
        &mut a,
        &mut piv,
        &mut b,
        &mut info,
        &GbsvOptions::default(),
    )
    .unwrap();
    assert_eq!(info.failures(), vec![3]);
    assert_eq!(info.get(3), 1);
    assert_eq!(b.block(3), b0.block(3), "failed RHS untouched");
    for id in [0usize, 1, 2, 4, 5] {
        assert_ne!(b.block(id), b0.block(id), "healthy system {id} solved");
    }
}

/// Shared-memory pressure: the fused kernel must refuse (not corrupt, not
/// panic) when a matrix exceeds the device's shared memory, and auto
/// dispatch must transparently pick the window kernel instead.
#[test]
fn fused_overflow_is_a_clean_error_and_dispatch_recovers() {
    let dev = DeviceSpec::mi250x_gcd();
    let (batch, n, kl, ku) = (3, 1200, 2, 3); // 8 * 1200 * 8 = 75 KB > 64 KB
    let mut a = healthy_batch(batch, n, kl, ku);
    let mut piv = PivotBatch::new(batch, n, n);
    let mut info = InfoArray::new(batch);

    let before = a.data().to_vec();
    let err = gbtrf_batch_fused(
        &dev,
        &mut a,
        &mut piv,
        &mut info,
        FusedParams::auto(&dev, kl),
    )
    .unwrap_err();
    assert!(matches!(err, LaunchError::SharedMemExceeded { .. }));
    assert_eq!(a.data(), &before[..], "failed launch must not touch data");

    // Pin the paper's column-major policy: the claim under test is the
    // fused -> window *algorithm* recovery (at batch = 3 `Auto` would
    // route to the interleaved kernels instead).
    let opts = GbsvOptions {
        algo: FactorAlgo::ColumnMajor,
        ..Default::default()
    };
    let rep = dgbtrf_batch(&dev, &mut a, &mut piv, &mut info, &opts).unwrap();
    assert_eq!(rep.algo, ChosenAlgo::Window);
    assert!(info.all_ok());
}

/// Forcing the fused algorithm on an impossible size surfaces the launch
/// error instead of silently switching.
#[test]
fn forcing_impossible_algorithm_errors() {
    let dev = DeviceSpec::mi250x_gcd();
    let (batch, n) = (2, 1200);
    let mut a = healthy_batch(batch, n, 2, 3);
    let mut piv = PivotBatch::new(batch, n, n);
    let mut info = InfoArray::new(batch);
    let opts = GbsvOptions {
        algo: FactorAlgo::Fused,
        ..Default::default()
    };
    let err = dgbtrf_batch(&dev, &mut a, &mut piv, &mut info, &opts).unwrap_err();
    assert!(matches!(err, LaunchError::SharedMemExceeded { .. }));
}

/// Degenerate shapes: 1x1 systems, diagonal-only bands, bands wider than
/// the matrix.
#[test]
fn degenerate_shapes_work() {
    let dev = DeviceSpec::h100_pcie();
    for (n, kl, ku) in [(1usize, 0usize, 0usize), (4, 0, 0), (3, 2, 2), (2, 1, 1)] {
        let mut a = healthy_batch(4, n, kl, ku);
        let b0 = RhsBatch::from_fn(4, n, 1, |id, i, _| (id + i + 1) as f64).unwrap();
        let mut b = b0.clone();
        let mut piv = PivotBatch::new(4, n, n);
        let mut info = InfoArray::new(4);
        let _ = dgbsv_batch(
            &dev,
            &mut a,
            &mut piv,
            &mut b,
            &mut info,
            &GbsvOptions::default(),
        )
        .unwrap();
        assert!(info.all_ok(), "n={n} kl={kl} ku={ku}");
        for id in 0..4 {
            let berr = gbatch::core::residual::backward_error(
                healthy_batch(4, n, kl, ku).matrix(id),
                b.block(id),
                b0.block(id),
            );
            assert!(berr < 1e-12, "n={n} kl={kl} ku={ku} id={id}: {berr:.2e}");
        }
    }
}

/// Mixed singular/healthy batch under the parallel executor: the 1-based
/// info columns and every factor bit must match the serial run — failure
/// isolation is per matrix, regardless of which worker hits the singular
/// block.
#[test]
fn parallel_mixed_singular_batch_matches_serial_info() {
    let dev = DeviceSpec::h100_pcie();
    let (batch, n, kl, ku) = (24, 30, 2, 1);
    let a0 = {
        let mut a = healthy_batch(batch, n, kl, ku);
        // Structurally zero column 4 of a scattered set of systems.
        for id in [2usize, 7, 11, 23] {
            let mut m = a.matrix_mut(id);
            let (s, e) = m.layout.col_rows(4);
            for i in s..e {
                m.set(i, 4, 0.0);
            }
        }
        a
    };

    let run = |params: FusedParams| {
        let mut a = a0.clone();
        let mut piv = PivotBatch::new(batch, n, n);
        let mut info = InfoArray::new(batch);
        let _ = gbtrf_batch_fused(&dev, &mut a, &mut piv, &mut info, params).unwrap();
        (a, piv, info)
    };
    let base = FusedParams::auto(&dev, kl);
    let serial = run(base);
    assert_eq!(serial.2.failures(), vec![2, 7, 11, 23]);
    for id in [2usize, 7, 11, 23] {
        assert_eq!(serial.2.get(id), 5, "1-based singular column");
    }
    let par = run(base.with_parallel(ParallelPolicy::threads(4)));
    assert_eq!(serial.0.data(), par.0.data(), "factors");
    assert_eq!(serial.1, par.1, "pivots");
    assert_eq!(serial.2, par.2, "info codes");
}

/// A panicking block must be caught by the executor without corrupting its
/// siblings: every other block completes its work, and the propagated
/// panic is the one from the lowest block id in both serial and parallel
/// runs (observational equivalence).
#[test]
fn panicking_block_does_not_corrupt_siblings() {
    let dev = DeviceSpec::h100_pcie();
    let cfg_for = |policy: ParallelPolicy| LaunchConfig::new(32, 0).with_parallel(policy);
    for policy in [ParallelPolicy::Serial, ParallelPolicy::threads(4)] {
        let mut data: Vec<u64> = (0..64).collect();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            launch(&dev, &cfg_for(policy), &mut data, |v, ctx| {
                if *v == 13 || *v == 40 {
                    panic!("injected failure in block {}", *v);
                }
                *v += 1000;
                ctx.gst(8);
            })
        }))
        .unwrap_err();
        let msg = caught.downcast_ref::<String>().unwrap();
        assert_eq!(
            msg, "injected failure in block 13",
            "{policy:?}: lowest block id's panic must win"
        );
        for (i, v) in data.iter().enumerate() {
            if i == 13 || i == 40 {
                assert_eq!(*v, i as u64, "{policy:?}: panicked block left as-is");
            } else {
                assert_eq!(
                    *v,
                    i as u64 + 1000,
                    "{policy:?}: sibling block {i} completed"
                );
            }
        }
    }
}

/// The engine validates thread counts exactly like CUDA.
#[test]
fn invalid_thread_counts_rejected() {
    let dev = DeviceSpec::h100_pcie();
    let bad = LaunchConfig::new(0, 0);
    assert!(gbatch::gpu_sim::engine::validate(&dev, &bad).is_err());
    let too_many = LaunchConfig::new(dev.max_threads_per_block + 1, 0);
    assert!(gbatch::gpu_sim::engine::validate(&dev, &too_many).is_err());
}
