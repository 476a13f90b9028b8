//! Cross-crate integration tests: workloads -> kernels/CPU -> residuals.

use gbatch::core::gbtrs::Transpose;
use gbatch::core::residual::backward_error;
use gbatch::core::{BandBatch, InfoArray, PivotBatch, RhsBatch};
use gbatch::cpu::{cpu_gbsv_batch, CpuSpec};
use gbatch::gpu_sim::DeviceSpec;
use gbatch::kernels::dispatch::{dgbsv_batch, dgbtrf_batch, dgbtrs_batch, FactorAlgo, GbsvOptions};
use gbatch::tuning::{sweep_band, SweepConfig};
use gbatch::workloads::random::{random_band_batch, BandDistribution};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn system(batch: usize, n: usize, kl: usize, ku: usize, nrhs: usize) -> (BandBatch, RhsBatch) {
    let mut rng = StdRng::seed_from_u64((n * 31 + kl * 7 + ku * 3 + nrhs) as u64);
    let a = random_band_batch(&mut rng, batch, n, kl, ku, BandDistribution::Uniform);
    let b = RhsBatch::from_fn(batch, n, nrhs, |id, i, c| {
        ((id + i * 3 + c * 5) as f64 * 0.17).sin()
    })
    .unwrap();
    (a, b)
}

/// Full pipeline on both GPUs and the CPU, for both paper band shapes and
/// both RHS counts: everyone solves, everyone agrees with the inputs.
#[test]
fn all_platforms_solve_paper_configurations() {
    for (kl, ku) in [(2usize, 3usize), (10, 7)] {
        for nrhs in [1usize, 10] {
            let (batch, n) = (24, 100);
            let (a0, b0) = system(batch, n, kl, ku, nrhs);

            for dev in [DeviceSpec::h100_pcie(), DeviceSpec::mi250x_gcd()] {
                let (mut a, mut b) = (a0.clone(), b0.clone());
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
                assert!(info.all_ok());
                for id in 0..batch {
                    for c in 0..nrhs {
                        let x = &b.block(id)[c * n..(c + 1) * n];
                        let r = &b0.block(id)[c * n..(c + 1) * n];
                        let berr = backward_error(a0.matrix(id), x, r);
                        assert!(berr < 1e-11, "{}: berr {berr:.2e}", dev.name);
                    }
                }
            }

            let cpu = CpuSpec::xeon_gold_6140();
            let (mut a, mut b) = (a0.clone(), b0.clone());
            let mut piv = PivotBatch::new(batch, n, n);
            let mut info = InfoArray::new(batch);
            cpu_gbsv_batch(&cpu, &mut a, &mut piv, &mut b, &mut info);
            assert!(info.all_ok());
            for id in 0..batch {
                let berr = backward_error(a0.matrix(id), &b.block(id)[..n], &b0.block(id)[..n]);
                assert!(berr < 1e-11, "cpu berr {berr:.2e}");
            }
        }
    }
}

/// GPU and CPU paths produce bit-for-bit identical factors, pivots and
/// solutions: both execute the same LAPACK operation order.
#[test]
fn gpu_and_cpu_agree_bitwise() {
    let (batch, n, kl, ku) = (8, 64, 3, 2);
    let (a0, b0) = system(batch, n, kl, ku, 1);

    let dev = DeviceSpec::h100_pcie();
    let (mut ag, mut bg) = (a0.clone(), b0.clone());
    let mut pg = PivotBatch::new(batch, n, n);
    let mut ig = InfoArray::new(batch);
    // Separate factor+solve (the interleaved kernels rather than the
    // fused driver, so both sides run the same
    // decomposition-then-substitution sequence).
    let opts = GbsvOptions {
        algo: FactorAlgo::Interleaved,
        ..Default::default()
    };
    let _ = dgbsv_batch(&dev, &mut ag, &mut pg, &mut bg, &mut ig, &opts).unwrap();

    let cpu = CpuSpec::xeon_gold_6140();
    let (mut ac, mut bc) = (a0.clone(), b0.clone());
    let mut pc = PivotBatch::new(batch, n, n);
    let mut ic = InfoArray::new(batch);
    cpu_gbsv_batch(&cpu, &mut ac, &mut pc, &mut bc, &mut ic);

    assert_eq!(ag.data(), ac.data(), "factors");
    assert_eq!(pg, pc, "pivots");
    assert_eq!(bg.data(), bc.data(), "solutions");
}

/// Factor once, solve many times with different RHS batches (the LAPACK
/// GBTRF/GBTRS split the paper's interface exposes).
#[test]
fn factor_once_solve_many() {
    let (batch, n, kl, ku) = (10, 80, 2, 3);
    let (a0, _) = system(batch, n, kl, ku, 1);
    let dev = DeviceSpec::mi250x_gcd();
    let mut a = a0.clone();
    let mut piv = PivotBatch::new(batch, n, n);
    let mut info = InfoArray::new(batch);
    let _ = dgbtrf_batch(&dev, &mut a, &mut piv, &mut info, &GbsvOptions::default()).unwrap();
    assert!(info.all_ok());
    let l = a.layout();
    for round in 0..3 {
        let mut b = RhsBatch::from_fn(batch, n, 2, |id, i, c| {
            ((round * 100 + id * 10 + i + c) as f64 * 0.31).cos()
        })
        .unwrap();
        let b0 = b.clone();
        let _ = dgbtrs_batch(
            &dev,
            Transpose::No,
            &l,
            a.data(),
            &piv,
            &mut b,
            &GbsvOptions::default(),
        )
        .unwrap();
        for id in 0..batch {
            for c in 0..2 {
                let x = &b.block(id)[c * n..(c + 1) * n];
                let r = &b0.block(id)[c * n..(c + 1) * n];
                assert!(backward_error(a0.matrix(id), x, r) < 1e-11);
            }
        }
    }
}

/// Tuned window parameters from the sweep must solve correctly and not be
/// slower than untuned defaults (in modeled time).
#[test]
fn tuned_parameters_help_or_match() {
    let dev = DeviceSpec::mi250x_gcd();
    let (kl, ku) = (10usize, 7usize);
    let entry = sweep_band(&dev, &SweepConfig::default(), kl, ku).unwrap();
    let tuned = gbatch::kernels::window::WindowParams {
        nb: entry.nb,
        threads: entry.threads,
        ..Default::default()
    };
    let auto = gbatch::kernels::window::WindowParams::auto(&dev, kl);

    let (batch, n) = (32, 256);
    let (a0, _) = system(batch, n, kl, ku, 1);
    let mut times = Vec::new();
    for params in [tuned, auto] {
        let mut a = a0.clone();
        let mut piv = PivotBatch::new(batch, n, n);
        let mut info = InfoArray::new(batch);
        let rep =
            gbatch::kernels::window::gbtrf_batch_window(&dev, &mut a, &mut piv, &mut info, params)
                .unwrap();
        assert!(info.all_ok());
        times.push(rep.time.secs());
    }
    assert!(
        times[0] <= times[1] * 1.05,
        "tuned {:.2e}s should not lose to default {:.2e}s",
        times[0],
        times[1]
    );
}

/// The three forced factorization algorithms and the CPU all agree on a
/// workload from every generator.
#[test]
fn workload_generators_run_through_every_algorithm() {
    let mut rng = StdRng::seed_from_u64(5);
    let dev = DeviceSpec::h100_pcie();

    let pele = gbatch::workloads::pele_batch(
        &mut rng,
        12,
        &gbatch::workloads::pele::PeleConfig::default(),
    );
    let xgc =
        gbatch::workloads::xgc_batch(&mut rng, 12, &gbatch::workloads::xgc::XgcConfig::default());
    let react = gbatch::workloads::react_eval_batch(
        &mut rng,
        12,
        &gbatch::workloads::sundials::ReactEvalConfig::default(),
    );

    for a0 in [pele, xgc, react] {
        let n = a0.layout().n;
        let batch = a0.batch();
        let mut reference: Option<(Vec<f64>, PivotBatch)> = None;
        for algo in [FactorAlgo::Fused, FactorAlgo::Window, FactorAlgo::Reference] {
            let mut a = a0.clone();
            let mut piv = PivotBatch::new(batch, n, n);
            let mut info = InfoArray::new(batch);
            let opts = GbsvOptions {
                algo,
                ..Default::default()
            };
            let _ = dgbtrf_batch(&dev, &mut a, &mut piv, &mut info, &opts).unwrap();
            assert!(info.all_ok());
            match &reference {
                None => reference = Some((a.data().to_vec(), piv)),
                Some((fac, pv)) => {
                    assert_eq!(a.data(), &fac[..], "factors differ for {algo:?}");
                    assert_eq!(&piv, pv, "pivots differ for {algo:?}");
                }
            }
        }
    }
}
