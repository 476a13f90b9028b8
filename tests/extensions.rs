//! Integration tests for the beyond-the-paper extensions, combining them
//! with the application workloads.

use gbatch::core::batch::{BandBatch, InfoArray, PivotBatch, RhsBatch};
use gbatch::core::blas2::gbmv;
use gbatch::core::gbtf2::gbtf2;
use gbatch::core::residual::backward_error;
use gbatch::gpu_sim::multi::DeviceGroup;
use gbatch::gpu_sim::DeviceSpec;
use gbatch::kernels::dispatch::{dgbsv_batch, ChosenAlgo, GbsvOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// XGC-like SPD systems (a symmetrized, diagonally dominant stencil of
/// half-bandwidth 3) solve through the general LU path under `Auto`:
/// every solution certifies and matches the exact answer.
#[test]
fn xgc_spd_systems_through_lu() {
    let dev = DeviceSpec::h100_pcie();
    let (batch, n, kd) = (32usize, 193usize, 3usize);
    let a0 = BandBatch::from_fn(batch, n, n, kd, kd, |id, m| {
        let phase = id as f64 * 0.37;
        for j in 0..n {
            let coeff = 1.0 + 0.5 * (j as f64 * 0.05 + phase).sin();
            let mut sum = 0.0;
            for k in 1..=kd.min(n - 1 - j) {
                let w = -coeff / (k * k) as f64;
                m.set(j + k, j, w);
                m.set(j, j + k, w);
                sum += w.abs();
            }
            m.set(j, j, 2.0 * sum + 2.0 * coeff);
        }
    })
    .unwrap();
    let x0 = |id: usize, i: usize| ((id * n + i) % 23) as f64 * 0.1 - 1.0;
    let mut b0 = RhsBatch::from_fn(batch, n, 1, |_, _, _| 0.0).unwrap();
    for id in 0..batch {
        let x: Vec<f64> = (0..n).map(|i| x0(id, i)).collect();
        gbmv(1.0, a0.matrix(id), &x, 0.0, &mut b0.block_mut(id)[..n]);
    }
    let (mut a, mut b) = (a0.clone(), b0.clone());
    let mut piv = PivotBatch::new(batch, n, n);
    let mut info = InfoArray::new(batch);
    let opts = GbsvOptions::default();
    let _ = dgbsv_batch(&dev, &mut a, &mut piv, &mut b, &mut info, &opts).unwrap();
    assert!(info.all_ok());
    for id in 0..batch {
        let berr = backward_error(a0.matrix(id), b.block(id), b0.block(id));
        assert!(berr < 1e-13, "id {id}: berr {berr:.2e}");
        for i in 0..n {
            let err = (b.get(id, i, 0) - x0(id, i)).abs();
            assert!(err < 1e-9, "id {id} row {i}: error {err:.2e}");
        }
    }
}

/// Dispatch's GBTRF on the XGC single-species band (3,3) reproduces the
/// sequential `gbtf2` bit for bit: factors, pivots and info.
#[test]
fn xgc_band_shape_through_dispatch_matches_gbtf2() {
    let dev = DeviceSpec::h100_pcie();
    let mut rng = StdRng::seed_from_u64(11);
    let (batch, n) = (16usize, 193usize);
    let a0 = gbatch::workloads::random::random_band_batch(
        &mut rng,
        batch,
        n,
        3,
        3,
        gbatch::workloads::random::BandDistribution::Uniform,
    );
    let l = a0.layout();
    let mut a = a0.clone();
    let mut piv = PivotBatch::new(batch, n, n);
    let mut info = InfoArray::new(batch);
    let _ = gbatch::kernels::dispatch::dgbtrf_batch(
        &dev,
        &mut a,
        &mut piv,
        &mut info,
        &GbsvOptions::default(),
    )
    .unwrap();
    for id in 0..batch {
        let mut ab = a0.matrix(id).data.to_vec();
        let mut p = vec![0i32; n];
        let expect = gbtf2(&l, &mut ab, &mut p);
        assert_eq!(a.matrix(id).data, &ab[..], "id {id}: factors");
        assert_eq!(piv.pivots(id), &p[..], "id {id}: pivots");
        assert_eq!(info.get(id), expect, "id {id}: info");
    }
}

/// SUNDIALS-like single-species tridiagonal systems (`I - gamma*J`, weak
/// coupling): a batch of them runs the interleaved regime under `Auto`,
/// and every solution certifies.
#[test]
fn sundials_tridiagonal_batch_runs_the_interleaved_regime() {
    let dev = DeviceSpec::mi250x_gcd();
    let (batch, n, gamma) = (64usize, 72usize, 0.02);
    let a0 = BandBatch::from_fn(batch, n, n, 1, 1, |id, m| {
        for i in 0..n {
            m.set(
                i,
                i,
                1.0 + gamma * (2.0 + ((id * 3 + i) as f64 * 0.11).cos()),
            );
            if i > 0 {
                m.set(i, i - 1, -gamma * ((id + i) as f64 * 0.29).sin());
            }
            if i + 1 < n {
                m.set(i, i + 1, -gamma * ((id * 7 + i) as f64 * 0.17).cos());
            }
        }
    })
    .unwrap();
    let b0 = RhsBatch::from_fn(batch, n, 1, |id, i, _| ((id + i) as f64 * 0.13).sin()).unwrap();
    let (mut a, mut b) = (a0.clone(), b0.clone());
    let mut piv = PivotBatch::new(batch, n, n);
    let mut info = InfoArray::new(batch);
    let rep = dgbsv_batch(
        &dev,
        &mut a,
        &mut piv,
        &mut b,
        &mut info,
        &GbsvOptions::default(),
    )
    .unwrap();
    assert_eq!(rep.algo, ChosenAlgo::Interleaved);
    assert!(info.all_ok());
    for id in 0..batch {
        let berr = backward_error(a0.matrix(id), b.block(id), b0.block(id));
        assert!(berr < 1e-13, "id {id}: berr {berr:.2e}");
    }
}

/// Non-uniform AMR-style mix on the two GCDs of a full MI250x, solved as
/// one `Auto` launch per size with each size split across the group:
/// partitions solve independently and all solutions certify.
#[test]
fn nonuniform_mix_per_size_on_multi_gcd() {
    let group = DeviceGroup::mi250x_full();
    let (per_size, kl, ku) = (10usize, 2usize, 2usize);
    let mut v = 0.83f64;
    for n in [24usize, 48, 72] {
        let a0 = BandBatch::from_fn(per_size, n, n, kl, ku, |_, m| {
            for j in 0..n {
                let (s, e) = m.layout.col_rows(j);
                for i in s..e {
                    v = (v * 2.3 + 0.041).fract();
                    m.set(i, j, v - 0.5 + if i == j { 2.0 } else { 0.0 });
                }
            }
        })
        .unwrap();
        let b0 =
            RhsBatch::from_fn(per_size, n, 1, |id, i, _| ((id + i) as f64 * 0.19).sin()).unwrap();

        let mut solved: Vec<Option<Vec<f64>>> = vec![None; per_size];
        let makespan = group
            .run_split::<gbatch::gpu_sim::LaunchError>(per_size, |dev, lo, hi| {
                let k = hi - lo;
                let mut a = BandBatch::from_fn(k, n, n, kl, ku, |id, m| {
                    let src = a0.matrix(lo + id);
                    for j in 0..n {
                        let (s, e) = m.layout.col_rows(j);
                        for i in s..e {
                            m.set(i, j, src.get(i, j));
                        }
                    }
                })
                .unwrap();
                let mut b = RhsBatch::from_fn(k, n, 1, |id, i, _| b0.block(lo + id)[i]).unwrap();
                let mut piv = PivotBatch::new(k, n, n);
                let mut info = InfoArray::new(k);
                let rep = dgbsv_batch(
                    dev,
                    &mut a,
                    &mut piv,
                    &mut b,
                    &mut info,
                    &GbsvOptions::default(),
                )?;
                assert!(info.all_ok());
                for id in 0..k {
                    solved[lo + id] = Some(b.block(id).to_vec());
                }
                Ok(rep.time)
            })
            .unwrap();
        assert!(makespan.secs() > 0.0);
        for (id, sol) in solved.iter().enumerate() {
            let x = sol.as_ref().expect("every system solved");
            let berr = backward_error(a0.matrix(id), x, b0.block(id));
            assert!(berr < 1e-11, "n {n} id {id}: {berr:.2e}");
        }
    }
}

/// RHS blocks with padding (`ldb > n`) flow through the blocked GPU
/// solvers untouched outside the live rows.
#[test]
fn gpu_solvers_respect_ldb_padding() {
    use gbatch::core::gbtrs::Transpose;
    let dev = DeviceSpec::h100_pcie();
    let (batch, n, kl, ku) = (4usize, 20usize, 2usize, 3usize);
    let mut rng = StdRng::seed_from_u64(21);
    let mut a = gbatch::workloads::random::random_band_batch(
        &mut rng,
        batch,
        n,
        kl,
        ku,
        gbatch::workloads::random::BandDistribution::DiagonallyDominant { margin: 1.0 },
    );
    let mut piv = PivotBatch::new(batch, n, n);
    let mut info = InfoArray::new(batch);
    let _ = gbatch::kernels::dispatch::dgbtrf_batch(
        &dev,
        &mut a,
        &mut piv,
        &mut info,
        &gbatch::kernels::dispatch::GbsvOptions::default(),
    )
    .unwrap();
    assert!(info.all_ok());

    let ldb = n + 5;
    let mut rhs = RhsBatch::zeros_with_ldb(batch, n, 2, ldb).unwrap();
    for id in 0..batch {
        for c in 0..2 {
            for i in 0..n {
                rhs.block_mut(id)[c * ldb + i] = ((id + c + i) as f64 * 0.23).sin();
            }
            for i in n..ldb {
                rhs.block_mut(id)[c * ldb + i] = 999.0; // sentinel padding
            }
        }
    }
    let l = a.layout();
    for trans in [Transpose::No, Transpose::Yes] {
        let mut b = rhs.clone();
        let _ = gbatch::kernels::dispatch::dgbtrs_batch(
            &dev,
            trans,
            &l,
            a.data(),
            &piv,
            &mut b,
            &gbatch::kernels::dispatch::GbsvOptions::default(),
        )
        .unwrap();
        for id in 0..batch {
            for c in 0..2 {
                for i in n..ldb {
                    assert_eq!(
                        b.block(id)[c * ldb + i],
                        999.0,
                        "padding clobbered ({trans:?}, id {id}, col {c}, row {i})"
                    );
                }
                // Solution agrees with the sequential reference.
                let mut expect = vec![0.0; n];
                expect.copy_from_slice(&rhs.block(id)[c * ldb..c * ldb + n]);
                gbatch::core::gbtrs::gbtrs(
                    trans,
                    &l,
                    a.matrix(id).data,
                    piv.pivots(id),
                    &mut expect,
                    n,
                    1,
                );
                assert_eq!(&b.block(id)[c * ldb..c * ldb + n], &expect[..n]);
            }
        }
    }
}

/// Partial waves: a grid one block larger than the device's concurrency
/// costs a full extra wave in the model.
#[test]
fn partial_wave_pricing() {
    use gbatch::gpu_sim::{engine::validate, launch, LaunchConfig};
    let dev = DeviceSpec::h100_pcie();
    let cfg = LaunchConfig::new(64, 128 * 1024); // 1 block/SM -> 114 concurrent
    let occ = validate(&dev, &cfg).unwrap();
    assert_eq!(occ.concurrent_blocks, dev.sms);
    let body = |_: &mut (), ctx: &mut gbatch::gpu_sim::BlockContext| {
        ctx.seq_cycles(100_000.0);
    };
    let mut exact = vec![(); dev.sms as usize];
    let t1 = launch(&dev, &cfg, &mut exact, body).unwrap().time;
    let mut spill = vec![(); dev.sms as usize + 1];
    let t2 = launch(&dev, &cfg, &mut spill, body).unwrap().time;
    let ratio = (t2.secs() - dev.launch_overhead_s) / (t1.secs() - dev.launch_overhead_s);
    assert!(
        (ratio - 2.0).abs() < 0.05,
        "one extra block = one extra wave: {ratio:.3}"
    );
}
