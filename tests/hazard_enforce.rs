//! Enforce-mode hazard grid and negative fixtures.
//!
//! Every test in this binary flips the process-global hazard mode to
//! [`HazardMode::Enforce`], so every `LaunchConfig` the library builds
//! carries the enforcing tracker: the first shared-memory conflict between
//! distinct lanes inside one barrier epoch aborts the block with a located
//! panic. The grid tests then drive every kernel family over the paper's
//! band shapes, both storage layouts and both scheduling policies — a
//! completed launch *is* the race-freedom certificate. The negative
//! fixtures prove the detector is not vacuous: a deliberately missing
//! barrier is pinned to its exact (epoch, lane, offset), and an
//! out-of-band row write trips the provenance classifier with the exact
//! (band_row, column).

use std::panic::{catch_unwind, AssertUnwindSafe};

use gbatch::core::gbtrs::Transpose;
use gbatch::core::layout::BandLayout;
use gbatch::core::{BandBatch, InfoArray, PivotBatch, RhsBatch};
use gbatch::gpu_sim::hazard::{set_global_mode, HazardKind, HazardMode};
use gbatch::gpu_sim::{launch, registry, DeviceSpec, LaunchConfig, ParallelPolicy};
use gbatch::kernels::cost::choose_spike_params;
use gbatch::kernels::dispatch::{
    dgbsv_batch, dgbtrf_batch, dgbtrs_batch, sgbsv_batch, FactorAlgo, GbsvOptions,
};
use gbatch::kernels::fused::{gbtrf_batch_fused, FusedParams};
use gbatch::kernels::gbsv_fused::gbsv_batch_fused;
use gbatch::kernels::gbtrs_blocked::{gbtrs_batch_blocked, SolveParams};
use gbatch::kernels::gbtrs_cols::gbtrs_batch_cols;
use gbatch::kernels::gbtrs_trans::gbtrs_batch_blocked_trans;
use gbatch::kernels::interleaved::{
    gbtrf_batch_interleaved, gbtrs_batch_interleaved, InterleavedParams,
};
use gbatch::kernels::reference::gbtrf_batch_reference;
use gbatch::kernels::spike::{spike_gbsv_batch, SpikeMode, SpikeParams};
#[cfg(debug_assertions)]
use gbatch::kernels::step::SmemBand;
use gbatch::kernels::window::{gbtrf_batch_window, gbtrf_batch_window_relaunch, WindowParams};

/// The paper's two headline band shapes (§7).
const SHAPES: &[(usize, usize)] = &[(2, 3), (10, 7)];
const N: usize = 24;
const BATCH: usize = 6;

fn dev() -> DeviceSpec {
    registry::device(registry::H100_PCIE).expect("catalog entry")
}

fn policies() -> [ParallelPolicy; 2] {
    [ParallelPolicy::Serial, ParallelPolicy::threads(4)]
}

/// Deterministic diagonally dominant band batch: LU with partial pivoting
/// always succeeds, and the deterministic entries make any cross-policy
/// divergence reproducible.
fn band_batch(batch: usize, n: usize, kl: usize, ku: usize) -> BandBatch {
    BandBatch::from_fn(batch, n, n, kl, ku, |b, m| {
        for j in 0..n {
            let lo = j.saturating_sub(ku);
            let hi = (j + kl).min(n - 1);
            for i in lo..=hi {
                let v = if i == j {
                    (kl + ku + 2) as f64 + (b % 3) as f64
                } else {
                    0.3 + 0.1 * ((i * 7 + j * 3 + b) % 5) as f64
                };
                m.set(i, j, v);
            }
        }
    })
    .unwrap()
}

fn rhs_batch(batch: usize, n: usize, nrhs: usize) -> RhsBatch {
    RhsBatch::from_fn(batch, n, nrhs, |b, i, c| {
        1.0 + ((b + 2 * i + 3 * c) % 7) as f64
    })
    .unwrap()
}

// =================================================================
// Enforce-mode grid: every kernel family, every layout, every policy
// =================================================================

#[test]
fn enforce_factor_kernels_run_hazard_free() {
    set_global_mode(HazardMode::Enforce);
    let dev = dev();
    for &(kl, ku) in SHAPES {
        for policy in policies() {
            // Fused (§5.2): whole factorization in one shared window.
            let mut a = band_batch(BATCH, N, kl, ku);
            let mut piv = PivotBatch::new(BATCH, N, N);
            let mut info = InfoArray::new(BATCH);
            let params = FusedParams {
                threads: 8,
                parallel: policy,
            };
            let rep = gbtrf_batch_fused(&dev, &mut a, &mut piv, &mut info, params).unwrap();
            assert!(info.all_ok(), "fused ({kl},{ku}) {policy:?}");
            assert_eq!(rep.counters.hazards, 0);

            // Sliding window (§5.3) with in-kernel shift.
            let mut a = band_batch(BATCH, N, kl, ku);
            let params = WindowParams {
                nb: 6,
                threads: 8,
                parallel: policy,
            };
            let rep = gbtrf_batch_window(&dev, &mut a, &mut piv, &mut info, params).unwrap();
            assert!(info.all_ok(), "window ({kl},{ku}) {policy:?}");
            assert_eq!(rep.counters.hazards, 0);

            // Relaunch ablation: one launch per window iteration.
            let mut a = band_batch(BATCH, N, kl, ku);
            let reps =
                gbtrf_batch_window_relaunch(&dev, &mut a, &mut piv, &mut info, params).unwrap();
            assert!(info.all_ok(), "relaunch ({kl},{ku}) {policy:?}");
            assert!(reps.iter().all(|r| r.counters.hazards == 0));

            // Reference fork–join (§5.1).
            let mut a = band_batch(BATCH, N, kl, ku);
            gbtrf_batch_reference(&dev, &mut a, &mut piv, &mut info, policy).unwrap();
            assert!(info.all_ok(), "reference ({kl},{ku}) {policy:?}");
        }
    }
}

#[test]
fn enforce_solve_kernels_run_hazard_free() {
    set_global_mode(HazardMode::Enforce);
    let dev = dev();
    for &(kl, ku) in SHAPES {
        // Factor once per shape, reuse for every solver variant.
        let mut a = band_batch(BATCH, N, kl, ku);
        let mut piv = PivotBatch::new(BATCH, N, N);
        let mut info = InfoArray::new(BATCH);
        let _ = dgbtrf_batch(&dev, &mut a, &mut piv, &mut info, &GbsvOptions::default()).unwrap();
        assert!(info.all_ok());
        let l = a.layout();

        for policy in policies() {
            for nrhs in [1usize, 10] {
                let params = SolveParams {
                    nb: 6,
                    threads: 4,
                    parallel: policy,
                };

                // Blocked solve with the per-RHS-column shared cache.
                let mut rhs = rhs_batch(BATCH, N, nrhs);
                let rep = gbtrs_batch_blocked(&dev, &l, a.data(), &piv, &mut rhs, params).unwrap();
                assert!(rhs.data().iter().all(|v| v.is_finite()));
                if let Some(fwd) = &rep.forward {
                    assert_eq!(fwd.counters.hazards, 0);
                }
                assert_eq!(rep.backward.counters.hazards, 0);

                // One-thread-per-column variant.
                let mut rhs = rhs_batch(BATCH, N, nrhs);
                gbtrs_batch_cols(&dev, &l, a.data(), &piv, &mut rhs, policy).unwrap();
                assert!(rhs.data().iter().all(|v| v.is_finite()));

                // Transpose solve (U^T then L^T).
                let mut rhs = rhs_batch(BATCH, N, nrhs);
                gbtrs_batch_blocked_trans(&dev, &l, a.data(), &piv, &mut rhs, params).unwrap();
                assert!(rhs.data().iter().all(|v| v.is_finite()));

                // Dispatch-level solve, both transpose settings, both
                // layouts (the interleaved one packs, then solves).
                for trans in [Transpose::No, Transpose::Yes] {
                    for algo in [FactorAlgo::ColumnMajor, FactorAlgo::Interleaved] {
                        let mut rhs = rhs_batch(BATCH, N, nrhs);
                        let opts = GbsvOptions {
                            parallel: Some(policy),
                            algo,
                            ..GbsvOptions::default()
                        };
                        let _ =
                            dgbtrs_batch(&dev, trans, &l, a.data(), &piv, &mut rhs, &opts).unwrap();
                        assert!(rhs.data().iter().all(|v| v.is_finite()));
                    }
                }
            }
        }
    }
}

#[test]
fn enforce_spike_coupling_kernels_run_hazard_free() {
    set_global_mode(HazardMode::Enforce);
    let dev = dev();
    // Large enough that a 3-way partition survives the clamp for the wide
    // (10, 7) band; both reduced-system modes exercise every coupling
    // kernel (extract, combine, residual) under the enforcing tracker, at
    // that fixed split and at the planner's `(P, nb)`. Their blocked sweeps
    // run in column groups, the augmented one with ragged starts, so the
    // grouped forward and backward launches run under it too.
    let n = 192;
    for &(kl, ku) in SHAPES {
        let base = SpikeParams::auto(&dev, kl);
        let l = BandLayout::factor(n, n, kl, ku).unwrap();
        let (planned, _) = choose_spike_params::<f64>(&dev, &l, 2, &base).unwrap();
        for split in [base.with_parts(3), planned] {
            for policy in policies() {
                for mode in [SpikeMode::Exact, SpikeMode::Truncated] {
                    let mut a = band_batch(BATCH, n, kl, ku);
                    let mut piv = PivotBatch::new(BATCH, n, n);
                    let mut rhs = rhs_batch(BATCH, n, 2);
                    let mut info = InfoArray::new(BATCH);
                    let params = split.with_mode(mode).with_parallel(policy);
                    let rep = spike_gbsv_batch(&dev, &mut a, &mut piv, &mut rhs, &mut info, params)
                        .unwrap();
                    let (p, nb) = (split.parts, split.nb);
                    assert!(
                        info.all_ok(),
                        "spike ({kl},{ku}) P={p} nb={nb} {mode:?} {policy:?}"
                    );
                    assert!(rep.parts > 1, "partition must actually split");
                    assert!(rhs.data().iter().all(|v| v.is_finite()));
                }
            }
        }
    }
}

#[test]
fn enforce_fused_gbsv_runs_hazard_free() {
    set_global_mode(HazardMode::Enforce);
    let dev = dev();
    for &(kl, ku) in SHAPES {
        for policy in policies() {
            for nrhs in [1usize, 10] {
                let mut a = band_batch(BATCH, N, kl, ku);
                let mut piv = PivotBatch::new(BATCH, N, N);
                let mut rhs = rhs_batch(BATCH, N, nrhs);
                let mut info = InfoArray::new(BATCH);
                let rep = gbsv_batch_fused(&dev, &mut a, &mut piv, &mut rhs, &mut info, 8, policy)
                    .unwrap();
                assert!(info.all_ok(), "gbsv ({kl},{ku}) nrhs {nrhs} {policy:?}");
                assert_eq!(rep.counters.hazards, 0);
            }
        }
    }
}

#[test]
fn enforce_interleaved_kernels_run_hazard_free() {
    set_global_mode(HazardMode::Enforce);
    let dev = dev();
    for &(kl, ku) in SHAPES {
        for policy in policies() {
            let mut a = band_batch(BATCH, N, kl, ku);
            let mut piv = PivotBatch::new(BATCH, N, N);
            let mut info = InfoArray::new(BATCH);
            let params = InterleavedParams {
                lanes_per_block: 3,
                threads: 2,
                parallel: policy,
            };
            let _ = gbtrf_batch_interleaved(&dev, &mut a, &mut piv, &mut info, params).unwrap();
            assert!(info.all_ok(), "igbtrf ({kl},{ku}) {policy:?}");
            for nrhs in [1usize, 10] {
                let mut rhs = rhs_batch(BATCH, N, nrhs);
                let _ = gbtrs_batch_interleaved(
                    &dev,
                    &a.layout(),
                    a.data(),
                    &piv,
                    &mut rhs,
                    &info,
                    params,
                )
                .unwrap();
                assert!(rhs.data().iter().all(|v| v.is_finite()));
            }
        }
    }
}

#[test]
fn enforce_dispatch_grid_both_layouts() {
    set_global_mode(HazardMode::Enforce);
    let dev = dev();
    for &(kl, ku) in SHAPES {
        for policy in policies() {
            for algo in [FactorAlgo::ColumnMajor, FactorAlgo::Interleaved] {
                for nrhs in [1usize, 10] {
                    let mut a = band_batch(BATCH, N, kl, ku);
                    let mut piv = PivotBatch::new(BATCH, N, N);
                    let mut rhs = rhs_batch(BATCH, N, nrhs);
                    let mut info = InfoArray::new(BATCH);
                    let opts = GbsvOptions {
                        parallel: Some(policy),
                        algo,
                        ..GbsvOptions::default()
                    };
                    let _ =
                        dgbsv_batch(&dev, &mut a, &mut piv, &mut rhs, &mut info, &opts).unwrap();
                    assert!(
                        info.all_ok(),
                        "dgbsv ({kl},{ku}) nrhs {nrhs} {algo:?} {policy:?}"
                    );
                    assert!(rhs.data().iter().all(|v| v.is_finite()));
                }
            }
        }
    }
}

// =================================================================
// Enforce-mode grid, f32 instantiations
// =================================================================

/// The f32 counterpart of [`band_batch`].
fn band_batch_f32(batch: usize, n: usize, kl: usize, ku: usize) -> BandBatch<f32> {
    BandBatch::<f32>::from_fn(batch, n, n, kl, ku, |b, m| {
        for j in 0..n {
            let lo = j.saturating_sub(ku);
            let hi = (j + kl).min(n - 1);
            for i in lo..=hi {
                let v = if i == j {
                    (kl + ku + 2) as f32 + (b % 3) as f32
                } else {
                    0.3 + 0.1 * ((i * 7 + j * 3 + b) % 5) as f32
                };
                m.set(i, j, v);
            }
        }
    })
    .unwrap()
}

fn rhs_batch_f32(batch: usize, n: usize, nrhs: usize) -> RhsBatch<f32> {
    RhsBatch::<f32>::from_fn(batch, n, nrhs, |b, i, c| {
        1.0 + ((b + 2 * i + 3 * c) % 7) as f32
    })
    .unwrap()
}

/// Every kernel family instantiated at `f32` under Enforce: the halved
/// shared footprint must not introduce any cross-lane conflict the `f64`
/// instantiation doesn't have (the access *pattern* is precision-blind;
/// only the byte widths shrink).
#[test]
fn enforce_f32_kernel_instantiations_run_hazard_free() {
    set_global_mode(HazardMode::Enforce);
    let dev = dev();
    for &(kl, ku) in SHAPES {
        for policy in policies() {
            // Fused factorization.
            let mut a = band_batch_f32(BATCH, N, kl, ku);
            let mut piv = PivotBatch::new(BATCH, N, N);
            let mut info = InfoArray::new(BATCH);
            let params = FusedParams {
                threads: 8,
                parallel: policy,
            };
            let rep = gbtrf_batch_fused(&dev, &mut a, &mut piv, &mut info, params).unwrap();
            assert!(info.all_ok(), "f32 fused ({kl},{ku}) {policy:?}");
            assert_eq!(rep.counters.hazards, 0);
            let l = a.layout();

            // Sliding window.
            let mut aw = band_batch_f32(BATCH, N, kl, ku);
            let wparams = WindowParams {
                nb: 6,
                threads: 8,
                parallel: policy,
            };
            let rep = gbtrf_batch_window(&dev, &mut aw, &mut piv, &mut info, wparams).unwrap();
            assert!(info.all_ok(), "f32 window ({kl},{ku}) {policy:?}");
            assert_eq!(rep.counters.hazards, 0);

            // Solve kernels over the fused factors.
            for nrhs in [1usize, 10] {
                let sparams = SolveParams {
                    nb: 6,
                    threads: 4,
                    parallel: policy,
                };
                let mut rhs = rhs_batch_f32(BATCH, N, nrhs);
                let rep = gbtrs_batch_blocked(&dev, &l, a.data(), &piv, &mut rhs, sparams).unwrap();
                assert!(rhs.data().iter().all(|v| v.is_finite()));
                if let Some(fwd) = &rep.forward {
                    assert_eq!(fwd.counters.hazards, 0);
                }
                assert_eq!(rep.backward.counters.hazards, 0);

                let mut rhs = rhs_batch_f32(BATCH, N, nrhs);
                gbtrs_batch_cols(&dev, &l, a.data(), &piv, &mut rhs, policy).unwrap();
                assert!(rhs.data().iter().all(|v| v.is_finite()));

                let mut rhs = rhs_batch_f32(BATCH, N, nrhs);
                gbtrs_batch_blocked_trans(&dev, &l, a.data(), &piv, &mut rhs, sparams).unwrap();
                assert!(rhs.data().iter().all(|v| v.is_finite()));
            }

            // Fused GBSV driver.
            let mut af = band_batch_f32(BATCH, N, kl, ku);
            let mut rhs = rhs_batch_f32(BATCH, N, 1);
            let rep =
                gbsv_batch_fused(&dev, &mut af, &mut piv, &mut rhs, &mut info, 8, policy).unwrap();
            assert!(info.all_ok(), "f32 gbsv ({kl},{ku}) {policy:?}");
            assert_eq!(rep.counters.hazards, 0);

            // Interleaved factor + solve.
            let mut ia = band_batch_f32(BATCH, N, kl, ku);
            let iparams = InterleavedParams {
                lanes_per_block: 3,
                threads: 2,
                parallel: policy,
            };
            let _ = gbtrf_batch_interleaved(&dev, &mut ia, &mut piv, &mut info, iparams).unwrap();
            assert!(info.all_ok(), "f32 igbtrf ({kl},{ku}) {policy:?}");
            let mut rhs = rhs_batch_f32(BATCH, N, 1);
            let _ = gbtrs_batch_interleaved(
                &dev,
                &ia.layout(),
                ia.data(),
                &piv,
                &mut rhs,
                &info,
                iparams,
            )
            .unwrap();
            assert!(rhs.data().iter().all(|v| v.is_finite()));
        }
    }
}

/// The single-precision dispatch driver under Enforce, both layouts.
#[test]
fn enforce_f32_dispatch_grid_both_layouts() {
    set_global_mode(HazardMode::Enforce);
    let dev = dev();
    for &(kl, ku) in SHAPES {
        for policy in policies() {
            for algo in [FactorAlgo::ColumnMajor, FactorAlgo::Interleaved] {
                for nrhs in [1usize, 10] {
                    let mut a = band_batch_f32(BATCH, N, kl, ku);
                    let mut piv = PivotBatch::new(BATCH, N, N);
                    let mut rhs = rhs_batch_f32(BATCH, N, nrhs);
                    let mut info = InfoArray::new(BATCH);
                    let opts = GbsvOptions {
                        parallel: Some(policy),
                        algo,
                        ..GbsvOptions::default()
                    };
                    let _ =
                        sgbsv_batch(&dev, &mut a, &mut piv, &mut rhs, &mut info, &opts).unwrap();
                    assert!(
                        info.all_ok(),
                        "sgbsv ({kl},{ku}) nrhs {nrhs} {algo:?} {policy:?}"
                    );
                    assert!(rhs.data().iter().all(|v| v.is_finite()));
                }
            }
        }
    }
}

// =================================================================
// Negative fixture 1: a missing barrier, located exactly
// =================================================================

/// The racy block program: lane 0 writes a cell and lane 1 reads it with
/// no barrier in between. An initial sync moves the conflict out of epoch
/// 0 so the report proves epochs are tracked, not just assumed.
fn missing_barrier_body(ctx: &mut gbatch::gpu_sim::BlockContext) {
    let off = ctx.smem.alloc(8);
    if let Some(t) = ctx.smem.tracker() {
        t.write(0, off + 3); // epoch 0: harmless single-lane write
    }
    ctx.sync(); // ---- barrier: epoch 0 -> 1
    if let Some(t) = ctx.smem.tracker() {
        t.write(0, off + 3);
        t.read(1, off + 3); // RAW: no barrier since lane 0's write
    }
}

#[test]
fn missing_barrier_is_reported_with_exact_location() {
    // Explicit Record override: the fixture must return a report, not
    // abort, regardless of the process-global Enforce the grid tests set.
    let cfg = LaunchConfig::new(4, 256)
        .with_hazard(HazardMode::Record)
        .with_label("missing_barrier_fixture");
    let mut data = vec![0usize; 2];
    let rep = launch(&dev(), &cfg, &mut data, |_, ctx| missing_barrier_body(ctx)).unwrap();

    assert_eq!(rep.counters.hazards, 2, "one RAW per block");
    assert_eq!(rep.hazards.len(), 2);
    for (block_id, r) in rep.hazards.iter().enumerate() {
        assert_eq!(r.block_id, block_id);
        assert_eq!(r.label, "missing_barrier_fixture");
        assert_eq!(r.total_hazards, 1);
        let h = &r.hazards[0];
        assert_eq!(h.kind, HazardKind::Raw);
        assert_eq!(h.offset, 3, "first arena allocation starts at 0");
        assert_eq!(h.epoch, 1, "conflict lands after the initial barrier");
        assert_eq!(h.first_lane, 0);
        assert_eq!(h.second_lane, 1);
    }
}

#[test]
fn missing_barrier_aborts_under_enforce_with_located_message() {
    let cfg = LaunchConfig::new(4, 256)
        .with_hazard(HazardMode::Enforce)
        .with_label("missing_barrier_fixture");
    let mut data = vec![0usize; 2];
    let err = catch_unwind(AssertUnwindSafe(|| {
        let _ = launch(&dev(), &cfg, &mut data, |_, ctx| missing_barrier_body(ctx));
    }))
    .expect_err("enforce must abort the racing block");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| err.downcast_ref::<&str>().unwrap().to_string());
    assert!(
        msg.contains("shared-memory hazard in `missing_barrier_fixture` block 0"),
        "{msg}"
    );
    assert!(
        msg.contains("RAW hazard at shared offset 3 in epoch 1: lane 0 then lane 1"),
        "{msg}"
    );
}

#[test]
fn inserting_the_barrier_clears_the_report() {
    // The corrected program — same accesses, a sync between them — must
    // run clean even under Enforce.
    let cfg = LaunchConfig::new(4, 256)
        .with_hazard(HazardMode::Enforce)
        .with_label("fixed_barrier_fixture");
    let mut data = vec![0usize; 2];
    let rep = launch(&dev(), &cfg, &mut data, |_, ctx| {
        let off = ctx.smem.alloc(8);
        if let Some(t) = ctx.smem.tracker() {
            t.write(0, off + 3);
        }
        ctx.sync();
        if let Some(t) = ctx.smem.tracker() {
            t.read(1, off + 3); // now a cross-epoch read: legal
        }
    })
    .unwrap();
    assert_eq!(rep.counters.hazards, 0);
    assert!(rep.hazards.is_empty());
}

// =================================================================
// Negative fixture 2: out-of-band row write caught by provenance
// =================================================================

/// Provenance checks are compiled in under `debug_assertions` or the
/// `verify` feature; the tier-1 `cargo test` run is a debug build, so the
/// gate is active here.
#[cfg(debug_assertions)]
#[test]
fn out_of_band_row_write_panics_with_exact_indices() {
    let l = BandLayout::factor(9, 9, 2, 3).unwrap();
    let len = l.ldab * l.n;
    let cfg = LaunchConfig::new(4, (len * 8) as u32).with_label("oob_write_fixture");

    // Positive control: a fill-in touch (row 0 of column 5 maps into the
    // workspace rows LU pivoting legitimately fills) passes the gate.
    let mut data = vec![0usize; 1];
    let _ = launch(&dev(), &cfg, &mut data, |_, ctx| {
        let off = ctx.smem.alloc(len);
        let mut w = SmemBand {
            data: ctx.smem.slice_mut(off, len),
            ldab: l.ldab,
            col0: 0,
            width: l.n,
            provenance: Some(l),
        };
        w.set(0, 5, 3.5);
    })
    .unwrap();

    // Band row 7 of column 8 maps to full-matrix row 7 + 8 - (kl+ku) = 10,
    // past m = 9: an out-of-range touch the classifier must reject with
    // the exact (band_row, column).
    let err = catch_unwind(AssertUnwindSafe(|| {
        let mut data = vec![0usize; 1];
        let _ = launch(&dev(), &cfg, &mut data, |_, ctx| {
            let off = ctx.smem.alloc(len);
            let mut w = SmemBand {
                data: ctx.smem.slice_mut(off, len),
                ldab: l.ldab,
                col0: 0,
                width: l.n,
                provenance: Some(l),
            };
            w.set(7, 8, 1.0);
        });
    }))
    .expect_err("provenance gate must reject the out-of-band write");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| err.downcast_ref::<&str>().unwrap().to_string());
    assert!(
        msg.contains("out-of-range band access in shared window: band_row 7, column 8"),
        "{msg}"
    );
}
