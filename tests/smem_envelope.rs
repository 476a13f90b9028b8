//! Shared-memory envelope boundary checks (analyzer vs dispatch).
//!
//! For each modeled family the analyzer bisects the symbolic footprint
//! formula into the largest feasible matrix order per device
//! ([`max_feasible_n`]). These tests pin that table to reality on the two
//! production device models: the boundary order must launch, one past it
//! must be rejected by the launch validation, and the symbolic formula
//! must agree byte-for-byte with the kernel's own `*_smem_bytes` helper.

use gbatch_analyzer::{max_feasible_n, Env, MaxN};
use gbatch_core::batch::{BandBatch, InfoArray, PivotBatch, RhsBatch};
use gbatch_core::layout::BandLayout;
use gbatch_gpu_sim::multi::DeviceGroup;
use gbatch_gpu_sim::{DeviceSpec, ParallelPolicy};
use gbatch_kernels::access_model::{
    fused_model, gbsv_model, gbtrs_backward_model, gbtrs_forward_model, interleaved_solve_model,
    window_model, Rigor,
};
use gbatch_kernels::fused::{fused_smem_bytes, gbtrf_batch_fused, FusedParams};
use gbatch_kernels::gbsv_fused::{gbsv_batch_fused, gbsv_smem_bytes};
use gbatch_kernels::interleaved::{
    gbtrf_batch_interleaved, gbtrs_batch_interleaved, interleave_launch, solve_mode,
    solve_smem_bytes, InterleavedParams, LaneTrafficMode,
};
use gbatch_kernels::window::{gbtrf_batch_window, WindowParams};

const KL: usize = 2;
const KU: usize = 1;
const NRHS: usize = 2;
const NB: usize = 4;
const LANES: usize = 2;

fn band_env(sbytes: usize) -> Env {
    Env::from([
        ("kl", KL as i64),
        ("ku", KU as i64),
        ("kv", (KL + KU) as i64),
        ("ldab", (2 * KL + KU + 1) as i64),
        ("nrhs", NRHS as i64),
        ("nb", NB as i64),
        ("lanes", LANES as i64),
        ("sbytes", sbytes as i64),
    ])
}

fn devices() -> Vec<DeviceSpec> {
    vec![
        DeviceSpec::h100_pcie(),
        DeviceGroup::mi250x_full().devices[0].clone(),
    ]
}

/// Identity-diagonal band batch: factorization is trivial, so boundary
/// launches at very large `n` stay fast.
fn identity_band(n: usize) -> BandBatch<f64> {
    BandBatch::from_fn(1, n, n, KL, KU, |_, m| {
        for j in 0..n {
            m.set(j, j, 1.0);
        }
    })
    .unwrap()
}

fn launch_fused(dev: &DeviceSpec, n: usize) -> bool {
    let mut a = identity_band(n);
    let mut piv = PivotBatch::new(1, n, n);
    let mut info = InfoArray::new(1);
    gbtrf_batch_fused(
        dev,
        &mut a,
        &mut piv,
        &mut info,
        FusedParams {
            threads: 8,
            parallel: ParallelPolicy::Serial,
        },
    )
    .is_ok()
}

#[test]
fn fused_boundary_matches_dispatch() {
    let model = fused_model(Rigor::Quick);
    for dev in devices() {
        let env = band_env(8);
        let MaxN::Bounded(nmax) =
            max_feasible_n(&model.smem_bytes, &env, dev.max_smem_per_block as usize)
        else {
            panic!("fused must be n-bounded on {}", dev.name)
        };
        let nmax = nmax as usize;
        let ldab = 2 * KL + KU + 1;
        let mut e = env.clone();
        e.insert("n", nmax as i64);
        assert_eq!(
            model.smem_bytes.eval(&e) as usize,
            fused_smem_bytes::<f64>(ldab, nmax),
            "model formula disagrees with the kernel helper on {}",
            dev.name
        );
        assert!(
            launch_fused(&dev, nmax),
            "n = {nmax} must fit on {}",
            dev.name
        );
        assert!(
            !launch_fused(&dev, nmax + 1),
            "n = {} must be rejected on {}",
            nmax + 1,
            dev.name
        );
    }
}

fn launch_gbsv(dev: &DeviceSpec, n: usize) -> bool {
    let mut a = identity_band(n);
    let mut rhs = RhsBatch::<f64>::from_fn(1, n, NRHS, |_, r, c| (r + c) as f64).unwrap();
    let mut piv = PivotBatch::new(1, n, n);
    let mut info = InfoArray::new(1);
    gbsv_batch_fused(
        dev,
        &mut a,
        &mut piv,
        &mut rhs,
        &mut info,
        8,
        ParallelPolicy::Serial,
    )
    .is_ok()
}

#[test]
fn gbsv_boundary_matches_dispatch() {
    let model = gbsv_model(Rigor::Quick);
    for dev in devices() {
        let env = band_env(8);
        let MaxN::Bounded(nmax) =
            max_feasible_n(&model.smem_bytes, &env, dev.max_smem_per_block as usize)
        else {
            panic!("gbsv must be n-bounded on {}", dev.name)
        };
        let nmax = nmax as usize;
        let l = BandLayout::factor(nmax, nmax, KL, KU).unwrap();
        let mut e = env.clone();
        e.insert("n", nmax as i64);
        assert_eq!(
            model.smem_bytes.eval(&e) as usize,
            gbsv_smem_bytes::<f64>(&l, NRHS),
            "model formula disagrees with the kernel helper on {}",
            dev.name
        );
        assert!(
            launch_gbsv(&dev, nmax),
            "n = {nmax} must fit on {}",
            dev.name
        );
        assert!(
            !launch_gbsv(&dev, nmax + 1),
            "n = {} must be rejected on {}",
            nmax + 1,
            dev.name
        );
    }
}

fn launch_interleaved_solve(dev: &DeviceSpec, n: usize) -> bool {
    let mut a = identity_band(n);
    let params = InterleavedParams {
        lanes_per_block: LANES,
        threads: 8,
        parallel: ParallelPolicy::Serial,
    };
    let _ = interleave_launch(dev, &a.layout(), a.data(), params).unwrap();
    let mut piv = PivotBatch::new(1, n, n);
    let mut info = InfoArray::new(1);
    let _ = gbtrf_batch_interleaved(dev, &mut a, &mut piv, &mut info, params).unwrap();
    let mut rhs = RhsBatch::<f64>::from_fn(1, n, NRHS, |_, r, c| (r + c) as f64).unwrap();
    gbtrs_batch_interleaved(dev, &a.layout(), a.data(), &piv, &mut rhs, &info, params).is_ok()
}

#[test]
fn interleaved_solve_boundary_matches_dispatch() {
    let model = interleaved_solve_model();
    for dev in devices() {
        let env = band_env(8);
        let MaxN::Bounded(nmax) =
            max_feasible_n(&model.smem_bytes, &env, dev.max_smem_per_block as usize)
        else {
            panic!("interleaved solve must be n-bounded on {}", dev.name)
        };
        let nmax = nmax as usize;
        let l = BandLayout::factor(nmax, nmax, KL, KU).unwrap();
        let mut e = env.clone();
        e.insert("n", nmax as i64);
        assert_eq!(
            model.smem_bytes.eval(&e) as usize,
            solve_smem_bytes::<f64>(&l, NRHS, LANES),
            "model formula disagrees with the kernel helper on {}",
            dev.name
        );
        // The interleaved solve never rejects a launch: past the window
        // boundary it degrades to streaming mode (smem = 0) instead. The
        // analyzer boundary must coincide exactly with that mode switch,
        // and both sides must still launch.
        assert_eq!(
            solve_mode::<f64>(&dev, &l, NRHS, LANES),
            LaneTrafficMode::Windowed,
            "n = {nmax} must stay windowed on {}",
            dev.name
        );
        let l_next = BandLayout::factor(nmax + 1, nmax + 1, KL, KU).unwrap();
        assert_eq!(
            solve_mode::<f64>(&dev, &l_next, NRHS, LANES),
            LaneTrafficMode::Streaming,
            "n = {} must fall back to streaming on {}",
            nmax + 1,
            dev.name
        );
        assert!(launch_interleaved_solve(&dev, nmax));
        assert!(launch_interleaved_solve(&dev, nmax + 1));
    }
}

/// The window-buffered families saturate: their footprint stops growing
/// once the cache covers the band, so the analyzer reports them unbounded
/// in `n` — and a window launch must succeed at an order the fused kernel
/// cannot fit on the same device.
#[test]
fn window_buffered_families_are_unbounded_and_outlive_fused() {
    let dev = DeviceGroup::mi250x_full().devices[0].clone();
    let env = band_env(8);
    let limit = dev.max_smem_per_block as usize;
    for model in [
        window_model(Rigor::Quick),
        gbtrs_forward_model(Rigor::Quick),
        gbtrs_backward_model(Rigor::Quick),
    ] {
        assert_eq!(
            max_feasible_n(&model.smem_bytes, &env, limit),
            MaxN::Unbounded,
            "family {} should saturate in n",
            model.family
        );
    }
    let fused = fused_model(Rigor::Quick);
    let MaxN::Bounded(fused_max) = max_feasible_n(&fused.smem_bytes, &env, limit) else {
        panic!("fused must be n-bounded")
    };
    let n = fused_max as usize + 1;
    assert!(!launch_fused(&dev, n));
    let mut a = identity_band(n);
    let mut piv = PivotBatch::new(1, n, n);
    let mut info = InfoArray::new(1);
    let _ = gbtrf_batch_window(
        &dev,
        &mut a,
        &mut piv,
        &mut info,
        WindowParams {
            nb: NB,
            threads: 8,
            parallel: ParallelPolicy::Serial,
        },
    )
    .expect("window must handle orders past the fused limit");
}
