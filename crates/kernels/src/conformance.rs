//! Model-vs-kernel conformance driver.
//!
//! For every modeled family and a grid of concrete shapes, this module
//! runs the *real* kernel under
//! [`HazardMode::Trace`],
//! harvests the data-dependent facts the model's schedule needs (pivot
//! offsets, nonzero flags) by replaying the numerics on the host, and
//! asserts that the model's predicted footprint
//! ([`gbatch_analyzer::concretize`]) matches the kernel's recorded one
//! epoch by epoch and access by access. A model that drifts from its
//! kernel — a missed access, a wrong guard, an extra barrier — fails here
//! with a located divergence, which is what makes the race proof in
//! [`crate::access_model`] trustworthy.
//!
//! The batches are seeded so the data-dependent paths all fire: a
//! diagonally dominant block (`jp = 0` everywhere), a bottom-heavy block
//! (pivoting on every column with `kl > 0`), a mixed block with genuine
//! in-band zeros (exercising the `u_nz`/`bx_nz`/`fwd_nz` skip paths), and
//! a block whose first column is zero (exercising the zero-pivot
//! head-only epoch and the GBSV `info` machine).

use crate::access_model::{registry, Rigor};
use crate::fused::{gbtrf_batch_fused, FusedParams};
use crate::gbsv_fused::gbsv_batch_fused;
use crate::gbtrs_blocked::{blocked_solve, SolveParams};
use crate::interleaved::{
    gbtrf_batch_interleaved, gbtrs_batch_interleaved, interleave_launch, InterleavedParams,
};
use crate::window::{gbtrf_batch_window, WindowParams};
use gbatch_analyzer::{compare_trace, concretize, KernelModel, Oracle, Shape};
use gbatch_core::batch::{BandBatch, InfoArray, PivotBatch, RhsBatch};
use gbatch_core::gbtf2::gbtf2;
use gbatch_core::layout::BandLayout;
use gbatch_core::scalar::Scalar;
use gbatch_gpu_sim::hazard::{self, HazardMode};
use gbatch_gpu_sim::{DeviceSpec, HazardReport, ParallelPolicy};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Serializes conformance runs: the hazard mode is process-wide, so a
/// second run finishing early would restore the old mode under the first.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

/// Restores the process-wide hazard mode on drop, so a failed conformance
/// check cannot leak `Trace` mode into unrelated tests. The lock is
/// released only after the mode is restored.
pub(crate) struct ModeGuard {
    prev: HazardMode,
    _lock: MutexGuard<'static, ()>,
}

impl Drop for ModeGuard {
    fn drop(&mut self) {
        hazard::set_global_mode(self.prev);
    }
}

fn trace_mode() -> ModeGuard {
    global_mode_scope(HazardMode::Trace)
}

/// Set the process-wide hazard mode to `mode` until the guard drops,
/// serialized with every other such scope in this crate.
pub(crate) fn global_mode_scope(mode: HazardMode) -> ModeGuard {
    let lock = TRACE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let guard = ModeGuard {
        prev: hazard::global_mode(),
        _lock: lock,
    };
    hazard::set_global_mode(mode);
    guard
}

/// Number of matrices in each conformance batch.
pub const CONFORMANCE_BATCH: usize = 4;

/// Deterministic band seed covering all four data regimes (see module
/// docs). `id` is taken modulo 4.
fn seed_band<S: Scalar>(id: usize, i: usize, j: usize) -> S {
    let base = (((i * 7 + j * 3 + id) % 11) as f64) * 0.25 - 1.0;
    let x = match id % 4 {
        // Diagonally dominant: |diag| >= 3 vs off-diag <= 0.375 — the
        // pivot search never leaves the diagonal on the original matrix.
        0 => {
            if i == j {
                base + 4.0
            } else {
                base * 0.25
            }
        }
        // Bottom-heavy: the subdiagonal dominates, forcing jp != 0
        // whenever kl > 0.
        1 => {
            if i > j {
                base + 3.0
            } else {
                base
            }
        }
        // Mixed magnitudes with genuine in-band zeros: exercises the
        // nonzero-gated update skips.
        2 => {
            if (i * 5 + j * 2).is_multiple_of(7) {
                0.0
            } else if i == j {
                base + 0.4
            } else {
                base
            }
        }
        // First column identically zero: info = 1, zero-pivot epochs.
        _ => {
            if j == 0 {
                0.0
            } else if i == j {
                base + 1.5
            } else {
                base
            }
        }
    };
    S::from_f64(x)
}

fn seed_rhs<S: Scalar>(id: usize, row: usize, col: usize) -> S {
    if (row + col + id).is_multiple_of(5) {
        S::ZERO
    } else {
        S::from_f64((((row * 3 + col * 7 + id) % 9) as f64) * 0.5 - 1.0)
    }
}

fn factor_batch<S: Scalar>(shape: &Shape, batch: usize) -> BandBatch<S> {
    BandBatch::from_fn(batch, shape.n, shape.n, shape.kl, shape.ku, |id, m| {
        for j in 0..shape.n {
            for i in j.saturating_sub(shape.ku)..=(j + shape.kl).min(shape.n - 1) {
                m.set(i, j, seed_band::<S>(id, i, j));
            }
        }
    })
    .expect("conformance shape must be a valid band layout")
}

/// Host-factor one band block and harvest the factor-family oracle:
/// pivot offsets `jp`, the `piv_nz` flags, and the `u_nz` flags gating the
/// rank-1 update columns. Returns the factored band and pivots too (the
/// GBSV and GBTRS oracles replay against the final factors).
fn factor_oracle<S: Scalar>(l: &BandLayout, band: &[S]) -> (Vec<S>, Vec<i32>, Oracle) {
    let n = l.n;
    let kv = l.kv();
    let mut ab = band.to_vec();
    let mut ipiv = vec![0i32; n];
    gbtf2(l, &mut ab, &mut ipiv);
    let mut oracle = Oracle {
        jp: (0..n).map(|j| i64::from(ipiv[j]) - j as i64).collect(),
        ..Oracle::default()
    };
    for j in 0..n {
        // Column j is final after step j, so the *final* factors give the
        // exact values the kernel saw mid-run.
        oracle
            .flags
            .insert(("piv_nz", vec![j as i64]), ab[l.idx(kv, j)] != S::ZERO);
        for c in 1..=kv.min(n - 1 - j) {
            oracle.flags.insert(
                ("u_nz", vec![j as i64, c as i64]),
                ab[l.idx(kv - c, j + c)] != S::ZERO,
            );
        }
    }
    (ab, ipiv, oracle)
}

/// Extend a factor oracle with the GBSV forward-solve flags `bx_nz(c, j)`
/// by mirroring the kernel's interleaved factor/forward machine — the same
/// first-zero-pivot skip, the same swap, the same update order — against
/// the final factors (exact: column `j` is final by the time the kernel's
/// forward step reads it).
fn gbsv_extend_oracle<S: Scalar>(
    l: &BandLayout,
    ab_f: &[S],
    ipiv: &[i32],
    rhs_block: &[S],
    nrhs: usize,
    oracle: &mut Oracle,
) {
    let n = l.n;
    let kl = l.kl;
    let kv = l.kv();
    if kl == 0 || n < 2 {
        return;
    }
    let mut bx = rhs_block.to_vec();
    let mut info = 0usize;
    for j in 0..n - 1 {
        if ab_f[l.idx(kv, j)] == S::ZERO && info == 0 {
            info = j + 1;
        }
        if info != 0 && info == j + 1 {
            continue; // first zero-pivot column: kernel skips its forward step
        }
        let pr = ipiv[j] as usize;
        if pr != j {
            for c in 0..nrhs {
                bx.swap(c * n + pr, c * n + j);
            }
        }
        let lm = kl.min(n - 1 - j);
        for c in 0..nrhs {
            let bj = bx[c * n + j];
            oracle
                .flags
                .insert(("bx_nz", vec![c as i64, j as i64]), bj != S::ZERO);
            if bj != S::ZERO {
                for i in 1..=lm {
                    let m = ab_f[l.idx(kv + i, j)];
                    bx[c * n + j + i] -= m * bj;
                }
            }
        }
    }
}

/// Harvest the GBTRS oracle for one block: `jp` from the host pivots,
/// `fwd_nz(c, j)` (the post-swap RHS value driving the forward rank-1) and
/// `bwd_nz(c, j)` (the pre-division value driving the backward column
/// step), by replaying both substitutions on the host.
fn gbtrs_oracle<S: Scalar>(
    l: &BandLayout,
    ab_f: &[S],
    ipiv: &[i32],
    rhs_block: &[S],
    nrhs: usize,
) -> Oracle {
    let n = l.n;
    let kl = l.kl;
    let kv = l.kv();
    let mut oracle = Oracle {
        jp: (0..n).map(|j| i64::from(ipiv[j]) - j as i64).collect(),
        ..Oracle::default()
    };
    for c in 0..nrhs {
        let mut y = rhs_block[c * n..(c + 1) * n].to_vec();
        if kl > 0 && n > 1 {
            for j in 0..n - 1 {
                y.swap(j, ipiv[j] as usize);
                let flag = y[j] != S::ZERO;
                oracle
                    .flags
                    .insert(("fwd_nz", vec![c as i64, j as i64]), flag);
                if flag {
                    for i in 1..=kl.min(n - 1 - j) {
                        let m = ab_f[l.idx(kv + i, j)];
                        y[j + i] = y[j + i] - m * y[j];
                    }
                }
            }
        }
        for j in (0..n).rev() {
            oracle
                .flags
                .insert(("bwd_nz", vec![c as i64, j as i64]), y[j] != S::ZERO);
            let bj = y[j] / ab_f[l.idx(kv, j)];
            y[j] = bj;
            if bj != S::ZERO {
                for i in 1..=kv.min(j) {
                    let m = ab_f[l.idx(kv - i, j)];
                    y[j - i] -= m * bj;
                }
            }
        }
    }
    oracle
}

/// Check one launch's per-block traces against per-block oracles.
fn check_blocks(
    model: &KernelModel,
    shape: &Shape,
    sbytes: usize,
    reports: &[HazardReport],
    oracles: &[Oracle],
) -> Result<usize, String> {
    if reports.len() != oracles.len() {
        return Err(format!(
            "{} at {:?}: {} traced blocks for {} matrices",
            model.family,
            shape,
            reports.len(),
            oracles.len()
        ));
    }
    for (id, rep) in reports.iter().enumerate() {
        if rep.block_id != id {
            return Err(format!(
                "{} at {:?}: trace {} has block id {}",
                model.family, shape, id, rep.block_id
            ));
        }
        if rep.label != model.label {
            return Err(format!(
                "{} at {:?}: kernel label `{}` != model label `{}`",
                model.family, shape, rep.label, model.label
            ));
        }
        if rep.total_hazards != 0 {
            return Err(format!(
                "{} at {:?}: block {} recorded {} hazards",
                model.family, shape, id, rep.total_hazards
            ));
        }
        let predicted = concretize(model, shape, &oracles[id], sbytes);
        compare_trace(&predicted, rep)
            .map_err(|e| format!("{} at {:?}: {}", model.family, shape, e))?;
    }
    Ok(reports.len())
}

fn conform_factor<S: Scalar>(
    dev: &DeviceSpec,
    model: &KernelModel,
    shape: &Shape,
) -> Result<usize, String> {
    let mut a = factor_batch::<S>(shape, CONFORMANCE_BATCH);
    let l = a.layout();
    let pristine = a.data().to_vec();
    let stride = a.matrix_stride();
    let mut piv = PivotBatch::new(CONFORMANCE_BATCH, shape.n, shape.n);
    let mut info = InfoArray::new(CONFORMANCE_BATCH);
    let rep = {
        let _guard = trace_mode();
        match model.family {
            "gbtrf_fused" => gbtrf_batch_fused(
                dev,
                &mut a,
                &mut piv,
                &mut info,
                FusedParams {
                    threads: shape.threads as u32,
                    parallel: ParallelPolicy::Serial,
                },
            ),
            "gbtrf_window" => gbtrf_batch_window(
                dev,
                &mut a,
                &mut piv,
                &mut info,
                WindowParams {
                    nb: shape.nb,
                    threads: shape.threads as u32,
                    parallel: ParallelPolicy::Serial,
                },
            ),
            other => panic!("not a factor family: {other}"),
        }
        .map_err(|e| format!("{} at {shape:?}: launch failed: {e}", model.family))?
    };
    let oracles: Vec<Oracle> = (0..CONFORMANCE_BATCH)
        .map(|id| factor_oracle::<S>(&l, &pristine[id * stride..(id + 1) * stride]).2)
        .collect();
    check_blocks(model, shape, S::BYTES, &rep.hazards, &oracles)
}

fn conform_gbsv<S: Scalar>(
    dev: &DeviceSpec,
    model: &KernelModel,
    shape: &Shape,
) -> Result<usize, String> {
    let mut a = factor_batch::<S>(shape, CONFORMANCE_BATCH);
    let l = a.layout();
    let pristine = a.data().to_vec();
    let stride = a.matrix_stride();
    let mut rhs = RhsBatch::<S>::from_fn(CONFORMANCE_BATCH, shape.n, shape.nrhs, seed_rhs::<S>)
        .expect("valid rhs shape");
    let pristine_rhs = rhs.block(0).len();
    debug_assert_eq!(
        pristine_rhs,
        shape.n * shape.nrhs,
        "gbsv oracle assumes ldb == n"
    );
    let rhs_blocks: Vec<Vec<S>> = (0..CONFORMANCE_BATCH)
        .map(|id| rhs.block(id).to_vec())
        .collect();
    let mut piv = PivotBatch::new(CONFORMANCE_BATCH, shape.n, shape.n);
    let mut info = InfoArray::new(CONFORMANCE_BATCH);
    let rep = {
        let _guard = trace_mode();
        gbsv_batch_fused(
            dev,
            &mut a,
            &mut piv,
            &mut rhs,
            &mut info,
            shape.threads as u32,
            ParallelPolicy::Serial,
        )
        .map_err(|e| format!("{} at {shape:?}: launch failed: {e}", model.family))?
    };
    let oracles: Vec<Oracle> = (0..CONFORMANCE_BATCH)
        .map(|id| {
            let (ab_f, ipiv, mut oracle) =
                factor_oracle::<S>(&l, &pristine[id * stride..(id + 1) * stride]);
            gbsv_extend_oracle::<S>(&l, &ab_f, &ipiv, &rhs_blocks[id], shape.nrhs, &mut oracle);
            oracle
        })
        .collect();
    check_blocks(model, shape, S::BYTES, &rep.hazards, &oracles)
}

/// The blocked solve at `shape`, split into `groups` column groups of
/// equal width per system: each block is checked against the model at
/// `nrhs = width` over its own columns.
fn conform_gbtrs<S: Scalar>(
    dev: &DeviceSpec,
    forward: &KernelModel,
    backward: &KernelModel,
    shape: &Shape,
    groups: usize,
) -> Result<usize, String> {
    let (width, count) = crate::gbtrs_blocked::column_groups(shape.nrhs, groups);
    assert!(
        shape.nrhs.is_multiple_of(width),
        "grouped conformance shape {shape:?} needs groups of equal width"
    );
    // GBTRS wants (mostly) nonsingular factors: reuse the first three band
    // regimes and skip the singular one.
    let batch = 3usize;
    let a = factor_batch::<S>(shape, batch);
    let l = a.layout();
    let stride = a.matrix_stride();
    let mut factors = a.data().to_vec();
    let mut piv = PivotBatch::new(batch, shape.n, shape.n);
    for id in 0..batch {
        gbtf2(
            &l,
            &mut factors[id * stride..(id + 1) * stride],
            piv.pivots_mut(id),
        );
    }
    let mut rhs =
        RhsBatch::<S>::from_fn(batch, shape.n, shape.nrhs, seed_rhs::<S>).expect("valid rhs shape");
    let rhs_blocks: Vec<Vec<S>> = (0..batch).map(|id| rhs.block(id).to_vec()).collect();
    let rep = {
        let _guard = trace_mode();
        let params = SolveParams {
            nb: shape.nb,
            threads: shape.threads as u32,
            parallel: ParallelPolicy::Serial,
        };
        blocked_solve(dev, &l, &factors, &piv, &mut rhs, None, params, groups)
            .map_err(|e| format!("gbtrs at {shape:?}: launch failed: {e}"))?
    };
    let oracles: Vec<Oracle> = (0..batch)
        .flat_map(|id| (0..count).map(move |g| (id, g * width * shape.n)))
        .map(|(id, at)| {
            gbtrs_oracle::<S>(
                &l,
                &factors[id * stride..(id + 1) * stride],
                piv.pivots(id),
                &rhs_blocks[id][at..at + width * shape.n],
                width,
            )
        })
        .collect();
    let shape = &Shape {
        nrhs: width,
        ..*shape
    };
    let mut checks = 0;
    match (&rep.forward, shape.kl > 0 && shape.n > 1) {
        (Some(f), true) => {
            checks += check_blocks(forward, shape, S::BYTES, &f.hazards, &oracles)?;
        }
        (None, false) => {}
        (Some(_), false) => {
            return Err(format!("gbtrs at {shape:?}: unexpected forward launch"));
        }
        (None, true) => {
            return Err(format!("gbtrs at {shape:?}: forward launch missing"));
        }
    }
    checks += check_blocks(backward, shape, S::BYTES, &rep.backward.hazards, &oracles)?;
    Ok(checks)
}

/// The interleaved kernels are lane-private: they must make *no* tracked
/// shared-memory accesses at all. Run relayout + factor + solve under
/// `Trace` and require completely empty hazard reports.
fn conform_interleaved<S: Scalar>(dev: &DeviceSpec, shape: &Shape) -> Result<usize, String> {
    let mut a = factor_batch::<S>(shape, CONFORMANCE_BATCH);
    let params = InterleavedParams {
        lanes_per_block: shape.lanes,
        threads: shape.threads as u32,
        parallel: ParallelPolicy::Serial,
    };
    let _guard = trace_mode();
    let rep0 = interleave_launch(dev, &a.layout(), a.data(), params)
        .map_err(|e| format!("interleave at {shape:?}: launch failed: {e}"))?;
    let mut piv = PivotBatch::new(CONFORMANCE_BATCH, shape.n, shape.n);
    let mut info = InfoArray::new(CONFORMANCE_BATCH);
    let rep1 = gbtrf_batch_interleaved(dev, &mut a, &mut piv, &mut info, params)
        .map_err(|e| format!("gbtrf_interleaved at {shape:?}: launch failed: {e}"))?;
    let mut rhs = RhsBatch::<S>::from_fn(CONFORMANCE_BATCH, shape.n, shape.nrhs, seed_rhs::<S>)
        .expect("valid rhs shape");
    let rep2 = gbtrs_batch_interleaved(dev, &a.layout(), a.data(), &piv, &mut rhs, &info, params)
        .map_err(|e| format!("gbtrs_interleaved at {shape:?}: launch failed: {e}"))?;
    for (rep, which) in [(&rep0, "relayout"), (&rep1, "factor"), (&rep2, "solve")] {
        if !rep.hazards.is_empty() {
            return Err(format!(
                "interleaved {which} at {shape:?}: lane-private kernel produced {} trace reports",
                rep.hazards.len()
            ));
        }
    }
    Ok(3)
}

/// Conform the SPIKE coupling kernels: run extract / combine / residual
/// over a 3-way partition of a single matrix under `Trace` and match the
/// staged-slice epochs against the models. The residual kernel is
/// lane-private and must leave an empty trace. Shapes with an empty band
/// (`kl + ku == 0`) are outside the split driver's domain and are
/// skipped.
fn conform_spike<S: Scalar>(
    dev: &DeviceSpec,
    extract: &KernelModel,
    combine: &KernelModel,
    shape: &Shape,
) -> Result<usize, String> {
    use crate::spike::{
        spike_combine_launch, spike_extract_launch, spike_residual_launch, SpikeMode, SpikeParams,
    };
    use gbatch_core::spike::SpikePartition;
    let (kl, ku, nrhs) = (shape.kl, shape.ku, shape.nrhs);
    if kl + ku == 0 {
        return Ok(0);
    }
    // Three blocks, with the shape's own `n` perturbing the remainder so
    // the identity-padded last block is exercised too.
    let n = 3 * (kl + ku + 1) + shape.n;
    let sshape = Shape { n, ..*shape };
    let part = SpikePartition::new(n, kl, ku, 3);
    if part.interfaces() == 0 {
        return Ok(0);
    }
    let a = factor_batch::<S>(&sshape, 1);
    let params = SpikeParams {
        parts: part.parts,
        mode: SpikeMode::Exact,
        max_refine: 0,
        nb: shape.nb,
        threads: shape.threads as u32,
        parallel: ParallelPolicy::Serial,
    };
    let _guard = trace_mode();
    let (_, rep) = spike_extract_launch(dev, &a, 0, &part, &params)
        .map_err(|e| format!("spike_extract at {shape:?}: launch failed: {e}"))?;
    let oracles = vec![Oracle::default(); part.interfaces()];
    let mut checks = check_blocks(extract, &sshape, S::BYTES, &rep.hazards, &oracles)?;

    let aug = RhsBatch::<S>::from_fn(part.parts, part.block, nrhs + ku + kl, seed_rhs::<S>)
        .expect("valid augmented rhs shape");
    let y: Vec<S> = (0..part.reduced_order() * nrhs)
        .map(|i| seed_rhs::<S>(0, i % 7, i / 7))
        .collect();
    let rep = spike_combine_launch(
        dev,
        &part,
        &aug,
        &aug,
        nrhs,
        nrhs,
        &y,
        &params,
        &mut Vec::new(),
    )
    .map_err(|e| format!("spike_combine at {shape:?}: launch failed: {e}"))?;
    let oracles = vec![Oracle::default(); part.parts];
    checks += check_blocks(combine, &sshape, S::BYTES, &rep.hazards, &oracles)?;

    let x: Vec<S> = (0..n * nrhs)
        .map(|i| seed_rhs::<S>(1, i % 9, i / 9))
        .collect();
    let f: Vec<S> = (0..n * nrhs)
        .map(|i| seed_rhs::<S>(2, i % 8, i / 8))
        .collect();
    let rep = spike_residual_launch(dev, &a, 0, &part, &x, &f, nrhs, &params, &mut Vec::new())
        .map_err(|e| format!("spike_residual at {shape:?}: launch failed: {e}"))?;
    if !rep.hazards.is_empty() {
        return Err(format!(
            "spike_residual at {shape:?}: lane-private kernel produced {} trace reports",
            rep.hazards.len()
        ));
    }
    Ok(checks + 1)
}

/// The conformance shape grid. Every shape keeps `threads >= kl + 1` so
/// the requested thread count is also the effective one the models stripe
/// over. The grid covers both window shift paths (`keep <= jb` merged,
/// `keep > jb` split), `kl = 0`, tall bands, and `n = 1`.
pub fn conformance_shapes(rigor: Rigor) -> Vec<Shape> {
    let mk = |(n, kl, ku, nb, nrhs, threads): (usize, usize, usize, usize, usize, usize)| Shape {
        n,
        kl,
        ku,
        nrhs,
        nb,
        threads,
        lanes: 2,
    };
    let mut raw = vec![
        (1, 0, 0, 1, 1, 4),
        (3, 1, 0, 1, 1, 2),
        (4, 1, 1, 2, 2, 4),
        // kl=2, ku=1, nb=1: window keep = 4 > jb = 1 — the split shift.
        (5, 2, 1, 1, 2, 4),
        (6, 0, 2, 2, 1, 3),
        (7, 2, 2, 3, 2, 8),
        (8, 3, 1, 2, 3, 4),
        (9, 2, 3, 4, 2, 8),
    ];
    if rigor == Rigor::Full {
        raw.extend([
            (2, 0, 1, 1, 1, 4),
            (5, 4, 0, 2, 1, 8),
            (6, 1, 1, 1, 2, 2),
            (9, 4, 2, 3, 2, 8),
            (10, 3, 3, 3, 3, 4),
            (10, 2, 1, 1, 1, 3),
            (11, 1, 2, 2, 2, 3),
            (12, 0, 3, 2, 2, 4),
            (12, 3, 2, 4, 3, 8),
        ]);
    }
    raw.into_iter().map(mk).collect()
}

/// Run the full conformance pass for scalar type `S`: every modeled family
/// at every applicable shape. Returns the number of per-block trace
/// matches performed, or the first located divergence.
pub fn run_conformance<S: Scalar>(rigor: Rigor) -> Result<usize, String> {
    let dev = DeviceSpec::h100_pcie();
    let models = registry(rigor);
    let by_family = |name: &str| -> &KernelModel {
        models
            .iter()
            .find(|m| m.family == name)
            .unwrap_or_else(|| panic!("registry has no family {name}"))
    };
    let mut checks = 0;
    for shape in conformance_shapes(rigor) {
        assert!(
            shape.threads > shape.kl,
            "conformance shape {shape:?} must keep threads >= kl + 1"
        );
        checks += conform_factor::<S>(&dev, by_family("gbtrf_fused"), &shape)?;
        checks += conform_factor::<S>(&dev, by_family("gbtrf_window"), &shape)?;
        checks += conform_gbsv::<S>(&dev, by_family("gbsv_fused"), &shape)?;
        checks += conform_gbtrs::<S>(
            &dev,
            by_family("gbtrs_forward"),
            by_family("gbtrs_backward"),
            &shape,
            1,
        )?;
        checks += conform_interleaved::<S>(&dev, &shape)?;
        checks += conform_spike::<S>(
            &dev,
            by_family("spike_extract"),
            by_family("spike_combine"),
            &shape,
        )?;
    }
    // One grouped solve: three systems of six columns in two groups of
    // three, so every system's second block starts at column 3 and numbers
    // it 0, whatever the thread count.
    let grouped = Shape {
        n: 9,
        kl: 2,
        ku: 1,
        nrhs: 6,
        nb: 2,
        threads: 4,
        lanes: 2,
    };
    checks += conform_gbtrs::<S>(
        &dev,
        by_family("gbtrs_forward"),
        by_family("gbtrs_backward"),
        &grouped,
        2,
    )?;
    Ok(checks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_oracle_marks_singular_first_column() {
        let shape = Shape {
            n: 4,
            kl: 1,
            ku: 1,
            nrhs: 1,
            nb: 1,
            threads: 4,
            lanes: 1,
        };
        let a = factor_batch::<f64>(&shape, 4);
        let l = a.layout();
        let stride = a.matrix_stride();
        let (_, _, oracle) = factor_oracle::<f64>(&l, &a.data()[3 * stride..4 * stride]);
        assert!(
            !oracle.flag("piv_nz", &[0]),
            "seed 3 has a zero first column"
        );
        assert_eq!(oracle.jp[0], 0);
        let (_, _, dom) = factor_oracle::<f64>(&l, &a.data()[..stride]);
        assert!((0..4).all(|j| dom.jp[j] == 0), "dominant seed never pivots");
    }

    #[test]
    fn bottom_heavy_seed_actually_pivots() {
        let shape = Shape {
            n: 5,
            kl: 2,
            ku: 1,
            nrhs: 1,
            nb: 1,
            threads: 4,
            lanes: 1,
        };
        let a = factor_batch::<f64>(&shape, 4);
        let l = a.layout();
        let stride = a.matrix_stride();
        let (_, _, oracle) = factor_oracle::<f64>(&l, &a.data()[stride..2 * stride]);
        assert!(oracle.jp.iter().any(|&jp| jp != 0), "no pivoting exercised");
    }
}
