//! Deterministic work-stealing parallel block executor.
//!
//! The engine's block programs are independent by construction (one grid
//! block per batch problem, disjoint `&mut` problem access), and
//! [`KernelCounters`] merge associatively and commutatively (sums and
//! maxes). Those two facts let this module fan blocks out across OS
//! threads while guaranteeing results that are **bitwise-identical** to
//! the serial path:
//!
//! - each block's numerics touch only its own problem and a private
//!   shared-memory arena, so per-block outputs (factors, pivots, `info`)
//!   cannot depend on scheduling;
//! - per-block counters are merged into per-chunk partials in ascending
//!   block order, and chunk partials are merged in ascending chunk order
//!   after the join — a stable reduction tree whose every operation
//!   (u64 `+`, u64/f64 `max`) is order-insensitive anyway.
//!
//! Work distribution is deque-based stealing: contiguous block chunks are
//! seeded round-robin onto per-worker LIFO deques; an idle worker first
//! drains its own deque, then steals (FIFO) from siblings, so load
//! imbalance from variable per-matrix cost self-corrects.
//!
//! Host scratch: every worker (the calling thread on the serial path)
//! checks one [`crate::scratch::Scratch`] arena out of the process-wide
//! pool before its first block and back in after its last, so block
//! programs borrow zeroed buffers from an arena reused across blocks and
//! launches instead of allocating per block.
//!
//! Failure isolation: a panicking block program (numerical `assert!`,
//! index bug) is caught per block. Sibling blocks still run to
//! completion — their problem entries keep their results — and the
//! lowest-block-id panic is re-raised after the join, in both the serial
//! and the parallel paths, so the two are observationally equivalent.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use crossbeam::deque::{Steal, Stealer, Worker};
use parking_lot::Mutex;

use crate::block::BlockContext;
use crate::counters::KernelCounters;
use crate::device::DeviceSpec;
use crate::engine::LaunchConfig;
use crate::hazard::HazardReport;
use crate::resident::EngineMode;
use crate::scratch;

/// How the engine schedules a launch's blocks onto host threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ParallelPolicy {
    /// Run every block on the calling thread, in block-id order.
    #[default]
    Serial,
    /// Work-stealing pool of exactly `n` workers (`n = 0` and `n = 1`
    /// both mean serial).
    Threads(usize),
    /// Work-stealing pool sized to the host's available parallelism.
    Auto,
}

impl ParallelPolicy {
    /// Pool of `n` worker threads.
    pub fn threads(n: usize) -> Self {
        ParallelPolicy::Threads(n)
    }

    /// Number of workers this policy resolves to on this host.
    pub fn workers(self) -> usize {
        match self {
            ParallelPolicy::Serial => 1,
            ParallelPolicy::Threads(n) => n.max(1),
            ParallelPolicy::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }

    /// Whether this policy executes blocks on more than one thread.
    pub fn is_parallel(self) -> bool {
        self.workers() > 1
    }
}

/// Chunk length giving each worker several steals' worth of slack.
fn chunk_len(grid: usize, workers: usize) -> usize {
    grid.div_ceil(workers.saturating_mul(4).max(1)).max(1)
}

/// Shareable base pointer for handing disjoint chunks of the problem
/// slice to workers.
///
/// Invariants that make the `unsafe impl`s below sound (upheld by
/// [`execute_parallel`], the only user):
///
/// 1. The pointer comes from a live `&mut [P]` that outlives the
///    crossbeam scope, so it stays valid for the workers' lifetime.
/// 2. Chunk ids are delivered exactly once (crossbeam deque contract),
///    and chunk `c` maps to the half-open range
///    `[c * chunk, min((c + 1) * chunk, grid))`; distinct chunk ids give
///    disjoint ranges, so no element is ever aliased by two workers.
/// 3. The owning `&mut [P]` is not touched while the scope runs; the
///    borrow checker enforces this because `execute_parallel` holds the
///    exclusive borrow across the scope join.
struct ProblemsPtr<P>(*mut P);

// SAFETY: `ProblemsPtr` is only a capability to *derive* disjoint
// `&mut [P]` chunks (invariant 2 above); sending it to a worker moves
// `P` values across threads, hence the `P: Send` bound. No worker holds
// a `&P` into another worker's chunk, so no `P: Sync` requirement
// arises.
unsafe impl<P: Send> Send for ProblemsPtr<P> {}
// SAFETY: workers share `&ProblemsPtr` but only read the raw pointer out
// of it; aliasing of the pointed-to data is prevented by the disjoint
// chunk ranges (invariant 2), exactly as for `Send`.
unsafe impl<P: Send> Sync for ProblemsPtr<P> {}

/// A caught block panic, keyed by block id for deterministic re-raise.
type BlockPanic = (usize, Box<dyn Any + Send>);

/// Run `body` for blocks `[lo, hi)` over `slice`, merging counters into
/// `partial` in ascending block order and capturing panics. The single
/// code path both executors share — serial vs. parallel differ only in
/// who calls it with which chunks.
fn run_chunk<P, F>(
    ctx: &mut BlockContext,
    slice: &mut [P],
    lo: usize,
    partial: &mut KernelCounters,
    hazards: &mut Vec<HazardReport>,
    panics: &mut Vec<BlockPanic>,
    body: &F,
) where
    F: Fn(&mut P, &mut BlockContext) + Sync,
{
    for (off, p) in slice.iter_mut().enumerate() {
        let block_id = lo + off;
        ctx.reset_for(block_id);
        match catch_unwind(AssertUnwindSafe(|| body(p, ctx))) {
            Ok(()) => partial.merge_wave(&ctx.counters()),
            Err(payload) => panics.push((block_id, payload)),
        }
        if let Some(rep) = ctx.smem.tracker().and_then(|t| t.take_report()) {
            if rep.total_hazards > 0 || !rep.accesses.is_empty() {
                hazards.push(rep);
            }
        }
    }
}

/// Re-raise the earliest (lowest block id) captured panic, if any.
fn resume_first(mut panics: Vec<BlockPanic>) {
    if !panics.is_empty() {
        panics.sort_by_key(|(id, _)| *id);
        resume_unwind(panics.swap_remove(0).1);
    }
}

/// Context matching the launch configuration: device LDS width, kernel
/// label, and hazard tracking mode.
fn context_for(dev: &DeviceSpec, cfg: &LaunchConfig) -> BlockContext {
    let mut ctx =
        BlockContext::with_lds_lanes(0, cfg.threads, cfg.smem_bytes as usize, dev.lds_lanes);
    ctx.smem.set_label(cfg.label);
    ctx.smem.set_hazard_mode(cfg.hazard);
    ctx
}

/// Execute every block once under `cfg.parallel` and return the
/// aggregate counters plus the per-block hazard reports (blocks with
/// detected conflicts only, ascending block id). Panics from block
/// programs are re-raised (lowest block id first) only after every block
/// has run.
pub(crate) fn execute_blocks<P, F>(
    dev: &DeviceSpec,
    cfg: &LaunchConfig,
    problems: &mut [P],
    body: &F,
) -> (KernelCounters, Vec<HazardReport>)
where
    P: Send,
    F: Fn(&mut P, &mut BlockContext) + Sync,
{
    let grid = problems.len();
    if grid == 0 {
        return (KernelCounters::default(), Vec::new());
    }
    let workers = cfg.parallel.workers().min(grid);
    if workers <= 1 {
        let mut ctx = context_for(dev, cfg);
        ctx.put_scratch(scratch::checkout());
        let mut agg = KernelCounters::default();
        let mut hazards = Vec::new();
        let mut panics = Vec::new();
        run_chunk(
            &mut ctx,
            problems,
            0,
            &mut agg,
            &mut hazards,
            &mut panics,
            body,
        );
        scratch::checkin(ctx.take_scratch());
        resume_first(panics);
        return (agg, hazards);
    }
    match cfg.engine {
        EngineMode::PerLaunch => execute_parallel(dev, cfg, problems, body, workers),
        EngineMode::Resident => execute_resident(dev, cfg, problems, body, workers),
    }
}

fn execute_parallel<P, F>(
    dev: &DeviceSpec,
    cfg: &LaunchConfig,
    problems: &mut [P],
    body: &F,
    workers: usize,
) -> (KernelCounters, Vec<HazardReport>)
where
    P: Send,
    F: Fn(&mut P, &mut BlockContext) + Sync,
{
    let grid = problems.len();
    let chunk = chunk_len(grid, workers);
    let n_chunks = grid.div_ceil(chunk);

    // Seed chunk ids round-robin across per-worker LIFO deques.
    let deques: Vec<Worker<usize>> = (0..workers).map(|_| Worker::new_lifo()).collect();
    let stealers: Vec<Stealer<usize>> = deques.iter().map(Worker::stealer).collect();
    for c in 0..n_chunks {
        deques[c % workers].push(c);
    }

    let base = ProblemsPtr(problems.as_mut_ptr());
    type ChunkResult = (usize, KernelCounters, Vec<HazardReport>);
    let results: Mutex<Vec<ChunkResult>> = Mutex::new(Vec::with_capacity(n_chunks));
    let panics: Mutex<Vec<BlockPanic>> = Mutex::new(Vec::new());
    let proto = context_for(dev, cfg);

    let scope_result = crossbeam::thread::scope(|s| {
        for own in deques {
            let stealers = &stealers;
            let base = &base;
            let results = &results;
            let panics = &panics;
            let proto = &proto;
            s.spawn(move |_| {
                let mut ctx = proto.fork_worker();
                ctx.put_scratch(scratch::checkout());
                'work: loop {
                    // Own deque first (LIFO), then steal FIFO from
                    // siblings; exactly-once delivery is the deque's
                    // contract, so each chunk runs on one worker.
                    let next = own.pop().or_else(|| loop {
                        let mut retry = false;
                        for st in stealers.iter() {
                            match st.steal() {
                                Steal::Success(c) => return Some(c),
                                Steal::Retry => retry = true,
                                Steal::Empty => {}
                            }
                        }
                        if !retry {
                            return None;
                        }
                    });
                    let Some(c) = next else { break 'work };
                    let lo = c * chunk;
                    let hi = (lo + chunk).min(grid);
                    // SAFETY: upholds the `ProblemsPtr` invariants — the
                    // deque delivered chunk `c` to exactly this worker,
                    // the ranges `[c*chunk, (c+1)*chunk)` partition
                    // `[0, grid)` (so no two workers' slices overlap),
                    // `hi <= grid` keeps the slice in bounds of the
                    // original `&mut [P]`, and that borrow is held (not
                    // used) by the caller across the scope join.
                    let slice = unsafe { std::slice::from_raw_parts_mut(base.0.add(lo), hi - lo) };
                    let mut partial = KernelCounters::default();
                    let mut local_hazards = Vec::new();
                    let mut local_panics = Vec::new();
                    run_chunk(
                        &mut ctx,
                        slice,
                        lo,
                        &mut partial,
                        &mut local_hazards,
                        &mut local_panics,
                        body,
                    );
                    results.lock().push((c, partial, local_hazards));
                    if !local_panics.is_empty() {
                        panics.lock().append(&mut local_panics);
                    }
                }
                scratch::checkin(ctx.take_scratch());
            });
        }
    });
    // Workers catch block panics themselves; a scope error would mean an
    // executor bug, not a kernel failure.
    scope_result.expect("executor worker crashed outside a block program");

    // Stable reduction: chunk partials merged in ascending chunk order.
    // Chunks are contiguous ascending block ranges, so concatenating the
    // per-chunk hazard reports in the same order sorts them by block id.
    let mut partials = results.into_inner();
    partials.sort_by_key(|(c, _, _)| *c);
    let mut agg = KernelCounters::default();
    let mut hazards = Vec::new();
    for (_, partial, mut chunk_hazards) in partials {
        agg.merge_wave(&partial);
        hazards.append(&mut chunk_hazards);
    }
    // Host provenance: the crossbeam scope re-spawned one OS thread per
    // worker for this launch.
    agg.threads_spawned = workers as u64;
    resume_first(panics.into_inner());
    (agg, hazards)
}

/// Resident-pool twin of [`execute_parallel`]: same chunk geometry, same
/// per-chunk execution ([`run_chunk`]) and the same ascending-chunk
/// stable reduction, but chunks are claimed from an atomic counter by the
/// persistent workers of a [`crate::resident::ResidentPool`] instead of
/// being stolen between per-launch scoped threads. Counters (bar the
/// provenance field `threads_spawned`), hazards, results, and panic
/// selection are bitwise-identical to the per-launch path because the
/// reduction is a partition-insensitive fold of `+`/`max` over the same
/// per-block values.
fn execute_resident<P, F>(
    dev: &DeviceSpec,
    cfg: &LaunchConfig,
    problems: &mut [P],
    body: &F,
    workers: usize,
) -> (KernelCounters, Vec<HazardReport>)
where
    P: Send,
    F: Fn(&mut P, &mut BlockContext) + Sync,
{
    let grid = problems.len();
    let chunk = chunk_len(grid, workers);
    let n_chunks = grid.div_ceil(chunk);
    // Pool width is the policy's full width (not clamped by this grid) so
    // one policy maps to one persistent pool for the process lifetime.
    let pool = crate::resident::global_pool(cfg.parallel.workers());

    let base = ProblemsPtr(problems.as_mut_ptr());
    let next = AtomicUsize::new(0);
    type ChunkResult = (usize, KernelCounters, Vec<HazardReport>);
    let results: Mutex<Vec<ChunkResult>> = Mutex::new(Vec::with_capacity(n_chunks));
    let panics: Mutex<Vec<BlockPanic>> = Mutex::new(Vec::new());
    let proto = context_for(dev, cfg);

    // Borrow the wrapper (not its raw-pointer field) so the closure's
    // capture is the `Sync` `ProblemsPtr`, as in `execute_parallel`.
    let base = &base;
    pool.run(&|idx| {
        // Warm launches reuse the worker's cached arena buffer: zero
        // allocation on the hot path once the pool has run a launch of
        // this footprint.
        let mut ctx = proto.fork_worker_with_arena(pool.take_arena(idx));
        ctx.put_scratch(scratch::checkout());
        loop {
            let c = next.fetch_add(1, Ordering::Relaxed);
            if c >= n_chunks {
                break;
            }
            let lo = c * chunk;
            let hi = (lo + chunk).min(grid);
            // SAFETY: upholds the `ProblemsPtr` invariants — the atomic
            // counter hands out each chunk id exactly once, the ranges
            // `[c*chunk, (c+1)*chunk)` partition `[0, grid)` (no two
            // workers' slices overlap), `hi <= grid` keeps the slice in
            // bounds, and the owning `&mut [P]` is held (not used) by the
            // caller until `pool.run` returns.
            let slice = unsafe { std::slice::from_raw_parts_mut(base.0.add(lo), hi - lo) };
            let mut partial = KernelCounters::default();
            let mut local_hazards = Vec::new();
            let mut local_panics = Vec::new();
            run_chunk(
                &mut ctx,
                slice,
                lo,
                &mut partial,
                &mut local_hazards,
                &mut local_panics,
                body,
            );
            results.lock().push((c, partial, local_hazards));
            if !local_panics.is_empty() {
                panics.lock().append(&mut local_panics);
            }
        }
        scratch::checkin(ctx.take_scratch());
        pool.store_arena(idx, ctx.into_arena());
    });

    // Stable reduction, identical to the per-launch path.
    let mut partials = results.into_inner();
    partials.sort_by_key(|(c, _, _)| *c);
    let mut agg = KernelCounters::default();
    let mut hazards = Vec::new();
    for (_, partial, mut chunk_hazards) in partials {
        agg.merge_wave(&partial);
        hazards.append(&mut chunk_hazards);
    }
    // Host provenance: the pool size if this launch is the one that spun
    // the pool up, zero for every warm launch after it.
    agg.threads_spawned = pool.take_fresh();
    resume_first(panics.into_inner());
    (agg, hazards)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{launch, LaunchConfig};

    fn dev() -> DeviceSpec {
        DeviceSpec::test_device()
    }

    fn body(p: &mut f64, ctx: &mut BlockContext) {
        ctx.gld(8);
        *p = (*p + 1.0) * 1.5;
        ctx.par_work(3, 2);
        ctx.smem_work(5, 1);
        ctx.smem_trip();
        ctx.sync();
        ctx.gst(8);
    }

    #[test]
    fn policy_resolution() {
        assert_eq!(ParallelPolicy::Serial.workers(), 1);
        assert_eq!(ParallelPolicy::threads(0).workers(), 1);
        assert_eq!(ParallelPolicy::threads(6).workers(), 6);
        assert!(ParallelPolicy::Auto.workers() >= 1);
        assert!(!ParallelPolicy::Serial.is_parallel());
        assert!(ParallelPolicy::threads(2).is_parallel());
        assert_eq!(ParallelPolicy::default(), ParallelPolicy::Serial);
    }

    #[test]
    fn chunking_covers_grid() {
        for grid in [1usize, 2, 7, 64, 1000] {
            for workers in [1usize, 2, 3, 8] {
                let chunk = chunk_len(grid, workers);
                let n_chunks = grid.div_ceil(chunk);
                assert!((n_chunks - 1) * chunk < grid);
                assert!(n_chunks * chunk >= grid);
            }
        }
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        for &grid in &[1usize, 5, 37, 256] {
            let init: Vec<f64> = (0..grid).map(|k| k as f64 * 0.25).collect();
            let serial_cfg = LaunchConfig::new(8, 1024);
            let mut serial_data = init.clone();
            let serial = launch(&dev(), &serial_cfg, &mut serial_data, body).unwrap();
            for workers in [2usize, 3, 8] {
                let cfg = serial_cfg.with_parallel(ParallelPolicy::threads(workers));
                let mut data = init.clone();
                let rep = launch(&dev(), &cfg, &mut data, body).unwrap();
                assert_eq!(data, serial_data, "grid={grid} workers={workers}");
                // `threads_spawned` is the one deliberately policy-variant
                // provenance field: scoped threads re-spawn per launch.
                let effective = workers.min(grid);
                let expected_spawned = if effective > 1 { effective as u64 } else { 0 };
                assert_eq!(rep.counters.threads_spawned, expected_spawned);
                let mut norm = rep.counters;
                norm.threads_spawned = serial.counters.threads_spawned;
                assert_eq!(norm, serial.counters);
                assert_eq!(rep.time.secs().to_bits(), serial.time.secs().to_bits());
            }
        }
    }

    #[test]
    fn resident_matches_per_launch_bitwise() {
        for &grid in &[1usize, 5, 37, 256] {
            let init: Vec<f64> = (0..grid).map(|k| k as f64 * 0.25).collect();
            for workers in [2usize, 3, 8] {
                let per_launch_cfg =
                    LaunchConfig::new(8, 1024).with_parallel(ParallelPolicy::threads(workers));
                let resident_cfg = per_launch_cfg.with_engine(EngineMode::Resident);
                let mut cold_data = init.clone();
                let mut warm_data = init.clone();
                let cold = launch(&dev(), &per_launch_cfg, &mut cold_data, body).unwrap();
                let warm = launch(&dev(), &resident_cfg, &mut warm_data, body).unwrap();
                assert_eq!(cold_data, warm_data, "grid={grid} workers={workers}");
                let mut norm_cold = cold.counters;
                let mut norm_warm = warm.counters;
                norm_cold.threads_spawned = 0;
                norm_warm.threads_spawned = 0;
                assert_eq!(norm_cold, norm_warm, "grid={grid} workers={workers}");
                assert_eq!(cold.hazards.len(), warm.hazards.len());
                // The two modes differ by exactly the overhead constant.
                let d = dev();
                let delta = d.launch_overhead_s - d.warm_launch_overhead_s;
                assert!(
                    (cold.time.secs() - warm.time.secs() - delta).abs() < 1e-18,
                    "grid={grid} workers={workers}"
                );
            }
        }
    }

    #[test]
    fn resident_spawns_threads_exactly_once_per_pool() {
        // Width 7 is reserved for this test within the unit-test binary so
        // no other launch can consume the pool's fresh-spawn tally first.
        let cfg = LaunchConfig::new(8, 256)
            .with_parallel(ParallelPolicy::threads(7))
            .with_engine(EngineMode::Resident);
        let mut data = vec![1.0f64; 64];
        let first = launch(&dev(), &cfg, &mut data, body).unwrap();
        assert_eq!(first.counters.threads_spawned, 7, "spin-up launch");
        for _ in 0..3 {
            let warm = launch(&dev(), &cfg, &mut data, body).unwrap();
            assert_eq!(
                warm.counters.threads_spawned, 0,
                "warm launches must not spawn"
            );
        }
    }

    #[test]
    fn resident_panic_isolation_matches_per_launch() {
        let cfg = LaunchConfig::new(8, 0)
            .with_parallel(ParallelPolicy::threads(4))
            .with_engine(EngineMode::Resident);
        let mut data: Vec<usize> = (0..64).collect();
        let err = catch_unwind(AssertUnwindSafe(|| {
            let _ = launch(&dev(), &cfg, &mut data, |p, _| {
                if *p % 10 == 3 {
                    panic!("boom at {}", *p);
                }
                *p += 1000;
            });
        }))
        .expect_err("panic must propagate");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| err.downcast_ref::<&str>().unwrap().to_string());
        assert_eq!(msg, "boom at 3", "earliest block id wins");
        // Siblings completed; the pool survives for the next launch.
        assert_eq!(data[4], 1004);
        let mut again = vec![2.0f64; 16];
        let rep = launch(&dev(), &cfg, &mut again, body).unwrap();
        assert_eq!(rep.grid, 16);
        assert!(again.iter().all(|&v| v == 4.5));
    }

    #[test]
    fn panicking_block_does_not_poison_siblings() {
        for policy in [ParallelPolicy::Serial, ParallelPolicy::threads(4)] {
            let cfg = LaunchConfig::new(8, 0).with_parallel(policy);
            let mut data: Vec<usize> = (0..64).collect();
            let caught = catch_unwind(AssertUnwindSafe(|| {
                let _ = launch(&dev(), &cfg, &mut data, |p, _| {
                    if *p == 17 {
                        panic!("injected failure in block 17");
                    }
                    *p += 1000;
                });
            }));
            let err = caught.expect_err("panic must propagate");
            let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
            assert!(msg.contains("block 17"), "policy {policy:?}: got {msg:?}");
            // Every sibling completed despite the failure.
            for (i, v) in data.iter().enumerate() {
                if i == 17 {
                    assert_eq!(*v, 17);
                } else {
                    assert_eq!(*v, i + 1000, "sibling {i} corrupted under {policy:?}");
                }
            }
        }
    }

    #[test]
    fn earliest_panic_wins_deterministically() {
        for policy in [ParallelPolicy::Serial, ParallelPolicy::threads(8)] {
            let cfg = LaunchConfig::new(8, 0).with_parallel(policy);
            let mut data: Vec<usize> = (0..128).collect();
            let err = catch_unwind(AssertUnwindSafe(|| {
                let _ = launch(&dev(), &cfg, &mut data, |p, _| {
                    if *p % 10 == 3 {
                        panic!("boom at {}", *p);
                    }
                });
            }))
            .expect_err("panic must propagate");
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| err.downcast_ref::<&str>().unwrap().to_string());
            assert_eq!(msg, "boom at 3", "policy {policy:?}");
        }
    }

    /// Every block of `lens` lends `len` elements, checks they are zero,
    /// then dirties them: later blocks and launches, larger and smaller,
    /// must still see zeros.
    fn scratch_lends_are_fresh<T>(junk: T)
    where
        T: Copy + PartialEq + Default + Send + Sync + 'static,
    {
        for policy in [ParallelPolicy::Serial, ParallelPolicy::threads(2)] {
            let cfg = LaunchConfig::new(8, 0).with_parallel(policy);
            for lens in [[64usize, 8, 200, 3], [5, 300, 17, 1]] {
                let mut blocks: Vec<(usize, bool)> = lens.iter().map(|&n| (n, false)).collect();
                let _ = launch(&dev(), &cfg, &mut blocks, |(len, clean), ctx| {
                    let mut s = ctx.take_scratch();
                    let buf = s.zeroed::<T>(*len);
                    *clean = buf.iter().all(|v| *v == T::default());
                    buf.fill(junk);
                    ctx.put_scratch(s);
                })
                .unwrap();
                for (len, clean) in blocks {
                    assert!(clean, "{policy:?}: a {len}-element lend was dirty");
                }
            }
        }
    }

    #[test]
    fn scratch_lends_are_fresh_f64() {
        scratch_lends_are_fresh(-7.25f64);
    }

    #[test]
    fn scratch_lends_are_fresh_f32() {
        scratch_lends_are_fresh(3.5f32);
    }

    #[test]
    fn auto_policy_runs() {
        let cfg = LaunchConfig::new(8, 256).with_parallel(ParallelPolicy::Auto);
        let mut data = vec![1.0f64; 100];
        let rep = launch(&dev(), &cfg, &mut data, body).unwrap();
        assert_eq!(rep.grid, 100);
        assert!(data.iter().all(|&v| v == 3.0));
    }

    #[test]
    fn record_mode_reports_identically_across_policies() {
        use crate::hazard::{HazardKind, HazardMode};
        // Blocks 10 and 40 race (two lanes touch offset 0 in epoch 0);
        // every other block syncs between the accesses.
        let racy = |p: &mut usize, ctx: &mut BlockContext| {
            let racing = *p == 10 || *p == 40;
            if let Some(t) = ctx.smem.tracker() {
                t.write(0, 0);
            }
            if !racing {
                ctx.sync();
            }
            if let Some(t) = ctx.smem.tracker() {
                t.read(1, 0);
            }
        };
        for policy in [ParallelPolicy::Serial, ParallelPolicy::threads(4)] {
            let cfg = LaunchConfig::new(8, 256)
                .with_parallel(policy)
                .with_hazard(HazardMode::Record)
                .with_label("racy_fixture");
            let mut data: Vec<usize> = (0..64).collect();
            let rep = launch(&dev(), &cfg, &mut data, racy).unwrap();
            assert_eq!(rep.counters.hazards, 2, "policy {policy:?}");
            let blocks: Vec<usize> = rep.hazards.iter().map(|h| h.block_id).collect();
            assert_eq!(blocks, vec![10, 40], "policy {policy:?}");
            for h in &rep.hazards {
                assert_eq!(h.label, "racy_fixture");
                assert_eq!(h.total_hazards, 1);
                assert_eq!(h.hazards[0].kind, HazardKind::Raw);
                assert_eq!(h.hazards[0].offset, 0);
                assert_eq!(h.hazards[0].epoch, 0);
            }
        }
    }

    #[test]
    fn off_mode_collects_nothing() {
        let cfg = LaunchConfig::new(8, 256);
        let mut data = vec![1.0f64; 16];
        let rep = launch(&dev(), &cfg, &mut data, body).unwrap();
        assert_eq!(rep.counters.hazards, 0);
        assert!(rep.hazards.is_empty());
    }

    #[test]
    fn enforce_mode_aborts_lowest_racing_block() {
        use crate::hazard::HazardMode;
        for policy in [ParallelPolicy::Serial, ParallelPolicy::threads(4)] {
            let cfg = LaunchConfig::new(8, 256)
                .with_parallel(policy)
                .with_hazard(HazardMode::Enforce)
                .with_label("enforced_fixture");
            let mut data: Vec<usize> = (0..64).collect();
            let err = catch_unwind(AssertUnwindSafe(|| {
                let _ = launch(&dev(), &cfg, &mut data, |p, ctx| {
                    if *p == 23 || *p == 50 {
                        let t = ctx.smem.tracker().unwrap();
                        t.write(0, 7);
                        t.read(1, 7);
                    }
                });
            }))
            .expect_err("enforce must abort the racing block");
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| err.downcast_ref::<&str>().unwrap().to_string());
            assert!(
                msg.contains("`enforced_fixture` block 23"),
                "policy {policy:?}: {msg}"
            );
            assert!(msg.contains("offset 7"), "policy {policy:?}: {msg}");
        }
    }

    // Pointer-aliasing tests sized for Miri (`cargo miri test -p
    // gbatch-gpu-sim executor`): tiny grids, every policy branch, all
    // chunk/steal machinery exercised. The interesting property is that
    // the `ProblemsPtr` chunk derivation never creates overlapping `&mut`
    // slices — Miri's borrow tracking verifies exactly that.
    mod miri_sized {
        use super::*;

        #[test]
        fn parallel_chunks_never_alias() {
            for &grid in &[1usize, 3, 7] {
                let cfg = LaunchConfig::new(4, 128).with_parallel(ParallelPolicy::threads(3));
                let mut data: Vec<u64> = (0..grid as u64).collect();
                let rep = launch(&dev(), &cfg, &mut data, |p, ctx| {
                    *p = p.wrapping_mul(3) + 1;
                    ctx.gld(8);
                })
                .unwrap();
                assert_eq!(rep.grid, grid);
                for (i, &v) in data.iter().enumerate() {
                    assert_eq!(v, (i as u64) * 3 + 1);
                }
            }
        }

        #[test]
        fn panic_capture_is_miri_clean() {
            let cfg = LaunchConfig::new(4, 0).with_parallel(ParallelPolicy::threads(2));
            let mut data: Vec<usize> = (0..4).collect();
            let err = catch_unwind(AssertUnwindSafe(|| {
                let _ = launch(&dev(), &cfg, &mut data, |p, _| {
                    if *p == 2 {
                        panic!("miri fixture panic");
                    }
                });
            }))
            .expect_err("panic must propagate");
            drop(err);
        }
    }
}
