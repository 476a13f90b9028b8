//! Kernel launch engine.
//!
//! [`launch`] validates a configuration against the device (shared-memory
//! and thread limits — the same checks that abort a real CUDA/HIP launch),
//! computes residency, executes the block program once per grid block with
//! a real shared-memory arena, merges counters, and prices the launch with
//! the timing model.
//!
//! One grid block maps to one batch problem throughout this workspace, so
//! the engine takes `&mut [P]` and hands each block mutable access to its
//! own problem — the Rust-safe equivalent of the paper's `double**`
//! batch-pointer interface.

use crate::block::BlockContext;
use crate::counters::KernelCounters;
use crate::device::DeviceSpec;
use crate::executor::{execute_blocks, ParallelPolicy};
use crate::hazard::{global_mode, HazardMode, HazardReport};
use crate::occupancy::{occupancy_with_regs, Occupancy};
use crate::resident::EngineMode;
use crate::timing::{estimate, FlopPrecision, SimTime};

/// Launch configuration: threads per block, dynamic shared memory,
/// (for register-blocked kernels) registers per thread, and the host
/// scheduling policy. The grid size is implied by the problem slice
/// length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Threads per block.
    pub threads: u32,
    /// Dynamic shared memory per block, in bytes.
    pub smem_bytes: u32,
    /// 32-bit registers per thread (0 = compiler default, no explicit
    /// pressure; occupancy then ignores the register file).
    pub regs_per_thread: u32,
    /// How blocks are scheduled onto host threads. Purely a host-side
    /// throughput knob: results and modeled time are bitwise-identical
    /// for every policy (see [`crate::executor`]).
    pub parallel: ParallelPolicy,
    /// Shared-memory hazard checking for this launch (see
    /// [`crate::hazard`]). Defaults to the process-wide mode
    /// ([`crate::hazard::global_mode`]), which is `Off` unless a test
    /// profile opts in.
    pub hazard: HazardMode,
    /// Kernel label attached to diagnostics (shared-memory overflow
    /// panics, hazard reports) so failures in a batch run are attributable.
    pub label: &'static str,
    /// Floating-point throughput class priced by the timing model.
    /// Defaults to fp64 (the paper's evaluation precision); fp32 launches
    /// run on twice the lanes per SM.
    pub precision: FlopPrecision,
    /// Engine mode: [`EngineMode::PerLaunch`] (the default) re-spawns
    /// scoped worker threads per launch and pays the cold launch overhead;
    /// [`EngineMode::Resident`] submits through a persistent worker pool
    /// and pays the warm overhead (see [`crate::resident`]). Results,
    /// hazard reports, and every counter except the provenance field
    /// `threads_spawned` are bitwise-identical across modes.
    pub engine: EngineMode,
}

impl LaunchConfig {
    /// Convenience constructor (no explicit register pressure). The engine
    /// mode defaults to the thread's ambient mode
    /// ([`crate::resident::ambient_engine`]): [`EngineMode::PerLaunch`]
    /// unless the caller sits inside a [`crate::resident::EngineScope`] —
    /// which is how backends thread `Resident` through kernel stacks that
    /// build their configurations internally.
    pub fn new(threads: u32, smem_bytes: u32) -> Self {
        LaunchConfig {
            threads,
            smem_bytes,
            regs_per_thread: 0,
            parallel: ParallelPolicy::Serial,
            hazard: global_mode(),
            label: "kernel",
            precision: FlopPrecision::Fp64,
            engine: crate::resident::ambient_engine(),
        }
    }

    /// Constructor with explicit register pressure.
    pub fn with_registers(threads: u32, smem_bytes: u32, regs_per_thread: u32) -> Self {
        LaunchConfig {
            regs_per_thread,
            ..LaunchConfig::new(threads, smem_bytes)
        }
    }

    /// Builder: set the host scheduling policy.
    pub fn with_parallel(mut self, parallel: ParallelPolicy) -> Self {
        self.parallel = parallel;
        self
    }

    /// Builder: set the hazard-checking mode for this launch.
    pub fn with_hazard(mut self, hazard: HazardMode) -> Self {
        self.hazard = hazard;
        self
    }

    /// Builder: label the launch for diagnostics.
    pub fn with_label(mut self, label: &'static str) -> Self {
        self.label = label;
        self
    }

    /// Builder: set the floating-point throughput class.
    pub fn with_precision(mut self, precision: FlopPrecision) -> Self {
        self.precision = precision;
        self
    }

    /// Builder: select the engine mode (per-launch vs. resident pool).
    pub fn with_engine(mut self, engine: EngineMode) -> Self {
        self.engine = engine;
        self
    }
}

/// Why a launch was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaunchError {
    /// Requested shared memory exceeds the per-block capability — the
    /// paper's fused kernel hits this on large matrices ("even failing to
    /// run", §5.2).
    SharedMemExceeded {
        /// Bytes requested.
        requested: u32,
        /// Device per-block limit.
        limit: u32,
    },
    /// Thread count is zero or above the device maximum.
    BadThreadCount {
        /// Threads requested.
        requested: u32,
        /// Device per-block limit.
        limit: u32,
    },
}

impl std::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaunchError::SharedMemExceeded { requested, limit } => {
                write!(
                    f,
                    "shared memory request {requested} B exceeds device limit {limit} B"
                )
            }
            LaunchError::BadThreadCount { requested, limit } => {
                write!(f, "thread count {requested} invalid (device limit {limit})")
            }
        }
    }
}

impl std::error::Error for LaunchError {}

/// Result of a successful launch.
#[derive(Debug, Clone)]
#[must_use = "carries the modeled time, counters, and hazard reports"]
pub struct LaunchReport {
    /// Residency achieved.
    pub occupancy: Occupancy,
    /// Aggregate counters: traffic and flops summed over blocks;
    /// critical-path fields (`cycles`, `smem_trips`, `syncs`) are the max
    /// over blocks.
    pub counters: KernelCounters,
    /// Modeled execution time (includes launch overhead).
    pub time: SimTime,
    /// Number of blocks executed.
    pub grid: usize,
    /// Per-block hazard reports from blocks where the tracker detected
    /// conflicts, sorted by block id. Empty in [`HazardMode::Off`] (no
    /// tracking) and in `Enforce` mode (the first conflict aborts the
    /// block instead of reporting).
    pub hazards: Vec<HazardReport>,
}

/// Validate a configuration without running anything (used by dispatch
/// logic to decide whether the fused kernel can run at all).
pub fn validate(dev: &DeviceSpec, cfg: &LaunchConfig) -> Result<Occupancy, LaunchError> {
    if cfg.threads == 0 || cfg.threads > dev.max_threads_per_block {
        return Err(LaunchError::BadThreadCount {
            requested: cfg.threads,
            limit: dev.max_threads_per_block,
        });
    }
    if cfg.smem_bytes > dev.max_smem_per_block {
        return Err(LaunchError::SharedMemExceeded {
            requested: cfg.smem_bytes,
            limit: dev.max_smem_per_block,
        });
    }
    occupancy_with_regs(dev, cfg.threads, cfg.smem_bytes, cfg.regs_per_thread).ok_or(
        LaunchError::BadThreadCount {
            requested: cfg.threads,
            limit: dev.max_threads_per_sm,
        },
    )
}

/// Execute `body` once per problem (= grid block) and price the launch.
///
/// The body receives the problem and a [`BlockContext`]; it must record its
/// global traffic and critical-path work through the context for the timing
/// to be meaningful (the numerics are real regardless).
pub fn launch<P, F>(
    dev: &DeviceSpec,
    cfg: &LaunchConfig,
    problems: &mut [P],
    body: F,
) -> Result<LaunchReport, LaunchError>
where
    P: Send,
    F: Fn(&mut P, &mut BlockContext) + Sync,
{
    let occ = validate(dev, cfg)?;
    let grid = problems.len();
    let (agg, hazards) = execute_blocks(dev, cfg, problems, &body);
    let time = estimate(
        dev,
        &occ,
        grid,
        &agg,
        cfg.precision,
        cfg.engine.launch_overhead_s(dev),
    );
    Ok(LaunchReport {
        occupancy: occ,
        counters: agg,
        time,
        grid,
        hazards,
    })
}

/// Launch variant for kernels that only need per-block ids (no problem
/// slice), e.g. cost dry-runs.
pub fn launch_ids<F>(
    dev: &DeviceSpec,
    cfg: &LaunchConfig,
    grid: usize,
    body: F,
) -> Result<LaunchReport, LaunchError>
where
    F: Fn(usize, &mut BlockContext) + Sync,
{
    let mut ids: Vec<usize> = (0..grid).collect();
    launch(dev, cfg, &mut ids, |id, ctx| body(*id, ctx))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_every_block_once() {
        let dev = DeviceSpec::test_device();
        let cfg = LaunchConfig::new(8, 256);
        let mut data = vec![0u32; 37];
        let rep = launch(&dev, &cfg, &mut data, |p, ctx| {
            *p += 1;
            ctx.gld(8);
        })
        .unwrap();
        assert!(data.iter().all(|&v| v == 1));
        assert_eq!(rep.grid, 37);
        assert_eq!(rep.counters.global_read, 37 * 8);
        assert!(rep.time.secs() > 0.0);
    }

    #[test]
    fn blocks_see_own_shared_memory() {
        let dev = DeviceSpec::test_device();
        let cfg = LaunchConfig::new(8, 1024);
        let mut data = vec![0.0f64; 5];
        let _ = launch(&dev, &cfg, &mut data, |p, ctx| {
            let off = ctx.smem.alloc(4);
            let s = ctx.smem.slice_mut(off, 4);
            // Fresh arena every block: must read zeros.
            assert!(s.iter().all(|&v| v == 0.0));
            s[0] = ctx.block_id as f64;
            *p = ctx.smem.slice(off, 4)[0];
        })
        .unwrap();
        assert_eq!(data, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn rejects_oversized_smem() {
        let dev = DeviceSpec::test_device();
        let cfg = LaunchConfig::new(8, dev.max_smem_per_block + 1);
        let mut data = vec![0u8; 1];
        let err = launch(&dev, &cfg, &mut data, |_, _| {}).unwrap_err();
        assert!(matches!(err, LaunchError::SharedMemExceeded { .. }));
        assert!(err.to_string().contains("exceeds"));
    }

    #[test]
    fn rejects_bad_threads() {
        let dev = DeviceSpec::test_device();
        let mut data = vec![0u8; 1];
        let err = launch(&dev, &LaunchConfig::new(0, 0), &mut data, |_, _| {}).unwrap_err();
        assert!(matches!(err, LaunchError::BadThreadCount { .. }));
        let err = launch(
            &dev,
            &LaunchConfig::new(dev.max_threads_per_block + 1, 0),
            &mut data,
            |_, _| {},
        )
        .unwrap_err();
        assert!(matches!(err, LaunchError::BadThreadCount { .. }));
    }

    #[test]
    fn validate_without_running() {
        let dev = DeviceSpec::test_device();
        let occ = validate(&dev, &LaunchConfig::new(8, 8192)).unwrap();
        assert_eq!(occ.blocks_per_sm, 2);
        assert!(validate(&dev, &LaunchConfig::new(8, 20_000)).is_err());
    }

    #[test]
    fn launch_ids_passes_block_ids() {
        let dev = DeviceSpec::test_device();
        let rep = launch_ids(&dev, &LaunchConfig::new(8, 0), 10, |id, ctx| {
            ctx.gld(id + 1);
        })
        .unwrap();
        assert_eq!(rep.counters.global_read, (1..=10).sum::<usize>() as u64);
    }

    #[test]
    fn resident_mode_prices_warm_overhead_with_identical_results() {
        let dev = DeviceSpec::test_device();
        let cold_cfg = LaunchConfig::new(8, 256);
        let warm_cfg = cold_cfg.with_engine(EngineMode::Resident);
        let mut a = vec![0u32; 21];
        let mut b = vec![0u32; 21];
        let body = |p: &mut u32, ctx: &mut BlockContext| {
            *p += 3;
            ctx.gld(64);
            ctx.seq_cycles(50.0);
        };
        let cold = launch(&dev, &cold_cfg, &mut a, body).unwrap();
        let warm = launch(&dev, &warm_cfg, &mut b, body).unwrap();
        assert_eq!(a, b);
        let delta = dev.launch_overhead_s - dev.warm_launch_overhead_s;
        assert!((cold.time.secs() - warm.time.secs() - delta).abs() < 1e-18);
        // Serial launches spawn no threads under either mode, so even the
        // provenance counter agrees.
        assert_eq!(cold.counters, warm.counters);
        assert_eq!(warm.counters.threads_spawned, 0);
    }

    #[test]
    fn ambient_engine_scope_flows_into_fresh_configs() {
        let dev = DeviceSpec::test_device();
        let mut a = vec![0u32; 5];
        let mut b = vec![0u32; 5];
        let body = |p: &mut u32, ctx: &mut BlockContext| {
            *p += 1;
            ctx.gld(32);
        };
        let cold = launch(&dev, &LaunchConfig::new(8, 0), &mut a, body).unwrap();
        let warm = crate::resident::with_engine_mode(EngineMode::Resident, || {
            // Config built *inside* the scope inherits Resident — the path
            // deep kernel stacks take when a backend opens the scope.
            let cfg = LaunchConfig::new(8, 0);
            assert_eq!(cfg.engine, EngineMode::Resident);
            launch(&dev, &cfg, &mut b, body).unwrap()
        });
        assert_eq!(a, b);
        let delta = dev.launch_overhead_s - dev.warm_launch_overhead_s;
        assert!((cold.time.secs() - warm.time.secs() - delta).abs() < 1e-18);
        // Outside the scope the default is PerLaunch again.
        assert_eq!(LaunchConfig::new(8, 0).engine, EngineMode::PerLaunch);
    }

    #[test]
    fn more_blocks_more_time() {
        let dev = DeviceSpec::test_device();
        let cfg = LaunchConfig::new(8, 8192);
        let mut small = vec![(); 8];
        let mut large = vec![(); 80];
        let body = |_: &mut (), ctx: &mut BlockContext| {
            ctx.gld(65536);
            ctx.seq_cycles(10_000.0);
        };
        let t_small = launch(&dev, &cfg, &mut small, body).unwrap().time;
        let t_large = launch(&dev, &cfg, &mut large, body).unwrap().time;
        assert!(t_large.secs() > 5.0 * t_small.secs() / 2.0);
    }
}
