//! Analytic wave-based timing model.
//!
//! A launch of `grid` blocks at residency `occ` executes in
//! `waves = ceil(grid / occ.concurrent_blocks)` rounds. Each wave costs the
//! maximum of:
//!
//! - **memory time** — the wave's global traffic divided by the *effective*
//!   bandwidth. Below `saturation_warps` resident warps per SM the device is
//!   latency-bound and bandwidth scales linearly with occupancy; this is the
//!   mechanism behind the paper's staircase (Fig. 3) and the stream-vs-batch
//!   gap (Fig. 1);
//! - **compute/latency time** — the slowest block's critical path: recorded
//!   cycles plus shared-memory trips and barrier costs, at the device clock,
//!   with a throughput correction when co-resident blocks oversubscribe the
//!   SM's fp64 lanes.
//!
//! The model's absolute scale is synthetic (documented in EXPERIMENTS.md);
//! its *structure* — what depends on occupancy, traffic and critical path —
//! mirrors the paper's analysis, which is what the reproduction relies on.

use crate::counters::KernelCounters;
use crate::device::DeviceSpec;
use crate::occupancy::{waves, Occupancy};
use serde::{Deserialize, Serialize};

/// Floating-point throughput class of a launch.
///
/// The device spec records fp64 lanes per SM; fp32 issues on a wider lane
/// group (H100: 128 fp32 vs 64 fp64 cores per SM), which the timing model
/// expresses as an integer lane multiplier. `Fp64` has multiplier 1, so the
/// fp64 cost is bit-for-bit what the pre-precision model produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum FlopPrecision {
    /// 32-bit lanes: twice the fp64 lane count.
    Fp32,
    /// 64-bit lanes (the default; matches the paper's evaluation).
    #[default]
    Fp64,
}

impl FlopPrecision {
    /// Lane-count multiplier relative to the device's fp64 lanes.
    #[inline]
    #[must_use]
    pub fn lane_multiplier(self) -> u32 {
        match self {
            FlopPrecision::Fp32 => 2,
            FlopPrecision::Fp64 => 1,
        }
    }
}

/// A simulated duration in seconds.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct SimTime(pub f64);

impl SimTime {
    /// Zero duration.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Seconds.
    #[inline]
    pub fn secs(self) -> f64 {
        self.0
    }

    /// Milliseconds (the unit of every figure in the paper).
    #[inline]
    pub fn ms(self) -> f64 {
        self.0 * 1e3
    }

    /// Microseconds.
    #[inline]
    pub fn us(self) -> f64 {
        self.0 * 1e6
    }
}

impl std::ops::Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl std::iter::Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        SimTime(iter.map(|t| t.0).sum())
    }
}

/// Effective global bandwidth at a given residency: full bandwidth once
/// `saturation_warps` warps are resident per SM, linear below that
/// (latency-bound regime).
pub fn effective_bandwidth(dev: &DeviceSpec, occ: &Occupancy) -> f64 {
    let frac = (occ.warps_per_sm as f64 / dev.saturation_warps as f64).min(1.0);
    dev.mem_bw * frac
}

/// Modeled time of one launch of `grid` blocks at residency `occ`.
///
/// `total` is the launch aggregate, as [`crate::engine::launch`] produces
/// it: traffic and flops summed over the grid, critical-path fields
/// (`cycles`, `smem_elems`, `smem_trips`, `syncs`) the slowest block's. A
/// caller holding one block's counters of a uniform grid passes them with
/// traffic and flops multiplied by `grid`; that is exact while byte and
/// flop totals stay below 2^53. fp32 launches divide the flop cost over
/// `lane_multiplier()` times the fp64 lanes. `overhead_s` is the fixed
/// launch overhead: the cold `launch_overhead_s` for
/// [`crate::resident::EngineMode::PerLaunch`], the warm
/// `warm_launch_overhead_s` for submissions through a
/// [`crate::resident::ResidentPool`].
pub fn estimate(
    dev: &DeviceSpec,
    occ: &Occupancy,
    grid: usize,
    total: &KernelCounters,
    precision: FlopPrecision,
    overhead_s: f64,
) -> SimTime {
    if grid == 0 {
        return SimTime(overhead_s);
    }
    let n_waves = waves(grid, occ);
    // Memory: the launch's traffic at effective bandwidth.
    let eff_bw = effective_bandwidth(dev, occ);
    let mem_time = total.global_bytes() as f64 / eff_bw;
    // Compute/latency: each wave pays the slowest block's critical path.
    let latency_cycles = total.cycles
        + total.smem_elems * dev.work_scale
        + total.smem_trips as f64 * dev.smem_latency_cycles
        + total.syncs as f64 * dev.sync_cycles;
    // Throughput correction: co-resident blocks share the SM's lanes.
    // A grid smaller than one full wave leaves SMs partially filled, so the
    // sharing factor is capped by the blocks actually resident on an SM.
    let flops_per_block = total.flops as f64 / grid as f64;
    let resident = (occ.blocks_per_sm as usize).min(grid.div_ceil(dev.sms as usize));
    let lanes = dev.fp64_lanes_per_sm * precision.lane_multiplier();
    let lane_cycles_per_sm = flops_per_block * resident as f64 / lanes as f64;
    let wave_cycles = latency_cycles.max(lane_cycles_per_sm / 2.0);
    let compute_time = n_waves as f64 * wave_cycles / dev.clock_hz;
    SimTime(overhead_s + mem_time.max(compute_time))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::occupancy::occupancy;

    fn block_counters() -> KernelCounters {
        KernelCounters {
            global_read: 4096,
            global_write: 4096,
            flops: 10_000,
            smem_trips: 50,
            syncs: 10,
            cycles: 2_000.0,
            ..Default::default()
        }
    }

    /// A uniform grid's aggregate: one block's summed fields times `grid`.
    fn over_grid(c: &KernelCounters, grid: usize) -> KernelCounters {
        KernelCounters {
            global_read: c.global_read * grid as u64,
            global_write: c.global_write * grid as u64,
            flops: c.flops * grid as u64,
            ..*c
        }
    }

    /// Cold fp64 launch of `grid` copies of the block `c`.
    fn cold(dev: &DeviceSpec, occ: &Occupancy, grid: usize, c: &KernelCounters) -> SimTime {
        let total = over_grid(c, grid);
        estimate(
            dev,
            occ,
            grid,
            &total,
            FlopPrecision::Fp64,
            dev.launch_overhead_s,
        )
    }

    #[test]
    fn doubling_waves_roughly_doubles_time() {
        let dev = DeviceSpec::test_device();
        let occ = occupancy(&dev, 8, 8192).unwrap(); // 8 concurrent blocks
        let c = block_counters();
        let t1 = cold(&dev, &occ, 8, &c);
        let t2 = cold(&dev, &occ, 16, &c);
        let ratio = (t2.secs() - dev.launch_overhead_s) / (t1.secs() - dev.launch_overhead_s);
        assert!((ratio - 2.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn occupancy_drop_creates_staircase() {
        // Same work per block, but shared memory crossing the half-capacity
        // boundary halves residency -> latency-dominated time doubles.
        let dev = DeviceSpec::test_device();
        let grid = 64;
        let c = block_counters();
        let occ2 = occupancy(&dev, 8, dev.smem_per_sm / 2).unwrap();
        let occ1 = occupancy(&dev, 8, dev.smem_per_sm / 2 + 64).unwrap();
        assert_eq!(occ2.blocks_per_sm, 2);
        assert_eq!(occ1.blocks_per_sm, 1);
        let t2 = cold(&dev, &occ2, grid, &c);
        let t1 = cold(&dev, &occ1, grid, &c);
        assert!(
            t1.secs() > 1.7 * t2.secs() - dev.launch_overhead_s,
            "staircase missing: {} vs {}",
            t1.secs(),
            t2.secs()
        );
    }

    #[test]
    fn low_occupancy_degrades_bandwidth() {
        let dev = DeviceSpec::test_device(); // saturation_warps = 4, warp 8
        let occ_low = occupancy(&dev, 8, dev.smem_per_sm).unwrap(); // 1 block/SM, 1 warp
        let occ_high = occupancy(&dev, 32, dev.smem_per_sm / 8).unwrap(); // 4 warps/SM
        assert!(effective_bandwidth(&dev, &occ_low) < effective_bandwidth(&dev, &occ_high));
        assert_eq!(effective_bandwidth(&dev, &occ_high), dev.mem_bw);
        assert!((effective_bandwidth(&dev, &occ_low) - dev.mem_bw * 0.25).abs() < 1.0);
    }

    #[test]
    fn empty_grid_costs_launch_overhead() {
        let dev = DeviceSpec::test_device();
        let occ = occupancy(&dev, 8, 0).unwrap();
        let t = cold(&dev, &occ, 0, &KernelCounters::default());
        assert_eq!(t.secs(), dev.launch_overhead_s);
    }

    #[test]
    fn sim_time_arithmetic() {
        let a = SimTime(1e-3) + SimTime(2e-3);
        assert!((a.ms() - 3.0).abs() < 1e-12);
        assert!((a.us() - 3000.0).abs() < 1e-9);
        let s: SimTime = [SimTime(1.0), SimTime(2.0)].into_iter().sum();
        assert_eq!(s.secs(), 3.0);
        let mut m = SimTime::ZERO;
        m += SimTime(0.5);
        assert_eq!(m.secs(), 0.5);
    }

    #[test]
    fn fp32_lane_class_never_slower_and_fp64_is_identity() {
        let dev = DeviceSpec::test_device();
        let occ = occupancy(&dev, 8, 4096).unwrap();
        let mut c = block_counters();
        c.flops = 10_000_000; // force the flop-throughput term to dominate
        let total = over_grid(&c, 64);
        let at = |p| estimate(&dev, &occ, 64, &total, p, dev.launch_overhead_s);
        let (t64, t32) = (at(FlopPrecision::Fp64), at(FlopPrecision::Fp32));
        assert!(t32.secs() <= t64.secs());
        assert!(t32.secs() < t64.secs(), "flop-bound launch must speed up");
        // Fp64 is the default class, with lane multiplier 1.
        assert_eq!(FlopPrecision::Fp64.lane_multiplier(), 1);
        assert_eq!(
            at(FlopPrecision::default()).secs().to_bits(),
            t64.secs().to_bits()
        );
    }

    #[test]
    fn warm_overhead_shifts_time_by_exactly_the_overhead_delta() {
        let dev = DeviceSpec::test_device();
        let occ = occupancy(&dev, 8, 4096).unwrap();
        let c = block_counters();
        let at = |overhead| estimate(&dev, &occ, 12, &c, FlopPrecision::Fp64, overhead);
        let cold = at(dev.launch_overhead_s);
        let warm = at(dev.warm_launch_overhead_s);
        let delta = dev.launch_overhead_s - dev.warm_launch_overhead_s;
        assert!((cold.secs() - warm.secs() - delta).abs() < 1e-18);
        // Empty grids cost exactly the requested overhead.
        let empty = estimate(
            &dev,
            &occ,
            0,
            &KernelCounters::default(),
            FlopPrecision::Fp64,
            dev.warm_launch_overhead_s,
        );
        assert_eq!(empty.secs(), dev.warm_launch_overhead_s);
    }

    #[test]
    fn aggregate_matches_per_block_for_uniform_grid() {
        // The aggregate of a uniform grid, merged block by block, prices
        // bitwise like the per-block model: one block's traffic times the
        // grid, its flops, and its critical path.
        let dev = DeviceSpec::test_device();
        let occ = occupancy(&dev, 8, 4096).unwrap();
        let c = block_counters();
        let grid = 40;
        let mut agg = KernelCounters::default();
        for _ in 0..grid {
            agg.merge_wave(&c);
        }
        assert_eq!(agg, over_grid(&c, grid));
        let eff_bw = effective_bandwidth(&dev, &occ);
        let mem_time = c.global_bytes() as f64 * grid as f64 / eff_bw;
        let latency = c.cycles
            + c.smem_elems * dev.work_scale
            + c.smem_trips as f64 * dev.smem_latency_cycles
            + c.syncs as f64 * dev.sync_cycles;
        let resident = (occ.blocks_per_sm as usize).min(grid.div_ceil(dev.sms as usize));
        let lane_cycles = c.flops as f64 * resident as f64 / dev.fp64_lanes_per_sm as f64;
        let compute_time = waves(grid, &occ) as f64 * latency.max(lane_cycles / 2.0) / dev.clock_hz;
        let per_block = dev.launch_overhead_s + mem_time.max(compute_time);
        let t = estimate(
            &dev,
            &occ,
            grid,
            &agg,
            FlopPrecision::Fp64,
            dev.launch_overhead_s,
        );
        assert_eq!(t.secs().to_bits(), per_block.to_bits());
    }
}
