//! CUDA-style occupancy calculation.
//!
//! The number of blocks co-resident on one SM is the minimum over each
//! limiting resource. For the kernels in this workspace the binding
//! resource is **shared memory** — exactly the effect the paper analyzes:
//! the fused factorization's footprint grows with the matrix size, so
//! residency drops in discrete steps ("staircase", Fig. 3), halving
//! throughput whenever `floor(smem_per_sm / smem_per_block)` halves.

use crate::device::DeviceSpec;
use serde::{Deserialize, Serialize};

/// Residency of a kernel launch on a device.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Occupancy {
    /// Co-resident blocks per SM.
    pub blocks_per_sm: u32,
    /// Co-resident blocks on the whole device.
    pub concurrent_blocks: u32,
    /// Resident warps per SM.
    pub warps_per_sm: u32,
    /// Which resource bound the residency.
    pub limiter: Limiter,
}

/// The resource that capped `blocks_per_sm`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Limiter {
    /// Shared memory capacity (the common case in this workspace).
    SharedMemory,
    /// Resident-thread limit.
    Threads,
    /// Hardware block cap.
    BlockCap,
}

/// Compute residency for a block of `threads` threads using `smem_bytes`
/// of shared memory. Returns `None` when a single block cannot launch at
/// all (exceeds per-block limits) — the simulated equivalent of CUDA's
/// launch failure, which the paper hits when the fused kernel's matrix no
/// longer fits in shared memory ("even failing to run", §5.2).
pub fn occupancy(dev: &DeviceSpec, threads: u32, smem_bytes: u32) -> Option<Occupancy> {
    if threads == 0 || threads > dev.max_threads_per_block {
        return None;
    }
    if smem_bytes > dev.max_smem_per_block {
        return None;
    }
    let by_smem = dev
        .smem_per_sm
        .checked_div(smem_bytes)
        .unwrap_or(dev.max_blocks_per_sm)
        .min(dev.max_blocks_per_sm);
    let by_threads = dev.max_threads_per_sm / threads;
    let cap = dev.max_blocks_per_sm;
    let blocks_per_sm = by_smem.min(by_threads).min(cap);
    if blocks_per_sm == 0 {
        // smem fits in a block but per-SM capacity is smaller than
        // per-block allowance cannot happen with these descriptors
        // (smem_per_sm >= max_smem_per_block), but threads can still be
        // the binding zero if max_threads_per_sm < threads.
        return None;
    }
    let limiter = if blocks_per_sm == by_smem && smem_bytes > 0 {
        Limiter::SharedMemory
    } else if blocks_per_sm == by_threads {
        Limiter::Threads
    } else {
        Limiter::BlockCap
    };
    Some(Occupancy {
        blocks_per_sm,
        concurrent_blocks: blocks_per_sm * dev.sms,
        warps_per_sm: blocks_per_sm * dev.warps_per_block(threads),
        limiter,
    })
}

/// Number of full waves a grid of `grid` blocks needs at this residency.
pub fn waves(grid: usize, occ: &Occupancy) -> usize {
    grid.div_ceil(occ.concurrent_blocks as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smem_staircase() {
        // The paper's inflection: crossing half the LDS capacity drops
        // residency from 2 to 1 and roughly halves throughput (§5.2).
        let dev = DeviceSpec::mi250x_gcd();
        let half = dev.smem_per_sm / 2;
        let occ2 = occupancy(&dev, 64, half).unwrap();
        assert_eq!(occ2.blocks_per_sm, 2);
        assert_eq!(occ2.limiter, Limiter::SharedMemory);
        let occ1 = occupancy(&dev, 64, half + 8).unwrap();
        assert_eq!(occ1.blocks_per_sm, 1);
    }

    #[test]
    fn exceeding_block_smem_fails_launch() {
        let dev = DeviceSpec::mi250x_gcd();
        assert!(occupancy(&dev, 64, dev.max_smem_per_block + 1).is_none());
        // H100 still fits the same request: its shared memory is 3.5x larger.
        let h = DeviceSpec::h100_pcie();
        assert!(occupancy(&h, 64, dev.max_smem_per_block + 1).is_some());
    }

    #[test]
    fn thread_limited_kernels() {
        let dev = DeviceSpec::h100_pcie();
        let occ = occupancy(&dev, 1024, 0).unwrap();
        assert_eq!(occ.blocks_per_sm, 2); // 2048 / 1024
        assert_eq!(occ.limiter, Limiter::Threads);
    }

    #[test]
    fn block_cap_limited() {
        let dev = DeviceSpec::h100_pcie();
        let occ = occupancy(&dev, 32, 0).unwrap();
        assert_eq!(occ.blocks_per_sm, dev.max_blocks_per_sm);
        assert_eq!(occ.limiter, Limiter::BlockCap);
    }

    #[test]
    fn invalid_thread_counts() {
        let dev = DeviceSpec::test_device();
        assert!(occupancy(&dev, 0, 0).is_none());
        assert!(occupancy(&dev, dev.max_threads_per_block + 1, 0).is_none());
    }

    #[test]
    fn wave_count() {
        let dev = DeviceSpec::test_device(); // 4 SMs
        let occ = occupancy(&dev, 8, 8192).unwrap(); // 2 blocks/SM -> 8 concurrent
        assert_eq!(occ.concurrent_blocks, 8);
        assert_eq!(waves(1, &occ), 1);
        assert_eq!(waves(8, &occ), 1);
        assert_eq!(waves(9, &occ), 2);
        assert_eq!(waves(1000, &occ), 125);
    }

    #[test]
    fn warps_per_sm_counts_block_warps() {
        let dev = DeviceSpec::test_device(); // warp 8
        let occ = occupancy(&dev, 20, 8192).unwrap(); // 3 warps per block, 2 blocks
        assert_eq!(occ.warps_per_sm, 6);
    }
}
