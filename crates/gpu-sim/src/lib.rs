//! # gbatch-gpu-sim
//!
//! A software-simulated GPU substrate.
//!
//! The paper evaluates on an NVIDIA H100-PCIe and an AMD MI250x; neither is
//! available here, so this crate provides the closest synthetic equivalent
//! that exercises the same code paths (see DESIGN.md, "Substitutions"):
//!
//! - [`device::DeviceSpec`] — hardware descriptors with the parameters the
//!   paper's analysis hinges on: SM/CU count, **shared-memory capacity**
//!   (the H100's ≈224 KB vs. the MI250x's 64 KB drives every performance
//!   gap in the paper), warp width, sustained memory bandwidth (1.92 TB/s
//!   vs. 1.31 TB/s, paper §8), clock and launch overhead.
//! - [`engine::launch`] — executes a *block program* for every block of a
//!   grid, with a real [`shared::SharedMem`] arena enforcing hardware
//!   limits; kernels really compute on the batch data, so numerics are
//!   bit-real.
//! - [`executor::ParallelPolicy`] — host-side scheduling of block
//!   programs: serial, a fixed work-stealing thread pool, or auto-sized.
//!   Aggregates and modeled time are bitwise-identical across policies
//!   (counters merge associatively; the reduction order is stable).
//! - [`scratch::Scratch`] — the per-worker host arena block programs
//!   borrow their zeroed buffers from, reused across blocks and launches.
//! - [`counters::KernelCounters`] — per-block counts of global traffic,
//!   flops, shared-memory round trips, syncs and dependent cycles,
//!   accumulated by the block program through [`block::BlockContext`].
//! - [`occupancy::occupancy`] — CUDA-style residency calculation
//!   (blocks/SM limited by shared memory, threads, and a hard cap).
//! - [`timing::estimate`] — an analytic wave-based timing model: a launch
//!   runs `ceil(grid / (blocks_per_sm * sms))` waves; each wave costs the
//!   max of its memory time (occupancy-scaled effective bandwidth) and its
//!   compute/latency time (dependent cycles at the device clock).
//! - [`stream::simulate_streams`] — the concurrent-stream execution model
//!   used by the Figure 1 motivation experiment (per-launch dispatch
//!   overhead plus low single-kernel occupancy is what makes streamed
//!   execution lose).
//!
//! What is *not* simulated: warp divergence, bank conflicts, register
//! allocation, caches. The paper's observed effects (occupancy staircases,
//! shared-memory capacity walls, launch-overhead domination) do not depend
//! on them.
//!
//! ```
//! use gbatch_gpu_sim::{launch, DeviceSpec, LaunchConfig};
//!
//! // Square 1000 numbers on a simulated H100, one block per number.
//! let dev = DeviceSpec::h100_pcie();
//! let cfg = LaunchConfig::new(32, 1024);
//! let mut data: Vec<f64> = (0..1000).map(|k| k as f64).collect();
//! let report = launch(&dev, &cfg, &mut data, |x, ctx| {
//!     ctx.gld(8);
//!     *x *= *x;
//!     ctx.par_work(1, 1);
//!     ctx.gst(8);
//! })
//! .unwrap();
//! assert_eq!(data[7], 49.0);
//! assert!(report.time.secs() > 0.0);
//! assert!(report.occupancy.blocks_per_sm >= 1);
//! ```

// LAPACK-style numerical kernels are clearest with explicit indexed
// loops over band rows/columns; iterator rewrites obscure the math.
#![allow(clippy::needless_range_loop)]

pub mod block;
pub mod counters;
pub mod device;
pub mod engine;
pub mod executor;
pub mod hazard;
pub mod multi;
pub mod occupancy;
pub mod registry;
pub mod resident;
pub mod scratch;
pub mod shared;
pub mod stream;
pub mod timing;

pub use block::BlockContext;
pub use counters::KernelCounters;
pub use device::{DeviceSpec, Vendor};
pub use engine::{launch, LaunchConfig, LaunchError, LaunchReport};
pub use executor::ParallelPolicy;
pub use hazard::{AccessRecord, Hazard, HazardKind, HazardMode, HazardReport};
pub use occupancy::Occupancy;
pub use registry::FleetSpec;
pub use resident::{
    ambient_engine, global_pool, with_engine_mode, EngineMode, EngineScope, MegabatchQueue,
    ResidentPool,
};
pub use scratch::Scratch;
pub use timing::{FlopPrecision, SimTime};
