//! # gbatch-serve
//!
//! A dynamic-batching solve service over the batched band solver.
//!
//! The paper's kernels want *batches*; the paper's consumers (PELE cells,
//! XGC timesteps, SUNDIALS Newton iterations) produce *individual*
//! `(AB, B)` systems. This crate closes that gap: requests are admitted
//! one at a time, bucketed by their exact geometry ([`ShapeKey`]), and
//! each bucket is flushed into a single `dgbsv_batch` dispatch when it
//! reaches a target batch size **or** when its oldest request's deadline
//! budget is about to expire.
//!
//! The moving parts:
//!
//! - [`Server`] — the virtual-time engine: `submit` / `advance` / `drain`
//!   / `take_responses`, deterministic for a given trace regardless of
//!   host parallelism;
//! - [`BucketMap`] — one ordered map of shape-keyed FIFO buckets under
//!   one bounded admission capacity (backpressure via
//!   [`AdmitError::QueueFull`]), owned by the server and reached only
//!   through `&mut`;
//! - [`FlushPolicy`] — size/deadline/drain triggers, CPU spill-over rules,
//!   and launch-overhead-aware target-batch sizing;
//! - [`GpuBackend`] / [`CpuBackend`] — the simulated device group (split
//!   across GCDs) and the multicore spill path, behind [`SolveBackend`];
//! - the **fleet** — [`Server::fleet`] / [`Server::simulated_fleet`] run
//!   a heterogeneous set of device workers (composed by [`FleetSpec`]
//!   from the gpu-sim registry), each with its own busy horizon and
//!   resident state, behind a deterministic affinity-aware router;
//! - [`FactorCache`] — content-fingerprinted LU reuse: repeated operators
//!   skip `gbtrf` and flush as batched GBTRS-only launches, with an
//!   explicit [`Server::factorize`] / [`Server::submit_with`] fast path
//!   and transparent fingerprint matching on ordinary [`Server::submit`];
//! - [`ServeReport`] — serializable metrics: queue depth, batch-size
//!   histogram, flush-reason counts, latency quantiles, spill and retry
//!   counters, and cache hit/miss/eviction/amortized-cost accounting.
//!
//! ```
//! use gbatch_core::ShapeKey;
//! use gbatch_cpu::CpuSpec;
//! use gbatch_gpu_sim::multi::DeviceGroup;
//! use gbatch_gpu_sim::ParallelPolicy;
//! use gbatch_serve::{FlushPolicy, Server, ServerConfig, SolveRequest};
//!
//! let cfg = ServerConfig {
//!     queue_capacity: 1024,
//!     policy: FlushPolicy::default().with_target_batch(2),
//! };
//! let mut server = Server::simulated(
//!     DeviceGroup::mi250x_full(),
//!     CpuSpec::xeon_gold_6140(),
//!     ParallelPolicy::Serial,
//!     cfg,
//! );
//! let shape = ShapeKey::gbsv(8, 1, 1, 1);
//! for id in 0..2 {
//!     let mut ab = vec![0.0; shape.ab_len()];
//!     let l = shape.layout().unwrap();
//!     for j in 0..8 {
//!         ab[j * l.ldab + l.row_offset] = 4.0; // diagonal
//!     }
//!     server
//!         .submit(SolveRequest {
//!             id,
//!             shape,
//!             ab,
//!             rhs: vec![1.0; shape.rhs_len()],
//!             submitted_s: id as f64 * 1e-6,
//!             deadline_s: 1.0,
//!         })
//!         .unwrap();
//! }
//! let responses = server.take_responses();
//! assert_eq!(responses.len(), 2); // target batch reached => flushed
//! assert!(server.report().is_conserved());
//! ```

pub mod backend;
pub mod bucket;
pub mod cache;
pub mod metrics;
pub mod policy;
pub mod request;
pub mod server;

pub use backend::{
    BackendError, BackendKind, BatchSolution, CpuBackend, FactorOutcome, GpuBackend, RetainedLanes,
    SolveBackend,
};
pub use bucket::{BucketMap, Bucketed};
pub use cache::{CacheConfig, CacheStats, FactorCache, FactorHandle};
pub use metrics::{DeviceReport, ServeReport};
pub use policy::{FlushPolicy, FlushReason};
pub use request::{AdmitError, SolveRequest, SolveResponse, SolveStatus};
pub use server::{FactorizeError, Server, ServerConfig};

// Re-exported so examples and tests can name the key without an extra dep.
pub use gbatch_core::ShapeKey;
// Re-exported so fleet consumers can compose a fleet without naming the
// gpu-sim crate.
pub use gbatch_gpu_sim::registry::FleetSpec;
