//! Block execution context handed to kernel programs.
//!
//! A block program is ordinary Rust operating on its problem data plus a
//! [`BlockContext`]; the context supplies simulated shared memory and the
//! counter-recording API. Thread-level parallelism inside the block is
//! *modeled*, not executed: `par_work(items, cost)` accounts
//! `ceil(items / threads) * cost` cycles on the block's critical path, the
//! same arithmetic a SIMT machine performs when `threads` lanes stripe over
//! `items` elements.

use crate::counters::KernelCounters;
use crate::shared::SharedMem;

/// Per-block execution state.
#[derive(Debug)]
pub struct BlockContext {
    /// Grid-wide block id (one block per batch problem in this workspace).
    pub block_id: usize,
    /// Threads in the block (from the launch configuration).
    pub threads: u32,
    /// Shared-memory lanes serviced per cycle (device LDS width); the
    /// effective parallelism of `smem_work` is `min(threads, lds_lanes)`.
    pub lds_lanes: u32,
    /// Simulated shared memory, sized by the launch configuration.
    pub smem: SharedMem,
    counters: KernelCounters,
}

impl BlockContext {
    /// `f64` lanes per hardware vector assumed by [`BlockContext::vec_work`]
    /// when counting lane sweeps (8 = a 512-bit vector of doubles; the GPU
    /// analogue is a quarter-warp memory transaction). Purely a reporting
    /// granularity — timing uses the striped cycle count, not the width.
    pub const SIMD_WIDTH: u32 = 8;

    /// New context for block `block_id` (LDS width defaults to the thread
    /// count; the engine sets the device value).
    pub fn new(block_id: usize, threads: u32, smem_bytes: usize) -> Self {
        Self::with_lds_lanes(block_id, threads, smem_bytes, threads)
    }

    /// New context with an explicit LDS lane width.
    pub fn with_lds_lanes(
        block_id: usize,
        threads: u32,
        smem_bytes: usize,
        lds_lanes: u32,
    ) -> Self {
        BlockContext {
            block_id,
            threads,
            lds_lanes: lds_lanes.max(1),
            smem: SharedMem::with_bytes(smem_bytes),
            counters: KernelCounters::default(),
        }
    }

    /// Fresh context with this context's geometry (thread count, arena
    /// size, LDS width) but pristine state. Executor workers fork one
    /// prototype each so every thread owns a private arena; a forked
    /// context is indistinguishable from a `reset_for` one, which is
    /// what keeps parallel block results identical to serial.
    pub fn fork_worker(&self) -> BlockContext {
        let smem_bytes = self.smem.capacity() * std::mem::size_of::<f64>();
        let mut ctx = BlockContext::with_lds_lanes(0, self.threads, smem_bytes, self.lds_lanes);
        ctx.smem.set_label(self.smem.label());
        ctx.smem.set_hazard_mode(self.smem.hazard_mode());
        ctx
    }

    /// [`BlockContext::fork_worker`] recycling a previously released arena
    /// buffer (see [`BlockContext::into_arena`]): resident-pool workers
    /// hand their buffer back to the pool between launches, so warm
    /// launches of the same footprint allocate nothing. State is identical
    /// to a plain fork — the buffer is cleared, resized, and zeroed.
    pub fn fork_worker_with_arena(&self, arena: Vec<f64>) -> BlockContext {
        let smem_bytes = self.smem.capacity() * std::mem::size_of::<f64>();
        let mut ctx = BlockContext {
            block_id: 0,
            threads: self.threads,
            lds_lanes: self.lds_lanes,
            smem: SharedMem::with_bytes_reusing(smem_bytes, arena),
            counters: KernelCounters::default(),
        };
        ctx.smem.set_label(self.smem.label());
        ctx.smem.set_hazard_mode(self.smem.hazard_mode());
        ctx
    }

    /// Release this context's arena buffer for later reuse through
    /// [`BlockContext::fork_worker_with_arena`].
    pub fn into_arena(self) -> Vec<f64> {
        self.smem.into_buffer()
    }

    /// Reuse this context for another block (workers recycle arenas).
    pub fn reset_for(&mut self, block_id: usize) {
        self.block_id = block_id;
        self.smem.reset();
        self.smem.assign_block(block_id);
        self.counters = KernelCounters::default();
    }

    /// Record a coalesced global-memory read of `bytes` bytes.
    #[inline]
    pub fn gld(&mut self, bytes: usize) {
        self.counters.global_read += bytes as u64;
    }

    /// Record a coalesced global-memory write of `bytes` bytes.
    #[inline]
    pub fn gst(&mut self, bytes: usize) {
        self.counters.global_write += bytes as u64;
    }

    /// Record data-parallel ALU work: `items` independent operations
    /// striped over the block's threads, each costing `flops_per_item`
    /// flops. Adds `items / threads` dependent cycles (fractional — the
    /// issue-latency floor is carried by the sync/trip counters).
    #[inline]
    pub fn par_work(&mut self, items: usize, flops_per_item: usize) {
        if items == 0 {
            return;
        }
        self.counters.flops += (items * flops_per_item) as u64;
        self.counters.cycles += items as f64 / self.threads as f64;
    }

    /// Record data-parallel work whose operands live in shared memory (the
    /// factorization's column operations, window shifts, RHS caches).
    /// Accumulates `items / threads` shared-element groups, priced by the
    /// device's `work_scale` at timing time.
    #[inline]
    pub fn smem_work(&mut self, items: usize, flops_per_item: usize) {
        if items == 0 {
            return;
        }
        self.counters.flops += (items * flops_per_item) as u64;
        let lanes = self.threads.min(self.lds_lanes) as f64;
        self.counters.smem_elems += items as f64 / lanes;
    }

    /// Record a vectorized sweep over a contiguous batch lane of `lanes`
    /// elements (the batch-innermost loops of the interleaved kernels),
    /// each element costing `flops_per_item` flops.
    ///
    /// Accounts the same `items / threads` critical-path cycles as
    /// [`BlockContext::par_work`] (the lanes stripe over the block's
    /// threads), plus the lane-width bookkeeping: the sweep issues
    /// `ceil(lanes / SIMD_WIDTH)` vectors of [`BlockContext::SIMD_WIDTH`]
    /// slots, so [`KernelCounters::lane_utilization`] exposes how full
    /// those vectors were.
    #[inline]
    pub fn vec_work(&mut self, lanes: usize, flops_per_item: usize) {
        if lanes == 0 {
            return;
        }
        self.counters.flops += (lanes * flops_per_item) as u64;
        self.counters.cycles += lanes as f64 / self.threads as f64;
        self.counters.lane_sweeps += lanes.div_ceil(Self::SIMD_WIDTH as usize) as u64;
        self.counters.lane_elems += lanes as u64;
    }

    /// Record one dependent shared-memory round trip on the critical path
    /// (e.g. reading the pivot value every other thread must wait for).
    #[inline]
    pub fn smem_trip(&mut self) {
        self.counters.smem_trips += 1;
    }

    /// Record a block-wide barrier. Also advances the hazard tracker's
    /// access epoch: tagged shared accesses on opposite sides of a `sync`
    /// are ordered and can never conflict.
    #[inline]
    pub fn sync(&mut self) {
        self.counters.syncs += 1;
        if let Some(t) = self.smem.tracker() {
            t.advance_epoch();
        }
    }

    /// Record raw critical-path cycles (sequential scalar work).
    #[inline]
    pub fn seq_cycles(&mut self, cycles: f64) {
        self.counters.cycles += cycles;
    }

    /// Record a whole block's worth of counters at once, as if each of its
    /// events had been recorded through the methods above: every block-
    /// recorded field adds to the running totals. `hazards` (owned by the
    /// shared-memory tracker) and `threads_spawned` (host provenance) are
    /// not block-recorded quantities and are ignored.
    ///
    /// Meant for kernels whose cost is data-independent, where an
    /// analytic predictor reproduces the per-event recording exactly.
    #[inline]
    pub fn record(&mut self, c: &KernelCounters) {
        let k = &mut self.counters;
        k.global_read += c.global_read;
        k.global_write += c.global_write;
        k.flops += c.flops;
        k.smem_trips += c.smem_trips;
        k.syncs += c.syncs;
        k.cycles += c.cycles;
        k.smem_elems += c.smem_elems;
        k.lane_sweeps += c.lane_sweeps;
        k.lane_elems += c.lane_elems;
    }

    /// Counters recorded so far (including any hazards the shared-memory
    /// tracker detected for this block).
    #[inline]
    pub fn counters(&self) -> KernelCounters {
        let mut c = self.counters;
        c.hazards = self.smem.hazard_count();
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_traffic() {
        let mut ctx = BlockContext::new(3, 32, 1024);
        ctx.gld(256);
        ctx.gst(128);
        let c = ctx.counters();
        assert_eq!(c.global_read, 256);
        assert_eq!(c.global_write, 128);
        assert_eq!(ctx.block_id, 3);
    }

    #[test]
    fn par_work_stripes_over_threads() {
        let mut ctx = BlockContext::new(0, 8, 0);
        ctx.par_work(20, 2); // 20/8 = 2.5 cycles, 40 flops
        let c = ctx.counters();
        assert_eq!(c.flops, 40);
        assert_eq!(c.cycles, 2.5);
        ctx.par_work(0, 100); // no-op
        assert_eq!(ctx.counters().cycles, 2.5);
    }

    #[test]
    fn smem_work_capped_by_lds_lanes() {
        let mut ctx = BlockContext::with_lds_lanes(0, 64, 0, 8);
        ctx.smem_work(32, 1);
        let c = ctx.counters();
        // 64 threads but only 8 LDS lanes: 32 / 8 = 4 element groups.
        assert_eq!(c.smem_elems, 4.0);
        assert_eq!(c.flops, 32);
        // Fewer threads than lanes: divisor is the thread count.
        let mut ctx = BlockContext::with_lds_lanes(0, 4, 0, 8);
        ctx.smem_work(32, 0);
        assert_eq!(ctx.counters().smem_elems, 8.0);
    }

    #[test]
    fn vec_work_counts_lane_sweeps() {
        let mut ctx = BlockContext::new(0, 16, 0);
        // 20 lanes, width 8: 3 vectors (8 + 8 + 4), 20/16 = 1.25 cycles.
        ctx.vec_work(20, 2);
        let c = ctx.counters();
        assert_eq!(c.lane_sweeps, 3);
        assert_eq!(c.lane_elems, 20);
        assert_eq!(c.flops, 40);
        assert_eq!(c.cycles, 1.25);
        assert_eq!(
            c.lane_utilization(BlockContext::SIMD_WIDTH),
            Some(20.0 / 24.0)
        );
        ctx.vec_work(0, 5); // no-op
        assert_eq!(ctx.counters().lane_sweeps, 3);
    }

    #[test]
    fn record_matches_per_event_recording() {
        let mut events = BlockContext::new(0, 16, 0);
        events.gld(96);
        events.gst(40);
        events.vec_work(20, 2);
        events.smem_work(7, 1);
        events.sync();
        events.smem_trip();
        events.seq_cycles(3.5);
        let mut once = BlockContext::new(0, 16, 0);
        once.record(&events.counters());
        assert_eq!(once.counters(), events.counters());
        // Recording adds to what is already there.
        once.record(&events.counters());
        assert_eq!(once.counters().global_read, 192);
        assert_eq!(once.counters().syncs, 2);
        // Provenance fields are not block-recorded.
        let provenance = KernelCounters {
            hazards: 3,
            threads_spawned: 4,
            ..KernelCounters::default()
        };
        let mut ctx = BlockContext::new(0, 16, 0);
        ctx.record(&provenance);
        assert_eq!(ctx.counters(), KernelCounters::default());
    }

    #[test]
    fn sync_and_trips() {
        let mut ctx = BlockContext::new(0, 8, 0);
        ctx.sync();
        ctx.sync();
        ctx.smem_trip();
        ctx.seq_cycles(12.5);
        let c = ctx.counters();
        assert_eq!(c.syncs, 2);
        assert_eq!(c.smem_trips, 1);
        assert_eq!(c.cycles, 12.5);
    }

    #[test]
    fn fork_worker_copies_geometry_not_state() {
        let mut ctx = BlockContext::with_lds_lanes(5, 16, 256, 8);
        ctx.gld(64);
        ctx.smem.alloc(4);
        let fresh = ctx.fork_worker();
        assert_eq!(fresh.threads, 16);
        assert_eq!(fresh.lds_lanes, 8);
        assert_eq!(fresh.smem.capacity(), ctx.smem.capacity());
        assert_eq!(fresh.smem.used(), 0);
        assert_eq!(fresh.counters(), KernelCounters::default());
    }

    #[test]
    fn fork_with_arena_matches_plain_fork() {
        let mut proto = BlockContext::with_lds_lanes(5, 16, 256, 8);
        proto.smem.set_label("arena_probe");
        // A dirty recycled buffer must come back zeroed and right-sized.
        let dirty = vec![3.5; 7];
        let forked = proto.fork_worker_with_arena(dirty);
        let plain = proto.fork_worker();
        assert_eq!(forked.smem.capacity(), plain.smem.capacity());
        assert_eq!(forked.smem.used(), 0);
        assert_eq!(forked.smem.label(), "arena_probe");
        assert_eq!(forked.counters(), KernelCounters::default());
        // Round trip: a big-enough recycled buffer keeps its allocation.
        let buf = forked.into_arena();
        assert_eq!(buf.len(), 256 / 8);
        assert!(buf.iter().all(|&v| v == 0.0));
        let again = proto.fork_worker_with_arena(buf);
        assert_eq!(again.smem.capacity(), 256 / 8);
    }

    #[test]
    fn sync_advances_hazard_epoch_and_fork_inherits_mode() {
        use crate::hazard::HazardMode;
        let mut ctx = BlockContext::new(0, 8, 64);
        ctx.smem.set_label("probe");
        ctx.smem.set_hazard_mode(HazardMode::Record);
        assert_eq!(ctx.smem.tracker().unwrap().epoch(), 0);
        ctx.sync();
        ctx.sync();
        assert_eq!(ctx.smem.tracker().unwrap().epoch(), 2);
        // Cross-epoch accesses by different lanes: ordered, no hazard.
        ctx.smem.tracker().unwrap().write(0, 1);
        ctx.sync();
        ctx.smem.tracker().unwrap().read(1, 1);
        assert_eq!(ctx.counters().hazards, 0);
        // Same-epoch accesses conflict and surface through counters().
        ctx.smem.tracker().unwrap().write(2, 1);
        assert_eq!(ctx.counters().hazards, 1);
        let fresh = ctx.fork_worker();
        assert_eq!(fresh.smem.hazard_mode(), HazardMode::Record);
        assert_eq!(fresh.smem.label(), "probe");
        assert_eq!(fresh.smem.hazard_count(), 0);
    }

    #[test]
    fn reset_clears_everything() {
        let mut ctx = BlockContext::new(0, 8, 64);
        ctx.gld(100);
        let off = ctx.smem.alloc(4);
        ctx.smem.slice_mut(off, 4)[0] = 9.0;
        ctx.reset_for(7);
        assert_eq!(ctx.block_id, 7);
        assert_eq!(ctx.counters(), KernelCounters::default());
        assert_eq!(ctx.smem.used(), 0);
    }
}
