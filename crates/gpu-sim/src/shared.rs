//! Shared-memory arena for block programs.
//!
//! A block program receives a [`SharedMem`] whose capacity equals the
//! `smem_bytes` of its launch configuration; attempts to allocate past the
//! capacity panic, mirroring how a real kernel simply cannot address more
//! shared memory than it requested. The engine validates the *request*
//! against the device limit before any block runs (see
//! [`crate::engine::launch`]), so a panic here is a kernel authoring bug,
//! not a simulated hardware failure.

use crate::hazard::{HazardMode, HazardTracker};

/// A bump-allocated `f64` arena standing in for GPU shared memory.
#[derive(Debug)]
pub struct SharedMem {
    buf: Vec<f64>,
    used: usize,
    /// End of the prefix of `buf` that mutable views have covered since
    /// the last zeroing; everything past it is still zero.
    dirty: usize,
    /// Kernel label of the owning launch; attributes overflow panics and
    /// hazard diagnostics to the kernel that caused them.
    label: &'static str,
    /// Block id of the owning block (set by `BlockContext::reset_for`).
    block_id: usize,
    /// Access tracker; `None` in [`HazardMode::Off`] so untracked launches
    /// pay one pointer-null branch per instrumented phase and nothing else.
    tracker: Option<Box<HazardTracker>>,
}

impl SharedMem {
    /// Arena with capacity for `bytes` bytes (rounded down to whole `f64`s).
    pub fn with_bytes(bytes: usize) -> Self {
        SharedMem {
            // Round up to whole grains: an f32 kernel's byte request need
            // not be 8-byte aligned, and truncating would under-provision
            // the last partial grain. f64 requests are always multiples of
            // 8, so their capacity is unchanged.
            buf: vec![0.0; bytes.div_ceil(std::mem::size_of::<f64>())],
            used: 0,
            dirty: 0,
            label: "kernel",
            block_id: 0,
            tracker: None,
        }
    }

    /// Like [`SharedMem::with_bytes`], but recycling `buf`'s allocation:
    /// the buffer is cleared and resized to the requested grain count, so
    /// when its capacity already suffices (a resident worker re-running a
    /// launch of the same footprint) no heap allocation happens. The
    /// resulting state is element-for-element identical to a fresh arena.
    pub fn with_bytes_reusing(bytes: usize, mut buf: Vec<f64>) -> Self {
        let grains = bytes.div_ceil(std::mem::size_of::<f64>());
        buf.clear();
        buf.resize(grains, 0.0);
        SharedMem {
            buf,
            used: 0,
            dirty: 0,
            label: "kernel",
            block_id: 0,
            tracker: None,
        }
    }

    /// Take the arena's buffer for reuse by a later
    /// [`SharedMem::with_bytes_reusing`].
    pub fn into_buffer(self) -> Vec<f64> {
        self.buf
    }

    /// Label the arena with the owning kernel (set by the executor from the
    /// launch configuration).
    pub fn set_label(&mut self, label: &'static str) {
        self.label = label;
        if let Some(t) = self.tracker.as_deref_mut() {
            t.reset_for(self.block_id, label);
        }
    }

    /// The owning kernel's label.
    #[inline]
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// Install (or remove) hazard tracking for subsequent blocks.
    pub fn set_hazard_mode(&mut self, mode: HazardMode) {
        if mode.is_on() {
            let mut t = HazardTracker::new(mode);
            t.reset_for(self.block_id, self.label);
            self.tracker = Some(Box::new(t));
        } else {
            self.tracker = None;
        }
    }

    /// The active hazard mode.
    #[inline]
    pub fn hazard_mode(&self) -> HazardMode {
        self.tracker
            .as_deref()
            .map_or(HazardMode::Off, |t| t.mode())
    }

    /// The access tracker, when hazard tracking is on. Kernels guard each
    /// instrumented phase with `if let Some(t) = ctx.smem.tracker()` so the
    /// `Off` path stays branch-cheap.
    #[inline]
    pub fn tracker(&mut self) -> Option<&mut HazardTracker> {
        self.tracker.as_deref_mut()
    }

    /// Conflicts detected so far in the current block.
    #[inline]
    pub fn hazard_count(&self) -> u64 {
        self.tracker.as_deref().map_or(0, |t| t.total_hazards())
    }

    /// Reassign the arena to block `block_id` (resets tracker state).
    pub(crate) fn assign_block(&mut self, block_id: usize) {
        self.block_id = block_id;
        if let Some(t) = self.tracker.as_deref_mut() {
            t.reset_for(block_id, self.label);
        }
    }

    /// Capacity in `f64` elements.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Elements currently allocated.
    #[inline]
    pub fn used(&self) -> usize {
        self.used
    }

    /// Allocate `len` elements; returns the arena offset.
    ///
    /// # Panics
    /// When the request exceeds the block's declared shared memory — a
    /// kernel bug (the declared size is validated by the engine).
    pub fn alloc(&mut self, len: usize) -> usize {
        assert!(
            self.used + len <= self.buf.len(),
            "shared-memory overflow in `{}` block {}: {} + {} > {} f64s — kernel requested too little smem",
            self.label,
            self.block_id,
            self.used,
            len,
            self.buf.len()
        );
        let off = self.used;
        self.used += len;
        off
    }

    /// Allocate `len` scalar elements of `elem_bytes` bytes each; returns
    /// the offset in *scalar-element* units.
    ///
    /// The arena itself stays `f64`-grained: the request is rounded up to
    /// whole 8-byte grains, so distinct allocations remain disjoint at
    /// grain granularity (which is what the hazard tracker keys on). For
    /// `elem_bytes == 8` this is exactly [`SharedMem::alloc`].
    ///
    /// # Panics
    /// When `elem_bytes` does not divide the 8-byte grain, or on overflow
    /// (see [`SharedMem::alloc`]).
    pub fn alloc_scalar(&mut self, len: usize, elem_bytes: usize) -> usize {
        assert!(
            elem_bytes > 0 && 8 % elem_bytes == 0,
            "elem_bytes {elem_bytes} must divide the 8-byte arena grain"
        );
        let grains = (len * elem_bytes).div_ceil(8);
        let grain_off = self.alloc(grains);
        grain_off * (8 / elem_bytes)
    }

    /// Reset all allocations (used when a worker reuses the arena for the
    /// next block) and zero the buffer, matching the "fresh" state a new
    /// block observes. Only the prefix mutable views have reached is
    /// written: a block that never stores into the arena costs nothing
    /// here.
    pub fn reset(&mut self) {
        self.used = 0;
        self.buf[..self.dirty].fill(0.0);
        self.dirty = 0;
    }

    /// View of an allocation.
    #[inline]
    pub fn slice(&self, off: usize, len: usize) -> &[f64] {
        &self.buf[off..off + len]
    }

    /// Mutable view of an allocation.
    #[inline]
    pub fn slice_mut(&mut self, off: usize, len: usize) -> &mut [f64] {
        let view = &mut self.buf[off..off + len];
        self.dirty = self.dirty.max(off + len);
        view
    }

    /// Two disjoint mutable views (e.g. the paper's factor window and RHS
    /// cache living side by side).
    pub fn slice2_mut(
        &mut self,
        off1: usize,
        len1: usize,
        off2: usize,
        len2: usize,
    ) -> (&mut [f64], &mut [f64]) {
        assert!(
            off1 + len1 <= off2 || off2 + len2 <= off1,
            "overlapping shared slices"
        );
        self.dirty = self
            .dirty
            .max((off1 + len1).max(off2 + len2).min(self.buf.len()));
        if off1 < off2 {
            let (a, b) = self.buf.split_at_mut(off2);
            (&mut a[off1..off1 + len1], &mut b[..len2])
        } else {
            let (a, b) = self.buf.split_at_mut(off1);
            let first = &mut b[..len1];
            (first, &mut a[off2..off2 + len2])
        }
    }

    /// Raw access to the whole arena (kernels that manage their own
    /// sub-allocation).
    #[inline]
    pub fn raw_mut(&mut self) -> &mut [f64] {
        self.dirty = self.buf.len();
        &mut self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_use() {
        let mut s = SharedMem::with_bytes(64); // 8 f64
        assert_eq!(s.capacity(), 8);
        let a = s.alloc(3);
        let b = s.alloc(5);
        assert_eq!((a, b), (0, 3));
        s.slice_mut(a, 3)[2] = 7.0;
        assert_eq!(s.slice(a, 3)[2], 7.0);
        assert_eq!(s.used(), 8);
    }

    #[test]
    #[should_panic(expected = "shared-memory overflow in `gbtrf_fused` block 11")]
    fn overflow_panic_names_kernel_and_block() {
        let mut s = SharedMem::with_bytes(16);
        s.set_label("gbtrf_fused");
        s.assign_block(11);
        s.alloc(3);
    }

    #[test]
    fn alloc_scalar_grains() {
        let mut s = SharedMem::with_bytes(64); // 8 grains
                                               // f64: identical to alloc.
        let a = s.alloc_scalar(3, 8);
        assert_eq!(a, 0);
        assert_eq!(s.used(), 3);
        // f32: 5 elements = 20 bytes = 3 grains, offset in f32 units.
        let b = s.alloc_scalar(5, 4);
        assert_eq!(b, 3 * 2);
        assert_eq!(s.used(), 6);
        // Packing: a 1-element f32 request still consumes a whole grain,
        // keeping allocations grain-disjoint for the hazard tracker.
        let c = s.alloc_scalar(1, 4);
        assert_eq!(c, 6 * 2);
        assert_eq!(s.used(), 7);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn alloc_scalar_rejects_odd_widths() {
        let mut s = SharedMem::with_bytes(64);
        let _ = s.alloc_scalar(1, 3);
    }

    #[test]
    fn reused_buffer_is_indistinguishable_from_fresh() {
        let fresh = SharedMem::with_bytes(60); // rounds up to 8 grains
        let mut dirty = vec![9.0; 100];
        dirty.shrink_to(100);
        let cap_before = dirty.capacity();
        let reused = SharedMem::with_bytes_reusing(60, dirty);
        assert_eq!(reused.capacity(), fresh.capacity());
        assert_eq!(reused.used(), 0);
        let buf = reused.into_buffer();
        assert_eq!(buf.len(), 8);
        assert!(buf.iter().all(|&v| v == 0.0));
        assert!(buf.capacity() >= 8 && buf.capacity() <= cap_before.max(8));
    }

    #[test]
    fn tracker_lifecycle() {
        let mut s = SharedMem::with_bytes(64);
        assert_eq!(s.hazard_mode(), HazardMode::Off);
        assert!(s.tracker().is_none());
        s.set_hazard_mode(HazardMode::Record);
        assert_eq!(s.hazard_mode(), HazardMode::Record);
        let t = s.tracker().unwrap();
        t.write(0, 2);
        t.read(1, 2);
        assert_eq!(s.hazard_count(), 1);
        // Reassigning the arena to a new block clears tracked state.
        s.assign_block(3);
        assert_eq!(s.hazard_count(), 0);
        s.set_hazard_mode(HazardMode::Off);
        assert!(s.tracker().is_none());
    }

    #[test]
    fn reset_zeroes() {
        let mut s = SharedMem::with_bytes(64);
        let a = s.alloc(8);
        s.slice_mut(a, 8).fill(5.0);
        s.reset();
        assert_eq!(s.used(), 0);
        let a = s.alloc(8);
        assert!(s.slice(a, 8).iter().all(|&v| v == 0.0));
        // Every way of writing is zeroed by the next reset.
        let (x, y) = s.slice2_mut(6, 2, 0, 3);
        x.fill(1.0);
        y.fill(2.0);
        s.reset();
        assert!(s.slice(0, 8).iter().all(|&v| v == 0.0));
        s.raw_mut()[7] = 3.0;
        s.reset();
        assert!(s.slice(0, 8).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn disjoint_slices() {
        let mut s = SharedMem::with_bytes(10 * 8);
        let a = s.alloc(4);
        let b = s.alloc(6);
        let (x, y) = s.slice2_mut(a, 4, b, 6);
        x[0] = 1.0;
        y[5] = 2.0;
        assert_eq!(s.slice(a, 4)[0], 1.0);
        assert_eq!(s.slice(b, 6)[5], 2.0);
        // Reverse order also works.
        let (y2, x2) = s.slice2_mut(b, 6, a, 4);
        assert_eq!(y2[5], 2.0);
        assert_eq!(x2[0], 1.0);
    }

    #[test]
    #[should_panic(expected = "overlapping")]
    fn overlapping_slices_panic() {
        let mut s = SharedMem::with_bytes(10 * 8);
        let _ = s.alloc(10);
        let _ = s.slice2_mut(0, 6, 4, 4);
    }
}
