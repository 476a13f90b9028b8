//! Per-worker host scratch for block programs.
//!
//! A block program that needs host buffers beside its problem data (the
//! window of resident columns, an RHS cache, a staged interface slice)
//! borrows them from the [`Scratch`] arena of its
//! [`crate::block::BlockContext`] instead of allocating them per block.
//! The executor checks one arena out of a process-wide pool for each
//! worker of a launch and checks it back in when the worker finishes, so
//! an arena is reused across blocks and across launches and grows to the
//! largest request it has served.
//!
//! **Contract.** A [`Scratch::zeroed`] slice is zeroed, whatever an
//! earlier block or launch wrote into the arena and whatever size it asked
//! for: a kernel sees exactly what a fresh `vec![0.0; len]` would hold. A
//! [`Scratch::stale`] slice holds whatever the arena last held; it is for
//! buffers a kernel writes in full before it reads them. Either way,
//! results cannot depend on which arena a worker drew or what ran on it
//! before.

use std::any::Any;
use std::sync::Mutex;

/// A growable arena lending `f64` and `f32` slices.
#[derive(Debug, Default)]
pub struct Scratch {
    f64s: Vec<f64>,
    f32s: Vec<f32>,
}

impl Scratch {
    /// Borrow `len` zeroed elements of `T` (`f64` or `f32`).
    ///
    /// # Panics
    /// For any other element type.
    pub fn zeroed<T: Copy + Default + 'static>(&mut self, len: usize) -> &mut [T] {
        let s = self.stale(len);
        s.fill(T::default());
        s
    }

    /// Borrow `len` elements of `T` (`f64` or `f32`) holding whatever the
    /// arena last held: for a buffer the block writes in full before it
    /// reads it.
    ///
    /// # Panics
    /// For any other element type.
    pub fn stale<T: Copy + Default + 'static>(&mut self, len: usize) -> &mut [T] {
        let v = self.storage::<T>();
        if v.len() < len {
            v.resize(len, T::default());
        }
        &mut v[..len]
    }

    /// Bytes the arena holds.
    fn capacity_bytes(&self) -> usize {
        self.f64s.len() * 8 + self.f32s.len() * 4
    }

    fn storage<T: 'static>(&mut self) -> &mut Vec<T> {
        if let Some(v) = (&mut self.f64s as &mut dyn Any).downcast_mut() {
            return v;
        }
        (&mut self.f32s as &mut dyn Any)
            .downcast_mut()
            .expect("scratch lends f64 and f32 slices only")
    }
}

/// Arenas not checked out by a running worker.
static POOL: Mutex<Vec<Scratch>> = Mutex::new(Vec::new());

/// An arena for one worker of a launch: the pool's largest idle one, or a
/// new empty one.
pub(crate) fn checkout() -> Scratch {
    let mut pool = POOL.lock().unwrap_or_else(|e| e.into_inner());
    pool.pop().unwrap_or_default()
}

/// Return a worker's arena to the pool. The pool stays sorted by size, so
/// [`checkout`] hands out the largest idle arena first.
pub(crate) fn checkin(s: Scratch) {
    let mut pool = POOL.lock().unwrap_or_else(|e| e.into_inner());
    let at = pool.partition_point(|p| p.capacity_bytes() <= s.capacity_bytes());
    pool.insert(at, s);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lends_zeroed_slices_after_dirty_use() {
        let mut s = Scratch::default();
        s.zeroed::<f64>(10).fill(3.5);
        assert!(s.zeroed::<f64>(4).iter().all(|&v| v == 0.0));
        // A larger request reuses and extends the dirty elements.
        s.zeroed::<f64>(10).fill(3.5);
        assert!(s.zeroed::<f64>(40).iter().all(|&v| v == 0.0));
        // Each precision has its own storage.
        s.zeroed::<f32>(3).fill(1.0);
        assert_eq!(s.capacity_bytes(), 40 * 8 + 3 * 4);
        // A stale lend shows the arena as it was left.
        assert_eq!(s.stale::<f32>(3), &[1.0; 3]);
    }

    #[test]
    #[should_panic(expected = "f64 and f32")]
    fn other_element_types_are_refused() {
        let _ = Scratch::default().stale::<u8>(1);
    }
}
