//! Shape-bucketed admission queue.
//!
//! Requests that can share one `dgbsv_batch` dispatch must agree on the
//! full geometry — order, bandwidths, right-hand-side count, storage — so
//! the queue is a map from a bucketing key to a FIFO bucket. The map is a
//! `BTreeMap` on purpose: keys are `Ord`, so every iteration order (and
//! therefore every tie-break between buckets with equal deadlines) is
//! deterministic. A bucket is removed as soon as it is taken, so the
//! map holds only non-empty buckets.
//!
//! The queue is generic over the queued item through [`Bucketed`]: the
//! public serve API buckets plain [`SolveRequest`]s by [`ShapeKey`], while
//! the server internally buckets admitted records by `(ShapeKey, cache
//! tier)` so factor-cache hits flush as solve-only batches separate from
//! cold factorize-and-solve flushes.
//!
//! Capacity is bounded *globally* (total pending requests across all
//! buckets), which is the backpressure contract a caller can reason about:
//! a full service refuses work no matter which shape it is.

use std::collections::{BTreeMap, VecDeque};

use gbatch_core::ShapeKey;

use crate::request::SolveRequest;

/// An item the queue can bucket: a deterministic key plus the deadline
/// that drives the head-of-line flush trigger.
pub trait Bucketed {
    /// The bucketing key. `Ord` keeps every cross-bucket tie-break
    /// deterministic.
    type Key: Ord + Copy;
    /// This item's bucket.
    fn bucket_key(&self) -> Self::Key;
    /// Absolute response deadline, seconds on the virtual clock.
    fn deadline_s(&self) -> f64;
}

impl Bucketed for SolveRequest {
    type Key = ShapeKey;
    fn bucket_key(&self) -> ShapeKey {
        self.shape
    }
    fn deadline_s(&self) -> f64 {
        self.deadline_s
    }
}

/// The full admission queue: keyed FIFO buckets under one global bound.
pub struct BucketMap<R: Bucketed = SolveRequest> {
    buckets: BTreeMap<R::Key, VecDeque<R>>,
    capacity: usize,
    pending: usize,
}

impl<R: Bucketed> std::fmt::Debug for BucketMap<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BucketMap")
            .field("pending", &self.pending)
            .field("capacity", &self.capacity)
            .field("buckets", &self.buckets.len())
            .finish()
    }
}

impl<R: Bucketed> BucketMap<R> {
    /// Empty queue with the given total capacity.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        BucketMap {
            buckets: BTreeMap::new(),
            capacity,
            pending: 0,
        }
    }

    /// Total pending requests across all buckets.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Configured global capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether no request is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Number of non-empty buckets.
    #[must_use]
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Queue depth of one key's bucket.
    #[must_use]
    pub fn depth(&self, key: &R::Key) -> usize {
        self.buckets.get(key).map_or(0, VecDeque::len)
    }

    /// Enqueue a request. Returns the new depth of its bucket, or hands
    /// the request back when the global capacity is reached (backpressure
    /// — the queue is untouched in that case).
    pub fn push(&mut self, req: R) -> Result<usize, R> {
        if self.pending >= self.capacity {
            return Err(req);
        }
        self.pending += 1;
        let bucket = self.buckets.entry(req.bucket_key()).or_default();
        bucket.push_back(req);
        Ok(bucket.len())
    }

    /// Remove and return every request of one bucket, in FIFO order.
    pub fn take(&mut self, key: &R::Key) -> Vec<R> {
        let Some(bucket) = self.buckets.remove(key) else {
            return Vec::new();
        };
        self.pending -= bucket.len();
        bucket.into()
    }

    /// The most urgent bucket: smallest head-of-line deadline over all
    /// buckets, ties broken by key order. FIFO admission and a uniform
    /// per-request budget make the front request the most urgent one;
    /// with mixed budgets this is still the flush trigger the paper's
    /// serving analogues use (head-of-line deadline).
    #[must_use]
    pub fn next_deadline(&self) -> Option<(f64, R::Key)> {
        let mut best: Option<(f64, R::Key)> = None;
        for (key, bucket) in &self.buckets {
            if let Some(dl) = bucket.front().map(Bucketed::deadline_s) {
                if best.is_none_or(|(bd, _)| dl < bd) {
                    best = Some((dl, *key));
                }
            }
        }
        best
    }

    /// Keys of all non-empty buckets, in deterministic (`Ord`) order.
    #[must_use]
    pub fn occupied_keys(&self) -> Vec<R::Key> {
        self.buckets.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, shape: ShapeKey, at: f64, dl: f64) -> SolveRequest {
        SolveRequest {
            id,
            shape,
            ab: vec![0.0; shape.ab_len()],
            rhs: vec![0.0; shape.rhs_len()],
            submitted_s: at,
            deadline_s: dl,
        }
    }

    #[test]
    fn fifo_within_bucket_and_capacity_bound() {
        let s = ShapeKey::gbsv(8, 1, 1, 1);
        let mut q = BucketMap::new(3);
        assert_eq!(q.push(req(0, s, 0.0, 1.0)).unwrap(), 1);
        assert_eq!(q.push(req(1, s, 0.1, 1.1)).unwrap(), 2);
        assert_eq!(q.push(req(2, s, 0.2, 1.2)).unwrap(), 3);
        // Full: the fourth request bounces back intact.
        let bounced = q.push(req(3, s, 0.3, 1.3)).unwrap_err();
        assert_eq!(bounced.id, 3);
        assert_eq!(q.pending(), 3);
        let drained = q.take(&s);
        assert_eq!(drained.iter().map(|r| r.id).collect::<Vec<_>>(), [0, 1, 2]);
        assert!(q.is_empty());
        // Capacity freed: admission resumes.
        assert_eq!(q.push(req(3, s, 0.3, 1.3)).unwrap(), 1);
    }

    #[test]
    fn next_deadline_prefers_urgency_then_key_order() {
        let a = ShapeKey::gbsv(8, 1, 1, 1);
        let b = ShapeKey::gbsv(16, 2, 2, 1);
        let mut q = BucketMap::new(16);
        q.push(req(0, b, 0.0, 0.5)).unwrap();
        q.push(req(1, a, 0.0, 0.7)).unwrap();
        assert_eq!(q.next_deadline(), Some((0.5, b)));
        // Equal head deadlines: the smaller ShapeKey wins the tie.
        let mut q = BucketMap::new(16);
        q.push(req(0, b, 0.0, 0.5)).unwrap();
        q.push(req(1, a, 0.0, 0.5)).unwrap();
        assert_eq!(q.next_deadline(), Some((0.5, a.min(b))));
    }

    #[test]
    fn buckets_partition_by_shape() {
        let a = ShapeKey::gbsv(8, 1, 1, 1);
        let b = ShapeKey::gbsv(8, 1, 1, 2);
        let mut q = BucketMap::new(16);
        q.push(req(0, a, 0.0, 1.0)).unwrap();
        q.push(req(1, b, 0.0, 1.0)).unwrap();
        q.push(req(2, a, 0.0, 1.0)).unwrap();
        assert_eq!(q.depth(&a), 2);
        assert_eq!(q.depth(&b), 1);
        assert_eq!(q.bucket_count(), 2);
        assert_eq!(q.occupied_keys(), vec![a.min(b), a.max(b)]);
    }

    #[test]
    fn take_removes_the_emptied_bucket() {
        let a = ShapeKey::gbsv(8, 1, 1, 1);
        let b = ShapeKey::gbsv(16, 2, 2, 1);
        let mut q = BucketMap::new(16);
        q.push(req(0, a, 0.0, 0.5)).unwrap();
        q.push(req(1, b, 0.0, 0.7)).unwrap();
        assert_eq!(q.take(&a).len(), 1);
        assert_eq!(q.bucket_count(), 1);
        assert_eq!(q.occupied_keys(), vec![b]);
        assert_eq!(q.next_deadline(), Some((0.7, b)));
        // Taking a missing key is a no-op.
        assert!(q.take(&a).is_empty());
        assert_eq!(q.pending(), 1);
    }
}
