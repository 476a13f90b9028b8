//! Property tests over the serving layer's structural invariants:
//! shape-bucket conservation and FIFO order, admission backpressure,
//! bisect-retry isolation under arbitrary poison patterns, and the
//! factor cache's eviction-policy contract (budgets, LRU order, counter
//! conservation) under arbitrary lookup/insert/fetch interleavings.

use std::sync::Arc;

use gbatch_core::{
    BandLayout, FactorPayload, Fingerprint, FingerprintHasher, RetainedFactor, ShapeKey,
};
use gbatch_serve::{
    BackendError, BackendKind, BatchSolution, BucketMap, CacheConfig, FactorCache, FlushPolicy,
    RetainedLanes, Server, ServerConfig, SolveBackend, SolveRequest, SolveStatus,
};
use proptest::prelude::*;

/// Strategy: a small pool of distinct shapes (the bucket keys).
fn shape_pool() -> Vec<ShapeKey> {
    vec![
        ShapeKey::gbsv(8, 1, 1, 1),
        ShapeKey::gbsv(16, 2, 2, 1),
        ShapeKey::gbsv(16, 2, 2, 2),
        ShapeKey::gbsv(24, 3, 1, 1),
    ]
}

fn request(id: u64, shape: ShapeKey, at: f64, dl: f64) -> SolveRequest {
    SolveRequest {
        id,
        shape,
        ab: vec![0.0; shape.ab_len()],
        rhs: vec![0.0; shape.rhs_len()],
        submitted_s: at,
        deadline_s: dl,
    }
}

/// A deterministic mock backend: echoes request ids, refuses any batch
/// containing a poisoned id.
struct Mock {
    poisoned: Vec<u64>,
    kind: BackendKind,
}

impl SolveBackend for Mock {
    fn kind(&self) -> BackendKind {
        self.kind
    }
    fn solve_retaining(
        &self,
        _shape: &ShapeKey,
        reqs: &[SolveRequest],
    ) -> Result<(BatchSolution, RetainedLanes), BackendError> {
        if reqs.iter().any(|r| self.poisoned.contains(&r.id)) {
            return Err(BackendError::Fault("poisoned".into()));
        }
        let sol = BatchSolution {
            x: reqs.iter().map(|r| vec![r.id as f64]).collect(),
            info: vec![0; reqs.len()],
            service_s: 1e-6 * reqs.len() as f64,
        };
        Ok((sol, vec![None; reqs.len()]))
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Every pushed request is taken exactly once, in FIFO order per
    /// bucket, and the global capacity is never exceeded.
    #[test]
    fn bucket_conservation_and_fifo(
        picks in proptest::collection::vec(0usize..4, 1..120),
        capacity in 1usize..96,
    ) {
        let shapes = shape_pool();
        let mut q = BucketMap::new(capacity);
        let mut admitted: Vec<(u64, ShapeKey)> = Vec::new();
        let mut bounced = 0usize;
        for (id, &p) in picks.iter().enumerate() {
            let shape = shapes[p];
            match q.push(request(id as u64, shape, id as f64, id as f64 + 1.0)) {
                Ok(depth) => {
                    prop_assert!(depth <= q.pending());
                    admitted.push((id as u64, shape));
                }
                Err(r) => {
                    prop_assert_eq!(r.id, id as u64, "bounced request intact");
                    bounced += 1;
                }
            }
            prop_assert!(q.pending() <= capacity, "capacity respected");
        }
        prop_assert_eq!(admitted.len() + bounced, picks.len());
        // Drain every bucket; ids must come back FIFO and exactly once.
        let mut drained: Vec<(u64, ShapeKey)> = Vec::new();
        for key in q.occupied_keys() {
            let reqs = q.take(&key);
            let ids: Vec<u64> = reqs.iter().map(|r| r.id).collect();
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            prop_assert_eq!(&ids, &sorted, "FIFO per bucket == ascending ids");
            drained.extend(reqs.iter().map(|r| (r.id, r.shape)));
        }
        prop_assert!(q.is_empty());
        prop_assert_eq!(q.pending(), 0);
        drained.sort_by_key(|&(id, _)| id);
        admitted.sort_by_key(|&(id, _)| id);
        prop_assert_eq!(drained, admitted, "no loss, no duplication");
    }

    /// The urgency scan returns the globally smallest head-of-line
    /// deadline.
    #[test]
    fn next_deadline_is_global_minimum(
        entries in proptest::collection::vec((0usize..4, 0.0f64..100.0), 1..60),
    ) {
        let shapes = shape_pool();
        let mut q = BucketMap::new(1024);
        // Track the earliest deadline pushed into each bucket's *front*:
        // FIFO order means the first push per shape is the head.
        let mut head: std::collections::BTreeMap<ShapeKey, f64> = Default::default();
        for (id, &(p, dl)) in entries.iter().enumerate() {
            let shape = shapes[p];
            q.push(request(id as u64, shape, 0.0, dl)).unwrap();
            head.entry(shape).or_insert(dl);
        }
        let (got_dl, _) = q.next_deadline().unwrap();
        let want = head.values().fold(f64::INFINITY, |a, &b| a.min(b));
        prop_assert_eq!(got_dl, want);
    }

    /// Bisect retry: whatever subset of a flushed batch is poisoned, the
    /// server answers every request exactly once — poisoned ids land on
    /// the fallback backend, healthy ids keep their primary results.
    #[test]
    fn bisect_isolates_arbitrary_poison_patterns(
        batch in 2usize..24,
        poison_bits in proptest::collection::vec(0u8..2, 24),
    ) {
        let shape = ShapeKey::gbsv(8, 1, 1, 1);
        let poisoned: Vec<u64> = (0..batch as u64)
            .filter(|&i| poison_bits[i as usize] == 1)
            .collect();
        let cfg = ServerConfig {
            queue_capacity: 64,
            policy: FlushPolicy::default().with_target_batch(batch),
        };
        let mut server = Server::new(
            cfg,
            Box::new(Mock { poisoned: poisoned.clone(), kind: BackendKind::Gpu }),
            Box::new(Mock { poisoned: Vec::new(), kind: BackendKind::Cpu }),
        );
        for i in 0..batch as u64 {
            server
                .submit(request(i, shape, i as f64 * 1e-6, 1.0))
                .unwrap();
        }
        let resp = server.take_responses();
        prop_assert_eq!(resp.len(), batch, "every request answered");
        let mut ids: Vec<u64> = resp.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..batch as u64).collect::<Vec<_>>(), "once each");
        for r in &resp {
            prop_assert_eq!(r.status, SolveStatus::Solved);
            prop_assert_eq!(&r.x, &vec![r.id as f64], "payload routed correctly");
            if poisoned.contains(&r.id) {
                prop_assert_eq!(r.backend, BackendKind::Cpu, "poisoned -> fallback");
            } else {
                prop_assert_eq!(r.backend, BackendKind::Gpu, "healthy -> primary");
            }
        }
        let report = server.report();
        prop_assert!(report.is_conserved());
        prop_assert_eq!(report.fallback_singletons, poisoned.len() as u64);
        if poisoned.is_empty() {
            prop_assert_eq!(report.bisect_retries, 0);
        } else {
            prop_assert!(report.bisect_retries >= 1);
        }
    }
}

/// A synthetic fingerprint per integer key.
fn key_fp(seed: u64) -> Fingerprint {
    let mut h = FingerprintHasher::new();
    h.write_u64(seed);
    h.finish()
}

/// A retained factor whose byte footprint scales with `n`.
fn sized_factor(n: usize) -> Arc<RetainedFactor> {
    let l = BandLayout::factor(n, n, 1, 1).unwrap();
    Arc::new(RetainedFactor {
        layout: l,
        payload: FactorPayload::F64(vec![1.0; l.len()]),
        pivots: vec![0; n],
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// The eviction-policy contract, checked after every operation of an
    /// arbitrary lookup/insert/fetch interleaving against a shadow model:
    ///
    /// - the entry budget is never exceeded;
    /// - the byte budget is never exceeded while more than one entry is
    ///   live (a lone oversized entry is legal — insertion never evicts
    ///   itself);
    /// - the cache's recency order is exactly the model's LRU order, so
    ///   eviction always removes the least-recently-touched entry;
    /// - `hits + misses == lookups`, and evictions are counted one per
    ///   removed entry.
    #[test]
    fn cache_eviction_policy_matches_lru_model(
        max_entries in 1usize..6,
        byte_budget_entries in 1usize..6,
        ops in proptest::collection::vec((0u8..3, 0u64..8, 2usize..7), 1..160),
    ) {
        // Express the byte budget in units of a mid-sized factor so both
        // budgets bind in practice.
        let unit = sized_factor(4).bytes();
        let cfg = CacheConfig::default()
            .with_max_entries(max_entries)
            .with_max_bytes(byte_budget_entries * unit);
        let mut cache = FactorCache::new(cfg);

        // Shadow model: key order (LRU first) and per-key byte size.
        let mut order: Vec<u64> = Vec::new();
        let mut size_of: std::collections::BTreeMap<u64, usize> = Default::default();
        let (mut lookups, mut hits, mut misses, mut evictions) = (0u64, 0u64, 0u64, 0u64);

        for &(op, key, n) in &ops {
            match op {
                0 => {
                    // Counted, recency-refreshing admission probe.
                    let got = cache.lookup(key_fp(key));
                    lookups += 1;
                    if let Some(pos) = order.iter().position(|&k| k == key) {
                        hits += 1;
                        prop_assert!(got.is_some());
                        let k = order.remove(pos);
                        order.push(k);
                    } else {
                        misses += 1;
                        prop_assert!(got.is_none());
                    }
                }
                1 => {
                    // Insert: refresh if live, else admit then evict LRU
                    // past either budget (never the fresh entry itself).
                    let factor = sized_factor(n);
                    let bytes = factor.bytes();
                    cache.insert(key_fp(key), factor);
                    if let Some(pos) = order.iter().position(|&k| k == key) {
                        // Refresh keeps the original payload and size.
                        let k = order.remove(pos);
                        order.push(k);
                    } else {
                        order.push(key);
                        size_of.insert(key, bytes);
                        let total =
                            |o: &[u64], s: &std::collections::BTreeMap<u64, usize>| -> usize {
                                o.iter().map(|k| s[k]).sum()
                            };
                        while order.len() > 1
                            && (order.len() > max_entries
                                || total(&order, &size_of) > byte_budget_entries * unit)
                        {
                            let victim = order.remove(0);
                            size_of.remove(&victim);
                            evictions += 1;
                        }
                    }
                }
                _ => {
                    // Flush-time fetch: refreshes recency, not counted.
                    let got = cache.fetch(key_fp(key));
                    if let Some(pos) = order.iter().position(|&k| k == key) {
                        prop_assert!(got.is_some());
                        let k = order.remove(pos);
                        order.push(k);
                    } else {
                        prop_assert!(got.is_none());
                    }
                }
            }

            // Invariants, after every single operation.
            prop_assert!(cache.len() <= max_entries, "entry budget exceeded");
            if cache.len() > 1 {
                prop_assert!(
                    cache.bytes() <= byte_budget_entries * unit,
                    "byte budget exceeded with multiple entries"
                );
            }
            let want: Vec<Fingerprint> = order.iter().map(|&k| key_fp(k)).collect();
            prop_assert_eq!(cache.lru_order(), want, "recency order diverged");
            let expect_bytes: usize = order.iter().map(|k| size_of[k]).sum();
            prop_assert_eq!(cache.bytes(), expect_bytes);
            let s = cache.stats();
            prop_assert_eq!(s.lookups, lookups);
            prop_assert_eq!(s.hits, hits);
            prop_assert_eq!(s.misses, misses);
            prop_assert_eq!(s.hits + s.misses, s.lookups, "counter conservation");
            prop_assert_eq!(s.evictions, evictions);
        }
    }

    /// Handle lifecycle: a live entry's handle is stable across touches
    /// and refreshes; once evicted, the handle resolves to `None` forever
    /// (handles are minted from a monotonic counter, never reused).
    #[test]
    fn cache_handles_are_stable_then_dead(
        keys in proptest::collection::vec(0u64..6, 2..40),
    ) {
        let mut cache = FactorCache::new(CacheConfig::default().with_max_entries(2));
        let mut live: std::collections::BTreeMap<u64, gbatch_serve::FactorHandle> =
            Default::default();
        let mut dead: Vec<gbatch_serve::FactorHandle> = Vec::new();
        for &key in &keys {
            let handle = cache.insert(key_fp(key), sized_factor(3));
            if let Some(&prev) = live.get(&key) {
                prop_assert_eq!(handle, prev, "refresh keeps the handle");
            } else {
                live.insert(key, handle);
            }
            // Sync the model with whatever eviction just happened.
            let gone: Vec<u64> = live
                .iter()
                .filter(|(k, _)| !cache.contains(key_fp(**k)))
                .map(|(k, _)| *k)
                .collect();
            for k in gone {
                dead.push(live.remove(&k).unwrap());
            }
            for (k, h) in &live {
                prop_assert_eq!(cache.resolve(*h), Some(key_fp(*k)));
                prop_assert_eq!(cache.handle_of(key_fp(*k)), Some(*h));
            }
            for h in &dead {
                prop_assert_eq!(cache.resolve(*h), None, "stale handle stays dead");
            }
        }
    }

    /// The negative cache is a bounded FIFO: its population never exceeds
    /// the budget, and a successful insertion of the same fingerprint
    /// clears the stale negative record.
    #[test]
    fn negative_cache_is_bounded_and_cleared_by_insertion(
        max_negative in 1usize..8,
        keys in proptest::collection::vec(0u64..12, 1..60),
        promote in 0u64..12,
    ) {
        let mut cache =
            FactorCache::new(CacheConfig::default().with_max_negative(max_negative));
        for &key in &keys {
            cache.insert_negative(key_fp(key), 1);
            prop_assert!(cache.negative_len() <= max_negative);
        }
        let was_negative = cache.probe_negative(key_fp(promote)).is_some();
        cache.insert(key_fp(promote), sized_factor(3));
        prop_assert!(cache.probe_negative(key_fp(promote)).is_none(),
            "insertion clears the negative record");
        if was_negative {
            prop_assert!(cache.stats().negative_hits >= 1);
        }
    }
}
