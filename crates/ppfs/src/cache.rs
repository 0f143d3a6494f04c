//! Block cache with pluggable eviction.
//!
//! One cache per compute node, shared across that node's files. A block is
//! keyed by (file, block index) and is either *present* or *in flight*
//! (fetch issued, arriving at a known time). In-flight blocks are pinned:
//! they cannot be evicted until they arrive, because readers may already be
//! counting on them.
//!
//! LRU/MRU eviction is O(log n) via a recency-ordered index (ticks are
//! unique, so the index is a total order); random eviction draws from a
//! dense key vector. Pinned (in-flight) blocks are skipped during victim
//! search.

use crate::policy::Eviction;
use paragon_sim::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sio_core::hash::FastMap;
use std::collections::BTreeMap;

/// Cache block key: (file id, block index).
pub type BlockKey = (u32, u64);

/// State of a cached block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockState {
    /// Data present in the cache.
    Present,
    /// Fetch outstanding; data arrives at the given time.
    InFlight(SimTime),
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    state: BlockState,
    last_use: u64,
}

/// A fixed-capacity block cache.
#[derive(Debug)]
pub struct BlockCache {
    capacity: usize,
    eviction: Eviction,
    /// Probed by key only, never iterated: victim search walks `order`.
    entries: FastMap<BlockKey, Entry>,
    /// Recency index: tick -> key (ticks are unique).
    order: BTreeMap<u64, BlockKey>,
    tick: u64,
    rng: StdRng,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl BlockCache {
    /// New cache with the given capacity in blocks.
    pub fn new(capacity: u32, eviction: Eviction, seed: u64) -> BlockCache {
        assert!(capacity > 0, "cache needs at least one block");
        BlockCache {
            capacity: capacity as usize,
            eviction,
            entries: FastMap::with_capacity_and_hasher(capacity as usize + 1, Default::default()),
            order: BTreeMap::new(),
            tick: 0,
            rng: StdRng::seed_from_u64(seed),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn touch(&mut self, key: BlockKey) {
        self.tick += 1;
        if let Some(e) = self.entries.get_mut(&key) {
            self.order.remove(&e.last_use);
            e.last_use = self.tick;
            self.order.insert(self.tick, key);
        }
    }

    /// Look up a block, counting hit/miss statistics and refreshing
    /// recency. In-flight blocks count as hits (the fetch is already paid
    /// for).
    pub fn lookup(&mut self, key: BlockKey) -> Option<BlockState> {
        let state = self.entries.get(&key).map(|e| e.state);
        match state {
            Some(s) => {
                self.hits += 1;
                self.touch(key);
                Some(s)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Peek without statistics or recency update.
    pub fn peek(&self, key: BlockKey) -> Option<BlockState> {
        self.entries.get(&key).map(|e| e.state)
    }

    /// Insert a block (evicting if full). In-flight blocks are pinned and
    /// never chosen for eviction.
    pub fn insert(&mut self, key: BlockKey, state: BlockState) {
        self.tick += 1;
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            self.evict_one();
        }
        let tick = self.tick;
        if let Some(old) = self.entries.insert(
            key,
            Entry {
                state,
                last_use: tick,
            },
        ) {
            self.order.remove(&old.last_use);
        }
        self.order.insert(tick, key);
    }

    /// Mark an in-flight block as arrived.
    pub fn mark_present(&mut self, key: BlockKey) {
        if let Some(e) = self.entries.get_mut(&key) {
            e.state = BlockState::Present;
        }
    }

    fn evict_one(&mut self) {
        let victim: Option<BlockKey> = match self.eviction {
            Eviction::Lru => self
                .order
                .values()
                .copied()
                .find(|k| self.entries[k].state == BlockState::Present),
            Eviction::Mru => self
                .order
                .values()
                .rev()
                .copied()
                .find(|k| self.entries[k].state == BlockState::Present),
            Eviction::Random => {
                // Draw a few candidates from the order index; fall back to a
                // scan if unlucky with pinned blocks.
                let keys: Vec<BlockKey> = self
                    .order
                    .values()
                    .copied()
                    .filter(|k| self.entries[k].state == BlockState::Present)
                    .collect();
                if keys.is_empty() {
                    None
                } else {
                    Some(keys[self.rng.random_range(0..keys.len())])
                }
            }
        };
        if let Some(k) = victim {
            if let Some(e) = self.entries.remove(&k) {
                self.order.remove(&e.last_use);
            }
            self.evictions += 1;
        }
        // If everything is pinned in flight, the cache transiently exceeds
        // capacity; this is bounded by the prefetch depth.
    }

    /// Blocks currently tracked (present + in flight).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// (hits, misses, evictions).
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(cap: u32, ev: Eviction) -> BlockCache {
        BlockCache::new(cap, ev, 42)
    }

    #[test]
    fn hit_and_miss_accounting() {
        let mut c = cache(4, Eviction::Lru);
        assert_eq!(c.lookup((0, 0)), None);
        c.insert((0, 0), BlockState::Present);
        assert_eq!(c.lookup((0, 0)), Some(BlockState::Present));
        let (h, m, _) = c.stats();
        assert_eq!((h, m), (1, 1));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = cache(2, Eviction::Lru);
        c.insert((0, 1), BlockState::Present);
        c.insert((0, 2), BlockState::Present);
        c.lookup((0, 1)); // refresh block 1
        c.insert((0, 3), BlockState::Present); // evicts block 2
        assert!(c.peek((0, 1)).is_some());
        assert!(c.peek((0, 2)).is_none());
        assert!(c.peek((0, 3)).is_some());
    }

    #[test]
    fn mru_evicts_most_recent() {
        let mut c = cache(2, Eviction::Mru);
        c.insert((0, 1), BlockState::Present);
        c.insert((0, 2), BlockState::Present);
        c.lookup((0, 1));
        c.insert((0, 3), BlockState::Present); // evicts block 1 (most recent)
        assert!(c.peek((0, 1)).is_none());
        assert!(c.peek((0, 2)).is_some());
    }

    #[test]
    fn mru_wins_on_cyclic_scans_larger_than_cache() {
        // Scan blocks 0..10 cyclically with an 8-block cache: LRU always
        // evicts the block about to be reused; MRU retains a stable prefix.
        let run = |ev: Eviction| {
            let mut c = cache(8, ev);
            let mut hits = 0;
            for _pass in 0..5 {
                for b in 0..10u64 {
                    if c.lookup((0, b)).is_some() {
                        hits += 1;
                    } else {
                        c.insert((0, b), BlockState::Present);
                    }
                }
            }
            hits
        };
        assert!(run(Eviction::Mru) > run(Eviction::Lru));
    }

    #[test]
    fn inflight_blocks_are_pinned() {
        let mut c = cache(2, Eviction::Lru);
        c.insert((0, 1), BlockState::InFlight(SimTime(100)));
        c.insert((0, 2), BlockState::InFlight(SimTime(100)));
        // Nothing evictable: insert still succeeds (transient overflow).
        c.insert((0, 3), BlockState::Present);
        assert_eq!(c.len(), 3);
        assert!(c.peek((0, 1)).is_some());
        c.mark_present((0, 1));
        c.insert((0, 4), BlockState::Present); // now block 1 or 3 can go
        let (_, _, ev) = c.stats();
        assert!(ev >= 1);
    }

    #[test]
    fn mark_present_transitions_state() {
        let mut c = cache(2, Eviction::Lru);
        c.insert((7, 9), BlockState::InFlight(SimTime(5)));
        c.mark_present((7, 9));
        assert_eq!(c.peek((7, 9)), Some(BlockState::Present));
        // marking a missing block is a no-op
        c.mark_present((9, 9));
        assert!(c.peek((9, 9)).is_none());
    }

    #[test]
    fn random_eviction_stays_within_capacity() {
        let mut c = cache(8, Eviction::Random);
        for b in 0..100u64 {
            c.insert((0, b), BlockState::Present);
        }
        assert!(c.len() <= 8);
    }

    #[test]
    fn reinsert_same_key_does_not_grow_or_corrupt_order() {
        let mut c = cache(4, Eviction::Lru);
        for _ in 0..10 {
            c.insert((0, 1), BlockState::Present);
        }
        assert_eq!(c.len(), 1);
        // Index and entries stay consistent under heavy churn.
        for b in 0..100u64 {
            c.insert((0, b % 6), BlockState::Present);
            if let Some(s) = c.lookup((0, b % 3)) {
                assert_eq!(s, BlockState::Present);
            }
        }
        assert!(c.len() <= 4);
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn zero_capacity_panics() {
        let _ = cache(0, Eviction::Lru);
    }
}
