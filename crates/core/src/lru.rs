//! A lazily maintained LRU map shard: the recency and eviction core of
//! the Scorer's [`crate::InfluenceCache`]. (The server's plan cache has
//! its own cost-aware shard.)
//!
//! Map values carry a last-access tick; the recency queue holds each
//! resident key exactly once, stamped with the tick it was enqueued at.
//! The hot `get` path only stores a tick — no allocation, no queue
//! traffic. Eviction pops the queue: a stale entry (stamp ≠ map tick,
//! i.e. touched since enqueueing) is re-enqueued at its current tick
//! instead of evicted, so the scan lands on the least-recently-used
//! resident. Each resident has exactly one queue slot, so an eviction
//! scan terminates in at most `2·len` pops.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

/// One lock shard of an LRU-bounded map. Callers provide the locking
/// and the capacity policy; the shard provides recency and eviction.
pub struct LruShard<K, V> {
    map: HashMap<K, (V, u64)>,
    order: VecDeque<(K, u64)>,
    tick: u64,
}

impl<K, V> Default for LruShard<K, V> {
    fn default() -> Self {
        LruShard { map: HashMap::new(), order: VecDeque::new(), tick: 0 }
    }
}

impl<K: Hash + Eq + Clone, V> LruShard<K, V> {
    /// The value under `k`, marked most-recently-used.
    pub fn get_mut(&mut self, k: &K) -> Option<&mut V> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(k).map(|(v, t)| {
            *t = tick;
            v
        })
    }

    /// Inserts `k` (or replaces its value), evicting least-recently-used
    /// entries to stay within `cap` residents. Returns the number
    /// evicted.
    pub fn insert(&mut self, k: &K, v: V, cap: usize) -> u64 {
        self.tick += 1;
        let tick = self.tick;
        if let Some(slot) = self.map.get_mut(k) {
            *slot = (v, tick);
            return 0;
        }
        let mut evicted = 0;
        while self.map.len() >= cap.max(1) {
            let Some((old, stamp)) = self.order.pop_front() else { break };
            match self.map.get(&old) {
                Some(&(_, t)) if t != stamp => self.order.push_back((old, t)),
                Some(_) => {
                    self.map.remove(&old);
                    evicted += 1;
                }
                None => {}
            }
        }
        self.map.insert(k.clone(), (v, tick));
        self.order.push_back((k.clone(), tick));
        evicted
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drops every entry (and the recency queue).
    pub fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut s = LruShard::default();
        for i in 0..4 {
            s.insert(&i, i * 10, 4);
        }
        // Touch 0 and 2; inserting past cap must evict 1 (the LRU).
        s.get_mut(&0);
        s.get_mut(&2);
        let evicted = s.insert(&9, 90, 4);
        assert_eq!(evicted, 1);
        assert!(s.get_mut(&1).is_none(), "1 was least recently used");
        for k in [0, 2, 3, 9] {
            assert!(s.get_mut(&k).is_some(), "{k} must survive");
        }
    }

    #[test]
    fn replacing_a_key_never_evicts() {
        let mut s = LruShard::default();
        s.insert(&1, "a", 1);
        assert_eq!(s.insert(&1, "b", 1), 0);
        assert_eq!(s.get_mut(&1), Some(&mut "b"));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn eviction_count_matches_overflow() {
        let mut s = LruShard::default();
        let mut evicted = 0;
        for i in 0..100 {
            evicted += s.insert(&i, (), 8);
        }
        assert_eq!(s.len(), 8);
        assert_eq!(evicted, 92);
    }
}
