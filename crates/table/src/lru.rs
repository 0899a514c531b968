//! A bounded least-recently-used map shard: the one eviction policy
//! behind the clause-mask cache ([`crate::ClauseMaskCache`]), the
//! Scorer's influence cache and the approximate search's
//! compressed-clause memo. Callers provide the locking and the
//! capacity.
//!
//! Map values carry a last-access tick; a min-heap holds each resident
//! key exactly once, stamped with the tick it was pushed at. The hot
//! `get` path only stores a tick — no allocation, no heap traffic.
//! Eviction pops the heap: a stale entry (stamp ≠ map tick, i.e.
//! touched since it was pushed) is pushed again at its current tick
//! instead of evicted. Every resident's stamp is at most its tick, so
//! the first entry popped with a current stamp holds the smallest tick
//! of all residents: the least recently used one.

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashMap};
use std::hash::Hash;

/// A recency-heap entry, ordered by its stamp alone (stamps are unique).
#[derive(Debug)]
struct Stamped<K>(u64, K);

impl<K> PartialEq for Stamped<K> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

impl<K> Eq for Stamped<K> {}

impl<K> PartialOrd for Stamped<K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K> Ord for Stamped<K> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.cmp(&other.0)
    }
}

/// One lock shard of an LRU-bounded map. Callers provide the locking
/// and the capacity policy; the shard provides recency and eviction.
#[derive(Debug)]
pub struct LruShard<K, V> {
    map: HashMap<K, (V, u64)>,
    order: BinaryHeap<Reverse<Stamped<K>>>,
    tick: u64,
}

impl<K, V> Default for LruShard<K, V> {
    fn default() -> Self {
        LruShard { map: HashMap::new(), order: BinaryHeap::new(), tick: 0 }
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
            let Some(Reverse(Stamped(stamp, old))) = self.order.pop() else { break };
            match self.map.get(&old) {
                Some(&(_, t)) if t != stamp => self.order.push(Reverse(Stamped(t, old))),
                Some(_) => {
                    self.map.remove(&old);
                    evicted += 1;
                }
                None => {}
            }
        }
        self.map.insert(k.clone(), (v, tick));
        self.order.push(Reverse(Stamped(tick, k.clone())));
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

    /// Entries pushed again after a touch must not jump ahead of older
    /// ones: a queue in push order evicted `0` here, which was touched
    /// after `1`.
    #[test]
    fn eviction_follows_last_access_not_push_order() {
        let mut s = LruShard::default();
        for k in 0..3 {
            s.insert(&k, (), 3);
        }
        s.get_mut(&1);
        s.get_mut(&0);
        s.insert(&3, (), 3); // evicts 2, the only untouched entry
        s.insert(&4, (), 3); // 1 was touched before 0
        assert!(s.get_mut(&1).is_none(), "1 was least recently used");
        for k in [0, 3, 4] {
            assert!(s.get_mut(&k).is_some(), "{k} must survive");
        }
    }

    /// Against a reference that scans every resident for the smallest
    /// last-access tick, over a seeded mix of reads and inserts.
    #[test]
    fn matches_an_exact_lru_scan() {
        let cap = 8;
        let mut s = LruShard::default();
        let mut reference: HashMap<u32, u64> = HashMap::new();
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        for tick in 0..5_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = (x % 24) as u32;
            if (x >> 40) & 1 == 0 {
                let hit = s.get_mut(&k).is_some();
                assert_eq!(hit, reference.contains_key(&k), "read of {k} at {tick}");
                if hit {
                    reference.insert(k, tick);
                }
            } else {
                if !reference.contains_key(&k) && reference.len() >= cap {
                    let lru = *reference.iter().min_by_key(|(_, &t)| t).unwrap().0;
                    reference.remove(&lru);
                }
                reference.insert(k, tick);
                s.insert(&k, (), cap);
            }
            assert_eq!(s.len(), reference.len());
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
