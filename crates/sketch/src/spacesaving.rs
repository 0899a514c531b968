//! SpaceSaving heavy-hitter summary (Metwally et al.).
//!
//! Tracks at most `k` keys. A monitored key's counter never
//! undercounts: `true ≤ count ≤ true + err` with `err ≤ n/k`, and any
//! key whose true frequency exceeds `n/k` is guaranteed to be present.
//! Merging follows the mergeable-summaries construction: counts and
//! error bounds add for common keys, a key absent from a full summary
//! contributes that summary's minimum counter as both count and error,
//! and the union is truncated back to the top `k`.

use std::collections::HashMap;

use crate::error::{ErrorBound, SketchError};
use crate::Result;

/// One monitored key with its (over-)count and error allowance.
#[derive(Debug, Clone, PartialEq)]
pub struct HeavyHitter {
    /// The tracked key.
    pub key: String,
    /// Estimated count; never less than the true count.
    pub count: u64,
    /// Maximum possible overcount: `true ≥ count − err`.
    pub err: u64,
}

/// SpaceSaving summary over string keys.
#[derive(Debug, Clone, PartialEq)]
pub struct SpaceSaving {
    capacity: usize,
    entries: HashMap<String, (u64, u64)>,
    n: u64,
}

impl SpaceSaving {
    /// Default capacity: track up to 64 keys (`err ≤ n/64`).
    pub const DEFAULT_CAPACITY: usize = 64;

    /// Summary with [`Self::DEFAULT_CAPACITY`].
    pub fn default_sketch() -> Self {
        Self::new(Self::DEFAULT_CAPACITY).expect("default capacity is valid")
    }

    /// Build a summary tracking at most `capacity ≥ 1` keys.
    pub fn new(capacity: usize) -> Result<Self> {
        if capacity == 0 {
            return Err(SketchError::BadConfig("capacity must be >= 1"));
        }
        Ok(Self { capacity, entries: HashMap::new(), n: 0 })
    }

    /// Total weight offered so far.
    pub fn total(&self) -> u64 {
        self.n
    }

    /// The configured key capacity `k`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The worst-case overcount for any reported key: `n/k`.
    pub fn error_bound(&self) -> ErrorBound {
        ErrorBound::AbsoluteCount(self.n as f64 / self.capacity as f64)
    }

    /// Smallest monitored counter (0 while under capacity) — the
    /// ceiling on any unmonitored key's true count.
    fn min_count(&self) -> u64 {
        if self.entries.len() < self.capacity {
            0
        } else {
            self.entries.values().map(|&(c, _)| c).min().unwrap_or(0)
        }
    }

    /// Offer `key` with weight `w`.
    pub fn insert(&mut self, key: &str, w: u64) {
        self.n += w;
        if let Some((c, _)) = self.entries.get_mut(key) {
            *c += w;
            return;
        }
        if self.entries.len() < self.capacity {
            self.entries.insert(key.to_string(), (w, 0));
            return;
        }
        // Evict the minimum entry; the newcomer inherits its counter as
        // possible overcount.
        let victim = self
            .entries
            .iter()
            .min_by_key(|(k, &(c, _))| (c, (*k).clone()))
            .map(|(k, &(c, _))| (k.clone(), c))
            .expect("summary at capacity is non-empty");
        self.entries.remove(&victim.0);
        self.entries.insert(key.to_string(), (victim.1 + w, victim.1));
    }

    /// Merge `other` into `self` and truncate back to capacity.
    pub fn merge(&mut self, other: &Self) -> Result<()> {
        if self.capacity != other.capacity {
            return Err(SketchError::Incompatible("SpaceSaving summaries with different capacity"));
        }
        let self_min = self.min_count();
        let other_min = other.min_count();
        let mut union: HashMap<String, (u64, u64)> = HashMap::new();
        for (k, &(c, e)) in &self.entries {
            let (oc, oe) = other.entries.get(k).copied().unwrap_or((other_min, other_min));
            union.insert(k.clone(), (c + oc, e + oe));
        }
        for (k, &(c, e)) in &other.entries {
            union.entry(k.clone()).or_insert((c + self_min, e + self_min));
        }
        let mut ranked: Vec<(String, (u64, u64))> = union.into_iter().collect();
        // Deterministic order: count desc, then key asc.
        ranked.sort_by(|a, b| b.1 .0.cmp(&a.1 .0).then_with(|| a.0.cmp(&b.0)));
        ranked.truncate(self.capacity);
        self.entries = ranked.into_iter().collect();
        self.n += other.n;
        Ok(())
    }

    /// Estimated count and error for `key`, if monitored.
    pub fn get(&self, key: &str) -> Option<HeavyHitter> {
        self.entries.get(key).map(|&(count, err)| HeavyHitter { key: key.to_string(), count, err })
    }

    /// All monitored keys, count-descending (ties broken by key).
    pub fn heavy_hitters(&self) -> Vec<HeavyHitter> {
        let mut out: Vec<HeavyHitter> = self
            .entries
            .iter()
            .map(|(k, &(count, err))| HeavyHitter { key: k.clone(), count, err })
            .collect();
        out.sort_by(|a, b| b.count.cmp(&a.count).then_with(|| a.key.cmp(&b.key)));
        out
    }

    /// Approximate heap footprint in bytes.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.entries.keys().map(|k| k.len() + 48).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_below_capacity() {
        let mut s = SpaceSaving::new(10).unwrap();
        for _ in 0..5 {
            s.insert("a", 1);
        }
        s.insert("b", 3);
        let a = s.get("a").unwrap();
        assert_eq!((a.count, a.err), (5, 0));
        let hh = s.heavy_hitters();
        assert_eq!(hh[0].key, "a");
        assert_eq!(hh[1].key, "b");
        assert_eq!(s.total(), 8);
    }

    #[test]
    fn guarantee_holds_under_eviction() {
        let mut s = SpaceSaving::new(4).unwrap();
        let mut truth: HashMap<&str, u64> = HashMap::new();
        let keys = ["a", "b", "c", "d", "e", "f", "g", "h"];
        // Skewed stream: key index i appears 2^i times.
        for (i, k) in keys.iter().enumerate() {
            for _ in 0..(1u64 << i) {
                s.insert(k, 1);
                *truth.entry(k).or_insert(0) += 1;
            }
        }
        let n = s.total();
        let k = s.capacity() as u64;
        for h in s.heavy_hitters() {
            let t = truth[h.key.as_str()];
            assert!(h.count >= t, "never undercounts: {} {} < {}", h.key, h.count, t);
            assert!(h.count - h.err <= t, "lower bound holds for {}", h.key);
            assert!(h.err <= n / k, "err {} > n/k {}", h.err, n / k);
        }
        // Every key with true frequency > n/k must be monitored.
        for (key, &t) in &truth {
            if t > n / k {
                assert!(s.get(key).is_some(), "frequent key {key} missing");
            }
        }
    }

    #[test]
    fn merge_preserves_heavy_hitters() {
        let mut a = SpaceSaving::new(8).unwrap();
        let mut b = SpaceSaving::new(8).unwrap();
        let mut truth: HashMap<String, u64> = HashMap::new();
        for i in 0..2000u64 {
            // Zipf-ish: low keys dominate.
            let key = format!("k{}", (i * i + i) % 37 % (1 + i % 13));
            let target = if i % 2 == 0 { &mut a } else { &mut b };
            target.insert(&key, 1);
            *truth.entry(key).or_insert(0) += 1;
        }
        a.merge(&b).unwrap();
        let n = a.total();
        assert_eq!(n, 2000);
        let k = a.capacity() as u64;
        for h in a.heavy_hitters() {
            let t = truth.get(h.key.as_str()).copied().unwrap_or(0);
            assert!(h.count >= t, "merged count undercounts {}", h.key);
        }
        for (key, &t) in &truth {
            if t > 2 * n / k {
                assert!(a.get(key).is_some(), "very frequent key {key} missing after merge");
            }
        }
    }

    #[test]
    fn mismatched_capacity_refuses() {
        let mut a = SpaceSaving::new(4).unwrap();
        let b = SpaceSaving::new(8).unwrap();
        assert!(a.merge(&b).is_err());
    }
}
